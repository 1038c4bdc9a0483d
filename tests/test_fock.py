"""Tests for the truncated Fock-space containers and contractions."""

import numpy as np
import pytest

from pbsim import fock
from pbsim.errors import (ConfigMismatchError, DegenerateHeraldError,
                          ValidationError)
from pbsim.fock import (FockDensity, FockVector, conditional_density,
                        fidelity_pure, number_state, vacuum_state)
from pbsim.ops import apply_single_mode_op, detector_povm
from pbsim.phase_est import interference_probs

from oracles import pad_to_cutoff, tensor_product


def random_vector(cutoff, modes, seed, normalized=True):
    rng = np.random.default_rng(seed)
    shape = (cutoff + 1,) * modes
    amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if normalized:
        amp /= np.linalg.norm(amp)
    return FockVector(amp)


def test_shape_validation():
    for bad in (np.zeros(()), np.zeros(1), np.zeros((3, 4))):
        with pytest.raises(ValidationError):
            FockVector(bad)
    with pytest.raises(ValidationError):
        FockVector([1.0, np.nan])
    for cutoff, modes in ((-1, 1), (0, 2), (2, 0)):
        with pytest.raises(ValidationError):
            vacuum_state(cutoff, modes)
    v = FockVector(np.zeros((5, 5)))
    assert (v.cutoff, v.modes) == (4, 2)
    # states on different cutoffs do not combine
    with pytest.raises(ConfigMismatchError):
        tensor_product(v, vacuum_state(3))
    with pytest.raises(ConfigMismatchError):
        fidelity_pure(FockDensity.from_pure(vacuum_state(3)), vacuum_state(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_non_finite_amplitudes_are_refused(bad, part):
    # in the real and in the imaginary part, wherever the entry sits
    for index in ((0, 0), (2, 1)):
        amp = np.zeros((3, 3), dtype=complex)
        getattr(amp, part)[index] = bad
        with pytest.raises(ValidationError, match="non-finite amplitude"):
            FockVector(amp)
    FockVector(np.full((3, 3), 1e308 - 1e308j))


def test_normalized_follows_the_norm():
    amp = np.array([1.0, 1.0, 0.0], dtype=complex)
    assert not FockVector(amp).normalized
    assert FockVector(amp / np.sqrt(2.0)).normalized
    # a non-unitary op that brings a subnormalized state back to unit
    # norm gives a normalized state
    half = FockVector(amp / 2.0)
    assert not half.normalized
    out = apply_single_mode_op(half, 0, np.sqrt(2.0) * np.eye(3))
    assert out.normalized
    assert out.leakage == 0.0


def test_unit_norm_required_where_it_matters():
    sub = FockVector(np.array([0.6, 0.0, 0.0], dtype=complex))
    rho = FockDensity.from_pure(number_state(0, 2))
    with pytest.raises(ValidationError, match="normalized"):
        fidelity_pure(rho, sub)
    unit = number_state(0, 2)
    with pytest.raises(ValidationError, match="normalized"):
        interference_probs(sub, unit)
    with pytest.raises(ValidationError, match="normalized"):
        interference_probs(unit, sub)


def test_tensor_product_norm_multiplies():
    # norm(a (x) b) = norm(a) norm(b), direct-summation oracle
    a = random_vector(3, 1, seed=1, normalized=False)
    b = random_vector(3, 2, seed=2, normalized=False)
    t = tensor_product(a, b)
    assert t.modes == 3
    direct = np.sqrt(sum(abs(x * y) ** 2
                         for x in a.amplitudes.ravel()
                         for y in b.amplitudes.ravel()))
    assert np.sqrt(t.norm_sq()) == pytest.approx(direct, abs=1e-12)


def test_tensor_product_axis_order():
    one = number_state(1, 2)
    vac = vacuum_state(2)
    t = tensor_product(one, vac)
    assert t.amplitudes[1, 0] == pytest.approx(1.0)
    assert t.amplitudes[0, 1] == pytest.approx(0.0)


def test_density_hermitian_and_psd_checks():
    good = FockDensity.from_pure(number_state(2, 3))
    assert good.matrix[2, 2] == pytest.approx(1.0)
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValidationError):
        FockDensity(bad)
    neg = -np.eye(3, dtype=complex)
    with pytest.raises(ValidationError):
        FockDensity(neg)


def test_fidelity_pure_double_sum_oracle():
    rng = np.random.default_rng(11)
    dim = 5
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    m /= np.trace(m).real
    rho = FockDensity(m)
    psi = random_vector(dim - 1, 1, seed=12)
    direct = sum(np.conj(psi.amplitudes[i]) * m[i, j] * psi.amplitudes[j]
                 for i in range(dim) for j in range(dim)).real
    assert fidelity_pure(rho, psi) == pytest.approx(direct, abs=1e-12)


def test_conditional_density_identity_povm_is_reduced_state():
    v = random_vector(2, 2, seed=21)
    rho, p = conditional_density(v, [np.ones(3)], kept_mode=1)
    assert p == pytest.approx(1.0)
    amp = v.amplitudes
    reduced = np.einsum("ka,kb->ab", amp, amp.conj())
    assert np.allclose(rho.matrix, reduced, atol=1e-12)


def test_conditional_density_factorizes_on_product_state():
    # P = eta^2 when two auxiliary modes each hold exactly one photon
    eta = 0.73
    one = number_state(1, 2)
    psi = random_vector(2, 1, seed=31)
    state = tensor_product(tensor_product(one, one), psi)
    e = np.array([0.0, eta, eta * (1 - eta)])
    rho, p = conditional_density(state, [e, e], kept_mode=2)
    assert p == pytest.approx(eta ** 2, abs=1e-12)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-10)


def test_conditional_density_zero_probability():
    vac = tensor_product(vacuum_state(2), vacuum_state(2))
    click = np.array([0.0, 1.0, 0.0])
    with pytest.raises(DegenerateHeraldError):
        conditional_density(vac, [click], kept_mode=1)


def condition_oracle(amp, povms, kept_mode):
    """<Psi|(tensor E (x) |a><b|)|Psi> as one einsum over explicit
    indices; any POVM matrices, diagonal or not (the diagonals that
    conditional_density takes go in through np.diag)."""
    letters = "abcdefghijklmnopqrstuvw"
    ket, bra, terms = [], [], []
    others = iter(povms)
    for mode in range(amp.ndim):
        u, v = letters[2 * mode], letters[2 * mode + 1]
        if mode == kept_mode:
            ket.append("X")
            bra.append("Y")
        else:
            ket.append(v)
            bra.append(u)
            terms.append((f"{u}{v}", next(others)))
    sub = ",".join([t for t, _ in terms] + ["".join(ket), "".join(bra)])
    raw = np.einsum(sub + "->XY", *[e for _, e in terms], amp, amp.conj(),
                    optimize=True)
    p = np.trace(raw).real
    return raw / p, p


@pytest.mark.parametrize("kept_mode", [0, 1, 2, 3])
def test_conditional_density_diagonal_povms_match_einsum(kept_mode):
    rng = np.random.default_rng(50 + kept_mode)
    v = random_vector(3, 4, seed=60 + kept_mode)
    povms = [rng.uniform(0.0, 1.0, 4) for _ in range(3)]
    rho, p = conditional_density(v, povms, kept_mode=kept_mode)
    want_rho, want_p = condition_oracle(v.amplitudes,
                                        [np.diag(d) for d in povms], kept_mode)
    assert p == pytest.approx(want_p, rel=1e-12)
    assert np.abs(rho.matrix - want_rho).max() < 1e-12


@pytest.mark.parametrize("block", [fock.CONDITION_BLOCK, 5, 1])
@pytest.mark.parametrize("kept_mode", [0, 1, 2, 3])
def test_conditional_density_zero_weights_match_einsum(kept_mode, block,
                                                       monkeypatch):
    # click elements have E[0, 0] = 0, and at eta = 1 only E[1, 1] is
    # nonzero, so whole photon-number patterns carry zero weight; a block
    # of 5 patterns splits them over several blocks with a short last one,
    # and a block of 1 reads one pattern at a time
    monkeypatch.setattr(fock, "CONDITION_BLOCK", block)
    v = random_vector(3, 4, seed=80 + kept_mode)
    interior = np.array([0.7, 0.0, 0.4, 1.0])
    povms = [detector_povm(1.0, 3).click, detector_povm(0.8, 3).click,
             interior]
    rho, p = conditional_density(v, povms, kept_mode=kept_mode)
    want_rho, want_p = condition_oracle(v.amplitudes,
                                        [np.diag(d) for d in povms], kept_mode)
    assert p == pytest.approx(want_p, rel=1e-12)
    assert np.abs(rho.matrix - want_rho).max() < 1e-12
    with pytest.raises(DegenerateHeraldError):
        conditional_density(v, [np.zeros(4)] + povms[1:],
                            kept_mode=kept_mode)


@pytest.mark.parametrize("block", [fock.CONDITION_BLOCK, 5, 1])
@pytest.mark.parametrize("kept_mode", [0, 1, 2, 3])
def test_conditional_density_projectors_and_identity_match_einsum(
        kept_mode, block, monkeypatch):
    # a number projector's span is one index, at either end or inside the
    # axis; the identity's is the whole axis, on every conditioned mode
    # (the reduced state) or beside projectors
    monkeypatch.setattr(fock, "CONDITION_BLOCK", block)
    v = random_vector(3, 4, seed=90 + kept_mode)
    proj = [np.eye(4)[n] for n in (0, 3, 2)]
    ones = np.ones(4)
    for povms in (proj, [ones] * 3, [proj[1], ones, proj[2]],
                  [ones, proj[0], ones]):
        rho, p = conditional_density(v, povms, kept_mode=kept_mode)
        want_rho, want_p = condition_oracle(
            v.amplitudes, [np.diag(d) for d in povms], kept_mode)
        assert p == pytest.approx(want_p, rel=1e-12)
        assert np.abs(rho.matrix - want_rho).max() < 1e-12
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)


def test_conditional_density_of_one_mode_is_the_pure_state():
    v = random_vector(3, 1, seed=95, normalized=False)
    rho, p = conditional_density(v, [], kept_mode=0)
    a = v.amplitudes
    assert p == pytest.approx(v.norm_sq(), rel=1e-14)
    assert np.abs(rho.matrix - np.outer(a, a.conj()) / p).max() < 1e-15


def test_conditional_density_rejects_bad_povm_diagonals():
    v = random_vector(2, 2, seed=71)
    good = np.array([0.0, 0.5, 1.0])
    conditional_density(v, [good], kept_mode=1)
    for value in (-0.1, np.inf, np.nan):
        bad = good.copy()
        bad[2] = value
        with pytest.raises(ValidationError, match="finite and >= 0"):
            conditional_density(v, [bad], kept_mode=1)
    for bad in (good[:2], np.diag(good)):
        with pytest.raises(ValidationError, match="POVM diagonal shape"):
            conditional_density(v, [bad], kept_mode=1)
    with pytest.raises(ValidationError):
        conditional_density(v, [good, good], kept_mode=1)


def test_pad_to_cutoff():
    v = number_state(1, 1)
    w = pad_to_cutoff(v, 4)
    assert w.cutoff == 4
    assert w.amplitudes[1] == pytest.approx(1.0)
    assert w.norm_sq() == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        pad_to_cutoff(w, 2)
    assert pad_to_cutoff(v, 1) is v


def test_number_state_validation():
    with pytest.raises(ValidationError):
        number_state(3, 2)
    v = number_state(0, 1)
    assert v.amplitudes[0] == pytest.approx(1.0)
