"""Tests for the circuit elements: splitters, displacements, sources, POVMs."""

import math

import numpy as np
import pytest
from scipy.linalg import expm, logm

from pbsim.errors import ValidationError
from pbsim.fock import FockVector, number_state, vacuum_state
from pbsim.ops import (TwoModeUnitary, _splitter_block, _transfer_tensor,
                       apply_single_mode_op, apply_two_mode_unitary,
                       beam_splitter_5050, beam_splitter_pb, detector_povm,
                       displacement_op)

from oracles import tensor_product, tmsv


def two_photon_input(cutoff=2):
    return tensor_product(number_state(1, cutoff), number_state(1, cutoff))


def test_two_mode_unitary_validation():
    with pytest.raises(ValidationError):
        TwoModeUnitary(np.array([[1.0, 0.0], [1.0, 1.0]]))
    u = TwoModeUnitary(np.eye(2, dtype=complex))
    assert np.allclose(u.u, np.eye(2))


def test_hong_ou_mandel():
    # |1,1> through the 50-50 splitter: coincidence amplitude cancels
    out = apply_two_mode_unitary(two_photon_input(), (0, 1),
                                 beam_splitter_5050())
    a = out.amplitudes
    assert abs(a[1, 1]) < 1e-14
    assert a[2, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert a[0, 2] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)


def test_single_photon_split_convention():
    # creation operator of the first input maps to (a1+ - a2+)/sqrt(2)
    inp = tensor_product(number_state(1, 1), vacuum_state(1))
    out = apply_two_mode_unitary(inp, (0, 1), beam_splitter_5050())
    assert out.amplitudes[1, 0] == pytest.approx(1 / math.sqrt(2))
    assert out.amplitudes[0, 1] == pytest.approx(-1 / math.sqrt(2))


def test_beam_splitter_pb_entries():
    b = beam_splitter_pb(1, 4)
    assert b.u[0, 0] == pytest.approx(math.sqrt(3.0 / 4.0))
    assert b.u[0, 1] == pytest.approx(-0.5)
    assert b.u[1, 0] == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        beam_splitter_pb(4, 4)
    with pytest.raises(ValidationError):
        beam_splitter_pb(0, 4)


def test_transfer_conserves_photon_number():
    rng = np.random.default_rng(8)
    amp = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    amp /= np.linalg.norm(amp)
    v = FockVector(amp)
    u = beam_splitter_pb(2, 3)
    out = apply_two_mode_unitary(v, (0, 1), u)
    # total-photon-number marginals are preserved
    def marginal(x):
        p = np.zeros(2 * 3 + 1)
        for m in range(4):
            for n in range(4):
                p[m + n] += abs(x[m, n]) ** 2
        return p
    got = marginal(out.amplitudes)
    want = marginal(v.amplitudes)
    # components above the cutoff leak out of sectors 4..6
    assert np.all(got[:4] <= want[:4] + 1e-12)
    assert got[0] == pytest.approx(want[0], abs=1e-12)


def test_leakage_accounting():
    # |2,2> through a 50-50 splitter at cutoff 2 loses the n=3,4 parts
    inp = tensor_product(number_state(2, 2), number_state(2, 2))
    out = apply_two_mode_unitary(inp, (0, 1), beam_splitter_5050())
    assert not out.normalized
    assert out.leakage == pytest.approx(1.0 - out.norm_sq(), abs=1e-12)
    assert out.leakage > 0.7


def splitter_matrices():
    rng = np.random.default_rng(12)
    haar, _ = np.linalg.qr(rng.standard_normal((2, 2))
                           + 1j * rng.standard_normal((2, 2)))
    return {"5050": beam_splitter_5050().u, "pb14": beam_splitter_pb(1, 4).u,
            "pb26": beam_splitter_pb(2, 6).u, "random": haar}


def transfer_oracle(u, cutoff):
    """T[m, n, a, b] as matrix elements of expm(sum_ij (log u)_ij a_j+ a_i),
    which sends a_i+ to sum_j u_ij a_j+. The generator keeps each photon
    block, and per-mode cutoff 2 cutoff + 1 holds every block an input
    with m, n <= cutoff reaches whole, so nothing is cut before the
    outputs are restricted to a, b <= cutoff."""
    dim = 2 * cutoff + 2
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    ops = [np.kron(a, np.eye(dim)), np.kron(np.eye(dim), a)]
    log_u = logm(u)
    gen = sum(log_u[i, j] * ops[j].conj().T @ ops[i]
              for i in range(2) for j in range(2))
    full = expm(gen).reshape((dim,) * 4)  # [a, b, m, n]
    kept = full[:cutoff + 1, :cutoff + 1, :cutoff + 1, :cutoff + 1]
    return kept.transpose(2, 3, 0, 1)


@pytest.mark.parametrize("name", ["5050", "pb14", "pb26", "random"])
def test_transfer_tensor_matches_generator_oracle(name):
    u = splitter_matrices()[name]
    for cutoff in range(1, 7):
        err = np.abs(_transfer_tensor(u, cutoff)
                     - transfer_oracle(u, cutoff)).max()
        assert err < 1e-13, (cutoff, err)


@pytest.mark.parametrize("name", ["5050", "pb14", "pb26", "random"])
def test_transfer_tensor_blocks_unitary_at_cutoff_16(name):
    # phase_est's working cutoff at s = 8; photon blocks N <= 16 are whole
    T = _transfer_tensor(splitter_matrices()[name], 16)
    for total in range(17):
        k = np.arange(total + 1)
        block = T[k[:, None], total - k[:, None], k, total - k]
        err = np.abs(block @ block.conj().T - np.eye(total + 1)).max()
        assert err < 1e-13, (total, err)


def test_splitter_blocks_match_the_transfer_tensor():
    T = _transfer_tensor(beam_splitter_5050().u, 16)
    for total in range(17):
        k = np.arange(total + 1)
        want = T[k[:, None], total - k[:, None], k, total - k]
        err = np.abs(_splitter_block(total) - want).max()
        assert err < 1e-14, (total, err)
    assert not _splitter_block(16).flags.writeable


def test_splitter_blocks_orthogonal_at_large_photon_numbers():
    try:
        for total in (100, 400):
            block = _splitter_block(total)
            err = np.abs(block @ block.T - np.eye(total + 1)).max()
            assert err < 1e-13, (total, err)
    finally:
        _splitter_block.cache_clear()  # the n = 400 block alone is 1.3 MB


def test_tmsv_norm():
    q, cutoff = 0.4, 5
    st = tmsv(q, cutoff)
    nkept = cutoff + 1
    assert st.norm_sq() == pytest.approx(
        (1 - q ** 2) * (1 - q ** (2 * nkept)) / (1 - q ** 2), abs=1e-12)
    assert st.amplitudes[3, 3] == pytest.approx(math.sqrt(1 - q * q) * q ** 3)
    assert st.amplitudes[1, 2] == 0.0
    limited = tmsv(q, cutoff, max_terms=2)
    assert limited.amplitudes[2, 2] == 0.0
    with pytest.raises(ValidationError):
        tmsv(1.0, 3)


def test_displacement_series_vs_exact():
    # order-5 series against the matrix exponential at small amplitude
    alpha = 0.05
    d_series = displacement_op(alpha, 5, scheme="series")
    d_exact = displacement_op(alpha, 5, scheme="exact")
    assert np.abs(d_series - d_exact).max() < 1e-7


@pytest.mark.parametrize("alpha", [0.05, 0.3 + 0.2j, -0.7j, 1.5 - 0.4j, 3.0])
@pytest.mark.parametrize("cutoff", range(1, 30))
def test_displacement_exact_matches_expm(cutoff, alpha):
    # the eigendecomposition of i*g against scipy's matrix exponential
    dim = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    g = alpha * a.conj().T - np.conj(alpha) * a
    want = expm(g)
    got = displacement_op(alpha, cutoff, scheme="exact")
    assert np.abs(got - want).max() < 1e-13
    # exact scheme is unitary on the truncated space
    assert np.abs(got @ got.conj().T - np.eye(dim)).max() < 1e-13


def test_displacement_on_vacuum_gives_coherent_amplitudes():
    alpha = 0.2
    cutoff = 8
    d = displacement_op(alpha, cutoff, scheme="exact")
    out = apply_single_mode_op(vacuum_state(cutoff), 0, d)
    want = np.exp(-abs(alpha) ** 2 / 2) * np.array(
        [alpha ** n / math.sqrt(math.factorial(n)) for n in range(cutoff + 1)])
    assert np.abs(out.amplitudes - want).max() < 1e-9


@pytest.mark.parametrize("mode", [0, 1, 2, 3])
def test_single_mode_op_on_every_mode_matches_einsum(mode):
    # a general (non-unitary) op on any axis of a 4-mode state, middle
    # modes included, against an explicit index contraction
    rng = np.random.default_rng(40 + mode)
    shape = (4,) * 4
    amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amp /= np.linalg.norm(amp)
    op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    state = FockVector(amp, leakage=0.25)
    out = apply_single_mode_op(state, mode, op)
    idx = "abcd"
    sub = f"x{idx[mode]},{idx}->{idx.replace(idx[mode], 'x')}"
    want = np.einsum(sub, op, amp)
    assert np.abs(out.amplitudes - want).max() < 1e-12
    nsq = np.vdot(want, want).real
    assert out.normalized is False
    assert out.leakage == pytest.approx(0.25 + max(0.0, 1.0 - nsq), abs=1e-12)


def test_detector_povm_entries():
    p = detector_povm(0.6, 4)
    # click is E's diagonal, real
    assert p.click.shape == (5,) and p.click.dtype == np.float64
    assert p.click[0] == 0.0
    assert p.click[1] == pytest.approx(0.6)
    assert p.click[2] == pytest.approx(0.24)
    # the no-click element I - E has diagonal 1 - eta(1-eta)^(k-1), k >= 1
    no_click = 1.0 - p.click
    assert np.allclose(no_click, [1.0, 0.4, 0.76, 0.904, 0.9616])
    assert p.tail_weight == pytest.approx((1 - 0.6) ** 4)
    unit = detector_povm(1.0, 4)
    assert np.allclose(unit.click, [0.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        detector_povm(1.2, 4)


def test_click_diagonal_is_one_given_photon_detected():
    # E[k, k] = eta (1-eta)^(k-1): one given photon is detected and the
    # other k - 1 are lost. The binomial weight k eta (1-eta)^(k-1) and
    # the on/off weight 1 - (1-eta)^k agree with it only at k = 1 (all
    # three vanish at k = 0).
    eta, k = 0.6, np.arange(6)
    diag = detector_povm(eta, 5).click
    want = np.where(k > 0, eta * (1 - eta) ** (k - 1.0), 0.0)
    assert np.abs(diag - want).max() < 1e-15
    binomial = k * eta * (1 - eta) ** (k - 1.0)
    on_off = 1 - (1 - eta) ** k
    for other in (binomial, on_off):
        assert list(k[np.isclose(want, other, rtol=1e-12, atol=0)]) == [0, 1]
