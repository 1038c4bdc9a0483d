"""Tests for the heralded generation circuit and its displacement solver."""

import dataclasses
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import pbsim.fock
import pbsim.herald
from pbsim.errors import (CutoffError, DegenerateHeraldError, LeakageWarning,
                          NumericalError, QuadratureError, ValidationError)
from pbsim.fock import (HERM_TOL, FockVector, conditional_density,
                        fidelity_pure, vacuum_state)
from pbsim.herald import (HeraldConfig, _condition, alpha_polynomial,
                          build_state, herald_alphas, herald_point,
                          solve_alphas, sweep, symmetric_factors)
from pbsim.ops import (apply_single_mode_op, apply_two_mode_unitary,
                       beam_splitter_pb, detector_povm, displacement_op)
from pbsim.phase_states import pb_eigenstate

from oracles import tensor_product, tmsv


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_symmetric_factors_closed_form(s):
    # f_{s,j} = sqrt(j!) / s^(j/2)
    f = symmetric_factors(s)
    assert len(f) == s + 1
    for j in range(s + 1):
        want = math.sqrt(math.factorial(j)) / s ** (j / 2)
        assert f[j] == pytest.approx(want, rel=1e-12)


def probe_amplitudes(s, t, q):
    """Mode-A amplitudes of the first-order circuit, every displacement
    I + t a+ - t a, heralded on exactly one photon in every distribution
    mode. Modes are created, displaced and projected one at a time."""
    dim = s + 1
    n = np.arange(1, dim)
    adag = np.zeros((dim, dim))
    adag[n, n - 1] = np.sqrt(n)
    d1 = np.eye(dim) + t * adag - t * adag.T
    st = tmsv(q, s)
    for k in range(1, s):
        st3 = tensor_product(vacuum_state(s, 1), st)
        st3 = apply_two_mode_unitary(st3, (0, 1), beam_splitter_pb(k, s))
        st3 = apply_single_mode_op(st3, 0, d1)
        st = FockVector(st3.amplitudes[1])
    return apply_single_mode_op(st, 0, d1).amplitudes[1]


@pytest.mark.parametrize("s", range(1, 9))
def test_symmetric_factors_match_multilinearity_probe(s):
    # the amplitude of |j>_A is a polynomial in t with powers s-j, s-j+2,
    # ...; its t^(s-j) coefficient is sqrt(1-q^2) q^j C(s, j) f_{s,j}
    q = 0.1
    ts = np.linspace(-1.0, 1.0, 2 * s + 3)
    amps = np.stack([probe_amplitudes(s, float(t), q) for t in ts])
    vander = np.vander(ts, s + 1, increasing=True)
    coef = np.linalg.lstsq(vander, amps, rcond=None)[0]
    assert np.abs(vander @ coef - amps).max() < 1e-12
    f = symmetric_factors(s)
    for j in range(s + 1):
        col = coef[:, j] / (math.sqrt(1.0 - q * q) * q ** j)
        want = s - j
        assert col[want] / math.comb(s, j) == pytest.approx(f[j], rel=1e-12)
        spurious = [col[w] for w in range(s + 1)
                    if w != want and (w < want or (w - want) % 2)]
        assert np.max(np.abs(spurious), initial=0.0) < 1e-10


def test_alpha_polynomial_coefficients():
    s, q = 3, 0.2
    f = symmetric_factors(s)
    poly = alpha_polynomial(s, q)
    assert poly[0] == 1.0
    for k in range(s + 1):
        want = (-1.0) ** k * (f[s] / f[s - k]) * q ** k
        assert poly[k] == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValidationError):
        alpha_polynomial(3, 0.0)


def test_vieta_round_trip():
    poly = alpha_polynomial(7, 0.1)
    roots = solve_alphas(poly)
    back = np.poly(roots)
    assert np.abs(back - poly).max() < 1e-10


def test_solve_alphas_requires_monic():
    with pytest.raises(ValidationError):
        solve_alphas(np.array([2.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        solve_alphas(np.array([1.0]))


def aberth(poly, tol=1e-13):
    # independent root finder used to cross-check solve_alphas
    c = np.asarray(poly, dtype=np.complex128)
    n = c.size - 1
    z = 0.4 * np.exp(2j * np.pi * (np.arange(n) + 0.25) / n)
    dc = np.polyder(c)
    for _ in range(200):
        pv = np.polyval(c, z)
        dv = np.polyval(dc, z)
        w = pv / dv
        corr = np.array([w[i] / (1 - w[i] * np.sum(1 / (z[i] - np.delete(z, i))))
                         for i in range(n)])
        z = z - corr
        if np.abs(corr).max() < tol:
            break
    return z


def test_roots_against_independent_solver():
    poly = alpha_polynomial(4, 0.2)
    got = solve_alphas(poly)
    alt = aberth(poly)
    alt = alt[np.lexsort((alt.imag, alt.real))]
    assert np.abs(np.polyval(poly, alt)).max() < 1e-10
    assert np.abs(got - alt).max() < 1e-8


@pytest.mark.parametrize("s", [3, 4, 5])
def test_equal_weight_condition(s):
    # q^j f_j e_{s-j}(roots) must be j-independent
    q = 0.15
    f = symmetric_factors(s)
    roots = solve_alphas(alpha_polynomial(s, q))
    coeffs = np.poly(roots)
    e = [(-1.0) ** k * coeffs[k] for k in range(s + 1)]
    weights = [q ** j * f[j] * e[s - j] for j in range(s + 1)]
    ref = weights[0]
    for w in weights[1:]:
        assert abs(w - ref) < 1e-8 * abs(ref)


def test_herald_alphas_zero_squeezing():
    assert np.all(herald_alphas(HeraldConfig(s=2, r=0.0, eta=1.0)) == 0.0)


def cascade_oracle(cfg, alphas):
    """The all-modes cascade: every splitter, then every displacement,
    each applied to the full (s+1)-mode tensor."""
    st = tmsv(cfg.q, cfg.cutoff, max_terms=cfg.tmsv_terms)
    if cfg.s > 1:
        st = tensor_product(vacuum_state(cfg.cutoff, cfg.s - 1), st)
    for k in range(1, cfg.s):
        st = apply_two_mode_unitary(st, (k - 1, cfg.s - 1),
                                    beam_splitter_pb(k, cfg.s))
    for i in range(cfg.s):
        d = displacement_op(complex(alphas[i]), cfg.cutoff,
                            scheme=cfg.displacement_scheme)
        st = apply_single_mode_op(st, i, d)
    return st


@pytest.mark.parametrize("scheme", ["series", "exact"])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_build_state_matches_cascade_oracle(s, scheme):
    for cutoff in range(s, s + 3):
        for r in (0.1, 0.3):
            cfg = HeraldConfig(s=s, r=r, eta=1.0, cutoff=cutoff,
                               displacement_scheme=scheme)
            alphas = herald_alphas(cfg)
            got = build_state(cfg, alphas)
            want = cascade_oracle(cfg, alphas)
            assert got.amplitudes.shape == want.amplitudes.shape
            assert got.normalized == want.normalized
            assert np.abs(got.amplitudes - want.amplitudes).max() < 1e-12
            assert got.leakage == pytest.approx(want.leakage, abs=1e-12)
            for eta in (1.0, 0.8, 0.6):
                clicks = [detector_povm(eta, cutoff).click] * s
                rho, p = conditional_density(got, clicks, kept_mode=s)
                rho_w, p_w = conditional_density(want, clicks, kept_mode=s)
                assert p == pytest.approx(p_w, rel=1e-12)
                assert np.abs(rho.matrix - rho_w.matrix).max() < 1e-12


@pytest.mark.parametrize("s, alphas", [
    (1, [1.5]),
    (3, np.linspace(2.0, -0.5, 3) + 0.3j),
    (5, np.linspace(2.0, -0.5, 5) + 0.3j)], ids=["s1", "s3", "s5"])
def test_build_state_leakage_matches_cascade_oracle(s, alphas):
    # large series displacements really lose norm (the order-5 Taylor sum
    # is not unitary), so the leakage read off the carrier's reduced
    # density is checked against the cascade's full-tensor norms
    cfg = HeraldConfig(s=s, r=0.3, eta=1.0, cutoff=s + 1)
    alphas = np.asarray(alphas, dtype=complex)
    want = cascade_oracle(cfg, alphas).leakage
    assert want > 0.05
    with pytest.warns(LeakageWarning):
        got = build_state(cfg, alphas).leakage
    assert got == pytest.approx(want, abs=1e-12)


@pytest.fixture(scope="module")
def six_mode_alphas():
    cfg = HeraldConfig(s=6, r=0.2, eta=1.0, cutoff=8)
    return cfg, herald_alphas(cfg)


def test_build_state_peak_memory(six_mode_alphas):
    # the tensor grows one mode at a time, so at most the input and the
    # output of one step are alive: about twice the final tensor
    cfg, alphas = six_mode_alphas
    tracemalloc.start()
    try:
        st = build_state(cfg, alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.amplitudes.size == 9 ** 7
    assert peak <= 2.5 * st.amplitudes.nbytes


def test_conditional_density_peak_memory(six_mode_alphas):
    # one weighted copy of the state; no per-mode contraction copies
    cfg, alphas = six_mode_alphas
    st = build_state(cfg, alphas)
    clicks = [detector_povm(0.8, cfg.cutoff).click] * cfg.s
    tracemalloc.start()
    try:
        conditional_density(st, clicks, kept_mode=cfg.s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * st.amplitudes.nbytes


def traced_peak(call):
    """call()'s result and the peak bytes numpy allocated while it ran."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_state_peak_memory_fused(six_mode_alphas):
    # one fused split-and-displace matmul per splitter: besides the output
    # only the last step's input, a ninth of it, is alive
    cfg, alphas = six_mode_alphas
    st, peak = traced_peak(lambda: build_state(cfg, alphas))
    assert peak <= 1.5 * st.amplitudes.nbytes


def test_conditional_density_peak_memory_blocks(six_mode_alphas):
    # the nonzero-weight patterns are gathered a block at a time, so no
    # state-sized copy is made
    cfg, alphas = six_mode_alphas
    st = build_state(cfg, alphas)
    clicks = [detector_povm(0.8, cfg.cutoff).click] * cfg.s
    _, peak = traced_peak(
        lambda: conditional_density(st, clicks, kept_mode=cfg.s))
    assert peak <= 0.5 * st.amplitudes.nbytes


def test_exact_norm_accounting():
    # with unitary displacements all norm loss is truncation leakage
    cfg = HeraldConfig(s=3, r=0.25, eta=1.0, cutoff=4,
                       tmsv_terms=5, displacement_scheme="exact")
    st = build_state(cfg)
    source_norm = tmsv(cfg.q, cfg.cutoff, max_terms=cfg.tmsv_terms).norm_sq()
    assert st.norm_sq() + st.leakage == pytest.approx(source_norm, abs=1e-12)


def test_permutation_invariance():
    cfg = HeraldConfig(s=3, r=0.2, eta=0.8)
    alphas = herald_alphas(cfg)
    povm = detector_povm(cfg.eta, cfg.cutoff)

    def run(perm):
        st = build_state(cfg, alphas[list(perm)])
        return conditional_density(st, [povm.click] * cfg.s, kept_mode=cfg.s)

    base_rho, base_p = run((0, 1, 2))
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        rho, p = run(perm)
        assert p == pytest.approx(base_p, rel=1e-10)
        assert np.abs(rho.matrix - base_rho.matrix).max() < 1e-10


def test_projector_limit_at_unit_efficiency():
    # eta = 1 click operator is the one-photon projector, so conditioning
    # must match the amplitude slice at one photon in each detector
    cfg = HeraldConfig(s=2, r=0.2, eta=1.0)
    st = build_state(cfg)
    povm = detector_povm(cfg.eta, cfg.cutoff)
    _, p_click = conditional_density(st, [povm.click] * 2, kept_mode=2)
    proj = st.amplitudes[1, 1]
    assert p_click == pytest.approx(np.vdot(proj, proj).real, abs=1e-12)


@pytest.mark.parametrize("s", range(1, 7))
def test_unit_efficiency_reads_one_pattern(s):
    # at eta = 1 only the pattern of one photon in every detector carries
    # weight, so rho_A is that amplitude slice's normalized outer product
    cfg = HeraldConfig(s=s, r=0.2, eta=1.0, cutoff=s + 1)
    st = build_state(cfg)
    click = detector_povm(cfg.eta, cfg.cutoff).click
    rho, p = conditional_density(st, [click] * s, kept_mode=s)
    psi = st.amplitudes[(1,) * s]
    norm_sq = np.vdot(psi, psi).real
    assert p == pytest.approx(norm_sq, rel=1e-12)
    assert np.abs(rho.matrix - np.outer(psi, psi.conj()) / norm_sq).max() \
        < 1e-12


def test_efficiency_sandwich():
    # per-click weight eta (1-eta)^(k-1) lies between
    # eta (1-eta)^(cutoff-1) and eta times the k >= 1 projector
    s, r, eta, cutoff = 2, 0.2, 0.6, 4
    cfg = HeraldConfig(s=s, r=r, eta=eta, cutoff=cutoff)
    st = build_state(cfg)
    dim = cutoff + 1
    geq1 = np.ones(dim)
    geq1[0] = 0.0
    _, p_geq1 = conditional_density(st, [geq1] * s, kept_mode=s)
    click = detector_povm(eta, cutoff).click
    _, p = conditional_density(st, [click] * s, kept_mode=s)
    lo = (eta * (1 - eta) ** (cutoff - 1)) ** s * p_geq1
    hi = eta ** s * p_geq1
    assert lo - 1e-15 <= p <= hi + 1e-15


def test_zero_squeezing_cannot_herald():
    with pytest.raises(DegenerateHeraldError):
        herald_point(HeraldConfig(s=2, r=0.0, eta=1.0))


def test_config_validation():
    with pytest.raises(CutoffError):
        HeraldConfig(s=6, r=0.1, eta=1.0, cutoff=5)
    with pytest.raises(ValidationError):
        HeraldConfig(s=0, r=0.1, eta=1.0)
    with pytest.raises(ValidationError):
        HeraldConfig(s=2, r=0.1, eta=1.5)
    with pytest.raises(ValidationError):
        HeraldConfig(s=2, r=-0.1, eta=1.0)
    with pytest.raises(ValidationError):
        HeraldConfig(s=2, r=0.1, eta=1.0, displacement_scheme="pade")
    # q = tanh(r) must lie in [0, 1): it is nan, or rounds to 1
    for r in (math.nan, math.inf, 19.0616):
        with pytest.raises(ValidationError, match="tanh"):
            HeraldConfig(s=2, r=r, eta=1.0)


def test_leakage_warning():
    # the order-5 series displacement at alpha = 1.5 and cutoff 2 really
    # loses norm; the default circuit loses only rounding residue
    with pytest.warns(LeakageWarning):
        st = build_state(HeraldConfig(s=1, r=0.3, eta=1.0, cutoff=2), [1.5])
    assert st.leakage > 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error", LeakageWarning)
        herald_point(HeraldConfig(s=4, r=0.3, eta=1.0))


def test_herald_point_fields():
    res = herald_point(HeraldConfig(s=2, r=0.2, eta=0.9))
    assert len(res.alphas) == 2
    assert 0.0 < res.P < 1.0
    assert 0.9 < res.F <= 1.0
    assert res.V > 0.0
    assert res.rho_A.trace == pytest.approx(1.0, abs=1e-10)


def test_sweep_grid_order_and_errors():
    rows = sweep(2, [0.0, 0.2], [1.0, 0.8])
    assert len(rows) == 4
    assert [(r.eta, r.r) for r in rows] == [(1.0, 0.0), (1.0, 0.2),
                                            (0.8, 0.0), (0.8, 0.2)]
    bad = rows[0]
    assert bad.error is not None
    assert math.isnan(bad.P) and math.isnan(bad.F) and math.isnan(bad.V)
    good = rows[1]
    assert good.error is None
    assert good.P > 0 and 0 < good.F <= 1
    assert sweep(2, [], [1.0]) == []


def test_sweep_rows_match_herald_point():
    # the sweep's volumes share one batched pass; each row is still what
    # herald_point gives for its point, and r = 0 keeps its error row
    rows = sweep(4, [0.0, 0.1, 0.3], [1.0, 0.6])
    assert [(r.eta, r.r) for r in rows] == [
        (eta, r) for eta in (1.0, 0.6) for r in (0.0, 0.1, 0.3)]
    for row in rows:
        if row.r == 0.0:
            assert "conditioning probability" in row.error
            assert all(math.isnan(v) for v in (row.P, row.F, row.V,
                                                row.leakage))
            continue
        res = herald_point(HeraldConfig(s=4, r=row.r, eta=row.eta))
        assert row.error is None
        assert (row.P, row.F, row.V, row.leakage) == (res.P, res.F, res.V,
                                                      res.leakage)


def test_sweep_volume_failure_is_its_row_only(monkeypatch):
    import pbsim.herald
    real = pbsim.herald._negativity_volumes

    def second_fails(*args):
        out = real(*args)
        out[1] = QuadratureError("forced failure")
        return out

    monkeypatch.setattr(pbsim.herald, "_negativity_volumes", second_fails)
    rows = sweep(2, [0.0, 0.1, 0.2], [1.0])
    assert rows[0].error.startswith("conditioning probability")
    assert rows[1].error is None and rows[1].V > 0
    assert rows[2].error == "forced failure"
    assert all(math.isnan(v) for v in (rows[2].P, rows[2].F, rows[2].V,
                                        rows[2].leakage))


@pytest.mark.parametrize("scheme", ["series", "exact"])
@pytest.mark.parametrize("s", range(1, 7))
def test_condition_matches_dense_reference(s, scheme):
    # the convolution against the dense state conditioned mode by mode;
    # each dense state is built once per (s, r, scheme)
    truncation = dict(cutoff=8, tmsv_terms=9) if s == 6 else {}
    for r in (0.05, 0.3):
        cfg = HeraldConfig(s=s, r=r, eta=1.0, displacement_scheme=scheme,
                           **truncation)
        state = build_state(cfg)
        target = pb_eigenstate(s, 0, cutoff=cfg.cutoff)
        for eta in (1.0, 0.8, 0.6):
            got = _condition(dataclasses.replace(cfg, eta=eta))
            clicks = [detector_povm(eta, cfg.cutoff).click] * s
            rho, p = conditional_density(state, clicks, kept_mode=s)
            assert abs(got["P"] / p - 1) < 1e-12
            assert abs(got["F"] - fidelity_pure(rho, target)) < 1e-12
            assert np.abs(got["rho_A"].matrix - rho.matrix).max() < 1e-12
            assert abs(got["leakage"] - state.leakage) < 1e-12


def test_condition_matches_dense_reference_complex_rho(monkeypatch):
    # herald_alphas come in conjugate pairs, which makes rho_A real; these
    # amplitudes do not, so a transposed or conjugated rho_A shows
    cfg = HeraldConfig(s=3, r=0.3, eta=0.8, displacement_scheme="exact")
    alphas = np.array([0.3 + 0.2j, -0.1 + 0.1j, 0.05j])
    state = build_state(cfg, alphas)
    rho, p = conditional_density(
        state, [detector_povm(cfg.eta, cfg.cutoff).click] * 3, kept_mode=3)
    assert np.abs(rho.matrix.imag).max() > 1e-3
    monkeypatch.setattr(pbsim.herald, "herald_alphas", lambda cfg: alphas)
    got = _condition(cfg)
    assert abs(got["P"] / p - 1) < 1e-12
    assert np.abs(got["rho_A"].matrix - rho.matrix).max() < 1e-12


def test_production_builds_no_multimode_state(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("the dense herald path was called")

    for name in ("build_state", "beam_splitter_pb", "_transfer_tensor"):
        monkeypatch.setattr(pbsim.herald, name, dense)
    monkeypatch.setattr(pbsim.fock, "conditional_density", dense)
    monkeypatch.setattr(pbsim.herald, "conditional_density", dense,
                        raising=False)
    res = herald_point(HeraldConfig(s=3, r=0.2, eta=0.8))
    assert 0 < res.P < 1 and 0.9 < res.F <= 1 and res.V > 0
    rows = sweep(6, [0.3], [1.0, 0.6])
    assert [row.error for row in rows] == [None, None]
    assert all(0.9 < row.F <= 1 and row.V > 0 for row in rows)


def test_condition_leakage_is_the_displacements_loss(monkeypatch):
    # an order-5 series displacement at alpha = 1.5 and cutoff 2 really
    # loses norm; with one mode the dense path counts the same loss
    cfg = HeraldConfig(s=1, r=0.3, eta=1.0, cutoff=2)
    with pytest.warns(LeakageWarning):
        want = build_state(cfg, [1.5]).leakage
    monkeypatch.setattr(pbsim.herald, "herald_alphas",
                        lambda cfg: np.array([1.5 + 0j]))
    with pytest.warns(LeakageWarning):
        got = _condition(cfg)["leakage"]
    assert want > 0.1
    assert got == pytest.approx(want, abs=1e-12)


def test_sweep_truncation_follows_s():
    # the source material's cutoff 5 and 6 TMSV terms up to s = 5, then
    # cutoff s + 2 and s + 3 terms; HeraldConfig's defaults stay
    assert (HeraldConfig(s=2, r=0.1, eta=1.0).cutoff,
            HeraldConfig(s=2, r=0.1, eta=1.0).tmsv_terms) == (5, 6)
    for s, cutoff in ((5, 5), (6, 8)):
        (row,) = sweep(s, [0.2], [1.0])
        want = _condition(HeraldConfig(s=s, r=0.2, eta=1.0, cutoff=cutoff,
                                       tmsv_terms=cutoff + 1))
        assert (row.P, row.F) == (want["P"], want["F"])


def floor_residual(s):
    """rho_A's Hermiticity residual at order s, as the floor check reports
    it (r = 0.3, eta = 0.8, the sweep's truncation)."""
    cfg = HeraldConfig(s=s, r=0.3, eta=0.8, cutoff=s + 2, tmsv_terms=s + 3)
    with pytest.raises(NumericalError, match="precision floor") as err:
        _condition(cfg)
    return float(re.search(r"residual (\S+)", str(err.value)).group(1))


def test_precision_floor(monkeypatch):
    # the equal-weight design works by cancellation, so the rounding of
    # the normalized rho_A grows with s: residuals of 1.5e-15 at s = 12,
    # 6.4e-13 at s = 20 and 7.5e-12 at s = 24 were measured
    with monkeypatch.context() as m:
        m.setattr(pbsim.herald, "HERM_TOL", 0.0)  # every order reports
        res = {s: floor_residual(s) for s in (12, 20, 24)}
    assert res[12] < 1e-14 < res[20] < 1e-11
    assert res[24] > 2 * HERM_TOL
    assert floor_residual(24) == res[24]
    (row,) = sweep(24, [0.3], [0.8])
    assert "precision floor" in row.error
    assert all(math.isnan(v) for v in (row.P, row.F, row.V, row.leakage))


def test_herald_point_at_s12_is_fast():
    # the convolution costs O(J^4) per mode, J = 15 here; the dense state
    # would hold 15^13 amplitudes
    cfg = HeraldConfig(s=12, r=0.3, eta=0.8, cutoff=14, tmsv_terms=15)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fields = _condition(cfg)
        times.append(time.perf_counter() - start)
    assert fields["F"] == pytest.approx(0.983003, abs=1e-6)
    assert min(times) < 0.1
