"""Tests for the phase-space layer: wavefunctions, W values, integrals."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite import hermroots
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfc

from pbsim._kernels import (hermite_functions, hermite_primitive_zero,
                            hermite_series_primitive, wigner_batch,
                            wigner_coefficients)
from pbsim.errors import (QuadratureError, ValidationError,
                          WindowExhaustedError)
from pbsim.fock import FockDensity, FockVector, number_state, vacuum_state
from pbsim.herald import HeraldConfig, _condition, herald_point
from pbsim.ops import _splitter_block
from pbsim.phase_states import pb_eigenstate
from pbsim.wigner import (BOX_MARGIN, DEFAULT_TOL, MAX_DEPTH,
                          RADIUS_THRESHOLD, NegativityResult, _LineIntegrals,
                          _as_density, _dots, _negativity_volumes,
                          effective_radius, negativity_volume,
                          negativity_volume_detailed, wigner_grid)

from oracles import (hermite_primitives, hermite_wavefunctions_all,
                     wigner_point, wigner_point_integral)


def random_pure(cutoff, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(cutoff + 1) + 1j * rng.standard_normal(cutoff + 1)
    a /= np.linalg.norm(a)
    return FockVector(a)


def test_hermite_explicit_values():
    x = 0.7
    psi = hermite_wavefunctions_all(3, x)
    assert psi[0] == pytest.approx(
        (2 / math.pi) ** 0.25 * math.exp(-x * x), abs=1e-14)
    # H3(y) = 8y^3 - 12y at y = sqrt(2) x
    y = math.sqrt(2) * x
    want = ((2 / math.pi) ** 0.25 / math.sqrt(2 ** 3 * math.factorial(3))
            * (8 * y ** 3 - 12 * y) * math.exp(-x * x))
    assert psi[3] == pytest.approx(want, abs=1e-12)


def test_hermite_orthonormal():
    xs = np.linspace(-8, 8, 4001)
    table = hermite_wavefunctions_all(4, xs)
    gram = table @ table.T * (xs[1] - xs[0])
    assert np.abs(gram - np.eye(5)).max() < 1e-7


def test_anchor_values():
    assert wigner_point(vacuum_state(3), 0.0, 0.0) == pytest.approx(
        2 / math.pi, abs=1e-14)
    assert wigner_point(number_state(1, 3), 0.0, 0.0) == pytest.approx(
        -2 / math.pi, abs=1e-14)
    q, p = 0.4, -0.3
    assert wigner_point(vacuum_state(3), q, p) == pytest.approx(
        2 / math.pi * math.exp(-2 * (q * q + p * p)), abs=1e-14)


@pytest.mark.parametrize("seed,q,p", [(1, 0.0, 0.0), (2, 0.5, -0.2),
                                      (3, -1.1, 0.8), (4, 0.3, 1.7)])
def test_kernel_matches_integral_oracle(seed, q, p):
    psi = random_pure(5, seed)
    fast = wigner_point(psi, q, p)
    slow = wigner_point_integral(psi, q, p)
    assert fast == pytest.approx(slow, abs=5e-10)


def test_rotation_covariance():
    # exp(-i theta n) on the amplitudes rotates W counterclockwise by
    # theta: W'(q, p) = W(R(-theta) (q, p))
    psi = random_pure(4, 11)
    theta = 0.37
    rotated = FockVector(psi.amplitudes * np.exp(-1j * theta * np.arange(5)))
    c, s = math.cos(theta), math.sin(theta)
    for q, p in [(0.8, 0.0), (0.2, -0.5), (-1.0, 1.2)]:
        want = wigner_point(psi, c * q + s * p, -s * q + c * p)
        assert wigner_point(rotated, q, p) == pytest.approx(want, abs=1e-9)


def test_bounded_by_two_over_pi():
    rng = np.random.default_rng(7)
    for seed in range(5):
        psi = random_pure(6, 100 + seed)
        qs = rng.uniform(-3, 3, 40)
        ps = rng.uniform(-3, 3, 40)
        for q, p in zip(qs, ps):
            assert abs(wigner_point(psi, float(q), float(p))) <= 2 / math.pi + 1e-12


def test_linear_in_the_density():
    a = FockDensity.from_pure(random_pure(4, 21))
    b = FockDensity.from_pure(random_pure(4, 22))
    mix = FockDensity(0.3 * a.matrix + 0.7 * b.matrix)
    for q, p in [(0.0, 0.0), (0.7, -0.4)]:
        want = 0.3 * wigner_point(a, q, p) + 0.7 * wigner_point(b, q, p)
        assert wigner_point(mix, q, p) == pytest.approx(want, abs=1e-12)


def test_conjugate_density_mirrors_momentum():
    rho = FockDensity.from_pure(random_pure(5, 31))
    mirrored = FockDensity(rho.matrix.conj())
    for q, p in [(0.4, 0.9), (-0.6, 0.2)]:
        assert wigner_point(mirrored, q, p) == pytest.approx(
            wigner_point(rho, q, -p), abs=1e-12)


@pytest.mark.parametrize("s,m", [(2, 0), (3, 1)])
def test_lattice_sum_is_unity(s, m):
    # W is a Gaussian times a polynomial, so the trapezoid sum over a lattice
    # this fine and wide is its plane integral (the trace) to rounding
    axis = np.linspace(-8.0, 8.0, 321)
    values = wigner_grid(pb_eigenstate(s, m), axis, axis)
    h = 16.0 / 320
    assert values.sum() * h * h == pytest.approx(1.0, abs=1e-12)


def test_grid_validation():
    psi = pb_eigenstate(2, 0)
    axis = np.linspace(-1.0, 1.0, 3)
    for bad in (np.array([0.0, np.inf]), np.array([np.nan, 1.0]),
                np.zeros((2, 2)), 0.5):
        with pytest.raises(ValidationError, match="finite 1-D"):
            wigner_grid(psi, bad, axis)
        with pytest.raises(ValidationError, match="finite 1-D"):
            wigner_grid(psi, axis, bad)
    for tol in (0.0, -1e-6, np.nan):
        with pytest.raises(ValidationError, match="tolerance must be > 0"):
            negativity_volume(psi, tol)


def test_grid_matches_pointwise():
    psi = pb_eigenstate(3, 2)
    qv, pv = np.linspace(-2.0, 2.0, 5), np.linspace(-1.5, 1.5, 4)
    values = wigner_grid(psi, qv, pv)
    assert values.shape == (5, 4)
    for i in (0, 2, 4):
        for j in (0, 3):
            assert values[i, j] == pytest.approx(
                wigner_point(psi, float(qv[i]), float(pv[j])), abs=1e-13)


def test_tiny_budget_raises(monkeypatch):
    import pbsim.wigner
    monkeypatch.setattr(pbsim.wigner, "MAX_EVALS", 2000)
    with pytest.raises(QuadratureError, match="evaluation budget 2000"):
        negativity_volume(pb_eigenstate(4, 0), tol=1e-10)


def test_negativity_anchors():
    assert negativity_volume(vacuum_state(2)) == pytest.approx(0.0, abs=1e-9)
    assert negativity_volume(number_state(1, 2)) == pytest.approx(
        2 * math.exp(-0.5) - 1, abs=1e-6)


# V(|phi_0>_s) from two independent root-based evaluations (comrade-matrix
# roots and grid-bracketed Newton roots), which agree to 1e-13, for
# s = 1, 4, 8, 12 and 17. The other orders take the outer q integral on
# uniform 16-point Gauss-Legendre panels instead (12 000 to 32 000 panels
# over three boxes agree to 2e-12), which agree with the root-based values
# to 1.6e-11 where both exist. V(5) guards against a root-pair birth
# between a panel's edge and its first node, which neither the panel nor
# its children see: with halved panels and the box sized by
# effective_radius + 2, the panel [1.25098, 2.50196] passed at depth 4 off
# by 7.9e-7 (birth at q = 1.2537), and V(5) by 3.97e-7.
REFERENCE_VOLUMES = {1: 0.0697148152685, 2: 0.110174283667,
                     3: 0.145538590995, 4: 0.1701009778123,
                     5: 0.19141209848, 6: 0.206884917739,
                     7: 0.222284618843, 8: 0.2357593505655,
                     9: 0.248018449009, 10: 0.258200801344,
                     11: 0.268272918116, 12: 0.2774926003676,
                     13: 0.286038812405, 14: 0.293614643978,
                     15: 0.301323129085, 16: 0.308258270826,
                     17: 0.3147545070149}


def test_negativity_reference_values():
    assert negativity_volume(number_state(1, 2), tol=1e-10) == pytest.approx(
        2 * math.exp(-0.5) - 1, abs=1e-9)
    for s, want in REFERENCE_VOLUMES.items():
        result = negativity_volume_detailed(pb_eigenstate(s, 0), tol=1e-10)
        assert result.volume == pytest.approx(want, abs=1e-9)
        assert result.max_depth_reached < MAX_DEPTH


def test_default_tolerance_volumes_resolve_the_births():
    # with the panels split at the root-pair births, the default tol leaves
    # V(|phi_0>_s) within 1e-8 of the references; halving alone left it
    # 3.1e-8 off at s = 4 and 6.6e-8 at s = 5
    for s in range(1, 13):
        assert negativity_volume(pb_eigenstate(s, 0)) == pytest.approx(
            REFERENCE_VOLUMES[s], abs=1e-8)


def test_one_photon_births_in_closed_form(monkeypatch):
    # |1> has W proportional to (4(q^2 + p^2) - 1) exp(-2(q^2 + p^2)): its
    # pair of roots on the line q is born at q = -1/2 and dies at q = 1/2
    import pbsim.wigner
    rho = FockDensity.from_pure(number_state(1, 2))
    lines = _LineIntegrals(wigner_coefficients(rho.matrix)[None])
    (births,) = lines.births(np.zeros(1))
    assert births.shape == (2,)
    assert np.abs(births - [-0.5, 0.5]).max() <= 1e-12
    assert negativity_volume_detailed(rho).births == 2
    assert negativity_volume_detailed(vacuum_state(2)).births == 0
    # two scan lines, at q = +-1.29, have equal root counts and bracket
    # nothing, so only the panels' node lines can find the births
    monkeypatch.setattr(pbsim.wigner, "_SCAN_LINES", 2)
    (births,) = lines.births(np.zeros(1))
    assert births.size == 0
    result = negativity_volume_detailed(rho)
    assert result.births == 2 and result.max_depth_reached == 4
    assert abs(result.volume - (2 * math.exp(-0.5) - 1)) <= 1e-12


def test_negativity_record_is_filled():
    # perfbench's tracer reads evaluations, max_depth_reached, tail_estimate
    result = negativity_volume_detailed(pb_eigenstate(4, 0))
    for value in (result.abs_integral, result.tail_estimate,
                  result.box_half_width, result.evaluations,
                  result.max_depth_reached, result.roots, result.births):
        assert math.isfinite(value) and value > 0
    assert result.volume == pytest.approx(
        0.5 * (result.abs_integral - 1.0), abs=1e-15)


def test_one_coefficient_table_per_volume(monkeypatch):
    # the tail strips and the line integrals share one coefficient table,
    # and the box comes from the dimension alone
    import pbsim.wigner
    real = pbsim.wigner.wigner_coefficients
    calls = []

    def counting(rho):
        calls.append(1)
        return real(rho)

    monkeypatch.setattr(pbsim.wigner, "wigner_coefficients", counting)
    psi = pb_eigenstate(4, 0)
    result = negativity_volume_detailed(psi)
    assert len(calls) == 1
    assert result.box_half_width == math.sqrt(2.0 * 9) / 2.0 + BOX_MARGIN


def _series_primitive(a, xs):
    """sum_k a[k] P_k(xs) as production takes it: w P_0 + c . h, h = 0 at
    +-inf."""
    w, c = hermite_series_primitive(a[None])
    finite = np.isfinite(xs)
    h = hermite_functions(a.size - 1, np.where(finite, xs, 0.0)) * finite
    return w * hermite_primitive_zero(xs) + c[0] @ h


def test_hermite_primitives_match_quadrature():
    xs = np.array([-np.inf, -4.2, -0.7, 0.0, 1.3, 5.5, np.inf])
    table = hermite_primitives(30, xs)
    for n in (0, 1, 2, 7, 18, 30):
        def h(t, n=n):
            return hermite_functions(n, np.array(t))[n]
        unit = np.eye(n + 1)[n]
        series = _series_primitive(unit, xs)
        assert table[n, 0] == 0.0 and series[0] == 0.0
        # h_n, n <= 30, is below 1e-300 beyond |xi| = 40
        for x, got, via in zip(xs[1:], table[n, 1:], series[1:]):
            want = quad(h, -40.0, min(x, 40.0), epsabs=1e-13, limit=200)[0]
            assert got == pytest.approx(want, abs=1e-13)
            assert via == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("dim", [3, 13, 41, 121, 201])
def test_series_primitive_matches_recurrence(dim):
    # w P_0 + c . h against the degree-by-degree recurrence on random
    # series, |values| up to about 18
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((40, dim))
    xs = rng.uniform(-18.0, 18.0, 50)
    want = a @ hermite_primitives(dim - 1, xs)
    w, c = hermite_series_primitive(a)
    got = (np.outer(w, hermite_primitive_zero(xs))
           + c @ hermite_functions(dim - 1, xs))
    assert np.abs(got - want).max() <= 5e-14


def test_series_primitive_ignores_zero_padding():
    # zero columns past a series change no bit of (w, c), and their c
    # columns are exactly zero, so a padded batch row is its state alone
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 9))
    w, c = hermite_series_primitive(a)
    w_pad, c_pad = hermite_series_primitive(np.pad(a, ((0, 0), (0, 6))))
    assert np.array_equal(w_pad, w)
    assert np.array_equal(c_pad[:, :9], c)
    assert not c_pad[:, 9:].any()
    w_one, c_one = hermite_series_primitive(a[2:3])
    assert w_one == w[2] and np.array_equal(c_one, c[2:3])
    assert c.flags.c_contiguous


def test_primitive_zero_matches_scipy_erfc():
    # P_0 uses the C library's erfc; scipy's is the oracle, for production
    # and for the oracle's recurrence alike
    xs = np.linspace(-40.0, 40.0, 80_001)
    want = np.pi ** 0.25 * erfc(-xs / np.sqrt(2.0)) / np.sqrt(2.0)
    assert np.abs(hermite_primitive_zero(xs) - want).max() <= 1e-15
    assert np.abs(hermite_primitives(0, xs)[0] - want).max() <= 1e-15
    # erfc(-inf) = 2 exactly: P_0(inf) is pi^(1/4) sqrt2 to one rounding
    ends = hermite_primitive_zero(np.array([-np.inf, np.inf]))
    assert np.array_equal(ends, hermite_primitives(0, [-np.inf, np.inf])[0])
    assert ends[0] == 0.0
    assert ends[1] == 2.0 * (np.pi ** 0.25 / np.sqrt(2.0))
    assert ends[1] == pytest.approx(np.pi ** 0.25 * np.sqrt(2.0), rel=3e-16)
    # a 0-d argument gives one column
    table = hermite_primitives(3, 0.3)
    assert table.shape == (4,)
    assert np.array_equal(table, hermite_primitives(3, np.array([0.3]))[:, 0])


def _comrade_line_integral(a):
    """Int |sum_k a_k h_k(xi)| dxi / 2 from the comrade-matrix roots.

    sum_k a_k h_k = pi^(-1/4) exp(-xi^2/2) sum_k c_k H_k with
    c_k = a_k / sqrt(2^k k!), so the real roots are hermroots(c)'s.
    """
    k = np.arange(a.size)
    norms = np.array([math.sqrt(2.0 ** j * math.factorial(j)) for j in k])
    z = hermroots(a / norms)
    real = np.sort(z[np.abs(z.imag) <= 1e-9 * np.maximum(1.0, np.abs(z.real))]
                   .real)
    prim = a @ hermite_primitives(a.size - 1,
                                  np.concatenate([[-np.inf], real, [np.inf]]))
    return 0.5 * np.abs(np.diff(prim)).sum()


LINE_STATES = {
    "pb1": lambda: FockDensity.from_pure(pb_eigenstate(1, 0)),
    "pb4": lambda: FockDensity.from_pure(pb_eigenstate(4, 0)),
    "pb4-m1": lambda: FockDensity.from_pure(pb_eigenstate(4, 1)),
    "pb8": lambda: FockDensity.from_pure(pb_eigenstate(8, 0)),
    "pb17": lambda: FockDensity.from_pure(pb_eigenstate(17, 0)),
    "herald-r0.3-eta0.6": lambda: herald_point(
        HeraldConfig(s=4, r=0.3, eta=0.6)).rho_A,
    "herald-r0.1-eta1.0": lambda: herald_point(
        HeraldConfig(s=4, r=0.1, eta=1.0)).rho_A,
}


@pytest.mark.parametrize("name", sorted(LINE_STATES))
def test_line_integrals_match_comrade_oracle(name):
    # G(q) on 51 lines against the comrade roots of the whole line; each
    # half-line root's residual against the largest |W| on its line. The
    # lines of |phi_1>_4 are two half-lines each, and the cell that
    # straddles p = 0 is split there
    rho = LINE_STATES[name]()
    coef = wigner_coefficients(rho.matrix)
    lines = _LineIntegrals(coef[None])
    assert lines.folded[0] == (name != "pb4-m1")
    (hw,), (xi,) = lines.half_width, lines.xi
    qs = np.linspace(-hw, hw, 51)
    state = np.zeros(qs.size, dtype=np.intp)
    got = lines.evaluate(qs, state, integrate=True)[2]
    b, line, rows, roots, _ = lines.find_roots(qs, state)
    dim = b.shape[1]
    a = hermite_functions(dim - 1, 2.0 * qs).T @ coef
    w_halves = np.abs(b @ hermite_functions(dim - 1, xi)).max(axis=1)
    w_roots = np.einsum("ik,ki->i", b[rows], hermite_functions(dim - 1, roots))
    assert roots.size > 0 and roots.min() >= 0.0
    for i in range(qs.size):
        assert abs(got[i] - _comrade_line_integral(a[i])) <= 1e-12
        peak = w_halves[line == i].max()
        assert np.all(np.abs(w_roots[line[rows] == i]) <= 1e-12 * peak)


@pytest.fixture(scope="module")
def herald_grid():
    # the README's herald-sweep grid: 18 heralded s = 4 densities
    return [_condition(HeraldConfig(s=4, r=float(r), eta=eta))["rho_A"]
            for eta in (1.0, 0.8, 0.6) for r in np.linspace(0.05, 0.3, 6)]


def _assert_alone(batch, results):
    # each state's batched result is the one it gets alone, bit for bit
    for rho, got in zip(batch, results):
        try:
            want = negativity_volume_detailed(rho)
        except QuadratureError as exc:
            assert isinstance(got, QuadratureError) and str(got) == str(exc)
            continue
        assert got == want


def truncated_coherent(alpha, cutoff):
    amps = np.array([alpha ** n / math.sqrt(math.factorial(n))
                     for n in range(cutoff + 1)], dtype=np.complex128)
    return FockVector(amps / np.linalg.norm(amps))


def test_box_is_reflection_and_rotation_invariant():
    # the q box comes from the dimension, not from a scan along +q, so a
    # state reflected or turned in phase space keeps its volume
    vols = [negativity_volume(truncated_coherent(alpha, 30))
            for alpha in (3.0, -3.0, 3.0j)]
    assert max(vols) - min(vols) <= 1e-6


def _folds(rho):
    coef = wigner_coefficients(_as_density(rho).matrix)
    return bool(_LineIntegrals(coef[None]).folded[0])


def test_fold_follows_the_odd_in_p_part():
    # the README's heralded densities (r = 0.3) are even in p up to
    # rounding, and fold; |phi_1>_4 and a coherent state at alpha = 3i do
    # not, while |phi_0>_s and a coherent state at alpha = 3 are even
    for s in (4, 8, 12):
        truncation = (5, 6) if s <= 5 else (s + 2, s + 3)
        for eta in (1.0, 0.6):
            cfg = HeraldConfig(s, 0.3, eta, *truncation)
            assert _folds(herald_point(cfg).rho_A)
    assert not _folds(pb_eigenstate(4, 1))
    assert not _folds(truncated_coherent(3.0j, 30))
    assert _folds(pb_eigenstate(6, 0)) and _folds(truncated_coherent(3.0, 30))


def random_density(k, n, r):
    """A rank-r density of dimension n from seed k."""
    rng = np.random.default_rng(k)
    a = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    m = a @ a.conj().T
    return m / np.trace(m).real


def test_batch_equals_single_states(herald_grid):
    # at s = 12 the panels' node lines locate 2, 15 and 24 of the 17, 40
    # and 52 births; the README's volumes use scan births alone. The two
    # random pairs came out 2 ulp off their lone volumes while products ran
    # on row slices of Fortran-ordered Hermite tables
    pb4 = [pb_eigenstate(4, m) for m in range(5)]
    pb12 = [pb_eigenstate(12, m) for m in range(3)]
    pairs = [[random_density(21927, 4, 1), random_density(121927, 4, 1)],
             [random_density(2163, 4, 1), random_density(102163, 3, 1)]]
    for batch in pairs + [herald_grid, pb4, pb12]:
        results = _negativity_volumes(batch)
        assert all(r.volume > 0 for r in results)
        _assert_alone(batch, results)
    assert [r.births for r in results] == [17, 40, 52]


@pytest.mark.xfail(strict=True, raises=QuadratureError,
                   reason="a sign-change grid cell can hide a root pair")
def test_hidden_root_pairs_in_a_sign_change_cell():
    # at q = -0.31055 the +p half-line of random_density(53, 7, 2) has
    # roots at xi = 0.765, 0.770 and 0.932, all in one grid cell whose
    # ends differ in sign, so it is bracketed as one root and G jumps
    # where the reported root changes; at the default tol two panels stay
    # unconverged at MAX_DEPTH. The references extrapolate a 2-D grid of
    # |W| (steps 0.004 and 0.002), and tol 1e-5 lands within 5e-8 of them
    for (k, n), want in {(357, 4): 0.1773636439, (53, 7): 0.2240769223,
                         (249, 8): 0.3687726985}.items():
        got = negativity_volume(random_density(k, n, 2))
        assert got == pytest.approx(want, abs=1e-6)


def test_readme_volumes_work_counts(herald_grid):
    # the README's volumes (negativity-sweep --s 6 and the herald-sweep
    # batch), whose lines all fold at p = 0, at no more than 55 % of the
    # evaluations that whole lines took (663 623 and 2 369 167; halving
    # alone took 1 385 877 and 5 644 473), with the same roots counted over
    # the whole line, and no deeper than level 6 (halving: 7 to 9)
    sweep = [negativity_volume_detailed(pb_eigenstate(s, 0))
             for s in range(1, 7)]
    herald = _negativity_volumes(herald_grid)
    assert sum(r.evaluations for r in sweep) <= 0.55 * 663_623
    assert sum(r.evaluations for r in herald) <= 0.55 * 2_369_167
    assert sum(r.roots for r in sweep) == 9_024
    assert sum(r.roots for r in herald) == 28_672
    assert max(r.max_depth_reached for r in sweep + herald) <= 6


def test_batch_peak_memory(herald_grid):
    # lines are evaluated LINE_BLOCK at a time, so the p-grid tables and
    # brackets of all 18 states are never alive at once
    tracemalloc.start()
    try:
        _negativity_volumes(herald_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


def test_polish_steps_per_bracket(monkeypatch, herald_grid):
    # a Newton step that leaves its bracket falls back to the midpoint, and
    # the steps start from the cubic (or quadratic) model of the grid's W
    # and W', so no bracket of the README's volumes (negativity-sweep --s 6
    # and the herald-sweep batch) takes more than 9 steps (13 from the
    # secant point)
    real = _LineIntegrals._polish
    steps = []

    def counting(values, lo, *args):
        count = np.zeros(lo.size, dtype=int)

        def counted(active, x):
            count[active] += 1
            return values(active, x)

        steps.append(count)
        return real(counted, lo, *args)

    monkeypatch.setattr(_LineIntegrals, "_polish", staticmethod(counting))
    for s in range(1, 7):
        negativity_volume(pb_eigenstate(s, 0))
    _negativity_volumes(herald_grid)
    assert max(int(c.max(initial=0)) for c in steps) <= 9


def _dim5_batch():
    # |phi_1>_4 needs the most evaluations and the deepest refinement, each
    # by itself (|phi_2>_4 would tie its depth)
    return [pb_eigenstate(4, 0), pb_eigenstate(4, 1), number_state(3, 4),
            vacuum_state(4), number_state(1, 4)]


def test_batch_isolates_an_exhausted_budget(monkeypatch):
    import pbsim.wigner
    batch = _dim5_batch()
    evals = [negativity_volume_detailed(rho).evaluations for rho in batch]
    monkeypatch.setattr(pbsim.wigner, "MAX_EVALS", max(evals[:1] + evals[2:]))
    assert evals[1] > pbsim.wigner.MAX_EVALS
    results = _negativity_volumes(batch)
    assert isinstance(results[1], QuadratureError)
    assert "evaluation budget" in str(results[1])
    assert all(isinstance(r, NegativityResult)
               for i, r in enumerate(results) if i != 1)
    _assert_alone(batch, results)


def test_batch_isolates_max_depth(monkeypatch):
    import pbsim.wigner
    batch = _dim5_batch()
    depths = [negativity_volume_detailed(rho).max_depth_reached
              for rho in batch]
    deep = int(np.argmax(depths))
    monkeypatch.setattr(pbsim.wigner, "MAX_DEPTH", depths[deep] - 1)
    assert max(depths[:deep] + depths[deep + 1:]) < depths[deep]
    results = _negativity_volumes(batch)
    assert "unconverged at max depth" in str(results[deep])
    assert all(isinstance(r, NegativityResult)
               for i, r in enumerate(results) if i != deep)
    _assert_alone(batch, results)


def test_batch_mixes_dimensions(monkeypatch):
    # states of several dimensions share one pass, each on its own box and
    # p grid, with its series zero-padded to its block's largest: the
    # negativity-sweep states with |1>, and dimension 5 with 13
    import pbsim.wigner
    sweep = [pb_eigenstate(s, 0) for s in range(1, 7)] + [number_state(1, 2)]
    mixed = _dim5_batch() + [pb_eigenstate(6, 0)]
    for batch in (sweep, mixed):
        results = _negativity_volumes(batch)
        assert all(isinstance(r, NegativityResult) for r in results)
        _assert_alone(batch, results)
    # an exhausted budget stays with its states, given out of order
    batch = [pb_eigenstate(6, 1)] + mixed
    evals = [negativity_volume_detailed(rho).evaluations for rho in batch]
    monkeypatch.setattr(pbsim.wigner, "MAX_EVALS", max(evals[1:2] + evals[3:]))
    assert min(evals[0], evals[2]) > pbsim.wigner.MAX_EVALS
    results = _negativity_volumes(batch)
    for i, r in enumerate(results):
        assert isinstance(r, QuadratureError) == (i in (0, 2))
    assert "evaluation budget" in str(results[0])
    _assert_alone(batch, results)
    assert _negativity_volumes([]) == []


def test_line_blocks_do_not_change_results(monkeypatch, herald_grid):
    # blocks are plain ranges of LINE_BLOCK lines, so their edges fall
    # inside one state's lines (37) and across states (700); every result
    # stays the default run's, field for field
    import pbsim.wigner
    sweep = [pb_eigenstate(s, 0) for s in range(1, 7)] + [number_state(1, 2)]
    want = [_negativity_volumes(batch) for batch in (herald_grid, sweep)]
    assert all(isinstance(r, NegativityResult) for w in want for r in w)
    for block in (37, 700):
        monkeypatch.setattr(pbsim.wigner, "LINE_BLOCK", block)
        assert [_negativity_volumes(b) for b in (herald_grid, sweep)] == want


def test_dots_ignore_padding_and_rows():
    # a row's series sum is the sum in order of k, with the same bits
    # alone, among other rows, and with zero columns past its end: what
    # lets states of several dimensions share one pass
    rng = np.random.default_rng(7)
    for dim in (3, 5, 9, 13, 25):
        a, h = rng.standard_normal((40, dim)), rng.standard_normal((dim, 40))
        a_pad, h_pad = np.zeros((40, 64)), np.zeros((64, 40))
        a_pad[:, :dim], h_pad[:dim] = a, h
        want = _dots(a, h)
        assert np.array_equal(_dots(a_pad, h_pad), want)
        for i in range(40):
            total = 0.0
            for k in range(dim):
                total += float(a[i, k]) * float(h[k, i])
            assert want[i] == total
            assert _dots(a[i:i + 1], h[:, i:i + 1].copy())[0] == want[i]
            assert _dots(a_pad[i:i + 1], h_pad[:, i:i + 1])[0] == want[i]


def test_effective_radius_vacuum_closed_form():
    want = math.sqrt(math.log(2000 / math.pi) / 2)
    assert effective_radius(vacuum_state(2)) == pytest.approx(want, abs=1e-7)


def test_effective_radius_names_the_axis():
    # the radius is measured along +q only, where a coherent state at
    # alpha = -3 has |W| below threshold; its volume is still defined
    state = truncated_coherent(-3.0, 30)
    with pytest.raises(WindowExhaustedError,
                       match=r"on the \+q axis from q = 0 to the box edge "
                             r"q = 8\.5"):
        effective_radius(state)
    assert negativity_volume(state) == pytest.approx(7.022e-5, abs=1e-8)


def _brentq_radius(state):
    """The radius by Brent's method to xtol 1e-10 in the same scan bracket."""
    coef = wigner_coefficients(FockDensity.from_pure(state).matrix)
    box = math.sqrt(2.0 * coef.shape[0]) / 2.0 + BOX_MARGIN
    ts = np.arange(0.0, box + 0.01, 0.01)
    w = np.abs(wigner_grid(state, ts, [0.0])[:, 0])
    last = np.nonzero(w >= RADIUS_THRESHOLD)[0][-1]
    return brentq(lambda t: abs(wigner_grid(state, [t], [0.0])[0, 0])
                  - RADIUS_THRESHOLD, ts[last], ts[last + 1], xtol=1e-10)


@pytest.mark.parametrize("s", range(1, 26))
def test_effective_radius_matches_brentq_oracle(s):
    state = pb_eigenstate(s, 0)
    r = effective_radius(state)
    assert r == pytest.approx(_brentq_radius(state), abs=1e-10)
    # the Newton steps end well inside brentq's xtol
    assert abs(abs(wigner_grid(state, [r], [0.0])[0, 0])
               - RADIUS_THRESHOLD) <= 1e-12


def test_effective_radius_grows_with_order():
    radii = [effective_radius(pb_eigenstate(s, 0)) for s in (1, 2, 3)]
    assert radii[0] < radii[1] < radii[2]


@pytest.mark.parametrize("cutoff", [17, 30, 40])
def test_high_cutoff_matches_integral_oracle(cutoff):
    psi = random_pure(cutoff, cutoff)
    rng = np.random.default_rng(cutoff)
    for q, p in rng.uniform(-2.5, 2.5, (5, 2)):
        fast = wigner_point(psi, float(q), float(p))
        slow = wigner_point_integral(psi, float(q), float(p))
        assert abs(fast - slow) <= 1e-12


def test_number_state_origin_values():
    for n in range(41):
        assert wigner_point(number_state(n, 40), 0.0, 0.0) == pytest.approx(
            2 / math.pi * (-1) ** n, abs=1e-13)


def test_lattice_path_matches_point_path():
    # wigner_grid evaluates a tensor lattice, wigner_batch scattered points
    rng = np.random.default_rng(41)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    rho = FockDensity(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    qs, ps = np.linspace(-3.0, 2.5, 23), np.linspace(-2.0, 3.5, 19)
    values = wigner_grid(rho, qs, ps)
    qq, pp = np.meshgrid(qs, ps, indexing="ij")
    points = wigner_batch(rho.matrix, qq.ravel(), pp.ravel())
    assert np.abs(values.ravel() - points).max() <= 1e-13


def test_raw_matrix_input():
    # wigner_batch takes a raw matrix; it checks only that it is finite and
    # Hermitian
    rho = FockDensity.from_pure(random_pure(6, 61))
    for q, p in [(0.0, 0.0), (0.9, -0.4), (-1.3, 1.1)]:
        assert abs(wigner_batch(rho.matrix.copy(), [q], [p])[0]
                   - wigner_point(rho, q, p)) <= 1e-14
    skew = rho.matrix.copy()
    skew[2, 0] += 1e-6
    with pytest.raises(ValidationError, match="not Hermitian"):
        wigner_batch(skew, [0.3], [0.2])
    blank = rho.matrix.copy()
    blank[1, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        wigner_batch(blank, [0.3], [0.2])
    with pytest.raises(ValidationError, match="equal length"):
        wigner_batch(rho.matrix, [0.3, 0.1], [0.2])


def test_tail_contract(monkeypatch):
    import pbsim.wigner
    state = pb_eigenstate(4, 0)
    result = negativity_volume_detailed(state)
    assert result.tail_estimate <= DEFAULT_TOL
    monkeypatch.setattr(pbsim.wigner, "BOX_MARGIN", 0.0)
    with pytest.raises(QuadratureError,
                       match=r"outside the box .*BOX_MARGIN 0\.0, D = 9"):
        negativity_volume(state)


def test_coefficient_table_past_s184():
    # the Gauss-Hermite table stopped at s = 184; the splitter's blocks
    # have no such limit. W(0, 0) = (2/pi) <parity> and the integral of W
    # is the trace: h(2q) integrates to P(inf) / 2
    try:
        for s in (185, 186):
            coef = wigner_coefficients(FockDensity.from_pure(
                pb_eigenstate(s, 0)).matrix)
            assert np.isfinite(coef).all()
            h0 = hermite_functions(2 * s, 0.0)
            parity = (s % 2 == 0) / (s + 1.0)
            assert abs(h0 @ coef @ h0 - 2.0 / np.pi * parity) <= 1e-12, s
            ends = hermite_primitives(2 * s, np.inf) / 2.0
            assert abs(ends @ coef @ ends - 1.0) <= 1e-12, s
    finally:
        _splitter_block.cache_clear()  # about 135 MB of blocks
