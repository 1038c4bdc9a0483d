"""Tests for the phase-space layer: wavefunctions, W values, integrals."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite import hermroots
from scipy.integrate import quad

from pbsim._kernels import (hermite_functions, hermite_primitives,
                            wigner_batch, wigner_coefficients)
from pbsim.errors import NumericalError, QuadratureError, ValidationError
from pbsim.fock import FockDensity, FockVector, number_state, vacuum_state
from pbsim.herald import HeraldConfig, _condition, herald_point
from pbsim.phase_states import pb_eigenstate
from pbsim.wigner import (DEFAULT_TOL, MAX_DEPTH, RADIUS_MARGIN,
                          NegativityResult, _LineIntegrals,
                          _negativity_volumes, effective_radius,
                          negativity_volume, negativity_volume_detailed,
                          wigner_grid)

from oracles import (hermite_wavefunctions_all, wigner_point,
                     wigner_point_integral)


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
# roots and grid-bracketed Newton roots), which agree to 1e-13
REFERENCE_VOLUMES = {1: 0.0697148152685, 4: 0.1701009778123,
                     8: 0.2357593505655, 12: 0.2774926003676,
                     17: 0.3147545070149}


def test_negativity_reference_values():
    assert negativity_volume(number_state(1, 2), tol=1e-10) == pytest.approx(
        2 * math.exp(-0.5) - 1, abs=1e-9)
    for s, want in REFERENCE_VOLUMES.items():
        result = negativity_volume_detailed(pb_eigenstate(s, 0), tol=1e-10)
        assert result.volume == pytest.approx(want, abs=1e-9)
        assert result.max_depth_reached < MAX_DEPTH


def test_negativity_record_is_filled():
    # perfbench's tracer reads evaluations, max_depth_reached, tail_estimate
    result = negativity_volume_detailed(pb_eigenstate(4, 0))
    for value in (result.abs_integral, result.tail_estimate,
                  result.box_half_width, result.evaluations,
                  result.max_depth_reached, result.roots):
        assert math.isfinite(value) and value > 0
    assert result.volume == pytest.approx(
        0.5 * (result.abs_integral - 1.0), abs=1e-15)


def test_one_coefficient_table_per_volume(monkeypatch):
    # the box radius and the line integrals share one coefficient table
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
    assert result.box_half_width == effective_radius(psi) + RADIUS_MARGIN


def test_hermite_primitives_match_quadrature():
    xs = np.array([-np.inf, -4.2, -0.7, 0.0, 1.3, 5.5, np.inf])
    table = hermite_primitives(30, xs)
    for n in (0, 1, 2, 7, 18, 30):
        def h(t, n=n):
            return hermite_functions(n, np.array(t))[n]
        assert table[n, 0] == 0.0
        # h_n, n <= 30, is below 1e-300 beyond |xi| = 40
        for x, got in zip(xs[1:], table[n, 1:]):
            want = quad(h, -40.0, min(x, 40.0), epsabs=1e-13, limit=200)[0]
            assert got == pytest.approx(want, abs=1e-13)


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
    "pb8": lambda: FockDensity.from_pure(pb_eigenstate(8, 0)),
    "pb17": lambda: FockDensity.from_pure(pb_eigenstate(17, 0)),
    "herald-r0.3-eta0.6": lambda: herald_point(
        HeraldConfig(s=4, r=0.3, eta=0.6)).rho_A,
    "herald-r0.1-eta1.0": lambda: herald_point(
        HeraldConfig(s=4, r=0.1, eta=1.0)).rho_A,
}


@pytest.mark.parametrize("name", sorted(LINE_STATES))
def test_line_integrals_match_comrade_oracle(name):
    # G(q) on 51 lines against the comrade roots; each root's residual
    # against the largest |W| on its line
    rho = LINE_STATES[name]()
    half_width = effective_radius(rho) + 2.0
    lines = _LineIntegrals(wigner_coefficients(rho.matrix)[None],
                           [half_width])
    qs = np.linspace(-half_width, half_width, 51)
    got = lines.at(qs, [(0, 0, qs.size)])
    a, rows, roots = lines.find_roots(qs, [(0, 0, qs.size)])
    dim = a.shape[1]
    w_lines = a @ hermite_functions(dim - 1, lines.xi[0])
    w_roots = np.einsum("ik,ki->i", a[rows], hermite_functions(dim - 1, roots))
    assert roots.size > 0
    for i in range(qs.size):
        assert abs(got[i] - _comrade_line_integral(a[i])) <= 1e-12
        peak = np.abs(w_lines[i]).max()
        assert np.all(np.abs(w_roots[rows == i]) <= 1e-12 * peak)


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


def test_batch_equals_single_states(herald_grid):
    pb4 = [pb_eigenstate(4, m) for m in range(5)]
    for batch in (herald_grid, pb4):
        results = _negativity_volumes(batch)
        assert all(r.volume > 0 for r in results)
        _assert_alone(batch, results)


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
    # a Newton step that leaves its bracket falls back to the midpoint, so
    # no bracket of the README's volumes (negativity-sweep --s 6 and the
    # herald-sweep batch) waits on an end of the bracket that stays fixed
    real = _LineIntegrals._polish
    steps = []

    def counting(*args):
        roots, stepped = real(*args)
        steps.append(np.bincount(stepped, minlength=roots.size))
        return roots, stepped

    monkeypatch.setattr(_LineIntegrals, "_polish", staticmethod(counting))
    for s in range(1, 7):
        negativity_volume(pb_eigenstate(s, 0))
    _negativity_volumes(herald_grid)
    assert max(int(c.max(initial=0)) for c in steps) <= 16


def _dim5_batch():
    # |phi_1>_4 needs depth 9 and the most evaluations; the rest less
    return [pb_eigenstate(4, 0), pb_eigenstate(4, 1), pb_eigenstate(4, 2),
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
    monkeypatch.setattr(pbsim.wigner, "MAX_DEPTH", depths[1] - 1)
    assert max(depths[:1] + depths[2:]) < depths[1]
    results = _negativity_volumes(batch)
    assert "unconverged at max depth" in str(results[1])
    assert all(isinstance(r, NegativityResult)
               for i, r in enumerate(results) if i != 1)
    _assert_alone(batch, results)


def test_batch_needs_one_dimension():
    with pytest.raises(ValidationError, match="one dimension"):
        _negativity_volumes([pb_eigenstate(4, 0), pb_eigenstate(5, 0)])
    assert _negativity_volumes([]) == []


def test_effective_radius_vacuum_closed_form():
    want = math.sqrt(math.log(2000 / math.pi) / 2)
    assert effective_radius(vacuum_state(2)) == pytest.approx(want, abs=1e-7)


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


def test_tail_contract(monkeypatch):
    import pbsim.wigner
    state = pb_eigenstate(4, 0)
    result = negativity_volume_detailed(state)
    assert result.tail_estimate <= DEFAULT_TOL
    monkeypatch.setattr(pbsim.wigner, "RADIUS_MARGIN", 0.0)
    with pytest.raises(QuadratureError,
                       match=r"outside the box .*RADIUS_MARGIN 0\.0"):
        negativity_volume(state)


def test_overflowing_weight_names_the_coefficient_table(monkeypatch):
    # one node whose weight underflows to zero where exp(x^2) overflows;
    # every public entry reports the table, not a symptom further on
    import pbsim._kernels
    real = pbsim._kernels.hermgauss

    def overflowing(deg):
        x, w = real(deg)
        x[0], w[0] = -40.0, 0.0
        return x, w

    monkeypatch.setattr(pbsim._kernels, "hermgauss", overflowing)
    psi = pb_eigenstate(4, 0)
    for run in (lambda: wigner_coefficients(FockDensity.from_pure(psi).matrix),
                lambda: effective_radius(psi),
                lambda: negativity_volume(psi),
                lambda: wigner_grid(psi, [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])):
        with pytest.raises(NumericalError,
                           match="coefficient table of size 9 x 9") as info:
            run()
        assert type(info.value) is NumericalError


class _TableBuilt(Exception):
    pass


def test_coefficient_table_range(monkeypatch):
    # the weights are checked before any Hermite table of (s+1) x (2s+1)^2
    # points is built: s = 180 passes the check, s = 190 is refused
    import pbsim._kernels

    def no_tables(*args):
        raise _TableBuilt

    monkeypatch.setattr(pbsim._kernels, "hermite_functions", no_tables)
    with pytest.raises(_TableBuilt):
        wigner_coefficients(np.eye(181) / 181)
    with pytest.raises(NumericalError, match="size 381 x 381"):
        wigner_coefficients(np.eye(191) / 191)
