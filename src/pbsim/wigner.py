"""Wigner functions, negativity volumes and the support-radius metric.

Conventions: hbar = 1/2, so the vacuum Wigner peak is 2/pi and the
position wavefunctions are psi_n(x) = (2/pi)^(1/4) (2^n n!)^(-1/2)
H_n(sqrt(2) x) exp(-x^2). Every W value comes from the exact Hermite
expansion in _kernels: its coefficient table is computed once per state
and public call, then each lattice or point set is a few matrix
products. The negativity volume integrates |W| exactly along each line
of fixed q, from the roots of W there, and adaptively over q.
wigner_point_integral keeps the defining integral as an independent
slow oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import brentq

from ._kernels import (hermite_functions, hermite_primitives,
                       hermite_series_derivative, wigner_batch,
                       wigner_coefficients, wigner_lattice, wigner_points)
from .errors import (QuadratureError, ValidationError, WindowExhaustedError)
from .fock import FockDensity, FockVector

RADIUS_THRESHOLD = 0.001
PANEL_ORDER = 16
MAX_DEPTH = 20
_NODES, _WEIGHTS = leggauss(PANEL_ORDER)
_TRACE_PRE_TOL = 1e-8
_ORACLE_HALF_RANGE = 40.0
_ROOT_STEP = 1e-8
_ROOT_BRACKET = 1e-13
_POLISH_STEPS = 64


def hermite_wavefunctions_all(nmax: int, x) -> np.ndarray:
    """psi_n(x) for all n = 0..nmax, shape (nmax+1,) + x.shape.

    The unit-normalized Hermite functions h_n(xi) at xi = sqrt(2) x,
    rescaled by 2^(1/4) for the hbar = 1/2 units.
    """
    if nmax < 0:
        raise ValidationError(f"nmax must be >= 0, got {nmax}")
    xi = np.sqrt(2.0) * np.asarray(x, dtype=np.float64)
    return 2.0 ** 0.25 * hermite_functions(nmax, xi)


def _as_density(state) -> FockDensity:
    if isinstance(state, FockDensity):
        return state
    if isinstance(state, FockVector):
        return FockDensity.from_pure(state)
    return FockDensity(np.asarray(state))


def wigner_point(rho, q: float, p: float) -> float:
    """W(q, p) of a single-mode density.

    FockDensity and FockVector inputs are Hermitian by construction. A
    raw matrix is accepted without the positivity and trace checks, but
    an entry of m - m^H above 1e-8 reports a non-Hermitian input.
    """
    if isinstance(rho, FockVector):
        rho = FockDensity.from_pure(rho)
    if isinstance(rho, FockDensity):
        m = rho.matrix
    else:
        m = np.asarray(rho, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(
                f"density matrix must be square, got {m.shape}")
        asym = float(np.abs(m - m.conj().T).max())
        if asym > 1e-8:
            raise ValidationError(
                f"input not Hermitian: max |m - m^H| = {asym:.3e}")
    return float(wigner_batch(m, np.array([q]), np.array([p]))[0])


def wigner_point_integral(psi: FockVector, q: float, p: float) -> float:
    """W(q, p) by direct integration of the defining transform.

    W = (1/pi) Int dx psi(q + x/2) conj(psi)(q - x/2) exp(2ipx), for a
    single-mode pure state. Slow; kept as the oracle for wigner_point.
    """
    if psi.modes != 1:
        raise ValidationError("integral oracle expects a single-mode state")
    a = psi.amplitudes
    nmax = psi.cutoff

    def integrand(x: float) -> float:
        ph = hermite_wavefunctions_all(nmax, np.array([q + 0.5 * x,
                                                       q - 0.5 * x]))
        u = complex(a @ ph[:, 0])
        w = complex(a @ ph[:, 1])
        return (u * w.conjugate() * np.exp(2j * p * x)).real

    val, abserr = quad(integrand, -_ORACLE_HALF_RANGE, _ORACLE_HALF_RANGE,
                       limit=500, epsabs=1e-12, epsrel=1e-11)
    if abserr > 1e-9:
        raise QuadratureError(
            f"oracle integral error estimate {abserr:.3e} above 1e-9")
    return val / np.pi


@dataclass(frozen=True)
class WignerGrid:
    """Rectangular lattice spec and, once evaluated, the W values.

    values[i, j] = W(q_i, p_j) with q_i, p_j the uniform lattices given
    by q_values()/p_values().
    """

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    nq: int
    np: int
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.nq < 2 or self.np < 2:
            raise ValidationError("grid needs at least 2 points per axis")
        for v in (self.q_min, self.q_max, self.p_min, self.p_max):
            if not np.isfinite(v):
                raise ValidationError("grid extents must be finite")
        if not (self.q_max > self.q_min and self.p_max > self.p_min):
            raise ValidationError("grid extents must have positive span")
        if self.values is not None:
            vals = np.asarray(self.values, dtype=np.float64)
            if vals.shape != (self.nq, self.np):
                raise ValidationError(
                    f"values shape {vals.shape} != ({self.nq}, {self.np})")
            if not np.all(np.isfinite(vals)):
                raise ValidationError("non-finite grid value")
            object.__setattr__(self, "values", vals)

    def q_values(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.nq)

    def p_values(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np)


def wigner_grid(rho, spec: WignerGrid) -> WignerGrid:
    """Evaluate W on the lattice described by spec."""
    coef = wigner_coefficients(_as_density(rho).matrix)
    vals = wigner_lattice(coef, spec.q_values(), spec.p_values())
    return replace(spec, values=vals)


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate |W| over phase space.

    The integral over p along each line of fixed q is exact (see
    negativity_volume); the outer integral over q in [-L, L] uses
    PANEL_ORDER-point Gauss-Legendre panels, halved level by level,
    at most MAX_DEPTH times, until parent and children agree to tol. L
    is effective_radius plus radius_margin. max_evals caps the
    Hermite-series evaluations.
    """

    tol: float = 1e-6
    radius_margin: float = 2.0
    max_evals: int = 40_000_000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValidationError("tolerance must be > 0")
        if self.radius_margin < 0:
            raise ValidationError("radius margin must be >= 0")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class NegativityResult:
    """A negativity volume with its integration record.

    evaluations counts every Hermite-series evaluation at one point of
    one q line (the p grid, W' there, root polishing and primitives);
    roots counts the sign changes of W found on all q lines.
    """

    volume: float
    abs_integral: float
    tail_estimate: float
    box_half_width: float
    evaluations: int
    max_depth_reached: int
    roots: int


def _check_unit_trace(dm: FockDensity) -> None:
    if abs(dm.trace - 1.0) > _TRACE_PRE_TOL:
        raise ValidationError(
            f"expected a trace-1 density, got trace {dm.trace:.12g}")


def negativity_volume(rho, quad: QuadratureSpec | None = None) -> float:
    """Negativity volume (1/2)(Int |W| - 1), clamped at zero.

    On each line of fixed q, W(q, p) = sum_k a_k(q) h_k(2p) with
    a(q) = C^T h(2q). Its sign changes in p are bracketed on a grid of
    spacing 0.5 pi / sqrt(2D) over |2p| <= 2L + 4 (D = len(a),
    L = effective_radius + radius_margin), with a check of each cell
    where W' turns toward zero for a hidden pair, and polished by
    safeguarded Newton steps. Between consecutive roots and +-inf,
    Int |W| dp is then a sum of a_k times exact integrals of h_k. Only
    the outer q integral over [-L, L] is adaptive (QuadratureSpec).
    QuadratureError is raised when the same line integrals over the
    strips L < |q| < L + 2 exceed the quadrature tolerance, or when
    the q refinement exceeds MAX_DEPTH or max_evals.
    """
    return negativity_volume_detailed(rho, quad).volume


def negativity_volume_detailed(rho, quad: QuadratureSpec | None = None
                               ) -> NegativityResult:
    spec = quad if quad is not None else DEFAULT_QUADRATURE
    dm = _as_density(rho)
    _check_unit_trace(dm)
    coef = wigner_coefficients(dm.matrix)
    half_width = _radius(coef) + spec.radius_margin
    lines = _LineIntegrals(coef, half_width)
    tail = float(lines.panels(np.array([-half_width - 2.0, half_width]),
                              np.array([-half_width, half_width + 2.0])
                              ).sum())
    if tail > spec.tol:
        raise QuadratureError(
            f"|W| outside the box |q| <= {half_width:.3f} integrates "
            f"to {tail:.3e}, above tolerance {spec.tol:.1e}; raise "
            f"radius_margin")
    absint, depth = _adaptive_q_integral(lines, half_width, spec)
    raw = 0.5 * (absint - 1.0)
    if raw < 0.0:
        if raw < -100.0 * spec.tol:
            raise QuadratureError(
                f"negativity volume {raw:.3e} below zero beyond tolerance")
        raw = 0.0
    return NegativityResult(volume=float(raw), abs_integral=float(absint),
                            tail_estimate=tail,
                            box_half_width=float(half_width),
                            evaluations=lines.evaluations,
                            max_depth_reached=depth, roots=lines.roots)


def _adaptive_q_integral(lines, half_width, spec):
    """Integral over q in [-L, L] of the exact line integrals of |W|.

    Returns (value, depth_reached). Panels are halved level by level; a
    panel is accepted when its parent/children difference is below its
    width share of the tolerance, and the refinement stops early once
    the remaining difference budget is below half the target.
    """
    q0 = np.array([-half_width])
    q1 = np.array([half_width])
    vals = lines.panels(q0, q1)
    total = 0.0
    for depth in range(1, MAX_DEPTH + 1):
        qm = 0.5 * (q0 + q1)
        cq0 = np.concatenate([q0, qm])
        cq1 = np.concatenate([qm, q1])
        cvals = lines.panels(cq0, cq1)
        if lines.evaluations > spec.max_evals:
            raise QuadratureError(
                f"evaluation budget {spec.max_evals} exceeded at depth {depth}")
        child_sum = cvals[:q0.size] + cvals[q0.size:]
        diff = np.abs(child_sum - vals)
        if diff.sum() <= 0.5 * spec.tol:
            return float(total + child_sum.sum()), depth
        done = diff <= spec.tol * (q1 - q0) / (2.0 * half_width)
        total += float(child_sum[done].sum())
        keep2 = np.concatenate([~done, ~done])
        q0, q1, vals = cq0[keep2], cq1[keep2], cvals[keep2]
        if q0.size == 0:
            return float(total), depth
    raise QuadratureError(
        f"{q0.size} panels unconverged at max depth {MAX_DEPTH}")


class _LineIntegrals:
    """G(q) = Int |W(q, p)| dp, exact up to root polishing, for one state.

    Holds the coefficient table, the p grid with its Hermite table and
    the running evaluation and root counts.
    """

    def __init__(self, coef: np.ndarray, half_width: float):
        self.coef = coef
        dim = coef.shape[0]
        end = 2.0 * half_width + 4.0
        cells = math.ceil(2.0 * end / (0.5 * math.pi / math.sqrt(2.0 * dim)))
        self.xi = np.linspace(-end, end, cells + 1)
        self.h_xi = hermite_functions(dim, self.xi)
        self.full_line = hermite_primitives(dim - 1, np.array([np.inf]))[:, 0]
        self.evaluations = 0
        self.roots = 0

    def panels(self, q0, q1) -> np.ndarray:
        """Gauss-Legendre estimate of Int G dq over each panel [q0, q1]."""
        hq = 0.5 * (q1 - q0)
        qs = (0.5 * (q1 + q0))[:, None] + hq[:, None] * _NODES
        g = self.at(qs.ravel()).reshape(qs.shape)
        return (g @ _WEIGHTS) * hq

    def at(self, qs: np.ndarray) -> np.ndarray:
        """G at each q of qs."""
        a, rows, roots = self.find_roots(qs)
        self.roots += roots.size
        # Int |W| dp is half the sum of |P(b) - P(a)| over the intervals
        # between consecutive roots, with P(-inf) = 0 and P(inf) = a . P_inf
        n = qs.size
        line = np.concatenate([np.arange(n), rows, np.arange(n)])
        xs = np.concatenate([np.full(n, -np.inf), roots, np.full(n, np.inf)])
        prim = np.concatenate([
            np.zeros(n),
            np.einsum("ik,ki->i", a[rows],
                      hermite_primitives(a.shape[1] - 1, roots)),
            a @ self.full_line])
        self.evaluations += roots.size + n
        order = np.lexsort((xs, line))
        line, prim = line[order], prim[order]
        same = line[1:] == line[:-1]
        return 0.5 * np.bincount(line[1:][same],
                                 weights=np.abs(np.diff(prim))[same],
                                 minlength=n)

    def find_roots(self, qs: np.ndarray):
        """Sign changes of W(q, p) in xi = 2p on each line q = qs[i].

        Returns (a, rows, roots): the lines' series coefficients
        a(q) = C^T h(2q), and each root's line index and xi.
        """
        dim = self.coef.shape[0]
        xi = self.xi
        a = hermite_functions(dim - 1, 2.0 * qs).T @ self.coef
        f = a @ self.h_xi[:dim]
        fp = hermite_series_derivative(a) @ self.h_xi
        self.evaluations += 2 * f.size
        pos = f > 0
        row, cell = np.nonzero(pos[:, 1:] != pos[:, :-1])
        # a cell whose ends share W's sign holds a pair of roots only if W'
        # turns toward zero inside it: the extremum decides
        dpos = fp > 0
        turn = ((pos[:, 1:] == pos[:, :-1]) & (dpos[:, 1:] != dpos[:, :-1])
                & (dpos[:, 1:] == pos[:, 1:]))
        tr, tc = np.nonzero(turn)
        ext = self._polish(hermite_series_derivative(a), tr, xi[tc],
                           xi[tc + 1], fp[tr, tc], fp[tr, tc + 1])
        f_ext = np.einsum("ik,ki->i", a[tr], hermite_functions(dim - 1, ext))
        self.evaluations += ext.size
        pair = (f_ext > 0) != pos[tr, tc]
        tr, tc, ext, f_ext = tr[pair], tc[pair], ext[pair], f_ext[pair]
        rows = np.concatenate([row, tr, tr])
        roots = self._polish(
            a, rows,
            np.concatenate([xi[cell], xi[tc], ext]),
            np.concatenate([xi[cell + 1], ext, xi[tc + 1]]),
            np.concatenate([f[row, cell], f[tr, tc], f_ext]),
            np.concatenate([f[row, cell + 1], f_ext, f[tr, tc + 1]]))
        return a, rows, roots

    def _polish(self, a, rows, lo, hi, f_lo, f_hi) -> np.ndarray:
        """A root of row rows[i]'s series a in each bracket [lo[i], hi[i]].

        f_lo and f_hi lie on opposite sides of the split f > 0 / f <= 0.
        Newton steps start from the secant point; a step that leaves the
        shrinking bracket is replaced by the bracket's secant point. A
        root error delta moves G only by O(delta^2), so a Newton step
        below _ROOT_STEP ends the iteration. f == 0 counts as a zero step
        even where f' == 0 too: a bracket update there would move away
        from the root.
        """
        da = hermite_series_derivative(a)
        lo, hi, f_lo, f_hi = lo.copy(), hi.copy(), f_lo.copy(), f_hi.copy()
        lo_pos = f_lo > 0
        x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        active = np.arange(x.size)
        for _ in range(_POLISH_STEPS):
            if active.size == 0:
                break
            xa, r = x[active], rows[active]
            h = hermite_functions(da.shape[1] - 1, xa)
            f = np.einsum("ik,ki->i", a[r], h[:-1])
            fp = np.einsum("ik,ki->i", da[r], h)
            self.evaluations += 2 * active.size
            left = (f > 0) == lo_pos[active]
            lo[active] = l = np.where(left, xa, lo[active])
            hi[active] = u = np.where(left, hi[active], xa)
            f_lo[active] = fl = np.where(left, f, f_lo[active])
            f_hi[active] = fu = np.where(left, f_hi[active], f)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(f == 0.0, 0.0, f / fp)
            small = np.abs(step) <= _ROOT_STEP
            xn = np.clip(xa - step, l, u)
            newton = small | ((xn > l) & (xn < u))
            x[active] = np.where(newton, xn, l - fl * (u - l) / (fu - fl))
            active = active[~(small | (u - l <= _ROOT_BRACKET))]
        return x


def effective_radius(rho) -> float:
    """Outermost |W| = RADIUS_THRESHOLD crossing along the +q axis.

    Scans outward with step 0.01, extends the window when the boundary
    is still above threshold, then solves for the final crossing to
    1e-10 with Brent's method.
    """
    dm = _as_density(rho)
    _check_unit_trace(dm)
    return _radius(wigner_coefficients(dm.matrix))


def _radius(coef: np.ndarray) -> float:
    """effective_radius from the state's (2N+1, 2N+1) coefficient table."""
    cutoff = (coef.shape[0] - 1) // 2
    step = 0.01
    window = math.sqrt(4.0 * cutoff + 2.0) / 2.0 + 4.0
    t_lo = 0.0
    last_above = -1.0
    for _ in range(6):
        ts = np.arange(t_lo, window + step, step)
        vals = np.abs(wigner_points(coef, ts, np.zeros_like(ts)))
        above = np.nonzero(vals >= RADIUS_THRESHOLD)[0]
        if above.size:
            last_above = max(last_above, float(ts[above[-1]]))
        if above.size == 0 or ts[above[-1]] < ts[-1]:
            break
        t_lo = float(ts[-1])
        window += 4.0
    else:
        raise WindowExhaustedError(
            f"|W| still above {RADIUS_THRESHOLD} at ray distance "
            f"{window:.1f}")
    if last_above < 0.0:
        raise WindowExhaustedError(
            f"no |W| >= {RADIUS_THRESHOLD} point found along the ray")

    def g(t: float) -> float:
        w = float(wigner_points(coef, [t], [0.0])[0])
        return abs(w) - RADIUS_THRESHOLD

    return float(brentq(g, last_above, last_above + step, xtol=1e-10))
