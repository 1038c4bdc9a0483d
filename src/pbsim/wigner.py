"""Wigner functions, negativity volumes and the support-radius metric.

Conventions: hbar = 1/2, so the vacuum Wigner peak is 2/pi and the
position wavefunctions are psi_n(x) = (2/pi)^(1/4) (2^n n!)^(-1/2)
H_n(sqrt(2) x) exp(-x^2). Every W value comes from the exact Hermite
expansion in _kernels: its coefficient table is computed once per state
and public call, then each lattice or point set is a few matrix
products. wigner_point_integral keeps the defining integral as an
independent slow oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from ._kernels import (hermite_functions, wigner_batch, wigner_coefficients,
                       wigner_lattice, wigner_points)
from .errors import (QuadratureError, ValidationError, WindowExhaustedError)
from .fock import FockDensity, FockVector

RADIUS_THRESHOLD = 0.001
_TRACE_PRE_TOL = 1e-8
_ORACLE_HALF_RANGE = 40.0


def hermite_wavefunction(n: int, x):
    """Position wavefunction psi_n(x) of the n-th Fock state.

    Normalized three-term recurrence; accepts a scalar or an array x.
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    x_arr = np.asarray(x, dtype=np.float64)
    vals = hermite_wavefunctions_all(n, x_arr)[n]
    return float(vals) if np.isscalar(x) or x_arr.ndim == 0 else vals


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
    """How to integrate over phase space: a panel quadtree of tensor
    Gauss-Legendre rules, refined until parent/children estimates agree.
    """

    order: int = 16
    tol: float = 1e-6
    radius_margin: float = 2.0
    max_depth: int = 14
    max_evals: int = 40_000_000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValidationError("tolerance must be > 0")
        if self.order < 2:
            raise ValidationError("panel order must be >= 2")
        if self.radius_margin < 0:
            raise ValidationError("radius margin must be >= 0")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class NegativityResult:
    volume: float
    abs_integral: float
    tail_estimate: float
    box_half_width: float
    evaluations: int
    max_depth_reached: int


def _panel_values(coef, q0, q1, p0, p1, nodes, weights):
    """Tensor Gauss-Legendre estimate of each panel's integral of |W|."""
    hq = 0.5 * (q1 - q0)
    cq = 0.5 * (q1 + q0)
    hp = 0.5 * (p1 - p0)
    cp = 0.5 * (p1 + p0)
    w = np.abs(wigner_lattice(coef, cq[:, None] + hq[:, None] * nodes,
                              cp[:, None] + hp[:, None] * nodes))
    ww = weights[:, None] * weights[None, :]
    return (w * ww).sum(axis=(1, 2)) * hq * hp


def _adaptive_box_integral(coef, half_width, spec):
    """Integral of |W| over the centered square box.

    Returns (value, evaluations, depth_reached). Panels are refined
    level-synchronously; a panel is accepted when its parent/children
    difference is below the area-share tolerance, and the whole
    refinement stops early once the remaining difference budget is
    below half the target.
    """
    nodes, weights = leggauss(spec.order)
    box_area = (2.0 * half_width) ** 2
    q0 = np.array([-half_width])
    q1 = np.array([half_width])
    p0 = np.array([-half_width])
    p1 = np.array([half_width])
    vals = _panel_values(coef, q0, q1, p0, p1, nodes, weights)
    evals = spec.order ** 2
    total = 0.0
    for depth in range(1, spec.max_depth + 1):
        qm = 0.5 * (q0 + q1)
        pm = 0.5 * (p0 + p1)
        cq0 = np.concatenate([q0, qm, q0, qm])
        cq1 = np.concatenate([qm, q1, qm, q1])
        cp0 = np.concatenate([p0, p0, pm, pm])
        cp1 = np.concatenate([pm, pm, p1, p1])
        cvals = _panel_values(coef, cq0, cq1, cp0, cp1, nodes, weights)
        evals += cvals.size * spec.order ** 2
        if evals > spec.max_evals:
            raise QuadratureError(
                f"evaluation budget {spec.max_evals} exceeded at depth {depth}")
        nparent = q0.size
        child_sum = (cvals[:nparent] + cvals[nparent:2 * nparent]
                     + cvals[2 * nparent:3 * nparent] + cvals[3 * nparent:])
        diff = np.abs(child_sum - vals)
        if diff.sum() <= 0.5 * spec.tol:
            return float(total + child_sum.sum()), evals, depth
        area_frac = (q1 - q0) * (p1 - p0) / box_area
        done = diff <= spec.tol * area_frac
        total += float(child_sum[done].sum())
        keep = ~done
        keep4 = np.concatenate([keep, keep, keep, keep])
        q0, q1, p0, p1 = cq0[keep4], cq1[keep4], cp0[keep4], cp1[keep4]
        vals = cvals[keep4]
        if q0.size == 0:
            return float(total), evals, depth
    raise QuadratureError(
        f"{q0.size} panels unconverged at max depth {spec.max_depth}")


def _check_unit_trace(dm: FockDensity) -> None:
    if abs(dm.trace - 1.0) > _TRACE_PRE_TOL:
        raise ValidationError(
            f"expected a trace-1 density, got trace {dm.trace:.12g}")


def negativity_volume(rho, quad: QuadratureSpec | None = None) -> float:
    """Negativity volume (1/2)(Int |W| - 1), clamped at zero.

    The integration box is a square of half-width effective_radius +
    radius_margin. QuadratureError is raised when the estimated integral
    of |W| just outside the box exceeds the quadrature tolerance.
    """
    return negativity_volume_detailed(rho, quad).volume


def negativity_volume_detailed(rho, quad: QuadratureSpec | None = None
                               ) -> NegativityResult:
    spec = quad if quad is not None else DEFAULT_QUADRATURE
    dm = _as_density(rho)
    _check_unit_trace(dm)
    half_width = effective_radius(dm) + spec.radius_margin
    coef = wigner_coefficients(dm.matrix)
    tail = _tail_estimate(coef, half_width, spec)
    if tail > spec.tol:
        raise QuadratureError(
            f"|W| outside the box of half-width {half_width:.3f} integrates "
            f"to {tail:.3e}, above tolerance {spec.tol:.1e}; raise "
            f"radius_margin")
    absint, evals, depth = _adaptive_box_integral(coef, half_width, spec)
    raw = 0.5 * (absint - 1.0)
    if raw < 0.0:
        if raw < -100.0 * spec.tol:
            raise QuadratureError(
                f"negativity volume {raw:.3e} below zero beyond tolerance")
        raw = 0.0
    return NegativityResult(volume=float(raw), abs_integral=float(absint),
                            tail_estimate=float(tail),
                            box_half_width=float(half_width),
                            evaluations=evals, max_depth_reached=depth)


def _tail_estimate(coef, half_width, spec) -> float:
    """One-shot estimate of Int |W| over the frame just outside the box."""
    nodes, weights = leggauss(min(spec.order, 24))
    l = half_width
    e = half_width + 2.0
    # frame = two full-height side strips plus top/bottom strips between them
    q0 = np.array([-e, l, -l, -l])
    q1 = np.array([-l, e, l, l])
    p0 = np.array([-e, -e, l, -e])
    p1 = np.array([e, e, e, -l])
    vals = _panel_values(coef, q0, q1, p0, p1, nodes, weights)
    return float(vals.sum())


def effective_radius(rho, angle: float = 0.0,
                     threshold: float = RADIUS_THRESHOLD) -> float:
    """Outermost |W| = threshold crossing along a ray from the origin.

    Scans outward along (cos(angle), sin(angle)) with step 0.01, extends
    the window when the boundary is still above threshold, then bisects
    the final crossing to 1e-8.
    """
    dm = _as_density(rho)
    _check_unit_trace(dm)
    if not np.isfinite(angle):
        raise ValidationError("ray angle must be finite")
    if threshold <= 0:
        raise ValidationError("threshold must be > 0")
    coef = wigner_coefficients(dm.matrix)
    ca, sa = math.cos(angle), math.sin(angle)
    step = 0.01
    window = math.sqrt(4.0 * dm.cutoff + 2.0) / 2.0 + 4.0
    t_lo = 0.0
    last_above = -1.0
    for _ in range(6):
        ts = np.arange(t_lo, window + step, step)
        vals = np.abs(wigner_points(coef, ts * ca, ts * sa))
        above = np.nonzero(vals >= threshold)[0]
        if above.size:
            last_above = max(last_above, float(ts[above[-1]]))
        if above.size == 0 or ts[above[-1]] < ts[-1]:
            break
        t_lo = float(ts[-1])
        window += 4.0
    else:
        raise WindowExhaustedError(
            f"|W| still above {threshold} at ray distance {window:.1f}")
    if last_above < 0.0:
        raise WindowExhaustedError(
            f"no |W| >= {threshold} point found along the ray")

    lo, hi = last_above, last_above + step

    def g(t: float) -> float:
        w = wigner_points(coef, [t * ca], [t * sa])[0]
        return abs(float(w)) - threshold

    for _ in range(80):
        if hi - lo <= 1e-8:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
