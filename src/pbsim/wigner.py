"""Wigner functions, negativity volumes and the support-radius metric.

Conventions: hbar = 1/2, so the vacuum Wigner peak is 2/pi and the
position wavefunctions are psi_n(x) = (2/pi)^(1/4) (2^n n!)^(-1/2)
H_n(sqrt(2) x) exp(-x^2). Every W value comes from the exact Hermite
expansion in _kernels: its coefficient table is computed once per state
and public call, then each lattice or point set is a few matrix
products. The negativity volume integrates |W| exactly along each line
of fixed q, from the roots of W there, and adaptively over q; several
states of one dimension share one adaptive pass. Every public entry
takes a FockDensity, a FockVector or a matrix that FockDensity accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

from ._kernels import (hermite_functions, hermite_primitives,
                       hermite_series_derivative, wigner_coefficients,
                       wigner_lattice, wigner_points)
from .errors import (NumericalError, QuadratureError, ValidationError,
                     WindowExhaustedError)
from .fock import FockDensity, FockVector

RADIUS_THRESHOLD = 0.001
PANEL_ORDER = 16
MAX_DEPTH = 20
# the q box of a negativity volume reaches this far past effective_radius
RADIUS_MARGIN = 2.0
# Hermite-series evaluations allowed per negativity volume
MAX_EVALS = 40_000_000
DEFAULT_TOL = 1e-6
_NODES, _WEIGHTS = leggauss(PANEL_ORDER)
_TRACE_PRE_TOL = 1e-8
_ROOT_STEP = 1e-8
_ROOT_BRACKET = 1e-13
_POLISH_STEPS = 64
# q lines per line-integral block: bounds the p-grid tables' memory when
# many states share one pass
LINE_BLOCK = 2048


def _as_density(state) -> FockDensity:
    if isinstance(state, FockDensity):
        return state
    if isinstance(state, FockVector):
        return FockDensity.from_pure(state)
    return FockDensity(np.asarray(state))


def wigner_grid(rho, qs, ps) -> np.ndarray:
    """W on the lattice qs x ps: values[i, j] = W(qs[i], ps[j]).

    Both axes must be finite 1-D arrays.
    """
    axes = [np.asarray(axis, dtype=np.float64) for axis in (qs, ps)]
    for axis in axes:
        if axis.ndim != 1 or not np.all(np.isfinite(axis)):
            raise ValidationError("grid axes must be finite 1-D arrays")
    return wigner_lattice(wigner_coefficients(_as_density(rho).matrix), *axes)


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


def negativity_volume(rho, tol: float = DEFAULT_TOL) -> float:
    """Negativity volume (1/2)(Int |W| - 1), clamped at zero.

    On each line of fixed q, W(q, p) = sum_k a_k(q) h_k(2p) with
    a(q) = C^T h(2q). Its sign changes in p are bracketed on a grid of
    spacing 0.5 pi / sqrt(2D) over |2p| <= 2L + 4 (D = len(a),
    L = effective_radius + RADIUS_MARGIN), with a check of each cell
    where W' turns toward zero for a hidden pair, and polished by
    safeguarded Newton steps. Between consecutive roots and +-inf,
    Int |W| dp is then a sum of a_k times exact integrals of h_k. Only
    the outer q integral over [-L, L] is adaptive: PANEL_ORDER-point
    Gauss-Legendre panels, halved level by level, at most MAX_DEPTH
    times, until parent and children agree to tol. MAX_EVALS caps the
    Hermite-series evaluations per state. QuadratureError is raised
    when the same line integrals over the strips L < |q| < L + 2 exceed
    tol, or when the q refinement exceeds MAX_DEPTH or MAX_EVALS.
    """
    return negativity_volume_detailed(rho, tol).volume


def negativity_volume_detailed(rho, tol: float = DEFAULT_TOL
                               ) -> NegativityResult:
    (result,) = _negativity_volumes([rho], tol)
    if isinstance(result, NumericalError):
        raise result
    return result


def _negativity_volumes(densities, tol: float = DEFAULT_TOL) -> list:
    """negativity_volume_detailed of each density, in one adaptive pass.

    The densities must share one dimension. Every line-integral call
    carries the q lines of all states still refining, but each state
    keeps its own box, tail check, panels, stopping rule, depth and
    evaluation budget, so its result is the one it gets alone. A state
    whose numerics fail gets its NumericalError in its place in the
    returned list, and the others go on.
    """
    if not tol > 0:
        raise ValidationError(f"tolerance must be > 0, got {tol!r}")
    dms = [_as_density(rho) for rho in densities]
    dims = sorted({dm.matrix.shape[0] for dm in dms})
    if len(dims) > 1:
        raise ValidationError(
            f"batched negativity volumes need one dimension, got {dims}")
    for dm in dms:
        _check_unit_trace(dm)
    results: list = [None] * len(dms)
    index, coefs, half_widths = [], [], []
    for i, dm in enumerate(dms):
        try:
            coef = wigner_coefficients(dm.matrix)
            half_widths.append(_radius(coef) + RADIUS_MARGIN)
        except NumericalError as exc:
            results[i] = exc
            continue
        index.append(i)
        coefs.append(coef)
    if not index:
        return results
    lines = _LineIntegrals(np.stack(coefs), half_widths)
    tails = [float(t.sum()) for t in lines.panels(
        [(k, np.array([-hw - 2.0, hw]), np.array([-hw, hw + 2.0]))
         for k, hw in enumerate(half_widths)])]
    boxed = []
    for k, (hw, tail) in enumerate(zip(half_widths, tails)):
        if tail > tol:
            results[index[k]] = QuadratureError(
                f"|W| outside the box |q| <= {hw:.3f} (effective radius "
                f"+ RADIUS_MARGIN {RADIUS_MARGIN}) integrates to "
                f"{tail:.3e}, above tolerance {tol:.1e}")
        else:
            boxed.append(k)
    for k, integral in _adaptive_q_integrals(lines, boxed, tol).items():
        results[index[k]] = _volume(integral, lines, k, tails[k], tol)
    return results


def _volume(integral, lines, k, tail, tol):
    """State k's NegativityResult from its adaptive integral, or the error."""
    if isinstance(integral, QuadratureError):
        return integral
    absint, depth = integral
    raw = 0.5 * (absint - 1.0)
    if raw < 0.0:
        if raw < -100.0 * tol:
            return QuadratureError(
                f"negativity volume {raw:.3e} below zero beyond tolerance")
        raw = 0.0
    return NegativityResult(volume=float(raw), abs_integral=float(absint),
                            tail_estimate=tail,
                            box_half_width=float(lines.half_widths[k]),
                            evaluations=int(lines.evaluations[k]),
                            max_depth_reached=depth,
                            roots=int(lines.roots[k]))


def _adaptive_q_integrals(lines, states, tol) -> dict:
    """Integral over q in [-L, L] of the exact line integrals of |W|.

    Returns {state: (value, depth_reached) or QuadratureError}. Panels are
    halved level by level; a panel is accepted when its parent/children
    difference is below its width share of the tolerance, and a state's
    refinement stops early once its remaining difference budget is below
    half the target. tol, MAX_DEPTH and MAX_EVALS hold per state;
    one line-integral call per level serves all states still refining.
    """
    if not states:
        return {}
    hw = lines.half_widths
    parts = [(k, np.array([-hw[k]]), np.array([hw[k]])) for k in states]
    # state -> (q0, q1, panel values, accepted total)
    live = {k: (q0, q1, vals, 0.0)
            for (k, q0, q1), vals in zip(parts, lines.panels(parts))}
    out: dict = {}
    for depth in range(1, MAX_DEPTH + 1):
        parts = []
        for k, (q0, q1, _, _) in live.items():
            qm = 0.5 * (q0 + q1)
            parts.append((k, np.concatenate([q0, qm]),
                          np.concatenate([qm, q1])))
        for (k, cq0, cq1), cvals in zip(parts, lines.panels(parts)):
            q0, q1, vals, total = live.pop(k)
            if lines.evaluations[k] > MAX_EVALS:
                out[k] = QuadratureError(
                    f"evaluation budget {MAX_EVALS} exceeded at "
                    f"depth {depth}")
                continue
            child_sum = cvals[:q0.size] + cvals[q0.size:]
            diff = np.abs(child_sum - vals)
            if diff.sum() <= 0.5 * tol:
                out[k] = (float(total + child_sum.sum()), depth)
                continue
            done = diff <= tol * (q1 - q0) / (2.0 * hw[k])
            total += float(child_sum[done].sum())
            keep2 = np.concatenate([~done, ~done])
            if keep2.any():
                live[k] = (cq0[keep2], cq1[keep2], cvals[keep2], total)
            else:
                out[k] = (float(total), depth)
        if not live:
            return out
    for k, (q0, _, _, _) in live.items():
        out[k] = QuadratureError(
            f"{q0.size} panels unconverged at max depth {MAX_DEPTH}")
    return out


def _blocks(segs):
    """Line ranges (state, lo, hi) packed into blocks of <= LINE_BLOCK lines.

    A state's lines stay in one block unless they alone exceed LINE_BLOCK.
    """
    blocks, size = [[]], 0
    for k, lo, hi in segs:
        for a in range(lo, hi, LINE_BLOCK):
            b = min(a + LINE_BLOCK, hi)
            if size + (b - a) > LINE_BLOCK:
                blocks.append([])
                size = 0
            blocks[-1].append((k, a, b))
            size += b - a
    return blocks


def _line_states(segs) -> np.ndarray:
    """The state index of each line of a block's ranges segs."""
    state = np.empty(segs[-1][2], dtype=np.intp)
    for k, lo, hi in segs:
        state[lo:hi] = k
    return state


class _LineIntegrals:
    """G(q) = Int |W(q, p)| dp, exact up to root polishing, for a batch of
    states of one dimension.

    Holds each state's coefficient table, box half-width, p grid with its
    Hermite table, and running evaluation and root counts. Lines come as
    ranges (state, lo, hi) of a q array: lines lo..hi-1 belong to that
    state. Each state's matrix products run on exactly the rows it would
    have alone; the bracket search and polishing run once per block of
    at most LINE_BLOCK lines, over all its states.
    """

    def __init__(self, coefs: np.ndarray, half_widths):
        self.coef = coefs
        self.half_widths = list(half_widths)
        dim = coefs.shape[1]
        grids = []
        for hw in self.half_widths:
            end = 2.0 * hw + 4.0
            cells = math.ceil(
                2.0 * end / (0.5 * math.pi / math.sqrt(2.0 * dim)))
            grids.append(np.linspace(-end, end, cells + 1))
        self.h_xi = [hermite_functions(dim, xi) for xi in grids]
        # each state's p grid, padded to the widest by its last point
        width = max(xi.size for xi in grids)
        self.xi = np.array([np.pad(xi, (0, width - xi.size), mode="edge")
                            for xi in grids])
        self.full_line = hermite_primitives(dim - 1, np.array([np.inf]))[:, 0]
        self.evaluations = np.zeros(len(coefs), dtype=np.int64)
        self.roots = np.zeros(len(coefs), dtype=np.int64)

    def _per_state(self, states: np.ndarray) -> np.ndarray:
        """How many entries of states name each state."""
        return np.bincount(states, minlength=self.evaluations.size)

    def panels(self, parts) -> list:
        """Gauss-Legendre estimates of Int G dq over panels [q0, q1].

        parts lists (state, q0, q1); returns each part's panel values.
        """
        q0 = np.concatenate([p[1] for p in parts])
        q1 = np.concatenate([p[2] for p in parts])
        hq = 0.5 * (q1 - q0)
        qs = (0.5 * (q1 + q0))[:, None] + hq[:, None] * _NODES
        bounds = list(accumulate((p[1].size for p in parts), initial=0))
        g = self.at(qs.ravel(), [(k, PANEL_ORDER * lo, PANEL_ORDER * hi)
                                 for (k, _, _), lo, hi in
                                 zip(parts, bounds, bounds[1:])])
        g = g.reshape(qs.shape)
        return [(g[lo:hi] @ _WEIGHTS) * hq[lo:hi]
                for lo, hi in zip(bounds, bounds[1:])]

    def at(self, qs: np.ndarray, segs) -> np.ndarray:
        """G at each q of qs, evaluated LINE_BLOCK lines at a time."""
        out = np.empty(qs.size)
        for block in _blocks(segs):
            lo, hi = block[0][1], block[-1][2]
            out[lo:hi] = self._block_at(
                qs[lo:hi], [(k, a - lo, b - lo) for k, a, b in block])
        return out

    def _block_at(self, qs: np.ndarray, segs) -> np.ndarray:
        """G on the lines of one block."""
        a, rows, roots = self.find_roots(qs, segs)
        state = _line_states(segs)
        found = self._per_state(state[rows])
        self.roots += found
        self.evaluations += found + self._per_state(state)
        # Int |W| dp is half the sum of |P(b) - P(a)| over the intervals
        # between consecutive roots, with P(-inf) = 0 and P(inf) = a . P_inf
        n = qs.size
        line = np.concatenate([np.arange(n), rows, np.arange(n)])
        xs = np.concatenate([np.full(n, -np.inf), roots, np.full(n, np.inf)])
        prim = np.concatenate([
            np.zeros(n),
            np.einsum("ik,ki->i", a[rows],
                      hermite_primitives(a.shape[1] - 1, roots))]
            + [a[lo:hi] @ self.full_line for _, lo, hi in segs])
        order = np.lexsort((xs, line))
        line, prim = line[order], prim[order]
        same = line[1:] == line[:-1]
        return 0.5 * np.bincount(line[1:][same],
                                 weights=np.abs(np.diff(prim))[same],
                                 minlength=n)

    def find_roots(self, qs: np.ndarray, segs):
        """Sign changes of W(q, p) in xi = 2p on each line q = qs[i].

        Each range (state, lo, hi) of segs takes its state's table and p
        grid. Returns (a, rows, roots): the lines' series coefficients
        a(q) = C^T h(2q), and each root's line index and xi.
        """
        dim = self.coef.shape[1]
        hq = hermite_functions(dim - 1, 2.0 * qs)
        a = np.concatenate([hq[:, lo:hi].T @ self.coef[k]
                            for k, lo, hi in segs])
        da = hermite_series_derivative(a)
        (row, cell), (tr, tc), f, fp = self._brackets(a, da, segs)
        state = _line_states(segs)
        xi = self.xi.ravel()
        grid = state * self.xi.shape[1]  # each line's offset into xi
        c, t = grid[row] + cell, grid[tr] + tc
        c_lo, c_hi, t_lo, t_hi = xi[c], xi[c + 1], xi[t], xi[t + 1]
        f_lo, f_hi = f[row, cell], f[row, cell + 1]
        fp_lo, fp_hi = fp[tr, tc], fp[tr, tc + 1]
        ft_lo, ft_hi = f[tr, tc], f[tr, tc + 1]
        del f, fp  # block-sized tables: not kept through the polishing
        ext, ext_evals = self._polish(da, tr, t_lo, t_hi, fp_lo, fp_hi)
        f_ext = np.einsum("ik,ki->i", a[tr], hermite_functions(dim - 1, ext))
        turned = tr
        pair = (f_ext > 0) != (ft_lo > 0)
        tr, t_lo, t_hi, ext, f_ext, ft_lo, ft_hi = (
            tr[pair], t_lo[pair], t_hi[pair], ext[pair], f_ext[pair],
            ft_lo[pair], ft_hi[pair])
        rows = np.concatenate([row, tr, tr])
        roots, root_evals = self._polish(
            a, rows, np.concatenate([c_lo, t_lo, ext]),
            np.concatenate([c_hi, ext, t_hi]),
            np.concatenate([f_lo, ft_lo, f_ext]),
            np.concatenate([f_hi, f_ext, ft_hi]))
        # a polishing step evaluates f and f', an extremum's check f
        self.evaluations += 2 * self._per_state(state[np.concatenate(
            [turned[ext_evals], rows[root_evals]])]) + self._per_state(
                state[turned])
        return a, rows, roots

    def _brackets(self, a, da, segs):
        """Grid cells bracketing a root of W, and cells to check for a pair.

        W and W' of each line are evaluated on its state's p grid, padded
        to the widest grid by repeating the last point, which adds no sign
        change and no turn. Returns the (line, cell) indices of both kinds
        and the padded W and W' tables.
        """
        dim = a.shape[1]
        f = np.empty((a.shape[0], self.xi.shape[1]))
        fp = np.empty_like(f)
        for k, lo, hi in segs:
            h_xi = self.h_xi[k]
            end = h_xi.shape[1]
            np.matmul(a[lo:hi], h_xi[:dim], out=f[lo:hi, :end])
            np.matmul(da[lo:hi], h_xi, out=fp[lo:hi, :end])
            f[lo:hi, end:] = f[lo:hi, end - 1:end]
            fp[lo:hi, end:] = fp[lo:hi, end - 1:end]
            self.evaluations[k] += 2 * (hi - lo) * end
        pos = f > 0
        cross = np.nonzero(pos[:, 1:] != pos[:, :-1])
        # a cell whose ends share W's sign holds a pair of roots only if
        # W' turns toward zero inside it: the extremum decides
        dpos = fp > 0
        turn = np.nonzero(
            (pos[:, 1:] == pos[:, :-1]) & (dpos[:, 1:] != dpos[:, :-1])
            & (dpos[:, 1:] == pos[:, 1:]))
        return cross, turn, f, fp

    @staticmethod
    def _polish(a, rows, lo, hi, f_lo, f_hi):
        """A root of row rows[i]'s series a in each bracket [lo[i], hi[i]].

        f_lo and f_hi lie on opposite sides of the split f > 0 / f <= 0.
        Newton steps start from the secant point; a step that leaves the
        shrinking bracket is replaced by the bracket's midpoint, so every
        such step at least halves it. A root error delta moves G only by
        O(delta^2), so a Newton step below _ROOT_STEP ends the iteration.
        f == 0 counts as a zero step even where f' == 0 too: a bracket
        update there would move away from the root. Returns the roots and
        the bracket index of each step, which evaluates f and f'.
        """
        da = hermite_series_derivative(a)
        lo, hi = lo.copy(), hi.copy()
        lo_pos = f_lo > 0
        x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        active = np.arange(x.size)
        stepped = []
        for _ in range(_POLISH_STEPS):
            if active.size == 0:
                break
            stepped.append(active)
            xa, r = x[active], rows[active]
            h = hermite_functions(da.shape[1] - 1, xa)
            f = np.einsum("ik,ki->i", a[r], h[:-1])
            fp = np.einsum("ik,ki->i", da[r], h)
            left = (f > 0) == lo_pos[active]
            lo[active] = l = np.where(left, xa, lo[active])
            hi[active] = u = np.where(left, hi[active], xa)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(f == 0.0, 0.0, f / fp)
            small = np.abs(step) <= _ROOT_STEP
            xn = np.clip(xa - step, l, u)
            newton = small | ((xn > l) & (xn < u))
            x[active] = np.where(newton, xn, 0.5 * (l + u))
            active = active[~(small | (u - l <= _ROOT_BRACKET))]
        return x, np.concatenate(stepped) if stepped else active


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
