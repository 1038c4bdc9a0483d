"""Wigner functions, negativity volumes and the support-radius metric.

Conventions: hbar = 1/2, so the vacuum Wigner peak is 2/pi and the
position wavefunctions are psi_n(x) = (2/pi)^(1/4) (2^n n!)^(-1/2)
H_n(sqrt(2) x) exp(-x^2). Every W value comes from the exact Hermite
expansion in _kernels: its coefficient table is computed once per state
and public call, then each lattice or point set is a few matrix
products. The negativity volume integrates |W| exactly along each line
of fixed q, from the roots of W there, and adaptively over q; several
states, of one dimension or of many, share one adaptive pass. Every
public entry takes a FockDensity, a FockVector or a matrix that
FockDensity accepts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._kernels import (hermite_functions, hermite_primitives,
                       hermite_series_derivative, wigner_coefficients,
                       wigner_lattice)
from .errors import (NumericalError, QuadratureError, ValidationError,
                     WindowExhaustedError)
from .fock import FockDensity, FockVector

RADIUS_THRESHOLD = 0.001
PANEL_ORDER = 16
MAX_DEPTH = 20
# the q box of dimension D reaches this far past sqrt(2D)/2
BOX_MARGIN = 3.0
# Hermite-series evaluations allowed per negativity volume
MAX_EVALS = 40_000_000
DEFAULT_TOL = 1e-6
_NODES, _WEIGHTS = leggauss(PANEL_ORDER)
_TRACE_PRE_TOL = 1e-8
_ROOT_STEP = 1e-8
_ROOT_BRACKET = 1e-13
_POLISH_STEPS = 64
# the birth scan: uniform q lines per state over |q| <= sqrt(2D)/2 +
# _SCAN_REACH, past which no h_j(2q), j < D, oscillates
_SCAN_LINES = 128
_SCAN_REACH = 1.0
# halvings of a scan bracket in which no birth is found
_BISECTIONS = 6
# births closer than this in q count once
_BIRTH_MERGE = 1e-9
# |W| below this share of its line's largest |W| on the p grid is noise
_NOISE = 1e-13
# a state whose odd-in-p part of W integrates to |W_odd| below this is
# taken as even in p: its lines are folded at p = 0
_FOLD_BOUND = 1e-12
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

    box_half_width is L = sqrt(2D)/2 + BOX_MARGIN, shared by every state
    of dimension D, and tail_estimate is Int |W| over L < |q| < L + 2.
    evaluations counts every Hermite-series evaluation at one point of
    one half-line of a q line (the p grid, W' there, root polishing and
    the primitives at the roots, p = 0 and inf, and the scan lines and
    extremum steps that bracket and locate births); each line is
    evaluated once, and births between a panel's nodes are located from
    the extrema of that evaluation. A folded state (W even in p) searches
    one half-line per q line and an unfolded one two, so a folded state
    takes about half the evaluations. roots counts the sign changes of W
    found on the integration's q lines over the whole line, a folded
    half-line's twice, and births the root-pair births located and cut
    at.
    """

    volume: float
    abs_integral: float
    tail_estimate: float
    box_half_width: float
    evaluations: int
    max_depth_reached: int
    roots: int
    births: int


def _box(dim: int) -> float:
    """The q box's half-width for every state whose table has size dim."""
    # each h_j(2q), j < dim, decays like a Gaussian past |2q| = sqrt(2dim-1)
    return math.sqrt(2.0 * dim) / 2.0 + BOX_MARGIN


def _check_unit_trace(dm: FockDensity) -> None:
    if abs(dm.trace - 1.0) > _TRACE_PRE_TOL:
        raise ValidationError(
            f"expected a trace-1 density, got trace {dm.trace:.12g}")


def negativity_volume(rho, tol: float = DEFAULT_TOL) -> float:
    """Negativity volume (1/2)(Int |W| - 1), clamped at zero.

    On each line of fixed q, W(q, p) = sum_k a_k(q) h_k(2p) with
    a(q) = C^T h(2q), and W(q, -p) = sum_k (-1)^k a_k(q) h_k(2p), so a
    line is two half-lines 2p >= 0, or one counted twice where the state
    is even in p up to a bound of 1e-12 on Int |W_odd| (then its odd-in-p
    part is dropped). Sign changes on a half-line are bracketed on a grid
    of spacing 0.5 pi / sqrt(2D) over 0 <= 2p <= 2L + 4 (D = len(a), and
    L = sqrt(2D)/2 + BOX_MARGIN for every state of that dimension), with
    a check of each cell where W' turns toward zero for a hidden pair,
    and polished by safeguarded Newton steps started from a cubic model
    of W through its grid values and slopes. Between p = 0, consecutive
    roots and inf, Int |W| dp is then a sum of a_k times exact integrals
    of h_k. Only the outer q integral over [-L, L] is adaptive. Where a pair
    of roots is born, at q0, G(q) = Int |W| dp has a (q - q0)^(3/2) kink,
    so the q range is cut at the births: root counts on scan lines
    bracket them, and Newton steps in q on the value of the touching
    extremum, W(q, p_e(q)), locate them. Each segment between births is
    mapped by q = a + (b - a)(3t^2 - 2t^3), which makes the kink smooth
    in t, and integrated by PANEL_ORDER-point Gauss-Legendre panels in
    t, halved level by level, or cut at births that their node lines
    reveal, at most MAX_DEPTH times, until each panel and its children
    agree to its q-width share of tol. MAX_EVALS caps the Hermite-series
    evaluations per state. QuadratureError is raised when the same line
    integrals over the strips L < |q| < L + 2 exceed tol, or when the q
    refinement exceeds MAX_DEPTH or MAX_EVALS.
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

    The densities may differ in dimension. Each keeps the q box, p grid
    and Hermite table that its dimension fixes, and its own tail check,
    panels, stopping rule, depth and evaluation budget, so its result is
    the one it gets alone; every line-integral call carries the q lines
    of all states still refining. A state whose numerics fail gets its
    NumericalError in its place in the returned list, and the others go
    on.
    """
    if not tol > 0:
        raise ValidationError(f"tolerance must be > 0, got {tol!r}")
    dms = [_as_density(rho) for rho in densities]
    for dm in dms:
        _check_unit_trace(dm)
    results: list = [None] * len(dms)
    # in order of dimension, so that a block of lines pads its rows little
    index = sorted(range(len(dms)), key=lambda i: dms[i].matrix.shape[0])
    if not index:
        return results
    lines = _LineIntegrals([wigner_coefficients(dms[i].matrix) for i in index])
    for k, integral in enumerate(_box_integrals(lines, tol)):
        results[index[k]] = _volume(integral, lines, k, tol)
    return results


def _volume(integral, lines, k, tol):
    """State k's NegativityResult from its box integral, or the error."""
    if isinstance(integral, QuadratureError):
        return integral
    absint, depth, tail, births = integral
    raw = 0.5 * (absint - 1.0)
    if raw < 0.0:
        if raw < -100.0 * tol:
            return QuadratureError(
                f"negativity volume {raw:.3e} below zero beyond tolerance")
        raw = 0.0
    return NegativityResult(volume=float(raw), abs_integral=float(absint),
                            tail_estimate=tail,
                            box_half_width=float(lines.half_width[k]),
                            evaluations=int(lines.evaluations[k]),
                            max_depth_reached=depth,
                            roots=int(lines.roots[k]), births=births)


def _smoothstep(a, b, t):
    """q = a + (b - a)(3t^2 - 2t^3) and dq/dt, mapping [0, 1] onto [a, b].

    The derivative vanishes at both ends, so a (q - a)^(3/2) term of G
    there becomes smooth in t.
    """
    span = b - a
    return a + span * t * t * (3.0 - 2.0 * t), 6.0 * span * t * (1.0 - t)


def _children(t0, t1, a, b, cut, cut_q):
    """The panels' children: the halves in t of a panel, or, where births
    cut_q lie inside panels cut, its pieces between them, each mapped by
    _smoothstep of its own. Returns their t0, t1, a, b and parents.
    """
    whole = np.ones(t0.size, dtype=bool)
    whole[cut] = False
    h = np.flatnonzero(whole)
    tm = 0.5 * (t0[h] + t1[h])
    c = np.flatnonzero(~whole)
    owner = np.concatenate([c, cut, c])
    ends = np.concatenate([_smoothstep(a[c], b[c], t0[c])[0], cut_q,
                           _smoothstep(a[c], b[c], t1[c])[0]])
    order = np.lexsort((ends, owner))
    owner, ends = owner[order], ends[order]
    piece = np.flatnonzero(owner[1:] == owner[:-1])
    return (np.concatenate([t0[h], tm, np.zeros(piece.size)]),
            np.concatenate([tm, t1[h], np.ones(piece.size)]),
            np.concatenate([a[h], a[h], ends[piece]]),
            np.concatenate([b[h], b[h], ends[piece + 1]]),
            np.concatenate([h, h, owner[piece]]))


def _box_integrals(lines, tol) -> list:
    """Each state's Int |W| over the box |q| <= L, as (value, depth,
    tail, births), or its QuadratureError.

    The births that lines.births() locates cut the box into segments.
    Level 0 integrates each segment, and each strip L < |q| < L + 2, as
    one panel mapped by _smoothstep; a tail above tol is an error. Each
    further level splits every live panel into its halves in t, or at
    the births that its node lines revealed, and accepts a panel when its
    children's sum is within its q-width share of tol of its own value.
    A panel cut at births is not accepted against its pieces, and one
    whose child holds a newly found birth waits for that child's pieces.
    tol, MAX_DEPTH and MAX_EVALS hold per state; one line-integral call
    per level serves all states still refining. births counts every
    located birth.
    """
    out: list = [None] * lines.evaluations.size
    # a birth whose kink is at most tol / 2L is left to the acceptance
    # rule: over a unit of q it stays within that unit's share of tol
    floor = tol / (2.0 * lines.half_width)
    parts = []
    for k, born in enumerate(lines.births(floor)):
        hw = lines.half_width[k]
        e = np.concatenate([[-hw - 2.0, -hw], born, [hw, hw + 2.0]])
        parts.append((k, np.zeros(e.size - 1), np.ones(e.size - 1), e[:-1],
                      e[1:]))
    # state -> [t0, t1, a, b, panel values, cut panels, cuts, accepted total]
    live, tails, births = {}, {}, {}
    first = zip(parts, *lines.panels(parts, floor))
    for (k, t0, t1, a, b), vals, (cut, cut_q) in first:
        tail = float(vals[0] + vals[-1])
        if tail > tol:
            out[k] = QuadratureError(
                f"|W| outside the box |q| <= {lines.half_width[k]:.3f} "
                f"(sqrt(2D)/2 + BOX_MARGIN {BOX_MARGIN}, "
                f"D = {lines.dim[k]}) "
                f"integrates to {tail:.3e}, above tolerance {tol:.1e}")
            continue
        inner = (cut > 0) & (cut < vals.size - 1)
        box = slice(1, -1)
        live[k] = [t0[box], t1[box], a[box], b[box], vals[box],
                   cut[inner] - 1, cut_q[inner], 0.0]
        tails[k], births[k] = tail, a.size - 3 + int(inner.sum())
    for depth in range(1, MAX_DEPTH + 1):
        if not live:
            break
        kids = {k: _children(*p[:4], *p[5:7]) for k, p in live.items()}
        parts = [(k, *c[:4]) for k, c in kids.items()]
        for (k, *_), cvals, (cut, cut_q) in zip(parts,
                                                *lines.panels(parts, floor)):
            t0, t1, a, b, vals, was_cut, _, total = live.pop(k)
            if lines.evaluations[k] > MAX_EVALS:
                out[k] = QuadratureError(
                    f"evaluation budget {MAX_EVALS} exceeded at "
                    f"depth {depth}")
                continue
            ct0, ct1, ca, cb, parent = kids[k]
            births[k] += cut.size
            child_sum = np.bincount(parent, weights=cvals,
                                    minlength=vals.size)
            width = _smoothstep(a, b, t1)[0] - _smoothstep(a, b, t0)[0]
            done = np.abs(child_sum - vals) <= tol * width / (
                2.0 * lines.half_width[k])
            # pieces cut at births are checked against their own halves,
            # and a child that births cut is not checked yet
            done[was_cut] = False
            done[parent[cut]] = False
            total += float(child_sum[done].sum())
            keep = np.flatnonzero(~done[parent])
            if keep.size:
                renumber = np.cumsum(~done[parent]) - 1
                live[k] = [ct0[keep], ct1[keep], ca[keep], cb[keep],
                           cvals[keep], renumber[cut], cut_q, total]
            else:
                out[k] = (total, depth, tails[k], births[k])
    for k, p in live.items():
        out[k] = QuadratureError(
            f"{p[0].size} panels unconverged at max depth {MAX_DEPTH}")
    return out


def _cell_kinds(f_lo, f_hi, fp_lo, fp_hi):
    """Cells where W changes sign, and cells to check for a pair of roots.

    From W and W' at the cells' ends: a cell whose ends share W's sign
    holds a pair only if W' turns toward zero inside it, and then the
    extremum decides. W' = 0 at the low end (p = 0 on a folded line)
    counts as turning toward zero.
    """
    pos_hi, dpos_hi = f_hi > 0, fp_hi > 0
    same = (f_lo > 0) == pos_hi
    turn = dpos_hi == pos_hi
    turn &= same
    turn &= ((fp_lo > 0) != dpos_hi) | (fp_lo == 0)
    return ~same, turn


def _root_start(lo, hi, f_lo, f_hi, fp_lo, fp_hi):
    """Where models of W through its values and slopes at a bracket's ends
    are zero: the inverse cubic Hermite model x(W) through (W, x, 1/W') at
    both ends, or, where W' = 0 at an end e, the quadratic
    W(e) + c (x - e)^2 through W at the other end."""
    span = f_hi - f_lo
    u = f_lo / (f_lo - f_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        cubic = ((1.0 + 2.0 * u) * (1.0 - u) ** 2 * lo
                 + u * (1.0 - u) ** 2 * span / fp_lo
                 + u * u * (3.0 - 2.0 * u) * hi
                 - u * u * (1.0 - u) * span / fp_hi)
        near_lo = lo + (hi - lo) * np.sqrt(u)
        near_hi = hi - (hi - lo) * np.sqrt(1.0 - u)
    return np.where(fp_lo == 0, near_lo, np.where(fp_hi == 0, near_hi, cubic))


def _cubic_extremum(lo, hi, f_lo, f_hi, fp_lo, fp_hi):
    """The extremum inside a cell of the cubic through W and W' at its
    ends, where W' has opposite signs; lo where W'(lo) = 0 and the cubic
    has no other."""
    h = hi - lo
    d0, d1 = fp_lo * h, fp_hi * h
    # the slope in t = (x - lo) / h is c2 t^2 + c1 t + d0
    c2 = 3.0 * (d0 + d1) - 6.0 * (f_hi - f_lo)
    c1 = -c2 - d0 + d1
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(np.maximum(c1 * c1 - 4.0 * c2 * d0, 0.0))
        big = -0.5 * (c1 + np.copysign(disc, c1))
        inner, other = big / c2, d0 / big
    t = np.where((inner > 0) & (inner < 1), inner, other)
    return lo + t * h


def _merge(group, born):
    """The finite births, ascending within each group, with those within
    _BIRTH_MERGE of the one before them in their group left out."""
    keep = np.isfinite(born)
    order = np.lexsort((born[keep], group[keep]))
    group, born = group[keep][order], born[keep][order]
    apart = np.diff(born, prepend=-np.inf) > _BIRTH_MERGE
    apart[1:] |= group[1:] != group[:-1]
    return group[apart], born[apart]


def _dots(a, h):
    """sum_k a[i, k] h[k, i], added in order of k, so that a row gets the
    same bits whatever the number of rows and the zero columns past its
    own series; a pairwise row sum would not. einsum adds in that order
    over two rows or more, but over one it takes a vectorized sum."""
    if a.shape[0] == 1:
        return np.cumsum(a * h.T, axis=1)[:, -1]
    return np.einsum("ik,ki->i", a, h)


def _values(x, *series):
    """sum_k c[i, k] h_k(x[i]) for each series table c, by _dots on one
    table of h_k at the points x."""
    h = hermite_functions(max(c.shape[1] for c in series) - 1, x)
    return tuple(_dots(c, h[:c.shape[1]]) for c in series)


def _fold_bound(coef):
    """A bound on Int |W_odd| dq dp, W_odd the odd-in-p part of W.

    W_odd = sum over odd k of C_jk h_j(2q) h_k(2p), and Int |h_n| dxi <=
    sqrt(pi (n + 3/2)) by Cauchy-Schwarz with the weight 1 + xi^2.
    """
    norm = np.sqrt(np.pi * (np.arange(coef.shape[0]) + 1.5))
    return 0.25 * float(norm @ np.abs(coef[:, 1::2]) @ norm[1::2])


@functools.lru_cache(maxsize=64)
def _p_grid(half_width: float, dim: int) -> tuple:
    """The half-line p grid of the states of dimension dim and q box
    half_width: its full grid's spacing, the grid xi (0, then the points
    of the full grid over |xi| <= 2 half_width + 4 past its middle),
    h_k(xi) for k <= dim, and P_k(0) and P_k(inf), k < dim (read-only).
    """
    end = 2.0 * half_width + 4.0
    cells = math.ceil(2.0 * end / (0.5 * math.pi / math.sqrt(2.0 * dim)))
    full = np.linspace(-end, end, cells + 1)
    xi = np.concatenate([[0.0], full[cells // 2 + 1:]])
    tables = (xi, hermite_functions(dim, xi),
              hermite_primitives(dim - 1, np.array([0.0, np.inf])))
    for table in tables:
        table.flags.writeable = False
    return (full[1] - full[0], *tables)


class _LineIntegrals:
    """G(q) = Int |W(q, p)| dp, exact up to root polishing, for a batch of
    states of any dimensions.

    Holds each state's coefficient table and running evaluation and root
    counts, and the box half-width, p grid and Hermite table that its
    dimension fixes; also locates where G has its root-pair kinks. Series
    at scattered points go through _at, which counts each evaluation
    where it runs. A batch of lines is an array of q and a per-line state
    array, evaluated in plain consecutive blocks of LINE_BLOCK lines,
    whose edges may fall inside one state's lines. Each state's matrix
    products run on exactly the rows and columns it would have alone, all
    C-ordered (_products); the bracket search and polishing run once per
    block, over all its states, on series coefficients zero-padded to the
    block's largest dimension and p grids padded to its longest. Every
    sum across coefficients runs in one order whatever the padding or
    memory layout, so a state's lines, brackets and counts are the ones
    it gets alone, wherever the block edges fall.

    A line is searched and integrated as half-lines on xi = 2p >= 0, since
    W(q, -p) = sum_k (-1)^k a_k(q) h_k(2p). A state whose _fold_bound is
    below _FOLD_BOUND is folded: its odd-in-p columns of C are dropped, so
    W is even in p, and each line is one half-line counted twice. Every
    other state's line is two half-lines, of a(q) and of a(q) (-1)^k. The
    p grid is 0 and the points of the full grid past its middle, so it
    splits the cell that straddles p = 0 there.
    """

    def __init__(self, coefs):
        """coefs lists each state's coefficient table."""
        self.dim = np.array([c.shape[0] for c in coefs])
        self.folded = np.array([_fold_bound(c) < _FOLD_BOUND for c in coefs],
                               dtype=bool)
        # how many roots of the whole line each half-line root stands for
        self.copies = 1 + self.folded.astype(np.int64)
        self.coef = [c.copy() for c in coefs]
        for c, folded in zip(self.coef, self.folded):
            if folded:
                c[:, 1::2] = 0.0
        # C differentiated on the q side: dW/dx = h(x) . coef_x . h(y)
        self.coef_x = [hermite_series_derivative(c.T).T for c in self.coef]
        self.half_width = np.array([_box(dim) for dim in self.dim])
        # h_k(xi), and P_k at the half-line's ends 0 and inf
        cell, grids, self.h_xi, self.ends = zip(*(
            _p_grid(*key) for key in zip(self.half_width, self.dim)))
        # the spacing, past which an extremum's Newton step has lost it
        self.cell = np.array(cell)
        self.grid_size = np.array([xi.size for xi in grids])
        # the grids as one table, each continued at its own spacing to the
        # longest; only cells inside a state's own grid are ever loud
        pad = self.grid_size.max() - self.grid_size
        self.xi = np.stack([
            np.concatenate([xi, xi[-1] + step * np.arange(1, n + 1)])
            for xi, step, n in zip(grids, cell, pad)])
        self.slope = (6.0 / np.diff(self.xi)).astype(np.float32)
        self.evaluations = np.zeros(len(coefs), dtype=np.int64)
        self.roots = np.zeros(len(coefs), dtype=np.int64)

    def _per_state(self, states: np.ndarray) -> np.ndarray:
        """How many entries of states name each state."""
        return np.bincount(states, minlength=self.evaluations.size)

    def _at(self, state, x, *series):
        """_values(x, *series), each x[i] counted per series for state[i]."""
        self.evaluations += len(series) * self._per_state(state)
        return _values(x, *series)

    @staticmethod
    def _products(x, state, tables):
        """x[rows, :m] @ tables[k] for each run of rows of state k, (m, n) =
        tables[k].shape, in the first n columns of an output zero past
        them: each state's product runs on exactly the rows and columns it
        has alone, on x made C-ordered (BLAS may round a row slice of a
        Fortran-ordered x by the layout of the whole)."""
        x = np.ascontiguousarray(x)
        edge = [0, *(np.flatnonzero(np.diff(state)) + 1).tolist(), state.size]
        runs = [(tables[state[lo]], lo, hi) for lo, hi in zip(edge, edge[1:])]
        out = np.zeros((x.shape[0], max(t.shape[1] for t, _, _ in runs)))
        for t, lo, hi in runs:
            m, n = t.shape
            np.matmul(x[lo:hi, :m], t, out=out[lo:hi, :n])
        return out

    def panels(self, parts, floor):
        """Gauss-Legendre estimates of Int G dq over panels, and the births
        that their node lines reveal.

        parts lists (state, t0, t1, a, b): panel i covers t0[i] <= t <=
        t1[i] of the map _smoothstep(a[i], b[i], t). Returns each part's
        panel values, and its (panel, q) births: those that _locate finds
        between neighbouring nodes of one panel, from the nodes' own
        evaluation, more than _BIRTH_MERGE inside the panel.
        """
        bounds = list(accumulate((p[1].size for p in parts), initial=0))
        t0, t1, a, b = (np.concatenate([p[i] for p in parts])
                        for i in range(1, 5))
        ht = 0.5 * (t1 - t0)
        qs, dq = _smoothstep(a[:, None], b[:, None],
                             (0.5 * (t1 + t0))[:, None] + ht[:, None] * _NODES)
        state = np.repeat([p[0] for p in parts],
                          PANEL_ORDER * np.diff(bounds))
        qs = qs.ravel()
        count, lone, g = self.evaluate(qs, state, integrate=True)
        g = g.reshape(dq.shape) * dq
        vals = [(g[lo:hi] @ _WEIGHTS) * ht[lo:hi]
                for lo, hi in zip(bounds, bounds[1:])]
        # brackets: each node and the next one of its panel
        node = np.flatnonzero(np.arange(1, qs.size) % PANEL_ORDER)
        (node, _), which, born = self._locate(state, qs, count, lone,
                                              (node, node + 1), 0, floor)
        panel, born = _merge(node[which] // PANEL_ORDER, born)
        ends = _smoothstep(a[panel], b[panel], np.stack([t0[panel],
                                                         t1[panel]]))[0]
        inside = ((born - ends[0] > _BIRTH_MERGE)
                  & (ends[1] - born > _BIRTH_MERGE))
        panel, born = panel[inside], born[inside]
        part = np.searchsorted(bounds, panel, "right") - 1
        return vals, [(panel[part == i] - first, born[part == i])
                      for i, first in enumerate(bounds[:-1])]

    def births(self, floor) -> list:
        """Each state's root-pair births in (-L, L), ascending.

        _SCAN_LINES uniform q lines per state bracket them by their root
        counts, and _locate finds them from the line with fewer roots. A
        bracket where it finds none is halved, and the halves whose
        counts differ are tried from the new line, up to _BISECTIONS
        times. Births within _BIRTH_MERGE of each other count once, and
        births whose kink is at most floor[state] are left out.
        """
        n = _SCAN_LINES
        hw = (np.sqrt(2.0 * self.dim) / 2.0 + _SCAN_REACH)[:, None]
        states = self.evaluations.size
        state = np.repeat(np.arange(states), n)
        q = (-hw + (np.arange(n) + 0.5) * (2.0 * hw / n)).ravel()
        count, lone, _ = self.evaluate(q, state)
        lo = np.flatnonzero(state[1:] == state[:-1])
        ends, fresh, found = (lo, lo + 1), 0, []
        for step in range(_BISECTIONS + 1):
            ends, which, born = self._locate(state, q, count, lone, ends,
                                             fresh, floor)
            found.append((state[ends[0][which]], born))
            open_ = np.bincount(which, minlength=ends[0].size) == 0
            if step == _BISECTIONS or not open_.any():
                break
            # halve the open brackets at new lines, whose lone extrema
            # alone are followed
            lo, hi = (e[open_] for e in ends)
            fresh, ks, q_mid = q.size, state[lo], 0.5 * (q[lo] + q[hi])
            n_mid, lone, _ = self.evaluate(q_mid, ks)
            state, q, count = (np.concatenate(v) for v in (
                (state, ks), (q, q_mid), (count, n_mid)))
            mid = np.arange(fresh, q.size)
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
            order = np.lexsort((q[lo], state[lo]))
            ends = (lo[order], hi[order])
        state, born = _merge(*(np.concatenate(v) for v in zip(*found)))
        return [born[state == k] for k in range(states)]

    def evaluate(self, qs: np.ndarray, state: np.ndarray, integrate=False):
        """Root counts over the whole line, lone extrema as find_roots
        gives them, and G if integrate (else None) on the lines (qs[i],
        state[i]), evaluated LINE_BLOCK lines at a time: the roots are
        polished only for G."""
        count = np.empty(qs.size, dtype=np.intp)
        g = np.empty(qs.size) if integrate else None
        lone = []
        for lo in range(0, qs.size, LINE_BLOCK):
            hi = min(lo + LINE_BLOCK, qs.size)
            b, line, rows, roots, (ext, xi, f) = self.find_roots(
                qs[lo:hi], state[lo:hi], integrate)
            count[lo:hi] = (np.bincount(line[rows], minlength=hi - lo)
                            * self.copies[state[lo:hi]])
            lone.append((ext + lo, xi, f))
            if integrate:
                g[lo:hi] = self._integrals(b, line, rows, roots,
                                           state[lo:hi][line])
        return count, tuple(np.concatenate(v) for v in zip(*lone)), g

    def _integrals(self, b, line, rows, roots, state):
        """G on one block's lines, from the roots xi of each half-line
        rows[i] of series coefficients b; half-line i lies on line[i]."""
        found = self._per_state(state[rows])
        self.roots += found * self.copies
        self.evaluations += found + 2 * self._per_state(state)
        # Int_0^inf |f| dxi is the sum of |P(y) - P(x)| over the intervals
        # between 0, the roots and inf, with P(0) = b . P_0, P(inf) = b . P_inf
        n = b.shape[0]
        half = np.concatenate([np.arange(n), rows, np.arange(n)])
        xs = np.concatenate([np.zeros(n), roots, np.full(n, np.inf)])
        ends = self._products(b, state, self.ends)
        prim = np.concatenate([
            ends[:, 0],
            _dots(b[rows], hermite_primitives(b.shape[1] - 1, roots)),
            ends[:, 1]])
        order = np.lexsort((xs, half))
        half, prim = half[order], prim[order]
        same = half[1:] == half[:-1]
        integral = np.bincount(half[1:][same],
                               weights=np.abs(np.diff(prim))[same],
                               minlength=n)
        # dp = dxi / 2, and a folded half-line counts twice
        integral *= 0.5 * self.copies[state]
        return np.bincount(line, weights=integral)

    def _halves(self, state):
        """The half-lines of lines of states state, in line order: each
        one's line, and whether it is the mirror image xi -> -xi, which
        follows its line's other half-line where the state is unfolded."""
        halves = 2 - self.folded[state]
        line = np.repeat(np.arange(state.size), halves)
        mirror = np.zeros(line.size, dtype=bool)
        mirror[np.cumsum(halves)[halves == 2] - 1] = True
        return line, mirror

    def find_roots(self, qs: np.ndarray, state: np.ndarray, polish=True):
        """Sign changes of W(q, p) in xi = 2p on the half-lines of each line
        (qs[i], state[i]) of one block.

        Returns (b, line, rows, roots, lone): the half-lines' series
        coefficients, a(q) = C^T h(2q) or a(q) (-1)^k for a mirror, and
        their lines; each root's half-line index, and its xi >= 0 if
        polish (else None); and the lone extrema, which turn toward zero
        without crossing it, as (line, xi, W) arrays ordered by line, with
        xi on the whole line.
        """
        # the block's coefficient rows, zero past each state's dimension
        dim = self.dim[state].max()
        a = self._products(hermite_functions(dim - 1, 2.0 * qs).T, state,
                           self.coef)
        line, mirror = self._halves(state)
        b = a[line]
        b[mirror, 1::2] *= -1.0
        state = state[line]
        db = hermite_series_derivative(b)
        ((row, c_lo, c_hi, f_lo, f_hi, fc_lo, fc_hi),
         (tr, t_lo, t_hi, ft_lo, ft_hi, fp_lo, fp_hi)) = self._brackets(
             b, db, state, line)
        ext = self._polish(
            self._series(db, hermite_series_derivative(db), tr, state),
            t_lo, t_hi, fp_lo, fp_hi,
            _cubic_extremum(t_lo, t_hi, ft_lo, ft_hi, fp_lo, fp_hi))
        (f_ext,) = self._at(state[tr], ext, b[tr])
        pair = (f_ext > 0) != (ft_lo > 0)
        lone = (line[tr[~pair]],
                np.where(mirror[tr[~pair]], -ext[~pair], ext[~pair]),
                f_ext[~pair])
        tr, t_lo, t_hi, ft_lo, ft_hi, fp_lo, fp_hi, ext, f_ext = (
            v[pair] for v in (tr, t_lo, t_hi, ft_lo, ft_hi, fp_lo, fp_hi, ext,
                              f_ext))
        rows = np.concatenate([row, tr, tr])
        if not polish:
            return b, line, rows, None, lone
        # W' is zero at the extremum that ends a pair's brackets
        lo, hi, f_lo, f_hi, fp_lo, fp_hi = (np.concatenate(v) for v in (
            (c_lo, t_lo, ext), (c_hi, ext, t_hi), (f_lo, ft_lo, f_ext),
            (f_hi, f_ext, ft_hi), (fc_lo, fp_lo, np.zeros(ext.size)),
            (fc_hi, np.zeros(ext.size), fp_hi)))
        roots = self._polish(
            self._series(b, db, rows, state), lo, hi, f_lo, f_hi,
            _root_start(lo, hi, f_lo, f_hi, fp_lo, fp_hi))
        return b, line, rows, roots, lone

    def _brackets(self, a, da, state, line):
        """Cells bracketing a root of W, and cells to check for a pair, on
        half-lines of series coefficients a, which lie on lines line.

        W and W' of each half-line are evaluated on its state's p grid, one
        product per state over its own half-lines (_products); past a
        shorter grid's end they are zero. Every half-line reads its cell
        slopes and grid size from its own state's row of the grid tables.
        A cell whose ends share the sign of W' can still hold two extrema,
        and with them two roots more: where the cubic through W and W' at
        its ends turns twice inside, the cell is split at its midpoint,
        where W and W' are evaluated too. Cells where |W| stays below
        _NOISE times the line's largest |W| on the grid, and cells past
        the end of their state's grid, are left out.
        Returns, for each cell of both kinds, its half-line, ends, and W
        and W' there.
        """
        size = self.grid_size[state].max()
        xi = self.xi[:, :size]
        f = self._products(a, state, [h[:-1] for h in self.h_xi])
        fp = self._products(da, state, self.h_xi)
        self.evaluations += 2 * self._per_state(state) * self.grid_size
        # the cubic through W and W' at a cell's ends has 1/4 of
        # 6 (W1 - W0) / h - W'0 - W'1 as its slope at the midpoint; where
        # that has the other sign than W' at both ends, W turns twice.
        # Single precision suffices to pick the cells, in half the memory.
        mid = np.subtract(f[:, 1:], f[:, :-1], dtype=np.float32)
        mid *= self.slope[state, :size - 1]
        mid -= fp[:, :-1]
        mid -= fp[:, 1:]
        rising = fp[:, :-1] > 0
        split = rising != (mid > 0)
        del mid
        split &= rising == (fp[:, 1:] > 0)
        del rising
        # roots where W is rounding noise move G by next to nothing
        peak = np.zeros(line[-1] + 1)
        np.maximum.at(peak, line, np.maximum(f.max(axis=1), -f.min(axis=1)))
        floor = _NOISE * peak[line, None]
        loud = (f >= floor) | (f <= -floor)
        loud = loud[:, :-1] | loud[:, 1:]
        loud &= np.arange(size - 1) < self.grid_size[state, None] - 1
        split &= loud
        row, cell = np.nonzero(split)
        x_lo, x_hi = xi[state[row], cell], xi[state[row], cell + 1]
        x_s = 0.5 * (x_lo + x_hi)
        f_s, fp_s = self._at(state[row], x_s, a[row], da[row])
        halves = [np.concatenate(v) for v in zip(
            (row, x_lo, x_s, f[row, cell], f_s, fp[row, cell], fp_s),
            (row, x_s, x_hi, f_s, f[row, cell + 1], fp_s,
             fp[row, cell + 1]))]
        loud &= ~split
        kinds = zip(_cell_kinds(f[:, :-1], f[:, 1:], fp[:, :-1], fp[:, 1:]),
                    _cell_kinds(*halves[3:]))
        del split
        out = []
        for on_grid, half in kinds:
            r, c = np.nonzero(on_grid & loud)
            cells = [np.concatenate(v) for v in zip(
                (r, xi[state[r], c], xi[state[r], c + 1], f[r, c],
                 f[r, c + 1], fp[r, c], fp[r, c + 1]),
                (v[half] for v in halves))]
            order = np.lexsort((cells[1], cells[0]))
            out.append([v[order] for v in cells])
        return out

    def _locate(self, state, q, count, lone, ends, fresh, floor):
        """The births in brackets between lines whose root counts differ.

        ends = (i, j) pairs the lines (q[i], state[i]) and (q[j], state[j])
        into brackets, and brackets whose counts agree are dropped. Each
        extremum in lone = (line, xi, W) of the end with fewer roots is
        followed to the other end; lone numbers its lines from line fresh,
        and an end before that was tried before. Returns the kept
        brackets' ends, the bracket of each extremum that changes sign
        there, and the q where its value W(q, p_e(q)) is zero: safeguarded
        Newton steps in x = 2q inside the bracket, with dW/dx at the
        extremum as the derivative of its value (the envelope theorem).
        Near a birth G gains kink |q - q0|^(3/2), kink =
        (16/3) |dW/dx|^(3/2) / |W''|^(1/2); where that, taken at the other
        end, is at most floor[state], q is nan.
        """
        i, j = (e[count[ends[0]] != count[ends[1]]] for e in ends)
        fewer = np.where(count[i] < count[j], i, j)
        line, xi, f_f = lone
        first = np.searchsorted(line, fewer - fresh)
        size = np.where(fewer >= fresh, np.searchsorted(
            line, fewer - fresh, "right") - first, 0)
        which = np.repeat(np.arange(i.size), size)
        if not which.size:
            return (i, j), which, np.empty(0)
        ext = (np.arange(which.size)
               + np.repeat(first - np.cumsum(size) + size, size))
        fewer = fewer[which]
        state, x_f, x_o, f_f = (state[fewer], 2.0 * q[fewer],
                                2.0 * q[i[which] + j[which] - fewer],
                                f_f[ext])
        xi, f_o, fx, fyy = self._extremum(state, x_o, xi[ext])
        born = np.isfinite(f_o) & ((f_o > 0) != (f_f > 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            big = (16.0 / 3.0 * np.abs(fx) ** 1.5 / np.sqrt(np.abs(fyy))
                   > floor[state])
        q = np.full(born.sum(), np.nan)
        big = big[born]
        state, x_f, x_o, xi, f_f, f_o = (
            v[born][big] for v in (state, x_f, x_o, xi, f_f, f_o))
        left = x_f < x_o

        def value(active, x):
            xi[active], f, fx, _ = self._extremum(state[active], x,
                                                  xi[active])
            return f, fx

        q[big] = 0.5 * self._polish(value, np.where(left, x_f, x_o),
                                    np.where(left, x_o, x_f),
                                    np.where(left, f_f, f_o),
                                    np.where(left, f_o, f_f))
        return (i, j), which[born], q

    def _extremum(self, state, x, xi):
        """The extremum of W on each line x = 2q nearest xi, by Newton steps
        on W' from xi; returns its xi, and W, dW/dx and W'' there. W is
        nan where a step leaves the grid cell: the extremum is lost.
        """
        n = x.size
        # the series coefficients, zero past each state's dimension
        hx = hermite_functions(self.dim[state].max(initial=1), x).T
        a = self._products(hx, state, self.coef)
        ax = self._products(hx, state, self.coef_x)
        da = hermite_series_derivative(a)
        dda = hermite_series_derivative(da)
        xi = xi.copy()
        f, fx, fyy = np.empty(n), np.empty(n), np.empty(n)
        live = np.arange(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_POLISH_STEPS):
                if live.size == 0:
                    break
                f[live], fx[live], fyy[live], fy = self._at(
                    state[live], xi[live], a[live], ax[live], dda[live],
                    da[live])
                step = fy / fyy[live]
                # a step below _ROOT_STEP moves W by O(step^2): xi stays; a
                # step beyond a grid cell has lost the extremum: W is nan
                lost = ~(np.abs(step) <= self.cell[state[live]])
                f[live[lost]] = np.nan
                go = ~lost & (np.abs(step) > _ROOT_STEP)
                live = live[go]
                xi[live] -= step[go]
        return xi, f, fx, fyy

    def _series(self, a, da, rows, state):
        """f and f' at x of sum_k a[rows[i], k] h_k, da being a's derivative
        table, for _polish; each point counts for state[rows[i]] (_at)."""

        def values(active, x):
            r = rows[active]
            return self._at(state[r], x, a[r], da[r])

        return values

    @staticmethod
    def _polish(values, lo, hi, f_lo, f_hi, start=None):
        """A root of f in each bracket [lo[i], hi[i]].

        values(active, x) returns f and f' of the brackets active at x;
        f_lo and f_hi lie on opposite sides of the split f > 0 / f <= 0,
        except that f_lo may be 0 where f_hi is not positive. Newton steps
        start from start[i] where it lies in the bracket, else from the
        secant point; a step that leaves the shrinking bracket is replaced
        by the bracket's midpoint, so every such step at least halves it.
        A root error delta moves G only by O(delta^2), so a Newton step
        below _ROOT_STEP ends the iteration. f == 0 counts as a zero step
        even where f' == 0 too: a bracket update there would move away
        from the root. Where f is nan the root is nan. Returns the roots.
        """
        lo, hi = lo.copy(), hi.copy()
        lo_pos = f_hi <= 0
        x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if start is not None:
            x = np.where((start >= lo) & (start <= hi), start, x)
        active = np.arange(x.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_POLISH_STEPS):
                if active.size == 0:
                    break
                xa = x[active]
                f, fp = values(active, xa)
                left = (f > 0) == lo_pos[active]
                lo[active] = l = np.where(left, xa, lo[active])
                hi[active] = u = np.where(left, hi[active], xa)
                step = np.where(f == 0.0, 0.0, f / fp)
                small = np.abs(step) <= _ROOT_STEP
                xn = np.clip(xa - step, l, u)
                newton = small | ((xn > l) & (xn < u))
                lost = np.isnan(f)
                x[active] = np.where(lost, np.nan,
                                     np.where(newton, xn, 0.5 * (l + u)))
                active = active[~(small | lost | (u - l <= _ROOT_BRACKET))]
        return x


def effective_radius(rho) -> float:
    """Outermost |W| = RADIUS_THRESHOLD crossing along the +q axis.

    Scans [0, L] with step 0.01, L the negativity volume's box for the
    state's dimension, then solves for the last crossing inside its scan
    bracket by safeguarded Newton steps (_LineIntegrals._polish) on the
    axis series W(q, 0) = sum_j b_j h_j(2q), b = C h(0), to well below
    1e-10. WindowExhaustedError is raised when no scanned point reaches
    the threshold or |W| is still above it at the box edge.
    """
    dm = _as_density(rho)
    _check_unit_trace(dm)
    coef = wigner_coefficients(dm.matrix)
    step = 0.01
    ts = np.arange(0.0, _box(coef.shape[0]) + step, step)
    b = (coef @ hermite_functions(coef.shape[0] - 1, 0.0))[None]
    db = hermite_series_derivative(b)
    (w,) = _values(2.0 * ts, np.repeat(b, ts.size, axis=0))
    above = np.nonzero(np.abs(w) >= RADIUS_THRESHOLD)[0]
    edge = f"the box edge q = {ts[-1]:.2f}"
    if above.size == 0:
        raise WindowExhaustedError(f"no |W| >= {RADIUS_THRESHOLD} point on "
                                   f"the +q axis from q = 0 to {edge}")
    if above[-1] == ts.size - 1:
        raise WindowExhaustedError(
            f"|W| still above {RADIUS_THRESHOLD} at {edge}")
    cut = above[-1:]
    # in xi = 2q, the root of sign(W(t)) W - RADIUS_THRESHOLD in [t, t + step]
    sign = np.sign(w[cut])

    def values(active, x):
        f, fp = _values(x, b[active], db[active])
        return sign * f - RADIUS_THRESHOLD, sign * fp

    xi = _LineIntegrals._polish(
        values, 2.0 * ts[cut], 2.0 * ts[cut + 1],
        sign * w[cut] - RADIUS_THRESHOLD, sign * w[cut + 1] - RADIUS_THRESHOLD)
    return 0.5 * float(xi[0])
