"""Interference statistics at a 50-50 splitter and the estimators on top.

A reference equal-weight phase state meets the unknown state at a 50-50
beam splitter; the joint photon-number distribution at the two outputs
carries the phase information. Every distribution is a CountTable: an
exact one holds the probabilities as fractional counts with trials = 1,
a sampled one integer counts. estimate_phase inverts the single-photon
contrast; estimate_coefficients fits a full superposition by
Gauss-Newton least squares on the frequencies. Each frequency is a
quadratic form |M_i c|^2, a phase-retrieval problem (Candes, Li &
Soltanolkotabi, IEEE Trans. Inf. Theory 61, 1985 (2015); Netrapalli,
Jain & Sanghavi, NeurIPS 2013), so the fit starts from a spectral
estimate: the top eigenvector of the linear least-squares estimate of
c c^H, as in projected least-squares tomography (Guta, Kahn, Kueng &
Tropp, J. Phys. A 53, 204001 (2020)). Both treat exact and sampled
tables alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (LowInformationError, RankDeficiencyWarning,
                     ValidationError, _check_integer)
from .fock import FockVector
from .ops import _splitter_5050
from .phase_states import phase_state, phase_value

_SUM_TOL = 1e-10
_CLAMP_TOL = 1e-14
# Gauss-Newton steps of the coefficient fit at most; from the spectral
# start it stops after a handful.
_POLISH_STEPS = 50


def _wrap_angle(x: float) -> float:
    """Wrap to (-pi, pi]."""
    y = math.remainder(x, 2.0 * math.pi)
    return math.pi if y == -math.pi else y


@dataclass(frozen=True)
class CountTable:
    """Counts on the (2s+1)^2 outcome grid, sampled or exact.

    Sampled tables carry integer-valued counts and the generator seed;
    exact tables (interference_probs, superposition_probs) hold the
    probabilities themselves with trials = 1 and no seed.
    """

    counts: np.ndarray
    trials: float
    rng_seed: int | None = None

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] % 2 == 0:
            raise ValidationError(
                f"counts must be a (2s+1, 2s+1) grid, got {c.shape}")
        if not np.isfinite(c).all():
            raise ValidationError("non-finite count")
        if c.min() < 0:
            raise ValidationError(f"negative count {c.min():.3e}")
        if not 0 < self.trials < math.inf:
            raise ValidationError(
                f"trials must be positive and finite, got {self.trials}")
        if abs(c.sum() - self.trials) > _SUM_TOL * max(1.0, self.trials):
            raise ValidationError(
                f"counts sum {c.sum():.12g} != trials {self.trials:g}")
        object.__setattr__(self, "counts", c)

    @property
    def s(self) -> int:
        return (self.counts.shape[0] - 1) // 2

    def frequencies(self) -> np.ndarray:
        return self.counts / self.trials


@dataclass(frozen=True)
class SuperpositionCoeffs:
    """Gauge-fixed coefficients of sum_k c_k |phi_k>_s.

    The global phase is fixed by making c_0 real and nonnegative; the
    vector is normalized. note records identifiability caveats (for
    example a relative-phase sign that on-axis settings cannot fix).
    """

    s: int
    c: np.ndarray
    note: str = ""

    def __post_init__(self):
        v = np.asarray(self.c, dtype=np.complex128)
        if v.shape != (self.s + 1,):
            raise ValidationError(
                f"need {self.s + 1} coefficients, got shape {v.shape}")
        if abs(float(np.vdot(v, v).real) - 1.0) > 1e-12:
            raise ValidationError("coefficients not normalized")
        if abs(v[0].imag) > 1e-12 or v[0].real < -1e-12:
            raise ValidationError("gauge requires c_0 real and >= 0")
        object.__setattr__(self, "c", v)


def gauge_fixed(c, s: int, note: str = "") -> SuperpositionCoeffs:
    """Normalize and rotate a raw coefficient vector into the gauge."""
    v = np.asarray(c, dtype=np.complex128).copy()
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValidationError(f"non-finite coefficient c_{bad[0]} = {v[bad[0]]}")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValidationError("zero coefficient vector")
    v /= norm
    pivot = v[0]
    if abs(pivot) < 1e-15:
        nz = np.nonzero(np.abs(v) > 1e-15)[0]
        pivot = v[nz[0]]
    v *= np.exp(-1j * np.angle(pivot))
    v[0] = complex(v[0].real if abs(v[0]) > 1e-15 else 0.0, 0.0)
    v /= float(np.linalg.norm(v))
    return SuperpositionCoeffs(s=s, c=v, note=note)


def _support_top(state: FockVector) -> int:
    amp = np.abs(state.amplitudes)
    nz = np.nonzero(amp > 1e-14 * max(amp.max(), 1e-300))[0]
    return int(nz[-1]) if nz.size else 0


def _splitter_amplitudes(left: np.ndarray,
                         right_cols: np.ndarray) -> np.ndarray:
    """Output amplitudes of |left>|right> through the 50-50 splitter.

    left holds photon numbers 0..n_l and each column of right_cols
    0..n_r. Photon number is conserved, so with s = max(n_l, n_r) every
    output lies on the (2s+1)^2 grid: row a*(2s+1) + b of the result is
    the amplitude of |a,b>, one column per right-hand column.
    """
    dim = max(left.size, right_cols.shape[0])
    x = np.zeros((dim, dim, right_cols.shape[1]), dtype=np.complex128)
    x[:left.size, :right_cols.shape[0]] = left[:, None, None] * right_cols
    return _splitter_5050(x).reshape(-1, right_cols.shape[1])


def interference_probs(left: FockVector, right: FockVector) -> CountTable:
    """Exact joint output distribution of a 50-50 beam splitter.

    The result is a table with trials = 1 holding the probabilities.
    The grid is (2s+1)^2 with s the larger photon support of the two
    inputs, which holds every output exactly; inputs may carry any
    cutoff above their support.
    """
    for st, name in ((left, "left"), (right, "right")):
        if st.modes != 1:
            raise ValidationError(f"{name} input must be single-mode")
        if not st.normalized:
            raise ValidationError(f"{name} input must be normalized")
    n_l = _support_top(left)
    n_r = _support_top(right)
    s = max(n_l, n_r)
    amp = _splitter_amplitudes(left.amplitudes[:n_l + 1],
                               right.amplitudes[:n_r + 1, None])
    return CountTable((np.abs(amp) ** 2).reshape(2 * s + 1, 2 * s + 1),
                      trials=1.0)


def _phase_basis(s: int, phi0: float) -> np.ndarray:
    """Columns are the amplitudes of |phi_k>_s, k = 0..s."""
    return np.stack([phase_state(s, phase_value(s, k, phi0)).amplitudes
                     for k in range(s + 1)], axis=1)


def superposition_state(coeffs: SuperpositionCoeffs,
                        phi0: float = 0.0) -> FockVector:
    """Fock-basis form of sum_k c_k |phi_k>_s."""
    amp = _phase_basis(coeffs.s, phi0) @ coeffs.c
    return FockVector(amp)


def superposition_probs(phi_j: float, coeffs: SuperpositionCoeffs,
                        phi0: float = 0.0) -> CountTable:
    """Distribution for reference |phi(phi_j)>_s against the superposition."""
    s = coeffs.s
    left = phase_state(s, phi_j)
    right = superposition_state(coeffs, phi0)
    return interference_probs(left, right)


def sample_outcomes(table: CountTable, trials: int,
                    seed: int) -> CountTable:
    """Multinomial sample from a table's frequencies, reproducible by seed.

    Frequencies below _CLAMP_TOL are drawn as zero: cells that vanish by
    symmetry hold rounding residue (about 1e-33), and the generator draws
    a variate for every nonzero cell, so the residue would shift the
    counts of every later cell. Uses the PCG64 generator; identical
    (table, trials, seed) triples give identical tables on any platform.
    """
    _check_integer("trials", trials, 1)
    _check_integer("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    p = table.frequencies().ravel()
    p = np.where(p < _CLAMP_TOL, 0.0, p)
    counts = rng.multinomial(int(trials), p / p.sum())
    return CountTable(counts=counts.reshape(table.counts.shape).astype(float),
                      trials=float(trials), rng_seed=int(seed))


@dataclass(frozen=True)
class PhaseEstimate:
    phi_k: float
    stderr: float
    candidates: tuple
    informative_counts: float


def _check_order(tables, s: int) -> None:
    _check_integer("s", s, 1)
    for t in tables:
        if t.s != s:
            raise ValidationError(
                f"table grid is for s={t.s}, estimator called with s={s}")


def _is_exact(table: CountTable) -> bool:
    """A table of probabilities (trials = 1 and no seed, as
    interference_probs returns): the exact limit, without sampling error."""
    return table.trials == 1.0 and table.rng_seed is None


def _contrast(table: CountTable) -> tuple[float, float]:
    n10 = float(table.counts[1, 0])
    n01 = float(table.counts[0, 1])
    total = n10 + n01
    if total <= 0.0:
        raise LowInformationError(
            "no counts in the (1,0)/(0,1) cells; the contrast estimator "
            "needs single-photon events (increase trials or adjust the "
            "reference phase)")
    c = (n10 - n01) / total
    return float(np.clip(c, -1.0, 1.0)), total


def estimate_phase(counts: CountTable, phi_j: float, s: int,
                   aux: tuple[float, CountTable] | None = None
                   ) -> PhaseEstimate:
    """Phase of the unknown input from the single-photon contrast.

    The contrast (N(1,0) - N(0,1)) / (N(1,0) + N(0,1)) estimates
    cos(phi_j - phi_k). With one setting the sign of the difference is
    unresolvable, so both candidates are returned; a second reference
    setting (aux) pins it down. Standard errors come from binomial
    propagation; tables of probabilities (trials = 1, no seed) are the
    exact-probability limit and report a zero stderr.
    """
    _check_order([counts] if aux is None else [counts, aux[1]], s)
    for name, phi in (("phi_j", phi_j), ("aux", aux[0] if aux else 0.0)):
        if not math.isfinite(phi):
            raise ValidationError(f"reference phase {name} must be finite, "
                                  f"got {phi!r}")
    c1, n1 = _contrast(counts)
    var_c1 = 0.0 if _is_exact(counts) else max(0.0, (1.0 - c1 * c1)) / n1
    if aux is None:
        delta = math.acos(c1)
        cands = (_wrap_angle(phi_j - delta), _wrap_angle(phi_j + delta))
        return PhaseEstimate(
            phi_k=cands[0],
            stderr=0.0 if _is_exact(counts) else 1.0 / math.sqrt(n1),
            candidates=cands, informative_counts=n1)
    phi_j2, table2 = aux
    c2, n2 = _contrast(table2)
    var_c2 = 0.0 if _is_exact(table2) else max(0.0, (1.0 - c2 * c2)) / n2
    dsep = phi_j2 - phi_j
    sd = math.sin(dsep)
    if abs(sd) < 1e-9:
        raise ValidationError(
            "second reference setting must differ from the first by a "
            "non-multiple of pi")
    # with d = phi_j - phi_k: c1 = cos(d) and c2 = cos(d + dsep), so
    # sin(d) = (c1 cos(dsep) - c2) / sin(dsep)
    x = c1
    y = (c1 * math.cos(dsep) - c2) / sd
    delta = math.atan2(y, x)
    r2 = x * x + y * y
    gx = -y / r2
    gy = x / r2
    var_y = (var_c2 + math.cos(dsep) ** 2 * var_c1) / (sd * sd)
    cov_xy = math.cos(dsep) * var_c1 / sd
    var_delta = gx * gx * var_c1 + gy * gy * var_y + 2.0 * gx * gy * cov_xy
    phi_k = _wrap_angle(phi_j - delta)
    return PhaseEstimate(phi_k=phi_k, stderr=math.sqrt(max(var_delta, 0.0)),
                         candidates=(phi_k,), informative_counts=n1 + n2)


def _covers_eigenphases(settings, s: int, phi0: float) -> bool:
    for j in range(s + 1):
        target = phase_value(s, j, phi0)
        if not any(abs(_wrap_angle(p - target)) < 1e-9 for p in settings):
            return False
    return True


def _model_matrix(settings, s: int, phi0: float) -> np.ndarray:
    """Coefficients to amplitudes, settings stacked along the rows.

    Rows of setting i are i*(2s+1)^2 onwards, in the order of the
    flattened count grid.
    """
    basis = _phase_basis(s, phi0)
    return np.concatenate([
        _splitter_amplitudes(phase_state(s, phi_j).amplitudes, basis)
        for phi_j in settings])


def _residuals(mat: np.ndarray, freqs: np.ndarray):
    """Residuals |M c|^2 - f and their Jacobian in x = (Re c, Im c)."""
    n = mat.shape[1]

    def amplitudes(x):
        return mat @ (x[:n] + 1j * x[n:])

    def fun(x):
        amp = amplitudes(x)
        return amp.real ** 2 + amp.imag ** 2 - freqs

    def jac(x):
        g = amplitudes(x).conj()[:, None] * mat
        return 2.0 * np.hstack([g.real, -g.imag])

    return fun, jac


def _spectral_start(mat: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Spectral start of the fit, as (Re c, Im c).

    f_i = M_i C M_i^H is linear in C = c c^H. The top eigenvector z of
    its least-squares estimate (minimum norm, so parts of C that the
    settings leave unmeasured stay zero), scaled by sqrt(f.m / m.m) with
    m = |M z|^2, starts the fit. This whitens the phase-retrieval matrix
    M^H diag(f) M, whose own top eigenvector can start the fit in a
    spurious minimum for these M. f.m is zero when every count lies in a
    cell the model cannot reach.
    """
    n = mat.shape[1]
    reach = mat.any(axis=1)  # a cell no amplitude reaches says nothing on C
    lifted = mat[reach, :, None] * mat[reach].conj()[:, None, :]
    rho = np.linalg.lstsq(lifted.reshape(-1, n * n), freqs[reach],
                          rcond=None)[0]
    _, vecs = np.linalg.eigh(rho.reshape(n, n))
    z = vecs[:, -1]
    amp = mat @ z
    m = amp.real ** 2 + amp.imag ** 2
    fm = float(freqs @ m)
    if fm <= 0.0:
        raise LowInformationError(
            "no count falls in an outcome cell the model reaches; the "
            "tables hold no information on the coefficients")
    z = z * math.sqrt(fm / float(m @ m))
    return np.concatenate([z.real, z.imag])


def _gauss_newton(fun, jac, x: np.ndarray) -> np.ndarray:
    """Minimize |fun(x)|^2 / 2 by Gauss-Newton steps from x.

    Each step is the minimum-norm least-squares solution of J dx = -r,
    halved while it raises the cost. The fit stops once a step lowers the
    cost by less than a relative 1e-12, when no halving lowers it, or
    after _POLISH_STEPS steps.
    """
    r = fun(x)
    cost = 0.5 * float(r @ r)
    for _ in range(_POLISH_STEPS):
        step = np.linalg.lstsq(jac(x), -r, rcond=None)[0]
        for _ in range(_POLISH_STEPS):
            r_new = fun(x + step)
            new = 0.5 * float(r_new @ r_new)
            if new <= cost:
                break
            step *= 0.5
        else:
            break
        x, r = x + step, r_new
        if cost - new <= 1e-12 * cost:
            break
        cost = new
    return x


def estimate_coefficients(tables, s: int, *, phi0: float = 0.0
                          ) -> SuperpositionCoeffs:
    """Superposition coefficients from count tables at several settings.

    tables: sequence of (phi_j, CountTable); the settings must include
    every eigenphase of order s (extra settings sharpen identifiability,
    and s = 1 needs one off-axis setting to fix the sign of the relative
    phase). The residuals |M c|^2 - f over every setting at once are
    minimized by Gauss-Newton steps in (Re c, Im c) from the spectral
    start of phase retrieval (Candes, Li & Soltanolkotabi 2015;
    Netrapalli, Jain & Sanghavi 2013), here the top eigenvector of the
    least-squares estimate of c c^H, and the optimum is gauge-fixed.
    The global phase, which the frequencies leave free, needs no extra
    residual: each step is the minimum-norm solution, which has no
    component along it.
    Exact tables fit like sampled ones. Raises LowInformationError when
    no count falls in a cell the model reaches.
    """
    tables = list(tables)
    _check_order([t for _, t in tables], s)
    if not tables:
        raise ValidationError("no count tables given")
    settings = [float(p) for p, _ in tables]
    if not _covers_eigenphases(settings, s, phi0):
        raise ValidationError(
            "settings must include every eigenphase of order s")

    freqs = np.concatenate([t.frequencies().ravel() for _, t in tables])
    populated = int(np.count_nonzero(freqs > 0))
    if populated < 2 * (s + 1):
        warnings.warn(
            f"only {populated} populated outcome cells for the "
            f"{2 * (s + 1)} fit parameters", RankDeficiencyWarning, stacklevel=2)
    mat = _model_matrix(settings, s, phi0)
    fun, jac = _residuals(mat, freqs)
    x = _gauss_newton(fun, jac, _spectral_start(mat, freqs))
    note = ""
    if s == 1 and all(abs(math.sin(p - phi0)) < 1e-9 for p in settings):
        note = "relative-phase sign not identifiable from on-axis settings"
    return gauge_fixed(x[:s + 1] + 1j * x[s + 1:], s, note=note)
