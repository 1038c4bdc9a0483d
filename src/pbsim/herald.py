"""Heralded generation of equal-amplitude phase states.

Pipeline: a two-mode squeezed vacuum feeds the last of s distribution
modes, a beam-splitter cascade spreads it evenly, each distribution mode
is displaced, and a click on every distribution detector heralds the
target mode A. The displacement amplitudes are the roots of a degree-s
polynomial whose coefficients make the heralded amplitudes equal weight
order by order in q = tanh(r).

No multimode state is built: the cascade sends b+ to sum_i b_i+ / sqrt(s),
so with F_i = D_i^H E D_i (D_i a truncated displacement, E the click
diagonal) rho_A[j, k] = (1-q^2) q^(j+k) sqrt(j! k!) T[k, j] unnormalized,
T the convolution over the modes of G_i[m', m] = s^(-(m+m')/2) F_i[m', m]
/ sqrt(m! m'!), j, k < min(tmsv_terms, cutoff + 1); build_state is the
dense reference the tests check it against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import factorial, sqrt, tanh

import numpy as np

from .errors import (CutoffError, DegenerateHeraldError, LeakageWarning,
                     NumericalError, RootQualityError, ValidationError,
                     _check_integer)
from .fock import (HERM_TOL, PROB_FLOOR, FockDensity, FockVector,
                   fidelity_pure)
from .ops import (_transfer_tensor, beam_splitter_pb, detector_povm,
                  displacement_op)
from .phase_states import pb_eigenstate
from .wigner import (NegativityResult, _negativity_volumes,
                     negativity_volume)

# Truncation leakage above which build_state and the conditioning warn.
LEAKAGE_BOUND = 1e-6


@dataclass(frozen=True)
class HeraldConfig:
    """Parameters of one generation run.

    cutoff must be at least s so the target |phi_0>_s fits; tmsv_terms
    defaults to the six-term truncation of the source material the
    circuit reproduces, and the "series" displacement scheme keeps the
    Taylor sum to order ops.SERIES_ORDER = 5.
    """

    s: int
    r: float
    eta: float
    cutoff: int = 5
    tmsv_terms: int = 6
    displacement_scheme: str = "series"

    def __post_init__(self):
        for name, least in (("s", 1), ("cutoff", 0), ("tmsv_terms", 1)):
            _check_integer(name, getattr(self, name), least)
        if self.r < 0:
            raise ValidationError(f"squeezing r must be >= 0, got {self.r}")
        if not 0.0 <= self.q < 1.0:
            raise ValidationError(
                f"squeezing r = {self.r} needs 0 <= q = tanh(r) < 1, "
                f"got q = {self.q}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValidationError(f"eta must lie in [0, 1], got {self.eta}")
        if self.cutoff < self.s:
            raise CutoffError(
                f"cutoff {self.cutoff} < s = {self.s}; the target state "
                f"needs photon numbers up to s")
        if self.displacement_scheme not in ("series", "exact"):
            raise ValidationError(
                f"unknown displacement scheme {self.displacement_scheme!r}")

    @property
    def q(self) -> float:
        return tanh(self.r)


@dataclass(frozen=True)
class HeraldResult:
    """Everything derived from one configuration. leakage is the squared
    norm all truncated displacements lose before detection, clamped at 0;
    a series displacement's gain offsets it, and the TMSV cut is not in it."""

    alphas: tuple
    P: float
    F: float
    rho_A: FockDensity
    V: float
    leakage: float

    def __post_init__(self):
        if not -1e-12 <= self.P <= 1.0 + 1e-12:
            raise ValidationError(f"P = {self.P} outside [0, 1]")
        if not -1e-12 <= self.F <= 1.0 + 1e-12:
            raise ValidationError(f"F = {self.F} outside [0, 1]")
        if self.V < 0:
            raise ValidationError(f"V = {self.V} negative")


def symmetric_factors(s: int) -> tuple:
    """Scalars f_{s,j} with heralded amplitude of |j>_A equal, at lowest
    order, to q^j f_{s,j} e_{s-j}(alpha_1..alpha_s).

    Closed form f_{s,j} = sqrt(j!) / s^(j/2): the cascade spreads each of
    the carrier's j photons (paired with |j>_A) evenly over the s
    distribution modes, amplitude 1/sqrt(s) each, and sending them to j
    distinct modes has weight j!/sqrt(j!); the other s-j modes take one
    photon each from their displacement.
    """
    if s < 1:
        raise ValidationError(f"s must be >= 1, got {s}")
    return tuple(sqrt(factorial(j)) / s ** (j / 2) for j in range(s + 1))


def alpha_polynomial(s: int, q: float) -> np.ndarray:
    """Monic degree-s polynomial whose roots are the displacement
    amplitudes, coefficients ordered highest power first.

    The equal-weight condition c_0 = q c_1 = ... = q^s c_s fixes the
    elementary symmetric polynomials to e_k = (f_{s,s}/f_{s,s-k}) q^k.
    """
    if not 0.0 < q < 1.0:
        raise ValidationError(f"require 0 < q < 1, got {q}")
    f = symmetric_factors(s)
    coeffs = np.empty(s + 1)
    for k in range(s + 1):
        coeffs[k] = (-1.0) ** k * (f[s] / f[s - k]) * q ** k
    return coeffs


def solve_alphas(poly) -> np.ndarray:
    """All roots of a monic polynomial, sorted by (real, imag), each
    verified to a residual below 1e-10 relative to the coefficient scale.

    Real coefficients are solved in real arithmetic, so complex roots come
    in exact conjugate pairs and ties in the real part sort by imag.
    """
    c = np.asarray(poly, dtype=np.complex128)
    if c.ndim != 1 or c.size < 2:
        raise ValidationError("polynomial must have degree >= 1")
    if abs(c[0] - 1.0) > 1e-12:
        raise ValidationError(f"polynomial must be monic, got leading {c[0]}")
    roots = np.roots(c if c.imag.any() else c.real)
    scale = max(1.0, float(np.abs(c).max()))
    residuals = np.abs(np.polyval(c, roots))
    if residuals.max() > 1e-10 * scale:
        raise RootQualityError(
            f"root residual {residuals.max():.3e} above 1e-10 * {scale:g}")
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def herald_alphas(cfg: HeraldConfig) -> np.ndarray:
    """Displacement amplitudes for a configuration (zeros when r = 0)."""
    if cfg.q == 0.0:
        return np.zeros(cfg.s, dtype=np.complex128)
    return solve_alphas(alpha_polynomial(cfg.s, cfg.q))


def build_state(cfg: HeraldConfig, alphas=None) -> FockVector:
    """The full circuit state on s distribution modes plus mode A.

    Grown one mode at a time from the source pair (carrier, A): mode k-1
    enters splitter B_{k,s} in vacuum, so only row T[0] acts, and is
    displaced at once. Both fold into one batched matmul on the carrier's
    number n, M_k[(x, y), n] = sum_{a,b} D_{k-1}[x, a] E_k[y, b]
    T[0, n, a, b], with E_k the carrier's displacement D_{s-1} at k = s-1,
    else the identity (s = 1 only displaces the carrier). Each operation's
    clamped squared-norm loss comes from the carrier's reduced density, not
    the tensor; their sum above LEAKAGE_BOUND triggers LeakageWarning.
    """
    if alphas is None:
        alphas = herald_alphas(cfg)
    alphas = np.asarray(alphas, dtype=np.complex128)
    if alphas.shape != (cfg.s,):
        raise ValidationError(
            f"expected {cfg.s} displacement amplitudes, got {alphas.shape}")
    dim = cfg.cutoff + 1
    ds = [displacement_op(complex(a), cfg.cutoff,
                          scheme=cfg.displacement_scheme) for a in alphas]
    # the kept TMSV terms sqrt(1 - q^2) q^n |n, n> of (carrier, A)
    q, n = cfg.q, np.arange(min(dim, cfg.tmsv_terms))
    amp = np.zeros((dim, dim), dtype=np.complex128)
    amp[n, n] = np.sqrt(1.0 - q * q) * q ** n
    r = amp @ amp.conj().T  # the carrier's reduced density
    leakage = 0.0
    for k in range(1, max(cfg.s, 2)):
        # G[..., n] after each operation; ||G psi||^2 = tr(G R G^H)
        ops = [np.eye(dim)]  # no splitter at s = 1
        if cfg.s > 1:
            t0 = _transfer_tensor(beam_splitter_pb(k, cfg.s).u, cfg.cutoff)
            ops = [t0[0].transpose(1, 2, 0)]  # (a, b, n)
            ops.append(np.tensordot(ds[k - 1], ops[0], axes=1))
        if k == max(cfg.s - 1, 1):
            ops.append(np.einsum("yb,...bn->...yn", ds[-1], ops[-1]))
        norms = [float(np.vdot(g, g @ r).real) for g in ops]
        leakage += sum(max(0.0, n0 - n1) for n0, n1 in zip(norms, norms[1:]))
        g = ops[-1].reshape(-1, dim, dim)
        amp = (g.reshape(-1, dim) @ amp.reshape(-1, dim, dim)).reshape(
            (dim,) * (amp.ndim + (cfg.s > 1)))
        r = np.einsum("xyn,nm,xzm->yz", g, r, g.conj())  # mode x traced out
    if leakage > LEAKAGE_BOUND:
        warnings.warn(f"truncation leakage {leakage:.3e} above bound "
                      f"{LEAKAGE_BOUND:.0e}", LeakageWarning, stacklevel=2)
    return FockVector(amp, leakage=leakage)


def _convolve(kernels: np.ndarray) -> np.ndarray:
    """Truncated 2-D convolution of kernels (s, ..., J, J) over axis 0 as a
    direct sum; row c of g acts on the last axis as g[c, b - b1], b >= b1."""
    n = kernels.shape[-1]
    d = np.arange(n) - np.arange(n)[:, None]  # d[b1, b] = b - b1
    out = kernels[0]
    for g in kernels[1:]:
        upper = np.where(d >= 0, g[..., np.maximum(d, 0)], 0.0)
        acc, out = out, np.zeros_like(out)
        for c in range(n):
            out[..., c:, :] += acc[..., :n - c, :] @ upper[..., c, :, :]
    return out


def _condition(cfg: HeraldConfig) -> dict:
    """HeraldResult's fields but V, by the module docstring's convolution."""
    alphas = herald_alphas(cfg)
    j = np.arange(min(cfg.tmsv_terms, cfg.cutoff + 1))
    root_fact = np.sqrt([float(factorial(n)) for n in j])
    ds = np.array([displacement_op(complex(a), cfg.cutoff,
                                   cfg.displacement_scheme) for a in alphas])
    e = np.stack([detector_povm(cfg.eta, cfg.cutoff).click,
                  np.ones(cfg.cutoff + 1)])  # E = I: norm after displacing
    f = np.einsum("ixm,ex,ixn->ienm", ds.conj(), e, ds)[..., :j.size, :j.size]
    v = cfg.s ** (-j / 2) / root_fact
    w = sqrt(1.0 - cfg.q ** 2) * cfg.q ** j * root_fact
    # f holds F_i^T, so the convolution is T^T and raw[e] is rho_A[j, k]
    raw = np.multiply.outer(w, w) * _convolve(f * np.multiply.outer(v, v))
    p = float(np.trace(raw[0]).real)
    if p < PROB_FLOOR:
        raise DegenerateHeraldError(
            f"conditioning probability {p:.3e} below floor {PROB_FLOOR:.0e}")
    leakage = max(0.0, 1.0 - cfg.q ** (2 * j.size) - np.trace(raw[1]).real)
    if leakage > LEAKAGE_BOUND:
        warnings.warn(f"truncation leakage {leakage:.3e} above bound "
                      f"{LEAKAGE_BOUND:.0e}", LeakageWarning, stacklevel=3)
    rho = np.pad(raw[0] / p, (0, cfg.cutoff + 1 - j.size))
    asym = float(np.abs(rho - rho.conj().T).max())
    if asym > HERM_TOL:
        raise NumericalError(f"rho_A's Hermiticity residual {asym:.3e} is "
                             f"past the convolution's precision floor")
    rho_a = FockDensity(rho, declared_trace=1.0)
    fid = fidelity_pure(rho_a, pb_eigenstate(cfg.s, 0, cutoff=cfg.cutoff))
    return dict(alphas=tuple(complex(a) for a in alphas), P=p,
                F=float(fid), rho_A=rho_a, leakage=float(leakage))


def herald_point(cfg: HeraldConfig) -> HeraldResult:
    """One-shot evaluation of alphas, P, F, rho_A and V."""
    fields = _condition(cfg)
    return HeraldResult(V=float(negativity_volume(fields["rho_A"])),
                        **fields)


@dataclass(frozen=True)
class HeraldSweepRow:
    s: int
    r: float
    eta: float
    P: float
    F: float
    V: float
    leakage: float
    error: str | None = None


def sweep(s: int, r_values, eta_values) -> list[HeraldSweepRow]:
    """Herald figures over an (eta, r) grid at cutoff 5 and 6 TMSV terms up
    to s = 5 (the source material's), else cutoff s + 2 and s + 3 terms.

    Each grid point is conditioned on its own; then the negativity
    volumes of all points that conditioned share one batched adaptive
    pass, and each equals herald_point's V for its point. Row order is
    deterministic: eta in the given order outermost, r innermost.
    Numerical failures (for example r = 0, where no detector can click,
    or a volume that misses its tolerance) are recorded in the row's
    error field and the sweep continues; invalid configurations still
    raise.
    """
    truncation = (5, 6) if s <= 5 else (s + 2, s + 3)  # cutoff, tmsv_terms
    points = []  # (r, eta, HeraldResult's fields but V, or the error text)
    for eta in eta_values:
        for r in r_values:
            cfg = HeraldConfig(s, float(r), float(eta), *truncation)
            try:
                points.append((cfg.r, cfg.eta, _condition(cfg)))
            except NumericalError as exc:
                points.append((cfg.r, cfg.eta, str(exc)))
    volumes = iter(_negativity_volumes(
        [f["rho_A"] for _, _, f in points if isinstance(f, dict)]))
    rows: list[HeraldSweepRow] = []
    for r, eta, fields in points:
        vol = next(volumes) if isinstance(fields, dict) else fields
        if isinstance(vol, NegativityResult):
            res = HeraldResult(V=float(vol.volume), **fields)
            rows.append(HeraldSweepRow(s, r, eta, res.P, res.F, res.V,
                                       res.leakage))
        else:
            nan = float("nan")
            rows.append(HeraldSweepRow(s, r, eta, nan, nan, nan, nan,
                                       error=str(vol)))
    return rows
