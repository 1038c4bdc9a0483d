"""Heralded generation of equal-amplitude phase states.

Pipeline: a two-mode squeezed vacuum feeds the last of s distribution
modes, a beam-splitter cascade spreads it evenly, each distribution mode
is displaced, and a click on every distribution detector heralds the
target mode A. The displacement amplitudes are the roots of a degree-s
polynomial whose coefficients make the heralded amplitudes equal weight
order by order in q = tanh(r).

Mode layout of the built state: axes 0..s-1 are the distribution modes
(the cascade feeds axis s-1), axis s is the heralded mode A, always last.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import factorial, sqrt, tanh

import numpy as np

from .errors import (CutoffError, LeakageWarning, NumericalError,
                     RootQualityError, ValidationError)
from .fock import (FockDensity, FockVector, conditional_density,
                   fidelity_pure)
from .ops import (_transfer_tensor, beam_splitter_pb, detector_povm,
                  displacement_op, tmsv)
from .phase_states import pb_eigenstate
from .wigner import negativity_volume


@dataclass(frozen=True)
class HeraldConfig:
    """Parameters of one generation run.

    cutoff must be at least s so the target |phi_0>_s fits; tmsv_terms
    defaults to the six-term truncation of the source material the
    circuit reproduces, and the series displacement to displacement_op's
    order 5.
    """

    s: int
    r: float
    eta: float
    cutoff: int = 5
    tmsv_terms: int = 6
    displacement_scheme: str = "series"
    leakage_bound: float = 1e-6

    def __post_init__(self):
        if self.s < 1:
            raise ValidationError(f"s must be >= 1, got {self.s}")
        if self.r < 0:
            raise ValidationError(f"squeezing r must be >= 0, got {self.r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValidationError(f"eta must lie in [0, 1], got {self.eta}")
        if self.cutoff < self.s:
            raise CutoffError(
                f"cutoff {self.cutoff} < s = {self.s}; the target state "
                f"needs photon numbers up to s")
        if self.tmsv_terms < 1:
            raise ValidationError("tmsv_terms must be >= 1")
        if self.displacement_scheme not in ("series", "exact"):
            raise ValidationError(
                f"unknown displacement scheme {self.displacement_scheme!r}")

    @property
    def q(self) -> float:
        return tanh(self.r)


@dataclass(frozen=True)
class HeraldResult:
    """Everything derived from one configuration."""

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
    the tensor; their sum above cfg.leakage_bound triggers LeakageWarning.
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
    amp = tmsv(cfg.q, cfg.cutoff, max_terms=cfg.tmsv_terms).amplitudes
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
    if leakage > cfg.leakage_bound:
        warnings.warn(f"truncation leakage {leakage:.3e} above bound "
                      f"{cfg.leakage_bound:.0e}", LeakageWarning, stacklevel=2)
    return FockVector(amp, leakage=leakage)


def herald_point(cfg: HeraldConfig) -> HeraldResult:
    """One-shot evaluation of alphas, P, F, rho_A and V."""
    alphas = herald_alphas(cfg)
    state = build_state(cfg, alphas)
    povm = detector_povm(cfg.eta, cfg.cutoff)
    rho_a, p = conditional_density(state, [povm.click] * cfg.s,
                                   kept_mode=cfg.s)
    target = pb_eigenstate(cfg.s, 0, cutoff=cfg.cutoff)
    fid = fidelity_pure(rho_a, target)
    vol = negativity_volume(rho_a)
    return HeraldResult(alphas=tuple(complex(a) for a in alphas),
                        P=float(p), F=float(fid), rho_A=rho_a,
                        V=float(vol), leakage=float(state.leakage))


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
    """Evaluate herald_point over an (eta, r) grid at HeraldConfig defaults.

    Row order is deterministic: eta in the given order outermost, r
    innermost. Numerical failures (for example r = 0, where no detector
    can click) are recorded in the row's error field and the sweep
    continues; invalid configurations still raise.
    """
    rows: list[HeraldSweepRow] = []
    for eta in eta_values:
        for r in r_values:
            cfg = HeraldConfig(s=s, r=float(r), eta=float(eta))
            try:
                res = herald_point(cfg)
                rows.append(HeraldSweepRow(s, float(r), float(eta), res.P,
                                           res.F, res.V, res.leakage))
            except NumericalError as exc:
                rows.append(HeraldSweepRow(s, float(r), float(eta),
                                           float("nan"), float("nan"),
                                           float("nan"), float("nan"),
                                           error=str(exc)))
    return rows
