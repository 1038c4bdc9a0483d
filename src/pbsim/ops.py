"""Circuit elements on truncated Fock states.

Beam splitters, displacements, two-mode squeezed vacuum and the
inefficient-detector POVM. Beam splitters act by substituting creation
operators with row combinations of the 2x2 matrix,

    a_i+ -> u00 a_i+ + u01 a_j+,   a_j+ -> u10 a_i+ + u11 a_j+,

one substituted creation operator at a time, which is exact within each
total-photon block.
With the 50-50 matrix [[1/sqrt2, -1/sqrt2], [1/sqrt2, 1/sqrt2]] this sends
|1,0> to (|1,0> - |0,1>)/sqrt2. Photon blocks whose redistribution exceeds
the cutoff are truncated and the lost squared norm is recorded as leakage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import ValidationError
from .fock import FockVector

UNITARITY_TOL = 1e-12
# Taylor order of the "series" displacement, as in the source material.
SERIES_ORDER = 5


@dataclass(frozen=True)
class TwoModeUnitary:
    """2x2 unitary mixing a mode pair."""

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.complex128)
        if u.shape != (2, 2):
            raise ValidationError(f"expected 2x2 matrix, got {u.shape}")
        err = np.abs(u.conj().T @ u - np.eye(2)).max()
        if err > UNITARITY_TOL:
            raise ValidationError(f"matrix not unitary: |U+U - I| = {err:.3e}")
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class DetectorPovm:
    """Two-outcome POVM {E, I-E} of a click detector with efficiency eta.

    E is diagonal with E[0,0] = 0 and E[k,k] = eta*(1-eta)^(k-1) for k >= 1.
    tail_weight bounds the probability weight of the discarded k > cutoff
    part, (1-eta)^cutoff.
    """

    eta: float
    cutoff: int
    click: np.ndarray
    no_click: np.ndarray
    tail_weight: float


def beam_splitter_pb(k: int, s: int) -> TwoModeUnitary:
    """The k-th splitter of the s-mode distribution cascade.

    Transmits sqrt((s-k)/(s-k+1)); at k = s-1 this is the 50-50 splitter.
    """
    if not 1 <= k <= s - 1:
        raise ValidationError(f"require 1 <= k <= s-1, got k={k}, s={s}")
    t = np.sqrt((s - k) / (s - k + 1.0))
    r = 1.0 / np.sqrt(s - k + 1.0)
    return TwoModeUnitary(np.array([[t, -r], [r, t]], dtype=np.complex128))


def beam_splitter_5050() -> TwoModeUnitary:
    r = 1.0 / np.sqrt(2.0)
    return TwoModeUnitary(np.array([[r, -r], [r, r]], dtype=np.complex128))


_TRANSFER_CACHE: dict[tuple[bytes, int], np.ndarray] = {}


def _transfer_tensor(u: np.ndarray, cutoff: int) -> np.ndarray:
    """T[m, n, a, b]: amplitude of |a,b> in the image of |m,n>.

    Built from |m,n> = (a+)^m (b+)^n |0,0> / sqrt(m! n!) with the splitter's
    substitution a+ -> u00 a+ + u01 b+, b+ -> u10 a+ + u11 b+: T[0, n] is
    T[0, n-1] with one substituted b+ applied, over sqrt(n), and T[m] is
    T[m-1] with one substituted a+ applied, over sqrt(m). Creation never
    lowers a photon number, so cutting a, b at the cutoff after each step
    drops exactly the truncation leakage and nothing a later step needs.
    """
    key = (u.tobytes(), cutoff)
    cached = _TRANSFER_CACHE.get(key)
    if cached is not None:
        return cached
    dim = cutoff + 1
    root = np.sqrt(np.arange(1, dim))

    def create(x, ca, cb):  # (ca a+ + cb b+) x on the last two axes
        out = np.zeros_like(x)
        out[..., 1:, :] = ca * root[:, None] * x[..., :-1, :]
        out[..., :, 1:] += cb * root * x[..., :, :-1]
        return out

    T = np.zeros((dim, dim, dim, dim), dtype=np.complex128)
    T[0, 0, 0, 0] = 1.0
    for n in range(1, dim):
        T[0, n] = create(T[0, n - 1], u[1, 0], u[1, 1]) / np.sqrt(n)
    for m in range(1, dim):
        T[m] = create(T[m - 1], u[0, 0], u[0, 1]) / np.sqrt(m)
    if len(_TRANSFER_CACHE) > 64:
        _TRANSFER_CACHE.clear()
    _TRANSFER_CACHE[key] = T
    return T


def apply_two_mode_unitary(state: FockVector, modes: tuple[int, int],
                           u: TwoModeUnitary) -> FockVector:
    """Mix two modes of a state through a 2x2 unitary.

    Photon number within the pair is conserved; components redistributed
    above the cutoff are dropped and their squared norm added to the
    state's leakage.
    """
    i, j = modes
    if i == j:
        raise ValidationError("modes must be distinct")
    for m in (i, j):
        if not 0 <= m < state.modes:
            raise ValidationError(f"mode {m} out of range for {state.modes} modes")
    T = _transfer_tensor(u.u, state.cutoff)
    amp = np.moveaxis(state.amplitudes, (i, j), (-2, -1))
    out = np.tensordot(amp, T, axes=([-2, -1], [0, 1]))
    out = np.moveaxis(out, (-2, -1), (i, j))
    nsq_in = state.norm_sq()
    nsq_out = float(np.vdot(out, out).real)
    return FockVector(out, leakage=state.leakage + max(0.0, nsq_in - nsq_out))


def tmsv(q: float, cutoff: int, max_terms: int | None = None) -> FockVector:
    """Two-mode squeezed vacuum sqrt(1-q^2) sum q^n |n,n>, q = tanh r.

    Truncation keeps n <= cutoff, and optionally only the first max_terms
    terms. For q > 0 the kept state is subnormalized with squared norm
    1 - q^(2 nkept); it is returned as is, never renormalized.
    """
    if not 0.0 <= q < 1.0:
        raise ValidationError(f"require 0 <= q < 1, got {q}")
    dim = cutoff + 1
    nkeep = dim if max_terms is None else min(dim, max_terms)
    if nkeep < 1:
        raise ValidationError("max_terms must keep at least the vacuum term")
    amp = np.zeros((dim, dim), dtype=np.complex128)
    n = np.arange(nkeep)
    amp[n, n] = np.sqrt(1.0 - q * q) * q ** n
    return FockVector(amp)


def displacement_op(alpha: complex, cutoff: int, scheme: str = "exact"
                    ) -> np.ndarray:
    """Displacement matrix on the truncated space.

    scheme "exact": matrix exponential of alpha*a+ - conj(alpha)*a restricted
    to the truncated space (exactly unitary there, since the restricted
    generator stays anti-Hermitian). scheme "series": the Taylor polynomial
    of the same generator up to SERIES_ORDER, matching a source that
    truncates the displacement sum.
    """
    dim = cutoff + 1
    n = np.arange(1, dim)
    adag = np.zeros((dim, dim), dtype=np.complex128)
    adag[n, n - 1] = np.sqrt(n)
    g = alpha * adag - np.conj(alpha) * adag.conj().T
    if scheme == "exact":
        return expm(g)
    if scheme == "series":
        out = np.eye(dim, dtype=np.complex128)
        term = np.eye(dim, dtype=np.complex128)
        for k in range(1, SERIES_ORDER + 1):
            term = term @ g / k
            out = out + term
        return out
    raise ValidationError(f"unknown displacement scheme {scheme!r}")


def apply_single_mode_op(state: FockVector, mode: int, op: np.ndarray
                         ) -> FockVector:
    """Apply a (dim, dim) matrix to one mode. The op need not be unitary;
    a loss of squared norm is added to the state's leakage.

    The tensor is viewed as (modes before, mode, modes after), so the op
    is one broadcast matmul and the only new array is the output.
    """
    if not 0 <= mode < state.modes:
        raise ValidationError(f"mode {mode} out of range")
    op = np.asarray(op, dtype=np.complex128)
    dim = state.cutoff + 1
    if op.shape != (dim, dim):
        raise ValidationError(f"operator shape {op.shape} != ({dim},{dim})")
    amp = state.amplitudes
    out = (op @ amp.reshape(dim ** mode, dim, -1)).reshape(amp.shape)
    nsq = float(np.vdot(out, out).real)
    return FockVector(out, leakage=state.leakage
                      + max(0.0, state.norm_sq() - nsq))


def detector_povm(eta: float, cutoff: int) -> DetectorPovm:
    """Click/no-click POVM of an inefficient detector.

    Click weight for k photons is eta*(1-eta)^(k-1), vacuum never clicks.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"require 0 <= eta <= 1, got {eta}")
    dim = cutoff + 1
    k = np.arange(dim, dtype=float)
    diag = np.zeros(dim)
    diag[1:] = eta * (1.0 - eta) ** (k[1:] - 1.0)
    click = np.diag(diag).astype(np.complex128)
    no_click = np.eye(dim, dtype=np.complex128) - click
    return DetectorPovm(eta=float(eta), cutoff=cutoff, click=click,
                        no_click=no_click, tail_weight=float((1.0 - eta) ** cutoff))
