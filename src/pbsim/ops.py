"""Circuit elements on truncated Fock states.

Beam splitters, displacements and the inefficient-detector POVM. Beam
splitters act by substituting creation operators with row combinations
of the 2x2 matrix,

    a_i+ -> u00 a_i+ + u01 a_j+,   a_j+ -> u10 a_i+ + u11 a_j+,

one substituted creation operator at a time, which is exact within each
total-photon block.
With the 50-50 matrix [[1/sqrt2, -1/sqrt2], [1/sqrt2, 1/sqrt2]] this sends
|1,0> to (|1,0> - |0,1>)/sqrt2. Photon blocks whose redistribution exceeds
the cutoff are truncated and the lost squared norm is recorded as leakage.
The 50-50 splitter of the interference statistics and of the Wigner
coefficients acts one photon-number block at a time, with nothing cut.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _check_integer
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

    click is E's diagonal in the Fock basis, the real weights E[0,0] = 0
    and E[k,k] = eta*(1-eta)^(k-1) for k >= 1; the no-click element is
    I - E, of diagonal 1 - click.
    tail_weight bounds the probability weight of the discarded k > cutoff
    part, (1-eta)^cutoff.
    """

    eta: float
    cutoff: int
    click: np.ndarray
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


@functools.lru_cache(maxsize=None)
def _splitter_block(n: int) -> np.ndarray:
    """B[m, a]: amplitude of |a, n-a> in the image of |m, n-m> under the
    50-50 splitter; read-only.

    On the n-photon block the splitter is exp(pi/4 G), G = a+ b - a b+,
    real antisymmetric with G[a+1, a] = sqrt((a+1)(n-a)). With
    D = diag(i^a), S = D^H (iG) D is real symmetric tridiagonal with the
    same entries next to the diagonal, so S = V diag(w) V^T gives
    U = exp(pi/4 G) = D V exp(-i pi w / 4) V^T D^H, which is real.
    """
    k = np.arange(n)
    off = np.sqrt((k + 1.0) * (n - k))
    w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    dv = 1j ** np.arange(n + 1)[:, None] * v  # B = U^T = conj(D) V E V^T D
    block = ((dv.conj() * np.exp(-0.25j * np.pi * w)) @ dv.T).real.copy()
    block.flags.writeable = False
    return block


def _splitter_5050(x: np.ndarray) -> np.ndarray:
    """out[a, b, ...]: the 50-50 splitter on the two-mode amplitudes
    x[m, n, ...], m, n <= s, one photon-number block at a time.

    The output grid is (2s+1)^2, which holds every output. Block n maps
    x[m, n-m] to out[a, n-a], plain slices of step s and 2s in the
    flattened arrays; real and imaginary parts go through one real
    product.
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    s = x.shape[0] - 1
    flat = x.reshape((s + 1) ** 2, -1).view(np.float64)
    out = np.zeros(((2 * s + 1) ** 2, flat.shape[1]))
    step = max(s, 1)  # s = 0 has the one block n = 0, of one entry
    for n in range(2 * s + 1):
        lo, hi = max(0, n - s), min(n, s)
        out[n::2 * step][:n + 1] = (_splitter_block(n)[lo:hi + 1].T
                                    @ flat[n + lo * s::step][:hi - lo + 1])
    return out.view(np.complex128).reshape((2 * s + 1,) * 2 + x.shape[2:])


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


def displacement_op(alpha: complex, cutoff: int, scheme: str = "exact"
                    ) -> np.ndarray:
    """Displacement matrix on the truncated space.

    scheme "exact": matrix exponential of g = alpha*a+ - conj(alpha)*a
    restricted to the truncated space, exactly unitary there: the
    restricted g stays anti-Hermitian, so i*g = V diag(w) V^H is Hermitian
    and exp(g) = V diag(exp(-i w)) V^H. scheme "series": the Taylor
    polynomial of the same generator up to SERIES_ORDER, matching a source
    that truncates the displacement sum.
    """
    dim = cutoff + 1
    n = np.arange(1, dim)
    adag = np.zeros((dim, dim), dtype=np.complex128)
    adag[n, n - 1] = np.sqrt(n)
    g = alpha * adag - np.conj(alpha) * adag.conj().T
    if scheme == "exact":
        w, v = np.linalg.eigh(1j * g)
        return (v * np.exp(-1j * w)) @ v.conj().T
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

    Click weight for k photons is eta*(1-eta)^(k-1), one given photon
    detected and the other k - 1 lost; vacuum never clicks. The binomial
    k*eta*(1-eta)^(k-1) and on/off 1 - (1-eta)^k agree with it only at k = 1.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"require 0 <= eta <= 1, got {eta}")
    _check_integer("cutoff", cutoff, 0)
    click = np.zeros(cutoff + 1)
    click[1:] = eta * (1.0 - eta) ** np.arange(cutoff, dtype=float)
    return DetectorPovm(eta=float(eta), cutoff=cutoff, click=click,
                        tail_weight=float((1.0 - eta) ** cutoff))
