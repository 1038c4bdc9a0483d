"""Test oracles: slow or independent routes to what pbsim computes.

Nothing under src/pbsim imports this module. Each function either
computes a quantity along a route production does not take (the
defining Wigner integral, the phase operator from its closed-form
matrix elements, the primitives of the Hermite functions degree by
degree, the coefficient fit's spectral start from the lifted matrix) or
builds a test input that no production path needs (joint states, padded
states, the two-mode squeezed vacuum, the dense 50-50 matrix, the click
diagonals of other detector models).
"""

import math

import numpy as np
from scipy.integrate import quad

from pbsim._kernels import _erfc, hermite_functions, wigner_batch
from pbsim.errors import (ConfigMismatchError, LowInformationError,
                          QuadratureError, ValidationError)
from pbsim.fock import FockDensity, FockVector
from pbsim.ops import TwoModeUnitary

_ORACLE_HALF_RANGE = 40.0


def hermite_wavefunctions_all(nmax: int, x) -> np.ndarray:
    """psi_n(x) for all n = 0..nmax, shape (nmax+1,) + x.shape.

    The unit-normalized Hermite functions h_n(xi) at xi = sqrt(2) x,
    rescaled by 2^(1/4) for the hbar = 1/2 units.
    """
    if nmax < 0:
        raise ValidationError(f"nmax must be >= 0, got {nmax}")
    xi = np.sqrt(2.0) * np.asarray(x, dtype=np.float64)
    return 2.0 ** 0.25 * hermite_functions(nmax, xi)


def hermite_primitives(nmax: int, xi) -> np.ndarray:
    """P_n(xi) = integral of h_n from -inf to xi, n = 0..nmax; xi may be +-inf.

    Shape (nmax+1,) + xi.shape. Integrating h_n' from -inf gives
    P_(n+1) = sqrt(n/(n+1)) P_(n-1) - sqrt(2/(n+1)) h_n, whose factor below
    1 makes it stable, from P_0 = pi^(1/4) erfc(-xi/sqrt2) / sqrt2 with
    the C library's erfc (math.erfc).
    """
    xi = np.asarray(xi, dtype=np.float64)
    finite = np.isfinite(xi)
    h = hermite_functions(max(nmax - 1, 0), np.where(finite, xi, 0.0)) * finite
    out = np.empty((nmax + 1,) + xi.shape)
    out[0] = np.pi ** 0.25 / np.sqrt(2.0) * _erfc(-xi / np.sqrt(2.0))
    for n in range(nmax):
        prev = np.sqrt(n / (n + 1.0)) * out[n - 1] if n else 0.0
        out[n + 1] = prev - np.sqrt(2.0 / (n + 1)) * h[n]
    return out


def wigner_point(state, q: float, p: float) -> float:
    """W(q, p) of a FockVector, a FockDensity or a raw matrix, by wigner_batch."""
    m = FockDensity.from_pure(state) if isinstance(state, FockVector) else state
    m = m.matrix if isinstance(m, FockDensity) else m
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


def pb_phase_operator(s: int, phi0: float = 0.0) -> np.ndarray:
    """The phase operator of order s from its closed-form matrix elements.

    <n|Phi|n> = phi0 + s pi / (s+1) and, with k = n - n' != 0,
    <n|Phi|n'> = exp(i k phi0) (2 pi / (s+1)) / (exp(2 pi i k / (s+1)) - 1)
    (Pegg & Barnett, Phys. Rev. A 39, 1665 (1989)). No eigenstate enters,
    so its spectrum and eigenvectors check pb_eigenstate and phase_value.
    """
    n = np.arange(s + 1)
    k = n[:, None] - n[None, :]
    off = k != 0
    op = np.full((s + 1, s + 1), phi0 + s * np.pi / (s + 1), dtype=complex)
    op[off] = (np.exp(1j * k[off] * phi0) * (2 * np.pi / (s + 1))
               / (np.exp(2j * np.pi * k[off] / (s + 1)) - 1))
    return op


def beam_splitter_5050() -> TwoModeUnitary:
    """The 50-50 matrix [[r, -r], [r, r]], r = 1/sqrt2 (beam_splitter_pb(1,
    2) holds sqrt(0.5), one ulp away)."""
    r = 1.0 / np.sqrt(2.0)
    return TwoModeUnitary(np.array([[r, -r], [r, r]], dtype=np.complex128))


# click probability of a detector of efficiency eta that k >= 1 photons
# reach, per detector model; vacuum never clicks
CLICK_WEIGHTS = {
    # one given photon detected and the other k - 1 lost (detector_povm's)
    "one-photon": lambda eta, k: eta * (1.0 - eta) ** (k - 1),
    # exactly one of the k photons detected
    "binomial": lambda eta, k: k * eta * (1.0 - eta) ** (k - 1),
    # at least one of the k photons detected
    "on/off": lambda eta, k: 1.0 - (1.0 - eta) ** k,
}


def click_diagonal(model: str, eta: float, cutoff: int) -> np.ndarray:
    """The click element's Fock diagonal, k = 0..cutoff, of a detector model
    of CLICK_WEIGHTS."""
    k = np.arange(1, cutoff + 1)
    return np.concatenate([[0.0], CLICK_WEIGHTS[model](eta, k)])


def tensor_product(a: FockVector, b: FockVector) -> FockVector:
    """Joint state with a's modes first, then b's. Norm multiplies."""
    if a.cutoff != b.cutoff:
        raise ConfigMismatchError(
            f"cutoff mismatch: {a.cutoff} vs {b.cutoff}")
    return FockVector(np.tensordot(a.amplitudes, b.amplitudes, axes=0),
                      leakage=a.leakage + b.leakage)


def pad_to_cutoff(state: FockVector, cutoff: int) -> FockVector:
    """Embed into a space with a larger per-mode cutoff, zero-padding."""
    if cutoff < state.cutoff:
        raise ValidationError(
            f"cannot pad to smaller cutoff {cutoff} < {state.cutoff}")
    if cutoff == state.cutoff:
        return state
    amp = np.zeros((cutoff + 1,) * state.modes, dtype=np.complex128)
    amp[tuple(slice(0, n) for n in state.amplitudes.shape)] = state.amplitudes
    return FockVector(amp, leakage=state.leakage)


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


def lifted_least_squares_cc(mat: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares C from f_i = M_i C M_i^H, in one solve of
    the lifted matrix, whose row i holds M_i[k] conj(M_i[l]) at (k, l)."""
    n = mat.shape[1]
    reach = mat.any(axis=1)
    lifted = mat[reach, :, None] * mat[reach].conj()[:, None, :]
    return np.linalg.lstsq(lifted.reshape(-1, n * n), freqs[reach],
                           rcond=None)[0].reshape(n, n)


def lifted_spectral_start(mat: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Spectral start of the fit, as (Re c, Im c).

    f_i = M_i C M_i^H is linear in C = c c^H. The top eigenvector z of
    its least-squares estimate (minimum norm, so parts of C that the
    settings leave unmeasured stay zero), scaled by sqrt(f.m / m.m) with
    m = |M z|^2, starts the fit. This whitens the phase-retrieval matrix
    M^H diag(f) M, whose own top eigenvector can start the fit in a
    spurious minimum for these M. f.m is zero when every count lies in a
    cell the model cannot reach.

    One lstsq on the lifted matrix, of (reached cells) x (s+1)^2 complex
    entries: the reference for phase_est._spectral_start's block solve.
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
