"""The Wigner evaluator: an exact expansion in orthonormal Hermite functions.

In the hbar = 1/2 convention the Wigner function of a density with
photon numbers up to N is a polynomial of degree 2N in (q, p) times
exp(-2(q^2 + p^2)). It therefore expands exactly as

    W(q, p) = sum_{j,k < D} C[j, k] h_j(2q) h_k(2p),   D = 2N + 1,

in the orthonormal Hermite functions h_j. C is computed once per state
(wigner_coefficients); after that a tensor lattice costs two small
matrix products (wigner_lattice) and scattered points one product and
a row sum (wigner_points). On a line of fixed q, W is a series
sum_k a_k h_k(2p); hermite_series_derivative and hermite_primitives give
its derivative and its integrals in closed form.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import erfc

from .errors import NumericalError, ValidationError


def hermite_functions(nmax: int, xi) -> np.ndarray:
    """Orthonormal Hermite functions h_n(xi), n = 0..nmax.

    Shape (nmax+1,) + xi.shape. Three-term recurrence
    h_n = xi sqrt(2/n) h_(n-1) - sqrt((n-1)/n) h_(n-2) from
    h_0 = pi^(-1/4) exp(-xi^2/2).
    """
    xi = np.asarray(xi, dtype=np.float64)
    out = np.empty((nmax + 1,) + xi.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * xi * out[0]
    # math.sqrt rounds exactly as np.sqrt, without a numpy scalar per step
    for n in range(2, nmax + 1):
        out[n] = (math.sqrt(2.0 / n) * xi * out[n - 1]
                  - math.sqrt((n - 1.0) / n) * out[n - 2])
    return out


def hermite_series_derivative(a: np.ndarray) -> np.ndarray:
    """Coefficients of d/dxi sum_k a[..., k] h_k(xi), one more than a's.

    From h_k' = sqrt(k/2) h_(k-1) - sqrt((k+1)/2) h_(k+1).
    """
    k = np.arange(a.shape[-1])
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
    out[..., :-2] = a[..., 1:] * np.sqrt(k[1:] / 2.0)
    out[..., 1:] -= a * np.sqrt((k + 1) / 2.0)
    return out


def hermite_primitives(nmax: int, xi) -> np.ndarray:
    """P_n(xi) = integral of h_n from -inf to xi, n = 0..nmax; xi may be +-inf.

    Shape (nmax+1,) + xi.shape. Integrating h_n' from -inf gives
    P_(n+1) = sqrt(n/(n+1)) P_(n-1) - sqrt(2/(n+1)) h_n, whose factor below
    1 makes it stable, from P_0 = pi^(1/4) erfc(-xi/sqrt2) / sqrt2.
    """
    xi = np.asarray(xi, dtype=np.float64)
    finite = np.isfinite(xi)
    h = hermite_functions(max(nmax - 1, 0), np.where(finite, xi, 0.0)) * finite
    out = np.empty((nmax + 1,) + xi.shape)
    out[0] = np.pi ** 0.25 / np.sqrt(2.0) * erfc(-xi / np.sqrt(2.0))
    for n in range(nmax):
        prev = np.sqrt(n / (n + 1.0)) * out[n - 1] if n else 0.0
        out[n + 1] = prev - np.sqrt(2.0 / (n + 1)) * h[n]
    return out


def wigner_coefficients(rho: np.ndarray) -> np.ndarray:
    """Real (2N+1, 2N+1) table C with W(q, p) = h(2q) . C . h(2p).

    With xi = 2q and x the integration variable of the defining
    transform, the Fock product psi(q + x/2) conj(psi)(q - x/2) is
    sqrt(2) K(xi, x) with K(u, v) = sum rho[m, n] h_m((u+v)/sqrt2)
    h_n((u-v)/sqrt2), a 45-degree rotation of h_m (x) h_n. Projecting K on
    h_j (x) h_k gives A, exactly by a D-point Gauss-Hermite rule in each
    variable since the integrand has degree <= 4N = 2D - 2. The Fourier
    transform in x then maps h_k(x) to sqrt(2 pi) i^k h_k(2p), so
    C = (2/sqrt(pi)) Re(A diag(i^k)). rho must be Hermitian, which makes
    every A[j, k] i^k real; Re drops the rounding residue.

    The rule's weights times exp(x^2) must be finite and positive. From
    N = 185 on (numpy 2.4) hermgauss's weights underflow to zero or are
    not finite, and NumericalError names the table before any of it is
    built.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    nmax = rho.shape[0] - 1
    dim = 2 * nmax + 1
    with np.errstate(all="ignore"):  # judged by the check below
        x, w = hermgauss(dim)
        scale = w * np.exp(x * x)
    if not (np.isfinite(scale).all() and scale.min() > 0.0):
        raise NumericalError(
            f"Wigner coefficient table of size {dim} x {dim} (photon "
            f"numbers up to {nmax}): its {dim}-point Gauss-Hermite weights "
            f"times exp(x^2) are not all finite and positive")
    g = hermite_functions(dim - 1, x).T * scale[:, None]
    u = ((x[:, None] + x[None, :]) / np.sqrt(2.0)).ravel()
    v = ((x[:, None] - x[None, :]) / np.sqrt(2.0)).ravel()
    # rho's real and imaginary parts go through one real product: numpy's
    # complex-by-real matmul bypasses BLAS
    rho_hv = np.concatenate([rho.real, rho.imag]) @ hermite_functions(nmax, v)
    k = (rho_hv.reshape(2, nmax + 1, -1)
         * hermite_functions(nmax, u)).sum(axis=1)
    a = g.T @ k.reshape(2, dim, dim) @ g
    return (2.0 / np.sqrt(np.pi)) * (
        (a[0] + 1j * a[1]) * 1j ** np.arange(dim)).real


def wigner_lattice(coef: np.ndarray, qs, ps) -> np.ndarray:
    """W on the tensor lattice of the 1-D axes qs x ps, shape (len_q, len_p)."""
    nmax = coef.shape[0] - 1
    hq = hermite_functions(nmax, 2.0 * np.asarray(qs, dtype=np.float64))
    hp = hermite_functions(nmax, 2.0 * np.asarray(ps, dtype=np.float64))
    return hq.T @ coef @ hp


def wigner_points(coef: np.ndarray, qs, ps) -> np.ndarray:
    """W at the scattered points (qs[i], ps[i])."""
    nmax = coef.shape[0] - 1
    hq = hermite_functions(nmax, 2.0 * np.asarray(qs, dtype=np.float64))
    hp = hermite_functions(nmax, 2.0 * np.asarray(ps, dtype=np.float64))
    return ((coef.T @ hq) * hp).sum(axis=0)


def wigner_batch(rho: np.ndarray, qs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """W of the Hermitian matrix rho at each point (qs[i], ps[i]).

    rho needs no unit trace or positivity, but a non-finite entry or an
    entry of rho - rho^H above 1e-8 raises ValidationError.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"density matrix must be square, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValidationError("density matrix has a non-finite entry")
    asym = float(np.abs(rho - rho.conj().T).max())
    if asym > 1e-8:
        raise ValidationError(
            f"input not Hermitian: max |m - m^H| = {asym:.3e}")
    qs = np.ascontiguousarray(qs, dtype=np.float64).ravel()
    ps = np.ascontiguousarray(ps, dtype=np.float64).ravel()
    if qs.shape != ps.shape:
        raise ValueError("qs and ps must have equal length")
    return wigner_points(wigner_coefficients(rho), qs, ps)
