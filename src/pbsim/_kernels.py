"""The Wigner evaluator: an exact expansion in orthonormal Hermite functions.

In the hbar = 1/2 convention the Wigner function of a density with
photon numbers up to N is a polynomial of degree 2N in (q, p) times
exp(-2(q^2 + p^2)). It therefore expands exactly as

    W(q, p) = sum_{j,k < D} C[j, k] h_j(2q) h_k(2p),   D = 2N + 1,

in the orthonormal Hermite functions h_j. C is computed once per state
(wigner_coefficients): it is the 50-50 splitter acting on rho read as
two-mode amplitudes (ops._splitter_5050), up to the phases (-i)^k, for
any N. After that a tensor lattice costs two small matrix products
(wigner_lattice) and scattered points one product and a row sum
(wigner_batch). On a line of fixed q, W is a series
sum_k a_k h_k(2p); hermite_series_derivative and hermite_series_primitive
give its derivative and its primitive (w P_0 plus a series) in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .ops import _splitter_5050


def _erfc(x) -> np.ndarray:
    """The C library's erfc, elementwise, in x's shape; x may be 0-d or
    hold +-inf."""
    x = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(math.erfc, x.ravel().tolist()), np.float64,
                       x.size).reshape(x.shape)


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


def hermite_primitive_zero(xi) -> np.ndarray:
    """P_0(xi) = pi^(1/4) erfc(-xi/sqrt2) / sqrt2 by C's erfc; xi may be inf."""
    return np.pi ** 0.25 / np.sqrt(2.0) * _erfc(-xi / np.sqrt(2.0))


def hermite_series_primitive(a: np.ndarray) -> tuple:
    """(w, c), c C-ordered and as wide as a, with sum_k a[i, k] P_k = w[i] P_0
    + sum_k c[i, k] h_k for each row i, P_k the integral of h_k from -inf.

    The recurrence P_(n+1) = sqrt(n/(n+1)) P_(n-1) - sqrt(2/(n+1)) h_n,
    summed backwards: beta_k = a_k + sqrt((k+1)/(k+2)) beta_(k+2) from the
    top degree, w = beta_0 and c_(k-1) = -sqrt(2/k) beta_k. Each row sums
    on its own, so zero columns past its series change no bit.
    """
    n = a.shape[1]
    beta = np.zeros((n + 2, a.shape[0]))
    for k in range(n - 1, -1, -1):
        beta[k] = a[:, k] + math.sqrt((k + 1.0) / (k + 2.0)) * beta[k + 2]
    c = beta[1:n + 1] * -np.sqrt(2.0 / np.arange(1, n + 1))[:, None]
    return beta[0], np.ascontiguousarray(c.T)


def wigner_coefficients(rho: np.ndarray) -> np.ndarray:
    """Real (2N+1, 2N+1) table C with W(q, p) = h(2q) . C . h(2p).

    With xi = 2q and x the integration variable of the defining
    transform, the Fock product psi(q + x/2) conj(psi)(q - x/2) is
    sqrt(2) K(xi, x) with K(u, v) = sum rho[m, n] h_m((u+v)/sqrt2)
    h_n((u-v)/sqrt2), a 45-degree rotation of h_m (x) h_n. That rotation
    is the 50-50 splitter on rho read as two-mode amplitudes, so K has
    the coefficients A = _splitter_5050(rho) in h_j(xi) h_k(-x), and the
    parity h_k(-x) = (-1)^k h_k(x) and the Fourier transform in x, which
    maps h_k(x) to sqrt(2 pi) i^k h_k(2p), give
    C = (2/sqrt(pi)) Re(A diag((-i)^k)). rho must be Hermitian, which
    makes every A[j, k] (-i)^k real; Re drops the rounding residue. The
    splitter's blocks are exact at every size, so no size limit remains.
    """
    a = _splitter_5050(rho)
    return (2.0 / np.sqrt(np.pi)) * (a * (-1j) ** np.arange(a.shape[1])).real


def wigner_lattice(coef: np.ndarray, qs, ps) -> np.ndarray:
    """W on the tensor lattice of the 1-D axes qs x ps, shape (len_q, len_p)."""
    nmax = coef.shape[0] - 1
    hq = hermite_functions(nmax, 2.0 * np.asarray(qs, dtype=np.float64))
    hp = hermite_functions(nmax, 2.0 * np.asarray(ps, dtype=np.float64))
    return hq.T @ coef @ hp


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
        raise ValidationError("qs and ps must have equal length")
    coef = wigner_coefficients(rho)
    hq = hermite_functions(coef.shape[0] - 1, 2.0 * qs)
    hp = hermite_functions(coef.shape[0] - 1, 2.0 * ps)
    return ((coef.T @ hq) * hp).sum(axis=0)
