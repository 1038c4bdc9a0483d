"""Dense truncated Fock-space states and the measurement primitives.

A state is its amplitude tensor amp[n1, ..., nM]: one axis per mode, each
of length cutoff + 1, so the cutoff, the mode count and the normalization
are read off the array. When a heralded mode is present it is by
convention the last axis. Subnormalized states are first class and never
silently renormalized, because heralding probabilities and fidelities need
the raw inner products; the squared norm lost to truncation is carried
along as leakage.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigMismatchError, DegenerateHeraldError, ValidationError

NORM_TOL = 1e-12
HERM_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10

# Herald probabilities scale like r^(2s) and underflow for tiny r; below this
# floor conditioning is reported as degenerate instead of dividing.
PROB_FLOOR = 1e-300

# Patterns per gathered block in conditioning: small next to a herald tensor.
CONDITION_BLOCK = 2048


class FockVector:
    """Pure state on a truncated multimode Fock lattice.

    Parameters
    ----------
    amplitudes : array_like
        Complex amplitudes amp[n1, ..., nM], one axis of length cutoff + 1
        (at least 2) per mode.
    leakage : float
        Squared-norm loss accumulated by truncating operations, carried
        through subsequent operations for accounting.
    """

    __slots__ = ("amplitudes", "leakage")

    def __init__(self, amplitudes, leakage: float = 0.0):
        amp = np.asarray(amplitudes, dtype=np.complex128, order="C")
        if len(set(amp.shape)) != 1 or amp.shape[0] < 2:
            raise ValidationError(
                f"amplitudes need equal axes of length >= 2, got {amp.shape}")
        if not np.all(np.isfinite(amp.view(np.float64))):
            raise ValidationError("non-finite amplitude")
        self.amplitudes = amp
        self.leakage = float(leakage)

    @property
    def modes(self) -> int:
        return self.amplitudes.ndim

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0] - 1

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def normalized(self) -> bool:
        return abs(self.norm_sq() - 1.0) <= NORM_TOL

    def __repr__(self):
        return (f"FockVector(cutoff={self.cutoff}, modes={self.modes}, "
                f"norm_sq={self.norm_sq():.6g}, leakage={self.leakage:.3g})")


class FockDensity:
    """Single-mode density matrix on the truncated space.

    Construction validates hermiticity (1e-12), positive semidefiniteness
    (min eigenvalue >= -1e-10) and, when declared_trace is given, the trace
    (1e-10). Heralded subnormalized densities declare their trace P.
    """

    __slots__ = ("cutoff", "matrix", "trace")

    def __init__(self, matrix, declared_trace: float | None = None):
        m = np.ascontiguousarray(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValidationError("non-finite density matrix entry")
        scale = max(1.0, float(np.abs(m).max()))
        asym = float(np.abs(m - m.conj().T).max())
        if asym > HERM_TOL * scale:
            raise ValidationError(f"density not Hermitian: asymmetry {asym:.3e}")
        m = 0.5 * (m + m.conj().T)
        w = np.linalg.eigvalsh(m)
        if w[0] < -PSD_TOL:
            raise ValidationError(f"density not PSD: min eigenvalue {w[0]:.3e}")
        tr = float(np.trace(m).real)
        if declared_trace is not None and abs(tr - declared_trace) > TRACE_TOL:
            raise ValidationError(
                f"trace {tr:.12g} differs from declared {declared_trace:.12g}")
        self.cutoff = m.shape[0] - 1
        self.matrix = m
        self.trace = tr

    @classmethod
    def from_pure(cls, psi: FockVector) -> "FockDensity":
        if psi.modes != 1:
            raise ValidationError("from_pure expects a single-mode state")
        a = psi.amplitudes
        return cls(np.outer(a, a.conj()))

    def __repr__(self):
        return f"FockDensity(cutoff={self.cutoff}, trace={self.trace:.6g})"


def fidelity_pure(rho: FockDensity, psi: FockVector) -> float:
    """<psi|rho|psi> / trace(rho) for a normalized single-mode pure target."""
    if psi.modes != 1:
        raise ValidationError("fidelity target must be single-mode")
    if not psi.normalized:
        raise ValidationError("fidelity target must be normalized")
    if psi.cutoff != rho.cutoff:
        raise ConfigMismatchError(
            f"cutoff mismatch: state {psi.cutoff} vs density {rho.cutoff}")
    if abs(rho.trace) < PROB_FLOOR:
        raise DegenerateHeraldError("zero-trace density in fidelity")
    a = psi.amplitudes
    val = float(np.real(a.conj() @ rho.matrix @ a)) / rho.trace
    # exact arithmetic gives [0,1]; clip fp dust only
    return float(min(max(val, 0.0), 1.0))


def conditional_density(state: FockVector, povm_per_mode, kept_mode: int
                        ) -> tuple[FockDensity, float]:
    """Condition on photon-counting outcomes on all modes except one.

    Parameters
    ----------
    state : FockVector
    povm_per_mode : sequence of length-dim real arrays
        One photon-counting POVM element per non-kept mode, in increasing
        mode order, given as its diagonal in the Fock basis (click/no-click
        elements, photon number projectors, the identity); a wrong length,
        or a weight that is not finite or is negative, raises
        ValidationError.
    kept_mode : int

    Returns
    -------
    (rho, p) : the kept mode's conditional density normalized to trace 1,
        and the outcome probability p = <Psi|(tensor E (x) I)|Psi>.

    The elements fold into one weight w per photon-number pattern of the
    conditioned modes. Only nonzero-weight patterns are read (a click
    element has weight 0 at n = 0), CONDITION_BLOCK at a time:
    raw += a^T conj(w a).
    """
    modes = state.modes
    if not 0 <= kept_mode < modes:
        raise ValidationError(f"kept_mode {kept_mode} out of range")
    povms = list(povm_per_mode)
    if len(povms) != modes - 1:
        raise ValidationError(
            f"need {modes - 1} POVM elements, got {len(povms)}")
    dim = state.cutoff + 1

    weights = np.ones(())
    for e in povms:
        e = np.asarray(e, dtype=np.float64)
        if e.shape != (dim,):
            raise ValidationError(f"POVM diagonal shape {e.shape} != ({dim},)")
        if not np.all(np.isfinite(e) & (e >= 0.0)):
            raise ValidationError("POVM weights must be finite and >= 0")
        weights = np.multiply.outer(weights, e)

    # amplitudes as (modes before, kept mode, modes after)
    amp = state.amplitudes.reshape(dim ** kept_mode, dim, -1)
    weights = weights.reshape(amp.shape[0], amp.shape[2])
    before, after = np.nonzero(weights)
    raw = np.zeros((dim, dim), dtype=np.complex128)
    for lo in range(0, before.size, CONDITION_BLOCK):
        i, j = before[lo:lo + CONDITION_BLOCK], after[lo:lo + CONDITION_BLOCK]
        block = amp[i, :, j]
        raw += block.T @ np.conj(weights[i, j, None] * block)
    p = float(np.trace(raw).real)
    if p < PROB_FLOOR:
        raise DegenerateHeraldError(
            f"conditioning probability {p:.3e} below floor {PROB_FLOOR:.0e}")
    return FockDensity(raw / p, declared_trace=1.0), p


def vacuum_state(cutoff: int, modes: int = 1) -> FockVector:
    if cutoff < 1:
        raise ValidationError(f"cutoff must be >= 1, got {cutoff}")
    amp = np.zeros((cutoff + 1,) * modes, dtype=np.complex128)
    amp[(0,) * modes] = 1.0
    return FockVector(amp)


def number_state(n: int, cutoff: int) -> FockVector:
    if not 0 <= n <= cutoff:
        raise ValidationError(f"n={n} outside [0, {cutoff}]")
    amp = np.zeros(cutoff + 1, dtype=np.complex128)
    amp[n] = 1.0
    return FockVector(amp)
