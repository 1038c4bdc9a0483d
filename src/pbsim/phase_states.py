"""Phase eigenstates on a finite Fock ladder.

For order s the s+1 states

    |phi_m> = (s+1)^(-1/2) sum_{n=0}^{s} exp(i n phi_m) |n>,
    phi_m = phi0 + 2 pi m / (s+1),

form an orthonormal basis of the (s+1)-dimensional space. They are the
eigenstates of the Pegg-Barnett phase operator sum_m phi_m |phi_m><phi_m|,
with eigenvalues phi_m. All amplitudes have equal weight (s+1)^(-1/2).
tests/oracles.py builds the operator from its closed-form matrix
elements, as an independent check of these states and phases.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CutoffError, ValidationError, _check_integer
from .fock import FockVector


def phase_value(s: int, m: int, phi0: float = 0.0) -> float:
    """The m-th eigenphase phi0 + 2 pi m / (s+1)."""
    _check_integer("s", s, 1)
    if not math.isfinite(phi0):
        raise ValidationError(f"phase phi0 must be finite, got {phi0!r}")
    _check_integer("m", m, 0)
    if m > s:
        raise ValidationError(f"require 0 <= m <= s, got m={m}, s={s}")
    return float(phi0 + 2.0 * np.pi * m / (s + 1))


def phase_state(s: int, phi: float, cutoff: int | None = None) -> FockVector:
    """Equal-weight state (s+1)^(-1/2) sum_n exp(i n phi) |n>, n = 0..s.

    cutoff defaults to s (the smallest space that holds the state); a
    larger cutoff pads with zeros, a smaller one raises CutoffError.
    """
    _check_integer("s", s, 1)
    if not math.isfinite(s * phi):  # n phi, n <= s, must not overflow
        raise ValidationError(f"phase phi must be finite with s * phi "
                              f"finite, got phi = {phi!r} at s = {s}")
    cutoff = s if cutoff is None else cutoff
    _check_integer("cutoff", cutoff, 0)
    if cutoff < s:
        raise CutoffError(f"cutoff {cutoff} cannot hold photon numbers up to {s}")
    amp = np.zeros(cutoff + 1, dtype=np.complex128)
    n = np.arange(s + 1)
    amp[: s + 1] = np.exp(1j * n * phi) / np.sqrt(s + 1.0)
    return FockVector(amp)


def pb_eigenstate(s: int, m: int, phi0: float = 0.0,
                  cutoff: int | None = None) -> FockVector:
    """The m-th phase eigenstate of order s with offset phi0."""
    return phase_state(s, phase_value(s, m, phi0), cutoff)

