"""Tests for the phase eigenstate family and the phase operator."""

import math

import numpy as np
import pytest

from pbsim.errors import CutoffError, ValidationError
from pbsim.phase_states import pb_eigenstate, phase_state, phase_value

from oracles import pb_phase_operator


@pytest.mark.parametrize("s", [1, 2, 5, 9])
def test_gram_matrix_is_identity(s):
    states = [pb_eigenstate(s, m) for m in range(s + 1)]
    gram = np.array([[np.vdot(a.amplitudes, b.amplitudes) for b in states]
                     for a in states])
    assert np.abs(gram - np.eye(s + 1)).max() < 1e-12


@pytest.mark.parametrize("s", [1, 3, 8])
def test_equal_amplitude_moduli(s):
    rng = np.random.default_rng(41 + s)
    phi = rng.uniform(-math.pi, math.pi)
    v = phase_state(s, phi)
    assert np.abs(np.abs(v.amplitudes) - 1 / math.sqrt(s + 1)).max() < 1e-14
    assert v.amplitudes[0] == pytest.approx(1 / math.sqrt(s + 1))
    assert v.amplitudes[1] == pytest.approx(np.exp(1j * phi) / math.sqrt(s + 1))


def test_phase_value_spacing():
    s = 6
    vals = [phase_value(s, m, 0.3) for m in range(s + 1)]
    diffs = np.diff(vals)
    assert np.abs(diffs - 2 * math.pi / (s + 1)).max() < 1e-14
    assert vals[0] == pytest.approx(0.3)


def test_eigenstate_is_phase_state_at_its_eigenvalue():
    s, m, phi0 = 4, 2, 0.11
    a = pb_eigenstate(s, m, phi0)
    b = phase_state(s, phase_value(s, m, phi0))
    assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-14


@pytest.mark.parametrize("s,phi0", [(1, 0.0), (3, 0.5), (7, -1.2)])
def test_phase_operator_spectrum(s, phi0):
    op = pb_phase_operator(s, phi0)
    assert np.abs(op - op.conj().T).max() < 1e-12
    evals = np.sort(np.linalg.eigvalsh(op))
    want = np.sort([phase_value(s, m, phi0) for m in range(s + 1)])
    assert np.abs(evals - want).max() < 1e-10


def test_phase_operator_diagonalized_by_eigenstates():
    s, phi0 = 5, 0.2
    op = pb_phase_operator(s, phi0)
    for m in range(s + 1):
        v = pb_eigenstate(s, m, phi0).amplitudes
        assert np.abs(op @ v - phase_value(s, m, phi0) * v).max() < 1e-10


def test_non_finite_phases_are_refused():
    # before numpy sees them: exp(i n inf) would warn, and phi0 = inf
    # would come back as the eigenphase
    with pytest.raises(ValidationError, match="phase phi must be finite"):
        phase_state(1, math.inf)
    with pytest.raises(ValidationError, match="phase phi0 must be finite"):
        phase_value(2, 0, math.inf)
    # finite, but n phi overflows for n >= 2
    with pytest.raises(ValidationError, match=r"phi = 1e\+308 at s = 3"):
        phase_state(3, 1e308)


def test_cutoff_must_hold_the_family():
    with pytest.raises(CutoffError):
        phase_state(4, 0.0, cutoff=3)
    v = phase_state(2, 0.0, cutoff=5)
    assert v.amplitudes.shape == (6,)
    assert np.abs(v.amplitudes[3:]).max() == 0.0
