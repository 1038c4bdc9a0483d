"""Truncated Fock-space simulation of phase-operator eigenstates.

The package covers three strands: phase-space analysis (Wigner
functions, negativity volumes, effective radii), heralded optical
generation of the eigenstates under imperfect detection, and estimation
of phases and superposition coefficients from beam-splitter
interference statistics. Every Wigner value comes from one exact
expansion in Hermite functions (pbsim._kernels).
"""

from ._kernels import wigner_batch
from .errors import (ConfigMismatchError, CutoffError, DegenerateHeraldError,
                     LeakageWarning, LowInformationError, NumericalError,
                     PbsimError, QuadratureError, RankDeficiencyWarning,
                     RootQualityError, ValidationError, WindowExhaustedError)
from .fock import (FockDensity, FockVector, conditional_density,
                   fidelity_pure, number_state, vacuum_state)
from .herald import (HeraldConfig, HeraldResult, HeraldSweepRow,
                     alpha_polynomial, build_state, herald_alphas,
                     herald_point, solve_alphas, sweep, symmetric_factors)
from .ops import (DetectorPovm, TwoModeUnitary, apply_single_mode_op,
                  apply_two_mode_unitary, beam_splitter_5050,
                  beam_splitter_pb, detector_povm, displacement_op)
from .phase_est import (CountTable, PhaseEstimate, SuperpositionCoeffs,
                        estimate_coefficients, estimate_phase, gauge_fixed,
                        interference_probs, sample_outcomes,
                        superposition_probs, superposition_state)
from .phase_states import pb_eigenstate, phase_state, phase_value
from .wigner import (NegativityResult, effective_radius, negativity_volume,
                     negativity_volume_detailed, wigner_grid)

__version__ = "0.1.0"

__all__ = [
    "wigner_batch",
    "PbsimError", "ValidationError", "ConfigMismatchError", "CutoffError",
    "NumericalError", "QuadratureError", "WindowExhaustedError",
    "DegenerateHeraldError", "RootQualityError",
    "LowInformationError", "LeakageWarning", "RankDeficiencyWarning",
    "FockVector", "FockDensity", "fidelity_pure",
    "conditional_density", "vacuum_state", "number_state",
    "TwoModeUnitary", "DetectorPovm", "beam_splitter_pb",
    "beam_splitter_5050", "apply_two_mode_unitary", "apply_single_mode_op",
    "displacement_op", "detector_povm",
    "phase_value", "phase_state", "pb_eigenstate",
    "wigner_grid", "NegativityResult", "negativity_volume",
    "negativity_volume_detailed", "effective_radius",
    "HeraldConfig", "HeraldResult", "HeraldSweepRow", "symmetric_factors",
    "alpha_polynomial", "solve_alphas", "herald_alphas", "build_state",
    "herald_point", "sweep",
    "CountTable", "SuperpositionCoeffs",
    "PhaseEstimate", "gauge_fixed", "interference_probs",
    "superposition_state", "superposition_probs", "sample_outcomes",
    "estimate_phase", "estimate_coefficients",
    "__version__",
]
