"""The package's public surface: every exported name, listed once."""

import pbsim

PUBLIC_NAMES = [
    "ConfigMismatchError", "CountTable", "CutoffError", "DEFAULT_QUADRATURE",
    "DegenerateHeraldError", "DetectorPovm", "FockDensity", "FockVector",
    "HeraldConfig", "HeraldResult", "HeraldSweepRow", "LeakageWarning",
    "LowInformationError", "NegativityResult", "NumericalError",
    "OutcomeDistribution", "PbsimError", "PhaseEstimate", "QuadratureError",
    "QuadratureSpec", "RankDeficiencyWarning", "RootQualityError",
    "SuperpositionCoeffs", "TwoModeUnitary",
    "ValidationError", "WignerGrid", "WindowExhaustedError", "__version__",
    "alpha_polynomial", "apply_single_mode_op", "apply_two_mode_unitary",
    "beam_splitter_5050", "beam_splitter_pb", "build_state",
    "conditional_density", "detector_povm", "displacement_op",
    "effective_radius", "estimate_coefficients", "estimate_phase",
    "fidelity_pure", "gauge_fixed", "herald_alphas", "herald_point",
    "interference_probs", "load_count_table",
    "negativity_volume", "negativity_volume_detailed", "number_state",
    "pad_to_cutoff", "pb_eigenstate", "pb_phase_operator", "phase_state",
    "phase_value", "sample_outcomes", "save_count_table", "solve_alphas",
    "superposition_probs", "superposition_state", "sweep",
    "symmetric_factors", "tensor_product", "tmsv", "vacuum_state",
    "wigner_batch", "wigner_grid", "wigner_point", "wigner_point_integral",
]


def test_public_names_are_pinned():
    # adding or removing a public name is a deliberate edit of this list
    assert len(set(pbsim.__all__)) == len(pbsim.__all__)
    assert sorted(pbsim.__all__) == PUBLIC_NAMES
    for name in pbsim.__all__:
        assert hasattr(pbsim, name), name
