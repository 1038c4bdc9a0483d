"""The package's public surface: every exported name, listed once, and
what the package leaves to the tests."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pbsim

PUBLIC_NAMES = [
    "ConfigMismatchError", "CountTable", "CutoffError",
    "DegenerateHeraldError", "DetectorPovm", "FockDensity", "FockVector",
    "HeraldConfig", "HeraldResult", "HeraldSweepRow", "LeakageWarning",
    "LowInformationError", "NegativityResult", "NumericalError",
    "PbsimError", "PhaseEstimate", "QuadratureError",
    "RankDeficiencyWarning", "RootQualityError",
    "SuperpositionCoeffs", "TwoModeUnitary",
    "ValidationError", "WindowExhaustedError", "__version__",
    "alpha_polynomial", "apply_single_mode_op", "apply_two_mode_unitary",
    "beam_splitter_5050", "beam_splitter_pb", "build_state",
    "conditional_density", "detector_povm", "displacement_op",
    "effective_radius", "estimate_coefficients", "estimate_phase",
    "fidelity_pure", "gauge_fixed", "herald_alphas", "herald_point",
    "interference_probs",
    "negativity_volume", "negativity_volume_detailed", "number_state",
    "pb_eigenstate", "phase_state",
    "phase_value", "sample_outcomes", "solve_alphas",
    "superposition_probs", "superposition_state", "sweep",
    "symmetric_factors", "tmsv", "vacuum_state",
    "wigner_batch", "wigner_grid",
]


def test_public_names_are_pinned():
    # adding or removing a public name is a deliberate edit of this list
    assert len(set(pbsim.__all__)) == len(pbsim.__all__)
    assert sorted(pbsim.__all__) == PUBLIC_NAMES
    for name in pbsim.__all__:
        assert hasattr(pbsim, name), name


def test_readme_names_exist():
    # every backticked bare identifier in the README names something in
    # the package or the test oracles, so removing a name means editing
    # the docs too
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", readme))
    assert names
    code = "\n".join(path.read_text() for path in sorted(
        (root / "src" / "pbsim").glob("*.py")))
    code += (root / "tests" / "oracles.py").read_text()
    missing = sorted(name for name in names
                     if not re.search(rf"\b{name}\b", code))
    assert missing == []


def test_package_does_not_import_the_tests():
    # the test oracles stay out of production: no pbsim module imports
    # tests/ or its modules
    src = Path(pbsim.__file__).parent
    test_modules = {p.stem for p in Path(__file__).parent.glob("*.py")}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                root = name.split(".")[0]
                assert root != "tests" and root not in test_modules, (
                    f"{path.name} imports {name}")


def test_import_loads_no_scipy_integrate():
    # scipy.integrate serves only the integral oracle in tests/oracles.py
    src = str(Path(pbsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, pbsim; print([m for m in sys.modules "
            "if m.split('.')[:2] == ['scipy', 'integrate']])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
