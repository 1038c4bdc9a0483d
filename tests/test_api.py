"""The package's public surface: every exported name, listed once, and
what the package leaves to the tests."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pbsim

ROOT = Path(__file__).resolve().parents[1]

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
    "symmetric_factors", "vacuum_state",
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
    readme = (ROOT / "README.md").read_text()
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", readme))
    assert names
    code = "\n".join(path.read_text() for path in sorted(
        (ROOT / "src" / "pbsim").glob("*.py")))
    code += (ROOT / "tests" / "oracles.py").read_text()
    missing = sorted(name for name in names
                     if not re.search(rf"\b{name}\b", code))
    assert missing == []


def _helpers(tree):
    """The module-level functions and the methods, dunders aside, of a
    parsed module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield from (f.name for f in node.body
                        if isinstance(f, ast.FunctionDef)
                        and not f.name.startswith("__"))


def _names_used(tree):
    """Every name a parsed module uses: as a name, an attribute, an import,
    or a word of a string constant (so __all__ and tables of names count),
    docstrings aside."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            yield from re.findall(r"\w+", node.value)


def test_every_helper_is_used():
    # no function or method of the package outlives its last caller: each
    # is named by some code of the package, the tests or the benchmark
    package = sorted((ROOT / "src" / "pbsim").glob("*.py"))
    others = [*(ROOT / "tests").glob("*.py"),
              *(ROOT / "perfbench").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in package + others}
    used = {name for tree in trees.values() for name in _names_used(tree)}
    unused = sorted(f"{path.name}:{name}" for path in package
                    for name in _helpers(trees[path]) if name not in used)
    assert unused == []


def _package_imports():
    """(file name, top-level module) for every absolute import in pbsim."""
    for path in sorted(Path(pbsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, name.split(".")[0]


def test_package_does_not_import_the_tests():
    # the test oracles stay out of production: no pbsim module imports
    # tests/ or its modules
    test_modules = {p.stem for p in Path(__file__).parent.glob("*.py")}
    for file, root in _package_imports():
        assert root != "tests" and root not in test_modules, (
            f"{file} imports {root}")


def test_runtime_needs_numpy_alone():
    # pbsim imports only the standard library, numpy and itself, and
    # pyproject.toml declares numpy as its one runtime dependency (read
    # as text: tomllib is not in Python 3.10)
    allowed = set(sys.stdlib_module_names) | {"numpy", "pbsim"}
    for file, root in _package_imports():
        assert root in allowed, f"{file} imports {root}"
    project = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", project,
                      re.MULTILINE | re.DOTALL).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', block) == ["numpy"]


def _scipy_modules_after(code):
    """The scipy modules loaded once code has run in a fresh interpreter."""
    src = str(Path(pbsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (code + "\nimport sys\nprint(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'), file=sys.stderr)")
    err = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stderr
    return err.strip().splitlines()[-1]


def test_import_loads_no_scipy_integrate():
    # no scipy module at all: its import would be most of a command line's
    # wall time
    assert _scipy_modules_after("import pbsim") == "[]"


def test_cli_lines_load_no_scipy(tmp_path):
    # all six README command lines, the coefficient fit included, and the
    # "exact" displacement run without importing scipy
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(l)[1:] for l in block.splitlines()
             if l.startswith("pbsim ")]
    assert len(lines) == 6
    runs = []
    for i, line in enumerate(lines):
        if "--out" in line:
            k = line.index("--out")
            del line[k:k + 2]
        line += ["--out", str(tmp_path / f"{i}.out")]
        runs.append(f"assert main({line!r}) == 0")
    code = "\n".join(["from pbsim.cli import main",
                      "from pbsim.ops import displacement_op", *runs,
                      "displacement_op(0.3, 5, 'exact')"])
    assert _scipy_modules_after(code) == "[]"
