"""End-to-end tests of the command line interface."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from pbsim.cli import _OPTIONS, _resolve, build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


SMALL_RUNS = {
    "wigner-grid": ["wigner-grid", "--s", "2", "--n", "5", "--extent", "2.0"],
    "negativity-sweep": ["negativity-sweep", "--s", "2"],
    "radius-sweep": ["radius-sweep", "--s", "3"],
    "herald-sweep": ["herald-sweep", "--s", "2", "--r-min", "0.1",
                     "--r-max", "0.2", "--r-steps", "2", "--eta", "1.0,0.8"],
    "phase-sim-exact": ["phase-sim", "--s", "2", "--mode", "exact",
                        "--phi-j", "0.1", "--phi-k", "0.6"],
    "phase-sim-mc": ["phase-sim", "--s", "1", "--mode", "montecarlo", "--trials",
                     "2000", "--seed", "4", "--phi-k", "0.9"],
}


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_reruns_are_byte_identical(tmp_path, name):
    argv = SMALL_RUNS[name]
    code1, text1 = run_to_file(tmp_path, "a.out", argv)
    code2, text2 = run_to_file(tmp_path, "b.out", argv)
    assert code1 == 0 and code2 == 0
    assert text1 is not None
    assert text1 == text2


def test_stdout_when_no_out(capsys):
    assert main(["negativity-sweep", "--s", "1"]) == 0
    got = capsys.readouterr().out
    assert "s,V" in got
    assert "# monotonic_increasing=" in got


def test_wigner_grid_csv_shape(tmp_path):
    code, text = run_to_file(tmp_path, "grid.csv",
                             SMALL_RUNS["wigner-grid"])
    assert code == 0
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "q,p,W"
    assert len(lines) == 1 + 25
    q, p, w = lines[1].split(",")
    assert float(q) == -2.0 and float(p) == -2.0
    assert abs(float(w)) < 1.0


def test_wigner_grid_json(tmp_path):
    argv = SMALL_RUNS["wigner-grid"] + ["--format", "json"]
    code, text = run_to_file(tmp_path, "grid.json", argv)
    assert code == 0
    doc = json.loads(text)
    assert len(doc["q"]) == 5 and len(doc["p"]) == 5
    assert np.asarray(doc["w"]).shape == (5, 5)
    assert doc["config"]["s"] == 2


def test_phase_sim_exact_recovers_phase(tmp_path):
    code, text = run_to_file(tmp_path, "sim.json",
                             SMALL_RUNS["phase-sim-exact"])
    assert code == 0
    doc = json.loads(text)
    assert doc["abs_error"] < 1e-9
    assert doc["estimate"]["phi_k"] == pytest.approx(0.6, abs=1e-9)


def test_phase_sim_coefficient_target(tmp_path):
    argv = ["phase-sim", "--s", "1", "--target", "coefficients",
            "--mode", "exact", "--r", "0.6", "--theta", "0.8"]
    code, text = run_to_file(tmp_path, "coef.json", argv)
    assert code == 0
    doc = json.loads(text)
    assert max(doc["abs_error"]) < 1e-9


def test_phase_sim_coefficient_target_at_r_zero(tmp_path):
    # the whole weight on |phi_1>: theta is a global phase and the
    # gauge-fixed truth is (0, 1)
    argv = ["phase-sim", "--s", "1", "--target", "coefficients",
            "--mode", "exact", "--r", "0.0", "--theta", "0.8"]
    code, text = run_to_file(tmp_path, "coef.json", argv)
    assert code == 0
    doc = json.loads(text)
    assert max(doc["abs_error"]) <= 1e-12


def test_phase_sim_coefficient_error_is_phase_aligned(tmp_path):
    # at small |c_0| the c_0-real gauge turns a 1e-16 fit into a 1e-10
    # gauge-fixed error; abs_error is taken after aligning the phase
    argv = ["phase-sim", "--s", "1", "--target", "coefficients",
            "--mode", "exact", "--r", "1e-7", "--theta", "0.8"]
    code, text = run_to_file(tmp_path, "coef.json", argv)
    assert code == 0
    doc = json.loads(text)
    assert max(doc["abs_error"]) <= 1e-12


def test_config_file_and_cli_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s=3\nformat=csv\n")
    code, text = run_to_file(tmp_path, "a.csv",
                             ["negativity-sweep", "--config", str(cfg)])
    assert code == 0
    assert "# s=3" in text
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 1 + 3
    # explicit flag beats the config value
    code, text = run_to_file(tmp_path, "b.csv",
                             ["negativity-sweep", "--config", str(cfg),
                              "--s", "2"])
    assert code == 0
    assert "# s=2" in text


def header_echo(text):
    """The leading '# key=value' block of a CSV output, '# ' stripped."""
    lines = []
    for line in text.splitlines():
        if not line.startswith("# "):
            break
        lines.append(line[2:])
    return lines


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_echo_lists_every_option(tmp_path, name):
    argv = SMALL_RUNS[name]
    code, text = run_to_file(tmp_path, "a.out", argv)
    assert code == 0
    if argv[0] == "phase-sim":
        echoed = set(json.loads(text)["config"])
    else:
        echoed = {line.partition("=")[0] for line in header_echo(text)}
    assert echoed == {key for key, *_ in _OPTIONS[argv[0]]}


@pytest.mark.parametrize("name", sorted(n for n in SMALL_RUNS
                                        if not n.startswith("phase-sim")))
def test_header_echo_is_a_config_file(tmp_path, name):
    argv = SMALL_RUNS[name]
    code, text = run_to_file(tmp_path, "a.out", argv)
    assert code == 0
    cfg = tmp_path / "echo.cfg"
    cfg.write_text("\n".join(header_echo(text)) + "\n")
    code, again = run_to_file(tmp_path, "b.out",
                              [argv[0], "--config", str(cfg)])
    assert code == 0
    assert again == text


@pytest.mark.parametrize("command,key,value", [
    ("radius-sweep", "s", "x"),
    ("wigner-grid", "extent", "wide"),
    ("radius-sweep", "format", "json"),
    ("phase-sim", "mode", "guess"),
    ("herald-sweep", "eta", "1.0,x"),
    ("herald-sweep", "r_min", ""),
])
def test_flag_and_config_value_share_one_conversion(tmp_path, capsys,
                                                    command, key, value):
    flag = "--" + key.replace("_", "-")
    assert main([command, f"{flag}={value}"]) == 1
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert main([command, "--config", str(cfg)]) == 1
    from_config = capsys.readouterr().err
    assert from_flag == from_config
    assert from_flag.startswith(f"pbsim: bad value for {key}: ")


def test_readme_command_lines_parse():
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = [l for l in block.splitlines() if l.startswith("pbsim ")]
    assert len(lines) == 6
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        _resolve(args.command, args)


def test_repeated_config_key(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("s=3\n# comment\nr-min=0.1\nr_min=0.2\n")
    assert main(["herald-sweep", "--config", str(cfg)]) == 1
    assert "'r_min' set on lines 3 and 4" in capsys.readouterr().err
    cfg.write_text("s=3\ns=2\n")
    assert main(["radius-sweep", "--config", str(cfg)]) == 1
    assert "'s' set on lines 1 and 2" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("espresso=9\n")
    assert main(["radius-sweep", "--config", str(cfg)]) == 1
    assert "espresso" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    # bad format string is a validation failure
    assert main(["radius-sweep", "--s", "2", "--format", "xml"]) == 1
    capsys.readouterr()
    # two trials cannot populate the single-photon cells reliably
    assert main(["phase-sim", "--s", "1", "--mode", "montecarlo", "--trials", "1",
                 "--seed", "1", "--phi-k", "3.1"]) == 2
    err = capsys.readouterr().err
    assert "rerun with more trials" in err
    # unwritable output path
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["radius-sweep", "--s", "2", "--out", str(missing)]) == 3


@pytest.mark.parametrize("flag,value,message", [
    ("--n", "1", "n must be >= 2"),
    ("--extent", "0", "extent must be positive and finite"),
    ("--extent", "inf", "extent must be positive and finite"),
    ("--extent", "nan", "extent must be positive and finite"),
])
def test_wigner_grid_rejects_bad_lattice(capsys, flag, value, message):
    assert main(["wigner-grid", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"pbsim: {message}")


@pytest.mark.parametrize("coeffs", ["1,inf", "1,nan"])
def test_phase_sim_rejects_non_finite_coefficients(capsys, coeffs):
    assert main(["phase-sim", "--s", "1", "--target", "coefficients",
                 "--coeffs", coeffs]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("pbsim: non-finite coefficient c_1")


def test_herald_sweep_rows_and_slopes(tmp_path):
    code, text = run_to_file(tmp_path, "h.csv", SMALL_RUNS["herald-sweep"])
    assert code == 0
    lines = text.splitlines()
    rows = [l for l in lines if l and not l.startswith("#")]
    assert rows[0] == "s,r,eta,P,F,V,leakage"
    assert len(rows) == 1 + 4
    slopes = [l for l in lines if l.startswith("# slope[")]
    assert len(slopes) == 2


@pytest.mark.parametrize("extra", [["--r", "0.6"], ["--theta", "0.8"],
                                   ["--coeffs", "1,0"]])
def test_phase_target_rejects_coefficient_options(tmp_path, capsys, extra):
    argv = ["phase-sim", "--s", "1", "--mode", "exact"]
    assert main(argv + extra) == 1
    assert "target=coefficients only" in capsys.readouterr().err
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"{extra[0][2:]}={extra[1]}\n")
    assert main(argv + ["--config", str(cfg)]) == 1
    assert "target=coefficients only" in capsys.readouterr().err


def test_config_inline_comment(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s=2  # two\nformat=csv# the only one\n")
    _, flagged = run_to_file(tmp_path, "a.csv", ["radius-sweep", "--s", "2"])
    code, text = run_to_file(tmp_path, "b.csv",
                             ["radius-sweep", "--config", str(cfg)])
    assert code == 0
    assert text == flagged


def test_negativity_sweep_reaches_s25(tmp_path):
    code, text = run_to_file(tmp_path, "v.csv",
                             ["negativity-sweep", "--s", "25"])
    assert code == 0
    assert "# monotonic_increasing=true" in text.splitlines()
    volumes = dict(line.split(",") for line in text.splitlines()
                   if line and not line.startswith(("#", "s,")))
    assert float(volumes["17"]) == pytest.approx(0.3147545070149, abs=1e-6)
    assert float(volumes["25"]) == pytest.approx(0.3580314851799, abs=1e-6)
