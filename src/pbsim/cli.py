"""Command-line front end.

Subcommands:
  wigner-grid       W of a phase-operator eigenstate on a square lattice
  negativity-sweep  negativity volume versus order s
  radius-sweep      effective radius versus order s
  herald-sweep      heralded-generation figures over an (eta, r) grid
  phase-sim         simulate interference counts and run the estimators

wigner-grid writes CSV or JSON (--format), phase-sim JSON and the
others CSV. Every value an option can take may also come from a
--config file of flat key=value lines (# starts a comment, dashes and
underscores in keys interchangeable, each key at most once).
Precedence is command line over config file over built-in defaults.
The effective configuration is echoed into the output as sorted
"# key=value" comments (CSV) or a "config" object (JSON), so a rerun of
the same command is byte-identical. Outputs carry no timestamps and are
written atomically.

Exit codes: 0 success, 1 invalid arguments or configuration,
2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .errors import LowInformationError, NumericalError, ValidationError
from .fock import number_state
from .herald import sweep as herald_sweep_rows
from .phase_est import (CountTable, estimate_coefficients, estimate_phase,
                        gauge_fixed, interference_probs, sample_outcomes,
                        superposition_probs)
from .phase_states import pb_eigenstate, phase_state, phase_value
from .wigner import effective_radius, negativity_volume, wigner_grid

def _float_list(text: str) -> tuple:
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise ValueError("empty list")
    return values


# Each subcommand's options as (key, kind, default, help). kind is int,
# float, str or _float_list (applied to the raw string), bool (a flag on
# the command line, true/false/1/0/yes/no in a config file), or a tuple
# of the accepted strings.
_OPTIONS = {
    "wigner-grid": [
        ("s", int, 4, "state order"),
        ("m", int, 0, "eigenstate index"),
        ("phi0", float, 0.0, "reference phase offset"),
        ("extent", float, 5.0, "half-width of the square lattice"),
        ("n", int, 101, "points per axis"),
        ("format", ("csv", "json"), "csv", "output format"),
    ],
    "negativity-sweep": [
        ("s", int, 6, "largest order"),
        ("ref_one_photon", bool, False,
         "append the single-photon reference volume"),
        ("format", ("csv",), "csv", "output format"),
    ],
    "radius-sweep": [
        ("s", int, 12, "largest order"),
        ("format", ("csv",), "csv", "output format"),
    ],
    "herald-sweep": [
        ("s", int, 4, "target state order"),
        ("r_min", float, 0.05, "smallest squeezing parameter"),
        ("r_max", float, 0.3, "largest squeezing parameter"),
        ("r_steps", int, 6, "squeezing values, evenly spaced"),
        ("eta", _float_list, (1.0, 0.8, 0.6),
         "comma-separated detector efficiencies"),
        ("format", ("csv",), "csv", "output format"),
    ],
    "phase-sim": [
        ("s", int, 1, "state order"),
        ("mode", ("exact", "montecarlo"), "exact",
         "exact probabilities or sampled counts"),
        ("target", ("phase", "coefficients"), "phase", "what to estimate"),
        ("phi_j", float, 0.0, "reference phase of the first setting"),
        ("phi_k", float, 0.7, "true phase of the unknown state (target=phase)"),
        ("r", float, None, "s=1 superposition weight (target=coefficients)"),
        ("theta", float, None, "s=1 relative phase (target=coefficients)"),
        ("coeffs", str, None, "comma-separated complex coefficients"),
        ("trials", int, 100000, "samples per setting (mode=montecarlo)"),
        ("seed", int, 0, "base RNG seed"),
        ("format", ("json",), "json", "output format"),
    ],
}


def _convert(key: str, kind, raw: str):
    """One conversion for a command-line flag and a config value alike."""
    try:
        if isinstance(kind, tuple):
            if raw not in kind:
                raise ValueError(f"expected {' or '.join(kind)}, got {raw!r}")
            return raw
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise ValidationError(f"bad value for {key}: {exc}") from None


def _read_config(path: str) -> dict:
    data = {}
    first_line = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            # no key or value contains "#", so a comment runs to line end
            line = raw.partition("#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key in first_line:
                raise ValidationError(f"{path}: key {key!r} set on lines "
                                      f"{first_line[key]} and {lineno}")
            first_line[key] = lineno
            data[key] = value.strip()
    return data


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Merge CLI > config file > defaults into the effective settings."""
    options = _OPTIONS[command]
    config_data = {}
    if args.config is not None:
        config_data = _read_config(args.config)
    unknown = set(config_data) - {key for key, *_ in options}
    if unknown:
        raise ValidationError(
            f"unknown config keys for {command}: {sorted(unknown)}")
    eff = {}
    for key, kind, default, _ in options:
        raw = getattr(args, key)
        if raw is None:
            raw = config_data.get(key)
        eff[key] = default if raw is None else _convert(key, kind, raw)
    return eff


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def _config_comments(eff: dict) -> list:
    return [f"# {key}={_fmt_value(eff[key])}" for key in sorted(eff)]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pbsim-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cmd_wigner_grid(eff: dict, out: str | None) -> int:
    state = pb_eigenstate(eff["s"], eff["m"], eff["phi0"])
    e, n = eff["extent"], eff["n"]
    if not (e > 0 and math.isfinite(e)):
        raise ValidationError(f"extent must be positive and finite, got {e!r}")
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    axis = np.linspace(-e, e, n)
    values = wigner_grid(state, axis, axis)
    if eff["format"] == "json":
        doc = {
            "config": eff,
            "q": [float(v) for v in axis],
            "p": [float(v) for v in axis],
            "w": [[float(v) for v in row] for row in values],
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)
        return 0
    lines = _config_comments(eff)
    lines.append("q,p,W")
    for i, q in enumerate(axis):
        for j, p in enumerate(axis):
            lines.append(f"{float(q)!r},{float(p)!r},{float(values[i, j])!r}")
    _emit("\n".join(lines) + "\n", out)
    return 0


def _order_sweep(eff: dict, column: str, value_of,
                 judged_from: int = 1) -> list:
    """CSV lines of value_of(|phi_0>_s) for s = 1..eff["s"], with a footer
    saying whether the values increase from s = judged_from on."""
    if eff["s"] < 1:
        raise ValidationError(f"s must be >= 1, got {eff['s']}")
    lines = _config_comments(eff)
    lines.append(f"s,{column}")
    values = []
    for s in range(1, eff["s"] + 1):
        values.append(float(value_of(pb_eigenstate(s, 0))))
        lines.append(f"{s},{values[-1]!r}")
    judged = values[judged_from - 1:]
    increasing = all(b > a for a, b in zip(judged, judged[1:]))
    lines.append(f"# monotonic_increasing={'true' if increasing else 'false'}")
    return lines


def _cmd_negativity_sweep(eff: dict, out: str | None) -> int:
    lines = _order_sweep(eff, "V", negativity_volume)
    if eff["ref_one_photon"]:
        ref = float(negativity_volume(number_state(1, 2)))
        lines.append(f"# ref_one_photon={ref!r}")
    _emit("\n".join(lines) + "\n", out)
    return 0


def _cmd_radius_sweep(eff: dict, out: str | None) -> int:
    # the s = 1 state is the outlier; monotonicity is judged from s = 2 on
    lines = _order_sweep(eff, "radius", effective_radius, judged_from=2)
    _emit("\n".join(lines) + "\n", out)
    return 0


def _cmd_herald_sweep(eff: dict, out: str | None) -> int:
    if eff["r_steps"] < 1:
        raise ValidationError(f"r_steps must be >= 1, got {eff['r_steps']}")
    if not eff["r_max"] >= eff["r_min"] >= 0:
        raise ValidationError("need 0 <= r_min <= r_max")
    r_values = np.linspace(eff["r_min"], eff["r_max"], eff["r_steps"])
    rows = herald_sweep_rows(eff["s"], r_values, eff["eta"])
    lines = _config_comments(eff)
    lines.append("s,r,eta,P,F,V,leakage")
    errors = []
    for row in rows:
        lines.append(f"{row.s},{float(row.r)!r},{float(row.eta)!r},"
                     f"{float(row.P)!r},{float(row.F)!r},{float(row.V)!r},"
                     f"{float(row.leakage)!r}")
        if row.error is not None:
            errors.append(
                f"# error[s={row.s},r={float(row.r)!r},"
                f"eta={float(row.eta)!r}]={row.error}")
    for eta in eff["eta"]:
        pts = [(row.r, row.P) for row in rows
               if row.eta == eta and row.error is None and row.P > 0]
        if len(pts) >= 2:
            lr = np.log([r for r, _ in pts])
            lp = np.log([p for _, p in pts])
            slope = float(np.polyfit(lr, lp, 1)[0])
            lines.append(f"# slope[eta={eta!r}]={slope!r}")
    lines.extend(errors)
    _emit("\n".join(lines) + "\n", out)
    return 0


def _parse_coeffs(text: str) -> np.ndarray:
    try:
        vals = [complex(tok.strip().replace(" ", ""))
                for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad coefficient list {text!r}: {exc}") from None
    if not vals:
        raise ValidationError("coefficient list is empty")
    return np.asarray(vals, dtype=np.complex128)


def _table_for(dist, mode, trials, seed):
    return dist if mode == "exact" else sample_outcomes(dist, trials, seed)


def _counts_doc(phi_j: float, table: CountTable) -> dict:
    return {
        "phi_j": phi_j,
        "trials": table.trials,
        "seed": table.rng_seed,
        "counts": [[float(v) for v in row] for row in table.counts],
    }


def _cmd_phase_sim(eff: dict, out: str | None) -> int:
    s = eff["s"]
    if s < 1:
        raise ValidationError(f"s must be >= 1, got {s}")
    mode = eff["mode"]
    trials = eff["trials"]
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    seed = eff["seed"]
    doc = {"config": eff, "distributions": []}

    if eff["target"] == "phase":
        unused = [key for key in ("r", "theta", "coeffs")
                  if eff[key] is not None]
        if unused:
            raise ValidationError(
                f"{', '.join(unused)} apply to target=coefficients only")
        truth = eff["phi_k"]
        right = phase_state(s, truth)
        settings = [eff["phi_j"], eff["phi_j"] + math.pi / 2.0]
        tables = []
        for idx, phi_j in enumerate(settings):
            dist = interference_probs(phase_state(s, phi_j), right)
            table = _table_for(dist, mode, trials, seed + idx)
            tables.append(table)
            doc["distributions"].append(_counts_doc(phi_j, table))
        est = estimate_phase(tables[0], settings[0], s,
                             aux=(settings[1], tables[1]))
        wrapped = math.remainder(est.phi_k - truth, 2.0 * math.pi)
        doc["estimate"] = {
            "phi_k": est.phi_k,
            "stderr": est.stderr,
            "candidates": list(est.candidates),
            "informative_counts": est.informative_counts,
        }
        doc["truth"] = {"phi_k": truth}
        doc["abs_error"] = abs(wrapped)
    else:
        if eff["coeffs"] is not None:
            if eff["r"] is not None or eff["theta"] is not None:
                raise ValidationError(
                    "give either --coeffs or --r/--theta, not both")
            raw = _parse_coeffs(eff["coeffs"])
            if raw.shape != (s + 1,):
                raise ValidationError(
                    f"need {s + 1} coefficients for s={s}, got {raw.size}")
        elif eff["r"] is not None:
            if s != 1:
                raise ValidationError("--r/--theta parameterize s=1 only")
            r = eff["r"]
            if not 0.0 <= r <= 1.0:
                raise ValidationError(f"r must lie in [0, 1], got {r!r}")
            theta = eff["theta"] if eff["theta"] is not None else 0.0
            raw = np.array([r, math.sqrt(1.0 - r * r) * np.exp(1j * theta)])
        else:
            raise ValidationError(
                "target=coefficients needs --coeffs (or --r/--theta at s=1)")
        truth = gauge_fixed(raw, s)
        settings = [phase_value(s, j) for j in range(s + 1)]
        if s == 1:
            settings.append(math.pi / 2.0)
        tables = []
        for idx, phi_j in enumerate(settings):
            dist = superposition_probs(phi_j, truth)
            table = _table_for(dist, mode, trials, seed + idx)
            tables.append((phi_j, table))
            doc["distributions"].append(_counts_doc(phi_j, table))
        est = estimate_coefficients(tables, s)
        # the global phase is unobservable and the c_0-real gauge is
        # ill-conditioned at small |c_0|, so align the phase first
        overlap = np.vdot(truth.c, est.c)
        err = np.abs(est.c - truth.c * overlap / abs(overlap))
        doc["estimate"] = {
            "coefficients_re": [float(v) for v in est.c.real],
            "coefficients_im": [float(v) for v in est.c.imag],
            "note": est.note,
        }
        doc["truth"] = {
            "coefficients_re": [float(v) for v in truth.c.real],
            "coefficients_im": [float(v) for v in truth.c.imag],
        }
        doc["abs_error"] = [float(v) for v in err]

    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)
    return 0


_COMMANDS = {
    "wigner-grid": (_cmd_wigner_grid, "Wigner function on a square lattice"),
    "negativity-sweep": (_cmd_negativity_sweep,
                         "negativity volume for s = 1..S"),
    "radius-sweep": (_cmd_radius_sweep, "effective radius for s = 1..S"),
    "herald-sweep": (_cmd_herald_sweep,
                     "herald probability, fidelity, negativity grid"),
    "phase-sim": (_cmd_phase_sim, "interference counts and estimator report"),
}


def build_parser() -> argparse.ArgumentParser:
    """Every option value stays a raw string here; _resolve converts it."""
    parser = argparse.ArgumentParser(
        prog="pbsim",
        description="Phase-operator eigenstate simulation toolkit.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line) in _COMMANDS.items():
        p = subs.add_parser(command, help=help_line)
        for key, kind, default, text in _OPTIONS[command]:
            flag = "--" + key.replace("_", "-")
            if default is not None:
                text = f"{text}; default {_fmt_value(default)}"
            if kind is bool:
                p.add_argument(flag, dest=key, action="store_const",
                               const="true", help=text)
            else:
                metavar = ("{" + ",".join(kind) + "}"
                           if isinstance(kind, tuple) else None)
                p.add_argument(flag, dest=key, metavar=metavar, help=text)
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--config",
                       help="key=value config file; command line wins")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        eff = _resolve(args.command, args)
        return _COMMANDS[args.command][0](eff, args.out)
    except LowInformationError as exc:
        print(f"pbsim: {exc}", file=sys.stderr)
        print("pbsim: rerun with more trials or a different --phi-j",
              file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"pbsim: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"pbsim: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pbsim: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
