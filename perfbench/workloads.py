"""The benchmark's three workloads, their warm-up steps and result checks.

A workload yields items in passes. An item's ``call`` is the timed part
and goes through pbsim's public API only; its ``check`` is untimed and
turns the call's output into named result values (and any problems
found). The runner compares those values with the seed commit's
reference values in reference.json, using TOLERANCES.

cli-defaults and herald-circuit have fixed inputs (the README's command
lines, and the criterion-8 grid); estimation draws its truths and
Monte-Carlo seeds from the workload seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import pbsim
import pbsim.cli

# (atol, rtol) per result quantity. A faster but correct implementation
# still meets these: the quadrature tolerance for negativity volumes,
# the radius bisection width, and roundoff for W, P, F, leakage and the
# closed-form estimates of the README's phase-sim lines.
TOLERANCES = {
    "V": (1e-6, 0.0),
    "radius": (1e-7, 0.0),
    "W": (1e-12, 0.0),
    "W_sum": (1e-9, 0.0),
    "W_sumsq": (1e-9, 0.0),
    "P": (0.0, 1e-8),
    "F": (1e-10, 0.0),
    "leakage": (1e-12, 0.0),
    "abs_error": (1e-9, 0.0),
}

# Largest estimator error accepted on 1e5-trial tables. Seeded truths
# have no stored reference; the seed commit stays well below these on
# every calibration truth (reference.json, "calibration"), while a
# broken estimator lands on a wrong optimum, with errors of order one.
COEFFICIENT_ERR_BOUND = 0.05
PHASE_ERR_BOUND = 0.25
TRIALS = 100_000

# W is compared on every 10th lattice line in q and in p, plus the sum
# and the sum of squares over the whole grid
WIGNER_STRIDE = 10


@dataclass
class Item:
    id: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[dict, list]]
    span: str = "bench.item"
    layer: str = "bench"
    out_path: str | None = None


def compare(got, want, require_all, path=""):
    """Problems found comparing result values with reference values."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected a mapping"]
        problems = [f"{path}/{k}: no reference value"
                    for k in got if k not in want]
        for key, ref in want.items():
            if key in got:
                problems += _compare_leaf(got[key], ref, key, require_all,
                                          f"{path}/{key}")
            elif require_all:
                problems.append(f"{path}/{key}: missing")
        return problems
    return [f"{path}: unexpected reference shape"]


def _compare_leaf(got, ref, name, require_all, path):
    if isinstance(ref, dict):
        return compare(got, ref, require_all, path)
    if isinstance(ref, bool):
        return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]
    atol, rtol = TOLERANCES[name]
    g = np.asarray(got, dtype=float)
    r = np.asarray(ref, dtype=float)
    if g.shape != r.shape:
        return [f"{path}: shape {g.shape} != {r.shape}"]
    bad = ~(np.abs(g - r) <= atol + rtol * np.abs(r))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{path}: {float(g.ravel()[i])!r} vs reference "
                f"{float(r.ravel()[i])!r}"]
    return []


# ---------------------------------------------------------------- cli-defaults

CLI_LINES = (
    ("wigner-grid", "wigner-grid --s 4 --m 0 --extent 5.0 --n 101",
     None),
    ("negativity-sweep", "negativity-sweep --s 6",
     "negativity-sweep --s 2"),
    ("radius-sweep", "radius-sweep --s 12", "radius-sweep --s 3"),
    ("herald-sweep", "herald-sweep --s 4 --r-min 0.05 --r-max 0.3 "
     "--r-steps 6 --eta 1.0,0.8,0.6",
     "herald-sweep --s 4 --r-min 0.3 --r-max 0.3 --r-steps 1 --eta 1.0"),
    ("phase-sim-montecarlo", "phase-sim --s 2 --mode montecarlo "
     "--trials 100000 --seed 0 --phi-k 0.7", None),
    ("phase-sim-coefficients", "phase-sim --s 1 --target coefficients "
     "--mode exact --r 0.6 --theta 0.8", None),
)


def _csv_rows(text):
    lines = text.splitlines()
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    footers = dict(ln[2:].split("=", 1) for ln in lines
                   if ln.startswith("# ") and "=" in ln)
    return rows[0], rows[1:], footers, lines


def _check_wigner_grid(text):
    _, rows, _, _ = _csv_rows(text)
    w = np.array([float(row[2]) for row in rows])
    n = math.isqrt(w.size)
    grid = w.reshape(n, n)
    return {"W": grid[::WIGNER_STRIDE, ::WIGNER_STRIDE].ravel().tolist(),
            "W_sum": float(w.sum()), "W_sumsq": float(w @ w)}, []


def _check_sweep(quantity):
    def check(text):
        _, rows, footers, _ = _csv_rows(text)
        values = {f"s={row[0]}": {quantity: float(row[1])} for row in rows}
        values["monotonic_increasing"] = (
            footers.get("monotonic_increasing") == "true")
        return values, []
    return check


def _check_herald_sweep(text):
    header, rows, _, lines = _csv_rows(text)
    values = {}
    for row in rows:
        rec = dict(zip(header, row))
        values[f"r={rec['r']},eta={rec['eta']}"] = {
            k: float(rec[k]) for k in ("P", "F", "V", "leakage")}
    problems = [ln for ln in lines if ln.startswith("# error[")]
    return values, problems


def _check_phase_sim(text):
    return {"abs_error": json.loads(text)["abs_error"]}, []


_CLI_CHECKS = {
    "wigner-grid": _check_wigner_grid,
    "negativity-sweep": _check_sweep("V"),
    "radius-sweep": _check_sweep("radius"),
    "herald-sweep": _check_herald_sweep,
    "phase-sim-montecarlo": _check_phase_sim,
    "phase-sim-coefficients": _check_phase_sim,
}


class CliDefaults:
    """The README's command lines, in-process through pbsim.cli.main."""

    name = "cli-defaults"

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def warm_up(self):
        # kernel coefficient tables for every density size the pass meets
        for dim in range(1, 14):
            pbsim.wigner_batch(np.eye(dim) / dim, np.zeros(1), np.zeros(1))
        # symmetric factors and beam-splitter transfer tensors
        cfg = pbsim.HeraldConfig(s=4, r=0.05, eta=1.0)
        pbsim.build_state(cfg, pbsim.herald_alphas(cfg))
        for s in (1, 2):
            ref = pbsim.phase_state(s, 0.0)
            pbsim.interference_probs(ref, ref)

    def items(self, rng, tiny=False):
        return [self._item(item_id, tiny_line if tiny and tiny_line else line)
                for item_id, line, tiny_line in CLI_LINES]

    def _item(self, item_id, line):
        argv = line.split()
        out = os.path.join(self.out_dir, f"{item_id}.out")
        check = _CLI_CHECKS[item_id]

        def call():
            code = pbsim.cli.main(argv + ["--out", out])
            if code != 0:
                raise RuntimeError(f"pbsim {argv[0]} exited with {code}")

        def read_and_check(_):
            with open(out, encoding="utf-8") as fh:
                return check(fh.read())

        return Item(item_id, call, read_and_check, span=f"cli.{argv[0]}",
                    layer="cli", out_path=out)


# -------------------------------------------------------------- herald-circuit

HERALD_ORDERS = ((5, 7), (6, 8))
HERALD_R = (0.1, 0.2, 0.3)
HERALD_ETA = (1.0, 0.8, 0.6)


class HeraldCircuit:
    """Criterion-8 pattern without phase space: build, condition, compare."""

    name = "herald-circuit"

    def warm_up(self):
        for s, cutoff in HERALD_ORDERS:
            pbsim.herald_alphas(
                pbsim.HeraldConfig(s=s, r=0.1, eta=1.0, cutoff=cutoff))
            pair = pbsim.vacuum_state(cutoff, 2)
            for k in range(1, s):
                pbsim.apply_two_mode_unitary(pair, (0, 1),
                                             pbsim.beam_splitter_pb(k, s))

    def items(self, rng, tiny=False):
        orders = HERALD_ORDERS[:1] if tiny else HERALD_ORDERS
        rs = HERALD_R[:1] if tiny else HERALD_R
        etas = HERALD_ETA[:1] if tiny else HERALD_ETA
        items = []
        for s, cutoff in orders:
            for r in rs:
                built = {}
                for eta in etas:
                    items.append(self._item(s, cutoff, r, eta, built,
                                            last=eta == etas[-1]))
        return items

    @staticmethod
    def _item(s, cutoff, r, eta, built, last):
        def call():
            # the state is built once per (s, r), by the first eta's item,
            # and let go by the last one
            if "state" not in built:
                cfg = pbsim.HeraldConfig(s=s, r=r, eta=1.0, cutoff=cutoff)
                built["state"] = pbsim.build_state(cfg,
                                                   pbsim.herald_alphas(cfg))
            state = built.pop("state") if last else built["state"]
            povm = pbsim.detector_povm(eta, cutoff)
            rho_a, p = pbsim.conditional_density(state, [povm.click] * s,
                                                 kept_mode=s)
            target = pbsim.pb_eigenstate(s, 0, cutoff=cutoff)
            f = pbsim.fidelity_pure(rho_a, target)
            return {"P": p, "F": f, "leakage": state.leakage}

        return Item(f"s={s},r={r!r},eta={eta!r}", call, lambda v: (v, []))


# ------------------------------------------------------------------ estimation

COEFFICIENT_ORDERS = (2, 3, 4, 5, 6)
PHASE_ORDERS = (1, 2, 4, 8)


class Estimation:
    """Seeded truths; coefficient and two-setting phase estimates."""

    name = "estimation"

    def warm_up(self):
        # 50-50 transfer tensors at every working cutoff 2s
        for s in range(1, max(PHASE_ORDERS) + 1):
            ref = pbsim.phase_state(s, 0.0)
            pbsim.interference_probs(ref, ref)

    def items(self, rng, tiny=False):
        items = []
        for s in COEFFICIENT_ORDERS[:1] if tiny else COEFFICIENT_ORDERS:
            # Magnitudes stay within a factor of three of each other, so
            # every coefficient is identifiable. A near-zero one leaves its
            # phase undetermined and makes the fit's run time heavy-tailed,
            # which would tie the timing to the seed more than to the code.
            raw = (rng.uniform(0.5, 1.5, s + 1)
                   * np.exp(1j * rng.uniform(-math.pi, math.pi, s + 1)))
            seeds = [int(x) for x in rng.integers(0, 2**31, s + 1)]
            items.append(self._coefficient_item(s, raw, seeds))
        for s in PHASE_ORDERS[:1] if tiny else PHASE_ORDERS:
            phi_k = float(rng.uniform(-math.pi, math.pi))
            phi_j = float(rng.uniform(-math.pi, math.pi))
            seeds = [int(x) for x in rng.integers(0, 2**31, 2)]
            items.append(self._phase_item(s, phi_k, phi_j, seeds))
        return items

    @staticmethod
    def _coefficient_item(s, raw, seeds):
        def call():
            truth = pbsim.gauge_fixed(raw, s)
            tables = []
            for j, seed in enumerate(seeds):
                phi = pbsim.phase_value(s, j)
                dist = pbsim.superposition_probs(phi, truth)
                tables.append((phi,
                               pbsim.sample_outcomes(dist, TRIALS, seed)))
            return pbsim.estimate_coefficients(tables, s).c, truth.c

        def check(out):
            est, truth = out
            # The global phase is not observable, and the gauge that fixes
            # it (c_0 real) is ill-conditioned when |c_0| is small, so the
            # error is taken after aligning the global phase.
            overlap = np.vdot(truth, est)
            err = float(np.abs(est - truth * overlap / abs(overlap)).max())
            return _bounded(err, COEFFICIENT_ERR_BOUND)

        return Item(f"coefficients-s={s}", call, check)

    @staticmethod
    def _phase_item(s, phi_k, phi_j, seeds):
        def call():
            right = pbsim.phase_state(s, phi_k)
            aux = phi_j + math.pi / 2.0
            tables = [
                pbsim.sample_outcomes(pbsim.interference_probs(
                    pbsim.phase_state(s, phi), right), TRIALS, seed)
                for phi, seed in ((phi_j, seeds[0]), (aux, seeds[1]))]
            return pbsim.estimate_phase(tables[0], phi_j, s,
                                        aux=(aux, tables[1])).phi_k

        def check(est):
            err = abs(math.remainder(est - phi_k, 2.0 * math.pi))
            return _bounded(err, PHASE_ERR_BOUND)

        return Item(f"phase-s={s}", call, check)


def _bounded(err, bound):
    problems = [] if err <= bound else [f"error {err!r} above {bound}"]
    return {"abs_error": err}, problems


def make(name, out_dir):
    if name == CliDefaults.name:
        return CliDefaults(out_dir)
    if name == HeraldCircuit.name:
        return HeraldCircuit()
    if name == Estimation.name:
        return Estimation()
    raise KeyError(name)
