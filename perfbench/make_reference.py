"""Regenerate reference.json from the pbsim in this checkout.

    python3 perfbench/make_reference.py

Runs one pass of cli-defaults and herald-circuit and stores every result
value, and runs the estimation workload on calibration seeds to record
the largest estimator errors seen. Run it only on a commit whose results
are trusted: the benchmark fails every item that later disagrees.
"""

import json
import os
import subprocess
import sys

import run

CALIBRATION_SEEDS = range(200)


def main():
    run.pin_threads()
    out_dir = os.path.join(run.OUT_ROOT, "reference")
    os.makedirs(out_dir, exist_ok=True)
    run.set_up("cli-defaults", out_dir)
    import workloads

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    ref = {"commit": commit}
    for name in ("cli-defaults", "herald-circuit"):
        wl = workloads.make(name, out_dir)
        res = run.run_passes(wl, {}, 0, 0.0)
        if res["failed"]:
            sys.exit(f"{name}: {res['problems']}")
        ref[name] = res["values"]
    worst = {}
    wl = workloads.make("estimation", out_dir)
    for seed in CALIBRATION_SEEDS:
        res = run.run_passes(wl, {}, seed, 0.0)
        for item_id, values in res["values"].items():
            kind = item_id.split("-")[0]
            worst[kind] = max(worst.get(kind, 0.0), values["abs_error"])
    ref["calibration"] = {
        "seeds": len(CALIBRATION_SEEDS),
        "coefficients_err_max": worst["coefficients"],
        "coefficients_err_bound": workloads.COEFFICIENT_ERR_BOUND,
        "phase_err_max": worst["phase"],
        "phase_err_bound": workloads.PHASE_ERR_BOUND,
    }
    with open(os.path.join(run.HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
