"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload runs clean against reference.json, that the
metric names and units the runner emits are the ones BENCHMARK.json
declares, that the tracer puts back every name it rebinds, and that a
perturbed reference value is reported as a failed item. Exits non-zero
on the first failed check.
"""

import copy
import json
import os
import sys
import tempfile

import run

# one reference value per checked workload, all inside the tiny passes
PERTURB = {
    "cli-defaults": ("negativity-sweep", "s=2", "V"),
    "herald-circuit": ("s=5,r=0.1,eta=1.0", None, "P"),
}


def pbsim_bindings():
    return {(name, attr): id(value)
            for name, module in sys.modules.items()
            if module is not None and name.split(".")[0] == "pbsim"
            for attr, value in vars(module).items()}


def declared(bench, section):
    return {m["name"]: m["unit"] for m in bench[section]}


def expect(ok, message):
    if not ok:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def main():
    run.pin_threads()
    with open(os.path.join(run.HERE, "reference.json"),
              encoding="utf-8") as fh:
        reference = json.load(fh)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e_declared = declared(bench, "end_to_end")
    layer_declared = declared(bench, "per_layer")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the runner's workloads")
    os.makedirs(run.OUT_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as out_dir:
        for name in run.WORKLOADS:
            wl, setup_s = run.set_up(name, out_dir)
            from tracer import LAYERS, Tracer

            plain = run.run_passes(wl, reference, 0, 0.0, tiny=True)
            expect(plain["failed"] == 0 and plain["attempted"] > 0,
                   f"{name}: {plain['attempted']} tiny items pass "
                   f"{plain['problems']}")
            e2e = {k: unit for k, (_, unit, _) in
                   run.end_to_end([setup_s], plain).items()}
            expect(e2e == e2e_declared,
                   f"{name}: end-to-end names and units match BENCHMARK.json")

            before = pbsim_bindings()
            with Tracer() as tracer:
                wrapped = len(tracer._rebound)
                traced = run.run_passes(wl, reference, 0, 0.0, tracer,
                                        tiny=True)
            expect(wrapped >= sum(len(f) for _, f in LAYERS.values()),
                   f"{name}: tracer rebound {wrapped} names")
            expect(pbsim_bindings() == before,
                   f"{name}: tracer restored every rebound name")
            expect(traced["failed"] == 0 and len(tracer.spans) > 0,
                   f"{name}: traced tiny pass passes, "
                   f"{len(tracer.spans)} spans")
            layer = {k: unit for k, (_, unit) in
                     run.per_layer(tracer, plain, traced).items()}
            expect(layer == layer_declared,
                   f"{name}: per-layer names and units match BENCHMARK.json "
                   f"(extra {sorted(set(layer) - set(layer_declared))}, "
                   f"missing {sorted(set(layer_declared) - set(layer))})")

            if name in PERTURB:
                item_id, key, quantity = PERTURB[name]
                bad = copy.deepcopy(reference)
                entry = bad[name][item_id]
                entry = entry[key] if key else entry
                entry[quantity] *= 1.0 + 1e-3
                res = run.run_passes(wl, bad, 0, 0.0, tiny=True)
                expect(res["failed"] == 1 and item_id in res["problems"][0],
                       f"{name}: perturbed {item_id} {key} {quantity} "
                       f"reported as {res['problems']}")
    print("selftest passed")


if __name__ == "__main__":
    main()
