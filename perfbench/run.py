"""pbsim benchmark: one workload, one run, metrics as a JSON last line.

    python3 perfbench/run.py --workload cli-defaults --seed 0 --seconds 20 \\
        --trace 0
    for w in cli-defaults herald-circuit estimation; do
        python3 perfbench/run.py --workload $w; done
    python3 perfbench/selftest.py

Workloads (see workloads.py and BENCHMARK.json): cli-defaults,
herald-circuit and estimation. Each is a closed loop in this one
process: the next item starts when the previous one returns. BLAS and
OpenMP threads are pinned to at most nproc before numpy is imported.

--trace 0 prints the end-to-end metrics: setup_s (median over three
fresh interpreters of importing pbsim plus the workload's warm-up),
run_s (median wall time of one pass, result checks excluded),
items_per_s (items over the whole measured time) and peak_rss_mb.
--trace 1 runs untraced passes, then the same passes with every layer
traced (tracer.py), and prints the per-layer metrics per traced pass,
with the tracing overhead trace.overhead_s = trace.run_s -
trace.untraced_run_s (mean pass times). Spans are written to
.perfbench-out/ in the checkout.

Every item's result values are compared with the seed commit's values
in reference.json; a mismatch or an exception is a failed item. The
lines before the last one report the environment, each metric's median,
quartiles and sample count, and the result values.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("cli-defaults", "herald-circuit", "estimation")


def pin_threads() -> int:
    """Cap BLAS and OpenMP threads at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 0 < current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def set_up(workload: str, out_dir: str):
    """Import pbsim and warm the workload's caches; returns (obj, seconds)."""
    t0 = perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads  # imports numpy and pbsim

    wl = workloads.make(workload, out_dir)
    wl.warm_up()
    return wl, perf_counter() - t0


def setup_probe(workload: str) -> float:
    """set_up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--setup-probe"], capture_output=True, text=True, timeout=120,
        cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_passes(wl, reference, seed, seconds, tracer=None, tiny=False,
               passes=None):
    """Closed loop of whole passes until `seconds` have been measured,
    or exactly `passes` passes when given."""
    import numpy as np

    from workloads import compare

    rng = np.random.default_rng(seed)
    ref = reference.get(wl.name)
    res = {"pass_s": [], "pass_items": [], "attempted": 0, "failed": 0,
           "problems": [], "values": {}, "item_s": {}, "abs_errors": [],
           "bytes_out": 0}
    measured = 0.0
    while True:
        pass_s = 0.0
        batch = wl.items(rng, tiny)
        for item in batch:
            res["attempted"] += 1
            if tracer is not None:
                tracer.item = f"{len(res['pass_s'])}:{item.id}"
                scope = tracer.span(item.span, item.layer)
            else:
                scope = nullcontext()
            t0 = perf_counter()
            try:
                with scope:
                    out = item.call()
            except Exception as exc:  # a raising item is a failed item
                pass_s += perf_counter() - t0
                res["failed"] += 1
                res["problems"].append(f"{item.id}: {exc!r}")
                continue
            dt = perf_counter() - t0
            pass_s += dt
            res["item_s"].setdefault(item.id, []).append(dt)
            try:
                values, problems = item.check(out)
                problems = [f"{item.id}: {p}" for p in problems]
                if ref is not None:
                    problems += compare(values, ref[item.id], not tiny,
                                        item.id)
            except Exception as exc:  # output that cannot be checked
                values, problems = {}, [f"{item.id}: check: {exc!r}"]
            if item.out_path is not None:
                res["bytes_out"] += os.path.getsize(item.out_path)
            if "abs_error" in values:
                res["abs_errors"].append(np.max(values["abs_error"]))
            res["values"][item.id] = values
            if problems:
                res["failed"] += 1
                res["problems"] += problems
        res["pass_s"].append(pass_s)
        res["pass_items"].append(len(batch))
        measured += pass_s
        done = len(res["pass_s"])
        if done == passes or (passes is None and measured >= seconds):
            return res


def quartiles(values):
    """(q1, median, q3); a single sample is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(nproc: int) -> dict:
    import ctypes
    import importlib.util
    import platform

    import numpy
    import scipy

    import pbsim

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "blas" in ln.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    backend = getattr(pbsim, "backend", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "pbsim_backend": backend() if backend else None,
    }


def end_to_end(setups, res):
    """name -> (value, unit, samples).

    setup_s and run_s are medians of their samples. items_per_s is the
    throughput over the whole measured time, which weighs slow passes
    fully; its samples are the per-pass rates.
    """
    rss = peak_rss_mb()
    return {
        "setup_s": (statistics.median(setups), "s", setups),
        "run_s": (statistics.median(res["pass_s"]), "s", res["pass_s"]),
        "items_per_s": (sum(res["pass_items"]) / sum(res["pass_s"]), "1/s",
                        [n / t for n, t in zip(res["pass_items"],
                                               res["pass_s"])]),
        "peak_rss_mb": (rss, "MB", [rss]),
    }


def per_layer(tracer, plain, traced):
    """Per-layer metrics per traced pass. The traced passes repeat the
    untraced ones input for input, so the tracing overhead is the
    difference of their mean pass times."""
    passes = len(traced["pass_s"])
    metrics = tracer.summary(passes)
    untraced = statistics.mean(plain["pass_s"])
    run_s = statistics.mean(traced["pass_s"])
    metrics["cli.bytes_out"] = (traced["bytes_out"] / passes, "B")
    metrics["phase_est.abs_err_max"] = (
        max(traced["abs_errors"], default=0.0), "1")
    metrics["trace.run_s"] = (run_s, "s")
    metrics["trace.untraced_run_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (run_s - untraced, "s")
    return metrics


def workload_extras(workload, res):
    """Workload-specific names for the generic metrics, for the report."""
    def item_median(item_id):
        return statistics.median(res["item_s"].get(item_id, [float("nan")]))

    rate = sum(res["pass_items"]) / sum(res["pass_s"])
    if workload == "cli-defaults":
        return {"herald_sweep_s": (item_median("herald-sweep"), "s"),
                "negativity_sweep_s": (item_median("negativity-sweep"), "s")}
    if workload == "herald-circuit":
        return {"herald_points_per_s": (rate, "1/s")}
    return {"estimates_per_s": (rate, "1/s")}


def report(args, env, setups, runs, layers):
    """Everything printed before the JSON result line."""
    plain = runs[0]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, samples) in end_to_end(setups, plain).items():
        q1, med, q3 = quartiles(samples)
        print(f"{name} = {value!r} {unit} (samples: median {med!r}, "
              f"q1 {q1!r}, q3 {q3!r}, n={len(samples)})")
    for name, (value, unit) in workload_extras(args.workload, plain).items():
        print(f"{name} = {value!r} {unit}")
    for label, res in zip(("untraced", "traced"), runs):
        attempted, failed = res["attempted"], res["failed"]
        print(f"failed_frac = {failed / attempted!r} ({failed}/{attempted} "
              f"items, {label})")
        for problem in res["problems"][:20]:
            print(f"FAILED {problem}")
    if layers:
        self_sum = layers["trace.self_sum_s"][0]
        untraced = layers["trace.untraced_run_s"][0]
        print(f"trace accounting: layers' self time {self_sum!r} s per pass, "
              f"untraced mean pass {untraced!r} s, difference "
              f"{self_sum - untraced!r} s, tracing overhead "
              f"{layers['trace.overhead_s'][0]!r} s")
    print("values " + json.dumps(runs[-1]["values"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    nproc = pin_threads()

    os.makedirs(OUT_ROOT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT)
    try:
        try:
            wl, setup_s = set_up(args.workload, out_dir)
        except ImportError as exc:
            print(f"perfbench: cannot import pbsim from {ROOT}/src: {exc}",
                  file=sys.stderr)
            return 2
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        setups = [setup_s] + [setup_probe(args.workload)
                              for _ in range(SETUP_SAMPLES - 1)]
        with open(os.path.join(HERE, "reference.json"),
                  encoding="utf-8") as fh:
            reference = json.load(fh)

        plain = run_passes(wl, reference, args.seed, args.seconds)
        runs = [plain]
        layers = None
        if args.trace:
            from tracer import Tracer

            with Tracer() as tracer:
                runs.append(run_passes(wl, reference, args.seed,
                                       args.seconds, tracer,
                                       passes=len(plain["pass_s"])))
            tracer.dump(os.path.join(
                OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.json"))
            layers = per_layer(tracer, plain, runs[1])
        metrics = layers or {name: (value, unit) for name, (value, unit, _)
                             in end_to_end(setups, plain).items()}
        report(args, environment(nproc), setups, runs, layers)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
