"""Span tracer that times pbsim's layers from outside the package.

A layer is one pbsim module. The tracer rebinds each public function
listed in LAYERS to a timing wrapper, in every loaded pbsim module that
holds a reference to it (``pbsim.wigner.wigner_batch`` and
``pbsim._kernels.wigner_batch`` are the same function under two names,
and calls made inside the package look the name up at call time). It
restores the originals on exit. pbsim's source is not touched.

Each call records a span [name, layer, start, end, parent, item]. Spans
stay in memory; summary() turns them into per-layer metrics and dump()
writes them out. A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# layer -> (module, public functions wrapped in it). Functions without a
# metric of their own (sweep, herald_point, detector_povm, ...) are
# wrapped so that their time is charged to their layer, not to the self
# time of whoever called them.
LAYERS = {
    "kernels": ("pbsim._kernels", ("wigner_batch",)),
    "wigner": ("pbsim.wigner", ("negativity_volume",
                                "negativity_volume_detailed",
                                "effective_radius", "wigner_grid")),
    "herald": ("pbsim.herald", ("sweep", "herald_point", "herald_alphas",
                                "build_state")),
    "fock": ("pbsim.fock", ("conditional_density", "fidelity_pure")),
    "ops": ("pbsim.ops", ("apply_two_mode_unitary", "apply_single_mode_op",
                          "displacement_op", "detector_povm")),
    "phase_est": ("pbsim.phase_est", ("estimate_coefficients",
                                      "estimate_phase", "sample_outcomes",
                                      "interference_probs")),
    "phase_states": ("pbsim.phase_states", ("pb_eigenstate", "phase_state",
                                            "phase_value")),
}
# layers whose spans the benchmark opens itself, around its calls
OWN_LAYERS = ("cli", "bench")
CLI_COMMANDS = ("wigner-grid", "negativity-sweep", "radius-sweep",
                "herald-sweep", "phase-sim")

NAME, LAYER, START, END, PARENT, ITEM = range(6)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_wigner_batch(c, args, kwargs, result):
    dim = np.shape(_arg(args, kwargs, 0, "rho"))[0]
    points = int(np.size(_arg(args, kwargs, 1, "qs")))
    c["points"] += points
    # operation count of the kernel: one recurrence step per (point, m >= n)
    c["terms"] += points * dim * (dim + 1) // 2


def _count_negativity(c, args, kwargs, result):
    c["evaluations"] += result.evaluations
    c["max_depth"] = max(c["max_depth"], result.max_depth_reached)
    c["tail_max"] = max(c["tail_max"], result.tail_estimate)


def _count_build_state(c, args, kwargs, result):
    c["max_amplitudes"] = max(c["max_amplitudes"], result.amplitudes.size)
    # computed from the result, not measured: bytes of the output tensor
    c["bytes_computed"] += result.amplitudes.nbytes


def _count_input_amplitudes(c, args, kwargs, result):
    c["amplitudes"] += _arg(args, kwargs, 0, "state").amplitudes.size


COUNTERS = {
    "kernels.wigner_batch": _count_wigner_batch,
    "wigner.negativity_volume_detailed": _count_negativity,
    "herald.build_state": _count_build_state,
    "fock.conditional_density": _count_input_amplitudes,
    "ops.apply_two_mode_unitary": _count_input_amplitudes,
}


class Tracer:
    """Records spans while installed; use as ``with Tracer() as t:``."""

    def __init__(self):
        self.spans = []
        self.counters = {name: defaultdict(int) for name in COUNTERS}
        self.item = None
        self._stack = []
        self._rebound = []

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pbsim"
                                         or name.startswith("pbsim."))]
        for layer, (module_name, names) in LAYERS.items():
            home = sys.modules[module_name]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))

    def uninstall(self):
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        span = [name, layer, 0.0, 0.0, parent, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name, layer, fn):
        count = COUNTERS.get(name)
        counters = self.counters.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name, layer):
        """A span opened by the benchmark itself (cli calls, item roots)."""
        span = self._open(name, layer)
        span[START] = perf_counter()
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent",
                                  "item"], "spans": self.spans}, fh)

    def summary(self, passes: int) -> dict:
        """Per-layer metrics per traced pass: name -> (value, unit)."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        covered = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                covered[s[PARENT]] += dur[i]
        self_time = [d - c for d, c in zip(dur, covered)]

        def select(pred):
            return [i for i, s in enumerate(spans) if pred(s)]

        def busy(ids):
            # time inside any selected span, nested ones counted once
            chosen = set(ids)
            total = 0.0
            for i in ids:
                p = spans[i][PARENT]
                while p >= 0 and p not in chosen:
                    p = spans[p][PARENT]
                if p < 0:
                    total += dur[i]
            return total

        def fn_stats(name):
            ids = select(lambda s: s[NAME] == name)
            return (ids, len(ids) / passes, busy(ids) / passes,
                    sum(self_time[i] for i in ids) / passes)

        m = {}
        c = self.counters

        kb, kb_calls, kb_busy, _ = fn_stats("kernels.wigner_batch")
        points = c["kernels.wigner_batch"]["points"]
        m["kernels.wigner_batch.calls"] = (kb_calls, "count")
        m["kernels.wigner_batch.points"] = (points / passes, "count")
        m["kernels.wigner_batch.terms"] = (
            c["kernels.wigner_batch"]["terms"] / passes, "count")
        m["kernels.wigner_batch.busy_s"] = (kb_busy, "s")
        m["kernels.wigner_batch.points_per_s"] = (
            points / (kb_busy * passes) if kb_busy else 0.0, "1/s")
        m["kernels.wigner_batch.points_per_call"] = (
            points / len(kb) if kb else 0.0, "count")

        nv = c["wigner.negativity_volume_detailed"]
        _, calls, busy_s, self_s = fn_stats(
            "wigner.negativity_volume_detailed")
        m["wigner.negativity_volume_detailed.calls"] = (calls, "count")
        m["wigner.negativity_volume_detailed.busy_s"] = (busy_s, "s")
        m["wigner.negativity_volume_detailed.self_s"] = (self_s, "s")
        m["wigner.negativity_volume_detailed.evaluations"] = (
            nv["evaluations"] / passes, "count")
        m["wigner.negativity_volume_detailed.max_depth"] = (
            nv["max_depth"], "count")
        m["wigner.negativity_volume_detailed.tail_max"] = (nv["tail_max"], "1")
        m["wigner.quad_share"] = (
            nv["evaluations"] / points if points else 0.0, "ratio")

        er, calls, busy_s, _ = fn_stats("wigner.effective_radius")
        er_set = set(er)
        kernel_calls = sum(1 for i in kb if spans[i][PARENT] in er_set)
        m["wigner.effective_radius.calls"] = (calls, "count")
        m["wigner.effective_radius.busy_s"] = (busy_s, "s")
        m["wigner.effective_radius.kernel_calls"] = (
            kernel_calls / passes, "count")
        m["wigner.wigner_grid.busy_s"] = (fn_stats("wigner.wigner_grid")[2],
                                          "s")

        bs = c["herald.build_state"]
        _, calls, busy_s, self_s = fn_stats("herald.build_state")
        m["herald.build_state.calls"] = (calls, "count")
        m["herald.build_state.busy_s"] = (busy_s, "s")
        m["herald.build_state.self_s"] = (self_s, "s")
        m["herald.build_state.max_amplitudes"] = (bs["max_amplitudes"],
                                                  "count")
        m["herald.build_state.bytes_computed"] = (
            bs["bytes_computed"] / passes, "B")
        m["herald.herald_alphas.busy_s"] = (
            fn_stats("herald.herald_alphas")[2], "s")

        _, calls, busy_s, _ = fn_stats("fock.conditional_density")
        m["fock.conditional_density.calls"] = (calls, "count")
        m["fock.conditional_density.busy_s"] = (busy_s, "s")
        m["fock.conditional_density.amplitudes"] = (
            c["fock.conditional_density"]["amplitudes"] / passes, "count")

        tm, calls, busy_s, _ = fn_stats("ops.apply_two_mode_unitary")
        m["ops.apply_two_mode_unitary.calls"] = (calls, "count")
        m["ops.apply_two_mode_unitary.busy_s"] = (busy_s, "s")
        m["ops.apply_two_mode_unitary.mean_amplitudes"] = (
            c["ops.apply_two_mode_unitary"]["amplitudes"] / len(tm)
            if tm else 0.0, "count")
        for fname in ("apply_single_mode_op", "displacement_op"):
            m[f"ops.{fname}.busy_s"] = (fn_stats(f"ops.{fname}")[2], "s")

        _, calls, busy_s, self_s = fn_stats("phase_est.estimate_coefficients")
        m["phase_est.estimate_coefficients.calls"] = (calls, "count")
        m["phase_est.estimate_coefficients.busy_s"] = (busy_s, "s")
        m["phase_est.estimate_coefficients.self_s"] = (self_s, "s")
        for fname in ("estimate_phase", "sample_outcomes",
                      "interference_probs"):
            m[f"phase_est.{fname}.busy_s"] = (
                fn_stats(f"phase_est.{fname}")[2], "s")

        ps = select(lambda s: s[LAYER] == "phase_states")
        m["phase_states.calls"] = (len(ps) / passes, "count")
        m["phase_states.busy_s"] = (busy(ps) / passes, "s")

        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}_s"] = (fn_stats(f"cli.{cmd}")[2], "s")
        for layer in list(LAYERS) + list(OWN_LAYERS):
            ids = select(lambda s, layer=layer: s[LAYER] == layer)
            m[f"{layer}.self_s"] = (
                sum(self_time[i] for i in ids) / passes, "s")
        m["trace.spans"] = (len(spans) / passes, "count")
        m["trace.self_sum_s"] = (sum(self_time) / passes, "s")
        return m
