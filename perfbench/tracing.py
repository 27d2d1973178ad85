"""In-process tracer: spans around the calls into each lorentzbath layer.

The program is not edited.  ``Tracer.install`` replaces each traced function
at every module that binds it (``sweep`` imports ``bessel_jn`` and
``wootters_concurrence`` by name, ``cli`` imports ``solve_amplitude``, the
package re-exports most of them) and ``uninstall`` puts the originals back.

A span has a name, start, end, parent and op id.  Hot leaves (the generator
``rhs``, ``bessel_jn``, single-point ``_amplitude_arrays``, density-matrix
validation, Wootters) would cost more as span objects than they measure, so
each call adds to a count and a summed time under the enclosing span.  A
span's self time is its duration minus its child spans and leaves.  No leaf
calls another traced function, so leaf time is never counted twice.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

_now = time.perf_counter

SPANS = (
    "cli.main",
    "sweep.heatmap", "sweep.cmax_curve", "sweep.verify",
    "analytic.c_max",
    "lindblad.integrate",
    "multimode.sample_bath", "multimode.evolve",
    "sideband.solve_amplitude",
)
# traced name -> (module, attribute); the mutated generator injected by
# verify's mutation check is a generator call like the built-in one
LEAVES = {
    "analytic._amplitude_arrays": ("analytic", "_amplitude_arrays"),
    "lindblad.rhs": ("lindblad", "rhs"),
    "lindblad.rhs_injected": ("sweep", "_mutated_rhs"),
    "sideband.bessel_jn": ("sideband", "bessel_jn"),
    "entanglement.wootters_concurrence": ("entanglement", "wootters_concurrence"),
}


def _points(args, kwargs, result):
    return {"analytic.points": int(np.size(args[1]))}


def _samples(args, kwargs, result):
    return {"lindblad.samples": len(result.taus)}


def _mode_samples(args, kwargs, result):
    return {"multimode.mode_samples": args[0].n_modes * len(result.taus)}


COUNTERS = {
    "analytic._amplitude_arrays": _points,
    "lindblad.integrate": _samples,
    "multimode.evolve": _mode_samples,
}


# Every per-layer metric with its unit and direction.  Counts are work done
# and repeat exactly between runs of one seed; the rest are times and ratios.
PER_LAYER = {
    "import.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.cells": ("count", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "cli.ns_per_cell": ("ns", "lower"),
    "sweep.heatmap.s": ("s", "lower"),
    "sweep.cmax_curve.s": ("s", "lower"),
    "sweep.verify.s": ("s", "lower"),
    "sweep.self_s": ("s", "lower"),
    "sweep.parallel_efficiency": ("1", "higher"),
    "analytic.amplitude_arrays.calls": ("count", "lower"),
    "analytic.points": ("count", "lower"),
    "analytic.points_per_call": ("1", "higher"),
    "analytic.ns_per_point": ("ns", "lower"),
    "analytic.c_max.calls": ("count", "lower"),
    "analytic.c_max.us_per_call": ("us", "lower"),
    "lindblad.integrate.calls": ("count", "lower"),
    "lindblad.integrate.s": ("s", "lower"),
    "lindblad.rhs.calls": ("count", "lower"),
    "lindblad.rhs.us_per_call": ("us", "lower"),
    "lindblad.samples": ("count", "lower"),
    "lindblad.rhs_per_sample": ("1", "lower"),
    "lindblad.us_per_sample": ("us", "lower"),
    "model.validate.calls": ("count", "lower"),
    "model.validate.s": ("s", "lower"),
    "multimode.evolve.s": ("s", "lower"),
    "multimode.sample_bath.s": ("s", "lower"),
    "multimode.mode_samples": ("count", "lower"),
    "multimode.ns_per_mode_sample": ("ns", "lower"),
    "sideband.bessel_jn.calls": ("count", "lower"),
    "sideband.bessel_jn.us_per_call": ("us", "lower"),
    "sideband.solve_amplitude.s": ("s", "lower"),
    "entanglement.wootters_concurrence.calls": ("count", "lower"),
    "entanglement.wootters_concurrence.us_per_call": ("us", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "src.lines": ("lines", "lower"),
}


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_time", "leaves")

    def __init__(self, name, op, parent, start):
        self.name, self.op, self.parent, self.start = name, op, parent, start
        self.end = None
        self.child_time = 0.0
        self.leaves = {}

    def as_dict(self) -> dict:
        return {"name": self.name, "op": self.op, "parent": self.parent,
                "start": self.start, "end": self.end,
                "leaves": {k: {"calls": c, "s": t} for k, (c, t) in self.leaves.items()}}


class Tracer:
    """Spans and counts of one pass; install before the pass, uninstall after."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None
        self.calls = Counter()
        self.time = Counter()
        self.counts = Counter()
        self.bindings: list[str] = []
        self._patches = []

    # -- wrappers

    def _span(self, name, fn, counter):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(Span(name, self.op, self.stack[-1] if self.stack else None, _now()))
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.spans[idx]
                span.end = _now()
                self.stack.pop()
                dur = span.end - span.start
                self.calls[name] += 1
                self.time[name] += dur
                if self.stack:
                    self.spans[self.stack[-1]].child_time += dur
            if counter:
                self.counts.update(counter(args, kwargs, result))
            return result
        return traced

    def _leaf(self, name, fn, counter):
        def traced(*args, **kwargs):
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _now() - t0
                self.calls[name] += 1
                self.time[name] += dur
                if self.stack:
                    parent = self.spans[self.stack[-1]]
                    parent.child_time += dur
                    agg = parent.leaves.setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dur
            if counter:
                self.counts.update(counter(args, kwargs, result))
            return result
        return traced

    # -- installation

    def _patch_everywhere(self, module: str, attr: str, wrapper_for):
        original = getattr(sys.modules[f"lorentzbath.{module}"], attr)
        wrapper = wrapper_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "lorentzbath":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))
                    self.bindings.append(f"{mod_name}.{key}")

    def install(self):
        for name in SPANS:
            module, attr = name.split(".")
            self._patch_everywhere(module, attr,
                                   lambda fn, n=name: self._span(n, fn, COUNTERS.get(n)))
        for name, (module, attr) in LEAVES.items():
            self._patch_everywhere(module, attr,
                                   lambda fn, n=name: self._leaf(n, fn, COUNTERS.get(n)))
        # every DensityMatrix3 construction runs the validator in __post_init__
        cls = sys.modules["lorentzbath.model"].DensityMatrix3
        original = cls.__post_init__
        cls.__post_init__ = self._leaf("model.validate", original, None)
        self._patches.append((cls, "__post_init__", original))
        self.bindings.append("lorentzbath.model.DensityMatrix3.__post_init__")

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- aggregation

    def self_time(self, module: str) -> float:
        return sum(s.end - s.start - s.child_time
                   for s in self.spans if s.name.split(".")[0] == module)

    def layer_metrics(self, cells: int, data_bytes: int) -> dict:
        """Per-layer values of one pass; ratios read 0 where the layer was idle."""
        c, t, n = self.calls, self.time, self.counts

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        rhs_calls = c["lindblad.rhs"] + c["lindblad.rhs_injected"]
        rhs_time = t["lindblad.rhs"] + t["lindblad.rhs_injected"]
        cli_self = self.self_time("cli")
        return {
            "cli.self_s": cli_self,
            "cli.cells": cells,
            "cli.bytes_out": data_bytes,
            "cli.ns_per_cell": per(cli_self, cells, 1e9),
            "sweep.heatmap.s": t["sweep.heatmap"],
            "sweep.cmax_curve.s": t["sweep.cmax_curve"],
            "sweep.verify.s": t["sweep.verify"],
            "sweep.self_s": self.self_time("sweep"),
            "analytic.amplitude_arrays.calls": c["analytic._amplitude_arrays"],
            "analytic.points": n["analytic.points"],
            "analytic.points_per_call": per(n["analytic.points"], c["analytic._amplitude_arrays"]),
            "analytic.ns_per_point": per(t["analytic._amplitude_arrays"], n["analytic.points"], 1e9),
            "analytic.c_max.calls": c["analytic.c_max"],
            "analytic.c_max.us_per_call": per(t["analytic.c_max"], c["analytic.c_max"], 1e6),
            "lindblad.integrate.calls": c["lindblad.integrate"],
            "lindblad.integrate.s": t["lindblad.integrate"],
            "lindblad.rhs.calls": rhs_calls,
            "lindblad.rhs.us_per_call": per(rhs_time, rhs_calls, 1e6),
            "lindblad.samples": n["lindblad.samples"],
            "lindblad.rhs_per_sample": per(rhs_calls, n["lindblad.samples"]),
            "lindblad.us_per_sample": per(t["lindblad.integrate"], n["lindblad.samples"], 1e6),
            "model.validate.calls": c["model.validate"],
            "model.validate.s": t["model.validate"],
            "multimode.evolve.s": t["multimode.evolve"],
            "multimode.sample_bath.s": t["multimode.sample_bath"],
            "multimode.mode_samples": n["multimode.mode_samples"],
            "multimode.ns_per_mode_sample": per(t["multimode.evolve"], n["multimode.mode_samples"], 1e9),
            "sideband.bessel_jn.calls": c["sideband.bessel_jn"],
            "sideband.bessel_jn.us_per_call": per(t["sideband.bessel_jn"], c["sideband.bessel_jn"], 1e6),
            "sideband.solve_amplitude.s": t["sideband.solve_amplitude"],
            "entanglement.wootters_concurrence.calls": c["entanglement.wootters_concurrence"],
            "entanglement.wootters_concurrence.us_per_call": per(
                t["entanglement.wootters_concurrence"], c["entanglement.wootters_concurrence"], 1e6),
        }
