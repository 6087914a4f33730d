"""Span tracing from outside the program.

:func:`install` wraps public entry points of each layer — class methods
and the module-level bindings of a few functions — so that every call
records a span ``(layer, start, end, parent)``. Spans live in flat
arrays in memory and are written out once, at the end of the run.

A call into a layer that is already the innermost open span (a method
of one layer calling another of the same layer) is folded into that
span, so ``calls`` counts entries into the layer from outside it.
A layer's self time is its spans' duration minus the time their
direct children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.items = array("q")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    # ------------------------------------------------------------------
    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def open_layers(self) -> list[str]:
        return [self.layers[self.layer[i]] for i in self._stack]

    def wrap(self, name: str, fn, items=None, on_enter=None):
        """``fn`` recording a span of layer ``name`` per outside call.

        ``items(args, kwargs)`` gives the span's work-item count;
        ``on_enter(tracer, args, kwargs)`` updates counters when a span
        opens.
        """
        layer_id = self._layer_id(name)
        stack = self._stack
        now = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and self.layer[stack[-1]] == layer_id:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(self, args, kwargs)
            index = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            self.items.append(items(args, kwargs) if items is not None else 1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = now()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "items": np.frombuffer(self.items, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, layers=np.array(self.layers), **self.arrays())


def layer_stats(layers: list[str], a: dict, under: str | None = None) -> dict[str, dict]:
    """Per layer: calls, items, total and self seconds, span durations.

    With ``under``, only spans inside a span of that layer count (the
    layer itself included), which splits its time over the layers below.
    """
    duration = a["end"] - a["start"]
    covered = np.zeros_like(duration)
    child = a["parent"] >= 0
    np.add.at(covered, a["parent"][child], duration[child])
    own = duration - covered
    keep = np.ones(len(duration), dtype=bool)
    if under is not None:
        # Parents open before their children, so one pass in index order.
        target = layers.index(under) if under in layers else -1
        for i, (layer, parent) in enumerate(zip(a["layer"], a["parent"])):
            keep[i] = layer == target or (parent >= 0 and keep[parent])
    stats = {}
    for layer_id, name in enumerate(layers):
        mask = (a["layer"] == layer_id) & keep
        stats[name] = {
            "calls": int(mask.sum()),
            "items": int(a["items"][mask].sum()),
            "total_s": float(duration[mask].sum()),
            "self_s": float(own[mask].sum()),
            "durations": duration[mask],
        }
    return stats


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _patch_method(tracer, name, cls, method, **kw) -> None:
    setattr(cls, method, tracer.wrap(name, cls.__dict__[method], **kw))


def _patch_function(tracer, name, module, attr, **kw) -> None:
    """Replace ``module.attr`` and every ``repro`` module's binding of it."""
    original = getattr(module, attr)
    traced = tracer.wrap(name, original, **kw)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "repro" or mod_name.startswith(("repro.", "workloads"))) and (
            getattr(mod, attr, None) is original
        ):
            setattr(mod, attr, traced)


def _count_collector(batched: bool):
    """Samples requested: a ``*_many`` call asks for ``len(requests)``."""

    def on_enter(tracer, args, kwargs):
        if batched:
            tracer.counters["collector.batched"] += len(args[1])
        else:
            tracer.counters["collector.scalar"] += 1

    return on_enter


def _count_mix_scenarios(tracer, args, kwargs):
    tracer.counters["nic.mix_scenarios"] += sum(len(s) > 1 for s in args[1])


def _count_run_in_batch(tracer, args, kwargs):
    if "nic.run_batch" in tracer.open_layers():
        tracer.counters["nic.run_in_batch"] += 1
        tracer.counters["nic.mix_run_in_batch"] += len(args[1]) > 1


POLICY_HOOKS = ("choose_nic", "rebalance", "on_probe", "on_violation", "replace_evicted")
PREDICTOR_METHODS = {
    "YalaSystem": ("predict", "predict_batch", "predict_colocation", "predict_colocation_batch"),
    "YalaPredictor": ("predict", "predict_many", "predict_with_cached"),
}


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark reports."""
    import workloads
    from repro import rng
    from repro.core import predictor
    from repro.experiments import table2_overall_accuracy
    from repro.fleet import engine, policies, runtime
    from repro.ml.gbr import GradientBoostingRegressor
    from repro.nic import batch  # noqa: F401  (imported lazily by run_batch)
    from repro.nic.nic import SmartNic
    from repro.profiling import sampling
    from repro.profiling.adaptive import AdaptiveProfiler
    from repro.profiling.collector import ProfilingCollector

    _patch_method(tracer, "nic.run", SmartNic, "run", on_enter=_count_run_in_batch)
    _patch_method(
        tracer, "nic.run_batch", SmartNic, "run_batch",
        items=lambda args, kwargs: len(args[1]), on_enter=_count_mix_scenarios,
    )
    _patch_function(tracer, "rng.derive_seed", rng, "derive_seed")

    for cls in (engine.FleetEngine, engine.EventEngine):
        _patch_method(tracer, "fleet.engine", cls, "run")
    for method in ("score_pods", "warm_solos"):
        _patch_method(tracer, f"fleet.runtime.{method}", runtime.SerialRuntime, method)
    for cls in vars(policies).values():
        if isinstance(cls, type) and issubclass(cls, policies.FleetPolicy):
            for method in POLICY_HOOKS:
                if method in cls.__dict__:
                    _patch_method(tracer, "fleet.policies", cls, method)

    for cls_name, methods in PREDICTOR_METHODS.items():
        for method in methods:
            _patch_method(tracer, "core.predictor", getattr(predictor, cls_name), method)

    _patch_method(tracer, "ml.gbr.fit", GradientBoostingRegressor, "fit")
    _patch_method(
        tracer, "ml.gbr.predict", GradientBoostingRegressor, "predict",
        items=lambda args, kwargs: len(args[1]),
    )

    _patch_method(tracer, "profiling.adaptive", AdaptiveProfiler, "profile")
    for attr in ("full_profile", "random_profile"):
        _patch_function(tracer, "profiling.sampling", sampling, attr)
    for method, batched in (
        ("solo", False), ("profile_one", False), ("co_run_with", False),
        ("solo_many", True), ("profile_many", True), ("co_run_many", True),
    ):
        _patch_method(
            tracer, "profiling.collector", ProfilingCollector, method,
            on_enter=_count_collector(batched),
        )
    _patch_method(tracer, "profiling.collector", ProfilingCollector, "bench_counters")

    _patch_function(tracer, "experiments.table2", table2_overall_accuracy, "run")
    _patch_function(tracer, "experiments.table8", workloads, "table8_subset")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, program_counters: dict) -> dict[str, tuple[float, str]]:
    """``{metric: (value, unit)}`` for every per-layer metric."""
    stats = layer_stats(tracer.layers, tracer.arrays())
    empty = {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0,
             "durations": np.zeros(0)}

    def get(name: str) -> dict:
        return stats.get(name, empty)

    c = tracer.counters
    predictor_ms = get("core.predictor")["durations"] * 1e3
    gbr_predict = get("ml.gbr.predict")
    collected = c["collector.batched"] + c["collector.scalar"]
    return {
        "nic.run.calls": (get("nic.run")["calls"], "count"),
        "nic.run.self_s": (get("nic.run")["self_s"], "s"),
        "nic.run_batch.calls": (get("nic.run_batch")["calls"], "count"),
        "nic.run_batch.scenarios": (get("nic.run_batch")["items"], "count"),
        "nic.run_batch.self_s": (get("nic.run_batch")["self_s"], "s"),
        "nic.scalar_fallback_share": (
            _ratio(c["nic.run_in_batch"], get("nic.run_batch")["items"]), "ratio"
        ),
        "nic.mix_fallback_share": (
            _ratio(c["nic.mix_run_in_batch"], c["nic.mix_scenarios"]), "ratio"
        ),
        "nic.solver.iterations": (program_counters.get("nic.solver.iterations", 0), "count"),
        "rng.derive_seed.calls": (get("rng.derive_seed")["calls"], "count"),
        "rng.derive_seed.self_s": (get("rng.derive_seed")["self_s"], "s"),
        "fleet.engine.self_s": (get("fleet.engine")["self_s"], "s"),
        "fleet.runtime.score_pods.self_s": (get("fleet.runtime.score_pods")["self_s"], "s"),
        "fleet.runtime.warm_solos.self_s": (get("fleet.runtime.warm_solos")["self_s"], "s"),
        "fleet.policies.calls": (get("fleet.policies")["calls"], "count"),
        "fleet.policies.self_s": (get("fleet.policies")["self_s"], "s"),
        "fleet.policies.total_s": (get("fleet.policies")["total_s"], "s"),
        "core.predictor.calls": (get("core.predictor")["calls"], "count"),
        "core.predictor.self_s": (get("core.predictor")["self_s"], "s"),
        "core.predictor.p50_ms": (
            float(np.percentile(predictor_ms, 50)) if predictor_ms.size else 0.0, "ms"
        ),
        "core.predictor.p99_ms": (
            float(np.percentile(predictor_ms, 99)) if predictor_ms.size else 0.0, "ms"
        ),
        "ml.gbr.predict.calls": (gbr_predict["calls"], "count"),
        "ml.gbr.predict.rows_per_call": (
            _ratio(gbr_predict["items"], gbr_predict["calls"]), "rows"
        ),
        "ml.gbr.predict.self_s": (gbr_predict["self_s"], "s"),
        "ml.gbr.fit.calls": (get("ml.gbr.fit")["calls"], "count"),
        "ml.gbr.fit.self_s": (get("ml.gbr.fit")["self_s"], "s"),
        "profiling.adaptive.self_s": (get("profiling.adaptive")["self_s"], "s"),
        "profiling.sampling.self_s": (get("profiling.sampling")["self_s"], "s"),
        "profiling.sampling.total_s": (get("profiling.sampling")["total_s"], "s"),
        "profiling.collector.self_s": (get("profiling.collector")["self_s"], "s"),
        "profiling.collector.batched_share": (
            _ratio(c["collector.batched"], collected), "ratio"
        ),
        "experiments.table2_s": (get("experiments.table2")["total_s"], "s"),
        "experiments.table8_s": (get("experiments.table8")["total_s"], "s"),
    }
