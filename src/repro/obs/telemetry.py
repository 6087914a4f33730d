"""The report-embedded telemetry summary (schema v4, extended in v5).

:class:`TelemetryAccumulator` is the *always-on* half of the
observability layer: both fleet engines feed it regardless of whether
a recorder is attached, and its :meth:`payload` becomes the report's
``telemetry`` section.  That forces the hard contract — the section
may contain nothing execution-dependent, because reports must stay
byte-identical across ``--runtime``/``--jobs`` and with any recorder
(or none) attached.  Everything here derives purely from simulation
state:

- per-epoch solver iteration totals (batch and loop scoring produce
  identical per-scenario iteration counts — the fixed point's iterate
  path is bit-identical, so convergence happens on the same step);
- per-pod scoring task counts (pod decomposition is topology-derived,
  not runtime-derived);
- per-predictor prediction-vs-ground-truth residual aggregates — the
  free drift signal ROADMAP item 4 needs.  Residuals exist only for
  model-backed policies (``yala``/``rebalance``); the heuristic arms
  have no predictor to be wrong;
- (schema v5) the ``warm_start`` subsection: warm-cache
  hit/miss/invalidation totals and the warm-vs-cold split of solver
  iterations.  Always present with a constant shape; all-zero with
  ``enabled: false`` when warm-starting is off, so a cold report's
  bytes never depend on the feature existing.  The counts derive from
  the engines' warm cache, which is pure simulation history — hits are
  decided by resident-set structure, never by where or how fast
  anything ran.

Deliberately *absent*: runtime retry/rebuild/recovery counters.  Those
are execution facts (a ``FaultInjectingRuntime`` run must report the
same bytes as a serial run — tier-1 pins this), so they live in the
exec channel of the metrics snapshot instead
(``TraceRecorder.metrics_payload()``), never in the report.

The accumulator is plain picklable dicts and is checkpointed alongside
the engines' other state, so ``--resume`` runs reproduce the full
run's telemetry byte-for-byte.
"""

from __future__ import annotations

import math


class TelemetryAccumulator:
    """Accumulates sim-deterministic scoring telemetry for the report."""

    __slots__ = ("_epochs", "_pod_tasks", "_mixes_solved", "_iterations",
                 "_max_iterations", "_scenarios", "_residuals",
                 "_warm_enabled", "_warm_hits", "_warm_misses",
                 "_warm_invalidations", "_warm_iterations",
                 "_warm_scenarios", "_cold_iterations", "_cold_scenarios")

    def __init__(self) -> None:
        #: epoch bin -> [iterations, scenarios]
        self._epochs: dict[int, list[int]] = {}
        #: pod id -> scoring tasks dispatched
        self._pod_tasks: dict[int, int] = {}
        self._mixes_solved = 0
        self._iterations = 0
        self._max_iterations = 0
        self._scenarios = 0
        #: "<target>:<nf>" -> [count, sum_err, sum_abs_err, max_abs_err]
        self._residuals: dict[str, list[float]] = {}
        # Warm-start accounting (schema v5); inert unless enable_warm().
        self._warm_enabled = False
        self._warm_hits = 0
        self._warm_misses = 0
        self._warm_invalidations = 0
        self._warm_iterations = 0
        self._warm_scenarios = 0
        self._cold_iterations = 0
        self._cold_scenarios = 0

    # -- recording -----------------------------------------------------
    @property
    def warm_enabled(self) -> bool:
        """Whether this run is marked warm-started."""
        return self._warm_enabled

    def enable_warm(self) -> None:
        """Mark this run as warm-started (sets ``warm_start.enabled``)."""
        self._warm_enabled = True

    def record_scoring(self, sim_time: float,
                       pod_counts: list[tuple[int, int]],
                       iterations: list[int],
                       warm_flags: list[bool] | None = None) -> None:
        """Account one scoring pass at ``sim_time``.

        ``pod_counts`` is ``[(pod_id, scenario_count), ...]`` for the
        dispatched tasks; ``iterations`` the per-scenario
        iterations-to-converge of every newly solved mix.
        ``warm_flags``, aligned with ``iterations`` when warm-starting
        is on, says which solves were seeded from the warm cache —
        feeding the warm-vs-cold iteration split.
        """
        bin_ = int(math.floor(sim_time))
        entry = self._epochs.get(bin_)
        if entry is None:
            entry = self._epochs[bin_] = [0, 0]
        total = 0
        for count in iterations:
            total += count
            if count > self._max_iterations:
                self._max_iterations = count
        entry[0] += total
        entry[1] += len(iterations)
        self._iterations += total
        self._scenarios += len(iterations)
        self._mixes_solved += len(iterations)
        for pod_id, _scenarios in pod_counts:
            self._pod_tasks[pod_id] = self._pod_tasks.get(pod_id, 0) + 1
        if warm_flags is not None:
            for flag, count in zip(warm_flags, iterations):
                if flag:
                    self._warm_iterations += count
                    self._warm_scenarios += 1
                else:
                    self._cold_iterations += count
                    self._cold_scenarios += 1

    def record_warm_cache(
        self, hits: int, misses: int, invalidations: int
    ) -> None:
        """Account one scoring pass's warm-cache lookup outcomes."""
        self._warm_hits += hits
        self._warm_misses += misses
        self._warm_invalidations += invalidations

    def add_residual(self, predictor: str, error: float) -> None:
        """Account one prediction-vs-ground-truth throughput residual."""
        entry = self._residuals.get(predictor)
        if entry is None:
            entry = self._residuals[predictor] = [0, 0.0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += error
        abs_err = abs(error)
        entry[2] += abs_err
        if abs_err > entry[3]:
            entry[3] = abs_err

    # -- payload -------------------------------------------------------
    def payload(self) -> dict:
        """The report's ``telemetry`` section (JSON-ready, sorted)."""
        per_epoch = [
            {"epoch": epoch, "iterations": iters, "scenarios": scen}
            for epoch, (iters, scen) in sorted(self._epochs.items())
        ]
        pod_tasks = [
            {"pod": pod, "tasks": tasks}
            for pod, tasks in sorted(self._pod_tasks.items())
        ]
        residuals = [
            {
                "predictor": key,
                "count": int(count),
                "mean_error": total / count,
                "mean_abs_error": total_abs / count,
                "max_abs_error": max_abs,
            }
            for key, (count, total, total_abs, max_abs)
            in sorted(self._residuals.items())
        ]
        return {
            "solver": {
                "iterations_total": self._iterations,
                "max_iterations": self._max_iterations,
                "scenarios_solved": self._scenarios,
                "per_epoch": per_epoch,
            },
            "scoring": {
                "mixes_solved": self._mixes_solved,
                "pod_tasks": pod_tasks,
            },
            "residuals": residuals,
            "warm_start": {
                "enabled": self._warm_enabled,
                "hits": self._warm_hits,
                "misses": self._warm_misses,
                "invalidations": self._warm_invalidations,
                "warm_iterations": self._warm_iterations,
                "warm_scenarios": self._warm_scenarios,
                "cold_iterations": self._cold_iterations,
                "cold_scenarios": self._cold_scenarios,
            },
        }


def telemetry_payload(accumulator: TelemetryAccumulator | None = None) -> dict:
    """The ``telemetry`` report section; all-zero shape when no
    accumulator ran (mirrors ``faults_payload`` so report structure
    never depends on how a report object was built)."""
    if accumulator is not None:
        return accumulator.payload()
    return TelemetryAccumulator().payload()


__all__ = ["TelemetryAccumulator", "telemetry_payload"]
