"""The benchmark's workloads: seeded inputs, a set-up phase, a timed run
phase, output checks and the simulated numbers each run reports.

Each workload is a function of ``(seed, size)`` returning a
:class:`Workload`. ``setup()`` builds everything a user pays for before
asking the question (imports are timed by the caller, training by this
module); ``run()`` is the timed phase and returns an :class:`Outcome`
carrying the report bytes, the checks' failures and the sim metrics.
The program only ever receives a ``FleetConfig`` or a table seed.

A run's seed gives its seeded instances (instance ``i`` of seed ``s``
gets program seed ``100 * s + i``). ``setup()`` runs once
per process; ``prepare(i)`` returns the timed phase of instance ``i``
with the program's caches as ``setup()`` left them, so one process can
time an instance again and again from the same cold start.

``size`` is ``"full"`` for measured runs and ``"tiny"`` for the
harness self-test (same code path, a fraction of the work).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.memory_model import MemoryContentionModel
from repro.experiments import table2_overall_accuracy as table2
from repro.experiments.common import ExperimentScale
from repro.experiments.context import clear_contexts
from repro.fleet import FleetConfig, simulate
from repro.fleet.config import build_model_for
from repro.ml.metrics import mape
from repro.nf.catalog import make_nf
from repro.nic.batch import clear_compile_cache
from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec
from repro.profiling.adaptive import AdaptiveProfiler
from repro.profiling.collector import ProfilingCollector
from repro.profiling.contention import ContentionLevel
from repro.profiling.sampling import full_profile, random_profile
from repro.rng import derive_seed, make_rng
from repro.traffic.profile import TrafficProfile


@dataclass
class Outcome:
    """What one timed run produced."""

    #: Bytes the program rendered; two runs of one seed must match.
    report: bytes
    #: Units of work completed (service-epochs or profiling samples).
    work: int
    #: Simulated numbers, exact for a given seed.
    sim: dict[str, float]
    #: Program-side counters the trace reads from the report.
    counters: dict[str, float] = field(default_factory=dict)
    #: Output checks that failed (empty when the outputs are correct).
    failures: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.report).hexdigest()


@dataclass
class Workload:
    #: Work paid once per process before any question is asked.
    setup: Callable[[], None]
    #: ``prepare(i)`` -> the timed phase of instance ``i``.
    prepare: Callable[[int], Callable[[], Outcome]]
    instances: int


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------
#: Five NFs of different structure: on a 16-core Pensando NIC they pack
#: eight residents per NIC in orders that almost never repeat.
DEEP_POOL = ("flowmonitor", "flowstats", "nids", "nat", "acl")

FLEET_SIZES = {
    "fleet-deepmix": {"full": {"initial_services": 200}, "tiny": {"initial_services": 24}},
    "fleet-hetero-event": {
        "full": {"initial_services": 48, "epochs": 4, "quota": 40},
        "tiny": {"initial_services": 6, "epochs": 3, "quota": 20},
    },
}


def deepmix_config(seed: int, size: str) -> FleetConfig:
    """Deep, diverse Pensando mixes under low churn (scalar-fallback
    regime of the batch solver; greedy needs no trained predictor)."""
    return FleetConfig(
        policy="greedy",
        nic_mix="pensando",
        nf_pool=DEEP_POOL,
        arrival_rate=0.25,
        mean_lifetime=4000.0,
        epochs=3,
        seed=seed,
        **FLEET_SIZES["fleet-deepmix"][size],
    )


def hetero_event_config(seed: int, size: str) -> FleetConfig:
    """Event engine, rebalance policy, mixed hardware, timed migrations,
    spin-up latency and all three fault kinds."""
    return FleetConfig(
        policy="rebalance",
        engine="event",
        nic_mix="bluefield2=0.6,pensando=0.4",
        pods=4,
        arrival_rate=2.0,
        migration_duration=1.5,
        spinup_latency=0.5,
        nic_fail_rate=0.02,
        nic_degrade_rate=0.02,
        pod_outage_rate=0.01,
        seed=seed,
        **FLEET_SIZES["fleet-hetero-event"][size],
    )


def _fleet_workload(configs: list[FleetConfig]) -> Workload:
    """Instances share one placement model, trained in ``setup()`` for
    the first instance's config, as a sweep loop shares it."""
    state: dict = {}

    def setup() -> None:
        state["model"] = build_model_for(configs[0])

    def prepare(i: int) -> Callable[[], Outcome]:
        # A fresh copy of the trained model (its collector's solo and
        # sample caches as training left them) and an empty compile
        # cache: every repetition starts from the same cold state.
        config, model = configs[i], copy.deepcopy(state["model"])
        clear_compile_cache()
        return lambda: _simulate(config, model)

    return Workload(setup, prepare, len(configs))


def _simulate(config: FleetConfig, model) -> Outcome:
    report = simulate(config, model=model)
    fleet = getattr(report, "fleet", report)
    payload = report.to_json() + "\n" + report.render()
    service_epochs = sum(m.services for m in fleet.metrics)
    return Outcome(
        report=payload.encode(),
        work=service_epochs,
        sim={
            "mean_service_mpps": sum(
                m.aggregate_throughput_mpps for m in fleet.metrics
            ) / service_epochs,
            "mean_nics": fleet.mean_nics,
            "violation_rate_pct": fleet.violation_rate_pct,
        },
        counters={
            "nic.solver.iterations": fleet.telemetry["solver"][
                "iterations_total"
            ],
        },
        failures=check_fleet(fleet, config.epochs),
    )


def check_fleet(fleet, epochs: int) -> list[str]:
    """Rates in [0, 100], counts non-negative, final epoch reached."""
    failures = []
    if [m.epoch for m in fleet.metrics] != list(range(epochs)):
        failures.append(
            f"epochs scored {[m.epoch for m in fleet.metrics]} != 0..{epochs - 1}"
        )
    for m in fleet.metrics:
        for name in ("violation_rate_pct", "utilisation_pct"):
            value = getattr(m, name)
            if not 0.0 <= value <= 100.0:
                failures.append(f"epoch {m.epoch}: {name}={value} outside [0, 100]")
        # Wastage is NICs above the best packing, relative: unbounded above.
        for name in (
            "services", "nics_used", "arrivals", "departures", "migrations",
            "sla_violations", "wastage_pct", "aggregate_throughput_mpps",
        ):
            if getattr(m, name) < 0:
                failures.append(f"epoch {m.epoch}: {name} negative")
    if not 0.0 <= fleet.violation_rate_pct <= 100.0:
        failures.append(f"violation rate {fleet.violation_rate_pct} outside [0, 100]")
    return failures


# ----------------------------------------------------------------------
# Paper tables
# ----------------------------------------------------------------------
#: Table 2 at a reduced scale: every evaluation NF still trains Yala and
#: SLOMO, with a smaller profiling quota and fewer co-location cases.
TABLE2_SCALES = {
    "full": ExperimentScale(
        name="perfbench", quota=40, slomo_samples=40, traffic_profiles=3,
        combos_per_nf=5, random_profiles=8, sweep_points=4, sequences=1,
        arrivals=10,
    ),
    "tiny": ExperimentScale(
        name="perfbench-tiny", quota=20, slomo_samples=20, traffic_profiles=1,
        combos_per_nf=1, random_profiles=4, sweep_points=2, sequences=1,
        arrivals=4,
    ),
}

#: Table 8 subset: two of the paper's traffic-sensitive NFs, each trained
#: by full-grid, random and adaptive profiling (the grid stays several
#: times the quota, as in the paper).
TABLE8_SIZES = {
    "full": {"nfs": ("flowclassifier", "nat"), "quota": 40,
             "grid": 5, "test_points": 20},
    "tiny": {"nfs": ("nat",), "quota": 20, "grid": 4, "test_points": 4},
}


def table8_subset(
    seed: int, nfs: tuple[str, ...], quota: int, grid: int, test_points: int
) -> list[dict]:
    """Table 8 rows for ``nfs`` via the public profiling functions.

    Mirrors the paper experiment: per NF, a full grid, a random draw at
    the adaptive quota and Yala's adaptive profiler each train a
    traffic-aware memory model, scored on common held-out points.
    """
    collector = ProfilingCollector(SmartNic(bluefield2_spec(), seed=seed))
    rows = []
    for name in nfs:
        nf = make_nf(name)
        rng = make_rng(derive_seed(seed, name, "points"))
        configs = [
            (
                TrafficProfile(
                    int(rng.uniform(1_000, 500_000)),
                    int(rng.uniform(64, 1500)),
                    float(rng.uniform(0.0, 1100.0)),
                ),
                ContentionLevel(
                    mem_car=float(rng.uniform(20.0, 250.0)),
                    mem_wss_mb=float(rng.uniform(2.0, 12.0)),
                ),
            )
            for _ in range(test_points)
        ]
        truths = np.array(
            [
                s.throughput_mpps
                for s in collector.profile_many(
                    [(nf, contention, traffic) for traffic, contention in configs]
                )
            ]
        )
        row = {"nf": name}
        for strategy in ("full", "random", "adaptive"):
            stream = derive_seed(seed, name, strategy)
            if strategy == "full":
                dataset = full_profile(
                    collector, nf,
                    attributes=["flow_count", "packet_size", "mtbr"],
                    grid_points={
                        "flow_count": grid,
                        "packet_size": max(grid // 2, 2),
                        "mtbr": max(grid // 2, 2),
                    },
                    contention_levels_per_point=3,
                    seed=stream,
                )
                cost = len(dataset)
            elif strategy == "random":
                dataset = random_profile(collector, nf, quota=quota, seed=stream)
                cost = quota
            else:
                report = AdaptiveProfiler(collector, quota=quota, seed=stream).profile(nf)
                dataset, cost = report.dataset, report.samples_used
            model = MemoryContentionModel(nf.name, seed=derive_seed(stream, "model"))
            model.fit(dataset)
            preds = np.array(
                [
                    model.predict(collector.bench_counters(contention), traffic)
                    for traffic, contention in configs
                ]
            )
            row[f"{strategy}_cost"] = cost
            row[f"{strategy}_mape"] = mape(truths, preds)
        rows.append(row)
    return rows


def _paper_tables_workload(seeds: list[int], size: str) -> Workload:
    def setup() -> None:
        pass  # the shared context trains inside the timed run

    def prepare(i: int) -> Callable[[], Outcome]:
        # The trained experiment contexts are cached per process: drop
        # them so every repetition trains its own, as a fresh CLI run does.
        clear_contexts()
        clear_compile_cache()
        return lambda: _paper_tables(seeds[i], TABLE2_SCALES[size], TABLE8_SIZES[size])

    return Workload(setup, prepare, len(seeds))


def _paper_tables(seed: int, scale: ExperimentScale, sizes: dict) -> Outcome:
    t2 = table2.run(scale, seed=seed)
    rows = table8_subset(seed, **sizes)
    t2_mapes = [r.yala_mape for r in t2.rows] + [r.slomo_mape for r in t2.rows]
    t8_mapes = [r[f"{s}_mape"] for r in rows for s in ("full", "random", "adaptive")]
    failures = [
        f"MAPE {value!r} not finite and non-negative"
        for value in t2_mapes + t8_mapes
        if not (math.isfinite(value) and value >= 0.0)
    ]
    failures += [
        f"{r['nf']}: full-grid cost {r['full_cost']} <= quota {sizes['quota']}"
        for r in rows
        if r["full_cost"] <= sizes["quota"]
    ]
    samples = sum(r[f"{s}_cost"] for r in rows for s in ("full", "random", "adaptive"))
    rendered = t2.render() + "\n" + json.dumps(rows, sort_keys=True)
    return Outcome(
        report=rendered.encode(),
        work=samples,
        sim={
            "yala_acc10_pct": float(np.mean([r.yala_acc10 for r in t2.rows])),
            "yala_mape_pct": t2.mean_yala_mape,
            "adaptive_mape_pct": float(np.mean([r["adaptive_mape"] for r in rows])),
        },
        failures=failures,
    )


def make_workload(name: str, seed: int, size: str = "full", instances: int = 1) -> Workload:
    """Workload ``name`` with ``instances`` instances of run seed ``seed``."""
    seeds = [100 * seed + i for i in range(instances)]
    if name == "fleet-deepmix":
        return _fleet_workload([deepmix_config(s, size) for s in seeds])
    if name == "fleet-hetero-event":
        return _fleet_workload([hetero_event_config(s, size) for s in seeds])
    if name == "paper-tables":
        return _paper_tables_workload(seeds, size)
    raise ValueError(f"unknown workload {name!r}")

