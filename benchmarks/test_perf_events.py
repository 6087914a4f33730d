"""Microbenchmarks: the continuous-time event engine.

Two legs, both on the contention-blind greedy workload of
``test_perf_fleet`` (no predictor training, so they isolate the
engine):

- **Epoch parity**: the time-stepped :class:`FleetEngine` is the event
  engine under :meth:`EventConfig.epoch_equivalent`, so the leg checks
  the preset's report against the golden digest of the former
  standalone epoch loop (and against the event engine run under the
  same config) and times one run. The event-vs-epoch cost ratio it
  used to bound retired with the second engine; the end-to-end guard on
  engine cost is the repo benchmark's ``fleet-deepmix`` ``run_s``.

- **Migration-heavy batching**: a shuffle policy migrates a dozen
  services at every probe while timed migrations (1.5 s) keep the
  movers co-resident on two NICs across the next observation, and
  every service runs a dynamic trace, so each probe re-scores
  essentially the whole (contention-inflated) fleet. Batched scoring (one
  :meth:`SmartNic.run_batch` per hardware target per observation)
  must beat the per-scenario loop oracle by ``MIN_EVENT_SPEEDUP`` —
  the regime the event engine's lazy dirty-NIC gathering exists for.

Correctness is asserted before timing (golden bytes for the parity
leg, identical event logs and metrics for the batching gate). Timing
follows the suite conventions: CPU time, min of three runs per arm on
freshly built engines, re-measured up to three times.
"""

from __future__ import annotations

import hashlib

from repro.fleet.churn import ChurnProcess
from repro.fleet.engine import EventEngine, FleetEngine
from repro.fleet.events import EventConfig
from repro.fleet.policies import GreedyPolicy, PlacementModel
from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec
from repro.profiling.collector import ProfilingCollector

#: sha256 of the parity workload's JSON report and rendered text,
#: recorded from the former standalone epoch loop.
PARITY_JSON_SHA256 = (
    "e797fafeebe396384fae02dd9b5031fbb1161c79b5bd19513d5b357d2d91c7dd"
)
PARITY_RENDER_SHA256 = (
    "2caf384585d80bafba516618fddbc612f779ac2e8bc588e0b31b269496aabe1c"
)

#: Required batch-over-loop advantage on the migration-heavy workload.
MIN_EVENT_SPEEDUP = 2.0

EPOCHS = 8
MIGRATION_EPOCHS = 6

NF_POOL = ("flowstats", "nat", "acl", "iprouter", "flowtracker")


def _churn(rate: float, initial: int, trace_kinds=None) -> ChurnProcess:
    kwargs = {"trace_kinds": trace_kinds} if trace_kinds else {}
    return ChurnProcess(
        nf_names=NF_POOL,
        seed=11,
        arrival_rate=rate,
        mean_lifetime=30.0,
        initial_services=initial,
        **kwargs,
    )


def _model() -> PlacementModel:
    nic = SmartNic(bluefield2_spec(), seed=0x5EED, noise_std=0.0)
    return PlacementModel(collector=ProfilingCollector(nic), nic=nic)


class ShufflePolicy(GreedyPolicy):
    """Greedy placement plus forced migrations at every probe.

    Purely a benchmark load generator: each probe moves up to
    ``MOVES_PER_PROBE`` services (round-robin over the fleet's NICs),
    and with a non-zero migration duration every mover contends on two
    NICs until it lands — the migration-heavy regime the batching gate
    measures.
    """

    name = "shuffle"

    MOVES_PER_PROBE = 12

    def __init__(self) -> None:
        self._turn = 0

    def on_probe(self, cluster, t, model, drops):
        moved = 0
        for _ in range(self.MOVES_PER_PROBE):
            nics = cluster.nics
            if len(nics) < 2:
                break
            self._turn += 1
            source = nics[self._turn % len(nics)]
            movable = [
                r
                for r in source.residents
                if cluster.is_home(source, r.instance_id)
                and not cluster.is_migrating(r.instance_id)
            ]
            destination = next(
                (
                    nic
                    for nic in nics
                    if nic.nic_id != source.nic_id
                    and len(nic.residents) < nic.max_residents
                ),
                None,
            )
            if not movable or destination is None:
                continue
            cluster.migrate(
                movable[0].instance_id,
                destination.nic_id,
                int(t),
                reason="shuffle",
            )
            moved += 1
        return moved


def build_epoch_engine(score_mode: str = "batch") -> FleetEngine:
    return FleetEngine(
        "greedy", _churn(20.0, 60), _model(), score_mode=score_mode
    )


def build_event_engine(score_mode: str = "batch") -> EventEngine:
    return EventEngine(
        "greedy",
        _churn(20.0, 60),
        _model(),
        score_mode=score_mode,
        config=EventConfig.epoch_equivalent(),
    )


def build_migration_engine(score_mode: str) -> EventEngine:
    # Dynamic traces on every service: each probe re-scores the whole
    # fleet, so the per-observation batches are epoch-sized. Changes are
    # only *observed* on the probe grid; the 1.5 s migrations still
    # land mid-epoch and keep movers co-resident at the next probe.
    return EventEngine(
        ShufflePolicy(),
        _churn(20.0, 60, trace_kinds=("diurnal", "burst", "random_walk")),
        _model(),
        score_mode=score_mode,
        config=EventConfig(
            migration_duration=1.5,
            probe_period=1.0,
            observe_changes=False,
        ),
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_event_engine_matches_epoch_cost_on_equivalent_workload(
    benchmark, min_time
):
    # The epoch engine is the event engine under epoch_equivalent(), so
    # the cost match holds by construction; the bytes are what is left
    # to check, against the former epoch loop's golden digests.
    epoch_report = build_epoch_engine().run(EPOCHS)
    assert _sha256(epoch_report.to_json()) == PARITY_JSON_SHA256
    assert _sha256(epoch_report.render()) == PARITY_RENDER_SHA256
    event_report = build_event_engine().run(EPOCHS)
    assert event_report.fleet.to_json() == epoch_report.to_json()

    run_time = min_time(lambda: build_epoch_engine().run(EPOCHS))
    benchmark.extra_info["epoch_preset_cpu_s"] = round(run_time, 3)
    benchmark.pedantic(
        lambda: build_epoch_engine().run(EPOCHS), rounds=1, iterations=1
    )
    print(f"\nepoch preset: {run_time:.2f}s CPU for {EPOCHS} epochs")


def test_migration_heavy_batching_beats_loop(benchmark, min_time):
    # Identical trajectories first — the speedup must be free.
    batched = build_migration_engine("batch").run(MIGRATION_EPOCHS)
    looped = build_migration_engine("loop").run(MIGRATION_EPOCHS)
    assert batched.event_log == looped.event_log
    assert batched.observations == looped.observations
    assert batched.fleet.metrics == looped.fleet.metrics
    # The workload must actually exercise timed migrations.
    assert batched.migrations_started >= 3 * MIGRATION_EPOCHS
    assert batched.migrations_completed >= 1

    speedup = 0.0
    for _ in range(3):
        loop_time = min_time(
            lambda: build_migration_engine("loop").run(MIGRATION_EPOCHS)
        )
        batch_time = min_time(
            lambda: build_migration_engine("batch").run(MIGRATION_EPOCHS)
        )
        speedup = max(speedup, loop_time / batch_time)
        if speedup >= MIN_EVENT_SPEEDUP:
            break
    benchmark.extra_info["event_migration_batch_speedup"] = round(speedup, 2)
    benchmark.pedantic(
        lambda: build_migration_engine("batch").run(MIGRATION_EPOCHS),
        rounds=1,
        iterations=1,
    )
    print(f"\nevent-engine migration-heavy batch speedup: {speedup:.2f}x")
    assert speedup >= MIN_EVENT_SPEEDUP
