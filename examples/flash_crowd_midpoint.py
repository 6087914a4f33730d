"""Scenario: a flash crowd that strikes between two epoch boundaries.

Four services run comfortably within their SLAs. At t = 2.5 — halfway
between two epochs — every service is hit by a flash crowd that
multiplies its flow count sixfold and dies away almost immediately
(geometric decay 1e-3 per second). By the next epoch boundary the surge
is gone.

The time-stepped epoch engine reports one row per integer epoch, so
its epoch table shows **zero** SLA violations for the whole run: the
spike is quantized away. The continuous-time event engine chains each trace's
change points as :class:`~repro.fleet.events.TrafficChange` events, so
it re-scores the fleet at exactly t = 2.5, catches the violating
services and charges them to the second-granularity violation integral.

Run with ``python examples/flash_crowd_midpoint.py`` (add ``src/`` to
``PYTHONPATH``). The script asserts the contrast it prints, so a clean
exit doubles as a smoke check.
"""

from repro.fleet.churn import ChurnProcess, ServiceRequest
from repro.fleet.engine import EventEngine, FleetEngine
from repro.fleet.events import EventConfig
from repro.fleet.policies import PlacementModel
from repro.fleet.traces import make_trace
from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec
from repro.profiling.collector import ProfilingCollector
from repro.traffic.profile import TrafficProfile

ONSET = 2.5  # mid-epoch: invisible to the integer clock
HORIZON = 5
BASE = TrafficProfile(10_000, 1000, 400.0)
NFS = ("flowstats", "nat", "acl", "flowstats")


class ScriptedChurn(ChurnProcess):
    """A churn process that plays back a fixed cast of services."""

    def __init__(self, requests):
        super().__init__(
            nf_names=("flowstats",),
            seed=1,
            arrival_rate=0.0,
            initial_services=0,
        )
        self._requests = list(requests)

    def arrivals_for(self, epoch):
        return list(self._requests) if epoch == 0 else []


def cast():
    """Four services, each with a flash-crowd trace peaking at ONSET."""
    requests = []
    for index, nf_name in enumerate(NFS):
        trace = make_trace(
            "flash_crowd",
            BASE,
            seed=100 + index,
            surge_factor=6.0,
            decay=1e-3,
            onset_time=ONSET,
        )
        requests.append(
            ServiceRequest(
                instance_id=f"svc-0-{index}",
                nf_name=nf_name,
                sla_drop_fraction=0.12,
                trace=trace,
                arrival_epoch=0,
                departure_epoch=HORIZON + 5,
            )
        )
    return requests


def main() -> None:
    nic = SmartNic(bluefield2_spec(), seed=7)
    model = PlacementModel(collector=ProfilingCollector(nic), nic=nic)

    epoch_report = FleetEngine("greedy", ScriptedChurn(cast()), model).run(
        HORIZON
    )
    epoch_violations = sum(m.sla_violations for m in epoch_report.metrics)
    print(f"Flash crowd at t = {ONSET} (between epochs 2 and 3)\n")
    print(
        "Epoch engine, rows at t = 0, 1, 2, 3, 4: "
        f"{epoch_violations} SLA violations — the surge decays before "
        "the next boundary, so the epoch table never shows it."
    )

    event_report = EventEngine(
        "greedy", ScriptedChurn(cast()), model, config=EventConfig()
    ).run(HORIZON)
    spike = [o for o in event_report.observations if o.time == ONSET]
    print(
        "Event engine, re-scoring at every change point: "
        f"{event_report.violation_service_seconds:.1f} violation-"
        f"service-seconds, including an observation at t = {ONSET} with "
        f"{spike[0].sla_violations} services over their SLA "
        f"(fleet drop sum {spike[0].drop_sum:.3f})."
    )

    # The contrast this example exists to show — and the smoke check.
    assert epoch_violations == 0, "epoch clock unexpectedly saw the surge"
    assert spike and spike[0].sla_violations > 0, "event engine missed it"
    assert event_report.violation_service_seconds > 0.0
    print("\nThe epoch report is clean; only the event engine saw the spike.")


if __name__ == "__main__":
    main()
