"""Warm-start determinism: the cross-epoch solution cache's contract.

``warm_start=True`` changes the solver's iterate path (seeded,
accelerated starts), so warm reports are *not* bit-equal to cold ones —
instead they carry their own byte-determinism contract, pinned here:
same seed + ``warm_start=True`` ⇒ byte-identical reports across

- execution runtimes and job counts (the warm cache travels inside
  ``PodScoreTask`` payloads, never in worker state),
- the time-stepped preset and the quantized, zero-cost event engine
  (both against golden digests recorded from the former standalone
  epoch loop),
- heterogeneous hardware mixes and injected faults,
- checkpoint/resume (the cache is snapshotted and replayed).

Plus the config surface: the CLI flag, the fingerprint (a warm
checkpoint only resumes into a warm run; a cold one resumes into either,
a warm resume rebuilding the cache from its solved mixes), and the all-zero
``telemetry.warm_start`` section when the knob is off.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.fleet.checkpoint import Checkpointer, load_checkpoint
from repro.fleet.churn import ChurnProcess
from repro.fleet.engine import EventEngine, FleetEngine
from repro.fleet.events import EventConfig
from repro.fleet.policies import GreedyPolicy, PlacementModel
from repro.nic.nic import SmartNic
from repro.nic.spec import pensando_spec
from repro.profiling.collector import ProfilingCollector
from repro.fleet import FleetConfig, build_model, simulate
from repro.fleet import __main__ as fleet_cli

BASE = dict(policy="yala", epochs=8, quota=60, initial_services=5)


@pytest.fixture(scope="module")
def model():
    config = FleetConfig(**BASE)
    return build_model(
        config.policy, config.nf_pool, config.seed, config.quota, 1
    )


def _run(model=None, **over):
    merged = {**BASE, "warm_start": True, **over}
    return simulate(FleetConfig(**merged), model=model).to_json()


class TestWarmByteDeterminism:
    def test_runtime_and_jobs_invariance(self, model):
        serial = _run(model)
        for jobs in (1, 2, 4):
            assert (
                _run(model, runtime="process", jobs=jobs) == serial
            ), f"jobs={jobs}"

    def test_epoch_vs_quantized_event_engine(self, model, golden_digest):
        golden_digest("warm", "json", _run(model))
        event = simulate(
            FleetConfig(
                **{**BASE, "warm_start": True}, engine="event",
                quantize_arrivals=True,
            ),
            model=model,
        )
        golden_digest("warm", "json", event.fleet.to_json())

    def test_with_hetero_mix_and_faults(self):
        over = dict(
            nic_mix="bluefield2=0.7,pensando=0.3",
            pods=2,
            nic_fail_rate=0.3,
            nic_degrade_rate=0.3,
            mean_time_to_fail=3.0,
        )
        serial = _run(None, **over)
        assert _run(None, runtime="process", jobs=2, **over) == serial

    def test_warm_telemetry_records_hits_and_invalidations(self, model):
        # Churny enough that resident sets both persist (hits) and
        # change under the same NIC (invalidations).
        payload = json.loads(_run(model, epochs=12, arrival_rate=2.0))
        warm = payload["telemetry"]["warm_start"]
        assert warm["enabled"] is True
        assert warm["hits"] > 0
        assert warm["invalidations"] > 0
        assert warm["warm_scenarios"] > 0
        assert (
            warm["warm_scenarios"] + warm["cold_scenarios"]
            == payload["telemetry"]["solver"]["scenarios_solved"]
        )

    def test_warm_solves_take_fewer_iterations(self, model):
        warm = json.loads(_run(model, epochs=12, arrival_rate=2.0))
        section = warm["telemetry"]["warm_start"]
        mean_warm = section["warm_iterations"] / section["warm_scenarios"]
        mean_cold = section["cold_iterations"] / section["cold_scenarios"]
        assert mean_warm < mean_cold

    def test_cold_run_keeps_allzero_section(self, model):
        payload = json.loads(_run(model, warm_start=False))
        assert payload["telemetry"]["warm_start"] == {
            "enabled": False,
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "warm_iterations": 0,
            "warm_scenarios": 0,
            "cold_iterations": 0,
            "cold_scenarios": 0,
        }

    def test_warm_report_renders_cache_line(self, model):
        config = FleetConfig(**{**BASE, "warm_start": True})
        text = simulate(config, model=model).render()
        assert "warm" in text.lower()
        cold = simulate(FleetConfig(**BASE), model=model).render()
        assert "warm" not in cold.lower()


class TestWarmCheckpointResume:
    def test_resume_byte_parity(self, tmp_path, model):
        snap = str(tmp_path / "warm.pkl")
        uninterrupted = _run(model)
        _run(model, checkpoint_path=snap, checkpoint_every=3)
        resumed = _run(model, resume_path=snap)
        assert resumed == uninterrupted

    def test_resume_across_runtimes(self, tmp_path, model):
        snap = str(tmp_path / "warm.pkl")
        uninterrupted = _run(model)
        _run(model, checkpoint_path=snap, checkpoint_every=3)
        resumed = _run(model, resume_path=snap, runtime="process", jobs=2)
        assert resumed == uninterrupted

    def test_event_engine_resume(self, tmp_path, model):
        snap = str(tmp_path / "warm-event.pkl")
        over = dict(engine="event", quantize_arrivals=True)
        uninterrupted = _run(model, **over)
        _run(model, checkpoint_path=snap, checkpoint_every=3, **over)
        resumed = _run(model, resume_path=snap, **over)
        assert resumed == uninterrupted

    def test_warm_checkpoint_refuses_cold_resume(self, tmp_path, model):
        snap = str(tmp_path / "warm.pkl")
        _run(model, checkpoint_path=snap, checkpoint_every=3)
        with pytest.raises(ConfigurationError, match="configuration"):
            _run(model, resume_path=snap, warm_start=False)


class _FirstStepOnly(Checkpointer):
    """Keeps only the snapshot taken after the first step."""

    def maybe_save(self, step, state):
        return step == 1 and super().maybe_save(step, state)


class TestColdSnapshotIntoWarmRun:
    """A warm run resumed from a cold snapshot seeds from its mixes,
    in both engines and through ``simulate``."""

    FINGERPRINT = {"test": "cold-into-warm"}

    def _engine(self, kind, warm_start):
        nic = SmartNic(pensando_spec(), seed=0x5EED, noise_std=0.0)
        model = PlacementModel(collector=ProfilingCollector(nic), nic=nic)
        churn = ChurnProcess(
            nf_names=("flowmonitor", "flowstats", "nids", "nat", "acl"),
            seed=11,
            arrival_rate=0.5,
            mean_lifetime=50.0,
            initial_services=64,
        )
        if kind == "epoch":
            return FleetEngine(
                GreedyPolicy(), churn, model, warm_start=warm_start
            )
        return EventEngine(
            GreedyPolicy(), churn, model, warm_start=warm_start,
            config=EventConfig(quantize_arrivals=True),
        )

    @pytest.mark.parametrize("kind", ["epoch", "event"])
    def test_matches_the_uninterrupted_warm_run(self, tmp_path, kind):
        # Epoch 0 of a warm run is all cold (its cache is empty), so a
        # cold one-epoch snapshot is the same state; rebuilding the warm
        # cache from the snapshot's mixes must reproduce the warm run.
        snap = str(tmp_path / "cold.pkl")
        uninterrupted = self._engine(kind, True).run(4)
        self._engine(kind, False).run(
            4, checkpoint=_FirstStepOnly(snap, 1, self.FINGERPRINT)
        )
        _, state = load_checkpoint(snap, self.FINGERPRINT)
        resumed = self._engine(kind, True).run(4, resume=state)
        fleet = (lambda r: r) if kind == "epoch" else (lambda r: r.fleet)
        assert fleet(resumed).metrics == fleet(uninterrupted).metrics
        warm = fleet(resumed).telemetry["warm_start"]
        assert warm["hits"] > 0
        assert warm["hits"] == fleet(uninterrupted).telemetry["warm_start"]["hits"]

    def test_simulate_resumes_cold_snapshots_warm_in_both_engines(
        self, tmp_path, model, golden_digest
    ):
        # A mid-run cold snapshot: the resumed warm run is its own
        # trajectory, deterministic, and the same in both engines.
        reports = {}
        for engine, over in (
            ("epoch", {}),
            ("event", dict(engine="event", quantize_arrivals=True)),
        ):
            snap = str(tmp_path / f"cold-{engine}.pkl")
            _run(
                model, warm_start=False, checkpoint_path=snap,
                checkpoint_every=3, **over,
            )
            resumed = _run(model, resume_path=snap, **over)
            assert _run(model, resume_path=snap, **over) == resumed
            reports[engine] = resumed
        golden_digest("cold-snapshot-resumed-warm", "json", reports["epoch"])
        assert json.loads(reports["event"])["fleet"] == json.loads(
            reports["epoch"]
        )
        warm = json.loads(reports["epoch"])["telemetry"]["warm_start"]
        assert warm["enabled"] is True
        assert warm["hits"] > 0


class TestWarmConfigSurface:
    def test_default_off(self):
        assert FleetConfig().warm_start is False

    def test_fingerprint_includes_warm_start(self):
        cold = FleetConfig(**BASE)
        warm = FleetConfig(**BASE, warm_start=True)
        assert cold.fingerprint() != warm.fingerprint()
        assert warm.fingerprint()["warm_start"] is True

    def test_round_trip(self):
        config = FleetConfig(**BASE, warm_start=True)
        assert FleetConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "argv,expected",
        [([], False), (["--warm-start"], True), (["--no-warm-start"], False)],
    )
    def test_cli_flag(self, argv, expected):
        args = fleet_cli.build_parser().parse_args(argv)
        assert FleetConfig.from_cli_args(args).warm_start is expected
