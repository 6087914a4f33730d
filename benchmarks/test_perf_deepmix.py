"""Microbenchmark: deep, diverse NIC mixes, batched vs per-scenario.

Workload: 100 noisy Pensando scenarios with 8 residents each, drawn
from a five-NF pool that mixes table-driven NFs with the
regex-offloading NIDS and FlowMonitor. Resident order is random, so
almost every mix has its own ordered structural signature: no
signature group reaches the full-lane size and the whole batch is
remainder. This is the regime a greedy Pensando fleet packs its NICs
into. Solved two ways:

- **loop**: ``[nic.run(s) for s in scenarios]`` — the scalar damped
  fixed point, the bit-exactness oracle;
- **batch**: ``nic.run_batch(scenarios)`` — one universal padded group
  (the distinct workload signatures repeated 8 times, dummy lanes
  masked), the target-stacked accelerator water-fill and lane-parallel
  noise seeding.

The NIC is *noisy*, so the seeded measurement noise is part of both
the bit-identity check and the timed work. Correctness is asserted
before timing: throughputs (noise included), counters, stage reports,
bottleneck labels and iteration counts must match the loop exactly,
with no scenario on the scalar path. Timing follows the suite
conventions: CPU time, min of three runs per arm, re-measured up to
three times. Each timed run starts from an empty compile cache.
"""

from __future__ import annotations

from repro.nf.catalog import make_nf
from repro.nic.batch import clear_compile_cache
from repro.nic.nic import SmartNic
from repro.nic.spec import pensando_spec
from repro.obs import TraceRecorder, use_recorder
from repro.rng import make_rng
from repro.traffic.profile import TrafficProfile

#: Required advantage of run_batch over the looped scalar solver.
MIN_DEEPMIX_SPEEDUP = 3.0

#: The five-NF pool of the deep-mix fleet workload.
POOL = ("flowmonitor", "flowstats", "nids", "nat", "acl")

#: Scenarios and residents per scenario (16 Pensando cores, 2 per NF).
SCENARIOS = 100
RESIDENTS = 8


def build_deep_mixes(seed: int) -> list[list]:
    """Random ordered 8-resident mixes at seeded traffic points."""
    rng = make_rng(seed)
    scenarios = []
    for _ in range(SCENARIOS):
        names = [str(rng.choice(POOL)) for _ in range(RESIDENTS)]
        scenarios.append(
            [
                make_nf(name).demand(
                    TrafficProfile(
                        int(rng.integers(5_000, 400_000)),
                        int(rng.choice([64, 512, 1500])),
                        float(rng.uniform(0.0, 1000.0)),
                    ),
                    instance=f"{name}#{j}",
                )
                for j, name in enumerate(names)
            ]
        )
    return scenarios


def test_deep_mixes_match_loop_and_are_3x_faster(benchmark, min_time):
    nic = SmartNic(pensando_spec(), seed=0x5EED)
    scenarios = build_deep_mixes(1)

    # Bit-identical results first — the speedup must be numerically free.
    looped = [nic.run(scenario) for scenario in scenarios]
    recorder = TraceRecorder()
    with use_recorder(recorder):
        batched = nic.run_batch(scenarios)
    assert "batch.scalar_scenarios" not in recorder.exec_counters
    for i, (loop_result, batch_result) in enumerate(zip(looped, batched)):
        assert batch_result.iterations == loop_result.iterations, i
        assert batch_result.dram_utilisation == loop_result.dram_utilisation
        for name, expected in loop_result.workloads.items():
            got = batch_result[name]
            assert got.throughput_mpps == expected.throughput_mpps, (i, name)
            assert got.true_throughput_mpps == expected.true_throughput_mpps
            assert got.counters == expected.counters, (i, name)
            assert got.stages == expected.stages, (i, name)
            assert got.bottleneck == expected.bottleneck, (i, name)

    def loop():
        clear_compile_cache()
        return [nic.run(scenario) for scenario in scenarios]

    def batch():
        clear_compile_cache()
        return nic.run_batch(scenarios)

    speedup = 0.0
    for _ in range(3):
        loop_time = min_time(loop)
        batch_time = min_time(batch)
        speedup = max(speedup, loop_time / batch_time)
        if speedup >= MIN_DEEPMIX_SPEEDUP:
            break
    benchmark.extra_info["deepmix_batch_speedup_vs_loop"] = round(speedup, 2)
    benchmark.pedantic(batch, rounds=1, iterations=1)
    print(f"\ndeep-mix batch speedup vs loop: {speedup:.2f}x")
    assert speedup >= MIN_DEEPMIX_SPEEDUP
