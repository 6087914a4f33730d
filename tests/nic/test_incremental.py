"""Cross-epoch incremental solving at the NIC layer.

Three mechanisms, three contracts:

- **Warm-started fixed points** (``run(initial=...)`` /
  ``run_batch(warm_starts=...)``): the converged values are the *same
  fixed point* as a cold solve (within solver tolerance) but the
  iterate path differs — warm solves start from the seed and take
  Anderson steps — so warm runs are outside the bit-exactness contract. What *is*
  bit-pinned: warm batch == warm loop, and ``warm_starts=None`` ==
  the historical cold path, bit for bit.
- **Persistent compilation cache**: memoized plans/embeddings/column
  layouts are bit-invisible — enabling or clearing the cache never changes a
  solved byte, only how much setup work ``run_batch`` repeats.
- **Straggler adoption**: scenarios outside the big signature groups
  ride along in one universal padded group; the all-zero-dummy-lane
  argument keeps every scenario bit-identical to the scalar oracle, and
  the layout is independent of input order (hypothesis-pinned below).
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nf import framework
from repro.nf.catalog import make_nf
from repro.nic.batch import (
    _SCALAR_FALLBACK_GROUP_SIZE,
    _COMPILE_CACHE,
    _ScenarioPlan,
    _embed_signature,
    _plan_for,
    _universal_signature,
    clear_compile_cache,
    compile_cache_enabled,
    set_compile_cache_enabled,
)
from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec, pensando_spec
from repro.obs import TraceRecorder, use_recorder
from repro.rng import make_rng
from repro.traffic.profile import TrafficProfile

from tests.nic.test_batch_run import assert_identical


def _mix(nic_seed=7, names=("nat", "nids", "nids"), flows=60_000):
    nic = SmartNic(bluefield2_spec(), seed=nic_seed, noise_std=0.0)
    traffic = TrafficProfile(flows, 64, 100.0)
    scenario = [
        make_nf(n).demand(traffic, instance=f"{n}#{j}")
        for j, n in enumerate(names)
    ]
    return nic, scenario


class TestWarmStartedRun:
    def test_same_fixed_point_fewer_iterations(self):
        nic, scenario = _mix()
        cold = nic.run(scenario)
        seed = {w.name: cold.throughput_of(w.name) for w in scenario}
        # Drift the traffic: structure identical, fixed point nearby.
        drifted = [
            make_nf(n).demand(
                TrafficProfile(63_000, 64, 100.0), instance=f"{n}#{j}"
            )
            for j, n in enumerate(("nat", "nids", "nids"))
        ]
        cold2 = nic.run(drifted)
        warm2 = nic.run(drifted, initial=seed)
        for w in drifted:
            a = cold2.throughput_of(w.name)
            b = warm2.throughput_of(w.name)
            assert abs(a - b) / a < 1e-6, w.name
        assert warm2.iterations < cold2.iterations

    def test_exact_seed_converges_immediately(self):
        nic, scenario = _mix()
        cold = nic.run(scenario)
        seed = {
            w.name: cold[w.name].true_throughput_mpps for w in scenario
        }
        warm = nic.run(scenario, initial=seed)
        assert warm.iterations <= 3
        for w in scenario:
            a = cold.throughput_of(w.name)
            b = warm.throughput_of(w.name)
            assert abs(a - b) / a < 1e-6, w.name

    def test_partial_seed_allowed(self):
        nic, scenario = _mix()
        cold = nic.run(scenario)
        seed = {scenario[0].name: cold.throughput_of(scenario[0].name)}
        warm = nic.run(scenario, initial=seed)
        for w in scenario:
            a = cold.throughput_of(w.name)
            b = warm.throughput_of(w.name)
            assert abs(a - b) / a < 1e-6, w.name

    def test_initial_none_is_the_cold_path(self):
        nic, scenario = _mix()
        assert_identical(nic.run(scenario), nic.run(scenario, initial=None))

    def test_batch_warm_matches_loop_warm_bit_for_bit(self):
        nic, scenario = _mix()
        cold = nic.run(scenario)
        seed = {w.name: cold.throughput_of(w.name) for w in scenario}
        other = [
            make_nf(n).demand(
                TrafficProfile(90_000, 128, 300.0), instance=f"{n}#{j}"
            )
            for j, n in enumerate(("nat", "nids", "nids"))
        ]
        # Mixed warm/cold rows inside one structural group: per-row
        # damping schedules must reproduce the scalar paths exactly.
        scenarios = [scenario, other, scenario]
        warms = [seed, None, seed]
        batch = nic.run_batch(scenarios, warm_starts=warms)
        for i, (scen, warm) in enumerate(zip(scenarios, warms)):
            assert_identical(
                nic.run(scen, initial=warm), batch[i], f"warm row {i}"
            )

    def test_warm_starts_none_is_bit_identical_to_cold_batch(self):
        nic, scenario = _mix()
        other = [
            make_nf(n).demand(
                TrafficProfile(90_000, 128, 300.0), instance=f"{n}#{j}"
            )
            for j, n in enumerate(("nat", "nids", "nids"))
        ]
        a = nic.run_batch([scenario, other])
        b = nic.run_batch([scenario, other], warm_starts=None)
        c = nic.run_batch([scenario, other], warm_starts=[None, None])
        for i in range(2):
            assert_identical(a[i], b[i], f"none {i}")
            assert_identical(a[i], c[i], f"explicit none {i}")


def _deep_warm_batch(seed=5, rows=40, repeats=0, cold_every=7):
    """Noisy 8-resident Pensando mixes with warm seeds 30% off their
    converged values, every ``cold_every``-th row cold.

    Random mixes rarely share a signature, so they pad into the
    universal group; ``repeats`` extra rows reuse the first mix's order
    (one signature) at other traffic and form a full-lane group.
    """
    rng = make_rng(seed)
    pool = ("flowmonitor", "flowstats", "nids", "nat", "acl")
    nic = SmartNic(pensando_spec(), seed=3, noise_std=0.02)
    mixes = [
        [pool[k] for k in rng.integers(0, len(pool), 8)] for _ in range(rows)
    ]
    mixes += [mixes[0]] * repeats
    scenarios = [
        [
            make_nf(n).demand(
                TrafficProfile(int(rng.integers(5_000, 300_000)), 512, 700.0),
                instance=f"{n}#{j}",
            )
            for j, n in enumerate(mix)
        ]
        for mix in mixes
    ]
    cold = nic.run_batch(scenarios)
    warms = [
        None
        if i % cold_every == 0
        else {
            w.name: result[w.name].true_throughput_mpps
            * float(rng.uniform(0.7, 1.3))
            for w in scenario
        }
        for i, (scenario, result) in enumerate(zip(scenarios, cold))
    ]
    return nic, scenarios, warms, cold


class TestAcceleratedWarmSolves:
    """Seeded solves take Anderson steps; batch and loop stay bit-equal.

    The scalar step (``nic._anderson_step``) and the batch one
    (``_Group._anderson``) are hand-mirrored; these pin them together.
    """

    def test_deep_padded_warm_batch_matches_loop(self):
        nic, scenarios, warms, _ = _deep_warm_batch()
        batch = nic.run_batch(scenarios, warm_starts=warms)
        for i, (scenario, warm) in enumerate(zip(scenarios, warms)):
            assert_identical(
                nic.run(scenario, initial=warm), batch[i], f"row {i}"
            )

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(16, 28),
        repeats=st.sampled_from([0, 4]),
        cold_every=st.integers(2, 9),
    )
    def test_warm_batch_matches_loop_across_layouts(
        self, seed, rows, repeats, cold_every
    ):
        # Padded rows, full-lane rows (repeats > 0) and mixed cold/warm
        # rows; rows converge at different sweeps, so groups compact
        # mid-solve and the Anderson history is compacted with them.
        nic, scenarios, warms, _ = _deep_warm_batch(
            seed, rows, repeats, cold_every
        )
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = nic.run_batch(scenarios, warm_starts=warms)
        assert recorder.exec_counters["batch.padded_lanes"] > 0
        assert "batch.scalar_scenarios" not in recorder.exec_counters
        for i, (scenario, warm) in enumerate(zip(scenarios, warms)):
            assert_identical(
                nic.run(scenario, initial=warm), batch[i], f"row {i}"
            )

    def test_converges_to_the_cold_fixed_point_in_fewer_iterations(self):
        nic, scenarios, warms, cold = _deep_warm_batch()
        warm = nic.run_batch(scenarios, warm_starts=warms)
        seeded = [i for i, w in enumerate(warms) if w is not None]
        for i in seeded:
            for w in scenarios[i]:
                a = cold[i][w.name].true_throughput_mpps
                b = warm[i][w.name].true_throughput_mpps
                assert abs(a - b) / a < 1e-6, (i, w.name)
        warm_iters = sum(warm[i].iterations for i in seeded)
        cold_iters = sum(cold[i].iterations for i in seeded)
        assert warm_iters < 0.5 * cold_iters


class TestSharedCompilation:
    """Shared stages and renamed plans are bit-invisible."""

    def teardown_method(self):
        set_compile_cache_enabled(True)
        clear_compile_cache()

    def test_an_nf_compiles_each_profile_once(self, monkeypatch):
        traffic = TrafficProfile(40_000, 512, 700.0)
        nf = make_nf("nat")
        shared = [nf.demand(traffic, instance=i) for i in "ab"]
        assert shared[0].stages is shared[1].stages
        fresh = make_nf("nat").demand(traffic, instance="a")
        assert fresh.stages is not shared[0].stages
        assert fresh.stages == shared[0].stages
        monkeypatch.setattr(framework, "_STAGE_MEMO_ENTRIES", 3)
        for flows in range(1_000, 1_010):
            nf.stages(TrafficProfile(flows, 512, 700.0))
            assert len(nf._stage_memo) <= 3

    def test_plans_are_shared_across_names(self):
        nic = SmartNic(pensando_spec(), seed=3)
        nf = make_nf("nids")
        traffic = TrafficProfile(70_000, 512, 700.0)
        solo, mixed = nf.demand(traffic), nf.demand(traffic, instance="nids#3")
        clear_compile_cache()
        first = _plan_for(nic, solo)
        assert _plan_for(nic, solo) is first
        renamed = _plan_for(nic, mixed)
        assert (renamed.name, renamed.demand) == ("nids#3", mixed)
        assert renamed.demand is mixed
        assert renamed.signature is first.signature

    def test_renamed_plans_solve_identically(self):
        nic = SmartNic(pensando_spec(), seed=3, noise_std=0.02)
        pool = ("flowmonitor", "flowstats", "nids", "nat", "acl")
        traffic = TrafficProfile(70_000, 512, 700.0)
        nfs = {n: make_nf(n) for n in pool}
        # The solo demands first, then the same NFs renamed in mixes.
        solos = [[nfs[n].demand(traffic)] for n in pool]
        mixes = [
            [
                nfs[n].demand(traffic, instance=f"{n}#{j}")
                for j, n in enumerate(pool[k:] + pool[:k])
            ]
            for k in range(len(pool))
        ]
        clear_compile_cache()
        shared = nic.run_batch(solos) + nic.run_batch(mixes)
        set_compile_cache_enabled(False)
        for i, scenario in enumerate(solos + mixes):
            assert_identical(nic.run(scenario), shared[i], f"scenario {i}")
            assert_identical(
                nic.run_batch([scenario])[0], shared[i], f"uncached {i}"
            )


class TestDeferredResults:
    """``run_batch`` results build their details on first access."""

    def test_rates_are_the_built_rates_in_any_access_order(self):
        nic, scenarios, _, _ = _deep_warm_batch(rows=12)
        lazy = nic.run_batch(scenarios)
        rates = [
            [result.throughput_of(w.name) for w in scenario]
            for scenario, result in zip(scenarios, lazy)
        ]
        order = list(range(len(scenarios)))[::-1]
        for i in order:  # builds the last row first
            assert_identical(nic.run(scenarios[i]), lazy[i], f"row {i}")
            assert rates[i] == [
                lazy[i][w.name].throughput_mpps for w in scenarios[i]
            ]

    def test_equality_and_pickling_see_built_values(self):
        nic, scenarios, _, _ = _deep_warm_batch(rows=12)
        lazy = nic.run_batch(scenarios)
        eager = [nic.run(scenario) for scenario in scenarios]
        assert lazy == eager
        fresh = nic.run_batch(scenarios)[3]
        clone = pickle.loads(pickle.dumps(fresh))
        assert clone == eager[3]
        assert repr(clone) == repr(fresh)


class TestCompileCache:
    def setup_method(self):
        clear_compile_cache()

    def teardown_method(self):
        set_compile_cache_enabled(True)
        clear_compile_cache()

    def _scenarios(self, nic_seed=3):
        rng = make_rng(17)
        mixes = [("flowstats", "nat"), ("nids",), ("nat", "nids", "acl")]
        out = []
        for _ in range(3):
            for mix in mixes:
                traffic = TrafficProfile(
                    int(rng.integers(5_000, 200_000)), 256, 500.0
                )
                out.append(
                    [
                        make_nf(n).demand(traffic, instance=f"{n}#{j}")
                        for j, n in enumerate(mix)
                    ]
                )
        return out

    def test_cache_is_bit_invisible(self):
        nic = SmartNic(bluefield2_spec(), seed=3)
        scenarios = self._scenarios()
        set_compile_cache_enabled(False)
        cold = nic.run_batch(scenarios)
        set_compile_cache_enabled(True)
        clear_compile_cache()
        first = nic.run_batch(scenarios)   # populates the cache
        second = nic.run_batch(scenarios)  # replays from the cache
        for i in range(len(scenarios)):
            assert_identical(cold[i], first[i], f"populate {i}")
            assert_identical(cold[i], second[i], f"replay {i}")

    def test_repeat_calls_hit_the_cache(self):
        nic = SmartNic(bluefield2_spec(), seed=3)
        scenarios = self._scenarios()
        assert compile_cache_enabled()
        nic.run_batch(scenarios)
        misses_after_first = _COMPILE_CACHE.misses
        hits_after_first = _COMPILE_CACHE.hits
        nic.run_batch(scenarios)
        assert _COMPILE_CACHE.misses == misses_after_first
        assert _COMPILE_CACHE.hits > hits_after_first

    def test_identical_spec_objects_share_plans(self):
        # The cache keys on spec *identity*: two NICs built around the
        # same spec object share compiled plans, distinct spec objects
        # (even equal ones) do not alias.
        spec = bluefield2_spec()
        nic_a = SmartNic(spec, seed=3)
        nic_b = SmartNic(spec, seed=4)
        scenarios = self._scenarios()
        nic_a.run_batch(scenarios)
        misses = _COMPILE_CACHE.misses
        nic_b.run_batch(scenarios)
        assert _COMPILE_CACHE.misses == misses
        nic_c = SmartNic(bluefield2_spec(), seed=3)
        nic_c.run_batch(scenarios)
        assert _COMPILE_CACHE.misses > misses

    def test_clear_empties_tables_keeps_counters(self):
        nic = SmartNic(bluefield2_spec(), seed=3)
        nic.run_batch(self._scenarios())
        assert _COMPILE_CACHE.plans
        misses = _COMPILE_CACHE.misses
        clear_compile_cache()
        assert not _COMPILE_CACHE.plans
        assert not _COMPILE_CACHE.embeddings
        assert not _COMPILE_CACHE.columns
        assert _COMPILE_CACHE.misses == misses


class TestStragglerAdoption:
    """Stragglers beside a big signature group ride along as masked
    lanes of the call's one universal padded group."""

    def _scenarios(self):
        rng = make_rng(29)
        big_mix = ("flowstats", "nat", "nids")
        # Six small signatures (flowstats and nat share one), two
        # scenarios each: enough real lanes for the universal layout.
        small_mixes = [
            ("flowstats", "nids"),
            ("nat",),
            ("nids", "flowstats"),
            ("nids",),
            ("nat", "flowstats"),
            ("nids", "nids"),
        ] * 2
        scenarios = []
        for _ in range(_SCALAR_FALLBACK_GROUP_SIZE + 2):  # the big group
            traffic = [
                TrafficProfile(int(rng.integers(5_000, 300_000)), 512, 700.0)
                for _ in big_mix
            ]
            scenarios.append(
                [
                    make_nf(n).demand(t, instance=f"{n}#{j}")
                    for j, (n, t) in enumerate(zip(big_mix, traffic))
                ]
            )
        for mix in small_mixes:
            traffic = [
                TrafficProfile(int(rng.integers(5_000, 300_000)), 512, 700.0)
                for _ in mix
            ]
            scenarios.append(
                [
                    make_nf(n).demand(t, instance=f"{n}#{j}")
                    for j, (n, t) in enumerate(zip(mix, traffic))
                ]
            )
        return scenarios

    def test_adoption_engages_here(self):
        nic = SmartNic(bluefield2_spec(), seed=11)
        scenarios = self._scenarios()
        plans = [_ScenarioPlan(nic, s) for s in scenarios]
        sigs: dict = {}
        for plan in plans:
            sigs[plan.signature] = sigs.get(plan.signature, 0) + 1
        big = [s for s, n in sigs.items() if n >= _SCALAR_FALLBACK_GROUP_SIZE]
        small = [s for s, n in sigs.items() if n < _SCALAR_FALLBACK_GROUP_SIZE]
        assert len(big) == 1 and len(small) == 6
        recorder = TraceRecorder()
        with use_recorder(recorder):
            nic.run_batch(scenarios)
        assert "batch.scalar_scenarios" not in recorder.exec_counters
        assert recorder.exec_counters["batch.padded_lanes"] > 0
        # One full-lane group plus the universal group.
        assert recorder.exec_histograms["batch.group_size"]["count"] == 2

    def test_adopted_scenarios_match_scalar_oracle(self):
        nic = SmartNic(bluefield2_spec(), seed=11)
        scenarios = self._scenarios()
        batch = nic.run_batch(scenarios)
        for i, scenario in enumerate(scenarios):
            assert_identical(nic.run(scenario), batch[i], f"adopted {i}")

    def test_adoption_matches_scalar_oracle_on_pensando(self):
        nic = SmartNic(pensando_spec(), seed=13)
        scenarios = self._scenarios()
        batch = nic.run_batch(scenarios)
        for i, scenario in enumerate(scenarios):
            assert_identical(nic.run(scenario), batch[i], f"scenario {i}")

    def test_adoption_with_warm_starts(self):
        """Warm rows in the universal group match the warm scalar solve."""
        nic = SmartNic(bluefield2_spec(), seed=11)
        scenarios = self._scenarios()
        cold = [nic.run(s) for s in scenarios]
        warms = [
            {w.name: cold[i].throughput_of(w.name) for w in s}
            if i % 2 == 0
            else None
            for i, s in enumerate(scenarios)
        ]
        batch = nic.run_batch(scenarios, warm_starts=warms)
        for i, (scenario, warm) in enumerate(zip(scenarios, warms)):
            assert_identical(
                nic.run(scenario, initial=warm), batch[i], f"warm adopt {i}"
            )

    def test_scenario_order_invariance(self):
        nic = SmartNic(bluefield2_spec(), seed=11)
        scenarios = self._scenarios()
        base = nic.run_batch(scenarios)
        order = list(range(len(scenarios)))[::-1]
        permuted = nic.run_batch([scenarios[i] for i in order])
        for out_pos, src in enumerate(order):
            assert_identical(base[src], permuted[out_pos], f"perm {src}")


class TestUniversalLayout:
    """The universal super-signature is a pure function of the plan
    *multiset*: scenario order never changes the layout, and every
    scenario embeds into it."""

    MIXES = [
        ("flowstats", "nat", "nids"),
        ("flowstats", "nids"),
        ("nat", "nids"),
        ("flowstats",),
        ("nids",),
        ("nat",),
    ]

    @given(
        order=st.permutations(list(range(6))),
        sizes=st.lists(
            st.integers(min_value=1, max_value=2), min_size=6, max_size=6
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_layout_ignores_insertion_order(self, order, sizes):
        nic = SmartNic(bluefield2_spec(), seed=123)
        traffic = TrafficProfile(50_000, 256, 400.0)
        groups = []
        for mix, size in zip(self.MIXES, sizes):
            scenario = [
                make_nf(n).demand(traffic, instance=f"{n}#{j}")
                for j, n in enumerate(mix)
            ]
            groups.append([_ScenarioPlan(nic, scenario)] * size)
        plans = [plan for group in groups for plan in group]
        shuffled = [plan for i in order for plan in groups[i]]
        layout = _universal_signature(plans)
        assert layout == _universal_signature(shuffled)
        assert len(layout) % 3 == 0  # K = 3 repetitions of the signatures
        for plan in plans:
            assert _embed_signature(plan.signature, layout) is not None
