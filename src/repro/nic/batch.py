"""Vectorized batch solver for the SmartNIC co-location fixed point.

:meth:`SmartNic.run_batch` solves many *independent* co-location
scenarios at once. Scenarios are compiled into array-shaped state —
static per-workload aggregates are extracted once per scenario, and the
dynamic fixed-point quantities (throughputs, memory pressure,
accelerator offered rates) become ``(n_scenarios,)`` vectors — so each
fixed-point iteration advances *every* unconverged scenario with a fixed
number of numpy operations instead of a Python-loop sweep per scenario.

Bit-exactness contract
----------------------

The batch engine is required to reproduce the scalar solver
(:meth:`SmartNic.run`) **bit for bit** — throughputs, counters,
bottleneck labels, iteration counts and the seeded measurement noise.
That drives three design rules:

1. **Vectorize across scenarios, loop over structure.** All reductions
   in the scalar solver run over small per-scenario collections (stages,
   memory actors, accelerator clients) whose float-addition order is
   observable. Those stay as Python loops over vectorized columns, so
   each scenario sees exactly the scalar sequence of IEEE operations;
   only the scenario axis (the large one) is array-shaped.
2. **Group by structure.** Scenarios are bucketed by a structural
   signature (workload patterns, stage layouts, accelerator usage, DMA
   actors) so that every scenario in a group shares the same set of
   arrays and the same control-flow skeleton; the scenarios left over
   share one padded layout that every signature embeds into. The one
   reduction the scalar solver performs with ``np.sum`` (occupancy
   pressure) is evaluated per equal-hungry-count row group on
   contiguous gathered blocks, which reproduces numpy's pairwise
   summation exactly.
3. **Scalar libm where numpy's SIMD differs.** ``x ** 0.7`` in the
   occupancy solver goes through ``math.pow`` per element: numpy's
   vectorized ``pow`` is 1 ulp off libm's scalar ``pow`` for some
   inputs, which the equivalence tests would catch.

Per-scenario damping schedules and convergence masks let finished
scenarios freeze (their state rows stop updating) while stragglers keep
iterating; once at least half of a group's rows have converged the
arrays are compacted to the survivors, so a mixed-convergence batch
costs what its stragglers need, not ``max_iterations * n_scenarios``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional

import numpy as np

from repro.errors import ConvergenceError, PlacementError, SimulationError
from repro.nic import nic as _nic
from repro.nic.accelerator import _WATERFILL_ITERATIONS
from repro.nic.counters import PerfCounters
from repro.nic.memory import (
    _MAX_UTILISATION,
    _OCCUPANCY_ITERATIONS,
    _PRESSURE_RATE_EXPONENT,
    MemoryActor,
)
from repro.nic.spec import CACHE_LINE_BYTES
from repro.nic.workload import ExecutionPattern, Resource, WorkloadDemand
from repro.obs import active_recorder
from repro.rng import derive_seeds, make_rng

#: The DMA memory actor's reuse locality: SmartNic._memory_actors builds
#: it without hot-fraction arguments, so it inherits MemoryActor's
#: dataclass defaults — read them from the dataclass so a retune there
#: cannot silently diverge the two solvers.
_DMA_HOT_ACCESS_FRACTION = MemoryActor.__dataclass_fields__[
    "hot_access_fraction"
].default
_DMA_HOT_WSS_FRACTION = MemoryActor.__dataclass_fields__[
    "hot_wss_fraction"
].default


def _pow_scalar(values: np.ndarray, exponent: float) -> np.ndarray:
    """Elementwise ``values ** exponent`` through scalar libm ``pow``.

    Bit-identical to Python's ``float ** float`` (the scalar solver's
    path); numpy's SIMD pow kernel rounds differently on ~5% of inputs.
    """
    flat = values.ravel()
    out = np.array(
        [math.pow(v, exponent) for v in flat.tolist()], dtype=np.float64
    )
    return out.reshape(values.shape)


# ----------------------------------------------------------------------
# Persistent compilation cache
# ----------------------------------------------------------------------
#: Per-table entry cap. On overflow the table is cleared wholesale
#: rather than LRU-evicted: eviction bookkeeping would cost more than
#: the occasional recompile, and a fleet epoch's working set of
#: structures is orders of magnitude below this.
_COMPILE_CACHE_MAX_ENTRIES = 4096


class _CompileCache:
    """Structural compilation state memoized across ``run_batch`` calls.

    Everything cached here is *static* — a pure function of the demand
    values and the NIC spec (plans, signature embeddings, column
    layouts) — so reuse is bit-exact by construction: a cache hit
    returns the identical objects a cold compile would have produced. Nothing about solver iterates or
    seeded noise lives here.

    The plan table is keyed by ``(id(spec), _demand_key(demand))`` and
    each entry stores a strong reference to its spec, identity-checked
    on lookup: the reference keeps the spec alive so ``id`` reuse after
    garbage collection can never alias two different specs. The
    structural key covers every demand field but the name, so a hit is
    value-identical up to the name: a demand named like the cached plan
    gets that plan, any other name a renamed copy
    (:meth:`_WorkloadPlan.renamed`) whose ``demand`` is the caller's —
    so the repr-derived measurement-noise seed always matches. This is
    what lets a fleet service's solo demand and its renamed ``nf#j``
    mix demand compile once. (The key is a field tuple rather than
    ``repr(demand)`` because hashing the tuple is ~6x cheaper than
    building the repr string, and the lookup is the whole cost of a
    cache hit.)
    """

    __slots__ = ("enabled", "hits", "misses", "plans", "embeddings", "columns")

    def __init__(self) -> None:
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.plans: dict = {}
        self.embeddings: dict = {}
        self.columns: dict = {}

    def clear(self) -> None:
        self.plans.clear()
        self.embeddings.clear()
        self.columns.clear()


_COMPILE_CACHE = _CompileCache()


def compile_cache_enabled() -> bool:
    """Whether the persistent compilation cache is active (default on)."""
    return _COMPILE_CACHE.enabled


def set_compile_cache_enabled(enabled: bool) -> None:
    """Toggle the compilation cache (the cold arm of the perf gate)."""
    _COMPILE_CACHE.enabled = bool(enabled)


def clear_compile_cache() -> None:
    """Drop all memoized compilation state (counters are kept)."""
    _COMPILE_CACHE.clear()


# ----------------------------------------------------------------------
# Compilation: scenario -> static plan
# ----------------------------------------------------------------------
class _WorkloadPlan:
    """Static (throughput-independent) data of one workload demand."""

    __slots__ = (
        "demand",
        "name",
        "cores_f",
        "pattern",
        "n_core",
        "core_cycles",
        "core_rw",
        "core_mlp",
        "reads_sum",
        "writes_sum",
        "instr_sum",
        "cycles_sum",
        "wss",
        "hot_af",
        "hot_wf",
        "arrival",
        "line_rate",
        "accel_names",
        "accel_req",
        "accel_teff",
        "accel_nq",
        "accel_bpk",
        "accel_refs",
        "dma_flag",
        "stage_kinds",
        "stage_labels",
        "signature",
    )

    def __init__(self, nic: "_nic.SmartNic", w: WorkloadDemand) -> None:
        spec = nic.spec
        core = w.core_stages()
        accel = w.accelerator_stages()
        self.demand = w
        self.name = w.name
        self.cores_f = float(w.cores)
        self.pattern = w.pattern
        self.n_core = len(core)
        self.core_cycles = [s.cycles_pp for s in core]
        self.core_rw = [s.reads_pp + s.writes_pp for s in core]
        self.core_mlp = [s.mlp for s in core]
        self.reads_sum = sum(s.reads_pp for s in core)
        self.writes_sum = sum(s.writes_pp for s in core)
        self.instr_sum = sum(s.instructions_pp for s in w.stages)
        self.cycles_sum = sum(s.cycles_pp for s in w.stages)
        self.wss = w.total_wss_bytes()
        self.hot_af = w.hot_access_fraction
        self.hot_wf = w.hot_wss_fraction
        self.arrival = (
            w.arrival_rate_mpps if w.arrival_rate_mpps is not None else np.inf
        )
        self.line_rate = spec.line_rate_mpps(w.packet_size_bytes)
        self.accel_names = tuple(s.accelerator for s in accel)
        self.accel_req = [s.requests_pp for s in accel]
        self.accel_teff = [
            spec.accelerator(s.accelerator).request_time_us(
                s.bytes_per_request, s.matches_per_request
            )
            + spec.accelerator(s.accelerator).queue_switch_us
            for s in accel
        ]
        self.accel_nq = [float(w.queues_for(s.accelerator)) for s in accel]
        self.accel_bpk = [s.bytes_per_request / 1024.0 for s in accel]
        self.accel_refs = [
            spec.accelerator(s.accelerator).dma_refs_per_kb for s in accel
        ]
        # The DMA memory actor exists exactly when some accelerator
        # stage produces a positive DMA reference rate (rates are > 0).
        self.dma_flag = any(
            b > 0.0 and r > 0.0 for b, r in zip(self.accel_bpk, self.accel_refs)
        )
        # Stage layout in declaration order: ("c", core_idx) for
        # CPU/MEMORY stages, ("a", accel_idx) for accelerator stages.
        kinds: list[tuple[str, int]] = []
        labels: list[str] = []
        c_idx = a_idx = 0
        for stage in w.stages:
            if stage.resource is Resource.ACCELERATOR:
                kinds.append(("a", a_idx))
                labels.append(stage.accelerator or "accelerator")
                a_idx += 1
            else:
                kinds.append(("c", c_idx))
                labels.append(stage.resource.value)
                c_idx += 1
        self.stage_kinds = tuple(kinds)
        self.stage_labels = labels
        self.signature = (
            self.pattern.value,
            tuple(
                (kind, self.accel_names[idx] if kind == "a" else None)
                for kind, idx in kinds
            ),
            self.dma_flag,
        )

    def renamed(self, w: WorkloadDemand) -> "_WorkloadPlan":
        """This plan for ``w``, a demand equal to its own but in name.

        Nothing but ``demand`` and ``name`` depends on the name; the
        copy shares every other (never mutated) value.
        """
        plan = object.__new__(_WorkloadPlan)
        for slot in _WorkloadPlan.__slots__:
            setattr(plan, slot, getattr(self, slot))
        plan.demand = w
        plan.name = w.name
        return plan


def _demand_key(w: WorkloadDemand) -> tuple:
    """Structural identity of a demand: every field but the name.

    ``WorkloadDemand`` itself is unhashable (``queues_per_accelerator``
    is a dict), so the dict is folded to sorted items; everything else
    is already hashable (``stages`` is a tuple of frozen dataclasses).
    Equal keys <=> demands equal in every field but ``name``.
    """
    return (
        w.cores,
        w.pattern,
        w.stages,
        w.arrival_rate_mpps,
        tuple(sorted(w.queues_per_accelerator.items())),
        w.packet_size_bytes,
        w.hot_access_fraction,
        w.hot_wss_fraction,
    )


def _plan_for(nic: "_nic.SmartNic", w: WorkloadDemand) -> _WorkloadPlan:
    """Compile ``w`` against ``nic``, memoized in the compile cache."""
    cache = _COMPILE_CACHE
    if not cache.enabled:
        return _WorkloadPlan(nic, w)
    spec = nic.spec
    key = (id(spec), _demand_key(w))
    entry = cache.plans.get(key)
    if entry is not None and entry[0] is spec:
        cache.hits += 1
        plan = entry[1]
        return plan if plan.name == w.name else plan.renamed(w)
    cache.misses += 1
    if len(cache.plans) >= _COMPILE_CACHE_MAX_ENTRIES:
        cache.plans.clear()
    plan = _WorkloadPlan(nic, w)
    cache.plans[key] = (spec, plan)
    return plan


class _ScenarioPlan:
    """One compiled scenario: per-workload plans plus a structure key."""

    __slots__ = ("workloads", "signature", "names")

    def __init__(self, nic: "_nic.SmartNic", demands: list[WorkloadDemand]) -> None:
        self.workloads = [_plan_for(nic, w) for w in demands]
        self.names = [w.name for w in demands]
        self.signature = tuple(p.signature for p in self.workloads)


class _ColumnRef:
    """Column structure of a padded group, built from a signature.

    The universal layout's super-signature is synthesized (see
    :func:`_universal_signature`), so no single real scenario spans
    every column; the per-workload signature carries everything the
    group needs to lay a column out — pattern, stage kinds, accelerator names
    and the DMA flag — while all numeric values stay per-row.
    """

    __slots__ = ("pattern", "n_core", "accel_names", "dma_flag", "stage_kinds")

    def __init__(self, wsig: tuple) -> None:
        pattern_value, stages, dma_flag = wsig
        self.pattern = ExecutionPattern(pattern_value)
        kinds: list[tuple[str, int]] = []
        c_idx = a_idx = 0
        for kind, _ in stages:
            if kind == "a":
                kinds.append(("a", a_idx))
                a_idx += 1
            else:
                kinds.append(("c", c_idx))
                c_idx += 1
        self.stage_kinds = tuple(kinds)
        self.n_core = c_idx
        self.accel_names = tuple(
            accel for kind, accel in stages if kind == "a"
        )
        self.dma_flag = dma_flag


def _embed_signature(short: tuple, long: tuple) -> Optional[list[int]]:
    """Leftmost subsequence embedding of ``short`` into ``long``.

    Returns the column index each workload of a ``short``-signature
    scenario occupies in a ``long``-signature super-group, or ``None``
    when no embedding exists. Any valid embedding preserves the scalar
    reduction order (real columns keep their relative order; dummy
    columns contribute exact ``+0.0`` terms), so the deterministic
    leftmost match is as good as any. Memoized in the compile cache
    (the result is pure in the two signatures); callers treat the
    returned list as read-only.
    """
    cache = _COMPILE_CACHE
    if cache.enabled:
        key = (short, long)
        try:
            return cache.embeddings[key]
        except KeyError:
            pass
    cols: Optional[list[int]] = []
    pos = 0
    for wsig in short:
        while pos < len(long) and long[pos] != wsig:
            pos += 1
        if pos == len(long):
            cols = None
            break
        cols.append(pos)
        pos += 1
    if cache.enabled:
        if len(cache.embeddings) >= _COMPILE_CACHE_MAX_ENTRIES:
            cache.embeddings.clear()
        cache.embeddings[key] = cols
    return cols


def _universal_signature(plans: list[_ScenarioPlan]) -> tuple:
    """The one super-signature every scenario of ``plans`` embeds into.

    The distinct workload signatures sorted by repr, repeated K times
    for K the most residents any scenario has. A scenario's j-th
    workload finds its signature in repetition j at the latest, so the
    leftmost embedding of any scenario of at most K workloads succeeds.
    Pure in the signature set and K, hence independent of scenario
    order.
    """
    distinct = sorted({w for plan in plans for w in plan.signature}, key=repr)
    depth = max(len(plan.signature) for plan in plans)
    return tuple(distinct) * depth


def _columns_for(super_sig: tuple) -> list[_ColumnRef]:
    """Column layout of a padded group, memoized in the compile cache."""
    cache = _COMPILE_CACHE
    if not cache.enabled:
        return [_ColumnRef(wsig) for wsig in super_sig]
    cols = cache.columns.get(super_sig)
    if cols is None:
        if len(cache.columns) >= _COMPILE_CACHE_MAX_ENTRIES:
            cache.columns.clear()
        cols = [_ColumnRef(wsig) for wsig in super_sig]
        cache.columns[super_sig] = cols
    return cols


def _validate(nic: "_nic.SmartNic", workloads: list[WorkloadDemand]):
    """Replicate :meth:`SmartNic.run` validation; return the error or None."""
    spec = nic.spec
    if not workloads:
        return SimulationError("run() needs at least one workload")
    names = [w.name for w in workloads]
    if len(set(names)) != len(names):
        return SimulationError(f"duplicate workload names: {names}")
    total_cores = sum(w.cores for w in workloads)
    if total_cores > spec.num_cores:
        return PlacementError(
            f"{total_cores} cores requested on {spec.num_cores}-core NIC"
        )
    for workload in workloads:
        for stage in workload.accelerator_stages():
            try:
                spec.accelerator(stage.accelerator)
            except Exception as exc:  # ConfigurationError
                return exc
    return None


class _View:
    """The group's static arrays restricted to one set of rows.

    Slices are taken once per compaction event and reused across
    iterations, so the per-iteration work is purely elementwise.
    """

    __slots__ = ("wl", "act_wss", "act_sqrt", "act_haf", "act_hot", "act_cold", "engines", "n", "lane")

    def __init__(self, group: "_Group", idx: Optional[np.ndarray]) -> None:
        def take(arr):
            return arr if idx is None else arr[idx]

        self.n = group.S if idx is None else len(idx)
        self.lane = take(group.lane)
        self.act_wss = take(group.act_wss)
        self.act_sqrt = take(group.act_sqrt)
        self.act_haf = take(group.act_haf)
        self.act_hot = take(group.act_hot_bytes)
        self.act_cold = take(group.act_cold_bytes)
        self.wl = []
        for data in group.wl:
            self.wl.append(
                {
                    "pattern": data["pattern"],
                    "n_core": data["n_core"],
                    "accel_names": data["accel_names"],
                    "dma_flag": data["dma_flag"],
                    "stage_kinds": data["stage_kinds"],
                    "cores_f": take(data["cores_f"]),
                    "reads_sum": take(data["reads_sum"]),
                    "writes_sum": take(data["writes_sum"]),
                    "instr_sum": take(data["instr_sum"]),
                    "cycles_sum": take(data["cycles_sum"]),
                    "wss": take(data["wss"]),
                    "arrival": take(data["arrival"]),
                    "line_rate": take(data["line_rate"]),
                    "core_cycles": [take(a) for a in data["core_cycles"]],
                    "core_rw": [take(a) for a in data["core_rw"]],
                    "core_mlp": [take(a) for a in data["core_mlp"]],
                    "accel_req": [take(a) for a in data["accel_req"]],
                    "accel_teff": [take(a) for a in data["accel_teff"]],
                    "accel_nq": [take(a) for a in data["accel_nq"]],
                    "accel_bpk": [take(a) for a in data["accel_bpk"]],
                    "accel_refs": [take(a) for a in data["accel_refs"]],
                }
            )
        self.engines = [
            {
                "name": engine["name"],
                "clients": engine["clients"],
                "teff": [take(a) for a in engine["teff"]],
                "nq": [take(a) for a in engine["nq"]],
                "req": [take(a) for a in engine["req"]],
            }
            for engine in group.engines
        ]


# ----------------------------------------------------------------------
# Group solver
# ----------------------------------------------------------------------
class _Group:
    """Scenarios solved together on one column layout.

    A *full-lane* group holds scenarios that share one structural
    signature. The *universal* padded group of a ``solve_batch`` call
    holds every other scenario on the layout of
    :func:`_universal_signature`: each scenario's workloads occupy the
    columns of its ``embeddings`` entry, and the remaining columns are
    masked-out dummy lanes whose rates, working sets and accelerator
    demands are all zero. Zero lanes contribute exact ``+0.0`` terms to
    every left-fold reduction, never turn "hungry" in the occupancy
    water-filling (so the pairwise ``np.sum`` runs over exactly the
    scalar solver's actor set) and never saturate an accelerator
    water-fill, which keeps the padded solve bit-identical to the
    scalar solver for every real lane.
    """

    def __init__(
        self,
        nic: "_nic.SmartNic",
        plans: list[_ScenarioPlan],
        indices: list[int],
        columns: Optional[list[_WorkloadPlan]] = None,
        embeddings: Optional[list[list[int]]] = None,
        warm: Optional[list] = None,
    ) -> None:
        self._nic = nic
        self._spec = nic.spec
        self._plans = plans
        self.indices = indices
        # warm[i]: None (cold row) or a per-workload list aligned with
        # plans[i].workloads of initial-iterate guesses (None entries
        # fall back to the contention-free estimate).
        self._warm = warm
        self.S = len(plans)
        self._columns = columns if columns is not None else plans[0].workloads
        self.W = len(self._columns)
        if embeddings is None:
            embeddings = [list(range(self.W))] * self.S
        self.embeddings = embeddings
        # lane[i, w]: scenario i has a real workload in column w.
        self.lane = np.zeros((self.S, self.W), dtype=bool)
        for i, cols in enumerate(embeddings):
            self.lane[i, cols] = True
        self._padded = not bool(self.lane.all())
        self._build_workload_arrays()
        self._build_actor_layout()
        self._build_engine_layout()

    # -- array assembly -------------------------------------------------
    def _col(self, values: list[float]) -> np.ndarray:
        return np.array(values, dtype=np.float64)

    def _build_workload_arrays(self) -> None:
        plans = self._plans
        # Per scenario: column index -> its own workload, for the columns
        # it occupies; padded scenarios leave the rest as dummy lanes.
        col_to_wl = [
            {col: j for j, col in enumerate(cols)} for cols in self.embeddings
        ]
        self.wl: list[dict] = []
        for w in range(self.W):
            ref = self._columns[w]
            ps = [
                plan.workloads[col_to_wl[i][w]] if w in col_to_wl[i] else None
                for i, plan in enumerate(plans)
            ]
            n_accel = len(ref.accel_names)
            # Dummy lanes get all-zero demands (mlp keeps 1.0 — it only
            # ever divides): zero rates feed zero pressure everywhere.
            def scalar(attr: str, missing: float = 0.0) -> np.ndarray:
                return self._col(
                    [getattr(p, attr) if p is not None else missing for p in ps]
                )

            def per_item(attr: str, k: int, missing: float = 0.0) -> np.ndarray:
                return self._col(
                    [
                        getattr(p, attr)[k] if p is not None else missing
                        for p in ps
                    ]
                )

            data = {
                "pattern": ref.pattern,
                "n_core": ref.n_core,
                "accel_names": ref.accel_names,
                "dma_flag": ref.dma_flag,
                "stage_kinds": ref.stage_kinds,
                "cores_f": scalar("cores_f"),
                "reads_sum": scalar("reads_sum"),
                "writes_sum": scalar("writes_sum"),
                "instr_sum": scalar("instr_sum"),
                "cycles_sum": scalar("cycles_sum"),
                "wss": scalar("wss"),
                "hot_af": scalar("hot_af"),
                "hot_wf": scalar("hot_wf"),
                "arrival": scalar("arrival"),
                "line_rate": scalar("line_rate"),
                "core_cycles": [
                    per_item("core_cycles", k) for k in range(ref.n_core)
                ],
                "core_rw": [
                    per_item("core_rw", k) for k in range(ref.n_core)
                ],
                "core_mlp": [
                    per_item("core_mlp", k, missing=1.0)
                    for k in range(ref.n_core)
                ],
                "accel_req": [
                    per_item("accel_req", m) for m in range(n_accel)
                ],
                "accel_teff": [
                    per_item("accel_teff", m) for m in range(n_accel)
                ],
                "accel_nq": [
                    per_item("accel_nq", m) for m in range(n_accel)
                ],
                "accel_bpk": [
                    per_item("accel_bpk", m) for m in range(n_accel)
                ],
                "accel_refs": [
                    per_item("accel_refs", m) for m in range(n_accel)
                ],
            }
            self.wl.append(data)

    def _build_actor_layout(self) -> None:
        """Memory actors in the scalar solver's order: workload, then DMA."""
        layout: list[tuple[int, bool]] = []
        for w in range(self.W):
            layout.append((w, False))
            if self.wl[w]["dma_flag"]:
                layout.append((w, True))
        self.actors = layout
        self.A = len(layout)
        llc = self._spec.llc_bytes
        wss_cols, haf_cols, hwf_cols = [], [], []
        for w, is_dma in layout:
            if is_dma:
                wss_cols.append(np.full(self.S, float(_nic._DMA_BUFFER_BYTES)))
                haf_cols.append(np.full(self.S, _DMA_HOT_ACCESS_FRACTION))
                hwf_cols.append(np.full(self.S, _DMA_HOT_WSS_FRACTION))
            else:
                wss_cols.append(self.wl[w]["wss"])
                haf_cols.append(self.wl[w]["hot_af"])
                hwf_cols.append(self.wl[w]["hot_wf"])
        self.act_wss = np.column_stack(wss_cols)
        self.act_haf = np.column_stack(haf_cols)
        hwf = np.column_stack(hwf_cols)
        # sqrt(min(wss, llc)) is static; matches np.sqrt on the scalar min.
        self.act_sqrt = np.sqrt(np.minimum(self.act_wss, llc))
        self.act_hot_bytes = hwf * self.act_wss
        self.act_cold_bytes = self.act_wss - self.act_hot_bytes
        # Workload -> its own (non-DMA) actor column.
        self.wl_actor = {
            w: k for k, (w, is_dma) in enumerate(layout) if not is_dma
        }

    def _build_engine_layout(self) -> None:
        """Per-engine client structure (scalar ``_accelerator_capacities``)."""
        self.engines: list[dict] = []
        for accel_name in self._nic._engines:
            users: list[tuple[int, int]] = []
            for w in range(self.W):
                for m, name in enumerate(self.wl[w]["accel_names"]):
                    if name == accel_name:
                        users.append((w, m))
            if not users:
                continue
            # Clients keyed per workload; a later stage on the same
            # engine overwrites the earlier one (dict-update semantics
            # of the scalar code), so each client uses its *last* stage.
            last: dict[int, int] = {}
            for w, m in users:
                last[w] = m
            client_ws = list(last)  # insertion order == workload order
            self.engines.append(
                {
                    "name": accel_name,
                    "clients": client_ws,
                    "teff": [self.wl[w]["accel_teff"][last[w]] for w in client_ws],
                    "nq": [self.wl[w]["accel_nq"][last[w]] for w in client_ws],
                    "req": [self.wl[w]["accel_req"][last[w]] for w in client_ws],
                }
            )

    # -- fixed-point pieces ---------------------------------------------
    def _memory_pressures(
        self, view: _View, thr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-actor cache read/write rates at current throughputs."""
        reads = np.empty((view.n, self.A))
        writes = np.empty((view.n, self.A))
        for k, (w, is_dma) in enumerate(self.actors):
            data = view.wl[w]
            rate = thr[:, w]
            if not is_dma:
                reads[:, k] = data["reads_sum"] * rate
                writes[:, k] = data["writes_sum"] * rate
            else:
                dma = np.zeros(view.n)
                for m in range(len(data["accel_names"])):
                    dma = dma + (
                        (rate * data["accel_req"][m])
                        * data["accel_bpk"][m]
                        * data["accel_refs"][m]
                    )
                reads[:, k] = dma * 0.5
                writes[:, k] = dma * 0.5
        return reads, writes

    def _solve_occupancy(self, view: _View, access: np.ndarray) -> np.ndarray:
        """Vectorized LLC water-filling (scalar ``solve_occupancy``).

        Rows advance independently. Each round, rows with the same
        number of hungry actors are grouped and their hungry columns
        gathered (in actor order) into one contiguous ``(rows, count)``
        block, so each row's pressure total is an ``np.sum`` over
        exactly its hungry pressures — the reduction (including numpy's
        pairwise blocking, which depends only on the count) the scalar
        solver runs.
        """
        llc = self._spec.llc_bytes
        wss = view.act_wss
        pressure = _pow_scalar(access, _PRESSURE_RATE_EXPONENT) * view.act_sqrt
        active = (access > 0.0) & (wss > 0.0)
        occupancy = np.zeros((view.n, self.A))
        remaining = np.full(view.n, float(llc))
        hungry = active.copy()
        alive = active.any(axis=1)
        for _ in range(_OCCUPANCY_ITERATIONS):
            alive &= hungry.any(axis=1) & (remaining > 0.0)
            rows_alive = np.flatnonzero(alive)
            if len(rows_alive) == 0:
                break
            counts = hungry[rows_alive].sum(axis=1)
            for count in np.unique(counts).tolist():
                rows = rows_alive[counts == count]
                # Each row's hungry columns, ascending: stable-sorting
                # the negated mask puts them first, in order.
                cols = np.argsort(~hungry[rows], axis=1, kind="stable")
                cols = cols[:, :count]
                rows_c = rows[:, None]
                pres = pressure[rows_c, cols]
                total = pres.sum(axis=1)
                positive = total > 0.0
                if not positive.all():
                    alive[rows[~positive]] = False
                    rows = rows[positive]
                    if len(rows) == 0:
                        continue
                    rows_c = rows[:, None]
                    cols = cols[positive]
                    pres = pres[positive]
                    total = total[positive]
                shares = remaining[rows_c] * pres / total[:, None]
                need = wss[rows_c, cols] - occupancy[rows_c, cols]
                sat = need <= shares
                any_sat = sat.any(axis=1)
                if any_sat.any():
                    for j in range(count):
                        hit = any_sat & sat[:, j]
                        if not hit.any():
                            continue
                        r = rows[hit]
                        col = cols[hit, j]
                        occupancy[r, col] += need[hit, j]
                        remaining[r] -= need[hit, j]
                        hungry[r, col] = False
                no_sat = ~any_sat
                if no_sat.any():
                    r = rows[no_sat]
                    occupancy[r[:, None], cols[no_sat]] += shares[no_sat]
                    remaining[r] = 0.0
                    alive[r] = False
        return occupancy

    def _solve_memory(self, view: _View, thr: np.ndarray) -> dict:
        """Vectorized :meth:`MemorySubsystem.solve` over the view rows."""
        spec = self._spec
        reads, writes = self._memory_pressures(view, thr)
        access = reads + writes
        occupancy = self._solve_occupancy(view, access)
        wss = view.act_wss
        base = spec.base_miss_ratio
        occ_c = np.clip(occupancy, 0.0, wss)
        hot_bytes = view.act_hot
        cold_bytes = view.act_cold
        hot_resident = np.minimum(occ_c, hot_bytes)
        cold_resident = np.minimum(
            np.maximum(occ_c - hot_bytes, 0.0), cold_bytes
        )
        hot_miss = np.where(
            hot_bytes > 0.0,
            1.0 - hot_resident / np.where(hot_bytes > 0.0, hot_bytes, 1.0),
            0.0,
        )
        cold_miss = np.where(
            cold_bytes > 0.0,
            1.0 - cold_resident / np.where(cold_bytes > 0.0, cold_bytes, 1.0),
            0.0,
        )
        haf = view.act_haf
        blended = haf * hot_miss + (1.0 - haf) * cold_miss
        miss = np.clip(base + (1.0 - base) * blended, base, 1.0)
        miss = np.where(wss <= 0.0, base, miss)

        dram_reads = np.empty_like(reads)
        dram_writes = np.empty_like(writes)
        for k in range(self.A):
            dram_reads[:, k] = reads[:, k] * miss[:, k]
            dram_writes[:, k] = (writes[:, k] * miss[:, k]) + (
                reads[:, k] + writes[:, k]
            ) * miss[:, k] * spec.writeback_fraction
        total_r = np.zeros(view.n)
        for k in range(self.A):
            total_r = total_r + dram_reads[:, k]
        total_w = np.zeros(view.n)
        for k in range(self.A):
            total_w = total_w + dram_writes[:, k]
        total_lines = total_r + total_w
        utilisation = np.minimum(
            _MAX_UTILISATION,
            total_lines * CACHE_LINE_BYTES / spec.dram_bandwidth_bpus,
        )
        effective_dram = spec.dram_latency_us / (1.0 - utilisation)
        avg = spec.llc_hit_time_us + miss * effective_dram[:, None]
        return {
            "occupancy": occupancy,
            "miss": miss,
            "avg": avg,
            "dram_reads": dram_reads,
            "dram_writes": dram_writes,
        }

    @staticmethod
    def _waterfill_targets(
        teff: list[np.ndarray],
        nq: list[np.ndarray],
        offered: list[np.ndarray],
        done: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized RR water-filling for every closed-loop target at once.

        Row ``t`` of the ``(targets, rows)`` state is the scalar
        ``capacity_for(client t, others)``: client ``t`` saturates its
        queues and is never released, every other client is open-loop
        at its per-row offered rate. Returns (target rates, failed mask),
        both ``(targets, rows)``.

        Folds keep the scalar order per element. Per client ``j`` the
        state is ``(targets, rows)`` arrays in which row ``j`` (the
        client as its own target) is never a competitor: its load reads
        ``0.0``, its saturation flag stays clear and its offered rate
        reads ``-inf``, so it never moves. ``busy`` sums the
        unsaturated competitors in client order, and ``weight`` starts
        with the target's term and adds the saturated competitors in
        order; the target's own column adds ``+0.0`` to both. Adding
        ``+0.0`` to a non-negative sum is exact, so each row is
        bit-identical to its own per-target round loop while every
        round costs O(clients) numpy calls for all targets together.

        ``done`` marks (target, row) pairs whose result the caller throws
        away (the target is one of the row's dummy lanes). They start
        finished: a dummy target anchors the weight fold at zero, which
        lets the move/release rounds oscillate to the iteration cap.
        Elements are independent throughout, so skipping them leaves
        every other element's trajectory bit-identical.
        """
        n, size = done.shape
        load, demand = [], []
        for j in range(n):
            load_j = np.repeat((offered[j] * teff[j])[None, :], n, axis=0)
            load_j[j] = 0.0
            load.append(load_j)
            demand_j = np.repeat(offered[j][None, :], n, axis=0)
            demand_j[j] = -np.inf
            demand.append(demand_j)
        share = [t * q for t, q in zip(teff, nq)]
        weight0 = np.stack(share)
        nq_t = np.stack(nq)
        sat = [np.zeros((n, size), dtype=bool) for _ in range(n)]
        rate = np.ones((n, size))
        done = done.copy()
        for _ in range(_WATERFILL_ITERATIONS):
            act = ~done
            if not act.any():
                break
            busy = np.zeros((n, size))
            weight = weight0
            for j in range(n):
                busy = busy + np.where(sat[j], 0.0, load[j])
                weight = weight + np.where(sat[j], share[j], 0.0)
            spare = np.maximum(0.0, 1.0 - busy)
            per_queue = np.where(
                weight > 0.0, spare / np.where(weight > 0.0, weight, 1.0), 0.0
            )
            fair = [q * per_queue for q in nq]
            moved = np.zeros((n, size), dtype=bool)
            for j in range(n):
                mv = act & ~sat[j] & (demand[j] > fair[j] + 1e-12)
                sat[j] |= mv
                moved |= mv
            release = act & ~moved
            released = np.zeros((n, size), dtype=bool)
            for j in range(n):
                rl = release & sat[j] & (demand[j] < fair[j] - 1e-12)
                sat[j] &= ~rl
                released |= rl
            final = release & ~released
            if final.any():
                rate = np.where(final, nq_t * per_queue, rate)
                done |= final
        return rate, ~done

    def _accel_capacities(
        self, view: _View, thr: np.ndarray
    ) -> tuple[dict[tuple[int, str], np.ndarray], np.ndarray]:
        """Per-(workload, engine) stage capacities, plus failed rows."""
        capacities: dict[tuple[int, str], np.ndarray] = {}
        failed = np.zeros(view.n, dtype=bool)
        for engine in view.engines:
            clients = engine["clients"]
            teff, nq, req = engine["teff"], engine["nq"], engine["req"]
            if len(clients) == 1:
                # allocate() with one closed-loop client resolves in one
                # round: spare = 1.0, weight = t_eff * n_queues.
                rates = [nq[0] * (1.0 / (teff[0] * nq[0]))]
            else:
                offered = [thr[:, w] * req[pos] for pos, w in enumerate(clients)]
                # Dummy-lane targets start done: their result is
                # discarded, so a fill there can never fail the row.
                discard = ~np.stack([view.lane[:, w] for w in clients])
                rates, fail = self._waterfill_targets(teff, nq, offered, discard)
                failed |= fail.any(axis=0)
            for pos, w in enumerate(clients):
                capacities[(w, engine["name"])] = rates[pos] / req[pos]
        return capacities, failed

    def _core_times(
        self, view: _View, w: int, tau: np.ndarray
    ) -> list[np.ndarray]:
        data = view.wl[w]
        freq = self._spec.core_freq_mhz
        return [
            data["core_cycles"][k] / freq
            + data["core_rw"][k] * tau / data["core_mlp"][k]
            for k in range(data["n_core"])
        ]

    def _compose(
        self,
        view: _View,
        w: int,
        core_times: list[np.ndarray],
        accel_caps: list[np.ndarray],
    ) -> np.ndarray:
        data = view.wl[w]
        cores = data["cores_f"]
        if data["pattern"] is ExecutionPattern.PIPELINE:
            n_core = max(1, data["n_core"])
            result = None
            for t in core_times:
                positive = t > 0.0
                cap = np.where(
                    positive,
                    (cores / n_core) / np.where(positive, t, 1.0),
                    np.inf,
                )
                result = cap if result is None else np.minimum(result, cap)
            for cap in accel_caps:
                result = cap if result is None else np.minimum(result, cap)
            if result is None:
                return np.zeros(view.n)
            return result
        total_core = np.zeros(view.n)
        for t in core_times:
            total_core = total_core + t
        accel_wait = np.zeros(view.n)
        for cap in accel_caps:
            positive = cap > 0.0
            accel_wait = accel_wait + np.where(
                positive, cores / np.where(positive, cap, 1.0), 0.0
            )
        denom = total_core + accel_wait
        positive = denom > 0.0
        return np.where(
            positive, cores / np.where(positive, denom, 1.0), np.inf
        )

    def _estimate(self, view: _View) -> np.ndarray:
        """Vectorized :meth:`SmartNic._contention_free_estimate`."""
        with np.errstate(all="ignore"):
            return self._estimate_inner(view)

    def _estimate_inner(self, view: _View) -> np.ndarray:
        spec = self._spec
        tau0 = spec.llc_hit_time_us + spec.base_miss_ratio * spec.dram_latency_us
        thr = np.empty((view.n, self.W))
        for w in range(self.W):
            data = view.wl[w]
            core_times = [
                data["core_cycles"][k] / spec.core_freq_mhz
                + data["core_rw"][k] * tau0 / data["core_mlp"][k]
                for k in range(data["n_core"])
            ]
            accel_caps = []
            for m in range(len(data["accel_names"])):
                teff = data["accel_teff"][m]
                nq = data["accel_nq"][m]
                # allocate() with one closed-loop client in one round:
                # spare = 1.0, weight = t_eff * n, rate = n * (1 / weight).
                solo = nq * (1.0 / (teff * nq))
                accel_caps.append(solo / data["accel_req"][m])
            estimate = self._compose(view, w, core_times, accel_caps)
            estimate = np.minimum(estimate, data["arrival"])
            thr[:, w] = np.minimum(estimate, data["line_rate"])
            if self._padded:
                # Dummy lanes idle at zero rate: every pressure they
                # feed downstream is an exact 0.0, and their residual
                # (updated == thr) is exactly 0.0, so padded rows keep
                # the scalar solver's iteration count.
                thr[:, w] = np.where(view.lane[:, w], thr[:, w], 0.0)
        return thr

    def _iterate(
        self, view: _View, thr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One vectorized sweep of the fixed-point map."""
        memory = self._solve_memory(view, thr)
        capacities, failed = self._accel_capacities(view, thr)
        updated = np.empty_like(thr)
        for w in range(self.W):
            data = view.wl[w]
            tau = memory["avg"][:, self.wl_actor[w]]
            core_times = self._core_times(view, w, tau)
            accel_caps = [capacities[(w, name)] for name in data["accel_names"]]
            rate = self._compose(view, w, core_times, accel_caps)
            rate = np.minimum(rate, data["arrival"])
            rate = np.minimum(rate, data["line_rate"])
            if self._padded:
                updated[:, w] = np.where(
                    view.lane[:, w], np.maximum(rate, 1e-9), thr[:, w]
                )
            else:
                updated[:, w] = np.maximum(rate, 1e-9)
        return updated, failed

    # -- driver ----------------------------------------------------------
    def solve(self) -> list:
        """Run the damped fixed point; return per-scenario results."""
        obs = active_recorder()
        S, W = self.S, self.W
        thr_final = np.empty((S, W))
        iterations = np.full(S, _nic._MAX_ITERATIONS, dtype=np.int64)
        errors: dict[int, Exception] = {}

        view = _View(self, None)
        rows = np.arange(S)  # global row of each live slot
        thr = self._estimate(view)
        damping = np.full(S, _nic._DAMPING)
        window = np.full(S, _nic._STALL_WINDOW, dtype=np.int64)
        # Anderson state of seeded rows (None: no row accelerates):
        # the last one or two (thr, f) pairs, oldest first.
        accel = None
        history: list[tuple[np.ndarray, np.ndarray]] = []
        if self._warm is not None:
            # Seed warm rows exactly as the scalar solver does: per
            # provided name, the guess (clamped like any iterate)
            # replaces the contention-free estimate before iteration 1,
            # and the row takes accelerated warm-weight steps with the
            # short warm stall window (see _nic._WARM_DAMPING /
            # _nic._WARM_STALL_WINDOW).
            accel = np.zeros(S, dtype=bool)
            for i, values in enumerate(self._warm):
                if values is None:
                    continue
                cols = self.embeddings[i]
                seeded = False
                for j, value in enumerate(values):
                    if value is not None:
                        thr[i, cols[j]] = max(float(value), 1e-9)
                        seeded = True
                if seeded:
                    damping[i] = _nic._WARM_DAMPING
                    window[i] = _nic._WARM_STALL_WINDOW
                    accel[i] = True
        best = np.full(S, np.inf)
        stall = np.zeros(S, dtype=np.int64)
        last_residual = np.full(S, np.inf)
        frozen = np.zeros(S, dtype=bool)  # converged or failed slots

        with np.errstate(all="ignore"):
            for it in range(1, _nic._MAX_ITERATIONS + 1):
                updated, failed = self._iterate(view, thr)
                new_fail = failed & ~frozen
                if new_fail.any():
                    for slot in np.flatnonzero(new_fail):
                        errors[rows[slot]] = SimulationError(
                            "accelerator water-filling failed to converge"
                        )
                    frozen |= new_fail
                residual = None
                for w in range(W):
                    rel = np.abs(updated[:, w] - thr[:, w]) / np.maximum(
                        updated[:, w], 1e-12
                    )
                    residual = rel if residual is None else np.maximum(residual, rel)
                live = ~frozen
                improved = residual < best - 1e-12
                bumped = stall + 1
                trigger = ~improved & (bumped >= window)
                best = np.where(live & improved, residual, best)
                damping = np.where(
                    live & trigger,
                    np.maximum(damping * 0.5, _nic._MIN_DAMPING),
                    damping,
                )
                stall = np.where(
                    live, np.where(improved | trigger, 0, bumped), stall
                )
                if accel is not None:
                    # An accelerated row's first stall hands it to the
                    # cold schedule instead of halving its weight.
                    lost = live & trigger & accel
                    damping = np.where(lost, _nic._DAMPING, damping)
                    window = np.where(lost, _nic._STALL_WINDOW, window)
                    accel &= ~lost
                step = (1.0 - damping)[:, None] * thr + damping[:, None] * updated
                if accel is not None:
                    f = updated - thr
                    if history:
                        step = self._anderson(
                            view, thr, f, step, history, damping,
                            live & accel & (residual >= _nic._REL_TOLERANCE),
                        )
                    history = history[-1:] + [(thr, f)]
                thr = np.where(live[:, None], step, thr)
                last_residual = np.where(live, residual, last_residual)

                done = live & (residual < _nic._REL_TOLERANCE)
                if done.any():
                    thr_final[rows[done]] = thr[done]
                    iterations[rows[done]] = it
                    frozen |= done
                if frozen.all():
                    break
                # Compact as soon as an eighth of the slots have frozen
                # (compaction is bit-invisible: rows never interact, so
                # dropping frozen slots only shrinks the arrays the
                # stragglers iterate on). The eager threshold matters
                # most for warm-seeded groups, where the bulk of rows
                # freeze within a few sweeps and only re-seeded
                # stragglers keep iterating.
                if frozen.sum() * 8 >= len(rows):
                    obs.exec_counter("batch.compactions")
                    keep = ~frozen
                    rows = rows[keep]
                    view = _View(self, rows)
                    thr = thr[keep]
                    damping = damping[keep]
                    window = window[keep]
                    best = best[keep]
                    stall = stall[keep]
                    last_residual = last_residual[keep]
                    frozen = np.zeros(len(rows), dtype=bool)
                    if accel is not None:
                        accel = accel[keep]
                        history = [(x[keep], g[keep]) for x, g in history]

        # The for-else path of the scalar loop: accept small residuals,
        # fail the rest.
        open_slots = np.flatnonzero(~frozen)
        for slot in open_slots:
            res = last_residual[slot]
            if res > _nic._ACCEPT_RESIDUAL:
                errors[rows[slot]] = ConvergenceError(
                    f"fixed point residual {res:.3e} after "
                    f"{_nic._MAX_ITERATIONS} iterations"
                )
            else:
                thr_final[rows[slot]] = thr[slot]

        results: list = [None] * S
        for row, error in errors.items():
            results[row] = error
        ok = np.array(
            [i for i in range(S) if i not in errors], dtype=np.int64
        )
        if len(ok) > 0:
            self._finalise(ok, thr_final[ok], iterations[ok], results)
        return results

    @staticmethod
    def _anderson(view, thr, f, plain, history, damping, rows):
        """:func:`repro.nic.nic._anderson_step` on the ``rows`` slots.

        Row sums are ``np.cumsum`` left folds over the columns; dummy
        lanes add exact ``+0.0`` terms and stay at rate ``0.0``, so a
        padded row steps exactly as the scalar solver on its real lanes.
        """
        if not rows.any():
            return plain

        def dot(a, b):
            return np.cumsum(a * b, axis=1)[:, -1]

        prev_thr, prev_f = history[-1]
        df = f - prev_f
        dx = thr - prev_thr
        a11 = dot(df, df)
        b1 = dot(df, f)
        rows = rows & (a11 > 0.0)
        d = damping[:, None]
        gamma = b1 / np.where(rows, a11, 1.0)
        step = plain - gamma[:, None] * (dx + d * df)
        if len(history) == 2:
            old_thr, old_f = history[0]
            df2 = prev_f - old_f
            dx2 = prev_thr - old_thr
            a22 = dot(df2, df2)
            a12 = dot(df, df2)
            b2 = dot(df2, f)
            det = a11 * a22 - a12 * a12
            deep = rows & (det > _nic._ANDERSON_CONDITION * (a11 * a22))
            if deep.any():
                det = np.where(deep, det, 1.0)
                g1 = (b1 * a22 - b2 * a12) / det
                g2 = (a11 * b2 - a12 * b1) / det
                step = np.where(
                    deep[:, None],
                    plain - g1[:, None] * (dx + d * df)
                    - g2[:, None] * (dx2 + d * df2),
                    step,
                )
        valid = ((step > 0.0) & (step < np.inf)) | ~view.lane
        rows = rows & valid.all(axis=1)
        return np.where(rows[:, None], step, plain)

    # -- reporting --------------------------------------------------------
    def _finalise(
        self,
        idx: np.ndarray,
        thr: np.ndarray,
        iterations: np.ndarray,
        results: list,
    ) -> None:
        """Vectorized :meth:`SmartNic._finalise` over the ``idx`` rows.

        Reported rates (with their seeded noise) and iteration counts
        are set now; the rest of each result is
        :meth:`~repro.nic.nic.RunResult.deferred` to
        :class:`_DeferredDetails`, which computes it for all ``idx``
        rows on the first access to any of them.
        """
        plans = [self._plans[scenario_row] for scenario_row in idx]
        noises = iter(self._noises(plans))
        rates = thr.tolist()
        embeddings = [self.embeddings[scenario_row] for scenario_row in idx]
        details = _DeferredDetails(self, idx, thr, plans, embeddings)
        for row, scenario_row in enumerate(idx.tolist()):
            values = rates[row]
            throughputs = {
                wplan.name: values[w] * next(noises)
                for wplan, w in zip(plans[row].workloads, embeddings[row])
            }
            results[scenario_row] = _nic.RunResult.deferred(
                throughputs,
                int(iterations[row]),
                partial(details.row, row, throughputs),
            )

    def _finalise_arrays(self, view, thr, memory, capacities):
        spec = self._spec
        # dram_utilisation(): per-actor (read + write) accumulated in
        # actor order, then the same clamp as the solve.
        total = np.zeros(view.n)
        for k in range(self.A):
            total = total + (
                memory["dram_reads"][:, k] + memory["dram_writes"][:, k]
            )
        dram_util = np.minimum(
            _MAX_UTILISATION,
            total * CACHE_LINE_BYTES / spec.dram_bandwidth_bpus,
        )

        per_wl = []
        for w in range(self.W):
            data = view.wl[w]
            actor = self.wl_actor[w]
            avg = memory["avg"][:, actor]
            core_times = self._core_times(view, w, avg)
            n_core = max(1, data["n_core"])
            cores = data["cores_f"]
            stage_times = []
            stage_caps = []
            rtc_metric = []
            for kind, pos in data["stage_kinds"]:
                if kind == "a":
                    cap = capacities[(w, data["accel_names"][pos])]
                    positive = cap > 0.0
                    t = np.where(
                        positive, 1.0 / np.where(positive, cap, 1.0), np.inf
                    )
                    rtc_metric.append(cores * t)
                else:
                    t = core_times[pos]
                    positive = t > 0.0
                    safe_t = np.where(positive, t, 1.0)
                    if data["pattern"] is ExecutionPattern.PIPELINE:
                        cap = np.where(positive, (cores / n_core) / safe_t, np.inf)
                    else:
                        cap = np.where(positive, cores / safe_t, np.inf)
                    rtc_metric.append(t)
                stage_times.append(t)
                stage_caps.append(cap)
            if data["pattern"] is ExecutionPattern.PIPELINE:
                bottleneck_idx = np.argmin(np.column_stack(stage_caps), axis=1)
            else:
                bottleneck_idx = np.argmax(np.column_stack(rtc_metric), axis=1)

            # Table 11 counters.
            rate = thr[:, w]
            stall_cycles = np.zeros(view.n)
            for k in range(data["n_core"]):
                stall_cycles = stall_cycles + (
                    data["core_rw"][k]
                    * avg
                    / data["core_mlp"][k]
                    * spec.core_freq_mhz
                )
            total_cycles = np.maximum(data["cycles_sum"] + stall_cycles, 1e-9)
            share_dma = np.zeros(view.n)
            for m in range(len(data["accel_names"])):
                share_dma = share_dma + (
                    rate
                    * data["accel_req"][m]
                    * data["accel_bpk"][m]
                    * data["accel_refs"][m]
                )
            dma_reads = share_dma * 0.5
            instr = data["instr_sum"]
            miss = memory["miss"][:, actor]
            per_wl.append(
                {
                    "stage_times": stage_times,
                    "stage_caps": stage_caps,
                    "bottleneck_idx": bottleneck_idx,
                    "ipc": np.where(
                        instr > 0.0, instr / total_cycles, 0.0
                    ),
                    "irt": instr * rate,
                    "l2crd": data["reads_sum"] * rate + dma_reads,
                    "l2cwr": data["writes_sum"] * rate + (share_dma - dma_reads),
                    "memrd": memory["dram_reads"][:, actor] + dma_reads * miss,
                    "memwr": memory["dram_writes"][:, actor],
                    "wss": data["wss"],
                    "miss": miss,
                    "occupancy": memory["occupancy"][:, actor],
                }
            )
        return per_wl, dram_util

    def _noises(self, plans: list[_ScenarioPlan]) -> list[float]:
        """Measurement-noise factors of every (scenario, workload) pair.

        :meth:`SmartNic._noise_for` per workload, in scenario then
        workload order, with every seed of the group derived in one
        lane-parallel :func:`derive_seeds` call.
        """
        nic = self._nic
        if nic._noise_std == 0.0:
            return [1.0] * sum(len(plan.workloads) for plan in plans)
        keys = []
        for plan in plans:
            reps = [repr(p.demand) for p in plan.workloads]
            sorted_reps = tuple(sorted(reps))
            keys.extend((rep, sorted_reps) for rep in reps)
        return [
            float(1.0 + make_rng(seed).normal(0.0, nic._noise_std))
            for seed in derive_seeds(nic._seed, keys)
        ]


class _DeferredDetails:
    """Per-stage reports, counters and DRAM utilisation of a group's
    finalised rows, built on first use.

    The first :meth:`row` call evaluates the memory and accelerator
    models once at the converged rates of every row (one vectorized
    pass), keeps only the per-row arrays and drops the group; each
    :meth:`row` then assembles one scenario's workload results from
    them, exactly as :meth:`SmartNic._finalise` would.
    """

    __slots__ = (
        "group", "idx", "thr", "plans", "embeddings", "per_wl", "dram_util",
    )

    def __init__(
        self,
        group: _Group,
        idx: np.ndarray,
        thr: np.ndarray,
        plans: list[_ScenarioPlan],
        embeddings: list,
    ) -> None:
        self.group = group
        self.idx = idx
        self.thr = thr
        self.plans = plans
        self.embeddings = embeddings
        self.per_wl = None
        self.dram_util = None

    def row(self, row: int, throughputs: dict) -> tuple[dict, float]:
        """``(workloads, dram_utilisation)`` of the ``row``-th row."""
        if self.per_wl is None:
            group, thr = self.group, self.thr
            view = _View(group, self.idx)
            with np.errstate(all="ignore"):
                memory = group._solve_memory(view, thr)
                capacities, _ = group._accel_capacities(view, thr)
                self.per_wl, self.dram_util = group._finalise_arrays(
                    view, thr, memory, capacities
                )
            self.group = None
        workload_results = {}
        for wplan, w in zip(self.plans[row].workloads, self.embeddings[row]):
            values = self.per_wl[w]
            stages = []
            for s_idx, (kind, pos) in enumerate(wplan.stage_kinds):
                stage = wplan.demand.stages[s_idx]
                stages.append(
                    _nic.StageReport(
                        name=stage.name,
                        resource=stage.resource,
                        accelerator=(
                            stage.accelerator if kind == "a" else None
                        ),
                        time_pp_us=float(values["stage_times"][s_idx][row]),
                        capacity_mpps=float(values["stage_caps"][s_idx][row]),
                    )
                )
            counters = PerfCounters(
                ipc=float(values["ipc"][row]),
                irt=float(values["irt"][row]),
                l2crd=float(values["l2crd"][row]),
                l2cwr=float(values["l2cwr"][row]),
                memrd=float(values["memrd"][row]),
                memwr=float(values["memwr"][row]),
                wss=float(values["wss"][row]),
            )
            workload_results[wplan.name] = _nic.WorkloadResult(
                name=wplan.name,
                throughput_mpps=throughputs[wplan.name],
                true_throughput_mpps=float(self.thr[row, w]),
                counters=counters,
                stages=tuple(stages),
                bottleneck=wplan.stage_labels[
                    int(values["bottleneck_idx"][row])
                ],
                miss_ratio=float(values["miss"][row]),
                llc_occupancy_bytes=float(values["occupancy"][row]),
            )
        return workload_results, float(self.dram_util[row])


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
#: Signature groups of at least this many scenarios solve as full-lane
#: groups; smaller ones form the call's remainder. Below ~3 rows the
#: vectorized sweep's per-iteration numpy dispatch costs more than the
#: scalar Python sweep. The fallback is observation-free: the scalar
#: solver is the bit-exactness oracle the vectorized path must
#: reproduce anyway.
_SCALAR_FALLBACK_GROUP_SIZE = 3

#: The remainder solves as one universal padded group (see
#: :class:`_Group`) only when its real lanes number at least this many
#: times the layout's width; otherwise its scenarios take the scalar
#: solver. A sweep costs the group a fixed set of numpy calls per
#: column, several times what the scalar solver spends per resident
#: (~2 ms per sweep at 24 columns, against ~0.33 ms per 8-resident
#: scalar scenario). At 1-2.4 lanes per column (the 3-6-scenario
#: remainders of predictor training) a padded solve ran at 0.4-0.8x the
#: scalar loop, while deep Pensando mixes (8+ lanes per column) run at
#: ~5x. As lanes never exceed rows x width, the bound also implies at
#: least 4 rows.
_PAD_MIN_LANES_PER_COLUMN = 4


def solve_batch(
    nic: "_nic.SmartNic",
    scenarios: list[list[WorkloadDemand]],
    on_error: str = "raise",
    warm_starts: Optional[list] = None,
):
    """Solve many co-location scenarios; see :meth:`SmartNic.run_batch`.

    ``warm_starts`` is aligned with ``scenarios``: per entry ``None``
    (cold) or a name→Mpps mapping seeding that scenario's initial
    iterate (see :meth:`SmartNic.run_batch`).
    """
    if on_error not in ("raise", "return"):
        raise SimulationError(f"unknown on_error mode {on_error!r}")
    obs = active_recorder()
    cache = _COMPILE_CACHE
    hits0, misses0 = cache.hits, cache.misses
    results: list = [None] * len(scenarios)
    groups: dict[tuple, tuple[list[_ScenarioPlan], list[int]]] = {}
    for i, workloads in enumerate(scenarios):
        error = _validate(nic, list(workloads))
        if error is not None:
            results[i] = error
            continue
        plan = _ScenarioPlan(nic, list(workloads))
        plans, indices = groups.setdefault(plan.signature, ([], []))
        plans.append(plan)
        indices.append(i)
    if obs.enabled and cache.enabled:
        if cache.hits > hits0:
            obs.exec_counter("batch.compile_cache.hits", cache.hits - hits0)
        if cache.misses > misses0:
            obs.exec_counter(
                "batch.compile_cache.misses", cache.misses - misses0
            )

    def warm_list(plans: list[_ScenarioPlan], indices: list[int]):
        if warm_starts is None:
            return None
        values = []
        for plan, index in zip(plans, indices):
            warm = warm_starts[index]
            row = [warm.get(p.name) for p in plan.workloads] if warm else None
            values.append(
                row if row and any(v is not None for v in row) else None
            )
        if all(v is None for v in values):
            return None
        return values

    def solve(plans, indices, **layout) -> None:
        obs.exec_histogram("batch.group_size", len(plans))
        group = _Group(
            nic, plans, indices, warm=warm_list(plans, indices), **layout
        )
        for local, outcome in enumerate(group.solve()):
            results[indices[local]] = outcome

    rest_plans: list[_ScenarioPlan] = []
    rest_indices: list[int] = []
    for plans, indices in groups.values():
        if len(plans) >= _SCALAR_FALLBACK_GROUP_SIZE:
            solve(plans, indices)
        else:
            rest_plans.extend(plans)
            rest_indices.extend(indices)

    if rest_plans:
        super_sig = _universal_signature(rest_plans)
        lanes = sum(len(plan.signature) for plan in rest_plans)
        if lanes >= _PAD_MIN_LANES_PER_COLUMN * len(super_sig):
            obs.exec_counter(
                "batch.padded_lanes", len(rest_plans) * len(super_sig) - lanes
            )
            solve(
                rest_plans,
                rest_indices,
                columns=_columns_for(super_sig),
                embeddings=[
                    _embed_signature(plan.signature, super_sig)
                    for plan in rest_plans
                ],
            )
            rest_plans, rest_indices = [], []
    if rest_plans:
        obs.exec_counter("batch.scalar_scenarios", len(rest_plans))
    for plan, index in zip(rest_plans, rest_indices):
        demands = [p.demand for p in plan.workloads]
        warm = warm_starts[index] if warm_starts is not None else None
        try:
            results[index] = nic.run(demands, initial=warm or None)
        except ConvergenceError as error:
            results[index] = error

    if on_error == "raise":
        for outcome in results:
            if isinstance(outcome, Exception):
                raise outcome
    return results
