"""NetworkFunction: an element chain plus an execution pattern.

Binding an NF to a traffic profile compiles it to the simulator's
:class:`~repro.nic.workload.WorkloadDemand`. Adjacent stages of the same
resource class are merged (a "stage" in the paper's sense is a block
using a single resource, §4.2), so an NF written as
``[PacketIo, HeaderParse, HashTable, RegexScan]`` compiles to the
three-stage pipeline ``CPU -> MEMORY -> REGEX``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.nf.elements import Element
from repro.nic.workload import (
    ExecutionPattern,
    StageDemand,
    WorkloadDemand,
)
from repro.traffic.profile import TrafficProfile

#: Per-instance cap on memoized stage tuples; a full memo is cleared
#: wholesale (cheaper than eviction bookkeeping).
_STAGE_MEMO_ENTRIES = 4096


def _merge(first: StageDemand, second: StageDemand) -> StageDemand:
    """Merge two adjacent same-resource stage demands."""
    return StageDemand(
        name=f"{first.name}+{second.name}",
        resource=first.resource,
        cycles_pp=first.cycles_pp + second.cycles_pp,
        instructions_pp=first.instructions_pp + second.instructions_pp,
        reads_pp=first.reads_pp + second.reads_pp,
        writes_pp=first.writes_pp + second.writes_pp,
        wss_bytes=first.wss_bytes + second.wss_bytes,
        mlp=max(first.mlp, second.mlp),
        accelerator=first.accelerator,
        requests_pp=first.requests_pp + second.requests_pp,
        bytes_per_request=max(first.bytes_per_request, second.bytes_per_request),
        matches_per_request=first.matches_per_request + second.matches_per_request,
    )


@dataclass(frozen=True)
class NetworkFunction:
    """A deployable network function.

    Parameters
    ----------
    name:
        Catalog name (e.g. ``"flowstats"``).
    framework:
        The NF framework the paper implements it in (click/dpdk/doca) —
        metadata only.
    pattern:
        Execution pattern (pipeline or run-to-completion, §4.2).
    elements:
        Ordered processing elements.
    cores:
        Dedicated SoC cores (the paper gives each NF two).
    queues_per_accelerator:
        Request queues the NF opens per accelerator (paper §4.1.1).
    """

    name: str
    framework: str
    pattern: ExecutionPattern
    elements: tuple[Element, ...]
    cores: int = 2
    queues_per_accelerator: dict[str, int] = field(default_factory=dict)
    hot_access_fraction: float = 0.6
    hot_wss_fraction: float = 0.15
    #: Compiled stages per traffic profile (see :meth:`stages`).
    _stage_memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.elements:
            raise ConfigurationError(f"NF {self.name!r} has no elements")
        if self.framework not in ("click", "dpdk", "doca", "synthetic", "pensando"):
            raise ConfigurationError(
                f"NF {self.name!r}: unknown framework {self.framework!r}"
            )
        if self.cores < 1:
            raise ConfigurationError(f"NF {self.name!r} needs >= 1 core")

    # ------------------------------------------------------------------
    def stages(self, profile: TrafficProfile) -> tuple[StageDemand, ...]:
        """Compiled stage demands (adjacent same-resource merged).

        Memoized per profile on this instance: the elements are fixed
        at construction, so the (immutable) tuple is a pure function of
        ``profile``. Callers compiling one NF at many demands (a fleet
        scoring cycle builds each service's solo and mix demand) share
        one instance to compile each profile once.
        """
        memo = self._stage_memo
        stages = memo.get(profile)
        if stages is None:
            if len(memo) >= _STAGE_MEMO_ENTRIES:
                memo.clear()
            stages = memo[profile] = self._compile_stages(profile)
        return stages

    def _compile_stages(self, profile: TrafficProfile) -> tuple[StageDemand, ...]:
        merged: list[StageDemand] = []
        for element in self.elements:
            demand = element.demand(profile)
            if (
                merged
                and merged[-1].resource is demand.resource
                and merged[-1].accelerator == demand.accelerator
            ):
                merged[-1] = _merge(merged[-1], demand)
            else:
                merged.append(demand)
        return tuple(merged)

    def demand(
        self,
        profile: TrafficProfile,
        instance: Optional[str] = None,
        arrival_rate_mpps: Optional[float] = None,
    ) -> WorkloadDemand:
        """Compile to a simulator workload under ``profile``.

        ``instance`` renames the workload so several copies of one NF can
        co-locate; ``arrival_rate_mpps`` turns the NF open-loop (the
        default ``None`` measures maximum throughput, as the paper does).
        """
        return WorkloadDemand(
            name=instance or self.name,
            cores=self.cores,
            pattern=self.pattern,
            stages=self.stages(profile),
            arrival_rate_mpps=arrival_rate_mpps,
            queues_per_accelerator=dict(self.queues_per_accelerator),
            packet_size_bytes=float(profile.packet_size),
            hot_access_fraction=self.hot_access_fraction,
            hot_wss_fraction=self.hot_wss_fraction,
        )

    # ------------------------------------------------------------------
    def uses_accelerators(self, profile: TrafficProfile | None = None) -> list[str]:
        """Accelerator names this NF dispatches to."""
        profile = profile or TrafficProfile()
        seen = []
        for stage in self.stages(profile):
            if stage.accelerator and stage.accelerator not in seen:
                seen.append(stage.accelerator)
        return seen

    def with_pattern(self, pattern: ExecutionPattern) -> "NetworkFunction":
        """Copy of this NF with a different execution pattern."""
        return replace(self, pattern=pattern)

    def with_cores(self, cores: int) -> "NetworkFunction":
        """Copy of this NF pinned to a different core count."""
        return replace(self, cores=cores)
