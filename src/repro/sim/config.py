"""Simulation configuration mirroring the paper's Table I.

:class:`SystemConfig` is the single object the experiment runner needs:
it names the platform (CPU vs NDP), core count, translation mechanism,
workload and scale, and carries the Table I hardware parameters with
the paper's values as defaults.

``scale`` shrinks *workload footprints* (and physical memory with them)
so runs complete in seconds; hardware structure sizes stay at Table I
values, keeping every capacity ratio that matters — footprint versus
TLB reach, PTE working set versus L1 — in the paper's regime.  The
timing comes from this repo's mechanistic core model
(:mod:`repro.sim.core_model`) in place of the paper's cycle-level
simulator.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.core.mechanisms import get_mechanism
from repro.vm.os_model import FaultCosts

GIB = 1024 ** 3

#: Paper platform identifiers.
SYSTEM_CPU = "cpu"
SYSTEM_NDP = "ndp"

#: Default footprint scaling: full paper-scale datasets.  Demand paging
#: makes simulation cost proportional to executed references, not to
#: dataset size, so running the real 8-33 GB footprints (over a real
#: 16 GB physical memory) is affordable and keeps every capacity ratio
#: — TLB reach, PTE working set vs L1, huge-page contiguity demand —
#: exactly at the paper's operating point.  Smaller values exist for
#: fast unit tests and for deliberately provoking memory pressure.
DEFAULT_SCALE = 1.0


@dataclass(frozen=True)
class CacheParams:
    """One cache level (sizes in bytes, latency in cycles)."""

    size: int
    associativity: int
    latency: int


@dataclass(frozen=True)
class TlbParams:
    """Table I MMU row."""

    l1_small_entries: int = 64
    l1_small_assoc: int = 4
    l1_small_latency: int = 1
    l1_huge_entries: int = 32
    l1_huge_assoc: int = 4
    l2_entries: int = 1536
    l2_assoc: int = 12
    l2_latency: int = 12


@dataclass(frozen=True)
class PwcParams:
    """Per-level page-walk cache geometry."""

    entries: int = 32
    associativity: int = 4
    latency: int = 1


@dataclass(frozen=True)
class SchedulerParams:
    """Multi-process scheduling knobs (the ``tenants`` axis).

    ``quantum_refs`` is the time slice in memory references (the unit
    the simulator advances in); ``context_switch_cycles`` is charged to
    the slot's timeline at every switch.  ``max_asids`` models the
    hardware ASID/PCID space: while co-runners fit, a switch preserves
    TLB and PWC contents (entries are ASID-tagged); once processes
    outnumber ASIDs the OS must recycle them and every switch costs a
    full flush — ``flush_on_switch`` forces that behaviour regardless.
    ``shootdown_cycles`` is the IPI + invalidation cost charged for
    every page reclaim unmaps, since remote TLBs may still cache it.
    Every context on a slot gets the same ``quantum_refs``.
    """

    quantum_refs: int = 2048
    context_switch_cycles: int = 6_000
    max_asids: int = 16
    shootdown_cycles: int = 4_000
    flush_on_switch: bool = False

    def __post_init__(self):
        if self.quantum_refs < 1:
            raise ValueError("quantum_refs must be >= 1")
        if self.max_asids < 1:
            raise ValueError("max_asids must be >= 1")


#: Placement policies for the NUMA frame pools (``NumaParams``).
#: ``local`` backs both data and page-table pages on the faulting
#: core's node (first-touch); ``interleave`` round-robins every
#: allocation across nodes; ``preferred-node`` pins everything to one
#: node (memory-side pooling); ``pte-local`` interleaves data but pins
#: page-table pages to the faulting core's node, isolating walker
#: locality from data locality.
PLACEMENT_POLICIES = ("local", "interleave", "preferred-node",
                      "pte-local")


@dataclass(frozen=True)
class NumaParams:
    """NUMA topology knobs (the placement-policy axis).

    ``nodes`` splits physical memory into that many per-node frame
    pools; ``remote_cycles`` is the extra DRAM latency of every access
    that crosses nodes, the same between any two of them (~58 ns of
    socket interconnect at the 2.6 GHz clock); ``placement`` picks the
    allocation policy (see :data:`PLACEMENT_POLICIES`) and
    ``preferred_node`` parameterizes the ``preferred-node`` policy.
    The default single-node topology is exactly the flat machine of
    earlier releases, bit for bit.
    """

    nodes: int = 1
    placement: str = "local"
    remote_cycles: int = 150
    preferred_node: int = 0

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"placement must be one of {PLACEMENT_POLICIES}, "
                f"got {self.placement!r}")
        if self.remote_cycles < 0:
            raise ValueError("remote_cycles must be >= 0")
        if not 0 <= self.preferred_node < self.nodes:
            raise ValueError("preferred_node must name a node")
        if self.nodes == 1:
            # A flat machine has no placement decisions or distances:
            # normalize the moot knobs to their defaults so every
            # single-node NumaParams equals NumaParams() — otherwise
            # two bit-identical runs would get distinct canonical_json
            # (and duplicate cache cells).
            cls = type(self)
            object.__setattr__(self, "placement", cls.placement)
            object.__setattr__(self, "remote_cycles",
                               cls.remote_cycles)


@dataclass(frozen=True)
class CoreParams:
    """Core timing model knobs.

    ``mlp`` bounds outstanding data misses (memory-level parallelism);
    translation is serialized, as walks sit on the critical path.
    ``gap_cycles`` models the non-memory instructions between two memory
    references (each retiring at 1 IPC).
    """

    frequency_ghz: float = 2.6
    mlp: int = 2
    issue_cycles: int = 1


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build and run one simulation."""

    system: str = SYSTEM_NDP           # 'ndp' or 'cpu'
    num_cores: int = 1
    mechanism: str = "radix"
    workload: str = "rnd"
    scale: float = DEFAULT_SCALE
    refs_per_core: int = 50_000
    #: Untimed demand-paging warmup: each core's first ``warmup_refs``
    #: references are pre-faulted before timing starts, mirroring the
    #: paper's methodology of measuring a region of interest after the
    #: applications have initialized their datasets.  None means "same
    #: as refs_per_core" (the ROI replays a fully warmed footprint);
    #: 0 disables prefaulting (cold start).
    warmup_refs: Optional[int] = None
    seed: int = 42
    phys_bytes: Optional[int] = None   # default: 16 GiB * scale
    #: Fraction of 2 MB blocks already fragmented at boot by unmovable
    #: kernel allocations (see FrameAllocator; the THP pathology of the
    #: paper's reference [23]).  Affects only 2 MB allocation success.
    boot_fragmentation: float = 0.55
    #: Fraction of huge-eligible regions THP actually promotes to 2 MB
    #: (khugepaged lag + utilization thresholds; Ingens [23]).  Only the
    #: Huge Page mechanism is affected.
    thp_promotion_fraction: float = 0.2
    l1: CacheParams = CacheParams(32 * 1024, 8, 4)
    l2: CacheParams = CacheParams(512 * 1024, 16, 16)      # CPU only
    l3_per_core: CacheParams = CacheParams(2 * 1024 * 1024, 16, 35)
    tlb: TlbParams = field(default_factory=TlbParams)
    pwc: PwcParams = field(default_factory=PwcParams)
    core: CoreParams = field(default_factory=CoreParams)
    fault_costs: FaultCosts = field(default_factory=FaultCosts)
    #: Number of co-running processes (address spaces).  Each tenant
    #: gets its own page table and OS view over the *shared* physical
    #: frame pool; the scheduler time-slices them onto the cores.
    #: 1 (the default) is exactly the single-address-space simulation.
    #: Every tenant runs ``workload``, each from its own seed.
    tenants: int = 1
    scheduler: SchedulerParams = field(default_factory=SchedulerParams)
    #: NUMA topology: per-node frame pools with distance-dependent DRAM
    #: latency and a placement policy.  The default single-node
    #: topology is the flat machine of earlier releases.
    numa: NumaParams = field(default_factory=NumaParams)

    def __post_init__(self):
        if self.system not in (SYSTEM_CPU, SYSTEM_NDP):
            raise ValueError(f"system must be 'cpu' or 'ndp', "
                             f"got {self.system!r}")
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        if self.refs_per_core < 1:
            raise ValueError("refs_per_core must be >= 1")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.tenants == 1:
            # A lone tenant has no co-runner to yield to or to shoot
            # down for, so no scheduler knob moves its run: normalize
            # them to the defaults, as NumaParams does at one node, so
            # bit-identical runs share one canonical_json (and cache
            # cell).
            object.__setattr__(self, "scheduler", SchedulerParams())
        get_mechanism(self.mechanism)  # validate early

    @property
    def physical_bytes(self) -> int:
        """Physical memory size (Table I: 16 GB, scaled with workloads)."""
        if self.phys_bytes is not None:
            return self.phys_bytes
        return int(16 * GIB * self.scale)

    def with_mechanism(self, mechanism: str) -> "SystemConfig":
        return replace(self, mechanism=mechanism)

    # -- canonical serialization ------------------------------------
    #
    # The sweep orchestrator needs two properties from configs: a
    # *stable identity* (equal configs must hash equal in every
    # process, on every run — the on-disk result cache keys on it) and
    # a *cheap wire form* (plain dicts cross multiprocessing pickle
    # boundaries without dragging module state along).  Both come from
    # the same canonical dict round-trip.

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form: nested dataclasses become nested dicts.

        The result contains only JSON-representable scalars, so it is
        safe to pickle into worker processes and to hash for cache
        keys.  ``from_dict`` inverts it exactly.

        Fields added after the on-disk cache format shipped (see
        ``_VERSIONED_FIELDS``) are omitted while they hold their
        defaults: a default-valued new axis must not perturb
        ``canonical_json`` — and with it every existing cache key —
        for configs that do not use it.  A non-default scheduler or
        multi-node topology serializes every one of its fields.
        """
        data = dataclasses.asdict(self)
        for name, default in _VERSIONED_FIELDS.items():
            if getattr(self, name) == default:
                del data[name]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        fields = dict(data)
        for name, factory in _NESTED_FIELDS.items():
            if name in fields and isinstance(fields[name], dict):
                fields[name] = factory(**fields[name])
        return cls(**fields)

    def canonical_json(self) -> str:
        """Deterministic JSON encoding used for cache keys.

        Keys are sorted and separators fixed, so two equal configs
        produce byte-identical strings in any process (float repr is
        deterministic in Python 3).
        """
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


def _nested_field_types() -> Dict[str, type]:
    """Nested dataclass fields of SystemConfig, derived from its own
    annotations so :meth:`SystemConfig.from_dict` re-hydrates every
    sub-config — including ones added later — without a parallel
    hand-maintained registry."""
    hints = typing.get_type_hints(SystemConfig)
    return {
        f.name: hints[f.name]
        for f in dataclasses.fields(SystemConfig)
        if dataclasses.is_dataclass(hints.get(f.name))
    }


_NESTED_FIELDS = _nested_field_types()

#: Fields added after the on-disk result cache shipped, mapped to the
#: default values under which :meth:`SystemConfig.to_dict` omits them.
#: Omission keeps the canonical JSON — and every cache key derived from
#: it — byte-identical for configs that predate the field.
_VERSIONED_FIELDS: Dict[str, Any] = {
    "tenants": 1,
    "scheduler": SchedulerParams(),
    "numa": NumaParams(),
}


def ndp_config(**overrides) -> SystemConfig:
    """NDP platform defaults (Table I right column)."""
    overrides.setdefault("system", SYSTEM_NDP)
    return SystemConfig(**overrides)


def cpu_config(**overrides) -> SystemConfig:
    """CPU platform defaults (Table I left column)."""
    overrides.setdefault("system", SYSTEM_CPU)
    return SystemConfig(**overrides)
