"""NUMA topology: per-node frame pools and distance-aware placement.

The flat machine of earlier releases has one :class:`~repro.vm.frames
.FrameAllocator` and one :class:`~repro.mem.dram.DramModel`, so every
page walk and data access costs the same wherever its frame lives.
This module splits the physical side into *nodes*:

* :class:`NumaTopology` describes the machine shape — node count,
  per-node DRAM capacity, one remote distance in extra cycles (every
  pair of distinct nodes is that far apart), and the core→node /
  tenant→node affinity maps;
* :class:`NumaFrameAllocator` is a facade over one private
  :class:`~repro.vm.frames.FrameAllocator` per node.  Frame numbers
  returned by the facade encode their node at bit
  :data:`~repro.vm.address.NODE_FRAME_SHIFT` (physical-address bit 40)
  — the physical mirror of the ASID-packing trick on the virtual side
  — so tagged frames flow through the page tables, caches and DRAM
  decode untouched, and node 0 alone is bit-identical to the flat
  allocator;
* placement policy (:data:`~repro.sim.config.PLACEMENT_POLICIES`)
  decides which node backs each allocation.  ``pte-local`` is the
  policy the paper's translation story motivates: page-table pages pin
  to the faulting core's node while data interleaves, so walker
  traffic stays local even when the dataset cannot.

The *timing* half lives in :meth:`repro.mem.hierarchy.MemoryHierarchy
.access_fast`: on a DRAM miss it decodes the node from the physical
address (one shift), charges the distance penalty for remote nodes and
routes the request to that node's banked DRAM model.  L1 hits — the
hot path — never see any of it.

Everything here is deterministic: placement decisions depend only on
allocation order and configuration (a round-robin counter, never host
state), so NUMA runs are bit-identical across processes and sweep
worker counts like the rest of the simulator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.sim.config import NumaParams, SystemConfig
from repro.vm.address import (
    NODE_FRAME_MASK,
    NODE_FRAME_SHIFT,
    PAGE_SIZE,
    node_frame_tag,
)
from repro.vm.frames import AllocatorStats, FrameAllocator, OutOfMemoryError
from repro.vm.radix import PT_ALLOC_SITE

__all__ = [
    "NumaTopology",
    "NumaFrameAllocator",
    "NumaAllocStats",
]


class NumaTopology:
    """Shape of a NUMA machine: nodes, distance, affinity maps.

    Args:
        nodes: node count (>= 1).
        remote_cycles: *extra cycles* charged on a DRAM access from a
            core on one node to memory on another; local accesses pay
            nothing extra.
        core_nodes: home node of each core slot.
        tenant_nodes: home node of each tenant (address space) — the
            scheduler's affinity axis.
        node_bytes: DRAM capacity per node.
    """

    __slots__ = ("nodes", "remote_cycles", "core_nodes", "tenant_nodes",
                 "node_bytes")

    def __init__(self, nodes: int, remote_cycles: float,
                 core_nodes: Sequence[int],
                 tenant_nodes: Sequence[int],
                 node_bytes: int):
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        for name, homes in (("core", core_nodes), ("tenant",
                                                   tenant_nodes)):
            if any(not 0 <= n < nodes for n in homes):
                raise ValueError(f"{name} home node out of range")
        self.nodes = nodes
        self.remote_cycles = float(remote_cycles)
        self.core_nodes = tuple(core_nodes)
        self.tenant_nodes = tuple(tenant_nodes)
        self.node_bytes = node_bytes

    @classmethod
    def from_config(cls, config: SystemConfig) -> "NumaTopology":
        """Derive the topology a :class:`SystemConfig` describes."""
        params = config.numa
        return cls.from_params(params, num_cores=config.num_cores,
                               tenants=config.tenants,
                               phys_bytes=config.physical_bytes)

    @classmethod
    def from_params(cls, params: NumaParams, num_cores: int,
                    tenants: int, phys_bytes: int) -> "NumaTopology":
        """Topology of ``params`` over ``num_cores`` slots, ``tenants``
        processes and ``phys_bytes`` of DRAM split evenly by node.

        Cores spread over the nodes in contiguous blocks (cores 0..k
        on node 0, like socket enumeration on real machines); tenants
        round-robin so consecutive ASIDs land on different nodes.
        """
        nodes = params.nodes
        core_nodes = [core * nodes // num_cores
                      for core in range(num_cores)]
        tenant_nodes = [asid % nodes for asid in range(tenants)]
        return cls(nodes, params.remote_cycles, core_nodes, tenant_nodes,
                   node_bytes=phys_bytes // nodes)

    def node_of_core(self, core_id: int) -> int:
        """Home node of core slot ``core_id``."""
        return self.core_nodes[core_id]

    def node_of_tenant(self, asid: int) -> int:
        """Home node of tenant ``asid``."""
        return self.tenant_nodes[asid]

    def penalty(self, src: int, dst: int) -> float:
        """Extra cycles of an access from node ``src`` to ``dst``."""
        return 0.0 if src == dst else self.remote_cycles

    def penalty_rows(self) -> Tuple[Tuple[float, ...], ...]:
        """Per-core penalty rows for the memory hierarchy.

        ``rows[core_id][frame_node]`` is the extra cycles a DRAM
        access from ``core_id`` pays when its frame lives on
        ``frame_node`` — the one table lookup the miss path performs.
        """
        return tuple(
            tuple(self.penalty(home, node) for node in range(self.nodes))
            for home in self.core_nodes)

    def fallback_order(self, node: int) -> Tuple[int, ...]:
        """Nodes to try when ``node``'s pool is exhausted.

        The home node first, then the rest in node-id order: every
        other node is equally far away, so the id is the whole
        deterministic order of the kernel's zone fallback list.
        """
        return (node, *(n for n in range(self.nodes) if n != node))


@dataclass(slots=True)
class NumaAllocStats:
    """Where the facade placed frames over a run."""

    node_allocs: List[int] = field(default_factory=list)
    pte_allocs: List[int] = field(default_factory=list)
    spills: int = 0           # allocations that fell back off-node
    huge_spills: int = 0      # 2 MB allocations that fell back


class NumaFrameAllocator:
    """Per-node frame pools behind the flat-allocator interface.

    Drop-in replacement for :class:`~repro.vm.frames.FrameAllocator`
    under multiprogramming and single runs alike: the OS model, the
    page tables and the reclaim path call the same methods, and frame
    numbers coming back carry their node at bit
    :data:`~repro.vm.address.NODE_FRAME_SHIFT`.  ``free_frame`` /
    ``free_block`` decode the tag and return memory to the pool that
    owns it.

    Placement is resolved per allocation from the policy:

    * page-table pages are recognized by their allocation site
      (:data:`~repro.vm.radix.PT_ALLOC_SITE`) and located via the
      *fault-site hint* the OS posts (:meth:`note_fault_site`) before
      installing a mapping — the table itself does not know which core
      faulted;
    * when the chosen node's pool is exhausted the allocation spills
      to the remaining nodes in fallback order (counted in
      :attr:`numa_stats`), and only a machine-wide exhaustion raises
      :class:`~repro.vm.frames.OutOfMemoryError` — mirroring zone
      fallback.
    """

    def __init__(self, topology: NumaTopology, params: NumaParams,
                 fragmentation: float = 0.0):
        self.topology = topology
        self.placement = params.placement
        self.preferred_node = params.preferred_node
        self.pools: List[FrameAllocator] = [
            FrameAllocator(topology.node_bytes,
                           fragmentation=fragmentation)
            for _ in range(topology.nodes)
        ]
        self.numa_stats = NumaAllocStats(
            node_allocs=[0] * topology.nodes,
            pte_allocs=[0] * topology.nodes)
        self._fallback = tuple(topology.fallback_order(node)
                               for node in range(topology.nodes))
        # Interleave cursor: advances once per interleaved allocation,
        # in allocation order — deterministic across processes.
        self._rr = 0
        # Core slot the fault being handled runs on; posted by the OS
        # before map_page so page-table allocations can resolve
        # locality (tables allocate under PT_ALLOC_SITE, not a core).
        self._fault_site = 0
        self.num_frames = sum(pool.num_frames for pool in self.pools)
        self.phys_bytes = topology.node_bytes * topology.nodes

    # -- placement ----------------------------------------------------

    def note_fault_site(self, site: int) -> None:
        """Record the core slot whose fault is being handled."""
        self._fault_site = site

    def _site_node(self, site: int) -> int:
        """Home node of an allocation site (core slot or PT site)."""
        if site == PT_ALLOC_SITE:
            site = self._fault_site
        core_nodes = self.topology.core_nodes
        if 0 <= site < len(core_nodes):
            return core_nodes[site]
        return 0

    def _pick_node(self, site: int) -> int:
        """Node the placement policy chooses for this allocation."""
        placement = self.placement
        if placement == "local":
            return self._site_node(site)
        if placement == "preferred-node":
            return self.preferred_node
        if placement == "pte-local" and site == PT_ALLOC_SITE:
            return self._site_node(site)
        # interleave (and pte-local's data half): round-robin.
        node = self._rr
        self._rr = (node + 1) % self.topology.nodes
        return node

    # -- allocation ---------------------------------------------------

    def alloc_frame(self, site: int = 0) -> int:
        """Allocate one 4 KB frame; the node tag rides in the result."""
        chosen = self._pick_node(site)
        stats = self.numa_stats
        for node in self._fallback[chosen]:
            try:
                frame = self.pools[node].alloc_frame(site=site)
            except OutOfMemoryError:
                continue
            if node != chosen:
                stats.spills += 1
            stats.node_allocs[node] += 1
            if site == PT_ALLOC_SITE:
                stats.pte_allocs[node] += 1
            return frame | node_frame_tag(node)
        raise OutOfMemoryError("no free 4 KB frame on any node")

    def alloc_huge(self, site: int = 0) -> Optional[int]:
        """Allocate a whole 2 MB block; None on contiguity exhaustion.

        Spills across nodes like :meth:`alloc_frame`; None means *no*
        node has a whole free block, and the OS decides between
        compaction and 4 KB fallback exactly as on the flat machine.
        """
        chosen = self._pick_node(site)
        stats = self.numa_stats
        for node in self._fallback[chosen]:
            pool = self.pools[node]
            if not pool.free_block_count:
                continue  # silent probe: no per-pool failure booked
            first_frame = pool.alloc_huge()
            if node != chosen:
                stats.huge_spills += 1
            stats.node_allocs[node] += 1
            return first_frame | node_frame_tag(node)
        # One logical failure for the whole machine, matching the flat
        # allocator's one-per-failed-call accounting (probing every
        # empty pool must not multiply the count by the node count).
        self.pools[chosen].stats.huge_failures += 1
        return None

    def free_frame(self, frame: int) -> None:
        """Return a tagged frame to the pool of its node."""
        node = frame >> NODE_FRAME_SHIFT
        self.pools[node].free_frame(frame & NODE_FRAME_MASK)

    def free_block(self, first_frame: int) -> None:
        """Return a tagged 2 MB block to the pool of its node."""
        node = first_frame >> NODE_FRAME_SHIFT
        self.pools[node].free_block(first_frame & NODE_FRAME_MASK)

    def compact(self) -> int:
        """Compact every node's pool; return whole blocks recovered.

        One OS compaction pass scans all zones; the cycle cost is
        charged once by the OS model, as on the flat machine.
        """
        return sum(pool.compact() for pool in self.pools)

    def frame_paddr(self, frame: int) -> int:
        """Physical byte address of tagged frame ``frame``.

        The node tag lands at physical-address bit
        :data:`~repro.vm.address.NODE_PADDR_SHIFT`, where the memory
        hierarchy's miss path decodes it.
        """
        return frame * PAGE_SIZE

    # -- capacity inspection ------------------------------------------

    @property
    def stats(self) -> AllocatorStats:
        """Machine-wide allocator counters (field-wise pool sum)."""
        merged = AllocatorStats()
        names = [f.name for f in dataclasses.fields(AllocatorStats)]
        for pool in self.pools:
            for name in names:
                setattr(merged, name,
                        getattr(merged, name) + getattr(pool.stats,
                                                        name))
        return merged

    @property
    def free_frames(self) -> int:
        return sum(pool.free_frames for pool in self.pools)

    @property
    def free_block_count(self) -> int:
        return sum(pool.free_block_count for pool in self.pools)

    @property
    def movable_scattered_frames(self) -> int:
        return sum(pool.movable_scattered_frames
                   for pool in self.pools)

    @property
    def free_fraction(self) -> float:
        if self.num_frames == 0:
            return 0.0
        return self.free_frames / self.num_frames

    @property
    def pressure(self) -> float:
        """Occupied fraction of all physical memory (0 idle .. 1 full)."""
        return 1.0 - self.free_fraction

    @property
    def total_spills(self) -> int:
        """4 KB and 2 MB allocations that fell back off-node."""
        return self.numa_stats.spills + self.numa_stats.huge_spills
