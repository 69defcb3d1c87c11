"""System assembly: core slots, tenant contexts and memory from a config.

``System`` wires one simulated machine according to a
:class:`~repro.sim.config.SystemConfig`: the platform's memory hierarchy
(CPU vs NDP from Table I) over shared DRAM, ``config.tenants``
processes, and ``num_cores`` core slots.  Each process gets its own
workload stream, page table and OS view over one shared frame
allocator.  Each slot gets one ASID-tagged TLB hierarchy and PWC set,
shared by one execution context (walker, MMU, core) per process.  The
multithreaded, shared-dataset execution model the paper evaluates is
the 1-tenant case: one page table and OS behind every core.

The tenant count decides two things and nothing else.  Co-runners
(``tenants > 1``) get a :class:`~repro.sim.scheduler.TenantCoordinator`
for shootdowns and peer reclaim, and streams cut to their quantum so a
time slice never splits a generation batch; the
:class:`~repro.sim.engine.SimulationEngine` then time-slices each
slot's contexts.  A lone process has no peers and no slices: it keeps
the default batches, and each slot runs its one context.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import starmap
from typing import Dict, List, Optional, Tuple

from repro.core.mechanisms import MechanismSpec, get_mechanism
from repro.mem.dram import DDR4_2400, HBM2
from repro.mem.hierarchy import (
    MemoryHierarchy,
    build_cpu_hierarchy,
    build_ndp_hierarchy,
)
from repro.mmu.mmu import Mmu
from repro.mmu.pwc import PwcSet
from repro.mmu.tlb import build_tlbs
from repro.mmu.walker import PageTableWalker
from repro.sim.config import SYSTEM_NDP, SystemConfig
from repro.sim.core_model import Core
from repro.sim.engine import SimulationEngine, SlotSchedule
from repro.sim.scheduler import TenantCoordinator, quantum_chunks, tenant_seed
from repro.sim.topology import NumaFrameAllocator, NumaTopology
from repro.vm.base import PageTable
from repro.vm.frames import FrameAllocator
from repro.vm.os_model import OSMemoryManager
from repro.workloads.base import CHUNK_REFS, Workload, chunk_vpns, core_chunk
from repro.workloads.registry import make_workload


@dataclass
class Tenant:
    """One process: private address space, shared frames."""

    asid: int
    workload: Workload
    page_table: PageTable
    os: OSMemoryManager


class System:
    """One fully assembled simulated machine, ready to run."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.spec: MechanismSpec = get_mechanism(config.mechanism)
        # NUMA topology: None on the flat single-node machine, which
        # then assembles byte-identically to earlier releases.
        self.topology: Optional[NumaTopology] = (
            NumaTopology.from_config(config)
            if config.numa.nodes > 1 else None)
        params = config.scheduler
        # Only co-runners have peers to shoot down and reclaim from,
        # and time slices to align their batches to.
        shared = config.tenants > 1
        coordinator = TenantCoordinator(params) if shared else None
        self.scheduler_stats = coordinator.stats if shared else None
        self.allocator = self._build_allocator()
        self.tenants: List[Tenant] = []
        for asid in range(config.tenants):
            workload = make_workload(
                config.workload, scale=config.scale,
                seed=tenant_seed(config.seed, asid))
            table = self.spec.table(self.allocator)
            hooks = {} if coordinator is None else dict(
                on_unmap=coordinator.unmap_hook(asid),
                peer_reclaim=coordinator.peer_reclaim_hook(asid),
                extra_fault_cycles=coordinator.drain_cycles)
            os_model = OSMemoryManager(
                self.allocator, table,
                policy=self.spec.paging_policy, costs=config.fault_costs,
                thp_promotion_fraction=config.thp_promotion_fraction,
                **hooks)
            if coordinator is not None:
                coordinator.register_tenant(asid, os_model)
            self.tenants.append(Tenant(asid, workload, table, os_model))
        self.hierarchy = self._build_hierarchy()

        # Co-runners' streams come in quantum-sized batches; a lone
        # process keeps the default batch, which shapes its RNG draws.
        feed = min(params.quantum_refs, CHUNK_REFS) if shared else None
        # When the warmup replays the exact ROI stream (the default),
        # the numpy batches generated for prefaulting are kept (9 bytes
        # per reference) and handed to the cores afterwards, so each
        # stream is generated once.  Bounded so huge sweeps do not hold
        # every reference in memory; the cores' iterators hold the only
        # reference to it afterwards.
        warmup = (config.refs_per_core if config.warmup_refs is None
                  else config.warmup_refs)
        replay: Optional[Dict[Tuple[int, int], List[tuple]]] = None
        if (warmup == config.refs_per_core
                and config.refs_per_core * config.num_cores
                * config.tenants <= 4_000_000):
            replay = {(tenant.asid, slot): []
                      for slot in range(config.num_cores)
                      for tenant in self.tenants}
        if warmup > 0:
            self._prefault(warmup, feed, replay)
            # Warmup fault work is setup, not ROI: reset the counters.
            for tenant in self.tenants:
                tenant.os.stats = type(tenant.os.stats)()
            if coordinator is not None:
                coordinator.reset()

        self.pwc_sets: List[Optional[PwcSet]] = []
        self.mmus: List[Mmu] = []
        self.cores: List[Core] = []
        slots: List[SlotSchedule] = []
        for slot_id in range(config.num_cores):
            tlbs = build_tlbs(config.tlb, slot_id)
            if coordinator is not None:
                coordinator.register_slot(tlbs)
            pwcs: Optional[PwcSet] = None
            if self.spec.pwc_levels:
                pwcs = PwcSet(
                    self.spec.pwc_levels, entries=config.pwc.entries,
                    associativity=config.pwc.associativity,
                    latency=config.pwc.latency)
            slot_cores: List[Core] = []
            for tenant in self._slot_tenant_order(slot_id):
                walker = PageTableWalker(
                    tenant.page_table, self.hierarchy, slot_id,
                    pwcs=pwcs, bypass=self.spec.bypass_ptes,
                    asid=tenant.asid)
                mmu = Mmu(slot_id, tlbs, walker, tenant.os,
                          ideal=self.spec.ideal, asid=tenant.asid)
                if replay is not None:
                    # The warmup consumed (and recorded) the identical
                    # stream; replay it instead of regenerating it.
                    source = replay[(tenant.asid, slot_id)]
                else:
                    source = tenant.workload.stream_chunks(
                        slot_id, config.refs_per_core, chunk_refs=feed)
                if shared:
                    # Align chunk boundaries to quantum multiples so
                    # chunk handover matches slice boundaries even when
                    # the quantum exceeds the generation batch.
                    source = quantum_chunks(source, params.quantum_refs)
                core = Core(slot_id, mmu, self.hierarchy,
                            starmap(core_chunk, source),
                            gap_cycles=tenant.workload.gap_cycles,
                            mlp=config.core.mlp,
                            issue_cycles=config.core.issue_cycles)
                slot_cores.append(core)
                self.mmus.append(mmu)
                self.cores.append(core)
            self.pwc_sets.append(pwcs)
            slots.append(SlotSchedule(slot_id, slot_cores, tlbs, pwcs))
        self.engine = SimulationEngine(slots, params,
                                       self.scheduler_stats)

    def _prefault(self, warmup: int, feed: Optional[int],
                  replay) -> None:
        """Untimed warmup: demand-page every context's early footprint.

        Runs each (tenant, slot) stream's first ``warmup`` references
        through its tenant's OS fault path only — no cycles are
        charged, but allocator and page-table state (huge-page
        placement, contiguity consumption, ECH growth, reclaim under
        pressure) fully materialize, exactly like the paper's untimed
        initialization phase.  The streams interleave slot by slot in
        256-reference quanta, so allocations interleave — and the
        shared frame pool fills, fragments and comes under
        cross-tenant pressure — in an order resembling the run.  Each
        quantum's VPNs (:func:`~repro.workloads.base.chunk_vpns`) go
        to the tenant's :meth:`~repro.vm.os_model.OSMemoryManager
        .ensure_mapped` in one call, two where the quantum spans a
        stream batch; it filters the touches on its resident index
        itself.
        """
        def recording(source, record):
            for chunk in source:
                record.append(chunk)
                yield chunk

        # One [chunks, vpns, position, ensure_mapped, slot] state per
        # (tenant, slot) pair, slot-major.
        states = []
        for slot in range(self.config.num_cores):
            for tenant in self.tenants:
                source = tenant.workload.stream_chunks(
                    slot, warmup, chunk_refs=feed)
                if replay is not None:
                    source = recording(source,
                                       replay[(tenant.asid, slot)])
                states.append([source, [], 0, tenant.os.ensure_mapped,
                               slot])
        # Like the run loop, prefaulting allocates heavily and builds
        # no reference cycles; pause the cyclic collector for it.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while states:
                still_active = []
                for state in states:
                    chunks, vpns, pos, ensure_mapped, slot = state
                    quota = 256
                    exhausted = False
                    while quota:
                        if pos >= len(vpns):
                            nxt = next(chunks, None)
                            if nxt is None:
                                exhausted = True
                                break
                            vpns = state[1] = chunk_vpns(nxt[0])
                            pos = 0
                        stop = pos + quota
                        if stop > len(vpns):
                            stop = len(vpns)
                        ensure_mapped(vpns[pos:stop], slot)
                        quota -= stop - pos
                        pos = stop
                    state[2] = pos
                    if not exhausted:
                        still_active.append(state)
                states = still_active
        finally:
            if gc_was_enabled:
                gc.enable()

    def _build_allocator(self):
        """Flat allocator, or the per-node NUMA facade over it."""
        cfg = self.config
        if self.topology is None:
            return FrameAllocator(
                cfg.physical_bytes,
                fragmentation=cfg.boot_fragmentation)
        return NumaFrameAllocator(
            self.topology, cfg.numa,
            fragmentation=cfg.boot_fragmentation)

    def _build_hierarchy(self) -> MemoryHierarchy:
        cfg = self.config
        numa_nodes = 1
        numa_penalty = None
        if self.topology is not None:
            numa_nodes = self.topology.nodes
            numa_penalty = self.topology.penalty_rows()
        if cfg.system == SYSTEM_NDP:
            return build_ndp_hierarchy(
                cfg.num_cores, HBM2,
                l1_size=cfg.l1.size, l1_assoc=cfg.l1.associativity,
                l1_latency=cfg.l1.latency,
                numa_nodes=numa_nodes, numa_penalty=numa_penalty)
        return build_cpu_hierarchy(
            cfg.num_cores, DDR4_2400,
            l1_size=cfg.l1.size, l1_assoc=cfg.l1.associativity,
            l1_latency=cfg.l1.latency,
            l2_size=cfg.l2.size, l2_assoc=cfg.l2.associativity,
            l2_latency=cfg.l2.latency,
            l3_per_core=cfg.l3_per_core.size,
            l3_assoc=cfg.l3_per_core.associativity,
            l3_latency=cfg.l3_per_core.latency,
            numa_nodes=numa_nodes, numa_penalty=numa_penalty)

    def run(self) -> float:
        """Execute all cores to completion; return global cycles."""
        return self.engine.run()

    def _slot_tenant_order(self, slot_id: int) -> List[Tenant]:
        """Tenant contexts of one slot, node-affine first.

        On a NUMA machine each slot's round-robin queue is sorted by
        the penalty from the slot's node to each tenant's home node,
        ASID as the deterministic tiebreak: the tenants homed on the
        slot's node come first, so the scheduler favours node-local
        contexts the way an affinity-aware OS balances run queues.  At
        ``remote_cycles`` 0 every penalty is 0, and single-node
        machines skip the sort: both keep plain ASID order.
        """
        if self.topology is None:
            return list(self.tenants)
        topo = self.topology
        slot_node = topo.node_of_core(slot_id)
        return sorted(
            self.tenants,
            key=lambda t: (topo.penalty(slot_node,
                                        topo.node_of_tenant(t.asid)),
                           t.asid))
