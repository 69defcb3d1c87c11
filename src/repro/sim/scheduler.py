"""Multi-process scheduling: the OS side of time-slicing tenants.

Every machine is ``num_cores`` physical core *slots* times
``SystemConfig.tenants`` execution contexts (:mod:`repro.sim.system`).
A lone process runs one context per slot.  Under multiprogramming each
slot instead carries one context per tenant — a
:class:`~repro.sim.core_model.Core` bound to that tenant's MMU view —
and :class:`~repro.sim.engine.SimulationEngine` round-robins the
contexts on each slot with a configurable quantum, the way an OS
scheduler time-slices runnable processes.  This module holds what the
OS contributes: the per-tenant stream helpers, the scheduler's
accounting, and the cross-tenant glue.

What a context switch costs and preserves
-----------------------------------------
Every switch charges ``context_switch_cycles`` to the slot's timeline
(register save/restore, kernel scheduling work).  What happens to the
translation state depends on the hardware ASID space
(:class:`~repro.sim.config.SchedulerParams`):

* while co-runners fit in ``max_asids``, TLB and PWC entries are
  ASID-tagged and survive the switch — the incoming tenant re-enters a
  warm TLB exactly as PCID-equipped hardware allows;
* once processes outnumber ASIDs (or ``flush_on_switch`` forces it),
  the OS must recycle ids and every switch flushes the slot's TLBs and
  page-walk caches — the pre-PCID world, and the worst case the paper's
  mechanisms differentiate under.

Shootdowns and cross-tenant pressure
------------------------------------
All tenants allocate from one shared :class:`~repro.vm.frames
.FrameAllocator`, so one tenant's footprint is another's memory
pressure.  The :class:`TenantCoordinator` wires the per-tenant
:class:`~repro.vm.os_model.OSMemoryManager` instances together: when
reclaim unmaps a page it broadcasts a TLB shootdown (invalidating the
ASID-tagged entry on every slot and charging ``shootdown_cycles`` to
the core whose fault forced the eviction), and when a tenant has
nothing left to evict it reclaims from the most resident co-tenant
instead of dying on OOM.  A lone process has no peers, so it gets no
coordinator.

Determinism: scheduling is driven entirely by reference counts and
simulated time — no host state — so multi-tenant runs are bit-identical
across processes and sweep worker counts, like everything else in the
simulator.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass
from typing import List

from repro.mmu.tlb import TlbHierarchy
from repro.sim.config import SchedulerParams
from repro.vm.address import asid_tag
from repro.vm.frames import OutOfMemoryError
from repro.vm.os_model import OSMemoryManager


@dataclass(slots=True)
class SchedulerStats:
    """What the scheduler did over one run."""

    context_switches: int = 0
    preserved_switches: int = 0   # ASID kept the TLB/PWC contents warm
    flush_switches: int = 0       # ASID recycle forced a full flush
    switch_cycles: float = 0.0
    shootdowns: int = 0           # pages invalidated by reclaim unmaps
    shootdown_cycles: float = 0.0
    cross_tenant_reclaims: int = 0

    def reset(self) -> None:
        """Zero every counter (field-generic, so counters added later
        cannot leak warmup accounting into the timed region)."""
        for stats_field in dataclasses.fields(self):
            setattr(self, stats_field.name, stats_field.default)


class TenantCoordinator:
    """Cross-tenant OS glue: TLB shootdowns and pressure reclaim.

    One per multi-tenant system.  Tenants and slots register during
    assembly; the factory methods hand each
    :class:`~repro.vm.os_model.OSMemoryManager` its hooks.
    """

    def __init__(self, params: SchedulerParams):
        self.params = params
        self.stats = SchedulerStats()
        self._slots: List[TlbHierarchy] = []
        # asid -> os_model, held weakly: each manager holds this
        # coordinator's hooks, so a strong registry would make a
        # reference cycle that outlives the finished System.
        self._tenants = weakref.WeakValueDictionary()
        self._pending_cycles = 0.0
        self._reclaiming = False

    def register_slot(self, tlbs: TlbHierarchy) -> None:
        self._slots.append(tlbs)

    def register_tenant(self, asid: int, os_model: OSMemoryManager
                        ) -> None:
        self._tenants[asid] = os_model

    # -- OSMemoryManager hooks ---------------------------------------

    def unmap_hook(self, asid: int):
        """``on_unmap`` hook for tenant ``asid``: broadcast a shootdown.

        The IPI goes to every slot (the tenant may have run anywhere);
        its cost accrues to :meth:`drain_cycles`, which the faulting
        tenant's OS folds into the fault it is handling — the initiator
        pays, as with Linux's direct-reclaim shootdowns.  Every unmap
        bills one IPI of ``shootdown_cycles``.
        """
        tag = asid_tag(asid)
        stats = self.stats
        cost = float(self.params.shootdown_cycles)

        def on_unmap(page: int, huge: bool) -> None:
            stats.shootdowns += 1
            key = page | tag
            for tlbs in self._slots:
                tlbs.invalidate_page(key, huge)
            stats.shootdown_cycles += cost
            self._pending_cycles += cost

        return on_unmap

    def drain_cycles(self) -> float:
        """``extra_fault_cycles`` hook: uncharged shootdown cycles."""
        pending = self._pending_cycles
        self._pending_cycles = 0.0
        return pending

    def peer_reclaim_hook(self, asid: int):
        """``peer_reclaim`` hook: evict from the most resident peer.

        Victims are tried most-resident-first (reclaim-list length,
        asid as the deterministic tiebreak).  Returns True once any
        peer freed memory; False when every peer is exhausted too (the
        caller then raises the machine-wide OOM).  Re-entry is guarded:
        a victim's own reclaim never cascades into further peers.
        """

        def peer_reclaim() -> bool:
            if self._reclaiming:
                return False
            self._reclaiming = True
            try:
                victims = sorted(
                    ((os_model.resident_records, peer, os_model)
                     for peer, os_model in self._tenants.items()
                     if peer != asid),
                    key=lambda item: (-item[0], item[1]))
                for _, _, victim in victims:
                    try:
                        victim.reclaim_one()
                    except OutOfMemoryError:
                        continue
                    self.stats.cross_tenant_reclaims += 1
                    return True
                return False
            finally:
                self._reclaiming = False

        return peer_reclaim

    def reset(self) -> None:
        """Forget warmup-phase accounting before the timed region."""
        self.stats.reset()
        self._pending_cycles = 0.0


def quantum_chunks(chunks, quantum: int):
    """Split a chunk stream so no chunk crosses a quantum boundary.

    Keeps chunk handover aligned to time slices — including when the
    quantum exceeds the workload's generation batch (cumulative
    boundaries like 8192+1808 for a 10000-ref quantum).  Works on any
    chunk arity and on numpy or list fields (the system slices
    :meth:`~repro.workloads.base.Workload.stream_chunks`' numpy pairs
    before any list exists); pure slicing of already-generated chunks,
    so the underlying RNG draw sequence is untouched.
    """
    used = 0
    for chunk in chunks:
        pos = 0
        end = len(chunk[0])
        while pos < end:
            take = min(quantum - used, end - pos)
            if pos == 0 and take == end:
                yield chunk
            else:
                stop = pos + take
                yield tuple(field[pos:stop] for field in chunk)
            used = (used + take) % quantum
            pos += take


def tenant_seed(base_seed: int, asid: int) -> int:
    """Deterministic per-tenant workload seed.

    Distinct co-runners of the same workload key get distinct streams
    (independent processes, not lockstep clones).  Tenant 0 keeps the
    base seed modulo 2**32, the only part of it a stream reads
    (:meth:`~repro.workloads.base.Workload.stream_chunks`), so a lone
    process runs the base seed's streams for any int seed.
    """
    return (base_seed + 1_009 * asid) & 0xFFFFFFFF
