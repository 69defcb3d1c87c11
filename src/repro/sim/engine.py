"""Run-ahead event engine over core slots.

Every machine is ``num_cores`` physical core *slots*, each carrying one
execution context per tenant process (:mod:`repro.sim.system`).  Slots
are advanced in global time order, so accesses from different slots
interleave at the shared DRAM banks in the order they would actually
issue — the queueing this produces is the source of the paper's
core-count scaling results (Fig. 6).  Ties are broken by slot id for
full determinism.

The classic way to drive that order is a binary heap popped once per
reference.  This engine instead *runs ahead* (Sniper-style interval
batching): the minimum-time entity can safely execute references back
to back for as long as its clock stays below the second-smallest event
key — every reference it issues in that window precedes the next
other-entity event in global time, ties included, so the interleaving
at the shared DRAM banks is bit-identical by construction.

An *entity* is a coroutine that owns its clock.  A slot with one
context (every slot of a single-process machine) is its core's chunk
coroutine (:meth:`repro.sim.core_model.Core._chunk_runner`) itself; a
slot shared by co-running tenants is a :meth:`SimulationEngine
._slot_runner` that owns the active context, its time slice and the
switches.  Every entity, chunk coroutines included, is started by
:meth:`SimulationEngine.run` and lives only in that call.  One driver,
:func:`run_ahead`, serves both kinds.  Each turn it scans a next-ready
array for the minimum and the runner-up, folds the id tie-break into
the bound, and sends the winner that bound alone; the entity answers
with its next event key.  So a batch costs the inline scan and one
generator resume (two on a shared slot), and the common reference runs
in the core's inlined chunk loop.  A single entity gets one infinite
bound and runs to completion.

The original reference-at-a-time heap loop is retained as a *debug
reference engine*: set ``REPRO_REFERENCE_ENGINE=1`` to force it for
every machine shape (the equivalence tests in tests/sim/test_engine.py
and tests/sim/test_scheduler.py pin both paths to the same golden
statistics).
"""

from __future__ import annotations

import gc
import heapq
import os
from math import inf, nextafter
from operator import attrgetter
from typing import Callable, List, Optional, Sequence

from repro.mmu.pwc import PwcSet
from repro.mmu.tlb import TlbHierarchy
from repro.sim.config import SchedulerParams
from repro.sim.core_model import Core
from repro.sim.scheduler import SchedulerStats

#: Environment switch forcing the reference-at-a-time heap engine.
REFERENCE_ENGINE_ENV = "REPRO_REFERENCE_ENGINE"


def reference_engine_enabled() -> bool:
    """True when the debug reference engine is forced via the env var."""
    return os.environ.get(REFERENCE_ENGINE_ENV, "") not in ("", "0")


def run_ahead(entities: Sequence[Callable[[float], Optional[float]]]
              ) -> None:
    """Drive run-ahead entities to completion in global event order.

    ``entities`` are the ``send`` callables of started coroutines, in
    id order, each with its first event at time 0.  A send takes an
    exclusive issue-time bound above the entity's clock and answers
    the entity's next event key, or None once it has nothing left; an
    infinite bound runs it to completion.

    The scan keeps the first of equal keys, so the lower id wins a
    tie, as in the reference heap's ``(time, id)`` order.  The winner
    may issue at time ``t`` while ``(t, best) < (second_t, second)``:
    when it wins the id tie-break that holds *at* the runner-up's key
    too, so the bound is the next float above it.  Finished entities
    park at +inf; the last one left is driven with an infinite bound.
    """
    count = len(entities)
    ready = [0.0] * count
    rest = range(1, count)
    alive = count
    while alive > 1:
        best = 0
        best_t = ready[0]
        second = -1
        second_t = inf
        for i in rest:
            t = ready[i]
            if t < best_t:
                second = best
                second_t = best_t
                best = i
                best_t = t
            elif t < second_t:
                second = i
                second_t = t
        nxt = entities[best](nextafter(second_t, inf) if best < second
                             else second_t)
        if nxt is None:
            ready[best] = inf
            alive -= 1
        else:
            ready[best] = nxt
    for i in range(count):
        if ready[i] != inf:
            entities[i](inf)
            return


class SlotSchedule:
    """One physical core slot and the tenant contexts sharing it."""

    __slots__ = ("slot_id", "cores", "tlbs", "pwcs", "alive", "active",
                 "quantum_refs")

    def __init__(self, slot_id: int, cores: List[Core],
                 tlbs: TlbHierarchy, pwcs: Optional[PwcSet]):
        self.slot_id = slot_id
        self.cores = list(cores)        # one per tenant context
        self.tlbs = tlbs
        self.pwcs = pwcs
        self.alive = list(self.cores)   # round-robin run queue
        self.active = 0                 # index into ``alive``
        self.quantum_refs = 0           # reference engine's slice count


class SimulationEngine:
    """Runs every slot's contexts to completion of their streams.

    A slot with several contexts round-robins them with the quantum
    ``quantum_refs``: the run-ahead bound composes with the slice, so
    the active context runs to the next other-slot event or the end of
    its slice, whichever comes first.
    Every switch charges ``context_switch_cycles`` to the slot and, once
    the slot's contexts outnumber ``max_asids`` (or ``flush_on_switch``
    is set), flushes its TLBs and PWCs.  ``stats`` takes that accounting;
    only a machine with shared slots needs it.  The run-ahead driver and
    the reference heap loop charge switches and model ASID behaviour
    identically, reference for reference.
    """

    def __init__(self, slots: Sequence[SlotSchedule],
                 params: SchedulerParams,
                 stats: Optional[SchedulerStats] = None):
        if not slots:
            raise ValueError("need at least one core slot")
        self.slots: List[SlotSchedule] = list(slots)
        self.cores: List[Core] = [core for slot in self.slots
                                  for core in slot.cores]
        self.params = params
        self.stats = stats
        self.global_cycles = 0.0

    def run(self) -> float:
        """Run every stream to exhaustion; return global cycles.

        Global cycles is the finish time of the slowest core, i.e. the
        parallel-region execution time used for multi-core speedups.
        Once every stream is exhausted a further run does nothing and
        returns the same cycles.
        """
        if all(map(attrgetter("_finished"), self.cores)):
            return self.global_cycles
        # The simulation loop allocates short-lived tuples at a rate
        # that makes the cyclic collector's gen-0 sweeps a measurable
        # tax, while producing no reference cycles of its own.  Nor
        # does the machine around it: the run-ahead entities, chunk
        # coroutines included, live only in this call, and the tenant
        # coordinator holds its OS managers weakly, so a System whose
        # run returned or raised is reclaimed by refcounting alone
        # (tests/sim/test_system.py::TestLifetime).  Pause the
        # collector for the loop, restoring the caller's setting
        # afterwards.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if reference_engine_enabled():
                # Debug: one reference per step() — for every machine
                # shape, so the env var always bypasses the fast path.
                self._run_heap()
            else:
                run_ahead([self._entity(slot) for slot in sorted(
                    self.slots, key=attrgetter("slot_id"))])
        finally:
            if gc_was_enabled:
                gc.enable()
        self.global_cycles = max(core.stats.cycles for core in self.cores)
        return self.global_cycles

    def _entity(self, slot: SlotSchedule):
        """The run-ahead ``send`` of one slot.

        A lone context never switches, so its chunk coroutine is the
        slot: one generator resume per batch.
        """
        if len(slot.cores) == 1:
            return slot.cores[0].runner_send()
        runner = self._slot_runner(slot)
        next(runner)  # park at the first yield
        return runner.send

    # -- switching ---------------------------------------------------

    def _switch(self, slot: SlotSchedule, now: float) -> float:
        """Charge one context switch on ``slot``; return the new time."""
        params = self.params
        stats = self.stats
        stats.context_switches += 1
        cost = float(params.context_switch_cycles)
        stats.switch_cycles += cost
        if (params.flush_on_switch
                or len(slot.cores) > params.max_asids):
            stats.flush_switches += 1
            slot.tlbs.flush()
            if slot.pwcs is not None:
                slot.pwcs.flush()
        else:
            stats.preserved_switches += 1
        return now + cost

    def _retire(self, slot: SlotSchedule, now: float) -> Optional[float]:
        """Drop the active (finished) context; switch to the next.

        Returns the time the next context resumes, or None when the
        slot's run queue is empty.
        """
        slot.alive.pop(slot.active)
        if not slot.alive:
            return None
        if slot.active >= len(slot.alive):
            slot.active = 0
        slot.quantum_refs = 0
        return self._switch(slot, now)

    # -- execution ---------------------------------------------------

    def _slot_runner(self, slot: SlotSchedule):
        """Run-ahead coroutine of one shared slot (see :func:`run_ahead`).

        It starts one chunk coroutine per context before its first
        yield.  A time slice arms the active context's coroutine with
        ``(now, bound, quantum)``; later batches of the slice send it
        the bare bound, and the quantum's unspent budget carries over
        across those stops.  Exactly replicates the reference engine's
        per-reference accounting: a filled quantum switches at once
        (the switch only touches slot-local state, so its placement
        relative to other slots' references is immaterial), and a
        context's end of stream retires it at its drained ready time.
        A slice that starts below the bound runs in the same batch, as
        the driver would have resumed the slot next anyway.
        """
        quantum = self.params.quantum_refs
        alive = slot.alive
        sends = {id(core): core.runner_send() for core in slot.cores}
        now = 0.0
        bound = yield
        while True:
            core = alive[slot.active]
            send = sends[id(core)]
            nxt = send((now, bound, quantum if len(alive) > 1 else None))
            while nxt is not None:
                bound = yield nxt
                nxt = send(bound)
            now = core.stats.cycles
            if core.finished:
                now = self._retire(slot, now)
                if now is None:
                    break
            else:
                slot.active = (slot.active + 1) % len(alive)
                now = self._switch(slot, now)
            if now >= bound:
                bound = yield now
        yield None

    def _run_heap(self) -> None:
        """Debug reference engine: one heap pop per reference.

        The run-ahead driver must match this bit for bit (pinned by
        the equivalence tests); it survives behind
        ``REPRO_REFERENCE_ENGINE=1`` precisely so that claim stays
        checkable.  A slot with one context never fills a slice, so it
        pops exactly as a lone core would.
        """
        quantum = self.params.quantum_refs
        heap = [(0.0, slot.slot_id) for slot in self.slots]
        heapq.heapify(heap)
        by_id = {slot.slot_id: slot for slot in self.slots}
        while heap:
            now, slot_id = heapq.heappop(heap)
            slot = by_id[slot_id]
            core = slot.alive[slot.active]
            next_ready = core.step(now)
            if next_ready is None:
                resumed = self._retire(slot, max(now, core.stats.cycles))
                if resumed is not None:
                    heapq.heappush(heap, (resumed, slot_id))
                continue
            slot.quantum_refs += 1
            if slot.quantum_refs >= quantum and len(slot.alive) > 1:
                slot.quantum_refs = 0
                slot.active = (slot.active + 1) % len(slot.alive)
                next_ready = self._switch(slot, next_ready)
            heapq.heappush(heap, (next_ready, slot_id))
