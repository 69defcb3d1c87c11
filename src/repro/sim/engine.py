"""Multi-core run-ahead event engine.

Cores are advanced in global time order, so accesses from different
cores interleave at the shared DRAM banks in the order they would
actually issue — the queueing this produces is the source of the
paper's core-count scaling results (Fig. 6).  Ties are broken by core
id for full determinism.

The classic way to drive that order is a binary heap popped once per
reference.  This engine instead *runs ahead* (Sniper-style interval
batching): the minimum-time entity can safely execute references back
to back for as long as its clock stays below the second-smallest event
key — every reference it issues in that window precedes the next
other-entity event in global time, ties included, so the interleaving
at the shared DRAM banks is bit-identical by construction.

An *entity* is a coroutine that owns its clock: a core's chunk
coroutine (:meth:`repro.sim.core_model.Core.runner_send`) under this
engine, or a scheduler slot (:mod:`repro.sim.scheduler`).  One driver,
:func:`run_ahead`, serves every engine configuration.  Each turn it
scans a next-ready array for the minimum and the runner-up, folds the
id tie-break into the bound, and sends the winner that bound alone; the
entity answers with its next event key.  So a batch costs the inline
scan and one generator resume (two under the scheduler), and the
common reference runs in the core's inlined chunk loop.  A single
entity gets one infinite bound and runs to completion.

The original reference-at-a-time heap loop is retained as a *debug
reference engine*: set ``REPRO_REFERENCE_ENGINE=1`` to force it (the
equivalence tests in tests/sim/test_engine.py pin both paths to the
same golden statistics).
"""

from __future__ import annotations

import gc
import heapq
import os
from math import inf, nextafter
from operator import attrgetter
from typing import Callable, List, Optional, Sequence

from repro.sim.core_model import Core

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


class SimulationEngine:
    """Runs a set of cores to completion of their reference streams."""

    def __init__(self, cores: Sequence[Core]):
        if not cores:
            raise ValueError("need at least one core")
        self.cores: List[Core] = list(cores)
        self.global_cycles = 0.0

    def run(self) -> float:
        """Run every core's stream to exhaustion; return global cycles.

        Global cycles is the finish time of the slowest core, i.e. the
        parallel-region execution time used for multi-core speedups.
        """
        # The simulation loop allocates short-lived tuples at a rate
        # that makes the cyclic collector's gen-0 sweeps a measurable
        # tax, while producing no reference cycles of its own.  Nor
        # does the machine around it: a core drops its chunk coroutine
        # once its stream ends, the run-ahead entities live only in
        # the driver's call, and the tenant coordinator holds its OS
        # managers weakly, so a finished System is reclaimed by
        # refcounting alone (tests/sim/test_system.py::TestLifetime).
        # Pause the collector for the loop, restoring the caller's
        # setting afterwards.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._run()
        finally:
            if gc_was_enabled:
                gc.enable()
        self.global_cycles = max(core.stats.cycles for core in self.cores)
        return self.global_cycles

    def _run(self) -> None:
        """Drive the cores' chunk coroutines; subclasses (the
        multi-process scheduler engine) override this and inherit the
        gc pause and the global-cycles aggregation around it."""
        if reference_engine_enabled():
            # Debug: one reference per step() — also for a single core,
            # so the env var always bypasses the chunked fast path.
            self._run_heap()
        else:
            run_ahead(list(map(Core.runner_send, sorted(
                self.cores, key=attrgetter("core_id")))))

    def _run_heap(self) -> None:
        """Debug reference engine: one heap pop per reference.

        The run-ahead driver must match this bit for bit (pinned by
        the equivalence tests); it survives behind
        ``REPRO_REFERENCE_ENGINE=1`` precisely so that claim stays
        checkable.
        """
        heap = [(0.0, core.core_id) for core in self.cores]
        heapq.heapify(heap)
        by_id = {core.core_id: core for core in self.cores}
        while heap:
            now, core_id = heapq.heappop(heap)
            next_ready = by_id[core_id].step(now)
            if next_ready is not None:
                heapq.heappush(heap, (next_ready, core_id))
