"""Multi-core run-ahead event engine.

Cores are advanced in global time order, so accesses from different
cores interleave at the shared DRAM banks in the order they would
actually issue — the queueing this produces is the source of the
paper's core-count scaling results (Fig. 6).  Ties are broken by core
id for full determinism.

The classic way to drive that order is a binary heap popped once per
reference.  This engine instead *runs ahead* (Sniper-style interval
batching): the minimum-time core can safely execute references back to
back for as long as its clock stays below the second-smallest event
key — every reference it issues in that window precedes the next
other-core event in global time, ties included, so the interleaving at
the shared DRAM banks is bit-identical by construction.  Each pop
therefore drives :meth:`repro.sim.core_model.Core.step_until` to the
second-smallest key instead of calling ``step`` once, and the common
reference runs in the core's inlined chunk loop rather than crossing a
heap + dict + method-call boundary.

Scheduling structure by core count:

* 1 core needs no interleaving at all: one ``step_until`` call with an
  infinite bound consumes the whole stream;
* 2..``LINEAR_SCAN_MAX`` cores use a linear-scan array of next-ready
  times — finding min and runner-up in one pass over <= 8 floats is
  cheaper than heap maintenance at small N, with the same
  tie-break-by-core-id order;
* larger machines keep a heap, popping the min and peeking ``heap[0]``
  for the run-ahead deadline.

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
from typing import List, Sequence

from repro.sim.core_model import Core

#: Largest core/slot count driven by the linear-scan scheduler; above
#: this the run-ahead loop keeps a heap.
LINEAR_SCAN_MAX = 8

#: Environment switch forcing the reference-at-a-time heap engine.
REFERENCE_ENGINE_ENV = "REPRO_REFERENCE_ENGINE"


def reference_engine_enabled() -> bool:
    """True when the debug reference engine is forced via the env var."""
    return os.environ.get(REFERENCE_ENGINE_ENV, "") not in ("", "0")


def scan_min2(ready):
    """Minimum and runner-up of a next-ready array, in one pass.

    ``ready`` is indexed in id order, so strict comparisons reproduce
    the heap's tie-break-by-id: returns ``(best_i, best_t, sec_i,
    sec_t)`` with ``(best_t, best_i) < (sec_t, sec_i)`` in event
    order.  Requires at least two entries below +inf (finished
    entries park there); both run-ahead linear loops share this scan
    so the tie-break logic exists exactly once.
    """
    best_i = 0
    best_t = ready[0]
    sec_i = -1
    sec_t = inf
    for i in range(1, len(ready)):
        t = ready[i]
        if t < best_t:
            sec_i = best_i
            sec_t = best_t
            best_i = i
            best_t = t
        elif t < sec_t:
            sec_i = i
            sec_t = t
    return best_i, best_t, sec_i, sec_t


def runahead_bound(deadline: float, min_id: int, next_id: int) -> float:
    """Exclusive issue-time bound for the min core's run-ahead batch.

    The popped core may execute a reference issued at time ``t`` while
    ``(t, min_id) < (deadline, next_id)`` in event order.  When the
    core wins the id tie-break, that inequality holds *at* the deadline
    too, so the exclusive bound is the next representable float above
    it — one comparison per reference inside the core loop either way.
    """
    if min_id < next_id:
        return nextafter(deadline, inf)
    return deadline


def drive_linear(count, advance) -> None:
    """Run-ahead driver over a linear-scan array of next-ready keys.

    The one skeleton both engines' small-N loops share:
    ``advance(i, now, bound)`` runs entity ``i`` (a core, or a
    scheduler slot) ahead from ``now`` to ``bound`` and returns its
    next event key, or None once it has nothing left.  Entities must
    be indexed in id order so the scan's index tie-break reproduces
    the heap's id tie-break; finished entities park at +inf, and the
    last survivor is driven to completion with an infinite bound.
    """
    ready = [0.0] * count
    alive = count
    while alive > 1:
        best_i, best_t, sec_i, sec_t = scan_min2(ready)
        bound = runahead_bound(sec_t, best_i, sec_i)
        nxt = advance(best_i, best_t, bound)
        if nxt is None:
            ready[best_i] = inf
            alive -= 1
        else:
            ready[best_i] = nxt
    if alive:
        for i, t in enumerate(ready):
            if t != inf:
                while t is not None:
                    t = advance(i, t, inf)
                return


def drive_heap(ids, advance) -> None:
    """Run-ahead driver under a heap (entity counts past the scan
    window): pop the min, peek ``heap[0]`` for the deadline.  Same
    ``advance`` contract as :func:`drive_linear`, keyed by entity id.
    """
    heap = [(0.0, entity_id) for entity_id in ids]
    heapq.heapify(heap)
    while heap:
        now, entity_id = heapq.heappop(heap)
        if heap:
            sec_t, sec_id = heap[0]
            bound = runahead_bound(sec_t, entity_id, sec_id)
        else:
            bound = inf
        nxt = advance(entity_id, now, bound)
        if nxt is not None:
            heapq.heappush(heap, (nxt, entity_id))


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
        # once its stream ends, and the tenant coordinator holds its
        # OS managers weakly, so a finished System is reclaimed by
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
        """Dispatch to the right loop; subclasses (the multi-process
        scheduler engine) override this and inherit the gc pause and
        the global-cycles aggregation around it."""
        if reference_engine_enabled():
            # Debug: one reference per step() — also for a single core,
            # so the env var always bypasses the chunked fast path.
            self._run_heap()
        elif len(self.cores) == 1:
            self.cores[0].step_until(0.0, inf)
        elif len(self.cores) <= LINEAR_SCAN_MAX:
            self._run_linear()
        else:
            self._run_heap_runahead()

    def _run_linear(self) -> None:
        """Run-ahead over a linear-scan array of next-ready cores,
        advanced through their coroutines' direct ``send``."""
        cores = sorted(self.cores, key=lambda core: core.core_id)
        senders = [core.runner_send() for core in cores]

        def advance(i, now, bound):
            return senders[i]((now, bound, None))

        drive_linear(len(cores), advance)

    def _run_heap_runahead(self) -> None:
        """Run-ahead under a heap (core counts past the scan window)."""
        send_by_id = {core.core_id: core.runner_send()
                      for core in self.cores}

        def advance(core_id, now, bound):
            return send_by_id[core_id]((now, bound, None))

        drive_heap(sorted(send_by_id), advance)

    def _run_heap(self) -> None:
        """Debug reference engine: one heap pop per reference.

        The run-ahead loops must match this bit for bit (pinned by the
        equivalence tests); it survives behind
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
