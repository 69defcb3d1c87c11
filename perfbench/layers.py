"""Outside-in tracing of the simulator's layers.

Two instruments, both driven from this directory with no edit to the
simulator:

* :class:`Tracer` replaces each layer's boundary functions with timing
  wrappers at class level (module level for ``runner.collect``) and
  keeps a span stack, so every boundary call gets an inclusive time
  and a self time: inclusive minus the boundary calls made inside it.
  The simulator looks its slow paths up as attributes on every call
  (``mmu._translate_slow``, ``hierarchy.access_fast``,
  ``walker.plan_info``, ...), so class-level wrappers reach every hot
  call.  ``System.run`` is the ``sim.core`` boundary: the inlined
  L1-DTLB and L1-hit loop, the ``Mmu._translate_slow`` glue, the
  engine and the scheduler all land in its self time.
* :func:`count_frames` counts Python frames entered per code object
  under a profile hook.  Mapped onto layers by module, these counts
  repeat exactly from run to run.

A wrapper costs time inside its own span and outside it, where the
parent pays.  :func:`calibrate` measures both parts on a no-op method
and :class:`Trace` subtracts them span by span.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro
import repro.core.mechanisms  # noqa: F401  (loads every page-table class)
from repro.analysis.cache import ResultCache
from repro.mem.dram import DramModel
from repro.mem.hierarchy import MemoryHierarchy
from repro.mmu.tlb import TlbHierarchy
from repro.mmu.walker import PageTableWalker
from repro.sim import runner
from repro.sim.system import System
from repro.vm.base import PageTable
from repro.vm.os_model import OSMemoryManager
from repro.workloads.base import Workload

#: Reported layers, named after the repo modules they cover.
LAYERS = ("workloads", "vm", "mmu.tlb", "mmu.walker", "mem.hierarchy",
          "mem.dram", "sim.core", "sweep")

#: Modules of each layer, relative to the ``repro`` package, for the
#: frame counts.  ``obs`` and ``sim/faults.py`` only serve the sweep
#: stack (events, guarded cache writes), so they count as sweep.
LAYER_MODULES = (
    ("workloads", ("workloads/",)),
    ("vm", ("vm/", "core/")),
    ("mmu.tlb", ("mmu/tlb.py",)),
    ("mmu.walker", ("mmu/walker.py", "mmu/pwc.py")),
    ("mem.hierarchy", ("mem/hierarchy.py", "mem/cache.py",
                       "mem/replacement.py")),
    ("mem.dram", ("mem/dram.py",)),
    ("sim.core", ("sim/core_model.py", "sim/engine.py",
                  "sim/scheduler.py", "mmu/mmu.py")),
    ("sweep", ("service.py", "sim/sweep.py", "sim/backends/",
               "sim/journal.py", "sim/faults.py", "analysis/", "obs/")),
)

_PACKAGE = str(Path(repro.__file__).resolve().parent) + "/"


def _table_classes() -> List[type]:
    """Every page-table class that defines its own walk plan."""
    found, todo = [], [PageTable]
    while todo:
        cls = todo.pop()
        if "walk_info_decorated" in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def boundaries() -> List[Tuple[str, object, str]]:
    """``(layer, owner, attribute)`` of every call timed from outside.

    ``build`` (``System.__init__``) and ``collect`` are not layers:
    they separate a cell's build and collect from the sweep around it,
    and their own glue counts as residual.
    """
    return [
        ("workloads", Workload, "stream_chunks"),
        ("vm", OSMemoryManager, "ensure_mapped"),
        ("vm", OSMemoryManager, "ensure_translated"),
        *(("vm", cls, "walk_info_decorated") for cls in _table_classes()),
        ("mmu.tlb", TlbHierarchy, "lookup_after_l1_small_miss"),
        ("mmu.tlb", TlbHierarchy, "insert"),
        ("mmu.walker", PageTableWalker, "plan_info"),
        ("mmu.walker", PageTableWalker, "walk_from_plan"),
        ("mem.hierarchy", MemoryHierarchy, "access_fast"),
        ("mem.dram", DramModel, "access_fast"),
        ("mem.dram", DramModel, "drain_write_fast"),
        ("sim.core", System, "run"),
        ("sweep", ResultCache, "store"),
        ("sweep", ResultCache, "load"),
        ("build", System, "__init__"),
        ("collect", runner, "collect"),
    ]


# -- span bookkeeping ---------------------------------------------------------
#
# A record is [layer, calls, inclusive_s, self_s, child_spans]; a stack
# frame is [child_seconds, child_spans] of the span it belongs to.

def _close(record: list, stack: list, frame: list, elapsed: float) -> None:
    stack.pop()
    parent = stack[-1]
    parent[0] += elapsed
    parent[1] += 1
    record[1] += 1
    record[2] += elapsed
    record[3] += elapsed - frame[0]
    record[4] += frame[1]


def _timed(fn: Callable, record: list, stack: list) -> Callable:
    clock = time.perf_counter

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        frame = [0.0, 0]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            _close(record, stack, frame, clock() - start)

    return timed


_DONE = object()


def _timed_generator(fn: Callable, record: list, stack: list) -> Callable:
    """Generator boundary: each ``next()`` is one span."""
    clock = time.perf_counter

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                item = next(inner, _DONE)
            finally:
                _close(record, stack, frame, clock() - start)
            if item is _DONE:
                return
            yield item

    return timed


def _wrap(fn: Callable, record: list, stack: list) -> Callable:
    if inspect.isgeneratorfunction(fn):
        return _timed_generator(fn, record, stack)
    return _timed(fn, record, stack)


# -- calibration --------------------------------------------------------------

@dataclass(frozen=True)
class Calibration:
    """Host seconds one wrapper adds per span."""

    inner: float   # inside the span's own [start, end]
    outer: float   # outside it, billed to the parent span


class _Probe:
    def call(self, a, b):
        return a


def _loop(probe: _Probe, n: int) -> float:
    start = time.perf_counter()
    for _ in range(n):
        probe.call(1, 2)
    return time.perf_counter() - start


def _empty_loop(n: int) -> float:
    start = time.perf_counter()
    for _ in range(n):
        pass
    return time.perf_counter() - start


def calibrate(repeats: int = 7, n: int = 20_000) -> Calibration:
    """Measure the wrapper's per-span cost on a no-op method call.

    ``inner`` is the mean span a wrapped no-op records minus what the
    bare call costs; the rest of the wrapped-vs-bare difference is
    ``outer``.  Medians over ``repeats`` rounds.
    """
    original = vars(_Probe)["call"]
    probe = _Probe()
    inner, outer = [], []
    for _ in range(repeats):
        record = ["calibration", 0, 0.0, 0.0, 0]
        stack = [[0.0, 0]]
        empty = _empty_loop(n)
        bare = _loop(probe, n)
        _Probe.call = _timed(original, record, stack)
        try:
            wrapped = _loop(probe, n)
        finally:
            _Probe.call = original
        bare_call = (bare - empty) / n
        span_in = record[2] / record[1] - bare_call
        inner.append(span_in)
        outer.append((wrapped - bare) / n - span_in)
    return Calibration(inner=max(0.0, statistics.median(inner)),
                       outer=max(0.0, statistics.median(outer)))


# -- traces -------------------------------------------------------------------

@dataclass
class Trace:
    """Span totals of one traced stretch of a pass."""

    wall: float
    root_self: float        # time inside no boundary call
    root_children: int      # top-level spans
    records: Dict[str, tuple]
    calibration: Calibration

    def _calibrated_self(self, record: tuple) -> float:
        _, calls, _, self_s, children = record
        cal = self.calibration
        return self_s - calls * cal.inner - children * cal.outer

    def self_s(self, layer: str) -> float:
        """Calibrated self seconds of one layer."""
        return sum(self._calibrated_self(r) for r in self.records.values()
                   if r[0] == layer)

    def _top_level_s(self) -> float:
        return self.root_self - self.root_children * self.calibration.outer

    def residual_s(self) -> float:
        """Calibrated seconds outside every layer: the pass's own glue
        (for fig12 that includes the sweep supervisor), System build
        glue around the layer calls, and collect."""
        return self._top_level_s() + sum(
            self._calibrated_self(r) for r in self.records.values()
            if r[0] not in LAYERS)

    def outside_cells_s(self) -> float:
        """Calibrated seconds outside the cells' build, run and
        collect: the top level plus the sweep layer's cache calls."""
        return self._top_level_s() + self.self_s("sweep")

    def spans(self) -> int:
        return sum(r[1] for r in self.records.values())

    def wrapper_s(self) -> float:
        """Total calibrated wrapper cost inside this trace's wall."""
        return self.spans() * (self.calibration.inner
                               + self.calibration.outer)

    def calls(self, attribute: str) -> int:
        """Calls of every boundary named ``<Owner>.<attribute>``."""
        return sum(r[1] for name, r in self.records.items()
                   if name.rsplit(".", 1)[-1] == attribute)

    def leaf_spans(self, name: str) -> Tuple[int, float]:
        """``(calls, calibrated seconds)`` of a boundary that makes no
        boundary calls itself."""
        record = self.records.get(name)
        if record is None:
            return 0, 0.0
        return record[1], record[2] - record[1] * self.calibration.inner

    def check_accounting(self) -> None:
        """Self times plus the residual must add up to the wall, both as
        measured and after calibration (plus the calibrated wrapper
        cost).  A violation means a span was lost or mis-nested."""
        measured = (sum(r[3] for r in self.records.values())
                    + self.root_self)
        calibrated = (sum(self.self_s(layer) for layer in LAYERS)
                      + self.residual_s() + self.wrapper_s())
        for label, total in (("measured", measured),
                             ("calibrated", calibrated)):
            if abs(total - self.wall) > 1e-6 * max(1.0, self.wall):
                raise RuntimeError(
                    f"trace accounting broken: {label} self times sum "
                    f"to {total!r} s, traced wall is {self.wall!r} s")


class Tracer:
    """Installs the boundary wrappers for the duration of a ``with``
    block; :meth:`begin` / :meth:`end` bracket one traced stretch."""

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.missing: List[str] = []
        self._stack: list = [[0.0, 0]]
        self._records: Dict[str, list] = {}
        self._patched: List[tuple] = []
        self._start = 0.0

    def __enter__(self) -> "Tracer":
        for layer, owner, attribute in boundaries():
            original = vars(owner).get(attribute)
            name = f"{owner.__name__}.{attribute}"
            if original is None:
                # A fused or removed boundary: its time lands in the
                # caller's layer, which is what such a change should show.
                self.missing.append(name)
                continue
            record = self._records.setdefault(name, [layer, 0, 0.0, 0.0, 0])
            setattr(owner, attribute, _wrap(original, record, self._stack))
            self._patched.append((owner, attribute, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def begin(self) -> None:
        for record in self._records.values():
            record[1:] = [0, 0.0, 0.0, 0]
        self._stack[:] = [[0.0, 0]]
        self._start = time.perf_counter()

    def end(self) -> Trace:
        wall = time.perf_counter() - self._start
        root = self._stack[0]
        trace = Trace(wall=wall, root_self=wall - root[0],
                      root_children=root[1],
                      records={name: tuple(record) for name, record
                               in self._records.items()},
                      calibration=self.calibration)
        trace.check_accounting()
        return trace


# -- frame counts -------------------------------------------------------------

def layer_of(filename: str) -> Optional[str]:
    """Layer whose modules hold ``filename``; None outside them."""
    filename = str(Path(filename).resolve())
    if not filename.startswith(_PACKAGE):
        return None
    module = filename[len(_PACKAGE):]
    for layer, prefixes in LAYER_MODULES:
        if module.startswith(prefixes):
            return layer
    return None


@dataclass
class FrameCounts:
    """Python frames entered during one profiled pass."""

    by_layer: Dict[str, int]
    batches: int   # sends into the cores' chunk coroutines


def count_frames(fn: Callable[[], object]) -> Tuple[object, FrameCounts]:
    """Run ``fn`` under a profile hook counting Python frame entries.

    Generator resumptions count as entries.  The engines drive each
    core's persistent chunk coroutine through its ``send``, one call
    per run-ahead batch, so those C calls count the batches.
    """
    counts: Dict[object, int] = {}
    senders: Dict[object, int] = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1
        elif event == "c_call" and arg.__name__ == "send":
            code = getattr(arg.__self__, "gi_code", None)
            senders[code] = senders.get(code, 0) + 1

    sys.setprofile(hook)
    try:
        value = fn()
    finally:
        sys.setprofile(None)
    by_layer = dict.fromkeys(LAYERS, 0)
    for code, count in counts.items():
        layer = layer_of(code.co_filename)
        if layer is not None:
            by_layer[layer] += count
    batches = sum(count for code, count in senders.items()
                  if code is not None and code.co_name == "_chunk_runner")
    return value, FrameCounts(by_layer, batches)
