"""Workloads, passes and metrics of the perfbench benchmark.

A *pass* runs one workload once.  Its cold part is what the workload
times: for a single cell, ``System`` build, run and collect; for fig12
the whole sweep into an empty cache dir.  Then the same cells are
re-served from that cache.  Every pass checks every cell
(:mod:`checks`), and a run repeats passes for its ``--seconds`` and
reports medians.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from speedup_common import PAPER_AVERAGES, assert_common_shape

from repro.analysis.cache import CODE_VERSION, ResultCache
from repro.analysis.experiments import speedup_experiment
from repro.core.mechanisms import PAPER_MECHANISMS
from repro.service import SweepService
from repro.sim import runner
from repro.sim.config import ndp_config
from repro.sim.system import System
from repro.workloads.registry import ALL_WORKLOADS

import checks
import layers

#: Version of this benchmark's workloads, metrics and checks, stamped
#: into every record next to the simulator's CODE_VERSION.  Bump it
#: when a change here moves a metric.
BENCH_VERSION = "perfbench-1"

#: ``repro figure fig12``'s default references per core.
FIG12_REFS = 3000

#: Passes a run makes however short ``--seconds`` is; under
#: ``--trace 1``, pairs of one untraced and one traced pass.
MIN_PASSES = 3
MIN_TRACE_PAIRS = 2

#: Share of a traced run's ``--seconds`` left for the profile-hook
#: pass after the untraced/traced pairs.
PROFILE_SHARE = 0.3

Metrics = Dict[str, Tuple[float, str]]


# -- workloads ----------------------------------------------------------------

class Cell:
    """One bench-suite cell: a System built, run and collected."""

    #: A cached re-serve of one cell takes about a millisecond, so a
    #: pass makes many.
    cached_repeats = 20

    def __init__(self, **config):
        self.config = ndp_config(**config)
        self.cell_ids = [checks.cell_id(self.config)]

    def cold(self, cache_dir: Path):
        system = System(self.config)
        cycles = system.run()
        result = runner.collect(system, cycles)
        return {self.cell_ids[0]: result}, None, None

    def prime(self, cache_dir: Path, results) -> None:
        ResultCache(cache_dir).store(self.config,
                                     results[self.cell_ids[0]])

    def cached(self, cache_dir: Path):
        service = SweepService(backend="auto", jobs=1, cache_dir=cache_dir)
        grid = service.run_grid([self.config])
        return ({self.cell_ids[0]: grid.results[0]}, service.last_stats,
                None)


class Fig12:
    """``repro figure fig12`` at its defaults, into a result cache."""

    cached_repeats = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.cell_ids = [f"{workload}/{mechanism}"
                         for workload in ALL_WORKLOADS
                         for mechanism in PAPER_MECHANISMS]

    def cold(self, cache_dir: Path):
        service = SweepService(backend="auto", jobs=1, cache_dir=cache_dir)
        table, averages, raw = speedup_experiment(
            1, refs_per_core=FIG12_REFS, seed=self.seed, runner=service)
        results = {f"{workload}/{mechanism}": result
                   for workload, row in raw.items()
                   for mechanism, result in row.items()}
        return results, service.last_stats, (table, averages)

    cached = cold

    def prime(self, cache_dir: Path, results) -> None:
        """The cold sweep stored every cell already."""


WORKLOADS = {
    "bfs-radix": lambda seed: Cell(
        workload="bfs", mechanism="radix", num_cores=1,
        refs_per_core=120_000, scale=0.05, seed=seed),
    "xs-ndpage-2t-2c": lambda seed: Cell(
        workload="xs", mechanism="ndpage", num_cores=2, tenants=2,
        refs_per_core=60_000, scale=0.05, seed=seed),
    "fig12": Fig12,
}


# -- one pass -----------------------------------------------------------------

@dataclass
class CellTiming:
    cell: str
    setup_s: float
    roi_s: float
    counts: Dict[str, float]


class PhaseTimers:
    """Times every ``System`` construction and ``System.run``.

    Patched at class level for the ``with`` block, so the cells a sweep
    backend builds are timed at the same two boundaries as a cell built
    here.  In an untraced pass these two timers are the only
    instrumentation.
    """

    def __init__(self):
        self.cells: List[CellTiming] = []

    def __enter__(self) -> "PhaseTimers":
        init, run = vars(System)["__init__"], vars(System)["run"]
        self._saved = (init, run)
        cells = self.cells
        setups: Dict[int, float] = {}

        def timed_init(system, config):
            start = time.perf_counter()
            init(system, config)
            setups[id(system)] = time.perf_counter() - start

        def timed_run(system):
            start = time.perf_counter()
            cycles = run(system)
            roi = time.perf_counter() - start
            cells.append(CellTiming(checks.cell_id(system.config),
                                    setups.pop(id(system)), roi,
                                    checks.cell_counts(system)))
            return cycles

        System.__init__ = timed_init
        System.run = timed_run
        return self

    def __exit__(self, *exc) -> None:
        System.__init__, System.run = self._saved


@dataclass
class Pass:
    """What one pass measured, and which of its cells failed why."""

    wall: Optional[float] = None    # cold part; None when it raised
    setup_s: float = 0.0
    roi_s: float = 0.0
    references: int = 0
    cached_walls: List[float] = field(default_factory=list)
    cells: Dict[str, tuple] = field(default_factory=dict)
    failed: Dict[str, str] = field(default_factory=dict)
    figure: Optional[tuple] = None
    cold_trace: Optional[layers.Trace] = None
    cached_trace: Optional[layers.Trace] = None

    def fail(self, cells, reason: str) -> None:
        for cell in cells:
            self.failed.setdefault(cell, reason)


class Bench:
    """Runs passes of one workload and keeps the tallies."""

    def __init__(self, workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.reference: Dict[str, str] = {}   # first pass's fingerprints
        self.passes: List[Pass] = []

    @property
    def attempted(self) -> int:
        return len(self.passes) * len(self.workload.cell_ids)

    @property
    def failed(self) -> int:
        return sum(len(p.failed) for p in self.passes)

    def run_pass(self, tracer: Optional[layers.Tracer] = None,
                 repeats: Optional[int] = None) -> Pass:
        done = Pass()
        self.passes.append(done)
        cache_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            self._cold(done, cache_dir, tracer)
            if done.wall is not None:
                self._cached(done, cache_dir, tracer,
                             repeats or self.workload.cached_repeats)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return done

    def _cold(self, done: Pass, cache_dir: Path, tracer) -> None:
        workload = self.workload
        gc.collect()
        try:
            with PhaseTimers() as timers:
                if tracer is not None:
                    tracer.begin()
                start = time.perf_counter()
                results, stats, figure = workload.cold(cache_dir)
                done.wall = time.perf_counter() - start
                if tracer is not None:
                    done.cold_trace = tracer.end()
        except Exception:
            traceback.print_exc()
            done.wall = None
            done.fail(workload.cell_ids, "cold pass raised")
            return
        done.setup_s = sum(t.setup_s for t in timers.cells)
        done.roi_s = sum(t.roi_s for t in timers.cells)
        done.figure = figure
        expected = len(workload.cell_ids)
        if stats is not None and (stats.simulated != expected
                                  or stats.failed):
            done.fail(workload.cell_ids,
                      f"sweep simulated {stats.simulated} of {expected} "
                      f"cells, {stats.failed} quarantined")
        counts = {t.cell: t.counts for t in timers.cells}
        for cell in workload.cell_ids:
            result = results.get(cell)
            if result is None or cell not in counts:
                done.fail([cell], "no result")
                continue
            done.cells[cell] = (result, counts[cell])
            done.references += result.references
            errors = checks.identity_errors(result, counts[cell])
            digest = checks.fingerprint(result)
            if self.reference.setdefault(cell, digest) != digest:
                errors.append("fingerprint differs from the first pass")
            if errors:
                done.fail([cell], "; ".join(errors))
        if figure is not None:
            try:
                assert_common_shape(*figure)
            except AssertionError as exc:
                done.fail(workload.cell_ids, f"fig12 shape broken {exc}")

    def _cached(self, done: Pass, cache_dir: Path, tracer,
                repeats: int) -> None:
        workload = self.workload
        expected = len(workload.cell_ids)
        cold = {cell: checks.fingerprint(result)
                for cell, (result, _) in done.cells.items()}
        try:
            if tracer is not None:
                tracer.begin()
            workload.prime(cache_dir, {cell: result for cell, (result, _)
                                       in done.cells.items()})
            for _ in range(repeats):
                start = time.perf_counter()
                results, stats, _ = workload.cached(cache_dir)
                done.cached_walls.append(time.perf_counter() - start)
                if stats.cache_hits != expected or stats.simulated:
                    done.fail(workload.cell_ids,
                              f"cached re-run: {stats.cache_hits} of "
                              f"{expected} cached, {stats.simulated} "
                              f"simulated")
                for cell, digest in cold.items():
                    again = results.get(cell)
                    if again is None or checks.fingerprint(again) != digest:
                        done.fail([cell], "cached result differs")
            if tracer is not None:
                done.cached_trace = tracer.end()
        except Exception:
            traceback.print_exc()
            done.fail(workload.cell_ids, "cached re-run raised")

    # -- runs -----------------------------------------------------------------

    def timed_run(self, seconds: float) -> Metrics:
        """End-to-end metrics: medians over untraced passes."""
        deadline = time.perf_counter() + seconds
        while (len(self.passes) < MIN_PASSES
               or time.perf_counter() < deadline):
            self.run_pass()
        ok = [p for p in self.passes if p.wall is not None]
        return {
            "wall_s": (_median(p.wall for p in ok), "s"),
            "setup_s": (_median(p.setup_s for p in ok), "s"),
            "roi_refs_per_s": (_median(_ratio(p.references, p.roi_s)
                                       for p in ok), "refs/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def trace_run(self, seconds: float) -> Metrics:
        """Per-layer metrics: interleaved untraced and traced passes,
        then one profile-hook pass for the frame counts."""
        calibration = layers.calibrate()
        untraced: List[Pass] = []
        traced: List[Pass] = []
        deadline = time.perf_counter() + seconds * (1 - PROFILE_SHARE)
        while (len(traced) < MIN_TRACE_PAIRS
               or time.perf_counter() < deadline):
            untraced.append(self.run_pass())
            with layers.Tracer(calibration) as tracer:
                traced.append(self.run_pass(tracer=tracer))
        if tracer.missing:
            print(f"perfbench: boundaries not found: "
                  f"{', '.join(tracer.missing)}", file=sys.stderr)
        profiled, frames = layers.count_frames(
            lambda: self.run_pass(repeats=1))
        base = [p for p in untraced if p.wall is not None]
        runs = [p for p in traced if p.cached_trace is not None]
        _print_accounting(runs, base)
        return _layer_metrics(self.workload, base, runs, profiled, frames)


# -- metrics ------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(workload, base: List[Pass], runs: List[Pass],
                   profiled: Pass, frames: layers.FrameCounts) -> Metrics:
    cells = len(workload.cell_ids)
    total = checks.totals(profiled.cells.values())
    refs = total["references"]
    cold = [p.cold_trace for p in runs]
    first = cold[0] if cold else None
    batches = frames.batches
    speedup = 0.0
    if profiled.figure is not None:
        speedup = profiled.figure[1]["ndpage"]
    paper = PAPER_AVERAGES[1]["ndpage"]

    def self_s(layer):
        return _median(t.self_s(layer) for t in cold), "s"

    def frames_per_ref(layer):
        return _ratio(frames.by_layer[layer], refs), "frames/ref"

    def mean_span_ms(p: Pass, name: str, traces) -> float:
        calls = seconds = 0.0
        for trace in traces(p):
            n, s = trace.leaf_spans(name)
            calls += n
            seconds += s
        return _ratio(seconds, calls) * 1e3

    def rate(hits, misses):
        return _ratio(total[misses], total[hits] + total[misses]), "ratio"

    return {
        "workloads.self_s": self_s("workloads"),
        "workloads.calls_per_ref": frames_per_ref("workloads"),
        "vm.self_s": self_s("vm"),
        "vm.calls_per_ref": frames_per_ref("vm"),
        "vm.plan_miss_rate": (_ratio(
            first.calls("walk_info_decorated") if first else 0,
            first.calls("plan_info") if first else 0), "ratio"),
        "vm.roi_faults": (total["roi_faults"], "count"),
        "mmu.tlb.self_s": self_s("mmu.tlb"),
        "mmu.tlb.calls_per_ref": frames_per_ref("mmu.tlb"),
        "mmu.tlb.miss_rate": (_ratio(total["tlb_full_misses"],
                                     total["tlb_lookups"]), "ratio"),
        "mmu.walker.self_s": self_s("mmu.walker"),
        "mmu.walker.calls_per_ref": frames_per_ref("mmu.walker"),
        "mmu.walker.walks_per_ref": (_ratio(total["walker_walks"], refs),
                                     "1/ref"),
        "mmu.walker.pte_reads_per_walk": (_ratio(
            total["pte_reads"], total["walker_walks"]), "1/walk"),
        "mmu.walker.pwc_hit_rate": (_ratio(
            total["pwc_hits"], total["pwc_hits"] + total["pwc_misses"]),
            "ratio"),
        "mem.hierarchy.self_s": self_s("mem.hierarchy"),
        "mem.hierarchy.calls_per_ref": frames_per_ref("mem.hierarchy"),
        "mem.l1.data_miss_rate": rate("l1_data_hits", "l1_data_misses"),
        "mem.l1.metadata_miss_rate": rate("l1_meta_hits",
                                          "l1_meta_misses"),
        "mem.hierarchy.bypass_per_ref": (_ratio(total["l1_bypasses"],
                                                refs), "1/ref"),
        "mem.dram.self_s": self_s("mem.dram"),
        "mem.dram.calls_per_ref": frames_per_ref("mem.dram"),
        "mem.dram.accesses_per_ref": (_ratio(total["dram_accesses"],
                                             refs), "1/ref"),
        "mem.dram.metadata_share": (_ratio(total["dram_metadata"],
                                           total["dram_accesses"]),
                                    "ratio"),
        "mem.dram.row_hit_rate": (_ratio(
            total["dram_row_hits"],
            total["dram_row_hits"] + total["dram_row_misses"]), "ratio"),
        "sim.core.self_s": self_s("sim.core"),
        "sim.core.calls_per_ref": frames_per_ref("sim.core"),
        "sim.engine.refs_per_batch": (_ratio(refs, batches),
                                      "refs/batch"),
        "sim.sched.switches_per_kref": (_ratio(
            total["context_switches"], refs) * 1e3, "1/kref"),
        "sweep.overhead_ms_per_cell": (_median(
            t.outside_cells_s() for t in cold) / cells * 1e3, "ms"),
        "sweep.cached_ms_per_cell": (_median(
            w for p in base for w in p.cached_walls) / cells * 1e3, "ms"),
        "sweep.cache_store_ms": (_median(
            mean_span_ms(p, "ResultCache.store",
                         lambda p: (p.cold_trace, p.cached_trace))
            for p in runs), "ms"),
        "sweep.cache_load_ms": (_median(
            mean_span_ms(p, "ResultCache.load",
                         lambda p: (p.cached_trace,))
            for p in runs), "ms"),
        "model.cycles_per_ref": (_ratio(total["core_cycles"], refs),
                                 "cycles/ref"),
        "model.translation_share": (_ratio(total["translation_cycles"],
                                           total["core_cycles"]), "ratio"),
        "model.fault_share": (_ratio(total["fault_cycles"],
                                     total["core_cycles"]), "ratio"),
        "model.data_stall_share": (_ratio(total["data_stall_cycles"],
                                          total["core_cycles"]), "ratio"),
        "model.compute_share": (_ratio(total["compute_cycles"],
                                       total["core_cycles"]), "ratio"),
        "model.ptw_latency_cycles": (_ratio(total["walk_cycles"],
                                            total["walks"]), "cycles"),
        "model.dram_queue_delay_cycles": (_ratio(
            total["dram_queue_cycles"], total["dram_queue_samples"]),
            "cycles"),
        "model.fig12_ndpage_speedup": (speedup, "ratio"),
        "model.fig12_ndpage_err": (abs(speedup / paper - 1)
                                   if speedup else 0.0, "ratio"),
        "trace.overhead": (_ratio(_median(p.wall for p in runs),
                                  _median(p.wall for p in base)) - 1,
                           "ratio"),
    }


def _print_accounting(runs: List[Pass], base: List[Pass]) -> None:
    """Where the first traced cold part's wall went, on stderr."""
    if not runs:
        return
    trace = runs[0].cold_trace
    cal = trace.calibration
    layer_s = sum(trace.self_s(layer) for layer in layers.LAYERS)
    untraced = _median(p.wall for p in base)
    accounted = layer_s + trace.residual_s()
    print(f"perfbench: traced wall {trace.wall:.4f} s = layers "
          f"{layer_s:.4f} s + residual {trace.residual_s():.4f} s + "
          f"wrappers {trace.wrapper_s():.4f} s ({trace.spans()} spans x "
          f"{(cal.inner + cal.outer) * 1e9:.0f} ns); untraced median "
          f"{untraced:.4f} s, calibrated layers + residual "
          f"{_ratio(accounted, untraced) - 1:+.1%} of it",
          file=sys.stderr)
    for layer in layers.LAYERS:
        print(f"perfbench:   {layer:<14} {trace.self_s(layer):9.4f} s",
              file=sys.stderr)


# -- entry point --------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool,
            scratch: Path, held_out_seed: int) -> Tuple[dict, dict]:
    """Run one workload; return ``(record, result)``."""
    bench = Bench(WORKLOADS[name](seed), scratch)
    metrics = (bench.trace_run(seconds) if trace
               else bench.timed_run(seconds))
    reasons = {}
    for done in bench.passes:
        for cell, reason in done.failed.items():
            reasons.setdefault(f"{cell}: {reason}", 0)
            reasons[f"{cell}: {reason}"] += 1
    for reason, count in reasons.items():
        print(f"perfbench: FAILED x{count} {reason}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"perfbench: {key:<32} {value:14.6g} {unit}",
              file=sys.stderr)
    record = {
        "bench_version": BENCH_VERSION,
        "code_version": CODE_VERSION,
        "workload": name,
        "seed": seed,
        "held_out_seed": held_out_seed,
        "trace": int(trace),
        "passes": len(bench.passes),
        "cells": len(bench.workload.cell_ids),
        "fingerprint": checks.grid_fingerprint(bench.reference),
    }
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {key: {"value": value if math.isfinite(value) else 0.0,
                          "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    return record, result
