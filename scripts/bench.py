#!/usr/bin/env python
"""Simulator throughput benchmark: refs/sec on representative workloads.

Builds, runs and collects (what :func:`repro.sim.runner.run_once`
does) a small suite of configurations that exercise the hot path from
different angles — a walker-heavy random stream under the Radix
baseline, a graph traversal, and the paper's NDPage mechanism — and
reports wall-clock seconds and simulated references per second for
each, plus two aggregates (total refs / total wall and the geometric
mean of per-config refs/sec).  ``wall_seconds`` covers the whole cell;
``setup_seconds`` is its ``System(config)`` part alone (build plus the
untimed prefault warmup), each the best of ``--repeats``.

Results are written as JSON (default: the untracked ``bench.json`` at
the repo root, labelled ``dev``); committed ``BENCH_*.json`` files are
written only through an explicit ``--out``, so successive changes
accumulate a performance trajectory without a bare run overwriting
one::

    PYTHONPATH=src python scripts/bench.py
    PYTHONPATH=src python scripts/bench.py --refs 200000 --out BENCH.json
    PYTHONPATH=src python scripts/bench.py --baseline BENCH_PR1.json

``--baseline`` compares the current run against a previous JSON and
prints per-config and aggregate speedups, with each row's setup time
beside its refs/s.  When both reports simulated the same streams (same
``refs_per_core``, ``scale`` and ``seed``; a baseline without a seed
ran at 42) it also checks that every row simulated the same thing,
printing ``MISMATCH: row <name> cycles A -> B`` for each row whose
``cycles`` differ.  Adding ``--fail-below R`` turns the comparison
into a regression gate that exits non-zero on any such mismatch or
when the aggregate refs/s, or any suite row's refs/s, falls below
``R x`` the baseline's (CI runs this with ``R = 0.8``), so one
regressed row cannot hide inside a healthy aggregate.
``--profile`` adds one instrumented pass per config after the timed
suite and embeds each config's top-25 functions by cumulative time in
the report (a ``profile`` block), so future perf PRs can cite where
the time goes.

Alongside the single-run rows the harness times one *parallel sweep*
per execution backend (the QUICK workload grid through
``repro.service`` at ``--sweep-jobs N``, fresh cache) and reports the
throughput in a ``sweep`` block — the scale-out number that future
"more scenarios" PRs move, next to the per-core number PR 1 moved.
The primary backend (first of ``--sweep-backends``, default ``pool``)
keeps the block's historical shape for baseline comparison; every
measured backend lands under ``sweep.backends.<name>`` (``fileq``
runs over a throwaway queue directory with local workers, so the
file-queue coordination overhead is on the perf trajectory too).
``--sweep-jobs 0`` skips the sweep block entirely.

JSON format (``BENCH_*.json``)::

    {
      "label": "dev",
      "python": "3.11.x",
      "host": {"cpu_count": 8, "cpu_model": "...", "machine": "...",
               "platform": "..."},
      "refs_per_core": 120000,
      "scale": 0.05,
      "seed": 42,
      "results": [
        {"name": "...", "workload": "...", "mechanism": "...",
         "num_cores": 1, "references": 120000,
         "wall_seconds": 1.23, "setup_seconds": 0.21,
         "refs_per_sec": 97561.0, "cycles": 1234567.0}
      ],
      "aggregate": {"total_references": ..., "total_wall_seconds": ...,
                    "refs_per_sec": ..., "geomean_refs_per_sec": ...},
      "baseline": { ... same shape, when --baseline was given ... }
    }

``cycles`` is recorded so a throughput win can be cross-checked against
statistics preservation (same simulated cycles, less wall time); the
baseline comparison does that check itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service import SweepService  # noqa: E402
from repro.sim.config import NumaParams, ndp_config  # noqa: E402
from repro.sim.runner import collect, run_once  # noqa: E402
from repro.sim.sweep import expand_grid  # noqa: E402
from repro.sim.system import System  # noqa: E402

#: The benchmark suite: walker-heavy baseline, graph traversal, the
#: paper's mechanism, a two-tenant schedule (the multi-process
#: scheduler + ASID-tagged-TLB path), a two-node NUMA interleave
#: (per-node DRAM routing + remote-distance charging on the miss
#: path), and — since the run-ahead engine (PR 5) — two multi-core
#: configs: a 4-core traversal through the linear-scan run-ahead loop
#: and a 2-tenant 2-core schedule through the scheduler's run-ahead
#: loop, so the interleaved paths sit on the same perf trajectory as
#: the single-core ones.
SUITE = (
    {"name": "rnd-radix", "workload": "rnd", "mechanism": "radix"},
    {"name": "bfs-radix", "workload": "bfs", "mechanism": "radix"},
    {"name": "xs-ndpage", "workload": "xs", "mechanism": "ndpage"},
    {"name": "xs-radix-2t", "workload": "xs", "mechanism": "radix",
     "tenants": 2},
    {"name": "rnd-radix-2n", "workload": "rnd", "mechanism": "radix",
     "nodes": 2, "placement": "interleave"},
    {"name": "bfs-radix-4c", "workload": "bfs", "mechanism": "radix",
     "num_cores": 4},
    {"name": "xs-ndpage-2t-2c", "workload": "xs",
     "mechanism": "ndpage", "tenants": 2, "num_cores": 2},
)


#: The harness's default seed; a baseline that records no seed ran at
#: it, since every report written before the seed was recorded did.
DEFAULT_SEED = 42


def bench_config(entry: dict, refs: int, scale: float, seed: int = 42):
    """Build the SystemConfig for one suite entry."""
    numa = NumaParams(nodes=entry.get("nodes", 1),
                      placement=entry.get("placement", "local"))
    return ndp_config(
        workload=entry["workload"],
        mechanism=entry["mechanism"],
        num_cores=entry.get("num_cores", 1),
        refs_per_core=refs,
        scale=scale,
        seed=seed,
        tenants=entry.get("tenants", 1),
        numa=numa,
    )


def _cpu_model() -> str:
    """Human-readable CPU model, best effort across platforms."""
    if sys.platform.startswith("linux"):
        try:
            with open("/proc/cpuinfo") as handle:
                for line in handle:
                    if line.lower().startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
    return platform.processor() or platform.machine()


def host_info() -> dict:
    """Machine identity embedded in every report.

    BENCH_*.json files accumulate a cross-PR performance trajectory;
    refs/sec is only comparable between reports measured on the same
    class of machine, so each report says what it ran on.
    """
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def run_suite(refs: int, scale: float, seed: int = 42,
              verbose: bool = True, repeats: int = 1) -> dict:
    """Time every suite entry end to end; return the report dict.

    Each cell is built, run and collected as ``run_once`` does, with
    the build (``System(config)``, warmup included) timed on its own.
    With ``repeats > 1`` each configuration is run that many times and
    the best (minimum) wall and setup times are reported — the standard
    way to estimate throughput on a machine with noisy neighbours.
    """
    results = []
    total_refs = 0
    total_wall = 0.0
    product = 1.0
    for entry in SUITE:
        config = bench_config(entry, refs, scale, seed)
        wall = setup = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            system = System(config)
            built = time.perf_counter()
            result = collect(system, system.run())
            del system  # freed inside the cell's time, as run_once does
            end = time.perf_counter()
            wall = min(wall, end - start)
            setup = min(setup, built - start)
        refs_per_sec = result.references / wall if wall > 0 else 0.0
        row = {
            "name": entry["name"],
            "workload": entry["workload"],
            "mechanism": entry["mechanism"],
            "num_cores": config.num_cores,
            "tenants": config.tenants,
            "nodes": config.numa.nodes,
            "references": result.references,
            "wall_seconds": round(wall, 4),
            "setup_seconds": round(setup, 4),
            "refs_per_sec": round(refs_per_sec, 1),
            "cycles": result.cycles,
        }
        results.append(row)
        total_refs += result.references
        total_wall += wall
        product *= refs_per_sec
        if verbose:
            print(f"  {entry['name']:<12} {result.references:>9,} refs  "
                  f"{wall:7.2f} s  (setup {setup:5.2f} s)  "
                  f"{refs_per_sec:>12,.0f} refs/s")
    aggregate = {
        "total_references": total_refs,
        "total_wall_seconds": round(total_wall, 4),
        "refs_per_sec": round(total_refs / total_wall, 1)
        if total_wall else 0.0,
        "geomean_refs_per_sec": round(product ** (1.0 / len(results)), 1)
        if results else 0.0,
    }
    return {
        "python": platform.python_version(),
        "host": host_info(),
        "refs_per_core": refs,
        "scale": scale,
        "seed": seed,
        "results": results,
        "aggregate": aggregate,
    }


#: Entries kept per config by ``--profile`` (cProfile, by cumulative).
PROFILE_TOP = 25


def profile_suite(refs: int, scale: float, seed: int = 42,
                  top: int = PROFILE_TOP, verbose: bool = True) -> dict:
    """Run each suite config once under cProfile; return the hot spots.

    One extra (instrumented, slower) pass per config after the timed
    suite — never mixed into the throughput numbers.  Per config the
    report carries the ``top`` functions by cumulative time
    (``file:line:function``, call count, tottime, cumtime), so a perf
    PR can cite where the time goes on the exact trajectory configs
    instead of re-deriving the breakdown by hand.
    """
    import cProfile
    import pstats

    profiles = {}
    for entry in SUITE:
        config = bench_config(entry, refs, scale, seed)
        profiler = cProfile.Profile()
        profiler.enable()
        run_once(config)
        profiler.disable()
        stats = pstats.Stats(profiler)
        ranked = sorted(stats.stats.items(),
                        key=lambda item: item[1][3], reverse=True)
        rows = []
        for (filename, line, name), (_, ncalls, tottime, cumtime,
                                     _) in ranked[:top]:
            rows.append({
                "function": f"{Path(filename).name}:{line}:{name}",
                "ncalls": ncalls,
                "tottime": round(tottime, 4),
                "cumtime": round(cumtime, 4),
            })
        profiles[entry["name"]] = rows
        if verbose and rows:
            hottest = max(rows, key=lambda row: row["tottime"])
            print(f"  profile {entry['name']:<16} hottest "
                  f"{hottest['function']} "
                  f"(tottime {hottest['tottime']}s)")
    return profiles


#: The parallel-sweep benchmark grid: the QUICK workload subset under
#: the paper's baseline and its mechanism, single-core cells.
SWEEP_WORKLOADS = ("bfs", "xs", "rnd")
SWEEP_MECHANISMS = ("radix", "ndpage")


#: Backends measured by the sweep block, primary (baseline-compared)
#: first.
SWEEP_BACKENDS = ("pool", "fileq")


def run_sweep_bench(refs: int, scale: float, jobs: int,
                    seed: int = 42, backend: str = "pool",
                    verbose: bool = True) -> dict:
    """Time one parallel sweep (fresh cache-less run) at ``jobs`` on
    the named execution backend."""
    import tempfile

    configs = expand_grid(workloads=SWEEP_WORKLOADS,
                          mechanisms=SWEEP_MECHANISMS,
                          refs_per_core=refs, scale=scale, seed=seed)
    queue_dir = None
    if backend == "fileq":
        queue_dir = tempfile.TemporaryDirectory(prefix="bench-fileq-")
    try:
        service = SweepService(
            backend=backend, jobs=max(1, jobs),
            queue_dir=queue_dir.name if queue_dir else None)
        start = time.perf_counter()
        results = service.run_grid(configs).results
        wall = time.perf_counter() - start
    finally:
        if queue_dir is not None:
            queue_dir.cleanup()
    references = sum(r.references for r in results)
    refs_per_sec = references / wall if wall > 0 else 0.0
    stats = service.last_stats
    block = {
        "backend": backend,
        "jobs": max(1, jobs),
        "cells": len(configs),
        "references": references,
        "wall_seconds": round(wall, 4),
        "refs_per_sec": round(refs_per_sec, 1),
        # Fault-tolerance counters (supervised sweep): all zero on a
        # healthy box — nonzero values flag that the throughput row
        # includes recovery work (retries/backoff) and is not
        # comparable to a clean baseline.
        "retries": stats.retries,
        "timeouts": stats.timeouts,
        "worker_deaths": stats.worker_deaths,
        "quarantined": stats.failed,
        # Per-sweep telemetry snapshot (queue wait / attempt wall /
        # cache-store summaries) from the sweep's ledger.
        "metrics": stats.metrics,
    }
    if verbose:
        print(f"  sweep/{backend:<6} {references:>9,} refs  "
              f"{wall:7.2f} s  {refs_per_sec:>12,.0f} refs/s  "
              f"({len(configs)} cells, {max(1, jobs)} jobs)")
    return block


def paired_rows(report: dict, baseline: dict):
    """Yield ``(row, base_row, ratio)`` for each suite row, where
    ``ratio`` is its refs/s over its baseline row's; rows the baseline
    lacks, or has no throughput for, are skipped."""
    base_rows = {row["name"]: row for row in baseline.get("results", ())}
    for row in report["results"]:
        base = base_rows.get(row["name"])
        if base is not None and base.get("refs_per_sec"):
            yield row, base, row["refs_per_sec"] / base["refs_per_sec"]


def cycle_mismatches(report: dict, baseline: dict):
    """``(name, baseline cycles, cycles)`` for each suite row whose
    simulated cycles differ from its baseline row's.

    Empty unless both reports simulated the same streams: the same
    ``refs_per_core``, ``scale`` and ``seed``.
    """
    if (report["refs_per_core"] != baseline.get("refs_per_core")
            or report["scale"] != baseline.get("scale")
            or report["seed"] != baseline.get("seed", DEFAULT_SEED)):
        return []
    base_cycles = {row["name"]: row.get("cycles")
                   for row in baseline.get("results", ())}
    return [(row["name"], base_cycles[row["name"]], row["cycles"])
            for row in report["results"]
            if row["name"] in base_cycles
            and base_cycles[row["name"]] != row["cycles"]]


def compare(report: dict, baseline: dict) -> None:
    """Print per-config and aggregate speedups against ``baseline``,
    then every row that simulated different cycles."""
    print("\nSpeedup vs baseline:")
    for row, base, ratio in paired_rows(report, baseline):
        setup = ""
        if base.get("setup_seconds"):
            before, after = base["setup_seconds"], row["setup_seconds"]
            setup = (f"  setup {after / before:5.2f}x "
                     f"({before:.3f} -> {after:.3f} s)")
        print(f"  {row['name']:<12} {ratio:5.2f}x "
              f"({base['refs_per_sec']:,.0f} -> "
              f"{row['refs_per_sec']:,.0f} refs/s){setup}")
    base_agg = baseline.get("aggregate", {}).get("refs_per_sec")
    if base_agg:
        agg = report["aggregate"]["refs_per_sec"] / base_agg
        print(f"  {'aggregate':<12} {agg:5.2f}x")
    base_sweep = baseline.get("sweep", {}).get("refs_per_sec")
    if base_sweep and report.get("sweep"):
        ratio = report["sweep"]["refs_per_sec"] / base_sweep
        print(f"  {'sweep':<12} {ratio:5.2f}x")
    for name, base_cycles, cycles in cycle_mismatches(report, baseline):
        print(f"MISMATCH: row {name} cycles {base_cycles} -> {cycles}")


def aggregate_ratio(report: dict, baseline: dict) -> float | None:
    """Current aggregate refs/s over the baseline's.

    ``None`` when the baseline has no usable aggregate — the gate must
    report a bad baseline file, not a phantom 100% regression.
    """
    base = baseline.get("aggregate", {}).get("refs_per_sec") or 0.0
    if not base:
        return None
    return report["aggregate"]["refs_per_sec"] / base


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the simulator on representative workloads.")
    parser.add_argument("--refs", type=int, default=120_000,
                        help="references per core (default 120000)")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="workload footprint scale (default 0.05)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per config; best wall time is kept")
    parser.add_argument("--label", default="dev",
                        help="label recorded in the JSON report "
                             "(default dev)")
    parser.add_argument("--out", default=str(REPO_ROOT / "bench.json"),
                        help="output JSON path (default bench.json at "
                             "the repo root, untracked)")
    parser.add_argument("--baseline", default=None,
                        help="previous BENCH_*.json to compare against "
                             "and embed in the report")
    parser.add_argument("--fail-below", type=float, default=None,
                        metavar="RATIO",
                        help="with --baseline: exit 1 if aggregate "
                             "or any row's refs/s < RATIO x baseline, "
                             "or any row's cycles differ from a "
                             "baseline of the same refs, scale and "
                             "seed (CI gate)")
    parser.add_argument("--sweep-jobs", type=int, default=None,
                        help="workers for the parallel sweep bench "
                             "(default: min(4, cpu_count); 0 skips)")
    parser.add_argument("--sweep-backends", nargs="+",
                        default=list(SWEEP_BACKENDS),
                        choices=("serial", "pool", "fileq"),
                        help="backends measured by the sweep block; "
                             "the first is the primary compared "
                             "against baselines")
    parser.add_argument("--profile", action="store_true",
                        help="after the timed suite, run each config "
                             "once under cProfile and embed the top-"
                             f"{PROFILE_TOP} functions by cumulative "
                             "time per config in the JSON report")
    args = parser.parse_args(argv)
    if args.fail_below is not None and not args.baseline:
        parser.error("--fail-below requires --baseline")

    print(f"bench: {len(SUITE)} configs, {args.refs:,} refs/core, "
          f"scale {args.scale}, best of {max(1, args.repeats)}")
    report = run_suite(args.refs, args.scale, args.seed,
                       repeats=args.repeats)
    report["label"] = args.label
    report["repeats"] = max(1, args.repeats)
    agg = report["aggregate"]
    print(f"  {'aggregate':<12} {agg['total_references']:>9,} refs  "
          f"{agg['total_wall_seconds']:7.2f} s  "
          f"{agg['refs_per_sec']:>12,.0f} refs/s")

    sweep_jobs = args.sweep_jobs
    if sweep_jobs is None:
        sweep_jobs = min(4, os.cpu_count() or 1)
    if sweep_jobs > 0:
        blocks = {
            backend: run_sweep_bench(
                max(1, args.refs // 4), args.scale, sweep_jobs,
                args.seed, backend=backend)
            for backend in args.sweep_backends
        }
        # Primary backend keeps the historical top-level shape (what
        # compare()/the CI gate read); every backend lands under
        # "backends" as the new axis.
        primary = args.sweep_backends[0]
        report["sweep"] = dict(blocks[primary])
        report["sweep"]["backends"] = blocks

    if args.profile:
        # Full-length configs, so the hot-spot ranking describes the
        # exact runs the timed rows measured (cProfile slows the pass
        # ~3x; it never touches the throughput numbers above).
        report["profile"] = profile_suite(
            args.refs, args.scale, args.seed)

    failed = False
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        report["baseline"] = baseline
        compare(report, baseline)
        if args.fail_below is not None:
            ratio = aggregate_ratio(report, baseline)
            floor = args.fail_below
            if ratio is None:
                print(f"\nFAIL: baseline {args.baseline} has no "
                      f"aggregate refs/s to gate against")
                failed = True
            elif ratio < floor:
                print(f"\nFAIL: aggregate throughput is {ratio:.2f}x "
                      f"the baseline (floor {floor:.2f}x)")
                failed = True
            # Per row too: one regressed row must not hide inside a
            # healthy aggregate.
            for row, _, row_ratio in paired_rows(report, baseline):
                if row_ratio < floor:
                    print(f"FAIL: row {row['name']} is {row_ratio:.2f}x "
                          f"its baseline row (floor {floor:.2f}x)")
                    failed = True
            # A row that simulated something else is no comparison.
            mismatched = cycle_mismatches(report, baseline)
            if mismatched:
                print(f"FAIL: {len(mismatched)} row(s) simulated "
                      f"different cycles than the baseline")
                failed = True
            if not failed:
                print(f"\nregression gate: aggregate {ratio:.2f}x "
                      f"baseline, every row >= {floor:.2f}x floor — ok")

    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
