"""Command-line interface: run simulations and paper experiments.

Examples::

    python -m repro run --workload rnd --mechanism ndpage --cores 4
    python -m repro compare --workload bfs --cores 8
    python -m repro figure fig12 --refs 4000
    python -m repro workloads

Sweeps fan independent cells out over a pluggable execution backend
(``--backend serial|pool|fileq``) and memoize finished cells on disk,
so figures parallelize and resume::

    # Fig. 12 on 4 workers, cached — re-running after an interrupt
    # (or with one new mechanism) simulates only the missing cells.
    python -m repro figure fig12 --jobs 4 --cache-dir .sweep-cache

    # Ad-hoc grid: workloads x mechanisms x systems x core counts.
    python -m repro sweep --workloads bfs xs rnd \\
        --mechanisms radix ndpage --cores 1 4 --jobs 4 \\
        --cache-dir .sweep-cache

    # Multi-host: a shared queue directory plus standalone workers
    # (any machine that can see the directory can contribute).
    python -m repro worker --queue .sweep-queue &
    python -m repro figure fig12 --backend fileq --jobs 0 \\
        --queue-dir .sweep-queue --cache-dir .sweep-cache

Observability: every sweep command takes ``--events-out PATH``
(structured JSONL telemetry) and ``--progress`` (live status line);
``repro trace`` turns an event log into a Chrome trace, ``repro
status`` inspects a fileq queue directory, and ``repro cache
verify|gc`` audits the result cache.

Resilience: SIGTERM/SIGINT drain sweeps and workers gracefully
(in-flight work is requeued and the exit is clean); ``--resume``
continues a killed sweep from its journal (the sweep's own event log)
with retry budgets intact; ``repro queue repair`` fscks a queue
directory after unclean deaths.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from pathlib import Path

from repro.analysis import experiments
from repro.analysis.cache import ResultCache
from repro.analysis.tables import format_mapping_table, format_table
from repro.core.mechanisms import MECHANISMS, PAPER_MECHANISMS
from repro.service import (
    BACKEND_NAMES,
    SweepFailure,
    SweepInterrupted,
    SweepPolicy,
    SweepService,
)
from repro.sim.config import (
    PLACEMENT_POLICIES,
    NumaParams,
    SchedulerParams,
    cpu_config,
    ndp_config,
)
from repro.sim.runner import run_mechanisms, run_once
from repro.sim.sweep import expand_grid
from repro.workloads.registry import ALL_WORKLOADS, workload_table

FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig10",
           "fig12", "fig13", "fig14", "interference", "numa")


def _numa_from(args) -> NumaParams:
    """NUMA axis from --nodes/--placement.  NumaParams itself
    normalizes the single-node case back to the flat default, so
    `--nodes 1 --placement interleave` cannot perturb cache keys."""
    return NumaParams(nodes=args.nodes, placement=args.placement)


def _config_from(args):
    factory = ndp_config if args.system == "ndp" else cpu_config
    scheduler = SchedulerParams(quantum_refs=args.quantum)
    return factory(workload=args.workload, mechanism=args.mechanism,
                   num_cores=args.cores, refs_per_core=args.refs,
                   seed=args.seed, tenants=args.tenants,
                   scheduler=scheduler, numa=_numa_from(args))


def _add_common(parser):
    parser.add_argument("--workload", default="rnd",
                        choices=ALL_WORKLOADS)
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--refs", type=int, default=5000,
                        help="memory references per core")
    parser.add_argument("--system", default="ndp",
                        choices=("ndp", "cpu"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tenants", type=int, default=1,
                        help="co-running processes time-sliced onto "
                             "the cores (default 1: single address "
                             "space)")
    parser.add_argument("--quantum", type=int,
                        default=SchedulerParams().quantum_refs,
                        help="scheduler time slice in references")
    _add_numa_opts(parser)


def _add_numa_opts(parser):
    parser.add_argument("--nodes", type=int, default=1,
                        help="NUMA nodes (default 1: flat machine)")
    parser.add_argument("--placement", default="local",
                        choices=PLACEMENT_POLICIES,
                        help="NUMA placement policy (with --nodes > 1)")


def _add_sweep_opts(parser):
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep "
                             "(default 1: serial in-process; with "
                             "--backend fileq, local workers — 0 "
                             "relies on external `repro worker`s)")
    parser.add_argument("--backend", default="auto",
                        choices=BACKEND_NAMES,
                        help="sweep execution backend (default auto: "
                             "serial for --jobs 1, pool otherwise)")
    parser.add_argument("--queue-dir", default=None, metavar="DIR",
                        help="shared coordination directory for "
                             "--backend fileq")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the on-disk result cache; "
                             "makes the sweep resumable")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the journal a previous "
                             "(killed or drained) run of this exact "
                             "sweep left beside the cache (its event "
                             "log, <cache-dir>/journal/*.journal.jsonl): "
                             "completed cells come from the cache, "
                             "attempt counts / backoff clocks / "
                             "quarantine decisions from the journal's "
                             "cell events (requires --cache-dir)")
    parser.add_argument("--retries", type=int, default=1,
                        help="re-dispatches granted to a failing cell "
                             "before quarantine (default 1)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill and retry a cell running longer "
                             "than this (jobs > 1; default: no limit)")
    parser.add_argument("--keep-going", action="store_true",
                        help="complete every healthy cell when some "
                             "are quarantined, rendering them as "
                             "holes, instead of failing the command")
    parser.add_argument("--strict", action="store_true",
                        help="with --keep-going: still exit non-zero "
                             "when any cell was quarantined")
    parser.add_argument("--manifest-out", default=None, metavar="PATH",
                        help="write the failure manifest (plus retry/"
                             "timeout counters) as JSON to PATH")
    parser.add_argument("--events-out", default=None, metavar="PATH",
                        help="append structured telemetry events as "
                             "JSONL to PATH (replayable with "
                             "`repro trace`)")
    parser.add_argument("--progress", action="store_true",
                        help="stream a live progress line to stderr "
                             "while the sweep executes")


def _service_from(args) -> SweepService:
    if getattr(args, "resume", False) and args.cache_dir is None:
        raise SystemExit(
            "repro: --resume requires --cache-dir (the journal lives "
            "beside the cache, and completed cells come from it)")
    cache = (ResultCache(args.cache_dir)
             if args.cache_dir is not None else None)
    policy = SweepPolicy(retries=args.retries,
                         cell_timeout=args.cell_timeout,
                         strict=not args.keep_going)
    return SweepService(backend=args.backend, jobs=args.jobs,
                        cache=cache, cache_dir=args.cache_dir,
                        policy=policy,
                        queue_dir=args.queue_dir,
                        events_out=args.events_out,
                        progress=args.progress,
                        resume=getattr(args, "resume", False))


def _finish_sweep(args, service) -> int:
    """Shared sweep epilogue: print stats, report/persist failures.

    Under ``--keep-going`` the command completes with holes and exits
    zero — non-zero only when ``--strict`` is also given.  (Without
    ``--keep-going`` a quarantined cell raises SweepFailure out of the
    service and the command exits 1; this helper still records the
    manifest on that path.)
    """
    stats = service.last_stats
    if stats.cells:
        print(f"sweep: {stats.summary()}")
    manifest = stats.manifest
    if args.manifest_out:
        payload = manifest.to_dict()
        payload.update(retries=stats.retries, timeouts=stats.timeouts,
                       worker_deaths=stats.worker_deaths)
        Path(args.manifest_out).write_text(
            json.dumps(payload, indent=2) + "\n")
    if manifest:
        print(manifest.format())
        return 1 if args.strict else 0
    return 0


def cmd_run(args) -> int:
    result = run_once(_config_from(args))
    rows = [[key, value] for key, value in result.summary().items()]
    rows += [
        ["fault_cycles", result.fault_cycles],
        ["pte_mem_accesses", result.pte_memory_accesses],
        ["dram_row_hit", result.dram_row_hit_rate],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.workload} / {args.mechanism} / "
                             f"{args.cores}-core {args.system}"))
    return 0


def cmd_compare(args) -> int:
    mechanisms = args.mechanisms or list(PAPER_MECHANISMS)
    results = run_mechanisms(_config_from(args), mechanisms)
    baseline = results["radix"]
    rows = [
        [name, r.cycles, r.speedup_over(baseline),
         r.ptw_latency_mean, r.translation_fraction]
        for name, r in results.items()
    ]
    print(format_table(
        ["mechanism", "cycles", "speedup", "PTW (cy)", "transl. share"],
        rows, title=f"{args.workload}, {args.cores}-core {args.system}"))
    return 0


def _report_interrupt(args, exc: SweepInterrupted) -> int:
    """Shared SIGTERM/SIGINT epilogue: the sweep drained cleanly."""
    print(f"\nrepro: {exc}", file=sys.stderr)
    if args.cache_dir is not None:
        print("repro: completed cells are cached; rerun with "
              "--resume to continue with retry budgets intact",
              file=sys.stderr)
    return 130


def cmd_figure(args) -> int:
    service = _service_from(args)
    try:
        _render_figure(args, service)
    except SweepInterrupted as exc:
        return _report_interrupt(args, exc)
    except SweepFailure:
        # Strict (no --keep-going): every healthy cell completed and
        # was cached, but the figure is withheld — all-or-nothing.
        _finish_sweep(args, service)
        return 1
    return _finish_sweep(args, service)


def _render_figure(args, service) -> None:
    runner = service   # the drivers' runner= seam accepts a service
    refs = args.refs
    if args.figure == "fig4":
        table = experiments.ptw_latency_comparison(refs_per_core=refs,
                                                   runner=runner)
        print(format_mapping_table(table, ["ndp", "cpu", "increase"],
                                   row_label="workload",
                                   title="Fig. 4"))
    elif args.figure == "fig5":
        table = experiments.translation_overhead_comparison(
            refs_per_core=refs, runner=runner)
        print(format_mapping_table(table, ["ndp", "cpu"],
                                   row_label="workload",
                                   title="Fig. 5"))
    elif args.figure == "fig6":
        out = experiments.core_scaling(refs_per_core=refs,
                                       runner=runner)
        rows = [
            [cores, out["ndp"][cores]["ptw_latency"],
             out["cpu"][cores]["ptw_latency"],
             out["ndp"][cores]["overhead"],
             out["cpu"][cores]["overhead"]]
            for cores in sorted(out["ndp"])
        ]
        print(format_table(
            ["cores", "NDP PTW", "CPU PTW", "NDP ovh", "CPU ovh"],
            rows, title="Fig. 6"))
    elif args.figure == "fig7":
        table = experiments.l1_miss_breakdown(refs_per_core=refs,
                                              runner=runner)
        rows = [
            [wl, r.data_ideal, r.data_actual, r.metadata]
            for wl, r in table.items()
        ]
        print(format_table(
            ["workload", "data(ideal)", "data(actual)", "metadata"],
            rows, title="Fig. 7"))
    elif args.figure == "fig8":
        if args.jobs != 1 or args.cache_dir is not None:
            print("note: fig8 is computed analytically; "
                  "--jobs/--cache-dir have no effect")
        table = experiments.occupancy_study()
        print(format_mapping_table(
            table, ["PL1", "PL2", "PL3", "PL4", "PL2/1"],
            row_label="workload", title="Fig. 8"))
    elif args.figure == "fig10":
        rates = experiments.pwc_hit_rates(refs_per_core=refs,
                                          runner=runner)
        print(format_table(["level", "hit rate"],
                           sorted(rates.items()), title="Fig. 10"))
    elif args.figure == "interference":
        table = experiments.tenant_interference(refs_per_core=refs,
                                                runner=runner)
        columns = sorted(next(iter(table.values())),
                         key=lambda c: (int(c.split("t")[0]), c))
        print(format_mapping_table(
            table, columns, row_label="mechanism",
            title="Multi-tenant interference (cycles/ref, degradation "
                  "vs fewest tenants, shootdowns)"))
    elif args.figure == "numa":
        table = experiments.numa_placement(refs_per_core=refs,
                                           runner=runner)
        columns = sorted(next(iter(table.values())),
                         key=lambda c: (int(c.split("n")[0]), c))
        print(format_mapping_table(
            table, columns, row_label="mechanism/placement",
            title="NUMA placement (cycles/ref, degradation vs fewest "
                  "nodes, remote DRAM fraction)"))
    else:  # fig12 / fig13 / fig14
        cores = {"fig12": 1, "fig13": 4, "fig14": 8}[args.figure]
        table, averages, _ = experiments.speedup_experiment(
            cores, refs_per_core=refs, runner=runner)
        table["AVG"] = averages
        print(format_mapping_table(
            table, list(PAPER_MECHANISMS), row_label="workload",
            title=f"{args.figure} ({cores}-core speedups over Radix)"))


def cmd_sweep(args) -> int:
    configs = expand_grid(
        workloads=args.workloads, mechanisms=args.mechanisms,
        systems=args.systems, core_counts=args.cores,
        refs_per_core=args.refs, scale=args.scale, seed=args.seed,
        tenants=args.tenants,
        scheduler=SchedulerParams(quantum_refs=args.quantum),
        numa=_numa_from(args))
    service = _service_from(args)
    try:
        results = service.run_grid(configs).results
    except SweepInterrupted as exc:
        return _report_interrupt(args, exc)
    except SweepFailure:
        _finish_sweep(args, service)
        return 1
    rows = [
        [c.workload, c.mechanism, c.system, c.num_cores]
        + ([r.cycles, r.ipc, r.ptw_latency_mean] if r is not None
           else ["-", "-", "-"])          # quarantined: explicit hole
        for c, r in zip(configs, results)
    ]
    print(format_table(
        ["workload", "mechanism", "system", "cores", "cycles", "ipc",
         "PTW (cy)"],
        rows, title=f"sweep ({len(configs)} cells)"))
    return _finish_sweep(args, service)


def cmd_worker(args) -> int:
    """Standalone fileq worker: claim and simulate cells from a shared
    queue directory until idle for --max-idle seconds (or forever).

    SIGTERM/SIGINT drain gracefully: the first signal lets the
    in-flight cell finish, then unfinished claims go back to todo/,
    the heartbeat file and claim dir are removed, and the worker
    exits 0.  A second signal abandons the in-flight cell promptly
    (the claim is still returned and the exit is still clean)."""
    from repro.sim.backends.fileq import worker_loop
    stop = threading.Event()

    def _drain(signum, frame):
        if stop.is_set():
            # Second signal: abandon the in-flight cell.  worker_loop's
            # cleanup still returns the claim and removes the
            # heartbeat on the way out.
            raise SystemExit(0)
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _drain)
    try:
        summary = worker_loop(
            args.queue,
            poll_interval=args.poll_interval,
            heartbeat_interval=args.heartbeat_interval,
            stale_after=args.stale_after,
            max_idle=args.max_idle,
            stop_event=stop,
            events_out=args.events_out,
            log_stream=(None if args.quiet else sys.stderr))
    except SystemExit:
        print("worker drained (in-flight cell abandoned)")
        return 0
    print(f"worker {summary['worker']}: "
          f"{summary['cells']} cell(s) executed"
          + (" (drained)" if stop.is_set() else ""))
    return 0


def cmd_trace(args) -> int:
    """Export the per-cell spans of an event log as Chrome-trace JSON
    (open in chrome://tracing or https://ui.perfetto.dev)."""
    from repro.obs.trace import export_trace
    out = args.out or str(Path(args.events).with_suffix(".trace.json"))
    trace = export_trace(args.events, out, cell=args.cell)
    spans = sum(1 for entry in trace["traceEvents"]
                if entry.get("ph") == "X")
    lanes = sum(1 for entry in trace["traceEvents"]
                if entry.get("ph") == "M")
    print(f"trace: {lanes} cell(s), {spans} span(s) -> {out}")
    return 0


def cmd_status(args) -> int:
    """Read-only introspection of a fileq queue directory: todo depth,
    per-worker heartbeat age and claim count, stale-claim flags.
    Never moves or deletes anything — a running sweep's reclaim logic
    owns that."""
    from repro.sim.backends.fileq import QueueLayout
    layout = QueueLayout(args.queue)
    if not layout.root.is_dir():
        print(f"no queue directory at {layout.root}")
        return 1
    now = time.time()
    todo = (sorted(layout.todo.glob("*.json"))
            if layout.todo.is_dir() else [])
    pending = (sum(1 for _ in layout.results.glob("*.json"))
               if layout.results.is_dir() else 0)
    workers = set()
    if layout.workers.is_dir():
        workers.update(p.stem for p in layout.workers.glob("*.hb"))
    if layout.claims.is_dir():
        workers.update(p.name for p in layout.claims.iterdir()
                       if p.is_dir())
    rows, stale_claims = [], 0
    for worker_id in sorted(workers):
        try:
            age = now - layout.heartbeat(worker_id).stat().st_mtime
        except OSError:
            age = None
        claims_dir = layout.claims / worker_id
        claims = (sum(1 for _ in claims_dir.glob("*.json"))
                  if claims_dir.is_dir() else 0)
        live = age is not None and age < args.stale_after
        if not live:
            stale_claims += claims
        rows.append([worker_id,
                     f"{age:.1f}s" if age is not None else "-",
                     claims, "live" if live else "STALE"])
    print(f"queue {layout.root}: {len(todo)} todo item(s), "
          f"{pending} result(s) awaiting the supervisor")
    if rows:
        print(format_table(
            ["worker", "heartbeat", "claims", "state"], rows,
            title=f"workers ({len(rows)})"))
    else:
        print("no workers have registered")
    if stale_claims:
        print(f"warning: {stale_claims} claim(s) held by stale "
              f"workers — a running sweep (or an idle worker) will "
              f"reclaim them")
    return 0


def cmd_queue(args) -> int:
    """Queue-directory maintenance.  ``repair`` is the offline fsck:
    it removes orphaned tmp files, returns dead workers' claims to
    todo/, deletes ghost claim dirs and stale heartbeat files, and
    drops duplicate todo items (keeping the highest attempt).  Live
    workers (fresh heartbeats) are never touched.  After a clean
    drain the report is all zeros."""
    from repro.sim.backends.fileq import repair_queue
    report = repair_queue(args.queue, stale_after=args.stale_after,
                          apply=not args.dry_run)
    verb = "found" if args.dry_run else "repaired"
    total = sum(report.values())
    for kind, count in sorted(report.items()):
        if count:
            print(f"  {kind.replace('_', ' ')}: {count}")
    print(f"queue {args.queue}: {total} issue(s) {verb}")
    return 0


def cmd_cache(args) -> int:
    """Audit (`verify`) or clean (`gc`) an on-disk result cache."""
    cache = ResultCache(args.cache_dir)
    if args.action == "verify":
        report = cache.verify()
        print(f"cache {cache.root}: {report.summary()}")
        return 0
    removed = cache.gc()
    total = sum(removed.values())
    detail = ", ".join(f"{count} {kind}"
                       for kind, count in sorted(removed.items()))
    print(f"cache {cache.root}: removed {total} file(s) ({detail})")
    return 0


def cmd_diag(args) -> int:
    """Per-mechanism PTW/queue diagnostics on a few workloads:
    speedup, PTW latency, DRAM queueing, PTE traffic per workload x
    mechanism."""
    for workload in args.workloads:
        base = None
        for mechanism in args.mechanisms:
            result = run_once(ndp_config(
                workload=workload, mechanism=mechanism,
                num_cores=args.cores, refs_per_core=args.refs))
            if base is None:
                base = result
            dram = sum(result.dram_accesses_by_kind.values())
            meta = result.dram_accesses_by_kind.get("metadata", 0)
            cyc_per_ref = (result.cycles * args.cores
                           / max(1, result.references))
            print(f"{workload:4s} {mechanism:9s} "
                  f"sp={base.cycles / result.cycles:5.2f} "
                  f"ptw={result.ptw_latency_mean:6.1f} "
                  f"qd={result.dram_queue_delay_mean:6.1f} "
                  f"pte_acc={result.pte_memory_accesses:6d} "
                  f"dram={dram:7d} meta_dram={meta:6d} "
                  f"cyc/ref={cyc_per_ref:6.1f} "
                  f"tf={result.translation_fraction:.2f}")
        print()
    return 0


def cmd_workloads(_args) -> int:
    rows = [
        [row["suite"], row["name"], row["dataset_gb"],
         row["gap_cycles"]]
        for row in workload_table(scale=1.0)
    ]
    print(format_table(["suite", "workload", "dataset (GB)", "gap cy"],
                       rows, title="Table II workloads"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NDPage (DATE 2025) reproduction simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation")
    _add_common(run_p)
    run_p.add_argument("--mechanism", default="radix",
                       choices=sorted(MECHANISMS))
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare",
                           help="compare translation mechanisms")
    _add_common(cmp_p)
    cmp_p.add_argument("--mechanisms", nargs="*",
                       choices=sorted(MECHANISMS), default=None)
    cmp_p.set_defaults(func=cmd_compare, mechanism="radix")

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("figure", choices=FIGURES)
    fig_p.add_argument("--refs", type=int, default=3000)
    _add_sweep_opts(fig_p)
    fig_p.set_defaults(func=cmd_figure)

    sweep_p = sub.add_parser(
        "sweep", help="run a config grid through the sweep runner")
    sweep_p.add_argument("--workloads", nargs="+",
                         choices=ALL_WORKLOADS,
                         default=["bfs", "xs", "rnd"])
    sweep_p.add_argument("--mechanisms", nargs="+",
                         choices=sorted(MECHANISMS),
                         default=list(PAPER_MECHANISMS))
    sweep_p.add_argument("--systems", nargs="+",
                         choices=("ndp", "cpu"), default=["ndp"])
    sweep_p.add_argument("--cores", type=int, nargs="+", default=[4])
    sweep_p.add_argument("--refs", type=int, default=5000,
                         help="memory references per core")
    sweep_p.add_argument("--scale", type=float, default=1.0)
    sweep_p.add_argument("--seed", type=int, default=42)
    sweep_p.add_argument("--tenants", type=int, default=1,
                         help="co-running processes per cell")
    sweep_p.add_argument("--quantum", type=int,
                         default=SchedulerParams().quantum_refs,
                         help="scheduler time slice in references")
    _add_numa_opts(sweep_p)
    _add_sweep_opts(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    worker_p = sub.add_parser(
        "worker", help="run a standalone fileq sweep worker")
    worker_p.add_argument("--queue", required=True, metavar="DIR",
                          help="shared queue directory (the sweep's "
                               "--queue-dir)")
    worker_p.add_argument("--max-idle", type=float, default=None,
                          metavar="SECONDS",
                          help="exit after this long with no work "
                               "(default: run until killed)")
    worker_p.add_argument("--poll-interval", type=float, default=0.05,
                          metavar="SECONDS",
                          help="queue scan period while idle")
    worker_p.add_argument("--heartbeat-interval", type=float,
                          default=1.0, metavar="SECONDS",
                          help="liveness heartbeat period")
    worker_p.add_argument("--stale-after", type=float, default=5.0,
                          metavar="SECONDS",
                          help="heartbeat age after which another "
                               "worker's claims are stolen")
    worker_p.add_argument("--events-out", default=None, metavar="PATH",
                          help="append this worker's telemetry events "
                               "as JSONL to PATH")
    worker_p.add_argument("--quiet", action="store_true",
                          help="suppress the timestamped per-cell log "
                               "lines on stderr")
    worker_p.set_defaults(func=cmd_worker)

    trace_p = sub.add_parser(
        "trace", help="export a Chrome trace from a sweep event log")
    trace_p.add_argument("events", metavar="EVENTS",
                         help="JSONL event log written via "
                              "--events-out")
    trace_p.add_argument("--out", default=None, metavar="PATH",
                         help="output path (default: EVENTS with a "
                              ".trace.json suffix)")
    trace_p.add_argument("--cell", default=None, metavar="SUBSTR",
                         help="keep only cells whose label or key "
                              "contains SUBSTR")
    trace_p.set_defaults(func=cmd_trace)

    status_p = sub.add_parser(
        "status",
        help="inspect a fileq queue directory (read-only)")
    status_p.add_argument("--queue", required=True, metavar="DIR",
                          help="the sweep's --queue-dir")
    status_p.add_argument("--stale-after", type=float, default=5.0,
                          metavar="SECONDS",
                          help="heartbeat age that flags a worker as "
                               "stale")
    status_p.set_defaults(func=cmd_status)

    queue_p = sub.add_parser(
        "queue", help="maintain a fileq queue directory")
    queue_p.add_argument("action", choices=("repair",),
                         help="repair: fsck the queue — remove tmp "
                              "orphans, requeue dead workers' "
                              "claims, drop ghost claim dirs / stale "
                              "heartbeats / duplicate todo items")
    queue_p.add_argument("--queue", required=True, metavar="DIR",
                         help="the sweep's --queue-dir")
    queue_p.add_argument("--stale-after", type=float, default=5.0,
                         metavar="SECONDS",
                         help="heartbeat age beyond which a worker "
                              "counts as dead (its claims are "
                              "requeued)")
    queue_p.add_argument("--dry-run", action="store_true",
                         help="report what would be repaired without "
                              "touching anything")
    queue_p.set_defaults(func=cmd_queue)

    cache_p = sub.add_parser(
        "cache", help="audit or clean an on-disk result cache")
    cache_p.add_argument("action", choices=("verify", "gc"),
                         help="verify: checksum every entry, "
                              "quarantine corrupt ones; gc: remove "
                              "stale/corrupt/quarantined files")
    cache_p.add_argument("--cache-dir", required=True, metavar="DIR",
                         help="the cache directory to audit")
    cache_p.set_defaults(func=cmd_cache)

    diag_p = sub.add_parser(
        "diag", help="per-mechanism PTW/queue diagnostics")
    diag_p.add_argument("--cores", type=int, default=4)
    diag_p.add_argument("--refs", type=int, default=12000,
                        help="memory references per core")
    diag_p.add_argument("--workloads", nargs="+",
                        choices=ALL_WORKLOADS,
                        default=["bfs", "pr", "xs", "rnd"])
    diag_p.add_argument("--mechanisms", nargs="+",
                        choices=sorted(MECHANISMS),
                        default=["radix", "ech", "hugepage", "ndpage",
                                 "ideal"])
    diag_p.set_defaults(func=cmd_diag)

    wl_p = sub.add_parser("workloads", help="list Table II workloads")
    wl_p.set_defaults(func=cmd_workloads)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
