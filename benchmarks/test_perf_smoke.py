"""Performance smoke test: the simulator must stay fast.

Runs a scaled-down version of the ``scripts/bench.py`` suite and
asserts a conservative refs/sec floor, so a future change that
re-introduces per-reference allocation churn (or otherwise destroys the
hot path) fails CI instead of silently rotting the ROADMAP's "as fast
as the hardware allows" goal.

The floor is deliberately ~10x below the throughput measured on the
machine that produced ``BENCH_PR1.json`` (aggregate ~97k refs/s): even
a CI runner several times slower than that box clears it comfortably,
while a regression to the seed implementation (3.4x slower — ~28k
refs/s on the same box, proportionally less on a slow runner) still
trips it there.
"""

import importlib.util
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Conservative aggregate floor (refs simulated per wall-clock second).
MIN_REFS_PER_SEC = 10_000

#: Small enough to finish in seconds even on a slow runner.
SMOKE_REFS = 30_000


def load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "repro_bench", REPO_ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("repro_bench", module)
    spec.loader.exec_module(module)
    return module


def test_perf_smoke(emit):
    bench = load_bench_module()
    start = time.perf_counter()
    report = bench.run_suite(SMOKE_REFS, scale=0.05, verbose=False)
    wall = time.perf_counter() - start
    aggregate = report["aggregate"]["refs_per_sec"]
    emit(f"\nperf smoke: {aggregate:,.0f} refs/s aggregate "
         f"({wall:.1f} s total)")
    for row in report["results"]:
        emit(f"  {row['name']:<12} {row['refs_per_sec']:>12,.0f} refs/s")
    assert aggregate >= MIN_REFS_PER_SEC, (
        f"simulator throughput regressed: {aggregate:,.0f} refs/s "
        f"aggregate is below the {MIN_REFS_PER_SEC:,} floor — the hot "
        f"path has likely re-grown per-reference overhead")


def test_bench_report_shape(tmp_path):
    """The harness writes the documented BENCH_*.json structure."""
    bench = load_bench_module()
    out = tmp_path / "bench.json"
    rc = bench.main(["--refs", "2000", "--scale", str(1 / 64),
                     "--out", str(out), "--label", "smoke",
                     "--sweep-jobs", "1"])
    assert rc == 0
    import json
    report = json.loads(out.read_text())
    assert report["label"] == "smoke"
    assert {"results", "aggregate", "python", "refs_per_core"} \
        <= set(report)
    assert len(report["results"]) == len(bench.SUITE)
    for row in report["results"]:
        assert {"name", "workload", "mechanism", "references",
                "wall_seconds", "setup_seconds", "refs_per_sec",
                "cycles"} <= set(row)
        assert 0 < row["setup_seconds"] <= row["wall_seconds"]
    assert report["aggregate"]["refs_per_sec"] > 0
    sweep = report["sweep"]
    assert {"jobs", "cells", "references", "wall_seconds",
            "refs_per_sec"} <= set(sweep)
    assert sweep["cells"] == (len(bench.SWEEP_WORKLOADS)
                              * len(bench.SWEEP_MECHANISMS))
    assert sweep["refs_per_sec"] > 0


def test_bench_profile_report(tmp_path):
    """--profile embeds per-config cProfile hot spots in the report."""
    bench = load_bench_module()
    out = tmp_path / "bench.json"
    rc = bench.main(["--refs", "1200", "--scale", str(1 / 64),
                     "--out", str(out), "--sweep-jobs", "0",
                     "--profile"])
    assert rc == 0
    import json
    report = json.loads(out.read_text())
    profile = report["profile"]
    assert set(profile) == {entry["name"] for entry in bench.SUITE}
    for rows in profile.values():
        assert 0 < len(rows) <= bench.PROFILE_TOP
        for row in rows:
            assert {"function", "ncalls", "tottime",
                    "cumtime"} <= set(row)
        # Ranked by cumulative time, the documented order.
        cumtimes = [row["cumtime"] for row in rows]
        assert cumtimes == sorted(cumtimes, reverse=True)


def test_bench_regression_gate(tmp_path, capsys):
    """--fail-below trips on a too-fast baseline and passes otherwise;
    one regressed row fails the gate even when the aggregate passes;
    a row that simulated other cycles fails it, but only against a
    baseline of the same refs, scale and seed."""
    import json
    bench = load_bench_module()
    baseline = tmp_path / "baseline.json"
    args = ["--refs", "1000", "--scale", str(1 / 64),
            "--sweep-jobs", "0"]
    assert bench.main(args + ["--out", str(baseline)]) == 0

    ok = bench.main(args + ["--out", str(tmp_path / "ok.json"),
                            "--baseline", str(baseline),
                            "--fail-below", "0.000001"])
    assert ok == 0

    slow = bench.main(args + ["--out", str(tmp_path / "slow.json"),
                              "--baseline", str(baseline),
                              "--fail-below", "1000000"])
    assert slow == 1

    # Aggregate and every row far below this run but one, inflated.
    report = json.loads(baseline.read_text())
    report["aggregate"]["refs_per_sec"] = 1.0
    for row in report["results"]:
        row["refs_per_sec"] = 1.0
    inflated = report["results"][1]
    inflated["refs_per_sec"] = 1e12
    one_row = tmp_path / "one_row.json"
    one_row.write_text(json.dumps(report))
    capsys.readouterr()
    rc = bench.main(args + ["--out", str(tmp_path / "row.json"),
                            "--baseline", str(one_row),
                            "--fail-below", "0.8"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "aggregate throughput" not in out
    failing = [line for line in out.splitlines()
               if line.startswith("FAIL: row")]
    assert len(failing) == 1
    assert inflated["name"] in failing[0]

    # One row's cycles tampered, in a baseline that records no seed
    # (it counts as 42, this run's): the throughput floor passes, the
    # cycles check names that row.
    report = json.loads(baseline.read_text())
    del report["seed"]
    tampered = report["results"][2]
    tampered["cycles"] += 1
    mismatched = tmp_path / "mismatched.json"
    mismatched.write_text(json.dumps(report))
    capsys.readouterr()
    rc = bench.main(args + ["--out", str(tmp_path / "cycles.json"),
                            "--baseline", str(mismatched),
                            "--fail-below", "0.000001"])
    out = capsys.readouterr().out
    assert rc == 1
    flagged = [line for line in out.splitlines()
               if line.startswith("MISMATCH: row")]
    assert flagged == [f"MISMATCH: row {tampered['name']} cycles "
                       f"{tampered['cycles']} -> {tampered['cycles'] - 1}"]

    # The same tamper in a baseline taken at other --refs simulated
    # other streams: no check, no failure.
    report["refs_per_core"] = 2000
    other_refs = tmp_path / "other_refs.json"
    other_refs.write_text(json.dumps(report))
    capsys.readouterr()
    rc = bench.main(args + ["--out", str(tmp_path / "other.json"),
                            "--baseline", str(other_refs),
                            "--fail-below", "0.000001"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "MISMATCH" not in out
