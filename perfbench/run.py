#!/usr/bin/env python3
"""Host-time benchmark of the NDPage simulator, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload bfs-radix --seed 42 \\
        --seconds 20 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` and prints the
end-to-end metrics (medians over passes); ``--trace 1`` prints the
per-layer metrics instead.  Either way every cell of every pass is
checked, and a failed check counts as a failed operation.  A readable
summary goes to stderr; the last two stdout lines are the stamped
record and the result object.  See README.md in this directory for
the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: What the benchmark needs from the checkout besides its own files.
REQUIRED = ("src/repro/__init__.py", "benchmarks/speedup_common.py")

#: Scratch space for result caches inside the checkout, removed when
#: the run ends.
SCRATCH = ".perfbench-scratch"

WORKLOAD_NAMES = ("bfs-radix", "xs-ndpage-2t-2c", "fig12")

#: The golden-stats seed.
DEFAULT_SEED = 42

#: A seed no tuning used: a claimed gain must also hold on it.
HELD_OUT_SEED = 7919


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to repeat passes (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics instead of end-to-end")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} missing under {ROOT}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import suite  # noqa: E402  (needs the simulator on sys.path)

    scratch_root = ROOT / SCRATCH
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        record, result = suite.measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            scratch, HELD_OUT_SEED)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass   # another run still uses it
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
