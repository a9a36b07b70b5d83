"""qspir benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-n800 --seed 1 \
        --seconds 25 --trace 0

With ``--trace 0`` it prints every end-to-end metric, with ``--trace 1``
every per-layer metric (see ``README.md``). Human-readable lines come first;
the last line of standard output is the JSON result. The exit code is 0
only when every output passed the correctness gate.
"""

from __future__ import annotations

import time

# Taken before any other import: setup_s counts from process start.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("paper-n800", "large-n125k", "deploy-tcp-n800", "distill")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qspir" / "__init__.py").is_file():
        print(f"error: no qspir sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the whole run, daemons included (they inherit it): the
    # closed loop never runs two parties at once, and CPUs of a shared host
    # can differ in speed, so migrating between them makes medians bimodal.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import bench

    report = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
        STARTED,
    )
    for problem in report.tally.problems:
        print(f"FAILED: {problem}")
    attempted = max(report.tally.attempted, 1)
    failed = min(report.tally.failed, attempted)
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations,"
          f" failed_fraction {failed / attempted:g}")
    for name, (value, unit, count) in report.metrics.items():
        print(f"{name} {value:.6g} {unit} (samples {count})")
    print(json.dumps({
        "correct": report.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _count) in report.metrics.items()
        },
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
