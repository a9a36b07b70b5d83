"""Start the unchanged ``qspir`` command line, optionally traced.

Usage: ``python3 perfbench/launcher.py <spans.json or ""> <qspir args...>``

With a path, the benchmark's layer wrappers are installed before the
command runs and the recorded spans are written to that path when it
returns (``serve-dc`` returns on SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
from qspir import cli  # noqa: E402


def main(argv: list[str]) -> int:
    trace_out, args = argv[0], argv[1:]
    if not trace_out:
        return cli.main(args)
    tracer = spans.Tracer()
    spans.install(tracer, spans.Patches())
    try:
        return cli.main(args)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
