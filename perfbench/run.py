"""Benchmark entry point.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 15 --trace 0

Runs one workload for ``--seconds`` of measured operation time, checks
its outputs, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--size smoke`` shrinks every input so each workload and every check
runs in seconds (the benchmark's own tests use it).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

if __package__ in (None, ""):
    # run as a script: make the ``perfbench`` package importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from perfbench import common  # noqa: E402

WORKLOADS = ("table2", "serve-zipf", "edit-replay")
#: wall-clock cap on the measured section, well inside the exit budget
HARD_CAP_SECONDS = 90.0


def _module(workload: str):
    if workload == "table2":
        from perfbench import w_table2 as module
    elif workload == "serve-zipf":
        from perfbench import w_serve as module
    else:
        from perfbench import w_edit as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # a SIGTERM unwinds like an exception, so the daemon and the scratch
    # directory are cleaned up by the workloads' ``finally`` blocks
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        common.import_program()
    except ImportError as exc:
        print(f"perfbench: the program is not importable from "
              f"{common.SRC}: {exc}", file=sys.stderr)
        return 2

    from perfbench import layers

    module = _module(args.workload)
    if args.trace:
        log, values, spans, violations = module.traced(args.seed, args.size)
        values.update(layers.overhead_metrics(
            values.get("trace.untraced_s", 0.0),
            values.get("trace.traced_s", 0.0)))
        spans.write(os.path.join(
            common.OUT_ROOT, f"{args.workload}-seed{args.seed}.spans.json"))
        metrics = common.layer_metrics(values, layers.UNITS, layers.NAMES)
    else:
        log, peak_mb, violations = module.run(
            args.seed, args.seconds, args.size, HARD_CAP_SECONDS)
        metrics = common.end_to_end_metrics(log, peak_mb)
    for line in violations:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    if log.failed:
        print(f"perfbench: {log.failed} of {log.attempted} operations "
              f"failed", file=sys.stderr)
    print(common.result_line(not violations, log, metrics), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
