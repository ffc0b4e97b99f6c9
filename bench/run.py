#!/usr/bin/env python3
"""The flexsic benchmark: closed-loop run_scenario calls on a named workload.

Run from the repository root:

    python3 bench/run.py --workload desk_suite --seed 1 --seconds 10 --trace 0

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs every scenario untraced and traced and prints the
per-layer metrics. Human-readable lines come first, then a line starting
``env`` with the machine and run settings; the last line is one JSON
object with the keys correct, attempted, failed and metrics. Spans of a
traced run are written to bench/out/. The workloads and the order of work
are described in harness.py.

Only the standard library is imported before flexsic, so the timed import
in set-up includes numpy. Set-up and scenario times are scaled to a fixed
machine speed (see speed.py). BLAS threads are capped at the number of CPUs
this process may use. The program is imported from src/ next to this
directory; if it is not there the run exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("desk_suite", "wide_ibfd", "long_run")


def import_flexsic() -> float:
    """Import flexsic from this checkout's src/; returns the seconds it took."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import flexsic.scenario

    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(flexsic.__file__))) != SRC:
        raise ImportError(f"flexsic was imported from {flexsic.__file__}, not from {SRC}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="print one set-up time and exit (used for the set-up repeats)",
    )
    args = parser.parse_args(argv)

    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    try:
        import_s = import_flexsic()
    except ImportError as err:
        print(f"cannot import flexsic: {err}", file=sys.stderr)
        return 2
    import harness

    if args.setup_only:
        print("%r %r" % harness.setup_once(args.workload, args.seed, import_s))
        return 0

    run = harness.trace if args.trace else harness.measure
    metrics, info = run(args.workload, args.seed, args.seconds, import_s)
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'error_rate':42s} {info['error_rate']:14.6g} fraction")
    print("info " + json.dumps(info, sort_keys=True))
    print("env " + json.dumps(harness.environment(args.workload, args.seed, args.seconds, args.trace)))
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
