"""Benchmark of the circledepth CLI on four seeded workloads.

    python3 perfbench/run.py --workload analyze-random --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all [--record LABEL]

With ``--trace 0`` the benchmark sets the workload's point file up from the
seed (at least three times, reporting the median set-up time), then runs
the real CLI, one child process at a time, for ``--seconds``.  Each
repetition runs the job's steps in order, a short step several times:
``generate`` where the workload has one, ``analyze`` with ``--jobs 1`` and
``--jobs 2``, and ``verify`` where the workload has one.  Every output is
checked.  Times are medians adjusted for host speed (see bench.HostClock;
the unadjusted medians are printed beside them), and ``job_s`` is the sum
of the steps' medians.  With ``--trace 1`` it runs the same job once in
process with the package's functions wrapped in spans (see spans.py) and
reports the per-layer metrics.  ``--workload all`` runs every workload both
ways, prints every metric with its unit and sample count, and with
``--record`` appends the figures to perfbench/trajectory.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output was correct; it is 2 when the package source is
missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFAULT_SEED = 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", metavar="LABEL", help="with 'all': append to trajectory.json")
    args = parser.parse_args(argv)
    if args.record and args.workload != "all":
        parser.error("--record needs --workload all")
    if not (SRC / "circledepth" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    from inputs import WORKLOADS

    if args.workload != "all":
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
        res = bench.run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        print("\n".join(res.lines()))
        print(json.dumps(res.summary()))
        return 0 if res.correct else 1
    results = []
    for workload in WORKLOADS.values():
        for traced in (False, True):
            res = bench.run_workload(workload, args.seed, args.seconds, traced)
            print("\n".join(res.lines()), flush=True)
            results.append(res)
    if args.record:
        bench.record(args.record, args.seed, args.seconds, results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
