"""Columnar engine benchmark: shard throughput against ``run_vector``.

The measurement core lives in :mod:`repro.bench.targets.colpath`; the
preferred entry point is the unified runner (``python -m repro.bench
run --suite ci-gates``).  This script remains as a standalone shim::

    PYTHONPATH=src python benchmarks/bench_colpath.py --quick \\
        --out BENCH_colpath.current.json
    python benchmarks/check_bench.py BENCH_colpath.json \\
        BENCH_colpath.current.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.targets.colpath import run_colpath_bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure columnar shard throughput against the "
                    "offline run_vector roofline over a distinct-PC "
                    "sweep and write a JSON result for the CI "
                    "bench-gate (shim over repro.bench).")
    parser.add_argument("--quick", action="store_true",
                        help="quick mode: 400k events per sweep point "
                             "(the CI gate's configuration)")
    parser.add_argument("--events", type=int, default=None,
                        help="events per sweep point (default: 400k "
                             "quick, 1.6M full)")
    parser.add_argument("--batch-events", type=int, default=8_192)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the result JSON to FILE")
    args = parser.parse_args(argv)
    events = args.events or (400_000 if args.quick else 1_600_000)
    result = run_colpath_bench(events=events,
                               batch_events=args.batch_events,
                               repeats=args.repeats)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    if not result["exact"]:
        print("ERROR: the columnar engine diverged from run_vector",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
