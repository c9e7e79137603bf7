"""CI bench-gate shim: compare a fresh bench run against its baseline.

This used to hold five near-duplicate per-kind gate arms; it is now a
thin compatibility wrapper over the declarative gate engine in
:mod:`repro.bench` (same CLI flags, same exit codes), so existing docs
and runbooks keep working.  Both arguments may be old-format per-kind
documents (``repro.serve.bench`` & co) or unified
``repro.bench.results`` documents — the schema loader accepts either.

The gates themselves are declared next to each benchmark in
``src/repro/bench/targets/``:

* ``serve``   — >= 1.8x worker scaling within the current run
  (skipped, or failed with ``--strict``, below ``--min-cpus``),
* ``wal``     — <= 15% fsync=batch overhead within the current run,
* ``obs``     — <= 10% instrumentation overhead within the current run,
* ``colpath`` — columnar/``run_vector`` ratios within the current run:
  >= 0.5 at the wide point, >= 2.7 at the narrow point, and >= 0.27,
  0.67 and 0.75 on the adversarial wave (baseline, stride-8 monitor,
  eviction by sampling),
* ``repl``    — <= 15% primary-side overhead within the current run,

plus, for every benchmark: exactness (``exact: false`` in either file
fails the gate regardless of the numbers) and a per-metric tolerance
band against the committed baseline.

Usage (unchanged)::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick \
        --out BENCH_serve.current.json
    python benchmarks/check_bench.py BENCH_serve.json \
        BENCH_serve.current.json --min-speedup 1.8

Preferred new entry point (one command for all five gates)::

    PYTHONPATH=src python -m repro.bench run --suite ci-gates \
        --out BENCH.current.json
"""

from __future__ import annotations

import sys
from pathlib import Path

# The historical invocation is `python benchmarks/check_bench.py ...`
# with no PYTHONPATH; keep that working.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.cli import build_parser  # noqa: E402

__all__ = ["main"]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(["gate", *argv])
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
