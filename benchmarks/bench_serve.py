"""Online-service benchmarks: ingestion scaling and overload behavior.

Not a paper artifact — this characterizes the serving layer added on
top of the controller model:

* sustained ingestion throughput at shard counts {1, 2, 4, 8} over the
  gcc trace, with queue high-water marks (run with ``-s`` to see the
  table).  On a single-core host the scaling comes from batching
  density (larger per-branch runs through the vectorized fast path),
  not parallelism — see docs/serving.md for how to read the numbers.
* single-process vs per-shard **worker processes**: the multi-core
  scaling curve.  The measurement core lives in
  :mod:`repro.bench.targets.serve`; the preferred entry point is the
  unified runner (``python -m repro.bench run --suite ci-gates``), and
  this script remains as a standalone shim::

      PYTHONPATH=src python benchmarks/bench_serve.py --quick \\
          --out BENCH_serve.current.json

* a 10x overload burst: producers submit far faster than shards drain,
  and the bounded queues + backpressure must hold the high-water mark
  at the configured cap while every event still lands exactly once.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

import pytest

from repro.bench.targets.serve import ingest as _ingest
from repro.bench.targets.serve import run_scaling
from repro.core.config import scaled_config
from repro.serve.client import feed_trace
from repro.serve.service import ServiceConfig, SpeculationService
from repro.sim.runner import run_reactive
from repro.trace.spec2000 import load_trace

SHARD_COUNTS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def trace(request):
    full = request.config.getoption("--bench-full")
    return load_trace("gcc", length=3_200_000 if full else 800_000)


@pytest.fixture(scope="module")
def offline_metrics(trace):
    return run_reactive(trace, scaled_config()).metrics


def test_ingestion_scaling_across_shards(benchmark, trace, offline_metrics):
    def sweep():
        return {n: _ingest(trace, n) for n in SHARD_COUNTS}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1,
                                 warmup_rounds=0)
    print()
    print(f"    serve ingestion, gcc {len(trace):,} events (1 core)")
    print("    shards   events/sec     vs 1 shard   queue high water")
    base = None
    for n in SHARD_COUNTS:
        metrics, reading, elapsed = results[n]
        assert metrics == offline_metrics  # exactness at every width
        rate = len(trace) / elapsed
        base = base or rate
        print(f"    {n:>6} {rate:>12,.0f} {rate / base:>12.2f}x"
              f" {max(reading.queue_high_water):>18,}")
    for n in SHARD_COUNTS:
        _, reading, _ = results[n]
        assert max(reading.queue_high_water) <= 65_536


def test_overload_burst_stays_bounded(benchmark, trace, offline_metrics):
    """10x overload: queues cap at queue_events, nothing is lost."""
    queue_events = 16_384

    def burst():
        async def run():
            scfg = ServiceConfig(n_shards=4, queue_events=queue_events,
                                 max_batch_events=2048)
            async with SpeculationService(scaled_config(), scfg) as service:
                # Probe the drain rate on a prefix, then replay the
                # rest paced at 10x that rate; backpressure (not
                # memory) has to absorb the difference.
                # Whole batches only, so the paced replay resumes on
                # the exact seq boundary the probe stopped at.
                probe_events = (min(len(trace) // 4, 200_000)
                                // 4096) * 4096
                started = time.perf_counter()
                await feed_trace(service, trace, batch_events=4096,
                                 max_events=probe_events)
                await service.drain()
                drain_rate = probe_events / (time.perf_counter() - started)
                stats = await feed_trace(service, trace, batch_events=4096,
                                         rate=10 * drain_rate)
                await service.drain()
                return service.metrics(), service.reading(), stats

        return asyncio.run(run())

    metrics, reading, stats = benchmark.pedantic(burst, rounds=1,
                                                 iterations=1,
                                                 warmup_rounds=0)
    assert metrics == offline_metrics
    assert max(reading.queue_high_water) <= queue_events
    print()
    print(f"    overload burst: 10x drain rate, queue cap {queue_events:,}")
    print(f"    peak queue depth {max(reading.queue_high_water):,} events, "
          f"{stats.rejections:,} rejections, "
          f"{stats.retry_wait:.2f}s backpressure wait")


def test_multiprocess_scaling(benchmark, trace, offline_metrics):
    """Single-process vs per-shard worker processes (2 workers here to
    keep the suite quick; the standalone --quick mode sweeps {1,2,4}).
    Exactness is asserted at every point — scaling must be free."""
    def sweep():
        return {
            0: _ingest(trace, n_shards=4),
            2: _ingest(trace, n_shards=2, workers=2),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1,
                                 warmup_rounds=0)
    print()
    print(f"    serve ingestion, gcc {len(trace):,} events, "
          f"{os.cpu_count()} cpu(s)")
    print("    mode                events/sec   vs single-process")
    base = None
    for workers, (metrics, _reading, elapsed) in results.items():
        assert metrics == offline_metrics
        rate = len(trace) / elapsed
        base = base or rate
        label = ("single-process" if workers == 0
                 else f"{workers} workers")
        print(f"    {label:<18} {rate:>12,.0f} {rate / base:>12.2f}x")


def test_snapshot_cost(benchmark, trace, tmp_path):
    """Time one quiesce + checkpoint + restore cycle mid-trace."""
    async def prepare():
        service = SpeculationService(scaled_config(), ServiceConfig())
        async with service:
            await feed_trace(service, trace, batch_events=8192,
                             max_events=len(trace) // 2)
            await service.drain()
            return await service.snapshot(tmp_path / "bench.json.gz")

    snap = asyncio.run(prepare())

    def restore():
        return SpeculationService.restore(snap)

    service = benchmark.pedantic(restore, rounds=3, iterations=1,
                                 warmup_rounds=0)
    assert service.metrics().dynamic_branches == len(trace) // 2
    size_kib = snap.stat().st_size / 1024
    print()
    print(f"    snapshot {size_kib:,.0f} KiB for "
          f"{service.metrics().dynamic_branches:,} events, "
          f"{len(list(service.bank.shards))} shards")


# -- standalone CLI shim over the registered target -------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure repro.serve single- vs multi-process "
                    "ingestion scaling and write a JSON result for the "
                    "CI bench-gate (shim over repro.bench).")
    parser.add_argument("--quick", action="store_true",
                        help="quick mode: 400k events (the CI gate's "
                             "configuration)")
    parser.add_argument("--events", type=int, default=None,
                        help="trace length (default: 400k quick, 3.2M full)")
    parser.add_argument("--trace", default="gcc")
    parser.add_argument("--transport", choices=("pipe", "socket"),
                        default="pipe")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the result JSON to FILE")
    args = parser.parse_args(argv)
    events = args.events or (400_000 if args.quick else 3_200_000)
    result = run_scaling(events=events, trace_name=args.trace,
                         transport=args.transport)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    if not result["exact"]:
        print("ERROR: a mode diverged from the offline engine",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
