"""Serve-scaling target: single-process vs per-shard worker processes.

The measurement core moved here from ``benchmarks/bench_serve.py``
(which remains as a CLI shim plus the pytest-benchmark harnesses).
The committed claims, each measured within one run so machine speed
cancels out:

* worker processes buy at least a 1.8x ingestion speedup at 4 workers
  over the single-process default (one in-process shard);
* the in-process service with its default config, fed through
  :func:`~repro.serve.client.feed_trace`, keeps at least 0.7 of one
  capture-on :class:`~repro.serve.shard.BankShard`'s rate on the same
  trace and 8,192-event batches (``inprocess_over_shard``, the median
  of interleaved rounds).  A service whose producer sleeps on the
  ``retry_after`` guess while its shard idles measures ~0.33 and fails;
  waking on capacity with one shard measures 0.79-0.83 on a 2-vCPU
  AMD EPYC host, also with the second vCPU saturated.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time

from repro.bench.gates import exact, floor
from repro.bench.registry import (
    Metric,
    eps,
    flag,
    ratio,
    register_benchmark,
)
from repro.core.config import scaled_config

WORKER_COUNTS = (1, 2, 4)
#: Submitted and shard-applied batch size of the in-process ratio.
RATIO_BATCH = 8192


def ingest(trace, n_shards: int, queue_events: int = 65_536,
           workers: int = 0, transport: str = "pipe"):
    """One full replay; timing excludes worker-process startup."""
    from repro.serve.client import feed_trace
    from repro.serve.service import ServiceConfig, SpeculationService

    async def run():
        # spans/detect off: this target tracks raw ingest scaling; the
        # instrumentation tax has its own gated target (obs).
        scfg = ServiceConfig(n_shards=n_shards, queue_events=queue_events,
                             workers=workers, transport=transport,
                             spans=False, detect=False)
        async with SpeculationService(scaled_config(), scfg) as service:
            started = time.perf_counter()
            await feed_trace(service, trace, batch_events=8192)
            await service.drain()
            elapsed = time.perf_counter() - started
            return service.metrics(), service.reading(), elapsed

    return asyncio.run(run())


def default_service_eps(trace):
    """One replay through a ``ServiceConfig()`` service (obs, spans and
    the detector on): (events/sec excluding startup, metrics)."""
    from repro.serve.client import feed_trace
    from repro.serve.service import SpeculationService

    async def run():
        async with SpeculationService(scaled_config()) as service:
            started = time.perf_counter()
            await feed_trace(service, trace, batch_events=RATIO_BATCH)
            await service.drain()
            return (len(trace) / (time.perf_counter() - started),
                    service.metrics())

    return asyncio.run(run())


def shard_eps(trace) -> float:
    """One capture-on shard applying ``trace`` in ``RATIO_BATCH``-event
    batches — the service's own kernel with nothing around it."""
    from repro.serve.shard import BankShard

    shard = BankShard(0, scaled_config())
    shard.capture = True
    pcs, taken, instrs = trace.branch_ids, trace.taken, trace.instrs
    started = time.perf_counter()
    for lo in range(0, len(trace), RATIO_BATCH):
        hi = lo + RATIO_BATCH
        shard.apply(pcs[lo:hi], taken[lo:hi], instrs[lo:hi])
    return len(trace) / (time.perf_counter() - started)


def extract(doc: dict) -> dict[str, Metric]:
    metrics: dict[str, Metric] = {
        "single_process_eps": eps(doc["single_process_eps"]),
    }
    multi = doc.get("multi_process_eps", {})
    for workers in sorted(multi, key=int):
        metrics[f"eps_{workers}_workers"] = eps(multi[workers])
    # Recompute the gated ratio from the underlying figures — a
    # doctored document cannot smuggle a regression past the gate by
    # editing the stored speedup alone.
    top = str(doc.get("max_workers", max(map(int, multi), default=0)))
    if top in multi and doc["single_process_eps"]:
        metrics["speedup_at_max_workers"] = ratio(
            multi[top] / doc["single_process_eps"])
    inproc = doc.get("inprocess")
    if inproc and inproc["shard_eps"]:
        metrics["inprocess_over_shard"] = ratio(statistics.median(
            svc / shard for svc, shard in zip(inproc["service_eps"],
                                              inproc["shard_eps"])))
    metrics["exact"] = flag(doc.get("exact", False))
    return metrics


@register_benchmark(
    "serve",
    title="Worker-process ingestion scaling",
    kind="repro.serve.bench",
    suites=("ci-gates", "perf", "all"),
    extract=extract,
    gates=(
        exact(),
        floor("speedup_at_max_workers", 1.8, label="scaling floor",
              param="min_speedup", min_cpus=4),
        # Medians of 7 rounds measured 0.79-0.83 on a 2-vCPU host;
        # the sleeping 4-shard default measured 0.33.
        floor("inprocess_over_shard", 0.7, label="in-process floor"),
    ),
    baseline="BENCH_serve.json",
    params={"events": 400_000},
    smoke_params={"events": 24_000, "worker_counts": (1,), "rounds": 1},
    timeout=900.0,
)
def run_scaling(events: int = 400_000, trace_name: str = "gcc",
                worker_counts=WORKER_COUNTS, transport: str = "pipe",
                rounds: int = 7, verbose: bool = True) -> dict:
    """Measure single-process vs worker-process ingestion throughput.

    Returns the result document the bench-gate compares: absolute
    events/sec per mode, the max-workers speedup, ``rounds``
    interleaved (default service, one shard) rate pairs, and an
    exactness flag (every service run's metrics must equal the offline
    engine's).  Timings exclude worker-process startup; each mode runs
    once after a shared warmup replay (the trace generator is
    deterministic, so exactness holds machine-independently).
    """
    from repro.serve.service import ServiceConfig
    from repro.sim.runner import run_reactive
    from repro.trace.spec2000 import load_trace

    trace = load_trace(trace_name, length=events)
    offline = run_reactive(trace, scaled_config()).metrics
    exact_flag = True

    def measure(workers: int) -> float:
        nonlocal exact_flag
        # In-process mode runs the default shard count.
        shards = workers if workers else ServiceConfig().n_shards
        metrics, _reading, elapsed = ingest(
            trace, n_shards=shards, workers=workers, transport=transport)
        if metrics != offline:
            exact_flag = False
        return len(trace) / elapsed

    ingest(trace, n_shards=1)  # warmup: page in the trace + JIT numpy
    single_eps = measure(0)
    multi = {str(w): measure(w) for w in worker_counts}
    service_rates, shard_rates = [], []
    for _ in range(rounds):
        rate, metrics = default_service_eps(trace)
        exact_flag = exact_flag and metrics == offline
        service_rates.append(rate)
        shard_rates.append(shard_eps(trace))
    top = str(max(worker_counts))
    result = {
        "kind": "repro.serve.bench",
        "schema": 1,
        "trace": {"name": trace_name, "events": len(trace)},
        "machine": {"cpus": os.cpu_count()},
        "transport": transport,
        "single_process_eps": single_eps,
        "multi_process_eps": multi,
        "speedup_at_max_workers": multi[top] / single_eps,
        "max_workers": int(top),
        "inprocess": {"batch_events": RATIO_BATCH,
                      "service_eps": service_rates,
                      "shard_eps": shard_rates},
        "exact": exact_flag,
    }
    if verbose:
        print(f"serve scaling, {trace_name} {len(trace):,} events, "
              f"{os.cpu_count()} cpu(s), transport={transport}")
        print(f"  single-process (1 shard)  {single_eps:>12,.0f} ev/s")
        for w in worker_counts:
            rate = multi[str(w)]
            print(f"  {w} worker process(es)     {rate:>12,.0f} ev/s "
                  f"{rate / single_eps:>6.2f}x")
        ratios = [a / b for a, b in zip(service_rates, shard_rates)]
        print(f"  default service / one shard, {rounds} rounds: median "
              f"{statistics.median(ratios):.2f} "
              f"(range {min(ratios):.2f}-{max(ratios):.2f})")
        print(f"  exact vs offline engine: {exact_flag}")
    return result
