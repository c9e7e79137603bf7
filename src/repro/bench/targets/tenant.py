"""Tenant-scaling target: 1 → 1M tenant universes at a fixed budget.

The committed claim behind the gate: memory is bounded by the
*resident-set budget*, not by tenant count.  The sweep replays the
same fixed event budget as 1 tenant (the no-tenant-overhead point),
a zipf-skewed mid-size population, and a 1M-tenant uniform spray —
the last one touches hundreds of thousands of distinct tenants, far
more than the budget can hold resident, so the run only survives at
bounded RSS if cold-tenant spill/restore and the bounded per-tenant
accounting actually work.  Three invariants are gated (spill observed,
budget honored, RSS growth bounded) plus the usual baseline tolerance
band on every per-population throughput figure.
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.bench.gates import floor
from repro.bench.registry import (
    Metric,
    eps,
    flag,
    ratio,
    register_benchmark,
)
from repro.core.config import scaled_config

#: (population, traffic mix) points of the full sweep.
SWEEP = ((1, "uniform"), (1024, "zipf"), (1_000_000, "uniform"))

#: Resident-set budget for every point: big enough that a zipf head
#: stays resident, far below the multi-tenant working sets (hundreds
#: of MB estimated), so spill pressure is guaranteed.
BUDGET_BYTES = 32 * 1024 * 1024

_BYTES_PER_BRANCH = 512


def _rss_kb() -> int:
    """Process peak RSS in KiB (ru_maxrss is KiB on Linux)."""
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _ingest(trace, n_shards: int, budget_bytes: int, batch_events: int):
    """One full replay through a budgeted service; returns
    (events/sec, tenant stats)."""
    from repro.serve.client import feed_trace
    from repro.serve.service import ServiceConfig, SpeculationService

    async def run():
        scfg = ServiceConfig(
            n_shards=n_shards,
            queue_events=65_536,
            tenant_resident_bytes=budget_bytes,
            tenant_bytes_per_branch=_BYTES_PER_BRANCH,
            obs=False,
        )
        async with SpeculationService(scaled_config(), scfg) as service:
            started = time.perf_counter()
            await feed_trace(service, trace, batch_events=batch_events)
            await service.drain()
            elapsed = time.perf_counter() - started
            return len(trace) / elapsed, service.tenant_stats()

    return asyncio.run(run())


def budget_slack(budget_bytes: int, batch_events: int) -> int:
    """Allowed transient overshoot of the resident budget.

    Victims are picked *after* a batch commits, so the footprint can
    exceed the budget by what one batch interns before the check: its
    own distinct keys (at most ``batch_events``) plus every spilled
    tenant it touched, which comes back with its *full* branch set.
    Under a uniform spray tenants are a few branches each, so eight
    batches' worth of branch estimates covers both with margin;
    beyond that the eviction loop is not keeping up.  (Under a skewed
    mix a single batch can legitimately recall a large slice of the
    hot set at once, so this transient bound is only gated on the
    uniform-spray point — the steady-state bound, resident set back
    under budget after eviction, holds for every point.)
    """
    return budget_bytes + 8 * batch_events * _BYTES_PER_BRANCH


def extract(doc: dict) -> dict[str, Metric]:
    metrics: dict[str, Metric] = {}
    sweep = doc.get("sweep", [])
    for point in sweep:
        metrics[f"eps_{point['tenants']}"] = eps(point["eps"])
    # Recompute every gated figure from the underlying measurements —
    # a doctored document cannot sneak past a gate by editing the
    # stored verdicts alone.
    if len(sweep) >= 2 and sweep[0]["eps"]:
        metrics["tenant_scaling"] = ratio(
            sweep[-1]["eps"] / sweep[0]["eps"])
    # Spill pressure is gated on the uniform-spray points: a spray
    # population is guaranteed to exceed the budget, while a skewed
    # (zipf) head may legitimately fit residency entirely.
    spray_multi = [p for p in sweep
                   if p["tenants"] > 1 and p["mix"] == "uniform"]
    metrics["spills_observed"] = flag(
        bool(spray_multi) and all(p["spills"] > 0 for p in spray_multi))
    slack = budget_slack(doc.get("budget_bytes", BUDGET_BYTES),
                         doc.get("batch_events", 4096))
    budget = doc.get("budget_bytes", BUDGET_BYTES)
    metrics["budget_honored"] = flag(
        bool(sweep)
        # Steady state: eviction drove the set back under budget.
        and all(p["final_resident_bytes"] <= budget for p in sweep)
        # Transient: bounded by per-batch intake on the spray points.
        and all(p["peak_resident_bytes"] <= slack for p in spray_multi))
    metrics["rss_bounded"] = flag(
        doc.get("rss_growth_mb", float("inf"))
        <= doc.get("rss_limit_mb", 0.0))
    metrics["peak_rss_mb"] = Metric(doc.get("peak_rss_mb", 0.0), "MB",
                                    "lower", banded=False)
    return metrics


@register_benchmark(
    "tenant",
    title="Tenant scaling at a fixed resident-set budget",
    kind="repro.tenant.bench",
    suites=("ci-gates", "perf", "all"),
    extract=extract,
    gates=(
        floor("spills_observed", 1.0, label="spill pressure exercised"),
        floor("budget_honored", 1.0, label="resident budget honored"),
        floor("rss_bounded", 1.0, label="RSS bounded by working set"),
        # The 1M-tenant spray measures ~0.0066 of one tenant; a victim
        # pick that rescans the LRU per victim measures 0.0002 and
        # fails this floor.
        floor("tenant_scaling", 0.002,
              label="max-tenant throughput floor",
              param="min_tenant_scaling"),
    ),
    baseline="BENCH_tenant.json",
    params={"events": 200_000},
    smoke_params={"events": 30_000,
                  "sweep": ((1, "uniform"), (64, "zipf"),
                            (4096, "uniform")),
                  # A tighter budget keeps spill pressure real at the
                  # smoke event count (the 64-tenant working set is
                  # only ~5 MB).
                  "budget_bytes": 2 * 1024 * 1024,
                  "rss_limit_mb": 512.0},
    timeout=900.0,
)
def run_tenant_sweep(events: int = 200_000, trace_name: str = "gcc",
                     sweep=SWEEP, budget_bytes: int = BUDGET_BYTES,
                     n_shards: int = 2, batch_events: int = 4096,
                     zipf_s: float = 1.5, rss_limit_mb: float = 256.0,
                     verbose: bool = True) -> dict:
    """Replay the same event budget across growing tenant populations.

    Each point re-tenants one deterministic base trace (same branches,
    same outcomes — only the tenant column varies), so the throughput
    spread isolates the cost of the tenant dimension: key widening,
    admission accounting, and spill/restore churn.  ``rss_growth_mb``
    is the peak-RSS delta between the start of the sweep and its end;
    the sweep runs smallest population first, so tenant-proportional
    state would show up as growth at the 1M point.
    """
    from repro.trace.spec2000 import load_trace
    from repro.trace.synthetic import with_tenants

    base = load_trace(trace_name, length=events)
    _ingest(base.slice(0, min(len(base), 32_768)), n_shards,
            budget_bytes, batch_events)  # warmup: page in + JIT numpy
    rss_start_kb = _rss_kb()

    points = []
    for n_tenants, mix in sweep:
        trace = with_tenants(base, n_tenants, mix, s=zipf_s)
        rate, stats = _ingest(trace, n_shards, budget_bytes, batch_events)
        points.append({
            "tenants": int(n_tenants),
            "mix": mix,
            "eps": rate,
            "spills": stats["spills"],
            "restores": stats["restores"],
            "spilled_tenants": stats["spilled_tenants"],
            "peak_resident_bytes": stats["peak_resident_bytes"],
            "final_resident_bytes": stats["resident_bytes"],
            "rss_kb": _rss_kb(),
        })

    peak_rss_kb = _rss_kb()
    result = {
        "kind": "repro.tenant.bench",
        "schema": 1,
        "trace": {"name": trace_name, "events": len(base)},
        "machine": {"cpus": os.cpu_count()},
        "budget_bytes": int(budget_bytes),
        "batch_events": int(batch_events),
        "n_shards": int(n_shards),
        "sweep": points,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "rss_growth_mb": (peak_rss_kb - rss_start_kb) / 1024.0,
        "rss_limit_mb": float(rss_limit_mb),
    }
    if verbose:
        print(f"tenant scaling, {trace_name} {len(base):,} events, "
              f"budget {budget_bytes // (1024 * 1024)} MiB, "
              f"{n_shards} shards")
        for p in points:
            print(f"  {p['tenants']:>9,} tenants ({p['mix']:>7s}) "
                  f"{p['eps']:>12,.0f} ev/s  "
                  f"{p['spills']:>7,} spills {p['restores']:>7,} "
                  f"restores  peak resident "
                  f"{p['peak_resident_bytes']:>12,} B")
        print(f"  peak RSS {result['peak_rss_mb']:,.0f} MB "
              f"(growth {result['rss_growth_mb']:,.0f} MB over the "
              f"sweep, limit {rss_limit_mb:,.0f} MB)")
    return result
