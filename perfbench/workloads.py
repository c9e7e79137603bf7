"""The four benchmark workloads and the measurement they share.

Every workload builds its inputs from the seed and computes the offline
reference (:func:`repro.sim.vector.run_vector`) before any timing
starts, then drives the service through its public API:
``SpeculationService`` with ``submit_nowait``/``SpeculationClient``,
``should_speculate``, ``snapshot``, ``recover_service`` and a
``ReplicationFollower`` in its own process.  Each run returns a
:class:`Result`: end-to-end figures from untraced portions, the
per-layer ledger from traced portions, and every correctness check.

Closed-loop workloads repeat whole rounds until ``seconds`` have
passed and report per-round medians; latency percentiles pool every
batch of every untraced round.  ``durable-stream`` is one open-loop
stream per run; a traced run traces its second half.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time

import numpy as np

from repro.core.config import SENSITIVITY_VARIANTS, scaled_config
from repro.serve.client import SpeculationClient
from repro.serve.events import iter_trace_batches
from repro.serve.service import (
    BackpressureError,
    ServiceConfig,
    SpeculationService,
)
from repro.serve.shard import shard_ids
from repro.sim.vector import run_vector, speculation_flags
from repro.tenant.keys import pack_keys
from repro.trace.spec2000 import BENCHMARK_NAMES, load_trace
from repro.trace.stream import Trace
from repro.trace.synthetic import (
    slow_poison_trace,
    train_then_flip_trace,
    with_tenants,
)
from repro.wal.recovery import recover_service

from ledger import Shims, SpanLog

HERE = Path(__file__).resolve().parent

#: Decision reads per block; one block follows every submitted batch.
READ_BLOCK = 64
#: Lag watcher poll period while batches are outstanding, in seconds.
POLL_S = 0.00025

#: Workload shapes; ``smoke`` shrinks every input for the tests.
SIZES = {
    "full": {
        "suite_events": 500_000,
        "flip_branches": 2048, "flip_at": 1024, "flip_len": 1.5,
        "stream_rate": 1_000_000, "stream_share": 0.4, "tail_share": 0.067,
        "setups": 3,
        "tenant_events": 20_000, "tenants": 100_000,
    },
    "smoke": {
        "suite_events": 20_000,
        "flip_branches": 64, "flip_at": 1024, "flip_len": 1.5,
        "stream_rate": 200_000, "stream_share": 0.5, "tail_share": 0.2,
        "setups": 1,
        "tenant_events": 10_000, "tenants": 10_000,
    },
}


@dataclass
class Result:
    """One run's figures, checks and ledger."""

    workload: str
    #: name -> value, end to end (untraced portions only).
    e2e: dict[str, float] = field(default_factory=dict)
    #: name -> value, the per-layer ledger (traced portions).
    layers: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0       # events submitted
    failed: int = 0          # events never applied or in a failed check
    refusals: int = 0
    submits: int = 0         # submit attempts, refusals included
    notes: dict = field(default_factory=dict)
    log: SpanLog | None = None

    def check(self, ok: bool, events: int, what: str) -> None:
        if not ok:
            self.failures.append(what)
            self.failed += events


# -- measurement helpers -------------------------------------------------
def sampled_keys(trace: Trace, rng: np.random.Generator,
                 n: int = 4096) -> list[tuple[int, int]]:
    """``(pc, tenant)`` pairs drawn from the trace's events."""
    idx = rng.integers(0, len(trace), size=n)
    tenants = (trace.tenants[idx] if trace.tenants is not None
               else np.zeros(n, dtype=np.int64))
    return list(zip(trace.branch_ids[idx].tolist(), tenants.tolist()))


class Reads:
    """Times ``should_speculate`` in blocks of :data:`READ_BLOCK` keys.

    Keeps each block's mean cost per call; the reported figure is their
    median, so a block the scheduler interrupted does not move it."""

    def __init__(self, service: SpeculationService,
                 keys: list[tuple[int, int]]) -> None:
        self.service = service
        self.keys = keys
        self.pos = 0
        self.blocks: list[float] = []

    def block(self) -> None:
        keys = self.keys[self.pos:self.pos + READ_BLOCK]
        self.pos = (self.pos + READ_BLOCK) % (len(self.keys) - READ_BLOCK)
        should = self.service.should_speculate
        t0 = perf_counter_ns()
        for pc, tenant in keys:
            should(pc, tenant)
        self.blocks.append((perf_counter_ns() - t0) / len(keys))


def routed_cumsum(batches, n_shards: int) -> list[tuple[int, ...]]:
    """Per batch, the cumulative events routed to each shard through
    the end of that batch.  Shard queues are FIFO, so a batch is fully
    applied once every shard's applied count reaches its entry."""
    total = np.zeros(n_shards, dtype=np.int64)
    out = []
    for batch in batches:
        keys = batch.pcs if batch.tenants is None else batch.keys()
        total += np.bincount(shard_ids(keys, n_shards),
                             minlength=n_shards)
        out.append(tuple(int(x) for x in total))
    return out


class LagWatcher:
    """Polls how far each batch has got since it was due.

    A batch's decision lag ends when every shard partition of it is
    applied (``bank.shard_event_counts()`` against its routed
    cumulative counts); its durable and replicated lags end when
    ``last_durable_seq`` and ``last_replicated_seq`` reach its seq.
    """

    def __init__(self, service: SpeculationService,
                 durable: bool = False) -> None:
        self.service = service
        self.durable = durable
        self.pending: deque = deque()
        self.pending_dur: deque = deque()
        self.pending_rep: deque = deque()
        self.decision: list[float] = []
        self.durable_lag: list[float] = []
        self.repl_lag: list[float] = []
        self.ack_gap: list[float] = []
        self._dur_at: dict[int, float] = {}
        self._wake = asyncio.Event()
        self._stop = False

    def add(self, seq: int, due: float, cum: tuple[int, ...]) -> None:
        self.pending.append((seq, due, cum))
        if self.durable:
            self.pending_dur.append((seq, due))
            self.pending_rep.append((seq, due))
        self._wake.set()

    def poll(self) -> None:
        now = perf_counter()
        pending = self.pending
        if pending:
            applied = self.service.bank.shard_event_counts()
            while pending and all(a >= c for a, c in
                                  zip(applied, pending[0][2])):
                self.decision.append(now - pending.popleft()[1])
        if self.durable:
            dseq = self.service.last_durable_seq
            while self.pending_dur and self.pending_dur[0][0] <= dseq:
                seq, due = self.pending_dur.popleft()
                self.durable_lag.append(now - due)
                self._dur_at[seq] = now
            rseq = self.service.last_replicated_seq
            while self.pending_rep and self.pending_rep[0][0] <= rseq:
                seq, due = self.pending_rep.popleft()
                self.repl_lag.append(now - due)
                at = self._dur_at.pop(seq, None)
                if at is not None:
                    self.ack_gap.append(now - at)

    def busy(self) -> bool:
        return bool(self.pending or self.pending_dur or self.pending_rep)

    async def run(self) -> None:
        while not self._stop:
            if self.busy():
                self.poll()
                await asyncio.sleep(POLL_S)
            else:
                self._wake.clear()
                await self._wake.wait()

    async def settle(self, timeout: float) -> bool:
        """Wait until nothing is outstanding (or ``timeout``)."""
        deadline = perf_counter() + timeout
        while self.busy() and perf_counter() < deadline:
            self.poll()
            await asyncio.sleep(POLL_S)
        return not self.busy()

    def stop(self) -> None:
        self._stop = True
        self._wake.set()


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS (VmHWM) count for this process."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak RSS (VmHWM) of this process or of a live child, in MB."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live child, from /proc."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def pct(values, q: float) -> float:
    return float(np.quantile(np.asarray(values), q)) if len(values) else 0.0


def offline_arcs(result) -> dict[str, int]:
    """Per-arc-kind transition counts of an offline run."""
    counts: dict[str, int] = {}
    for branch in result.branches:
        for t in branch.transitions:
            counts[t.kind.value] = counts.get(t.kind.value, 0) + 1
    return counts


def final_deployment(trace: Trace, config) -> dict[int, bool]:
    """Offline deployed-code view of every PC after the whole trace:
    whether the branch's last execution ran speculated."""
    spec, _miss, _res = speculation_flags(trace, config)
    groups = trace.groups()
    last = groups.order[groups.starts + groups.counts - 1]
    return dict(zip(groups.unique_ids.tolist(), spec[last].tolist()))


def state_digest(state: dict) -> str:
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()
                          ).hexdigest()


# -- tracing -------------------------------------------------------------
class Tracer:
    """The traced portion's instruments: layer shims, a shard-queue
    wait probe and a tally of every shard apply result."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.waits: list[float] = []
        self.tally = dict.fromkeys(
            ("events", "applies", "apply_s", "busy_s", "fast",
             "fallback", "single", "transitions", "wire_bytes"), 0)
        self.active = False
        self.shims = Shims(self.log, observe={
            "shard.apply": self._applied,
            "wire.apply": self._applied,
            "wire.encode": self._encoded,
        })

    def _applied(self, args, result) -> None:
        t = self.tally
        t["events"] += result.events
        t["applies"] += 1
        t["apply_s"] += result.apply_seconds
        if result.t_done > 0.0:
            t["busy_s"] += result.t_done - result.t_recv
        t["fast"] += result.col_fast
        t["fallback"] += result.col_fallback
        t["single"] += result.col_single
        t["transitions"] += len(result.transitions)

    def _encoded(self, args, frame) -> None:
        self.tally["wire_bytes"] += len(frame)

    def __enter__(self) -> "Tracer":
        self.shims.install()
        self.active = True
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        self.shims.remove()

    def probe(self, service: SpeculationService) -> None:
        """Swap in shard queues that time each item's wait (before
        ``start()``); they record only while the tracer is active."""
        tracer = self

        class TimedQueue(asyncio.Queue):
            def put_nowait(self, item):
                if tracer.active:
                    item.__dict__["_perfbench_t"] = perf_counter()
                super().put_nowait(item)

            def _note(self, item):
                t = item.__dict__.pop("_perfbench_t", None)
                if t is not None:
                    tracer.waits.append(perf_counter() - t)
                return item

            async def get(self):
                return self._note(await super().get())

            def get_nowait(self):
                return self._note(super().get_nowait())

        service._queues = [TimedQueue() for _ in service._queues]


def ledger(res: Result, tracer: Tracer, traced: dict, untraced: dict,
           vector_eps: float, services: list[SpeculationService]) -> None:
    """Fill ``res.layers`` from a traced portion's spans and counters.

    ``traced``/``untraced`` hold ``events``, ``batches``, ``wall_s`` and
    ``cpu_s`` of the two portions."""
    log = tracer.log
    t = tracer.tally
    events = traced["events"]
    ns = 1e9 / events
    applies = t["applies"]
    layer_self = log.layer_self()
    L = res.layers
    L["vector.eps"] = vector_eps
    L["vector.roofline_fraction"] = (
        untraced["events"] / untraced["wall_s"] / vector_eps)
    L["service.submit_ns_per_event"] = log.self_seconds(
        "service.submit") * ns
    L["service.queue_wait_p50_ms"] = 1e3 * pct(tracer.waits, 0.5)
    L["service.events_per_apply"] = t["events"] / applies if applies else 0
    L["service.refusals"] = traced["refusals"]
    L["service.decision_lag_p50_ms"] = res.e2e["decision_lag_p50_ms"]
    L["service.decision_read_ns"] = res.e2e["decision_read_ns"]
    L["service.cpu_ns_per_event"] = res.e2e["cpu_ns_per_event"]
    L["shard.partition_ns_per_event"] = log.self_seconds(
        "shard.partition") * ns
    L["shard.apply_calls"] = applies
    # In-process: the shard's own time beside colpath.  Worker mode:
    # the worker-measured apply (colpath included), the only view the
    # parent has of it.
    L["shard.apply_self_ns_per_event"] = (
        log.self_seconds("shard.apply") if log.calls("shard.apply")
        else t["apply_s"]) * ns
    L["colpath.ns_per_event"] = log.self_seconds("colpath.apply") * ns
    routed = t["fast"] + t["fallback"] + t["single"]
    for kind in ("fast", "fallback", "single"):
        L[f"colpath.{kind}_share"] = t[kind] / routed if routed else 0.0
    # Exact engine counters live with in-process shards only.
    arcs = rows = 0
    for service in services:
        for shard in service.bank.shards:
            if shard.col is not None:
                st = shard.col.stats()
                arcs += st["arcs_fast"]
                rows += st["rows"]
    transitions = t["transitions"]
    L["colpath.arcs_fast"] = arcs
    L["colpath.rows"] = rows
    L["fastpath.calls"] = log.calls("fastpath.apply_chunk")
    L["fastpath.ns_per_event"] = log.self_seconds(
        "fastpath.apply_chunk") * ns
    L["wire.ns_per_event"] = layer_self.get("wire", 0.0) * ns
    rtt = log.total("wire.apply")
    L["wire.worker_apply_share"] = t["busy_s"] / rtt if rtt else 0.0
    L["wire.bytes_per_event"] = t["wire_bytes"] / events
    L["wal.ns_per_event"] = layer_self.get("wal", 0.0) * ns
    L["tenant.ns_per_event"] = layer_self.get("tenant", 0.0) * ns
    L["obs.detect_ns_per_event"] = log.self_seconds("obs.detect") * ns
    L["obs.spans_ns_per_batch"] = (log.self_seconds("obs.spans") * 1e9
                                   / traced["batches"])
    L["obs.telemetry_ns_per_apply"] = (
        log.self_seconds("obs.telemetry") * 1e9 / applies
        if applies else 0.0)
    L["obs.transitions"] = transitions
    L["obs.trace_ns_per_transition"] = (
        log.self_seconds("obs.trace") * 1e9 / transitions
        if transitions else 0.0)
    # Ledger-only timings of layers a single workload exercises.
    for name, span, scale in (
            ("wire.rtt_p50_ms", "wire.apply", None),
            ("wal.commit_p50_ms", "wal.commit", None),
            ("wal.append_us", "wal.append", 1e6),
            ("tenant.plan_us", "tenant.plan", 1e6),
            ("tenant.pick_victims_us", "tenant.pick_victims", 1e6),
            ("tenant.spill_job_ms", "tenant.spill_job", 1e3),
            ("tenant.restore_job_ms", "tenant.restore_job", 1e3)):
        if not log.calls(span):
            continue
        if scale is None:
            L[name] = 1e3 * log.quantile(span, 0.5)
        else:
            L[name] = scale * log.total(span) / log.calls(span)
    # Validity of the trace itself.
    L["trace.overhead"] = (traced["cpu_s"] / traced["events"]) / (
        untraced["cpu_s"] / untraced["events"]) - 1.0
    L["trace.attributed_share"] = sum(layer_self.values()) / traced["wall_s"]
    L["trace.spans_dropped"] = log.dropped


# -- closed-loop workloads -------------------------------------------------
@dataclass
class Session:
    setup_s: float
    wall_s: float
    cpu_s: float
    events: int
    batches: int
    refusals: int
    lags: list[float]
    reads: list[float]
    service: SpeculationService


async def closed_session(config, scfg: ServiceConfig, batches, cums,
                         keys, tracer: Tracer | None = None) -> Session:
    """Start a fresh service, replay ``batches`` from one bursting
    producer (``SpeculationClient.submit_burst``), drain, stop."""
    t0 = perf_counter()
    service = SpeculationService(config, scfg)
    if tracer is not None:
        tracer.probe(service)
    await service.start()
    setup = perf_counter() - t0
    reads = Reads(service, keys)
    watcher = LagWatcher(service)
    poller = asyncio.create_task(watcher.run())
    client = SpeculationClient(service)
    cpu0 = process_time()
    w0 = perf_counter()
    for batch, cum in zip(batches, cums):
        watcher.add(batch.seq, perf_counter(), cum)
        await client.submit_burst(batch)
        reads.block()
    await service.drain()
    wall = perf_counter() - w0
    cpu = process_time() - cpu0
    watcher.poll()
    watcher.stop()
    await poller
    await service.stop()
    return Session(setup, wall, cpu, client.stats.events,
                   client.stats.batches, client.stats.rejections,
                   watcher.decision, reads.blocks, service)


@dataclass
class Case:
    """One service replay of a closed-loop round, with its reference."""

    name: str
    config: object
    scfg: object             # round index -> ServiceConfig
    batches: list
    cums: list
    keys: list
    #: ``check(service, doctor) -> list of failure strings``; with
    #: ``doctor`` the check first corrupts what it read (tests only).
    check: object


def portion(sessions: list[Session]) -> dict:
    events = sum(s.events for s in sessions)
    return {
        "setup_s": sum(s.setup_s for s in sessions),
        "events": events,
        "batches": sum(s.batches for s in sessions),
        "refusals": sum(s.refusals for s in sessions),
        "wall_s": sum(s.wall_s for s in sessions),
        "cpu_s": sum(s.cpu_s for s in sessions),
        "lags": [x for s in sessions for x in s.lags],
        "reads": [x for s in sessions for x in s.reads],
    }


def merge(portions: list[dict]) -> dict:
    keys = ("events", "batches", "refusals", "wall_s", "cpu_s")
    return {k: sum(p[k] for p in portions) for k in keys}


def run_rounds(res: Result, cases: list[Case], seconds: float,
               trace: bool, doctor: bool, vector_eps: float) -> None:
    """Whole rounds over ``cases`` until ``seconds`` have passed.

    Untraced: per-round medians.  Traced: rounds alternate untraced and
    traced (at least one each) and only the ledger is kept."""
    med = statistics.median
    untraced: list[dict] = []
    traced: list[dict] = []
    tracer = Tracer() if trace else None
    traced_services: list[SpeculationService] = []
    per_case: dict[str, list[tuple[float, float]]] = {}
    reset_peak_rss()
    t0 = perf_counter()
    i = 0
    while True:
        on = trace and i % 2 == 1
        sessions = []
        for case in cases:
            if on:
                with tracer:
                    s = asyncio.run(closed_session(
                        case.config, case.scfg(i), case.batches,
                        case.cums, case.keys, tracer))
                traced_services.append(s.service)
            else:
                s = asyncio.run(closed_session(
                    case.config, case.scfg(i), case.batches, case.cums,
                    case.keys))
            sessions.append(s)
            if not on:
                per_case.setdefault(case.name, []).append(
                    (s.events / s.wall_s, fallback_share(s.service)))
            res.attempted += s.events
            res.submits += s.batches + s.refusals
            res.refusals += s.refusals
            doctored = doctor and case is cases[-1]
            failures = case.check(s.service, doctored)
            res.check(not failures, s.events,
                      "; ".join(f"{case.name}: {f}" for f in failures))
        (traced if on else untraced).append(portion(sessions))
        i += 1
        if perf_counter() - t0 >= seconds and (not trace or i >= 2):
            break
    lags = [x for r in untraced for x in r["lags"]]
    res.e2e.update({
        "setup_s": med(r["setup_s"] for r in untraced),
        "ingest_eps": med(r["events"] / r["wall_s"] for r in untraced),
        "cpu_ns_per_event": med(1e9 * r["cpu_s"] / r["events"]
                                for r in untraced),
        "peak_rss_mb": peak_rss_mb(),
        "decision_lag_p50_ms": 1e3 * pct(lags, 0.50),
        "decision_lag_p99_ms": 1e3 * pct(lags, 0.99),
        "decision_read_ns": statistics.median(
            x for r in untraced for x in r["reads"]),
        "refused_share": res.refusals / res.submits,
    })
    res.notes["rounds"] = len(untraced) + len(traced)
    if len(cases) > 1:
        res.notes["cases"] = {
            name: {"ingest_eps": statistics.median(e for e, _ in runs),
                   "fallback_share": runs[-1][1]}
            for name, runs in per_case.items()}
    res.notes["lag_samples"] = len(lags)
    if trace:
        ledger(res, tracer, merge(traced), merge(untraced), vector_eps,
               traced_services)
        res.log = tracer.log


def fallback_share(service: SpeculationService) -> float:
    """Share of events colpath handed to ``apply_chunk``."""
    fallback = total = 0
    for shard in service.bank.shards:
        if shard.col is not None:
            st = shard.col.stats()
            fallback += st["events_fallback"]
            total += (st["events_fast"] + st["events_fallback"]
                      + st["events_single"])
    return fallback / total if total else 0.0


def metrics_check(ref):
    def check(service, doctor):
        got = service.metrics()
        if doctor:
            got = replace(got, correct=got.correct + 1)
        return [] if got == ref else [f"metrics {got} != {ref}"]
    return check


def spec_suite(seed: int, seconds: float, trace: bool, size: str,
               doctor: bool = False, workdir: Path | None = None
               ) -> Result:
    """All 12 SPEC2000int models, each through a fresh service."""
    shape = SIZES[size]
    res = Result("spec-suite")
    config = scaled_config()
    scfg = ServiceConfig()
    rng = np.random.default_rng(seed)
    cases = []
    vec_s = vec_events = 0
    for name in BENCHMARK_NAMES:
        tr = load_trace(name, length=shape["suite_events"],
                        base_seed=2005 + seed, trace_seed=7 + seed)
        t0 = perf_counter()
        ref = run_vector(tr, config).metrics
        vec_s += perf_counter() - t0
        vec_events += len(tr)
        batches = list(iter_trace_batches(tr, 8192))
        cases.append(Case(
            name, config, lambda i: scfg, batches,
            routed_cumsum(batches, scfg.n_shards), sampled_keys(tr, rng),
            metrics_check(ref)))
    res.notes["events_per_model"] = shape["suite_events"]
    run_rounds(res, cases, seconds, trace, doctor, vec_events / vec_s)
    return res


FLIP_VARIANTS = ("baseline", "eviction by sampling", "sampling in monitor")


def flip_storm(seed: int, seconds: float, trace: bool, size: str,
               doctor: bool = False, workdir: Path | None = None
               ) -> Result:
    """Train-then-flip and slow-poison traffic under three Table 4
    variants: boundary rounds, fallbacks and transition capture."""
    shape = SIZES[size]
    res = Result("flip-storm")
    n = shape["flip_branches"]
    flip_at = shape["flip_at"]
    length = int(shape["flip_len"] * flip_at * n)
    variants = SENSITIVITY_VARIANTS()
    base = scaled_config()
    scfg = ServiceConfig()
    rng = np.random.default_rng(seed)
    traces = [
        train_then_flip_trace(n, flip_at=flip_at, length=length,
                              seed=seed),
        slow_poison_trace(n, train_for=flip_at, length=length,
                          misspec_increment=base.misspec_increment,
                          correct_decrement=base.correct_decrement,
                          seed=seed + 1),
    ]
    cases = []
    vec_s = vec_events = 0
    for tr in traces:
        batches = list(iter_trace_batches(tr, 8192))
        cums = routed_cumsum(batches, scfg.n_shards)
        keys = sampled_keys(tr, rng)
        for vname in FLIP_VARIANTS:
            cfg = variants[vname]
            t0 = perf_counter()
            ref = run_vector(tr, cfg)
            vec_s += perf_counter() - t0
            vec_events += len(tr)
            cases.append(Case(f"{tr.name}/{vname}", cfg, lambda i: scfg,
                              batches, cums, keys,
                              flip_check(ref.metrics, offline_arcs(ref))))
    res.notes["events_per_trace"] = length
    run_rounds(res, cases, seconds, trace, doctor, vec_events / vec_s)
    return res


def flip_check(ref, arcs):
    def check(service, doctor):
        out = []
        got = service.metrics()
        if got != ref:
            out.append(f"metrics {got} != {ref}")
        got_arcs = {k: v for k, v in service.trace.arc_counts().items()
                    if v}
        if doctor:
            got_arcs["select"] = got_arcs.get("select", 0) + 1
        if got_arcs != arcs:
            out.append(f"arcs {got_arcs} != offline {arcs}")
        return out
    return check


TENANT_BUDGET = 2 * 1024 * 1024


def tenant_churn(seed: int, seconds: float, trace: bool, size: str,
                 doctor: bool = False, workdir: Path | None = None
                 ) -> Result:
    """gcc re-tenanted over 100k uniform tenants under a 2 MiB
    resident budget: admission, victim picks, spill and restore."""
    shape = SIZES[size]
    res = Result("tenant-churn")
    config = scaled_config()
    workdir = workdir if workdir is not None else Path.cwd()
    base = load_trace("gcc", length=shape["tenant_events"],
                      base_seed=2005 + seed, trace_seed=7 + seed)
    tr = with_tenants(base, shape["tenants"], "uniform", seed=seed)
    batches = list(iter_trace_batches(tr, 1024))
    scfg = ServiceConfig(tenant_resident_bytes=TENANT_BUDGET)
    cums = routed_cumsum(batches, scfg.n_shards)
    keys = sampled_keys(tr, np.random.default_rng(seed))
    # The offline roofline runs over the packed (tenant, pc) keys.
    keyed = Trace(name=tr.name, input_name=tr.input_name,
                  branch_ids=pack_keys(tr.tenants, tr.branch_ids),
                  taken=tr.taken, instrs=tr.instrs)
    t0 = perf_counter()
    offline = run_vector(keyed, config).metrics
    vector_eps = len(tr) / (perf_counter() - t0)
    # The same tenanted trace through an unbudgeted service, once.
    unbudgeted = asyncio.run(closed_session(
        config, ServiceConfig(), batches, cums, keys)).service.metrics()
    stats: list[dict] = []

    def check(service, doctor):
        stats.append(service.tenant_stats())
        got = service.metrics()
        if doctor:
            got = replace(got, incorrect=got.incorrect + 1)
        out = []
        if got != unbudgeted:
            out.append(f"metrics {got} != unbudgeted {unbudgeted}")
        if got != offline:
            out.append(f"metrics {got} != run_vector {offline}")
        return out

    def scfg_for(i):
        # A fresh spill store per round: a store re-opens what it finds.
        return replace(scfg, tenant_spill_dir=str(workdir / f"spill-{i}"))

    cases = [Case("gcc/100k-tenants", config, scfg_for, batches, cums,
                  keys, check)]
    run_rounds(res, cases, seconds, trace, doctor, vector_eps)
    st = stats[-1]
    store = st.get("store", {})
    L = res.layers
    L["tenant.spills"] = st["spills"]
    L["tenant.restores"] = st["restores"]
    L["tenant.restores_per_spill"] = (st["restores"] / st["spills"]
                                      if st["spills"] else 0.0)
    L["tenant.spill_bytes_per_tenant"] = (
        store["live_bytes"] / store["spilled_tenants"]
        if store.get("spilled_tenants") else 0.0)
    res.notes["tenant_stats"] = {k: v for k, v in st.items()
                                 if not isinstance(v, dict)}
    return res


# -- durable-stream --------------------------------------------------------
class Follower:
    """A ``ReplicationFollower`` in its own process (``follower.py``)."""

    def __init__(self, upstream: str, wal_dir: Path, out: Path) -> None:
        self.out = out
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "follower.py"), upstream,
             str(wal_dir), str(out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)

    async def connected(self, timeout: float = 60.0) -> bool:
        loop = asyncio.get_running_loop()
        line = await asyncio.wait_for(
            loop.run_in_executor(None, self.proc.stdout.readline), timeout)
        return line.strip() == "connected"

    def finish(self, timeout: float = 60.0) -> dict:
        """Stop the follower; returns its final status and state digest."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        self.kill()
        try:
            return json.loads(self.out.read_text())
        except (OSError, ValueError):
            return {}

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


async def start_primary(config, base: Path, tracer: Tracer | None = None):
    """Primary (one pipe worker, WAL, replication) plus a follower
    process, timed from construction until the follower is connected.
    Returns ``(service, follower, setup_s)``."""
    base.mkdir(parents=True, exist_ok=True)
    # Relative: AF_UNIX paths are limited to 107 bytes, and the
    # follower process shares this working directory.
    listen = os.path.relpath(base / "repl.sock")
    scfg = ServiceConfig(n_shards=1, workers=1, wal_dir=str(base / "wal"),
                         wal_fsync="batch", repl_listen=listen)
    t0 = perf_counter()
    service = SpeculationService(config, scfg)
    if tracer is not None:
        tracer.probe(service)
    follower = Follower(listen, base / "fwal", base / "follower.json")
    try:
        await service.start()
        if not await follower.connected():
            raise RuntimeError("follower did not connect")
    except BaseException:
        follower.kill()
        await service.stop(drain=False)
        raise
    return service, follower, perf_counter() - t0


class Stream:
    """Open-loop producer: each batch is submitted at its due time
    (``offset / rate`` after the start); refused batches retry."""

    def __init__(self, service, watcher, reads, res: Result,
                 rate: float) -> None:
        self.service = service
        self.watcher = watcher
        self.reads = reads
        self.res = res
        self.rate = rate
        self.late: list[float] = []

    async def run(self, batches, cums, offsets) -> float:
        """Returns the wall time from the first due time to ``drain()``."""
        t0 = perf_counter() + 0.005
        res = self.res
        for batch, cum, off in zip(batches, cums, offsets):
            due = t0 + off / self.rate
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late.append(perf_counter() - due)
            self.watcher.add(batch.seq, due, cum)
            while True:
                res.submits += 1
                try:
                    self.service.submit_nowait(batch)
                    break
                except BackpressureError as bp:
                    res.refusals += 1
                    await asyncio.sleep(min(bp.retry_after, 0.05))
            res.attempted += batch.n_events
            self.reads.block()
        await self.service.drain()
        return perf_counter() - t0


def durable_stream(seed: int, seconds: float, trace: bool, size: str,
                   doctor: bool = False, workdir: Path | None = None
                   ) -> Result:
    """gcc at a fixed offered rate through one pipe worker, WAL group
    commit and a follower process; then a timed snapshot, a fixed tail
    and ``recover_service``."""
    shape = SIZES[size]
    res = Result("durable-stream")
    workdir = workdir if workdir is not None else Path.cwd()
    config = scaled_config()
    rate = shape["stream_rate"]
    n_stream = max(8 * 4096, int(rate * seconds * shape["stream_share"]))
    n_tail = max(2 * 4096, int(rate * seconds * shape["tail_share"]))
    tr = load_trace("gcc", length=n_stream + n_tail,
                    base_seed=2005 + seed, trace_seed=7 + seed)
    t0 = perf_counter()
    offline = run_vector(tr, config).metrics
    vector_eps = len(tr) / (perf_counter() - t0)
    final = final_deployment(tr, config)
    batches = list(iter_trace_batches(tr, 4096))
    sizes = [b.n_events for b in batches]
    offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1].tolist()
    plan = {
        "batches": batches, "cums": routed_cumsum(batches, 1),
        "offsets": offsets, "stream": -(-n_stream // 4096),
        "keys": sampled_keys(tr, np.random.default_rng(seed)),
        "offline": offline, "final": final, "vector_eps": vector_eps,
    }
    res.notes["offered_eps"] = rate
    res.notes["stream_events"] = n_stream
    res.notes["tail_events"] = n_tail
    asyncio.run(_durable(res, config, plan, rate, shape, workdir, trace,
                         doctor))
    return res


async def _durable(res, config, plan, rate, shape, workdir, trace,
                   doctor) -> None:
    setups = []
    for i in range(shape["setups"] - 1):
        base = workdir / f"setup-{i}"
        service, follower, setup = await start_primary(config, base)
        setups.append(setup)
        await service.stop()
        follower.finish()
        shutil.rmtree(base, ignore_errors=True)
    tracer = Tracer() if trace else None
    reset_peak_rss()
    base = workdir / "primary"
    service, follower, setup = await start_primary(config, base, tracer)
    setups.append(setup)
    res.e2e["setup_s"] = statistics.median(setups)
    try:
        await _durable_run(res, service, follower, base, config, plan,
                           rate, tracer, doctor)
    except BaseException:
        follower.kill()
        await service.stop(drain=False)
        raise


async def _durable_run(res, service, follower, base, config, plan, rate,
                       tracer, doctor) -> None:
    batches, cums, offsets = plan["batches"], plan["cums"], plan["offsets"]
    n = plan["stream"]
    reads = Reads(service, plan["keys"])
    watcher = LagWatcher(service, durable=True)
    poller = asyncio.create_task(watcher.run())
    stream = Stream(service, watcher, reads, res, rate)
    pids = [p for p in service.worker_pids if p] + [follower.proc.pid]

    async def measured(lo: int, hi: int) -> dict:
        kids0 = [proc_cpu_s(p) for p in pids]
        refusals0 = res.refusals
        cpu0 = process_time()
        base_off = offsets[lo]
        wall = await stream.run(batches[lo:hi], cums[lo:hi],
                                [o - base_off for o in offsets[lo:hi]])
        own = process_time() - cpu0
        kids = [proc_cpu_s(p) - k for p, k in zip(pids, kids0)]
        res.notes.setdefault("cpu_s_parent_worker_follower", []).append(
            [round(own, 3)] + [round(k, 3) for k in kids])
        cpu = own + sum(kids)
        return {"events": sum(b.n_events for b in batches[lo:hi]),
                "batches": hi - lo, "wall_s": wall, "cpu_s": cpu,
                "refusals": res.refusals - refusals0}

    # A traced run traces the second half of the stream.
    cut = n // 2 if tracer is not None else n
    first = await measured(0, cut)
    second = None
    if tracer is not None:
        with tracer:
            second = await measured(cut, n)
    res.check(await watcher.settle(30.0), 0,
              "stream: durability/replication lags unresolved")
    decision, durable = watcher.decision, watcher.durable_lag
    res.e2e.update({
        "ingest_eps": first["events"] / first["wall_s"],
        "cpu_ns_per_event": 1e9 * first["cpu_s"] / first["events"],
        "decision_lag_p50_ms": 1e3 * pct(decision, 0.50),
        "decision_lag_p99_ms": 1e3 * pct(decision, 0.99),
        "decision_read_ns": statistics.median(reads.blocks),
        "durable_lag_p50_ms": 1e3 * pct(durable, 0.50),
        "durable_lag_p99_ms": 1e3 * pct(durable, 0.99),
        "repl_lag_p99_ms": 1e3 * pct(watcher.repl_lag, 0.99),
    })
    res.notes["lag_samples"] = len(decision)
    res.notes["achieved_eps"] = res.e2e["ingest_eps"]
    res.notes["loadgen_late_p99_ms"] = 1e3 * pct(stream.late, 0.99)
    ack_gap = list(watcher.ack_gap)
    # Producer paused: one explicit snapshot, then the fixed tail.  A
    # traced run times them (and recovery) with a second span log.
    tail_tracer = Tracer() if tracer is not None else None
    tail_ctx = tail_tracer if tracer is not None else nullcontext()
    with tail_ctx:
        t0 = perf_counter()
        snap = await service.snapshot(base / "explicit.json.gz")
        res.e2e["snapshot_s"] = perf_counter() - t0
        await stream.run(batches[n:], cums[n:],
                         [o - offsets[n] for o in offsets[n:]])
    res.check(await watcher.settle(30.0), 0,
              "tail: durability/replication lags unresolved")
    watcher.stop()
    await poller
    res.e2e["refused_share"] = res.refusals / res.submits
    last_seq = service.last_seq
    res.check(service.last_replicated_seq >= last_seq, 0,
              f"follower acked {service.last_replicated_seq} < {last_seq}")
    res.notes["peak_child_rss_mb"] = {
        "worker": max(peak_rss_mb(p) for p in service.worker_pids),
        "follower": peak_rss_mb(follower.proc.pid)}
    await service.stop()
    res.e2e["peak_rss_mb"] = peak_rss_mb()
    fstatus = follower.finish()
    offline = plan["offline"]
    primary_state = service.bank.export_state()
    got = service.metrics()
    res.check(got == offline, 0, f"primary {got} != run_vector {offline}")
    res.check(fstatus.get("last_seq") == last_seq, 0,
              f"follower at seq {fstatus.get('last_seq')} != {last_seq}")
    res.check(fstatus.get("metrics") == dataclasses.asdict(offline), 0,
              f"follower {fstatus.get('metrics')} != run_vector")
    res.check(fstatus.get("digest") == state_digest(primary_state), 0,
              "follower export_state differs from the primary")
    final = plan["final"]
    deployed = {pc: service.should_speculate(pc) for pc in final}
    if doctor:
        pc = next(iter(deployed))
        deployed[pc] = not deployed[pc]
    wrong = sum(deployed[pc] != final[pc] for pc in final)
    res.check(wrong == 0, 0,
              f"{wrong} PCs' final should_speculate differ from offline")
    with tail_ctx:
        t0 = perf_counter()
        recovered, report = recover_service(
            base / "wal", snap, config=config, attach_wal=False)
        res.e2e["recover_s"] = perf_counter() - t0
    res.check(recovered.bank.export_state() == primary_state, 0,
              "recovered export_state differs from the primary")
    if res.failures:
        # One service stack carries every event: any failed check fails
        # them all.
        res.failed = res.attempted
    if tracer is None:
        return
    ledger(res, tracer, second, first, plan["vector_eps"], [])
    log = tail_tracer.log
    L = res.layers
    L["wal.records_per_commit"] = service.reading().wal_mean_commit_records
    L["wal.compact_s"] = log.total("wal.compact")
    L["repl.ack_gap_p50_ms"] = 1e3 * pct(ack_gap, 0.5)
    L["follower.events_applied"] = fstatus.get("events_applied", 0)
    L["snapshot.save_s"] = log.total("snapshot.save")
    L["snapshot.bytes"] = Path(snap).stat().st_size
    L["snapshot.load_s"] = log.total("snapshot.load")
    replay = log.total("recover.replay")
    L["recover.replay_eps"] = (report.replayed_events / replay
                               if replay else 0.0)
    L["loadgen.late_p99_ms"] = res.notes["loadgen_late_p99_ms"]
    res.log = tracer.log


WORKLOADS = {
    "spec-suite": spec_suite,
    "flip-storm": flip_storm,
    "durable-stream": durable_stream,
    "tenant-churn": tenant_churn,
}
