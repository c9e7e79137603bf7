"""Client protocol: retries, stats, the replay driver, decisions."""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.serve.client import SpeculationClient, SubmitStats, feed_trace
from repro.serve.events import EventBatch, iter_trace_batches
from repro.serve.service import (
    BackpressureError,
    QuotaExceededError,
    ServiceConfig,
    SpeculationService,
)
from repro.serve.snapshot import load_snapshot
from repro.sim.vector import run_vector


def test_submit_stats_merge():
    a = SubmitStats(batches=2, events=100, rejections=1, retry_wait=0.5)
    a.merge(SubmitStats(batches=1, events=50, rejections=2, retry_wait=0.25))
    assert (a.batches, a.events, a.rejections, a.retry_wait) \
        == (3, 150, 3, 0.75)


def test_client_retries_until_capacity(bench_trace, bench_config):
    """A rejected batch is retried with the same seq and eventually
    lands once a worker frees capacity."""

    async def run():
        scfg = ServiceConfig(n_shards=1, queue_events=1024,
                             default_retry_after=0.001)
        service = SpeculationService(bench_config, scfg)
        client = SpeculationClient(service)
        batches = list(iter_trace_batches(bench_trace, 512, max_events=2048))
        # Fill the queue with no workers running.
        await client.submit(batches[0])
        await client.submit(batches[1])
        with pytest.raises(BackpressureError):
            service.submit_nowait(batches[2])
        # Start workers while a retrying submit is waiting.
        retrying = asyncio.ensure_future(client.submit(batches[2]))
        await asyncio.sleep(0.005)
        assert not retrying.done()
        await service.start()
        rejections = await retrying
        assert rejections >= 1
        assert client.stats.rejections >= 1
        assert client.stats.retry_wait > 0
        await client.submit(batches[3])
        await service.drain()
        metrics = service.metrics()
        await service.stop()
        assert metrics.dynamic_branches == 2048
        assert service.last_seq == batches[3].seq

    asyncio.run(run())


def test_submit_burst_fills_queues_without_yielding(bench_trace,
                                                    bench_config):
    """Burst submission enqueues back-to-back; workers only run once
    backpressure (or an explicit await) lets them."""

    async def run():
        scfg = ServiceConfig(n_shards=2, queue_events=4096,
                             default_retry_after=0.001)
        async with SpeculationService(bench_config, scfg) as service:
            client = SpeculationClient(service)
            batches = list(iter_trace_batches(bench_trace, 1024,
                                              max_events=4096))
            for batch in batches:
                await client.submit_burst(batch)
            # No backpressure was hit, so no yield happened: every
            # event is still queued, none applied.
            assert service.queued_events == 4096
            assert service.metrics().dynamic_branches == 0
            await service.drain()
            assert service.metrics().dynamic_branches == 4096
            assert client.stats.batches == len(batches)

    asyncio.run(run())


def test_feed_trace_burst_matches_offline(bench_trace, bench_config):
    from repro.sim.runner import run_reactive

    async def run(burst):
        scfg = ServiceConfig(n_shards=4, queue_events=8192)
        async with SpeculationService(bench_config, scfg) as service:
            stats = await feed_trace(service, bench_trace,
                                     batch_events=1024, burst=burst)
            await service.drain()
            return service.metrics(), stats

    offline = run_reactive(bench_trace, bench_config).metrics
    burst_metrics, burst_stats = asyncio.run(run(True))
    polite_metrics, _ = asyncio.run(run(False))
    assert burst_metrics == offline
    assert polite_metrics == offline
    assert burst_stats.events == len(bench_trace)


def test_client_gives_up_after_max_retries(bench_trace, bench_config):
    async def run():
        scfg = ServiceConfig(n_shards=1, queue_events=512,
                             default_retry_after=0.0005)
        service = SpeculationService(bench_config, scfg)  # never started
        client = SpeculationClient(service, max_retries=3)
        batches = list(iter_trace_batches(bench_trace, 512, max_events=1024))
        await client.submit(batches[0])
        with pytest.raises(BackpressureError):
            await client.submit(batches[1])

    asyncio.run(run())


def test_feed_trace_rate_and_progress(bench_trace, bench_config):
    async def run():
        calls = {"sync": 0, "async": 0}

        def on_progress():
            calls["sync"] += 1

        async def on_progress_async():
            calls["async"] += 1

        async with SpeculationService(bench_config) as service:
            stats = await feed_trace(service, bench_trace,
                                     batch_events=1024, max_events=8192,
                                     progress=on_progress,
                                     progress_every=2048)
            await feed_trace(service, bench_trace, batch_events=1024,
                             progress=on_progress_async,
                             progress_every=20_000)
            await service.drain()
            events = service.metrics().dynamic_branches
        assert stats.events == 8192
        assert stats.batches == 8
        assert calls["sync"] == 4
        assert calls["async"] >= 2
        assert events == len(bench_trace)

    asyncio.run(run())


def test_feed_trace_paced(bench_trace, bench_config):
    """With a rate cap the feeder takes at least events/rate seconds."""
    async def run():
        async with SpeculationService(bench_config) as service:
            started = time.monotonic()
            await feed_trace(service, bench_trace, batch_events=1024,
                             max_events=4096, rate=100_000)
            elapsed = time.monotonic() - started
            await service.drain()
        return elapsed

    assert asyncio.run(run()) >= 4096 / 100_000 * 0.8


def test_should_speculate_passthrough(bench_trace, bench_config):
    async def run():
        async with SpeculationService(bench_config) as service:
            client = SpeculationClient(service)
            await feed_trace(service, bench_trace)
            await service.drain()
            deployed = [int(c.branch)
                        for s in service.bank.shards
                        for c in s.bank if c.deployed]
            assert deployed, "trace must deploy some branches"
            for pc in deployed[:10]:
                assert client.should_speculate(pc) is True
            assert client.should_speculate(10**9) is False

    asyncio.run(run())


def test_feed_trace_logs_skipped_batches_at_debug(bench_trace, bench_config,
                                                  caplog):
    """Resuming a feed past a seq watermark logs each skipped batch at
    DEBUG — silent skipping made observable without noise by default."""
    import logging

    async def run():
        async with SpeculationService(bench_config) as service:
            await feed_trace(service, bench_trace, batch_events=1024,
                             max_events=4096)
            await service.drain()
            applied = service.metrics().dynamic_branches
            # Replay the same prefix: every batch is already covered.
            with caplog.at_level(logging.DEBUG, logger="repro.serve.client"):
                stats = await feed_trace(service, bench_trace,
                                         batch_events=1024,
                                         max_events=4096)
            await service.drain()
            assert service.metrics().dynamic_branches == applied
            return stats

    stats = asyncio.run(run())
    assert stats.batches == 0
    skipped = [r for r in caplog.records if "skipping batch" in r.message]
    assert len(skipped) == 4
    assert all(r.levelname == "DEBUG" for r in skipped)
    assert "seq watermark 3" in skipped[0].message


# -- waking on capacity ----------------------------------------------------
# Every service below hints ``default_retry_after=5.0`` and every client
# allows a 10 s backoff, so a producer that slept on the hint instead of
# waking on its shard's dequeue would take at least one 5 s hint.
HINT = 5.0


def test_bursting_replay_wakes_on_capacity(bench_trace, bench_config):
    """A multi-batch burst into a small queue resumes on each dequeue:
    it finishes well under one pre-drain hint, exactly."""
    async def run():
        scfg = ServiceConfig(queue_events=2048, default_retry_after=HINT)
        async with SpeculationService(bench_config, scfg) as service:
            client = SpeculationClient(service, max_backoff=2 * HINT)
            started = time.monotonic()
            for batch in iter_trace_batches(bench_trace, 1024):
                await client.submit_burst(batch)
            await service.drain()
            return (time.monotonic() - started, service.metrics(),
                    client.stats)

    elapsed, metrics, stats = asyncio.run(run())
    assert metrics == run_vector(bench_trace, bench_config).metrics
    assert stats.rejections > 10
    assert elapsed < HINT / 2
    assert 0 < stats.retry_wait <= elapsed


def test_snapshot_mid_burst_stays_live(bench_trace, bench_config,
                                       tmp_path):
    """Quiesce rejections see no dequeue while the snapshot writes; the
    producer still resumes once intake reopens."""
    async def run():
        scfg = ServiceConfig(queue_events=2048, default_retry_after=HINT)
        async with SpeculationService(bench_config, scfg) as service:
            client = SpeculationClient(service, max_backoff=2 * HINT)

            async def produce():
                for batch in iter_trace_batches(bench_trace, 1024):
                    await client.submit_burst(batch)

            started = time.monotonic()
            producer = asyncio.ensure_future(produce())
            while service.bank.events_applied < 8192:
                await asyncio.sleep(0)
            path = await service.snapshot(tmp_path / "mid.json.gz")
            await producer
            await service.drain()
            return time.monotonic() - started, service.metrics(), path

    elapsed, metrics, path = asyncio.run(run())
    assert metrics == run_vector(bench_trace, bench_config).metrics
    restored = load_snapshot(path)
    assert 0 < restored.metrics().dynamic_branches < len(bench_trace)
    assert elapsed < HINT / 2


def test_spilling_rejection_wakes_after_the_spill(bench_config):
    """A batch bounced because its tenant is mid-spill resumes when the
    shard runs the spill job, not after the hint."""
    rng = np.random.default_rng(3)

    def batch(seq, tenant):
        return EventBatch(
            seq=seq, pcs=rng.integers(0, 64, 256).astype(np.int32),
            taken=rng.uniform(size=256) < 0.9,
            instrs=np.arange(seq * 256, (seq + 1) * 256, dtype=np.int64),
            tenants=np.full(256, tenant, dtype=np.uint32))

    async def run():
        # A one-branch budget: every tenant switch spills the last one.
        scfg = ServiceConfig(default_retry_after=HINT,
                             tenant_resident_bytes=512)
        service = SpeculationService(bench_config, scfg)
        service.submit_nowait(batch(0, 1))
        service.submit_nowait(batch(1, 2))   # picks tenant 1 to spill
        bounced = batch(2, 1)
        with pytest.raises(BackpressureError) as err:
            service.submit_nowait(bounced)
        assert not isinstance(err.value, QuotaExceededError)
        assert err.value.retry_after == HINT
        client = SpeculationClient(service, max_backoff=2 * HINT)
        started = time.monotonic()
        retrying = asyncio.ensure_future(client.submit(bounced))
        await asyncio.sleep(0)
        await service.start()
        await retrying
        elapsed = time.monotonic() - started
        await service.drain()
        stats = service.tenant_stats()
        await service.stop()
        return elapsed, stats, service.last_seq

    elapsed, stats, last_seq = asyncio.run(run())
    assert stats["spills"] >= 1 and stats["restores"] >= 1
    assert last_seq == 2
    assert elapsed < HINT / 2


def test_quota_rejection_waits_out_its_bucket(bench_trace, bench_config):
    """Draining a queue refills no token bucket: a quota bounce sleeps
    its hint even while the shard keeps dequeuing."""
    async def run():
        scfg = ServiceConfig(queue_events=2048, tenant_quota_rate=20_000.0,
                             tenant_quota_burst=1024)
        async with SpeculationService(bench_config, scfg) as service:
            batches = [
                EventBatch(seq=b.seq, pcs=b.pcs, taken=b.taken,
                           instrs=b.instrs,
                           tenants=np.full(b.n_events, 1, dtype=np.uint32))
                for b in iter_trace_batches(bench_trace, 1024,
                                            max_events=2048)]
            service.submit_nowait(batches[0])    # empties the bucket
            with pytest.raises(QuotaExceededError) as err:
                service.submit_nowait(batches[1])
            hint = err.value.retry_after
            assert hint > 0.02
            # The shard dequeues batch 0 while the quota wait runs.
            started = time.monotonic()
            await service.wait_capacity(err.value, max_wait=2 * HINT)
            waited = time.monotonic() - started
            assert service.queued_events == 0
            service.submit_nowait(batches[1])
            await service.drain()
        return hint, waited

    hint, waited = asyncio.run(run())
    assert waited >= hint * 0.9
