"""Client-side protocol: retrying submission and the decision API.

:class:`SpeculationClient` is what an event producer (a JIT's profiling
hooks, a trace replayer, a benchmark driver) holds.  It owns the
polite half of the backpressure contract: on
:class:`~repro.serve.service.BackpressureError` it awaits the
service's capacity signal
(:meth:`~repro.serve.service.SpeculationService.wait_capacity`, bounded
by the ``retry_after`` hint) and resubmits the *same* batch — same
sequence number — so retries are idempotent by construction.

:func:`feed_trace` is the canonical replay driver used by the CLI,
benchmarks and tests: it streams any offline trace through a service
at an optional target event rate and reports submission statistics.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.serve.events import EventBatch, iter_trace_batches
from repro.serve.service import BackpressureError, SpeculationService
from repro.trace.stream import Trace

__all__ = ["SpeculationClient", "SubmitStats", "feed_trace"]

logger = logging.getLogger(__name__)


@dataclass
class SubmitStats:
    """What it took to push a workload into the service."""

    batches: int = 0
    events: int = 0
    rejections: int = 0
    retry_wait: float = 0.0   # total seconds waited on backpressure

    def merge(self, other: "SubmitStats") -> None:
        self.batches += other.batches
        self.events += other.events
        self.rejections += other.rejections
        self.retry_wait += other.retry_wait


class SpeculationClient:
    """Producer-side handle on a :class:`SpeculationService`.

    A rejected batch waits for its shard to free capacity — woken by
    the shard task's next dequeue, at most ``retry_after`` (and never
    longer than ``max_backoff``) — then resubmits with the same seq.
    """

    def __init__(self, service: SpeculationService,
                 max_retries: int = 1000,
                 max_backoff: float = 0.5) -> None:
        self.service = service
        self.max_retries = max_retries
        self.max_backoff = max_backoff
        self.stats = SubmitStats()

    def should_speculate(self, pc: int, tenant: int = 0) -> bool:
        """Deployed-code view of one branch (see the service method)."""
        return self.service.should_speculate(pc, tenant)

    async def submit(self, batch: EventBatch) -> int:
        """Submit one batch, retrying on backpressure.

        Returns the number of rejections absorbed.  Raises
        :class:`BackpressureError` only after ``max_retries``
        consecutive rejections of the same batch.
        """
        return await self._submit(batch, yield_after=True)

    async def submit_burst(self, batch: EventBatch) -> int:
        """Submit without yielding to workers on success.

        A bursting producer fills the shard queues back-to-back until
        backpressure pushes back, then waits while workers drain in
        large, dense micro-batches, resuming at the first dequeue.
        This trades decision latency for throughput — the right deal
        for replay/bulk ingestion (it is what :func:`feed_trace` uses);
        interactive producers should prefer :meth:`submit`.
        """
        return await self._submit(batch, yield_after=False)

    async def _submit(self, batch: EventBatch, yield_after: bool) -> int:
        rejections = 0
        while True:
            try:
                self.service.submit_nowait(batch)
            except BackpressureError as bp:
                rejections += 1
                if rejections > self.max_retries:
                    raise
                t0 = time.monotonic()
                await self.service.wait_capacity(bp, self.max_backoff)
                self.stats.retry_wait += time.monotonic() - t0
                continue
            if yield_after:
                await asyncio.sleep(0)
            self.stats.batches += 1
            self.stats.events += batch.n_events
            self.stats.rejections += rejections
            return rejections


async def feed_trace(service: SpeculationService, trace: Trace,
                     batch_events: int = 4096,
                     max_events: int | None = None,
                     rate: float | None = None,
                     start_seq: int | None = None,
                     burst: bool = True,
                     progress: Callable[[], Awaitable[None] | None]
                     | None = None,
                     progress_every: int = 250_000) -> SubmitStats:
    """Replay a trace through a running service.

    ``rate`` caps submission at approximately that many events/sec
    (None = as fast as backpressure allows).  ``burst`` selects the
    high-throughput submission mode: fill the shard queues without
    yielding and let backpressure schedule the drains (see
    :meth:`SpeculationClient.submit_burst`); pass False to yield to
    workers after every batch instead, which keeps queues shallow and
    decisions fresh at some throughput cost.  ``start_seq`` defaults
    to continuing after the service's last accepted sequence number —
    the right thing both for fresh services and for restored snapshots,
    where it skips the already-ingested prefix automatically on a
    straight replay of the same batching.  ``progress`` is invoked
    (and awaited, if it returns an awaitable) every
    ``progress_every`` submitted events.
    """
    client = SpeculationClient(service)
    first_seq = service.last_seq + 1 if start_seq is None else start_seq
    started = time.monotonic()
    submitted = 0
    next_progress = progress_every
    for batch in iter_trace_batches(trace, batch_events,
                                    max_events=max_events):
        if batch.seq < first_seq:
            logger.debug(
                "feed_trace: skipping batch seq=%d (%d events) — already "
                "covered by seq watermark %d", batch.seq, batch.n_events,
                first_seq - 1)
            continue
        if burst:
            await client.submit_burst(batch)
        else:
            await client.submit(batch)
        submitted += batch.n_events
        if rate is not None and rate > 0:
            # Pace against the wall clock (skipped prefix excluded).
            due = started + submitted / rate
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
        if progress is not None and submitted >= next_progress:
            next_progress += progress_every
            out = progress()
            if out is not None:
                await out
    return client.stats
