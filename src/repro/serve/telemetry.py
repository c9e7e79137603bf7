"""Rolling service telemetry: windowed rates, queue depths, shard skew.

The paper's metrics are whole-run aggregates; an online service needs
the *recent* picture — is the misspeculation rate drifting, are queues
backing up, is one shard hot?  :class:`ServiceTelemetry` keeps an
event-count-bounded rolling window of applied outcomes (so the window
is workload-relative, not wall-clock-relative, and behaves identically
under replay at any speed) plus live queue accounting and an EMA of
drain rate used to compute backpressure retry hints.

Since the observability PR, the accumulator is a thin view over a
:class:`repro.obs.metrics.MetricsRegistry`: every counter and gauge it
maintains lives in the registry (so ``/metrics`` exports them for
free), and per-shard apply-latency / batch-size histograms are filled
in whenever the service passes a measured ``apply_seconds``.  Only the
rolling window and its deque stay private — they are a derived view,
exported as gauges.

Telemetry is deliberately *not* part of snapshots: it describes the
process, not the controller state, and restoring it would make resumed
runs depend on the crashed process's wall clock.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.wal.writer import WalStats

__all__ = ["BATCH_EVENT_BUCKETS", "TelemetryReading", "ServiceTelemetry"]

#: Histogram buckets for coalesced micro-batch sizes (events / apply):
#: powers of two from a lone event up to a maxed-out coalesce window.
BATCH_EVENT_BUCKETS = tuple(float(1 << i) for i in range(17))


@dataclass(frozen=True)
class TelemetryReading:
    """Point-in-time view of the service (see :class:`ServiceTelemetry`)."""

    events_applied: int
    batches_applied: int
    window_events: int
    window_speculated: int
    window_misspeculated: int
    drain_rate: float                 # events/sec EMA over applies
    queue_depths: tuple[int, ...]     # events queued per shard, now
    queue_high_water: tuple[int, ...]  # peak events queued per shard
    shard_events: tuple[int, ...]     # events applied per shard
    mean_batch_events: float          # mean coalesced apply size
    # WAL durability counters (all zero when the WAL is disabled).
    wal_records_appended: int = 0
    wal_bytes_appended: int = 0
    wal_fsyncs: int = 0
    wal_mean_commit_records: float = 0.0  # group-commit batch size
    wal_segments_created: int = 0
    wal_segments_compacted: int = 0
    # Online misspeculation health verdict ("off" when the detector is
    # disabled; else one of repro.obs.detect.VERDICTS).
    detect_verdict: str = "off"

    @property
    def window_misspec_rate(self) -> float:
        """Misspeculations / dynamic branches over the rolling window."""
        if not self.window_events:
            return 0.0
        return self.window_misspeculated / self.window_events

    @property
    def window_coverage(self) -> float:
        """Speculated fraction of dynamic branches over the window."""
        if not self.window_events:
            return 0.0
        return self.window_speculated / self.window_events

    @property
    def shard_skew(self) -> float:
        """Max/mean applied events per shard (1.0 = perfectly even)."""
        total = sum(self.shard_events)
        if not total:
            return 1.0
        mean = total / len(self.shard_events)
        return max(self.shard_events) / mean

    def summary(self) -> str:
        """One-line live summary (the CLI's progress line)."""
        depth = sum(self.queue_depths)
        return (f"applied {self.events_applied:>11,}  "
                f"rate {self.drain_rate/1e3:7.0f}k ev/s  "
                f"cover {self.window_coverage:6.1%}  "
                f"misspec {self.window_misspec_rate:8.4%}  "
                f"queued {depth:>7,}  skew {self.shard_skew:4.2f}")


class ServiceTelemetry:
    """Mutable telemetry accumulator driven by the service internals.

    All counters/gauges live in ``registry`` (a private one is created
    when none is shared in); per-shard children are resolved once at
    construction so the hot-path hooks are plain list indexing.
    """

    def __init__(self, n_shards: int, window_events: int = 65_536,
                 registry: MetricsRegistry | None = None) -> None:
        if window_events <= 0:
            raise ValueError("window_events must be positive")
        self.window_events_limit = window_events
        self.registry = registry if registry is not None else MetricsRegistry()
        self._window: deque[tuple[int, int, int]] = deque()
        self._win_events = 0
        self._win_spec = 0
        self._win_mis = 0
        self._rate_ema = 0.0
        self._last_apply_t: float | None = None

        r = self.registry
        shards = [str(i) for i in range(n_shards)]
        self._c_events = r.counter(
            "repro_events_applied_total",
            "Dynamic branch events applied to the controller banks.")
        self._c_batches = r.counter(
            "repro_batches_applied_total",
            "Coalesced micro-batches applied.")
        self._c_enqueued = r.counter(
            "repro_events_enqueued_total",
            "Events accepted into shard queues (submit side).")
        shard_fam = r.counter(
            "repro_shard_events_total",
            "Dynamic branch events applied, per shard.",
            labelnames=("shard",))
        depth_fam = r.gauge(
            "repro_queue_depth_events",
            "Events queued right now, per shard.", labelnames=("shard",))
        high_fam = r.gauge(
            "repro_queue_high_water_events",
            "Peak events ever queued, per shard.", labelnames=("shard",))
        self._g_drain = r.gauge(
            "repro_drain_rate_events_per_second",
            "EMA of apply throughput (smoothed over ~20 applies).")
        self._g_win_events = r.gauge(
            "repro_window_events",
            "Dynamic branches in the rolling telemetry window.")
        self._g_win_spec = r.gauge(
            "repro_window_speculated",
            "Speculated branches in the rolling telemetry window.")
        self._g_win_mis = r.gauge(
            "repro_window_misspeculated",
            "Misspeculated branches in the rolling telemetry window.")
        latency_fam = r.histogram(
            "repro_shard_apply_latency_seconds",
            "Wall time of one coalesced shard apply, per shard.",
            buckets=LATENCY_BUCKETS, labelnames=("shard",))
        batch_fam = r.histogram(
            "repro_shard_batch_events",
            "Events per coalesced shard apply, per shard.",
            buckets=BATCH_EVENT_BUCKETS, labelnames=("shard",))
        col_fam = r.counter(
            "repro_colpath_events_total",
            "Events by columnar-engine routing: advanced in the cross-"
            "branch arrays (fast), through the true scalar fallback "
            "(fallback), or in by-design single-branch batches (single). "
            "fast / total is live fast-path residency.",
            labelnames=("path",))
        self._c_col_fast = col_fam.labels("fast")
        self._c_col_fallback = col_fam.labels("fallback")
        self._c_col_single = col_fam.labels("single")
        self._c_shard_events = [shard_fam.labels(s) for s in shards]
        self._g_depth = [depth_fam.labels(s) for s in shards]
        self._g_high = [high_fam.labels(s) for s in shards]
        self._h_latency = [latency_fam.labels(s) for s in shards]
        self._h_batch = [batch_fam.labels(s) for s in shards]

    # -- registry-backed views ------------------------------------------
    @property
    def events_applied(self) -> int:
        return self._c_events.value

    @property
    def batches_applied(self) -> int:
        return self._c_batches.value

    @property
    def events_enqueued(self) -> int:
        return self._c_enqueued.value

    @property
    def queue_depths(self) -> list[int]:
        return [g.value for g in self._g_depth]

    @property
    def queue_high_water(self) -> list[int]:
        return [g.value for g in self._g_high]

    @property
    def shard_events(self) -> list[int]:
        return [c.value for c in self._c_shard_events]

    # -- hooks driven by the service ------------------------------------
    def record_enqueue(self, shard: int, events: int, depth: int) -> None:
        self._c_enqueued.inc(events)
        self._g_depth[shard].set(depth)
        if depth > self._g_high[shard].value:
            self._g_high[shard].set(depth)

    def record_apply(self, shard: int, events: int, correct: int,
                     incorrect: int, depth_after: int,
                     apply_seconds: float | None = None,
                     col_fast: int = 0, col_fallback: int = 0,
                     col_single: int = 0) -> None:
        """Account one coalesced apply.  ``apply_seconds`` is the
        measured wall time when observability capture is on (None keeps
        the histograms untouched — the obs-off fast path).
        ``col_fast``/``col_fallback``/``col_single`` are the columnar
        engine's event-routing split for the batch."""
        self._c_events.inc(events)
        self._c_batches.inc()
        self._c_shard_events[shard].inc(events)
        self._g_depth[shard].set(depth_after)
        if col_fast:
            self._c_col_fast.inc(col_fast)
        if col_fallback:
            self._c_col_fallback.inc(col_fallback)
        if col_single:
            self._c_col_single.inc(col_single)
        if apply_seconds is not None:
            self._h_latency[shard].observe(apply_seconds)
            self._h_batch[shard].observe(events)
        spec = correct + incorrect
        self._window.append((events, spec, incorrect))
        self._win_events += events
        self._win_spec += spec
        self._win_mis += incorrect
        while (self._win_events - self._window[0][0]
               >= self.window_events_limit):
            e, s, m = self._window.popleft()
            self._win_events -= e
            self._win_spec -= s
            self._win_mis -= m
        self._g_win_events.set(self._win_events)
        self._g_win_spec.set(self._win_spec)
        self._g_win_mis.set(self._win_mis)
        now = time.monotonic()
        if self._last_apply_t is not None:
            dt = now - self._last_apply_t
            if dt > 0:
                inst = events / dt
                # EMA smoothed over ~20 applies.
                alpha = 0.05
                self._rate_ema = (inst if not self._rate_ema
                                  else (1 - alpha) * self._rate_ema
                                  + alpha * inst)
                self._g_drain.set(self._rate_ema)
        self._last_apply_t = now

    # -- views ----------------------------------------------------------
    @property
    def drain_rate(self) -> float:
        """Events/sec EMA of recent applies (0.0 before the first)."""
        return self._rate_ema

    def reading(self, wal: "WalStats | None" = None,
                detect_verdict: str = "off") -> TelemetryReading:
        """Build a reading; ``wal`` is a :class:`repro.wal.writer.WalStats`
        copy when the service runs with a WAL attached, and
        ``detect_verdict`` the current health verdict when the online
        misspeculation detector is enabled."""
        wal_fields = {}
        if wal is not None:
            wal_fields = {
                "wal_records_appended": wal.records_appended,
                "wal_bytes_appended": wal.bytes_appended,
                "wal_fsyncs": wal.fsyncs,
                "wal_mean_commit_records": wal.mean_commit_records,
                "wal_segments_created": wal.segments_created,
                "wal_segments_compacted": wal.segments_compacted,
            }
        events_applied = self._c_events.value
        batches_applied = self._c_batches.value
        return TelemetryReading(
            events_applied=events_applied,
            batches_applied=batches_applied,
            window_events=self._win_events,
            window_speculated=self._win_spec,
            window_misspeculated=self._win_mis,
            drain_rate=self._rate_ema,
            queue_depths=tuple(self.queue_depths),
            queue_high_water=tuple(self.queue_high_water),
            shard_events=tuple(self.shard_events),
            mean_batch_events=(events_applied / batches_applied
                               if batches_applied else 0.0),
            detect_verdict=detect_verdict,
            **wal_fields,
        )
