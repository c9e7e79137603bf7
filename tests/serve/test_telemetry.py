"""Direct unit tests for ServiceTelemetry (no service loop involved)."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.telemetry import ServiceTelemetry, TelemetryReading


def test_window_eviction_arithmetic():
    """The rolling window keeps its sums exact while evicting: after
    many applies, window totals equal the sum of the entries it still
    holds, and stay within one entry of the configured bound."""
    t = ServiceTelemetry(n_shards=1, window_events=1000)
    entries = []
    for i in range(50):
        events, spec, mis = 100, 60, i % 7
        t.record_apply(0, events, spec - mis, mis, depth_after=0)
        entries.append((events, spec, mis))
    reading = t.reading()
    # Invariant from record_apply's while-loop: dropping the oldest
    # remaining entry would leave >= the limit, keeping one can't.
    kept = entries[-len(t._window):]
    assert reading.window_events == sum(e for e, _, _ in kept)
    assert reading.window_speculated == sum(s for _, s, _ in kept)
    assert reading.window_misspeculated == sum(m for _, _, m in kept)
    assert reading.window_events - kept[0][0] < 1000 <= reading.window_events
    # Whole-run counters never evict.
    assert reading.events_applied == 5000
    assert reading.batches_applied == 50


def test_shard_skew_handles_zero_totals():
    reading = ServiceTelemetry(n_shards=4).reading()
    assert reading.shard_events == (0, 0, 0, 0)
    assert reading.shard_skew == 1.0   # no traffic = perfectly even


def test_drain_rate_ema_warmup():
    """No rate before two applies; then an EMA that tracks but smooths."""
    import time

    t = ServiceTelemetry(n_shards=1)
    assert t.drain_rate == 0.0
    t.record_apply(0, 100, 50, 1, depth_after=0)
    assert t.drain_rate == 0.0      # first apply: no interval yet
    time.sleep(0.002)
    t.record_apply(0, 100, 50, 1, depth_after=0)
    first = t.drain_rate
    assert first > 0.0              # second apply seeds the EMA directly
    time.sleep(0.002)
    t.record_apply(0, 100, 50, 1, depth_after=0)
    second = t.drain_rate
    # Later applies blend with alpha=0.05: the EMA keeps 95% of its
    # previous value plus a positive instantaneous sample.
    assert second > 0.95 * first


def test_record_enqueue_counts_events_and_tracks_high_water():
    t = ServiceTelemetry(n_shards=2)
    t.record_enqueue(0, events=100, depth=100)
    t.record_enqueue(0, events=50, depth=150)
    t.record_enqueue(1, events=10, depth=10)
    t.record_enqueue(0, events=0, depth=40)   # drain lowers depth only
    assert t.events_enqueued == 160
    assert t.queue_depths == [40, 10]
    assert t.queue_high_water == [150, 10]


def test_registry_sharing_and_histogram_gating():
    registry = MetricsRegistry()
    t = ServiceTelemetry(n_shards=2, registry=registry)
    assert t.registry is registry
    t.record_apply(1, 64, 30, 2, depth_after=0)              # obs off
    t.record_apply(1, 64, 30, 2, depth_after=0,
                   apply_seconds=0.005)                      # obs on
    lat = registry.get("repro_shard_apply_latency_seconds")
    assert lat.labels("1").count == 1
    assert lat.labels("1").sum == pytest.approx(0.005)
    batch = registry.get("repro_shard_batch_events")
    assert batch.labels("1").count == 1
    assert registry.get("repro_shard_events_total").labels("1").value == 128
    assert registry.get("repro_events_applied_total").value == 128


def test_colpath_routing_counters_export_fast_path_residency():
    registry = MetricsRegistry()
    t = ServiceTelemetry(n_shards=1, registry=registry)
    t.record_apply(0, 100, 50, 1, depth_after=0,
                   col_fast=80, col_fallback=15, col_single=5)
    t.record_apply(0, 40, 20, 0, depth_after=0, col_fast=40)
    t.record_apply(0, 10, 5, 0, depth_after=0)   # no routing split given
    fam = registry.get("repro_colpath_events_total")
    assert fam.labels("fast").value == 120
    assert fam.labels("fallback").value == 15
    assert fam.labels("single").value == 5


def test_reading_dataclass_and_wal_defaults():
    reading = ServiceTelemetry(n_shards=1).reading()
    assert isinstance(reading, TelemetryReading)
    assert reading.wal_records_appended == 0
    assert reading.window_misspec_rate == 0.0
    assert reading.window_coverage == 0.0
    assert "ev/s" in reading.summary()


def test_window_events_must_be_positive():
    with pytest.raises(ValueError, match="window_events"):
        ServiceTelemetry(n_shards=1, window_events=0)
