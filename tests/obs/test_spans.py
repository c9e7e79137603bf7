"""Per-micro-batch span tracing: recorder unit behaviour and the
service integration (stages recorded, controller state untouched)."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import STAGES, SpanRecorder
from repro.serve.client import feed_trace
from repro.serve.service import ServiceConfig, SpeculationService


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        SpanRecorder(capacity=0)
    with pytest.raises(ValueError, match="capacity"):
        SpanRecorder(capacity=-3)


def test_note_applied_folds_partitions_with_max():
    rec = SpanRecorder(capacity=8)
    rec.begin(seq=0, events=100, parts=2, t_submit=10.0,
              enqueue_seconds=0.001, wal_seconds=0.002)
    rec.note_applied(0, queue_wait=0.010, apply=0.005, t_now=10.5)
    span = rec.snapshot_doc()["spans"][0]
    assert span["complete"] is False
    assert span["total_seconds"] == 0.0
    rec.note_applied(0, queue_wait=0.020, apply=0.003, t_now=11.0)
    span = rec.snapshot_doc()["spans"][0]
    assert span["complete"] is True
    assert span["total_seconds"] == pytest.approx(1.0)
    stages = span["stages"]
    assert stages["enqueue"] == pytest.approx(0.001)
    assert stages["wal_append"] == pytest.approx(0.002)
    # Folded stages keep the max across the batch's partitions.
    assert stages["queue_wait"] == pytest.approx(0.020)
    assert stages["apply"] == pytest.approx(0.005)
    # No workers: the wire stages never happened and are absent.
    assert "wire_out" not in stages and "wire_back" not in stages


def test_extra_partition_reports_are_ignored():
    rec = SpanRecorder(capacity=4)
    rec.begin(seq=3, events=10, parts=1, t_submit=0.0,
              enqueue_seconds=0.001)
    rec.note_applied(3, queue_wait=0.01, apply=0.01, t_now=1.0)
    rec.note_applied(3, queue_wait=9.99, apply=9.99, t_now=2.0)
    span = rec.snapshot_doc()["spans"][0]
    assert span["stages"]["apply"] == pytest.approx(0.01)
    assert span["total_seconds"] == pytest.approx(1.0)
    # Unknown seq (already evicted from the ring) is a no-op too.
    rec.note_applied(999, queue_wait=1.0, apply=1.0)


def test_ring_is_bounded_and_begun_keeps_counting():
    rec = SpanRecorder(capacity=4)
    for seq in range(7):
        rec.begin(seq=seq, events=1, parts=1, t_submit=float(seq),
                  enqueue_seconds=0.001)
    doc = rec.snapshot_doc()
    assert doc["capacity"] == 4
    assert doc["begun"] == 7
    assert [s["seq"] for s in doc["spans"]] == [3, 4, 5, 6]


def test_durability_and_ack_watermarks_stamp_late_stages():
    rec = SpanRecorder(capacity=8)
    for seq in range(3):
        rec.begin(seq=seq, events=1, parts=1, t_submit=0.0,
                  enqueue_seconds=0.001)
        rec.note_applied(seq, queue_wait=0.001, apply=0.001, t_now=0.5)
    rec.note_durable(1)
    rec.note_replicated(0)
    spans = {s["seq"]: s["stages"] for s in rec.snapshot_doc()["spans"]}
    assert "wal_fsync" in spans[0] and "wal_fsync" in spans[1]
    assert "wal_fsync" not in spans[2]
    assert "repl_ack" in spans[0]
    assert "repl_ack" not in spans[1]
    # The watermark advancing again stamps only the newly covered seqs.
    rec.note_durable(2)
    spans = {s["seq"]: s["stages"] for s in rec.snapshot_doc()["spans"]}
    assert "wal_fsync" in spans[2]


def test_snapshot_doc_tail_and_slowest_selection():
    rec = SpanRecorder(capacity=8)
    durations = [0.5, 2.0, 1.0]
    for seq, dur in enumerate(durations):
        rec.begin(seq=seq, events=1, parts=1, t_submit=0.0,
                  enqueue_seconds=0.001)
        rec.note_applied(seq, queue_wait=0.001, apply=0.001, t_now=dur)
    rec.begin(seq=3, events=1, parts=1, t_submit=0.0,
              enqueue_seconds=0.001)  # still in flight
    tail = rec.snapshot_doc(n=2)["spans"]
    assert [s["seq"] for s in tail] == [2, 3]
    slowest = rec.snapshot_doc(slowest=2)["spans"]
    assert [s["seq"] for s in slowest] == [1, 2]  # in-flight excluded
    assert rec.snapshot_doc(n=0)["spans"] == []


def test_quantiles_come_from_stage_histograms():
    registry = MetricsRegistry()
    rec = SpanRecorder(capacity=8, registry=registry)
    for seq in range(10):
        rec.begin(seq=seq, events=1, parts=1, t_submit=0.0,
                  enqueue_seconds=0.001)
        rec.note_applied(seq, queue_wait=0.002, apply=0.004, t_now=0.01)
    q = rec.quantiles()
    for stage in ("enqueue", "queue_wait", "apply"):
        assert set(q[stage]) == {"p50", "p99"}
        assert q[stage]["p50"] > 0.0
    # Stages that never fired report no quantiles at all.
    assert "wire_out" not in q and "repl_ack" not in q
    # Without a registry there is nothing to estimate from.
    assert SpanRecorder(capacity=8).quantiles() == {}


def _spans_from_service(trace, config, scfg: ServiceConfig):
    async def run():
        async with SpeculationService(config, scfg) as service:
            stats = await feed_trace(service, trace, batch_events=1024)
            await service.drain()
            return service.spans.snapshot_doc(), stats

    return asyncio.run(run())


def test_service_records_in_process_stages(bench_trace, bench_config):
    doc, stats = _spans_from_service(
        bench_trace, bench_config, ServiceConfig(n_shards=2))
    assert doc["kind"] == "repro.obs.spans"
    assert doc["begun"] == stats.batches
    spans = doc["spans"]
    assert spans and all(s["complete"] for s in spans)
    for span in spans:
        assert set(span["stages"]) >= {"enqueue", "queue_wait", "apply"}
        assert all(v >= 0.0 for v in span["stages"].values())
        # In-process apply: nothing crossed a process boundary.
        assert "wire_out" not in span["stages"]
    assert doc["stage_quantiles"]["apply"]["p99"] > 0.0


def test_worker_mode_records_wire_and_wal_stages(bench_trace,
                                                 bench_config, tmp_path):
    doc, _ = _spans_from_service(
        bench_trace, bench_config,
        ServiceConfig(n_shards=2, workers=2,
                      wal_dir=str(tmp_path / "wal"), wal_fsync="batch"))
    stages_seen = set()
    for span in doc["spans"]:
        stages_seen.update(span["stages"])
    assert {"enqueue", "wal_append", "queue_wait", "wire_out", "apply",
            "wire_back", "wal_fsync"} <= stages_seen
    assert set(stages_seen) <= set(STAGES)


def test_span_ring_size_flows_through_config(bench_trace, bench_config):
    doc, stats = _spans_from_service(
        bench_trace, bench_config,
        ServiceConfig(n_shards=2, span_ring=4))
    assert doc["capacity"] == 4
    assert len(doc["spans"]) == 4
    assert doc["begun"] == stats.batches


def test_spans_off_leaves_recorder_unbuilt(bench_trace, bench_config):
    async def run():
        scfg = ServiceConfig(n_shards=2, spans=False)
        async with SpeculationService(bench_config, scfg) as service:
            await feed_trace(service, bench_trace, batch_events=1024)
            await service.drain()
            assert service.spans is None
            assert service.registry.get("repro_spans_total") is None

    asyncio.run(run())
