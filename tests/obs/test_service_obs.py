"""Service-level observability: non-perturbation, capture transport,
histogram coverage — in-process and across worker processes."""

from __future__ import annotations

import asyncio

from repro.obs.tracing import ARCS
from repro.serve.client import feed_trace
from repro.serve.service import ServiceConfig, SpeculationService
from repro.sim.runner import run_reactive


def _run_service(trace, config, scfg: ServiceConfig):
    async def run():
        service = SpeculationService(config, scfg)
        async with service:
            await feed_trace(service, trace, batch_events=1024)
            await service.drain()
            metrics = service.metrics()
        # After stop() the bank holds the authoritative state again
        # (also in worker mode, where it is gathered at shutdown).
        return service, metrics, service.bank.export_state()

    return asyncio.run(run())


def test_obs_does_not_perturb_controller_state(bench_trace, bench_config):
    """The acceptance property: bit-identical bank state and metrics
    with observability capture on vs. off."""
    _, metrics_on, state_on = _run_service(
        bench_trace, bench_config, ServiceConfig(n_shards=2, obs=True))
    _, metrics_off, state_off = _run_service(
        bench_trace, bench_config, ServiceConfig(n_shards=2, obs=False))
    assert metrics_on == metrics_off
    assert state_on == state_off
    assert metrics_on == run_reactive(bench_trace, bench_config).metrics


def test_trace_ring_captures_controller_transitions(bench_trace,
                                                    bench_config):
    """Every arc the controllers fired shows up in the arc counters,
    and ring records carry real exec/instr stamps."""
    service, _, _ = _run_service(
        bench_trace, bench_config,
        ServiceConfig(n_shards=2, trace_ring=1 << 20))
    expected: dict[str, int] = dict.fromkeys(ARCS, 0)
    for shard in service.bank.shards:
        for ctrl in shard.bank:
            for t in ctrl.transitions:
                expected[t.kind.value] += 1
    assert sum(expected.values()) > 0
    assert service.trace.arc_counts() == expected
    # Ring big enough to hold everything → one record per transition.
    assert len(service.trace) == sum(expected.values())
    fam = service.registry.get("repro_fsm_transitions_total")
    for arc, count in expected.items():
        assert fam.labels(arc=arc).value == count
    rec = service.trace.records()[0]
    assert rec.exec_index > 0 and rec.instr > 0


def test_worker_mode_ships_transitions_over_the_wire(bench_trace,
                                                     bench_config):
    """Transitions captured inside worker processes ride APPLY_RESULT
    frames and land in the parent's ring; counts match in-process."""
    inproc, _, _ = _run_service(
        bench_trace, bench_config,
        ServiceConfig(n_shards=2, trace_ring=1 << 20))
    workers, metrics, _ = _run_service(
        bench_trace, bench_config,
        ServiceConfig(n_shards=2, workers=2, trace_ring=1 << 20))
    assert workers.trace.arc_counts() == inproc.trace.arc_counts()
    assert metrics == run_reactive(bench_trace, bench_config).metrics
    # Worker-mode latency histograms are fed from the wire field.
    fam = workers.registry.get("repro_shard_apply_latency_seconds")
    total = sum(child.count for _, child in fam.children())
    assert total == workers.telemetry.batches_applied
    assert sum(child.sum for _, child in fam.children()) > 0


def test_histograms_cover_every_apply(bench_trace, bench_config):
    service, _, _ = _run_service(
        bench_trace, bench_config, ServiceConfig(n_shards=2))
    lat = service.registry.get("repro_shard_apply_latency_seconds")
    batch = service.registry.get("repro_shard_batch_events")
    assert sum(c.count for _, c in lat.children()) \
        == service.telemetry.batches_applied
    assert sum(c.sum for _, c in batch.children()) == len(bench_trace)


def test_obs_off_keeps_histograms_and_ring_empty(bench_trace,
                                                 bench_config):
    service, _, _ = _run_service(
        bench_trace, bench_config, ServiceConfig(n_shards=2, obs=False))
    lat = service.registry.get("repro_shard_apply_latency_seconds")
    assert sum(c.count for _, c in lat.children()) == 0
    assert len(service.trace) == 0
    assert all(v == 0 for v in service.trace.arc_counts().values())
    # Counters and gauges stay live either way.
    assert service.telemetry.events_applied == len(bench_trace)


def test_wal_metrics_mirror_stats(bench_trace, bench_config, tmp_path):
    service, _, _ = _run_service(
        bench_trace, bench_config,
        ServiceConfig(n_shards=2, wal_dir=str(tmp_path / "wal")))
    stats = service._wal.stats_snapshot()
    assert stats.records_appended > 0
    reg = service.registry
    assert reg.get("repro_wal_records_appended_total").value \
        == stats.records_appended
    assert reg.get("repro_wal_bytes_appended_total").value \
        == stats.bytes_appended
    assert reg.get("repro_wal_fsyncs_total").value == stats.fsyncs
    fsync_h = reg.get("repro_wal_fsync_latency_seconds")
    assert fsync_h._solo().count == stats.fsyncs
    append_h = reg.get("repro_wal_append_latency_seconds")
    assert append_h._solo().count == stats.records_appended
    commit_h = reg.get("repro_wal_commit_records")
    assert commit_h._solo().count == stats.commits
    assert commit_h._solo().sum == stats.committed_records


def test_spans_and_detector_do_not_perturb_controller_state(
        bench_trace, bench_config):
    """The PR's acceptance property extended to the new features:
    span tracing and the misspeculation detector are read-only with
    respect to speculation decisions."""
    _, metrics_full, state_full = _run_service(
        bench_trace, bench_config,
        ServiceConfig(n_shards=2, spans=True, detect=True))
    _, metrics_bare, state_bare = _run_service(
        bench_trace, bench_config,
        ServiceConfig(n_shards=2, spans=False, detect=False))
    assert metrics_full == metrics_bare
    assert state_full == state_bare
    assert metrics_full == run_reactive(bench_trace, bench_config).metrics


def test_detector_sees_the_whole_stream(bench_trace, bench_config):
    service, _, _ = _run_service(
        bench_trace, bench_config, ServiceConfig(n_shards=2))
    doc = service.detector.health_doc()
    assert doc["events_observed"] == len(bench_trace)
    evicts = service.trace.arc_counts()["evict"]
    assert doc["time_to_evict"]["count"] <= evicts
    assert service.registry.get("repro_detect_verdict") is not None


def test_detect_off_leaves_detector_unbuilt(bench_trace, bench_config):
    service, _, _ = _run_service(
        bench_trace, bench_config,
        ServiceConfig(n_shards=2, detect=False))
    assert service.detector is None
    assert service.registry.get("repro_detect_verdict") is None


def test_trace_sampling_config_flows_through(bench_trace, bench_config):
    service, _, _ = _run_service(
        bench_trace, bench_config,
        ServiceConfig(n_shards=2, trace_sample=4, trace_ring=1 << 20))
    assert service.trace.sample == 4
    # Only sampled-in PCs appear in the ring; counters see everything.
    assert all(service.trace.traced(r.pc)
               for r in service.trace.records())
    assert sum(service.trace.arc_counts().values()) \
        >= service.trace.total_recorded
