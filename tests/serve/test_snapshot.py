"""Checkpoint/restore: the kill/restore acceptance property.

The headline test snapshots a live service mid-trace, throws the
process state away, restores the snapshot into a fresh service —
including onto a *different* shard count — feeds the remainder of the
trace, and requires SpeculationMetrics identical to an uninterrupted
offline ``run_reactive`` of the whole trace.
"""

from __future__ import annotations

import asyncio
import gzip
import json

import pytest

from repro.core.controller import ControllerBank, ReactiveBranchController
from repro.serve.client import feed_trace
from repro.serve.events import iter_trace_batches
from repro.serve.service import ServiceConfig, SpeculationService
from repro.serve.snapshot import load_snapshot, save_snapshot
from repro.sim.runner import run_reactive
from tests.serve.conftest import random_trace


def test_controller_export_import_roundtrip_mid_episode(tiny_config):
    """Export/import preserves every slot, pending landings included."""
    from dataclasses import replace

    config = replace(tiny_config, optimization_latency=1000)
    ctrl = ReactiveBranchController(config, branch=9)
    # Finish a monitor period with a biased pattern: SELECT schedules a
    # deployment that is still in flight at export time.
    for instr in range(10, 50, 10):
        ctrl.observe(True, instr)
    assert ctrl._pending, "scenario must leave an in-flight deployment"
    clone = ReactiveBranchController.from_state(config, ctrl.export_state())
    assert clone.export_state() == ctrl.export_state()
    # The clone continues identically, including the landing.
    for instr in (60, 500, 1100, 1200):
        assert (ctrl.observe(True, instr) == clone.observe(True, instr))
    assert clone.export_state() == ctrl.export_state()
    assert clone.deployed and ctrl.deployed


def test_bank_export_import_roundtrip(bench_trace, bench_config):
    bank = ControllerBank(bench_config)
    for pc, taken, instr in zip(bench_trace.branch_ids[:20_000],
                                bench_trace.taken[:20_000],
                                bench_trace.instrs[:20_000]):
        bank.observe(int(pc), bool(taken), int(instr))
    clone = ControllerBank.from_state(bench_config, bank.export_state())
    assert clone.export_state() == bank.export_state()


@pytest.mark.parametrize("restore_shards", [None, 1, 7])
def test_kill_restore_matches_uninterrupted_run(tmp_path, bench_trace,
                                                bench_config,
                                                restore_shards):
    """Snapshot mid-trace + restore + remainder == never crashed."""
    snap = tmp_path / "mid.json.gz"
    scfg = ServiceConfig(n_shards=4)

    async def first_half():
        async with SpeculationService(bench_config, scfg) as service:
            await feed_trace(service, bench_trace, batch_events=1024,
                             max_events=31_744)  # 31 batches
            await service.snapshot(snap)

    async def second_half():
        service = load_snapshot(snap, n_shards=restore_shards)
        if restore_shards is not None:
            assert service.bank.n_shards == restore_shards
        async with service:
            # feed_trace continues after the snapshot's last seq, so
            # the already-ingested prefix is skipped automatically.
            await feed_trace(service, bench_trace, batch_events=1024)
            await service.drain()
            return service.metrics()

    asyncio.run(first_half())
    metrics = asyncio.run(second_half())
    assert metrics == run_reactive(bench_trace, bench_config).metrics


def test_autosnapshot_restore_matches(tmp_path, bench_trace, bench_config):
    """Snapshots taken by the service's own interval trigger under a
    live feed are just as restorable as explicit ones."""

    async def run_with_autosnapshot():
        scfg = ServiceConfig(n_shards=4, queue_events=8192,
                             snapshot_interval_events=20_000,
                             snapshot_dir=str(tmp_path))
        async with SpeculationService(bench_config, scfg) as service:
            await feed_trace(service, bench_trace, batch_events=1024)
            await service.drain()
            return list(service.snapshots_written), service.metrics()

    async def resume(snap):
        # Drop the auto-snapshot config for the resumed run.
        service = load_snapshot(snap, service_config=ServiceConfig(n_shards=4))
        async with service:
            await feed_trace(service, bench_trace, batch_events=1024)
            await service.drain()
            return service.metrics()

    snaps, full_metrics = asyncio.run(run_with_autosnapshot())
    assert snaps, "no auto-snapshot fired"
    offline = run_reactive(bench_trace, bench_config).metrics
    assert full_metrics == offline
    resumed = asyncio.run(resume(snaps[0]))
    assert resumed == offline


def test_save_refuses_undrained_service(bench_trace, bench_config):
    async def run():
        service = SpeculationService(bench_config)  # workers not started
        service.submit_nowait(next(iter_trace_batches(bench_trace, 256)))
        with pytest.raises(RuntimeError, match="queued"):
            save_snapshot("/tmp/never-written.json.gz", service)

    asyncio.run(run())


def test_snapshot_file_validation(tmp_path, bench_config):
    bogus = tmp_path / "bogus.json.gz"
    with gzip.open(bogus, "wt") as fh:
        json.dump({"kind": "something-else", "format": 1}, fh)
    with pytest.raises(ValueError, match="not a repro.serve snapshot"):
        load_snapshot(bogus)
    wrong = tmp_path / "wrong-format.json.gz"
    with gzip.open(wrong, "wt") as fh:
        json.dump({"kind": "repro.serve.snapshot", "format": 999}, fh)
    with pytest.raises(ValueError, match="format"):
        load_snapshot(wrong)


def test_snapshot_write_is_atomic(tmp_path, bench_config):
    async def run():
        service = SpeculationService(bench_config)
        path = tmp_path / "empty.json.gz"
        save_snapshot(path, service)
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))
        clone = load_snapshot(path)
        assert clone.metrics() == service.metrics()
        assert clone.last_seq == service.last_seq

    asyncio.run(run())


def test_restore_on_random_trace_with_reshard():
    """Adversarial trace + tiny thresholds + reshard mid-episode."""
    from repro.core.config import ControllerConfig

    config = ControllerConfig(
        monitor_period=8, selection_threshold=0.7, evict_counter_max=100,
        misspec_increment=50, correct_decrement=1, revisit_period=20,
        oscillation_limit=3, optimization_latency=500)
    trace = random_trace(12_000, 150, seed=9)

    async def run(tmp):
        scfg = ServiceConfig(n_shards=3, queue_events=4096)
        snap = tmp / "mid.json.gz"
        async with SpeculationService(config, scfg) as service:
            await feed_trace(service, trace, batch_events=512,
                             max_events=5_632)
            await service.snapshot(snap)
        resumed = load_snapshot(snap, n_shards=5)
        async with resumed:
            await feed_trace(resumed, trace, batch_events=512)
            await resumed.drain()
            return resumed.metrics()

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        metrics = asyncio.run(run(Path(tmp)))
    assert metrics == run_reactive(trace, config).metrics


def test_version1_snapshot_still_loads(bench_trace, bench_config):
    """Format-compat anchor: a committed v1 fixture (written before the
    execution-mode and WAL knobs existed) must keep loading, with the
    missing knobs at their defaults, and must resume bit-identically.

    The fixture is a real mid-trace checkpoint: gzip/60k, 2 shards,
    snapshotted after 10,240 events in 1,024-event batches, with its
    ``service_config`` stripped to the v1 schema.  Regenerate only if
    the *state* schema changes (which would be format 4, not a silent
    rewrite).
    """
    from pathlib import Path

    fixture = Path(__file__).parent / "data" / "snapshot-v1.json.gz"
    service = load_snapshot(fixture)
    assert service.last_seq == 10_240 // 1024 - 1
    # Knobs born after v1 take their defaults.
    assert service.service_config.workers == 0
    assert service.service_config.transport == "pipe"
    assert service.service_config.wal_dir is None
    assert service.service_config.wal_fsync == "batch"

    async def finish():
        async with service:
            await feed_trace(service, bench_trace, batch_events=1024)
            await service.drain()
            return service.metrics()

    assert (asyncio.run(finish())
            == run_reactive(bench_trace, bench_config).metrics)


def test_version6_snapshot_loads_as_tenant_zero(bench_trace,
                                                bench_config):
    """Format-compat anchor for the tenant dimension: a committed v6
    fixture (written before tenants existed) must load with the
    tenant knobs at their defaults, and its controllers must BE tenant
    0's — resuming under an explicit all-zeros tenant column is
    bit-identical to the uninterrupted single-tenant run.

    Same recipe as the v1 fixture: gzip/60k, 2 shards, snapshotted
    after 10,240 events in 1,024-event batches, ``service_config``
    stripped to the v6 schema and ``format`` rewritten to 6.
    """
    from pathlib import Path

    from repro.tenant.keys import MAX_PC
    from repro.trace.synthetic import with_tenants

    fixture = Path(__file__).parent / "data" / "snapshot-v6.json.gz"
    service = load_snapshot(fixture)
    assert service.last_seq == 10_240 // 1024 - 1
    # Knobs born in v7 take their defaults.
    assert service.service_config.tenant_quota_rate is None
    assert service.service_config.tenant_resident_bytes is None
    assert service.service_config.tenant_spill_dir is None
    assert service.tenant_stats() is None  # no tenant state materialized
    # Every pre-tenant controller key IS a tenant-0 packed key.
    state = service.bank.export_state()
    for shard in state["shards"]:
        for ctrl in shard["bank"]:
            assert 0 <= ctrl["branch"] <= MAX_PC

    async def finish():
        async with service:
            # Resume under an explicit tenant column of zeros: the
            # restored legacy controllers and the tenant-0 traffic
            # must land on the same keys.
            await feed_trace(service, with_tenants(bench_trace, 1),
                             batch_events=1024)
            await service.drain()
            return service.metrics()

    assert (asyncio.run(finish())
            == run_reactive(bench_trace, bench_config).metrics)


def test_retired_columnar_knob_is_dropped_on_load(tmp_path):
    """v5-v7 snapshots store the retired batch-engine knob
    (``"columnar": true|false``) in their service config.  Loading —
    directly or through WAL recovery — drops it, and both spellings
    restore the same bank."""
    from pathlib import Path

    from repro.wal.recovery import recover_service

    fixture = Path(__file__).parent / "data" / "snapshot-v6.json.gz"
    with gzip.open(fixture, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["service_config"]["columnar"] is True
    doc["service_config"]["columnar"] = False
    loop_era = tmp_path / "snapshot-v6-loop-engine.json.gz"
    with gzip.open(loop_era, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh)

    expected = load_snapshot(fixture).bank.export_state()
    assert expected["shards"][0]["events_applied"] > 0
    for path in (fixture, loop_era):
        assert load_snapshot(path).bank.export_state() == expected
        service, _ = recover_service(tmp_path / "wal", snapshot=path,
                                     attach_wal=False)
        assert service.bank.export_state() == expected
        assert service.last_seq == doc["last_seq"]


def test_find_latest_snapshot_skips_corrupt(tmp_path, bench_config):
    from repro.serve.snapshot import find_latest_snapshot

    assert find_latest_snapshot(tmp_path) is None
    assert find_latest_snapshot(tmp_path / "missing") is None

    async def write(path):
        service = SpeculationService(bench_config)
        save_snapshot(path, service)

    asyncio.run(write(tmp_path / "snapshot-000000001000.json.gz"))
    asyncio.run(write(tmp_path / "snapshot-000000002000.json.gz"))
    assert (find_latest_snapshot(tmp_path).name
            == "snapshot-000000002000.json.gz")
    # Corrupt decoys sorting above the good ones must be skipped: a
    # truncated gzip, a foreign document, and plain garbage.
    (tmp_path / "snapshot-000000003000.json.gz").write_bytes(
        (tmp_path / "snapshot-000000002000.json.gz").read_bytes()[:40])
    with gzip.open(tmp_path / "snapshot-000000004000.json.gz", "wt") as fh:
        json.dump({"kind": "something-else"}, fh)
    (tmp_path / "snapshot-000000005000.json.gz").write_bytes(b"garbage")
    assert (find_latest_snapshot(tmp_path).name
            == "snapshot-000000002000.json.gz")
