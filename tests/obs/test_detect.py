"""Misspeculation health detection: exact flip-onset/time-to-evict
tracking, sliding-window verdicts, and the train-then-flip acceptance
property (detector tte == arc-counter ground truth)."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.config import ControllerConfig
from repro.obs.detect import DetectorConfig, MisspecDetector
from repro.obs.tracing import ARC_CODE
from repro.serve.client import feed_trace
from repro.serve.events import EventBatch
from repro.serve.service import (
    BackpressureError,
    ServiceConfig,
    SpeculationService,
)
from repro.serve.shard import BankShard
from repro.serve.snapshot import load_snapshot
from repro.serve.workers import WorkerPool
from repro.trace.spec2000 import load_trace
from repro.trace.synthetic import (
    slow_poison_trace,
    train_then_flip_trace,
    with_tenants,
)
from repro.wal.recovery import recover_service

SEL = ARC_CODE["select"]
EV = ARC_CODE["evict"]


def _ones(n):
    return np.ones(n, dtype=bool)


def _zeros(n):
    return np.zeros(n, dtype=bool)


class TestDetectorConfig:
    def test_defaults_valid(self):
        cfg = DetectorConfig()
        assert cfg.window_events == 8192
        assert cfg.degraded_misspec_rate < cfg.burst_misspec_rate

    @pytest.mark.parametrize("kwargs", [
        {"window_events": 0},
        {"min_window_events": 0},
        {"min_window_events": 9000},  # > window_events
        {"degraded_misspec_rate": 0.0},
        {"degraded_misspec_rate": 1.5},
        {"burst_misspec_rate": 0.05},  # < degraded
        {"burst_misspec_rate": 1.5},
        {"storm_evictions": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)


def _shard(config):
    shard = BankShard(0, config)
    shard.capture = True
    return shard


def _apply(shard, keys, outcomes):
    """Apply one program-order batch; returns its ``tte`` samples."""
    n = len(keys)
    instrs = shard.last_instr + 8 * np.arange(1, n + 1, dtype=np.int64)
    return shard.apply(np.asarray(keys, dtype=np.int64),
                       np.asarray(outcomes, dtype=bool), instrs).tte


class TestFlipTracking:
    """The shard's flip watch, hand-traced: monitor 4 executions (SELECT
    fires on exec 3), deployment lands before the next event, and the
    eviction walk (+40 per miss, -1 per hit) evicts at 100."""

    CFG = ControllerConfig(monitor_period=4, selection_threshold=0.75,
                           evict_counter_max=100, misspec_increment=40,
                           correct_decrement=1, revisit_period=6,
                           oscillation_limit=3, optimization_latency=0)

    def test_dense_onset_and_time_to_evict(self):
        shard = _shard(self.CFG)
        assert _apply(shard, [5] * 4, _ones(4)) == ()     # SELECT @3
        assert _apply(shard, [5] * 6, _ones(6)) == ()     # 4..9: taken
        # 10..14: T F T F F -> onset 11, EVICT on exec 14.
        assert _apply(shard, [5] * 5, [1, 0, 1, 0, 0]) == ((5, 3),)

    def test_trained_not_taken_flips_on_taken(self):
        shard = _shard(self.CFG)
        _apply(shard, [7] * 4, _zeros(4))
        _apply(shard, [7] * 8, _zeros(8))                 # 4..11
        # 12..15: F T T T -> onset 13, EVICT on exec 15.
        assert _apply(shard, [7] * 4, [0, 1, 1, 1]) == ((7, 2),)

    def test_onset_in_direction_establishing_batch(self):
        # The first post-select batch is scanned for flips against the
        # direction the SELECT deployed.
        shard = _shard(self.CFG)
        _apply(shard, [2] * 4, _zeros(4))
        # 4..11: five F then three T -> onset 9, EVICT on exec 11.
        assert _apply(shard, [2] * 8, [0] * 5 + [1] * 3) == ((2, 2),)

    def test_interleaved_pcs_count_in_own_exec_timebase(self):
        shard = _shard(self.CFG)
        _apply(shard, [5, 9] * 4, _ones(8))               # both SELECT @3
        _apply(shard, [5, 9, 5, 9], _ones(4))             # 4..5: taken
        # pc5 sits at batch positions 1, 3, 5, 7 -> its execs 6..9
        # (T F F F): onset 7, EVICT on exec 9, whatever pc9 does.
        tte = _apply(shard, [9, 5, 9, 5, 9, 5, 9, 5],
                     [1, 1, 0, 0, 1, 0, 1, 0])
        assert tte == ((5, 2),)

    def test_select_and_evict_in_one_batch(self):
        # SELECT @3 trains taken; the rest of its own batch is watched:
        # onset 4, and the misses at 4, 5, 6 evict on exec 6.
        shard = _shard(self.CFG)
        assert _apply(shard, [4] * 10, [1] * 4 + [0] * 6) == ((4, 2),)

    def test_batch_cuts_do_not_move_time_to_evict(self):
        # The same history, cut anywhere, yields the same sample.
        outcomes = [1] * 4 + [1, 1, 0, 1, 0, 0, 1]   # onset 6, EVICT @9
        for cut in range(1, len(outcomes)):
            shard = _shard(self.CFG)
            got = (_apply(shard, [6] * cut, outcomes[:cut])
                   + _apply(shard, [6] * (len(outcomes) - cut),
                            outcomes[cut:]))
            assert got == ((6, 3),), cut

    def test_sparse_keys_tracked_from_the_start(self):
        # A packed (tenant << 32) | pc key is just another row.
        shard = _shard(self.CFG)
        big = (9 << 32) | 42
        _apply(shard, [big] * 4, _ones(4))
        _apply(shard, [big] * 6, _ones(6))                # 4..9: taken
        assert _apply(shard, [big] * 3, _zeros(3)) == ((big, 2),)

    def test_watch_survives_tenant_spill(self):
        shard = _shard(self.CFG)
        key = (3 << 32) | 5
        _apply(shard, [key] * 4, _ones(4))                # SELECT @3
        _apply(shard, [key, 7], _ones(2))                 # exec 4: taken
        shard.restore_tenant(shard.spill_tenant([3]))
        # execs 5..7 all F: onset 5, EVICT on exec 7.
        assert _apply(shard, [key, 7, key, key],
                      [0, 1, 0, 0]) == ((key, 2),)

    def test_capture_off_watches_nothing(self):
        shard = _shard(self.CFG)
        shard.capture = False
        _apply(shard, [5] * 4, _ones(4))
        _apply(shard, [5] * 6, _ones(6))
        assert _apply(shard, [5] * 5, [1, 0, 1, 0, 0]) == ()

    def test_empty_batch_is_a_noop(self):
        assert _apply(_shard(self.CFG), [], []) == ()
        det = MisspecDetector()
        det.observe_batch(())
        doc = det.health_doc()
        assert doc["events_observed"] == 0
        assert doc["time_to_evict"]["count"] == 0

    def test_negative_samples_are_dropped(self):
        det = MisspecDetector()
        det.observe_batch(((1, 4), (2, -1)))
        assert det.time_to_evict() == {1: 4}


class TestVerdicts:
    CFG = DetectorConfig(window_events=100, min_window_events=10)

    def test_rate_thresholds_and_latching(self):
        det = MisspecDetector(self.CFG)
        det.observe_apply(50, 49, 1, 0, 400)
        assert det.verdict == "ok"
        det.observe_apply(50, 44, 6, 400, 800)            # window rate 0.07
        assert det.verdict == "ok"
        det.observe_apply(50, 40, 10, 800, 1200)          # trims to 0.16
        assert det.verdict == "degraded"
        det.observe_apply(50, 25, 25, 1200, 1600)         # 0.35
        assert det.verdict == "misspec-burst"
        # Clean traffic recovers the live verdict; the peak latches.
        for i in range(4):
            det.observe_apply(50, 50, 0, 1600 + 400 * i, 2000 + 400 * i)
        assert det.verdict == "ok"
        assert det.peak_verdict == "misspec-burst"
        doc = det.health_doc()
        assert doc["bursts"] == 1
        # A second burst increments the counter again.
        det.observe_apply(100, 50, 50, 4000, 4400)
        assert det.verdict == "misspec-burst"
        assert det.health_doc()["bursts"] == 2

    def test_window_below_minimum_reports_no_rate(self):
        det = MisspecDetector(DetectorConfig(window_events=100,
                                             min_window_events=100))
        det.observe_apply(50, 0, 50, 0, 400)              # all misspeculated
        assert det.verdict == "ok"
        assert det.health_doc()["window"]["misspec_rate"] == 0.0

    def test_window_trims_to_configured_events(self):
        det = MisspecDetector(self.CFG)
        for i in range(10):
            det.observe_apply(50, 50, 0, i * 400, (i + 1) * 400)
        win = det.health_doc()["window"]
        assert win["events"] == 100
        assert det.health_doc()["events_observed"] == 500

    def test_eviction_storm_trips_and_expires(self):
        det = MisspecDetector(self.CFG)
        for i in range(4):
            det.observe_apply(50, 50, 0, i * 400, (i + 1) * 400)
        marks = [(pc, EV, 0, 0) for pc in (1, 2, 3)]
        det.observe_transitions(marks)
        assert det.verdict == "misspec-burst"             # storm, low rate
        assert det.health_doc()["window"]["evictions"] == 3
        det.observe_apply(50, 50, 0, 1600, 2000)          # floor 150 < 200
        assert det.verdict == "misspec-burst"
        det.observe_apply(50, 50, 0, 2000, 2400)          # floor 200: expire
        assert det.verdict == "ok"
        assert det.peak_verdict == "misspec-burst"

    def test_fewer_evictions_than_storm_stay_ok(self):
        det = MisspecDetector(self.CFG)
        det.observe_apply(50, 50, 0, 0, 400)
        det.observe_transitions([(1, EV, 0, 0), (2, EV, 0, 0)])
        assert det.verdict == "ok"

    def test_mpki_uses_window_instruction_span(self):
        det = MisspecDetector(self.CFG)
        det.observe_apply(100, 90, 10, 0, 10_000)
        assert det.health_doc()["window"]["mpki"] == pytest.approx(1.0)


def test_health_doc_shape_and_thresholds():
    cfg = DetectorConfig(window_events=100, min_window_events=10,
                         storm_evictions=5)
    doc = MisspecDetector(cfg).health_doc()
    assert doc["kind"] == "repro.obs.health"
    assert doc["verdict"] == "ok" and doc["peak_verdict"] == "ok"
    assert set(doc["window"]) == {"events", "misspeculated",
                                  "misspec_rate", "mpki", "evictions",
                                  "instrs"}
    assert doc["thresholds"]["window_events"] == 100
    assert doc["thresholds"]["storm_evictions"] == 5
    assert doc["time_to_evict"] == {"count": 0, "mean": 0.0, "last": {}}


def test_train_then_flip_acceptance(bench_config):
    """The headline property: on the adversarial train-then-flip trace
    the detector (a) reports a misspeculation burst and (b) reproduces
    per-PC time-to-evict exactly from the arc-counter ground truth —
    every branch flips at execution ``flip_at``, so tte must equal
    ``evict.exec_index - flip_at`` in each branch's own timebase."""
    flip_at = 4096
    trace = train_then_flip_trace(n_branches=8, flip_at=flip_at, seed=0)

    async def run():
        async with SpeculationService(bench_config,
                                      ServiceConfig(n_shards=2)) as svc:
            await feed_trace(svc, trace, batch_events=4096)
            await svc.drain()
            truth = {r.pc: r.exec_index - flip_at
                     for r in svc.trace.records() if r.arc == "evict"}
            return svc.detector, truth

    detector, truth = asyncio.run(run())
    assert set(truth) == set(range(8))                    # all evicted
    assert detector.time_to_evict() == truth
    assert detector.peak_verdict == "misspec-burst"
    doc = detector.health_doc()
    assert doc["bursts"] >= 1
    assert doc["time_to_evict"]["count"] == 8
    assert doc["time_to_evict"]["mean"] == pytest.approx(
        sum(truth.values()) / 8)


# -- restore --------------------------------------------------------------
@pytest.mark.parametrize("restore", ["load_snapshot", "recover_service"])
def test_time_to_evict_exact_after_restore(restore, tmp_path, bench_config):
    """The flip watch reads the bank's absolute ``exec`` column, so a
    PC selected after a restore reports the arc-truth time-to-evict
    (a detector-side copy of the counts would restart at zero and
    report ``tte + events before the snapshot``)."""
    flip_at = 4096
    trace = train_then_flip_trace(n_branches=8, flip_at=flip_at, seed=0)
    snap = tmp_path / "snap.json.gz"
    wal_dir = tmp_path / "wal"

    async def first():
        scfg = ServiceConfig(n_shards=2, wal_dir=str(wal_dir))
        async with SpeculationService(bench_config, scfg) as svc:
            await feed_trace(svc, trace, batch_events=400, max_events=800)
            await svc.snapshot(snap)

    async def rest(svc):
        async with svc:
            await feed_trace(svc, trace, batch_events=400)
            await svc.drain()
            truth = {r.pc: r.exec_index - flip_at
                     for r in svc.trace.records() if r.arc == "evict"}
            return svc.detector.time_to_evict(), truth

    asyncio.run(first())
    if restore == "load_snapshot":
        svc = load_snapshot(snap)
    else:
        svc, _ = recover_service(wal_dir, snapshot=snap, attach_wal=False)
    tte, truth = asyncio.run(rest(svc))
    assert set(truth) == set(range(8))
    assert tte == truth


# -- parity with time-to-evict by its definition ---------------------------
class _ReferenceFlipTracker:
    """Time-to-evict by its definition, kept as the parity reference.
    It is fed each apply's raw ``(keys, outcomes)`` before the apply's
    arcs and keeps every key's whole outcome history, so where batches
    are cut cannot matter: a SELECT at execution ``e`` trains the
    direction its monitor window voted (executions ``e - period + 1``
    to ``e``, ties taken; the stride-1 monitor of ``bench_config``),
    the first later outcome against it is the flip onset, and the
    EVICT yields ``exec_index - onset``.  The sample bookkeeping is the
    detector's (negative samples dropped, the last 1,024 PCs kept)."""

    def __init__(self, monitor_period: int) -> None:
        self._period = monitor_period
        self._history: dict[int, list[bool]] = {}
        #: pc -> [trained direction, first execution to check]
        self._deployed: dict[int, list] = {}
        self.tte: dict[int, int] = {}
        self.count = 0
        self.total = 0

    def observe_batch(self, keys, taken) -> None:
        history = self._history
        for pc, t in zip(np.asarray(keys).tolist(),
                         np.asarray(taken, dtype=bool).tolist()):
            history.setdefault(pc, []).append(t)

    def observe_transitions(self, transitions) -> None:
        for pc, arc, exec_index, _ in transitions:
            pc = int(pc)
            if arc == SEL:
                window = self._history[pc][
                    exec_index - self._period + 1:exec_index + 1]
                self._deployed[pc] = [2 * sum(window) >= len(window),
                                      exec_index + 1]
            elif arc == EV:
                state = self._deployed.pop(pc, None)
                if state is None:
                    continue
                trained, first = state
                history = self._history[pc]
                onset = next((x for x in range(first, exec_index + 1)
                              if history[x] != trained), None)
                if onset is None:
                    continue
                tte = int(exec_index) - onset
                if tte < 0:
                    continue
                if len(self.tte) >= 1024 and pc not in self.tte:
                    self.tte.pop(next(iter(self.tte)))
                self.tte[pc] = tte
                self.count += 1
                self.total += tte

    def doc(self) -> dict:
        return {"count": self.count,
                "mean": (round(self.total / self.count, 3)
                         if self.count else 0.0),
                "last": {str(pc): t for pc, t in self.tte.items()}}


_PARITY_TRACES = {
    "train-then-flip": lambda: train_then_flip_trace(
        n_branches=16, flip_at=2048, seed=1),
    # Softened past the eviction break-even so the EVICT arc fires
    # after a noisy onset.
    "slow-poison": lambda: slow_poison_trace(
        n_branches=8, train_for=2048, margin=1.5, seed=1),
    "gcc": lambda: load_trace("gcc", length=200_000),
    # 32 tenant keys under a budget of 8 branches: tenants spill and
    # restore between their SELECT, flip onset and EVICT.
    "tenant-spill": lambda: with_tenants(
        train_then_flip_trace(n_branches=8, flip_at=4096, seed=3),
        4, "uniform", seed=3),
}


def _random_batches(trace, seed):
    rng = np.random.default_rng(seed)
    n = len(trace)
    cuts = np.cumsum(rng.integers(1, 3000, size=n // 1000 + 2))
    cuts = np.concatenate(([0], cuts[cuts < n], [n]))
    tenants = trace.tenants
    return [EventBatch(seq=i, pcs=trace.branch_ids[lo:hi],
                       taken=trace.taken[lo:hi], instrs=trace.instrs[lo:hi],
                       tenants=None if tenants is None else tenants[lo:hi])
            for i, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:]))]


@pytest.mark.parametrize("workers", [0, 2], ids=["in-process", "workers2"])
@pytest.mark.parametrize("name", list(_PARITY_TRACES))
def test_time_to_evict_matches_detector_side_tracker(name, workers,
                                                     bench_config,
                                                     monkeypatch):
    """On fresh services, the shard-side watch reproduces time-to-evict
    by its definition exactly: same samples, count, mean and ``last``
    order, over random batch splits coalesced into applies, in-process
    and over a pipe to worker processes, including a tenant-keyed trace
    whose tenants spill and restore mid-watch."""
    ref = _ReferenceFlipTracker(bench_config.monitor_period)
    if workers:
        pool_apply = WorkerPool.apply

        async def tee_pool(self, shard, pcs, taken, instrs):
            result = await pool_apply(self, shard, pcs, taken, instrs)
            ref.observe_batch(pcs, taken)
            ref.observe_transitions(result.transitions)
            return result

        monkeypatch.setattr(WorkerPool, "apply", tee_pool)
    else:
        shard_apply = BankShard.apply

        def tee_shard(self, pcs, taken, instrs):
            result = shard_apply(self, pcs, taken, instrs)
            ref.observe_batch(pcs, taken)
            ref.observe_transitions(result.transitions)
            return result

        monkeypatch.setattr(BankShard, "apply", tee_shard)
    spill = name == "tenant-spill"
    scfg = ServiceConfig(n_shards=2, workers=workers,
                         tenant_resident_bytes=8 * 512 if spill else None,
                         tenant_bytes_per_branch=512)
    batches = _random_batches(_PARITY_TRACES[name](), seed=len(name))

    async def run():
        async with SpeculationService(bench_config, scfg) as svc:
            for batch in batches:
                while True:
                    try:
                        svc.submit_nowait(batch)
                        break
                    except BackpressureError:
                        await svc.drain()
            await svc.drain()
            return (svc.detector.health_doc()["time_to_evict"],
                    svc.tenant_stats())

    doc, tenant_stats = asyncio.run(run())
    want = ref.doc()
    assert want["count"] > 0
    assert doc == want
    assert list(doc["last"]) == list(want["last"])
    if spill:
        assert tenant_stats["spills"] > 0 and tenant_stats["restores"] > 0
