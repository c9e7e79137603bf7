"""The columnar cross-branch fast path must be bit-exact.

Property tests drive random interleaved multi-branch batches through
three engines — per-event scalar ``observe``, the per-PC chunk loop
(``columnar=False``), and the columnar path (``columnar=True``) — and
require bit-identical ``export_state()`` plus identical per-batch
``(correct, incorrect)`` deltas and result metadata, across every
config family including eviction-by-sampling, monitor-sampling stride
and long-latency pending landings.  Plus the regression/edge cases
the refactor introduced: empty batches, pre-sorted batch detection,
fast-path engagement, and snapshot round-trips across engines.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.config import scaled_config
from repro.core.controller import ControllerBank
from repro.serve.events import EventBatch
from repro.serve.service import ServiceConfig, SpeculationService
from repro.serve.shard import BankShard, ShardedBank

from .test_fastpath import CONFIGS


def _interleaved(n_events: int, n_branches: int, seed: int):
    """Random interleaved multi-branch events in program order.

    Biases are drawn bimodal — most branches heavily biased (so
    selection fires and the steady state is columnar-eligible), the
    rest fair (so REJECT/REVISIT traffic exists too).
    """
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, n_branches, n_events).astype(np.int32)
    biased = rng.uniform(size=n_branches) < 0.7
    bias = np.where(biased, rng.uniform(0.9, 1.0, n_branches),
                    rng.uniform(0.3, 0.7, n_branches))
    flip = rng.uniform(size=n_branches) < 0.5
    bias = np.where(flip, 1.0 - bias, bias)
    taken = rng.uniform(size=n_events) < bias[pcs]
    instrs = np.cumsum(rng.integers(1, 9, n_events)).astype(np.int64)
    return pcs, taken, instrs


def _batch_bounds(n: int, rng) -> list[tuple[int, int]]:
    cuts = [0]
    while cuts[-1] < n:
        cuts.append(min(n, cuts[-1] + int(rng.integers(1, 120))))
    return list(zip(cuts[:-1], cuts[1:]))


def _scalar_deltas(config, pcs, taken, instrs, bounds):
    """Per-batch (correct, incorrect) via per-event observe()."""
    bank = ControllerBank(config)
    deltas = []
    for lo, hi in bounds:
        c = x = 0
        for j in range(lo, hi):
            out = bank.observe(int(pcs[j]), bool(taken[j]), int(instrs[j]))
            if out.speculated:
                c += out.correct
                x += not out.correct
        deltas.append((c, x))
    return bank, deltas


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [0, 1])
def test_columnar_equals_chunked_equals_scalar(config_name, seed):
    config = CONFIGS[config_name]
    pcs, taken, instrs = _interleaved(4_000, 23, seed)
    rng = np.random.default_rng(seed + 77)
    bounds = _batch_bounds(len(pcs), rng)
    ref_bank, ref_deltas = _scalar_deltas(config, pcs, taken, instrs, bounds)
    col = BankShard(0, config, columnar=True)
    loop = BankShard(0, config, columnar=False)
    col.capture = loop.capture = True
    for (lo, hi), (ref_c, ref_x) in zip(bounds, ref_deltas):
        rc = col.apply(pcs[lo:hi], taken[lo:hi], instrs[lo:hi])
        rl = loop.apply(pcs[lo:hi], taken[lo:hi], instrs[lo:hi])
        assert (rc.correct, rc.incorrect) == (ref_c, ref_x)
        assert (rl.correct, rl.incorrect) == (ref_c, ref_x)
        assert rc.events == rl.events
        assert rc.last_instr == rl.last_instr
        assert sorted(rc.changed) == sorted(rl.changed)
        assert (dict(zip(rc.changed, rc.changed_deployed))
                == dict(zip(rl.changed, rl.changed_deployed)))
        assert sorted(rc.transitions) == sorted(rl.transitions)
    # Full state parity, down to every pending landing and transition.
    assert col.export_state() == loop.export_state()
    assert (col.export_state()["bank"]
            == sorted(ref_bank.export_state(),
                      key=lambda s: s["branch"]))
    assert col.decisions == loop.decisions


@pytest.mark.parametrize("seed", [3, 4])
def test_columnar_equals_chunked_on_wide_random_trace(seed,
                                                      random_trace_fn):
    """ShardedBank-level parity on an adversarial wide trace."""
    config = scaled_config()
    trace = random_trace_fn(30_000, 700, seed)
    col = ShardedBank(config, 4, columnar=True)
    loop = ShardedBank(config, 4, columnar=False)
    for lo in range(0, len(trace), 7_000):
        batch = EventBatch(seq=lo, pcs=trace.branch_ids[lo:lo + 7_000],
                           taken=trace.taken[lo:lo + 7_000],
                           instrs=trace.instrs[lo:lo + 7_000])
        col.apply_batch(batch)
        loop.apply_batch(batch)
    assert col.metrics() == loop.metrics()
    assert col.export_state() == loop.export_state()


def test_fast_path_engages_on_steady_state():
    """A wide, heavily-biased workload must mostly bypass Python."""
    config = scaled_config()
    rng = np.random.default_rng(9)
    n_branches, n_events = 512, 200_000
    pcs = rng.integers(0, n_branches, n_events).astype(np.int32)
    taken = rng.uniform(size=n_events) < 0.999   # near-always taken
    instrs = np.cumsum(rng.integers(1, 4, n_events)).astype(np.int64)
    shard = BankShard(0, config, columnar=True)
    for lo in range(0, n_events, 8_192):
        shard.apply(pcs[lo:lo + 8_192], taken[lo:lo + 8_192],
                    instrs[lo:lo + 8_192])
    stats = shard.col.stats()
    assert stats["rows"] == n_branches
    assert stats["rows_fast"] > 0
    # Monitor classify and deployment landings force some fallback
    # early on, but the steady state must dominate.
    assert stats["events_fast"] > 0.8 * n_events
    # And the work must still be exact.
    loop = BankShard(0, config, columnar=False)
    for lo in range(0, n_events, 8_192):
        loop.apply(pcs[lo:lo + 8_192], taken[lo:lo + 8_192],
                   instrs[lo:lo + 8_192])
    assert shard.export_state() == loop.export_state()


def _boundary_dense(n_events: int, n_branches: int, seed: int):
    """Interleaved events whose biases flip on short per-branch phases.

    Short flip periods put classify fires (both directions), revisits,
    landings and mid-segment eviction walks *inside* nearly every
    batch segment — the traffic the boundary-resolution loop exists
    for (steady-state traces barely exercise it).
    """
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, n_branches, n_events).astype(np.int32)
    flip = rng.integers(5, 60, n_branches)
    noise = rng.uniform(size=n_events) < 0.05
    count = np.zeros(n_branches, dtype=np.int64)
    taken = np.zeros(n_events, dtype=bool)
    for i in range(n_events):
        b = pcs[i]
        phase = (count[b] // flip[b]) % 2 == 0
        taken[i] = phase != noise[i]
        count[b] += 1
    instrs = np.cumsum(rng.integers(1, 9, n_events)).astype(np.int64)
    return pcs, taken, instrs


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [0, 1])
def test_boundary_dense_three_engine_parity(config_name, seed):
    """Bit-exactness where arcs fire *inside* segments, for every
    config family: classify both directions, revisit re-entry,
    latency landings and counter evictions mid-segment."""
    config = CONFIGS[config_name]
    pcs, taken, instrs = _boundary_dense(5_000, 11, seed)
    rng = np.random.default_rng(seed + 31)
    bounds = _batch_bounds(len(pcs), rng)
    ref_bank, ref_deltas = _scalar_deltas(config, pcs, taken, instrs, bounds)
    col = BankShard(0, config, columnar=True)
    loop = BankShard(0, config, columnar=False)
    col.capture = loop.capture = True
    col_trans: list = []
    loop_trans: list = []
    for (lo, hi), (ref_c, ref_x) in zip(bounds, ref_deltas):
        rc = col.apply(pcs[lo:hi], taken[lo:hi], instrs[lo:hi])
        rl = loop.apply(pcs[lo:hi], taken[lo:hi], instrs[lo:hi])
        assert (rc.correct, rc.incorrect) == (ref_c, ref_x)
        assert (rl.correct, rl.incorrect) == (ref_c, ref_x)
        assert sorted(rc.changed) == sorted(rl.changed)
        assert (dict(zip(rc.changed, rc.changed_deployed))
                == dict(zip(rl.changed, rl.changed_deployed)))
        col_trans.extend(rc.transitions)
        loop_trans.extend(rl.transitions)
    # The captured arc stream matches event-for-event (order within a
    # batch may interleave differently across branches; per-branch
    # streams are identical, so the sorted streams are equal).
    assert sorted(col_trans) == sorted(loop_trans)
    assert col.export_state() == loop.export_state()
    assert (col.export_state()["bank"]
            == sorted(ref_bank.export_state(),
                      key=lambda s: s["branch"]))
    assert col.decisions == loop.decisions


def test_events_fallback_near_zero_on_train_then_flip():
    """Regression: the boundary loop keeps adversarial evict-heavy
    traffic columnar — no per-row scalar fallbacks at stride 1 with
    counter eviction."""
    from repro.trace.synthetic import train_then_flip_trace

    config = scaled_config()
    trace = train_then_flip_trace(n_branches=64, flip_at=700, seed=2)
    shard = BankShard(0, config, columnar=True)
    loop = BankShard(0, config, columnar=False)
    for lo in range(0, len(trace), 8_192):
        hi = lo + 8_192
        shard.apply(trace.branch_ids[lo:hi], trace.taken[lo:hi],
                    trace.instrs[lo:hi])
        loop.apply(trace.branch_ids[lo:hi], trace.taken[lo:hi],
                   trace.instrs[lo:hi])
    stats = shard.col.stats()
    assert stats["events_fallback"] == 0
    assert stats["rows_fallback"] == 0
    assert stats["events_fast"] == len(trace)
    # The trace actually drove the arcs the loop resolves: every
    # branch selected, suffered the flip, and evicted.
    assert stats["arcs_fast"] >= 64 * 2
    assert stats["lands_fast"] >= 64 * 2
    state = shard.export_state()
    assert all(s["evictions"] >= 1 for s in state["bank"])
    assert state == loop.export_state()


def test_stats_split_single_vs_fallback():
    """Single-branch batches are counted apart from true fallbacks."""
    config = CONFIGS["tiny"]
    shard = BankShard(0, config, columnar=True)
    one = np.full(50, 7, dtype=np.int32)
    taken = np.ones(50, dtype=bool)
    instrs = np.arange(1, 51, dtype=np.int64) * 8
    res = shard.apply(one, taken, instrs)
    stats = shard.col.stats()
    assert stats["rows_single"] == 1
    assert stats["events_single"] == 50
    assert stats["rows_fallback"] == 0
    assert stats["events_fallback"] == 0
    assert (res.col_fast, res.col_fallback, res.col_single) == (0, 0, 50)
    # A strided-monitor config resolves multi-branch batches in the
    # columnar rounds: no fallback, and none counted as single either.
    strided = BankShard(0, CONFIGS["tiny-stride"], columnar=True)
    pcs = np.tile(np.array([1, 2], dtype=np.int32), 25)
    res = strided.apply(pcs, taken, instrs)
    stats = strided.col.stats()
    assert stats["rows_fast"] == 2
    assert stats["events_fast"] == 50
    assert stats["rows_fallback"] == 0
    assert stats["events_fallback"] == 0
    assert stats["rows_single"] == 0
    assert (res.col_fast, res.col_fallback, res.col_single) == (50, 0, 0)
    # The loop engine reports no columnar routing at all.
    plain = BankShard(0, config, columnar=False)
    res = plain.apply(pcs, taken, instrs)
    assert (res.col_fast, res.col_fallback, res.col_single) == (0, 0, 0)


def test_apply_result_routing_covers_every_event():
    """fast + fallback + single always adds up to the batch size."""
    config = CONFIGS["tiny-latency"]
    pcs, taken, instrs = _boundary_dense(3_000, 9, 6)
    shard = BankShard(0, config, columnar=True)
    rng = np.random.default_rng(8)
    for lo, hi in _batch_bounds(len(pcs), rng):
        res = shard.apply(pcs[lo:hi], taken[lo:hi], instrs[lo:hi])
        assert (res.col_fast + res.col_fallback + res.col_single
                == res.events)


def test_empty_batch_is_a_noop():
    """Regression: apply([]) used to raise IndexError on instrs[-1]."""
    shard = BankShard(0, scaled_config())
    empty = np.empty(0, dtype=np.int64)
    for capture in (False, True):
        shard.capture = capture
        res = shard.apply(empty.astype(np.int32), empty.astype(bool), empty)
        assert res.events == 0
        assert (res.correct, res.incorrect) == (0, 0)
        assert res.changed == ()
        assert res.last_instr == shard.last_instr
    assert shard.events_applied == 0
    # And a real batch afterwards still works.
    shard.apply(np.array([7], dtype=np.int32), np.array([True]),
                np.array([10], dtype=np.int64))
    assert shard.events_applied == 1


def test_presorted_batch_skips_the_argsort(monkeypatch):
    """PC-grouped batches must not pay the sort, and stay exact."""
    config = CONFIGS["tiny"]
    pcs = np.repeat(np.array([3, 5, 9], dtype=np.int32), 40)
    rng = np.random.default_rng(1)
    taken = rng.uniform(size=len(pcs)) < 0.9
    instrs = np.cumsum(rng.integers(1, 5, len(pcs))).astype(np.int64)
    reference = BankShard(0, config, columnar=False)
    ref = reference.apply(pcs, taken, instrs)

    real_argsort = np.argsort

    def boom(*a, **k):
        # The batch sort is the only stable argsort in the apply path
        # (colpath's intern-index rebuild sorts unique PCs, unstably).
        if k.get("kind") == "stable":  # pragma: no cover - failure path
            raise AssertionError("argsort called for a pre-sorted batch")
        return real_argsort(*a, **k)

    monkeypatch.setattr("repro.serve.shard.np.argsort", boom)
    for columnar in (False, True):
        shard = BankShard(0, config, columnar=columnar)
        res = shard.apply(pcs, taken, instrs)
        assert (res.correct, res.incorrect) == (ref.correct, ref.incorrect)
        assert shard.export_state() == reference.export_state()
        # Single-PC batches take the same skip.
        one = shard.apply(np.array([3, 3], dtype=np.int32),
                          np.array([True, True]),
                          instrs[-1] + np.array([5, 9], dtype=np.int64))
        assert one.events == 2


def test_controller_accessor_reads_flushed_state():
    """bank.controller(pc) must never expose stale hot fields."""
    config = scaled_config()
    bank = ShardedBank(config, 2, columnar=True)
    pcs, taken, instrs = _interleaved(20_000, 64, 5)
    bank.apply_batch(EventBatch(seq=0, pcs=pcs, taken=taken, instrs=instrs))
    loop = ShardedBank(config, 2, columnar=False)
    loop.apply_batch(EventBatch(seq=0, pcs=pcs, taken=taken, instrs=instrs))
    for pc in range(64):
        assert (bank.controller(pc).export_state()
                == loop.controller(pc).export_state())


def test_bank_snapshot_roundtrip_across_engines():
    """State exported columnar restores exactly onto either engine."""
    config = CONFIGS["tiny-latency"]
    pcs, taken, instrs = _interleaved(6_000, 40, 11)
    half = len(pcs) // 2
    col = ShardedBank(config, 3, columnar=True)
    col.apply_batch(EventBatch(seq=0, pcs=pcs[:half], taken=taken[:half],
                               instrs=instrs[:half]))
    state = col.export_state()
    resumed_loop = ShardedBank.from_state(config, state, columnar=False)
    resumed_col = ShardedBank.from_state(config, state, columnar=True)
    tail = EventBatch(seq=1, pcs=pcs[half:], taken=taken[half:],
                      instrs=instrs[half:])
    col.apply_batch(tail)
    resumed_loop.apply_batch(tail)
    resumed_col.apply_batch(tail)
    assert resumed_loop.export_state() == col.export_state()
    assert resumed_col.export_state() == col.export_state()


def test_service_snapshot_roundtrip_with_no_columnar(tmp_path, bench_trace):
    """Service-level: snapshot from a columnar run restores bit-exactly
    under ``--no-columnar`` (and vice versa), format version >= 5."""
    from repro.serve.snapshot import FORMAT_VERSION, load_snapshot

    assert FORMAT_VERSION >= 5
    half = len(bench_trace) // 2

    def batches(lo, hi, base_seq):
        for i, s in enumerate(range(lo, hi, 4_096)):
            e = min(hi, s + 4_096)
            yield EventBatch(seq=base_seq + i,
                             pcs=bench_trace.branch_ids[s:e],
                             taken=bench_trace.taken[s:e],
                             instrs=bench_trace.instrs[s:e])

    async def first_half():
        service = SpeculationService(
            service_config=ServiceConfig(n_shards=2, columnar=True))
        async with service:
            for b in batches(0, half, 0):
                await service.submit(b)
            await service.drain()
            return await service.snapshot(tmp_path / "snap.json.gz")

    async def finish(service):
        async with service:
            for b in batches(half, len(bench_trace),
                             service.last_seq + 1):
                await service.submit(b)
            await service.drain()
            return service.metrics(), service.bank.export_state()

    path = asyncio.run(first_half())
    on = load_snapshot(path)
    off = load_snapshot(path, columnar=False)
    assert on.service_config.columnar is True
    assert off.service_config.columnar is False
    assert not any(s.columnar for s in off.bank.shards)
    m_on, s_on = asyncio.run(finish(on))
    m_off, s_off = asyncio.run(finish(off))
    assert m_on == m_off
    assert s_on == s_off
