"""The columnar cross-branch engine must be bit-exact.

Property tests drive random interleaved multi-branch batches through
the columnar engine and hold it to both references at once — the
per-event scalar spec (``ControllerBank.observe``) and the offline
whole-trace engine (``run_vector``): bit-identical ``export_state()``,
captured transition streams, decisions and per-batch ``(correct,
incorrect)`` deltas and result metadata, across every config family
including eviction-by-sampling, monitor-sampling stride and
long-latency pending landings.  Plus the regression/edge cases the
engine introduced: empty batches, pre-sorted batch detection and
fast-path engagement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import scaled_config
from repro.core.controller import ControllerBank
from repro.serve.events import EventBatch
from repro.serve.shard import BankShard, ShardedBank
from repro.sim.summary import summarize_bank
from repro.sim.vector import run_vector

from .test_colpath_sampling import _scalar, _trace, assert_three_engine_parity
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


def _assert_matches_references(banks, trace, config):
    """Shards that applied all of ``trace`` hold exactly the scalar
    spec's controller states and summarize to exactly ``run_vector``'s
    result: metrics and per-branch summaries, transitions included."""
    bank = ControllerBank(config)
    for shard in banks:
        shard.export_state()   # flush the columnar rows
        bank._controllers.update(shard.bank._controllers)
    spec, _ = _scalar(config, trace, [(0, len(trace))])
    assert bank.export_state() == spec.export_state()
    live = summarize_bank(
        trace.name, trace.input_name, config, bank,
        sum(s.events_applied for s in banks),
        sum(s.correct for s in banks), sum(s.incorrect for s in banks),
        max(s.last_instr for s in banks))
    vec = run_vector(trace, config)
    assert live.metrics == vec.metrics
    assert live.branches == vec.branches


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [0, 1])
def test_columnar_equals_chunked_equals_scalar(config_name, seed):
    """Columnar == scalar spec == run_vector on interleaved traffic
    applied in random batch splits."""
    trace = _trace(*_interleaved(4_000, 23, seed))
    rng = np.random.default_rng(seed + 77)
    assert_three_engine_parity(CONFIGS[config_name], trace,
                               _batch_bounds(len(trace), rng))


@pytest.mark.parametrize("seed", [3, 4])
def test_columnar_equals_chunked_on_wide_random_trace(seed,
                                                      random_trace_fn):
    """ShardedBank-level parity with run_vector on a wide trace."""
    config = scaled_config()
    trace = random_trace_fn(30_000, 700, seed)
    bank = ShardedBank(config, 4)
    for lo in range(0, len(trace), 7_000):
        bank.apply_batch(EventBatch(
            seq=lo, pcs=trace.branch_ids[lo:lo + 7_000],
            taken=trace.taken[lo:lo + 7_000],
            instrs=trace.instrs[lo:lo + 7_000]))
    assert bank.metrics() == run_vector(trace, config).metrics
    _assert_matches_references(bank.shards, trace, config)


def test_fast_path_engages_on_steady_state():
    """A wide, heavily-biased workload must mostly bypass Python."""
    config = scaled_config()
    rng = np.random.default_rng(9)
    n_branches, n_events = 512, 200_000
    pcs = rng.integers(0, n_branches, n_events).astype(np.int32)
    taken = rng.uniform(size=n_events) < 0.999   # near-always taken
    instrs = np.cumsum(rng.integers(1, 4, n_events)).astype(np.int64)
    shard = BankShard(0, config)
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
    _assert_matches_references([shard], _trace(pcs, taken, instrs), config)


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
    trace = _trace(*_boundary_dense(5_000, 11, seed))
    rng = np.random.default_rng(seed + 31)
    assert_three_engine_parity(CONFIGS[config_name], trace,
                               _batch_bounds(len(trace), rng))


def test_events_fallback_near_zero_on_train_then_flip():
    """Regression: the boundary loop keeps adversarial evict-heavy
    traffic columnar — no per-row scalar fallbacks at stride 1 with
    counter eviction."""
    from repro.trace.synthetic import train_then_flip_trace

    config = scaled_config()
    trace = train_then_flip_trace(n_branches=64, flip_at=700, seed=2)
    shard = BankShard(0, config)
    for lo in range(0, len(trace), 8_192):
        hi = lo + 8_192
        shard.apply(trace.branch_ids[lo:hi], trace.taken[lo:hi],
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
    _assert_matches_references([shard], trace, config)


def test_stats_split_single_vs_fallback():
    """Single-branch batches are counted apart from true fallbacks."""
    config = CONFIGS["tiny"]
    shard = BankShard(0, config)
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
    strided = BankShard(0, CONFIGS["tiny-stride"])
    pcs = np.tile(np.array([1, 2], dtype=np.int32), 25)
    res = strided.apply(pcs, taken, instrs)
    stats = strided.col.stats()
    assert stats["rows_fast"] == 2
    assert stats["events_fast"] == 50
    assert stats["rows_fallback"] == 0
    assert stats["events_fallback"] == 0
    assert stats["rows_single"] == 0
    assert (res.col_fast, res.col_fallback, res.col_single) == (50, 0, 0)


def test_apply_result_routing_covers_every_event():
    """fast + fallback + single always adds up to the batch size."""
    config = CONFIGS["tiny-latency"]
    pcs, taken, instrs = _boundary_dense(3_000, 9, 6)
    shard = BankShard(0, config)
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
    ref_bank, [(ref_correct, ref_incorrect, _, _)] = _scalar(
        config, _trace(pcs, taken, instrs), [(0, len(pcs))])

    real_argsort = np.argsort

    def boom(*a, **k):
        # The batch sort is the only stable argsort in the apply path
        # (colpath's intern-index rebuild sorts unique PCs, unstably).
        if k.get("kind") == "stable":  # pragma: no cover - failure path
            raise AssertionError("argsort called for a pre-sorted batch")
        return real_argsort(*a, **k)

    monkeypatch.setattr("repro.serve.shard.np.argsort", boom)
    shard = BankShard(0, config)
    res = shard.apply(pcs, taken, instrs)
    assert (res.correct, res.incorrect) == (ref_correct, ref_incorrect)
    assert shard.export_state()["bank"] == ref_bank.export_state()
    # Single-PC batches take the same skip.
    one = shard.apply(np.array([3, 3], dtype=np.int32),
                      np.array([True, True]),
                      instrs[-1] + np.array([5, 9], dtype=np.int64))
    assert one.events == 2


def test_controller_accessor_reads_flushed_state():
    """bank.controller(pc) must never expose stale hot fields."""
    config = scaled_config()
    bank = ShardedBank(config, 2)
    pcs, taken, instrs = _interleaved(20_000, 64, 5)
    bank.apply_batch(EventBatch(seq=0, pcs=pcs, taken=taken, instrs=instrs))
    spec, _ = _scalar(config, _trace(pcs, taken, instrs), [(0, len(pcs))])
    for pc in range(64):
        assert (bank.controller(pc).export_state()
                == spec.controller(pc).export_state())


def test_landing_search_with_segments_spanning_the_batch():
    """The landing search rebases each segment's stamps onto one
    running offset.  Branches interleaved across the whole batch give
    every segment an instruction span near the batch's own, with
    stamps near 2**60 and gaps up to 2**40: the rebased key must stay
    exact (and in range) while landings fall mid-segment, including on
    a stamp equal to the landing stamp (gaps and latency are multiples
    of 2**37)."""
    from repro.core.config import ControllerConfig

    rng = np.random.default_rng(21)
    n = 6_000
    pcs = rng.integers(0, 6, n).astype(np.int32)
    taken = rng.uniform(size=n) < np.where(pcs < 4, 0.97, 0.5)[pcs]
    instrs = (1 << 60) + np.cumsum(rng.integers(1, 8, n) << 37)
    config = ControllerConfig(monitor_period=40, selection_threshold=0.9,
                              evict_counter_max=60, misspec_increment=20,
                              correct_decrement=1, revisit_period=90,
                              optimization_latency=24 << 37)
    trace = _trace(pcs, taken, instrs)
    col = assert_three_engine_parity(
        config, trace, [(0, 1_000), (1_000, 1_001), (1_001, n)])
    assert col.col.stats()["lands_fast"] > 10
    whole = BankShard(0, config)
    whole.apply(pcs, taken, instrs)
    assert whole.export_state()["bank"] == col.export_state()["bank"]


def test_scanned_events_do_not_grow_with_batch_size():
    """Per event applied, the engine gathers no more events one by one
    with one whole-trace batch than with 8,192-event batches: the
    eviction walk visits misses only, landings are a binary search and
    strided tallies a per-residue prefix sum."""
    from repro.trace.spec2000 import load_trace

    config = scaled_config()
    trace = load_trace("gcc", length=400_000)
    n = len(trace)
    vec = run_vector(trace, config).metrics
    scanned = {}
    for size in (8_192, n):
        shard = BankShard(0, config)
        for lo in range(0, n, size):
            shard.apply(trace.branch_ids[lo:lo + size],
                        trace.taken[lo:lo + size],
                        trace.instrs[lo:lo + size])
        assert ((shard.correct, shard.incorrect)
                == (vec.correct, vec.incorrect))
        scanned[size] = shard.col.stats()["events_scanned"] / n
    assert 0 < scanned[n] <= scanned[8_192]
