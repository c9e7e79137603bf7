"""Strided monitors and eviction by sampling resolve columnar, exactly.

These are the two Table 4 variants whose windows are offset-dependent
(``monitor_sample_stride > 1``) or carry state across events
(``evict_by_sampling``).  The columnar engine resolves both inside its
split/advance/fire rounds; the tests here hold it to both references
at once — the per-event scalar spec (``ControllerBank.observe``) and the
offline whole-trace engine (``run_vector``) — under random batch splits, sample windows straddling batch boundaries,
landings that reset a window mid-batch and snapshot/restore mid-window.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import (
    SENSITIVITY_VARIANTS,
    ControllerConfig,
    scaled_config,
)
from repro.core.controller import ControllerBank
from repro.obs.tracing import ARC_CODE
from repro.serve.shard import BankShard
from repro.sim.summary import summarize_bank
from repro.sim.vector import run_vector
from repro.trace.stream import Trace
from repro.trace.synthetic import slow_poison_trace, train_then_flip_trace


def _trace(pcs, taken, instrs) -> Trace:
    return Trace(name="t", input_name="t",
                 branch_ids=np.asarray(pcs, dtype=np.int32),
                 taken=np.asarray(taken, dtype=bool),
                 instrs=np.asarray(instrs, dtype=np.int64))


def _deployed(bank: ControllerBank, pcs) -> dict[int, bool]:
    """Deployed-code view of ``pcs`` (an unseen branch is unoptimized)."""
    return {pc: pc in bank and bank.controller(pc).deployed for pc in pcs}


def _scalar(config, trace, bounds):
    """Per-event spec: final bank plus per-batch deltas — ``(correct,
    incorrect, net deployed-view flips, instruction high-water mark)``."""
    bank = ControllerBank(config)
    deltas = []
    for lo, hi in bounds:
        touched = set(trace.branch_ids[lo:hi].tolist())
        before = _deployed(bank, touched)
        c = x = 0
        for j in range(lo, hi):
            out = bank.observe(int(trace.branch_ids[j]),
                               bool(trace.taken[j]), int(trace.instrs[j]))
            if out.speculated:
                c += out.correct
                x += not out.correct
        after = _deployed(bank, touched)
        flips = {pc: d for pc, d in after.items() if d != before[pc]}
        deltas.append((c, x, flips, int(trace.instrs[hi - 1])))
    return bank, deltas


def _drive(shard: BankShard, trace, bounds):
    shard.capture = True
    deltas, fired = [], []
    for lo, hi in bounds:
        res = shard.apply(trace.branch_ids[lo:hi], trace.taken[lo:hi],
                          trace.instrs[lo:hi])
        assert res.events == hi - lo
        deltas.append((res.correct, res.incorrect,
                       dict(zip(res.changed, res.changed_deployed)),
                       res.last_instr))
        fired.extend(res.transitions)
    return deltas, fired


def assert_three_engine_parity(config, trace, bounds,
                               restore_after: int | None = None):
    """Columnar == scalar spec == run_vector, bit for bit.

    With ``restore_after`` the columnar shard is exported after that
    many batches and the rest runs on a shard restored from the export.
    """
    ref_bank, ref_deltas = _scalar(config, trace, bounds)
    col = BankShard(0, config)
    if restore_after is None:
        deltas, fired = _drive(col, trace, bounds)
    else:
        deltas, fired = _drive(col, trace, bounds[:restore_after])
        col = BankShard.from_state(config, col.export_state())
        more, more_fired = _drive(col, trace, bounds[restore_after:])
        deltas += more
        fired += more_fired
    assert deltas == ref_deltas
    # State: every counter, window tally, pending landing, transition.
    assert col.export_state()["bank"] == ref_bank.export_state()
    # Captured arc stream, in the service's (pc, code, exec, instr) form.
    spec_arcs = sorted((c.branch, ARC_CODE[t.kind.value], t.exec_index,
                        t.instr) for c in ref_bank for t in c.transitions)
    if restore_after is None:
        assert sorted(fired) == spec_arcs
    # Decisions: the deployed-code view of every branch.
    assert col.decisions == {c.branch: c.deployed for c in ref_bank}
    # The offline engine sees each branch's whole future at once.
    correct = sum(d[0] for d in ref_deltas)
    incorrect = sum(d[1] for d in ref_deltas)
    spec = summarize_bank(trace.name, trace.input_name, config, ref_bank,
                          len(trace), correct, incorrect,
                          trace.total_instructions)
    vec = run_vector(trace, config)
    assert vec.metrics == spec.metrics
    assert vec.branches == spec.branches
    return col


def _splits(n: int, cuts) -> list[tuple[int, int]]:
    edges = [0, *sorted({c for c in cuts if 0 < c < n}), n]
    return list(zip(edges[:-1], edges[1:]))


def _flipping(n_events: int, n_branches: int, seed: int, noise: float):
    """Interleaved events whose per-branch biases flip on short phases,
    so selections, landings, sample completions and evictions fall
    inside batches."""
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, n_branches, n_events)
    flip = rng.integers(6, 40, n_branches)
    count = np.zeros(n_branches, dtype=np.int64)
    taken = np.zeros(n_events, dtype=bool)
    miss = rng.uniform(size=n_events) < noise
    for i in range(n_events):
        b = pcs[i]
        taken[i] = ((count[b] // flip[b]) % 2 == 0) != miss[i]
        count[b] += 1
    instrs = np.cumsum(rng.integers(1, 9, n_events))
    return _trace(pcs, taken, instrs)


_BASE = dict(monitor_period=6, selection_threshold=0.75,
             evict_counter_max=100, misspec_increment=50,
             correct_decrement=1, revisit_period=9, oscillation_limit=3)

config_strategy = st.one_of(
    st.builds(lambda stride, lat, revisit, evict: ControllerConfig(
        **_BASE | dict(monitor_sample_stride=stride,
                       optimization_latency=lat,
                       revisit_enabled=revisit,
                       eviction_enabled=evict)),
        st.sampled_from([2, 3, 8]), st.sampled_from([0, 10, 60]),
        st.booleans(), st.booleans()),
    st.builds(lambda period_len, thr, lat, stride: ControllerConfig(
        **_BASE | dict(evict_by_sampling=True,
                       evict_sample_period=period_len[0],
                       evict_sample_len=period_len[1],
                       evict_bias_threshold=thr,
                       optimization_latency=lat,
                       monitor_sample_stride=stride)),
        st.sampled_from([(3, 1), (4, 4), (7, 3), (12, 5)]),
        st.sampled_from([0.6, 0.75, 1.0]), st.sampled_from([0, 10, 60]),
        st.sampled_from([1, 3])),
)


@settings(max_examples=150, deadline=None)
@given(config=config_strategy, seed=st.integers(0, 10_000),
       n_branches=st.integers(2, 9), noise=st.sampled_from([0.0, 0.1]),
       cuts=st.lists(st.integers(1, 1_499), max_size=40))
def test_three_engine_parity_under_random_splits(config, seed, n_branches,
                                                 noise, cuts):
    trace = _flipping(1_500, n_branches, seed, noise)
    assert_three_engine_parity(config, trace, _splits(len(trace), cuts))


@settings(max_examples=60, deadline=None)
@given(config=config_strategy, seed=st.integers(0, 10_000),
       cuts=st.lists(st.integers(1, 799), min_size=1, max_size=12),
       at=st.integers(0, 12))
def test_three_engine_parity_across_snapshot_restore(config, seed, cuts, at):
    trace = _flipping(800, 5, seed, 0.1)
    bounds = _splits(len(trace), cuts)
    assert_three_engine_parity(config, trace, bounds,
                               restore_after=min(at, len(bounds)))


#: Two branches: branch 0 is the subject, branch 1 a perfectly biased
#: filler that keeps every batch multi-branch (columnar).
SAMPLING = ControllerConfig(
    **_BASE | dict(optimization_latency=0, evict_by_sampling=True,
                   evict_sample_period=10, evict_sample_len=6,
                   evict_bias_threshold=0.8))


def _two_branch(subject: list[bool]) -> Trace:
    pcs = np.tile([0, 1], len(subject))
    taken = np.ones(2 * len(subject), dtype=bool)
    taken[0::2] = subject
    return _trace(pcs, taken, np.arange(1, len(pcs) + 1) * 4)


def _window_at(config, trace, hi):
    bank, _ = _scalar(config, trace, [(0, hi)])
    ctrl = bank.controller(0)
    return ctrl._episode_active, ctrl._window_pos, ctrl._window_correct


def test_sample_straddling_a_batch_boundary_evicts_on_carried_misses():
    """Misses early in a sample (batch 1), a perfect remainder (batch 2):
    the completion in batch 2 must still evict on the carried tally."""
    # Monitor 6 taken -> SELECT at exec 5; lands before exec 6.  The
    # sample is execs 6..11: two misses, then four hits -> 4/6 < 0.8.
    subject = [True] * 6 + [False, False] + [True] * 30
    trace = _two_branch(subject)
    cut = 2 * 9  # after subject exec 8: mid-sample, both misses in
    engaged, pos, tally = _window_at(SAMPLING, trace, cut)
    assert engaged and 0 < pos < SAMPLING.evict_sample_len and tally < pos
    # Batch 2 holds no miss of the subject at all.
    assert trace.taken[cut::2].all()
    col = assert_three_engine_parity(SAMPLING, trace,
                                     [(0, cut), (cut, len(trace))])
    assert col.bank.controller(0).evictions == 1
    assert col.col.stats()["events_fast"] == len(trace)


@pytest.mark.parametrize("cut", range(2, 60, 2))
def test_every_split_of_a_select_evict_reselect_cycle(cut):
    """A landing resets the previous episode's stale window mid-batch;
    every split point of the cycle stays exact."""
    subject = ([True] * 6 + [False] * 6 + [True] * 6
               + [False, True, True, False, True, True] + [True] * 6)
    trace = _two_branch(subject)
    # The second episode's landing finds the first's leftover window.
    bank, _ = _scalar(SAMPLING, trace, [(0, len(trace))])
    assert bank.controller(0).evictions == 2
    assert_three_engine_parity(SAMPLING, trace,
                               [(0, cut), (cut, len(trace))])


def test_snapshot_mid_window_restores_exactly():
    subject = [True] * 6 + [False] + [True] * 20 + [False] * 4 + [True] * 9
    trace = _two_branch(subject)
    cut = 2 * 9
    engaged, pos, tally = _window_at(SAMPLING, trace, cut)
    assert engaged and 0 < pos < SAMPLING.evict_sample_len
    col = BankShard(0, SAMPLING)
    col.apply(trace.branch_ids[:cut], trace.taken[:cut], trace.instrs[:cut])
    state = col.export_state()
    mid = next(s for s in state["bank"] if s["branch"] == 0)
    assert (mid["window_pos"], mid["window_correct"]) == (pos, tally)
    assert_three_engine_parity(SAMPLING, trace,
                               [(0, cut), (cut, len(trace))],
                               restore_after=1)


def _adversarial(kind: str, n_branches: int = 64):
    length = int(1.5 * 1_024 * n_branches)
    if kind == "train-then-flip":
        return train_then_flip_trace(n_branches, flip_at=1_024,
                                     length=length, seed=3)
    base = scaled_config()
    return slow_poison_trace(n_branches, train_for=1_024, length=length,
                             misspec_increment=base.misspec_increment,
                             correct_decrement=base.correct_decrement,
                             seed=4)


@pytest.mark.parametrize("variant", ["eviction by sampling",
                                     "sampling in monitor"])
@pytest.mark.parametrize("kind", ["train-then-flip", "slow-poison"])
def test_no_fallback_on_adversarial_traffic(kind, variant):
    """Regression: both sampling variants stay columnar on the
    boundary-dense traces, and still agree with the offline spec."""
    config = SENSITIVITY_VARIANTS()[variant]
    trace = _adversarial(kind)
    shard = BankShard(0, config)
    shard.capture = True
    arcs: dict[int, int] = {}
    for lo in range(0, len(trace), 8_192):
        hi = lo + 8_192
        res = shard.apply(trace.branch_ids[lo:hi], trace.taken[lo:hi],
                          trace.instrs[lo:hi])
        for _pc, code, _e, _i in res.transitions:
            arcs[code] = arcs.get(code, 0) + 1
    stats = shard.col.stats()
    assert stats["events_fallback"] == 0
    assert stats["rows_fallback"] == 0
    assert stats["events_fast"] == len(trace)
    vec = run_vector(trace, config)
    assert ((shard.correct, shard.incorrect)
            == (vec.metrics.correct, vec.metrics.incorrect))
    offline: dict[int, int] = {}
    for b in vec.branches:
        for t in b.transitions:
            code = ARC_CODE[t.kind.value]
            offline[code] = offline.get(code, 0) + 1
    assert arcs == offline
    if kind == "train-then-flip" and variant == "eviction by sampling":
        assert arcs[ARC_CODE["evict"]] == 64


# -- strided monitors under every batch size -----------------------------

STRIDED = {
    "stride 3": ControllerConfig(**_BASE | dict(monitor_sample_stride=3,
                                               optimization_latency=10)),
    "stride 8": ControllerConfig(**_BASE | dict(monitor_sample_stride=8,
                                               optimization_latency=60)),
    "sampling in monitor": SENSITIVITY_VARIANTS()["sampling in monitor"],
}


def _strided_trace(name: str) -> Trace:
    if name == "sampling in monitor":
        return train_then_flip_trace(24, flip_at=1_024,
                                     length=int(1.5 * 1_024 * 24), seed=5)
    return _flipping(36_000, 9, seed=len(name), noise=0.1)


def _tte_reference(config, trace) -> list[tuple[int, int]]:
    """Time-to-evict samples by their definition, from the per-event
    spec: a SELECT trains the direction it deployed, the branch's first
    later outcome against it is the onset, and its EVICT yields
    ``exec_index - onset``."""
    bank = ControllerBank(config)
    watch: dict[int, list] = {}   # pc -> [trained direction, onset]
    samples = []
    for pc, t, instr in zip(trace.branch_ids.tolist(), trace.taken.tolist(),
                            trace.instrs.tolist()):
        ctrl = bank.controller(pc)
        state = watch.get(pc)
        if state is not None and state[1] is None and t != state[0]:
            state[1] = ctrl.exec_count
        seen = len(ctrl.transitions)
        bank.observe(pc, t, instr)
        for tr in ctrl.transitions[seen:]:
            if tr.kind.value == "select":
                watch[pc] = [ctrl._pending[-1][2], None]
            elif tr.kind.value == "evict":
                state = watch.pop(pc)
                samples.append((pc, tr.exec_index - state[1]))
    return sorted(samples)


@pytest.mark.parametrize("name", list(STRIDED))
def test_strided_monitor_exact_under_every_batch_size(name):
    """Strided monitors take their tally from per-residue prefix sums:
    state, arc stream and time-to-evict samples stay exact from
    one-event batches to one whole-trace batch.  Large batches start
    at every residue mod the stride (a short first batch shifts them);
    7 is coprime to 3 and 8, so 7-event batches cycle through every
    residue on their own."""
    config = STRIDED[name]
    trace = _strided_trace(name)
    n = len(trace)
    assert n > 32_768
    spec, _ = _scalar(config, trace, [(0, n)])
    want_state = spec.export_state()
    want_tte = _tte_reference(config, trace)
    assert want_tte
    vec = run_vector(trace, config)
    want_arcs = sorted((b.branch, ARC_CODE[t.kind.value], t.exec_index,
                        t.instr) for b in vec.branches for t in b.transitions)
    assert want_arcs
    splits = [(size, 0) for size in (1, 7)]
    splits += [(size, r) for size in (8_192, 32_768, n)
               for r in range(config.monitor_sample_stride)]
    for size, first in splits:
        bounds = _splits(n, [first, *range(first + size, n, size)])
        shard = BankShard(0, config)
        shard.capture = True
        arcs, tte = [], []
        for lo, hi in bounds:
            res = shard.apply(trace.branch_ids[lo:hi], trace.taken[lo:hi],
                              trace.instrs[lo:hi])
            arcs.extend(res.transitions)
            tte.extend(res.tte)
        where = f"{name}: {size}-event batches after {first}"
        assert shard.export_state()["bank"] == want_state, where
        assert sorted(arcs) == want_arcs, where
        assert sorted(tte) == want_tte, where
        assert ((shard.correct, shard.incorrect)
                == (vec.metrics.correct, vec.metrics.incorrect)), where
