"""The shared FSM kernels against the scalar controller, event by event.

Every batch engine (``run_vector``, ``apply_chunk``, colpath) takes its
eviction, classify and landing arithmetic from
:mod:`repro.core.kernels`.  Each kernel is checked here on random
inputs against :class:`ReactiveBranchController` stepping the same
executions one at a time, in both forms: one segment (scalars) and
many segments of one flat buffer (arrays).  The counter walk's
many-segment form (:func:`~repro.core.kernels.miss_walk`) visits
misses only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ControllerConfig
from repro.core.controller import ReactiveBranchController
from repro.core.kernels import (
    NEVER,
    classify_split,
    deploy_delay,
    floored_walk,
    miss_walk,
    residue_count,
    residue_cumsum,
    sample_scan,
    segments,
)
from repro.core.states import BranchState

WALK = ControllerConfig(monitor_period=4, selection_threshold=0.75,
                        evict_counter_max=12, misspec_increment=5,
                        correct_decrement=2)
SAMPLING = ControllerConfig(monitor_period=4, selection_threshold=0.75,
                            evict_by_sampling=True, evict_sample_period=6,
                            evict_sample_len=3, evict_bias_threshold=0.6)


def _engaged(cfg: ControllerConfig) -> ReactiveBranchController:
    """A controller in BIASED with its episode's code deployed."""
    ctrl = ReactiveBranchController(cfg, branch=1)
    ctrl.state = BranchState.BIASED
    ctrl._deployed = ctrl._episode_active = True
    return ctrl


def _walk_ref(hit, carry: int, cfg: ControllerConfig) -> tuple[int, int]:
    """``(first, end)`` from the controller's counter arc, per event."""
    ctrl = _engaged(cfg)
    ctrl._counter = carry
    for j, h in enumerate(hit):
        ctrl._step_biased(bool(h), j, j)
        if ctrl.evictions:
            return j, ctrl._counter
    return NEVER, ctrl._counter


def _sample_ref(hit, win_pos: int, win_correct: int,
                cfg: ControllerConfig) -> tuple[int, int, int]:
    """``(first, win_pos, win_correct)`` from the controller's
    sampling arc, per event."""
    ctrl = _engaged(cfg)
    ctrl._window_pos, ctrl._window_correct = win_pos, win_correct
    for j, h in enumerate(hit):
        ctrl._step_biased_sampling(bool(h), j, j)
        if ctrl.evictions:
            return j, ctrl._window_pos, ctrl._window_correct
    return NEVER, ctrl._window_pos, ctrl._window_correct


def _window_states(cfg: ControllerConfig) -> list[tuple[int, int]]:
    """Every reachable ``(win_pos, win_correct)``: mid-sample positions
    carry up to one correct per sampled execution; past the sample the
    tally is reset."""
    s_len = cfg.evict_sample_len
    return [(p, c) for p in range(cfg.evict_sample_period)
            for c in (range(p + 1) if p < s_len else [0])]


def _hits(rng, n: int) -> np.ndarray:
    """Outcomes against the deployed direction, from clean to noisy."""
    return rng.uniform(size=n) < rng.choice([1.0, 0.9, 0.7, 0.4])


def _tc(taken: np.ndarray) -> np.ndarray:
    tc = np.zeros(len(taken) + 1, dtype=np.int64)
    np.cumsum(taken, out=tc[1:])
    return tc


# -- floored walk -------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_walk_one_segment_matches_controller(seed):
    rng = np.random.default_rng(seed)
    cmax, inc = WALK.evict_counter_max, WALK.misspec_increment
    for _ in range(200):
        hit = _hits(rng, int(rng.integers(1, 30)))
        for carry in (0, cmax - inc, int(rng.integers(0, cmax))):
            assert floored_walk(hit, carry, WALK) == _walk_ref(
                hit, carry, WALK)


@pytest.mark.parametrize("seed", range(6))
def test_walk_segments_match_controller(seed):
    """The many-segment walk, over each window's misses only, equals
    the controller over every execution of the window."""
    rng = np.random.default_rng(seed)
    cmax, inc = WALK.evict_counter_max, WALK.misspec_increment
    for _ in range(40):
        windows = []
        for n in rng.choice([1, 2, 7, 25, 90], size=int(rng.integers(1, 12))):
            hit = _hits(rng, int(n))
            if not hit.all():
                windows.append((hit, int(rng.choice([0, cmax - inc, 3]))))
        if not windows:
            continue
        x = [np.flatnonzero(~hit) for hit, _ in windows]
        first, end = miss_walk(
            np.concatenate(x), np.array([len(hit) for hit, _ in windows]),
            np.array([carry for _, carry in windows]), WALK,
            segments(np.array([len(m) for m in x])))
        for r, (hit, carry) in enumerate(windows):
            assert (first[r], end[r]) == _walk_ref(hit, carry, WALK)


def test_walk_crossing_past_the_prefix_is_cut_off():
    # Three misses from 0 reach the ceiling (15 >= 12) at offset 2.
    hit = np.array([False, False, False, True])
    assert floored_walk(hit, 0, WALK) == (2, WALK.evict_counter_max)
    # A window cut after two of them walks to 10 and does not evict.
    first, end = miss_walk(np.array([0, 1]), np.array([2]), np.array([0]),
                           WALK, segments(np.array([2])))
    assert (int(first[0]), int(end[0])) == (NEVER, 10)


def test_residue_count_matches_strided_slices():
    """The per-residue prefix sum gives every strided window's sum."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        stride = int(rng.integers(1, 10))
        values = rng.uniform(size=n) < rng.uniform()
        rc = residue_cumsum(values, stride)
        lo = rng.integers(0, n + 1, size=20)
        hi = np.maximum(lo, rng.integers(0, n + 1, size=20))
        res = rng.integers(0, stride, size=20)
        got = residue_count(rc, stride, lo, hi, res)
        for j in range(20):
            start = int(lo[j]) + (int(res[j]) - int(lo[j])) % stride
            want = int(values[start:int(hi[j]):stride].sum())
            assert int(got[j]) == want
            assert residue_count(rc, stride, int(lo[j]), int(hi[j]),
                                 int(res[j])) == want


def test_segments_view():
    segs = segments(np.array([2, 1, 3]))
    assert segs.base.tolist() == [0, 2, 3]
    assert segs.seg.tolist() == [0, 0, 1, 2, 2, 2]
    assert segs.pos.tolist() == [0, 1, 0, 0, 1, 2]


# -- sampling -----------------------------------------------------------

@pytest.mark.parametrize("direction", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_sampling_one_segment_from_every_window_state(seed, direction):
    rng = np.random.default_rng(seed)
    for win_pos, win_correct in _window_states(SAMPLING):
        for _ in range(25):
            hit = _hits(rng, int(rng.integers(1, 30)))
            lead = int(rng.integers(0, 4))
            taken = np.concatenate([rng.uniform(size=lead) < 0.5,
                                    hit == direction])
            got = sample_scan(_tc(taken), lead, len(hit), direction,
                              win_pos, win_correct, SAMPLING)
            assert got == _sample_ref(hit, win_pos, win_correct, SAMPLING)


@pytest.mark.parametrize("seed", range(6))
def test_sampling_segments_match_controller(seed):
    rng = np.random.default_rng(seed)
    states = _window_states(SAMPLING)
    for _ in range(40):
        lens = rng.choice([1, 2, 7, 25], size=int(rng.integers(1, 12)))
        direction = rng.uniform(size=len(lens)) < 0.5
        hit = _hits(rng, int(lens.sum()))
        start = np.cumsum(lens) - lens
        taken = hit == np.repeat(direction, lens)
        prefix = rng.integers(0, lens + 1)
        win_pos, win_correct = np.array(
            [states[i] for i in rng.integers(0, len(states), len(lens))]).T
        first, pos, correct = sample_scan(
            _tc(taken), start, prefix, direction, win_pos, win_correct,
            SAMPLING)
        for r in range(len(lens)):
            seg = hit[start[r]:start[r] + prefix[r]]
            assert (first[r], pos[r], correct[r]) == _sample_ref(
                seg, int(win_pos[r]), int(win_correct[r]), SAMPLING)


# -- classify and landing -----------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_classify_split_matches_controller(seed):
    rng = np.random.default_rng(seed)
    cfg = ControllerConfig(monitor_period=8, selection_threshold=0.75,
                           oscillation_limit=2)
    samples = rng.integers(1, 9, 300)
    taken = rng.integers(0, samples + 1)
    entries = rng.integers(0, 4, 300)
    select, reject, disable, direction = classify_split(
        taken, samples, entries, cfg)
    for j in range(300):
        ctrl = ReactiveBranchController(cfg)
        ctrl._monitor_taken = int(taken[j])
        ctrl._monitor_samples = int(samples[j])
        ctrl._bias_entries = int(entries[j])
        ctrl._classify_monitor(0, 100)
        state = {BranchState.BIASED: "select", BranchState.UNBIASED: "reject",
                 BranchState.DISABLED: "disable"}[ctrl.state]
        assert [select[j], reject[j], disable[j]] == [
            state == "select", state == "reject", state == "disable"]
        if select[j]:
            assert ctrl._pending == [
                (100 + deploy_delay(cfg), True, bool(direction[j]))]


@pytest.mark.parametrize("latency", [0, 1, 64])
def test_deploy_delay_matches_controller(latency):
    cfg = ControllerConfig(optimization_latency=latency)
    ctrl = ReactiveBranchController(cfg)
    ctrl._schedule_deploy(True, 1_000, True)
    assert ctrl._pending[0][0] == 1_000 + deploy_delay(cfg)
