"""Exact chunked application of the reactive controller.

The online service cannot use the whole-trace vectorized engine
(:mod:`repro.sim.vector`) — it never sees a branch's full future — but a
shard worker *does* see a micro-batch's worth of one branch's
executions at a time.  :func:`apply_chunk` advances a live
:class:`~repro.core.controller.ReactiveBranchController` over such a
chunk with numpy scans instead of a per-event Python loop:

* monitor windows and revisit countdowns are resolved with one slice
  reduction up to the known decision execution;
* the eviction arc — the floored-at-zero counter walk, or eviction by
  sampling — is one call of the shared kernel in
  :mod:`repro.core.kernels` (:func:`~repro.core.kernels.floored_walk`,
  :func:`~repro.core.kernels.sample_scan`), seeded with the live
  counter or sample window as carry-in;
* pending re-optimization landings split the chunk at ``searchsorted``
  boundaries so deployment accounting stays stamp-exact.

The contract is *bit-exactness*: after ``apply_chunk(ctrl, t, s)`` the
controller is in precisely the state ``len(t)`` successive
:meth:`~repro.core.controller.ReactiveBranchController.observe` calls
would leave it in, and the returned ``(correct, incorrect)`` deltas
match the outcomes those calls would report, under every
configuration.  This is what makes service snapshots interchangeable
with offline runs.

Layering: this module is the *within-branch* engine.  The serving hot
path stacks the cross-branch columnar engine
(:mod:`repro.serve.colpath`) on top, which resolves FSM arcs, landings
and evictions for many branches at once with the same kernels.  There
:func:`apply_chunk` serves only single-branch batches.
"""

from __future__ import annotations

import numpy as np

from repro.core.controller import ReactiveBranchController
from repro.core.kernels import NEVER, floored_walk, sample_scan
from repro.core.states import BranchState, TransitionKind

__all__ = ["apply_chunk"]


def apply_chunk(ctrl: ReactiveBranchController,
                taken: np.ndarray, instrs: np.ndarray) -> tuple[int, int]:
    """Feed ``ctrl`` its next executions; returns (correct, incorrect).

    ``taken``/``instrs`` are the branch's outcomes and global
    instruction stamps in execution order, continuing the controller's
    history.  Equivalent to — and property-tested against — calling
    ``ctrl.observe`` per event.
    """
    n = len(taken)
    i = 0
    correct_delta = 0
    incorrect_delta = 0
    while i < n:
        pending = ctrl._pending
        if pending:
            when = pending[0][0]
            if when <= instrs[i]:
                # Landing happens as part of processing event i, before
                # its accounting — same order as observe().
                ctrl._land_due(int(instrs[i]))
                continue
            limit = i + int(np.searchsorted(instrs[i:], when, side="left"))
        else:
            limit = n
        c, x, i = _segment(ctrl, taken, instrs, i, limit)
        correct_delta += c
        incorrect_delta += x
    return correct_delta, incorrect_delta


def _account(ctrl: ReactiveBranchController,
             seg_taken: np.ndarray) -> tuple[int, int]:
    """Speculation accounting for a segment under fixed deployment."""
    if not ctrl._deployed:
        return 0, 0
    hits = int((seg_taken == ctrl._deployed_direction).sum())
    misses = len(seg_taken) - hits
    ctrl.correct += hits
    ctrl.incorrect += misses
    return hits, misses


def _segment(ctrl: ReactiveBranchController, taken: np.ndarray,
             instrs: np.ndarray, i: int, limit: int) -> tuple[int, int, int]:
    """Process events ``[i, limit)`` — no pending landings inside — up
    to and including the next FSM boundary.  Returns (correct,
    incorrect, new_i); consumes at least one event."""
    cfg = ctrl.config
    state = ctrl.state
    span = limit - i

    if state is BranchState.MONITOR:
        # The classify decision fires at offset monitor_period-1 from
        # state entry; events before it only sample.
        done = ctrl.exec_count - ctrl._state_entry_exec
        remaining = cfg.monitor_period - done
        m = min(span, remaining)
        seg_taken = taken[i:i + m]
        stride = cfg.monitor_sample_stride
        if stride == 1:
            ctrl._monitor_samples += m
            ctrl._monitor_taken += int(seg_taken.sum())
        else:
            first = (-done) % stride
            sampled = seg_taken[first::stride]
            ctrl._monitor_samples += len(sampled)
            ctrl._monitor_taken += int(sampled.sum())
        c, x = _account(ctrl, seg_taken)
        ctrl.exec_count += m
        if m == remaining:
            ctrl._classify_monitor(ctrl.exec_count - 1,
                                   int(instrs[i + m - 1]))
        return c, x, i + m

    if state is BranchState.UNBIASED:
        if cfg.revisit_enabled:
            fire = ctrl._state_entry_exec + cfg.revisit_period - 1
            m = min(span, fire - ctrl.exec_count + 1)
        else:
            m = span
        c, x = _account(ctrl, taken[i:i + m])
        ctrl.exec_count += m
        if cfg.revisit_enabled and ctrl.exec_count - 1 == fire:
            ctrl._enter(BranchState.MONITOR, TransitionKind.REVISIT,
                        ctrl.exec_count - 1, int(instrs[i + m - 1]))
        return c, x, i + m

    # DISABLED or BIASED.  Until the episode's code lands (it cannot
    # land inside this segment), or with eviction off, the FSM is
    # inert and only accounting runs.
    if (state is BranchState.DISABLED or not ctrl._episode_active
            or not cfg.eviction_enabled):
        c, x = _account(ctrl, taken[i:limit])
        ctrl.exec_count += span
        return c, x, limit
    # The episode's code is deployed: the eviction arc is live.
    hit = taken[i:limit] == ctrl._deployed_direction
    if cfg.evict_by_sampling:
        cc = np.zeros(span + 1, dtype=np.int64)
        np.cumsum(hit, out=cc[1:])
        first, ctrl._window_pos, ctrl._window_correct = sample_scan(
            cc, 0, span, True, ctrl._window_pos, ctrl._window_correct, cfg)
    else:
        first, ctrl._counter = floored_walk(hit, ctrl._counter, cfg)
    m = span if first == NEVER else first + 1
    c = int(np.count_nonzero(hit[:m]))
    ctrl.correct += c
    ctrl.incorrect += m - c
    ctrl.exec_count += m
    if first != NEVER:
        ctrl._evict(ctrl.exec_count - 1, int(instrs[i + first]))
    return c, m - c, i + m
