"""Exact chunked application of the reactive controller.

The online service cannot use the whole-trace vectorized engine
(:mod:`repro.sim.vector`) — it never sees a branch's full future — but a
shard worker *does* see a micro-batch's worth of one branch's
executions at a time.  :func:`apply_chunk` advances a live
:class:`~repro.core.controller.ReactiveBranchController` over such a
chunk with numpy scans instead of a per-event Python loop, reusing the
vector engine's tricks incrementally:

* monitor windows and revisit countdowns are resolved with one slice
  reduction up to the known decision execution;
* the eviction counter is a floored-at-zero random walk; its first
  crossing within the chunk is ``cumsum`` + a running minimum, seeded
  with the live counter value as carry-in;
* pending re-optimization landings split the chunk at ``searchsorted``
  boundaries so deployment accounting stays stamp-exact.

The contract is *bit-exactness*: after ``apply_chunk(ctrl, t, s)`` the
controller is in precisely the state ``len(t)`` successive
:meth:`~repro.core.controller.ReactiveBranchController.observe` calls
would leave it in, and the returned ``(correct, incorrect)`` deltas
match the outcomes those calls would report.  Configurations outside
the vectorized cases (eviction by sampling) fall back to the scalar
controller per segment, so the contract holds for every config.  This
is what makes service snapshots interchangeable with offline runs.

Layering: this module is the *within-branch* engine.  The serving hot
path stacks the cross-branch columnar engine
(:mod:`repro.serve.colpath`) on top, which resolves FSM arcs, landings
and evictions for many branches at once in array code and reuses
:func:`classify_split` and :func:`deploy_delay` from here.  There
:func:`apply_chunk` serves only single-branch batches.
"""

from __future__ import annotations

import numpy as np

from repro.core.controller import ReactiveBranchController
from repro.core.states import BranchState, TransitionKind

__all__ = ["apply_chunk", "classify_split", "deploy_delay"]


def deploy_delay(cfg) -> int:
    """Instruction delay until a scheduled re-optimization lands.

    Mirrors ``ReactiveBranchController._schedule_deploy``: with zero
    configured latency the new code still cannot affect the current
    execution, so it lands one instruction later (stamps strictly
    grow).
    """
    latency = cfg.optimization_latency
    return latency if latency > 0 else 1


def classify_split(taken_counts: np.ndarray, samples: np.ndarray,
                   bias_entries: np.ndarray, cfg,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray]:
    """Vectorized monitor-classify decision over many branches at once.

    The scalar arc lives in
    ``ReactiveBranchController._classify_monitor``; this evaluates the
    identical bias test (int64 counts, one float64 division — bit-equal
    to Python's ``int / int``) for whole arrays, returning boolean
    masks ``(select, reject, disable, direction)``.  ``select`` and
    ``disable`` are disjoint; ``reject`` is their complement.
    """
    majority = np.maximum(taken_counts, samples - taken_counts)
    biased = majority / samples >= cfg.selection_threshold
    direction = (2 * taken_counts) >= samples
    disable = biased & (bias_entries >= cfg.oscillation_limit)
    select = biased & ~disable
    return select, ~biased, disable, direction


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


def _scalar_segment(ctrl: ReactiveBranchController, taken: np.ndarray,
                    instrs: np.ndarray, i: int,
                    limit: int) -> tuple[int, int, int]:
    """Reference fallback: drive observe() per event over [i, limit)."""
    observe = ctrl.observe
    c = x = 0
    for j in range(i, limit):
        outcome = observe(bool(taken[j]), int(instrs[j]))
        if outcome.speculated:
            if outcome.correct:
                c += 1
            else:
                x += 1
    return c, x, limit


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

    if state is BranchState.DISABLED:
        c, x = _account(ctrl, taken[i:limit])
        ctrl.exec_count += span
        return c, x, limit

    # BIASED.
    if not ctrl._episode_active:
        # Episode code not yet landed (and cannot land inside this
        # segment): the FSM is inert; only accounting runs.
        c, x = _account(ctrl, taken[i:limit])
        ctrl.exec_count += span
        return c, x, limit
    if not ctrl._deployed:  # pragma: no cover - unreachable by design
        return _scalar_segment(ctrl, taken, instrs, i, limit)
    if not cfg.eviction_enabled:
        c, x = _account(ctrl, taken[i:limit])
        ctrl.exec_count += span
        return c, x, limit
    if cfg.evict_by_sampling:
        # Window bookkeeping is stateful mid-window; keep it scalar.
        return _scalar_segment(ctrl, taken, instrs, i, limit)

    # Saturating-counter eviction: floored random walk with carry-in.
    correct_vec = taken[i:limit] == ctrl._deployed_direction
    c = int(correct_vec.sum())
    if c == span:
        # All correct — the walk only decays; no eviction possible and
        # the floored endpoint is order-independent.
        ctrl.correct += span
        ctrl._counter = max(0, ctrl._counter - span * cfg.correct_decrement)
        ctrl.exec_count += span
        return span, 0, limit
    steps = np.where(correct_vec, -cfg.correct_decrement,
                     cfg.misspec_increment).astype(np.int64)
    cum = np.cumsum(steps) + ctrl._counter
    walk = cum - np.minimum.accumulate(np.minimum(cum, 0))
    hits = np.flatnonzero(walk >= cfg.evict_counter_max)
    if len(hits) == 0:
        x = span - c
        ctrl.correct += c
        ctrl.incorrect += x
        ctrl._counter = int(walk[-1])
        ctrl.exec_count += span
        return c, x, limit
    r = int(hits[0])
    c = int(correct_vec[:r + 1].sum())
    x = (r + 1) - c
    ctrl.correct += c
    ctrl.incorrect += x
    ctrl._counter = min(cfg.evict_counter_max, int(walk[r]))
    ctrl.exec_count += r + 1
    ctrl._evict(ctrl.exec_count - 1, int(instrs[i + r]))
    return c, x, i + r + 1
