"""Array kernels of the reactive FSM, shared by every batch engine.

:class:`~repro.core.controller.ReactiveBranchController` is the
specification: it steps the FSM one execution at a time.  Three engines
step it over runs of executions instead — the offline roofline
:func:`~repro.sim.vector.run_vector` (each branch's whole future), the
per-branch chunk kernel :func:`~repro.serve.fastpath.apply_chunk`, and
the cross-branch columnar engine
:class:`~repro.serve.colpath.ColumnarBank` (many branches' segments at
once).  The arithmetic they share lives here and nowhere else:

* :func:`deploy_delay` — when a scheduled re-optimization lands;
* :func:`classify_split` — the bias test that ends a monitor period;
* :func:`floored_walk` / :func:`miss_walk` — eviction by the
  saturating counter (Table 2), over one segment's executions or over
  many segments' misses;
* :func:`sample_scan` — eviction by periodic re-sampling (Table 4);
* :func:`residue_cumsum` / :func:`residue_count` — the taken tally of
  a monitor that samples every ``monitor_sample_stride``-th execution
  (Table 4), one prefix sum per residue class.

Both eviction kernels take the state carried in from earlier
executions, resolve a run of *engaged* executions (the episode's code
is deployed, so the eviction arc is live), and return the offset of
the evicting execution — :data:`NEVER` when none evicts — with the
state after the run: one segment with scalars, many segments of one
flat buffer at once with arrays (:func:`sample_scan`, or
:func:`miss_walk` for the counter).
``tests/core/test_kernels.py`` checks each against the scalar
controller driven one execution at a time.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["NEVER", "Segments", "segments", "deploy_delay",
           "classify_split", "floored_walk", "miss_walk", "residue_cumsum",
           "residue_count", "sample_scan"]

#: "Nothing scheduled" offset, execution index or stamp: far beyond any
#: real count, safely below int64 overflow under ``exec + batch_len``.
NEVER = 1 << 62


class Segments(NamedTuple):
    """A flat buffer cut into consecutive non-empty segments."""

    base: np.ndarray  #: offset of each segment's first element
    seg: np.ndarray   #: segment of every element
    pos: np.ndarray   #: every element's offset within its segment


def segments(lens: np.ndarray) -> Segments:
    """The :class:`Segments` of consecutive segments of ``lens`` (> 0)."""
    base = np.cumsum(lens) - lens
    seg = np.repeat(np.arange(len(lens)), lens)
    pos = np.arange(len(seg), dtype=np.int64) - base[seg]
    return Segments(base, seg, pos)


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


def floored_walk(hit: np.ndarray, carry: int, cfg) -> tuple[int, int]:
    """Saturating-counter eviction over one segment; returns ``(first,
    end)``.

    The counter falls by ``correct_decrement`` on each correct
    speculation (``hit``) and rises by ``misspec_increment`` on each
    miss, floored at zero; reaching ``evict_counter_max`` evicts.  For
    a walk floored at zero that starts at ``carry >= 0``,
    ``c_j = S_j - min(0, min_{i<=j} S_i)`` exactly, where ``S_j`` is
    ``carry`` plus the first ``j + 1`` steps, so a cumsum and a running
    minimum resolve the non-empty segment ``hit``.

    ``first`` is the offset of the first execution at which the counter
    reaches the ceiling, or :data:`NEVER`.  ``end`` is the counter after
    the segment, or the ceiling after a crossing, as the controller
    saturates there.  :func:`miss_walk` is the many-segment form.
    """
    n_hit = np.count_nonzero(hit)
    if n_hit == len(hit):
        # Only decays: no crossing, and the endpoint is closed-form.
        return NEVER, max(0, carry - n_hit * cfg.correct_decrement)
    cum = np.cumsum(np.where(hit, -cfg.correct_decrement,
                             cfg.misspec_increment))
    if carry:
        cum += carry
    walk = cum - np.minimum(np.minimum.accumulate(cum), 0)
    over = walk >= cfg.evict_counter_max
    first = int(over.argmax())
    if over[first]:
        return first, cfg.evict_counter_max
    return NEVER, int(walk[-1])


def miss_walk(x: np.ndarray, length: np.ndarray, carry: np.ndarray, cfg,
              segs: Segments) -> tuple[np.ndarray, np.ndarray]:
    """Saturating-counter eviction over many segments, visiting only
    their misses; returns ``(first, end)``.

    Between misses the counter only decays, and a run of ``g`` decays
    floored at zero is one step of ``-g * correct_decrement`` floored
    at zero, so a segment of ``length`` executions is fully described
    by the offsets ``x`` of its misses (ascending).  ``segs`` cuts the
    flat ``x`` into segments of at least one miss each; ``carry`` is
    each segment's counter on entry (below the ceiling).  The walk of
    :func:`floored_walk` then runs over two steps per miss, each
    segment shifted below the previous one's range so that one global
    running minimum cannot leak across segments.  The cost is linear in
    the misses, not in the executions.

    ``first`` is the offset of the miss at which the counter reaches
    the ceiling, or :data:`NEVER`; ``end`` is the counter after the
    whole segment, or the ceiling after a crossing.
    """
    base, seg, _ = segs
    dec = cfg.correct_decrement
    gaps = np.diff(x, prepend=-1) - 1   # correct executions before a miss
    gaps[base] = x[base]
    steps = np.empty(2 * len(x), dtype=np.int64)
    steps[0::2] = -dec * gaps
    steps[1::2] = cfg.misspec_increment
    base2 = 2 * base
    seg2 = np.repeat(seg, 2)
    cum = np.cumsum(steps)
    cum += (carry - (cum[base2] - steps[base2]))[seg2]
    shift = seg2 * (int(cum.max()) - int(cum.min()) + 1)
    walk = (cum - np.minimum(np.minimum.accumulate(cum - shift) + shift,
                             0))[1::2]
    cmax = cfg.evict_counter_max
    first = np.minimum.reduceat(np.where(walk >= cmax, x, NEVER), base)
    last = np.append(base[1:], len(x)) - 1
    end = np.maximum(walk[last] - dec * (length - x[last] - 1), 0)
    return first, np.where(first != NEVER, cmax, end)


def _correct(tc: np.ndarray, lo, hi, direction):
    """Executions in ``[lo, hi)`` whose outcome matches ``direction``,
    from the buffer's exclusive taken prefix sum ``tc``."""
    taken = tc[hi] - tc[lo]
    return np.where(direction, taken, hi - lo - taken)


def residue_cumsum(values: np.ndarray, stride: int) -> np.ndarray:
    """Exclusive prefix sums of ``values`` within each residue class.

    Entry ``q * stride + r`` of the result is the sum of ``values[j]``
    over ``j < q * stride`` with ``j % stride == r``: the buffer padded
    to a multiple of ``stride``, viewed as ``(-1, stride)`` and summed
    down its columns behind a zero row.  :func:`residue_count` reads a
    strided window's sum from it in O(1).
    """
    n = len(values)
    out = np.zeros((-(-n // stride) + 1) * stride, dtype=np.int64)
    body = out[stride:].reshape(-1, stride)
    out[stride:stride + n] = values
    np.cumsum(body, axis=0, out=body)
    return out


def residue_count(rc: np.ndarray, stride: int, lo, hi, residue):
    """Sum of ``values[j]`` over ``lo <= j < hi`` with ``j % stride ==
    residue``, from ``rc = residue_cumsum(values, stride)``."""
    first = (lo - residue + stride - 1) // stride
    stop = (hi - residue + stride - 1) // stride
    return rc[stop * stride + residue] - rc[first * stride + residue]


def sample_scan(tc: np.ndarray, start, prefix, direction, win_pos,
                win_correct, cfg):
    """Eviction by sampling; returns ``(first, win_pos, win_correct)``.

    Every ``evict_sample_period`` engaged executions, the first
    ``evict_sample_len`` form a sample; when it completes, a correct
    fraction below ``evict_bias_threshold`` evicts.  The carried
    ``win_pos`` is the next execution's position in its period and
    ``win_correct`` the correct count of the sample under way.  A
    completion's count is then one difference of ``tc`` — the flat
    buffer's exclusive prefix sum of taken outcomes — against the
    deployed ``direction``, plus the carried count for a sample that
    began before the segment.

    A segment is the ``prefix`` executions of the buffer from
    ``start``.  ``first`` is the offset of the first failing
    completion, or :data:`NEVER`; the window state returned is the one
    after ``min(first + 1, prefix)`` executions.  Scalar arguments
    describe one segment and the results are ints; arrays describe many
    and the results are arrays.
    """
    period, s_len = cfg.evict_sample_period, cfg.evict_sample_len
    threshold = cfg.evict_bias_threshold
    k0 = (s_len - 1 - win_pos) % period  # offset of the first completion
    if np.ndim(start) == 0:
        # One segment, in plain ints: run_vector calls this once per
        # episode, and episodes are short on wide traces.
        first = NEVER
        taken = int(tc[start + prefix] - tc[start])
        misses = ((prefix - taken if direction else taken)
                  + (win_pos - win_correct if win_pos < s_len else 0))
        if k0 < prefix and misses:
            k = k0
            if k0 < s_len - 1:
                # The sample under way completes first, on the carried
                # tally plus the segment's first k0 + 1 outcomes.
                taken = int(tc[start + k0 + 1] - tc[start])
                if ((taken if direction else k0 + 1 - taken)
                        + win_correct) / s_len < threshold:
                    first = k0
                k += period
            if first == NEVER and k < prefix:
                # Whole samples: strided views of tc, no gather.
                lo = start + k + 1 - s_len
                stop = start + prefix + 1 - s_len
                taken = (tc[lo + s_len:stop + s_len:period]
                         - tc[lo:stop:period])
                bad = np.flatnonzero(
                    (taken if direction else s_len - taken) / s_len
                    < threshold)
                if bad.size:
                    first = k + int(bad[0]) * period
        adv = min(first + 1, prefix)
        q = (win_pos + adv) % period
        if not 0 < q < s_len:
            return first, q, 0
        end = start + adv
        tail = min(q, adv)
        taken = int(tc[end] - tc[end - tail])
        return first, q, ((taken if direction else tail - taken)
                          + (win_correct if adv < q else 0))
    # A segment without a miss, under a sample without a miss, cannot
    # fail a completion.
    misses = (prefix - _correct(tc, start, start + prefix, direction)
              + np.where(win_pos < s_len, win_pos - win_correct, 0))
    first = np.full(len(start), NEVER, dtype=np.int64)
    ci = np.flatnonzero((k0 < prefix) & (misses > 0))
    if ci.size:
        ncomp = (prefix[ci] - 1 - k0[ci]) // period + 1
        cbase = np.cumsum(ncomp) - ncomp
        cseg = np.repeat(ci, ncomp)
        k = k0[cseg] + period * (np.arange(len(cseg), dtype=np.int64)
                                 - np.repeat(cbase, ncomp))
        hi = start[cseg] + k + 1
        correct = (_correct(tc, np.maximum(hi - s_len, start[cseg]), hi,
                            direction[cseg])
                   + np.where(k < s_len - 1, win_correct[cseg], 0))
        bad = correct / s_len < threshold
        first[ci] = np.minimum.reduceat(np.where(bad, k, NEVER), cbase)
    # Window after the consumed prefix: the running tally holds the
    # last min(q, adv) outcomes when the next execution is mid-sample
    # (0 < q < s_len), plus the carried tally if that sample began
    # before the segment; a completion resets it.
    adv = np.minimum(first + 1, prefix)
    q = (win_pos + adv) % period
    end = start + adv
    tally = (_correct(tc, end - np.minimum(q, adv), end, direction)
             + np.where(adv < q, win_correct, 0))
    return first, q, np.where((q > 0) & (q < s_len), tally, 0)
