"""Vectorized functional simulation engine.

The reactive model tracks every branch independently (Section 3.2: "the
behavior of each branch is tracked independently, with the exception of
modeling the optimization latency" — and the latency is expressed in
global instruction stamps, which the trace carries per event).  The run
therefore decomposes per branch, and within a branch the FSM only
changes state a handful of times, so each state can be resolved with a
few numpy scans instead of a per-event Python loop:

* a monitor period is one slice-sum;
* an episode's eviction point is one call of the shared eviction
  kernels in :mod:`repro.core.kernels` over the branch's whole
  remaining future: the first ceiling crossing of the floored-at-zero
  counter walk (:func:`~repro.core.kernels.floored_walk`), or the first
  failing sample under eviction by sampling
  (:func:`~repro.core.kernels.sample_scan`, one difference of the
  branch's taken prefix sum per completed sample);
* a deployment lands one ``searchsorted`` after its decision stamp
  (:func:`~repro.core.kernels.deploy_delay`).

The engine is property-tested for exact agreement with the reference
per-event engine (:mod:`repro.sim.engine`) and is 1-2 orders of
magnitude faster; all experiment drivers use it.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.kernels import NEVER, deploy_delay, floored_walk, sample_scan
from repro.core.states import BranchState, Transition, TransitionKind
from repro.core.stats import collect_transition_stats
from repro.sim.metrics import SpeculationMetrics
from repro.sim.summary import BranchSummary, ReactiveRunResult
from repro.trace.stream import Trace

__all__ = ["run_vector", "simulate_branch", "speculation_flags"]


def simulate_branch(branch: int, taken: np.ndarray, instr: np.ndarray,
                    cfg: ControllerConfig) -> BranchSummary:
    """Run the full reactive FSM for one branch's execution history.

    ``taken``/``instr`` are the branch's outcomes and global instruction
    stamps in execution order.  Produces exactly the per-branch summary
    the reference engine would.
    """
    summary, _intervals = _simulate_branch(branch, taken, instr, cfg)
    return summary


def _simulate_branch(branch: int, taken: np.ndarray, instr: np.ndarray,
                     cfg: ControllerConfig,
                     ) -> tuple[BranchSummary, list[tuple[int, int, bool]]]:
    """As :func:`simulate_branch`, also returning the speculation
    intervals ``[(start_exec, end_exec, direction), ...]``."""
    n = len(taken)
    delay = deploy_delay(cfg)
    tc = None                   # exclusive taken prefix sum (sampling)
    transitions: list[Transition] = []
    intervals: list[tuple[int, int, bool]] = []  # [start, end) spec window
    entries = 0
    evictions = 0
    state = BranchState.MONITOR
    pos = 0                     # current state's entry execution index
    episode_start = 0           # activation exec index when BIASED
    episode_dir = False

    while True:
        if state is BranchState.MONITOR:
            end = pos + cfg.monitor_period
            if end > n:
                break
            window = taken[pos:end:cfg.monitor_sample_stride]
            samples = len(window)
            taken_count = int(window.sum())
            bias = max(taken_count, samples - taken_count) / samples
            direction = taken_count * 2 >= samples
            decision = end - 1
            decision_instr = int(instr[decision])
            if bias >= cfg.selection_threshold:
                if entries >= cfg.oscillation_limit:
                    transitions.append(Transition(
                        branch, TransitionKind.DISABLE, decision,
                        decision_instr))
                    state = BranchState.DISABLED
                    break
                entries += 1
                transitions.append(Transition(
                    branch, TransitionKind.SELECT, decision, decision_instr))
                episode_start = int(np.searchsorted(
                    instr, decision_instr + delay))
                episode_dir = direction
                state = BranchState.BIASED
            else:
                transitions.append(Transition(
                    branch, TransitionKind.REJECT, decision, decision_instr))
                state = BranchState.UNBIASED
                pos = decision + 1

        elif state is BranchState.BIASED:
            start = episode_start
            if start >= n:
                break  # speculative code lands after the run ends
            if not cfg.eviction_enabled:
                intervals.append((start, n, episode_dir))
                break
            if cfg.evict_by_sampling:
                if tc is None:
                    tc = np.zeros(n + 1, dtype=np.int64)
                    np.cumsum(taken, out=tc[1:])
                rel, _, _ = sample_scan(tc, start, n - start, episode_dir,
                                        0, 0, cfg)
            else:
                rel, _ = floored_walk(taken[start:] == episode_dir, 0, cfg)
            if rel == NEVER:
                intervals.append((start, n, episode_dir))
                break
            evict_at = start + rel
            evict_instr = int(instr[evict_at])
            evictions += 1
            transitions.append(Transition(
                branch, TransitionKind.EVICT, evict_at, evict_instr))
            lands = int(np.searchsorted(instr, evict_instr + delay))
            intervals.append((start, min(lands, n), episode_dir))
            state = BranchState.MONITOR
            pos = evict_at + 1

        elif state is BranchState.UNBIASED:
            if not cfg.revisit_enabled:
                break
            revisit_at = pos + cfg.revisit_period - 1
            if revisit_at >= n:
                break
            transitions.append(Transition(
                branch, TransitionKind.REVISIT, revisit_at,
                int(instr[revisit_at])))
            state = BranchState.MONITOR
            pos = revisit_at + 1

        else:  # pragma: no cover - DISABLED exits above
            break

    correct_total = 0
    incorrect_total = 0
    for a, b, direction in intervals:
        if b <= a:
            continue
        hits = int((taken[a:b] == direction).sum())
        correct_total += hits
        incorrect_total += (b - a) - hits

    summary = BranchSummary(
        branch=branch,
        exec_count=n,
        correct=correct_total,
        incorrect=incorrect_total,
        bias_entries=entries,
        evictions=evictions,
        final_state=state,
        transitions=tuple(transitions),
    )
    return summary, intervals


def speculation_flags(trace: Trace, config: ControllerConfig,
                      ) -> tuple[np.ndarray, np.ndarray, ReactiveRunResult]:
    """Per-event speculation outcomes of a reactive run.

    Returns ``(spec_flags, misspec_flags, result)``: boolean arrays in
    trace order marking events executed as speculations and events whose
    speculation failed (``misspec_flags`` implies ``spec_flags``).  The
    MSSP task builder consumes these.
    """
    taken = trace.taken
    instrs = trace.instrs
    spec_flags = np.zeros(len(trace), dtype=bool)
    misspec_flags = np.zeros(len(trace), dtype=bool)
    summaries = []
    for branch_id, idx in trace.groups():
        outcomes = taken[idx]
        summary, intervals = _simulate_branch(
            branch_id, outcomes, instrs[idx], config)
        summaries.append(summary)
        for a, b, direction in intervals:
            if b <= a:
                continue
            events = idx[a:b]
            spec_flags[events] = True
            misspec_flags[events] = outcomes[a:b] != direction
    result = _package(trace, config, summaries)
    return spec_flags, misspec_flags, result


def _package(trace: Trace, config: ControllerConfig,
             summaries: list[BranchSummary]) -> ReactiveRunResult:
    summaries = sorted(summaries, key=lambda s: s.branch)
    branches = tuple(summaries)
    metrics = SpeculationMetrics(
        dynamic_branches=len(trace),
        correct=sum(s.correct for s in branches),
        incorrect=sum(s.incorrect for s in branches),
        instructions=trace.total_instructions,
    )
    stats = collect_transition_stats(branches, trace.total_instructions)
    return ReactiveRunResult(
        trace_name=trace.name,
        input_name=trace.input_name,
        config=config,
        metrics=metrics,
        stats=stats,
        branches=branches,
        bank=None,
    )


def run_vector(trace: Trace, config: ControllerConfig) -> ReactiveRunResult:
    """Run the reactive controller over ``trace``, branch by branch."""
    taken = trace.taken
    instrs = trace.instrs
    summaries = []
    for branch_id, idx in trace.groups():
        summaries.append(simulate_branch(
            branch_id, taken[idx], instrs[idx], config))
    return _package(trace, config, summaries)
