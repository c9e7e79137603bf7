"""Columnar cross-branch engine: advance many branches in one shot.

This is the service's one online engine: :meth:`BankShard.apply` hands
it every micro-batch.  The per-branch chunked kernel
(:mod:`repro.serve.fastpath`) makes *within-branch* work numpy-fast,
but one Python ``apply_chunk`` call per distinct PC per micro-batch is
interpreter-bound with thousands of interleaved static branches: each
branch contributes a few events and the per-call overhead dwarfs the
vector math.  This module removes the Python-per-branch cost —
including at FSM boundaries.

:class:`ColumnarBank` maintains a PC→row interned index plus
struct-of-arrays mirrors of the hot controller fields — FSM state code,
execution count, monitor counters, the eviction counter, the
evict-by-sampling window position and tally, the deployed
flag/direction, the next FSM boundary's execution index and the next
pending re-optimization landing stamp.  For each PC-sorted micro-batch
it runs a **split / advance / fire** loop, fully vectorized across
rows:

* **split** — every active row's next boundary offset is computed in
  array code: the classify/revisit fire from the ``next_fire`` column,
  the pending-landing offset by counting the window's instruction
  stamps below the ``land`` column (a segmented ``add.reduceat``), and
  the eviction arc's exact first-threshold-crossing index — from the
  segmented floored-walk cumsum (a running minimum over per-segment
  offsets) under counter eviction, or from the correct count of every
  sample completion in the window under eviction by sampling — for
  every engaged episode at once;
* **advance** — the pre-boundary prefix of every row moves with the
  columnar kernels: one batch-global prefix sum of outcomes yields any
  window's taken count in O(1), driving execution counts, monitor
  tallies (a strided gather over the window when the monitor samples
  every ``monitor_sample_stride``-th execution), outcome accounting
  against the deployed direction, the exact floored-at-zero
  eviction-walk endpoint and the sampling window's position/tally;
* **fire** — rows that reached a boundary apply the transition as a
  batched array op per arc kind: the classify decision (bias test over
  ``mon_taken``/``mon_samples``, vectorized in
  :func:`~repro.serve.fastpath.classify_split`), revisit re-entry to
  MONITOR, the eviction arc, and optimization-latency landings.  A
  short per-firing-row sync writes the cold scalar-controller fields
  (FSM state, entry index, the deployment queue, the transition log);
  the loop then iterates on each row's remaining suffix until every
  segment is consumed.

Every controller configuration resolves in these rounds.  Only
single-branch batches take the per-branch engine
(:meth:`_fallback_segment`, i.e. :func:`~repro.serve.fastpath.apply_chunk`),
by design: there is nothing to amortize.  They are counted separately
(``events_single``).

The contract stays **bit-exactness**: rows are mirrors, the scalar
:class:`~repro.core.controller.ReactiveBranchController` objects remain
the source of truth for snapshots and ``export_state()`` and are
refreshed lazily (:meth:`flush`), so snapshots, WAL replay and obs
tracing stay interchangeable with offline runs (the scalar spec and
:func:`~repro.sim.vector.run_vector`).  The floored-walk identity —
``walk = cum - min(0, running_min(cum))`` over the segment's step
prefix sums with the live counter as carry-in — is the same one
``apply_chunk`` applies per branch, evaluated here for all engaged
rows at once, including the first index where the walk reaches the
eviction ceiling.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.controller import ControllerBank, ReactiveBranchController
from repro.core.states import BranchState, Transition, TransitionKind
from repro.obs.tracing import ARC_CODE
from repro.serve.fastpath import apply_chunk, classify_split, deploy_delay

__all__ = ["ColumnarBank"]

#: Integer codes of :class:`~repro.core.states.BranchState` in the
#: ``state`` column.
_MONITOR, _BIASED, _UNBIASED, _DISABLED = range(4)
_STATE_CODE = {
    BranchState.MONITOR: _MONITOR,
    BranchState.BIASED: _BIASED,
    BranchState.UNBIASED: _UNBIASED,
    BranchState.DISABLED: _DISABLED,
}

#: "No boundary scheduled" sentinel for the next-fire execution index
#: and the next-landing instruction stamp: far beyond any real count,
#: safely below int64 overflow under ``exec + batch_len`` arithmetic.
_NEVER = 1 << 62

_CODE_SELECT = ARC_CODE[TransitionKind.SELECT.value]
_CODE_REJECT = ARC_CODE[TransitionKind.REJECT.value]
_CODE_EVICT = ARC_CODE[TransitionKind.EVICT.value]
_CODE_REVISIT = ARC_CODE[TransitionKind.REVISIT.value]
_CODE_DISABLE = ARC_CODE[TransitionKind.DISABLE.value]

#: int64 columns, in (attribute, default) order.
_I64_COLS = ("pc", "exec", "next_fire", "land", "counter",
             "mon_taken", "mon_samples", "win_pos", "win_correct",
             "bias_entries", "correct", "incorrect")
_BOOL_COLS = ("deployed", "dep_dir", "episode", "dirty", "dead")


class ColumnarBank:
    """Struct-of-arrays mirror of one shard's hot controller fields.

    Owned by a :class:`~repro.serve.shard.BankShard`; shares the
    shard's :class:`~repro.core.controller.ControllerBank` (``scalars``,
    the authoritative per-branch objects) and its decision cache.
    Scalar controller shells are created eagerly at intern time so bank
    iteration, ``len()`` and membership behave identically with the
    columnar path on or off; only the :data:`HOT_FIELDS
    <repro.core.controller.ReactiveBranchController.HOT_FIELDS>` go
    stale between :meth:`flush` calls (tracked per row by ``dirty``).
    """

    __slots__ = ("config", "_scalars", "_decisions", "n_rows", "n_dead",
                 "_cap", "_keys", "_key_rows", "_tenant_index",
                 "rows_fast", "rows_single", "events_fast", "events_single",
                 "arcs_fast", "lands_fast",
                 "state", *_I64_COLS, *_BOOL_COLS)

    def __init__(self, config: ControllerConfig, scalars: ControllerBank,
                 decisions: dict[int, bool],
                 tenant_index: dict[int, set[int]] | None = None) -> None:
        self.config = config
        self._scalars = scalars
        self._decisions = decisions
        #: Shard-owned tenant → key-set index, maintained wherever
        #: controllers are minted so tenant spill stays O(tenant keys).
        self._tenant_index = tenant_index
        self.n_rows = 0
        self.n_dead = 0
        self._cap = 0
        self._grow(1024)
        self._keys = np.empty(0, dtype=np.int64)
        self._key_rows = np.empty(0, dtype=np.int64)
        #: Fast-path engagement counters (see ``stats()``).
        self.rows_fast = 0
        self.rows_single = 0
        self.events_fast = 0
        self.events_single = 0
        self.arcs_fast = 0
        self.lands_fast = 0

    # -- storage --------------------------------------------------------
    def _grow(self, capacity: int) -> None:
        cap = max(self._cap, 16)
        while cap < capacity:
            cap *= 2
        if cap == self._cap:
            return
        n = self.n_rows
        for name in _I64_COLS:
            new = np.zeros(cap, dtype=np.int64)
            if n:
                new[:n] = getattr(self, name)[:n]
            setattr(self, name, new)
        new_state = np.zeros(cap, dtype=np.int8)
        if n:
            new_state[:n] = self.state[:n]
        self.state = new_state
        for name in _BOOL_COLS:
            new = np.zeros(cap, dtype=bool)
            if n:
                new[:n] = getattr(self, name)[:n]
            setattr(self, name, new)
        self._cap = cap

    def __len__(self) -> int:
        return self.n_rows

    def stats(self) -> dict[str, int]:
        """Engagement counters since construction.

        ``fast`` counts rows/events advanced in the columnar arrays
        (including resolved boundary suffixes) and ``single`` the
        by-design single-branch batches that bypass the cross-branch
        machinery.  ``fallback`` (multi-branch rows handed to the
        scalar engine) is always 0 now that every configuration
        resolves columnar; the keys stay so the routing split keeps
        one schema.  ``arcs_fast``/``lands_fast`` count FSM arcs and
        deployment landings resolved columnar.
        """
        return {
            "rows": self.n_rows,
            "rows_dead": self.n_dead,
            "rows_fast": self.rows_fast,
            "rows_fallback": 0,
            "rows_single": self.rows_single,
            "events_fast": self.events_fast,
            "events_fallback": 0,
            "events_single": self.events_single,
            "arcs_fast": self.arcs_fast,
            "lands_fast": self.lands_fast,
        }

    # -- interning ------------------------------------------------------
    def _intern(self, upcs: np.ndarray) -> np.ndarray:
        """Rows for sorted unique PCs, creating any that are missing."""
        keys = self._keys
        m = len(upcs)
        if keys.size:
            pos = np.searchsorted(keys, upcs)
            clip = np.minimum(pos, keys.size - 1)
            found = keys[clip] == upcs
        else:
            clip = None
            found = np.zeros(m, dtype=bool)
        rows = np.empty(m, dtype=np.int64)
        if clip is not None:
            rows[found] = self._key_rows[clip[found]]
        miss = np.flatnonzero(~found)
        if miss.size:
            rows[miss] = self._add_rows(upcs[miss])
            self._rebuild_index()
        return rows

    def _rebuild_index(self) -> None:
        """Recompute the sorted key → row lookup, skipping dead rows."""
        n = self.n_rows
        if self.n_dead:
            alive = np.flatnonzero(~self.dead[:n])
        else:
            alive = np.arange(n, dtype=np.int64)
        order = np.argsort(self.pc[:n][alive])
        self._key_rows = alive[order]
        self._keys = self.pc[self._key_rows]

    def _add_rows(self, new_pcs: np.ndarray) -> np.ndarray:
        base = self.n_rows
        m = len(new_pcs)
        self._grow(base + m)
        self.n_rows = base + m
        rows = np.arange(base, base + m, dtype=np.int64)
        self.pc[rows] = new_pcs
        self.state[rows] = _MONITOR
        self.next_fire[rows] = self.config.monitor_period
        self.land[rows] = _NEVER
        for name in ("exec", "counter", "mon_taken", "mon_samples",
                     "win_pos", "win_correct", "bias_entries", "correct",
                     "incorrect"):
            getattr(self, name)[rows] = 0
        for name in _BOOL_COLS:
            getattr(self, name)[rows] = False
        controllers = self._scalars._controllers
        decisions = self._decisions
        tenant_index = self._tenant_index
        config = self.config
        for offset, pc in enumerate(new_pcs.tolist()):
            ctrl = controllers.get(pc)
            if ctrl is None:
                # Eager shell: bank iteration/len/snapshot see the
                # branch immediately; hot fields live in the columns.
                controllers[pc] = ReactiveBranchController(config, pc)
                decisions.setdefault(pc, False)
                if tenant_index is not None:
                    tenant_index.setdefault(pc >> 32, set()).add(pc)
            else:
                # Pre-existing controller (restored snapshot, or made
                # via the controller() accessor): the row starts from
                # its live state, not from defaults.
                self._refresh_row(base + offset, ctrl)
                decisions.setdefault(pc, ctrl._deployed)
        return rows

    def _row_of(self, pc: int) -> int | None:
        keys = self._keys
        if not keys.size:
            return None
        pos = int(np.searchsorted(keys, pc))
        if pos >= keys.size or int(keys[pos]) != pc:
            return None
        return int(self._key_rows[pos])

    # -- row <-> controller transfer ------------------------------------
    def _refresh_row(self, row: int, ctrl: ReactiveBranchController) -> None:
        """Import a controller's full live state into its row."""
        cfg = self.config
        state = ctrl.state
        self.state[row] = _STATE_CODE[state]
        (self.exec[row], self.mon_taken[row], self.mon_samples[row],
         self.counter[row], self.win_pos[row], self.win_correct[row],
         self.correct[row], self.incorrect[row]) = ctrl.export_hot()
        self.bias_entries[row] = ctrl._bias_entries
        self.deployed[row] = ctrl._deployed
        self.dep_dir[row] = ctrl._deployed_direction
        self.episode[row] = ctrl._episode_active
        self.land[row] = ctrl._pending[0][0] if ctrl._pending else _NEVER
        if state is BranchState.MONITOR:
            fire = ctrl._state_entry_exec + cfg.monitor_period
        elif state is BranchState.UNBIASED and cfg.revisit_enabled:
            fire = ctrl._state_entry_exec + cfg.revisit_period
        else:
            fire = _NEVER
        self.next_fire[row] = fire
        self.dirty[row] = False

    def _flush_row(self, row: int, ctrl: ReactiveBranchController) -> None:
        ctrl.import_hot(self.exec[row], self.mon_taken[row],
                        self.mon_samples[row], self.counter[row],
                        self.win_pos[row], self.win_correct[row],
                        self.correct[row], self.incorrect[row])
        self.dirty[row] = False

    def flush(self) -> None:
        """Write every dirty row's hot fields back to its controller.

        After this the scalar bank is fully authoritative — safe to
        export, snapshot, or iterate field-by-field.
        """
        n = self.n_rows
        if not n:
            return
        controllers = self._scalars._controllers
        pc = self.pc
        for row in np.flatnonzero(self.dirty[:n]).tolist():
            self._flush_row(row, controllers[int(pc[row])])

    def controller(self, pc: int) -> ReactiveBranchController:
        """The (flushed) scalar controller for ``pc``."""
        ctrl = self._scalars.controller(pc)
        row = self._row_of(pc)
        if row is not None and self.dirty[row]:
            self._flush_row(row, ctrl)
        return ctrl

    # -- eviction -------------------------------------------------------
    def evict_keys(self, keys: np.ndarray) -> None:
        """Flush, then drop the rows for ``keys`` (sorted int64) from
        the mirror.

        Used by tenant spill: dirty rows' hot fields are first written
        back to their scalar controllers (which the caller then
        exports), then the rows are tombstoned (``dead``) and removed
        from the lookup index, so a later re-intern of the same key
        mints a fresh row seeded from the restored scalar controller.
        Tombstones are compacted away once they outnumber live rows,
        keeping resident memory proportional to the *resident* working
        set.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if not keys.size or not self._keys.size:
            return
        pos = np.searchsorted(self._keys, keys)
        clip = np.minimum(pos, self._keys.size - 1)
        hit = self._keys[clip] == keys
        if not hit.any():
            return
        slots = clip[hit]
        rows = self._key_rows[slots]
        controllers = self._scalars._controllers
        dirty = self.dirty[rows]
        for row, key in zip(rows[dirty].tolist(), keys[hit][dirty].tolist()):
            self._flush_row(row, controllers[key])
        self.dead[rows] = True
        self.dirty[rows] = False
        self.n_dead += int(rows.size)
        keep = np.ones(self._keys.size, dtype=bool)
        keep[slots] = False
        self._keys = self._keys[keep]
        self._key_rows = self._key_rows[keep]
        if self.n_dead > max(1024, self.n_rows - self.n_dead):
            self._compact()

    def _compact(self) -> None:
        """Gather live rows into a dense prefix and rebuild the index."""
        n = self.n_rows
        alive = np.flatnonzero(~self.dead[:n])
        m = int(alive.size)
        for name in _I64_COLS:
            col = getattr(self, name)
            col[:m] = col[alive]
        self.state[:m] = self.state[alive]
        for name in _BOOL_COLS:
            col = getattr(self, name)
            col[:m] = col[alive]
        self.n_rows = m
        self.n_dead = 0
        self._rebuild_index()

    # -- the fast path --------------------------------------------------
    def _fallback_segment(self, row: int, taken: np.ndarray,
                          instrs: np.ndarray, capture: bool,
                          changed: list[int],
                          fired: list[tuple[int, int, int, int]],
                          ) -> tuple[int, int]:
        """One segment through the per-branch engine: flush the row,
        :func:`apply_chunk` the scalar controller, re-import."""
        pc = int(self.pc[row])
        ctrl = self._scalars._controllers[pc]
        if self.dirty[row]:
            self._flush_row(row, ctrl)
        before = ctrl._deployed
        seen = len(ctrl.transitions) if capture else 0
        c, x = apply_chunk(ctrl, taken, instrs)
        if capture and len(ctrl.transitions) > seen:
            fired.extend((pc, ARC_CODE[t.kind.value], t.exec_index, t.instr)
                         for t in ctrl.transitions[seen:])
        after = ctrl._deployed
        if after != before:
            self._decisions[pc] = after
            changed.append(pc)
        self._refresh_row(row, ctrl)
        return c, x

    # -- batched boundary arcs ------------------------------------------
    def _fire_classify(self, crows: np.ndarray, fexec: np.ndarray,
                       finstr: np.ndarray, capture: bool,
                       fired: list[tuple[int, int, int, int]]) -> None:
        """Monitor period complete for ``crows``: classify each branch.

        The bias decision is one vectorized pass
        (:func:`~repro.serve.fastpath.classify_split`); column updates
        batch per outcome kind; a short per-row loop syncs the cold
        scalar-controller fields and the transition log.  Hot fields
        stay columnar (the rows are already dirty from the prefix
        advance).
        """
        cfg = self.config
        select, reject, disable, direction = classify_split(
            self.mon_taken[crows], self.mon_samples[crows],
            self.bias_entries[crows], cfg)
        if select.any():
            r = crows[select]
            self.state[r] = _BIASED
            self.next_fire[r] = _NEVER
            self.counter[r] = 0
            self.episode[r] = False
            self.bias_entries[r] += 1
        if reject.any():
            r = crows[reject]
            self.state[r] = _UNBIASED
            if cfg.revisit_enabled:
                self.next_fire[r] = fexec[reject] + 1 + cfg.revisit_period
            else:
                self.next_fire[r] = _NEVER
        if disable.any():
            r = crows[disable]
            self.state[r] = _DISABLED
            self.next_fire[r] = _NEVER
        controllers = self._scalars._controllers
        pc_col = self.pc
        land_col = self.land
        delay = deploy_delay(cfg)
        sel_l = select.tolist()
        dis_l = disable.tolist()
        dir_l = direction.tolist()
        for j, row in enumerate(crows.tolist()):
            pc = int(pc_col[row])
            ctrl = controllers[pc]
            e = int(fexec[j])
            ins = int(finstr[j])
            if sel_l[j]:
                ctrl._bias_entries += 1
                ctrl._episode_active = False
                if not ctrl._pending:
                    land_col[row] = ins + delay
                ctrl._pending.append((ins + delay, True, dir_l[j]))
                ctrl.state = BranchState.BIASED
                kind, code = TransitionKind.SELECT, _CODE_SELECT
            elif dis_l[j]:
                ctrl.state = BranchState.DISABLED
                kind, code = TransitionKind.DISABLE, _CODE_DISABLE
            else:
                ctrl.state = BranchState.UNBIASED
                kind, code = TransitionKind.REJECT, _CODE_REJECT
            ctrl._state_entry_exec = e + 1
            ctrl.transitions.append(Transition(pc, kind, e, ins))
            if capture:
                fired.append((pc, code, e, ins))
        self.arcs_fast += int(crows.size)

    def _fire_revisit(self, rrows: np.ndarray, fexec: np.ndarray,
                      finstr: np.ndarray, capture: bool,
                      fired: list[tuple[int, int, int, int]]) -> None:
        """Revisit countdown expired for ``rrows``: re-enter MONITOR."""
        cfg = self.config
        self.state[rrows] = _MONITOR
        self.mon_taken[rrows] = 0
        self.mon_samples[rrows] = 0
        self.next_fire[rrows] = fexec + 1 + cfg.monitor_period
        controllers = self._scalars._controllers
        pc_col = self.pc
        for j, row in enumerate(rrows.tolist()):
            pc = int(pc_col[row])
            ctrl = controllers[pc]
            e = int(fexec[j])
            ctrl.state = BranchState.MONITOR
            ctrl._state_entry_exec = e + 1
            ctrl.transitions.append(
                Transition(pc, TransitionKind.REVISIT, e, int(finstr[j])))
            if capture:
                fired.append((pc, _CODE_REVISIT, e, int(finstr[j])))
        self.arcs_fast += int(rrows.size)

    def _fire_evict(self, erows: np.ndarray, fexec: np.ndarray,
                    finstr: np.ndarray, capture: bool,
                    fired: list[tuple[int, int, int, int]]) -> None:
        """Eviction walk crossed its ceiling (or a completed sample
        fell below the bias threshold) for ``erows``: evict."""
        cfg = self.config
        self.state[erows] = _MONITOR
        self.mon_taken[erows] = 0
        self.mon_samples[erows] = 0
        if not cfg.evict_by_sampling:
            # The walk saturates at the ceiling on the evicting miss;
            # eviction by sampling never touches the counter.
            self.counter[erows] = cfg.evict_counter_max
        self.episode[erows] = False
        self.next_fire[erows] = fexec + 1 + cfg.monitor_period
        controllers = self._scalars._controllers
        pc_col = self.pc
        land_col = self.land
        delay = deploy_delay(cfg)
        for j, row in enumerate(erows.tolist()):
            pc = int(pc_col[row])
            ctrl = controllers[pc]
            e = int(fexec[j])
            ins = int(finstr[j])
            ctrl.evictions += 1
            ctrl._episode_active = False
            if not ctrl._pending:
                land_col[row] = ins + delay
            ctrl._pending.append((ins + delay, False,
                                  ctrl._deployed_direction))
            ctrl.state = BranchState.MONITOR
            ctrl._state_entry_exec = e + 1
            ctrl.transitions.append(
                Transition(pc, TransitionKind.EVICT, e, ins))
            if capture:
                fired.append((pc, _CODE_EVICT, e, ins))
        self.arcs_fast += int(erows.size)

    def apply_sorted(self, pcs: np.ndarray, taken: np.ndarray,
                     instrs: np.ndarray, starts: np.ndarray,
                     ends: np.ndarray, capture: bool,
                     ) -> tuple[int, int, list[int],
                                list[tuple[int, int, int, int]]]:
        """Apply a PC-sorted batch; returns (correct, incorrect,
        changed_pcs, captured_transitions).

        ``starts``/``ends`` bound the per-PC segments (program order
        preserved within each).  Must not be called with an empty
        batch.
        """
        if len(starts) == 1:
            # Single-branch batch: there is nothing for the cross-
            # branch machinery to amortize, and its small-array kernel
            # launches cost more than the one apply_chunk call they
            # would replace.
            pc = int(pcs[0])
            row = self._row_of(pc)
            if row is None:
                row = int(self._intern(pcs[:1].astype(np.int64))[0])
            changed: list[int] = []
            fired: list[tuple[int, int, int, int]] = []
            c, x = self._fallback_segment(row, taken, instrs, capture,
                                          changed, fired)
            self.rows_single += 1
            self.events_single += len(taken)
            return c, x, changed, fired
        cfg = self.config
        rows = self._intern(pcs[starts].astype(np.int64))
        nseg = len(rows)
        controllers = self._scalars._controllers
        # Deployed view at batch entry: the decision-cache invalidation
        # set is the *net* flips over the whole batch, derived at the
        # end.
        dep0 = self.deployed[rows].copy()
        # One batch-global exclusive prefix sum of outcomes: any
        # window's taken count is tc[end] - tc[start], O(1) per window.
        n = len(taken)
        tc = np.empty(n + 1, dtype=np.int64)
        tc[0] = 0
        np.cumsum(taken, out=tc[1:])
        cur = starts.astype(np.int64)
        seg_end = ends.astype(np.int64)
        seg_last = instrs[ends - 1]
        changed = []
        fired = []
        correct_delta = 0
        incorrect_delta = 0
        stride = cfg.monitor_sample_stride
        strided = stride > 1
        evict_counter = cfg.eviction_enabled and not cfg.evict_by_sampling
        evict_sampling = cfg.eviction_enabled and cfg.evict_by_sampling
        inc = cfg.misspec_increment
        dec = cfg.correct_decrement
        cmax = cfg.evict_counter_max
        s_period = cfg.evict_sample_period
        s_len = cfg.evict_sample_len
        act = np.arange(nseg, dtype=np.int64)
        while act.size:
            arows = rows[act]
            st = self.state[arows]
            acur = cur[act]
            rem = seg_end[act] - acur
            exec0 = self.exec[arows]
            dep = self.deployed[arows]
            dirs = self.dep_dir[arows]
            land = self.land[arows]
            counter0 = self.counter[arows]
            mon = st == _MONITOR
            # -- split: each row's next boundary offset ----------------
            # Classify/revisit fire: consumes next_fire - exec events,
            # firing during the last of them.
            next_fire = self.next_fire[arows]
            m_fire = next_fire - exec0
            # Pending landing: fires *before* the first event whose
            # stamp reaches the land column (consumes no event).
            due = land <= seg_last[act]
            m_land = rem.copy()
            # Eviction-walk threshold crossing for engaged episodes.
            if cfg.eviction_enabled:
                engaged = (st == _BIASED) & self.episode[arows]
            else:
                engaged = np.zeros(act.size, dtype=bool)
            ct_win = tc[seg_end[act]] - tc[acur]
            miss_win = np.where(dirs, rem - ct_win, ct_win)
            # All-correct windows only decay the counter — closed form,
            # no per-event scan needed.
            need_walk = (engaged & (miss_win > 0) if evict_counter
                         else np.zeros(act.size, dtype=bool))
            cross = np.full(act.size, _NEVER, dtype=np.int64)
            walk_end = None
            scan = due | need_walk
            if strided:
                # A strided monitor samples the executions whose offset
                # from state entry (next_fire - monitor_period) is a
                # multiple of the stride: its taken tally is a strided
                # gather over the window.
                mon_off = exec0 - (next_fire - cfg.monitor_period)
                scan = scan | mon
            if scan.any():
                # Compact per-event view of just the windows that need
                # an element-wise scan (landing searches, miss-bearing
                # eviction walks, strided monitor gathers); everything
                # else stays O(1)/row.
                sidx = np.flatnonzero(scan)
                lens = rem[sidx]
                total = int(lens.sum())
                base = np.cumsum(lens) - lens
                seg_id = np.repeat(np.arange(sidx.size), lens)
                gidx = (np.arange(total, dtype=np.int64) - base[seg_id]
                        + acur[sidx][seg_id])
                if strided or need_walk.any():
                    pos = np.arange(total, dtype=np.int64) - base[seg_id]
                if due.any():
                    # Stamps are sorted within a window, so the landing
                    # offset is the count of stamps below the land mark.
                    below = instrs[gidx] < land[sidx][seg_id]
                    m_land[sidx] = np.add.reduceat(
                        below.astype(np.int64), base)
                if need_walk.any():
                    hit_dir = taken[gidx] == dirs[sidx][seg_id]
                    steps = np.where(hit_dir, -dec, inc)
                    cum = np.cumsum(steps)
                    carry = counter0[sidx] - (cum[base] - steps[base])
                    walk_cum = cum + carry[seg_id]
                    # Segmented running minimum: shift each segment
                    # down by more than the global value range so a
                    # global minimum.accumulate cannot leak across
                    # segment boundaries, then shift back.
                    big = int(walk_cum.max()) - int(walk_cum.min()) + 1
                    shift = seg_id * big
                    run_min = (np.minimum.accumulate(walk_cum - shift)
                               + shift)
                    walk = walk_cum - np.minimum(run_min, 0)
                    wlen = np.minimum(lens, m_land[sidx])
                    crossing = ((walk >= cmax) & (pos < wlen[seg_id])
                                & need_walk[sidx][seg_id])
                    first = np.minimum.reduceat(
                        np.where(crossing, pos, _NEVER), base)
                    found = first != _NEVER
                    cross[sidx[found]] = first[found] + 1
                    walk_end = np.zeros(act.size, dtype=np.int64)
                    walk_end[sidx] = walk[base + np.maximum(wlen, 1) - 1]
                if strided and mon.any():
                    # Exclusive prefix sum of sampled taken outcomes
                    # over the view: a window prefix's strided tally is
                    # a difference of two entries once its length is
                    # known.
                    sampled = (pos + mon_off[sidx][seg_id]) % stride == 0
                    s_tc = np.zeros(total + 1, dtype=np.int64)
                    np.cumsum(taken[gidx] & sampled, out=s_tc[1:])
                    s_base = np.zeros(act.size, dtype=np.int64)
                    s_base[sidx] = base
            if evict_sampling and engaged.any():
                # Eviction by sampling: the window's position runs
                # modulo the sample period and the sample completes at
                # position s_len - 1, k0 events in.  A completion's
                # correct count is the window's last s_len outcomes
                # against the deployed direction, plus the tally
                # carried in when the sample began before this window.
                wp0 = self.win_pos[arows]
                wc0 = self.win_correct[arows]
                k0 = (s_len - 1 - wp0) % s_period
                carried = np.where(wp0 < s_len, wp0 - wc0, 0)
                wlen_s = np.minimum(rem, m_land)
                # No miss in the window and none carried in: every
                # completed sample is perfect, so none can evict.
                cand = (engaged & (k0 < wlen_s)
                        & ((miss_win > 0) | (carried > 0)))
                if cand.any():
                    ci = np.flatnonzero(cand)
                    ncomp = (wlen_s[ci] - 1 - k0[ci]) // s_period + 1
                    cbase = np.cumsum(ncomp) - ncomp
                    cseg = np.repeat(np.arange(ci.size), ncomp)
                    k = (k0[ci][cseg] + s_period
                         * (np.arange(int(ncomp.sum()), dtype=np.int64)
                            - cbase[cseg]))
                    lo_rel = k + 1 - s_len
                    hi = acur[ci][cseg] + k + 1
                    lo = hi - s_len - np.minimum(lo_rel, 0)
                    t = tc[hi] - tc[lo]
                    count = (np.where(dirs[ci][cseg], t, hi - lo - t)
                             + np.where(lo_rel < 0, wc0[ci][cseg], 0))
                    # int64 / int is one float64 division, bit-equal to
                    # the scalar's int / int.
                    bad = count / s_len < cfg.evict_bias_threshold
                    first = np.minimum.reduceat(
                        np.where(bad, k, _NEVER), cbase)
                    found = first != _NEVER
                    cross[ci[found]] = first[found] + 1
            # First boundary wins; an arc consuming b events fires
            # during event b-1, a landing at offset m fires before
            # event m — so the arc goes first iff b <= m.
            b_arc = np.minimum(m_fire, cross)
            arc = (b_arc <= m_land) & (b_arc <= rem)
            landing = ~arc & (m_land < rem)
            adv = np.where(arc, b_arc, np.where(landing, m_land, rem))
            # -- advance: move every pre-boundary prefix ---------------
            ct = tc[acur + adv] - tc[acur]
            self.exec[arows] = exec0 + adv
            hits = np.where(dirs, ct, adv - ct)
            fc = np.where(dep, hits, 0)
            fx = np.where(dep, adv - hits, 0)
            self.correct[arows] += fc
            self.incorrect[arows] += fx
            correct_delta += int(fc.sum())
            incorrect_delta += int(fx.sum())
            if mon.any():
                mrows = arows[mon]
                if strided:
                    # Sampled offsets in [o, o + adv): a difference of
                    # ceilings; the taken tally from the strided view.
                    o = mon_off[mon]
                    a = adv[mon]
                    self.mon_samples[mrows] += (
                        (o + a + stride - 1) // stride
                        - (o + stride - 1) // stride)
                    b = s_base[mon]
                    self.mon_taken[mrows] += s_tc[b + a] - s_tc[b]
                else:
                    # Every execution is a sample, including a classify
                    # event.
                    self.mon_samples[mrows] += adv[mon]
                    self.mon_taken[mrows] += ct[mon]
            if evict_counter and engaged.any():
                live = engaged & (cross == _NEVER)
                simple = live & ~need_walk
                if simple.any():
                    self.counter[arows[simple]] = np.maximum(
                        0, counter0[simple] - adv[simple] * dec)
                walked = live & need_walk & (adv > 0)
                if walked.any():
                    self.counter[arows[walked]] = walk_end[walked]
            if evict_sampling and engaged.any():
                # Window position after the prefix; the tally is the
                # current sample's correct count when the next event is
                # mid-sample (0 < q < s_len), else 0 — a completed
                # sample resets it, and past s_len nothing is sampled.
                # Its outcomes are the prefix's last min(q, adv), plus
                # the carried tally when the sample began earlier.
                # An evicting row ends on its completion (q = s_len).
                er = arows[engaged]
                e_adv = adv[engaged]
                e_wp = wp0[engaged]
                q = (e_wp + e_adv) % s_period
                tail = np.minimum(q, e_adv)
                e_end = acur[engaged] + e_adv
                t = tc[e_end] - tc[e_end - tail]
                tally = (np.where(dirs[engaged], t, tail - t)
                         + np.where(e_adv < q, wc0[engaged], 0))
                self.win_pos[er] = q
                self.win_correct[er] = np.where((q > 0) & (q < s_len),
                                                tally, 0)
            self.dirty[arows[adv > 0]] = True
            self.events_fast += int(adv.sum())
            # -- fire: batched boundary transitions --------------------
            if arc.any():
                fexec = exec0 + adv - 1
                finstr = instrs[acur + adv - 1]
                cls = arc & mon
                if cls.any():
                    self._fire_classify(arows[cls], fexec[cls],
                                        finstr[cls], capture, fired)
                rev = arc & (st == _UNBIASED)
                if rev.any():
                    self._fire_revisit(arows[rev], fexec[rev],
                                       finstr[rev], capture, fired)
                evi = arc & (cross != _NEVER)
                if evi.any():
                    self._fire_evict(arows[evi], fexec[evi],
                                     finstr[evi], capture, fired)
            lidx = np.flatnonzero(landing)
            if lidx.size:
                lrows = arows[lidx]
                ev = acur[lidx] + adv[lidx]
                pc_col = self.pc
                for j in range(lidx.size):
                    row = int(lrows[j])
                    ctrl = controllers[int(pc_col[row])]
                    if evict_sampling:
                        # A speculative landing resets the sampling
                        # window; hand the controller the row's live
                        # window so the copy-back below is exact either
                        # way.
                        ctrl._window_pos = int(self.win_pos[row])
                        ctrl._window_correct = int(self.win_correct[row])
                    ctrl._land_due(int(instrs[int(ev[j])]))
                    self.deployed[row] = ctrl._deployed
                    self.dep_dir[row] = ctrl._deployed_direction
                    self.episode[row] = ctrl._episode_active
                    self.land[row] = (ctrl._pending[0][0]
                                      if ctrl._pending else _NEVER)
                    if evict_sampling:
                        self.win_pos[row] = ctrl._window_pos
                        self.win_correct[row] = ctrl._window_correct
                self.lands_fast += int(lidx.size)
            new_cur = acur + adv
            cur[act] = new_cur
            act = act[new_cur < seg_end[act]]
        self.rows_fast += nseg
        # Net decision flips over the whole batch.
        fin = self.deployed[rows]
        flips = np.flatnonzero(fin != dep0)
        if flips.size:
            decisions = self._decisions
            flip_pcs = self.pc[rows[flips]].tolist()
            for pc, v in zip(flip_pcs, fin[flips].tolist()):
                decisions[pc] = v
            changed.extend(flip_pcs)
        return correct_delta, incorrect_delta, changed, fired
