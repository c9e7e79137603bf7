"""Columnar cross-branch engine: advance many branches in one shot.

This is the service's one online engine: :meth:`BankShard.apply` hands
it every micro-batch.  The per-branch chunked engine
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
  the pending-landing offset from one ``searchsorted`` of the ``land``
  column over the batch's instruction stamps (rebased per segment so
  they sort across segments), and the eviction arc's exact offset for
  every engaged episode at once, from the many-segment forms of the
  shared eviction kernels in :mod:`repro.core.kernels` — the floored
  counter walk over each window's misses only
  (:func:`~repro.core.kernels.miss_walk`, at most a doubling horizon
  of misses per round) or the sample-window completion scan
  (:func:`~repro.core.kernels.sample_scan`), which also yield the
  counter or window state the prefix ends in;
* **advance** — the pre-boundary prefix of every row moves with the
  columnar kernels: one batch-global prefix sum of outcomes yields any
  window's taken count in O(1), driving execution counts, monitor
  tallies (when the monitor samples every
  ``monitor_sample_stride``-th execution, two lookups in one
  per-batch prefix sum per residue class,
  :func:`~repro.core.kernels.residue_cumsum`), outcome accounting
  against the deployed direction, and the counter's closed-form decay
  over a miss-free window;
* **fire** — rows that reached a boundary apply the transition as a
  batched array op per arc kind: the classify decision (bias test over
  ``mon_taken``/``mon_samples``, vectorized in
  :func:`~repro.core.kernels.classify_split`), revisit re-entry to
  MONITOR, the eviction arc, and optimization-latency landings.  A
  short per-firing-row sync writes the cold scalar-controller fields
  (FSM state, entry index, the deployment queue, the transition log);
  the loop then iterates on each row's remaining suffix until every
  segment is consumed.

No split or advance step reads a window element by element: landings,
strided tallies and miss-free windows cost O(1) or O(log n) per row,
and the eviction walk gathers misses, not executions
(``events_scanned`` in :meth:`ColumnarBank.stats` counts them).  So a
row's cost does not grow with its window, and the per-event cost keeps
falling as batches grow.

With ``capture`` on, a **flip watch** runs beside the rounds for the
misspeculation detector (:mod:`repro.obs.detect`): two observer
columns (``flip_dir``, ``flip_onset``) record, from the row's own
``exec`` count, the execution index of a selected branch's first
outcome against the direction its SELECT deployed, and each EVICT arc
that closes a watch with an onset yields a ``(pc, time_to_evict)``
sample.  A SELECT scans the rest of its segment and the next batches'
segments until the onset, so the samples do not depend on where
batches are cut.  The columns never feed the FSM.

Every controller configuration resolves in these rounds.  Only
single-branch batches with ``capture`` off take the per-branch engine
(:func:`~repro.serve.fastpath.apply_chunk`), by design: there is
nothing to amortize.  They are counted separately (``events_single``).

The contract stays **bit-exactness**: rows are mirrors, the scalar
:class:`~repro.core.controller.ReactiveBranchController` objects remain
the source of truth for snapshots and ``export_state()`` and are
refreshed lazily (:meth:`flush`), so snapshots, WAL replay and obs
tracing stay interchangeable with offline runs (the scalar spec and
:func:`~repro.sim.vector.run_vector`).  All three engines take the
eviction arithmetic from :mod:`repro.core.kernels`: ``apply_chunk`` and
``run_vector`` call each kernel on one segment, this module on all
engaged rows at once.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.controller import ControllerBank, ReactiveBranchController
from repro.core.kernels import (
    NEVER,
    classify_split,
    deploy_delay,
    miss_walk,
    residue_count,
    residue_cumsum,
    sample_scan,
    segments,
)
from repro.core.states import BranchState, Transition, TransitionKind
from repro.obs.tracing import ARC_CODE
from repro.serve.fastpath import apply_chunk

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

_CODE_SELECT = ARC_CODE[TransitionKind.SELECT.value]
_CODE_REJECT = ARC_CODE[TransitionKind.REJECT.value]
_CODE_EVICT = ARC_CODE[TransitionKind.EVICT.value]
_CODE_REVISIT = ARC_CODE[TransitionKind.REVISIT.value]
_CODE_DISABLE = ARC_CODE[TransitionKind.DISABLE.value]

#: Row columns by dtype.  ``flip_dir``/``flip_onset`` are the flip
#: watch (see :meth:`ColumnarBank._watch_flips`), not controller state.
_I64_COLS = ("pc", "exec", "next_fire", "land", "counter",
             "mon_taken", "mon_samples", "win_pos", "win_correct",
             "bias_entries", "correct", "incorrect", "flip_onset")
_I8_COLS = ("state", "flip_dir")
_BOOL_COLS = ("deployed", "dep_dir", "episode", "dirty", "dead")
_COLS = ((_I64_COLS, np.int64), (_I8_COLS, np.int8), (_BOOL_COLS, bool))

#: ``flip_dir`` codes: not watching, trained not-taken, trained taken.
_WATCH_OFF, _WATCH_NOT_TAKEN, _WATCH_TAKEN = range(3)


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
                 "arcs_fast", "lands_fast", "events_scanned",
                 "_parked_flips",
                 *_I64_COLS, *_I8_COLS, *_BOOL_COLS)

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
        #: Flip watch of tenant-spilled rows, key -> (flip_dir,
        #: flip_onset), re-seeded when the key is interned again.
        self._parked_flips: dict[int, tuple[int, int]] = {}
        #: Fast-path engagement counters (see ``stats()``).
        self.rows_fast = 0
        self.rows_single = 0
        self.events_fast = 0
        self.events_single = 0
        self.arcs_fast = 0
        self.lands_fast = 0
        self.events_scanned = 0

    # -- storage --------------------------------------------------------
    def _grow(self, capacity: int) -> None:
        cap = max(self._cap, 16)
        while cap < capacity:
            cap *= 2
        if cap == self._cap:
            return
        n = self.n_rows
        for names, dtype in _COLS:
            for name in names:
                new = np.zeros(cap, dtype=dtype)
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
        deployment landings resolved columnar.  ``events_scanned``
        counts events gathered one by one (the eviction walks over
        miss-bearing windows); per event applied it must not grow with
        the batch size.
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
            "events_scanned": self.events_scanned,
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
        self.land[rows] = NEVER
        self.flip_onset[rows] = -1
        for name in ("exec", "counter", "mon_taken", "mon_samples",
                     "win_pos", "win_correct", "bias_entries", "correct",
                     "incorrect", "flip_dir"):
            getattr(self, name)[rows] = 0
        for name in _BOOL_COLS:
            getattr(self, name)[rows] = False
        controllers = self._scalars._controllers
        decisions = self._decisions
        tenant_index = self._tenant_index
        config = self.config
        parked = self._parked_flips
        for offset, pc in enumerate(new_pcs.tolist()):
            if parked and pc in parked:
                row = base + offset
                self.flip_dir[row], self.flip_onset[row] = parked.pop(pc)
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
        self.land[row] = ctrl._pending[0][0] if ctrl._pending else NEVER
        if state is BranchState.MONITOR:
            fire = ctrl._state_entry_exec + cfg.monitor_period
        elif state is BranchState.UNBIASED and cfg.revisit_enabled:
            fire = ctrl._state_entry_exec + cfg.revisit_period
        else:
            fire = NEVER
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
        set.  Watched rows park their flip watch until re-intern.
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
        watched = (self.flip_dir[rows] != _WATCH_OFF) | (
            self.flip_onset[rows] >= 0)
        for row, key in zip(rows[watched].tolist(),
                            keys[hit][watched].tolist()):
            self._parked_flips[key] = (int(self.flip_dir[row]),
                                       int(self.flip_onset[row]))
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
        for names, _ in _COLS:
            for name in names:
                col = getattr(self, name)
                col[:m] = col[alive]
        self.n_rows = m
        self.n_dead = 0
        self._rebuild_index()

    # -- the fast path --------------------------------------------------
    # -- batched boundary arcs ------------------------------------------
    def _fire_classify(self, crows: np.ndarray, fexec: np.ndarray,
                       finstr: np.ndarray, capture: bool,
                       fired: list[tuple[int, int, int, int]],
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Monitor period complete for ``crows``: classify each branch;
        returns the SELECTed mask and the deployed directions.

        The bias decision is one vectorized pass
        (:func:`~repro.core.kernels.classify_split`); column updates
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
            self.next_fire[r] = NEVER
            self.counter[r] = 0
            self.episode[r] = False
            self.bias_entries[r] += 1
        if reject.any():
            r = crows[reject]
            self.state[r] = _UNBIASED
            if cfg.revisit_enabled:
                self.next_fire[r] = fexec[reject] + 1 + cfg.revisit_period
            else:
                self.next_fire[r] = NEVER
        if disable.any():
            r = crows[disable]
            self.state[r] = _DISABLED
            self.next_fire[r] = NEVER
        controllers = self._scalars._controllers
        delay = deploy_delay(cfg)
        for row, pc, e, ins, sel, dis, d in zip(
                crows.tolist(), self.pc[crows].tolist(), fexec.tolist(),
                finstr.tolist(), select.tolist(), disable.tolist(),
                direction.tolist()):
            ctrl = controllers[pc]
            if sel:
                ctrl._bias_entries += 1
                ctrl._episode_active = False
                if not ctrl._pending:
                    self.land[row] = ins + delay
                ctrl._pending.append((ins + delay, True, d))
                ctrl.state = BranchState.BIASED
                kind, code = TransitionKind.SELECT, _CODE_SELECT
            elif dis:
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
        return select, direction

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
        for pc, e, ins in zip(self.pc[rrows].tolist(), fexec.tolist(),
                              finstr.tolist()):
            ctrl = controllers[pc]
            ctrl.state = BranchState.MONITOR
            ctrl._state_entry_exec = e + 1
            ctrl.transitions.append(
                Transition(pc, TransitionKind.REVISIT, e, ins))
            if capture:
                fired.append((pc, _CODE_REVISIT, e, ins))
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
        self.episode[erows] = False
        self.next_fire[erows] = fexec + 1 + cfg.monitor_period
        controllers = self._scalars._controllers
        delay = deploy_delay(cfg)
        for row, pc, e, ins in zip(erows.tolist(), self.pc[erows].tolist(),
                                   fexec.tolist(), finstr.tolist()):
            ctrl = controllers[pc]
            ctrl.evictions += 1
            ctrl._episode_active = False
            if not ctrl._pending:
                self.land[row] = ins + delay
            ctrl._pending.append((ins + delay, False,
                                  ctrl._deployed_direction))
            ctrl.state = BranchState.MONITOR
            ctrl._state_entry_exec = e + 1
            ctrl.transitions.append(
                Transition(pc, TransitionKind.EVICT, e, ins))
            if capture:
                fired.append((pc, _CODE_EVICT, e, ins))
        self.arcs_fast += int(erows.size)

    # -- flip watch ------------------------------------------------------
    def _watch_flips(self, rows: np.ndarray, trained: np.ndarray,
                     lo: np.ndarray, hi: np.ndarray, exec_lo: np.ndarray,
                     taken: np.ndarray, tc: np.ndarray) -> None:
        """Look for the flip onset of watched ``rows`` over their batch
        positions ``[lo, hi)``, whose first is execution ``exec_lo``.

        A row whose outcomes there hold one against its ``trained``
        direction gets that outcome's execution index as its
        ``flip_onset`` and stops being watched.  ``tc`` is the batch's
        exclusive taken prefix sum.
        """
        n_taken = tc[hi] - tc[lo]
        flipped = np.where(trained, hi - lo - n_taken, n_taken)
        for j in np.flatnonzero(flipped).tolist():
            a = int(lo[j])
            off = int(np.argmax(taken[a:int(hi[j])] != trained[j]))
            self.flip_onset[rows[j]] = exec_lo[j] + off
            self.flip_dir[rows[j]] = _WATCH_OFF

    def apply_sorted(self, pcs: np.ndarray, taken: np.ndarray,
                     instrs: np.ndarray, starts: np.ndarray,
                     ends: np.ndarray, capture: bool,
                     ) -> tuple[int, int, list[int],
                                list[tuple[int, int, int, int]],
                                list[tuple[int, int]]]:
        """Apply a PC-sorted batch; returns (correct, incorrect,
        changed_pcs, captured_transitions, time_to_evict).

        ``starts``/``ends`` bound the per-PC segments (program order
        preserved within each).  With ``capture`` on, the flip watch
        runs around the batch and ``time_to_evict`` lists ``(pc,
        executions from first flipped outcome to EVICT)`` per EVICT
        arc that closed a watched row with an onset.  Must not be
        called with an empty batch.
        """
        if len(starts) == 1 and not capture:
            # Single-branch batch: there is nothing for the cross-
            # branch machinery to amortize, and its small-array kernel
            # launches cost more than the one apply_chunk call they
            # would replace.  (The flip watch needs each SELECT's
            # direction, which only the rounds see.)
            pc = int(pcs[0])
            row = self._row_of(pc)
            if row is None:
                row = int(self._intern(pcs[:1].astype(np.int64))[0])
            ctrl = self._scalars._controllers[pc]
            if self.dirty[row]:
                self._flush_row(row, ctrl)
            before = ctrl._deployed
            c, x = apply_chunk(ctrl, taken, instrs)
            self._refresh_row(row, ctrl)
            self.rows_single += 1
            self.events_single += len(taken)
            if ctrl._deployed == before:
                return c, x, [], [], []
            self._decisions[pc] = ctrl._deployed
            return c, x, [pc], [], []
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
        tc = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(taken, out=tc[1:])
        tte: list[tuple[int, int]] = []
        if capture:
            # Rows selected in an earlier batch and not yet flipped.
            w = np.flatnonzero(self.flip_dir[rows])
            if w.size:
                wr = rows[w]
                self._watch_flips(wr, self.flip_dir[wr] == _WATCH_TAKEN,
                                  starts[w], ends[w], self.exec[wr], taken,
                                  tc)
        cur = starts.astype(np.int64)
        seg_end = ends.astype(np.int64)
        seg_last = instrs[ends - 1]
        changed = []
        fired = []
        correct_delta = 0
        incorrect_delta = 0
        stride = cfg.monitor_sample_stride
        evict_counter = cfg.eviction_enabled and not cfg.evict_by_sampling
        evict_sampling = cfg.eviction_enabled and cfg.evict_by_sampling
        # Built on first use: the landing search key, the strided
        # monitors' per-residue taken prefix sums and the exclusive
        # not-taken count.
        key = key_base = rc = ntc = None
        # Misses each row's next eviction walk may visit (see below).
        h0 = cfg.min_evictions_to_trigger
        horizon = np.full(nseg, h0, dtype=np.int64)
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
            m_land = rem.copy()
            due = np.flatnonzero(land <= seg_last[act])
            if due.size:
                if key is None:
                    # Stamps rebased so each segment starts one past
                    # the previous segment's last key: sorted across the
                    # whole batch, so one search finds every landing.
                    span = seg_last - instrs[starts] + 1
                    key_base = np.cumsum(span) - span - instrs[starts]
                    key = instrs + np.repeat(key_base, ends - starts)
                m_land[due] = np.maximum(np.searchsorted(
                    key, land[due] + key_base[act[due]]) - acur[due], 0)
            # Eviction resolves up to the landing: no further than the
            # row can advance this round.
            reach = np.minimum(rem, m_land)
            if cfg.eviction_enabled:
                engaged = (st == _BIASED) & self.episode[arows]
            else:
                engaged = np.zeros(act.size, dtype=bool)
            cross = np.full(act.size, NEVER, dtype=np.int64)
            # Furthest the row may advance: its segment, or a walk cut
            # short at the row's horizon without a crossing.
            limit = rem.copy()
            decay = None
            if evict_counter and engaged.any():
                ct_reach = tc[acur + reach] - tc[acur]
                miss = np.where(dirs, reach - ct_reach, ct_reach)
                need_walk = engaged & (miss > 0)
                # Miss-free windows only decay the counter: closed form.
                decay = engaged & ~need_walk
                if need_walk.any():
                    # The walk visits misses only, at most the row's
                    # horizon of them: the fewest that can evict at
                    # first, doubled after each walk without a
                    # crossing.  Misses past a crossing are gathered
                    # for nothing, and this bounds them by what the
                    # row walked before.
                    w = np.flatnonzero(need_walk)
                    aw = act[w]
                    lo = acur[w]
                    cnt = np.minimum(miss[w], horizon[aw])
                    segs = segments(cnt)
                    seg = segs.seg
                    # The k-th miss from lo is where the exclusive miss
                    # count (taken outcomes against a not-taken
                    # deployment, not-taken ones against a taken one)
                    # first passes its value at lo by k.
                    x = np.empty(len(seg), dtype=np.int64)
                    against_taken = dirs[w][seg]
                    if ntc is None and against_taken.any():
                        ntc = np.arange(n + 1) - tc
                    for sel, mc in ((against_taken, ntc),
                                    (~against_taken, tc)):
                        if sel.any():
                            x[sel] = np.searchsorted(
                                mc, mc[lo[seg[sel]]] + segs.pos[sel] + 1) - 1
                    x -= lo[seg]
                    # A window cut at the horizon ends after its last
                    # walked miss.
                    cut = cnt < miss[w]
                    p = np.where(cut, x[segs.base + cnt - 1] + 1, reach[w])
                    first, self.counter[arows[w]] = miss_walk(
                        x, p, counter0[w], cfg, segs)
                    found = first != NEVER
                    cross[w[found]] = first[found] + 1
                    limit[w[cut & ~found]] = p[cut & ~found]
                    horizon[aw] = np.where(found, h0, 2 * horizon[aw])
                    self.events_scanned += len(x)
            if evict_sampling and engaged.any():
                # Eviction by sampling up to the first failing
                # completion or the landing, whichever comes first:
                # exactly the prefix the row advances by below.
                e = np.flatnonzero(engaged)
                er = arows[e]
                first, self.win_pos[er], self.win_correct[er] = sample_scan(
                    tc, acur[e], reach[e], dirs[e], self.win_pos[er],
                    self.win_correct[er], cfg)
                found = first != NEVER
                cross[e[found]] = first[found] + 1
            # First boundary wins; an arc consuming b events fires
            # during event b-1, a landing at offset m fires before
            # event m — so the arc goes first iff b <= m.
            b_arc = np.minimum(m_fire, cross)
            arc = (b_arc <= m_land) & (b_arc <= limit)
            landing = ~arc & (m_land < limit)
            adv = np.where(arc, b_arc, np.where(landing, m_land, limit))
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
                a = adv[mon]
                if stride > 1:
                    # The monitor samples the executions whose offset o
                    # from state entry is a multiple of the stride: a
                    # difference of ceilings counts them, and their
                    # batch positions share one residue mod the stride.
                    o = exec0[mon] - (next_fire[mon] - cfg.monitor_period)
                    self.mon_samples[mrows] += (
                        (o + a + stride - 1) // stride
                        - (o + stride - 1) // stride)
                    if rc is None:
                        rc = residue_cumsum(taken, stride)
                    lo = acur[mon]
                    self.mon_taken[mrows] += residue_count(
                        rc, stride, lo, lo + a, (lo - o) % stride)
                else:
                    # Every execution is a sample, including a classify
                    # event.
                    self.mon_samples[mrows] += a
                    self.mon_taken[mrows] += ct[mon]
            if decay is not None and decay.any():
                self.counter[arows[decay]] = np.maximum(
                    0, counter0[decay] - adv[decay] * cfg.correct_decrement)
            self.dirty[arows[adv > 0]] = True
            self.events_fast += int(adv.sum())
            # -- fire: batched boundary transitions --------------------
            if arc.any():
                fexec = exec0 + adv - 1
                finstr = instrs[acur + adv - 1]
                cls = arc & mon
                if cls.any():
                    select, direction = self._fire_classify(
                        arows[cls], fexec[cls], finstr[cls], capture, fired)
                    if capture and select.any():
                        # Watch each SELECTed row from its next event
                        # on, against the direction it deployed.
                        c = np.flatnonzero(cls)[select]
                        sr = arows[c]
                        d = direction[select]
                        self.flip_dir[sr] = np.where(d, _WATCH_TAKEN,
                                                     _WATCH_NOT_TAKEN)
                        self.flip_onset[sr] = -1
                        self._watch_flips(sr, d, acur[c] + adv[c],
                                          seg_end[act[c]], fexec[c] + 1,
                                          taken, tc)
                rev = arc & (st == _UNBIASED)
                if rev.any():
                    self._fire_revisit(arows[rev], fexec[rev],
                                       finstr[rev], capture, fired)
                evi = arc & (cross != NEVER)
                if evi.any():
                    er = arows[evi]
                    self._fire_evict(er, fexec[evi], finstr[evi], capture,
                                     fired)
                    if capture:
                        # An EVICT closes the watch, with a sample when
                        # it saw the flip onset.
                        onset = self.flip_onset[er]
                        got = onset >= 0
                        tte.extend(zip(
                            self.pc[er[got]].tolist(),
                            (fexec[evi][got] - onset[got]).tolist()))
                        self.flip_dir[er] = _WATCH_OFF
                        self.flip_onset[er] = -1
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
                                      if ctrl._pending else NEVER)
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
        return correct_delta, incorrect_delta, changed, fired, tte
