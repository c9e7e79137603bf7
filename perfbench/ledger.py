"""Per-layer ledger: timing shims around each ``repro`` layer's entry points.

A traced round wraps the public functions and methods named in
:data:`SHIMS` with a span recorder.  Each span keeps its name, start,
end, parent span and batch seq in memory; :meth:`SpanLog.write` saves
them at exit.  Nesting follows a :class:`contextvars.ContextVar`, so a
span opened inside an asyncio task parents only the calls that task
makes; calls made on executor threads (the WAL's group commit and
compaction) start their own roots.  Self time is a span's duration
minus the union of its children's intervals.

Nothing here changes what the wrapped code computes: a shim reads the
clock, calls through, and records.  End-to-end metrics always come from
rounds run with the shims removed.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import threading
from array import array
from time import perf_counter

import numpy as np

#: ``(module, attribute path, span name)``.  A dotted attribute path
#: wraps a method on its class; a bare name wraps a module-level
#: function at the place callers look it up.
SHIMS = (
    ("repro.serve.service", "SpeculationService.submit_nowait",
     "service.submit"),
    ("repro.serve.service", "SpeculationService.snapshot",
     "service.snapshot"),
    ("repro.serve.shard", "ShardedBank.partition", "shard.partition"),
    ("repro.serve.shard", "BankShard.apply", "shard.apply"),
    ("repro.serve.shard", "BankShard.absorb", "shard.absorb"),
    ("repro.serve.colpath", "ColumnarBank.apply_sorted", "colpath.apply"),
    ("repro.serve.colpath", "apply_chunk", "fastpath.apply_chunk"),
    ("repro.serve.shard", "apply_chunk", "fastpath.apply_chunk"),
    ("repro.serve.workers", "WorkerPool.apply", "wire.apply"),
    ("repro.serve.wire", "encode_apply", "wire.encode"),
    ("repro.serve.wire", "encode_tapply", "wire.encode"),
    ("repro.wal.writer", "WalWriter.append", "wal.append"),
    ("repro.wal.writer", "WalWriter.commit", "wal.commit"),
    ("repro.wal.writer", "WalWriter.compact", "wal.compact"),
    ("repro.replicate.sender", "ReplicationSender.offer", "repl.offer"),
    ("repro.serve.snapshot", "save_snapshot", "snapshot.save"),
    ("repro.serve.snapshot", "load_snapshot", "snapshot.load"),
    ("repro.wal.recovery", "replay_into_service", "recover.replay"),
    ("repro.tenant.manager", "TenantManager.plan", "tenant.plan"),
    ("repro.tenant.manager", "TenantManager.commit", "tenant.commit"),
    ("repro.tenant.manager", "TenantManager.pick_victims",
     "tenant.pick_victims"),
    ("repro.tenant.manager", "TenantManager.spill_contribution",
     "tenant.spill_store"),
    ("repro.tenant.manager", "TenantManager.take_spilled",
     "tenant.take_spilled"),
    ("repro.serve.shard", "BankShard.spill_tenant", "tenant.spill_job"),
    ("repro.serve.shard", "BankShard.restore_tenant", "tenant.restore_job"),
    ("repro.obs.detect", "MisspecDetector.observe_batch", "obs.detect"),
    ("repro.obs.detect", "MisspecDetector.observe_apply", "obs.detect"),
    ("repro.obs.detect", "MisspecDetector.observe_transitions",
     "obs.detect"),
    ("repro.obs.spans", "SpanRecorder.begin", "obs.spans"),
    ("repro.obs.spans", "SpanRecorder.note_applied", "obs.spans"),
    ("repro.obs.tracing", "TransitionTrace.extend", "obs.trace"),
    ("repro.serve.telemetry", "ServiceTelemetry.record_apply",
     "obs.telemetry"),
    ("repro.serve.telemetry", "ServiceTelemetry.record_enqueue",
     "obs.telemetry"),
    # The benchmark's own producer-side work, so it is attributed too.
    ("workloads", "Reads.block", "loadgen.reads"),
    ("workloads", "LagWatcher.poll", "loadgen.watch"),
)

#: Span names whose every duration is kept, for percentiles.
QUANTILED = frozenset({"wire.apply", "wal.commit"})

#: Span kinds: synchronous on the event-loop thread, a coroutine (its
#: interval includes time other tasks ran), or another thread.
SYNC, ASYNC, THREAD = 0, 1, 2

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class _Frame:
    __slots__ = ("idx", "name", "t0", "children")

    def __init__(self, idx: int, name: str, t0: float) -> None:
        self.idx = idx
        self.name = name
        self.t0 = t0
        self.children: list[tuple[float, float]] = []


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class SpanLog:
    """In-memory span store plus exact per-name aggregates.

    Spans past ``capacity`` still count in the aggregates (their self
    time is computed the same way, online) but are not stored.
    """

    def __init__(self, capacity: int = 1_500_000) -> None:
        self.capacity = capacity
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.kind = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.seq = array("q")
        self.self_time = array("d")
        self.dropped = 0
        #: name -> [calls, total seconds, self seconds]
        self.agg: dict[str, list] = {}
        #: name -> every duration, for the :data:`QUANTILED` names
        self.durations: dict[str, list[float]] = {}
        self._lock = threading.Lock()
        self._main = threading.get_ident()

    def _open(self, name: str, kind: int, t0: float,
              parent: _Frame | None, seq: int) -> int:
        with self._lock:
            idx = len(self.start)
            if idx >= self.capacity:
                self.dropped += 1
                return -1
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.name_id.append(nid)
            self.kind.append(kind)
            self.start.append(t0)
            self.end.append(t0)
            self.parent.append(parent.idx if parent is not None else -1)
            self.seq.append(seq)
            self.self_time.append(0.0)
            return idx

    def _close(self, frame: _Frame, t1: float,
               parent: _Frame | None) -> None:
        dur = t1 - frame.t0
        own = dur - _covered(frame.children)
        if parent is not None:
            parent.children.append((frame.t0, t1))
        with self._lock:
            if frame.idx >= 0:
                self.end[frame.idx] = t1
                self.self_time[frame.idx] = own
            agg = self.agg.setdefault(frame.name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += own
            if frame.name in QUANTILED:
                self.durations.setdefault(frame.name, []).append(dur)

    def wrap(self, fn, name: str, observe=None):
        """A shim around ``fn`` recording one span per call; ``observe``
        (if given) also sees each call's arguments and result."""
        log = self

        def seq_of(args) -> int:
            for a in args[1:2]:
                seq = getattr(a, "seq", None)
                if isinstance(seq, int):
                    return seq
            return -1

        def parent_seq(parent, args) -> int:
            seq = seq_of(args)
            if seq < 0 and parent is not None and parent.idx >= 0:
                seq = int(log.seq[parent.idx])
            return seq

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def shim_async(*args, **kwargs):
                parent = _current.get()
                t0 = perf_counter()
                seq = parent_seq(parent, args)
                frame = _Frame(log._open(name, ASYNC, t0, parent, seq),
                               name, t0)
                token = _current.set(frame)
                try:
                    out = await fn(*args, **kwargs)
                    if observe is not None:
                        observe(args, out)
                    return out
                finally:
                    _current.reset(token)
                    log._close(frame, perf_counter(), parent)
            return shim_async

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = _current.get()
            t0 = perf_counter()
            kind = SYNC if threading.get_ident() == log._main else THREAD
            frame = _Frame(log._open(name, kind, t0, parent,
                                     parent_seq(parent, args)), name, t0)
            token = _current.set(frame)
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, out)
                return out
            finally:
                _current.reset(token)
                log._close(frame, perf_counter(), parent)
        return shim

    # -- views ------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.agg.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def quantile(self, name: str, q: float) -> float:
        values = self.durations.get(name)
        if not values:
            return 0.0
        return float(np.quantile(np.asarray(values), q))

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer (span name up to its first dot), over
        the spans that occupy the event-loop thread."""
        out: dict[str, float] = {}
        for name, (_calls, _total, own) in self.agg.items():
            if name in _OFF_LOOP:
                continue
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path) -> None:
        """Save the stored spans as ``.npz`` columns."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 kind=np.frombuffer(self.kind, dtype=np.int8),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 seq=np.frombuffer(self.seq, dtype=np.int64),
                 self_time=np.frombuffer(self.self_time),
                 dropped=np.array(self.dropped))


#: Spans whose interval is not event-loop time: coroutines awaiting a
#: worker or the disk, and executor-thread work.
_OFF_LOOP = frozenset({"wire.apply", "service.snapshot", "wal.commit",
                       "wal.compact"})


class Shims:
    """Install and remove the :data:`SHIMS` wrappers around one log."""

    def __init__(self, log: SpanLog, observe: dict | None = None) -> None:
        self.log = log
        self.observe = observe or {}
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, path, span in SHIMS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.log.wrap(original, span,
                                                self.observe.get(span)))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
