"""Online misspeculation health detection over the exact event stream.

The paper's reactive controllers exist to bound misspeculation bursts;
this module watches for those bursts *online*, from the per-apply
outcome counts and the exact FSM arc stream, and renders a verdict:

``ok``
    Window misspeculation rate below the degraded threshold and no
    eviction storm.
``degraded``
    Window misspeculation rate at or above
    :attr:`DetectorConfig.degraded_misspec_rate`.
``misspec-burst``
    Window rate at or above :attr:`DetectorConfig.burst_misspec_rate`,
    *or* an eviction storm — at least
    :attr:`DetectorConfig.storm_evictions` EVICT arcs within one
    window.  A retrained (train-then-flip) branch population trips
    this via the storm signal even when the flip burst is short
    relative to the window.

Three inputs, all read-only with respect to controller state:

* :meth:`MisspecDetector.observe_batch` — one apply's per-PC
  **time-to-evict** samples: executions from the first flipped outcome
  to the EVICT arc, in that PC's own execution counts.  The shard
  computes them (:meth:`~repro.serve.colpath.ColumnarBank._watch_flips`)
  from the bank's own ``exec`` column, so the onset shares the
  controller's absolute 0-based ``exec_index`` timebase in every mode —
  in-process, worker processes, and after a snapshot restore for PCs
  selected after the restore.  The onset is the first outcome after
  the SELECT against the direction it deployed, wherever batches are
  cut.  A PC selected before the snapshot yields no sample (the watch
  is not part of snapshot state).
* :meth:`MisspecDetector.observe_apply` — per-apply aggregate counts
  (events, correct, incorrect) plus the instruction span, feeding the
  sliding window (misspec rate, misspec-per-kilo-instruction).
* :meth:`MisspecDetector.observe_transitions` — the exact FSM arc
  stream (it registers as a :class:`~repro.obs.tracing.TransitionTrace`
  listener in the service).  SELECT adds a PC to the deployed set and
  EVICT removes it (the ``deployed_pcs`` gauge); EVICT also marks the
  window for the storm signal.

Verdicts latch: ``peak_verdict`` and the burst counter never move
backwards, so a CI step can assert "a burst happened" after the storm
has subsided.

Thread-safety: every entry point takes the detector lock — observe_*
run on the service event loop, ``health_doc``/``verdict`` on the HTTP
server thread.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import ARC_CODE

__all__ = ["DetectorConfig", "MisspecDetector", "VERDICTS", "VERDICT_LEVEL"]

VERDICTS = ("ok", "degraded", "misspec-burst")
VERDICT_LEVEL = {"ok": 0, "degraded": 1, "misspec-burst": 2}

_SELECT = ARC_CODE["select"]
_EVICT = ARC_CODE["evict"]

#: Power-of-two buckets for time-to-evict, in per-branch executions.
TTE_BUCKETS = tuple(float(1 << i) for i in range(17))

#: Most recent per-PC time-to-evict samples kept for ``health_doc``.
_TTE_KEEP = 1024


@dataclass(frozen=True)
class DetectorConfig:
    """Sliding-window sizes and verdict thresholds.

    Defaults are tuned for this reproduction's scaled traces
    (``scaled_config``): a 500-count eviction ceiling with increment 50
    means a flipped branch misspeculates >=10 times before EVICT, so a
    handful of simultaneously retrained branches shows up as an
    eviction storm well before the window rate saturates.
    """

    window_events: int = 8192
    min_window_events: int = 512
    degraded_misspec_rate: float = 0.08
    burst_misspec_rate: float = 0.20
    storm_evictions: int = 3

    def __post_init__(self) -> None:
        if self.window_events <= 0:
            raise ValueError("window_events must be positive")
        if not 0 < self.min_window_events <= self.window_events:
            raise ValueError("min_window_events must be in "
                             "(0, window_events]")
        if not 0.0 < self.degraded_misspec_rate <= 1.0:
            raise ValueError("degraded_misspec_rate must be in (0, 1]")
        if not self.degraded_misspec_rate <= self.burst_misspec_rate <= 1.0:
            raise ValueError("burst_misspec_rate must be in "
                             "[degraded_misspec_rate, 1]")
        if self.storm_evictions <= 0:
            raise ValueError("storm_evictions must be positive")


class MisspecDetector:
    """Sliding-window misspeculation health over the exact stream."""

    def __init__(self, config: DetectorConfig | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.config = config if config is not None else DetectorConfig()
        self._lock = threading.Lock()
        #: PCs between their SELECT and EVICT arcs (gauge only).
        self._deployed: set[int] = set()
        # -- sliding window ---------------------------------------------
        self._window: deque[tuple[int, int, int, int]] = deque()
        self._win_events = 0
        self._win_mis = 0
        self._total_events = 0
        self._evict_marks: deque[int] = deque()
        # -- verdict / results ------------------------------------------
        self._verdict = "ok"
        self._peak_verdict = "ok"
        self._bursts = 0
        self._tte: dict[int, int] = {}
        self._tte_count = 0
        self._tte_sum = 0
        # -- instruments -------------------------------------------------
        self._g_rate = self._g_mpki = self._g_evict = None
        self._g_verdict = self._g_deployed = None
        self._c_bursts = self._h_tte = None
        if registry is not None:
            self._g_rate = registry.gauge(
                "repro_detect_window_misspec_rate",
                "Misspeculated fraction of events in the sliding window")
            self._g_mpki = registry.gauge(
                "repro_detect_window_mpki",
                "Misspeculations per thousand instructions in the window")
            self._g_evict = registry.gauge(
                "repro_detect_window_evictions",
                "EVICT arcs within the sliding window")
            self._g_verdict = registry.gauge(
                "repro_detect_verdict",
                "Health verdict: 0=ok 1=degraded 2=misspec-burst")
            self._g_deployed = registry.gauge(
                "repro_detect_deployed_pcs",
                "PCs between a SELECT and its EVICT arc")
            self._c_bursts = registry.counter(
                "repro_detect_bursts_total",
                "Transitions into the misspec-burst verdict")
            self._h_tte = registry.histogram(
                "repro_detect_time_to_evict_events",
                "Per-PC executions from first flipped outcome to EVICT",
                buckets=TTE_BUCKETS)

    # -- inputs ----------------------------------------------------------
    def observe_batch(self, tte) -> None:
        """Record one apply's ``(pc, time_to_evict)`` samples
        (:attr:`~repro.serve.shard.ShardApplyResult.tte`)."""
        if not tte:
            return
        with self._lock:
            for pc, t in tte:
                self._record_tte(int(pc), int(t))

    def observe_apply(self, events: int, correct: int, incorrect: int,
                      first_instr: int, last_instr: int) -> None:
        """Feed one apply's aggregate counts into the sliding window."""
        if events <= 0:
            return
        cfg = self.config
        with self._lock:
            self._total_events += events
            self._window.append((events, incorrect, first_instr,
                                 last_instr))
            self._win_events += events
            self._win_mis += incorrect
            while (len(self._window) > 1
                   and self._win_events - self._window[0][0]
                   >= cfg.window_events):
                e0, m0, _, _ = self._window.popleft()
                self._win_events -= e0
                self._win_mis -= m0
            floor = self._total_events - self._win_events
            while self._evict_marks and self._evict_marks[0] <= floor:
                self._evict_marks.popleft()
            self._update_verdict()

    def observe_transitions(self, transitions) -> None:
        """Consume exact FSM arcs: SELECT adds a PC to the deployed
        set, EVICT removes it and marks the window.

        Accepts ``(pc, arc_code, exec_index, instr)`` tuples — the
        shape :class:`~repro.obs.tracing.TransitionTrace` listeners
        receive.
        """
        with self._lock:
            for pc, arc, _exec_index, _instr in transitions:
                if arc == _SELECT:
                    self._deployed.add(int(pc))
                elif arc == _EVICT:
                    self._deployed.discard(int(pc))
                    self._evict_marks.append(self._total_events)
            if self._g_deployed is not None:
                self._g_deployed.set(len(self._deployed))
            self._update_verdict()

    def _record_tte(self, pc: int, tte: int) -> None:
        if tte < 0:
            return
        if len(self._tte) >= _TTE_KEEP and pc not in self._tte:
            self._tte.pop(next(iter(self._tte)))
        self._tte[pc] = tte
        self._tte_count += 1
        self._tte_sum += tte
        if self._h_tte is not None:
            self._h_tte.observe(tte)

    # -- verdict ---------------------------------------------------------
    def _window_stats(self) -> tuple[float, float]:
        """(misspec rate, misspec per kilo-instruction) of the window."""
        if self._win_events < self.config.min_window_events:
            return 0.0, 0.0
        rate = self._win_mis / self._win_events
        instrs = self._window[-1][3] - self._window[0][2]
        mpki = self._win_mis / instrs * 1000.0 if instrs > 0 else 0.0
        return rate, mpki

    def _update_verdict(self) -> None:
        rate, mpki = self._window_stats()
        storm = len(self._evict_marks)
        if (rate >= self.config.burst_misspec_rate
                or storm >= self.config.storm_evictions):
            verdict = "misspec-burst"
        elif rate >= self.config.degraded_misspec_rate:
            verdict = "degraded"
        else:
            verdict = "ok"
        if (verdict == "misspec-burst"
                and self._verdict != "misspec-burst"):
            self._bursts += 1
            if self._c_bursts is not None:
                self._c_bursts.inc()
        if VERDICT_LEVEL[verdict] > VERDICT_LEVEL[self._peak_verdict]:
            self._peak_verdict = verdict
        self._verdict = verdict
        if self._g_rate is not None:
            self._g_rate.set(rate)
            self._g_mpki.set(mpki)
            self._g_evict.set(storm)
            self._g_verdict.set(VERDICT_LEVEL[verdict])

    # -- outputs ---------------------------------------------------------
    @property
    def verdict(self) -> str:
        with self._lock:
            return self._verdict

    @property
    def peak_verdict(self) -> str:
        with self._lock:
            return self._peak_verdict

    def time_to_evict(self) -> dict[int, int]:
        """Most recent time-to-evict per PC (executions from first
        flipped outcome to the EVICT arc)."""
        with self._lock:
            return dict(self._tte)

    def health_doc(self) -> dict:
        """JSON document for ``GET /health`` and ``obs top``."""
        cfg = self.config
        with self._lock:
            rate, mpki = self._window_stats()
            instrs = (self._window[-1][3] - self._window[0][2]
                      if self._window else 0)
            return {
                "kind": "repro.obs.health",
                "verdict": self._verdict,
                "peak_verdict": self._peak_verdict,
                "bursts": self._bursts,
                "events_observed": self._total_events,
                "window": {
                    "events": self._win_events,
                    "misspeculated": self._win_mis,
                    "misspec_rate": round(rate, 6),
                    "mpki": round(mpki, 6),
                    "evictions": len(self._evict_marks),
                    "instrs": int(instrs),
                },
                "deployed_pcs": len(self._deployed),
                "time_to_evict": {
                    "count": self._tte_count,
                    "mean": (round(self._tte_sum / self._tte_count, 3)
                             if self._tte_count else 0.0),
                    "last": {str(pc): tte
                             for pc, tte in self._tte.items()},
                },
                "thresholds": {
                    "window_events": cfg.window_events,
                    "min_window_events": cfg.min_window_events,
                    "degraded_misspec_rate": cfg.degraded_misspec_rate,
                    "burst_misspec_rate": cfg.burst_misspec_rate,
                    "storm_evictions": cfg.storm_evictions,
                },
            }
