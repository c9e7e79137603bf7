"""Bounded label cardinality for high-cardinality dimensions.

A per-tenant counter is the most useful serving metric and the easiest
way to blow up a metrics pipeline: a million tenants would mint a
million label children per family.  :class:`LabelCardinalityGuard`
caps that at ``top_k + 1`` children — dedicated labels for the top-K
ids by traffic, everything else folded into one ``__overflow__``
aggregate — while keeping the family total exact.

Heavy hitters are tracked with a space-saving sketch of bounded
capacity (a few multiples of K): an unseen id entering a full sketch
evicts the minimum-count entry and inherits its count, the classic
overestimate that guarantees no true heavy hitter is missed.  The
minimum is found through a lazily-pruned heap of ``(count, birth,
id)`` entries rather than a scan of the sketch — ties go, as with a
scan in insertion order, to the earliest-inserted id.  An id is
promoted to its own label child only when its sketched count passes
the smallest promoted count; the loser is demoted — its child's total
is folded into ``__overflow__`` (keeping the family sum exact and
monotone) and the child removed via
:meth:`~repro.obs.metrics.MetricFamily.remove`.

The guard is single-writer (the service's event loop); the metric
children it maintains stay thread-safe for exposition readers as
always.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.obs.metrics import MetricFamily

__all__ = ["OVERFLOW_LABEL", "LabelCardinalityGuard"]

OVERFLOW_LABEL = "__overflow__"


class LabelCardinalityGuard:
    """Top-K + overflow routing for one labelled counter family."""

    __slots__ = ("family", "top_k", "capacity", "_counts", "_born",
                 "_heap", "_births", "_promoted", "_floor", "_overflow")

    def __init__(self, family: MetricFamily, top_k: int = 16,
                 capacity: int | None = None) -> None:
        if len(family.labelnames) != 1:
            raise ValueError("the guard manages exactly one label "
                             f"dimension; {family.name} has "
                             f"{family.labelnames}")
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        self.family = family
        self.top_k = top_k
        self.capacity = capacity if capacity is not None else 4 * top_k
        if self.capacity < top_k:
            raise ValueError("capacity must be at least top_k")
        #: Space-saving sketch: id -> (over)estimated traffic count.
        self._counts: dict[int, int] = {}
        #: id -> its insertion stamp in the sketch (the tie-break).
        self._born: dict[int, int] = {}
        self._births = 0
        #: ``(count, born, id)`` min-heap over the sketch.  Every count
        #: change pushes a fresh entry; entries no longer matching the
        #: sketch are stale and dropped when they surface.
        self._heap: list[tuple[int, int, int]] = []
        self._promoted: set[int] = set()
        #: Cached minimum promoted count; promotion is only *attempted*
        #: when a sketch count passes this, so the O(K) min scan runs
        #: on rank changes, not on every increment.
        self._floor = 0
        self._overflow = family.labels(OVERFLOW_LABEL)

    def inc(self, ident: int, amount: int | float = 1) -> None:
        """Count ``amount`` traffic for ``ident``, routed to its own
        label child (top-K) or the overflow aggregate."""
        counts = self._counts
        born = self._born
        have = counts.get(ident)
        if have is None:
            if len(counts) >= self.capacity:
                evicted, have = self._pop_min()
                if evicted in self._promoted:
                    self._demote(evicted)
            else:
                have = 0
            self._births += 1
            born[ident] = self._births
        count = counts[ident] = have + amount
        heappush(self._heap, (count, born[ident], ident))
        if len(self._heap) > 4 * self.capacity:
            # Mostly stale entries: rebuild from the live sketch.
            self._heap = [(c, born[i], i) for i, c in counts.items()]
            heapify(self._heap)

        if ident in self._promoted:
            self.family.labels(str(ident)).inc(amount)
            return
        if len(self._promoted) < self.top_k:
            self._promoted.add(ident)
            self._refloor()
            self.family.labels(str(ident)).inc(amount)
            return
        if counts[ident] > self._floor:
            loser = min(self._promoted, key=lambda t: counts.get(t, 0))
            if counts[ident] > counts.get(loser, 0):
                self._promoted.remove(loser)
                self._demote(loser)
                self._promoted.add(ident)
                self._refloor()
                self.family.labels(str(ident)).inc(amount)
                return
            self._refloor()
        self._overflow.inc(amount)

    def _pop_min(self) -> tuple[int, int]:
        """Remove and return the sketch's minimum ``(id, count)``."""
        counts = self._counts
        born = self._born
        heap = self._heap
        while True:
            count, stamp, ident = heappop(heap)
            if born.get(ident) == stamp and counts[ident] == count:
                del counts[ident]
                del born[ident]
                return ident, count

    def _demote(self, ident: int) -> None:
        """Fold a demoted id's child into overflow and drop the child,
        so the family total never decreases."""
        child = self.family.labels(str(ident))
        if child.value:
            self._overflow.inc(child.value)
        self.family.remove(str(ident))

    def _refloor(self) -> None:
        counts = self._counts
        self._floor = min(
            (counts.get(t, 0) for t in self._promoted), default=0)

    @property
    def tracked(self) -> int:
        """Sketch occupancy (bounded by ``capacity``)."""
        return len(self._counts)

    @property
    def promoted(self) -> frozenset[int]:
        return frozenset(self._promoted)
