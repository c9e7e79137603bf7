"""LabelCardinalityGuard: a million tenants never mint a million
label children — top-K get dedicated labels, the tail shares one
``__overflow__`` aggregate, and the family total stays exact."""

import numpy as np
import pytest

from repro.obs.cardinality import OVERFLOW_LABEL, LabelCardinalityGuard
from repro.obs.metrics import MetricsRegistry


def make_guard(top_k=8, capacity=None):
    registry = MetricsRegistry()
    family = registry.counter("events_total", "per-tenant events",
                              ("tenant",))
    return family, LabelCardinalityGuard(family, top_k,
                                         capacity=capacity)


def family_total(family):
    return sum(child.value for _, child in family.children())


def child_labels(family):
    return {values[0] for values, _ in family.children()}


def test_validation():
    registry = MetricsRegistry()
    plain = registry.counter("c_total", "no labels")
    with pytest.raises(ValueError, match="one label"):
        LabelCardinalityGuard(plain, 4)
    two = registry.counter("d_total", "two labels", ("a", "b"))
    with pytest.raises(ValueError, match="one label"):
        LabelCardinalityGuard(two, 4)
    family = registry.counter("e_total", "one label", ("tenant",))
    with pytest.raises(ValueError, match="top_k"):
        LabelCardinalityGuard(family, 0)
    with pytest.raises(ValueError, match="capacity"):
        LabelCardinalityGuard(family, 8, capacity=4)


def test_under_top_k_every_id_gets_a_label():
    family, guard = make_guard(top_k=8)
    for tenant in range(5):
        guard.inc(tenant, 10)
    assert child_labels(family) == ({str(t) for t in range(5)}
                                    | {OVERFLOW_LABEL})
    for tenant in range(5):
        assert family.labels(str(tenant)).value == 10
    assert family.labels(OVERFLOW_LABEL).value == 0


def test_cardinality_is_bounded_at_a_million_ids():
    """The 1M-tenant scenario: label children stay <= top_k + 1 no
    matter how many distinct ids pass through, sketch memory stays
    bounded at `capacity`, and no count is ever lost."""
    family, guard = make_guard(top_k=8)
    rng = np.random.default_rng(0)
    # 200k increments over one million distinct tenant ids.
    ids = rng.integers(0, 1_000_000, 200_000)
    for ident in ids.tolist():
        guard.inc(ident)
    assert len(list(family.children())) <= guard.top_k + 1
    assert guard.tracked <= guard.capacity
    assert family_total(family) == len(ids)


def test_heavy_hitters_get_promoted_and_total_stays_exact():
    family, guard = make_guard(top_k=2, capacity=8)
    # Fill the promoted set with two ids, then out-traffic them.
    guard.inc(1, 5)
    guard.inc(2, 5)
    for _ in range(50):
        guard.inc(3)
    assert 3 in guard.promoted
    assert "3" in child_labels(family)
    assert len(list(family.children())) <= 3
    # Demotion folded the loser's count into overflow: nothing lost.
    assert family_total(family) == 60


def test_demoted_child_is_removed_not_leaked():
    family, guard = make_guard(top_k=1, capacity=4)
    guard.inc(1, 3)
    assert "1" in child_labels(family)
    for _ in range(10):
        guard.inc(2)
    assert "2" in child_labels(family)
    assert "1" not in child_labels(family)
    assert family.labels(OVERFLOW_LABEL).value >= 3
    assert family_total(family) == 13


def test_eviction_inherits_count_never_undercounts():
    """The space-saving sketch may overestimate an id's traffic but
    the exported totals remain exact regardless."""
    family, guard = make_guard(top_k=2, capacity=2)
    guard.inc(1)
    guard.inc(2)
    guard.inc(3)  # evicts the sketch minimum, inherits its count
    assert guard.tracked <= 2
    assert family_total(family) == 3


class ScanGuard(LabelCardinalityGuard):
    """Reference: the guard with its sketch minimum found by a linear
    scan in insertion order (``min(counts, key=counts.get)``)."""

    __slots__ = ()

    def inc(self, ident, amount=1):
        counts = self._counts
        have = counts.get(ident)
        if have is None:
            if len(counts) >= self.capacity:
                evicted = min(counts, key=counts.get)
                have = counts.pop(evicted)
                if evicted in self._promoted:
                    self._demote(evicted)
            else:
                have = 0
        counts[ident] = have + amount
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


def children(family):
    return {values[0]: child.value for values, child in family.children()}


@pytest.mark.parametrize("stream", ["uniform", "zipf"])
@pytest.mark.parametrize("top_k,capacity", [(16, None), (4, 6), (2, 2)])
def test_heap_sketch_matches_the_linear_scan(stream, top_k, capacity):
    """100k ids through the heap-backed guard and the scanning
    reference: identical promoted sets, sketches and child values at
    every checkpoint (equal counts evict the earliest-inserted id)."""
    rng = np.random.default_rng(7)
    n = 100_000
    if stream == "uniform":
        ids = rng.integers(0, 100_000, n)
    else:
        ids = rng.zipf(1.2, n) % 50_000
    # Mostly unit increments (many count ties), some batch-sized ones.
    amounts = np.where(rng.random(n) < 0.8, 1, rng.integers(1, 64, n))
    new_family, new = make_guard(top_k, capacity)
    ref_family = MetricsRegistry().counter("events_total", "ref",
                                           ("tenant",))
    ref = ScanGuard(ref_family, top_k, capacity=capacity)
    for i, (ident, amount) in enumerate(zip(ids.tolist(),
                                            amounts.tolist())):
        new.inc(ident, amount)
        ref.inc(ident, amount)
        if i % 997 == 0:
            assert new.promoted == ref.promoted
            assert new._counts == ref._counts
    assert new.promoted == ref.promoted
    assert list(new._counts) == list(ref._counts)
    assert new._counts == ref._counts
    assert children(new_family) == children(ref_family)
