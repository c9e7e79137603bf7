"""TenantManager: quotas, LRU accounting, spill/restore bookkeeping."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.serve.events import EventBatch
from repro.tenant.keys import pack_key
from repro.tenant.manager import TenantManager

BPB = 512


def make_batch(seq, tenant_pcs, start_instr=0):
    """A batch from (tenant, pc) pairs, instrs strictly increasing."""
    n = len(tenant_pcs)
    return EventBatch(
        seq=seq,
        pcs=np.array([pc for _, pc in tenant_pcs], dtype=np.int32),
        taken=np.ones(n, dtype=bool),
        instrs=np.arange(start_instr, start_instr + n, dtype=np.int64),
        tenants=np.array([t for t, _ in tenant_pcs], dtype=np.uint32),
    )


def states_for(tenant, pcs):
    """Minimal controller-state dicts keyed by packed branch."""
    return [{"branch": pack_key(tenant, pc), "deployed": False}
            for pc in pcs]


def test_plan_groups_tenants_and_legacy_batches_are_tenant_zero():
    tm = TenantManager(n_shards=1)
    batch = make_batch(0, [(3, 10), (1, 11), (3, 12)])
    plan = tm.plan(batch, now=0.0)
    assert plan.tenants == [1, 3]
    assert plan.counts == [1, 2]
    assert plan.reject_kind is None
    legacy = EventBatch(seq=1, pcs=np.array([5], dtype=np.int32),
                        taken=np.array([True]),
                        instrs=np.array([1], dtype=np.int64))
    plan = tm.plan(legacy, now=0.0)
    assert plan.tenants == [0]
    assert plan.counts == [1]
    tm.close()


def test_quota_bucket_charges_refills_and_rejects():
    tm = TenantManager(n_shards=1, quota_rate=100.0, quota_burst=10)
    # A batch larger than the burst can never be admitted.
    big = make_batch(0, [(1, pc) for pc in range(11)])
    plan = tm.plan(big, now=0.0)
    assert plan.reject_kind == "quota"
    assert plan.reject_tenant == 1
    assert plan.retry_after == pytest.approx((11 - 10) / 100.0)
    # Exactly the burst drains the bucket...
    full = make_batch(0, [(1, pc) for pc in range(10)])
    plan = tm.plan(full, now=0.0)
    assert plan.reject_kind is None
    tm.commit(plan, full, now=0.0)
    # ...so an immediate follow-up is rejected...
    one = make_batch(1, [(1, 99)])
    assert tm.plan(one, now=0.0).reject_kind == "quota"
    # ...but refill at `rate` re-admits after enough time passes.
    assert tm.plan(one, now=0.02).reject_kind is None
    tm.close()


def test_plan_is_pure_on_rejection():
    """A rejected plan mutates nothing — a retry starts fresh."""
    tm = TenantManager(n_shards=1, quota_rate=10.0, quota_burst=5)
    big = make_batch(0, [(1, pc) for pc in range(6)])
    before = tm.stats()
    assert tm.plan(big, now=0.0).reject_kind == "quota"
    assert tm.stats() == before
    assert tm.events == 0
    tm.close()


def test_rejection_counter():
    tm = TenantManager(n_shards=1, quota_rate=10.0, quota_burst=5)
    tm.count_rejection(1)
    tm.count_rejection(1)
    assert tm.stats()["quota_rejections"] == 2
    tm.close()


def test_independent_buckets_per_tenant():
    tm = TenantManager(n_shards=1, quota_rate=1.0, quota_burst=4)
    flood = make_batch(0, [(1, pc) for pc in range(4)])
    tm.commit(tm.plan(flood, now=0.0), flood, now=0.0)
    # Tenant 1's bucket is empty; tenant 2's is untouched.
    assert tm.plan(make_batch(1, [(1, 9)]), now=0.0).reject_kind == "quota"
    assert tm.plan(make_batch(1, [(2, 9)]), now=0.0).reject_kind is None
    tm.close()


def test_footprint_accounting_counts_distinct_branches():
    tm = TenantManager(n_shards=1, resident_bytes=1 << 20,
                       bytes_per_branch=BPB)
    batch = make_batch(0, [(1, 10), (1, 10), (1, 11), (2, 10)])
    tm.commit(tm.plan(batch, now=0.0), batch, now=0.0)
    # 2 distinct branches for tenant 1, 1 for tenant 2.
    assert tm.resident_bytes == 3 * BPB
    # Re-observing the same branches adds nothing.
    again = make_batch(1, [(1, 10), (2, 10)], start_instr=10)
    tm.commit(tm.plan(again, now=1.0), again, now=1.0)
    assert tm.resident_bytes == 3 * BPB
    assert tm.stats()["resident_tenants"] == 2
    tm.close()


def test_pick_victims_prefers_large_tenants_over_lru_head():
    """The tenant creating the memory pressure pays, not the oldest
    small one."""
    tm = TenantManager(n_shards=2, resident_bytes=5 * BPB,
                       bytes_per_branch=BPB)
    small = make_batch(0, [(1, 0)])
    tm.commit(tm.plan(small, now=0.0), small, now=0.0)
    big = make_batch(1, [(2, pc) for pc in range(10)], start_instr=10)
    tm.commit(tm.plan(big, now=1.0), big, now=1.0)
    assert tm.resident_bytes == 11 * BPB
    victims = tm.pick_victims()
    # Tenant 1 is the LRU head but far below average footprint; the
    # 10-branch tenant 2 is evicted instead, and that alone suffices.
    assert victims == [2]
    assert tm.resident_bytes == BPB
    assert tm.stats()["resident_tenants"] == 1
    assert tm.stats()["spilling_tenants"] == 1
    tm.close()


def test_spilling_tenant_rejects_submissions_until_sealed(tmp_path):
    tm = TenantManager(n_shards=2, resident_bytes=2 * BPB,
                       bytes_per_branch=BPB, spill_dir=str(tmp_path))
    batch = make_batch(0, [(1, pc) for pc in range(4)])
    tm.commit(tm.plan(batch, now=0.0), batch, now=0.0)
    (victim,) = tm.pick_victims()
    assert victim == 1
    # Mid-spill: new submissions for the victim bounce retryably.
    plan = tm.plan(make_batch(1, [(1, 99)], start_instr=10), now=1.0)
    assert plan.reject_kind == "spilling"
    assert plan.reject_tenant == 1
    # Shard contributions seal the blob; the last one completes it.
    tm.spill_contribution([1], states_for(1, [0, 2]))
    assert tm.stats()["spilling_tenants"] == 1
    tm.spill_contribution([1], states_for(1, [1, 3]))
    assert tm.stats()["spilling_tenants"] == 0
    assert tm.stats()["spilled_tenants"] == 1
    assert tm.spills == 1
    assert tm.is_spilled(1)
    tm.close()


def test_restore_on_touch_roundtrips_states(tmp_path):
    tm = TenantManager(n_shards=1, resident_bytes=2 * BPB,
                       bytes_per_branch=BPB, spill_dir=str(tmp_path))
    batch = make_batch(0, [(1, pc) for pc in range(4)])
    tm.commit(tm.plan(batch, now=0.0), batch, now=0.0)
    tm.pick_victims()
    spilled = states_for(1, [3, 1, 0, 2])  # unsorted on purpose
    tm.spill_contribution([1], spilled)
    # The next touch plans a restore carrying the states back, sorted.
    touch = make_batch(1, [(1, 7)], start_instr=10)
    plan = tm.plan(touch, now=2.0)
    assert plan.reject_kind is None
    assert [t for t, _ in plan.restores] == [1]
    restored = plan.restores[0][1]
    assert restored == sorted(spilled, key=lambda s: s["branch"])
    tm.commit(plan, touch, now=2.0)
    assert not tm.is_spilled(1)
    assert tm.restores == 1
    # Footprint re-accounted: 4 restored branches + the new pc 7.
    assert tm.resident_bytes == 5 * BPB
    tm.close()


def test_take_spilled_is_the_synchronous_restore(tmp_path):
    tm = TenantManager(n_shards=1, resident_bytes=BPB,
                       bytes_per_branch=BPB, spill_dir=str(tmp_path))
    batch = make_batch(0, [(1, 0), (1, 1)])
    tm.commit(tm.plan(batch, now=0.0), batch, now=0.0)
    tm.pick_victims()
    tm.spill_contribution([1], states_for(1, [0, 1]))
    assert tm.take_spilled(5, now=1.0) is None  # never spilled
    states = tm.take_spilled(1, now=1.0)
    assert states == states_for(1, [0, 1])
    assert not tm.is_spilled(1)
    assert tm.restores == 1
    assert tm.take_spilled(1, now=1.0) is None  # already resident
    tm.close()


def test_export_install_spilled_roundtrip(tmp_path):
    tm = TenantManager(n_shards=1, resident_bytes=1,
                       bytes_per_branch=BPB,
                       spill_dir=str(tmp_path / "a"))
    batch = make_batch(0, [(1, 0), (1, 1), (2, 0)])
    tm.commit(tm.plan(batch, now=0.0), batch, now=0.0)
    assert tm.pick_victims() == [1, 2]
    tm.spill_contribution([1, 2],
                          states_for(1, [0, 1]) + states_for(2, [0]))
    exported = tm.export_spilled()
    assert set(exported) == {"1", "2"}
    tm.close()
    # A fresh manager (fresh store) installs the snapshot section and
    # serves identical states back.
    tm2 = TenantManager(n_shards=1, spill_dir=str(tmp_path / "b"))
    tm2.install_spilled(exported)
    assert tm2.spilled_count() == 2
    assert tm2.export_spilled() == exported
    assert tm2.active  # spilled state forces legacy batches through
    tm2.close()


def test_active_property():
    assert not TenantManager(n_shards=1).active
    assert TenantManager(n_shards=1, quota_rate=1.0).active
    budgeted = TenantManager(n_shards=1, resident_bytes=1024)
    assert budgeted.active
    budgeted.close()


# -- victim pick: differential against the linear LRU scan -----------------
class LinearScanLRU:
    """Reference model of the resident set before the footprint index:
    an ``OrderedDict`` LRU rescanned oldest-first for every victim."""

    def __init__(self, budget, bpb=BPB):
        self.budget = budget
        self.bpb = bpb
        self.lru = OrderedDict()  # tenant -> set of branch keys
        self.resident_bytes = 0

    def _touch(self, tenant):
        if tenant in self.lru:
            self.lru.move_to_end(tenant)
        else:
            self.lru[tenant] = set()
        return self.lru[tenant]

    def _recall(self, tenant, keys):
        self._touch(tenant)
        self.lru[tenant] = set(keys)
        self.resident_bytes += len(keys) * self.bpb

    def commit(self, plan, batch):
        for tenant, states in plan.restores:
            self._recall(tenant, [s["branch"] for s in states])
        for tenant in plan.tenants:
            self._touch(tenant)
        for key in np.unique(batch.keys()).tolist():
            keys = self.lru[key >> 32]
            if key not in keys:
                keys.add(key)
                self.resident_bytes += self.bpb

    def take_spilled(self, tenant, states):
        self._recall(tenant, [s["branch"] for s in states])

    def pick_victims(self):
        victims = []
        while self.resident_bytes > self.budget and self.lru:
            avg = self.resident_bytes / len(self.lru)
            chosen = None
            for tenant, keys in self.lru.items():
                if len(keys) * self.bpb >= avg:
                    chosen = tenant
                    break
            if chosen is None:
                chosen = next(iter(self.lru))
            self.resident_bytes -= len(self.lru.pop(chosen)) * self.bpb
            victims.append(chosen)
        return victims


def lru_order(tm):
    residents = tm._residents
    return sorted(residents, key=lambda t: residents[t].seq)


@pytest.mark.parametrize("budget_branches,population,n_shards,seed", [
    (4, 6, 1, 0), (16, 40, 2, 1), (64, 300, 3, 2), (8, 1000, 2, 3),
    (200, 120, 1, 4), (1, 25, 4, 5),
])
def test_pick_victims_matches_linear_lru_scan(tmp_path, budget_branches,
                                              population, n_shards, seed):
    """Over random commit / synchronous-restore / pick sequences the
    footprint-indexed pick returns exactly the victims, LRU order and
    resident bytes of the oldest-first linear scan."""
    rng = np.random.default_rng(seed)
    budget = budget_branches * BPB
    tm = TenantManager(n_shards=n_shards, resident_bytes=budget,
                       bytes_per_branch=BPB, spill_dir=str(tmp_path))
    ref = LinearScanLRU(budget)
    spilled_keys = {}
    picks = 0

    def seal(victims):
        # Spread each victim's branches over the shards, as the shard
        # queues would, one contribution per shard for the group.
        parts = [[] for _ in range(n_shards)]
        for tenant in victims:
            for key in sorted(ref_keys[tenant]):
                parts[int(rng.integers(n_shards))].append(
                    {"branch": key, "deployed": False})
            spilled_keys[tenant] = ref_keys.pop(tenant)
        for part in parts:
            tm.spill_contribution(victims, part)

    ref_keys = {}
    for step in range(400):
        now = float(step)
        if spilled_keys and rng.random() < 0.1:
            tenant = int(rng.choice(sorted(spilled_keys)))
            states = tm.take_spilled(tenant, now)
            assert [s["branch"] for s in states] == sorted(
                spilled_keys[tenant])
            ref.take_spilled(tenant, states)
            ref_keys[tenant] = spilled_keys.pop(tenant)
        else:
            n = int(rng.integers(1, 24))
            # Skewed tenants and per-tenant branch spreads give many
            # distinct footprints.
            tenants = (rng.zipf(1.3, n) % population + 1).astype(int)
            pcs = rng.integers(0, 1 + tenants % 9 * 3, n)
            batch = make_batch(step, list(zip(tenants.tolist(),
                                              pcs.tolist())))
            plan = tm.plan(batch, now)
            assert plan.reject_kind is None  # groups seal synchronously
            tm.commit(plan, batch, now)
            ref.commit(plan, batch)
            for tenant, _ in plan.restores:
                ref_keys[tenant] = spilled_keys.pop(tenant)
            for key in np.unique(batch.keys()).tolist():
                ref_keys.setdefault(key >> 32, set()).add(key)
        victims = tm.pick_victims()
        assert victims == ref.pick_victims()
        assert lru_order(tm) == list(ref.lru)
        assert tm.resident_bytes == ref.resident_bytes
        if victims:
            picks += 1
            seal(victims)
    assert picks > 10
    assert tm.spills == sum(1 for _ in spilled_keys) + tm.restores
    tm.close()
