"""Tenant registry and resident-set manager.

The serving engines key controllers by packed ``(tenant, pc)`` int64
and never learn tenants exist (:mod:`repro.tenant.keys`); this module
is where the tenant dimension actually lives:

* **Admission control.**  Per-tenant token buckets, checked for every
  tenant a batch touches *before* anything is logged or enqueued.  A
  rejection surfaces through the service as the same retryable
  backpressure signal a full queue produces, so existing client retry
  loops handle quotas unchanged.
* **Resident-set accounting.**  Each resident tenant's footprint is
  estimated as ``distinct branches × bytes_per_branch``, maintained
  incrementally from the unique keys of each admitted batch.  The sum
  is compared against the configured budget after every admission.
* **Spill victim selection.**  When over budget the manager picks,
  oldest-touch first, the first resident at or above the average
  resident footprint — falling back to the plain LRU head — so a small
  steadily-active tenant is not evicted to pay for a large one's
  churn; the tenant creating the pressure is the one that pays.
  Residents are indexed by footprint: one touch-ordered bucket per
  byte size, each stamped with a monotonic touch sequence number.  The
  policy's victim is then the oldest bucket head at or above the
  average, so a pick costs O(distinct footprints), not a rescan of
  every resident.
* **Spill/restore orchestration.**  A spill is not performed here —
  the manager marks the victims of one :meth:`pick_victims` call
  *spilling* and the service enqueues the whole group as one FIFO
  control job per shard queue, so the spill serializes after every
  event already queued for those tenants.  Each shard contributes its
  extracted controller states for the group via
  :meth:`spill_contribution`; the last contribution seals every
  tenant's blob (sorted by branch key, so it is deterministic) into
  the :class:`~repro.tenant.spillstore.SpillStore` with one append
  pass.  While a tenant is spilling its new submissions are rejected
  retryably — admitting them would race the queued extraction.
  A spilled tenant's next touch runs the reverse: the blob's states
  are re-interned ahead of that batch's events (same FIFO ordering
  argument; every restore a batch plans rides one job per shard),
  bit-identically — controller state round-trips through the exact
  snapshot schema.

Memory discipline: the manager keeps per-tenant state *only* for
resident tenants.  A spilled tenant exists as one spill-store index
entry; its quota bucket restarts full on return and its traffic
history lives in the bounded top-K metrics sketch.  That is what the
1→1M tenant gate measures.
"""

from __future__ import annotations

import json
import tempfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.obs.cardinality import LabelCardinalityGuard
from repro.obs.metrics import MetricsRegistry
from repro.tenant.keys import TENANT_SHIFT
from repro.tenant.spillstore import SpillStore

__all__ = ["AdmissionPlan", "TenantManager"]


@dataclass
class AdmissionPlan:
    """Outcome of checking one batch against the tenant policies.

    Built by :meth:`TenantManager.plan` without mutating anything, so
    a rejected or WAL-failed submission leaves no trace; the service
    applies an accepted plan with :meth:`TenantManager.commit`.
    """

    tenants: list[int]
    counts: list[int]
    #: None = admit; "quota" / "spilling" = reject (retryably).
    reject_kind: str | None = None
    reject_tenant: int = 0
    #: Seconds until the rejecting token bucket can cover the batch
    #: (quota rejects only; spilling rejects use the queue drain hint).
    retry_after: float = 0.0
    #: Spilled tenants this batch touches: ``(tenant, states)`` pairs
    #: whose restore jobs must precede the batch's events.
    restores: list[tuple[int, list[dict]]] = field(default_factory=list)


class _Resident:
    """Per-resident-tenant state (the only per-tenant memory kept)."""

    __slots__ = ("tokens", "stamp", "keys", "bytes", "seq", "filed")

    def __init__(self, tokens: float, stamp: float,
                 track_keys: bool) -> None:
        self.tokens = tokens
        self.stamp = stamp
        self.keys: set[int] | None = set() if track_keys else None
        self.bytes = 0
        #: Touch sequence number: residents sorted by it are the LRU.
        self.seq = 0
        #: Footprint bucket this resident is filed under (-1: none).
        self.filed = -1


class TenantManager:
    """Quotas, the resident LRU, and spill/restore bookkeeping."""

    def __init__(self, n_shards: int, *,
                 quota_rate: float | None = None,
                 quota_burst: int = 32_768,
                 resident_bytes: int | None = None,
                 bytes_per_branch: int = 512,
                 spill_dir: str | None = None,
                 top_k: int = 16,
                 registry: MetricsRegistry | None = None) -> None:
        self.n_shards = n_shards
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst
        self.resident_bytes_budget = resident_bytes
        self.bytes_per_branch = bytes_per_branch
        self.top_k = top_k
        self._spill_dir = spill_dir
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._store: SpillStore | None = None
        if resident_bytes is not None or spill_dir is not None:
            self._ensure_store()
        #: Resident tenants; touch order lives in each one's ``seq``.
        self._residents: dict[int, _Resident] = {}
        self._touches = 0
        #: Footprint index (budgeted managers only): byte size → the
        #: residents of that footprint in touch order (oldest first).
        self._buckets: dict[int, "OrderedDict[int, _Resident]"] = {}
        self.resident_bytes = 0
        self.peak_resident_bytes = 0
        #: Tenants mid-spill → the states shards contributed so far.
        self._spilling: dict[int, list[dict]] = {}
        #: Spill group (keyed by its first victim) → shards yet to report.
        self._spill_left: dict[int, int] = {}
        self.spills = 0
        self.restores = 0
        self.quota_rejections = 0
        self.events = 0
        self._guard = None
        self._reject_guard = None
        self._g_resident = self._g_spilled = self._g_bytes = None
        if registry is not None:
            self._guard = LabelCardinalityGuard(registry.counter(
                "repro_tenant_events_total",
                "Events admitted per tenant (top-K by traffic; the rest "
                "aggregate under __overflow__)", ("tenant",)), top_k)
            self._reject_guard = LabelCardinalityGuard(registry.counter(
                "repro_tenant_rejections_total",
                "Quota-rejected submissions per tenant (top-K by "
                "traffic)", ("tenant",)), top_k)
            self._c_spills = registry.counter(
                "repro_tenant_spills_total",
                "Tenants spilled out of the resident set")
            self._c_restores = registry.counter(
                "repro_tenant_restores_total",
                "Spilled tenants restored on touch")
            self._g_resident = registry.gauge(
                "repro_tenant_resident", "Resident tenants")
            self._g_spilled = registry.gauge(
                "repro_tenant_spilled", "Spilled tenants")
            self._g_bytes = registry.gauge(
                "repro_tenant_resident_bytes",
                "Estimated resident-set footprint in bytes")

    # -- plumbing -------------------------------------------------------
    def _ensure_store(self) -> SpillStore:
        if self._store is None:
            if self._spill_dir is None:
                self._tmpdir = tempfile.TemporaryDirectory(
                    prefix="repro-tenant-spill-")
                self._spill_dir = self._tmpdir.name
            self._store = SpillStore(self._spill_dir)
        return self._store

    @property
    def active(self) -> bool:
        """True when tenant-less (tenant 0) batches must still pass
        through admission — some policy or spilled state exists."""
        return (self.quota_rate is not None
                or self.resident_bytes_budget is not None
                or bool(self._store and len(self._store)))

    def close(self) -> None:
        """Release the spill store (idempotent).

        A temporary spill directory is deleted with any tenant still
        spilled in it; a later spill opens a fresh store.
        """
        if self._store is not None:
            self._store.close()
            self._store = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
            self._spill_dir = None

    # -- admission ------------------------------------------------------
    def plan(self, batch, now: float) -> AdmissionPlan:
        """Check a batch against quotas and spill status (pure)."""
        if batch.tenants is None:
            tenants = [0]
            counts = [batch.n_events]
        else:
            u, c = np.unique(batch.tenants, return_counts=True)
            tenants = [int(t) for t in u]
            counts = [int(n) for n in c]
        plan = AdmissionPlan(tenants, counts)
        for tenant in tenants:
            if tenant in self._spilling:
                plan.reject_kind = "spilling"
                plan.reject_tenant = tenant
                return plan
        rate = self.quota_rate
        if rate is not None:
            burst = float(self.quota_burst)
            for tenant, n in zip(tenants, counts):
                st = self._residents.get(tenant)
                if st is None:
                    tokens = burst  # new or returning: a full bucket
                else:
                    tokens = min(burst, st.tokens + (now - st.stamp) * rate)
                if tokens < n:
                    plan.reject_kind = "quota"
                    plan.reject_tenant = tenant
                    plan.retry_after = (n - tokens) / rate
                    return plan
        store = self._store
        if store is not None and len(store):
            for tenant in tenants:
                blob = store.get(tenant)
                if blob is not None:
                    plan.restores.append(
                        (tenant, json.loads(zlib.decompress(blob))))
        return plan

    def count_rejection(self, tenant: int) -> None:
        self.quota_rejections += 1
        if self._reject_guard is not None:
            self._reject_guard.inc(tenant)

    def commit(self, plan: AdmissionPlan, batch, now: float) -> None:
        """Apply an admitted plan: charge buckets, touch the LRU,
        account footprints, finalize restores.  Called only after the
        batch is accepted (post-WAL), so rejection paths mutate
        nothing.

        The batch's tenants end up at the LRU tail in plan order, so
        they are re-filed in that order too: every footprint bucket
        stays in touch order whatever their footprints became."""
        track = self.resident_bytes_budget is not None
        bpb = self.bytes_per_branch
        for tenant, states in plan.restores:
            self._store.remove(tenant)
            self.restores += 1
            if self._g_spilled is not None:
                self._c_restores.inc()
            st = self._touch(tenant, now)
            if track:
                st.keys = {int(s["branch"]) for s in states}
                st.bytes = len(st.keys) * bpb
                self.resident_bytes += st.bytes
        rate = self.quota_rate
        for tenant, n in zip(plan.tenants, plan.counts):
            st = self._touch(tenant, now)
            if rate is not None:
                st.tokens = min(float(self.quota_burst),
                                st.tokens + (now - st.stamp) * rate) - n
                st.stamp = now
            self.events += n
            if self._guard is not None:
                self._guard.inc(tenant, n)
        if track:
            ukeys = np.unique(batch.keys())
            residents = self._residents
            added = 0
            for key in ukeys.tolist():
                st = residents[key >> TENANT_SHIFT]
                if key not in st.keys:
                    st.keys.add(key)
                    st.bytes += bpb
                    added += bpb
            self.resident_bytes += added
            if self.resident_bytes > self.peak_resident_bytes:
                self.peak_resident_bytes = self.resident_bytes
            for tenant in plan.tenants:
                self._file(tenant, residents[tenant])
        self._update_gauges()

    def _touch(self, tenant: int, now: float) -> _Resident:
        st = self._residents.get(tenant)
        if st is None:
            st = _Resident(float(self.quota_burst), now,
                           self.resident_bytes_budget is not None)
            self._residents[tenant] = st
        self._touches += 1
        st.seq = self._touches
        return st

    def _file(self, tenant: int, st: _Resident) -> None:
        """Move a just-touched resident to the tail of the bucket of
        its current footprint."""
        buckets = self._buckets
        if st.filed == st.bytes:
            buckets[st.bytes].move_to_end(tenant)
            return
        if st.filed >= 0:
            self._unfile(tenant, st)
        bucket = buckets.get(st.bytes)
        if bucket is None:
            bucket = buckets[st.bytes] = OrderedDict()
        bucket[tenant] = st
        st.filed = st.bytes

    def _unfile(self, tenant: int, st: _Resident) -> None:
        bucket = self._buckets[st.filed]
        del bucket[tenant]
        if not bucket:
            del self._buckets[st.filed]
        st.filed = -1

    # -- spill ----------------------------------------------------------
    def pick_victims(self) -> list[int]:
        """Tenants to spill until the resident set fits the budget.

        Each victim is the least recently touched resident at or above
        the average resident footprint, else the LRU head.  The
        returned group is already marked *spilling* (out of the
        resident set, footprints deducted); the caller owes one control
        job per shard queue carrying the whole group, each answered by
        one :meth:`spill_contribution`.
        """
        budget = self.resident_bytes_budget
        victims: list[int] = []
        if budget is None:
            return victims
        residents = self._residents
        while self.resident_bytes > budget and residents:
            avg = self.resident_bytes / len(residents)
            # Each bucket head is its footprint's oldest resident, so
            # the oldest qualifying head is the first qualifying tenant
            # in LRU order, and the oldest head overall the LRU head.
            pick = head = None
            for size, bucket in self._buckets.items():
                first = next(iter(bucket.items()))
                if head is None or first[1].seq < head[1].seq:
                    head = first
                if size >= avg and (pick is None
                                    or first[1].seq < pick[1].seq):
                    pick = first
            tenant, st = pick if pick is not None else head
            del residents[tenant]
            self._unfile(tenant, st)
            self.resident_bytes -= st.bytes
            self._spilling[tenant] = []
            victims.append(tenant)
        if victims:
            self._spill_left[victims[0]] = self.n_shards
            self._update_gauges()
        return victims

    def spill_contribution(self, tenants: list[int],
                           states: list[dict]) -> None:
        """One shard's extracted states for a spill group (the victims
        of one :meth:`pick_victims` call, in the order it returned
        them); the last shard's contribution seals every tenant's
        blob."""
        spilling = self._spilling
        for state in states:
            spilling[state["branch"] >> TENANT_SHIFT].append(state)
        left = self._spill_left[tenants[0]] - 1
        if left:
            self._spill_left[tenants[0]] = left
            return
        del self._spill_left[tenants[0]]
        blobs = []
        for tenant in tenants:
            parts = spilling.pop(tenant)
            parts.sort(key=lambda s: s["branch"])
            blobs.append((tenant, zlib.compress(
                json.dumps(parts, separators=(",", ":")).encode("utf-8"))))
        self._ensure_store().put_many(blobs)
        self.spills += len(tenants)
        if self._g_spilled is not None:
            self._c_spills.inc(len(tenants))
        self._update_gauges()

    def take_spilled(self, tenant: int, now: float) -> list[dict] | None:
        """Synchronously pop a spilled tenant's states and mark it
        resident.

        The non-queued twin of the plan/commit restore path, for
        callers that apply events directly to the bank (WAL replay,
        follower apply) and so bypass admission.
        """
        if self._store is None:
            return None
        blob = self._store.pop(tenant)
        if blob is None:
            return None
        states = json.loads(zlib.decompress(blob))
        self.restores += 1
        if self._g_spilled is not None:
            self._c_restores.inc()
        st = self._touch(tenant, now)
        if self.resident_bytes_budget is not None:
            st.keys = {int(s["branch"]) for s in states}
            st.bytes = len(st.keys) * self.bytes_per_branch
            self.resident_bytes += st.bytes
            self._file(tenant, st)
        self._update_gauges()
        return states

    # -- snapshot hooks -------------------------------------------------
    def export_spilled(self) -> dict[str, list[dict]]:
        """Spilled tenants' controller states (snapshot embedding)."""
        if self._store is None or not len(self._store):
            return {}
        return {str(t): json.loads(zlib.decompress(blob))
                for t, blob in self._store.export().items()}

    def install_spilled(self, spilled: dict[str, list[dict]]) -> None:
        """Seed the store from a snapshot's spilled-tenants section."""
        self._ensure_store().put_many(
            (int(tenant), zlib.compress(
                json.dumps(states, separators=(",", ":")).encode("utf-8")))
            for tenant, states in spilled.items())
        self._update_gauges()

    # -- views ----------------------------------------------------------
    def spilled_count(self) -> int:
        return len(self._store) if self._store is not None else 0

    def is_spilled(self, tenant: int) -> bool:
        return self._store is not None and tenant in self._store

    def _update_gauges(self) -> None:
        if self._g_resident is not None:
            self._g_resident.set(len(self._residents))
            self._g_spilled.set(self.spilled_count())
            self._g_bytes.set(self.resident_bytes)

    def stats(self) -> dict[str, int]:
        out = {
            "resident_tenants": len(self._residents),
            "spilled_tenants": self.spilled_count(),
            "spilling_tenants": len(self._spilling),
            "resident_bytes": self.resident_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
            "resident_budget": self.resident_bytes_budget or 0,
            "spills": self.spills,
            "restores": self.restores,
            "quota_rejections": self.quota_rejections,
            "events": self.events,
        }
        if self._store is not None:
            out["store"] = self._store.stats()
        return out
