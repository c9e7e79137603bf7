"""Builders for pre-unification bench documents (the committed
``BENCH_*.json`` shape from PRs 2-6).

Each builder returns the exact document its standalone
``benchmarks/bench_*.py`` script used to write, with comfortably
passing figures; tests doctor individual fields to manufacture
regressions.  The stored derived ratios (``speedup_at_max_workers``,
``batch_overhead``, ...) are computed from the same figures here, so a
test that wants a *doctored* document overwrites them explicitly.
"""

from __future__ import annotations


def serve_doc(single: float = 2_500_000.0, eps4: float = 5_500_000.0,
              exact: bool = True, cpus: int = 4) -> dict:
    multi = {"1": 2_300_000.0, "2": 3_900_000.0, "4": float(eps4)}
    return {
        "kind": "repro.serve.bench",
        "schema": 1,
        "trace": {"name": "gcc", "events": 400_000},
        "machine": {"cpus": cpus},
        "transport": "pipe",
        "single_process_eps": float(single),
        "multi_process_eps": multi,
        "speedup_at_max_workers": eps4 / single,
        "max_workers": 4,
        "exact": exact,
    }


def wal_doc(baseline: float = 2_500_000.0, batch: float = 2_300_000.0,
            exact: bool = True) -> dict:
    return {
        "kind": "repro.wal.bench",
        "schema": 1,
        "trace": {"name": "gcc", "events": 400_000},
        "machine": {"cpus": 4},
        "baseline_eps": float(baseline),
        "wal_eps": {"off": baseline * 0.98, "batch": float(batch),
                    "always": baseline * 0.5},
        "batch_overhead": 1.0 - batch / baseline,
        "replay_eps": 6_000_000.0,
        "exact": exact,
    }


def obs_doc(baseline: float = 2_500_000.0, obs: float = 2_400_000.0,
            full: float | None = None, exact: bool = True) -> dict:
    if full is None:
        full = 0.97 * obs
    return {
        "kind": "repro.obs.bench",
        "schema": 2,
        "trace": {"name": "gcc", "events": 400_000},
        "machine": {"cpus": 4},
        "baseline_eps": float(baseline),
        "obs_eps": float(obs),
        "full_eps": float(full),
        "overhead": 1.0 - obs / baseline,
        "span_overhead": 1.0 - full / obs,
        "exact": exact,
    }


def colpath_doc(wide_roofline: float = 1.7, narrow_roofline: float = 2.9,
                evict_roofline: float = 2.5, stride8_roofline: float = 2.2,
                sampling_evict_roofline: float = 2.4,
                exact: bool = True) -> dict:
    vector = 1_000_000.0

    def adversarial(roofline: float) -> dict:
        return {"distinct_pcs": 4096, "flip_every": 96,
                "vector_eps": vector * 0.5,
                "columnar_eps": vector * 0.5 * roofline,
                "capture_exact": exact}

    return {
        "kind": "repro.colpath.bench",
        "schema": 3,
        "machine": {"cpus": 4},
        "sweep": [
            {"distinct_pcs": 1, "vector_eps": vector,
             "columnar_eps": vector * narrow_roofline},
            {"distinct_pcs": 64, "vector_eps": vector,
             "columnar_eps": vector * 1.3},
            {"distinct_pcs": 4096, "vector_eps": vector,
             "columnar_eps": vector * wide_roofline},
        ],
        "adversarial": adversarial(evict_roofline),
        "adversarial_stride8": adversarial(stride8_roofline),
        "adversarial_evict_sampling": adversarial(sampling_evict_roofline),
        "wide_roofline": wide_roofline,
        "narrow_roofline": narrow_roofline,
        "evict_roofline": evict_roofline,
        "exact": exact,
    }


def repl_doc(baseline: float = 2_500_000.0, repl: float = 2_350_000.0,
             exact: bool = True) -> dict:
    return {
        "kind": "repro.repl.bench",
        "schema": 1,
        "trace": {"name": "gcc", "events": 400_000},
        "machine": {"cpus": 4},
        "baseline_eps": float(baseline),
        "repl_eps": float(repl),
        "repl_overhead": 1.0 - repl / baseline,
        "follower_apply_eps": 5_000_000.0,
        "exact": exact,
    }


LEGACY_BUILDERS = {
    "serve": serve_doc,
    "wal": wal_doc,
    "obs": obs_doc,
    "colpath": colpath_doc,
    "repl": repl_doc,
}
