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


def colpath_doc(wide_speedup: float = 4.0, narrow_ratio: float = 1.0,
                evict_speedup: float = 8.0, stride8_speedup: float = 10.0,
                sampling_evict_speedup: float = 10.0,
                exact: bool = True) -> dict:
    loop = 1_000_000.0

    def adversarial(speedup: float) -> dict:
        return {"distinct_pcs": 4096, "flip_every": 96,
                "loop_eps": loop * 0.5,
                "columnar_eps": loop * 0.5 * speedup,
                "capture_exact": exact}

    return {
        "kind": "repro.colpath.bench",
        "schema": 2,
        "machine": {"cpus": 4},
        "sweep": [
            {"distinct_pcs": 1, "loop_eps": loop,
             "columnar_eps": loop * narrow_ratio},
            {"distinct_pcs": 64, "loop_eps": loop,
             "columnar_eps": loop * 2.0},
            {"distinct_pcs": 4096, "loop_eps": loop,
             "columnar_eps": loop * wide_speedup},
        ],
        "adversarial": adversarial(evict_speedup),
        "adversarial_stride8": adversarial(stride8_speedup),
        "adversarial_evict_sampling": adversarial(sampling_evict_speedup),
        "wide_speedup": wide_speedup,
        "narrow_ratio": narrow_ratio,
        "evict_speedup": evict_speedup,
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
