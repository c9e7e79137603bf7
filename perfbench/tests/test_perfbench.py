"""Smoke-size tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from ledger import SpanLog, _covered  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(workload: str, trace: int, seconds: float = 0.3) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", str(seconds), "--trace", str(trace),
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + NAMES
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for m in metrics:
        assert UNIT_RE.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_emitted_with_its_unit(workload):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        stdout, doc = bench(workload, trace)
        assert doc["correct"] is True
        assert doc["failed"] == 0 and doc["attempted"] >= 1
        assert set(doc["metrics"]) == {m["name"] for m in listed}
        for m in listed:
            got = doc["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], float)
        if trace == 0:
            # The report names every end-to-end metric with unit and
            # direction, including those outside BENCHMARK.json.
            rows = [(m["name"], m["unit"], m["better"])
                    for m in SPEC["end_to_end"]] + list(run.EXTRA_E2E)
            for name, unit, better in rows:
                assert re.search(rf"e2e {re.escape(name)} .* "
                                 rf"{re.escape(unit)} +\({better}\)",
                                 stdout), name


@pytest.mark.parametrize("workload", NAMES)
def test_doctored_run_counts_failures(workload, tmp_path):
    res = WORKLOADS[workload](5, 0.0, False, "smoke", doctor=True,
                              workdir=tmp_path)
    assert res.failures
    assert 0 < res.failed <= res.attempted


def test_undoctored_run_is_clean(tmp_path):
    res = WORKLOADS["tenant-churn"](5, 0.0, False, "smoke",
                                    workdir=tmp_path)
    assert res.failures == [] and res.failed == 0


def test_traced_spans_nest():
    bench("spec-suite", 1)
    spans = np.load(ROOT / ".perfbench-out" / "spans-spec-suite.npz")
    start, end = spans["start"], spans["end"]
    parent, own = spans["parent"], spans["self_time"]
    assert len(start) > 0
    dur = end - start
    assert (dur >= 0).all()
    assert (own <= dur + 1e-9).all() and (own >= -1e-9).all()
    child = np.flatnonzero(parent >= 0)
    assert len(child) > 0
    p = parent[child]
    assert (start[p] <= start[child]).all()
    assert (end[child] <= end[p]).all()
    names = spans["names"][spans["name_id"]]
    assert {"service.submit", "shard.partition", "shard.apply",
            "colpath.apply"} <= set(names.tolist())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_self_time_subtracts_child_coverage():
    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    log = SpanLog()

    def leaf():
        return 1

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = log.wrap(leaf, "b.leaf")
    log.wrap(outer, "a.outer")()
    assert log.calls("b.leaf") == 2
    assert log.self_seconds("a.outer") <= log.total("a.outer")
    assert abs(log.self_seconds("a.outer") + log.total("b.leaf")
               - log.total("a.outer")) < 1e-9
    assert list(log.parent) == [-1, 0, 0]
