"""Run one benchmark workload and print its figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The output is a report (every end-to-end metric by name and unit, the
host and noise record and, with ``--trace 1``, the per-layer ledger)
followed by one JSON line: ``correct``, ``attempted`` and ``failed``
(events) and ``metrics``, which holds the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0`` and its ``per_layer`` metrics with
``--trace 1``.  Each run appends its record to
``.perfbench-out/runs.jsonl``; a traced run saves its spans to
``.perfbench-out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

#: End-to-end figures printed beside the ``BENCHMARK.json`` ones.  The
#: lags, CPU and read cost spread too widely between runs to bound (the
#: ledger carries them as ``service.*``), the shares are 0 on a healthy
#: build, and the durability figures exist on ``durable-stream`` only.
EXTRA_E2E = (
    ("decision_lag_p50_ms", "ms", "lower"),
    ("decision_lag_p99_ms", "ms", "lower"),
    ("cpu_ns_per_event", "ns", "lower"),
    ("decision_read_ns", "ns", "lower"),
    ("failed_share", "fraction", "lower"),
    ("refused_share", "fraction", "lower"),
    ("durable_lag_p50_ms", "ms", "lower"),
    ("durable_lag_p99_ms", "ms", "lower"),
    ("repl_lag_p99_ms", "ms", "lower"),
    ("snapshot_s", "s", "lower"),
    ("recover_s", "s", "lower"),
)

#: Ledger timings of layers a single workload exercises; printed and
#: saved, but not in ``BENCHMARK.json`` (every listed metric must read
#: on every workload).
EXTRA_LAYERS = (
    ("wire.rtt_p50_ms", "ms"), ("wal.append_us", "us"),
    ("wal.commit_p50_ms", "ms"), ("wal.compact_s", "s"),
    ("repl.ack_gap_p50_ms", "ms"), ("snapshot.save_s", "s"),
    ("snapshot.load_s", "s"), ("recover.replay_eps", "events/s"),
    ("tenant.plan_us", "us"), ("tenant.pick_victims_us", "us"),
    ("tenant.spill_job_ms", "ms"), ("tenant.restore_job_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"), ("trace.spans_dropped", "count"),
)

#: Why a per-layer figure reads 0 on a workload: ``(workloads, metric
#: prefixes, reason)``.
ABSENT = (
    (("spec-suite", "flip-storm", "tenant-churn"),
     ("wire.", "wal.", "snapshot.", "follower."),
     "in-process service without WAL or replication"),
    (("spec-suite", "flip-storm", "durable-stream"), ("tenant.",),
     "no tenants on this workload"),
    (("durable-stream",),
     ("colpath.ns_per_event", "colpath.arcs_fast", "colpath.rows",
      "fastpath."),
     "runs inside the worker process, beyond the parent-side shims"),
)


def absent_reason(workload: str, metric: str) -> str | None:
    for workloads, prefixes, reason in ABSENT:
        if workload in workloads and metric.startswith(prefixes):
            return reason
    return None


def stop_resource_tracker() -> None:
    """Stop and reap the helper process that multiprocessing's ``spawn``
    start method (the service's worker pool) leaves running."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def host_record() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes (smoke: the benchmark's tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    bench_json = ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}", file=sys.stderr)
        return 2
    spec = json.loads(bench_json.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r} (one of "
              f"{', '.join(names)})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    # Anything the program puts in a temporary directory stays here.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host_record(),
              "loadavg_before": os.getloadavg()}
    try:
        # Generators want a non-negative seed; any integer maps to one.
        res = WORKLOADS[args.workload](args.seed % (1 << 31), args.seconds,
                                       bool(args.trace), args.size,
                                       workdir=workdir)
    finally:
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()
    res.e2e["failed_share"] = res.failed / max(1, res.attempted)
    runs = OUT / "runs.jsonl"
    record["run_index"] = (sum(1 for _ in runs.open()) if runs.exists()
                           else 0)
    record["notes"] = res.notes
    record["failures"] = res.failures
    report(args, spec, res, record)
    with runs.open("a") as f:
        f.write(json.dumps(record) + "\n")
    if res.log is not None:
        res.log.write(OUT / f"spans-{args.workload}.npz")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    source = res.layers if args.trace else res.e2e
    for m in listed:
        metrics[m["name"]] = {"value": float(source.get(m["name"], 0.0)),
                              "unit": m["unit"]}
    print(json.dumps({"correct": not res.failures,
                      "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0


def report(args, spec, res, record) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  run #{record['run_index']}")
    print("host " + json.dumps(record["host"]))
    print(f"loadavg before {record['loadavg_before']}  after "
          f"{record['loadavg_after']}")
    print("notes " + json.dumps(res.notes))
    for failure in res.failures:
        print(f"FAILED CHECK {failure}")
    if not args.trace:
        rows = [(m["name"], m["unit"], m["better"])
                for m in spec["end_to_end"]] + list(EXTRA_E2E)
        for name, unit, better in rows:
            value = res.e2e.get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  e2e {name:<22} {shown:>14} {unit:<10} ({better})")
        return
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    for name, unit in listed + list(EXTRA_LAYERS):
        # Listed figures are emitted as 0 when absent, extras skipped.
        value = res.layers.get(name, 0.0 if (name, unit) in listed else None)
        reason = absent_reason(args.workload, name)
        if value is None and reason is None:
            continue
        shown = "n/a" if value is None else f"{value:.6g}"
        why = f"  [{reason}]" if reason and not value else ""
        print(f"  layer {name:<32} {shown:>14} {unit}{why}")


if __name__ == "__main__":
    sys.exit(main())
