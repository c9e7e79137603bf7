"""``python -m repro.bench`` — the unified bench/experiment CLI.

Subcommands::

    list      enumerate registered targets, instances, suites
    run       execute a suite (parallel jobs, per-job timeouts),
              aggregate one unified results document, evaluate gates
    exec      run ONE target in-process (the runner's child entry)
    gate      compare a results file against a baseline (the engine
              behind the ``check_bench.py`` compat shim)
    report    render the Markdown/JSON trend report
    migrate   convert a pre-unification BENCH_*.json to the v2 schema
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import tempfile
from pathlib import Path

from repro.bench import gates as gate_engine
from repro.bench import report as report_mod
from repro.bench import runner as runner_mod
from repro.bench import schema
from repro.bench.registry import all_suites, get_benchmark, iter_benchmarks

#: check_bench-compatible override flags -> gate ``param`` keys.
GATE_FLAGS = ("min_speedup", "max_wal_overhead", "max_obs_overhead",
              "max_span_overhead", "min_colpath_speedup",
              "min_narrow_ratio", "min_evict_speedup",
              "max_repl_overhead", "min_tenant_scaling", "tolerance")


def _src_root() -> str:
    import repro
    return str(Path(repro.__file__).resolve().parents[1])


def _filtered_params(fn, params: dict) -> dict:
    """Drop overrides the target's runner does not accept."""
    accepted = inspect.signature(fn).parameters
    return {k: v for k, v in params.items() if k in accepted}


def _add_gate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="serve gate: required max-workers/single "
                             "speedup in the current run (default: 1.8)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="lower band: current throughput must be at "
                             "least this fraction of baseline "
                             "(default: 0.5)")
    parser.add_argument("--min-cpus", type=int, default=None,
                        help="CPUs needed for cpu-gated checks to apply "
                             "(default: per-gate, 4 for serve)")
    parser.add_argument("--strict", action="store_true",
                        help="fail, rather than skip, cpu-gated checks "
                             "on an under-provisioned host")
    parser.add_argument("--max-wal-overhead", type=float, default=None,
                        help="wal gate: highest tolerated fsync=batch "
                             "throughput loss (default: 0.15)")
    parser.add_argument("--max-obs-overhead", type=float, default=None,
                        help="obs gate: highest tolerated instrumented "
                             "throughput loss (default: 0.10)")
    parser.add_argument("--max-span-overhead", type=float, default=None,
                        help="obs gate: highest tolerated span-tracing "
                             "plus detector throughput loss against the "
                             "same run's instrumented figure "
                             "(default: 0.10)")
    parser.add_argument("--min-colpath-speedup", type=float, default=None,
                        help="colpath gate: required wide-point "
                             "columnar-vs-loop speedup (default: 2.5)")
    parser.add_argument("--min-narrow-ratio", type=float, default=None,
                        help="colpath gate: lowest tolerated 1-PC "
                             "columnar/loop ratio (default: 0.9)")
    parser.add_argument("--min-evict-speedup", type=float, default=None,
                        help="colpath gate: required adversarial evict-"
                             "heavy columnar-vs-loop speedup "
                             "(default: 2.0)")
    parser.add_argument("--max-repl-overhead", type=float, default=None,
                        help="repl gate: highest tolerated primary-side "
                             "throughput loss (default: 0.15)")
    parser.add_argument("--min-tenant-scaling", type=float, default=None,
                        help="tenant gate: required max-tenants/"
                             "single-tenant throughput ratio; a "
                             "quadratic victim pick or per-victim "
                             "spill jobs fall below it (default: 0.002)")


def _overrides_from(args) -> dict[str, float]:
    overrides = {}
    for flag in GATE_FLAGS:
        value = getattr(args, flag, None)
        if value is not None:
            overrides[flag] = value
    return overrides


def _entry_metrics(doc: dict, name: str):
    entry = doc.get("results", {}).get(name)
    return None if entry is None else schema.metrics_from_json(entry)


def _evaluate_target(spec, current_doc: dict, baseline_doc: dict | None,
                     args) -> gate_engine.GateReport:
    current = _entry_metrics(current_doc, spec.name) or {}
    baseline = (_entry_metrics(baseline_doc, spec.name)
                if baseline_doc else None)
    return gate_engine.evaluate(
        spec.name, spec.gates, current, baseline,
        overrides=_overrides_from(args),
        host_cpus=(current_doc.get("host") or {}).get("cpus") or 0,
        min_cpus=getattr(args, "min_cpus", None),
        strict=getattr(args, "strict", False))


def _print_report(report: gate_engine.GateReport) -> None:
    for note in report.notes:
        print(f"NOTE: {note}")
    for failure in report.failures:
        print(f"FAIL: [{report.name}] {failure}", file=sys.stderr)


# -- list -------------------------------------------------------------------
def cmd_list(args) -> int:
    specs = iter_benchmarks(args.suite)
    if not specs:
        print(f"no benchmarks in suite {args.suite!r}; "
              f"suites: {', '.join(all_suites())}")
        return 1
    print(f"{'name':<16} {'suites':<22} {'gates':>5} {'baseline':<20} "
          f"title")
    for spec in specs:
        suites = ",".join(s for s in spec.suites if s != "all")
        print(f"{spec.name:<16} {suites:<22} {len(spec.gates):>5} "
              f"{spec.baseline or '-':<20} {spec.title}")
    print(f"\n{len(specs)} benchmark(s); "
          f"suites: {', '.join(all_suites())}")
    return 0


# -- exec (one target, in-process; the runner's child) ----------------------
def cmd_exec(args) -> int:
    spec = get_benchmark(args.name)
    overrides = {"events": args.events, "repeats": args.repeats,
                 "length_scale": args.length_scale}
    params = _filtered_params(
        spec.run, spec.config(smoke=args.smoke, overrides=overrides))
    import time
    started = time.perf_counter()
    raw = spec.run(**params)
    elapsed = time.perf_counter() - started
    metrics = spec.extract(raw)
    if args.out:
        schema.write_fragment(args.out, spec.name, kind=spec.kind,
                              elapsed_s=elapsed, metrics=metrics, raw=raw)
    if args.baseline_out:
        doc = schema.new_document(suite="baseline")
        schema.add_result(doc, spec.name, status="ok",
                          elapsed_s=elapsed, kind=spec.kind,
                          metrics=metrics, raw=raw)
        schema.dump_document(doc, args.baseline_out)
        print(f"wrote {args.baseline_out}")
    exact = metrics.get("exact")
    if exact is not None and not exact.value:
        print(f"ERROR: {spec.name}: run diverged from the reference "
              f"engine (exact: false)", file=sys.stderr)
        return 2
    return 0


# -- run (a suite) ----------------------------------------------------------
def cmd_run(args) -> int:
    specs = iter_benchmarks(args.suite)
    if not specs:
        print(f"no benchmarks in suite {args.suite!r}; "
              f"suites: {', '.join(all_suites())}", file=sys.stderr)
        return 2
    frag_dir = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    jobs = []
    for spec in specs:
        argv = [sys.executable, "-m", "repro.bench", "exec", spec.name,
                "--out", str(frag_dir / f"{spec.name}.json")]
        if args.smoke:
            argv.append("--smoke")
        for flag in ("events", "repeats"):
            value = getattr(args, flag)
            if value is not None:
                argv += [f"--{flag}", str(value)]
        env = {"PYTHONPATH": _src_root()}
        jobs.append(runner_mod.Job(
            name=spec.name, argv=tuple(argv),
            timeout=spec.timeout * args.timeout_scale, env=env))

    mode = "smoke" if args.smoke else "full"
    print(f"suite {args.suite!r}: {len(jobs)} benchmark(s), "
          f"{args.jobs} parallel job(s), {mode} mode")

    def progress(result: runner_mod.JobResult) -> None:
        print(f"  [{result.status:>7}] {result.name:<16} "
              f"{result.elapsed_s:7.1f}s")
        if not result.ok and not args.quiet:
            tail = "\n".join(result.output.splitlines()[-15:])
            print("\n".join(f"    | {line}"
                            for line in tail.splitlines()))

    results = runner_mod.run_jobs(jobs, max_workers=args.jobs,
                                  progress=progress)

    doc = schema.new_document(suite=args.suite, smoke=args.smoke)
    failed_jobs = []
    for spec, result in zip(specs, results):
        frag_path = frag_dir / f"{spec.name}.json"
        metrics, raw = {}, None
        if frag_path.exists():
            fragment = schema.read_fragment(str(frag_path))
            metrics = schema.metrics_from_json(fragment)
            raw = fragment.get("raw")
        elif result.ok:
            result.status = "failed"  # ran green but wrote no fragment
        doc["results"][spec.name] = {
            "status": result.status,
            "elapsed_s": result.elapsed_s,
            "kind": spec.kind,
            "metrics": {k: m.to_json() for k, m in metrics.items()},
            "raw": raw if raw is not None
            else {"output_tail": result.output},
        }
        if not result.ok:
            failed_jobs.append(result)

    if args.out:
        schema.dump_document(doc, args.out)
        print(f"wrote {args.out}")

    exit_code = 0
    if failed_jobs:
        for result in failed_jobs:
            print(f"FAIL: {result.name} job {result.status} "
                  f"(rc={result.returncode})", file=sys.stderr)
        exit_code = 1

    if not args.smoke and not args.no_gate:
        for spec in specs:
            if not spec.gates:
                continue
            baseline_doc = None
            if spec.baseline:
                baseline_path = Path(args.baseline_dir) / spec.baseline
                if baseline_path.exists():
                    baseline_doc = schema.load_document(
                        str(baseline_path))
                else:
                    print(f"NOTE: no committed baseline "
                          f"{baseline_path} — same-run gates only")
            print(f"\n=== gate: {spec.name} ===")
            current = _entry_metrics(doc, spec.name) or {}
            baseline = (_entry_metrics(baseline_doc, spec.name)
                        if baseline_doc else None)
            print(report_mod.render_comparison(spec.name, baseline,
                                               current))
            report = _evaluate_target(spec, doc, baseline_doc, args)
            _print_report(report)
            if not report.ok:
                exit_code = 1
            else:
                print(f"gate {spec.name}: OK ({report.checked} checks)")
    if exit_code == 0:
        print("\nbench suite: OK")
    return exit_code


# -- gate (the check_bench.py engine) ---------------------------------------
def cmd_gate(args) -> int:
    baseline_doc = schema.load_document(args.baseline)
    current_doc = schema.load_document(args.current)
    base_names = set(baseline_doc.get("results", {}))
    cur_names = set(current_doc.get("results", {}))
    common = sorted(base_names & cur_names)
    if not common:
        raise SystemExit(
            f"kind mismatch: baseline has {sorted(base_names)}, "
            f"current has {sorted(cur_names)}")
    exit_code = 0
    for name in common:
        spec = get_benchmark(name)
        baseline = _entry_metrics(baseline_doc, name)
        current = _entry_metrics(current_doc, name) or {}
        print(report_mod.render_comparison(name, baseline, current))
        report = gate_engine.evaluate(
            name, spec.gates, current, baseline,
            overrides=_overrides_from(args),
            host_cpus=(current_doc.get("host") or {}).get("cpus") or 0,
            min_cpus=args.min_cpus, strict=args.strict)
        _print_report(report)
        if not report.ok:
            exit_code = 1
    if exit_code == 0:
        print("\nbench gate: OK")
    return exit_code


# -- report -----------------------------------------------------------------
def cmd_report(args) -> int:
    current = schema.load_document(args.current)
    baselines = {}
    for name in current.get("results", {}):
        try:
            spec = get_benchmark(name)
        except KeyError:
            continue
        if spec.baseline:
            path = Path(args.baseline_dir) / spec.baseline
            if path.exists():
                baselines[name] = schema.load_document(str(path))
    history = (report_mod.load_history(args.history)
               if args.history else [])
    gate_reports = []
    for name in current.get("results", {}):
        try:
            spec = get_benchmark(name)
        except KeyError:
            continue
        if spec.gates:
            gate_reports.append(_evaluate_target(
                spec, current, baselines.get(name), args))
    report = report_mod.build_report(current, baselines, history,
                                    gate_reports)
    markdown = report_mod.render_markdown(report)
    if args.out:
        Path(args.out).write_text(markdown)
        print(f"wrote {args.out}")
    else:
        print(markdown)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json_out}")
    if args.append and args.history:
        saved = report_mod.append_history(args.history, current)
        print(f"appended {saved}")
    return 0


# -- migrate ----------------------------------------------------------------
def cmd_migrate(args) -> int:
    doc = schema.load_document(args.file)  # wraps legacy transparently
    out = args.out or args.file
    schema.dump_document(doc, out)
    names = ", ".join(doc.get("results", {}))
    print(f"wrote {out} (schema_version "
          f"{doc['schema_version']}, targets: {names})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Unified benchmark runner, gate engine, and trend "
                    "reporter.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="enumerate registered "
                                         "benchmarks")
    p_list.add_argument("--suite", default=None,
                        help="restrict to one suite (default: all)")
    p_list.set_defaults(func=cmd_list)

    p_exec = sub.add_parser("exec", help="run one benchmark in-process")
    p_exec.add_argument("name")
    p_exec.add_argument("--out", default=None,
                        help="write the result fragment JSON here")
    p_exec.add_argument("--baseline-out", default=None,
                        help="write a single-target unified results "
                             "document (how baselines are refreshed)")
    p_exec.add_argument("--smoke", action="store_true",
                        help="tiny-configuration smoke run")
    p_exec.add_argument("--events", type=int, default=None)
    p_exec.add_argument("--repeats", type=int, default=None)
    p_exec.add_argument("--length-scale", type=float, default=None)
    p_exec.set_defaults(func=cmd_exec)

    p_run = sub.add_parser("run", help="run a suite and gate it")
    p_run.add_argument("--suite", default="ci-gates")
    p_run.add_argument("--smoke", action="store_true",
                       help="tiny event counts, no gating — catches "
                            "import/signature rot")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel jobs (default 1: perf targets "
                            "time cleanest unshared)")
    p_run.add_argument("--out", default=None,
                       help="write the unified results document here")
    p_run.add_argument("--baseline-dir", default=".",
                       help="directory holding committed BENCH_*.json")
    p_run.add_argument("--no-gate", action="store_true")
    p_run.add_argument("--events", type=int, default=None)
    p_run.add_argument("--repeats", type=int, default=None)
    p_run.add_argument("--timeout-scale", type=float, default=1.0)
    p_run.add_argument("--quiet", action="store_true",
                       help="do not echo failing jobs' output tails")
    _add_gate_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_gate = sub.add_parser(
        "gate", help="gate a results file against a baseline (old- or "
                     "new-format; the check_bench.py engine)")
    p_gate.add_argument("baseline")
    p_gate.add_argument("current")
    _add_gate_flags(p_gate)
    p_gate.set_defaults(func=cmd_gate)

    p_report = sub.add_parser("report", help="render the trend report")
    p_report.add_argument("--current", required=True,
                          help="the unified results document to report "
                               "on")
    p_report.add_argument("--baseline-dir", default=".")
    p_report.add_argument("--history", default=None,
                          help="directory of prior unified results")
    p_report.add_argument("--out", default=None,
                          help="Markdown output path (default: stdout)")
    p_report.add_argument("--json-out", default=None)
    p_report.add_argument("--append", action="store_true",
                          help="append the current run to --history")
    _add_gate_flags(p_report)
    p_report.set_defaults(func=cmd_report)

    p_migrate = sub.add_parser(
        "migrate", help="rewrite a legacy BENCH_*.json in the unified "
                        "schema")
    p_migrate.add_argument("file")
    p_migrate.add_argument("--out", default=None)
    p_migrate.set_defaults(func=cmd_migrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
