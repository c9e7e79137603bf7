"""``repro.serve`` CLI — replay a benchmark through the online service.

Usage::

    python -m repro.serve --benchmark gcc --max-events 50000
    python -m repro.serve --benchmark gcc --shards 8 --rate 500000
    python -m repro.serve --benchmark gzip --snapshot-every 200000 \\
        --snapshot-dir /tmp/snaps
    python -m repro.serve --benchmark gzip --wal-dir /tmp/wal \\
        --wal-fsync batch --snapshot-every 200000 --snapshot-dir /tmp/snaps
    python -m repro.serve --restore /tmp/snaps/snapshot-000000200000.json.gz \\
        --benchmark gzip
    python -m repro.serve --restore-latest /tmp/snaps --wal-dir /tmp/wal \\
        --benchmark gzip
    python -m repro.serve --benchmark gcc --metrics-port 9100 \\
        --metrics-json run-obs.json
    python -m repro.serve --benchmark gzip --wal-dir /tmp/wal \\
        --replicate-to 127.0.0.1:7420
    python -m repro.serve --follow 127.0.0.1:7420 --wal-dir /tmp/wal2 \\
        --ro-port 7421 --on-disconnect promote
    python -m repro.serve --benchmark gzip --tenants 1024 \\
        --tenant-mix zipf --tenant-quota-rate 100000 \\
        --tenant-budget-bytes 8388608

Feeds the chosen trace through a :class:`SpeculationService` at a
configurable event rate, printing a live telemetry line as it goes and
a final summary.  ``--verify`` additionally runs the offline engine on
the same trace and checks the service produced identical metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import time

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run reactive speculation control as an online "
                    "service over a benchmark trace.")
    parser.add_argument("--benchmark", default="gcc",
                        help="benchmark trace to replay, or a .npz "
                             "trace file (default: gcc)")
    parser.add_argument("--input", dest="input_name", default=None,
                        help="input name (default: evaluation input)")
    parser.add_argument("--max-events", type=int, default=None,
                        help="truncate the trace to N events")
    parser.add_argument("--shards", type=int, default=None,
                        help="controller bank shards (default: 4)")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="run N per-shard worker processes (implies "
                             "--shards N; default: 0 = in-process)")
    parser.add_argument("--transport", choices=("pipe", "socket"),
                        default="pipe",
                        help="worker wire transport (default: pipe)")
    parser.add_argument("--batch-events", type=int, default=4096,
                        help="events per submitted batch (default: 4096)")
    parser.add_argument("--queue-events", type=int, default=32768,
                        help="per-shard queue bound in events")
    parser.add_argument("--rate", type=float, default=None,
                        help="target submission rate in events/sec "
                             "(default: as fast as backpressure allows)")
    parser.add_argument("--snapshot-every", type=int, default=None,
                        help="auto-snapshot every N applied events")
    parser.add_argument("--snapshot-dir", default=None,
                        help="directory for auto-snapshots")
    parser.add_argument("--restore", default=None, metavar="SNAPSHOT",
                        help="resume from a snapshot file; the trace "
                             "prefix it covers is skipped")
    parser.add_argument("--restore-latest", default=None, metavar="DIR",
                        help="resume from the newest loadable snapshot "
                             "in DIR (corrupt ones are skipped with a "
                             "warning)")
    parser.add_argument("--wal-dir", default=None, metavar="DIR",
                        help="write-ahead-log directory: every accepted "
                             "batch is logged before it is enqueued; on "
                             "restore the log tail beyond the snapshot "
                             "is replayed")
    parser.add_argument("--wal-fsync", choices=("always", "batch", "off"),
                        default="batch",
                        help="WAL durability policy (default: batch = "
                             "group commit riding the micro-batcher)")
    parser.add_argument("--wal-segment-bytes", type=int,
                        default=4 * 1024 * 1024,
                        help="WAL segment rotation size (default: 4 MiB)")
    parser.add_argument("--report-every", type=int, default=250_000,
                        help="print a telemetry line every N events")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve Prometheus metrics + the transition "
                             "trace over HTTP on 127.0.0.1:PORT while "
                             "the run is live (0 = pick a free port)")
    parser.add_argument("--metrics-json", default=None, metavar="FILE",
                        help="write the final metrics + transition-trace "
                             "snapshot as JSON to FILE on clean shutdown "
                             "(readable by python -m repro.obs --file)")
    parser.add_argument("--no-obs", action="store_true",
                        help="disable observability capture (latency "
                             "histograms + transition tracing); counters "
                             "and gauges stay on")
    parser.add_argument("--no-spans", action="store_true",
                        help="disable per-batch stage-timing spans "
                             "(/spans.json)")
    parser.add_argument("--no-detect", action="store_true",
                        help="disable the online misspeculation health "
                             "detector (/health)")
    parser.add_argument("--span-ring", type=int, default=1024,
                        help="span-ring capacity (default: 1024)")
    parser.add_argument("--trace-ring", type=int, default=4096,
                        help="transition-ring capacity (default: 4096)")
    parser.add_argument("--trace-sample", type=int, default=1,
                        help="trace 1-in-N PCs by hash (default: 1 = "
                             "every PC; arc counters always cover all)")
    ten = parser.add_argument_group(
        "multi-tenancy (see docs/multitenancy.md)")
    ten.add_argument("--tenants", type=int, default=None, metavar="N",
                     help="interleave the trace across N tenant "
                          "universes (each tenant gets its own "
                          "controller per branch)")
    ten.add_argument("--tenant-mix", choices=("zipf", "uniform"),
                     default="zipf",
                     help="tenant traffic distribution for --tenants "
                          "(default: zipf)")
    ten.add_argument("--tenant-quota-rate", type=float, default=None,
                     metavar="EPS",
                     help="per-tenant admission quota in events/sec "
                          "(token bucket; default: unlimited)")
    ten.add_argument("--tenant-quota-burst", type=int, default=32768,
                     metavar="EVENTS",
                     help="per-tenant burst allowance (default: 32768)")
    ten.add_argument("--tenant-budget-bytes", type=int, default=None,
                     metavar="BYTES",
                     help="resident-set byte budget; cold tenants "
                          "spill past it (default: unlimited)")
    ten.add_argument("--tenant-spill-dir", default=None, metavar="DIR",
                     help="directory for the cold-tenant spill store "
                          "(default: a temp dir when spilling is on)")
    repl = parser.add_argument_group(
        "replication (see docs/durability.md)")
    repl.add_argument("--replicate-to", default=None, metavar="ADDR",
                      help="primary role: stream the WAL to followers "
                           "connecting on ADDR (host:port or an AF_UNIX "
                           "path); requires --wal-dir")
    repl.add_argument("--follow", default=None, metavar="ADDR",
                      help="standby role: replicate the primary at ADDR "
                           "into --wal-dir and stand by (no trace is "
                           "fed); promotes or retries per "
                           "--on-disconnect")
    repl.add_argument("--ro-port", type=int, default=None, metavar="PORT",
                      help="standby: serve read-only should_speculate "
                           "queries on 127.0.0.1:PORT")
    repl.add_argument("--on-disconnect", choices=("retry", "promote"),
                      default="retry",
                      help="standby: when the primary stays unreachable, "
                           "keep retrying forever or promote to a "
                           "read-write primary (default: retry)")
    repl.add_argument("--promote-retries", type=int, default=10,
                      metavar="N",
                      help="standby: failed connection attempts before "
                           "--on-disconnect promote fires (default: 10)")
    parser.add_argument("--verify", action="store_true",
                        help="also run the offline engine and compare "
                             "metrics (exits 1 on mismatch)")
    parser.add_argument("--dump-telemetry", default=None, metavar="FILE",
                        help="write the final telemetry reading and "
                             "metrics as JSON to FILE")
    return parser


async def _run(args) -> int:
    from pathlib import Path

    from repro.serve.client import feed_trace
    from repro.serve.service import ServiceConfig, SpeculationService
    from repro.trace.spec2000 import load_trace

    if args.benchmark.endswith(".npz") or Path(args.benchmark).exists():
        from repro.trace.io import load_trace_file

        trace = load_trace_file(args.benchmark)
    else:
        trace = load_trace(args.benchmark, args.input_name,
                           length=args.max_events)
    if args.tenants is not None:
        from repro.trace.synthetic import with_tenants

        trace = with_tenants(trace, args.tenants, args.tenant_mix)
    if (args.workers and args.shards is not None
            and args.shards != args.workers):
        raise ValueError(f"--workers {args.workers} implies --shards "
                         f"{args.workers}; drop the conflicting "
                         f"--shards {args.shards}")
    n_shards = args.workers or (4 if args.shards is None else args.shards)
    restore_path = args.restore
    if args.restore_latest is not None:
        from repro.serve.snapshot import find_latest_snapshot

        restore_path = find_latest_snapshot(args.restore_latest)
        if restore_path is None and args.wal_dir is None:
            raise ValueError(f"no loadable snapshot in "
                             f"{args.restore_latest} (and no --wal-dir "
                             f"to recover from)")
        if restore_path is None:
            print(f"no loadable snapshot in {args.restore_latest}; "
                  f"recovering from the WAL alone")
    restoring = (restore_path is not None
                 or (args.restore_latest is not None
                     and args.wal_dir is not None))
    if restoring and args.wal_dir is not None:
        from repro.wal.recovery import recover_service

        service, report = recover_service(
            args.wal_dir, snapshot=restore_path,
            n_shards=n_shards, workers=args.workers,
            transport=args.transport, wal_fsync=args.wal_fsync)
        print(report.summary())
        print(f"feed resumes at seq {service.last_seq + 1}")
        if args.replicate_to:
            service.enable_replication(args.replicate_to)
    elif restoring:
        service = SpeculationService.restore(restore_path,
                                             n_shards=n_shards,
                                             workers=args.workers,
                                             transport=args.transport)
        print(f"restored {restore_path} "
              f"(events applied: {service.metrics().dynamic_branches:,}, "
              f"covered-seq watermark: {service.last_seq}; "
              f"feed resumes at seq {service.last_seq + 1})")
    else:
        scfg = ServiceConfig(
            n_shards=n_shards,
            queue_events=args.queue_events,
            snapshot_interval_events=args.snapshot_every,
            snapshot_dir=args.snapshot_dir,
            workers=args.workers,
            transport=args.transport,
            wal_dir=args.wal_dir,
            wal_fsync=args.wal_fsync,
            wal_segment_bytes=args.wal_segment_bytes,
            repl_listen=args.replicate_to,
            obs=not args.no_obs,
            spans=not args.no_spans,
            span_ring=args.span_ring,
            detect=not args.no_detect,
            trace_ring=args.trace_ring,
            trace_sample=args.trace_sample,
            tenant_quota_rate=args.tenant_quota_rate,
            tenant_quota_burst=args.tenant_quota_burst,
            tenant_resident_bytes=args.tenant_budget_bytes,
            tenant_spill_dir=args.tenant_spill_dir,
        )
        service = SpeculationService(service_config=scfg)

    metrics_server = None
    if args.metrics_port is not None:
        from repro.obs.http import MetricsServer

        metrics_server = MetricsServer(service.registry,
                                       trace=service.trace,
                                       port=args.metrics_port,
                                       spans=service.spans,
                                       health=service.detector)
        extras = "".join(
            f", {route}" for route, enabled in
            (("/spans.json", service.spans is not None),
             ("/health", service.detector is not None)) if enabled)
        print(f"metrics    {metrics_server.url}/metrics "
              f"(also /metrics.json, /trace.json{extras})")

    def report() -> None:
        print(service.reading().summary())

    started = time.monotonic()
    try:
        async with service:
            stats = await feed_trace(
                service, trace,
                batch_events=args.batch_events,
                max_events=args.max_events,
                rate=args.rate,
                progress=report,
                progress_every=args.report_every)
            await service.drain()
            elapsed = time.monotonic() - started
            reading = service.reading()
            metrics = service.metrics()
            worker_pids = service.worker_pids
            replicated_seq = service.last_replicated_seq
            tenant_stats = service.tenant_stats()
    finally:
        if metrics_server is not None:
            metrics_server.close()

    print()
    print(f"trace      {trace.name}/{trace.input_name}  "
          f"{len(trace):,} events")
    print(f"service    {service.bank.n_shards} shards, "
          f"{stats.batches:,} batches submitted, "
          f"{stats.rejections:,} backpressure rejections "
          f"({stats.retry_wait:.2f}s waited)")
    if args.workers:
        pids = ", ".join(str(p) for p in worker_pids)
        print(f"workers    {args.workers} processes over "
              f"{args.transport} transport (pids {pids})")
    print(f"sustained  {metrics.dynamic_branches / elapsed / 1e3:,.0f}k "
          f"events/sec over {elapsed:.2f}s")
    print(f"queues     high water {max(reading.queue_high_water):,} "
          f"events, shard skew {reading.shard_skew:.2f}, "
          f"mean batch {reading.mean_batch_events:,.0f}")
    print(f"metrics    {metrics.summary()}")
    if not args.no_obs:
        arcs = service.trace.arc_counts()
        print(f"fsm arcs   select {arcs['select']:,}  "
              f"reject {arcs['reject']:,}  evict {arcs['evict']:,}  "
              f"revisit {arcs['revisit']:,}  disable {arcs['disable']:,} "
              f"({len(service.trace)} in the trace ring)")
    if service.detector is not None:
        health = service.detector.health_doc()
        tte = health["time_to_evict"]
        print(f"health     verdict {health['verdict']} "
              f"(peak {health['peak_verdict']}, "
              f"{health['bursts']} burst(s), "
              f"window misspec {health['window']['misspec_rate']:.4%}, "
              f"{tte['count']} eviction(s)"
              + (f", mean time-to-evict {tte['mean']:,.0f} events"
                 if tte['count'] else "") + ")")
    if service.spans is not None:
        q = service.spans.quantiles()
        parts = [f"{stage} p99 {vals['p99']*1e6:,.0f}us"
                 for stage, vals in q.items() if vals is not None]
        if parts:
            print(f"spans      {', '.join(parts)}")
    if tenant_stats is not None:
        print(f"tenants    {tenant_stats['resident_tenants']:,} resident "
              f"/ {tenant_stats['spilled_tenants']:,} spilled, "
              f"{tenant_stats['spills']:,} spills, "
              f"{tenant_stats['restores']:,} restores, "
              f"{tenant_stats['quota_rejections']:,} quota rejections "
              f"(peak resident "
              f"{tenant_stats['peak_resident_bytes']:,} bytes)")
    if args.wal_dir is not None:
        print(f"wal        {reading.wal_records_appended:,} records / "
              f"{reading.wal_bytes_appended:,} bytes appended, "
              f"{reading.wal_fsyncs:,} fsyncs "
              f"(mean commit {reading.wal_mean_commit_records:,.1f} "
              f"records), {reading.wal_segments_compacted} segments "
              f"compacted")
    if service.snapshots_written:
        print(f"snapshots  {len(service.snapshots_written)} written, "
              f"last: {service.snapshots_written[-1]}")
    if args.replicate_to:
        lag = service.last_seq - replicated_seq
        print(f"replica    acked through seq {replicated_seq} "
              f"of {service.last_seq} "
              f"({'in sync' if lag == 0 else f'{lag} batches behind'}) "
              f"on {args.replicate_to}")

    if args.dump_telemetry:
        import json
        from dataclasses import asdict
        from pathlib import Path

        dump = {
            "trace": {"name": trace.name, "input": trace.input_name,
                      "events": len(trace)},
            "service": {"shards": service.bank.n_shards,
                        "workers": args.workers,
                        "transport": args.transport,
                        "batch_events": args.batch_events},
            "elapsed_sec": elapsed,
            "events_per_sec": (metrics.dynamic_branches / elapsed
                               if elapsed > 0 else 0.0),
            "submission": asdict(stats),
            "telemetry": asdict(reading),
            "metrics": asdict(metrics),
        }
        if tenant_stats is not None:
            dump["tenants"] = tenant_stats
        out = Path(args.dump_telemetry)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(dump, indent=2) + "\n")
        print(f"telemetry  dumped to {out}")

    if args.metrics_json:
        import json
        from pathlib import Path

        doc = {
            "kind": "repro.obs.snapshot",
            "metrics": service.registry.snapshot(),
            "trace": service.trace.snapshot_doc(),
        }
        if service.spans is not None:
            doc["spans"] = service.spans.snapshot_doc()
        if service.detector is not None:
            doc["health"] = service.detector.health_doc()
        out = Path(args.metrics_json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"obs        metrics + trace dumped to {out}")

    if args.verify:
        from repro.sim.runner import run_reactive

        offline = run_reactive(trace, service.config).metrics
        if offline == metrics:
            print("verify     OK — service metrics identical to "
                  "offline run_reactive")
        else:
            print("verify     MISMATCH")
            print(f"  service  {metrics}")
            print(f"  offline  {offline}")
            return 1
    return 0


def _run_follower(args) -> int:
    """Standby role: replicate the primary into the local WAL, serve
    read-only queries, and (optionally) promote when it dies."""
    import logging

    from repro.replicate import (FollowerConfig, ReplicationFollower,
                                 promote_follower)

    # Satellite visibility: the follower's bootstrap/recovery path logs
    # every snapshot it rejects and every anchor it picks — surface it.
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    cfg = FollowerConfig(
        upstream=args.follow,
        wal_dir=args.wal_dir,
        snapshot_dir=args.snapshot_dir,
        n_shards=args.shards if args.shards is not None else 2,
        wal_fsync=args.wal_fsync,
        ro_listen=(f"127.0.0.1:{args.ro_port}"
                   if args.ro_port is not None else None),
        max_retries=(args.promote_retries
                     if args.on_disconnect == "promote" else None))
    follower = ReplicationFollower(cfg)
    print(f"standby    following {cfg.upstream} into {cfg.wal_dir}"
          + (f", read-only on {cfg.ro_listen}" if cfg.ro_listen else ""))
    try:
        reason = follower.run()
    except KeyboardInterrupt:
        follower.stop()
        reason = "stopped"
    status = follower.status()
    print(f"standby    {reason}: watermark seq {status['last_seq']}, "
          f"{status['batches_applied']:,} batches applied, "
          f"{status['reconnects']} reconnects, "
          f"{status['snapshots_installed']} snapshot re-anchors")
    if reason == "gave-up" and args.on_disconnect == "promote":
        service, report = promote_follower(
            follower, workers=args.workers or None,
            transport=args.transport)
        print(report.summary())
        print(f"metrics    {service.metrics().summary()}")
        print(f"state is read-write in {cfg.wal_dir}; resume serving "
              f"with: python -m repro.serve --wal-dir {cfg.wal_dir} "
              f"--restore-latest {cfg.resolved_snapshot_dir()} ...")
        return 0
    return 0 if reason == "stopped" else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.snapshot_every is not None and args.snapshot_dir is None:
        print("error: --snapshot-every requires --snapshot-dir")
        return 2
    if args.restore is not None and args.restore_latest is not None:
        print("error: --restore and --restore-latest are mutually "
              "exclusive")
        return 2
    if args.follow is not None and args.replicate_to is not None:
        print("error: --follow (standby) and --replicate-to (primary) "
              "are mutually exclusive")
        return 2
    if args.follow is not None and args.wal_dir is None:
        print("error: --follow requires --wal-dir (the standby's own "
              "log)")
        return 2
    if args.replicate_to is not None and args.wal_dir is None:
        print("error: --replicate-to requires --wal-dir (replication "
              "streams the write-ahead log)")
        return 2
    if args.ro_port is not None and args.follow is None:
        print("error: --ro-port only applies to a --follow standby")
        return 2
    try:
        if args.follow is not None:
            return _run_follower(args)
        return asyncio.run(_run(args))
    except (FileNotFoundError, KeyError, ValueError) as err:
        # Usage errors (unknown benchmark, bad snapshot path/file,
        # invalid knob combination) — report without a traceback.
        if isinstance(err, OSError):
            message = f"{err.strerror}: {err.filename}"
        else:
            message = err.args[0] if err.args else err
        print(f"error: {message}")
        return 2
