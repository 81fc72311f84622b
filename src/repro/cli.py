"""Command-line interface: ``python -m repro <command>``.

Commands mirror the deployment life cycle:

* ``generate`` — write a synthetic NMD snapshot to a directory of CSVs.
* ``fit``      — fit the final pipeline (or greedily optimize one) on a
  dataset and save the model artefact.
* ``query``    — DoMD query against a saved model (optionally explained).
* ``evaluate`` — Table-7-style metrics on the chronological test split.
* ``serve``    — JSON-lines request loop over stdin/stdout
  (the SMDII back-end contract, see :mod:`repro.core.service`).
  ``--workers N`` serves through a :class:`~repro.core.server.ServicePool`
  (bounded queue via ``--queue-depth``, per-request budgets via
  ``--deadline-ms``); responses stay in submission order.
  ``--follow WAL`` tails a write-ahead log in the background, applying
  fresh RCC events to the store and refreshing the features they touch
  between requests (see ``docs/streaming.md``).
* ``ingest``   — streaming ingestion: ``append`` writes a stream file
  into a durable WAL; ``replay`` rebuilds state from a WAL (optionally
  restoring a snapshot first), with ``--verify`` diffing the live
  indexes against fresh batch builds.
* ``explain``  — EXPLAIN/ANALYZE a Status Query workload: planner
  decision, per-operator rows/timings, cost-model residual; optionally
  exporting the run as a flamegraph or Chrome trace.
* ``planner doctor`` — re-measure the planner's cost constants on this
  machine and flag backends whose committed constants are >2x off.
* ``telemetry report`` — render a run's trace trees, latency
  histograms and counters from a JSONL event log (corrupt lines are
  skipped and counted in a footer warning).
* ``telemetry profile`` — render the same event log as collapsed-stack
  flamegraph lines or Chrome ``traceEvents`` JSON.
* ``telemetry trace <trace_id>`` — reconstruct one trace's full causal
  chain from the event log alone: the request's span tree, its
  provenance stamp, and the ingest applies / WAL appends that made the
  answered data queryable (exit 1 when the trace is not in the log).
* ``top`` — terminal dashboard over a serving process's JSONL event
  log: qps, latency percentile trends, pool saturation, watermark lag,
  drift and firing alerts, live (refreshing) or ``--once`` for a single
  frame.  Works while the server runs *and* after it exits — the
  dashboard reconstructs purely from the ``sample``/``alert`` events
  the always-on sampler persists.

Every command is a thin shell over the library API; ``main`` returns an
exit code and never raises for user errors.

A single :class:`~repro.runtime.ExecutionContext` is threaded through
whichever command runs.  The global ``--trace`` flag prints its
:class:`~repro.runtime.RunReport` (per-stage spans and counters) as a
final JSON line **on stderr** — command stdout stays pipeable to
``jq``/files — and ``--trace-file`` writes the same JSON to a path
instead.  ``--telemetry-events PATH`` attaches a rotating JSONL event
log to the run (the input of ``telemetry report``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import IO

from repro.core.config import PipelineConfig, paper_final_config
from repro.core.estimator import DomdEstimator
from repro.core.pipeline import PipelineOptimizer
from repro.core.server import ServicePool
from repro.core.service import DomdService, error_envelope
from repro.data.generator import SyntheticNmdConfig, generate_dataset
from repro.data.regimes import REGIMES, generate_regime_dataset, get_regime
from repro.data.loader import load_dataset, save_dataset
from repro.data.scaling import scale_rccs
from repro.data.splits import split_dataset
from repro.errors import ReproError
from repro.index.status_query import StatusQuery, StatusQueryEngine
from repro.persistence import load_estimator, save_estimator
from repro.runtime import (
    ExecutionContext,
    JsonlEventLog,
    chrome_trace_from_events,
    collapsed_from_events,
    doctor_report,
    explain_point,
    explain_sweep,
    load_events_lenient,
    render_report,
)

#: Engine-facing columns of the logical-time RCC table.
_ENGINE_COLUMNS = ["rcc_type", "swlin", "t_start", "t_end", "amount", "avail_id"]

#: Default sweep timeline: the paper's 10%-window logical timestamps.
_DEFAULT_SWEEP = [float(t) for t in range(0, 101, 10)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DoMD estimation framework (EDBT 2025 reproduction)"
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the run's metrics report (spans + counters) as a final "
        "JSON line on stderr",
    )
    parser.add_argument(
        "--trace-file",
        metavar="PATH",
        help="write the run's metrics report JSON to PATH",
    )
    parser.add_argument(
        "--telemetry-events",
        metavar="PATH",
        help="append the run's structured telemetry events to a rotating "
        "JSONL log at PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic NMD snapshot")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--scale", type=int, default=1, help="x-fold RCC scaling")
    gen.add_argument(
        "--regime",
        choices=sorted(REGIMES),
        help="generate through the lifecycle simulator under a named "
        "stress regime instead of the direct sampler",
    )
    gen.add_argument("--ships", type=int, help="override fleet size")
    gen.add_argument("--avails", type=int, help="override closed-avail count")
    gen.add_argument("--ongoing", type=int, help="override ongoing-avail count")
    gen.add_argument("--rccs", type=int, help="override total RCC count")
    gen.add_argument(
        "--events-out",
        metavar="PATH",
        help="additionally write the dataset as a time-ordered RCC event "
        "stream (JSONL; header line + rcc_created/rcc_settled events; "
        "stream-perturbing regimes write their delivery order)",
    )

    fit = sub.add_parser("fit", help="fit the pipeline and save the model")
    fit.add_argument("--data", required=True, help="dataset directory")
    fit.add_argument("--out", required=True, help="model artefact path (.json)")
    fit.add_argument(
        "--optimize",
        action="store_true",
        help="run the greedy pipeline optimization instead of the paper's final config",
    )
    fit.add_argument("--window", type=float, default=10.0, help="window width %%")
    fit.add_argument("--split-seed", type=int, default=42)

    query = sub.add_parser("query", help="DoMD query against a saved model")
    query.add_argument("--model", required=True)
    query.add_argument("--data", required=True)
    query.add_argument("--avail", type=int, required=True, action="append")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--t-star", type=float)
    group.add_argument("--date", type=str)
    query.add_argument("--explain", action="store_true", help="include top-5 drivers")

    evaluate = sub.add_parser("evaluate", help="test-split metrics for a saved model")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--split-seed", type=int, default=42)

    ingest = sub.add_parser(
        "ingest", help="stream RCC events through the WAL / replay a WAL"
    )
    ingest.add_argument(
        "action",
        choices=["append", "replay"],
        help="'append': validate events from a stream file against the "
        "state the WAL leads to, then write them into the WAL; "
        "'replay': rebuild state from a WAL (optionally from a snapshot)",
    )
    ingest.add_argument("--wal", required=True, help="WAL file path")
    ingest.add_argument(
        "--events", help="stream file to append (append action)"
    )
    ingest.add_argument(
        "--stream",
        help="stream file whose header bootstraps the store (append "
        "validates against it; default: the --events file's header)",
    )
    ingest.add_argument(
        "--data", help="dataset directory bootstrapping the store"
    )
    ingest.add_argument(
        "--restore",
        metavar="SNAPSHOT",
        help="stream snapshot to restore before replaying the WAL tail",
    )
    ingest.add_argument(
        "--design",
        action="append",
        help="index design(s) to maintain (repeatable; default avl)",
    )
    ingest.add_argument("--batch-size", type=int, default=256)
    ingest.add_argument(
        "--fsync-batches",
        type=int,
        default=1,
        help="fsync every N appended batches (append action, default 1)",
    )
    ingest.add_argument(
        "--snapshot-out",
        metavar="PATH",
        help="write a stream snapshot after replay (replay action)",
    )
    ingest.add_argument(
        "--verify",
        action="store_true",
        help="after replay, diff every maintained index against a fresh "
        "batch build at the sweep timestamps; non-zero exit on mismatch",
    )
    ingest.add_argument(
        "--sweep",
        metavar="T0,T1,...",
        help="verification timestamps (default: 0,10,...,100)",
    )

    serve = sub.add_parser(
        "serve",
        help="answer JSON-lines requests on stdin, or serve a sharded "
        "fleet over TCP with --listen",
    )
    serve.add_argument("--model", required=True)
    serve.add_argument("--data", required=True)
    serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="serve the length-prefixed JSON protocol on a TCP socket "
        "instead of stdin, sharding the fleet across worker processes "
        "(PORT 0 picks an ephemeral port; the bound address is printed "
        "as a JSON ready line)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=2,
        help="worker processes partitioning the fleet by ship "
        "(--listen mode only, default 2)",
    )
    serve.add_argument(
        "--wal-dir",
        metavar="DIR",
        help="per-shard write-ahead logs under DIR, enabling the "
        "'ingest' request type with fsync-then-ack durability "
        "(--listen mode only)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="front-end dispatch slots before requests bounce with a "
        "retryable 'overloaded' envelope (--listen mode, default 64)",
    )
    serve.add_argument(
        "--scatter-timeout-ms",
        type=float,
        default=5000.0,
        help="per-shard budget for scatter-gather requests; shards "
        "missing it are reported in the 'degraded' block "
        "(--listen mode, default 5000)",
    )
    serve.add_argument(
        "--lag-alert-events",
        type=int,
        default=500,
        help="ingest lag (events) past which a shard's "
        "'shard:<id>:lagging' alert fires (--listen mode, default 500)",
    )
    serve.add_argument(
        "--follow",
        metavar="WAL",
        help="tail a WAL in the background, applying fresh events to the "
        "store and refreshing the features they touch between requests",
    )
    serve.add_argument(
        "--follow-poll-ms",
        type=float,
        default=200.0,
        help="WAL poll interval in milliseconds (default 200)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker threads serving requests concurrently "
        "(stdin mode only, default 1)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="bounded request-queue capacity (backpressure knob; "
        "stdin mode only, default 16)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline in milliseconds, measured from submission; "
        "with --listen, the wire deadline_ms the front door gives requests "
        "that carry none (default: no deadline)",
    )
    serve.add_argument(
        "--sample-interval-ms",
        type=float,
        default=1000.0,
        help="background telemetry sampler tick in milliseconds "
        "(default 1000; 0 disables the always-on sampler and SLO alerting)",
    )
    serve.add_argument(
        "--slo-latency-ms",
        type=float,
        default=500.0,
        help="p99 request-latency SLO threshold in milliseconds (default 500)",
    )
    serve.add_argument(
        "--profile-out",
        metavar="PATH",
        help="run the continuous stack profiler and write its collapsed-"
        "stack flamegraph lines to PATH on shutdown",
    )
    serve.add_argument(
        "--profile-interval-ms",
        type=float,
        default=20.0,
        help="stack-profiler sampling interval in milliseconds (default 20)",
    )

    explain = sub.add_parser(
        "explain", help="EXPLAIN/ANALYZE a Status Query workload"
    )
    explain.add_argument("--data", required=True, help="dataset directory")
    explain.add_argument(
        "--design",
        default="auto",
        help="index design (naive/avl/interval/sorted_array) or 'auto' "
        "to let the planner choose (default)",
    )
    mode = explain.add_mutually_exclusive_group()
    mode.add_argument(
        "--t-star", type=float, help="point query at one logical timestamp"
    )
    mode.add_argument(
        "--sweep",
        metavar="T0,T1,...",
        help="comma-separated sweep timestamps (default: 0,10,...,100)",
    )
    explain.add_argument(
        "--swlin-level",
        type=int,
        default=1,
        help="SWLIN grouping level 1..4, or 0 for no SWLIN grouping",
    )
    explain.add_argument(
        "--no-group-type", action="store_true", help="skip RCC-type grouping"
    )
    explain.add_argument(
        "--scratch",
        action="store_true",
        help="sweep from scratch per timestamp instead of incrementally",
    )
    explain.add_argument(
        "--format", choices=["text", "json"], default="text", dest="report_format"
    )
    explain.add_argument(
        "--redact-timings",
        action="store_true",
        help="replace machine-speed numbers with *** (host-stable output)",
    )
    explain.add_argument(
        "--flamegraph",
        metavar="PATH",
        help="write the run's collapsed-stack flamegraph lines to PATH",
    )
    explain.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="write the run's Chrome traceEvents JSON to PATH",
    )

    planner = sub.add_parser(
        "planner", help="inspect the cost-based query planner"
    )
    planner.add_argument(
        "action",
        choices=["doctor"],
        help="'doctor': measure cost-model calibration on this machine",
    )
    planner.add_argument("--data", required=True, help="dataset directory")
    planner.add_argument(
        "--factor", type=int, default=1, help="x-fold RCC scaling for the probe"
    )
    planner.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="flag backends whose measured/modelled ratio is outside "
        "[1/threshold, threshold]",
    )
    planner.add_argument(
        "--format", choices=["text", "json"], default="text", dest="report_format"
    )

    telemetry = sub.add_parser(
        "telemetry", help="inspect telemetry artefacts of a previous run"
    )
    telemetry.add_argument(
        "action",
        choices=["report", "profile", "trace"],
        help="'report': render an event log; 'profile': export it as a "
        "flamegraph or Chrome trace; 'trace': reconstruct one trace's "
        "full causal chain (request -> ingest applies -> WAL appends)",
    )
    telemetry.add_argument(
        "trace_id",
        nargs="?",
        default=None,
        help="trace id to reconstruct (required for 'trace'; e.g. the "
        "trace_id of a response's provenance stamp)",
    )
    telemetry.add_argument(
        "--events", required=True, help="JSONL event log (from --telemetry-events)"
    )
    telemetry.add_argument(
        "--format",
        choices=["text", "json", "collapsed", "chrome"],
        default=None,
        dest="report_format",
        help="report: text|json (default text); profile: collapsed|chrome "
        "(default collapsed)",
    )
    telemetry.add_argument(
        "--out", metavar="PATH", help="write profile output to PATH instead of stdout"
    )

    top = sub.add_parser(
        "top", help="terminal dashboard over a serving process's event log"
    )
    top.add_argument(
        "--events",
        required=True,
        help="JSONL event log the serving process writes (--telemetry-events)",
    )
    top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    top.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="report_format",
        help="frame format; 'json' prints the raw snapshot (requires --once)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="live-mode refresh interval in seconds (default 2)",
    )
    top.add_argument(
        "--window",
        type=float,
        default=300.0,
        help="trend window in seconds (default 300)",
    )
    return parser


def _cmd_generate(args, out: IO[str]) -> int:
    config = SyntheticNmdConfig(seed=args.seed)
    overrides = {
        name: value
        for name, value in (
            ("n_ships", getattr(args, "ships", None)),
            ("n_closed_avails", getattr(args, "avails", None)),
            ("n_ongoing_avails", getattr(args, "ongoing", None)),
            ("target_n_rccs", getattr(args, "rccs", None)),
        )
        if value is not None
    }
    if overrides:
        config = dataclasses.replace(config, **overrides)
    regime = getattr(args, "regime", None)
    if regime:
        spec = get_regime(regime)
        dataset = generate_regime_dataset(spec, base=config)
    else:
        spec = None
        dataset = generate_dataset(config)
    if args.scale > 1:
        dataset = scale_rccs(dataset, args.scale)
    save_dataset(dataset, args.out)
    stats = dataset.statistics()
    if spec is not None:
        stats["regime"] = spec.name
    if getattr(args, "events_out", None):
        if spec is not None:
            from repro.data.regimes import write_regime_stream

            stats["events_written"] = write_regime_stream(
                spec, dataset, args.events_out
            )
        else:
            from repro.stream import write_event_stream

            stats["events_written"] = write_event_stream(dataset, args.events_out)
        stats["events_path"] = args.events_out
    print(json.dumps(stats), file=out)
    return 0


def _bootstrap_ingestor(
    args, context: ExecutionContext, header: dict | None = None
):
    """The state ``ingest`` starts from: ``--restore``, ``--stream`` or
    ``--data``, else ``header`` (an events file's ``stream_header``)."""
    from repro.stream import StreamIngestor, StreamingRccStore, read_event_stream

    sources = [bool(args.stream), bool(args.data), bool(args.restore)]
    if sum(sources) > 1:
        raise ReproError(
            f"ingest {args.action} takes at most one of --stream / --data / --restore"
        )
    designs = args.design if args.design else None
    if args.restore:
        from repro.persistence import load_stream_snapshot

        return load_stream_snapshot(args.restore, context=context, designs=designs)
    if args.stream:
        header, _ = read_event_stream(args.stream)
        if header is None:
            raise ReproError(
                f"stream file {args.stream!r} has no stream_header line"
            )
    if args.data:
        store = StreamingRccStore.from_dataset(load_dataset(args.data))
    elif header is not None:
        store = StreamingRccStore.from_header(header)
    else:
        hint = "--stream, --data or --restore"
        if args.action == "append":
            hint += ", or a stream_header line in --events"
        raise ReproError(f"ingest {args.action} needs a bootstrap source: {hint}")
    return StreamIngestor(
        store, designs=designs if designs else ("avl",), context=context
    )


def _cmd_ingest(args, out: IO[str], context: ExecutionContext) -> int:
    from repro.stream import WalWriter, read_event_stream, read_wal

    if args.action == "append":
        if not args.events:
            raise ReproError("ingest append requires --events <stream file>")
        header, events = read_event_stream(args.events)
        batches = [
            events[lo : lo + args.batch_size]
            for lo in range(0, len(events), args.batch_size)
        ]
        # Validate against the state the WAL already leads to before
        # writing anything: a record the store rejects would fail every
        # later replay and every follower poll.  The dry run touches the
        # store only, under a private context that logs nothing.
        state = _bootstrap_ingestor(args, ExecutionContext(), header)
        store = state.store
        for record in read_wal(args.wal, after_seq=state.watermark).records:
            store.apply(record.event)
        for batch in batches:
            store.validate(batch)
            for event in batch:
                store.apply(event)
        # One append trace per CLI invocation: every WAL record written
        # here carries this trace's context (tp), so a later serving
        # process can walk a response all the way back to this command.
        with context.telemetry.trace("ingest.append", wal=args.wal):
            with WalWriter(
                args.wal,
                fsync_batches=args.fsync_batches,
                telemetry=context.telemetry,
            ) as writer:
                first_seq = writer.next_seq
                for batch in batches:
                    with context.span("ingest.append_batch"):
                        writer.append_batch(batch)
                last_seq = writer.last_seq
        print(
            json.dumps(
                {
                    "appended": len(events),
                    "batches": len(batches),
                    "first_seq": first_seq,
                    "last_seq": last_seq,
                    "wal": args.wal,
                }
            ),
            file=out,
        )
        return 0

    # replay: bootstrap a store, then apply the WAL tail.
    ingestor = _bootstrap_ingestor(args, context)
    replayed = ingestor.replay(args.wal, batch_size=args.batch_size)
    summary = {"replay": replayed, "status": ingestor.status()}
    if args.snapshot_out:
        from repro.persistence import save_stream_snapshot

        save_stream_snapshot(ingestor, args.snapshot_out)
        summary["snapshot"] = args.snapshot_out
    code = 0
    if args.verify:
        mismatches = _verify_ingest(ingestor, args.sweep)
        summary["verify"] = {
            "ok": not mismatches,
            "mismatches": mismatches,
        }
        code = 0 if not mismatches else 1
    print(json.dumps(summary), file=out)
    return code


def _verify_ingest(ingestor, sweep: str | None) -> list[dict]:
    """Diff live-maintained indexes against fresh batch builds."""
    import numpy as np

    from repro.index.status_query import StatusQueryEngine

    if sweep:
        t_stars = [float(part) for part in sweep.split(",") if part.strip()]
    else:
        t_stars = list(_DEFAULT_SWEEP)
    table = ingestor.store.engine_table()
    mismatches: list[dict] = []
    for design, adapter in ingestor.adapters.items():
        batch = StatusQueryEngine(table, design=design).index
        for t in t_stars:
            for op in ("active_ids", "settled_ids", "created_ids", "pending_ids"):
                live = getattr(adapter, op)(t)
                reference = getattr(batch, op)(t)
                if not np.array_equal(live, reference):
                    mismatches.append(
                        {"design": design, "op": op, "t_star": t,
                         "live_rows": int(len(live)),
                         "batch_rows": int(len(reference))}
                    )
    return mismatches


def _cmd_fit(args, out: IO[str], context: ExecutionContext) -> int:
    dataset = load_dataset(args.data)
    splits = split_dataset(dataset, seed=args.split_seed)
    if args.optimize:
        optimizer = PipelineOptimizer(
            dataset,
            splits,
            base_config=PipelineConfig(window_pct=args.window),
            context=context,
        )
        report = optimizer.run()
        config = report.config
        print(json.dumps({"optimized": config.describe()}), file=out)
    else:
        config = paper_final_config(window_pct=args.window)
    estimator = DomdEstimator(config, context=context).fit(dataset, splits.train_ids)
    save_estimator(estimator, args.out)
    metrics = estimator.evaluate(splits.test_ids)["average"]
    print(json.dumps({"saved": args.out, "test_metrics": metrics}), file=out)
    return 0


def _cmd_query(args, out: IO[str], context: ExecutionContext) -> int:
    dataset = load_dataset(args.data)
    estimator = load_estimator(args.model, dataset, context=context)
    service = DomdService(estimator)
    request = {"type": "domd_query", "avail_ids": args.avail}
    if args.t_star is not None:
        request["t_star"] = args.t_star
    else:
        request["date"] = args.date
    response = service.handle(request)
    print(json.dumps(response), file=out)
    if response["ok"] and args.explain:
        for item in response["result"]:
            explain = service.handle(
                {
                    "type": "explain",
                    "avail_id": item["avail_id"],
                    "t_star": item["t_star"],
                }
            )
            print(json.dumps(explain), file=out)
    return 0 if response["ok"] else 1


def _cmd_evaluate(args, out: IO[str], context: ExecutionContext) -> int:
    dataset = load_dataset(args.data)
    estimator = load_estimator(args.model, dataset, context=context)
    splits = split_dataset(dataset, seed=args.split_seed)
    metrics = estimator.evaluate(splits.test_ids)
    print(json.dumps(metrics), file=out)
    return 0


def _cmd_serve(args, out: IO[str], stdin: IO[str], context: ExecutionContext) -> int:
    if getattr(args, "listen", None):
        return _cmd_serve_fleet(args, out, context)
    dataset = load_dataset(args.data)
    estimator = load_estimator(args.model, dataset, context=context)
    service = DomdService(estimator)
    workers = getattr(args, "workers", 1)
    deadline_ms = getattr(args, "deadline_ms", None)

    # Live ingestion: tail a WAL on a background thread; every applied
    # batch refreshes the feature rows of the avails it touched, under
    # the write side of a gate the query paths read-lock.
    gate = None
    follower = None
    if getattr(args, "follow", None):
        from repro.runtime.concurrency import ReadWriteGate
        from repro.stream import StreamIngestor, StreamingRccStore, WalFollower

        service.ingest = StreamIngestor(
            StreamingRccStore.from_dataset(dataset), context=context
        )
        gate = ReadWriteGate()
        follower = WalFollower(
            service.ingest,
            args.follow,
            gate=gate,
            apply=service.apply,
            poll_interval=max(getattr(args, "follow_poll_ms", 200.0), 1.0) / 1000.0,
        )
        follower.start()

    # Always-on observability plane: a background sampler snapshots
    # counters / windowed percentiles / pool + ingest gauges into a
    # bounded time-series store every tick, persists each tick as a
    # ``sample`` event (so ``repro top`` works live and offline), and
    # drives SLO burn-rate alerting; optionally a continuous stack
    # profiler runs alongside.
    sampler = None
    profiler = None
    sample_interval_ms = getattr(args, "sample_interval_ms", 1000.0)
    if sample_interval_ms and sample_interval_ms > 0:
        from repro.runtime.telemetry import (
            SloEngine,
            TelemetrySampler,
            TimeSeriesStore,
            default_objectives,
        )

        store = TimeSeriesStore()
        objectives = default_objectives(
            latency_threshold_s=getattr(args, "slo_latency_ms", 500.0) / 1000.0,
            include_ingest=follower is not None,
        )
        sampler = TelemetrySampler(
            context.metrics,
            store=store,
            interval=sample_interval_ms / 1000.0,
            slo=SloEngine(objectives, store),
        )
        if service.ingest is not None:
            sampler.add_source("ingest", service.ingest.gauges)
    if getattr(args, "profile_out", None):
        from repro.runtime.telemetry import StackProfiler

        profiler = StackProfiler(
            interval=max(getattr(args, "profile_interval_ms", 20.0), 1.0) / 1000.0
        )
        profiler.start()
    if sampler is not None:
        sampler.start()

    try:
        from repro.serve.handler import RequestHandler, serve_stdin

        if workers <= 1 and deadline_ms is None:
            # Unpooled: dispatch resolves inline, so serve_stdin prints
            # each response immediately — byte-identical to the
            # historical inline loop (pinned by the stdin regression
            # test).
            return serve_stdin(RequestHandler(service, gate=gate), stdin, out)

        # Pooled serving: requests fan out across worker threads, responses
        # are printed in submission order.  Submits block on a full queue —
        # on a stdin pipe the producer *is* the client, so backpressure
        # propagates upstream instead of dropping requests.
        pool = ServicePool(
            service,
            workers=workers,
            queue_depth=getattr(args, "queue_depth", 16),
            deadline_ms=deadline_ms,
            gate=gate,
        )
        if sampler is not None:
            sampler.add_source("pool", pool.sample_gauges)
        try:
            return serve_stdin(RequestHandler(service, pool=pool), stdin, out)
        finally:
            pool.close(drain=True)
    finally:
        if sampler is not None:
            sampler.stop()
        if profiler is not None:
            profiler.stop()
            Path(args.profile_out).write_text(
                "\n".join(profiler.collapsed()) + "\n", encoding="utf-8"
            )
        if follower is not None:
            follower.stop()


def _cmd_serve_fleet(args, out: IO[str], context: ExecutionContext) -> int:
    """``repro serve --listen HOST:PORT``: the sharded TCP fleet service."""
    import signal
    import threading

    from repro.serve.fleet import FleetService

    listen = args.listen
    host, sep, port_text = listen.rpartition(":")
    if not sep or not host:
        print(
            json.dumps(
                error_envelope(
                    "bad_request", f"--listen must be HOST:PORT, got {listen!r}"
                )
            ),
            file=out,
            flush=True,
        )
        return 2
    fleet = FleetService(
        model=args.model,
        data=args.data,
        shards=max(getattr(args, "shards", 2), 1),
        wal_dir=getattr(args, "wal_dir", None),
        deadline_ms=getattr(args, "deadline_ms", None),
        host=host,
        port=int(port_text),
        max_inflight=getattr(args, "max_inflight", 64),
        scatter_timeout=max(getattr(args, "scatter_timeout_ms", 5000.0), 1.0)
        / 1000.0,
        lag_alert_events=getattr(args, "lag_alert_events", 500),
        context=context,
    )

    sampler = None
    sample_interval_ms = getattr(args, "sample_interval_ms", 1000.0)
    stop = threading.Event()

    def _on_signal(_signum, _frame):
        stop.set()

    previous_term = signal.signal(signal.SIGTERM, _on_signal)
    try:
        bound_port = fleet.start()
        assert fleet.router is not None
        if sample_interval_ms and sample_interval_ms > 0:
            from repro.runtime.telemetry import (
                SloEngine,
                TelemetrySampler,
                TimeSeriesStore,
                default_objectives,
            )

            store = TimeSeriesStore()
            objectives = default_objectives(
                latency_threshold_s=getattr(args, "slo_latency_ms", 500.0)
                / 1000.0,
                include_ingest=False,
            )
            sampler = TelemetrySampler(
                context.metrics,
                store=store,
                interval=sample_interval_ms / 1000.0,
                slo=SloEngine(objectives, store),
            )
            # Every tick scatters shard_status across the fleet: the
            # shard.<id>.* series feed `repro top`'s shard panel and
            # the repro_shard_* exposition, and the same poll evaluates
            # the shard:<id>:lagging alert conditions.
            sampler.add_source("shard", fleet.router.sample_gauges)
            sampler.start()
        print(
            json.dumps(
                {
                    "ok": True,
                    "listening": {"host": host, "port": bound_port},
                    "shards": list(fleet.ring.shard_ids),
                    "ingest": bool(fleet.wal_dir),
                }
            ),
            file=out,
            flush=True,
        )
        try:
            while not stop.is_set():
                stop.wait(0.5)
        except KeyboardInterrupt:
            pass
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        if sampler is not None:
            sampler.stop()
        fleet.stop(drain=True)


def _cmd_explain(args, out: IO[str], context: ExecutionContext) -> int:
    dataset = load_dataset(args.data)
    rccs = dataset.rccs_with_logical_times().select(_ENGINE_COLUMNS)
    engine = StatusQueryEngine(rccs, design=args.design, context=context)
    swlin_level = args.swlin_level if args.swlin_level else None
    group_by_type = not args.no_group_type
    if args.t_star is not None:
        query = StatusQuery(
            t_star=args.t_star,
            group_by_type=group_by_type,
            swlin_level=swlin_level,
        )
        explained = explain_point(engine, query)
    else:
        if args.sweep:
            t_stars = [float(part) for part in args.sweep.split(",") if part.strip()]
        else:
            t_stars = list(_DEFAULT_SWEEP)
        explained = explain_sweep(
            engine,
            t_stars,
            group_by_type=group_by_type,
            swlin_level=swlin_level,
            incremental=not args.scratch,
        )
    plan = explained.plan
    if args.report_format == "json":
        print(json.dumps({"plan": plan.as_dict()}), file=out)
    else:
        print(plan.format(redact_timings=args.redact_timings), file=out)
    if args.flamegraph or args.chrome_trace:
        events = context.telemetry.events()
        if args.flamegraph:
            lines = collapsed_from_events(events)
            Path(args.flamegraph).write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )
        if args.chrome_trace:
            Path(args.chrome_trace).write_text(
                json.dumps(chrome_trace_from_events(events)) + "\n",
                encoding="utf-8",
            )
    return 0


def _cmd_planner(args, out: IO[str], context: ExecutionContext) -> int:
    # Lazy import: the bench package pulls in the benchmark harness,
    # which no other CLI path needs.
    from repro.bench.workloads import calibrate_planner

    dataset = load_dataset(args.data)
    _, measurements = calibrate_planner(dataset, factor=args.factor, context=context)
    text, flagged = doctor_report(measurements, threshold=args.threshold)
    if args.report_format == "json":
        payload = {
            "measurements": measurements,
            "flagged": flagged,
            "threshold": args.threshold,
        }
        print(json.dumps(payload), file=out)
    else:
        print(text, file=out)
    return 0


def _cmd_telemetry(args, out: IO[str]) -> int:
    events, dropped = load_events_lenient(args.events)
    if args.action == "trace":
        from repro.runtime.telemetry import causal_chain, render_causal_chain

        if not args.trace_id:
            raise ReproError(
                "telemetry trace requires a trace id "
                "(repro telemetry trace <trace_id> --events ...)"
            )
        chain = causal_chain(events, args.trace_id)
        fmt = args.report_format or "text"
        if fmt not in ("text", "json"):
            raise ReproError(
                f"telemetry trace supports --format text|json, got {fmt!r}"
            )
        if fmt == "json":
            print(json.dumps(chain), file=out)
        else:
            print(render_causal_chain(chain), file=out)
        if dropped:
            print(
                f"warning: skipped {dropped} corrupt event-log line(s)",
                file=sys.stderr,
            )
        return 0 if chain["found"] else 1
    if args.action == "profile":
        fmt = args.report_format or "collapsed"
        if fmt not in ("collapsed", "chrome"):
            raise ReproError(
                f"telemetry profile supports --format collapsed|chrome, got {fmt!r}"
            )
        if fmt == "chrome":
            rendered = json.dumps(chrome_trace_from_events(events))
        else:
            rendered = "\n".join(collapsed_from_events(events))
        if args.out:
            Path(args.out).write_text(rendered + "\n", encoding="utf-8")
            print(json.dumps({"written": args.out, "format": fmt}), file=out)
        else:
            print(rendered, file=out)
        if dropped:
            print(
                f"warning: skipped {dropped} corrupt event-log line(s)",
                file=sys.stderr,
            )
        return 0
    fmt = args.report_format or "text"
    if fmt not in ("text", "json"):
        raise ReproError(
            f"telemetry report supports --format text|json, got {fmt!r}"
        )
    if fmt == "json":
        from repro.runtime.telemetry.exporters import (
            histograms_from_events,
            reconstruct_traces,
        )
        from repro.runtime.telemetry.events import counters_from_events

        payload = {
            "traces": reconstruct_traces(events),
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(histograms_from_events(events).items())
            },
            "counters": counters_from_events(events),
            "dropped_lines": dropped,
        }
        print(json.dumps(payload), file=out)
    else:
        print(render_report(events, dropped_lines=dropped), file=out)
    return 0


def _cmd_top(args, out: IO[str]) -> int:
    from repro.runtime.telemetry import render_top, top_snapshot

    if args.report_format == "json" and not args.once:
        raise ReproError("top --format json requires --once")

    def frame() -> dict:
        # Re-read the whole log each refresh: live mode then tails the
        # growing file a serve process is appending, and a finished
        # log renders the identical final frame — one code path for
        # both, which is exactly the live/offline-parity guarantee.
        events, _dropped = load_events_lenient(args.events)
        return top_snapshot(events, window=args.window)

    if args.once:
        snapshot = frame()
        if args.report_format == "json":
            print(json.dumps(snapshot), file=out)
        else:
            print(render_top(snapshot), file=out, end="")
        return 0

    import time as time_module

    try:
        while True:
            # ANSI clear + home, then the frame — a plain-escape "top".
            print(
                "\x1b[2J\x1b[H" + render_top(frame()),
                file=out,
                end="",
                flush=True,
            )
            time_module.sleep(max(args.interval, 0.1))
    except KeyboardInterrupt:
        return 0


def main(
    argv: list[str] | None = None,
    out: IO[str] | None = None,
    stdin: IO[str] | None = None,
    err: IO[str] | None = None,
) -> int:
    """CLI entrypoint; returns an exit code."""
    out = out or sys.stdout
    stdin = stdin or sys.stdin
    err = err or sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    context = ExecutionContext()
    if args.telemetry_events:
        context.telemetry.add_sink(JsonlEventLog(args.telemetry_events))
    code: int
    try:
        if args.command == "generate":
            code = _cmd_generate(args, out)
        elif args.command == "fit":
            code = _cmd_fit(args, out, context)
        elif args.command == "query":
            code = _cmd_query(args, out, context)
        elif args.command == "evaluate":
            code = _cmd_evaluate(args, out, context)
        elif args.command == "ingest":
            code = _cmd_ingest(args, out, context)
        elif args.command == "serve":
            code = _cmd_serve(args, out, stdin, context)
        elif args.command == "explain":
            code = _cmd_explain(args, out, context)
        elif args.command == "planner":
            code = _cmd_planner(args, out, context)
        elif args.command == "telemetry":
            code = _cmd_telemetry(args, out)
        elif args.command == "top":
            code = _cmd_top(args, out)
        else:
            raise AssertionError("unreachable")
    except ReproError as exc:
        print(json.dumps({"ok": False, "error": {"code": "domain_error", "message": str(exc)}}), file=out)
        code = 1
    except FileNotFoundError as exc:
        print(json.dumps({"ok": False, "error": {"code": "not_found", "message": str(exc)}}), file=out)
        code = 1
    except BrokenPipeError:
        # Downstream consumer closed early (`repro telemetry report | head`);
        # silence the interpreter-exit flush of the dead descriptor too.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        code = 0
    finally:
        context.telemetry.close()
    if args.trace or args.trace_file:
        report = context.report(meta={"command": args.command})
        payload = json.dumps({"trace": report.as_dict()})
        if args.trace_file:
            Path(args.trace_file).write_text(payload + "\n", encoding="utf-8")
        if args.trace:
            # stderr, so command stdout stays clean for jq / redirection
            print(payload, file=err)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
