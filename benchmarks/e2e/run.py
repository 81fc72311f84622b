"""End-to-end, per-layer benchmark of the sharded TCP fleet.

One command per run::

    python3 benchmarks/e2e/run.py --workload point_reads --seed 1 \
        --seconds 30 --trace 0

It generates the paper-scale dataset for ``--seed``, fits the ``repro
fit`` default model, launches the production front door
(``python -m repro serve --listen 127.0.0.1:0 --shards 2``) as a
subprocess, drives seeded load at it from this process (at most two
threads, one connection each), checks the answers against an
in-process :class:`~repro.core.service.DomdService`, and prints every
metric with its unit and direction.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice on one set-up, half of ``--seconds`` each: first against
the plain fleet, then against ``traced_serve.py`` (the same fleet with
timing probes in every process); it merges the spans of all processes
per request and reports the per-layer metrics.  ``--smoke`` swaps in a
small dataset for a quick self-test.

See ``README.md`` for the workloads, metrics and how to read a trace.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space beside this script (ignored by its ``.gitignore``):
#: data, models, WALs, span dumps and the Chrome traces
#: (``trace-<workload>.json``).
WORK = HERE / ".work"

WORKLOADS = ("point_reads", "fleet_dashboard", "live_ingest")

#: name -> (unit, better); what every ``--trace 0`` run reports.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "side_p50_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
}

#: Probe span name -> the per-layer metric reporting its attributed time.
LAYER_TIMES = {
    "ml.gbm.predict": "ml.gbm.predict_ms",
    "ml.gbm.contributions": "ml.gbm.contributions_ms",
    "core.timeline_models": "core.timeline_models.self_ms",
    "core.fusion.fuse": "core.fusion.fuse_ms",
    "features.extract": "features.extract_ms",
    "core.estimator.bind": "core.estimator.bind_ms",
    "data.fingerprint": "data.fingerprint_ms",
    "stream.ingest.dataset": "stream.ingest.dataset_ms",
    "core.service.rebind": "core.service.rebind_ms",
    "stream.wal.append": "stream.wal.append_ms",
    "stream.ingest.apply": "stream.ingest.apply_ms",
    "runtime.concurrency.write_wait": "runtime.concurrency.write_wait_ms",
    "core.server.wait": "core.server.wait_ms",
    "serve.front_wire": "serve.front_wire_ms",
    "serve.frontend": "serve.frontend.self_ms",
    "serve.router": "serve.router.self_ms",
    "serve.client": "serve.client.hop_ms",
    "serve.shard": "serve.shard.self_ms",
    "serve.framing.encode": "serve.framing.encode_ms",
    "serve.framing.decode": "serve.framing.decode_ms",
    "core.service": "core.service.self_ms",
    "core.estimator": "core.estimator.self_ms",
    "runtime.telemetry.emit": "runtime.telemetry.emit_ms",
}

#: name -> (unit, better); what every ``--trace 1`` run reports.
LAYER_METRICS = {
    **{name: ("ms", "lower") for name in LAYER_TIMES.values()},
    "ml.gbm.predict_calls": ("1/req", "lower"),
    "ml.gbm.rows_per_call": ("rows", "higher"),
    "core.timeline_models.predict_calls": ("1/req", "lower"),
    "features.extract_calls": ("1/req", "lower"),
    "core.estimator.binds": ("1/req", "lower"),
    "runtime.cache.hit_ratio": ("ratio", "higher"),
    "stream.wal.bytes_per_event": ("B", "lower"),
    "core.server.wait_p99_ms": ("ms", "lower"),
    "serve.frontend.overloaded": ("count", "lower"),
    "serve.router.fanout": ("1/req", "lower"),
    "serve.framing.response_bytes": ("B", "lower"),
    "runtime.telemetry.emit_calls": ("1/req", "lower"),
    "data.generate_s": ("s", "lower"),
    "core.estimator.fit_s": ("s", "lower"),
    "serve.fleet.start_s": ("s", "lower"),
    "warmup_s": ("s", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "trace.client_rtt_ms": ("ms", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "trace.spans": ("1/req", "lower"),
}

#: Open-loop arrival rate of ``point_reads``, its share of the run, and
#: the number of open/closed rounds the run alternates through.
POINT_RATE = 30.0
OPEN_SHARE = 0.73
POINT_ROUNDS = 5
#: ``live_ingest``: share of the event stream replayed live, batch size.
LIVE_SHARE = 0.30
LIVE_BATCH = 16
#: Correctness samples checked against the in-process service.
ORACLE_POINT = 200
ORACLE_FLEET = 20
ORACLE_LIVE = 24
MIN_COVERAGE = 0.9

_now = time.monotonic_ns


# ----------------------------------------------------------------------
# the fleet subprocess
# ----------------------------------------------------------------------
class Fleet:
    """``repro serve --listen`` (or its traced twin) as a subprocess in
    its own process group, so stopping it reaps the shards too."""

    def __init__(
        self,
        model: Path,
        data: Path,
        log: Path,
        wal_dir: Path | None = None,
        spans_dir: Path | None = None,
    ):
        entry = (
            [str(HERE / "traced_serve.py")]
            if spans_dir is not None
            else ["-m", "repro"]
        )
        argv = [
            sys.executable,
            *entry,
            "serve",
            "--model", str(model),
            "--data", str(data),
            "--listen", "127.0.0.1:0",
            "--shards", "2",
        ]
        if wal_dir is not None:
            argv += ["--wal-dir", str(wal_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        if spans_dir is not None:
            from e2e.probes import SPANS_DIR_ENV

            env[SPANS_DIR_ENV] = str(spans_dir)
        self.log = log
        self.spans_dir = spans_dir
        with open(log, "w", encoding="utf-8") as err:
            self.proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
                start_new_session=True,
            )
        try:
            self.port = self._wait_listening(timeout=120.0)
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError(f"fleet not listening after {timeout:.0f}s")
            line = self.proc.stdout.readline()
            if not line:
                tail = self.log.read_text(encoding="utf-8")[-2000:]
                raise RuntimeError(f"fleet exited before listening:\n{tail}")
            try:
                message = json.loads(line)
            except ValueError:
                continue
            if isinstance(message, dict) and "listening" in message:
                return int(message["listening"]["port"])

    def stop(self, graceful: bool = False) -> None:
        """Stop the whole process group and reap every process in it.

        ``graceful`` sends SIGTERM first and waits for the drain, which
        a traced fleet needs: its shards dump their spans on the way
        out.  Whatever is left then gets SIGKILL.
        """
        if graceful and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            self.proc.wait()
            _reap_orphans()
            time.sleep(0.005)
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _become_subreaper() -> None:
    """Adopt orphaned descendants (shards whose front end was killed),
    so :func:`_reap_orphans` can wait for them; a no-op off Linux."""
    import ctypes

    try:
        # prctl(PR_SET_CHILD_SUBREAPER, 1)
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (AttributeError, OSError):
        pass


def _reap_orphans() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


# ----------------------------------------------------------------------
# set-up: data, model, fleet, warm-up
# ----------------------------------------------------------------------
@dataclass
class Setup:
    """Everything a workload needs from set-up, plus its timings."""

    root: Path
    data_dir: Path
    model_path: Path
    served: Any  # the dataset the fleet serves
    full: Any  # the generated dataset (the model's training source)
    dates: list[str]  # days with at least one executing avail
    header: dict[str, Any] | None = None
    events: list[Any] = field(default_factory=list)
    cut: int = 0
    timings: dict[str, float] = field(default_factory=dict)


def dataset_config(seed: int, smoke: bool) -> Any:
    from repro.data import SyntheticNmdConfig

    if smoke:
        return SyntheticNmdConfig(
            n_ships=10,
            n_closed_avails=28,
            n_ongoing_avails=2,
            target_n_rccs=2_500,
            seed=seed,
        )
    return SyntheticNmdConfig(seed=seed)


def executing_days(dataset: Any) -> list[str]:
    """ISO dates of every day with at least one avail executing
    (progress in [0, 100], computed exactly as ``fleet_status`` does)."""
    import numpy as np

    from repro.data.dates import day_to_iso

    start = np.asarray(dataset.avails["act_start"], dtype=np.float64)
    planned = np.asarray(dataset.avails["planned_duration"], dtype=np.float64)
    days = np.arange(int(start.min()), int((start + planned).max()) + 1)
    progress = (days[:, None] - start[None, :]) / planned[None, :] * 100.0
    counts = ((progress >= 0.0) & (progress <= 100.0)).sum(axis=1)
    return [day_to_iso(int(d)) for d, n in zip(days, counts) if n > 0]


def prepare_data(args: argparse.Namespace, root: Path) -> Setup:
    """Generate, (for live_ingest) cut the stream, fit, save."""
    from repro.core import DomdEstimator
    from repro.core.config import paper_final_config
    from repro.data import generate_dataset, save_dataset, split_dataset
    from repro.persistence import save_estimator
    from repro.stream import dataset_from_stream, dataset_to_events

    t0 = _now()
    full = generate_dataset(dataset_config(args.seed, args.smoke))
    header, events, cut = None, [], 0
    served = full
    if args.workload == "live_ingest":
        header, events = dataset_to_events(full)
        cut = len(events) - round(LIVE_SHARE * len(events))
        served = dataset_from_stream(header, events[:cut])
    data_dir = root / "data"
    save_dataset(served, data_dir)
    t1 = _now()
    estimator = DomdEstimator(paper_final_config()).fit(
        full, split_dataset(full).train_ids
    )
    model_path = root / "model.json"
    save_estimator(estimator, model_path)
    t2 = _now()
    return Setup(
        root=root,
        data_dir=data_dir,
        model_path=model_path,
        served=served,
        full=full,
        dates=executing_days(served),
        header=header,
        events=events,
        cut=cut,
        timings={
            "data.generate_s": (t1 - t0) / 1e9,
            "core.estimator.fit_s": (t2 - t1) / 1e9,
        },
    )


def launch(
    setup: Setup, seed: int, name: str, traced: bool = False
) -> tuple[Fleet, dict[str, float]]:
    """Start a fleet on ``setup``'s artefacts and warm it up with one
    ``fleet_status``; returns the fleet and its start/warm-up seconds."""
    from e2e.loadgen import Connection, TraceIds

    wal_dir = setup.root / f"wal-{name}" if setup.header is not None else None
    spans_dir = setup.root / f"spans-{name}" if traced else None
    if spans_dir is not None:
        spans_dir.mkdir()
    t0 = _now()
    fleet = Fleet(
        setup.model_path,
        setup.data_dir,
        setup.root / f"fleet-{name}.log",
        wal_dir=wal_dir,
        spans_dir=spans_dir,
    )
    t1 = _now()
    try:
        conn = Connection(fleet.port, TraceIds(seed, phase=99))
        date = setup.dates[random.Random(f"warmup/{seed}").randrange(len(setup.dates))]
        warm = conn.call({"type": "fleet_status", "date": date})
        conn.close()
        if not warm.ok:
            raise RuntimeError(f"warm-up fleet_status failed: {warm.response}")
    except BaseException:
        fleet.stop()
        raise
    t2 = _now()
    return fleet, {"serve.fleet.start_s": (t1 - t0) / 1e9, "warmup_s": (t2 - t1) / 1e9}


# ----------------------------------------------------------------------
# workloads: each returns a Phase
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """Samples and results of one timed workload run."""

    samples: list[Any]  # every timed request (loadgen.Sample)
    metrics: dict[str, float]  # the E2E_METRICS except setup_s
    detail: dict[str, float]  # request-class breakdown, printed only
    tail_n: int  # samples of the headline request (p50_ms, its p90)
    checks: list[tuple[Any, Any]] = field(default_factory=list)
    failed: int = 0  # ops failed outside the samples' envelopes
    extra_ops: int = 0


def _ms(samples: list[Any], level: float) -> float:
    from e2e.loadgen import percentile

    return percentile([s.latency_ms for s in samples], level)


def run_point_reads(
    setup: Setup, fleet: Fleet, seed: int, seconds: float, phase: int
) -> Phase:
    """Open loop (Poisson, 30 req/s, timed from due time) and a closed
    loop on two connections measuring capacity, in alternating rounds:
    the host's speed drifts within a run, and alternating lets both
    loops sample all of it rather than one stretch each."""
    from e2e.loadgen import (
        Connection,
        SharedStream,
        TraceIds,
        closed_loop,
        open_loop,
        percentile,
        point_read_requests,
        poisson_schedule,
    )

    ids = TraceIds(seed, phase)
    conns = [Connection(fleet.port, ids) for _ in range(2)]
    avails = [int(a) for a in setup.served.avails["avail_id"]]
    stream = SharedStream(point_read_requests(seed, avails))
    open_s = seconds * OPEN_SHARE
    schedule = poisson_schedule(seed, POINT_RATE, open_s)
    round_ns = int(open_s / POINT_ROUNDS * 1e9)
    opened: list[Any] = []
    closed: list[Any] = []
    elapsed = 0.0
    try:
        for r in range(POINT_ROUNDS):
            offsets = [
                t - r * round_ns
                for t in schedule
                if min(t // round_ns, POINT_ROUNDS - 1) == r
            ]
            opened += open_loop(conns, offsets, stream)
            start = _now()
            burst = closed_loop(conns, stream.next, (seconds - open_s) / POINT_ROUNDS)
            elapsed += (max((s.done for s in burst), default=start) - start) / 1e9
            closed += burst
    finally:
        for conn in conns:
            conn.close()
    queries = [s for s in opened if s.kind == "domd_query"]
    explains = [s for s in opened if s.kind == "explain"]
    capacity = sum(s.ok for s in closed) / max(elapsed, 1e-9)
    return Phase(
        samples=opened + closed,
        tail_n=len(queries),
        metrics={
            "p50_ms": _ms(queries, 50),
            "side_p50_ms": _ms(closed, 50),
            "ops_per_s": capacity,
        },
        detail={
            "query_p50_ms": _ms(queries, 50),
            "query_p90_ms": _ms(queries, 90),
            "query_p99_ms": _ms(queries, 99),
            "explain_p50_ms": _ms(explains, 50),
            "explain_p90_ms": _ms(explains, 90),
            "saturated_p50_ms": _ms(closed, 50),
            "saturated_p90_ms": _ms(closed, 90),
            "point_capacity_rps": capacity,
            "loadgen.late_p99_ms": percentile([s.late_ms for s in opened], 99),
            "open_queries": float(len(queries)),
            "open_explains": float(len(explains)),
            "closed_requests": float(len(closed)),
        },
    )


def run_fleet_dashboard(
    setup: Setup, fleet: Fleet, seed: int, seconds: float, phase: int
) -> Phase:
    """Closed loop on one connection: ``fleet_status`` refreshes on
    seeded executing days.  A refresh costs about the same per executing
    avail it returns, so the side metric and the throughput are taken
    per avail: they do not move with how many avails the drawn days
    happen to hold."""
    from e2e.loadgen import (
        Connection,
        TraceIds,
        closed_loop,
        dashboard_requests,
        percentile,
    )

    conn = Connection(fleet.port, TraceIds(seed, phase))
    requests = dashboard_requests(seed, setup.dates)
    start = _now()
    try:
        refreshes = closed_loop([conn], lambda: next(requests), seconds)
    finally:
        conn.close()
    ok = [s for s in refreshes if s.ok and s.response["result"]]
    rows = [len(s.response["result"]) for s in ok]
    per_avail = [s.latency_ms / n for s, n in zip(ok, rows)]
    elapsed = (max((s.done for s in refreshes), default=start) - start) / 1e9
    avails_per_s = sum(rows) / max(elapsed, 1e-9)
    return Phase(
        samples=refreshes,
        tail_n=len(refreshes),
        metrics={
            "p50_ms": _ms(refreshes, 50),
            "side_p50_ms": percentile(per_avail, 50),
            "ops_per_s": avails_per_s,
        },
        detail={
            "fleet_status_p50_ms": _ms(refreshes, 50),
            "fleet_status_p90_ms": _ms(refreshes, 90),
            "fleet_status_per_avail_p50_ms": percentile(per_avail, 50),
            "fleet_status_per_s": len(ok) / max(elapsed, 1e-9),
            "fleet_avails_per_s": avails_per_s,
            "fleet_status_requests": float(len(refreshes)),
            "avails_per_refresh": sum(rows) / max(len(rows), 1),
        },
    )


def run_live_ingest(
    setup: Setup, fleet: Fleet, seed: int, seconds: float, phase: int
) -> Phase:
    """A writer replays the stream's last 30% in 16-event ``ingest``
    batches, following each ack with a ``domd_query`` of the batch's
    last avail at t*=50 that must answer at or past the ack's seq; a
    reader sends point reads beside it.  Ends with the live==batch
    check of 24 avails touched by the acked events."""
    import threading

    from e2e.loadgen import (
        Connection,
        SharedStream,
        TraceIds,
        percentile,
        point_read_requests,
        run_parallel,
    )
    from repro.stream import event_to_dict

    ids = TraceIds(seed, phase)
    writer, reader = Connection(fleet.port, ids), Connection(fleet.port, ids)
    avail_of_rcc = {
        int(r): int(a)
        for r, a in zip(setup.full.rccs["rcc_id"], setup.full.rccs["avail_id"])
    }
    suffix = [event_to_dict(e) for e in setup.events[setup.cut :]]
    batches = [suffix[i : i + LIVE_BATCH] for i in range(0, len(suffix), LIVE_BATCH)]
    acks, follows, visible_ms = [], [], []
    failed = 0
    acked = 0
    touched: set[int] = set()
    writing = threading.Event()
    writing.set()
    avails = [int(a) for a in setup.served.avails["avail_id"]]
    stream = SharedStream(point_read_requests(seed, avails))
    reads: list[Any] = []

    def avail_of(event: dict[str, Any]) -> int:
        if "avail_id" in event:
            return int(event["avail_id"])
        return avail_of_rcc[int(event["rcc_id"])]

    def write() -> None:
        nonlocal failed, acked
        end = _now() + int(seconds * 1e9)
        try:
            for batch in batches:
                if _now() >= end:
                    break
                ack = writer.call({"type": "ingest", "events": batch})
                acks.append(ack)
                if not ack.ok or ack.response["result"]["acked"] != len(batch):
                    break  # state past this point is unknown: stop writing
                acked += len(batch)
                touched.update(avail_of(event) for event in batch)
                follow = writer.call(
                    {
                        "type": "domd_query",
                        "avail_ids": [avail_of(batch[-1])],
                        "t_star": 50.0,
                    }
                )
                follows.append(follow)
                if follow.ok:
                    shard = str(follow.response.get("shard_id"))
                    applied = ack.response["result"]["per_shard"][shard]["last_seq"]
                    if follow.response.get("shard_watermark", -1) < applied:
                        failed += 1
                visible_ms.append((follow.done - ack.sent) / 1e6)
        finally:
            writing.clear()

    def read() -> None:
        while writing.is_set():
            reads.append(reader.call(stream.next()))

    start = _now()
    try:
        run_parallel([write, read])
        write_end = max((s.done for s in follows + acks), default=start)
        checks = _live_checks(setup, writer, seed, acked, touched)
    finally:
        writer.close()
        reader.close()
    live_reads = [s for s in reads if s.sent < write_end]
    rate = acked / max((write_end - start) / 1e9, 1e-9)
    metrics = {
        "p50_ms": percentile(visible_ms, 50),
        "side_p50_ms": _ms(live_reads, 50),
        "ops_per_s": rate,
    }
    return Phase(
        samples=acks + follows + reads,
        tail_n=len(visible_ms),
        metrics=metrics,
        detail={
            "ingest_ack_p50_ms": _ms(acks, 50),
            "ingest_ack_p90_ms": _ms(acks, 90),
            "ingest_to_queryable_p50_ms": metrics["p50_ms"],
            "ingest_to_queryable_p90_ms": percentile(visible_ms, 90),
            "live_read_p50_ms": metrics["side_p50_ms"],
            "live_read_p90_ms": _ms(live_reads, 90),
            "ingest_events_per_s": rate,
            "acked_batches": float(len(follows)),
            "live_reads": float(len(live_reads)),
        },
        checks=checks,
        failed=failed,
        extra_ops=len(checks),
    )


def _live_checks(
    setup: Setup, conn: Any, seed: int, acked: int, touched: set[int]
) -> list[tuple[Any, Any]]:
    """Fleet answers for 24 avails touched by acked events, paired with
    the batch reference: the stream prefix plus the acked events."""
    rng = random.Random(f"live-oracle/{seed}")
    pool = sorted(touched) or [int(a) for a in setup.served.avails["avail_id"]]
    picks = rng.sample(pool, min(ORACLE_LIVE, len(pool)))
    checks = []
    for avail in picks:
        request = {
            "type": "domd_query",
            "avail_ids": [avail],
            "t_star": rng.randrange(1001) / 10.0,
        }
        checks.append((conn.call(request), ("live", setup.cut + acked)))
    return checks


RUNNERS = {
    "point_reads": run_point_reads,
    "fleet_dashboard": run_fleet_dashboard,
    "live_ingest": run_live_ingest,
}


# ----------------------------------------------------------------------
# correctness: fleet answers == in-process DomdService answers
# ----------------------------------------------------------------------
def oracle_mismatches(
    setup: Setup, phases: list[Phase], seed: int, workload: str
) -> int:
    """Re-answer a seeded sample of the fleet's ok responses in process
    and count the ``result`` payloads that are not byte-equal."""
    from repro.core.service import DomdService
    from repro.data import load_dataset
    from repro.persistence import load_estimator
    from repro.stream import dataset_from_stream

    rng = random.Random(f"oracle/{seed}")
    pairs: list[tuple[Any, Any]] = []
    if workload != "live_ingest":
        # live_ingest reads race the writer; its checks are the
        # live==batch pairs the phase collected after writing stopped.
        samples = [s for phase in phases for s in phase.samples if s.ok]
        status = [s for s in samples if s.kind == "fleet_status"]
        point = [s for s in samples if s.kind != "fleet_status"]
        for group, want in ((status, ORACLE_FLEET), (point, ORACLE_POINT)):
            pairs += [(s, None) for s in rng.sample(group, min(want, len(group)))]
    for phase in phases:
        pairs += phase.checks

    services: dict[Any, Any] = {}

    def service_for(key: Any) -> Any:
        if key not in services:
            if key is None:
                dataset = load_dataset(setup.data_dir)
            else:
                dataset = dataset_from_stream(setup.header, setup.events[: key[1]])
            services[key] = DomdService(load_estimator(setup.model_path, dataset))
        return services[key]

    mismatches = 0
    for sample, key in pairs:
        if not sample.ok:
            continue  # already counted as a failed op
        local = service_for(key).handle(dict(sample.request))
        if not local.get("ok") or json.dumps(local["result"]) != json.dumps(
            sample.response["result"]
        ):
            mismatches += 1
    return mismatches


# ----------------------------------------------------------------------
# traced run: merge spans, per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(
    phase: Phase, spans_dir: Path, untraced_p50: float, out_path: Path
) -> tuple[dict[str, float], list[str]]:
    from e2e import trace
    from e2e.loadgen import percentile

    pid = os.getpid()
    roots = [
        trace.Span(
            key=(pid, index),
            name=trace.CLIENT,
            trace=sample.trace_id,
            start=sample.sent,
            end=sample.done,
            pid=pid,
            tid=0,
        )
        for index, sample in enumerate(phase.samples, start=1)
    ]
    spans, roles = trace.load_dumps(str(spans_dir))
    roles[pid] = "bench"
    report = trace.TraceReport.merge(roots, spans, roles)
    trace.write_chrome_trace(report, str(out_path))

    n = max(len(roots), 1)
    rtt_ms = sum(root.wall for root in roots) / n / 1e6
    m: dict[str, float] = {
        metric: report.layer_ms(name) for name, metric in LAYER_TIMES.items()
    }
    predicts = len(report.by_name.get("ml.gbm.predict", ()))
    lookups = report.by_name.get("runtime.cache.lookup", ())
    wal_events = report.attr_sum("stream.wal.append", "events")
    m.update(
        {
            "ml.gbm.predict_calls": report.per_request("ml.gbm.predict"),
            "ml.gbm.rows_per_call": (
                report.attr_sum("ml.gbm.predict", "rows") / predicts
                if predicts
                else 0.0
            ),
            "core.timeline_models.predict_calls": report.per_request(
                "core.timeline_models"
            ),
            "features.extract_calls": report.per_request("features.extract"),
            "core.estimator.binds": report.per_request("core.estimator.bind"),
            "runtime.cache.hit_ratio": (
                sum(bool(s.attrs.get("hit")) for s in lookups) / len(lookups)
                if lookups
                else 1.0
            ),
            "stream.wal.bytes_per_event": (
                report.attr_sum("stream.wal.append", "bytes") / wal_events
                if wal_events
                else 0.0
            ),
            "core.server.wait_p99_ms": percentile(
                report.walls_ms("core.server.wait"), 99
            ),
            "serve.frontend.overloaded": float(
                sum(
                    1
                    for s in phase.samples
                    if s.response is not None
                    and s.response.get("error", {}).get("code") == "overloaded"
                )
            ),
            "serve.router.fanout": report.per_request("serve.client"),
            "serve.framing.response_bytes": report.attr_sum(
                "serve.framing.encode", "reply_bytes"
            )
            / n,
            "runtime.telemetry.emit_calls": report.per_request(
                "runtime.telemetry.emit"
            ),
            "trace.client_rtt_ms": rtt_ms,
            "trace.coverage": report.coverage(),
            "trace.overhead": (
                phase.metrics["p50_ms"] / untraced_p50 - 1.0 if untraced_p50 else 0.0
            ),
            "trace.spans": sum(1 for _ in report.spans()) / n,
        }
    )
    problems = []
    attributed = sum(report.owned.values()) / n / 1e6
    if abs(attributed - rtt_ms) > 1e-6 * max(rtt_ms, 1.0):
        problems.append(f"layers sum to {attributed} ms, client RTT is {rtt_ms} ms")
    unnamed = sorted(set(report.owned) - set(LAYER_TIMES))
    if unnamed:
        problems.append(f"spans with no layer metric: {unnamed}")
    if report.bad_spans:
        problems.append(f"{report.bad_spans} spans with self + children != wall")
    if m["trace.coverage"] < MIN_COVERAGE:
        problems.append(
            f"trace.coverage {m['trace.coverage']:.3f} < {MIN_COVERAGE}:"
            " named layers explain too little of the client latency"
        )
    return m, problems


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small dataset: a quick self-test of the harness",
    )
    return parser.parse_args(argv)


def _interrupt(signum: int, _frame: Any) -> None:
    raise SystemExit(f"interrupted by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {SRC}", file=sys.stderr)
        return 2
    # Import this directory's modules as the ``e2e`` package only: as a
    # top-level module, trace.py would shadow the standard library's.
    sys.path[:] = [str(HERE.parent), str(SRC)] + [
        p for p in sys.path if Path(p or ".").resolve() != HERE
    ]
    import repro.cli  # noqa: F401 — import cost stays out of set-up time

    _become_subreaper()
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGALRM, _interrupt)
    # A run of the default length must end within 180 s even when stuck.
    signal.alarm(int(max(170, 60 + 3 * args.seconds)))

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    fleets: list[Fleet] = []
    try:
        code, result, lines = execute(args, run_dir, fleets)
    finally:
        for fleet in fleets:
            fleet.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        signal.alarm(0)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return code


def execute(
    args: argparse.Namespace, run_dir: Path, fleets: list[Fleet]
) -> tuple[int, dict[str, Any], list[str]]:
    from e2e import loadgen

    runner = RUNNERS[args.workload]
    start = _now()
    setup = prepare_data(args, run_dir)
    fleet, timings = launch(setup, args.seed, "plain")
    fleets.append(fleet)
    setup_s = (_now() - start) / 1e9
    setup_parts = {**setup.timings, **timings}

    lines: list[str] = []
    problems: list[str] = []
    seconds = args.seconds / 2 if args.trace else args.seconds
    phases = [runner(setup, fleet, args.seed, seconds, phase=0)]
    fleet.stop()
    fleets.remove(fleet)
    if args.trace:
        traced, _ = launch(setup, args.seed, "traced", traced=True)
        fleets.append(traced)
        phases.append(runner(setup, traced, args.seed, seconds, phase=1))
        traced.stop(graceful=True)
        fleets.remove(traced)
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{args.workload}.json"
        metrics, problems = layer_metrics(
            phases[1], traced.spans_dir, phases[0].metrics["p50_ms"], trace_path
        )
        metrics.update(setup_parts)
        late = phases[1].detail.get("loadgen.late_p99_ms", 0.0)
        metrics["loadgen.late_p99_ms"] = late
        table = LAYER_METRICS
        lines.append(f"# chrome trace: {trace_path}")
    else:
        metrics = {"setup_s": setup_s, **phases[0].metrics}
        table = E2E_METRICS

    attempted = sum(len(p.samples) + p.extra_ops for p in phases)
    failed = sum(sum(not s.ok for s in p.samples) + p.failed for p in phases)
    failed += sum(sum(not s.ok for s, _ in p.checks) for p in phases)
    failed += oracle_mismatches(setup, phases, args.seed, args.workload)
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    for phase in phases:
        if (loadgen.supported_percentile(phase.tail_n) or 0) < 90:
            print(
                f"run.py: the headline p90 rests on {phase.tail_n} samples,"
                f" fewer than {loadgen.TAIL_SUPPORT} beyond it; lengthen --seconds",
                file=sys.stderr,
            )

    for name, (unit, better) in table.items():
        lines.append(
            f"{name:<40} {metrics[name]:>14.4f} {unit:<6} ({better} is better)"
        )
    for phase in phases:
        for name, value in phase.detail.items():
            lines.append(f"# detail {name:<33} {value:>14.4f}")
    lines.append(f"# ops_total {attempted}  ops_failed {failed}")
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _better) in table.items()
        },
    }
    return (0 if not problems else 1), result, lines


if __name__ == "__main__":
    raise SystemExit(main())
