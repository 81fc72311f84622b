"""Timing probes for a traced bench run, installed inside the fleet.

:func:`install` wraps public callables of every serving layer with a
probe that records one span per call: ``(name, trace id, start, end,
thread, thread-local parent)``.  Spans use ``time.monotonic_ns`` — one
clock for every process on a Linux host — stay in memory, and are
dumped to ``<spans dir>/spans-<pid>.json`` when the process ends.  The
bench merges the dumps of every process by trace id (:mod:`e2e.trace`).

A span's trace id is the one in the request's ``traceparent`` where the
probe can see the request; deeper probes inherit it from the innermost
open span of their thread.  Spans with no trace id (the sampler's
``shard_status`` polls, background work) are not recorded.

The probes are installed by ``traced_serve.py`` in the front-end process
and, through :func:`traced_shard_entry`, in each shard process before
the real :func:`repro.serve.shard.shard_entry` runs.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import socket
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable

#: Environment variable naming the directory the span dumps go to.
SPANS_DIR_ENV = "E2E_SPANS_DIR"

_now = time.monotonic_ns


def trace_of(request: Any) -> str | None:
    """The trace id of a request's W3C ``traceparent``, if it has one."""
    if isinstance(request, dict):
        header = request.get("traceparent")
        if isinstance(header, str):
            parts = header.split("-")
            if len(parts) == 4 and len(parts[1]) == 32:
                return parts[1]
    return None


class Recorder:
    """Span store of one process plus the per-thread open-span stacks."""

    def __init__(self, role: str):
        self.role = role
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: ``id(response) -> trace id`` handed from the router's thread
        #: to the front-end's event-loop thread, which encodes the reply.
        self.reply_traces: dict[int, str] = {}
        #: ``id(request) -> (submit ns, trace id)`` for the queue wait.
        self.submitted: dict[int, tuple[int, str | None]] = {}

    def stack(self) -> list[list]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
        return local.stack

    def current_trace(self) -> str | None:
        stack = self.stack()
        return stack[-1][2] if stack else None

    def open(
        self, name: str, trace: str | None = None, start: int | None = None
    ) -> list:
        """Push a span on this thread's stack; returns its frame."""
        stack = self.stack()
        parent = stack[-1] if stack else None
        if trace is None and parent is not None:
            trace = parent[2]
        frame = [
            next(self._ids),
            parent[0] if parent is not None else None,
            trace,
            name,
            _now() if start is None else start,
            {},
        ]
        stack.append(frame)
        return frame

    def close(self, frame: list, end: int | None = None) -> None:
        stack = self.stack()
        if stack and stack[-1] is frame:
            stack.pop()
        span_id, parent, trace, name, start, attrs = frame
        if trace is not None:
            self.spans.append(
                (span_id, parent, trace, name, start, _now() if end is None else end,
                 threading.get_ident(), attrs)
            )

    def record(
        self, name: str, trace: str | None, start: int, end: int, **attrs: Any
    ) -> None:
        """A span whose parent is resolved by enclosure at merge time."""
        if trace is not None:
            self.spans.append(
                (next(self._ids), None, trace, name, start, end,
                 threading.get_ident(), attrs)
            )

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        payload = {"pid": os.getpid(), "role": self.role, "spans": self.spans}
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(path + ".tmp", path)


REC: Recorder | None = None


# ----------------------------------------------------------------------
# wrapping helpers
# ----------------------------------------------------------------------
def _probe(
    owner: Any,
    attr: str,
    name: str,
    trace: Callable[..., str | None] | None = None,
    note: Callable[..., None] | None = None,
) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``trace(*args)`` picks the span's trace id from the call arguments
    (default: inherited from the thread's innermost open span);
    ``note(attrs, result, *args)`` stores span attributes.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def probe(*args: Any, **kwargs: Any) -> Any:
        frame = REC.open(name, trace(*args) if trace is not None else None)
        try:
            result = original(*args, **kwargs)
            if note is not None:
                note(frame[5], result, *args)
            return result
        finally:
            REC.close(frame)

    setattr(owner, attr, probe)


def _probe_frontend() -> None:
    from repro.serve import frontend
    from repro.serve.router import ShardRouter

    respond = frontend.FleetFrontend._respond

    @functools.wraps(respond)
    async def traced_respond(self: Any, payload: bytes) -> dict[str, Any]:
        # Coroutines of many connections interleave on the loop thread,
        # so this span stays off the thread stack; its trace id is the
        # one the router recorded for the reply object.
        start = _now()
        response = await respond(self, payload)
        REC.record(
            "serve.frontend", REC.reply_traces.get(id(response)), start, _now()
        )
        return response

    frontend.FleetFrontend._respond = traced_respond

    encode = frontend.encode_frame

    @functools.wraps(encode)
    def traced_encode(obj: Any, *args: Any, **kwargs: Any) -> bytes:
        start = _now()
        frame = encode(obj, *args, **kwargs)
        REC.record(
            "serve.framing.encode",
            REC.reply_traces.pop(id(obj), None),
            start,
            _now(),
            reply_bytes=len(frame),
        )
        return frame

    frontend.encode_frame = traced_encode

    dispatch = ShardRouter.dispatch

    @functools.wraps(dispatch)
    def traced_dispatch(self: Any, request: Any) -> dict[str, Any]:
        trace = trace_of(request)
        frame = REC.open("serve.router", trace)
        try:
            response = dispatch(self, request)
        finally:
            REC.close(frame)
        if trace is not None:
            REC.reply_traces[id(response)] = trace
        return response

    ShardRouter.dispatch = traced_dispatch


def _probe_shard_wire() -> None:
    from repro.serve import shard

    recv = shard.recv_frame
    send = shard.send_frame

    @functools.wraps(recv)
    def traced_recv(sock: socket.socket, *args: Any, **kwargs: Any) -> Any:
        # Block until the next request's first byte is here, so the
        # span covers receiving and decoding, not the idle wait.
        try:
            sock.recv(1, socket.MSG_PEEK)
        except OSError:
            pass
        start = _now()
        request = recv(sock, *args, **kwargs)
        trace = trace_of(request)
        if trace is not None:
            # serve.shard stays open until the reply is sent.
            frame = REC.open("serve.shard", trace, start=start)
            frame[5]["port"] = sock.getsockname()[1]
            REC.close(REC.open("serve.framing.decode", trace, start=start))
        return request

    @functools.wraps(send)
    def traced_send(sock: socket.socket, obj: Any, *args: Any, **kwargs: Any) -> None:
        try:
            send(sock, obj, *args, **kwargs)
        finally:
            stack = REC.stack()
            if stack and stack[-1][3] == "serve.shard":
                REC.close(stack[-1])

    shard.recv_frame = traced_recv
    shard.send_frame = traced_send


def _probe_service() -> None:
    from repro.core.server import ServicePool
    from repro.core.service import DomdService

    submit = ServicePool.submit

    @functools.wraps(submit)
    def traced_submit(self: Any, request: Any, *args: Any, **kwargs: Any) -> Any:
        REC.submitted[id(request)] = (_now(), REC.current_trace())
        return submit(self, request, *args, **kwargs)

    ServicePool.submit = traced_submit

    handle = DomdService.handle

    @functools.wraps(handle)
    def traced_handle(self: Any, request: Any, *args: Any, **kwargs: Any) -> Any:
        start = _now()
        queued = REC.submitted.pop(id(request), None)
        if queued is not None:
            # Queue wait plus read-gate wait: submit -> handle.
            REC.record("core.server.wait", queued[1], queued[0], start)
        frame = REC.open("core.service", trace_of(request), start=start)
        try:
            return handle(self, request, *args, **kwargs)
        finally:
            REC.close(frame)

    DomdService.handle = traced_handle
    _probe(DomdService, "rebind", "core.service.rebind")


def _probe_models() -> None:
    from repro.core import fusion
    from repro.core.estimator import DomdEstimator
    from repro.core.timeline_models import TimelineModelSet
    from repro.data.schema import NavyMaintenanceDataset
    from repro.features.transform import StatusFeatureExtractor
    from repro.ml.gbm import GradientBoostedTrees
    from repro.runtime.cache import ArtifactCache
    from repro.runtime.telemetry.hub import TelemetryHub

    def rows(attrs: dict, _result: Any, _self: Any, X: Any, *rest: Any) -> None:
        attrs["rows"] = len(X)

    _probe(DomdEstimator, "query", "core.estimator")
    _probe(DomdEstimator, "explain", "core.estimator")
    _probe(DomdEstimator, "_materialize_features", "core.estimator.bind")
    _probe(StatusFeatureExtractor, "extract", "features.extract")
    _probe(NavyMaintenanceDataset, "fingerprint", "data.fingerprint")
    _probe(TimelineModelSet, "predict_window", "core.timeline_models")
    _probe(TimelineModelSet, "contributions_at", "core.timeline_models")
    _probe(GradientBoostedTrees, "predict", "ml.gbm.predict", note=rows)
    _probe(GradientBoostedTrees, "contributions", "ml.gbm.contributions")
    _probe(fusion, "fuse_progressive", "core.fusion.fuse")
    _probe(TelemetryHub, "emit", "runtime.telemetry.emit")

    lookup = ArtifactCache.get_or_build

    @functools.wraps(lookup)
    def traced_lookup(self: Any, key: Any, build: Any) -> Any:
        # A zero-length mark: counted, owns no time.
        now = _now()
        REC.record(
            "runtime.cache.lookup", REC.current_trace(), now, now, hit=key in self
        )
        return lookup(self, key, build)

    ArtifactCache.get_or_build = traced_lookup


def _probe_write_path() -> None:
    from repro.runtime.concurrency import ReadWriteGate
    from repro.stream.ingest import StreamIngestor
    from repro.stream.wal import WalWriter

    append = WalWriter.append_batch

    @functools.wraps(append)
    def traced_append(self: Any, events: Any) -> Any:
        frame = REC.open("stream.wal.append")
        before = self._handle.tell()
        try:
            return append(self, events)
        finally:
            frame[5]["bytes"] = self._handle.tell() - before
            frame[5]["events"] = len(events)
            REC.close(frame)

    WalWriter.append_batch = traced_append
    _probe(StreamIngestor, "apply_batch", "stream.ingest.apply")
    _probe(StreamIngestor, "dataset", "stream.ingest.dataset")

    write = ReadWriteGate.write

    @contextmanager
    def traced_write(self: Any):
        frame = REC.open("runtime.concurrency.write_wait")
        acquired = False
        try:
            with write(self):
                REC.close(frame)
                acquired = True
                yield
        finally:
            if not acquired:
                REC.close(frame)

    ReadWriteGate.write = traced_write


def _probe_hop() -> None:
    from repro.serve import framing
    from repro.serve.client import FrameClient

    def request_trace(_self: Any, obj: Any, *rest: Any) -> str | None:
        return trace_of(obj) or REC.current_trace()

    def peer(attrs: dict, _result: Any, self: Any, *rest: Any) -> None:
        attrs["peer"] = self.port

    _probe(FrameClient, "request", "serve.client", trace=request_trace, note=peer)
    # send_frame resolves encode_frame in the framing module at call
    # time, so this covers the router's requests and the shards' replies.
    _probe(framing, "encode_frame", "serve.framing.encode")


def install(role: str) -> None:
    """Wrap every probed callable of this process (idempotent)."""
    global REC
    if REC is not None:
        return
    REC = Recorder(role)
    _probe_frontend()
    _probe_shard_wire()
    _probe_service()
    _probe_models()
    _probe_write_path()
    _probe_hop()


def dump() -> None:
    if REC is not None:
        REC.dump(os.environ[SPANS_DIR_ENV])


def traced_shard_entry(spec: dict[str, Any], conn: Any) -> None:
    """Spawn target standing in for :func:`repro.serve.shard.shard_entry`:
    installs the probes in the shard process, serves, dumps the spans."""
    from repro.serve.shard import shard_entry

    install(f"shard-{spec['shard_id']}")
    try:
        shard_entry(spec, conn)
    finally:
        dump()
