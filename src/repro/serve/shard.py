"""One fleet shard: a worker process serving its slice of the fleet.

A shard owns the ships the consistent-hash ring assigns it and nothing
else: its own filtered dataset, its own feature tensors, and — when
ingestion is enabled — its own per-shard WAL and watermark.  The process
boundary is what buys multi-core scaling: each shard runs the estimator
under its own GIL.

**Execution.**  A request runs on the connection thread that read it,
under the read side of the shard's gate and one per-shard lock, so one
request executes at a time (two would only contend for the GIL).  The
wire ``deadline_ms`` becomes the request's ambient
:class:`~repro.runtime.concurrency.Deadline`; a request whose budget is
spent before it gets the lock is answered ``deadline_exceeded`` without
executing.  Overload is decided once, at the front door
(``--max-inflight``); the shard keeps no queue of its own.

:class:`ShardServer` is the in-process serving half (a threaded
length-prefixed frame server — usable directly in tests without
``multiprocessing``); :func:`shard_entry` is the **spawn** target the
:class:`~repro.serve.supervisor.ShardSupervisor` launches.  Spawn, not
fork: shard processes must not inherit the front-end's threads, sockets
or telemetry state, and everything a shard needs travels in a picklable
``spec`` dict — it loads model and dataset from disk itself.

**Durability contract.**  An ``ingest`` request is acknowledged only
after its events are validated against the store, fsynced to this
shard's WAL *and* applied under the write gate, followed by the delta
feature refresh of the avails they touched.  A batch the store would
reject never reaches the WAL, so it cannot wedge later appends or a
restart's replay.  A killed shard replays its WAL on restart, so every
acknowledged write survives a kill -9 — the zero-loss property the
bench harness and CI smoke verify.

Shard-level request types (beyond the :class:`DomdService` surface):

* ``{"type": "ingest", "events": [...]}`` — validate, WAL append
  (fsync = ack), then apply + delta refresh under the write gate.
* ``{"type": "shard_status"}`` — shard id, watermark, server and ingest
  gauges (the router's scatter source for ``repro_shard_*`` series).
* ``{"type": "shutdown"}`` — graceful drain: stop accepting, finish
  in-flight work, ack, exit.
"""

from __future__ import annotations

import socket
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any

from repro.core.server import rejection_envelope
from repro.core.service import DomdService, error_envelope
from repro.errors import ReproError
from repro.runtime import Deadline, ambient_scope
from repro.serve.framing import (
    MAX_FRAME_BYTES,
    FrameProtocolError,
    FrameTooLarge,
    FrameTruncated,
    recv_frame,
    send_frame,
)
from repro.serve.partition import shard_dataset
from repro.serve.ring import ConsistentHashRing


def _wire_deadline(request: dict[str, Any]) -> tuple[float | None, str | None]:
    """Pop and validate the wire ``deadline_ms`` field of a request."""
    budget = request.pop("deadline_ms", None)
    if budget is None:
        return None, None
    if (
        isinstance(budget, bool)
        or not isinstance(budget, (int, float))
        or not budget > 0
    ):
        return None, f"'deadline_ms' must be a positive number, got {budget!r}"
    return float(budget), None


class ShardServer:
    """Threaded frame server over one shard's service stack.

    Parameters
    ----------
    shard_id:
        This shard's identity on the ring.
    service:
        The :class:`DomdService` answering this shard's slice.
    gate:
        The shard's read/write gate (requests take the read side,
        ingest the write side).
    ingestor / wal:
        The shard's live ingestion pair; ``None`` disables ``ingest``.
    """

    def __init__(
        self,
        shard_id: int,
        service: DomdService,
        gate: Any,
        ingestor: Any | None = None,
        wal: Any | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        self.shard_id = int(shard_id)
        self.service = service
        self.gate = gate
        self.ingestor = ingestor
        self.wal = wal
        self.host = host
        self._requested_port = int(port)
        self.max_frame_bytes = int(max_frame_bytes)
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopped = threading.Event()
        self._ingest_lock = threading.Lock()
        self._execute_lock = threading.Lock()
        self._conn_lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._active_requests = 0
        self._counters = {
            "connections": 0,
            "requests": 0,
            "disconnects_mid_request": 0,
            "oversize_frames": 0,
            "protocol_errors": 0,
            "deadline_exceeded": 0,
        }
        if ingestor is not None:
            # Avails this shard owns — ingest validates ownership up
            # front so a misrouted event is rejected *before* it can
            # poison the WAL (a bad record would fail every replay).
            self._known_avails = {
                int(a) for a in ingestor.store._avails["avail_id"]
            }
        else:
            self._known_avails = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[1]

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(64)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-shard-{self.shard_id}-accept",
            daemon=True,
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopped.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed during stop
            with self._conn_lock:
                if self._stopped.is_set():
                    conn.close()
                    return
                self._connections.add(conn)
                self._counters["connections"] += 1
            threading.Thread(
                target=self._connection_loop,
                args=(conn,),
                name=f"repro-shard-{self.shard_id}-conn",
                daemon=True,
            ).start()

    def wait_stopped(self, timeout: float | None = None) -> bool:
        """Block until a ``shutdown`` request (or :meth:`stop`) lands."""
        return self._stopped.wait(timeout)

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting; optionally wait for in-flight work to finish."""
        self._stopped.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if drain:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                with self._conn_lock:
                    if self._active_requests == 0:
                        break
                time.sleep(0.01)
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()

    # ------------------------------------------------------------------
    # the connection loop — where connection-level failures normalise
    # into the pinned error-envelope enumeration
    # ------------------------------------------------------------------
    def _connection_loop(self, conn: socket.socket) -> None:
        try:
            while not self._stopped.is_set():
                try:
                    request = recv_frame(conn, max_bytes=self.max_frame_bytes)
                except FrameTooLarge as exc:
                    # Oversize payload: the frame was drained, the
                    # stream is still framed — answer and carry on.
                    self._counters["oversize_frames"] += 1
                    send_frame(conn, error_envelope("bad_request", str(exc)))
                    continue
                except FrameProtocolError as exc:
                    # The byte stream itself is broken; one last
                    # structured answer, then the connection closes.
                    self._counters["protocol_errors"] += 1
                    send_frame(
                        conn,
                        error_envelope("bad_json", f"malformed frame: {exc}"),
                    )
                    return
                except FrameTruncated:
                    self._counters["disconnects_mid_request"] += 1
                    return
                except ValueError as exc:
                    send_frame(
                        conn,
                        error_envelope("bad_json", f"malformed JSON: {exc}"),
                    )
                    continue
                except OSError:
                    return
                if request is None:
                    return  # clean EOF between frames
                with self._conn_lock:
                    self._active_requests += 1
                    self._counters["requests"] += 1
                try:
                    response, shutdown = self._respond(request)
                finally:
                    with self._conn_lock:
                        self._active_requests -= 1
                try:
                    send_frame(conn, response, max_bytes=self.max_frame_bytes)
                except OSError:
                    self._counters["disconnects_mid_request"] += 1
                    return
                if shutdown:
                    self._stopped.set()
                    return
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            conn.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _respond(self, request: Any) -> tuple[dict[str, Any], bool]:
        budget = None
        if isinstance(request, dict):
            request_type = request.get("type")
            if request_type == "ingest":
                return self._handle_ingest(request), False
            if request_type == "shard_status":
                return self._handle_shard_status(), False
            if request_type == "shutdown":
                return (
                    {
                        "ok": True,
                        "result": {"shard_id": self.shard_id, "stopping": True},
                    },
                    True,
                )
            budget, budget_error = _wire_deadline(request)
            if budget_error is not None:
                return error_envelope("bad_request", budget_error), False
        response = self._execute(request, budget)
        response.setdefault("shard_id", self.shard_id)
        return response, False

    def _execute(self, request: Any, budget_ms: float | None) -> dict[str, Any]:
        """Run one request on this thread, one request at a time."""
        deadline = Deadline.after_ms(budget_ms) if budget_ms is not None else None
        with self.gate.read(), ambient_scope(deadline=deadline):
            with self._execute_lock:
                if deadline is not None and deadline.expired():
                    response = rejection_envelope(
                        self.service,
                        "deadline_exceeded",
                        f"deadline of {budget_ms:g} ms expired while the"
                        f" request waited for shard {self.shard_id}",
                    )
                else:
                    response = self.service.handle(request)
        if response.get("error", {}).get("code") == "deadline_exceeded":
            with self._conn_lock:
                self._counters["deadline_exceeded"] += 1
        return response

    def _handle_ingest(self, request: dict[str, Any]) -> dict[str, Any]:
        from repro.errors import SchemaError
        from repro.stream.events import (
            AvailExtended,
            RccCreated,
            event_from_dict,
            event_to_dict,
        )
        from repro.stream.wal import WalRecord

        if self.wal is None or self.ingestor is None:
            return error_envelope(
                "bad_request", "this shard serves a static snapshot; no WAL"
            )
        payload = request.get("events")
        if not isinstance(payload, list):
            return error_envelope("bad_request", "'events' must be a list")
        try:
            events = [event_from_dict(item) for item in payload]
        except SchemaError as exc:
            return error_envelope("bad_request", str(exc))
        for event in events:
            if isinstance(event, (RccCreated, AvailExtended)):
                if int(event.avail_id) not in self._known_avails:
                    return error_envelope(
                        "bad_request",
                        f"avail {event.avail_id} is not owned by shard "
                        f"{self.shard_id}",
                    )
        if not events:
            return {
                "ok": True,
                "result": {"applied": 0, "synced": False},
                "watermark": self.ingestor.watermark,
                "shard_id": self.shard_id,
            }
        traceparent = request.get("traceparent")
        with self._ingest_lock:
            # A batch the store would reject must never reach the WAL:
            # every later append and replay would fail on it.
            try:
                self.ingestor.store.validate(events)
            except ReproError as exc:
                return error_envelope("domain_error", str(exc))
            # Durability first: the fsynced append IS the acknowledgement.
            result = self.wal.append_batch(events)
            records = [
                WalRecord(
                    seq=seq,
                    event=event_to_dict(event),
                    traceparent=traceparent
                    if isinstance(traceparent, str)
                    else None,
                )
                for seq, event in zip(
                    range(result.first_seq, result.last_seq + 1), events
                )
            ]
            try:
                with self.gate.write():
                    summary = self.service.apply(records)
            except ReproError as exc:
                return error_envelope("domain_error", str(exc))
        return {
            "ok": True,
            "result": {
                "applied": summary["applied"],
                "first_seq": result.first_seq,
                "last_seq": result.last_seq,
                "synced": result.synced,
            },
            "watermark": self.ingestor.watermark,
            "shard_id": self.shard_id,
        }

    def _handle_shard_status(self) -> dict[str, Any]:
        with self._conn_lock:
            counters = dict(self._counters)
            counters["active_requests"] = self._active_requests
        result: dict[str, Any] = {
            "shard_id": self.shard_id,
            "up": True,
            "server": counters,
        }
        if self.ingestor is not None:
            result["watermark"] = self.ingestor.watermark
            result["ingest"] = self.ingestor.status()
        else:
            result["watermark"] = None
        return {
            "ok": True,
            "result": result,
            "shard_id": self.shard_id,
        }


# ----------------------------------------------------------------------
# process assembly
# ----------------------------------------------------------------------
@dataclass
class ShardRuntime:
    """Everything one shard process owns, with ordered teardown."""

    server: ShardServer
    service: DomdService
    ingestor: Any | None
    wal: Any | None
    context: Any

    def close(self) -> None:
        self.server.stop(drain=True)
        if self.wal is not None:
            self.wal.close()


def build_shard_runtime(spec: dict[str, Any]) -> ShardRuntime:
    """Assemble a shard's full serving stack from a picklable spec.

    Spec keys: ``shard_id``, ``shard_ids``, ``model``, ``data``,
    optional ``wal_path`` (live ingestion), ``host``, ``port``, optional
    ``events_path`` (JSONL telemetry sink).  The ring uses
    :data:`~repro.serve.ring.DEFAULT_VNODES` and the server
    :data:`~repro.serve.framing.MAX_FRAME_BYTES`, as the front end does.
    A live shard maintains its store and features, no index.
    """
    from repro.data import load_dataset
    from repro.persistence import load_estimator
    from repro.runtime import ExecutionContext, JsonlEventLog
    from repro.runtime.concurrency import ReadWriteGate

    context = ExecutionContext()
    if spec.get("events_path"):
        context.telemetry.add_sink(JsonlEventLog(spec["events_path"]))
    ring = ConsistentHashRing(spec["shard_ids"])
    full = load_dataset(spec["data"])
    slice_ = shard_dataset(full, ring, int(spec["shard_id"]))
    estimator = load_estimator(spec["model"], slice_, context=context)
    service = DomdService(estimator)
    gate = ReadWriteGate()

    ingestor = None
    wal = None
    if spec.get("wal_path"):
        from repro.stream import StreamIngestor, StreamingRccStore
        from repro.stream.wal import WalWriter

        ingestor = StreamIngestor(
            StreamingRccStore.from_dataset(slice_), context=context
        )
        service.ingest = ingestor
        # Recovery: truncate any torn tail, then replay everything the
        # WAL acknowledged before the previous process died, from the
        # one read the writer made to find the log's end.
        wal = WalWriter(spec["wal_path"], telemetry=context.telemetry)
        service.apply(wal.take_recovered())
        assert ingestor.watermark == wal.last_seq, (
            f"shard {spec['shard_id']} recovery gap: watermark "
            f"{ingestor.watermark} != WAL end {wal.last_seq}"
        )

    server = ShardServer(
        shard_id=int(spec["shard_id"]),
        service=service,
        gate=gate,
        ingestor=ingestor,
        wal=wal,
        host=spec.get("host", "127.0.0.1"),
        port=int(spec.get("port", 0)),
    )
    return ShardRuntime(
        server=server,
        service=service,
        ingestor=ingestor,
        wal=wal,
        context=context,
    )


def shard_entry(spec: dict[str, Any], conn: Any) -> None:
    """Spawn target: build the runtime, report readiness, serve, drain.

    ``conn`` is the supervisor's pipe end; the child sends exactly one
    message — ``("ready", port)`` or ``("error", traceback)`` — then
    serves until a ``shutdown`` request lands.
    """
    try:
        runtime = build_shard_runtime(spec)
        runtime.server.start()
    except Exception:  # noqa: BLE001 — the parent needs the traceback
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    conn.send(("ready", runtime.server.port))
    conn.close()
    runtime.server.wait_stopped()
    runtime.close()
