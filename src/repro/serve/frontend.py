"""The asyncio socket front-end: many clients in, one dispatch out.

:class:`FleetFrontend` is the fleet service's front door — an asyncio
TCP server speaking the length-prefixed JSON protocol
(:mod:`repro.serve.framing`).  The event loop owns *connections* (it
can hold thousands open cheaply); actual request work is handed to a
bounded thread pool whose threads drive the router's blocking
scatter-gather.  That split keeps the loop responsive while shard round
trips run, and gives saturation a crisp shape: when every dispatch slot
is taken, new requests are answered **immediately** with a retryable
``overloaded`` envelope — the front-end never queues unboundedly, so
p99 latency stays bounded at saturation instead of growing with the
backlog.

Per-request deadlines come from the wire: a ``deadline_ms`` field is
validated here (requests without one get the front door's default, when
set), enforced with ``asyncio.wait_for`` around the dispatch, and
travels with the request, so the shard that executes it runs under the
same budget — one that expired while it waited for the shard is
answered without executing.  A request that blows its budget gets a
``deadline_exceeded`` envelope — retryable, by the pinned enumeration.

Connection-level failures normalise exactly like the shard servers
(one enumeration, every transport): oversize frame → drained +
``bad_request`` (connection survives); zero-length frame → ``bad_json``
"malformed frame" (stream untrustworthy, connection closes); malformed
JSON payload → ``bad_json`` (connection survives); EOF inside a frame →
counted mid-request disconnect.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.core.service import error_envelope
from repro.errors import ConfigurationError
from repro.serve.framing import HEADER_BYTES, MAX_FRAME_BYTES, _HEADER, encode_frame

#: Grace (seconds) past the wire deadline before the front-end gives up
#: waiting on a dispatch — covers envelope construction, not work.
_DEADLINE_GRACE = 0.25


class FleetFrontend:
    """Asyncio frame server delegating requests to a blocking dispatcher.

    Parameters
    ----------
    dispatch:
        ``request-dict -> response-envelope``; typically
        :meth:`ShardRouter.dispatch` (fleet) or a
        :class:`RequestHandler`-backed closure (single process).  Runs
        on the executor, must never raise.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`port` after :meth:`start`).
    max_inflight:
        Dispatch-slot bound — the saturation point where ``overloaded``
        envelopes begin.
    deadline_ms:
        Default wire budget stamped on requests that carry no
        ``deadline_ms`` (``repro serve --listen --deadline-ms``);
        ``None`` leaves them unbounded.
    context:
        Optional :class:`~repro.runtime.ExecutionContext` for counters.
    """

    def __init__(
        self,
        dispatch: Callable[[dict[str, Any]], dict[str, Any]],
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        deadline_ms: float | None = None,
        context: Any | None = None,
    ):
        if deadline_ms is not None and not deadline_ms > 0:
            raise ConfigurationError(f"deadline_ms must be > 0, got {deadline_ms}")
        self.dispatch = dispatch
        self.host = host
        self._requested_port = int(port)
        self.max_inflight = int(max_inflight)
        self.max_frame_bytes = int(max_frame_bytes)
        self.deadline_ms = deadline_ms
        self.context = context
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="repro-frontend"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stopping = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._drain_on_stop = True
        self._stop_timeout = 10.0
        self._startup_error: BaseException | None = None
        self._port: int | None = None
        self._active_requests = 0
        #: Open connections (handler task -> writer); event-loop thread only.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._counters = {
            "connections": 0,
            "requests": 0,
            "overloaded": 0,
            "deadline_exceeded": 0,
            "oversize_frames": 0,
            "protocol_errors": 0,
            "disconnects_mid_request": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle (thread-hosted loop: blocking callers just start/stop)
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        assert self._port is not None, "frontend not started"
        return self._port

    def start(self, timeout: float = 10.0) -> int:
        """Start the loop thread; returns the bound port."""
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-frontend-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("frontend event loop did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"frontend failed to bind {self.host}:{self._requested_port}"
            ) from self._startup_error
        assert self._port is not None
        return self._port

    def _run_loop(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self._requested_port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        async with self._server:
            await self._stop_event.wait()
            self._server.close()
            await self._server.wait_closed()
            deadline = self._loop.time() + self._stop_timeout
            if self._drain_on_stop:
                while (
                    self._active_requests > 0 and self._loop.time() < deadline
                ):
                    await asyncio.sleep(0.01)
            # Close every open connection so its handler ends on EOF.  A
            # handler left for asyncio.run's teardown to cancel makes
            # Python 3.11's stream callback log a CancelledError traceback.
            for writer in self._connections.values():
                writer.close()
            if self._connections:
                await asyncio.wait(
                    list(self._connections),
                    timeout=max(deadline - self._loop.time(), 0.1),
                )

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting; optionally wait out in-flight dispatches."""
        loop = self._loop
        if loop is None or self._stop_event is None or self._stopping.is_set():
            return
        self._stopping.set()
        self._drain_on_stop = drain
        self._stop_timeout = timeout
        try:
            loop.call_soon_threadsafe(self._stop_event.set)
        except RuntimeError:
            pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout + 5.0)
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # per-connection protocol loop
    # ------------------------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        self._counters[name] += value
        if self.context is not None:
            self.context.counter(f"frontend.{name}", value)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._count("connections")
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    header = await reader.readexactly(HEADER_BYTES)
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        self._count("disconnects_mid_request")
                    return  # clean EOF between frames otherwise
                except (ConnectionError, OSError):
                    return
                (length,) = _HEADER.unpack(header)
                if length == 0:
                    self._count("protocol_errors")
                    await self._send(
                        writer,
                        error_envelope(
                            "bad_json", "malformed frame: zero-length frame"
                        ),
                    )
                    return  # the stream cannot be trusted past this
                if length > self.max_frame_bytes:
                    self._count("oversize_frames")
                    if not await self._drain_oversize(reader, length):
                        self._count("disconnects_mid_request")
                        return
                    await self._send(
                        writer,
                        error_envelope(
                            "bad_request",
                            f"frame declares {length} bytes, exceeding the "
                            f"{self.max_frame_bytes}-byte frame limit",
                        ),
                    )
                    continue
                try:
                    payload = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    self._count("disconnects_mid_request")
                    return
                except (ConnectionError, OSError):
                    self._count("disconnects_mid_request")
                    return
                response = await self._respond(payload)
                if not await self._send(writer, response):
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            del self._connections[task]

    async def _drain_oversize(
        self, reader: asyncio.StreamReader, length: int
    ) -> bool:
        """Discard an oversize payload so the stream stays framed."""
        remaining = length
        while remaining:
            chunk = await reader.read(min(remaining, 65536))
            if not chunk:
                return False
            remaining -= len(chunk)
        return True

    async def _send(
        self, writer: asyncio.StreamWriter, response: dict[str, Any]
    ) -> bool:
        try:
            writer.write(encode_frame(response, max_bytes=self.max_frame_bytes))
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            self._count("disconnects_mid_request")
            return False

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------
    async def _respond(self, payload: bytes) -> dict[str, Any]:
        try:
            request = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return error_envelope("bad_json", f"malformed JSON: {exc}")
        budget: float | None = None
        if isinstance(request, dict):
            deadline_ms = request.get("deadline_ms")
            if deadline_ms is None and self.deadline_ms is not None:
                deadline_ms = request["deadline_ms"] = self.deadline_ms
            if deadline_ms is not None:
                if (
                    isinstance(deadline_ms, bool)
                    or not isinstance(deadline_ms, (int, float))
                    or not deadline_ms > 0
                ):
                    return error_envelope(
                        "bad_request",
                        "'deadline_ms' must be a positive number, "
                        f"got {deadline_ms!r}",
                    )
                budget = float(deadline_ms) / 1000.0
        if self._active_requests >= self.max_inflight:
            # Immediate, honest backpressure: the retryable envelope is
            # cheaper for everyone than an invisible queue.
            self._count("overloaded")
            return error_envelope(
                "overloaded",
                f"front-end at capacity ({self.max_inflight} requests in"
                " flight); retry with backoff",
            )
        self._count("requests")
        self._active_requests += 1
        assert self._loop is not None
        try:
            future = self._loop.run_in_executor(
                self._executor, self._dispatch_safely, request
            )
            if budget is None:
                return await future
            try:
                return await asyncio.wait_for(future, budget + _DEADLINE_GRACE)
            except asyncio.TimeoutError:
                self._count("deadline_exceeded")
                return error_envelope(
                    "deadline_exceeded",
                    f"request exceeded its {deadline_ms}ms wire deadline"
                    " at the front-end",
                )
        finally:
            self._active_requests -= 1

    def _dispatch_safely(self, request: Any) -> dict[str, Any]:
        try:
            return self.dispatch(request)
        except Exception as exc:  # noqa: BLE001 — the envelope contract
            return error_envelope(
                "internal", f"dispatch failure ({type(exc).__name__}: {exc})"
            )

    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        out = dict(self._counters)
        out["active_requests"] = self._active_requests
        out["max_inflight"] = self.max_inflight
        return out
