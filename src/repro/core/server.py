"""The concurrent serving runtime: a worker pool over :class:`DomdService`.

The deployed SMDII engine serves many logged-in users at once.
:class:`ServicePool` provides the serving half of that deployment story
on top of the single-threaded request handler:

* **Worker fan-out** — ``workers`` threads pull requests from one
  bounded queue and serve them through a *shared* :class:`DomdService`.
  The runtime underneath (metrics sink, telemetry hub, artifact cache)
  is thread-safe, so the pooled responses are byte-identical to the
  sequential ones — the differential stress suite asserts exactly that.
* **Backpressure** — the queue is bounded (``queue_depth``).  A
  non-blocking :meth:`submit` on a full queue returns an ``overloaded``
  error envelope immediately instead of stacking unbounded work; a
  blocking submit (the CLI's stdin loop) waits for a slot, propagating
  the backpressure to the producer.
* **Deadlines** — each request may carry a budget (``deadline_ms``,
  per-pool default or per-submit override).  The clock starts at
  *submission*, so time spent queued counts.  Cancellation is
  cooperative: the ambient :class:`~repro.runtime.concurrency.Deadline`
  is checked at loop checkpoints in the estimator and Status Query
  sweep, and an expired request returns a structured
  ``deadline_exceeded`` envelope within one checkpoint interval.
  Requests that expire *while still queued* are answered without being
  executed at all.
* **Determinism** — worker ``i`` owns RNG stream ``i`` of
  ``worker_rng_streams(seed, workers)``, installed as the ambient RNG
  for every request it serves; a seeded run stays reproducible no
  matter how many workers serve it.
* **Graceful shutdown** — :meth:`close` (or leaving the ``with`` block)
  drains queued work by default, then joins the workers; with
  ``drain=False`` queued-but-unstarted requests are answered with
  ``overloaded`` envelopes instead of executing.

The pool registers itself on the service (``service.pool``), so
``health`` responses gain a saturation status and telemetry expositions
gain the ``repro_pool_*`` gauges.
"""

from __future__ import annotations

import queue
import threading
from contextlib import nullcontext
from typing import Any

from repro.core.service import DomdService, error_envelope
from repro.errors import ConfigurationError
from repro.runtime import Deadline, ambient_scope, worker_rng_streams


class PoolFuture:
    """Handle for one submitted request's eventual response envelope."""

    __slots__ = ("_done", "_response")

    def __init__(self) -> None:
        self._done = threading.Event()
        self._response: dict[str, Any] | None = None

    @classmethod
    def resolved(cls, response: dict[str, Any]) -> "PoolFuture":
        """A future that is already complete (rejections, bad JSON)."""
        future = cls()
        future.set(response)
        return future

    def set(self, response: dict[str, Any]) -> None:
        self._response = response
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> dict[str, Any]:
        """Block until the response envelope is available."""
        if not self._done.wait(timeout):
            raise TimeoutError("request not completed within timeout")
        assert self._response is not None
        return self._response


class _WorkItem:
    __slots__ = ("request", "future", "deadline", "parent")

    def __init__(
        self,
        request: dict[str, Any],
        future: PoolFuture,
        deadline: Deadline | None,
        parent: Any | None = None,
    ) -> None:
        self.request = request
        self.future = future
        self.deadline = deadline
        #: The submitter's TraceContext (when the submitting thread had
        #: an explicit trace open) — carried across the queue so the
        #: worker's request trace parents back to the submitter.
        self.parent = parent


_SHUTDOWN = object()


def rejection_envelope(
    service: DomdService, code: str, message: str
) -> dict[str, Any]:
    """An error envelope for a request refused before it reached
    :meth:`DomdService.handle`, logged and trace-stamped.

    Refusals leave no other record in the event log; the emitted
    ``error`` event carries the emitting thread's trace id, and the
    envelope carries the same id so the client can correlate.  The
    pool's rejections and the shard server's expired-deadline answers
    share it.
    """
    telemetry = service.context.metrics.telemetry
    trace_id = None
    if telemetry is not None:
        trace_id = telemetry.emit("error", code=code, message=message)[
            "trace_id"
        ]
    return error_envelope(code, message, trace_id=trace_id)


class ServicePool:
    """Bounded-queue worker pool serving one shared :class:`DomdService`.

    Parameters
    ----------
    service:
        The request handler every worker serves through.  Its runtime
        (sink, hub, cache) is shared and thread-safe.
    workers:
        Worker-thread count (``repro serve --workers``).
    queue_depth:
        Bounded queue capacity; the backpressure knob
        (``--queue-depth``).
    deadline_ms:
        Default per-request budget in milliseconds, measured from
        submission; ``None`` disables deadlines unless a submit
        overrides it (``--deadline-ms``).
    seed:
        Seed for the per-worker RNG streams; defaults to the service
        context's seed.
    gate:
        Optional :class:`~repro.runtime.concurrency.ReadWriteGate`.
        When set (``repro serve --follow``), every request executes
        under the gate's read side so a live WAL follower (the writer)
        never mutates state under an in-flight query.
    """

    def __init__(
        self,
        service: DomdService,
        workers: int = 1,
        queue_depth: int = 16,
        deadline_ms: float | None = None,
        seed: int | None = None,
        gate: Any | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ConfigurationError(f"queue_depth must be >= 1, got {queue_depth}")
        if deadline_ms is not None and not deadline_ms > 0:
            raise ConfigurationError(
                f"deadline_ms must be > 0, got {deadline_ms}"
            )
        self.service = service
        self.workers = workers
        self.queue_depth = queue_depth
        self.deadline_ms = deadline_ms
        self.gate = gate
        if seed is None:
            seed = service.context.seed
        self.rng_streams = worker_rng_streams(seed, workers)
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_depth)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._accepted = 0
        self._rejected = 0
        self._completed = 0
        self._deadline_exceeded = 0
        self._queue_peak = 0
        self._closed = False
        service.pool = self
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"repro-pool-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        request: dict[str, Any],
        block: bool = False,
        deadline_ms: float | None = None,
    ) -> PoolFuture:
        """Enqueue one request; returns a :class:`PoolFuture`.

        With ``block=False`` (the serving default) a full queue rejects
        immediately: the returned future is already resolved with an
        ``overloaded`` envelope.  With ``block=True`` (the CLI's stdin
        loop) the call waits for a slot — backpressure reaches the
        producer instead of the client.

        ``deadline_ms`` overrides the pool default for this request;
        the budget starts now, so queue wait time counts against it.
        """
        if self._closed:
            return PoolFuture.resolved(
                rejection_envelope(
                    self.service, "overloaded", "serving pool is shut down"
                )
            )
        budget = deadline_ms if deadline_ms is not None else self.deadline_ms
        deadline = Deadline.after_ms(budget) if budget is not None else None
        future = PoolFuture()
        # Capture the submitter's trace context (only when it opened one
        # explicitly) so the worker-side request trace parents to it —
        # the cross-thread half of the causal chain.
        telemetry = self.service.context.metrics.telemetry
        parent = (
            telemetry.open_trace_context() if telemetry is not None else None
        )
        item = _WorkItem(request, future, deadline, parent=parent)
        try:
            self._queue.put(item, block=block)
        except queue.Full:
            with self._lock:
                self._rejected += 1
            self._count("pool.rejected")
            return PoolFuture.resolved(
                rejection_envelope(
                    self.service,
                    "overloaded",
                    f"serving queue is full ({self.queue_depth} requests"
                    f" queued); retry later",
                )
            )
        with self._lock:
            self._accepted += 1
            self._queue_peak = max(self._queue_peak, self._queue.qsize())
        self._count("pool.accepted")
        return future

    def _count(self, name: str) -> None:
        self.service.context.counter(name)

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self, index: int) -> None:
        rng = self.rng_streams[index]
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                self._queue.task_done()
                return
            with self._lock:
                self._in_flight += 1
            try:
                response = self._serve(item, rng)
            finally:
                with self._lock:
                    self._in_flight -= 1
                    self._completed += 1
                self._queue.task_done()
            item.future.set(response)

    def _serve(self, item: _WorkItem, rng: Any) -> dict[str, Any]:
        deadline = item.deadline
        if deadline is not None and deadline.expired():
            # Expired while queued: answer without executing at all.
            with self._lock:
                self._deadline_exceeded += 1
            self._count("pool.deadline_exceeded")
            return rejection_envelope(
                self.service,
                "deadline_exceeded",
                f"deadline of {deadline.budget_seconds * 1000:.0f} ms"
                " expired while the request was queued",
            )
        scope = self.gate.read() if self.gate is not None else nullcontext()
        with scope, ambient_scope(deadline=deadline, rng=rng):
            response = self.service.handle(item.request, parent=item.parent)
        if (
            not response.get("ok", False)
            and response.get("error", {}).get("code") == "deadline_exceeded"
        ):
            with self._lock:
                self._deadline_exceeded += 1
            self._count("pool.deadline_exceeded")
        return response

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """Saturation gauges: the ``pool`` block of ``health`` responses
        and the ``repro_pool_*`` metrics of telemetry expositions."""
        with self._lock:
            queued = self._queue.qsize()
            return {
                "workers": self.workers,
                "queue_depth": queued,
                "queue_capacity": self.queue_depth,
                "queue_peak": self._queue_peak,
                "in_flight": self._in_flight,
                "saturated": queued >= self.queue_depth,
                "accepted": self._accepted,
                "rejected": self._rejected,
                "deadline_exceeded": self._deadline_exceeded,
                "completed": self._completed,
            }

    def sample_gauges(self) -> dict[str, Any]:
        """The sampler's view of :meth:`status`.

        Identical gauges, plus a reset of ``queue_peak`` — each sampler
        tick then reports the *peak queue depth within that tick*, which
        is what saturation charts need (instantaneous ``queue_depth`` at
        tick time almost always reads 0 even under heavy load, because
        workers drain the queue between ticks).
        """
        status = self.status()
        with self._lock:
            self._queue_peak = self._queue.qsize()
        return status

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop accepting work and join the workers.

        ``drain=True`` serves everything already queued first;
        ``drain=False`` answers queued-but-unstarted requests with
        ``overloaded`` envelopes and stops as soon as in-flight
        requests finish.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if not drain:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                self._queue.task_done()
                if item is not _SHUTDOWN:
                    with self._lock:
                        self._rejected += 1
                    item.future.set(
                        rejection_envelope(
                            self.service,
                            "overloaded",
                            "serving pool shut down before execution",
                        )
                    )
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join()
        if self.service.pool is self:
            self.service.pool = None

    def __enter__(self) -> "ServicePool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close(drain=exc_info[0] is None)

    def __repr__(self) -> str:
        status = self.status()
        return (
            f"ServicePool(workers={self.workers}, "
            f"queued={status['queue_depth']}/{self.queue_depth}, "
            f"in_flight={status['in_flight']}, closed={self._closed})"
        )
