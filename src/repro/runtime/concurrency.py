"""Concurrency primitives for the serving runtime.

The deployed engine serves many logged-in SMDII users at once, so the
runtime needs three things a single-threaded reproduction does not:

* **Deadlines** — a :class:`Deadline` carries one request's time budget.
  Cancellation is *cooperative*: long-running loops (the estimator's
  per-avail query loop, the Status Query sweep) call
  :func:`check_deadline` at natural checkpoints, which raises
  :class:`~repro.errors.DeadlineExceeded` once the budget is spent.  A
  cancelled request therefore returns within one checkpoint interval of
  its deadline instead of running to completion.
* **Ambient per-thread state** — the deadline (and the per-worker RNG
  stream) travel through the stack without touching any call signature:
  :func:`ambient_scope` installs them in a ``threading.local`` for the
  duration of one request, and checkpoints read them back from there.
  Each worker thread sees only its own request's state.
* **Deterministic per-worker RNG streams** —
  :func:`worker_rng_streams` derives one independent
  ``numpy.random.Generator`` per worker from a single seed via
  ``SeedSequence.spawn``, so a seeded run stays reproducible no matter
  how many workers serve it.  :meth:`ExecutionContext.rng
  <repro.runtime.context.ExecutionContext.rng>` resolves to the ambient
  worker stream when one is installed.

Everything here is stdlib ``threading`` + numpy; there is no hidden
event loop and no non-cooperative cancellation.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.errors import ConfigurationError, DeadlineExceeded


class Deadline:
    """One request's time budget against a monotonic clock.

    Parameters
    ----------
    budget_seconds:
        Wall-clock budget; the deadline is ``now + budget_seconds``.
    clock:
        Monotonic clock override (tests inject a fake clock).
    """

    __slots__ = ("budget_seconds", "_expires_at", "_clock")

    def __init__(
        self, budget_seconds: float, clock: Callable[[], float] = time.monotonic
    ):
        budget_seconds = float(budget_seconds)
        if not budget_seconds > 0:
            raise ConfigurationError(
                f"deadline budget must be > 0 seconds, got {budget_seconds}"
            )
        self.budget_seconds = budget_seconds
        self._clock = clock
        self._expires_at = clock() + budget_seconds

    @classmethod
    def after_ms(
        cls, budget_ms: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """Deadline ``budget_ms`` milliseconds from now."""
        return cls(float(budget_ms) / 1000.0, clock=clock)

    def remaining(self) -> float:
        """Seconds until expiry (negative once expired)."""
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, checkpoint: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        overrun = self._clock() - self._expires_at
        if overrun >= 0:
            where = f" at {checkpoint}" if checkpoint else ""
            raise DeadlineExceeded(
                f"deadline of {self.budget_seconds * 1000:.0f} ms exceeded"
                f"{where} ({overrun * 1000:.1f} ms over budget)"
            )

    def __repr__(self) -> str:
        return (
            f"Deadline(budget={self.budget_seconds:.3f}s, "
            f"remaining={self.remaining():.3f}s)"
        )


# ----------------------------------------------------------------------
# ambient per-thread request state
# ----------------------------------------------------------------------
_AMBIENT = threading.local()


@contextmanager
def ambient_scope(
    deadline: Deadline | None = None,
    rng: np.random.Generator | None = None,
) -> Iterator[None]:
    """Install per-request ambient state for the current thread.

    Scopes nest: the previous deadline/rng are restored on exit, so a
    request served inside another scoped region (tests, nested pools)
    cannot leak its budget outward.  ``None`` values *clear* the slot
    for the duration rather than inheriting the outer value — a scope
    describes exactly one request.
    """
    previous = (
        getattr(_AMBIENT, "deadline", None),
        getattr(_AMBIENT, "rng", None),
    )
    _AMBIENT.deadline = deadline
    _AMBIENT.rng = rng
    try:
        yield
    finally:
        _AMBIENT.deadline, _AMBIENT.rng = previous


def current_deadline() -> Deadline | None:
    """The ambient deadline of the current thread, if any."""
    return getattr(_AMBIENT, "deadline", None)


def current_rng() -> np.random.Generator | None:
    """The ambient per-worker RNG stream of the current thread, if any."""
    return getattr(_AMBIENT, "rng", None)


def check_deadline(checkpoint: str = "") -> None:
    """Cooperative cancellation checkpoint.

    No-op when the current thread has no ambient deadline (every
    pre-existing single-threaded call path), so sprinkling checkpoints
    through hot loops costs one ``threading.local`` attribute read.
    """
    deadline = getattr(_AMBIENT, "deadline", None)
    if deadline is not None:
        deadline.check(checkpoint)


# ----------------------------------------------------------------------
# deterministic per-worker randomness
# ----------------------------------------------------------------------
def worker_rng_streams(seed: int, n_workers: int) -> list[np.random.Generator]:
    """``n_workers`` independent, deterministic RNG streams from one seed.

    Uses ``numpy.random.SeedSequence.spawn`` so the streams are both
    statistically independent and stable across runs and platforms:
    worker ``i`` of a pool seeded with ``seed`` always draws the same
    sequence, regardless of how many requests land on it.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    return [
        np.random.default_rng(sequence)
        for sequence in np.random.SeedSequence(int(seed)).spawn(n_workers)
    ]


# ----------------------------------------------------------------------
# periodic background work (sampler, continuous profiler)
# ----------------------------------------------------------------------
class PeriodicWorker(threading.Thread):
    """Daemon thread invoking one callback at a fixed interval.

    The substrate of the always-on observability plane: the telemetry
    sampler and the continuous stack profiler both run as one of these.
    The callback runs once immediately on start (so even a short-lived
    process leaves at least one observation behind) and once more on
    :meth:`stop` (so shutdown state is captured deterministically).
    Exceptions are counted and remembered, never propagated — a broken
    observer must not take the serving loop down with it.
    """

    def __init__(
        self,
        fn: Callable[[], object],
        interval: float,
        name: str = "repro-periodic",
    ):
        if interval <= 0:
            raise ConfigurationError(
                f"interval must be positive, got {interval}"
            )
        super().__init__(name=name, daemon=True)
        self.fn = fn
        self.interval = float(interval)
        self.runs = 0
        self.errors = 0
        self.last_error: str | None = None
        self._stop_event = threading.Event()

    def _invoke(self) -> None:
        try:
            self.fn()
        except Exception as exc:  # noqa: BLE001 — observers must not kill serving
            self.errors += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
        self.runs += 1

    def run(self) -> None:
        self._invoke()
        while not self._stop_event.wait(self.interval):
            self._invoke()

    def stop(self, timeout: float | None = 5.0, final_run: bool = True) -> None:
        """Signal the thread to exit, join it, optionally run once more."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=timeout)
        if final_run:
            self._invoke()


# ----------------------------------------------------------------------
# read/write gate (streaming ingest vs. query serving)
# ----------------------------------------------------------------------
class ReadWriteGate:
    """A writer-preference readers/writer gate.

    Query workers hold the *read* side while answering a request; the
    WAL follower holds the *write* side while applying a batch and
    rebinding the service.  Any number of readers share the gate, the
    writer is exclusive, and waiting writers block *new* readers so a
    steady query load cannot starve ingestion (bounded staleness —
    exactly the watermark-lag guarantee the gauges report).

    Both sides are context managers::

        with gate.read():
            ... answer queries ...
        with gate.write():
            ... apply a batch ...
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()
