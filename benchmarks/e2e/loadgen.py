"""Seeded load generation: request streams, arrival schedules, drivers.

Everything the fleet receives is a pure function of the workload seed:
the point-read mix, the open-loop arrival schedule and the dashboard
days come from their own ``random.Random`` streams, so two runs with one
seed send the same requests in the same order.  The drivers send from
one process on at most two threads, each owning one connection.

Every request carries a bench-assigned W3C ``traceparent``; its trace id
is the key under which a traced run merges the spans of every process
the request touched.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it.
TAIL_SUPPORT = 10

#: Share of point reads that are ``explain`` requests (the rest are
#: single-avail ``domd_query`` requests).
EXPLAIN_SHARE = 0.15

_now = time.monotonic_ns


def supported_percentile(
    n_samples: int, grid: Sequence[float] = (50, 90, 95, 99)
) -> float | None:
    """Highest percentile of ``grid`` with at least ``TAIL_SUPPORT``
    samples beyond it, or ``None`` when even the lowest lacks support."""
    best = None
    for level in sorted(grid):
        if n_samples * (100.0 - level) / 100.0 >= TAIL_SUPPORT:
            best = level
    return best


def percentile(values: Sequence[float], level: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), level))


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def point_read_requests(
    seed: int, avail_ids: Sequence[int]
) -> Iterator[dict[str, Any]]:
    """Endless point-read mix: 85% ``domd_query`` for one avail, 15%
    ``explain``; avails uniform over ``avail_ids``, t* uniform on
    [0, 100] in steps of 0.1."""
    rng = random.Random(f"point-reads/{seed}")
    ids = [int(a) for a in avail_ids]
    while True:
        explain = rng.random() < EXPLAIN_SHARE
        avail = ids[rng.randrange(len(ids))]
        t_star = rng.randrange(1001) / 10.0
        if explain:
            yield {"type": "explain", "avail_id": avail, "t_star": t_star}
        else:
            yield {"type": "domd_query", "avail_ids": [avail], "t_star": t_star}


def dashboard_requests(seed: int, dates: Sequence[str]) -> Iterator[dict[str, Any]]:
    """Endless ``fleet_status`` requests on dates drawn uniformly."""
    rng = random.Random(f"fleet-dashboard/{seed}")
    while True:
        yield {"type": "fleet_status", "date": dates[rng.randrange(len(dates))]}


def poisson_schedule(seed: int, rate: float, seconds: float) -> list[int]:
    """Arrival offsets (ns from phase start) of a Poisson process."""
    rng = random.Random(f"arrivals/{seed}")
    offsets: list[int] = []
    t = rng.expovariate(rate)
    while t < seconds:
        offsets.append(int(t * 1e9))
        t += rng.expovariate(rate)
    return offsets


class SharedStream:
    """A request iterator several sender threads draw from in order."""

    def __init__(self, requests: Iterator[dict[str, Any]]):
        self._requests = requests
        self._lock = threading.Lock()

    def next(self) -> dict[str, Any]:
        with self._lock:
            return next(self._requests)


class TraceIds:
    """Unique W3C traceparents: a seed-derived prefix plus a counter."""

    def __init__(self, seed: int, phase: int):
        self._prefix = (
            (random.Random(f"trace/{seed}").getrandbits(32) << 32) | (phase + 1)
        ) << 64
        self._lock = threading.Lock()
        self._count = 0

    def next(self) -> tuple[str, str]:
        """``(trace_id, traceparent)`` of a fresh request."""
        with self._lock:
            self._count += 1
            trace_id = f"{self._prefix | self._count:032x}"
        return trace_id, f"00-{trace_id}-{self._count:016x}-01"


# ----------------------------------------------------------------------
# one request, timed
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One request as the client saw it (monotonic ns timestamps)."""

    kind: str
    request: dict[str, Any]
    trace_id: str
    due: int
    sent: int
    done: int
    response: dict[str, Any] | None

    @property
    def ok(self) -> bool:
        return self.response is not None and self.response.get("ok") is True

    @property
    def latency_ms(self) -> float:
        """Completion minus due time (send time when unscheduled)."""
        return (self.done - self.due) / 1e6

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) / 1e6


class Connection:
    """One client connection to the front door (a single-socket
    :class:`~repro.serve.client.FrameClient`)."""

    def __init__(self, port: int, ids: TraceIds, timeout: float = 30.0):
        from repro.serve.client import FrameClient

        self._client = FrameClient("127.0.0.1", port, timeout=timeout, max_idle=1)
        self._ids = ids

    def call(self, request: dict[str, Any], due: int | None = None) -> Sample:
        from repro.serve.client import ShardUnavailable

        trace_id, traceparent = self._ids.next()
        wire = dict(request, traceparent=traceparent)
        sent = _now()
        try:
            response = self._client.request(wire)
        except ShardUnavailable:
            response = None
        done = _now()
        return Sample(
            kind=str(request["type"]),
            request=request,
            trace_id=trace_id,
            due=sent if due is None else due,
            sent=sent,
            done=done,
            response=response,
        )

    def close(self) -> None:
        self._client.close()


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def run_parallel(jobs: Sequence[Callable[[], None]]) -> None:
    """Run ``jobs`` concurrently: the first on this thread, the rest on
    one thread each; re-raises the first failure after all finish."""
    errors: list[BaseException] = []

    def guarded(job: Callable[[], None]) -> None:
        try:
            job()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    # Daemon threads: an interrupted run must not hang on a sender.
    threads = [
        threading.Thread(
            target=guarded, args=(job,), name=f"e2e-load-{i}", daemon=True
        )
        for i, job in enumerate(jobs[1:], start=1)
    ]
    for thread in threads:
        thread.start()
    guarded(jobs[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_loop(
    connections: Sequence[Connection],
    offsets: Sequence[int],
    stream: SharedStream,
) -> list[Sample]:
    """Send request ``i`` at ``offsets[i]`` on whichever connection is
    free; each sample is timed from its due time, so a stall that delays
    later sends counts against them."""
    samples: list[Sample] = []
    lock = threading.Lock()
    cursor = [0]
    start = _now()

    def sender(conn: Connection) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(offsets):
                    return
                cursor[0] += 1
                request = stream.next()
            due = start + offsets[index]
            wait = due - _now()
            if wait > 0:
                time.sleep(wait / 1e9)
            samples.append(conn.call(request, due=due))

    run_parallel([lambda c=c: sender(c) for c in connections])
    return samples


def closed_loop(
    connections: Sequence[Connection],
    next_request: Callable[[], dict[str, Any]],
    seconds: float,
) -> list[Sample]:
    """Each connection sends its next request as soon as the previous
    one is answered, until ``seconds`` have passed."""
    samples: list[Sample] = []
    end = _now() + int(seconds * 1e9)

    def sender(conn: Connection) -> None:
        while _now() < end:
            samples.append(conn.call(next_request()))

    run_parallel([lambda c=c: sender(c) for c in connections])
    return samples
