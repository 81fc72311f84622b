"""Request dispatch for the ``repro serve`` stdin loop.

:class:`RequestHandler` is the stdin loop's dispatch body: *parse →
dispatch (pooled or inline, under the serving gate) → response future*,
with no opinion about where bytes come from or go to.  A regression
test pins the stdin path byte-identical to the historical inline loop.
The TCP fleet does not route through it: the front end decodes frames
itself, and each shard server runs requests inline under its own lock
(:mod:`repro.serve.shard`).
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from typing import IO, Any

from repro.core.server import PoolFuture, ServicePool
from repro.core.service import DomdService, error_envelope


class RequestHandler:
    """Parse-and-dispatch core of the stdin loop.

    Parameters
    ----------
    service:
        The :class:`DomdService` answering requests.
    pool:
        Optional :class:`ServicePool`.  With a pool, dispatch enqueues
        and returns the pool's future; without one, the request is
        served inline on the calling thread and the returned future is
        already resolved.
    gate:
        Optional read/write gate for the inline (unpooled) path — the
        pooled path's workers already read-lock the pool's own gate.
    """

    def __init__(
        self,
        service: DomdService,
        pool: ServicePool | None = None,
        gate: Any | None = None,
    ):
        self.service = service
        self.pool = pool
        self.gate = gate

    # ------------------------------------------------------------------
    def dispatch(self, request: Any, block: bool = True) -> PoolFuture:
        """Dispatch one parsed request; always returns a future.

        ``block`` only matters with a pool: ``True`` (stdin — the
        producer *is* the client, so backpressure propagates upstream)
        waits for a queue slot; ``False`` bounces a full queue as an
        immediate ``overloaded`` envelope.
        """
        if self.pool is not None:
            return self.pool.submit(request, block=block)
        scope = self.gate.read() if self.gate is not None else nullcontext()
        with scope:
            return PoolFuture.resolved(self.service.handle(request))

    def handle_line(self, line: str) -> PoolFuture | None:
        """One JSON-lines request: ``None`` for blank lines, else a future.

        The ``bad_json`` message format is pinned by the stdin
        regression test — it must stay byte-identical to the historical
        inline loop.
        """
        line = line.strip()
        if not line:
            return None
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            return PoolFuture.resolved(
                error_envelope("bad_json", f"malformed JSON: {exc}")
            )
        return self.dispatch(request)


def serve_stdin(handler: RequestHandler, stdin: IO[str], out: IO[str]) -> int:
    """The ``repro serve`` stdin/stdout loop over a :class:`RequestHandler`.

    Responses print in submission order; completed prefixes flush as
    soon as they resolve (so an unpooled handler — whose futures resolve
    inline — prints each response immediately, exactly like the
    historical loop did).
    """
    from collections import deque

    pending: "deque[PoolFuture]" = deque()

    def flush(block: bool) -> None:
        while pending and (block or pending[0].done()):
            print(json.dumps(pending.popleft().result()), file=out, flush=True)

    for line in stdin:
        future = handler.handle_line(line)
        if future is None:
            continue
        pending.append(future)
        flush(block=False)
    flush(block=True)
    return 0
