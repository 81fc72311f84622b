"""Background WAL tailing for live serving (``repro serve --follow``).

:class:`WalFollower` polls a WAL file on a daemon thread and pushes
fresh records through one apply call: the ingestor's own, or, on the
serve path, ``DomdService.apply``, which also refreshes the service's
features for the avails a batch touched.  Each call runs under the
write side of a :class:`~repro.runtime.concurrency.ReadWriteGate`,
while query workers hold the read side, so a request never observes a
half-applied batch.

A poll that fails — a torn WAL mid-write, an IO error, a record the
store rejects — is retried on the next poll.  A rejected record fails
every poll and holds the watermark still, so each failed poll also
holds the :data:`STUCK_ALERT` condition active (which degrades
``health``), a new failure emits one ``error`` event, and the
ingestor's status reports the follower's ``errors``/``last_error``.
The next poll that applies records clears the condition.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError
from repro.stream.ingest import StreamIngestor
from repro.stream.wal import WalRecord, read_wal

#: Alert condition held while the follower's polls fail.
STUCK_ALERT = "ingest:follower_stuck"


class WalFollower(threading.Thread):
    """Daemon thread that tails a WAL into an ingestor.

    Parameters
    ----------
    ingestor:
        Target ingestor; its watermark decides where tailing starts.
        The follower registers itself as ``ingestor.follower`` and
        reports failures on the telemetry hub of ``ingestor.context``.
    wal_path:
        WAL file to poll (may not exist yet — reads as empty).
    gate:
        Optional read/write gate; each batch is applied under
        ``gate.write()``.
    apply:
        The call each batch of records goes through, returning the
        ingestor's batch summary; defaults to ``ingestor.apply_batch``.
        The serve path passes ``DomdService.apply``, which refreshes the
        service's features whenever the batch moved the watermark, even
        when it failed part way.
    poll_interval:
        Seconds between WAL polls when no fresh records are found.
    """

    def __init__(
        self,
        ingestor: StreamIngestor,
        wal_path: str,
        gate: Any | None = None,
        apply: Callable[[Sequence[WalRecord]], dict[str, Any]] | None = None,
        poll_interval: float = 0.2,
        batch_size: int = 256,
    ):
        if poll_interval <= 0:
            raise ConfigurationError(
                f"poll_interval must be positive, got {poll_interval}"
            )
        super().__init__(name="wal-follower", daemon=True)
        self.ingestor = ingestor
        self.wal_path = str(wal_path)
        self.gate = gate
        self.apply = apply if apply is not None else ingestor.apply_batch
        self.poll_interval = float(poll_interval)
        self.batch_size = int(batch_size)
        self.batches_applied = 0
        self.errors = 0
        self.last_error: str | None = None
        #: ``(seq, message)`` of the failure the last poll hit, if any.
        self._failure: tuple[int, str] | None = None
        self._stop_event = threading.Event()
        ingestor.follower = self

    def _write_scope(self):
        if self.gate is None:
            return contextlib.nullcontext()
        return self.gate.write()

    def poll_once(self) -> int:
        """One poll cycle; returns the number of events applied."""
        result = read_wal(self.wal_path, after_seq=self.ingestor.watermark)
        # Noted *before* taking the write gate: a follower stalled
        # behind the gate still advances the pending-side freshness
        # gauge, which is how a stall surfaces as an SLO breach.
        self.ingestor.note_wal_end(
            result.last_seq,
            oldest_pending_at=(
                result.records[0].appended_at if result.records else None
            ),
        )
        if not result.records:
            return 0
        applied = 0
        for lo in range(0, len(result.records), self.batch_size):
            with self._write_scope():
                summary = self.apply(result.records[lo : lo + self.batch_size])
            if summary["applied"]:
                applied += summary["applied"]
                self.batches_applied += 1
        return applied

    def status(self) -> dict[str, Any]:
        """Failure counters for the ingestor's status block."""
        return {"errors": self.errors, "last_error": self.last_error}

    def run(self) -> None:
        while not self._stop_event.is_set():
            try:
                applied = self.poll_once()
            except Exception as exc:
                # Must not kill the serving loop: record, alert, retry.
                self._note_failure(f"{type(exc).__name__}: {exc}")
                applied = 0
            if applied and self._failure is not None:
                self._failure = None
                self.ingestor.context.telemetry.alerts.set_condition(
                    STUCK_ALERT, False
                )
            if not applied:
                self._stop_event.wait(self.poll_interval)

    def _note_failure(self, message: str) -> None:
        # Records apply in sequence, so the one that failed (or could
        # not be read) is the first past the watermark.
        seq = self.ingestor.watermark + 1
        self.errors += 1
        self.last_error = message
        telemetry = self.ingestor.context.telemetry
        if self._failure != (seq, message):
            # One event per new failure, not one per retried poll.
            self._failure = (seq, message)
            telemetry.emit("error", code="follower_stuck", seq=seq, message=message)
        telemetry.alerts.set_condition(STUCK_ALERT, True, seq=seq, error=message)

    def stop(self, timeout: float | None = 5.0) -> None:
        """Signal the thread to exit and join it."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=timeout)
