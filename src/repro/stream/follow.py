"""Background WAL tailing for live serving (``repro serve --follow``).

:class:`WalFollower` polls a WAL file on a daemon thread and pushes
fresh records through a :class:`~repro.stream.ingest.StreamIngestor`.
All mutation — index maintenance *and* rebinding the service's estimator
to the refreshed dataset — happens under the write side of a
:class:`~repro.runtime.concurrency.ReadWriteGate`, while query workers
hold the read side, so a request never observes a half-applied batch.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.stream.ingest import StreamIngestor
from repro.stream.wal import read_wal


class WalFollower(threading.Thread):
    """Daemon thread that tails a WAL into an ingestor.

    Parameters
    ----------
    ingestor:
        Target ingestor; its watermark decides where tailing starts.
    wal_path:
        WAL file to poll (may not exist yet — reads as empty).
    gate:
        Optional read/write gate; each batch is applied under
        ``gate.write()``.
    on_batch:
        Optional callback invoked *inside* the write section after each
        batch that moved the watermark — even one that failed part way —
        (the serve path uses it to refresh the service's features for
        the avails the batch touched).
    poll_interval:
        Seconds between WAL polls when no fresh records are found.
    """

    def __init__(
        self,
        ingestor: StreamIngestor,
        wal_path: str,
        gate: Any | None = None,
        on_batch: Callable[[StreamIngestor], None] | None = None,
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
        self.on_batch = on_batch
        self.poll_interval = float(poll_interval)
        self.batch_size = int(batch_size)
        self.batches_applied = 0
        self.errors = 0
        self.last_error: str | None = None
        self._stop_event = threading.Event()

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
            chunk = result.records[lo : lo + self.batch_size]
            with self._write_scope():
                watermark = self.ingestor.watermark
                try:
                    summary = self.ingestor.apply_batch(chunk)
                finally:
                    if (
                        self.ingestor.watermark != watermark
                        and self.on_batch is not None
                    ):
                        self.on_batch(self.ingestor)
            if summary["applied"]:
                applied += summary["applied"]
                self.batches_applied += 1
        return applied

    def run(self) -> None:  # pragma: no cover - exercised via serve tests
        while not self._stop_event.is_set():
            try:
                applied = self.poll_once()
            except Exception as exc:
                # A torn WAL mid-write or transient IO error must not
                # kill the serving loop; record and retry next poll.
                self.errors += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
                applied = 0
            if not applied:
                self._stop_event.wait(self.poll_interval)

    def stop(self, timeout: float | None = 5.0) -> None:
        """Signal the thread to exit and join it."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=timeout)
