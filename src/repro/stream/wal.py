"""Durable append-only JSONL write-ahead log for RCC events.

Record format — one JSON object per line::

    {"seq": 17, "crc": 2996459622, "event": {"kind": "rcc_created", ...},
     "at": 1754650000.123456, "tp": "00-...-01"}

* ``seq`` is a strictly consecutive sequence number (the watermark
  currency of the whole streaming subsystem).
* ``crc`` is the CRC-32 of the canonical JSON encoding of ``event``
  (sorted keys, compact separators), so a bit-flipped or torn record is
  detected without trusting line boundaries.
* ``at`` (optional) is the append wall time — the anchor of the
  event-appended→queryable **freshness SLI** the ingestor observes when
  it applies the record.
* ``tp`` (optional) is the appender's serialised
  :class:`~repro.runtime.telemetry.tracecontext.TraceContext`
  (W3C-traceparent style), letting the follower's apply trace link back
  to the append trace across process boundaries.

``at``/``tp`` live *outside* the CRC'd event payload, so logs written
before this format read back unchanged and old readers skip the new
fields without tripping integrity checks.

**Durability contract.**  :meth:`WalWriter.append_batch` buffers then
``flush``\\ es every batch; an ``fsync`` is issued every
``fsync_batches`` batches (default: every batch) and on :meth:`close`.
A batch is *acknowledged* once its records are fsynced —
``WalAppendResult.synced`` says whether this call reached the platter.
Crash recovery may lose unsynced suffixes but never an acknowledged
batch (pinned by ``tests/stream/test_snapshot_restore.py``).

**Lenient replay.**  :func:`read_wal` follows the
``load_events_lenient`` pattern of the telemetry event log: it stops at
the first corrupt, out-of-sequence or torn record and reports how many
trailing lines were dropped.  Everything after the first bad record is
untrusted (a torn write ends the log), which is exactly the right
semantics for a crashed writer.  :class:`WalWriter` truncates such a
torn tail before appending, so the log never interleaves garbage with
fresh records.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ConfigurationError, WalCorruptionError
from repro.stream.events import Event, event_to_dict


def canonical_event_json(event: dict[str, Any]) -> str:
    """The canonical encoding both writer and reader CRC over."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def event_crc(event: dict[str, Any]) -> int:
    return zlib.crc32(canonical_event_json(event).encode("utf-8"))


@dataclass(frozen=True)
class WalRecord:
    """One parsed, integrity-checked WAL record.

    ``appended_at``/``traceparent`` mirror the optional ``at``/``tp``
    record fields; fabricated records (``apply_events`` bootstrap paths)
    leave them ``None``.
    """

    seq: int
    event: dict[str, Any]
    appended_at: float | None = None
    traceparent: str | None = None


@dataclass(frozen=True)
class WalAppendResult:
    """Outcome of one :meth:`WalWriter.append_batch` call."""

    first_seq: int
    last_seq: int
    synced: bool


@dataclass
class WalReadResult:
    """Outcome of :func:`read_wal` (lenient, tail-truncating)."""

    records: list[WalRecord] = field(default_factory=list)
    last_seq: int = 0
    #: Count of trailing lines dropped at the first corrupt record.
    dropped_tail: int = 0
    #: Byte offset of the end of the last good record (writer truncation
    #: point when a torn tail is present).
    good_bytes: int = 0


def _parse_record(line: str, expected_seq: int | None) -> WalRecord:
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise WalCorruptionError("WAL record is not an object")
    try:
        seq = payload["seq"]
        crc = payload["crc"]
        event = payload["event"]
    except KeyError as exc:
        raise WalCorruptionError(f"WAL record missing field {exc.args[0]!r}") from None
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise WalCorruptionError(f"WAL seq must be a positive integer, got {seq!r}")
    if not isinstance(event, dict):
        raise WalCorruptionError("WAL event payload is not an object")
    if event_crc(event) != crc:
        raise WalCorruptionError(f"WAL record seq={seq} fails its CRC check")
    if expected_seq is not None and seq != expected_seq:
        raise WalCorruptionError(
            f"WAL sequence break: expected seq={expected_seq}, found {seq}"
        )
    appended_at = payload.get("at")
    if not isinstance(appended_at, (int, float)) or isinstance(appended_at, bool):
        appended_at = None
    traceparent = payload.get("tp")
    if not isinstance(traceparent, str):
        traceparent = None
    return WalRecord(
        seq=seq,
        event=event,
        appended_at=float(appended_at) if appended_at is not None else None,
        traceparent=traceparent,
    )


def read_wal(path: str | Path, after_seq: int = 0) -> WalReadResult:
    """Read a WAL leniently, returning records with ``seq > after_seq``.

    Stops at the first corrupt or out-of-sequence line; the remainder is
    counted as ``dropped_tail`` (a crashed writer's torn suffix), not
    raised — mirroring ``load_events_lenient``.  A missing file reads as
    an empty log.
    """
    path = Path(path)
    result = WalReadResult()
    if not path.exists():
        return result
    raw = path.read_bytes()
    offset = 0
    expected: int | None = None
    dropped = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        torn = newline < 0
        end = len(raw) if torn else newline + 1
        line = raw[offset:end].strip()
        if not line:
            offset = end
            continue
        try:
            record = _parse_record(line.decode("utf-8"), expected)
        except (WalCorruptionError, json.JSONDecodeError, UnicodeDecodeError):
            # First bad record: everything from here on is untrusted.
            dropped = sum(
                1 for rest in raw[offset:].split(b"\n") if rest.strip()
            )
            break
        if torn:
            # A record without a trailing newline may still be mid-write.
            dropped = 1
            break
        expected = record.seq + 1
        result.last_seq = record.seq
        result.good_bytes = end
        if record.seq > after_seq:
            result.records.append(record)
        offset = end
    result.dropped_tail = dropped
    return result


class WalWriter:
    """Appending writer with crc-per-record and fsync batching.

    Parameters
    ----------
    path:
        WAL file; created (with parents) when missing.  An existing log
        is scanned to resume the sequence (its records stay available
        to :meth:`take_recovered`); a torn tail left by a crash is
        truncated before the first append.
    fsync_batches:
        Issue ``fsync`` every N batches.  1 (default) acknowledges every
        batch at the platter; larger values trade durability of the most
        recent N-1 batches for throughput.
    telemetry:
        Optional :class:`~repro.runtime.telemetry.hub.TelemetryHub`.
        When set, every record is stamped with the appender's trace
        context (``tp``) and each appended batch emits a ``wal_append``
        ``link`` event, making the append side of the causal chain
        reconstructable from the event log.
    clock:
        Wall-clock override for tests; stamps each record's append time
        (``at``), the anchor of the freshness SLI.
    """

    def __init__(
        self,
        path: str | Path,
        fsync_batches: int = 1,
        telemetry: Any | None = None,
        clock: Callable[[], float] = time.time,
    ):
        if fsync_batches < 1:
            raise ConfigurationError(
                f"fsync_batches must be >= 1, got {fsync_batches}"
            )
        self.path = Path(path)
        self.fsync_batches = fsync_batches
        self.telemetry = telemetry
        self._clock = clock
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existing = read_wal(self.path)
        if existing.dropped_tail and self.path.exists():
            # Drop the torn tail so fresh records never follow garbage.
            with self.path.open("r+b") as handle:
                handle.truncate(existing.good_bytes)
        self._recovered = existing.records
        self._next_seq = existing.last_seq + 1
        self._handle = self.path.open("ab")
        self._unsynced_batches = 0
        self._closed = False

    def take_recovered(self) -> list[WalRecord]:
        """The records the log held when this writer opened it.

        A restarting owner replays these instead of reading the log a
        second time.  Handed out once: the writer keeps no reference.
        """
        records, self._recovered = self._recovered, []
        return records

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def last_seq(self) -> int:
        return self._next_seq - 1

    def append_batch(
        self, events: Sequence[Event] | Iterable[dict[str, Any]]
    ) -> WalAppendResult:
        """Append one batch of events; returns the assigned seq range.

        ``synced=True`` in the result means the batch (and everything
        before it) is fsynced — i.e. acknowledged durable.
        """
        if self._closed:
            raise ConfigurationError("WAL writer is closed")
        first_seq = self._next_seq
        appended_at = round(self._clock(), 6)
        traceparent = (
            self.telemetry.current_context().to_traceparent()
            if self.telemetry is not None
            else None
        )
        lines: list[bytes] = []
        for event in events:
            payload = event if isinstance(event, dict) else event_to_dict(event)
            record = {
                "seq": self._next_seq,
                "crc": event_crc(payload),
                "event": payload,
                "at": appended_at,
            }
            if traceparent is not None:
                record["tp"] = traceparent
            lines.append(
                (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode(
                    "utf-8"
                )
            )
            self._next_seq += 1
        if not lines:
            return WalAppendResult(first_seq, first_seq - 1, synced=False)
        self._handle.write(b"".join(lines))
        self._handle.flush()
        self._unsynced_batches += 1
        synced = False
        if self._unsynced_batches >= self.fsync_batches:
            self.sync()
            synced = True
        if self.telemetry is not None:
            self.telemetry.link(
                "wal_append",
                first_seq=first_seq,
                last_seq=self._next_seq - 1,
                wal=str(self.path),
                synced=synced,
            )
        return WalAppendResult(first_seq, self._next_seq - 1, synced=synced)

    def sync(self) -> None:
        """Force an fsync (acknowledging everything appended so far)."""
        if not self._closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._unsynced_batches = 0

    def close(self) -> None:
        if not self._closed:
            self.sync()
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
