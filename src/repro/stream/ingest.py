"""Stream ingestion: WAL records → store (+ the live indexes a caller names).

:class:`StreamIngestor` ties the subsystem together.  It owns one
:class:`~repro.stream.store.StreamingRccStore` (authoritative row state)
and one :class:`~repro.stream.mutable.MutableIndexAdapter` per design
its caller names, and advances them in lockstep batch by batch.  It
names none by default: a served answer reads the feature tensor, never
an index, so the serving paths (fleet shards, ``serve --follow``)
maintain the store alone; ``repro ingest`` maintains the designs it is
given, for ``--verify`` and stream snapshots.

**Watermark semantics.**  The watermark is the highest WAL sequence
number whose effects are fully applied to store *and* every index; it
moves monotonically, once per applied batch.  Records at or below the
watermark are skipped idempotently (so replaying an overlapping WAL
range — the normal recovery path — is harmless), and a batch that jumps
the sequence raises rather than silently leaving a gap.  Queries answer
"as of watermark w": the adapters carry ``w`` so EXPLAIN plans can
stamp it, and service responses stamp the ingestor's own.

**Touched avails.**  Every applied event that changed an avail's state
adds that avail to a pending set, which :meth:`StreamIngestor.take_touched`
hands to the serving layer's delta feature refresh and clears.  The set
accumulates across batches until taken, so a batch that fails half way
still reports the avails its applied prefix changed.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError, StreamStateError
from repro.index.base import DESIGN_CLASSES
from repro.runtime.context import ExecutionContext
from repro.stream.store import StreamingRccStore
from repro.stream.wal import WalRecord, read_wal

if TYPE_CHECKING:  # pragma: no cover
    from repro.stream.mutable import MutableIndexAdapter

#: Designs maintained when the caller does not choose: none, since no
#: served answer reads an index.
DEFAULT_DESIGNS: tuple[str, ...] = ()

#: Histogram of event-appended→queryable latency (the freshness SLI).
FRESHNESS_HISTOGRAM = "freshness.event_to_queryable"


def _traceparent_runs(
    records: Sequence[WalRecord],
) -> list[tuple[str | None, int, int]]:
    """Consecutive records sharing one appender context → one link each.

    A follower batch may span several appended batches (each with its
    own ``tp``); grouping keeps every append trace reachable from the
    apply trace without emitting one link per record.
    """
    runs: list[tuple[str | None, int, int]] = []
    for record in records:
        if runs and runs[-1][0] == record.traceparent:
            runs[-1] = (record.traceparent, runs[-1][1], record.seq)
        else:
            runs.append((record.traceparent, record.seq, record.seq))
    return runs


class StreamIngestor:
    """Applies WAL batches to a store and the index adapters of ``designs``."""

    def __init__(
        self,
        store: StreamingRccStore,
        designs: Sequence[str] = DEFAULT_DESIGNS,
        rebuild_threshold: int | None = None,
        context: ExecutionContext | None = None,
        watermark: int = 0,
        clock: Callable[[], float] = time.time,
    ):
        unknown = sorted(set(designs) - set(DESIGN_CLASSES))
        if unknown:
            raise ConfigurationError(
                f"unknown index design(s) {unknown}; expected from "
                f"{sorted(DESIGN_CLASSES)}"
            )
        self.store = store
        self.context = context if context is not None else ExecutionContext()
        self._clock = clock
        self.adapters: dict[str, MutableIndexAdapter] = {}
        if designs:
            # The index designs load only for a caller that names one.
            from repro.stream.mutable import MutableIndexAdapter

            starts, ends, slots = store.logical_triples()
            self.adapters = {
                design: MutableIndexAdapter(
                    design, starts, ends, slots, rebuild_threshold=rebuild_threshold
                )
                for design in dict.fromkeys(designs)
            }
        self.watermark = int(watermark)
        self.applied_batches = 0
        self.applied_events = 0
        self.skipped_duplicates = 0
        self._wal_end_seq = self.watermark
        self._touched: set[int] = set()
        self._watermark_wall_time: float | None = None
        #: Append time of the oldest WAL record known but not yet applied
        #: — the anchor of ``freshness_lag_seconds``.  A stalled follower
        #: applies nothing (so the freshness *histogram* goes silent);
        #: this pending-side gauge is what keeps rising instead.
        self._oldest_pending_at: float | None = None
        #: The :class:`~repro.stream.follow.WalFollower` tailing a WAL
        #: into this ingestor, if any; :meth:`status` reports its errors.
        self.follower: Any = None
        for adapter in self.adapters.values():
            adapter.watermark = self.watermark or None

    # ------------------------------------------------------------------
    # batch application
    # ------------------------------------------------------------------
    def apply_batch(self, records: Sequence[WalRecord]) -> dict[str, Any]:
        """Apply one WAL batch; returns a small summary dict.

        Records with ``seq <= watermark`` are skipped (idempotent
        replay); the first fresh record must continue the sequence.

        Each batch with fresh records runs inside one ``ingest.apply``
        trace holding one ``ingest.apply_batch`` span — batch
        granularity deliberately, so tracing cost stays per-batch, not
        per-event.  The batch emits one ``wal_apply`` link per distinct
        appender context (``tp``), stitching apply back to append, and
        observes the freshness histogram for every applied record that
        carries an append timestamp.
        """
        fresh = [record for record in records if record.seq > self.watermark]
        self.skipped_duplicates += len(records) - len(fresh)
        if not fresh:
            return {
                "applied": 0,
                "skipped": len(records),
                "watermark": self.watermark,
            }
        hub = self.context.telemetry
        with hub.trace(
            "ingest.apply", first_seq=fresh[0].seq, batch=len(fresh)
        ):
            applied = self._apply_fresh(fresh)
        return {
            "applied": applied,
            "skipped": len(records) - applied,
            "watermark": self.watermark,
        }

    def _apply_fresh(self, fresh: Sequence[WalRecord]) -> int:
        """Apply pre-filtered fresh records; assumes a trace is open."""
        applied = 0
        # Consecutive inserts across records coalesce into one batched
        # index maintenance call; any update flushes first so its target
        # row is guaranteed present and ordering semantics are exactly
        # those of the per-event path.
        pending_inserts: list[tuple[int, float, float]] = []
        try:
            with self.context.span("ingest.apply_batch"):
                for record in fresh:
                    if record.seq != self.watermark + 1:
                        raise StreamStateError(
                            f"WAL gap: watermark is {self.watermark} but next "
                            f"record has seq {record.seq}"
                        )
                    result = self.store.apply(record.event)
                    if result.avail_id is not None:
                        self._touched.add(result.avail_id)
                    pending_inserts.extend(result.inserts)
                    if result.updates:
                        self._flush_inserts(pending_inserts)
                        for slot, old_ts, _old_te, t_start, t_end in result.updates:
                            for adapter in self.adapters.values():
                                if t_start == old_ts:
                                    adapter.settle(slot, t_end)
                                else:
                                    adapter.update_interval(slot, t_start, t_end)
                    self.watermark = record.seq
                    applied += 1
        finally:
            # keep adapters consistent with the watermark even when a
            # later record raises (gap / corrupt event)
            self._flush_inserts(pending_inserts)
        if applied:
            now = self._clock()
            self.applied_batches += 1
            self.applied_events += applied
            self._watermark_wall_time = now
            self._wal_end_seq = max(self._wal_end_seq, self.watermark)
            if self.watermark >= self._wal_end_seq:
                self._oldest_pending_at = None
            for adapter in self.adapters.values():
                adapter.watermark = self.watermark
            self.context.counter("ingest.batches")
            self.context.counter("ingest.events", applied)
            self._note_applied(fresh[:applied], now)
        return applied

    def _note_applied(
        self, records: Sequence[WalRecord], now: float
    ) -> None:
        """Freshness observations + ``wal_apply`` links for one batch."""
        hub = self.context.telemetry
        for record in records:
            if record.appended_at is not None:
                hub.observe(
                    FRESHNESS_HISTOGRAM, max(now - record.appended_at, 0.0)
                )
        status = self.status()
        for traceparent, first_seq, last_seq in _traceparent_runs(records):
            hub.link(
                "wal_apply",
                traceparent,
                first_seq=first_seq,
                last_seq=last_seq,
                watermark=self.watermark,
                rebuilds=dict(status["rebuilds"]),
                staged=dict(status["staged"]),
            )

    def _flush_inserts(
        self, pending: list[tuple[int, float, float]]
    ) -> None:
        """Apply buffered inserts to every adapter in one batched call."""
        if not pending:
            return
        slots = np.array([slot for slot, _, _ in pending], dtype=np.int64)
        starts = np.array([ts for _, ts, _ in pending], dtype=np.float64)
        ends = np.array([te for _, _, te in pending], dtype=np.float64)
        for adapter in self.adapters.values():
            adapter.insert_batch(starts, ends, slots)
        pending.clear()

    def take_touched(self) -> frozenset[int]:
        """Avails changed since the last call (then forgets them)."""
        touched, self._touched = frozenset(self._touched), set()
        return touched

    def replay(self, wal_path: str, batch_size: int = 256) -> dict[str, Any]:
        """Replay a WAL tail (everything past the watermark) in batches."""
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        result = read_wal(wal_path, after_seq=self.watermark)
        self.note_wal_end(
            result.last_seq,
            oldest_pending_at=(
                result.records[0].appended_at if result.records else None
            ),
        )
        applied = 0
        for lo in range(0, len(result.records), batch_size):
            summary = self.apply_batch(result.records[lo : lo + batch_size])
            applied += summary["applied"]
        return {
            "applied": applied,
            "watermark": self.watermark,
            "dropped_tail": result.dropped_tail,
        }

    def apply_events(self, events: Iterable[Any]) -> dict[str, Any]:
        """Apply raw events (no WAL) as one synthetic batch.

        Convenience for bootstrap/testing: fabricates consecutive seqs
        starting at ``watermark + 1``.
        """
        records = [
            WalRecord(seq=self.watermark + 1 + offset, event=event)
            for offset, event in enumerate(events)
        ]
        return self.apply_batch(records)

    def note_wal_end(
        self, seq: int, oldest_pending_at: float | None = None
    ) -> None:
        """Record the WAL's end seq (for lag reporting).

        ``oldest_pending_at`` is the append time of the oldest record
        past the watermark (when the caller read the WAL and knows it);
        it anchors ``freshness_lag_seconds``.  The follower notes it
        *before* blocking on the snapshot gate, so the pending-side
        freshness gauge keeps rising even while apply is stalled.
        """
        self._wal_end_seq = max(self._wal_end_seq, int(seq))
        if self._wal_end_seq <= self.watermark:
            self._oldest_pending_at = None
        elif oldest_pending_at is not None:
            if (
                self._oldest_pending_at is None
                or oldest_pending_at < self._oldest_pending_at
            ):
                self._oldest_pending_at = float(oldest_pending_at)

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def dataset(self):
        """Current state as a whole static snapshot dataset.

        The live feature refresh never builds it: it reads only the
        touched avails (:meth:`StreamingRccStore.dataset_for`).
        """
        return self.store.dataset()

    def status(self) -> dict[str, Any]:
        """Gauge snapshot for health/metrics expositions."""
        now = self._clock()
        lag = max(self._wal_end_seq - self.watermark, 0)
        age = (
            None
            if self._watermark_wall_time is None
            else max(now - self._watermark_wall_time, 0.0)
        )
        # Freshness lag: how long the oldest unapplied record has been
        # waiting.  0.0 when caught up; falls back to the watermark age
        # when behind but the pending append time is unknown (pre-`at`
        # WALs) — "time since we last made progress" is the best proxy.
        if lag == 0:
            freshness_lag = 0.0
        elif self._oldest_pending_at is not None:
            freshness_lag = max(now - self._oldest_pending_at, 0.0)
        else:
            freshness_lag = age if age is not None else 0.0
        status: dict[str, Any] = {
            "watermark_seq": self.watermark,
            "wal_end_seq": self._wal_end_seq,
            "lag_events": lag,
            "freshness_lag_seconds": freshness_lag,
            "watermark_age_seconds": age,
            "applied_batches": self.applied_batches,
            "applied_events": self.applied_events,
            "skipped_duplicates": self.skipped_duplicates,
            "store_duplicates": self.store.counts["duplicates"],
            "deferred_events": self.store.counts["deferred"],
            "orphans_pending": len(self.store.orphans),
            "n_rccs": self.store.n_rccs,
            "designs": sorted(self.adapters),
            "rebuilds": {
                design: adapter.rebuilds
                for design, adapter in self.adapters.items()
            },
            "staged": {
                design: adapter.staged_count
                for design, adapter in self.adapters.items()
            },
        }
        if self.follower is not None:
            status["follower"] = self.follower.status()
        return status

    def gauges(self) -> dict[str, float]:
        """Numeric-only :meth:`status` view for the telemetry sampler.

        Drops the design list and the nested per-design maps (the
        sampler flattens one mapping level itself, but per-design series
        churn with schema changes), and omits ``watermark_age_seconds``
        while it is still ``None`` so the ``ingest.*`` series hold only
        real numbers.
        """
        status = self.status()
        return {
            key: float(value)
            for key, value in status.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
