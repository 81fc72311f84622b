"""Streaming ingestion subsystem: live RCC event streams.

Layers (each its own module, composable separately):

* :mod:`repro.stream.events` — typed event model + stream-file IO.
* :mod:`repro.stream.wal` — durable append-only JSONL WAL (crc per
  record, fsync batching, lenient torn-tail replay).
* :mod:`repro.stream.store` — authoritative mutable RCC/avail state.
* :mod:`repro.stream.mutable` — incremental index maintenance over all
  four backends behind the ``LogicalTimeIndex`` interface.
* :mod:`repro.stream.ingest` — the driver: WAL batches → store +
  indexes, watermark semantics.
* :mod:`repro.stream.follow` — background WAL tailing for live serving.

See ``docs/streaming.md`` for the end-to-end walkthrough.
"""

from repro._lazy import attach

# Each name's module is imported when the name is first read.
__getattr__, __dir__ = attach(
    __name__,
    {
        "repro.stream.events": (
            "AmountRevised",
            "AvailExtended",
            "Event",
            "EVENT_KINDS",
            "RccCreated",
            "RccSettled",
            "STREAM_FORMAT_VERSION",
            "UNSETTLED_T",
            "dataset_from_stream",
            "dataset_to_events",
            "event_from_dict",
            "event_to_dict",
            "perturb_event_order",
            "read_event_stream",
            "write_event_stream",
        ),
        "repro.stream.follow": ("WalFollower",),
        "repro.stream.ingest": ("StreamIngestor",),
        "repro.stream.mutable": ("MutableIndexAdapter", "default_rebuild_threshold"),
        "repro.stream.store": ("ApplyResult", "StreamingRccStore"),
        "repro.stream.wal": (
            "WalAppendResult",
            "WalReadResult",
            "WalRecord",
            "WalWriter",
            "event_crc",
            "read_wal",
        ),
    },
)

__all__ = [
    "AmountRevised",
    "ApplyResult",
    "AvailExtended",
    "Event",
    "EVENT_KINDS",
    "MutableIndexAdapter",
    "RccCreated",
    "RccSettled",
    "STREAM_FORMAT_VERSION",
    "StreamIngestor",
    "StreamingRccStore",
    "UNSETTLED_T",
    "WalAppendResult",
    "WalFollower",
    "WalReadResult",
    "WalRecord",
    "WalWriter",
    "dataset_from_stream",
    "dataset_to_events",
    "default_rebuild_threshold",
    "event_crc",
    "event_from_dict",
    "event_to_dict",
    "perturb_event_order",
    "read_event_stream",
    "read_wal",
    "write_event_stream",
]
