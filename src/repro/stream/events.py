"""Typed RCC event model for streaming ingestion.

The paper's premise is that delay estimates sharpen *as RCCs arrive*
during an availability; this module gives that arrival process a typed
vocabulary.  Four event kinds cover the RCC lifecycle observed in the
NMD extracts:

* ``rcc_created``   — a new Request for Contract Change is opened.
* ``rcc_settled``   — an open RCC settles (optionally revising the
  amount to the final settled figure).
* ``amount_revised`` — the estimated amount of an RCC changes without a
  settlement.
* ``avail_extended`` — an availability's planned end moves, which
  rescales the logical timeline of every RCC attached to it.

Events serialise to flat JSON dicts (one per WAL/JSONL line).  A
*stream file* is a JSONL file whose first line is a ``stream_header``
carrying the ship and avail dimension tables — plans exist before
execution starts, so they are snapshot context, not events — followed
by the time-ordered event lines.  :func:`dataset_to_events` /
:func:`dataset_from_stream` convert a static
:class:`~repro.data.schema.NavyMaintenanceDataset` to and from that
representation losslessly (round-trip pinned by
``tests/stream/test_events_roundtrip.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, ClassVar, Iterable

import numpy as np

from repro.data.dates import MISSING_DATE
from repro.errors import SchemaError
from repro.table.table import ColumnTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.data.schema import NavyMaintenanceDataset

#: Stream-file format version (first-line header of ``--events-out``).
STREAM_FORMAT_VERSION = 1

#: Finite logical "never settled" sentinel for open RCCs — the logical
#: twin of the differential fuzzer's ``UNSETTLED``; deliberately not
#: ``inf`` (an infinite end poisons interval-tree bucket centers).
UNSETTLED_T = 1.0e9

#: Physical-date twin of :data:`UNSETTLED_T`: far-future ordinal used as
#: the working settle date of open RCCs (year ~9999).
OPEN_SETTLE_DAY = 3_650_000


@dataclass(frozen=True)
class RccCreated:
    """A new RCC opens against an avail (amount = current estimate)."""

    kind: ClassVar[str] = "rcc_created"
    rcc_id: int
    avail_id: int
    rcc_type: str
    swlin: str
    create_date: int
    amount: float = 0.0


@dataclass(frozen=True)
class RccSettled:
    """An open RCC settles; ``amount`` (if given) is the settled figure."""

    kind: ClassVar[str] = "rcc_settled"
    rcc_id: int
    settle_date: int
    amount: float | None = None


@dataclass(frozen=True)
class AmountRevised:
    """The estimated amount of an RCC changes pre-settlement."""

    kind: ClassVar[str] = "amount_revised"
    rcc_id: int
    amount: float


@dataclass(frozen=True)
class AvailExtended:
    """An avail's planned end moves (rescaling its logical timeline)."""

    kind: ClassVar[str] = "avail_extended"
    avail_id: int
    new_plan_end: int


Event = RccCreated | RccSettled | AmountRevised | AvailExtended

_EVENT_TYPES: dict[str, type] = {
    cls.kind: cls for cls in (RccCreated, RccSettled, AmountRevised, AvailExtended)
}

#: All event kinds, in lifecycle order.
EVENT_KINDS = tuple(_EVENT_TYPES)


def event_to_dict(event: Event) -> dict[str, Any]:
    """Serialise one event to its flat JSON dict."""
    out: dict[str, Any] = {"kind": event.kind}
    for field in fields(event):
        out[field.name] = getattr(event, field.name)
    return out


def event_from_dict(payload: dict[str, Any]) -> Event:
    """Parse and validate one event dict; raises SchemaError on junk."""
    if not isinstance(payload, dict):
        raise SchemaError(f"event must be an object, got {type(payload).__name__}")
    kind = payload.get("kind")
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        raise SchemaError(
            f"unknown event kind {kind!r}; expected one of {sorted(_EVENT_TYPES)}"
        )
    declared = {field.name for field in fields(cls)}
    extras = set(payload) - declared - {"kind"}
    if extras:
        raise SchemaError(f"{kind} event has unknown fields: {sorted(extras)}")
    kwargs: dict[str, Any] = {}
    for field in fields(cls):
        if field.name not in payload:
            # dataclass defaults cover the optional fields
            continue
        value = payload[field.name]
        kwargs[field.name] = value
    try:
        event = cls(**kwargs)
    except TypeError as exc:
        raise SchemaError(f"malformed {kind} event: {exc}") from None
    _validate_event(event)
    return event


def _validate_event(event: Event) -> None:
    for name, value in (
        (field.name, getattr(event, field.name)) for field in fields(event)
    ):
        if name in ("rcc_id", "avail_id", "create_date", "settle_date", "new_plan_end"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(
                    f"{event.kind}.{name} must be an integer, got {value!r}"
                )
        elif name in ("rcc_type", "swlin"):
            if not isinstance(value, str) or not value:
                raise SchemaError(
                    f"{event.kind}.{name} must be a non-empty string, got {value!r}"
                )
        elif name == "amount":
            if value is None and isinstance(event, RccSettled):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(
                    f"{event.kind}.amount must be a number, got {value!r}"
                )


# ----------------------------------------------------------------------
# table payloads (dtype-preserving JSON round trip)
# ----------------------------------------------------------------------
_DTYPE_CODES = {"i": "int64", "f": "float64", "O": "object"}


def table_to_payload(table: ColumnTable) -> dict[str, Any]:
    """Column-wise JSON payload with dtype tags for an exact round trip."""
    columns: dict[str, Any] = {}
    for name in table.column_names:
        array = np.asarray(table[name])
        code = _DTYPE_CODES.get(array.dtype.kind)
        if code is None:
            raise SchemaError(
                f"column {name!r} has unsupported dtype {array.dtype} for streaming"
            )
        columns[name] = {"dtype": code, "values": array.tolist()}
    # Column order is part of the schema; the JSON layer sorts keys.
    return {"columns": columns, "order": list(table.column_names)}


def table_from_payload(payload: dict[str, Any]) -> ColumnTable:
    """Rebuild a table from :func:`table_to_payload` output."""
    columns: dict[str, np.ndarray] = {}
    order = payload.get("order", list(payload["columns"]))
    for name in order:
        spec = payload["columns"][name]
        code = spec["dtype"]
        if code == "object":
            columns[name] = np.array(spec["values"], dtype=object)
        else:
            columns[name] = np.array(spec["values"], dtype=np.dtype(code))
    return ColumnTable(columns)


# ----------------------------------------------------------------------
# dataset <-> stream
# ----------------------------------------------------------------------
def settled_rows(rccs: ColumnTable) -> np.ndarray:
    """Mask of the RCC rows that also carry an ``rcc_settled``: settled
    status and a settle date."""
    status = np.array(list(map(str, np.asarray(rccs["status"]).tolist())), dtype=str)
    settle_date = np.asarray(rccs["settle_date"]).astype(np.int64)
    return (status == "settled") & (settle_date != MISSING_DATE)


def dataset_to_events(
    dataset: "NavyMaintenanceDataset",
) -> tuple[dict[str, Any], list[Event]]:
    """Decompose a static snapshot into (stream header, ordered events).

    The header carries the ship and avail dimension tables (plans exist
    before execution, so they are context rather than events).  RCC rows
    become ``rcc_created`` events at their creation date and, for
    settled rows, ``rcc_settled`` events at their settle date, merged
    into one stream ordered by ``(date, kind, rcc_id)`` — creations sort
    before settlements on the same day so a zero-duration RCC is created
    before it settles.
    """
    header = {
        "kind": "stream_header",
        "version": STREAM_FORMAT_VERSION,
        "seed": dataset.seed,
        "scaling_factor": dataset.scaling_factor,
        "ships": table_to_payload(dataset.ships),
        "avails": table_to_payload(dataset.avails),
    }
    rccs = dataset.rccs
    rcc_id = np.asarray(rccs["rcc_id"]).astype(np.int64)
    create_date = np.asarray(rccs["create_date"]).astype(np.int64)
    settle_date = np.asarray(rccs["settle_date"]).astype(np.int64)
    settled = np.flatnonzero(settled_rows(rccs))
    ids = rcc_id.tolist()
    events: list[Event] = list(
        map(
            RccCreated,
            ids,
            np.asarray(rccs["avail_id"]).astype(np.int64).tolist(),
            map(str, np.asarray(rccs["rcc_type"]).tolist()),
            map(str, np.asarray(rccs["swlin"]).tolist()),
            create_date.tolist(),
            np.asarray(rccs["amount"], dtype=np.float64).tolist(),
        )
    )
    events += map(RccSettled, rcc_id[settled].tolist(), settle_date[settled].tolist())
    # Creates, then settles, each in row order, so the stable sort
    # leaves equal keys in row order.
    order = np.lexsort(
        (
            np.concatenate([rcc_id, rcc_id[settled]]),
            np.repeat([0, 1], [len(ids), len(settled)]),
            np.concatenate([create_date, settle_date[settled]]),
        )
    )
    return header, list(map(events.__getitem__, order.tolist()))


def perturb_event_order(
    events: list[Event],
    *,
    seed: int,
    late_fraction: float = 0.25,
    max_displacement: int = 200,
) -> list[Event]:
    """Deterministically deliver a fraction of events *late*.

    Operational feeds are not time-ordered: a settle can arrive before
    its create, a create can straggle in hundreds of records after its
    emission time.  This helper models that by pushing a seeded random
    ``late_fraction`` of events up to ``max_displacement`` positions
    later in the delivery order (a stable sort keeps everything else in
    its original relative order).  The event *multiset* is untouched, so
    a full replay through the order-tolerant
    :class:`~repro.stream.store.StreamingRccStore` reconstructs the
    identical dataset — the property the ``late_arrival`` regime suite
    pins.
    """
    if not 0.0 <= late_fraction <= 1.0:
        raise SchemaError(
            f"late_fraction must be in [0, 1], got {late_fraction}"
        )
    if max_displacement < 1:
        raise SchemaError(
            f"max_displacement must be >= 1, got {max_displacement}"
        )
    if not events or late_fraction == 0.0:
        return list(events)
    rng = np.random.default_rng(seed)
    keys = np.arange(len(events), dtype=np.float64)
    late = rng.random(len(events)) < late_fraction
    if late.any():
        keys[late] += rng.integers(
            1, max_displacement + 1, int(late.sum())
        ).astype(np.float64)
    order = np.argsort(keys, kind="stable")
    return [events[index] for index in order]


def write_event_stream(
    dataset: "NavyMaintenanceDataset",
    path: str | Path,
    *,
    header: dict[str, Any] | None = None,
    events: list[Event] | None = None,
) -> int:
    """Write a dataset as a stream file; returns the event count.

    ``header``/``events`` override the default time-ordered
    decomposition — regime streams use this to export perturbed
    (out-of-order) delivery orders while keeping the header contract.
    """
    if header is None or events is None:
        default_header, default_events = dataset_to_events(dataset)
        header = default_header if header is None else header
        events = default_events if events is None else events
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for event in events:
            handle.write(json.dumps(event_to_dict(event), sort_keys=True) + "\n")
    return len(events)


def read_event_stream(path: str | Path) -> tuple[dict[str, Any] | None, list[Event]]:
    """Read a stream file back into (header, events).

    The header line is optional (a bare JSONL event file parses too);
    events are validated through :func:`event_from_dict`.
    """
    header: dict[str, Any] | None = None
    events: list[Event] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if index == 0 and isinstance(payload, dict) and payload.get("kind") == "stream_header":
                version = payload.get("version")
                if version != STREAM_FORMAT_VERSION:
                    raise SchemaError(
                        f"stream format {version!r} unsupported "
                        f"(expected {STREAM_FORMAT_VERSION})"
                    )
                header = payload
                continue
            events.append(event_from_dict(payload))
    return header, events


def dataset_from_stream(
    header: dict[str, Any], events: Iterable[Event]
) -> "NavyMaintenanceDataset":
    """Replay a stream into a fresh dataset snapshot."""
    from repro.stream.store import StreamingRccStore

    store = StreamingRccStore.from_header(header)
    for event in events:
        store.apply(event)
    return store.dataset()
