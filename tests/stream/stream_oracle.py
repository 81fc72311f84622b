"""The row-by-row stream builders, kept as the oracle of the column-wise ones.

:meth:`repro.stream.store.StreamingRccStore.from_dataset`,
:func:`repro.persistence.load_stream_snapshot` and
:func:`repro.stream.events.dataset_to_events` build a store's slots and
a dataset's events a column at a time.  These are the loops they
replaced, verbatim: one ``rcc_created`` (and, for a settled row, one
``rcc_settled``) per RCC row, applied through ``StreamingRccStore.apply``
or sorted by ``(date, kind, rcc_id)``.  Stores must match slot list for
slot list, with the same counts, orphans and errors; event lists must
match event for event, in order.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.data.dates import MISSING_DATE
from repro.data.schema import NavyMaintenanceDataset
from repro.stream.events import (
    STREAM_FORMAT_VERSION,
    Event,
    RccCreated,
    RccSettled,
    table_from_payload,
    table_to_payload,
)
from repro.stream.store import StreamingRccStore
from repro.table.table import ColumnTable


def store_from_dataset(dataset: NavyMaintenanceDataset) -> StreamingRccStore:
    """Bootstrap from a static snapshot (its RCC rows become slots)."""
    store = StreamingRccStore(
        ships=dataset.ships,
        avails=dataset.avails,
        seed=dataset.seed,
        scaling_factor=dataset.scaling_factor,
    )
    rccs = dataset.rccs
    for row in range(rccs.n_rows):
        store.apply(
            RccCreated(
                rcc_id=int(rccs["rcc_id"][row]),
                avail_id=int(rccs["avail_id"][row]),
                rcc_type=str(rccs["rcc_type"][row]),
                swlin=str(rccs["swlin"][row]),
                create_date=int(rccs["create_date"][row]),
                amount=float(rccs["amount"][row]),
            )
        )
        settle_date = int(rccs["settle_date"][row])
        if str(rccs["status"][row]) == "settled" and settle_date != MISSING_DATE:
            store.apply(
                RccSettled(
                    rcc_id=int(rccs["rcc_id"][row]), settle_date=settle_date
                )
            )
    # Bootstrap rows are baseline state, not stream traffic.
    store.counts = {"applied": 0, "duplicates": 0, "deferred": 0}
    return store


def store_from_rows(
    ships: ColumnTable, avails: ColumnTable, rccs: ColumnTable
) -> StreamingRccStore:
    """The snapshot restore's row replay, counts kept as the replay left them."""
    store = StreamingRccStore(ships=ships, avails=avails)
    # Rows were saved in slot order; replaying them as create(+settle)
    # pairs reconstructs identical slots, logical times and status.
    from repro.data.dates import MISSING_DATE as _MISSING
    from repro.stream.events import RccCreated, RccSettled

    for row in range(rccs.n_rows):
        store.apply(
            RccCreated(
                rcc_id=int(rccs["rcc_id"][row]),
                avail_id=int(rccs["avail_id"][row]),
                rcc_type=str(rccs["rcc_type"][row]),
                swlin=str(rccs["swlin"][row]),
                create_date=int(rccs["create_date"][row]),
                amount=float(rccs["amount"][row]),
            )
        )
        settle_date = int(rccs["settle_date"][row])
        if str(rccs["status"][row]) == "settled" and settle_date != _MISSING:
            store.apply(
                RccSettled(rcc_id=int(rccs["rcc_id"][row]), settle_date=settle_date)
            )
    return store


def dataset_to_events(
    dataset: NavyMaintenanceDataset,
) -> tuple[dict[str, Any], list[Event]]:
    """Decompose a static snapshot into (stream header, ordered events)."""
    header = {
        "kind": "stream_header",
        "version": STREAM_FORMAT_VERSION,
        "seed": dataset.seed,
        "scaling_factor": dataset.scaling_factor,
        "ships": table_to_payload(dataset.ships),
        "avails": table_to_payload(dataset.avails),
    }
    rccs = dataset.rccs
    keyed: list[tuple[int, int, int, Event]] = []
    for row in range(rccs.n_rows):
        rcc_id = int(rccs["rcc_id"][row])
        create_date = int(rccs["create_date"][row])
        keyed.append(
            (
                create_date,
                0,
                rcc_id,
                RccCreated(
                    rcc_id=rcc_id,
                    avail_id=int(rccs["avail_id"][row]),
                    rcc_type=str(rccs["rcc_type"][row]),
                    swlin=str(rccs["swlin"][row]),
                    create_date=create_date,
                    amount=float(rccs["amount"][row]),
                ),
            )
        )
        settle_date = int(rccs["settle_date"][row])
        if str(rccs["status"][row]) == "settled" and settle_date != MISSING_DATE:
            keyed.append(
                (
                    settle_date,
                    1,
                    rcc_id,
                    RccSettled(rcc_id=rcc_id, settle_date=settle_date),
                )
            )
    keyed.sort(key=lambda item: item[:3])
    return header, [event for *_, event in keyed]


def snapshot_store(path: str | Path) -> StreamingRccStore:
    """The store :func:`repro.persistence.load_stream_snapshot` restored,
    rows replayed one at a time, orphans and counts as it set them."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    store = store_from_rows(
        table_from_payload(payload["ships"]),
        table_from_payload(payload["avails"]),
        table_from_payload(payload["rccs"]),
    )
    store.seed = payload.get("seed")
    store.scaling_factor = int(payload.get("scaling_factor", 1))
    store.restore_orphans(payload.get("orphans", {}))
    store.counts = dict(payload.get("store_counts", store.counts))
    return store


def store_state(store: StreamingRccStore) -> dict[str, Any]:
    """Every slot list, index map, orphan buffer and count, for equality."""
    return {
        "rcc_id": store._rcc_id,
        "avail_id": store._avail_id,
        "rcc_type": store._rcc_type,
        "swlin": store._swlin,
        "create_date": store._create_date,
        "settle_date": store._settle_date,
        "status": store._status,
        "amount": store._amount,
        "t_start": store._t_start,
        "t_end": store._t_end,
        "slot_of": store._slot_of,
        "slot_of_order": list(store._slot_of),
        "slots_by_avail": store._slots_by_avail,
        "slots_by_avail_order": list(store._slots_by_avail),
        "orphans": store._orphans,
        "counts": store.counts,
        "types": [
            sorted({type(v).__name__ for v in values})
            for values in (
                store._rcc_id,
                store._avail_id,
                store._rcc_type,
                store._swlin,
                store._create_date,
                store._settle_date,
                store._status,
                store._amount,
                store._t_start,
                store._t_end,
            )
        ],
    }
