"""Authoritative mutable RCC state for streaming ingestion.

:class:`StreamingRccStore` owns the row-level truth the indexes are a
view of: RCC attribute columns in *slot* order (insertion order — slot
``k`` is row ``k`` of every engine table and the id the logical-time
indexes store), plus a mutable copy of the avail table that supplies
each RCC's logical-time conversion.

``apply`` is **idempotent and order-tolerant**:

* a duplicate ``rcc_created`` (same id) is skipped and counted — replays
  of an already-applied WAL prefix are harmless;
* a ``rcc_settled`` / ``amount_revised`` arriving *before* its create
  (out-of-order feeds are a fact of operational systems) is buffered and
  applied the moment the create lands;
* an ``avail_extended`` rescales the logical times of every RCC of that
  avail and reports the per-slot updates so indexes can follow.

The returned :class:`ApplyResult` is the contract with
:class:`~repro.stream.ingest.StreamIngestor`: it lists exactly which
index mutations (inserts / interval updates) the event implies, and
which avail's feature rows it changed.  :meth:`StreamingRccStore.validate`
raises the error a batch's application would raise without applying
anything, so a server can refuse a batch before it reaches the WAL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Any, Iterable, Sequence

import numpy as np

from repro.data.dates import MISSING_DATE, logical_time
from repro.data.schema import NavyMaintenanceDataset
from repro.errors import StreamStateError
from repro.stream.events import (
    AmountRevised,
    AvailExtended,
    Event,
    RccCreated,
    RccSettled,
    UNSETTLED_T,
    event_from_dict,
    event_to_dict,
    settled_rows,
    table_from_payload,
)
from repro.table.table import ColumnTable


@dataclass
class ApplyResult:
    """Index mutations implied by one applied event."""

    kind: str
    #: Event was a no-op repeat of already-applied state.
    duplicate: bool = False
    #: Event arrived before its RCC existed and was buffered.
    deferred: bool = False
    #: New rows: ``(slot, t_start, t_end)``.
    inserts: list[tuple[int, float, float]] = field(default_factory=list)
    #: Re-keyed rows: ``(slot, old_t_start, old_t_end, t_start, t_end)``.
    updates: list[tuple[int, float, float, float, float]] = field(default_factory=list)
    #: The avail whose state (RCC rows or plan) the event changed;
    #: ``None`` for duplicates and deferred events.
    avail_id: int | None = None


class StreamingRccStore:
    """Mutable RCC/avail state replayed from an event stream."""

    def __init__(
        self,
        ships: ColumnTable,
        avails: ColumnTable,
        seed: int | None = None,
        scaling_factor: int = 1,
    ):
        self.ships = ships
        self.seed = seed
        self.scaling_factor = scaling_factor
        self._avails: dict[str, np.ndarray] = {
            name: np.array(avails[name], copy=True) for name in avails.column_names
        }
        self._avail_row = {
            int(avail_id): row
            for row, avail_id in enumerate(self._avails["avail_id"])
        }
        # RCC columns in slot (insertion) order.
        self._rcc_id: list[int] = []
        self._avail_id: list[int] = []
        self._rcc_type: list[str] = []
        self._swlin: list[str] = []
        self._create_date: list[int] = []
        self._settle_date: list[int] = []
        self._status: list[str] = []
        self._amount: list[float] = []
        self._t_start: list[float] = []
        self._t_end: list[float] = []
        self._slot_of: dict[int, int] = {}
        self._slots_by_avail: dict[int, list[int]] = {}
        # Out-of-order settles/revisions waiting for their create.
        self._orphans: dict[int, list[Event]] = {}
        self.counts: dict[str, int] = {
            "applied": 0,
            "duplicates": 0,
            "deferred": 0,
        }

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: NavyMaintenanceDataset) -> "StreamingRccStore":
        """Bootstrap from a static snapshot (its RCC rows become slots)."""
        store = cls(
            ships=dataset.ships,
            avails=dataset.avails,
            seed=dataset.seed,
            scaling_factor=dataset.scaling_factor,
        )
        store.load_rows(dataset.rccs)
        # Bootstrap rows are baseline state, not stream traffic.
        store.counts = {"applied": 0, "duplicates": 0, "deferred": 0}
        return store

    def load_rows(self, rccs: ColumnTable) -> None:
        """Fill this empty store with ``rccs``'s rows, a column at a time.

        The state, ``counts`` and first error are those of applying, row
        by row, each row's ``rcc_created`` and, for a settled row with a
        settle date, its ``rcc_settled``: a repeated id keeps its first
        row's slot and takes the settles of its later rows, and the
        error raised is that of the earliest failing row.
        """
        n = rccs.n_rows
        if not n:
            return
        ids = np.asarray(rccs["rcc_id"]).astype(np.int64)
        avail_ids = np.asarray(rccs["avail_id"]).astype(np.int64)
        create = np.asarray(rccs["create_date"]).astype(np.int64)
        settle = np.asarray(rccs["settle_date"]).astype(np.int64)

        # Slots open at each id's first row; later rows settle that slot.
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        first_row = first[inverse.ravel()]
        opens = np.flatnonzero(first_row == np.arange(n))
        slot_of_row = np.searchsorted(opens, first_row)
        slot_avails = avail_ids[opens].tolist()
        frame_rows = np.fromiter(
            map(self._avail_row.get, slot_avails, repeat(-1)), np.int64, len(opens)
        )
        settle_rows = np.flatnonzero(settled_rows(rccs))
        unknown = opens[frame_rows < 0]
        early = settle_rows[settle[settle_rows] < create[first_row[settle_rows]]]
        if len(unknown) or len(early):
            row = min(unknown[:1].tolist() + early[:1].tolist())
            if len(unknown) and row == unknown[0]:
                raise StreamStateError(
                    f"event references unknown avail {int(avail_ids[row])}"
                )
            _check_settle(
                RccSettled(rcc_id=int(ids[row]), settle_date=int(settle[row])),
                int(create[first_row[row]]),
            )

        # A slot's state is its last settle.
        k = len(opens)
        last = np.full(k, -1, dtype=np.int64)
        np.maximum.at(last, slot_of_row[settle_rows], settle_rows)
        has_settle = last >= 0
        settle_days = settle[last[has_settle]]
        frames = np.concatenate([frame_rows, frame_rows[has_settle]])
        days = np.concatenate([create[opens], settle_days]).astype(np.float64)
        times = logical_time(
            days,
            np.asarray(self._avails["act_start"], dtype=np.float64)[frames],
            np.asarray(self._avails["planned_duration"], dtype=np.float64)[frames],
        )
        t_end = np.full(k, UNSETTLED_T)
        t_end[has_settle] = times[k:]
        settle_of_slot = np.full(k, MISSING_DATE, dtype=np.int64)
        settle_of_slot[has_settle] = settle_days

        self._rcc_id = ids[opens].tolist()
        self._avail_id = slot_avails
        self._rcc_type = list(map(str, np.asarray(rccs["rcc_type"])[opens].tolist()))
        self._swlin = list(map(str, np.asarray(rccs["swlin"])[opens].tolist()))
        self._create_date = create[opens].tolist()
        self._settle_date = settle_of_slot.tolist()
        self._status = list(map(("open", "settled").__getitem__, has_settle.tolist()))
        self._amount = np.asarray(rccs["amount"], dtype=np.float64)[opens].tolist()
        self._t_start = times[:k].tolist()
        self._t_end = t_end.tolist()
        self._slot_of = dict(zip(self._rcc_id, range(k)))
        keys, firsts, groups = np.unique(
            avail_ids[opens], return_index=True, return_inverse=True
        )
        order = np.argsort(groups.ravel(), kind="stable")
        bounds = np.cumsum(np.bincount(groups.ravel(), minlength=len(keys)))
        members = np.split(order, bounds[:-1])
        self._slots_by_avail = {
            keys[group].item(): members[group].tolist()
            for group in np.argsort(firsts, kind="stable").tolist()
        }

        # A settle repeating the date of its slot's settle before it is a
        # duplicate.
        by_slot = settle_rows[np.argsort(slot_of_row[settle_rows], kind="stable")]
        slots, dates = slot_of_row[by_slot], settle[by_slot]
        repeats = int(np.sum((slots[1:] == slots[:-1]) & (dates[1:] == dates[:-1])))
        self.counts["applied"] += k + len(settle_rows) - repeats
        self.counts["duplicates"] += (n - k) + repeats

    @classmethod
    def from_header(cls, header: dict[str, Any]) -> "StreamingRccStore":
        """Bootstrap from a stream-file header (empty RCC state)."""
        return cls(
            ships=table_from_payload(header["ships"]),
            avails=table_from_payload(header["avails"]),
            seed=header.get("seed"),
            scaling_factor=int(header.get("scaling_factor", 1)),
        )

    # ------------------------------------------------------------------
    # logical-time conversion
    # ------------------------------------------------------------------
    def _avail_frame(self, avail_id: int) -> tuple[float, float]:
        row = self._avail_row.get(int(avail_id))
        if row is None:
            raise StreamStateError(f"event references unknown avail {avail_id}")
        act_start = float(self._avails["act_start"][row])
        planned = float(self._avails["planned_duration"][row])
        return act_start, planned

    def _logical(self, day: int, avail_id: int) -> float:
        act_start, planned = self._avail_frame(avail_id)
        return float(logical_time(float(day), act_start, planned))

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------
    def apply(self, event: Event | dict[str, Any]) -> ApplyResult:
        """Apply one event; returns the implied index mutations."""
        if isinstance(event, dict):
            event = event_from_dict(event)
        if isinstance(event, RccCreated):
            result = self._apply_created(event)
        elif isinstance(event, RccSettled):
            result = self._apply_settled(event)
        elif isinstance(event, AmountRevised):
            result = self._apply_amount(event)
        elif isinstance(event, AvailExtended):
            result = self._apply_extended(event)
        else:  # pragma: no cover - event_from_dict guards this
            raise StreamStateError(f"unhandled event type {type(event).__name__}")
        if result.deferred:
            self.counts["deferred"] += 1
        elif result.duplicate:
            self.counts["duplicates"] += 1
        else:
            self.counts["applied"] += 1
        return result

    def _apply_created(self, event: RccCreated) -> ApplyResult:
        if event.rcc_id in self._slot_of:
            return ApplyResult(kind=event.kind, duplicate=True)
        t_start = self._logical(event.create_date, event.avail_id)
        slot = len(self._rcc_id)
        self._rcc_id.append(int(event.rcc_id))
        self._avail_id.append(int(event.avail_id))
        self._rcc_type.append(str(event.rcc_type))
        self._swlin.append(str(event.swlin))
        self._create_date.append(int(event.create_date))
        self._settle_date.append(MISSING_DATE)
        self._status.append("open")
        self._amount.append(float(event.amount))
        self._t_start.append(t_start)
        self._t_end.append(UNSETTLED_T)
        self._slot_of[int(event.rcc_id)] = slot
        self._slots_by_avail.setdefault(int(event.avail_id), []).append(slot)
        result = ApplyResult(
            kind=event.kind,
            inserts=[(slot, t_start, UNSETTLED_T)],
            avail_id=int(event.avail_id),
        )
        # Drain anything that arrived before this create.
        for orphan in self._orphans.pop(int(event.rcc_id), []):
            replayed = self.apply(orphan)
            result.updates.extend(replayed.updates)
            # the drained event was already counted as deferred when it
            # first arrived; undo the fresh "applied" tick
            self.counts["applied"] -= 1
        return result

    def _apply_settled(self, event: RccSettled) -> ApplyResult:
        slot = self._slot_of.get(int(event.rcc_id))
        if slot is None:
            self._orphans.setdefault(int(event.rcc_id), []).append(event)
            return ApplyResult(kind=event.kind, deferred=True)
        _check_settle(event, self._create_date[slot])
        already = (
            self._status[slot] == "settled"
            and self._settle_date[slot] == event.settle_date
            and (event.amount is None or float(event.amount) == self._amount[slot])
        )
        if already:
            return ApplyResult(kind=event.kind, duplicate=True)
        old_t_end = self._t_end[slot]
        t_end = self._logical(event.settle_date, self._avail_id[slot])
        self._settle_date[slot] = int(event.settle_date)
        self._status[slot] = "settled"
        if event.amount is not None:
            self._amount[slot] = float(event.amount)
        self._t_end[slot] = t_end
        return ApplyResult(
            kind=event.kind,
            updates=[(slot, self._t_start[slot], old_t_end, self._t_start[slot], t_end)],
            avail_id=self._avail_id[slot],
        )

    def _apply_amount(self, event: AmountRevised) -> ApplyResult:
        slot = self._slot_of.get(int(event.rcc_id))
        if slot is None:
            self._orphans.setdefault(int(event.rcc_id), []).append(event)
            return ApplyResult(kind=event.kind, deferred=True)
        if self._amount[slot] == float(event.amount):
            return ApplyResult(kind=event.kind, duplicate=True)
        self._amount[slot] = float(event.amount)
        # Amounts feed the engine table and the features, not the
        # logical-time index.
        return ApplyResult(kind=event.kind, avail_id=self._avail_id[slot])

    def _check_extension(self, event: AvailExtended) -> int:
        """The avail's table row; raises for an unknown avail or a plan
        that would end on or before it starts."""
        row = self._avail_row.get(int(event.avail_id))
        if row is None:
            raise StreamStateError(
                f"avail_extended references unknown avail {event.avail_id}"
            )
        plan_start = int(self._avails["plan_start"][row])
        if event.new_plan_end <= plan_start:
            raise StreamStateError(
                f"avail {event.avail_id} cannot end its plan on day "
                f"{event.new_plan_end}, on or before plan start {plan_start}"
            )
        return row

    def _apply_extended(self, event: AvailExtended) -> ApplyResult:
        row = self._check_extension(event)
        plan_start = int(self._avails["plan_start"][row])
        if int(self._avails["plan_end"][row]) == event.new_plan_end:
            return ApplyResult(kind=event.kind, duplicate=True)
        self._avails["plan_end"][row] = int(event.new_plan_end)
        self._avails["planned_duration"][row] = int(event.new_plan_end) - plan_start
        act_end = int(self._avails["act_end"][row])
        if act_end != MISSING_DATE:
            # Delay is duration overrun; a moved plan changes it.
            act_start = int(self._avails["act_start"][row])
            self._avails["delay"][row] = float(
                (act_end - act_start) - (int(event.new_plan_end) - plan_start)
            )
        result = ApplyResult(kind=event.kind, avail_id=int(event.avail_id))
        for slot in self._slots_by_avail.get(int(event.avail_id), []):
            old_t_start, old_t_end = self._t_start[slot], self._t_end[slot]
            t_start = self._logical(self._create_date[slot], event.avail_id)
            if self._status[slot] == "settled":
                t_end = self._logical(self._settle_date[slot], event.avail_id)
            else:
                t_end = UNSETTLED_T
            self._t_start[slot] = t_start
            self._t_end[slot] = t_end
            if t_start != old_t_start or t_end != old_t_end:
                result.updates.append((slot, old_t_start, old_t_end, t_start, t_end))
        return result

    def validate(self, events: Sequence[Event]) -> None:
        """Raise what applying ``events`` in order would raise; mutate nothing.

        Tracks what earlier events of the batch would change — creates,
        and settles buffered until their create — so a settle dated
        before a create in the same batch is caught too.
        """
        created: dict[int, int] = {}  # rcc id -> creation day, this batch
        buffered: dict[int, list[RccSettled]] = {}  # settles awaiting a create
        for event in events:
            if isinstance(event, RccCreated):
                rcc_id = int(event.rcc_id)
                if rcc_id in self._slot_of or rcc_id in created:
                    continue  # duplicate: skipped on apply
                self._avail_frame(event.avail_id)
                created[rcc_id] = int(event.create_date)
                waiting = [
                    orphan
                    for orphan in self._orphans.get(rcc_id, [])
                    if isinstance(orphan, RccSettled)
                ] + buffered.pop(rcc_id, [])
                for settle in waiting:
                    _check_settle(settle, created[rcc_id])
            elif isinstance(event, RccSettled):
                rcc_id = int(event.rcc_id)
                slot = self._slot_of.get(rcc_id)
                create_day = (
                    self._create_date[slot] if slot is not None else created.get(rcc_id)
                )
                if create_day is None:
                    buffered.setdefault(rcc_id, []).append(event)
                else:
                    _check_settle(event, create_day)
            elif isinstance(event, AvailExtended):
                self._check_extension(event)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def n_rccs(self) -> int:
        return len(self._rcc_id)

    @property
    def orphans(self) -> dict[int, list[Event]]:
        """Buffered out-of-order events keyed by their missing RCC id."""
        return self._orphans

    def logical_triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Current ``(t_start, t_end, slot)`` arrays, slot order."""
        return (
            np.asarray(self._t_start, dtype=np.float64),
            np.asarray(self._t_end, dtype=np.float64),
            np.arange(self.n_rccs, dtype=np.int64),
        )

    def engine_table(self) -> ColumnTable:
        """Status-Query-ready RCC table in slot order.

        Row ``k`` is slot ``k``, so ids returned by a
        :class:`~repro.stream.mutable.MutableIndexAdapter` address this
        table directly.
        """
        return ColumnTable(
            {
                "rcc_type": np.array(self._rcc_type, dtype=object),
                "swlin": np.array(self._swlin, dtype=object),
                "t_start": np.asarray(self._t_start, dtype=np.float64),
                "t_end": np.asarray(self._t_end, dtype=np.float64),
                "amount": np.asarray(self._amount, dtype=np.float64),
                "avail_id": np.asarray(self._avail_id, dtype=np.int64),
            }
        )

    def rcc_table(self, order: str = "rcc_id") -> ColumnTable:
        """Canonical RCC table (``order="slot"`` keeps insertion order)."""
        if order not in ("rcc_id", "slot"):
            raise StreamStateError(f"unknown RCC table order {order!r}")
        columns = {
            "rcc_id": np.asarray(self._rcc_id, dtype=np.int64),
            "avail_id": np.asarray(self._avail_id, dtype=np.int64),
            "rcc_type": np.array(self._rcc_type, dtype=object),
            "swlin": np.array(self._swlin, dtype=object),
            "create_date": np.asarray(self._create_date, dtype=np.int64),
            "settle_date": np.asarray(self._settle_date, dtype=np.int64),
            "status": np.array(self._status, dtype=object),
            "amount": np.asarray(self._amount, dtype=np.float64),
        }
        if order == "rcc_id" and self.n_rccs:
            sort = np.argsort(columns["rcc_id"], kind="stable")
            columns = {name: values[sort] for name, values in columns.items()}
        return ColumnTable(columns)

    def avails_table(self) -> ColumnTable:
        return ColumnTable(
            {name: np.array(values, copy=True) for name, values in self._avails.items()}
        )

    def dataset(self) -> NavyMaintenanceDataset:
        """Current state as a static snapshot (RCCs in rcc_id order)."""
        return NavyMaintenanceDataset(
            ships=self.ships,
            avails=self.avails_table(),
            rccs=self.rcc_table(order="rcc_id"),
            seed=self.seed,
            scaling_factor=self.scaling_factor,
        )

    def dataset_for(self, avail_ids: Iterable[int]) -> NavyMaintenanceDataset:
        """The current sub-snapshot of these avails (unknown ids ignored).

        Equal, column for column, to :meth:`dataset` restricted to them:
        ships whole, avail rows in table order, RCC rows in rcc_id order
        (row order changes float sums downstream).  Built from these
        avails' own slots, so its cost grows with their RCCs, not with
        the store.
        """
        ids = sorted(
            {int(a) for a in avail_ids} & self._avail_row.keys(),
            key=self._avail_row.__getitem__,
        )
        rows = np.array([self._avail_row[a] for a in ids], dtype=np.int64)
        slots = [slot for a in ids for slot in self._slots_by_avail.get(a, ())]
        rcc_ids = np.array(_take(self._rcc_id, slots), dtype=np.int64)
        order = np.argsort(rcc_ids, kind="stable")
        columns = {
            "rcc_id": rcc_ids,
            "avail_id": np.array(_take(self._avail_id, slots), dtype=np.int64),
            "rcc_type": np.array(_take(self._rcc_type, slots), dtype=object),
            "swlin": np.array(_take(self._swlin, slots), dtype=object),
            "create_date": np.array(_take(self._create_date, slots), dtype=np.int64),
            "settle_date": np.array(_take(self._settle_date, slots), dtype=np.int64),
            "status": np.array(_take(self._status, slots), dtype=object),
            "amount": np.array(_take(self._amount, slots), dtype=np.float64),
        }
        return NavyMaintenanceDataset(
            ships=self.ships,
            avails=ColumnTable(
                {name: values[rows] for name, values in self._avails.items()}
            ),
            rccs=ColumnTable(
                {name: values[order] for name, values in columns.items()}
            ),
            seed=self.seed,
            scaling_factor=self.scaling_factor,
        )

    def orphans_payload(self) -> dict[str, list[dict[str, Any]]]:
        """JSON-ready orphan buffer (snapshot persistence)."""
        return {
            str(rcc_id): [event_to_dict(event) for event in events]
            for rcc_id, events in self._orphans.items()
        }

    def restore_orphans(self, payload: dict[str, list[dict[str, Any]]]) -> None:
        for rcc_id, events in payload.items():
            self._orphans[int(rcc_id)] = [
                event_from_dict(event) for event in events
            ]


def _take(values: list, slots: list[int]) -> tuple:
    """``values`` at ``slots``, in order."""
    if len(slots) > 1:
        return itemgetter(*slots)(values)
    return tuple(values[slot] for slot in slots)


def _check_settle(event: RccSettled, create_day: int) -> None:
    if event.settle_date < create_day:
        raise StreamStateError(
            f"RCC {event.rcc_id} settles on day {event.settle_date}, before "
            f"its creation day {create_day}"
        )
