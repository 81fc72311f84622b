"""The store's contract with the live serving path.

* :class:`ApplyResult.avail_id` names the avail whose feature rows an
  applied event changed (``None`` for duplicates and buffered events),
  which the ingestor accumulates for the delta feature refresh.
* :meth:`StreamingRccStore.validate` raises exactly what applying a
  batch would raise, without changing anything, so a shard can refuse
  a batch before it reaches the WAL.
"""

from __future__ import annotations

import copy

import pytest

from repro.errors import StreamStateError
from repro.stream import StreamIngestor
from repro.stream.events import event_from_dict
from tests.stream.test_ingest_differential import SWLINS, random_event_dicts, toy_store


def create(rcc_id, avail_id=1, day=1010, amount=5.0):
    return {"kind": "rcc_created", "rcc_id": rcc_id, "avail_id": avail_id,
            "rcc_type": "G", "swlin": SWLINS[0], "create_date": day,
            "amount": amount}


def settle(rcc_id, day):
    return {"kind": "rcc_settled", "rcc_id": rcc_id, "settle_date": day}


class TestTouchedAvails:
    def test_each_event_kind_reports_its_avail(self):
        store = toy_store()
        assert store.apply(create(0, avail_id=2)).avail_id == 2
        assert store.apply(settle(0, 1020)).avail_id == 2
        assert store.apply(
            {"kind": "amount_revised", "rcc_id": 0, "amount": 9.0}
        ).avail_id == 2
        assert store.apply(
            {"kind": "avail_extended", "avail_id": 3, "new_plan_end": 1200}
        ).avail_id == 3

    def test_duplicates_and_buffered_events_touch_nothing(self):
        store = toy_store()
        store.apply(create(0))
        store.apply(settle(0, 1020))
        assert store.apply(create(0)).avail_id is None
        assert store.apply(settle(0, 1020)).avail_id is None
        assert store.apply(
            {"kind": "amount_revised", "rcc_id": 0, "amount": 5.0}
        ).avail_id is None
        assert store.apply(
            {"kind": "avail_extended", "avail_id": 1, "new_plan_end": 1100}
        ).avail_id is None
        # a settle ahead of its create is buffered: nothing changed yet
        assert store.apply(settle(7, 1030)).avail_id is None
        # the create lands and drains it
        assert store.apply(create(7, avail_id=2, day=1025)).avail_id == 2

    def test_ingestor_accumulates_until_taken(self):
        ingestor = StreamIngestor(toy_store())
        ingestor.apply_events([create(0, avail_id=1), create(1, avail_id=2)])
        ingestor.apply_events([settle(0, 1020)])
        assert ingestor.take_touched() == {1, 2}
        assert ingestor.take_touched() == frozenset()
        ingestor.apply_events([create(0)])  # duplicate
        assert ingestor.take_touched() == frozenset()

    def test_half_applied_batch_still_reports_its_prefix(self):
        ingestor = StreamIngestor(toy_store())
        with pytest.raises(StreamStateError):
            ingestor.apply_events([create(0, avail_id=2), settle(0, 900)])
        assert ingestor.watermark == 1
        assert ingestor.take_touched() == {2}


class TestValidate:
    @pytest.mark.parametrize(
        "batch, message",
        [
            # settle dated before a create already in the store
            ([settle(0, 1000)], "before its creation day"),
            # ... before a create earlier in the same batch
            ([create(5, day=1040), settle(5, 1039)], "before its creation day"),
            # ... buffered ahead of its create in the same batch
            ([settle(6, 1001), create(6, day=1002)], "before its creation day"),
            # plan ending on or before plan start
            ([{"kind": "avail_extended", "avail_id": 2, "new_plan_end": 1000}],
             "on or before plan start"),
            # unknown avails
            ([create(8, avail_id=99)], "unknown avail"),
            ([{"kind": "avail_extended", "avail_id": 99, "new_plan_end": 1200}],
             "unknown avail"),
        ],
    )
    def test_rejects_what_apply_would_reject(self, batch, message):
        store = toy_store()
        store.apply(create(0, day=1010))
        events = [event_from_dict(event) for event in batch]
        with pytest.raises(StreamStateError, match=message):
            store.validate(events)
        # validate changed nothing ...
        assert store.n_rccs == 1 and not store.orphans
        # ... and applying the batch fails the same way
        with pytest.raises(StreamStateError, match=message):
            for event in events:
                store.apply(event)

    def test_buffered_settle_from_an_earlier_batch_is_checked(self):
        store = toy_store()
        store.apply(settle(3, 1001))  # orphan waiting for its create
        with pytest.raises(StreamStateError, match="before its creation day"):
            store.validate([event_from_dict(create(3, day=1005))])
        store.validate([event_from_dict(create(3, day=1001))])

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_accepts_every_applicable_stream(self, seed):
        store = toy_store()
        events = [event_from_dict(e) for e in random_event_dicts(seed)]
        before = copy.deepcopy(store.rcc_table().to_rows())
        store.validate(events)
        assert store.rcc_table().to_rows() == before
        for event in events:
            store.apply(event)
