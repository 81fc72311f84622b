"""Column-at-a-time store bootstrap, snapshot restore and decomposition.

``StreamingRccStore.from_dataset``/``load_rows``, ``load_stream_snapshot``
and ``dataset_to_events`` must give exactly what the row-by-row loops in
:mod:`tests.stream.stream_oracle` give: every slot list with the same
values and Python types, ``_slot_of`` and ``_slots_by_avail`` (in their
insertion order), orphans and counts, the same exception type and
message for a bad table, and the same events in the same order.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dates import MISSING_DATE
from repro.data.schema import NavyMaintenanceDataset
from repro.persistence import load_stream_snapshot, save_stream_snapshot
from repro.stream import StreamIngestor, StreamingRccStore
from repro.stream.events import RccCreated, RccSettled, dataset_to_events
from repro.stream.wal import WalRecord
from repro.table.table import ColumnTable
from tests.stream import stream_oracle as oracle
from tests.stream.test_ingest_differential import (
    AVAILS,
    SHIPS,
    random_event_dicts,
)

_FLOAT_LISTS = ("amount", "t_start", "t_end")


def comparable(store: StreamingRccStore) -> dict:
    """The oracle's state view with float lists compared bit for bit."""
    state = oracle.store_state(store)
    for name in _FLOAT_LISTS:
        state[name] = np.asarray(state[name], dtype=np.float64).tobytes()
    state["orphans"] = {
        rcc_id: [repr(event) for event in events]
        for rcc_id, events in state["orphans"].items()
    }
    return state


def outcome(build) -> tuple:
    """A build's state, or the type and message of what it raised."""
    try:
        return ("ok", comparable(build()))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))


def rcc_table(rows: list[tuple]) -> ColumnTable:
    ids, avails, creates, settles, statuses, amounts = (
        list(column) for column in zip(*rows)
    ) if rows else ([], [], [], [], [], [])
    return ColumnTable(
        {
            "rcc_id": np.array(ids, dtype=np.int64),
            "avail_id": np.array(avails, dtype=np.int64),
            "rcc_type": np.array(["G"] * len(rows), dtype=object),
            "swlin": np.array(
                [f"{100 + i % 7}-11-00{i % 3}" for i in range(len(rows))],
                dtype=object,
            ),
            "create_date": np.array(creates, dtype=np.int64),
            "settle_date": np.array(settles, dtype=np.int64),
            "status": np.array(statuses, dtype=object),
            "amount": np.array(amounts, dtype=np.float64),
        }
    )


def dataset_of(rccs: ColumnTable) -> NavyMaintenanceDataset:
    return NavyMaintenanceDataset(
        ships=SHIPS, avails=AVAILS, rccs=rccs, seed=11, scaling_factor=2
    )


row_strategy = st.tuples(
    st.integers(0, 12),  # few ids: repeats are common
    st.sampled_from([1, 2, 3, 3, 9]),  # 9 is no avail
    st.integers(990, 1130),
    st.one_of(st.integers(980, 1140), st.just(MISSING_DATE)),
    st.sampled_from(["settled", "settled", "open", "Settled"]),
    st.floats(-50, 500, allow_nan=False),
)


class TestStoreFromColumns:
    def test_paper_scale_matches_the_row_replay(self, full_dataset):
        assert comparable(StreamingRccStore.from_dataset(full_dataset)) == comparable(
            oracle.store_from_dataset(full_dataset)
        )

    def test_small_dataset_matches_and_dataset_round_trips(self, small_dataset):
        store = StreamingRccStore.from_dataset(small_dataset)
        assert comparable(store) == comparable(
            oracle.store_from_dataset(small_dataset)
        )
        rebuilt = store.dataset()
        for name in small_dataset.rccs.column_names:
            assert np.array_equal(
                rebuilt.rccs[name], small_dataset.rccs[name]
            ), name

    @settings(max_examples=300, deadline=None)
    @given(st.lists(row_strategy, max_size=25))
    def test_random_tables_match_state_or_error(self, rows):
        table = rcc_table(rows)

        def columns():
            store = StreamingRccStore(SHIPS, AVAILS)
            store.load_rows(table)
            return store

        assert outcome(columns) == outcome(
            lambda: oracle.store_from_rows(SHIPS, AVAILS, table)
        )
        assert outcome(
            lambda: StreamingRccStore.from_dataset(dataset_of(table))
        ) == outcome(lambda: oracle.store_from_dataset(dataset_of(table)))

    @pytest.mark.parametrize(
        "rows, message",
        [
            (
                [(1, 1, 1000, -1, "open", 1.0), (2, 9, 1001, -1, "open", 1.0)],
                "event references unknown avail 9",
            ),
            (
                [(1, 1, 1000, 990, "settled", 1.0), (2, 9, 1001, -1, "open", 1.0)],
                "RCC 1 settles on day 990, before its creation day 1000",
            ),
            (
                # a repeated id settles its first row's slot
                [(4, 1, 1000, -1, "open", 1.0), (4, 2, 1050, 1020, "settled", 2.0)],
                None,
            ),
            (
                [(4, 1, 1030, -1, "open", 1.0), (4, 2, 1001, 1020, "settled", 2.0)],
                "RCC 4 settles on day 1020, before its creation day 1030",
            ),
            (
                # the repeated row's unknown avail is never looked at
                [(4, 1, 1000, 1010, "settled", 1.0), (4, 9, 1000, 1010, "settled", 1.0)],
                None,
            ),
        ],
    )
    def test_bad_tables_raise_what_the_replay_raises(self, rows, message):
        table = rcc_table(rows)
        got = outcome(lambda: StreamingRccStore.from_dataset(dataset_of(table)))
        assert got == outcome(lambda: oracle.store_from_dataset(dataset_of(table)))
        if message is None:
            assert got[0] == "ok"
        else:
            assert (got[1].__name__, got[2]) == ("StreamStateError", message)

    def test_empty_table(self):
        store = StreamingRccStore(SHIPS, AVAILS)
        store.load_rows(rcc_table([]))
        assert comparable(store) == comparable(
            oracle.store_from_rows(SHIPS, AVAILS, rcc_table([]))
        )

    def test_from_dataset_constructs_no_event(self, small_dataset, monkeypatch):
        made = []
        for cls in (RccCreated, RccSettled):
            init = cls.__init__

            def counting(self, *args, _init=init, **kwargs):
                made.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        StreamingRccStore.from_dataset(small_dataset)
        assert made == []
        oracle.store_from_dataset(small_dataset)
        assert made  # the counter itself works


class TestSnapshotRestore:
    def ingested(self, seed: int) -> StreamIngestor:
        ingestor = StreamIngestor(
            StreamingRccStore(ships=SHIPS, avails=AVAILS.select(AVAILS.column_names))
        )
        events = random_event_dicts(seed, n=120)
        ingestor.apply_batch(
            [WalRecord(seq=seq, event=event) for seq, event in enumerate(events, 1)]
        )
        return ingestor

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_restore_matches_the_row_replay(self, tmp_path, seed):
        path = tmp_path / "snapshot.json"
        save_stream_snapshot(self.ingested(seed), path)
        restored = load_stream_snapshot(path)
        assert comparable(restored.store) == comparable(oracle.snapshot_store(path))

    def test_restore_without_counts_keeps_the_replay_counts(self, tmp_path):
        path = tmp_path / "snapshot.json"
        save_stream_snapshot(self.ingested(5), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["store_counts"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        restored = load_stream_snapshot(path)
        expected = oracle.snapshot_store(path)
        assert restored.store.counts == expected.counts
        assert comparable(restored.store) == comparable(expected)


class TestDecomposition:
    @staticmethod
    def same(dataset: NavyMaintenanceDataset) -> None:
        header, events = dataset_to_events(dataset)
        want_header, want_events = oracle.dataset_to_events(dataset)
        assert json.dumps(header, sort_keys=True) == json.dumps(
            want_header, sort_keys=True
        )
        assert events == want_events
        assert [type(e) for e in events] == [type(e) for e in want_events]
        for got, want in zip(events, want_events):
            assert [type(v) for v in vars(got).values()] == [
                type(v) for v in vars(want).values()
            ]

    def test_paper_scale(self, full_dataset):
        self.same(full_dataset)

    def test_small_dataset(self, small_dataset):
        self.same(small_dataset)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(row_strategy, max_size=25))
    def test_random_tables_with_ties(self, rows):
        self.same(dataset_of(rcc_table(rows)))
