"""Property-based differential test: replay == batch rebuild, everywhere.

Random RCC event streams — including zero-duration RCCs, settle-before-
create arrivals, duplicates and avail extensions — are replayed through
the full WAL → store → MutableIndexAdapter path.  At *every* watermark,
each live-maintained backend must answer the four retrieval sets
byte-identically to an index built from scratch over the store's
current table.  On failure the stream is ddmin-shrunk (reusing the
fuzzer harness of ``tests/index/test_differential_fuzz.py``) so the bug
arrives as a minimal event-list reproducer.

The same streams also drive the serving layer's delta feature refresh:
after every applied batch the live estimator's feature tensor and static
matrix must be bitwise equal to a fresh extraction over the ingestor's
snapshot (:func:`tensor_disagreement`, shrunk the same way), and the
store's sub-snapshot of the touched avails must equal the whole
snapshot restricted to them (:func:`for_avails`).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import DomdService
from repro.data.schema import NavyMaintenanceDataset
from repro.features.static import static_features_for
from repro.features.transform import StatusFeatureExtractor
from repro.index.status_query import StatusQueryEngine
from repro.stream import StreamIngestor, StreamingRccStore, UNSETTLED_T
from repro.stream.mutable import _DESIGNS
from repro.table.table import ColumnTable
from tests.index.test_differential_fuzz import shrink

DESIGNS = tuple(_DESIGNS)
OPS = ("active_ids", "settled_ids", "created_ids", "pending_ids")
PROBES = (-5.0, 0.0, 20.0, 45.0, 70.0, 100.0, 140.0, UNSETTLED_T)

RCC_TYPES = ("G", "N", "NG")
SWLINS = ("111-11-001", "123-45-002", "222-22-003")

#: One avail frame: plan day 1000..1100, so logical t = day - 1000.
#: Avail 3 never gets an RCC from the random streams.
AVAILS = ColumnTable(
    {
        "avail_id": np.array([1, 2, 3], dtype=np.int64),
        "ship_id": np.array([1, 1, 1], dtype=np.int64),
        "plan_start": np.array([1000, 1000, 1000], dtype=np.int64),
        "plan_end": np.array([1100, 1100, 1100], dtype=np.int64),
        "act_start": np.array([1000, 1000, 1000], dtype=np.int64),
        "act_end": np.array([1100, -1, -1], dtype=np.int64),
        "planned_duration": np.array([100, 100, 100], dtype=np.int64),
        "status": np.array(["closed", "ongoing", "ongoing"], dtype=object),
        "delay": np.array([0.0, np.nan, np.nan]),
        "ship_class": np.array(["DDG", "DDG", "DDG"], dtype=object),
        "rmc_id": np.array([2, 2, 2], dtype=np.int64),
        "ship_age": np.array([10, 11, 12], dtype=np.int64),
        "n_prior_avails": np.array([0, 1, 2], dtype=np.int64),
        "avail_type": np.array(["docking", "pierside", "docking"], dtype=object),
        "start_quarter": np.array([1, 1, 1], dtype=np.int64),
        "displacement": np.array([9200.0, 9200.0, 9200.0]),
    }
)
SHIPS = ColumnTable(
    {
        "ship_id": np.array([1], dtype=np.int64),
        "ship_class": np.array(["DDG"], dtype=object),
        "commission_year": np.array([2000], dtype=np.int64),
        "rmc_id": np.array([2], dtype=np.int64),
        "displacement": np.array([9200.0]),
    }
)


def random_event_dicts(seed: int, n: int = 90) -> list[dict]:
    """A seeded raw-event stream with adversarial orderings."""
    rng = np.random.default_rng(seed)
    events: list[dict] = []
    next_id = 0
    created: list[int] = []
    settled: set[int] = set()
    for _ in range(n):
        shape = int(rng.integers(0, 12))
        if shape <= 4 or not created:  # create
            day = int(rng.integers(1000, 1120))
            create = {
                "kind": "rcc_created",
                "rcc_id": next_id,
                "avail_id": int(rng.choice([1, 2])),
                "rcc_type": str(rng.choice(RCC_TYPES)),
                "swlin": str(rng.choice(SWLINS)),
                "create_date": day,
                "amount": float(np.round(rng.uniform(10, 500), 2)),
            }
            if shape == 0:
                # settle-before-create: the settle event goes FIRST and
                # must be buffered until the create lands
                events.append(
                    {"kind": "rcc_settled", "rcc_id": next_id,
                     "settle_date": day + int(rng.integers(0, 40))}
                )
                settled.add(next_id)
            events.append(create)
            created.append((next_id, day))
            next_id += 1
        elif shape <= 7:  # settle an open RCC (zero-duration allowed)
            candidates = [(i, d) for i, d in created if i not in settled]
            if not candidates:
                continue
            rcc_id, day = candidates[int(rng.integers(0, len(candidates)))]
            events.append(
                {"kind": "rcc_settled", "rcc_id": rcc_id,
                 "settle_date": day + int(rng.integers(0, 50))}
            )
            settled.add(rcc_id)
        elif shape == 8:  # duplicate create (idempotent skip)
            rcc_id, day = created[int(rng.integers(0, len(created)))]
            events.append(
                {"kind": "rcc_created", "rcc_id": rcc_id, "avail_id": 1,
                 "rcc_type": "G", "swlin": SWLINS[0], "create_date": day,
                 "amount": 1.0}
            )
        elif shape <= 10:  # amount revision (no index effect)
            rcc_id, _ = created[int(rng.integers(0, len(created)))]
            events.append(
                {"kind": "amount_revised", "rcc_id": rcc_id,
                 "amount": float(np.round(rng.uniform(1, 900), 2))}
            )
        else:  # avail extension: rescales logical times of that avail
            events.append(
                {"kind": "avail_extended", "avail_id": int(rng.choice([1, 2])),
                 "new_plan_end": int(rng.integers(1080, 1200))}
            )
    return events


def replay_disagreement(events: list[dict], check_every: int = 7) -> str | None:
    """None when live == batch at every checked watermark, else a label."""
    store = StreamingRccStore(ships=SHIPS, avails=AVAILS.select(AVAILS.column_names))
    ingestor = StreamIngestor(store, designs=DESIGNS, rebuild_threshold=4)
    for position, event in enumerate(events):
        try:
            ingestor.apply_events([event])
        except Exception as exc:  # noqa: BLE001 — a crash is a failure too
            return f"apply crashed at event {position}: {type(exc).__name__}: {exc}"
        at_watermark = position % check_every == check_every - 1
        if not at_watermark and position != len(events) - 1:
            continue
        table = store.engine_table()
        for design in DESIGNS:
            batch = StatusQueryEngine(table, design=design).index
            live = ingestor.adapters[design]
            for t in PROBES:
                for op in OPS:
                    got = getattr(live, op)(t)
                    want = getattr(batch, op)(t)
                    if not np.array_equal(got, want):
                        return (
                            f"{design}.{op}(t={t}) diverges from batch build "
                            f"at watermark {ingestor.watermark}"
                        )
    return None


def for_avails(dataset, avail_ids) -> NavyMaintenanceDataset:
    """The sub-snapshot of these avails cut from a whole snapshot: ships
    whole, every other row in its relative order (the oracle of
    :meth:`StreamingRccStore.dataset_for`)."""
    ids = np.asarray(sorted(int(a) for a in avail_ids), dtype=np.int64)
    avail_mask = np.isin(np.asarray(dataset.avails["avail_id"], dtype=np.int64), ids)
    rcc_mask = np.isin(np.asarray(dataset.rccs["avail_id"], dtype=np.int64), ids)
    return NavyMaintenanceDataset(
        ships=dataset.ships,
        avails=dataset.avails.filter(avail_mask),
        rccs=dataset.rccs.filter(rcc_mask),
        seed=dataset.seed,
        scaling_factor=dataset.scaling_factor,
    )


def table_difference(got: ColumnTable, want: ColumnTable) -> str | None:
    """None when two tables match column for column, dtypes included."""
    if got.column_names != want.column_names:
        return f"columns {got.column_names} != {want.column_names}"
    for name in got.column_names:
        a, b = got[name], want[name]
        if a.dtype != b.dtype or not np.array_equal(
            a, b, equal_nan=a.dtype.kind == "f"
        ):
            return f"column {name!r} differs"
    return None


def toy_store() -> StreamingRccStore:
    return StreamingRccStore(ships=SHIPS, avails=AVAILS.select(AVAILS.column_names))


def features_disagreement(estimator, dataset) -> str | None:
    """None when a live estimator's bound features are bitwise those of
    a fresh extraction over ``dataset``, else a label."""
    if estimator._features_pending or estimator._tensor_data is None:
        return "live rebind left the features to a lazy full extraction"
    live = estimator._tensor_data
    fresh = StatusFeatureExtractor(dataset, estimator.timeline.t_stars).sweep()
    X_fresh, _, _ = static_features_for(dataset, vocab=estimator._static_vocab)
    if not np.array_equal(live.avail_ids, fresh.avail_ids):
        return "tensor avail order diverges"
    for label, got, want in (
        ("tensor", live.values, fresh.values),
        ("static", estimator._X_static_data, X_fresh),
    ):
        differs = got.view(np.int64) != want.view(np.int64)
        rows = np.flatnonzero(differs.reshape(len(got), -1).any(axis=1))
        if rows.size:
            return f"{label} rows of avails {live.avail_ids[rows].tolist()} diverge"
    return None


def live_service(estimator, store: StreamingRccStore):
    """A service over ``store``'s snapshot with its features bound, so
    every later live rebind takes the delta path."""
    ingestor = StreamIngestor(store)
    service = DomdService(estimator.serve(store.dataset()))
    service.ingest = ingestor
    service._estimator._materialize_features()
    return service, ingestor


def tensor_disagreement(
    estimator, store: StreamingRccStore, events: list, batch_size: int = 7
) -> str | None:
    """Stream ``events`` into a live service in batches; None when after
    every batch the served features equal a fresh extraction."""
    service, ingestor = live_service(estimator, store)
    for lo in range(0, len(events), batch_size):
        try:
            ingestor.apply_events(events[lo : lo + batch_size])
        except Exception as exc:  # noqa: BLE001 — a crash is a failure too
            return f"apply crashed at event {lo}+: {type(exc).__name__}: {exc}"
        service.rebind(ingestor.take_touched())
        label = features_disagreement(service._estimator, ingestor.dataset())
        if label is not None:
            return f"{label} at watermark {ingestor.watermark}"
    return None


def assert_tensor_agreement(estimator, make_store, events: list) -> None:
    def predicate(candidate):
        return tensor_disagreement(estimator, make_store(), candidate)

    label = predicate(events)
    if label is None:
        return
    minimal = shrink(events, predicate=predicate)
    pytest.fail(
        f"live features diverge from a fresh extraction: {label}\n"
        f"minimal reproducer ({len(minimal)} of {len(events)} events):\n"
        f"{json.dumps(minimal, indent=2, default=str)}"
    )


def assert_replay_agreement(events: list[dict]) -> None:
    label = replay_disagreement(events)
    if label is None:
        return
    minimal = shrink(events, predicate=replay_disagreement)
    pytest.fail(
        f"replay disagreement: {label}\n"
        f"minimal reproducer ({len(minimal)} of {len(events)} events):\n"
        f"{json.dumps(minimal, indent=2)}"
    )


class TestReplayDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 13, 2025])
    def test_random_streams_agree_at_every_watermark(self, seed):
        assert_replay_agreement(random_event_dicts(seed))

    def test_zero_duration_and_settle_before_create(self):
        events = [
            # settle arrives before its create: buffered, then applied
            {"kind": "rcc_settled", "rcc_id": 0, "settle_date": 1010},
            {"kind": "rcc_created", "rcc_id": 0, "avail_id": 1,
             "rcc_type": "G", "swlin": SWLINS[0], "create_date": 1010,
             "amount": 5.0},  # zero duration: settles its creation day
            {"kind": "rcc_created", "rcc_id": 1, "avail_id": 1,
             "rcc_type": "N", "swlin": SWLINS[1], "create_date": 1020,
             "amount": 7.0},
            {"kind": "rcc_settled", "rcc_id": 1, "settle_date": 1020},
        ]
        assert_replay_agreement(events)
        # semantics: both stand settled at their (identical) instant
        store = StreamingRccStore(
            ships=SHIPS, avails=AVAILS.select(AVAILS.column_names)
        )
        ingestor = StreamIngestor(store, designs=("avl",))
        ingestor.apply_events(events)
        assert store.counts["deferred"] == 1
        assert len(store.orphans) == 0
        rccs = store.rcc_table()
        assert list(rccs["status"]) == ["settled", "settled"]

    def test_avail_extension_rescales_whole_avail(self):
        events = [
            {"kind": "rcc_created", "rcc_id": 0, "avail_id": 1,
             "rcc_type": "G", "swlin": SWLINS[0], "create_date": 1050,
             "amount": 5.0},
            {"kind": "rcc_settled", "rcc_id": 0, "settle_date": 1080},
            # plan 100 -> 160 days: logical times shrink by 100/160
            {"kind": "avail_extended", "avail_id": 1, "new_plan_end": 1160},
        ]
        assert_replay_agreement(events)
        store = StreamingRccStore(
            ships=SHIPS, avails=AVAILS.select(AVAILS.column_names)
        )
        ingestor = StreamIngestor(store, designs=("sorted_array",))
        ingestor.apply_events(events)
        starts, ends, _ = store.logical_triples()
        assert starts[0] == pytest.approx(50 / 160 * 100)
        assert ends[0] == pytest.approx(80 / 160 * 100)

    def test_duplicate_events_are_idempotent(self):
        base = {"kind": "rcc_created", "rcc_id": 0, "avail_id": 1,
                "rcc_type": "G", "swlin": SWLINS[0], "create_date": 1010,
                "amount": 5.0}
        settle = {"kind": "rcc_settled", "rcc_id": 0, "settle_date": 1030}
        assert_replay_agreement([base, base, settle, settle, base])

    def test_shrinker_integration_on_planted_failure(self):
        """The ddmin predicate plumbing minimizes a planted failure."""
        events = random_event_dicts(3, n=30)
        poison = events[11]

        def planted(candidate):
            return "planted" if poison in candidate else None

        minimal = shrink(events, predicate=planted)
        assert minimal == [poison]


class TestLateArrivalRoundTrip:
    """dataset -> out-of-order stream -> replay == original dataset."""

    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.data import SyntheticNmdConfig, generate_dataset

        return generate_dataset(
            SyntheticNmdConfig(
                n_ships=4,
                n_closed_avails=12,
                n_ongoing_avails=1,
                target_n_rccs=400,
                seed=17,
            )
        )

    def test_perturbed_stream_reconstructs_identical_dataset(self, dataset):
        from repro.stream import dataset_from_stream, dataset_to_events
        from repro.stream.events import perturb_event_order

        header, events = dataset_to_events(dataset)
        shuffled = perturb_event_order(
            events, seed=99, late_fraction=0.3, max_displacement=400
        )
        # the perturbation genuinely reorders ...
        assert shuffled != events
        assert sorted(map(repr, shuffled)) == sorted(map(repr, events))
        rebuilt = dataset_from_stream(header, shuffled)
        # ... yet the replay converges to the exact same snapshot
        assert rebuilt.fingerprint() == dataset.fingerprint()

    def test_perturbed_replay_agrees_with_batch(self, dataset):
        """Live index maintenance survives out-of-order delivery."""
        from repro.index.status_query import StatusQueryEngine
        from repro.stream import (
            StreamingRccStore,
            dataset_to_events,
            event_to_dict,
        )
        from repro.stream.events import perturb_event_order

        header, events = dataset_to_events(dataset)
        shuffled = perturb_event_order(
            events, seed=7, late_fraction=0.25, max_displacement=200
        )
        store = StreamingRccStore.from_header(header)
        ingestor = StreamIngestor(store, designs=DESIGNS)
        event_dicts = [event_to_dict(event) for event in shuffled]

        def late_disagreement(candidate):
            probe_store = StreamingRccStore.from_header(header)
            probe = StreamIngestor(probe_store, designs=DESIGNS)
            try:
                probe.apply_events(candidate)
            except Exception as exc:  # noqa: BLE001
                return f"apply crashed: {type(exc).__name__}: {exc}"
            table = probe_store.engine_table()
            for design in DESIGNS:
                batch = StatusQueryEngine(table, design=design).index
                live = probe.adapters[design]
                for t in PROBES:
                    for op in OPS:
                        if not np.array_equal(
                            getattr(live, op)(t), getattr(batch, op)(t)
                        ):
                            return f"{design}.{op}(t={t}) diverges"
            return None

        label = late_disagreement(event_dicts)
        if label is not None:
            minimal = shrink(event_dicts, predicate=late_disagreement)
            pytest.fail(
                f"late-arrival replay disagreement: {label}\n"
                f"minimal reproducer ({len(minimal)} of {len(event_dicts)} "
                f"events):\n{json.dumps(minimal, indent=2)}"
            )
        # the orphan path was actually exercised
        ingestor.apply_events(event_dicts)
        assert store.counts["deferred"] > 0
        assert not store.orphans


def sub_snapshot_disagreement(events: list[dict], seed: int = 0) -> str | None:
    """None when, after every event, the store's sub-snapshot of the
    touched avails — and of random id sets — equals the whole snapshot
    restricted to them."""
    rng = np.random.default_rng(seed)
    store = toy_store()
    ingestor = StreamIngestor(store)
    for position, event in enumerate(events):
        try:
            ingestor.apply_events([event])
        except Exception as exc:  # noqa: BLE001 — a crash is a failure too
            return f"apply crashed at event {position}: {type(exc).__name__}: {exc}"
        whole = store.dataset()
        # 99 is no avail of the store: ignored on both sides
        picks = [set(), {99}, set(rng.choice([1, 2, 3, 99], size=2).tolist())]
        for ids in [ingestor.take_touched(), *picks]:
            got, want = store.dataset_for(ids), for_avails(whole, ids)
            for label in ("avails", "rccs"):
                diff = table_difference(getattr(got, label), getattr(want, label))
                if diff is not None:
                    return f"{label} of avails {sorted(ids)} at event {position}: {diff}"
            if got.ships is not whole.ships:
                return "sub-snapshot does not share the ship table"
    return None


class TestStoreSubSnapshot:
    """``StreamingRccStore.dataset_for`` == ``dataset()`` cut to the avails."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 13, 2025])
    def test_random_streams(self, seed):
        # creates, settle-before-create orphans, duplicates, revisions
        # and avail extensions
        events = random_event_dicts(seed)
        label = sub_snapshot_disagreement(events, seed)
        if label is None:
            return
        minimal = shrink(events, predicate=lambda evs: sub_snapshot_disagreement(evs, seed))
        pytest.fail(
            f"store sub-snapshot diverges: {label}\n"
            f"minimal reproducer ({len(minimal)} of {len(events)} events):\n"
            f"{json.dumps(minimal, indent=2)}"
        )

    def test_rows_follow_rcc_id_not_arrival(self):
        """Late creates land in rcc_id order, as in the whole snapshot."""
        store = toy_store()
        for rcc_id, day in ((5, 1030), (2, 1010), (9, 1005), (1, 1040)):
            store.apply(_create(rcc_id, 1, day))
        assert list(store.dataset_for([1]).rccs["rcc_id"]) == [1, 2, 5, 9]


def _create(rcc_id, avail_id, day, amount=10.0, rcc_type="G", swlin=SWLINS[0]):
    return {"kind": "rcc_created", "rcc_id": rcc_id, "avail_id": avail_id,
            "rcc_type": rcc_type, "swlin": swlin, "create_date": day,
            "amount": amount}


class TestLiveFeatureDifferential:
    """Delta feature refresh == fresh extraction after every batch."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 13, 2025])
    def test_random_streams(self, feature_estimator, seed):
        assert_tensor_agreement(
            feature_estimator, toy_store, random_event_dicts(seed)
        )

    def test_amount_revisions(self, feature_estimator):
        events = [
            _create(0, 1, 1010, amount=5.0),
            _create(1, 2, 1030, amount=7.0, rcc_type="NG", swlin=SWLINS[2]),
            {"kind": "rcc_settled", "rcc_id": 0, "settle_date": 1040},
            # no index mutation, but amounts feed every amount feature
            {"kind": "amount_revised", "rcc_id": 0, "amount": 55.5},
            {"kind": "amount_revised", "rcc_id": 1, "amount": 0.25},
            # revision before its create: buffered, drained on create
            {"kind": "amount_revised", "rcc_id": 2, "amount": 99.0},
            _create(2, 1, 1050, amount=1.0),
        ]
        for batch_size in (1, 3, len(events)):
            label = tensor_disagreement(
                feature_estimator, toy_store(), events, batch_size=batch_size
            )
            assert label is None, label

    def test_avail_extensions_with_and_without_rccs(self, feature_estimator):
        events = [
            _create(0, 1, 1050, amount=5.0),
            {"kind": "rcc_settled", "rcc_id": 0, "settle_date": 1080},
            _create(1, 1, 1060, amount=8.0, rcc_type="N", swlin=SWLINS[1]),
            # rescales avail 1's RCCs and its planned_duration
            {"kind": "avail_extended", "avail_id": 1, "new_plan_end": 1160},
            # avail 3 has no RCCs: only its static row changes
            {"kind": "avail_extended", "avail_id": 3, "new_plan_end": 1250},
            # shrinking the plan moves RCCs past t*=100
            {"kind": "avail_extended", "avail_id": 1, "new_plan_end": 1040},
        ]
        for batch_size in (1, 2, len(events)):
            label = tensor_disagreement(
                feature_estimator, toy_store(), events, batch_size=batch_size
            )
            assert label is None, label

    def test_duplicates(self, feature_estimator):
        create = _create(0, 1, 1010, amount=5.0)
        settle = {"kind": "rcc_settled", "rcc_id": 0, "settle_date": 1030}
        extend = {"kind": "avail_extended", "avail_id": 2, "new_plan_end": 1150}
        events = [create, create, settle, extend, settle, create, extend]
        label = tensor_disagreement(
            feature_estimator, toy_store(), events, batch_size=1
        )
        assert label is None, label
        # an all-duplicate batch touches nothing and re-extracts nothing
        service, ingestor = live_service(feature_estimator, toy_store())
        ingestor.apply_events(events[:4])
        service.rebind(ingestor.take_touched())
        bound = service._estimator._tensor_data
        ingestor.apply_events([create, settle, extend])
        touched = ingestor.take_touched()
        assert touched == frozenset()
        service.rebind(touched)
        assert service._estimator._tensor_data is bound

    def test_artefact_without_static_vocabulary(self, feature_estimator):
        """Artefacts saved before the fit-time vocabulary was persisted
        encode statics against the whole snapshot's labels."""
        import copy

        legacy = copy.copy(feature_estimator)
        legacy._static_vocab = None
        assert_tensor_agreement(legacy, toy_store, random_event_dicts(13))

    def test_late_arrival_orphans(self, feature_estimator):
        from repro.data import SyntheticNmdConfig, generate_dataset
        from repro.stream import dataset_to_events, event_to_dict
        from repro.stream.events import perturb_event_order

        dataset = generate_dataset(
            SyntheticNmdConfig(
                n_ships=4, n_closed_avails=12, n_ongoing_avails=1,
                target_n_rccs=400, seed=17,
            )
        )
        header, events = dataset_to_events(dataset)
        shuffled = perturb_event_order(
            events, seed=7, late_fraction=0.25, max_displacement=200
        )
        event_dicts = [event_to_dict(event) for event in shuffled]
        assert_tensor_agreement(
            feature_estimator,
            lambda: StreamingRccStore.from_header(header),
            event_dicts,
        )

    def test_restart_reproduces_live_feature_key(self, feature_estimator):
        """A restart replaying the same WAL prefix in one batch answers
        with the same feature key and bitwise the same features."""
        events = random_event_dicts(5, n=40)
        query = {"type": "domd_query", "avail_ids": [2], "t_star": 50.0}
        service, ingestor = live_service(feature_estimator, toy_store())
        boot_key = service.handle(query)["provenance"]["feature_key"]
        assert "@" not in boot_key
        keys = []
        for lo in range(0, len(events), 6):
            ingestor.apply_events(events[lo : lo + 6])
            service.rebind(ingestor.take_touched())
            keys.append(service.handle(query)["provenance"]["feature_key"])
        assert keys[-1] == f"{boot_key}@{ingestor.watermark}"
        assert len(set(keys)) == len(keys)

        restarted, replayed = live_service(feature_estimator, toy_store())
        replayed.apply_events(events)
        restarted.rebind(replayed.take_touched())
        response = restarted.handle(query)
        assert response["watermark"] == ingestor.watermark
        assert response["provenance"]["feature_key"] == keys[-1]
        assert np.array_equal(
            restarted._estimator._tensor_data.values.view(np.int64),
            service._estimator._tensor_data.values.view(np.int64),
        )

    def test_live_rebinds_skip_fingerprints_and_the_cache(
        self, feature_estimator, monkeypatch
    ):
        from repro.data.schema import NavyMaintenanceDataset
        from repro.runtime.cache import ArtifactCache

        events = random_event_dicts(2, n=30)
        service, ingestor = live_service(feature_estimator, toy_store())
        service.handle({"type": "domd_query", "avail_ids": [1], "t_star": 50.0})
        calls = {"fingerprint": 0, "cache": 0}
        fingerprint = NavyMaintenanceDataset.fingerprint
        lookup = ArtifactCache.get_or_build

        def counted_fingerprint(self):
            calls["fingerprint"] += 1
            return fingerprint(self)

        def counted_lookup(self, key, build):
            calls["cache"] += 1
            return lookup(self, key, build)

        monkeypatch.setattr(NavyMaintenanceDataset, "fingerprint", counted_fingerprint)
        monkeypatch.setattr(ArtifactCache, "get_or_build", counted_lookup)
        for lo in range(0, len(events), 5):
            ingestor.apply_events(events[lo : lo + 5])
            service.rebind(ingestor.take_touched())
            response = service.handle(
                {"type": "domd_query", "avail_ids": [1, 2], "t_star": 50.0}
            )
            assert response["ok"], response
        assert calls == {"fingerprint": 0, "cache": 0}

    def test_live_refresh_reads_only_the_touched_avails(
        self, feature_estimator, monkeypatch
    ):
        """Neither a refresh nor a request on the live estimator builds
        the whole snapshot or the whole RCC table."""
        from repro.errors import SchemaError

        service, ingestor = live_service(feature_estimator, toy_store())
        calls = {"dataset": 0, "rcc_table": 0}
        for name in calls:
            original = getattr(StreamingRccStore, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(StreamingRccStore, name, counted)
        events = random_event_dicts(2, n=30)
        requests = [
            {"type": "domd_query", "avail_ids": [1, 2], "t_star": 50.0},
            {"type": "explain", "avail_id": 2, "t_star": 30.0},
            {"type": "fleet_status", "date": "1972-10-01"},
            {"type": "metrics", "avail_ids": [1]},
        ]
        for lo in range(0, len(events), 5):
            ingestor.apply_events(events[lo : lo + 5])
            service.rebind(ingestor.take_touched())
            for request in requests:
                response = service.handle(request)
                assert response["ok"], response
        assert calls == {"dataset": 0, "rcc_table": 0}
        # The live estimator has no RCC table to read from a stale
        # watermark: asking names the ingestor's whole snapshot instead.
        with pytest.raises(SchemaError, match=r"StreamIngestor\.dataset\(\)"):
            service._estimator._dataset.rccs

    def test_untouched_rows_are_shared_and_versions_never_change(
        self, feature_estimator
    ):
        service, ingestor = live_service(feature_estimator, toy_store())
        batches = [
            [_create(0, 1, 1010, amount=5.0)],
            [_create(1, 2, 1020), {"kind": "rcc_settled", "rcc_id": 0,
                                   "settle_date": 1030}],
            [{"kind": "avail_extended", "avail_id": 3, "new_plan_end": 1150}],
        ]
        for batch in batches:
            previous = service._estimator
            tensor, X_static = previous._tensor_data, previous._X_static_data
            rows_before = [row.copy() for row in tensor._rows]
            static_before = X_static.copy()
            ingestor.apply_events(batch)
            touched = ingestor.take_touched()
            service.rebind(touched)
            current = service._estimator
            assert current is not previous
            for row, avail in enumerate(tensor.avail_ids):
                shared = np.shares_memory(
                    current._tensor_data._rows[row], tensor._rows[row]
                )
                assert shared == (int(avail) not in touched), avail
            # the version requests may still hold is bitwise unchanged
            for before, row in zip(rows_before, tensor._rows):
                assert np.array_equal(before.view(np.int64), row.view(np.int64))
            assert np.array_equal(
                static_before.view(np.int64), X_static.view(np.int64)
            )
            assert previous._tensor_data is tensor
            label = features_disagreement(current, ingestor.dataset())
            assert label is None, label

    def test_rebind_before_features_are_bound_binds_the_boot_snapshot(
        self, feature_estimator
    ):
        """A service that ingests before its first read binds the boot
        snapshot's features, then splices: it answers like a fresh
        extraction and is never left lazy."""
        store = toy_store()
        ingestor = StreamIngestor(store)
        boot = feature_estimator.serve(store.dataset())
        service = DomdService(boot)
        service.ingest = ingestor
        ingestor.apply_events(random_event_dicts(1, n=12))
        service.rebind(ingestor.take_touched())
        assert not boot._features_pending and boot._tensor_data is not None
        label = features_disagreement(service._estimator, ingestor.dataset())
        assert label is None, label
        assert service._estimator.provenance()["feature_key"].endswith(
            f"@{ingestor.watermark}"
        )
        query = {"type": "domd_query", "avail_ids": [1, 2], "t_star": 60.0}
        fresh = DomdService(feature_estimator.serve(ingestor.dataset()))
        assert service.handle(query)["result"] == fresh.handle(query)["result"]
