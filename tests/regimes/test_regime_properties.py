"""Cross-regime property suite: invariants, index parity, replay.

Every named stress regime must satisfy the same contracts the default
generator does:

(a) dataset invariants — schema, cardinality, date ordering, logical
    triples, seed determinism;
(b) bitwise four-design index agreement and scalar<->columnar executor
    parity (ddmin-shrunk reproducer on failure);
(c) live == batch streaming replay at watermarks — index answers and,
    after every applied batch, the live estimator's delta-refreshed
    feature tensor and static matrix — including the out-of-order
    ``late_arrival`` delivery, and dataset<->stream round-trips through
    a real file;
(d) the one-pass feature sweep bitwise equal to the per-timestamp sweep
    it replaced, over every grid shape and avail blocking.

The learnability gate lives in ``test_regime_quality.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.regimes import write_regime_stream
from repro.data.schema import (
    AVAIL_COLUMNS,
    RCC_COLUMNS,
    SHIP_COLUMNS,
    NavyMaintenanceDataset,
)
from repro.features.registry import FeatureGridSpec
from repro.features.transform import StatusFeatureExtractor
from repro.index.base import validate_triples
from repro.index.status_query import StatusQueryEngine
from repro.stream import (
    StreamIngestor,
    StreamingRccStore,
    dataset_from_stream,
    event_to_dict,
    read_event_stream,
)
from tests.features.sweep_oracle import oracle_sweep
from tests.index.test_columnar_differential import executor_disagreement
from tests.index.test_differential_fuzz import disagreement, shrink
from tests.regimes.conftest import fail_with_reproducer, regime_params
from tests.stream.test_ingest_differential import (
    OPS,
    PROBES,
    tensor_disagreement,
)

DESIGNS = ("naive", "avl", "interval", "sorted_array")


def index_events(dataset) -> list[dict]:
    """Dataset RCCs as the differential fuzzer's event-dict shape."""
    rccs = dataset.rccs_with_logical_times()
    return [
        {
            "rcc_type": str(rcc_type),
            "swlin": str(swlin),
            "t_start": float(t_start),
            "t_end": float(t_end),
            "amount": float(amount),
        }
        for rcc_type, swlin, t_start, t_end, amount in zip(
            rccs["rcc_type"],
            rccs["swlin"],
            rccs["t_start"],
            rccs["t_end"],
            rccs["amount"],
        )
    ]


def replay_disagreement(header, events, check_every: int | None = None):
    """None when live == batch at every checked watermark, else a label."""
    if check_every is None:
        check_every = max(1, len(events) // 8)
    store = StreamingRccStore.from_header(header)
    ingestor = StreamIngestor(store, designs=DESIGNS)
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
                    if not np.array_equal(
                        getattr(live, op)(t), getattr(batch, op)(t)
                    ):
                        return (
                            f"{design}.{op}(t={t}) diverges from batch "
                            f"build at watermark {ingestor.watermark}"
                        )
    return None


# ----------------------------------------------------------------------
# (a) dataset invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("regime", regime_params())
class TestDatasetInvariants:
    def test_schema_and_cardinality(self, regime, regime_cache):
        spec, dataset, _, _ = regime_cache(regime)
        for table, expected in (
            (dataset.ships, SHIP_COLUMNS),
            (dataset.avails, AVAIL_COLUMNS),
            (dataset.rccs, RCC_COLUMNS),
        ):
            assert tuple(table.column_names) == tuple(expected)
        config = dataset.notes["config"]
        stats = dataset.statistics()
        assert stats["n_ships"] == config.n_ships
        assert stats["n_closed_avails"] == config.n_closed_avails
        assert stats["n_rccs"] == config.target_n_rccs
        # every avail emits at least one RCC
        assert set(np.asarray(dataset.avails["avail_id"])) == set(
            np.asarray(dataset.rccs["avail_id"])
        )
        assert dataset.notes["regime"] == spec.name

    def test_date_ordering(self, regime, regime_cache):
        _, dataset, _, _ = regime_cache(regime)
        avails, rccs = dataset.avails, dataset.rccs
        plan_start = np.asarray(avails["plan_start"])
        plan_end = np.asarray(avails["plan_end"])
        act_start = np.asarray(avails["act_start"])
        act_end = np.asarray(avails["act_end"])
        closed = np.asarray(avails["status"]) == "closed"
        assert (plan_end > plan_start).all()
        assert (act_start >= plan_start).all()
        assert (act_end[closed] > act_start[closed]).all()
        # RCCs are created inside their avail and settle strictly later
        start_of = dict(zip(np.asarray(avails["avail_id"]), act_start))
        rcc_start = np.array(
            [start_of[a] for a in np.asarray(rccs["avail_id"])]
        )
        create = np.asarray(rccs["create_date"])
        settle = np.asarray(rccs["settle_date"])
        assert (create >= rcc_start).all()
        assert (settle > create).all()

    def test_logical_triples_validate(self, regime, regime_cache):
        _, dataset, _, _ = regime_cache(regime)
        rccs = dataset.rccs_with_logical_times()
        validate_triples(
            np.asarray(rccs["t_start"], dtype=np.float64),
            np.asarray(rccs["t_end"], dtype=np.float64),
            np.asarray(rccs["rcc_id"], dtype=np.int64),
        )

    def test_seed_determinism(self, regime, regime_cache, tmp_path):
        """Same seed + regime -> byte-identical dataset AND stream file."""
        from repro.data.regimes import generate_regime_dataset
        from tests.regimes.conftest import TEST_BASE

        spec, dataset, _, _ = regime_cache(regime)
        again = generate_regime_dataset(spec, base=TEST_BASE)
        assert again.fingerprint() == dataset.fingerprint()
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_regime_stream(spec, dataset, first)
        write_regime_stream(spec, again, second)
        assert first.read_bytes() == second.read_bytes()


# ----------------------------------------------------------------------
# (b) four-design agreement + scalar<->columnar parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("regime", regime_params())
class TestIndexAgreement:
    def test_four_designs_agree(self, regime, regime_cache):
        _, dataset, _, _ = regime_cache(regime)
        events = index_events(dataset)
        label = disagreement(events)
        if label is None:
            return
        minimal = shrink(events, predicate=disagreement)
        fail_with_reproducer(regime, "index-agreement", label, minimal, len(events))

    def test_scalar_columnar_parity(self, regime, regime_cache):
        _, dataset, _, _ = regime_cache(regime)
        events = index_events(dataset)
        label = executor_disagreement(events)
        if label is None:
            return
        minimal = shrink(events, predicate=executor_disagreement)
        fail_with_reproducer(regime, "columnar-parity", label, minimal, len(events))


# ----------------------------------------------------------------------
# (c) streaming replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("regime", regime_params())
class TestStreamingReplay:
    def test_live_matches_batch_at_watermarks(self, regime, regime_cache):
        _, _, header, events = regime_cache(regime)
        label = replay_disagreement(header, events)
        if label is None:
            return
        minimal = shrink(
            events, predicate=lambda evs: replay_disagreement(header, evs)
        )
        fail_with_reproducer(
            regime,
            "replay",
            label,
            [event_to_dict(event) for event in minimal],
            len(events),
        )

    def test_live_features_match_fresh_extraction(
        self, regime, regime_cache, feature_estimator
    ):
        _, _, header, events = regime_cache(regime)
        batch_size = max(1, len(events) // 40)

        def predicate(candidate):
            return tensor_disagreement(
                feature_estimator,
                StreamingRccStore.from_header(header),
                candidate,
                batch_size=batch_size,
            )

        label = predicate(events)
        if label is None:
            return
        minimal = shrink(events, predicate=predicate)
        fail_with_reproducer(
            regime,
            "features",
            label,
            [event_to_dict(event) for event in minimal],
            len(events),
        )

    def test_stream_file_roundtrip_reconstructs_dataset(
        self, regime, regime_cache, tmp_path
    ):
        """write -> read -> replay reproduces the exact dataset content.

        For stream-perturbing regimes (late_arrival) the delivery order
        in the file is out of order; the order-tolerant store must still
        converge to the identical snapshot.
        """
        spec, dataset, _, _ = regime_cache(regime)
        path = tmp_path / "events.jsonl"
        write_regime_stream(spec, dataset, path)
        header, events = read_event_stream(path)
        rebuilt = dataset_from_stream(header, events)
        assert rebuilt.fingerprint() == dataset.fingerprint()

    def test_late_arrival_is_actually_out_of_order(self, regime, regime_cache):
        """Stream-perturbing regimes must exercise the orphan buffer."""
        spec, _, header, events = regime_cache(regime)
        if not spec.stream:
            pytest.skip("regime does not perturb delivery order")
        store = StreamingRccStore.from_header(header)
        for event in events:
            store.apply(event)
        # settles genuinely arrived before their creates ...
        assert store.counts["deferred"] > 0
        # ... and every orphan was eventually drained
        assert not store.orphans


# ----------------------------------------------------------------------
# (d) one-pass feature sweep == per-timestamp sweep
# ----------------------------------------------------------------------
#: (grid, timeline) shapes the sweep oracle runs over: the paper's grid,
#: a timeline past t*=100 with uneven steps, the depth-2 grid, and a
#: grid without the specials.
SWEEP_SHAPES = (
    (FeatureGridSpec.default(), None),
    (FeatureGridSpec.default(), np.array([0.0, 7.5, 20.0, 50.0, 100.0, 140.0])),
    (FeatureGridSpec.deep(), None),
    (FeatureGridSpec.compact(), None),
)


def sweep_disagreement(dataset, rows: list[int]) -> str | None:
    """None when the sweep over ``dataset``'s RCC ``rows`` is bitwise the
    per-timestamp oracle's — whole, and for one- and five-avail subsets
    (one derive block, and a block boundary inside the whole dataset)."""
    rccs = dataset.rccs.take(np.asarray(rows, dtype=np.int64))
    avail_ids = np.asarray(dataset.avails["avail_id"])
    subsets = [avail_ids, avail_ids[:1], avail_ids[-5:]]
    for ids in subsets:
        keep = np.isin(avail_ids, ids)
        sub = NavyMaintenanceDataset(
            ships=dataset.ships,
            avails=dataset.avails.filter(keep),
            rccs=rccs.filter(np.isin(np.asarray(rccs["avail_id"]), ids)),
        )
        for grid, t_stars in SWEEP_SHAPES:
            extractor = StatusFeatureExtractor(sub, t_stars, grid=grid)
            got = extractor.sweep().values
            want = oracle_sweep(extractor).values
            if got.shape != want.shape or not np.array_equal(
                got.view(np.int64), want.view(np.int64)
            ):
                return (
                    f"sweep of {len(ids)} avail(s) diverges from the "
                    f"per-timestamp oracle (depth {grid.swlin_depth}, "
                    f"{len(extractor.t_stars)} timestamps)"
                )
    return None


@pytest.mark.parametrize("regime", regime_params())
class TestFeatureSweep:
    def test_sweep_matches_per_timestamp_oracle(self, regime, regime_cache):
        _, dataset, _, _ = regime_cache(regime)
        rows = list(range(dataset.n_rccs))
        label = sweep_disagreement(dataset, rows)
        if label is None:
            return
        minimal = shrink(rows, predicate=lambda r: sweep_disagreement(dataset, r))
        fail_with_reproducer(
            regime,
            "feature-sweep",
            label,
            [dataset.rccs.row(row) for row in minimal],
            len(rows),
            unit="rccs",
        )

class TestCliAcceptance:
    def test_generate_regime_then_replay_verify(self, tmp_path):
        """repro generate --regime surge --events-out ... must replay
        with live == batch for all four designs."""
        import io
        import json

        from repro.cli import main

        data_dir = tmp_path / "data"
        events_path = tmp_path / "events.jsonl"
        wal_path = tmp_path / "wal.jsonl"

        def run(*argv):
            out = io.StringIO()
            code = main(list(argv), out=out)
            lines = [
                json.loads(line)
                for line in out.getvalue().splitlines()
                if line.strip()
            ]
            return code, lines[-1] if lines else {}

        code, stats = run(
            "generate", "--out", str(data_dir), "--seed", "29",
            "--regime", "surge", "--ships", "6", "--avails", "14",
            "--ongoing", "1", "--rccs", "420",
            "--events-out", str(events_path),
        )
        assert code == 0
        assert stats["regime"] == "surge"
        assert stats["events_written"] == 840

        code, _ = run(
            "ingest", "append", "--wal", str(wal_path),
            "--events", str(events_path),
        )
        assert code == 0

        code, summary = run(
            "ingest", "replay", "--wal", str(wal_path),
            "--stream", str(events_path),
            "--design", "naive", "--design", "avl",
            "--design", "interval", "--design", "sorted_array",
            "--verify",
        )
        assert code == 0
        assert summary["verify"]["ok"] is True
        assert summary["status"]["n_rccs"] == 420
