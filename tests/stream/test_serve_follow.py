"""Live serving: watermark envelopes, ingestion gauges, WAL following.

Ties the streaming subsystem into the serving stack: ok responses carry
the watermark they answered at, ``metrics``/``health`` expose
``repro_ingest_*`` gauges, and a :class:`WalFollower` tails a WAL into a
running service under the read/write gate, rebinding the estimator so
later queries see the refreshed dataset.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import DomdEstimator, DomdService, paper_final_config
from repro.errors import SchemaError
from repro.runtime import ExecutionContext
from repro.runtime.concurrency import ReadWriteGate
from repro.stream import (
    StreamIngestor,
    StreamingRccStore,
    WalFollower,
    WalWriter,
)


@pytest.fixture(scope="module")
def fitted(request):
    dataset = request.getfixturevalue("small_dataset")
    splits = request.getfixturevalue("small_splits")
    context = ExecutionContext(seed=0)
    estimator = DomdEstimator(
        paper_final_config(window_pct=25), context=context
    ).fit(dataset, splits.train_ids)
    return dataset, splits, estimator


def live_events(dataset, n: int = 6) -> list[dict]:
    """Fresh rcc_created events against the dataset's first avail."""
    avails = dataset.avails
    avail_id = int(avails["avail_id"][0])
    act_start = int(avails["act_start"][0])
    next_id = int(np.max(dataset.rccs["rcc_id"])) + 1
    return [
        {
            "kind": "rcc_created",
            "rcc_id": next_id + i,
            "avail_id": avail_id,
            "rcc_type": "G",
            "swlin": "111-11-001",
            "create_date": act_start + 3 + i,
            "amount": 10.0 + i,
        }
        for i in range(n)
    ]


class CountingGate(ReadWriteGate):
    """A gate that counts its write sections."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    @contextmanager
    def write(self):
        self.writes += 1
        with super().write():
            yield


def make_service(dataset, splits, estimator):
    context = ExecutionContext(seed=0)
    served = estimator.serve(dataset)
    served.context = context
    service = DomdService(served, context=context)
    ingestor = StreamIngestor(
        StreamingRccStore.from_dataset(dataset), designs=("avl",)
    )
    service.ingest = ingestor
    return service, ingestor, context


class TestWatermarkEnvelope:
    def test_ok_responses_carry_current_watermark(self, fitted):
        dataset, splits, estimator = fitted
        service, ingestor, _ = make_service(dataset, splits, estimator)
        query = {
            "type": "domd_query",
            "avail_ids": [int(splits.test_ids[0])],
            "t_star": 50.0,
        }
        response = service.handle(query)
        assert response["ok"] and response["watermark"] == 0
        ingestor.apply_events(live_events(dataset, n=4))
        response = service.handle(query)
        assert response["ok"] and response["watermark"] == 4

    def test_error_envelope_has_no_watermark(self, fitted):
        dataset, splits, estimator = fitted
        service, _, _ = make_service(dataset, splits, estimator)
        response = service.handle({"type": "no_such_op"})
        assert not response["ok"]
        assert "watermark" not in response


class TestIngestExpositions:
    def test_prometheus_gauges(self, fitted):
        dataset, splits, estimator = fitted
        service, ingestor, _ = make_service(dataset, splits, estimator)
        ingestor.apply_events(live_events(dataset, n=3))
        ingestor.note_wal_end(5)
        text = service.handle({"type": "metrics", "format": "prometheus"})[
            "result"
        ]["exposition"]
        assert "repro_ingest_watermark_seq 3" in text
        assert "repro_ingest_wal_end_seq 5" in text
        assert "repro_ingest_lag_events 2" in text
        assert 'repro_ingest_rebuilds{design="avl"} 0' in text

    def test_json_snapshot_and_health_blocks(self, fitted):
        dataset, splits, estimator = fitted
        service, ingestor, _ = make_service(dataset, splits, estimator)
        ingestor.apply_events(live_events(dataset, n=2))
        snapshot = service.handle({"type": "metrics", "format": "json"})["result"]
        assert snapshot["ingest"]["watermark_seq"] == 2
        assert snapshot["ingest"]["applied_events"] == 2
        health = service.handle({"type": "health"})["result"]
        assert health["ingest"]["watermark_seq"] == 2
        assert health["ingest"]["designs"] == ["avl"]

    def test_expositions_without_ingest_unchanged(self, fitted):
        dataset, splits, estimator = fitted
        context = ExecutionContext(seed=0)
        service = DomdService(estimator.serve(dataset), context=context)
        text = service.handle({"type": "metrics", "format": "prometheus"})[
            "result"
        ]["exposition"]
        assert "repro_ingest_" not in text
        assert "ingest" not in service.handle({"type": "health"})["result"]


class TestWalFollowing:
    def test_poll_once_applies_and_rebinds_under_gate(self, fitted, tmp_path):
        dataset, splits, estimator = fitted
        service, ingestor, _ = make_service(dataset, splits, estimator)
        gate = CountingGate()
        wal = tmp_path / "wal.jsonl"
        events = live_events(dataset, n=5)
        with WalWriter(wal) as writer:
            writer.append_batch(events)

        follower = WalFollower(ingestor, wal, gate=gate, apply=service.apply)
        applied = follower.poll_once()
        assert applied == 5
        assert ingestor.watermark == 5
        assert gate.writes == 1
        # the rebound estimator serves the live snapshot at watermark 5,
        # which reads RCCs only through the ingestor
        live = service._estimator._dataset
        assert live.watermark == 5
        with pytest.raises(SchemaError, match=r"StreamIngestor\.dataset\(\)"):
            live.rccs
        assert ingestor.dataset().rccs.n_rows == dataset.rccs.n_rows + 5
        with gate.read():
            response = service.handle(
                {
                    "type": "domd_query",
                    "avail_ids": [int(splits.test_ids[0])],
                    "t_star": 50.0,
                }
            )
        assert response["ok"] and response["watermark"] == 5
        # nothing new: the next poll is a no-op and takes no write lock
        assert follower.poll_once() == 0
        assert gate.writes == 1

    def test_half_applied_batch_still_refreshes(self, fitted, tmp_path):
        """A record the store rejects stops the batch, but the prefix it
        applied is refreshed before the error surfaces."""
        from repro.errors import StreamStateError

        dataset, splits, estimator = fitted
        service, ingestor, _ = make_service(dataset, splits, estimator)
        create = live_events(dataset, n=1)[0]
        wal = tmp_path / "wal.jsonl"
        with WalWriter(wal) as writer:
            writer.append_batch(
                [
                    create,
                    {"kind": "rcc_settled", "rcc_id": create["rcc_id"],
                     "settle_date": create["create_date"] - 5},
                ]
            )
        refreshed = []
        rebind = service.rebind

        def recording_rebind(touched):
            refreshed.append((ingestor.watermark, touched))
            rebind(touched)

        service.rebind = recording_rebind
        follower = WalFollower(ingestor, wal, apply=service.apply)
        with pytest.raises(StreamStateError, match="before its creation day"):
            follower.poll_once()
        assert refreshed == [(1, {create["avail_id"]})]

    def test_duplicate_only_batch_restamps_the_feature_key(self, fitted):
        """A batch of duplicates touches no avail but moves the
        watermark: answers re-stamp ``feature_key`` at the new watermark
        and are otherwise unchanged."""
        from repro.stream import WalRecord

        dataset, splits, estimator = fitted
        service, ingestor, _ = make_service(dataset, splits, estimator)
        create = live_events(dataset, n=1)[0]
        query = {
            "type": "domd_query",
            "avail_ids": [create["avail_id"]],
            "t_star": 50.0,
        }
        service.apply([WalRecord(seq=1, event=create)])
        first = service.handle(query)
        summary = service.apply([WalRecord(seq=2, event=create)])
        assert summary["applied"] == 1 and ingestor.watermark == 2
        assert ingestor.store.counts["duplicates"] == 1
        second = service.handle(query)
        assert first["provenance"]["feature_key"].endswith("@1")
        assert second["provenance"]["feature_key"] == (
            first["provenance"]["feature_key"][: -len("@1")] + "@2"
        )
        assert second["result"] == first["result"]
        # nothing moved: no refresh, the same estimator keeps serving
        served = service._estimator
        assert service.apply([WalRecord(seq=2, event=create)])["applied"] == 0
        assert service._estimator is served

    def test_wedged_follower_alerts_until_it_applies_again(self, fitted, tmp_path):
        """The half-applied wedge above, driven through the follower
        thread: a record the store rejects fails every poll, and the
        follower must say so instead of retrying silently."""
        from repro.stream.follow import STUCK_ALERT

        dataset, splits, estimator = fitted
        service, _, context = make_service(dataset, splits, estimator)
        ingestor = StreamIngestor(
            StreamingRccStore.from_dataset(dataset), designs=("avl",), context=context
        )
        service.ingest = ingestor
        create = live_events(dataset, n=1)[0]
        settle = {"kind": "rcc_settled", "rcc_id": create["rcc_id"]}
        wal = tmp_path / "wal.jsonl"
        with WalWriter(wal) as writer:
            writer.append_batch(
                [create, dict(settle, settle_date=create["create_date"] - 5)]
            )
        follower = WalFollower(
            ingestor, wal, apply=service.apply, poll_interval=0.01
        )
        follower.start()
        try:
            deadline = time.time() + 5.0
            while follower.errors < 3 and time.time() < deadline:
                time.sleep(0.01)
            health = service.handle({"type": "health"})["result"]
            assert health["status"] == "degraded"
            assert health["alerts"]["firing"] == [STUCK_ALERT]
            assert health["alerts"]["states"][STUCK_ALERT]["context"]["seq"] == 2
            stuck = health["ingest"]["follower"]
            assert stuck["errors"] >= 3
            assert "before its creation day" in stuck["last_error"]
            assert ingestor.watermark == 1
            # One error event for the failure, however many polls retried it.
            errors = [
                event
                for event in context.telemetry.events()
                if event["kind"] == "error" and event.get("code") == "follower_stuck"
            ]
            assert [event["seq"] for event in errors] == [2]

            # An operator replaces the rejected record: the next poll
            # applies it and the condition clears.
            wal.unlink()
            with WalWriter(wal) as writer:
                writer.append_batch(
                    [create, dict(settle, settle_date=create["create_date"] + 5)]
                )
            while context.telemetry.alerts.firing() and time.time() < deadline:
                time.sleep(0.01)
            assert ingestor.watermark == 2
            health = service.handle({"type": "health"})["result"]
            assert health["alerts"]["firing"] == []
            assert health["status"] == "ok"
        finally:
            follower.stop()
        assert not follower.is_alive()

    def test_follower_thread_tails_a_growing_wal(self, fitted, tmp_path):
        dataset, splits, estimator = fitted
        service, ingestor, _ = make_service(dataset, splits, estimator)
        gate = ReadWriteGate()
        wal = tmp_path / "wal.jsonl"
        events = live_events(dataset, n=6)
        writer = WalWriter(wal)
        writer.append_batch(events[:2])
        writer.sync()

        follower = WalFollower(
            ingestor, wal, gate=gate, poll_interval=0.02
        )
        follower.start()
        try:
            deadline = time.time() + 5.0
            while ingestor.watermark < 2 and time.time() < deadline:
                time.sleep(0.01)
            assert ingestor.watermark == 2
            writer.append_batch(events[2:])
            writer.sync()
            while ingestor.watermark < 6 and time.time() < deadline:
                time.sleep(0.01)
            assert ingestor.watermark == 6
        finally:
            writer.close()
            follower.stop()
        assert follower.errors == 0
        assert not follower.is_alive()

    def test_follower_survives_apply_errors(self, fitted, tmp_path):
        dataset, splits, estimator = fitted
        _, ingestor, _ = make_service(dataset, splits, estimator)
        wal = tmp_path / "wal.jsonl"
        create = live_events(dataset, n=1)[0]
        bad_settle = {
            "kind": "rcc_settled",
            "rcc_id": create["rcc_id"],
            "settle_date": create["create_date"] - 30,
        }
        with WalWriter(wal) as writer:
            writer.append_batch([create, bad_settle])
        follower = WalFollower(ingestor, wal, poll_interval=0.01)
        follower.start()
        try:
            deadline = time.time() + 5.0
            while follower.errors == 0 and time.time() < deadline:
                time.sleep(0.01)
        finally:
            follower.stop()
        # the loop recorded the poison pill but kept running; the valid
        # create ahead of it was applied
        assert follower.errors >= 1
        assert "StreamStateError" in follower.last_error
        assert ingestor.watermark == 1
