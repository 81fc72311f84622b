"""End-to-end fleet service: real spawned shard processes, real TCP.

The acceptance drill of Issue 10: a 2-shard fleet serves a mixed
workload over the socket front-end; one shard is SIGKILLed mid-run;
the fleet degrades (never hangs), the shard restarts, replays its WAL,
and **zero acknowledged writes are lost** — pinned by watermark
continuity and bitwise estimate parity across the kill.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve.client import FrameClient
from repro.serve.fleet import FleetService
from repro.serve.partition import ships_of_shard


def _owned_avails(dataset, ring, shard_id: int) -> list[int]:
    owned_ships = {int(s) for s in ships_of_shard(dataset, ring, shard_id)}
    return [
        int(a)
        for a, s in zip(dataset.avails["avail_id"], dataset.avails["ship_id"])
        if int(s) in owned_ships
    ]


def _create(avail_id: int, rcc_id: int) -> dict:
    return {
        "kind": "rcc_created",
        "rcc_id": rcc_id,
        "avail_id": avail_id,
        "rcc_type": "NG",
        "swlin": "654-32-109",
        "create_date": 800,
        "amount": 35.0,
    }


@pytest.fixture(scope="module")
def live_fleet(serve_env, tmp_path_factory):
    """A started 2-shard fleet (spawned worker processes) + one client."""
    wal_dir = tmp_path_factory.mktemp("fleet-wal")
    fleet = FleetService(
        serve_env.model_path,
        serve_env.data_dir,
        shards=2,
        wal_dir=str(wal_dir),
        start_timeout=300.0,
    )
    port = fleet.start()
    client = FrameClient("127.0.0.1", port, timeout=30.0)
    env = SimpleNamespace(
        fleet=fleet,
        port=port,
        client=client,
        owned={
            shard_id: _owned_avails(serve_env.dataset, fleet.ring, shard_id)
            for shard_id in fleet.ring.shard_ids
        },
    )
    yield env
    client.close()
    fleet.stop(drain=False)


class TestServingOverTcp:
    def test_point_query_bitwise_matches_monolith(self, serve_env, live_fleet):
        ids = live_fleet.owned[0][:2] + live_fleet.owned[1][:2]
        response = live_fleet.client.request(
            {"type": "domd_query", "avail_ids": ids, "t_star": 30.0}
        )
        assert response["ok"], response
        assert [item["avail_id"] for item in response["result"]] == ids
        expected = serve_env.estimator.query(ids, t_star=30.0)
        for item, est in zip(response["result"], expected):
            assert item["current"] == est.current_estimate

    def test_fleet_status_covers_both_shards(self, serve_env, live_fleet):
        response = live_fleet.client.request(
            {"type": "fleet_status", "date": serve_env.fleet_date}
        )
        assert response["ok"], response
        assert "degraded" not in response
        delays = [item["estimated_delay_days"] for item in response["result"]]
        assert delays == sorted(delays, reverse=True)

    def test_health_reports_both_shards(self, live_fleet):
        response = live_fleet.client.request({"type": "health"})
        assert response["ok"], response
        result = response["result"]
        assert result["status"] == "ok"
        assert set(result["shards"]) == {"0", "1"}
        assert result["watermark"]["global"] == 0

    def test_deadline_and_traceparent_ride_the_wire(self, live_fleet):
        response = live_fleet.client.request(
            {
                "type": "domd_query",
                "avail_ids": [live_fleet.owned[0][0]],
                "t_star": 30.0,
                "deadline_ms": 20_000,
                "traceparent": "00-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa-bbbbbbbbbbbbbbbb-01",
            }
        )
        assert response["ok"], response


class TestKillRestartDurability:
    def test_kill_restart_loses_zero_acknowledged_writes(
        self, serve_env, live_fleet
    ):
        client = live_fleet.client
        victim = 1
        victim_avail = live_fleet.owned[victim][0]
        survivor_avail = live_fleet.owned[0][0]

        # Acknowledge writes on both shards (each ack = WAL fsync).
        acked_last_seq = {}
        for i in range(3):
            events = [
                _create(live_fleet.owned[0][i], 96_000_000 + 2 * i),
                _create(live_fleet.owned[victim][i], 96_000_001 + 2 * i),
            ]
            response = client.request({"type": "ingest", "events": events})
            assert response["ok"], response
            for shard_key, result in response["result"]["per_shard"].items():
                acked_last_seq[shard_key] = result["last_seq"]
        assert acked_last_seq == {"0": 3, "1": 3}

        # Snapshot the victim-shard estimate the acked writes produced.
        before = client.request(
            {"type": "domd_query", "avail_ids": [victim_avail], "t_star": 30.0}
        )
        assert before["ok"], before

        # SIGKILL mid-run.
        live_fleet.fleet.kill_shard(victim)

        # The fleet degrades; it does not hang and does not lie.
        status = client.request(
            {"type": "fleet_status", "date": serve_env.fleet_date}
        )
        assert status["ok"], status
        assert status["degraded"]["missing_shards"] == [victim]

        point = client.request(
            {"type": "domd_query", "avail_ids": [victim_avail], "t_star": 30.0}
        )
        assert point["error"]["code"] == "overloaded"
        assert point["error"]["retryable"] is True

        # A cross-shard ingest degrades but the survivor's half is durable.
        partial = client.request(
            {
                "type": "ingest",
                "events": [
                    _create(survivor_avail, 97_000_000),
                    _create(victim_avail, 97_000_001),
                ],
            }
        )
        assert partial["error"]["code"] == "overloaded"
        assert "idempotent" in partial["error"]["message"]

        # Restart: WAL replay must restore every acknowledged write.
        live_fleet.fleet.restart_shard(victim, graceful=False)

        statuses = client.request({"type": "shard_status"})
        assert statuses["ok"], statuses
        restarted = statuses["result"][str(victim)]
        assert restarted["up"] is True
        assert restarted["watermark"] == acked_last_seq[str(victim)]
        # The survivor also kept its extra durable event from the
        # degraded batch.
        assert statuses["result"]["0"]["watermark"] == 4

        after = client.request(
            {"type": "domd_query", "avail_ids": [victim_avail], "t_star": 30.0}
        )
        assert after["ok"], after
        assert (
            after["result"][0]["current"] == before["result"][0]["current"]
        ), "acked write lost across kill -9: estimates diverged"

        # And the fleet is whole again.
        health = client.request({"type": "health"})
        assert health["result"]["status"] == "ok"
        assert health["result"]["shards"][str(victim)]["watermark"] == (
            acked_last_seq[str(victim)]
        )

    def test_restart_counter_recorded(self, live_fleet):
        assert live_fleet.fleet.supervisor.restarts_of(1) == 1
        assert live_fleet.fleet.supervisor.restarts_of(0) == 0


class TestSaturation:
    def test_saturation_stays_bounded(self, serve_env):
        """A burst past the front door's dispatch slots gets immediate,
        retryable ``overloaded`` envelopes; nothing queues unboundedly."""
        fleet = FleetService(
            serve_env.model_path,
            serve_env.data_dir,
            shards=1,
            max_inflight=4,
            start_timeout=300.0,
        )
        port = fleet.start()
        request = {
            "type": "domd_query",
            "avail_ids": serve_env.avail_ids[:6],
            "t_star": 40.0,
        }
        answers: list[tuple[dict, float]] = []
        lock = threading.Lock()

        def client_loop() -> None:
            with FrameClient("127.0.0.1", port, timeout=30.0) as client:
                for _ in range(3):
                    tic = time.perf_counter()
                    response = client.request(request)
                    with lock:
                        answers.append((response, time.perf_counter() - tic))

        try:
            threads = [threading.Thread(target=client_loop) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            fleet.stop(drain=False)
        assert len(answers) == 48
        errors = [r["error"] for r, _ in answers if not r.get("ok")]
        assert all(e["code"] == "overloaded" and e["retryable"] for e in errors), (
            errors[:2]
        )
        assert errors, "burst never saturated the 4-slot front door"
        p99 = float(np.percentile([latency for _, latency in answers], 99))
        assert p99 < 2.0, (
            f"p99 {p99:.2f}s at saturation — backpressure is queueing, not"
            " shedding"
        )
