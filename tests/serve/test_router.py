"""ShardRouter over live in-process shard servers: point routing,
scatter-gather with degraded mode, ingest fan-out, watermark stamping,
and the ``shard:<id>:lagging`` alert condition (Issue 10, satellite 2).
"""

from __future__ import annotations

import pytest

from repro.data import load_dataset
from repro.runtime import ExecutionContext, current_deadline
from repro.serve.client import FrameClient
from repro.serve.frontend import FleetFrontend
from repro.serve.partition import ships_of_shard
from repro.serve.ring import ConsistentHashRing
from repro.serve.router import RoutingTable, ShardRouter
from repro.serve.shard import build_shard_runtime


def _owned_avails(dataset, ring, shard_id: int) -> list[int]:
    owned_ships = {int(s) for s in ships_of_shard(dataset, ring, shard_id)}
    return [
        int(a)
        for a, s in zip(dataset.avails["avail_id"], dataset.avails["ship_id"])
        if int(s) in owned_ships
    ]


@pytest.fixture()
def fleet(serve_env, tmp_path):
    """Two WAL-backed shard servers + a router, all in-process.

    Function-scoped: several tests mutate the fleet (stop a shard,
    ingest events), so each test gets a pristine one.
    """
    ring = ConsistentHashRing([0, 1])
    specs = {
        shard_id: {
            "shard_id": shard_id,
            "shard_ids": list(ring.shard_ids),
            "model": serve_env.model_path,
            "data": serve_env.data_dir,
            "wal_path": str(tmp_path / f"shard-{shard_id}.wal"),
        }
        for shard_id in ring.shard_ids
    }
    runtimes = {}
    for shard_id in ring.shard_ids:
        runtime = build_shard_runtime(specs[shard_id])
        runtime.server.start()
        runtimes[shard_id] = runtime
    context = ExecutionContext()
    dataset = load_dataset(serve_env.data_dir)
    router = ShardRouter(
        ring,
        {
            shard_id: FrameClient("127.0.0.1", runtime.server.port, timeout=5.0)
            for shard_id, runtime in runtimes.items()
        },
        RoutingTable(dataset.avails, ring, dataset.rccs),
        context=context,
        scatter_timeout=5.0,
        lag_alert_events=500,
        ingest_enabled=True,
    )
    from types import SimpleNamespace

    env = SimpleNamespace(
        ring=ring,
        specs=specs,
        runtimes=runtimes,
        router=router,
        context=context,
        dataset=dataset,
        owned={s: _owned_avails(dataset, ring, s) for s in ring.shard_ids},
    )
    yield env
    router.close()
    for runtime in runtimes.values():
        runtime.server.stop(drain=False)
        if runtime.wal is not None:
            runtime.wal.close()


class TestPointRouting:
    def test_single_shard_query_forwards(self, serve_env, fleet):
        ids = fleet.owned[0][:2]
        response = fleet.router.dispatch(
            {"type": "domd_query", "avail_ids": ids, "t_star": 30.0}
        )
        assert response["ok"], response
        assert response["shard_id"] == 0
        expected = serve_env.estimator.query(ids, t_star=30.0)
        for item, est in zip(response["result"], expected):
            assert item["current"] == est.current_estimate  # bitwise

    def test_cross_shard_query_merges_in_request_order(self, serve_env, fleet):
        # Interleave shard-0 and shard-1 avails deliberately.
        ids = [
            fleet.owned[0][0],
            fleet.owned[1][0],
            fleet.owned[0][1],
            fleet.owned[1][1],
        ]
        response = fleet.router.dispatch(
            {"type": "domd_query", "avail_ids": ids, "t_star": 40.0}
        )
        assert response["ok"], response
        assert [item["avail_id"] for item in response["result"]] == ids
        assert set(response["shards"]) == {"0", "1"}
        expected = serve_env.estimator.query(ids, t_star=40.0)
        for item, est in zip(response["result"], expected):
            assert item["current"] == est.current_estimate

    def test_unknown_avail_is_not_found(self, fleet):
        response = fleet.router.dispatch(
            {"type": "domd_query", "avail_ids": [987_654_321], "t_star": 30.0}
        )
        assert response["error"]["code"] == "not_found"
        assert "987654321" in response["error"]["message"]

    def test_missing_avail_ids_is_bad_request(self, fleet):
        response = fleet.router.dispatch({"type": "domd_query", "t_star": 30.0})
        assert response["error"]["code"] == "bad_request"
        assert "avail_ids" in response["error"]["message"]

    def test_non_object_request_is_bad_request(self, fleet):
        assert fleet.router.dispatch([1, 2])["error"]["code"] == "bad_request"

    def test_unknown_type_forwards_for_canonical_envelope(self, fleet):
        response = fleet.router.dispatch({"type": "teleport"})
        assert response["error"]["code"] == "unknown_type"


class TestFleetStatus:
    def test_full_fleet_merges_sorted(self, serve_env, fleet):
        response = fleet.router.dispatch(
            {"type": "fleet_status", "date": serve_env.fleet_date}
        )
        assert response["ok"], response
        assert "degraded" not in response
        delays = [item["estimated_delay_days"] for item in response["result"]]
        assert delays == sorted(delays, reverse=True)
        assert set(response["shards"]) == {"0", "1"}

    def test_downed_shard_degrades_instead_of_hanging(self, serve_env, fleet):
        fleet.runtimes[1].server.stop(drain=False)
        response = fleet.router.dispatch(
            {"type": "fleet_status", "date": serve_env.fleet_date}
        )
        assert response["ok"], response
        assert response["degraded"]["missing_shards"] == [1]
        assert "1" in response["degraded"]["reasons"]
        # The reachable slice is still served.
        answered = {item["avail_id"] for item in response["result"]}
        assert answered <= set(fleet.owned[0])


class TestHealth:
    def test_healthy_fleet_reports_per_shard_watermarks(self, fleet):
        response = fleet.router.dispatch({"type": "health"})
        assert response["ok"], response
        result = response["result"]
        assert result["status"] == "ok"
        assert set(result["shards"]) == {"0", "1"}
        for entry in result["shards"].values():
            assert entry["watermark"] == 0  # nothing ingested yet
            assert entry["lag_events"] == 0
        assert result["watermark"]["global"] == 0
        assert result["watermark"]["per_shard"] == {"0": 0, "1": 0}
        assert result["frontend"]["alerts"]["firing"] == []

    def test_unreachable_shard_degrades_and_fires_alert(self, fleet):
        fleet.runtimes[1].server.stop(drain=False)
        response = fleet.router.dispatch({"type": "health"})
        result = response["result"]
        assert result["status"] == "degraded"
        assert result["shards"]["1"]["status"] == "unreachable"
        assert result["watermark"]["global"] is None  # partial view
        alerts = fleet.context.telemetry.alerts
        assert "shard:1:lagging" in alerts.firing()
        assert "shard:0:lagging" not in alerts.firing()

    def test_recovered_shard_resolves_alert(self, fleet):
        alerts = fleet.context.telemetry.alerts
        fleet.runtimes[1].server.stop(drain=False)
        fleet.router.dispatch({"type": "health"})
        assert "shard:1:lagging" in alerts.firing()
        # Bring shard 1 back on a fresh port and re-point the router.
        runtime = build_shard_runtime(fleet.specs[1])
        runtime.server.start()
        try:
            fleet.router.reconnect(1, "127.0.0.1", runtime.server.port)
            fleet.router.dispatch({"type": "health"})
            assert "shard:1:lagging" not in alerts.firing()
        finally:
            runtime.server.stop(drain=False)
            if runtime.wal is not None:
                runtime.wal.close()


class TestIngestRouting:
    def _create(self, avail_id: int, rcc_id: int) -> dict:
        return {
            "kind": "rcc_created",
            "rcc_id": rcc_id,
            "avail_id": avail_id,
            "rcc_type": "G",
            "swlin": "321-54-876",
            "create_date": 900,
            "amount": 25.0,
        }

    def test_cross_shard_batch_acks_everywhere(self, fleet):
        events = [
            self._create(fleet.owned[0][0], 91_000_001),
            self._create(fleet.owned[1][0], 91_000_002),
            # Settle-after-create within the same batch: routable via the
            # batch-local create, not the base table.
            {"kind": "rcc_settled", "rcc_id": 91_000_001, "settle_date": 950},
        ]
        response = fleet.router.dispatch({"type": "ingest", "events": events})
        assert response["ok"], response
        assert response["result"]["acked"] == 3
        assert set(response["result"]["per_shard"]) == {"0", "1"}
        # Both shards fsynced: watermarks advanced.
        assert fleet.runtimes[0].ingestor.watermark == 2
        assert fleet.runtimes[1].ingestor.watermark == 1
        # The grown route is remembered: a later settle routes by rcc id.
        follow = fleet.router.dispatch(
            {
                "type": "ingest",
                "events": [
                    {
                        "kind": "amount_revised",
                        "rcc_id": 91_000_002,
                        "amount": 60.0,
                    }
                ],
            }
        )
        assert follow["ok"], follow

    def test_ok_envelopes_are_stamped_with_fleet_watermark(self, fleet):
        fleet.router.dispatch(
            {
                "type": "ingest",
                "events": [self._create(fleet.owned[0][0], 91_100_001)],
            }
        )
        # Shard 1 hasn't reported yet this session — poll both once.
        fleet.router.sample_gauges()
        response = fleet.router.dispatch(
            {
                "type": "domd_query",
                "avail_ids": [fleet.owned[0][0]],
                "t_star": 30.0,
            }
        )
        assert response["ok"], response
        # Fleet watermark = min(shard0=1, shard1=0); the shard's own
        # value moved aside.
        assert response["watermark"] == 0
        assert response["shard_watermark"] == 1

    def test_unroutable_settle_is_not_found(self, fleet):
        response = fleet.router.dispatch(
            {
                "type": "ingest",
                "events": [
                    {
                        "kind": "rcc_settled",
                        "rcc_id": 92_000_000,
                        "settle_date": 950,
                    }
                ],
            }
        )
        assert response["error"]["code"] == "not_found"
        assert "not routable" in response["error"]["message"]

    def test_partial_failure_is_retryable_and_partially_durable(self, fleet):
        fleet.runtimes[1].server.stop(drain=False)
        events = [
            self._create(fleet.owned[0][0], 93_000_001),
            self._create(fleet.owned[1][0], 93_000_002),
        ]
        response = fleet.router.dispatch({"type": "ingest", "events": events})
        assert not response["ok"]
        assert response["error"]["code"] == "overloaded"
        assert response["error"]["retryable"] is True
        assert "idempotent" in response["error"]["message"]
        # Shard 0's half is durable even though the request degraded.
        assert fleet.runtimes[0].ingestor.watermark == 1
        # The durable create is routable for follow-up events...
        assert fleet.router.routing.shard_of_rcc(93_000_001) == 0
        # ...the failed one is not remembered (retry will re-route it).
        assert fleet.router.routing.shard_of_rcc(93_000_002) is None


class TestGauges:
    def test_sample_gauges_shapes(self, fleet):
        gauges = fleet.router.sample_gauges()
        assert set(gauges) == {"0", "1", "fleet"}
        for shard_id in ("0", "1"):
            flat = gauges[shard_id]
            assert flat["up"] == 1.0
            assert {
                "requests",
                "active_requests",
                "deadline_exceeded",
                "watermark_seq",
                "lag_events",
            } <= set(flat)
            assert not {"workers", "queue_depth", "completed"} & set(flat)
            assert all(isinstance(v, float) for v in flat.values())
        assert gauges["fleet"] == {"watermark": 0.0}

    def test_down_shard_reads_zero_up(self, fleet):
        fleet.runtimes[1].server.stop(drain=False)
        gauges = fleet.router.sample_gauges()
        assert gauges["1"] == {"up": 0.0}
        assert gauges["0"]["up"] == 1.0
        assert "shard:1:lagging" in fleet.context.telemetry.alerts.firing()


class TestFrontDoorDeadline:
    def test_default_deadline_rides_the_wire_to_the_shard(self, fleet):
        """``--deadline-ms`` (the front door's default) reaches the
        executing shard for a request without ``deadline_ms``; a request
        with its own keeps it."""
        service = fleet.runtimes[0].service
        handle = service.handle
        budgets = []

        def spy(request, *args, **kwargs):
            deadline = current_deadline()
            budgets.append(
                None if deadline is None else deadline.budget_seconds * 1000
            )
            return handle(request, *args, **kwargs)

        service.handle = spy
        front = FleetFrontend(fleet.router.dispatch, deadline_ms=20_000)
        port = front.start()
        try:
            with FrameClient("127.0.0.1", port, timeout=30.0) as client:
                query = {
                    "type": "domd_query",
                    "avail_ids": fleet.owned[0][:1],
                    "t_star": 30.0,
                }
                assert client.request(query)["ok"]
                assert client.request({**query, "deadline_ms": 7_000})["ok"]
        finally:
            front.stop()
            del service.handle
        assert budgets == [20_000, 7_000]
