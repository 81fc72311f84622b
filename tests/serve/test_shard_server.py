"""ShardServer over real sockets: dispatch, ingest durability hooks,
and the connection-failure normalization (Issue 10, satellite 6).

Every connection-level failure mode lands in the pinned error-envelope
enumeration — oversize payload, malformed frame, malformed JSON,
mid-request disconnect — and the connection survives exactly when the
stream is still framed.
"""

from __future__ import annotations

import socket
import struct
import sys
import threading

import pytest

from repro.core.service import DomdService
from repro.data import load_dataset
from repro.persistence import load_estimator
from repro.runtime import ExecutionContext
from repro.runtime.concurrency import ReadWriteGate
from repro.serve.client import FrameClient
from repro.serve.framing import encode_frame, recv_frame, send_frame
from repro.serve.partition import shard_dataset, ships_of_shard
from repro.serve.ring import ConsistentHashRing
from repro.serve.shard import ShardServer, build_shard_runtime


RING = ConsistentHashRing([0, 1])


def _owned_avails(dataset, shard_id: int) -> list[int]:
    owned_ships = {int(s) for s in ships_of_shard(dataset, RING, shard_id)}
    return [
        int(a)
        for a, s in zip(dataset.avails["avail_id"], dataset.avails["ship_id"])
        if int(s) in owned_ships
    ]


@pytest.fixture(scope="module")
def static_shard(serve_env):
    """Shard 0 of a 2-shard ring, static snapshot (no WAL), started."""
    context = ExecutionContext()
    slice_ = shard_dataset(load_dataset(serve_env.data_dir), RING, 0)
    service = DomdService(load_estimator(serve_env.model_path, slice_, context=context))
    server = ShardServer(
        shard_id=0,
        service=service,
        gate=ReadWriteGate(),
        max_frame_bytes=64 * 1024,
    )
    server.start()
    yield server
    server.stop(drain=False)


@pytest.fixture(scope="module")
def wal_shard(serve_env, tmp_path_factory):
    """Shard 0 with live ingestion (WAL-backed), via the spec assembly."""
    wal_dir = tmp_path_factory.mktemp("shard-wal")
    runtime = build_shard_runtime(
        {
            "shard_id": 0,
            "shard_ids": [0, 1],
            "model": serve_env.model_path,
            "data": serve_env.data_dir,
            "wal_path": str(wal_dir / "shard-0.wal"),
        }
    )
    runtime.server.start()
    yield runtime
    runtime.server.stop(drain=False)
    if runtime.wal is not None:
        runtime.wal.close()


def _client(server) -> FrameClient:
    return FrameClient("127.0.0.1", server.port, timeout=10.0)


class TestDispatch:
    def test_query_owned_avail_matches_monolith(self, serve_env, static_shard):
        owned = _owned_avails(serve_env.dataset, 0)[:3]
        with _client(static_shard) as client:
            response = client.request(
                {"type": "domd_query", "avail_ids": owned, "t_star": 30.0}
            )
        assert response["ok"]
        assert response["shard_id"] == 0
        expected = serve_env.estimator.query(owned, t_star=30.0)
        for item, est in zip(response["result"], expected):
            assert item["avail_id"] == est.avail_id
            assert item["current"] == est.current_estimate  # bitwise

    def test_unowned_avail_errors_on_this_shard(self, serve_env, static_shard):
        foreign = _owned_avails(serve_env.dataset, 1)[0]
        with _client(static_shard) as client:
            response = client.request(
                {"type": "domd_query", "avail_ids": [foreign], "t_star": 30.0}
            )
        assert not response["ok"]
        assert response["error"]["code"] == "domain_error"
        assert "not in tensor" in response["error"]["message"]

    def test_invalid_deadline_is_bad_request(self, static_shard):
        with _client(static_shard) as client:
            response = client.request(
                {"type": "health", "deadline_ms": -5}
            )
        assert response["error"]["code"] == "bad_request"
        assert "'deadline_ms' must be a positive number" in (
            response["error"]["message"]
        )

    def test_shard_status_shape(self, static_shard):
        with _client(static_shard) as client:
            response = client.request({"type": "shard_status"})
        assert response["ok"]
        result = response["result"]
        assert result["shard_id"] == 0 and result["up"] is True
        assert result["watermark"] is None  # static snapshot
        assert {
            "connections",
            "requests",
            "active_requests",
            "deadline_exceeded",
        } <= set(result["server"])
        assert "pool" not in result

    def test_ingest_without_wal_is_bad_request(self, static_shard):
        with _client(static_shard) as client:
            response = client.request({"type": "ingest", "events": []})
        assert response["error"]["code"] == "bad_request"
        assert "static snapshot" in response["error"]["message"]


class TestDeadlineAtTheShardLock:
    def test_budget_spent_waiting_for_the_lock_is_not_executed(
        self, serve_env, static_shard
    ):
        """A request whose wire budget runs out while another holds the
        shard lock is answered ``deadline_exceeded`` without executing."""
        service = static_shard.service
        handled = []
        handle = service.handle

        def spy(request, *args, **kwargs):
            handled.append(request)
            return handle(request, *args, **kwargs)

        owned = _owned_avails(serve_env.dataset, 0)[:1]
        before = static_shard._counters["deadline_exceeded"]
        service.handle = spy
        try:
            with _client(static_shard) as client:
                # Another request is executing: the lock is taken.
                with static_shard._execute_lock:
                    answer: dict = {}
                    sender = threading.Thread(
                        target=lambda: answer.update(
                            client.request(
                                {
                                    "type": "domd_query",
                                    "avail_ids": owned,
                                    "t_star": 30.0,
                                    "deadline_ms": 50,
                                }
                            )
                        )
                    )
                    sender.start()
                    sender.join(timeout=0.3)
                    assert sender.is_alive()  # waiting for the lock
                sender.join(timeout=10.0)
                assert not sender.is_alive()
                status = client.request({"type": "shard_status"})
        finally:
            del service.handle
        assert handled == []
        assert answer["ok"] is False
        assert answer["error"]["code"] == "deadline_exceeded"
        assert answer["error"]["retryable"] is True
        assert answer["shard_id"] == 0
        # The envelope the pool's rejection uses: a top-level trace id
        # matching one emitted error event.
        matching = [
            e
            for e in service.context.telemetry.events()
            if e["kind"] == "error"
            and e["trace_id"] == answer["trace_id"]
            and e["code"] == "deadline_exceeded"
        ]
        assert len(matching) == 1
        assert status["result"]["server"]["deadline_exceeded"] == before + 1


class TestOneRequestAtATime:
    def test_concurrent_connections_execute_serially(
        self, serve_env, static_shard
    ):
        """Requests from many connections run one at a time under the
        shard lock, and every one of them is answered and counted."""
        service = static_shard.service
        handle = service.handle
        guard = threading.Lock()
        state = {"running": 0, "peak": 0, "calls": 0}

        def spy(request, *args, **kwargs):
            with guard:
                state["running"] += 1
                state["calls"] += 1
                state["peak"] = max(state["peak"], state["running"])
            try:
                return handle(request, *args, **kwargs)
            finally:
                with guard:
                    state["running"] -= 1

        owned = _owned_avails(serve_env.dataset, 0)[:2]
        query = {"type": "domd_query", "avail_ids": owned, "t_star": 30.0}
        answers: list[dict] = []

        def client_loop() -> None:
            with _client(static_shard) as client:
                for _ in range(5):
                    answers.append(client.request(dict(query)))

        before = static_shard._counters["requests"]
        interval = sys.getswitchinterval()
        service.handle = spy
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client_loop) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            del service.handle
        assert state == {"running": 0, "peak": 1, "calls": 30}
        assert static_shard._counters["requests"] - before == 30
        assert len(answers) == 30
        assert all(a["result"] == answers[0]["result"] for a in answers)


class TestConnectionFailureNormalization:
    """Satellite 6: the wire-failure taxonomy, at the server."""

    def test_oversize_frame_answers_and_survives(self, static_shard):
        with socket.create_connection(
            ("127.0.0.1", static_shard.port), timeout=10.0
        ) as conn:
            big = b"x" * (static_shard.max_frame_bytes + 100)
            conn.sendall(struct.pack(">I", len(big)) + big)
            response = recv_frame(conn)
            assert response["error"]["code"] == "bad_request"
            assert "frame limit" in response["error"]["message"]
            # Stream stayed framed: the same connection still serves.
            send_frame(conn, {"type": "health"})
            assert recv_frame(conn)["ok"]

    def test_zero_length_frame_is_bad_json_then_close(self, static_shard):
        with socket.create_connection(
            ("127.0.0.1", static_shard.port), timeout=10.0
        ) as conn:
            conn.sendall(struct.pack(">I", 0))
            response = recv_frame(conn)
            assert response["error"]["code"] == "bad_json"
            assert response["error"]["message"].startswith("malformed frame: ")
            assert recv_frame(conn) is None  # server closed the stream

    def test_malformed_json_payload_survives(self, static_shard):
        with socket.create_connection(
            ("127.0.0.1", static_shard.port), timeout=10.0
        ) as conn:
            payload = b"{definitely not json"
            conn.sendall(struct.pack(">I", len(payload)) + payload)
            response = recv_frame(conn)
            assert response["error"]["code"] == "bad_json"
            assert response["error"]["message"].startswith("malformed JSON: ")
            send_frame(conn, {"type": "health"})
            assert recv_frame(conn)["ok"]

    def test_mid_request_disconnect_is_counted(self, static_shard):
        before = static_shard._counters["disconnects_mid_request"]
        conn = socket.create_connection(
            ("127.0.0.1", static_shard.port), timeout=10.0
        )
        # Declare 100 bytes, deliver 10, vanish.
        conn.sendall(struct.pack(">I", 100) + b"0123456789")
        conn.close()
        with _client(static_shard) as client:
            for _ in range(100):
                status = client.request({"type": "shard_status"})
                counted = status["result"]["server"]["disconnects_mid_request"]
                if counted > before:
                    break
                import time

                time.sleep(0.02)
        assert counted > before

    def test_non_object_frame_gets_envelope(self, static_shard):
        with _client(static_shard) as client:
            response = client.request(["a", "list"])
        assert not response["ok"]
        assert response["error"]["code"] == "bad_request"


class TestIngestDurability:
    def test_ack_advances_watermark_and_applies(self, serve_env, wal_shard):
        owned = _owned_avails(serve_env.dataset, 0)
        avail_id = owned[0]
        before = wal_shard.ingestor.watermark
        with _client(wal_shard.server) as client:
            response = client.request(
                {
                    "type": "ingest",
                    "events": [
                        {
                            "kind": "rcc_created",
                            "rcc_id": 90_000_001,
                            "avail_id": avail_id,
                            "rcc_type": "G",
                            "swlin": "123-45-678",
                            "create_date": 1000,
                            "amount": 40.0,
                        }
                    ],
                }
            )
        assert response["ok"], response
        assert response["result"]["applied"] == 1
        assert response["result"]["synced"] is True
        assert response["watermark"] == before + 1
        assert wal_shard.wal.last_seq == wal_shard.ingestor.watermark

    def test_misrouted_event_rejected_before_wal(self, serve_env, wal_shard):
        foreign = _owned_avails(serve_env.dataset, 1)[0]
        seq_before = wal_shard.wal.last_seq
        with _client(wal_shard.server) as client:
            response = client.request(
                {
                    "type": "ingest",
                    "events": [
                        {
                            "kind": "rcc_created",
                            "rcc_id": 90_000_002,
                            "avail_id": foreign,
                            "rcc_type": "N",
                            "swlin": "123-45-678",
                            "create_date": 1000,
                        }
                    ],
                }
            )
        assert response["error"]["code"] == "bad_request"
        assert f"not owned by shard 0" in response["error"]["message"]
        # The WAL never saw the misrouted event — nothing to poison replay.
        assert wal_shard.wal.last_seq == seq_before

    def test_rejected_batch_never_enters_the_wal(self, serve_env, tmp_path):
        """A batch the store would reject is refused before the append:
        later batches still ack, and a restart replays cleanly to the
        same live answer and feature key."""
        spec = {
            "shard_id": 0,
            "shard_ids": [0, 1],
            "model": serve_env.model_path,
            "data": serve_env.data_dir,
            "wal_path": str(tmp_path / "shard-0.wal"),
        }
        avail_id = _owned_avails(serve_env.dataset, 0)[0]

        def created(rcc_id: int, day: int) -> dict:
            return {"kind": "rcc_created", "rcc_id": rcc_id,
                    "avail_id": avail_id, "rcc_type": "G",
                    "swlin": "123-45-678", "create_date": day, "amount": 40.0}

        probe = {"type": "domd_query", "avail_ids": [avail_id], "t_star": 50.0}
        runtime = build_shard_runtime(spec)
        runtime.server.start()
        try:
            with _client(runtime.server) as client:
                ok = client.request({"type": "ingest", "events": [created(91_000_001, 1000)]})
                assert ok["ok"], ok
                bad = client.request(
                    {
                        "type": "ingest",
                        "events": [
                            created(91_000_002, 1010),
                            # settles 5 days before its own creation
                            {"kind": "rcc_settled", "rcc_id": 91_000_002,
                             "settle_date": 1005},
                        ],
                    }
                )
                assert bad["error"]["code"] == "domain_error", bad
                assert "before its creation day" in bad["error"]["message"]
                assert runtime.wal.last_seq == 1
                assert runtime.ingestor.watermark == 1
                after = client.request(
                    {"type": "ingest", "events": [created(91_000_003, 1020)]}
                )
                assert after["ok"], after
                assert after["result"]["first_seq"] == 2
                assert after["watermark"] == 2
                live = client.request(probe)
        finally:
            runtime.server.stop(drain=False)
            runtime.wal.close()
        assert live["ok"], live
        assert live["provenance"]["feature_key"].endswith("@2")

        restarted = build_shard_runtime(spec)
        restarted.server.start()
        try:
            assert restarted.ingestor.watermark == restarted.wal.last_seq == 2
            with _client(restarted.server) as client:
                again = client.request(probe)
        finally:
            restarted.server.stop(drain=False)
            restarted.wal.close()
        assert again["result"] == live["result"]
        assert again["provenance"]["feature_key"] == live["provenance"]["feature_key"]

    def test_ingest_before_the_first_read_answers_like_a_fresh_extraction(
        self, serve_env, tmp_path
    ):
        """The first batch reaches a shard no request has read yet; its
        live answers equal a service extracted fresh from the shard's
        whole live snapshot, touched avails and untouched alike."""
        runtime = build_shard_runtime(
            {
                "shard_id": 0,
                "shard_ids": [0, 1],
                "model": serve_env.model_path,
                "data": serve_env.data_dir,
                "wal_path": str(tmp_path / "shard-0.wal"),
            }
        )
        owned = _owned_avails(serve_env.dataset, 0)
        avail_id = owned[0]
        avails = serve_env.dataset.avails
        row_of = {int(a): row for row, a in enumerate(avails["avail_id"])}
        start = int(avails["act_start"][row_of[avail_id]])
        plan_end = int(avails["plan_end"][row_of[owned[1]]])
        events = [
            {"kind": "rcc_created", "rcc_id": 92_000_001, "avail_id": avail_id,
             "rcc_type": "NG", "swlin": "523-45-678", "create_date": start + 2,
             "amount": 75.0},
            {"kind": "rcc_settled", "rcc_id": 92_000_001,
             "settle_date": start + 9},
            {"kind": "avail_extended", "avail_id": owned[1],
             "new_plan_end": plan_end + 30},
        ]
        queries = [
            {"type": "domd_query", "avail_ids": owned[:4], "t_star": t}
            for t in (10.0, 55.0, 100.0)
        ]
        runtime.server.start()
        try:
            with _client(runtime.server) as client:
                ack = client.request({"type": "ingest", "events": events})
                assert ack["ok"], ack
                live = [client.request(query) for query in queries]
        finally:
            runtime.server.stop(drain=False)
            runtime.wal.close()
        fresh = DomdService(
            load_estimator(serve_env.model_path, runtime.ingestor.dataset())
        )
        for query, answer in zip(queries, live):
            assert answer["ok"], answer
            assert answer["watermark"] == 3
            assert answer["result"] == fresh.handle(query)["result"]

    def test_empty_batch_acks_without_wal_traffic(self, wal_shard):
        seq_before = wal_shard.wal.last_seq
        with _client(wal_shard.server) as client:
            response = client.request({"type": "ingest", "events": []})
        assert response["ok"]
        assert response["result"] == {"applied": 0, "synced": False}
        assert wal_shard.wal.last_seq == seq_before


class TestShutdown:
    def test_shutdown_request_stops_server(self, serve_env):
        context = ExecutionContext()
        slice_ = shard_dataset(load_dataset(serve_env.data_dir), RING, 1)
        service = DomdService(
            load_estimator(serve_env.model_path, slice_, context=context)
        )
        server = ShardServer(shard_id=1, service=service, gate=ReadWriteGate())
        server.start()
        try:
            with FrameClient("127.0.0.1", server.port) as client:
                response = client.request({"type": "shutdown"})
            assert response["ok"] and response["result"]["stopping"]
            assert server.wait_stopped(timeout=5.0)
        finally:
            server.stop(drain=False)
