"""FleetFrontend over a stub dispatcher: protocol normalization,
wire deadlines, and the bounded-saturation contract — no shards needed.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.serve.client import FrameClient
from repro.serve.framing import recv_frame, send_frame
from repro.serve.frontend import FleetFrontend


def _echo(request):
    return {"ok": True, "result": request}


@pytest.fixture()
def frontend():
    front = FleetFrontend(_echo, max_inflight=16, max_frame_bytes=32 * 1024)
    front.start()
    yield front
    front.stop(drain=False)


class TestRequestPath:
    def test_roundtrip_and_concurrency(self, frontend):
        def worker(i, out):
            with FrameClient("127.0.0.1", frontend.port) as client:
                out[i] = client.request({"type": "echo", "i": i})

        results: dict[int, dict] = {}
        threads = [
            threading.Thread(target=worker, args=(i, results)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        for i, response in results.items():
            assert response["ok"] and response["result"]["i"] == i

    def test_dispatch_exception_becomes_internal_envelope(self):
        def boom(request):
            raise RuntimeError("kaboom")

        front = FleetFrontend(boom, max_inflight=2)
        front.start()
        try:
            with FrameClient("127.0.0.1", front.port) as client:
                response = client.request({"type": "anything"})
            assert response["error"]["code"] == "internal"
            assert "kaboom" in response["error"]["message"]
        finally:
            front.stop(drain=False)


class TestWireDeadlines:
    def test_deadline_exceeded_is_retryable(self):
        def slow(request):
            time.sleep(1.5)
            return {"ok": True, "result": None}

        front = FleetFrontend(slow, max_inflight=2)
        front.start()
        try:
            with FrameClient("127.0.0.1", front.port) as client:
                started = time.monotonic()
                response = client.request(
                    {"type": "anything", "deadline_ms": 100}
                )
                elapsed = time.monotonic() - started
            assert response["error"]["code"] == "deadline_exceeded"
            assert response["error"]["retryable"] is True
            assert "100ms" in response["error"]["message"]
            assert elapsed < 1.0  # answered at the deadline, not the work
            assert front.status()["deadline_exceeded"] == 1
        finally:
            front.stop(drain=False)

    def test_invalid_deadline_is_bad_request(self, frontend):
        with FrameClient("127.0.0.1", frontend.port) as client:
            for bad in (-1, 0, "soon", True):
                response = client.request(
                    {"type": "anything", "deadline_ms": bad}
                )
                assert response["error"]["code"] == "bad_request"
                assert "'deadline_ms' must be a positive number" in (
                    response["error"]["message"]
                )


class TestSaturation:
    def test_overload_answers_immediately_and_retryably(self):
        release = threading.Event()

        def gated(request):
            release.wait(10.0)
            return {"ok": True, "result": None}

        front = FleetFrontend(gated, max_inflight=2)
        front.start()
        clients, threads = [], []
        try:
            # Fill both slots with parked requests.
            def park():
                client = FrameClient("127.0.0.1", front.port, timeout=30.0)
                clients.append(client)
                client.request({"type": "park"})

            for _ in range(2):
                thread = threading.Thread(target=park)
                thread.start()
                threads.append(thread)
            deadline = time.monotonic() + 5.0
            while front.status()["active_requests"] < 2:
                assert time.monotonic() < deadline, "slots never filled"
                time.sleep(0.01)
            # The saturated front-end answers instantly, not after queueing.
            with FrameClient("127.0.0.1", front.port) as client:
                started = time.monotonic()
                response = client.request({"type": "one_too_many"})
                elapsed = time.monotonic() - started
            assert response["error"]["code"] == "overloaded"
            assert response["error"]["retryable"] is True
            assert "retry with backoff" in response["error"]["message"]
            assert elapsed < 1.0
            assert front.status()["overloaded"] == 1
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=10.0)
            for client in clients:
                client.close()
            front.stop(drain=False)


class TestConnectionFailureNormalization:
    """Satellite 6 again, at the async transport: same enumeration."""

    def test_oversize_frame_drained_answered_and_survives(self, frontend):
        with socket.create_connection(
            ("127.0.0.1", frontend.port), timeout=10.0
        ) as conn:
            big = b"y" * (frontend.max_frame_bytes + 50)
            conn.sendall(struct.pack(">I", len(big)) + big)
            response = recv_frame(conn)
            assert response["error"]["code"] == "bad_request"
            assert "frame limit" in response["error"]["message"]
            send_frame(conn, {"type": "still_alive"})
            assert recv_frame(conn)["ok"]
        assert frontend.status()["oversize_frames"] == 1

    def test_zero_length_frame_is_bad_json_then_close(self, frontend):
        with socket.create_connection(
            ("127.0.0.1", frontend.port), timeout=10.0
        ) as conn:
            conn.sendall(struct.pack(">I", 0))
            response = recv_frame(conn)
            assert response["error"]["code"] == "bad_json"
            assert "zero-length frame" in response["error"]["message"]
            assert recv_frame(conn) is None
        assert frontend.status()["protocol_errors"] == 1

    def test_malformed_json_survives(self, frontend):
        with socket.create_connection(
            ("127.0.0.1", frontend.port), timeout=10.0
        ) as conn:
            payload = b"[not json"
            conn.sendall(struct.pack(">I", len(payload)) + payload)
            response = recv_frame(conn)
            assert response["error"]["code"] == "bad_json"
            assert response["error"]["message"].startswith("malformed JSON: ")
            send_frame(conn, {"type": "still_alive"})
            assert recv_frame(conn)["ok"]

    def test_mid_request_disconnect_is_counted(self, frontend):
        conn = socket.create_connection(("127.0.0.1", frontend.port), timeout=10.0)
        conn.sendall(struct.pack(">I", 64) + b"partial")
        conn.close()
        deadline = time.monotonic() + 5.0
        while frontend.status()["disconnects_mid_request"] == 0:
            assert time.monotonic() < deadline, "disconnect never counted"
            time.sleep(0.01)
        assert frontend.status()["disconnects_mid_request"] == 1


class TestStop:
    def test_stop_with_open_connection_logs_nothing(self, capfd, caplog):
        """Stopping with a client still connected ends its handler on
        EOF; asyncio teardown has nothing to cancel, so no traceback."""
        front = FleetFrontend(_echo)
        front.start()
        with socket.create_connection(("127.0.0.1", front.port), timeout=10.0) as conn:
            send_frame(conn, {"type": "echo"})
            assert recv_frame(conn)["ok"]  # the handler is mid-connection
            front.stop(drain=False)
            assert recv_frame(conn) is None  # closed by the server
        assert capfd.readouterr().err == ""
        assert [r for r in caplog.records if r.name == "asyncio"] == []
