"""Fleet start-up: shards start together, fail together, replay once.

:class:`~repro.serve.supervisor.ShardSupervisor` spawns every shard
before it waits for any handshake, then takes the handshakes in shard-id
order; :class:`~repro.serve.fleet.FleetService` builds its routing table
in between, from the avails alone when ingest is off.  A failure
anywhere leaves no shard process behind and never opens the front door.
A restarting shard reads its WAL once.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from pathlib import Path

import numpy as np
import pytest

import repro.data.loader as loader_module
import repro.serve.supervisor as supervisor_module
import repro.stream.wal as wal_module
from repro.core.service import DomdService
from repro.serve.client import FrameClient
from repro.serve.fleet import FleetService, build_shard_specs
from repro.serve.frontend import FleetFrontend
from repro.serve.shard import build_shard_runtime
from repro.serve.supervisor import ShardStartupError, ShardSupervisor
from repro.stream import WalWriter
from tests.serve.test_live_serving import _created
from tests.serve.test_shard_server import _owned_avails


def _timed_entry(spec: dict, conn) -> None:
    """Stand-in shard: records when it started, reports ready after a pause."""
    started = time.monotonic()
    time.sleep(spec["pause"])
    ready = time.monotonic()
    Path(spec["record"]).write_text(json.dumps({"started": started, "ready": ready}))
    conn.send(("ready", 0))
    conn.close()


def _child_pids() -> set[int]:
    return {process.pid for process in multiprocessing.active_children()}


def _specs_with_missing_model(serve_env, tmp_path, failing: tuple[int, ...]):
    specs = build_shard_specs(serve_env.model_path, serve_env.data_dir, (0, 1))
    for shard_id in failing:
        specs[shard_id]["model"] = str(tmp_path / "no-such-model.json")
    return specs


def test_shards_start_together(tmp_path, monkeypatch):
    monkeypatch.setattr(supervisor_module, "shard_entry", _timed_entry)
    specs = {
        shard_id: {"pause": pause, "record": str(tmp_path / f"{shard_id}.json")}
        for shard_id, pause in ((0, 2.0), (1, 0.0))
    }
    supervisor = ShardSupervisor(specs, start_timeout=60.0)
    try:
        assert supervisor.start() == {0: 0, 1: 0}
    finally:
        supervisor.stop_all(graceful=False)
    first, second = (
        json.loads((tmp_path / f"{shard_id}.json").read_text()) for shard_id in (0, 1)
    )
    assert second["started"] < first["ready"], (
        "shard 1 started only after shard 0 reported ready"
    )


@pytest.mark.parametrize(("failing", "named"), [((1,), 1), ((0, 1), 0)])
def test_failed_start_names_the_lowest_failing_shard_and_leaves_no_process(
    serve_env, tmp_path, failing, named
):
    before = _child_pids()
    specs = _specs_with_missing_model(serve_env, tmp_path, failing)
    supervisor = ShardSupervisor(specs, start_timeout=300.0)
    with pytest.raises(ShardStartupError) as error:
        supervisor.start()
    message = str(error.value)
    assert message.startswith(f"shard {named} failed to start:"), message
    assert "Traceback" in message and "no-such-model.json" in message, message
    assert _child_pids() <= before, "a shard process outlived the failed start"
    assert not supervisor.alive(0) and not supervisor.alive(1)
    assert supervisor.ports() == {}


def test_fleet_start_failure_stops_every_shard_and_keeps_the_door_shut(
    serve_env, tmp_path, monkeypatch
):
    opened = []
    monkeypatch.setattr(FleetFrontend, "start", lambda self: opened.append(self))
    before = _child_pids()
    fleet = FleetService(serve_env.model_path, serve_env.data_dir, shards=2)
    fleet.supervisor = ShardSupervisor(
        _specs_with_missing_model(serve_env, tmp_path, (1,)), start_timeout=300.0
    )
    with pytest.raises(ShardStartupError, match="shard 1 failed to start"):
        fleet.start()
    assert _child_pids() <= before
    assert not fleet.supervisor.alive(0)
    assert fleet.frontend is None and opened == []


def test_fleet_routing_failure_stops_the_spawned_shards(serve_env, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("routing table failed")

    monkeypatch.setattr("repro.serve.fleet.RoutingTable", broken)
    before = _child_pids()
    fleet = FleetService(serve_env.model_path, serve_env.data_dir, shards=2)
    with pytest.raises(RuntimeError, match="routing table failed"):
        fleet.start()
    assert _child_pids() <= before
    assert not fleet.supervisor.alive(0) and not fleet.supervisor.alive(1)
    assert fleet.frontend is None


def test_shard_restart_reads_its_wal_once(serve_env, tmp_path, monkeypatch):
    dataset = serve_env.dataset
    avail_id = _owned_avails(dataset, 0)[0]
    events = _created(dataset, avail_id, 3, int(np.max(dataset.rccs["rcc_id"])) + 1)
    wal = tmp_path / "shard-0.wal"
    with WalWriter(wal) as writer:
        writer.append_batch(events)
    intact = wal.stat().st_size
    with wal.open("ab") as handle:
        handle.write(b'{"seq": 4, "crc"')  # a torn final write

    reads = []
    read_wal = wal_module.read_wal

    def counted(*args, **kwargs):
        reads.append(args)
        return read_wal(*args, **kwargs)

    monkeypatch.setattr(wal_module, "read_wal", counted)
    runtime = build_shard_runtime(
        {
            "shard_id": 0,
            "shard_ids": [0, 1],
            "model": serve_env.model_path,
            "data": serve_env.data_dir,
            "wal_path": str(wal),
        }
    )
    try:
        assert len(reads) == 1
        assert runtime.ingestor.watermark == runtime.wal.last_seq == 3
        assert wal.stat().st_size == intact, "the torn tail was not cut"
        assert runtime.wal.take_recovered() == []
    finally:
        runtime.close()


def _front_end_reads(monkeypatch) -> list[str]:
    """Names of the dataset CSVs this process reads from now on."""
    reads: list[str] = []
    read_csv = loader_module.read_csv

    def recorded(path):
        reads.append(Path(path).name)
        return read_csv(path)

    monkeypatch.setattr(loader_module, "read_csv", recorded)
    return reads


def test_static_fleet_reads_no_rccs_and_routes_as_before(serve_env, monkeypatch):
    reads = _front_end_reads(monkeypatch)
    fleet = FleetService(
        serve_env.model_path, serve_env.data_dir, shards=2, start_timeout=300.0
    )
    port = fleet.start()
    try:
        assert reads == ["avails.csv"]
        ids = _owned_avails(serve_env.dataset, 0)[:2] + _owned_avails(serve_env.dataset, 1)[:2]
        requests = [
            {"type": "domd_query", "avail_ids": ids, "t_star": 30.0},
            {"type": "explain", "avail_id": ids[-1], "t_star": 55.0},
            {"type": "fleet_status", "date": serve_env.fleet_date},
        ]
        with FrameClient("127.0.0.1", port, timeout=30.0) as client:
            answers = [client.request(request) for request in requests]
    finally:
        fleet.stop(drain=False)
    service = DomdService(serve_env.estimator)
    for request, answer in zip(requests, answers):
        assert answer["ok"] and "degraded" not in answer, answer
        expected = service.handle(request)["result"]
        if request["type"] == "fleet_status":  # merged across the shards
            key = lambda row: row["avail_id"]  # noqa: E731
            assert sorted(answer["result"], key=key) == sorted(expected, key=key)
        else:
            assert answer["result"] == expected


def test_wal_fleet_front_end_still_reads_the_rccs(serve_env, tmp_path, monkeypatch):
    reads = _front_end_reads(monkeypatch)
    fleet = FleetService(
        serve_env.model_path, serve_env.data_dir, shards=2, wal_dir=str(tmp_path)
    )
    monkeypatch.setattr(fleet.supervisor, "spawn", lambda: None)
    monkeypatch.setattr(fleet.supervisor, "wait_ready", lambda: {0: 1, 1: 1})
    fleet.start()  # no shard process; the router never calls one
    try:
        assert sorted(reads) == ["avails.csv", "rccs.csv", "ships.csv"]
        rccs = serve_env.dataset.rccs
        rcc_id, avail_id = int(rccs["rcc_id"][0]), int(rccs["avail_id"][0])
        assert fleet.routing.shard_of_rcc(rcc_id) == fleet.routing.shard_of_avail(avail_id)
    finally:
        fleet.stop(drain=False)
