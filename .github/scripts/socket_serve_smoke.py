"""Socket-serve smoke: a 2-shard fleet under a traced TCP workload,
one shard SIGKILLed and restarted, answers checked against a monolith.

Run from the repository root after the telemetry smoke has written
``telemetry-artifacts/data`` and ``telemetry-artifacts/model.json``::

    PYTHONPATH=src python .github/scripts/socket_serve_smoke.py

The shards use the spawn start method, which re-imports ``__main__``
from its file in every child, so the drill runs from this file, never
from ``python -`` on stdin.
"""

import json
import numpy as np
from repro.core.service import DomdService
from repro.data import load_dataset
from repro.data.dates import day_to_iso, iso_to_day
from repro.persistence import load_estimator
from repro.serve.client import FrameClient
from repro.serve.fleet import FleetService

def run_smoke():
    # Shard processes use the spawn start method; keep the
    # drill out of module scope so a re-imported __main__
    # cannot re-enter it.
    model, data = "telemetry-artifacts/model.json", "telemetry-artifacts/data"
    dataset = load_dataset(data)
    fleet = FleetService(
        model, data, shards=2, wal_dir="fleet-artifacts/wal",
        events_dir="fleet-artifacts/events", start_timeout=300.0)
    port = fleet.start()
    owned = {s: [] for s in fleet.ring.shard_ids}
    for a, ship in zip(dataset.avails["avail_id"], dataset.avails["ship_id"]):
        owned[fleet.ring.owner_of_ship(int(ship))].append(int(a))
    date = day_to_iso(int(np.median(np.asarray(dataset.avails["act_start"]))) + 40)
    trace = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
    client = FrameClient("127.0.0.1", port, timeout=30.0)

    # Traced mixed workload across both shards.
    for shard, avails in owned.items():
        r = client.request({"type": "domd_query", "avail_ids": avails[:2],
                            "t_star": 50.0, "deadline_ms": 20000,
                            "traceparent": trace})
        assert r["ok"], r
    # fleet_status parity across the process boundary: the
    # scattered answer equals an in-process monolith's, and
    # each estimate equals its avail's one-avail query.
    est = load_estimator(model, dataset)
    status = client.request({"type": "fleet_status", "date": date})
    assert status["ok"], status
    local = DomdService(est).handle({"type": "fleet_status", "date": date})
    assert local["ok"], local
    remote = {r["avail_id"]: r["estimated_delay_days"] for r in status["result"]}
    assert remote, status
    assert remote == {r["avail_id"]: r["estimated_delay_days"]
                      for r in local["result"]}, (remote, local)
    day = float(iso_to_day(date))
    for avail_id, value in remote.items():
        alone = est.query([avail_id], physical_day=day)[0].current_estimate
        assert value == alone, (avail_id, value, alone)
    assert client.request({"type": "health"})["result"]["status"] == "ok"
    next_id = int(np.max(dataset.rccs["rcc_id"])) + 1
    for i in range(4):
        r = client.request({"type": "ingest", "traceparent": trace,
            "events": [{"kind": "rcc_created", "rcc_id": next_id + i,
                        "avail_id": owned[i % 2][0], "rcc_type": "G",
                        "swlin": "111-11-001", "create_date": 700,
                        "amount": 12.5}]})
        assert r["ok"], r
    probe = {"type": "domd_query", "avail_ids": [owned[1][0]], "t_star": 50.0}
    before = client.request(probe)
    assert before["ok"], before

    # Kill one shard mid-run: degraded, never hung.
    fleet.kill_shard(1)
    status = client.request({"type": "fleet_status", "date": date})
    assert status["ok"] and status["degraded"]["missing_shards"] == [1], status
    down = client.request(probe)
    assert down["error"]["code"] == "overloaded" and down["error"]["retryable"], down

    # Restart: WAL replay restores every acknowledged write.
    fleet.restart_shard(1, graceful=False)
    statuses = client.request({"type": "shard_status"})["result"]
    assert statuses["1"]["watermark"] == 2, statuses
    # A live shard maintains its store and features, no index.
    assert statuses["1"]["ingest"]["designs"] == [], statuses
    after = client.request(probe)
    assert after["ok"], after
    assert after["result"][0]["current"] == before["result"][0]["current"], \
        "acked write lost across kill -9"

    # Monolith parity on avails untouched by the ingested
    # events: shard answers are bitwise the fleet-wide truth.
    for shard, avails in owned.items():
        r = client.request({"type": "domd_query", "avail_ids": avails[1:3],
                            "t_star": 30.0})
        assert r["ok"], r
        for item, exp in zip(r["result"], est.query(avails[1:3], t_star=30.0)):
            assert item["current"] == exp.current_estimate, (item, exp)
    client.close()
    fleet.stop(drain=False)
    print("socket-serve smoke: OK")

if __name__ == "__main__":
    run_smoke()
