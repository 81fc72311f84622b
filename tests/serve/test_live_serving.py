"""Live serving keeps only what answers read.

A served answer reads the feature tensor and the window models, never
a logical-time index, so the serving write paths — a WAL-backed shard's
start-up replay and ``ingest``, and ``repro serve --follow`` — maintain
the RCC store and the features alone.  The end-to-end ``serve
--follow`` case drives the real CLI: ``ingest append`` writes the WAL,
and a stdin that waits for ``health`` to report the watermark sends the
query.
"""

from __future__ import annotations

import io
import json
import time

import numpy as np

from repro.cli import main
from repro.core.service import DomdService
from repro.persistence import load_estimator
from repro.serve.client import FrameClient
from repro.serve.shard import build_shard_runtime
from repro.stream import MutableIndexAdapter, StreamingRccStore, WalWriter
from tests.serve.test_shard_server import _owned_avails


def _created(dataset, avail_id: int, n: int, first_id: int) -> list[dict]:
    """``n`` fresh rcc_created events a few days into ``avail_id``."""
    row = list(dataset.avails["avail_id"]).index(avail_id)
    start = int(dataset.avails["act_start"][row])
    return [
        {
            "kind": "rcc_created",
            "rcc_id": first_id + i,
            "avail_id": avail_id,
            "rcc_type": "G",
            "swlin": "111-11-001",
            "create_date": start + 3 + i,
            "amount": 10.0 + i,
        }
        for i in range(n)
    ]


def _serve_following(serve_env, wal, query: dict, watermark: int) -> dict:
    """``repro serve --follow wal``: answer ``query`` once ``health``
    reports ``watermark``; returns the query's response."""
    out = io.StringIO()

    def requests():
        deadline = time.monotonic() + 30.0
        while True:
            yield json.dumps({"type": "health"}) + "\n"
            health = json.loads(out.getvalue().splitlines()[-1])
            if health["result"]["ingest"]["watermark_seq"] == watermark:
                break
            if time.monotonic() > deadline:
                raise AssertionError(f"follower never reached {watermark}: {health}")
            time.sleep(0.02)
        yield json.dumps(query) + "\n"

    code = main(
        [
            "serve",
            "--model", serve_env.model_path,
            "--data", serve_env.data_dir,
            "--follow", str(wal),
            "--follow-poll-ms", "20",
        ],
        out=out,
        stdin=requests(),
    )
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_serving_paths_build_no_index_adapter(serve_env, tmp_path, monkeypatch):
    built = []
    init = MutableIndexAdapter.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["design"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(MutableIndexAdapter, "__init__", counted)
    dataset = serve_env.dataset
    avail_id = _owned_avails(dataset, 0)[0]
    next_id = int(np.max(dataset.rccs["rcc_id"])) + 1
    events = _created(dataset, avail_id, 3, next_id)
    wal = tmp_path / "shard-0.wal"
    with WalWriter(wal) as writer:
        writer.append_batch(events[:2])

    runtime = build_shard_runtime(
        {
            "shard_id": 0,
            "shard_ids": [0, 1],
            "model": serve_env.model_path,
            "data": serve_env.data_dir,
            "wal_path": str(wal),
        }
    )
    runtime.server.start()
    try:
        assert runtime.ingestor.watermark == 2
        assert built == [], "shard start-up built an index"
        with FrameClient("127.0.0.1", runtime.server.port, timeout=10.0) as client:
            ack = client.request({"type": "ingest", "events": events[2:]})
            status = client.request({"type": "shard_status"})["result"]
    finally:
        runtime.close()
    assert ack["ok"] and ack["watermark"] == 3, ack
    assert built == [], "shard ingest built an index"
    assert status["ingest"]["designs"] == []
    assert status["ingest"]["rebuilds"] == status["ingest"]["staged"] == {}

    answer = _serve_following(
        serve_env,
        wal,
        {"type": "domd_query", "avail_ids": [avail_id], "t_star": 60.0},
        watermark=3,
    )
    assert answer["ok"] and answer["watermark"] == 3, answer
    assert built == [], "serve --follow built an index"


def test_serve_follow_answers_like_a_fresh_service(serve_env, tmp_path):
    dataset = serve_env.dataset
    avail_id = int(dataset.avails["avail_id"][0])
    events = _created(
        dataset, avail_id, 4, int(np.max(dataset.rccs["rcc_id"])) + 1
    )
    events_path = tmp_path / "live-events.jsonl"
    events_path.write_text(
        "".join(json.dumps(event) + "\n" for event in events), encoding="utf-8"
    )
    wal = tmp_path / "wal.jsonl"
    out = io.StringIO()
    code = main(
        [
            "ingest", "append",
            "--wal", str(wal),
            "--events", str(events_path),
            "--data", serve_env.data_dir,
        ],
        out=out,
    )
    assert code == 0, out.getvalue()
    assert json.loads(out.getvalue())["last_seq"] == 4

    query = {"type": "domd_query", "avail_ids": [avail_id], "t_star": 60.0}
    answer = _serve_following(serve_env, wal, query, watermark=4)

    assert answer["ok"] and answer["watermark"] == 4, answer
    store = StreamingRccStore.from_dataset(dataset)
    for event in events:
        store.apply(event)
    fresh = DomdService(load_estimator(serve_env.model_path, store.dataset()))
    expected = fresh.handle(query)
    assert expected["ok"], expected
    assert answer["result"] == json.loads(json.dumps(expected["result"]))
    provenance = answer["provenance"]
    assert "designs" not in provenance and "planner_design" not in provenance
    assert provenance["feature_key"].endswith("@4")
