"""A shard starts on its serving path alone and hashes its inputs once.

A shard process imports :mod:`repro.serve.shard` and builds its runtime;
the package inits resolve their public names on first use, so that
loads neither the asyncio front door, the router, the CLI, the
optimizer nor any index design.  Its first answer stamps provenance
from the model payload the loader parsed and the tensor key the
extraction computed, with the same hashes as before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.persistence as persistence
from repro.data.schema import NavyMaintenanceDataset
from repro.features.transform import tensor_cache_key
from repro.runtime.cache import fingerprint_of
from repro.serve.fleet import build_shard_specs
from repro.serve.shard import build_shard_runtime
from tests.serve.test_live_serving import _created
from tests.serve.test_shard_server import _owned_avails

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules no shard needs: the front door and its event loop, the
#: router, the CLI, the optimizer and the index designs.
NOT_ON_THE_SHARD_PATH = (
    "asyncio",
    "repro.cli",
    "repro.serve.frontend",
    "repro.serve.router",
    "repro.serve.fleet",
    "repro.core.pipeline",
    "repro.index.naive",
    "repro.index.avl",
    "repro.index.avl_index",
    "repro.index.interval_index",
    "repro.index.interval_tree",
    "repro.index.sorted_array",
    "repro.stream.mutable",
)

#: Packages whose inits resolve their names lazily.
LAZY_PACKAGES = (
    "repro.core",
    "repro.data",
    "repro.features",
    "repro.index",
    "repro.ml",
    "repro.runtime",
    "repro.runtime.telemetry",
    "repro.stream",
)

_SHARD_SCRIPT = """
import json, sys
import repro.serve.shard as shard
spec, requests = json.loads(sys.argv[1]), json.loads(sys.argv[2])
runtime = shard.build_shard_runtime(spec)
loaded = sorted(sys.modules)
new = []
for request in requests:
    before = set(sys.modules)
    response, _ = runtime.server._respond(request)
    assert response["ok"], response
    new.append(sorted(set(sys.modules) - before))
runtime.close()
print(json.dumps({"loaded": loaded, "new": new}))
"""


def _fresh_interpreter(code: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _requests(serve_env) -> list[dict]:
    avail = _owned_avails(serve_env.dataset, 0)[0]
    return [
        {"type": "domd_query", "avail_ids": [avail], "t_star": 30.0},
        {"type": "explain", "avail_id": avail, "t_star": 55.0},
        {"type": "fleet_status", "date": serve_env.fleet_date},
    ]


@pytest.mark.parametrize("live", [False, True], ids=["static", "wal"])
def test_shard_imports_only_its_serving_path(serve_env, tmp_path, live):
    spec = build_shard_specs(
        serve_env.model_path,
        serve_env.data_dir,
        (0, 1),
        wal_dir=str(tmp_path) if live else None,
    )[0]
    warm = {"type": "fleet_status", "date": serve_env.fleet_date}
    run = _fresh_interpreter(
        _SHARD_SCRIPT, json.dumps(spec), json.dumps([warm] + _requests(serve_env))
    )
    loaded = set(run["loaded"])
    assert "repro.serve.shard" in loaded and "repro.core.service" in loaded
    assert sorted(loaded & set(NOT_ON_THE_SHARD_PATH)) == []
    # After the warm-up answer, the first query, explanation and fleet
    # status run no import.
    assert run["new"][1:] == [[], [], []]


def test_every_public_name_still_resolves():
    code = """
import importlib, json
out = {}
for name in %r:
    package = importlib.import_module(name)
    missing = [n for n in package.__all__ if getattr(package, n, None) is None]
    unlisted = sorted(set(package.__all__) - set(dir(package)))
    out[name] = [len(package.__all__), missing, unlisted]
print(json.dumps(out))
""" % (LAZY_PACKAGES,)
    for name, (count, missing, unlisted) in _fresh_interpreter(code).items():
        assert count > 0, name
        assert missing == [] and unlisted == [], name
    with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
        repro.core.NoSuchName  # noqa: B018


def test_names_resolve_to_their_modules_objects():
    from repro import core, index, stream
    from repro.core.estimator import DomdEstimator
    from repro.index.status_query import StatusQueryEngine
    from repro.stream.store import StreamingRccStore

    assert core.DomdEstimator is DomdEstimator
    assert index.StatusQueryEngine is StatusQueryEngine
    assert stream.StreamingRccStore is StreamingRccStore


def _parent_provenance(estimator) -> dict[str, str]:
    """Provenance as it was computed before: payload rebuilt, data hashed."""
    return {
        "model_hash": fingerprint_of(
            json.dumps(
                persistence.model_set_to_payload(estimator._model_set), sort_keys=True
            )
        ),
        "config_hash": fingerprint_of(
            json.dumps(persistence._config_to_payload(estimator.config), sort_keys=True)
        ),
        "feature_key": "/".join(
            tensor_cache_key(estimator._dataset, estimator.timeline.t_stars)
        ),
    }


def test_static_start_and_first_answer_hash_once(serve_env, monkeypatch):
    calls: Counter[str] = Counter()
    rebuild = persistence.model_set_to_payload
    fingerprint = NavyMaintenanceDataset.fingerprint

    def counted_rebuild(model_set):
        calls["model_set_to_payload"] += 1
        return rebuild(model_set)

    def counted_fingerprint(self):
        calls["fingerprint"] += 1
        return fingerprint(self)

    monkeypatch.setattr(persistence, "model_set_to_payload", counted_rebuild)
    monkeypatch.setattr(NavyMaintenanceDataset, "fingerprint", counted_fingerprint)
    spec = build_shard_specs(serve_env.model_path, serve_env.data_dir, (0, 1))[0]
    runtime = build_shard_runtime(spec)
    try:
        response, _ = runtime.server._respond(_requests(serve_env)[0])
    finally:
        runtime.close()
    assert response["ok"], response
    assert calls == {"fingerprint": 1}
    monkeypatch.undo()
    expected = _parent_provenance(runtime.service._estimator)
    assert {key: response["provenance"][key] for key in expected} == expected


def test_live_shard_provenance_is_unchanged(serve_env, tmp_path):
    spec = build_shard_specs(
        serve_env.model_path, serve_env.data_dir, (0, 1), wal_dir=str(tmp_path)
    )[0]
    runtime = build_shard_runtime(spec)
    try:
        booted = runtime.service._estimator
        expected = _parent_provenance(booted)
        assert booted.provenance() == expected
        avail = _owned_avails(serve_env.dataset, 0)[0]
        rcc_id = int(np.max(serve_env.dataset.rccs["rcc_id"])) + 1
        events = _created(serve_env.dataset, avail, 2, rcc_id)
        ack, _ = runtime.server._respond({"type": "ingest", "events": events})
        assert ack["ok"], ack
        live = runtime.service._estimator.provenance()
    finally:
        runtime.close()
    assert live["model_hash"] == expected["model_hash"]
    assert live["config_hash"] == expected["config_hash"]
    assert live["feature_key"] == f"{expected['feature_key']}@{ack['watermark']}"
