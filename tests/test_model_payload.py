"""Model files and model hashes are what they were before.

``tree_to_payload`` reads a tree's parameters field by field instead of
through ``dataclasses.asdict``, ``tree_from_payload`` builds nodes
positionally, and ``load_estimator`` takes ``model_hash`` from the
payload it parsed instead of rebuilding the payload from the loaded
model.  Saved files must be byte-identical to the ``asdict`` writer's,
loaded trees node-for-node equal to keyword-built ones, and the hash
equal to the rebuilt payload's.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

import repro.persistence as persistence
from repro.core import DomdEstimator, PipelineConfig
from repro.ml import GbmParams
from repro.ml.tree import _Node
from repro.persistence import load_estimator, save_estimator
from repro.runtime.cache import fingerprint_of

CONFIGS = {
    "flat": PipelineConfig(window_pct=25.0, k=8, gbm=GbmParams(n_estimators=6)),
    "stacked": PipelineConfig(
        window_pct=25.0,
        k=8,
        architecture="stacked",
        loss="pseudo_huber",
        fusion="average",
        gbm=GbmParams(n_estimators=5, subsample=0.7, reg_lambda=0.0, gamma=0.5),
    ),
    "linear": PipelineConfig(window_pct=25.0, k=8, model_family="linear"),
}


def asdict_tree_to_payload(tree):
    """The writer before: ``asdict`` once per tree (verbatim)."""
    return {
        "params": asdict(tree.params),
        "n_features": tree._n_features,
        "nodes": [
            [getattr(node, f) for f in persistence._NODE_FIELDS] for node in tree._nodes
        ],
    }


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def fitted(request):
    dataset = request.getfixturevalue("small_dataset")
    splits = request.getfixturevalue("small_splits")
    estimator = DomdEstimator(CONFIGS[request.param]).fit(dataset, splits.train_ids)
    return dataset, estimator


def test_saved_file_is_byte_identical(fitted, tmp_path, monkeypatch):
    _, estimator = fitted
    save_estimator(estimator, tmp_path / "new.json")
    monkeypatch.setattr(persistence, "tree_to_payload", asdict_tree_to_payload)
    save_estimator(estimator, tmp_path / "old.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def test_reloaded_model_saves_the_same_bytes(fitted, tmp_path):
    dataset, estimator = fitted
    save_estimator(estimator, tmp_path / "a.json")
    save_estimator(load_estimator(tmp_path / "a.json", dataset), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_model_hash_equals_the_rebuilt_payloads(fitted, tmp_path):
    dataset, estimator = fitted
    save_estimator(estimator, tmp_path / "model.json")
    loaded = load_estimator(tmp_path / "model.json", dataset)
    rebuilt = fingerprint_of(
        json.dumps(persistence.model_set_to_payload(loaded._model_set), sort_keys=True)
    )
    assert loaded.provenance()["model_hash"] == rebuilt
    assert estimator.provenance()["model_hash"] == rebuilt


def test_positional_nodes_equal_keyword_nodes(fitted, tmp_path):
    dataset, estimator = fitted
    save_estimator(estimator, tmp_path / "model.json")
    payload = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
    loaded = load_estimator(tmp_path / "model.json", dataset)
    windows = [w["model"] for w in payload["model_set"]["windows"]]
    models = [w.model for w in loaded._model_set.windows]
    for saved, adapter in zip(windows, models):
        if saved["family"] != "gbm":
            continue
        for tree_payload, tree in zip(saved["model"]["trees"], adapter._model._trees):
            keyword = [
                _Node(**dict(zip(persistence._NODE_FIELDS, values)))
                for values in tree_payload["nodes"]
            ]
            assert tree._nodes == keyword
