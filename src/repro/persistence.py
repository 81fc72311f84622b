"""Model persistence: serialise fitted pipelines to JSON.

The deployed SMDII engine must survive process restarts without
refitting, and the paper's enclave workflow ships *fitted designs*
across environments.  This module serialises:

* :class:`~repro.ml.gbm.GradientBoostedTrees` — full tree structure;
* :class:`~repro.ml.linear.ElasticNet` — coefficients;
* :class:`~repro.core.timeline_models.TimelineModelSet` — per-window
  models, selections and design names;
* :class:`~repro.core.estimator.DomdEstimator` — the full service
  state, minus the dataset (features are re-extracted on load from the
  dataset you supply, which keeps the artefact small and CUI-free).

Format: a single JSON document with a version tag; everything is plain
lists/numbers so artefacts are diffable and auditable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.estimator import DomdEstimator
from repro.core.models import BaseModelAdapter, GbmAdapter, LinearAdapter
from repro.core.timeline_models import TimelineModelSet, WindowModel
from repro.data.schema import NavyMaintenanceDataset
from repro.errors import ConfigurationError, NotFittedError
from repro.ml.gbm import GbmParams, GradientBoostedTrees
from repro.ml.linear import ElasticNet
from repro.ml.tree import RegressionTree, TreeParams, _Node

FORMAT_VERSION = 1

#: ``_Node``'s fields, in its constructor's order.
_NODE_FIELDS = ("value", "n_samples", "cover", "feature", "threshold", "gain", "left", "right")
_TREE_PARAM_FIELDS = tuple(spec.name for spec in fields(TreeParams))


# ----------------------------------------------------------------------
# trees / GBM
# ----------------------------------------------------------------------
def tree_to_payload(tree: RegressionTree) -> dict[str, Any]:
    """Serialise one regression tree."""
    if not tree._nodes:
        raise NotFittedError("cannot serialise an unfitted tree")
    return {
        "params": {name: getattr(tree.params, name) for name in _TREE_PARAM_FIELDS},
        "n_features": tree._n_features,
        "nodes": [[getattr(node, f) for f in _NODE_FIELDS] for node in tree._nodes],
    }


def tree_from_payload(payload: dict[str, Any]) -> RegressionTree:
    """Rebuild a regression tree."""
    tree = RegressionTree(TreeParams(**payload["params"]))
    tree._n_features = int(payload["n_features"])
    tree._nodes = [_Node(*values) for values in payload["nodes"]]
    return tree


def gbm_to_payload(model: GradientBoostedTrees) -> dict[str, Any]:
    """Serialise a boosted ensemble."""
    model._check_fitted()
    return {
        "kind": "gbm",
        "params": asdict(model.params),
        "base_score": model._base_score,
        "n_features": model._n_features,
        "trees": [tree_to_payload(tree) for tree in model._trees],
    }


def gbm_from_payload(payload: dict[str, Any]) -> GradientBoostedTrees:
    """Rebuild a boosted ensemble."""
    model = GradientBoostedTrees(GbmParams(**payload["params"]))
    model._base_score = float(payload["base_score"])
    model._n_features = int(payload["n_features"])
    model._trees = [tree_from_payload(item) for item in payload["trees"]]
    return model


# ----------------------------------------------------------------------
# linear
# ----------------------------------------------------------------------
def elastic_net_to_payload(model: ElasticNet) -> dict[str, Any]:
    """Serialise an Elastic-Net model."""
    if model.coef_ is None:
        raise NotFittedError("cannot serialise an unfitted ElasticNet")
    return {
        "kind": "elastic_net",
        "alpha": model.alpha,
        "l1_ratio": model.l1_ratio,
        "coef": model.coef_.tolist(),
        "intercept": model.intercept_,
    }


def elastic_net_from_payload(payload: dict[str, Any]) -> ElasticNet:
    """Rebuild an Elastic-Net model."""
    model = ElasticNet(alpha=payload["alpha"], l1_ratio=payload["l1_ratio"])
    model.coef_ = np.asarray(payload["coef"], dtype=np.float64)
    model.intercept_ = float(payload["intercept"])
    model._fitted = True
    return model


# ----------------------------------------------------------------------
# adapters
# ----------------------------------------------------------------------
def adapter_to_payload(adapter: BaseModelAdapter) -> dict[str, Any]:
    """Serialise a base-model adapter (GBM or linear)."""
    if isinstance(adapter, GbmAdapter):
        return {"family": "gbm", "model": gbm_to_payload(adapter._fitted())}
    if isinstance(adapter, LinearAdapter):
        payload = {"family": "linear", "model": elastic_net_to_payload(adapter._fitted())}
        assert adapter._train_mean is not None
        payload["train_mean"] = adapter._train_mean.tolist()
        return payload
    raise ConfigurationError(f"cannot serialise adapter {type(adapter).__name__}")


def adapter_from_payload(payload: dict[str, Any]) -> BaseModelAdapter:
    """Rebuild a base-model adapter."""
    if payload["family"] == "gbm":
        model = gbm_from_payload(payload["model"])
        adapter = GbmAdapter(model.params)
        adapter._model = model
        return adapter
    if payload["family"] == "linear":
        inner = elastic_net_from_payload(payload["model"])
        adapter = LinearAdapter(alpha=inner.alpha, l1_ratio=inner.l1_ratio)
        adapter._model = inner
        adapter._train_mean = np.asarray(payload["train_mean"], dtype=np.float64)
        return adapter
    raise ConfigurationError(f"unknown adapter family {payload['family']!r}")


# ----------------------------------------------------------------------
# timeline model set / estimator
# ----------------------------------------------------------------------
def model_set_to_payload(model_set: TimelineModelSet) -> dict[str, Any]:
    """Serialise a fitted timeline model set."""
    model_set._check_fitted()
    return {
        "config": _config_to_payload(model_set.config),
        "dyn_feature_names": list(model_set.dyn_feature_names),
        "static_feature_names": list(model_set.static_feature_names),
        "base_model": (
            adapter_to_payload(model_set._base_model)
            if model_set._base_model is not None
            else None
        ),
        "windows": [
            {
                "t_star": window.t_star,
                "selected": window.selected.tolist(),
                "design_names": list(window.design_names),
                "model": adapter_to_payload(window.model),
            }
            for window in model_set.windows
        ],
    }


def model_set_from_payload(payload: dict[str, Any]) -> TimelineModelSet:
    """Rebuild a fitted timeline model set."""
    model_set = TimelineModelSet(
        config=_config_from_payload(payload["config"]),
        dyn_feature_names=list(payload["dyn_feature_names"]),
        static_feature_names=list(payload["static_feature_names"]),
    )
    if payload["base_model"] is not None:
        model_set._base_model = adapter_from_payload(payload["base_model"])
    model_set._windows = [
        WindowModel(
            t_star=float(item["t_star"]),
            selected=np.asarray(item["selected"], dtype=np.int64),
            model=adapter_from_payload(item["model"]),
            design_names=list(item["design_names"]),
        )
        for item in payload["windows"]
    ]
    return model_set


def model_hash(payload: dict[str, Any]) -> str:
    """Fingerprint of a model-set payload (its sorted-key JSON)."""
    from repro.runtime.cache import fingerprint_of

    return fingerprint_of(json.dumps(payload, sort_keys=True))


def _config_to_payload(config: PipelineConfig) -> dict[str, Any]:
    payload = asdict(config)
    payload["gbm"] = asdict(config.gbm)
    return payload


def _config_from_payload(payload: dict[str, Any]) -> PipelineConfig:
    payload = dict(payload)
    payload["gbm"] = GbmParams(**payload["gbm"])
    return PipelineConfig(**payload)


def save_estimator(estimator: DomdEstimator, path: str | Path) -> None:
    """Write a fitted estimator's model state to a JSON artefact.

    The dataset is *not* stored (it may be CUI); pass it again at load.
    """
    estimator._check_fitted()
    assert estimator._model_set is not None
    payload = {
        "format_version": FORMAT_VERSION,
        "config": _config_to_payload(estimator.config),
        "model_set": model_set_to_payload(estimator._model_set),
    }
    if estimator._static_vocab is not None:
        # Fit-time categorical vocabulary: loading the artefact against a
        # subset of the fit dataset (a shard's ship slice) must encode
        # exactly like the monolith.  Optional for old artefacts.
        payload["static_vocab"] = {
            column: {str(label): int(code) for label, code in mapping.items()}
            for column, mapping in estimator._static_vocab.items()
        }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")


def load_estimator(
    path: str | Path,
    dataset: NavyMaintenanceDataset,
    context: "ExecutionContext | None" = None,
) -> DomdEstimator:
    """Rebuild an estimator from an artefact + the dataset to serve.

    Features are re-extracted from ``dataset`` (fast, and memoised in
    ``context``'s artifact cache), the fitted window models come from
    the artefact — no retraining happens.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"artefact format {version!r} unsupported (expected {FORMAT_VERSION})"
        )
    config = _config_from_payload(payload["config"])
    estimator = DomdEstimator(config, context=context)
    from repro.features.static import static_features_for

    estimator._dataset = dataset
    estimator._tensor = estimator._extract_features()
    estimator._static_vocab = payload.get("static_vocab")
    X_static, estimator._static_names, static_ids = static_features_for(
        dataset, vocab=estimator._static_vocab
    )
    estimator._X_static = X_static
    estimator._avail_ids = static_ids
    estimator._model_set = model_set_from_payload(payload["model_set"])
    estimator._model_set.context = estimator.context
    # The artefact's payload is what model_set_to_payload would rebuild.
    estimator._model_set._content_hash = model_hash(payload["model_set"])
    return estimator


# ----------------------------------------------------------------------
# streaming snapshots (snapshot + WAL-tail replay = recovery)
# ----------------------------------------------------------------------
STREAM_FORMAT_VERSION = 1


def save_stream_snapshot(ingestor: Any, path: str | Path) -> None:
    """Checkpoint a :class:`~repro.stream.ingest.StreamIngestor`.

    The snapshot pins the watermark and the full store state (tables +
    the orphan buffer of out-of-order events), so recovery is *snapshot
    + WAL-tail replay from the pinned watermark*: indexes are rebuilt
    from the restored triples, acknowledged batches are never lost
    (pinned by ``tests/stream/test_snapshot_restore.py``).
    """
    from repro.stream.events import table_to_payload

    store = ingestor.store
    payload = {
        "stream_format_version": STREAM_FORMAT_VERSION,
        "watermark": {
            "seq": ingestor.watermark,
            "applied_batches": ingestor.applied_batches,
            "applied_events": ingestor.applied_events,
            "skipped_duplicates": ingestor.skipped_duplicates,
        },
        "designs": sorted(ingestor.adapters),
        "seed": store.seed,
        "scaling_factor": store.scaling_factor,
        "ships": table_to_payload(store.ships),
        "avails": table_to_payload(store.avails_table()),
        "rccs": table_to_payload(store.rcc_table(order="slot")),
        "orphans": store.orphans_payload(),
        "store_counts": dict(store.counts),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")


def load_stream_snapshot(
    path: str | Path,
    context: "ExecutionContext | None" = None,
    designs: "list[str] | None" = None,
    rebuild_threshold: int | None = None,
) -> Any:
    """Rebuild a :class:`~repro.stream.ingest.StreamIngestor` from a
    snapshot; replay the WAL tail past its watermark to catch up."""
    from repro.stream.events import table_from_payload
    from repro.stream.ingest import StreamIngestor
    from repro.stream.store import StreamingRccStore

    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("stream_format_version")
    if version != STREAM_FORMAT_VERSION:
        raise ConfigurationError(
            f"stream snapshot format {version!r} unsupported "
            f"(expected {STREAM_FORMAT_VERSION})"
        )
    store = StreamingRccStore(
        ships=table_from_payload(payload["ships"]),
        avails=table_from_payload(payload["avails"]),
        seed=payload.get("seed"),
        scaling_factor=int(payload.get("scaling_factor", 1)),
    )
    # Rows were saved in slot order; loading them as create(+settle)
    # pairs reconstructs identical slots, logical times and status.
    store.load_rows(table_from_payload(payload["rccs"]))
    store.restore_orphans(payload.get("orphans", {}))
    store.counts = dict(payload.get("store_counts", store.counts))
    watermark = payload.get("watermark", {})
    ingestor = StreamIngestor(
        store,
        designs=designs if designs is not None else payload.get("designs", ["avl"]),
        rebuild_threshold=rebuild_threshold,
        context=context,
        watermark=int(watermark.get("seq", 0)),
    )
    ingestor.applied_batches = int(watermark.get("applied_batches", 0))
    ingestor.applied_events = int(watermark.get("applied_events", 0))
    ingestor.skipped_duplicates = int(watermark.get("skipped_duplicates", 0))
    return ingestor
