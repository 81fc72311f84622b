"""Model files are byte-identical to the per-node float-argsort builder's.

Every regime's dataset (all its closed avails) is fitted twice, once with the presorted split
search and once with :func:`tests.ml.tree_oracle.oracle_builder`, and
the two ``save_estimator`` artefacts must match byte for byte.  The
configurations cover the flat and the stacked architecture and the
growth knobs whose edge cases the split search handles: row and column
subsampling, ``reg_lambda`` 0, ``gamma`` above 0, ``min_child_weight``
0 and ``min_samples_leaf`` 1.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import pytest

from repro.core import DomdEstimator, PipelineConfig
from repro.ml import GbmParams
from repro.persistence import save_estimator
from tests.ml.tree_oracle import oracle_builder
from tests.regimes.conftest import regime_params

CONFIGS = {
    "pseudo_huber": PipelineConfig(
        window_pct=25.0, k=10, loss="pseudo_huber", gbm=GbmParams(n_estimators=30)
    ),
    "stacked_subsampled": PipelineConfig(
        window_pct=25.0,
        k=10,
        architecture="stacked",
        gbm=GbmParams(
            n_estimators=20,
            subsample=0.7,
            colsample=0.5,
            reg_lambda=0.0,
            gamma=0.5,
            min_child_weight=0.0,
            min_samples_leaf=1,
        ),
    ),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("regime", regime_params())
def test_model_file_matches_the_oracle_builder(regime, config, regime_cache, tmp_path):
    _, dataset, _, _ = regime_cache(regime)
    paths = {}
    for builder in ("presorted", "oracle"):
        paths[builder] = tmp_path / f"{builder}.json"
        with oracle_builder() if builder == "oracle" else nullcontext():
            estimator = DomdEstimator(CONFIGS[config]).fit(dataset)
        save_estimator(estimator, paths[builder])
    artefact = paths["presorted"].read_bytes()
    assert artefact == paths["oracle"].read_bytes()
    # Some trees split under the relaxed knobs in every regime; the
    # default ones leave sparse_fleet's 7 closed avails unsplit.
    assert n_splits(json.loads(artefact)) > 0 or config == "pseudo_huber"


def n_splits(payload) -> int:
    """Split nodes in every tree of a model file."""
    if isinstance(payload, dict):
        if "nodes" in payload:
            return sum(node[3] >= 0 for node in payload["nodes"])  # feature
        payload = list(payload.values())
    if isinstance(payload, list):
        return sum(n_splits(item) for item in payload)
    return 0
