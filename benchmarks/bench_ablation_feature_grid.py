"""Ablation: feature-grid depth vs estimation quality and cost.

The paper fixes its grid at ~1490 features over SWLIN level 1; its tech
report sketches deeper hierarchies.  This ablation sweeps three grids —
compact (counts/sums only), the paper default, and the level-2 deep grid
(~9.4k features) — and reports extraction time, selection+fit time and
validation MAE with the final configuration's model settings.
"""

import time

import numpy as np

from repro.bench import emit_report, format_table
from repro.core import PipelineConfig, TimelineModelSet
from repro.features import FeatureGridSpec, StatusFeatureExtractor, static_features_for
from repro.features.selection import score_ranking
from repro.ml import GbmParams, mae

GRIDS = {
    "compact": FeatureGridSpec.compact,
    "default": FeatureGridSpec.default,
    "deep": FeatureGridSpec.deep,
}

EVAL_WINDOWS = (0, 5, 10)


def test_ablation_feature_grid(benchmark, dataset, splits):
    def run():
        config = PipelineConfig(
            selection_method="pearson", k=60, loss="pseudo_huber",
            huber_delta=18.0, gbm=GbmParams(n_estimators=100),
        )
        delay_by_id = {
            int(a): float(d)
            for a, d in zip(dataset.avails["avail_id"], dataset.avails["delay"])
        }
        X_static_all, static_names, _ = static_features_for(dataset)
        rows = []
        for label, factory in GRIDS.items():
            grid = factory()
            tic = time.perf_counter()
            extractor = StatusFeatureExtractor(dataset, grid=grid)
            tensor = extractor.extract()
            extract_s = time.perf_counter() - tic

            train_rows = tensor.rows_for(splits.train_ids)
            val_rows = tensor.rows_for(splits.validation_ids)
            y_train = np.array([delay_by_id[int(a)] for a in splits.train_ids])
            y_val = np.array([delay_by_id[int(a)] for a in splits.validation_ids])

            tic = time.perf_counter()
            errors = []
            for ti in EVAL_WINDOWS:
                X_dyn = tensor.values[train_rows, ti, :]
                ranking = score_ranking("pearson", X_dyn, y_train)
                selected = ranking[: min(60, tensor.n_features)]
                model_set = TimelineModelSet(config, tensor.feature_names, static_names)
                design = model_set._design(
                    X_static_all[train_rows], X_dyn, selected, None
                )
                model = model_set._new_model().fit(design, y_train)
                val_design = model_set._design(
                    X_static_all[val_rows], tensor.values[val_rows, ti, :], selected, None
                )
                errors.append(mae(y_val, model.predict(val_design)))
            fit_s = time.perf_counter() - tic
            rows.append(
                [
                    label,
                    tensor.n_features,
                    f"{extract_s:.2f}s",
                    f"{fit_s:.2f}s",
                    f"{np.mean(errors):.2f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["grid", "# features", "extract", "select+fit (3 windows)", "val MAE"], rows
    )
    emit_report(
        "ablation_feature_grid",
        "Ablation: feature-grid depth vs quality and cost",
        table,
    )
    by_label = {row[0]: row for row in rows}
    # The paper's grid should not lose to the compact one by much, and
    # the deep grid must not catastrophically overfit.
    assert float(by_label["default"][4]) <= float(by_label["compact"][4]) * 1.15
