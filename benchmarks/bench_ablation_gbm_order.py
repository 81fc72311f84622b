"""Ablation: second-order (Newton) vs first-order gradient boosting.

The XGBoost-style learner uses hessian-weighted split gains and leaf
weights.  This ablation retrains the final pipeline's window models with
hessians forced to 1 (plain gradient boosting) and compares validation
MAE — quantifying what the second-order machinery buys on the robust
pseudo-Huber loss, where hessians carry the outlier down-weighting.
"""

import numpy as np

from repro.bench import emit_report, format_table
from repro.core import TimelineModelSet
from repro.ml import GradientBoostedTrees, mae
from repro.ml.losses import PseudoHuberLoss


class _FirstOrderPseudoHuber(PseudoHuberLoss):
    """Pseudo-Huber with the hessian flattened to 1 (first-order mode)."""

    name = "pseudo_huber_first_order"

    def hessian(self, y_true, y_pred):
        return np.ones_like(y_pred)


def _patched_fit(model: GradientBoostedTrees, X, y):
    model._loss = _FirstOrderPseudoHuber(model.params.huber_delta)
    return GradientBoostedTrees.fit(model, X, y)


def test_ablation_gbm_order(benchmark, optimizer):
    def run():
        config = optimizer.config.evolve(
            selection_method="pearson", k=60, model_family="gbm",
            architecture="flat", loss="pseudo_huber", huber_delta=18.0,
            fusion="none",
        )
        rankings = optimizer.rankings_for("pearson")
        rows = []
        for label, first_order in (("second-order (Newton)", False), ("first-order", True)):
            errors = []
            for ti in (0, 3, 6, 10):
                model_set = TimelineModelSet(
                    config, optimizer.dyn_names, optimizer.static_names
                )
                selected = rankings[ti][:60]
                design = model_set._design(
                    optimizer.Xs_train, optimizer.dyn_train[:, ti, :], selected, None
                )
                model = model_set._new_model()
                inner = GradientBoostedTrees(model.params)
                if first_order:
                    _patched_fit(inner, design, optimizer.y_train)
                else:
                    inner.fit(design, optimizer.y_train)
                val_design = model_set._design(
                    optimizer.Xs_val, optimizer.dyn_val[:, ti, :], selected, None
                )
                errors.append(mae(optimizer.y_val, inner.predict(val_design)))
            rows.append([label] + [f"{e:.2f}" for e in errors] + [f"{np.mean(errors):.2f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["boosting", "t*=0", "t*=30", "t*=60", "t*=100", "mean"], rows
    )
    emit_report(
        "ablation_gbm_order",
        "Ablation: second-order vs first-order boosting (pseudo-Huber d=18)",
        table,
    )
    second = float(rows[0][-1])
    first = float(rows[1][-1])
    # Newton steps should not lose to plain gradient steps.
    assert second <= first * 1.10
