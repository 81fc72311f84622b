"""Greedy modeling-pipeline optimization (Problem 2, Tasks 2-6).

Jointly searching selection method x k x model family x architecture x
loss x hyperparameters x fusion is a combinatorial experiment-design
problem (NP-hard); the paper optimises greedily, one stage at a time, in
a fixed order, holding defaults for not-yet-optimised stages:

1. **selection** (Task 2) — method and feature count ``k``.
2. **model** (Task 3a) — base model family (GBM vs Elastic-Net).
3. **architecture** (Task 3b) — flat ("non-stacked") vs stacked.
4. **loss** (Task 4) — l2 / l1 / pseudo-Huber (with delta tuning).
5. **hpt** (Task 5) — AutoHPT trial budget via TPE.
6. **fusion** (Task 6) — none / min / average over the timeline.

Every stage is scored by Equation 2's objective: absolute error of the
fused estimate summed over the validation avails and the whole logical
timeline (reported as a mean so numbers are comparable across stages).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.core.config import ARCHITECTURES, PipelineConfig
from repro.core.models import MODEL_FAMILIES
from repro.core.timeline import LogicalTimeline
from repro.core.timeline_models import TimelineModelSet
from repro.data.schema import NavyMaintenanceDataset
from repro.data.splits import DataSplits, split_dataset
from repro.errors import ConfigurationError
from repro.features.selection import FEATURE_SELECTION_METHODS, score_ranking
from repro.features.static import static_features_for
from repro.features.transform import StatusFeatureExtractor
from repro.ml.metrics import mae
from repro.ml.tuning import TpeTuner, default_gbm_space
from repro.runtime import ExecutionContext, ensure_context

DEFAULT_K_GRID = tuple(range(20, 101, 10))
DEFAULT_TRIAL_COUNTS = (10, 20, 30, 40, 50, 100, 200)
DEFAULT_HUBER_DELTAS = (6.0, 12.0, 18.0, 24.0, 36.0)

STAGES = ("selection", "model", "architecture", "loss", "hpt", "fusion")


@dataclass
class StageResult:
    """Outcome of one greedy optimization stage."""

    stage: str
    records: list[dict[str, Any]]
    chosen: dict[str, Any]
    seconds: float

    def best_record(self) -> dict[str, Any]:
        return min(self.records, key=lambda r: r["val_mae"])


@dataclass
class OptimizationReport:
    """Full greedy run: final config + per-stage sweep tables."""

    config: PipelineConfig
    stages: dict[str, StageResult] = field(default_factory=dict)

    def summary(self) -> dict[str, Any]:
        out: dict[str, Any] = {"final": self.config.describe()}
        for name, stage in self.stages.items():
            out[name] = stage.chosen
        return out


class PipelineOptimizer:
    """Greedy stage-by-stage pipeline construction over a dataset.

    The feature tensor and per-window selection rankings are computed
    once and shared across all candidate evaluations, so sweeps stay
    tractable on the paper's laptop-scale data.
    """

    def __init__(
        self,
        dataset: NavyMaintenanceDataset,
        splits: DataSplits | None = None,
        base_config: PipelineConfig | None = None,
        tune_t_stars: tuple[float, ...] = (30.0, 70.0),
        context: ExecutionContext | None = None,
    ):
        self.dataset = dataset
        self.splits = splits or split_dataset(dataset)
        self.config = base_config or PipelineConfig()
        self.timeline = LogicalTimeline(self.config.window_pct)
        self.context = ensure_context(context, seed=self.config.seed)

        tensor = StatusFeatureExtractor(
            dataset, self.timeline.t_stars, context=self.context
        ).extract()
        self.tensor = tensor
        X_static_all, self.static_names, static_ids = static_features_for(dataset)
        if not np.array_equal(static_ids, tensor.avail_ids):
            raise ConfigurationError("static features and tensor avails misaligned")

        delay_by_id = {
            int(a): float(d)
            for a, d in zip(dataset.avails["avail_id"], dataset.avails["delay"])
        }
        def take(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            rows = tensor.rows_for(ids)
            y = np.array([delay_by_id[int(a)] for a in ids])
            return X_static_all[rows], tensor.values[rows], y

        self.Xs_train, self.dyn_train, self.y_train = take(self.splits.train_ids)
        self.Xs_val, self.dyn_val, self.y_val = take(self.splits.validation_ids)
        self.Xs_test, self.dyn_test, self.y_test = take(self.splits.test_ids)
        self.dyn_names = list(tensor.feature_names)

        self._ranking_cache: dict[str, list[np.ndarray]] = {}
        self._tune_windows = tuple(
            self.timeline.window_index(t) for t in tune_t_stars
        )

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def rankings_for(self, method: str) -> list[np.ndarray]:
        """Per-window full feature rankings under a method (cached).

        Rankings are computed on the *training* slice only — selection
        never sees validation or test avails.
        """
        cached = self._ranking_cache.get(method)
        if cached is not None:
            return cached
        with self.context.span("select"):
            rankings = [
                score_ranking(
                    method, self.dyn_train[:, ti, :], self.y_train, seed=self.config.seed
                )
                for ti in range(self.timeline.n_models)
            ]
        self._ranking_cache[method] = rankings
        return rankings

    def fit_model_set(self, config: PipelineConfig) -> TimelineModelSet:
        """Fit all window models for a candidate configuration."""
        model_set = TimelineModelSet(
            config=config,
            dyn_feature_names=self.dyn_names,
            static_feature_names=self.static_names,
            selection_rankings=self.rankings_for(config.selection_method),
            context=self.context,
        )
        return model_set.fit(self.Xs_train, self.dyn_train, self.y_train)

    def evaluate(self, config: PipelineConfig) -> dict[str, Any]:
        """Validation score of a configuration (Equation 2 objective).

        Returns ``val_mae`` (mean absolute error of the fused estimate
        over all validation avails and all timeline windows) and the
        per-window breakdown ``val_mae_by_t``.
        """
        model_set = self.fit_model_set(config)
        fused = model_set.predict_fused(self.Xs_val, self.dyn_val)
        by_t = np.array(
            [mae(self.y_val, fused[:, ti]) for ti in range(fused.shape[1])]
        )
        return {
            "val_mae": float(by_t.mean()),
            "val_mae_by_t": by_t,
            "model_set": model_set,
        }

    def _subset_val_mae(self, config: PipelineConfig, window_indices: tuple[int, ...]) -> float:
        """Cheap objective: fit/evaluate only a subset of windows."""
        rankings = self.rankings_for(config.selection_method)
        k = min(config.k, self.dyn_train.shape[2])
        errors: list[float] = []
        # Tuning probes always use the flat design; the stacked base
        # model is architecture-stage machinery, not a tuning target.
        probe_config = config.evolve(architecture="flat")
        for ti in window_indices:
            model_set = TimelineModelSet(
                config=probe_config,
                dyn_feature_names=self.dyn_names,
                static_feature_names=self.static_names,
                selection_rankings=None,
                context=self.context,
            )
            # Fit just one window by hand (avoids refitting the rest).
            selected = rankings[ti][:k]
            design = model_set._design(
                self.Xs_train, self.dyn_train[:, ti, :], selected, None
            )
            model = model_set._new_model().fit(design, self.y_train)
            val_design = model_set._design(
                self.Xs_val, self.dyn_val[:, ti, :], selected, None
            )
            errors.append(mae(self.y_val, model.predict(val_design)))
        return float(np.mean(errors))

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def optimize_selection(
        self,
        methods: tuple[str, ...] = FEATURE_SELECTION_METHODS,
        k_grid: tuple[int, ...] = DEFAULT_K_GRID,
    ) -> StageResult:
        """Task 2: choose the selection method and feature count."""
        records = []
        with self.context.metrics.span("optimize.selection") as sp:
            for method in methods:
                for k in k_grid:
                    candidate = self.config.evolve(selection_method=method, k=k)
                    result = self.evaluate(candidate)
                    records.append(
                        {
                            "method": method,
                            "k": k,
                            "val_mae": result["val_mae"],
                            "val_mae_by_t": result["val_mae_by_t"],
                        }
                    )
        best = min(records, key=lambda r: r["val_mae"])
        self.config = self.config.evolve(selection_method=best["method"], k=best["k"])
        return StageResult(
            stage="selection",
            records=records,
            chosen={"selection_method": best["method"], "k": best["k"]},
            seconds=sp.seconds,
        )

    def optimize_model_family(
        self, families: tuple[str, ...] = MODEL_FAMILIES
    ) -> StageResult:
        """Task 3a: choose the base model family."""
        records = []
        with self.context.metrics.span("optimize.model") as sp:
            for family in families:
                candidate = self.config.evolve(model_family=family)
                result = self.evaluate(candidate)
                records.append(
                    {
                        "family": family,
                        "val_mae": result["val_mae"],
                        "val_mae_by_t": result["val_mae_by_t"],
                    }
                )
        best = min(records, key=lambda r: r["val_mae"])
        self.config = self.config.evolve(model_family=best["family"])
        return StageResult(
            stage="model",
            records=records,
            chosen={"model_family": best["family"]},
            seconds=sp.seconds,
        )

    def optimize_architecture(
        self, architectures: tuple[str, ...] = ARCHITECTURES
    ) -> StageResult:
        """Task 3b: flat (non-stacked) vs stacked architecture."""
        records = []
        with self.context.metrics.span("optimize.architecture") as sp:
            for architecture in architectures:
                candidate = self.config.evolve(architecture=architecture)
                result = self.evaluate(candidate)
                records.append(
                    {
                        "architecture": architecture,
                        "val_mae": result["val_mae"],
                        "val_mae_by_t": result["val_mae_by_t"],
                    }
                )
        best = min(records, key=lambda r: r["val_mae"])
        self.config = self.config.evolve(architecture=best["architecture"])
        return StageResult(
            stage="architecture",
            records=records,
            chosen={"architecture": best["architecture"]},
            seconds=sp.seconds,
        )

    def optimize_loss(
        self,
        losses: tuple[str, ...] = ("l2", "l1", "pseudo_huber"),
        huber_deltas: tuple[float, ...] = DEFAULT_HUBER_DELTAS,
    ) -> StageResult:
        """Task 4: choose the training loss (delta-tuned for Huber)."""
        records = []
        with self.context.metrics.span("optimize.loss") as sp:
            for loss in losses:
                deltas = huber_deltas if loss in ("huber", "pseudo_huber") else (self.config.huber_delta,)
                for delta in deltas:
                    candidate = self.config.evolve(loss=loss, huber_delta=delta)
                    result = self.evaluate(candidate)
                    records.append(
                        {
                            "loss": loss,
                            "delta": delta,
                            "val_mae": result["val_mae"],
                            "val_mae_by_t": result["val_mae_by_t"],
                        }
                    )
        best = min(records, key=lambda r: r["val_mae"])
        self.config = self.config.evolve(loss=best["loss"], huber_delta=best["delta"])
        return StageResult(
            stage="loss",
            records=records,
            chosen={"loss": best["loss"], "huber_delta": best["delta"]},
            seconds=sp.seconds,
        )

    def optimize_trials(
        self,
        trial_counts: tuple[int, ...] = DEFAULT_TRIAL_COUNTS,
        tolerance: float = 0.02,
    ) -> StageResult:
        """Task 5: AutoHPT — pick the TPE trial budget and hyperparameters.

        For each budget a fresh TPE run tunes the GBM hyperparameters on
        a cheap window subset; the tuned configuration is then scored on
        the full timeline.  Following the paper's overfitting argument,
        the *smallest* budget whose validation MAE is within
        ``tolerance`` of the best is chosen.
        """
        if self.config.model_family != "gbm":
            raise ConfigurationError("AutoHPT tunes the GBM family only")
        space = default_gbm_space()
        records = []
        with self.context.metrics.span("optimize.hpt") as sp:
            for count in trial_counts:
                tuner = TpeTuner(space, seed=self.config.seed)
                def objective(params: dict[str, Any]) -> float:
                    candidate_gbm = replace(
                        self.config.gbm,
                        **params,
                        loss=self.config.loss,
                        huber_delta=self.config.huber_delta,
                    )
                    candidate = self.config.evolve(gbm=candidate_gbm)
                    return self._subset_val_mae(candidate, self._tune_windows)

                tuning = tuner.optimize(objective, count)
                tuned_gbm = replace(
                    self.config.gbm,
                    **tuning.best_params,
                    loss=self.config.loss,
                    huber_delta=self.config.huber_delta,
                )
                candidate = self.config.evolve(gbm=tuned_gbm, n_trials=count)
                result = self.evaluate(candidate)
                records.append(
                    {
                        "n_trials": count,
                        "val_mae": result["val_mae"],
                        "val_mae_by_t": result["val_mae_by_t"],
                        "best_params": tuning.best_params,
                        "subset_mae": tuning.best_value,
                    }
                )
        best_mae = min(r["val_mae"] for r in records)
        chosen_record = next(
            r for r in records if r["val_mae"] <= best_mae * (1.0 + tolerance)
        )
        tuned_gbm = replace(
            self.config.gbm,
            **chosen_record["best_params"],
            loss=self.config.loss,
            huber_delta=self.config.huber_delta,
        )
        self.config = self.config.evolve(
            gbm=tuned_gbm, n_trials=chosen_record["n_trials"]
        )
        return StageResult(
            stage="hpt",
            records=records,
            chosen={
                "n_trials": chosen_record["n_trials"],
                "best_params": chosen_record["best_params"],
            },
            seconds=sp.seconds,
        )

    def optimize_fusion(
        self, methods: tuple[str, ...] = ("none", "min", "average")
    ) -> StageResult:
        """Task 6: choose the fusion technique."""
        records = []
        from repro.core.fusion import fuse_progressive

        with self.context.metrics.span("optimize.fusion") as sp:
            # One fit serves all fusion candidates: fusion is a post-hoc
            # aggregation of the same per-window predictions.
            model_set = self.fit_model_set(self.config)
            raw = model_set.predict_matrix(self.Xs_val, self.dyn_val)
            for method in methods:
                fused = fuse_progressive(raw, method)
                by_t = np.array(
                    [mae(self.y_val, fused[:, ti]) for ti in range(fused.shape[1])]
                )
                records.append(
                    {
                        "fusion": method,
                        "val_mae": float(by_t.mean()),
                        "val_mae_by_t": by_t,
                    }
                )
        best = min(records, key=lambda r: r["val_mae"])
        self.config = self.config.evolve(fusion=best["fusion"])
        return StageResult(
            stage="fusion",
            records=records,
            chosen={"fusion": best["fusion"]},
            seconds=sp.seconds,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        stages: tuple[str, ...] = STAGES,
        selection_methods: tuple[str, ...] = FEATURE_SELECTION_METHODS,
        k_grid: tuple[int, ...] = DEFAULT_K_GRID,
        trial_counts: tuple[int, ...] = DEFAULT_TRIAL_COUNTS,
    ) -> OptimizationReport:
        """Execute the greedy stages in order and return the report.

        The whole greedy chain runs under one telemetry trace
        (``optimize``) so its stage spans are reconstructable as a unit
        in the event log.
        """
        unknown = set(stages) - set(STAGES)
        if unknown:
            raise ConfigurationError(f"unknown stages: {sorted(unknown)}")
        telemetry = self.context.metrics.telemetry
        trace_scope = (
            telemetry.trace("optimize", stages=list(stages))
            if telemetry is not None
            else nullcontext()
        )
        report = OptimizationReport(config=self.config)
        with trace_scope:
            return self._run_stages(
                report, stages, selection_methods, k_grid, trial_counts
            )

    def _run_stages(
        self,
        report: "OptimizationReport",
        stages: tuple[str, ...],
        selection_methods: tuple[str, ...],
        k_grid: tuple[int, ...],
        trial_counts: tuple[int, ...],
    ) -> "OptimizationReport":
        for stage in STAGES:
            if stage not in stages:
                continue
            if stage == "selection":
                result = self.optimize_selection(selection_methods, k_grid)
            elif stage == "model":
                result = self.optimize_model_family()
            elif stage == "architecture":
                result = self.optimize_architecture()
            elif stage == "loss":
                result = self.optimize_loss()
            elif stage == "hpt":
                if self.config.model_family != "gbm":
                    # AutoHPT only applies to the GBM family; when the
                    # greedy chain selected the linear family there is
                    # nothing to tune — record a skipped stage.
                    result = StageResult(
                        stage="hpt",
                        records=[],
                        chosen={"n_trials": 0, "skipped": "non-GBM family"},
                        seconds=0.0,
                    )
                else:
                    result = self.optimize_trials(trial_counts)
            else:
                result = self.optimize_fusion()
            report.stages[stage] = result
            report.config = self.config
        return report

    # ------------------------------------------------------------------
    def test_evaluation(self, config: PipelineConfig | None = None) -> dict[str, Any]:
        """Table 7: fused-estimate quality on the held-out test set.

        Returns per-window metric rows plus the timeline average.
        """
        from repro.ml.metrics import metric_suite

        config = config or self.config
        model_set = self.fit_model_set(config)
        fused = model_set.predict_fused(self.Xs_test, self.dyn_test)
        rows = []
        for ti, t_star in enumerate(self.timeline.t_stars):
            suite = metric_suite(self.y_test, fused[:, ti])
            suite["t_star"] = float(t_star)
            rows.append(suite)
        average = {
            key: float(np.mean([row[key] for row in rows]))
            for key in rows[0]
            if key != "t_star"
        }
        return {"rows": rows, "average": average, "model_set": model_set}
