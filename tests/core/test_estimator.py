"""Tests for the DoMD query API (Problem 1)."""

import numpy as np
import pytest

from repro.core import DomdEstimator, PipelineConfig
from repro.errors import ConfigurationError, DeadlineExceeded, NotFittedError
from repro.ml import GbmParams
from repro.runtime import Deadline, ambient_scope


@pytest.fixture(scope="module")
def estimator(request):
    dataset = request.getfixturevalue("small_dataset")
    splits = request.getfixturevalue("small_splits")
    config = PipelineConfig(
        window_pct=25.0,
        k=10,
        loss="pseudo_huber",
        fusion="average",
        gbm=GbmParams(n_estimators=40),
    )
    return DomdEstimator(config).fit(dataset, splits.train_ids)


class TestQuery:
    def test_returns_estimates_up_to_t_star(self, estimator, small_dataset):
        aid = int(small_dataset.avails["avail_id"][0])
        result = estimator.query([aid], t_star=60.0)[0]
        # 25% windows: boundaries 0, 25, 50 are <= 60.
        assert result.window_t_stars.tolist() == [0.0, 25.0, 50.0]
        assert len(result.window_estimates) == 3
        assert len(result.fused_estimates) == 3
        assert result.current_estimate == pytest.approx(result.fused_estimates[-1])

    def test_average_fusion_applied(self, estimator, small_dataset):
        aid = int(small_dataset.avails["avail_id"][0])
        result = estimator.query([aid], t_star=100.0)[0]
        np.testing.assert_allclose(
            result.fused_estimates,
            np.cumsum(result.window_estimates) / np.arange(1, 6),
        )

    def test_query_by_physical_day(self, estimator, small_dataset):
        avail = small_dataset.avail(0)
        mid = avail.act_start + avail.planned_duration // 2
        by_day = estimator.query([0], physical_day=mid)[0]
        assert 40.0 <= by_day.t_star <= 60.0

    def test_query_multiple_avails(self, estimator, small_dataset):
        ids = [int(a) for a in small_dataset.avails["avail_id"][:3]]
        results = estimator.query(ids, t_star=50.0)
        assert [r.avail_id for r in results] == ids

    def test_ongoing_avail_queryable(self, estimator, small_dataset):
        ongoing = small_dataset.avails.filter(
            small_dataset.avails["status"] == "ongoing"
        )
        aid = int(ongoing["avail_id"][0])
        result = estimator.query([aid], t_star=30.0)[0]
        assert np.isfinite(result.current_estimate)

    def test_t_star_beyond_100_clamps(self, estimator):
        result = estimator.query([0], t_star=250.0)[0]
        assert result.window_t_stars[-1] == 100.0

    def test_requires_exactly_one_time(self, estimator):
        with pytest.raises(ConfigurationError):
            estimator.query([0])
        with pytest.raises(ConfigurationError):
            estimator.query([0], t_star=10.0, physical_day=100.0)

    def test_negative_logical_time_rejected(self, estimator, small_dataset):
        avail = small_dataset.avail(0)
        with pytest.raises(ConfigurationError, match="before its actual start"):
            estimator.query([0], physical_day=avail.act_start - 100)

    def test_as_dict(self, estimator):
        result = estimator.query([0], t_star=25.0)[0]
        payload = result.as_dict()
        assert payload["avail_id"] == 0
        assert payload["windows"] == [0.0, 25.0]


class TestQueryDeadline:
    """The batched query checks the ambient deadline once per window."""

    @pytest.fixture()
    def predicted_windows(self, estimator, monkeypatch):
        model_set = estimator._model_set
        predict_window = model_set.predict_window
        windows = []

        def recording(X_static, X_dyn, window_index):
            windows.append(window_index)
            return predict_window(X_static, X_dyn, window_index)

        monkeypatch.setattr(model_set, "predict_window", recording)
        return windows

    def test_expired_deadline_stops_before_the_first_window(
        self, estimator, predicted_windows
    ):
        now = [0.0]
        deadline = Deadline(0.001, clock=lambda: now[0])
        now[0] = 1.0
        with ambient_scope(deadline=deadline):
            with pytest.raises(DeadlineExceeded, match="estimator.query"):
                estimator.query([0, 1, 2], t_star=80.0)
        assert predicted_windows == []

    def test_deadline_lands_between_windows(self, estimator, predicted_windows):
        ticks = iter([0.0, 0.0, 0.0])  # creation, then two window checks
        deadline = Deadline(0.5, clock=lambda: next(ticks, 1.0))
        with ambient_scope(deadline=deadline):
            with pytest.raises(DeadlineExceeded, match="estimator.query"):
                estimator.query([0, 1, 2], t_star=80.0)
        assert predicted_windows == [0, 1]

    def test_query_within_budget_completes(self, estimator, predicted_windows):
        expected = estimator.query([0, 1, 2], t_star=80.0)
        del predicted_windows[:]
        with ambient_scope(deadline=Deadline(60.0)):
            answered = estimator.query([0, 1, 2], t_star=80.0)
        # 25% windows: t*=80 reaches windows 0, 25, 50 and 75.
        assert predicted_windows == [0, 1, 2, 3]
        assert [e.current_estimate for e in answered] == [
            e.current_estimate for e in expected
        ]


class TestExplain:
    def test_top_k_contributions(self, estimator):
        contributions = estimator.explain(0, 50.0, top=5)
        assert len(contributions) == 5
        magnitudes = [abs(c.contribution) for c in contributions]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_names_come_from_design(self, estimator):
        contributions = estimator.explain(0, 50.0, top=3)
        for item in contributions:
            assert isinstance(item.name, str) and item.name

    def test_invalid_top(self, estimator):
        with pytest.raises(ConfigurationError):
            estimator.explain(0, 50.0, top=0)


class TestEvaluateAndFit:
    def test_evaluate_on_test_ids(self, estimator, small_splits):
        out = estimator.evaluate(small_splits.test_ids)
        assert "average" in out
        assert out["average"]["mae_100"] > 0

    def test_evaluate_rejects_ongoing(self, estimator, small_dataset):
        ongoing = small_dataset.avails.filter(
            small_dataset.avails["status"] == "ongoing"
        )
        with pytest.raises(ConfigurationError):
            estimator.evaluate(np.asarray(ongoing["avail_id"]))

    def test_not_fitted(self):
        fresh = DomdEstimator(PipelineConfig())
        with pytest.raises(NotFittedError):
            fresh.query([0], t_star=10.0)

    def test_fit_rejects_ongoing_train_ids(self, small_dataset):
        ongoing_id = int(
            small_dataset.avails.filter(small_dataset.avails["status"] == "ongoing")[
                "avail_id"
            ][0]
        )
        fresh = DomdEstimator(
            PipelineConfig(window_pct=50.0, gbm=GbmParams(n_estimators=5))
        )
        with pytest.raises(ConfigurationError, match="ongoing"):
            fresh.fit(small_dataset, np.array([ongoing_id]))

    def test_default_trains_on_all_closed(self, small_dataset):
        config = PipelineConfig(window_pct=50.0, k=5, gbm=GbmParams(n_estimators=10))
        estimator = DomdEstimator(config).fit(small_dataset)
        result = estimator.query([0], t_star=50.0)
        assert len(result) == 1


class TestStackedBasePrediction:
    """A stacked set predicts its base model once per call, not once per
    window, and answers exactly as predicting it per window did."""

    @pytest.fixture(scope="class")
    def stacked(self, request):
        dataset = request.getfixturevalue("small_dataset")
        splits = request.getfixturevalue("small_splits")
        config = PipelineConfig(
            window_pct=10.0,
            k=6,
            architecture="stacked",
            fusion="average",
            gbm=GbmParams(n_estimators=8),
        )
        return DomdEstimator(config).fit(dataset, splits.train_ids), splits

    @staticmethod
    def per_window_fused(estimator, avail_ids):
        """Fused estimates with the base model predicted per window."""
        from repro.core import fusion

        rows = estimator._tensor.rows_for(avail_ids)
        X_static, dyn = estimator._X_static[rows], estimator._tensor.gather(rows)
        model_set = estimator._model_set
        raw = np.column_stack(
            [
                model_set.predict_window(X_static, dyn[:, ti, :], ti)
                for ti in range(len(model_set.windows))
            ]
        )
        return fusion.fuse_progressive(raw, estimator.config.fusion)

    def test_eleven_windows_make_twelve_predicts(self, stacked, monkeypatch):
        from repro.ml.gbm import GradientBoostedTrees

        estimator, splits = stacked
        ids = [int(a) for a in splits.test_ids[:3]]
        calls = []
        predict = GradientBoostedTrees.predict

        def counted(self, X):
            calls.append(len(X))
            return predict(self, X)

        monkeypatch.setattr(GradientBoostedTrees, "predict", counted)
        answers = estimator.query(ids, t_star=100.0)
        assert len(calls) == 12
        monkeypatch.undo()
        expected = self.per_window_fused(estimator, ids)
        for i, answer in enumerate(answers):
            assert np.array_equal(
                answer.fused_estimates.view(np.int64), expected[i].view(np.int64)
            )

    def test_explain_predicts_the_base_model_once(self, stacked, monkeypatch):
        from repro.ml.gbm import GradientBoostedTrees

        estimator, splits = stacked
        model_set = estimator._model_set
        base = model_set._base_model._fitted()
        avail_id, t_star = int(splits.test_ids[0]), 55.0
        row = estimator._tensor.rows_for(np.array([avail_id]))
        window_index = estimator.timeline.window_index(t_star)
        X_static = estimator._X_static[row]
        X_dyn = estimator._tensor.gather(row)[:, window_index, :]
        contributions, names = model_set.contributions_at(
            X_static, X_dyn, window_index
        )
        design = model_set._design(
            X_static,
            X_dyn,
            model_set.windows[window_index].selected,
            model_set.base_predict(X_static),
        )
        base_calls = []
        predict = GradientBoostedTrees.predict

        def counted(self, X):
            if self is base:
                base_calls.append(len(X))
            return predict(self, X)

        monkeypatch.setattr(GradientBoostedTrees, "predict", counted)
        explained = estimator.explain(avail_id, t_star, top=4)
        assert base_calls == [1]
        monkeypatch.undo()
        per_feature = contributions[0, :-1]
        order = np.argsort(np.abs(per_feature))[::-1][:4]
        assert [c.name for c in explained] == [names[i] for i in order]
        for item, i in zip(explained, order):
            assert np.float64(item.contribution).view(np.int64) == (
                per_feature[i].view(np.int64)
            )
            assert np.float64(item.value).view(np.int64) == (
                design[0, i].view(np.int64)
            )

    def test_evaluate_matches_per_window_base_predictions(self, stacked):
        from repro.ml.metrics import metric_suite

        estimator, splits = stacked
        ids = np.asarray(splits.test_ids, dtype=np.int64)
        delay = dict(
            zip(
                estimator._dataset.avails["avail_id"].tolist(),
                estimator._dataset.avails["delay"].tolist(),
            )
        )
        y = np.array([delay[int(a)] for a in ids])
        fused = self.per_window_fused(estimator, ids)
        metrics = estimator.evaluate(ids)
        for ti, boundary in enumerate(estimator.timeline.t_stars):
            assert metrics[f"t={boundary:g}"] == metric_suite(y, fused[:, ti])
