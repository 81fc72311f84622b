"""Tests for fusion, the logical timeline and pipeline configuration."""

import numpy as np
import pytest

from repro.core import (
    FUSION_METHODS,
    LogicalTimeline,
    PipelineConfig,
    fuse,
    fuse_progressive,
    paper_final_config,
)
from repro.core.fusion import fuse_upto
from repro.errors import ConfigurationError

P = np.array([[10.0, 20.0, 30.0], [5.0, 1.0, 9.0]])


class TestFuse:
    def test_none_takes_last(self):
        assert fuse(P, "none").tolist() == [30.0, 9.0]

    def test_min(self):
        assert fuse(P, "min").tolist() == [10.0, 1.0]

    def test_average(self):
        assert fuse(P, "average").tolist() == [20.0, 5.0]

    def test_single_column_all_equal(self):
        single = P[:, :1]
        for method in FUSION_METHODS:
            np.testing.assert_array_equal(fuse(single, method), single[:, 0])

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            fuse(P, "mode")

    def test_median(self):
        assert fuse(P, "median").tolist() == [20.0, 5.0]

    def test_ewma_weights_recent_windows_most(self):
        out = fuse(P, "ewma")
        # Row 0 rises over time -> ewma sits between average and last.
        assert fuse(P, "average")[0] < out[0] < P[0, -1]

    def test_bad_shape(self):
        with pytest.raises(ConfigurationError):
            fuse(np.zeros((2, 0)), "min")


class TestFuseProgressive:
    def test_none_is_identity(self):
        np.testing.assert_array_equal(fuse_progressive(P, "none"), P)

    def test_min_is_running_minimum(self):
        out = fuse_progressive(P, "min")
        assert out[1].tolist() == [5.0, 1.0, 1.0]

    def test_average_is_running_mean(self):
        out = fuse_progressive(P, "average")
        assert out[0].tolist() == [10.0, 15.0, 20.0]

    def test_last_column_matches_fuse(self):
        for method in FUSION_METHODS:
            np.testing.assert_allclose(
                fuse_progressive(P, method)[:, -1], fuse(P, method)
            )

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            fuse_progressive(P, "max")

    @pytest.mark.parametrize("method", FUSION_METHODS)
    def test_rows_fused_alone_match_the_batch_bitwise(self, method):
        """A row's fused values must not depend on the rows fused with
        it (a batched query mixes whichever avails it was asked for)."""
        rng = np.random.default_rng(17)
        for _ in range(60):
            n, k = int(rng.integers(2, 40)), int(rng.integers(1, 12))
            matrix = rng.normal(size=(n, k)) * rng.uniform(1.0, 100.0)
            batch = fuse_progressive(matrix, method)
            alone = np.vstack(
                [fuse_progressive(matrix[i : i + 1], method) for i in range(n)]
            )
            np.testing.assert_array_equal(batch.view(np.int64), alone.view(np.int64))


class TestFuseUpto:
    @pytest.mark.parametrize("method", FUSION_METHODS)
    def test_each_row_fused_over_its_own_windows(self, method):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(9, 6)) * 30.0
        last = np.array([0, 5, 2, 2, 5, 1, 0, 3, 4])
        out = fuse_upto(matrix, last, method)
        for i, window in enumerate(last):
            alone = fuse_progressive(matrix[i : i + 1, : window + 1], method)[0]
            np.testing.assert_array_equal(
                out[i, : window + 1].view(np.int64), alone.view(np.int64)
            )
            assert np.isnan(out[i, window + 1 :]).all()

    def test_empty(self):
        out = fuse_upto(np.empty((0, 4)), np.empty(0, dtype=np.int64), "average")
        assert out.shape == (0, 4)


class TestLogicalTimeline:
    def test_n_models_formula(self):
        assert LogicalTimeline(10.0).n_models == 11
        assert LogicalTimeline(25.0).n_models == 5
        assert LogicalTimeline(100.0).n_models == 2
        assert LogicalTimeline(30.0).n_models == 1 + int(np.ceil(100 / 30))

    def test_t_stars_span(self):
        timeline = LogicalTimeline(10.0)
        assert timeline.t_stars[0] == 0.0
        assert timeline.t_stars[-1] == 100.0

    def test_window_index_exact_boundaries(self):
        timeline = LogicalTimeline(10.0)
        assert timeline.window_index(0.0) == 0
        assert timeline.window_index(10.0) == 1
        assert timeline.window_index(100.0) == 10

    def test_window_index_between_boundaries(self):
        timeline = LogicalTimeline(10.0)
        assert timeline.window_index(55.0) == 5

    def test_window_index_clamps_beyond_100(self):
        timeline = LogicalTimeline(10.0)
        assert timeline.window_index(250.0) == 10

    def test_window_index_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            LogicalTimeline(10.0).window_index(-5.0)

    def test_boundaries_upto(self):
        timeline = LogicalTimeline(10.0)
        assert timeline.boundaries_upto(35.0).tolist() == [0.0, 10.0, 20.0, 30.0]

    def test_paper_example_six_estimates(self):
        # "if x = 10% ... 6 different DoMD estimates ... 0% to 50%"
        timeline = LogicalTimeline(10.0)
        assert len(timeline.boundaries_upto(50.0)) == 6

    def test_logical_of(self):
        timeline = LogicalTimeline(10.0)
        assert timeline.logical_of(150.0, 100.0, 100.0) == 50.0
        with pytest.raises(ConfigurationError):
            timeline.logical_of(0.0, 0.0, 0.0)

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            LogicalTimeline(0.0)
        with pytest.raises(ConfigurationError):
            LogicalTimeline(150.0)


class TestPipelineConfig:
    def test_defaults_valid(self):
        config = PipelineConfig()
        assert config.loss == "l2"
        assert config.fusion == "none"

    def test_paper_final_values(self):
        config = paper_final_config()
        assert config.selection_method == "pearson"
        assert config.k == 60
        assert config.model_family == "gbm"
        assert config.architecture == "flat"
        assert config.loss == "pseudo_huber"
        assert config.huber_delta == 18.0
        assert config.n_trials == 30
        assert config.fusion == "average"

    def test_paper_final_overrides(self):
        config = paper_final_config(k=40, fusion="min")
        assert config.k == 40 and config.fusion == "min"

    def test_evolve(self):
        config = PipelineConfig().evolve(loss="l1")
        assert config.loss == "l1"
        assert PipelineConfig().loss == "l2"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("selection_method", "chi2"),
            ("k", 0),
            ("model_family", "dnn"),
            ("architecture", "deep"),
            ("loss", "hinge"),
            ("fusion", "mode"),
            ("window_pct", 0.0),
            ("n_trials", -1),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            PipelineConfig(**{field: value})

    def test_describe_keys(self):
        described = PipelineConfig().describe()
        assert {"selection_method", "k", "loss", "fusion"} <= set(described)
