"""Edge cases of the feature extractor and registry derived statistics."""

import numpy as np
import pytest

from repro.data.schema import NavyMaintenanceDataset
from repro.errors import ConfigurationError
from repro.features import FeatureGridSpec, StatusFeatureExtractor
from repro.table import ColumnTable
from tests.features.sweep_oracle import oracle_sweep


def _dataset_with_rccs(rcc_rows):
    ships = ColumnTable(
        {
            "ship_id": [1],
            "ship_class": ["DDG"],
            "commission_year": [2000],
            "rmc_id": [0],
            "displacement": [9000.0],
        }
    )
    avails = ColumnTable(
        {
            "avail_id": [0],
            "ship_id": [1],
            "status": ["closed"],
            "plan_start": [1000],
            "plan_end": [1100],
            "act_start": [1000],
            "act_end": [1100],
            "delay": [0.0],
            "ship_class": ["DDG"],
            "rmc_id": [0],
            "ship_age": [10],
            "planned_duration": [100],
            "n_prior_avails": [0],
            "avail_type": ["docking"],
            "start_quarter": [1],
            "displacement": [9000.0],
        }
    )
    rccs = ColumnTable.from_rows(rcc_rows) if rcc_rows else ColumnTable(
        {
            "rcc_id": np.array([], dtype=np.int64),
            "avail_id": np.array([], dtype=np.int64),
            "rcc_type": np.array([], dtype=object),
            "swlin": np.array([], dtype=object),
            "create_date": np.array([], dtype=np.int64),
            "settle_date": np.array([], dtype=np.int64),
            "status": np.array([], dtype=object),
            "amount": np.array([], dtype=np.float64),
        }
    )
    return NavyMaintenanceDataset(ships=ships, avails=avails, rccs=rccs)


def _rcc(rcc_id, create, settle, amount=1000.0, rcc_type="G", swlin="111-11-001"):
    return {
        "rcc_id": rcc_id,
        "avail_id": 0,
        "rcc_type": rcc_type,
        "swlin": swlin,
        "create_date": create,
        "settle_date": settle,
        "status": "settled",
        "amount": amount,
    }


class TestNoRccs:
    def test_all_grid_features_zero(self):
        dataset = _dataset_with_rccs([])
        tensor = StatusFeatureExtractor(dataset).extract()
        j_t = tensor.feature_index("T_STAR")
        grid = np.delete(tensor.values, j_t, axis=2)
        assert np.count_nonzero(grid) == 0

    def test_t_star_special_still_populated(self):
        dataset = _dataset_with_rccs([])
        tensor = StatusFeatureExtractor(dataset).extract()
        j = tensor.feature_index("T_STAR")
        np.testing.assert_array_equal(tensor.values[0, :, j], tensor.t_stars)


class TestBoundarySemantics:
    def test_rcc_created_exactly_at_window_counts(self):
        # Creation day 1050 -> t*=50 exactly; inclusive (<=).
        dataset = _dataset_with_rccs([_rcc(0, 1050, 1090)])
        tensor = StatusFeatureExtractor(dataset).extract()
        j = tensor.feature_index("ALLALL-CNT_CREATED")
        assert tensor.values[0, tensor.t_index(50.0), j] == 1.0
        assert tensor.values[0, tensor.t_index(40.0), j] == 0.0

    def test_rcc_settled_exactly_at_window_not_active(self):
        dataset = _dataset_with_rccs([_rcc(0, 1010, 1050)])
        tensor = StatusFeatureExtractor(dataset).extract()
        active = tensor.feature_index("ALLALL-CNT_ACTIVE")
        settled = tensor.feature_index("ALLALL-CNT_SETTLED")
        t50 = tensor.t_index(50.0)
        assert tensor.values[0, t50, active] == 0.0
        assert tensor.values[0, t50, settled] == 1.0

    def test_rate_floor_prevents_blowup_at_t0(self):
        dataset = _dataset_with_rccs([_rcc(0, 1000, 1050, amount=5000.0)])
        tensor = StatusFeatureExtractor(dataset).extract()
        j = tensor.feature_index("ALLALL-RATE_CREATED_AMT")
        # At t*=0 the rate divides by the floor (5), not by zero.
        assert tensor.values[0, tensor.t_index(0.0), j] == pytest.approx(1000.0)

    def test_active_age_zero_when_nothing_active(self):
        dataset = _dataset_with_rccs([_rcc(0, 1010, 1020)])
        tensor = StatusFeatureExtractor(dataset).extract()
        j = tensor.feature_index("ALLALL-AVG_ACTIVE_AGE")
        assert tensor.values[0, tensor.t_index(100.0), j] == 0.0

    def test_settle_after_planned_end_visible_only_past_100(self):
        # Settles at day 1120 -> t*=120; at t*=100 still active.
        dataset = _dataset_with_rccs([_rcc(0, 1010, 1120)])
        tensor = StatusFeatureExtractor(dataset).extract()
        active = tensor.feature_index("ALLALL-CNT_ACTIVE")
        assert tensor.values[0, tensor.t_index(100.0), active] == 1.0


class TestTypeScopes:
    def test_supergroups_partition_digits(self):
        rows = [
            _rcc(0, 1010, 1020, swlin="111-11-001"),
            _rcc(1, 1010, 1020, swlin="411-11-001"),
            _rcc(2, 1010, 1020, swlin="511-11-001"),
            _rcc(3, 1010, 1020, swlin="911-11-001"),
        ]
        dataset = _dataset_with_rccs(rows)
        tensor = StatusFeatureExtractor(dataset).extract()
        t100 = tensor.t_index(100.0)
        groups = ["PLT", "CBT", "AUX", "SUP"]
        total = sum(
            tensor.values[0, t100, tensor.feature_index(f"ALL{g}-CNT_CREATED")]
            for g in groups
        )
        assert total == 4.0

    def test_type_specific_amounts(self):
        rows = [
            _rcc(0, 1010, 1020, amount=100.0, rcc_type="G"),
            _rcc(1, 1010, 1020, amount=200.0, rcc_type="N"),
            _rcc(2, 1010, 1020, amount=400.0, rcc_type="NG"),
        ]
        dataset = _dataset_with_rccs(rows)
        tensor = StatusFeatureExtractor(dataset).extract()
        t100 = tensor.t_index(100.0)
        assert tensor.values[0, t100, tensor.feature_index("GALL-SUM_SETTLED_AMT")] == 100.0
        assert tensor.values[0, t100, tensor.feature_index("NALL-SUM_SETTLED_AMT")] == 200.0
        assert tensor.values[0, t100, tensor.feature_index("NGALL-SUM_SETTLED_AMT")] == 400.0
        assert (
            tensor.values[0, t100, tensor.feature_index("ALLALL-SUM_SETTLED_AMT")] == 700.0
        )


class TestCodeParsing:
    """RCC types and SWLIN digits are parsed as bytes, all rows at once."""

    def test_unknown_rcc_type_rejected(self):
        dataset = _dataset_with_rccs([_rcc(0, 1010, 1020, rcc_type="GX")])
        with pytest.raises(ConfigurationError, match="unknown RCC type"):
            StatusFeatureExtractor(dataset).sweep()

    @pytest.mark.parametrize("swlin", ["A11-11-001", "", "011-11-001"])
    def test_swlin_without_a_grid_digit_rejected(self, swlin):
        dataset = _dataset_with_rccs([_rcc(0, 1010, 1020, swlin=swlin)])
        with pytest.raises(ConfigurationError, match="SWLIN"):
            StatusFeatureExtractor(dataset).sweep()

    def test_two_digit_grid_needs_two_digits(self):
        dataset = _dataset_with_rccs([_rcc(0, 1010, 1020, swlin="1")])
        with pytest.raises(ConfigurationError, match="2 digit"):
            StatusFeatureExtractor(dataset, grid=FeatureGridSpec.deep()).sweep()

    def test_rccs_of_avails_outside_the_table_carry_no_features(self):
        kept = _rcc(0, 1010, 1020)
        stray = dict(_rcc(1, 1010, 1030, amount=5.0), avail_id=7)
        extractor = StatusFeatureExtractor(_dataset_with_rccs([kept, stray]))
        swept = extractor.sweep().values
        # the per-timestamp sweep's inner join dropped them too
        np.testing.assert_array_equal(swept, oracle_sweep(extractor).values)
        alone = StatusFeatureExtractor(_dataset_with_rccs([kept])).sweep().values
        np.testing.assert_array_equal(swept, alone)

