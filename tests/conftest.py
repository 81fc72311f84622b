"""Shared fixtures: session-scoped datasets so the suite stays fast."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data import SyntheticNmdConfig, generate_dataset, split_dataset
from repro.data.dates import iso_to_day
from repro.data.schema import NavyMaintenanceDataset
from repro.table import ColumnTable


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked slow (full regime matrix, full-scale sweeps)",
    )


def pytest_collection_modifyitems(config, items) -> None:
    if config.getoption("--runslow") or os.environ.get("REPRO_RUN_SLOW"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow or set REPRO_RUN_SLOW=1")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def small_dataset() -> NavyMaintenanceDataset:
    """A fast miniature NMD (30 avails, ~2.5k RCCs)."""
    return generate_dataset(
        SyntheticNmdConfig(
            n_ships=10,
            n_closed_avails=28,
            n_ongoing_avails=2,
            target_n_rccs=2_500,
            seed=3,
        )
    )


@pytest.fixture(scope="session")
def small_splits(small_dataset):
    return split_dataset(small_dataset, seed=5)


@pytest.fixture(scope="session")
def feature_estimator(small_dataset, small_splits):
    """A small fitted estimator for feature-path oracles.

    Only its feature binding is asserted on, never its models, so the
    ensembles are kept tiny.
    """
    from repro.core import DomdEstimator, PipelineConfig
    from repro.ml import GbmParams

    config = PipelineConfig(
        window_pct=25.0, k=8, fusion="average", gbm=GbmParams(n_estimators=5)
    )
    return DomdEstimator(config).fit(small_dataset, small_splits.train_ids)


@pytest.fixture(scope="session")
def full_dataset() -> NavyMaintenanceDataset:
    """The paper-scale dataset (73 ships / 187 closed avails / 52,959 RCCs)."""
    return generate_dataset()


@pytest.fixture()
def toy_dataset() -> NavyMaintenanceDataset:
    """Hand-built dataset with exactly known feature values.

    One ship, two closed avails:

    * avail 0: planned 100 days (day 1000..1100), started on time,
      actual end day 1150 -> delay 50.  Three RCCs.
    * avail 1: planned 200 days (day 2000..2200), started day 2010,
      actual end day 2210 -> actual duration 200, delay 0.  One RCC.
    """
    ships = ColumnTable(
        {
            "ship_id": [1],
            "ship_class": ["DDG"],
            "commission_year": [2000],
            "rmc_id": [2],
            "displacement": [9200.0],
        }
    )
    avails = ColumnTable(
        {
            "avail_id": [0, 1],
            "ship_id": [1, 1],
            "status": ["closed", "closed"],
            "plan_start": [1000, 2000],
            "plan_end": [1100, 2200],
            "act_start": [1000, 2010],
            "act_end": [1150, 2210],
            "delay": [50.0, 0.0],
            "ship_class": ["DDG", "DDG"],
            "rmc_id": [2, 2],
            "ship_age": [10, 12],
            "planned_duration": [100, 200],
            "n_prior_avails": [0, 1],
            "avail_type": ["docking", "pierside"],
            "start_quarter": [1, 3],
            "displacement": [9200.0, 9200.0],
        }
    )
    # avail 0 RCCs (logical time = (day - 1000) / 100 * 100 = day - 1000):
    #   rcc 0: G, swlin 1..., created day 1010 (t*=10), settled 1050 (t*=50), $1000
    #   rcc 1: N, swlin 2..., created day 1030 (t*=30), settled 1120 (t*=120), $2000
    #   rcc 2: G, swlin 1..., created day 1060 (t*=60), settled 1080 (t*=80), $4000
    # avail 1 RCC (logical = (day - 2010) / 200 * 100):
    #   rcc 3: NG, swlin 9..., created day 2050 (t*=20), settled 2110 (t*=50), $8000
    rccs = ColumnTable(
        {
            "rcc_id": [0, 1, 2, 3],
            "avail_id": [0, 0, 0, 1],
            "rcc_type": ["G", "N", "G", "NG"],
            "swlin": ["111-11-001", "222-22-002", "133-00-003", "999-90-009"],
            "create_date": [1010, 1030, 1060, 2050],
            "settle_date": [1050, 1120, 1080, 2110],
            "status": ["settled"] * 4,
            "amount": [1000.0, 2000.0, 4000.0, 8000.0],
        }
    )
    return NavyMaintenanceDataset(ships=ships, avails=avails, rccs=rccs, seed=0)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def sample_day() -> int:
    return iso_to_day("2020-06-15")
