"""Tests for the synthetic NMD generator."""

import numpy as np
import pytest

from repro.data import SyntheticNmdConfig, generate_dataset, generator
from repro.data.dates import MISSING_DATE
from repro.errors import DataGenerationError
from repro.index.hierarchy import normalize_swlin
from repro.table import write_csv


class TestPaperCardinalities:
    def test_table5_statistics(self, full_dataset):
        stats = full_dataset.statistics()
        assert stats["n_ships"] == 73
        assert stats["n_closed_avails"] == 187
        assert stats["n_rccs"] == 52_959

    def test_deterministic_given_seed(self):
        config = SyntheticNmdConfig(
            n_ships=5, n_closed_avails=10, n_ongoing_avails=0, target_n_rccs=500, seed=42
        )
        a = generate_dataset(config)
        b = generate_dataset(config)
        assert a.avails.equals(b.avails)
        assert a.rccs.equals(b.rccs)

    def test_different_seeds_differ(self):
        base = dict(n_ships=5, n_closed_avails=10, n_ongoing_avails=0, target_n_rccs=500)
        a = generate_dataset(SyntheticNmdConfig(seed=1, **base))
        b = generate_dataset(SyntheticNmdConfig(seed=2, **base))
        assert not a.rccs.equals(b.rccs)


class TestDelayDistribution:
    def test_heavy_tail_shape(self, full_dataset):
        delays = full_dataset.delays()
        assert delays.mean() > 60  # months of average delay
        assert delays.max() > 365  # some multi-year cases (Figure 2)
        assert delays.min() < 0  # some early completions
        assert (delays < 0).mean() < 0.25  # but a minority

    def test_delay_consistent_with_dates(self, full_dataset):
        closed = full_dataset.closed_avails()
        actual = closed["act_end"] - closed["act_start"]
        planned = closed["plan_end"] - closed["plan_start"]
        np.testing.assert_array_equal(
            np.asarray(closed["delay"], dtype=np.int64), actual - planned
        )

    def test_ongoing_have_nan_delay_and_no_end(self, full_dataset):
        ongoing = full_dataset.avails.filter(full_dataset.avails["status"] == "ongoing")
        assert ongoing.n_rows == 5
        assert np.isnan(ongoing["delay"]).all()
        assert (ongoing["act_end"] == MISSING_DATE).all()


class TestAvailValidity:
    def test_planned_duration_matches_dates(self, full_dataset):
        avails = full_dataset.avails
        np.testing.assert_array_equal(
            avails["planned_duration"], avails["plan_end"] - avails["plan_start"]
        )

    def test_actual_start_not_before_plan(self, full_dataset):
        avails = full_dataset.avails
        assert (avails["act_start"] >= avails["plan_start"]).all()

    def test_prior_avail_counts_consistent(self, full_dataset):
        avails = full_dataset.avails
        # Within each ship, prior counts are 0..k-1 in chronological order.
        ships = np.asarray(avails["ship_id"])
        priors = np.asarray(avails["n_prior_avails"])
        starts = np.asarray(avails["plan_start"])
        for ship in np.unique(ships):
            mask = ships == ship
            order = np.argsort(starts[mask], kind="stable")
            assert priors[mask][order].tolist() == list(range(mask.sum()))

    def test_every_ship_has_an_avail(self, full_dataset):
        assert len(np.unique(full_dataset.avails["ship_id"])) == 73

    def test_static_attributes_present(self, full_dataset):
        avails = full_dataset.avails
        assert set(np.unique(avails["avail_type"])) <= {"docking", "pierside"}
        assert (avails["ship_age"] > 0).all()


class TestRccValidity:
    def test_settle_after_create(self, full_dataset):
        rccs = full_dataset.rccs
        assert (rccs["settle_date"] > rccs["create_date"]).all()

    def test_amounts_positive(self, full_dataset):
        assert (full_dataset.rccs["amount"] > 0).all()

    def test_types_valid(self, full_dataset):
        assert set(np.unique(full_dataset.rccs["rcc_type"])) == {"G", "N", "NG"}

    def test_swlin_codes_valid(self, full_dataset):
        codes = full_dataset.rccs["swlin"][:500]
        for code in codes:
            digits = normalize_swlin(code)
            assert digits[0] != "0"

    def test_rccs_created_within_execution(self, full_dataset):
        rccs = full_dataset.rccs.merge(
            full_dataset.avails.select(["avail_id", "act_start"]), on="avail_id"
        )
        assert (rccs["create_date"] >= rccs["act_start"]).all()

    def test_every_closed_avail_has_rccs(self, full_dataset):
        counts = full_dataset.rccs.group_by("avail_id").sizes()
        closed_ids = set(int(a) for a in full_dataset.closed_avails()["avail_id"])
        ids_with_rccs = set(int(a) for a in counts["avail_id"])
        assert closed_ids <= ids_with_rccs

    def test_trouble_drives_rcc_volume(self, full_dataset):
        trouble = full_dataset.notes["trouble"]
        counts = full_dataset.rccs.group_by("avail_id").sizes().sort_by("avail_id")
        corr = np.corrcoef(trouble[: counts.n_rows], counts["count"])[0, 1]
        assert corr > 0.8


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_ships", 0),
            ("n_ships", -1),
            ("n_closed_avails", 0),
            ("n_closed_avails", -3),
            ("target_n_rccs", 0),
            ("target_n_rccs", -50),
        ],
    )
    def test_nonpositive_counts_rejected(self, field, value):
        with pytest.raises(DataGenerationError, match=field):
            SyntheticNmdConfig(**{field: value})

    def test_negative_ongoing_rejected(self):
        with pytest.raises(DataGenerationError, match="n_ongoing_avails"):
            SyntheticNmdConfig(n_ongoing_avails=-1)

    def test_zero_ongoing_allowed(self):
        config = SyntheticNmdConfig(
            n_ships=3, n_closed_avails=11, n_ongoing_avails=0, target_n_rccs=60
        )
        dataset = generate_dataset(config)
        assert (dataset.avails["status"] == "closed").all()

    def test_too_few_rccs_rejected(self):
        with pytest.raises(DataGenerationError, match="at least one RCC"):
            SyntheticNmdConfig(n_closed_avails=100, target_n_rccs=50)

    def test_rcc_floor_counts_ongoing_avails(self):
        # 12 avails in total need at least 12 RCCs, not 10.
        with pytest.raises(DataGenerationError, match="at least one RCC"):
            SyntheticNmdConfig(
                n_closed_avails=10, n_ongoing_avails=2, target_n_rccs=11
            )

    def test_boundary_one_rcc_per_avail_generates(self):
        config = SyntheticNmdConfig(
            n_ships=2, n_closed_avails=10, n_ongoing_avails=1, target_n_rccs=11
        )
        dataset = generate_dataset(config)
        assert dataset.n_rccs == 11
        counts = dataset.rccs.group_by("avail_id").sizes()
        assert (counts["count"] == 1).all()


def _swlin_codes_from_numpy_scalars(first_digit, mid, sub, item):
    """The SWLIN formatting the generator used before ``tolist``, verbatim."""
    return np.array(
        [
            f"{d}{m:02d}-{s:02d}-{i:03d}"
            for d, m, s, i in zip(first_digit, mid, sub, item)
        ],
        dtype=object,
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_swlin_codes_write_the_numpy_scalar_bytes(seed, tmp_path, monkeypatch):
    write_csv(generate_dataset(SyntheticNmdConfig(seed=seed)).rccs, tmp_path / "new.csv")
    monkeypatch.setattr(generator, "_swlin_codes", _swlin_codes_from_numpy_scalars)
    write_csv(generate_dataset(SyntheticNmdConfig(seed=seed)).rccs, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
