"""Synthetic NMD generator.

The real Navy Maintenance Database is Controlled Unclassified Information
and cannot be distributed; the paper itself already evaluates scalability
on a synthetic RCC table whose "temporal distribution is kept intact".
This module extends that idea to the full dataset: it produces a
:class:`~repro.data.schema.NavyMaintenanceDataset` with

* the same cardinalities as the paper's Table 5 (73 ships, 187 closed
  avails, ≈52,959 RCCs),
* a heavy-tailed delay distribution (Figure 2: most avails finish within
  a few months of plan, a few run multiple years, some finish early), and
* a *learnable* causal structure: a latent per-avail "trouble" factor
  drives both the delay and the volume/size/mix of RCCs, so RCC-derived
  features genuinely predict delay — increasingly so as logical time
  advances — while static attributes (ship class, age, planned duration)
  carry a weaker base signal available at t* = 0.

All randomness flows from a single seed for exact reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dates import MISSING_DATE, iso_to_day
from repro.data.schema import NavyMaintenanceDataset
from repro.errors import DataGenerationError
from repro.table.table import ColumnTable

#: Ship classes with sampling weight, displacement (tons), delay-risk factor.
SHIP_CLASSES = {
    "DDG": (0.45, 9_200, 1.00),
    "CG": (0.15, 9_800, 1.25),
    "LCS": (0.20, 3_400, 1.10),
    "LHD": (0.08, 41_000, 1.30),
    "FFG": (0.12, 4_200, 0.85),
}

#: SWLIN leading-digit weights per ship class (subsystem mix differs by
#: hull type; e.g. big-deck LHDs skew toward flight-deck systems).
_SWLIN_FIRST_DIGIT_WEIGHTS = {
    "DDG": [0.04, 0.10, 0.08, 0.14, 0.22, 0.16, 0.08, 0.06, 0.12],
    "CG": [0.05, 0.12, 0.08, 0.15, 0.20, 0.15, 0.08, 0.07, 0.10],
    "LCS": [0.06, 0.08, 0.10, 0.12, 0.18, 0.14, 0.12, 0.10, 0.10],
    "LHD": [0.03, 0.08, 0.07, 0.10, 0.16, 0.14, 0.14, 0.16, 0.12],
    "FFG": [0.05, 0.10, 0.10, 0.15, 0.20, 0.15, 0.10, 0.05, 0.10],
}

_RMC_COUNT = 6

#: Per-maintenance-center delay multiplier (some RMCs run chronically
#: hotter than others — a strong static predictor).
_RMC_EFFICIENCY = np.array([0.80, 0.90, 0.95, 1.05, 1.18, 1.32])


@dataclass(frozen=True)
class SyntheticNmdConfig:
    """Knobs of the synthetic NMD generator.

    Defaults reproduce the paper's Table 5 cardinalities.
    """

    n_ships: int = 73
    n_closed_avails: int = 187
    n_ongoing_avails: int = 5
    target_n_rccs: int = 52_959
    seed: int = 7
    #: Gamma shape/scale of the *latent* multiplicative trouble factor
    #: (mean ``shape * scale`` should stay 1.0; the shape controls how
    #: much of the delay is unexplainable from static attributes alone —
    #: the paper's data is largely predictable at t* = 0, so the latent
    #: coefficient of variation is kept moderate).
    trouble_shape: float = 36.0
    trouble_scale: float = 1.0 / 36.0
    #: Days of delay contributed per unit of trouble.
    delay_per_trouble: float = 95.0
    #: Standard deviation of irreducible delay noise (days).
    delay_noise_sd: float = 12.0
    #: Constant subtracted from the raw delay so low-severity avails
    #: finish on time or early (negative delay) *deterministically* —
    #: early completion is a property of easy jobs, not a coin flip.
    early_shift_days: float = 32.0
    #: Fraction of RCCs surfacing in the opening inspection phase:
    #: ``base + slope * min(trouble, 2)`` (clipped to [0, 0.6]).  This is
    #: what makes DoMD predictable *early* in the execution — the key
    #: realism lever behind the paper's flat Table-7 error profile
    #: (ablated in ``bench_ablation_early_signal.py``).
    inspection_base: float = 0.22
    inspection_slope: float = 0.18
    first_plan_start: str = "2015-01-05"
    last_plan_start: str = "2022-06-30"

    def __post_init__(self) -> None:
        for name in ("n_ships", "n_closed_avails", "target_n_rccs"):
            value = getattr(self, name)
            if value <= 0:
                raise DataGenerationError(
                    f"{name} must be a positive integer, got {value}"
                )
        if self.n_ongoing_avails < 0:
            raise DataGenerationError(
                f"n_ongoing_avails must be >= 0, got {self.n_ongoing_avails}"
            )
        if self.target_n_rccs < self.n_closed_avails + self.n_ongoing_avails:
            raise DataGenerationError(
                f"need at least one RCC per avail: target_n_rccs="
                f"{self.target_n_rccs} < {self.n_closed_avails} closed + "
                f"{self.n_ongoing_avails} ongoing avails"
            )


def generate_dataset(config: SyntheticNmdConfig | None = None) -> NavyMaintenanceDataset:
    """Generate a synthetic NMD snapshot.

    Returns
    -------
    NavyMaintenanceDataset
        Ships, avails (closed + ongoing) and RCC tables.  The latent
        trouble factor used during generation is recorded in
        ``dataset.notes["trouble"]`` for diagnostics (never used by the
        pipeline).
    """
    config = config or SyntheticNmdConfig()
    rng = np.random.default_rng(config.seed)

    ships = _generate_ships(config, rng)
    avails, trouble = _generate_avails(config, rng, ships)
    rccs = _generate_rccs(config, rng, avails, trouble)

    dataset = NavyMaintenanceDataset(
        ships=ships,
        avails=avails,
        rccs=rccs,
        seed=config.seed,
        notes={"trouble": trouble, "config": config},
    )
    return dataset


# ----------------------------------------------------------------------
# ships
# ----------------------------------------------------------------------
def _generate_ships(config: SyntheticNmdConfig, rng: np.random.Generator) -> ColumnTable:
    classes = list(SHIP_CLASSES)
    weights = np.array([SHIP_CLASSES[c][0] for c in classes])
    weights = weights / weights.sum()
    ship_class = rng.choice(classes, size=config.n_ships, p=weights)
    displacement = np.array(
        [SHIP_CLASSES[c][1] for c in ship_class], dtype=np.float64
    ) * rng.uniform(0.95, 1.05, config.n_ships)
    commission_year = rng.integers(1985, 2019, config.n_ships)
    rmc_id = rng.integers(0, _RMC_COUNT, config.n_ships)
    return ColumnTable(
        {
            "ship_id": np.arange(config.n_ships, dtype=np.int64),
            "ship_class": ship_class.astype(object),
            "commission_year": commission_year.astype(np.int64),
            "rmc_id": rmc_id.astype(np.int64),
            "displacement": displacement.round(0),
        }
    )


# ----------------------------------------------------------------------
# avails
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AvailSchedule:
    """Planned avail frames + static attributes, before any outcome.

    Everything here is knowable *before* execution starts: ship
    assignment, plan dates, avail type, planned scope and the static
    modeling attributes.  Both generation paths — the trouble-factor
    sampler below and the lifecycle simulator in
    :mod:`repro.data.lifecycle` — consume the same schedule and differ
    only in how they produce outcomes (delay, actual dates, RCCs).
    Rows are sorted by ``plan_start``.
    """

    ship_rows: np.ndarray
    ship_class: np.ndarray
    displacement: np.ndarray
    rmc_id: np.ndarray
    commission_year: np.ndarray
    plan_start: np.ndarray
    plan_end: np.ndarray
    planned_duration: np.ndarray
    avail_type: np.ndarray
    ship_age: np.ndarray
    start_quarter: np.ndarray
    n_prior: np.ndarray

    @property
    def n_total(self) -> int:
        return len(self.ship_rows)


def schedule_avails(
    config: SyntheticNmdConfig, rng: np.random.Generator, ships: ColumnTable
) -> AvailSchedule:
    """Draw the outcome-free part of the avail table (plans + statics)."""
    n_total = config.n_closed_avails + config.n_ongoing_avails
    # Each ship gets at least one avail; the rest are spread randomly so
    # some ships accumulate a maintenance history (n_prior_avails > 0).
    ship_rows = np.concatenate(
        [
            np.arange(config.n_ships),
            rng.integers(0, config.n_ships, max(n_total - config.n_ships, 0)),
        ]
    )[:n_total]
    rng.shuffle(ship_rows)

    ship_class = ships["ship_class"][ship_rows]
    displacement = ships["displacement"][ship_rows]
    rmc_id = ships["rmc_id"][ship_rows]
    commission_year = ships["commission_year"][ship_rows]

    first_day = iso_to_day(config.first_plan_start)
    last_day = iso_to_day(config.last_plan_start)
    plan_start = np.sort(rng.integers(first_day, last_day, n_total))

    avail_type = rng.choice(["docking", "pierside"], size=n_total, p=[0.55, 0.45])
    planned_duration = np.where(
        avail_type == "docking",
        rng.integers(300, 651, n_total),
        rng.integers(100, 301, n_total),
    ).astype(np.int64)
    plan_end = plan_start + planned_duration

    start_year = np.array(
        [int(d) for d in (plan_start - first_day) // 365], dtype=np.int64
    )
    ship_age = np.maximum((2015 + start_year) - commission_year, 1)
    start_quarter = ((plan_start - first_day) // 91) % 4 + 1

    # prior avails per ship (chronological rank within each ship)
    n_prior = np.zeros(n_total, dtype=np.int64)
    seen: dict[int, int] = {}
    for i, ship in enumerate(ship_rows):
        n_prior[i] = seen.get(int(ship), 0)
        seen[int(ship)] = n_prior[i] + 1

    return AvailSchedule(
        ship_rows=ship_rows,
        ship_class=ship_class,
        displacement=displacement,
        rmc_id=rmc_id,
        commission_year=commission_year,
        plan_start=plan_start,
        plan_end=plan_end,
        planned_duration=planned_duration,
        avail_type=avail_type,
        ship_age=ship_age,
        start_quarter=start_quarter,
        n_prior=n_prior,
    )


def finalize_avails(
    config: SyntheticNmdConfig,
    schedule: AvailSchedule,
    ships: ColumnTable,
    delay: np.ndarray,
    late_start: np.ndarray,
) -> ColumnTable:
    """Assemble the avail table from a schedule + per-avail outcomes.

    ``delay`` is the duration overrun in days (already clipped/rounded);
    ``late_start`` the days each avail starts after its plan.  Ongoing
    avails (the last ``n_ongoing_avails`` rows) get a missing actual end
    and a NaN delay.
    """
    n_total = schedule.n_total
    act_start = schedule.plan_start + late_start
    act_end = act_start + schedule.planned_duration + delay

    status = np.array(["closed"] * n_total, dtype=object)
    if config.n_ongoing_avails:
        ongoing_rows = np.arange(n_total - config.n_ongoing_avails, n_total)
        status[ongoing_rows] = "ongoing"
        act_end[ongoing_rows] = MISSING_DATE

    delay_column = delay.astype(np.float64)
    delay_column[status == "ongoing"] = np.nan

    return ColumnTable(
        {
            "avail_id": np.arange(n_total, dtype=np.int64),
            "ship_id": ships["ship_id"][schedule.ship_rows],
            "status": status,
            "plan_start": schedule.plan_start.astype(np.int64),
            "plan_end": schedule.plan_end.astype(np.int64),
            "act_start": act_start.astype(np.int64),
            "act_end": act_end.astype(np.int64),
            "delay": delay_column,
            "ship_class": schedule.ship_class.astype(object),
            "rmc_id": schedule.rmc_id.astype(np.int64),
            "ship_age": schedule.ship_age.astype(np.int64),
            "planned_duration": schedule.planned_duration,
            "n_prior_avails": schedule.n_prior,
            "avail_type": schedule.avail_type.astype(object),
            "start_quarter": schedule.start_quarter.astype(np.int64),
            "displacement": schedule.displacement,
        }
    )


def _generate_avails(
    config: SyntheticNmdConfig, rng: np.random.Generator, ships: ColumnTable
) -> tuple[ColumnTable, np.ndarray]:
    schedule = schedule_avails(config, rng, ships)
    n_total = schedule.n_total
    ship_class = schedule.ship_class
    planned_duration = schedule.planned_duration
    rmc_id = schedule.rmc_id
    ship_age = schedule.ship_age
    avail_type = schedule.avail_type
    n_prior = schedule.n_prior

    # ---- trouble factor -------------------------------------------------
    # Deterministic severity from static attributes (class risk, age,
    # planned scope, maintenance-center efficiency) times a latent
    # multiplicative factor only observable through RCC churn.
    class_risk = np.array([SHIP_CLASSES[c][2] for c in ship_class])
    age_factor = np.clip(1.0 + 0.03 * (ship_age - 15), 0.55, 2.4)
    duration_factor = 0.45 + planned_duration / 420.0
    rmc_factor = _RMC_EFFICIENCY[rmc_id]
    severity = class_risk * age_factor * duration_factor * rmc_factor
    # Super-linear severity widens the cross-avail delay spread (the
    # paper's Figure 2 spans on-time to multi-year); the constant keeps
    # the mean invariant to the exponent.
    severity = severity**1.7 / 1.55
    latent = rng.gamma(config.trouble_shape, config.trouble_scale, n_total)
    trouble = severity * latent

    # ---- delay ---------------------------------------------------------
    # The delay responds *non-linearly* to trouble: past a critical load
    # the yard saturates and every extra unit of churn costs double
    # (hinge term), and docking avails amplify trouble while pierside
    # work absorbs it (interaction with a static attribute).  Both
    # effects favour tree models over linear fits, as in the paper.
    noise = rng.normal(0.0, config.delay_noise_sd, n_total)
    saturation = trouble + 0.6 * np.maximum(trouble - 1.2, 0.0)
    type_amplifier = np.where(avail_type == "docking", 1.2, 0.85)
    delay = (
        config.delay_per_trouble * saturation * type_amplifier
        - config.early_shift_days
        + 6.0 * (n_prior - 1)
        + noise
    )
    delay = np.clip(np.round(delay), -45, 1100).astype(np.int64)

    # ---- actual dates ---------------------------------------------------
    late_start = (rng.random(n_total) < 0.12) * rng.integers(3, 30, n_total)
    avails = finalize_avails(config, schedule, ships, delay, late_start)
    return avails, trouble


# ----------------------------------------------------------------------
# RCCs
# ----------------------------------------------------------------------
def _generate_rccs(
    config: SyntheticNmdConfig,
    rng: np.random.Generator,
    avails: ColumnTable,
    trouble: np.ndarray,
) -> ColumnTable:
    n_avails = avails.n_rows
    # RCC volume scales with trouble: troubled avails see far more
    # contract churn.  Normalise so the grand total hits the target.
    # Concave coupling: RCC volume saturates with trouble (yards throttle
    # paperwork under load), so delay is *convex* in the observable
    # feature scale — a relation trees capture and linear fits cannot.
    weight = 0.3 + trouble**0.55
    # Largest-remainder apportionment: every avail gets at least one RCC
    # and the total hits the target exactly for any target >= n_avails.
    remaining = config.target_n_rccs - n_avails
    if remaining < 0:
        raise DataGenerationError("need at least one RCC per avail")
    shares = weight / weight.sum() * remaining
    extra = np.floor(shares).astype(np.int64)
    leftovers = np.argsort(shares - extra)[::-1][: remaining - int(extra.sum())]
    extra[leftovers] += 1
    counts = 1 + extra
    assert int(counts.sum()) == config.target_n_rccs and counts.min() >= 1

    act_start = np.asarray(avails["act_start"], dtype=np.int64)
    act_end = np.asarray(avails["act_end"], dtype=np.int64)
    plan_duration = np.asarray(avails["planned_duration"], dtype=np.int64)
    ship_class = avails["ship_class"]
    status = avails["status"]

    total = int(counts.sum())
    rcc_avail = np.repeat(np.arange(n_avails, dtype=np.int64), counts)
    rcc_trouble = np.repeat(trouble, counts)

    # Effective execution window: ongoing avails are observed up to their
    # planned end; closed avails up to their actual end.
    window_end = np.where(status == "ongoing", act_start + plan_duration, act_end)
    window_days = np.maximum(window_end - act_start, 30)
    rcc_window = np.repeat(window_days, counts)
    rcc_start_day = np.repeat(act_start, counts)
    rcc_planned = np.repeat(plan_duration, counts)

    # Creation times: a trouble-scaled share of RCCs surfaces during the
    # opening "inspection phase" (first ~15% of the *planned* window —
    # open-and-inspect findings drive early growth work), the rest are
    # Beta-distributed over the full execution window.  The early burst
    # is what makes DoMD predictable soon after work starts.
    inspection_share = np.clip(
        config.inspection_base
        + config.inspection_slope * np.minimum(rcc_trouble, 2.0),
        0.0,
        0.6,
    )
    is_inspection = rng.random(total) < inspection_share
    inspection_offset = rng.beta(1.2, 4.0, total) * 0.15 * rcc_planned
    execution_offset = rng.beta(1.4, 1.6, total) * rcc_window
    create_offset = np.where(is_inspection, inspection_offset, execution_offset)
    create_date = (rcc_start_day + np.round(create_offset)).astype(np.int64)

    # Settlement: gamma-distributed resolution lag, truncated at the
    # window end plus a closeout slack.
    settle_lag = np.maximum(np.round(rng.gamma(2.0, 25.0, total)), 1).astype(np.int64)
    settle_date = np.minimum(create_date + settle_lag, rcc_start_day + rcc_window + 30)
    settle_date = np.maximum(settle_date, create_date + 1)

    # Type mix tilts toward growth/new-growth on troubled avails.
    tilt = np.clip(rcc_trouble / (1.0 + rcc_trouble), 0.0, 0.8)
    u = rng.random(total)
    p_growth = 0.45 + 0.15 * tilt
    p_new = 0.35 - 0.10 * tilt
    rcc_type = np.where(u < p_growth, "G", np.where(u < p_growth + p_new, "N", "NG")).astype(
        object
    )

    # SWLIN codes: class-specific subsystem mix for the first digit.
    first_digit = np.empty(total, dtype=np.int64)
    rcc_class = np.repeat(ship_class, counts)
    for cls, weights in _SWLIN_FIRST_DIGIT_WEIGHTS.items():
        mask = rcc_class == cls
        n = int(mask.sum())
        if n:
            first_digit[mask] = rng.choice(np.arange(1, 10), size=n, p=weights)
    mid = rng.integers(0, 100, total)
    sub = rng.integers(0, 100, total)
    item = rng.integers(0, 1000, total)
    swlin = _swlin_codes(first_digit, mid, sub, item)

    # Settled amounts: lognormal, scaled by type and trouble.
    type_scale = np.where(rcc_type == "G", 1.0, np.where(rcc_type == "N", 1.6, 1.3))
    amount = (
        rng.lognormal(mean=np.log(9_000.0), sigma=0.9, size=total)
        * type_scale
        * (1.0 + 0.5 * rcc_trouble**0.55)
    ).round(2)

    return ColumnTable(
        {
            "rcc_id": np.arange(total, dtype=np.int64),
            "avail_id": rcc_avail,
            "rcc_type": rcc_type,
            "swlin": swlin,
            "create_date": create_date,
            "settle_date": settle_date.astype(np.int64),
            "status": np.array(["settled"] * total, dtype=object),
            "amount": amount,
        }
    )


def _swlin_codes(
    first_digit: np.ndarray, mid: np.ndarray, sub: np.ndarray, item: np.ndarray
) -> np.ndarray:
    """``DMM-SS-III`` SWLIN codes.

    Formatted from Python ints (``tolist``), which take about half the
    time of numpy integer scalars over a paper-scale RCC table.
    """
    return np.array(
        [
            f"{d}{m:02d}-{s:02d}-{i:03d}"
            for d, m, s, i in zip(
                first_digit.tolist(), mid.tolist(), sub.tolist(), item.tolist()
            )
        ],
        dtype=object,
    )
