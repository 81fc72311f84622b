"""The per-timestamp feature sweep, kept as the oracle of the fast one.

:meth:`~repro.features.transform.StatusFeatureExtractor.sweep` derives
every timestamp's features in one pass over a block of avails.  This is
the sweep it replaced, verbatim: one Status Query advance, one
marginalisation and one derivation per timestamp, over the RCC table
joined with the avails, with RCC codes parsed row by row.  The fast
sweep must match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.features.registry import SPECIAL_FEATURES
from repro.features.tensor import FeatureTensor
from repro.features.transform import (
    _N_TYPES,
    _RATE_FLOOR,
    _TYPE_CODE,
    StatusFeatureExtractor,
    _membership_matrices,
)
from repro.index.status_query import StatStructure


def _safe_div(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    out = np.zeros_like(numerator, dtype=np.float64)
    nz = denominator > 0
    out[nz] = numerator[nz] / denominator[nz]
    return out


def oracle_digit_codes(extractor: StatusFeatureExtractor, swlin_codes) -> np.ndarray:
    lo, hi = extractor.grid.digit_code_range
    if extractor.grid.swlin_depth == 1:
        codes = np.array([int(code[0]) for code in swlin_codes], dtype=np.int64)
    else:
        codes = np.array(
            [int(code[0]) * 10 + int(code[1]) for code in swlin_codes],
            dtype=np.int64,
        )
    assert not len(codes) or (codes.min() >= lo and codes.max() <= hi)
    return codes - lo


def oracle_sweep(extractor: StatusFeatureExtractor) -> FeatureTensor:
    """The per-timestamp sweep over ``extractor``'s dataset and grid."""
    dataset, grid = extractor.dataset, extractor.grid
    avails = dataset.avails
    n_avails = avails.n_rows
    avail_ids = np.asarray(avails["avail_id"], dtype=np.int64)
    avail_pos = {int(a): i for i, a in enumerate(avail_ids)}

    rccs = dataset.rccs_with_logical_times()
    rcc_avail_rows = np.array(
        [avail_pos[int(a)] for a in rccs["avail_id"]], dtype=np.int64
    )
    type_codes = np.array([_TYPE_CODE[t] for t in rccs["rcc_type"]], dtype=np.int64)
    digit_codes = oracle_digit_codes(extractor, rccs["swlin"])
    n_codes = grid.n_digit_codes
    group_ids = (
        rcc_avail_rows * (_N_TYPES * n_codes) + type_codes * n_codes + digit_codes
    )
    stat = StatStructure(
        group_ids=group_ids,
        n_groups=n_avails * _N_TYPES * n_codes,
        starts=np.asarray(rccs["t_start"], dtype=np.float64),
        ends=np.asarray(rccs["t_end"], dtype=np.float64),
        amounts=np.asarray(rccs["amount"], dtype=np.float64),
    )
    type_m, scope_m = _membership_matrices(grid)
    out = np.zeros((n_avails, len(extractor.t_stars), len(extractor.registry)))
    previous = None
    for ti, t_star in enumerate(extractor.t_stars):
        stat.advance(float(t_star))
        base = _marginalise(stat, n_avails, n_codes, type_m, scope_m)
        out[:, ti, :] = _derive(grid, base, previous, float(t_star))
        previous = base
    return FeatureTensor(
        values=out,
        avail_ids=avail_ids,
        t_stars=extractor.t_stars,
        feature_names=list(grid.feature_names()),
    )


def _marginalise(stat, n_avails, n_codes, type_m, scope_m) -> dict[str, np.ndarray]:
    def reduce(accumulator: np.ndarray) -> np.ndarray:
        cube = accumulator.reshape(n_avails, _N_TYPES, n_codes).astype(np.float64)
        by_type = np.einsum("atd,xt->axd", cube, type_m)
        return np.einsum("axd,sd->axs", by_type, scope_m)

    return {
        "created_count": reduce(stat.created_count),
        "created_amount": reduce(stat.created_amount),
        "created_start_sum": reduce(stat.created_start_sum),
        "settled_count": reduce(stat.settled_count),
        "settled_amount": reduce(stat.settled_amount),
        "settled_duration": reduce(stat.settled_duration),
        "settled_start_sum": reduce(stat.settled_start_sum),
        "_digit_created_count": stat.created_count.reshape(
            n_avails, _N_TYPES, n_codes
        ).sum(axis=1),
        "_digit_created_amount": stat.created_amount.reshape(
            n_avails, _N_TYPES, n_codes
        ).sum(axis=1),
    }


def _derive(grid, base, previous, t_star: float) -> np.ndarray:
    created_count = base["created_count"]
    created_amount = base["created_amount"]
    settled_count = base["settled_count"]
    settled_amount = base["settled_amount"]
    settled_duration = base["settled_duration"]
    active_count = created_count - settled_count
    active_amount = created_amount - settled_amount
    active_age_sum = t_star * active_count - (
        base["created_start_sum"] - base["settled_start_sum"]
    )
    rate_div = max(t_star, _RATE_FLOOR)
    if previous is None:
        prev_created_count = np.zeros_like(created_count)
        prev_created_amount = np.zeros_like(created_amount)
        prev_settled_count = np.zeros_like(settled_count)
        prev_settled_amount = np.zeros_like(settled_amount)
    else:
        prev_created_count = previous["created_count"]
        prev_created_amount = previous["created_amount"]
        prev_settled_count = previous["settled_count"]
        prev_settled_amount = previous["settled_amount"]
    prev_active_count = prev_created_count - prev_settled_count
    prev_active_amount = prev_created_amount - prev_settled_amount

    stats: dict[str, np.ndarray] = {
        "CNT_CREATED": created_count,
        "SUM_CREATED_AMT": created_amount,
        "AVG_CREATED_AMT": _safe_div(created_amount, created_count),
        "RATE_CREATED_CNT": created_count / rate_div,
        "RATE_CREATED_AMT": created_amount / rate_div,
        "DLT_CREATED_CNT": created_count - prev_created_count,
        "DLT_CREATED_AMT": created_amount - prev_created_amount,
        "CNT_SETTLED": settled_count,
        "SUM_SETTLED_AMT": settled_amount,
        "AVG_SETTLED_AMT": _safe_div(settled_amount, settled_count),
        "SUM_SETTLED_DUR": settled_duration,
        "AVG_SETTLED_DUR": _safe_div(settled_duration, settled_count),
        "RATE_SETTLED_CNT": settled_count / rate_div,
        "RATE_SETTLED_AMT": settled_amount / rate_div,
        "DLT_SETTLED_CNT": settled_count - prev_settled_count,
        "DLT_SETTLED_AMT": settled_amount - prev_settled_amount,
        "RATIO_SETTLED_CNT": _safe_div(settled_count, created_count),
        "RATIO_SETTLED_AMT": _safe_div(settled_amount, created_amount),
        "CNT_ACTIVE": active_count,
        "SUM_ACTIVE_AMT": active_amount,
        "AVG_ACTIVE_AMT": _safe_div(active_amount, active_count),
        "PCT_ACTIVE": _safe_div(active_count, created_count),
        "SUM_ACTIVE_AGE": active_age_sum,
        "AVG_ACTIVE_AGE": _safe_div(active_age_sum, active_count),
        "DLT_ACTIVE_CNT": active_count - prev_active_count,
        "DLT_ACTIVE_AMT": active_amount - prev_active_amount,
    }
    n_avails = created_count.shape[0]
    n_grid = len(grid.type_axis) * len(grid.swlin_axis) * len(grid.stats)
    n_total = n_grid + (len(SPECIAL_FEATURES) if grid.include_specials else 0)
    flat = np.empty((n_avails, n_total))
    stacked = np.stack([stats[name] for name in grid.stats], axis=-1)
    flat[:, :n_grid] = stacked.reshape(n_avails, n_grid)
    if grid.include_specials:
        digit_counts = base["_digit_created_count"]
        digit_amounts = base["_digit_created_amount"]
        total_amount = digit_amounts.sum(axis=1)
        shares = digit_amounts / np.maximum(total_amount[:, None], 1e-12)
        flat[:, n_grid + 0] = t_star
        flat[:, n_grid + 1] = np.log1p(total_amount)
        flat[:, n_grid + 2] = (digit_counts > 0).sum(axis=1)
        flat[:, n_grid + 3] = (shares**2).sum(axis=1)
    return flat
