"""Fusion of per-window delay estimates (Task 6 of the paper).

Delays compound over time, so later models see more information but
earlier models are less exposed to noise bursts; fusion aggregates every
prediction made up to ``t*`` into one estimate.  The paper evaluates
*no fusion* (use the latest window's model only), *min fusion* and
*average fusion*, selecting average.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: The paper evaluates none/min/average; median and ewma implement the
#: "many other possible ensembling methods" it leaves to future work.
FUSION_METHODS = ("none", "min", "average", "median", "ewma")

#: Recency weight of exponentially-weighted fusion: window j (0-based,
#: k windows total) gets weight EWMA_ALPHA ** (k - 1 - j).
EWMA_ALPHA = 0.7


def _ewma_weights(k: int) -> np.ndarray:
    weights = EWMA_ALPHA ** np.arange(k - 1, -1, -1, dtype=np.float64)
    return weights / weights.sum()


def fuse(predictions: np.ndarray, method: str) -> np.ndarray:
    """Fuse a matrix of per-window predictions into one vector.

    Parameters
    ----------
    predictions:
        Shape ``(n_avails, n_windows_so_far)`` — column ``j`` holds model
        ``m_{jx}``'s estimates; the last column is the current window.
    method:
        One of :data:`FUSION_METHODS`.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    if predictions.ndim != 2 or predictions.shape[1] == 0:
        raise ConfigurationError(
            f"predictions must be (n, >=1), got shape {predictions.shape}"
        )
    if method == "none":
        return predictions[:, -1].copy()
    if method == "min":
        return predictions.min(axis=1)
    if method == "average":
        return predictions.mean(axis=1)
    if method == "median":
        return np.median(predictions, axis=1)
    if method == "ewma":
        # Accumulated column by column with elementwise ops: a BLAS
        # product rounds a one-row matrix differently from a many-row
        # one, and a row's fused value must not depend on its batch.
        weights = _ewma_weights(predictions.shape[1])
        out = predictions[:, 0] * weights[0]
        for j in range(1, predictions.shape[1]):
            out += predictions[:, j] * weights[j]
        return out
    raise ConfigurationError(
        f"unknown fusion method {method!r}; expected one of {FUSION_METHODS}"
    )


def fuse_progressive(predictions: np.ndarray, method: str) -> np.ndarray:
    """Fused estimate at *every* window: column ``j`` fuses windows 0..j.

    Output has the same shape as ``predictions``.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    if predictions.ndim != 2 or predictions.shape[1] == 0:
        raise ConfigurationError(
            f"predictions must be (n, >=1), got shape {predictions.shape}"
        )
    if method == "none":
        return predictions.copy()
    if method == "min":
        return np.minimum.accumulate(predictions, axis=1)
    if method == "average":
        cumulative = np.cumsum(predictions, axis=1)
        divisors = np.arange(1, predictions.shape[1] + 1, dtype=np.float64)
        return cumulative / divisors
    if method in ("median", "ewma"):
        out = np.empty_like(predictions, dtype=np.float64)
        for j in range(predictions.shape[1]):
            out[:, j] = fuse(predictions[:, : j + 1], method)
        return out
    raise ConfigurationError(
        f"unknown fusion method {method!r}; expected one of {FUSION_METHODS}"
    )


def fuse_upto(
    predictions: np.ndarray, last_window: np.ndarray, method: str
) -> np.ndarray:
    """:func:`fuse_progressive` of each row over the windows it reaches.

    Row ``i`` reaches windows ``0..last_window[i]``; its columns beyond
    stay NaN.  Rows with the same window count are fused in one
    :func:`fuse_progressive` call.  Every method fuses each row on its
    own, so the result equals fusing the rows one at a time, bit for
    bit.
    """
    last_window = np.asarray(last_window, dtype=np.int64)
    out = np.full(np.shape(predictions), np.nan)
    for window in set(last_window.tolist()):
        rows = last_window == window
        out[rows, : window + 1] = fuse_progressive(
            predictions[rows, : window + 1], method
        )
    return out
