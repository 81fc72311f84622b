"""The per-node float-argsort tree builder, kept as the oracle of the fast one.

:meth:`repro.ml.tree.RegressionTree.fit` searches splits over columns
sorted once per ensemble (:func:`repro.ml.tree.sort_columns`).  These
are the methods it replaced, verbatim: every node gathers its rows'
values and argsorts them as floats.  Trees grown either way must match
node for node, bit for bit, and so must the model files written from
them.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.errors import ConfigurationError
from repro.ml import gbm
from repro.ml.tree import RegressionTree, _Node


class OracleTree(RegressionTree):
    """:class:`RegressionTree` grown by the per-node float argsort."""

    def fit(
        self,
        X: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        feature_indices: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Grow the tree on gradient/hessian targets.

        Parameters
        ----------
        X:
            Feature matrix (n_samples, n_features), float64.
        gradients, hessians:
            Per-sample first/second derivatives of the loss at the
            current ensemble prediction.
        feature_indices:
            Optional subset of columns eligible for splitting (column
            subsampling); thresholds still reference original indices.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ConfigurationError(f"X must be 2-D, got shape {X.shape}")
        gradients = np.asarray(gradients, dtype=np.float64)
        hessians = np.asarray(hessians, dtype=np.float64)
        if len(gradients) != len(X) or len(hessians) != len(X):
            raise ConfigurationError("X, gradients and hessians must align")
        self._n_features = X.shape[1]
        if feature_indices is None:
            feature_indices = np.arange(X.shape[1])
        else:
            feature_indices = np.asarray(feature_indices, dtype=np.int64)
        self._nodes = []
        rows = np.arange(len(X))
        self._grow(X, gradients, hessians, rows, feature_indices, depth=0)
        return self

    def _grow(
        self,
        X: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        rows: np.ndarray,
        features: np.ndarray,
        depth: int,
    ) -> int:
        lam = self.params.reg_lambda
        g_sum = float(g[rows].sum())
        h_sum = float(h[rows].sum())
        value = -g_sum / (h_sum + lam)
        index = len(self._nodes)
        self._nodes.append(_Node(value=value, n_samples=len(rows), cover=h_sum))
        if depth >= self.params.max_depth or len(rows) < 2 * self.params.min_samples_leaf:
            return index
        best = self._best_split(X, g, h, rows, features, g_sum, h_sum)
        if best is None:
            return index
        feature, threshold, gain, left_rows, right_rows = best
        node = self._nodes[index]
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.gain = float(gain)
        node.left = self._grow(X, g, h, left_rows, features, depth + 1)
        node.right = self._grow(X, g, h, right_rows, features, depth + 1)
        return index

    def _best_split(
        self,
        X: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        rows: np.ndarray,
        features: np.ndarray,
        g_sum: float,
        h_sum: float,
    ) -> tuple[int, float, float, np.ndarray, np.ndarray] | None:
        """Vectorised best-split search across all candidate features."""
        lam = self.params.reg_lambda
        m = len(rows)
        Xn = X[np.ix_(rows, features)]
        order = np.argsort(Xn, axis=0, kind="stable")
        Xs = np.take_along_axis(Xn, order, axis=0)
        gs = g[rows][order]
        hs = h[rows][order]
        GL = np.cumsum(gs, axis=0)[:-1]
        HL = np.cumsum(hs, axis=0)[:-1]
        GR = g_sum - GL
        HR = h_sum - HL
        parent_score = g_sum**2 / (h_sum + lam)
        # With reg_lambda == 0, split positions whose child hessian sum is
        # zero divide 0/0; those positions are always masked out below
        # (min_child_weight), so silence the vectorised warning.
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = (
                0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - parent_score)
                - self.params.gamma
            )
        left_counts = np.arange(1, m)[:, None]
        valid = (
            (Xs[1:] > Xs[:-1])
            & (HL >= self.params.min_child_weight)
            & (HR >= self.params.min_child_weight)
            & (left_counts >= self.params.min_samples_leaf)
            & (m - left_counts >= self.params.min_samples_leaf)
        )
        gains = np.where(valid, gains, -np.inf)
        flat_best = int(np.argmax(gains))
        split_pos, feat_pos = np.unravel_index(flat_best, gains.shape)
        best_gain = gains[split_pos, feat_pos]
        if not np.isfinite(best_gain) or best_gain <= 0:
            return None
        feature = int(features[feat_pos])
        threshold = 0.5 * (Xs[split_pos, feat_pos] + Xs[split_pos + 1, feat_pos])
        column_order = order[:, feat_pos]
        left_rows = rows[column_order[: split_pos + 1]]
        right_rows = rows[column_order[split_pos + 1 :]]
        return feature, threshold, float(best_gain), left_rows, right_rows


class _EnsembleOracleTree(OracleTree):
    """Takes the ensemble's sorted columns and ignores them."""

    def fit(self, X, gradients, hessians, feature_indices=None, columns=None):
        return super().fit(X, gradients, hessians, feature_indices)


@contextmanager
def oracle_builder() -> Iterator[None]:
    """Grow every :class:`~repro.ml.gbm.GradientBoostedTrees` tree with the oracle."""
    with mock.patch.object(gbm, "RegressionTree", _EnsembleOracleTree):
        yield
