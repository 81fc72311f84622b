"""Second-order regression tree (the XGBoost-style base learner).

Exact greedy split finding over pre-sorted feature columns, driven by
per-sample gradients ``g`` and hessians ``h`` of an arbitrary
twice-differentiable loss:

* split gain  ``1/2 [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
  - G^2/(H+lambda) ] - gamma``
* leaf weight ``-G/(H+lambda)``

The split search is vectorised **across all candidate features at once**
(one sort + cumulative sums per node), which keeps pure-numpy training
fast on the paper's small-n / wide-p regime.  As in XGBoost's exact
method, the columns are sorted once per design matrix
(:func:`sort_columns`, shared by every tree of an ensemble): the root
reuses that order, and any other node sorts its rows' small integer
rank keys, which orders them exactly as a stable argsort of their
values would.  Trees are bitwise those of a per-node float argsort.

Besides prediction the tree supports gain-based feature importances and
Saabas-style per-sample feature contributions, which power the paper's
"top-5 contributing features per availability" interpretability output.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, NotFittedError


@dataclass
class _Node:
    """One tree node; leaves have ``feature == -1``."""

    value: float
    n_samples: int
    cover: float  # sum of hessians
    feature: int = -1
    threshold: float = 0.0
    gain: float = 0.0
    left: int = -1  # child indices into the node list
    right: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass(frozen=True)
class TreeParams:
    """Growth constraints and regularisation of a single tree."""

    max_depth: int = 3
    min_samples_leaf: int = 2
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ConfigurationError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )
        if self.reg_lambda < 0 or self.gamma < 0:
            raise ConfigurationError("reg_lambda and gamma must be non-negative")


@dataclass(frozen=True)
class SortedColumns:
    """The columns of one design matrix, sorted once for all its trees.

    Each column's values get dense ranks: equal values share a rank,
    ranks rise with value, and every NaN takes the top rank ``len(X)``.
    A cell's sort key packs its rank above the row's position,
    ``rank << shift | position``, so a column's keys are distinct and
    sorting them orders its rows by value, ties by position: the stable
    argsort of the values, NaN last.  The sorted keys also carry the
    ranks, which tell where the value changes.

    ``keys`` holds ``rank << shift`` per cell (a node adds its own row
    positions); ``root`` holds every column's keys over all rows,
    sorted, so its low bits are the stable order of the whole column.
    The keys take the smallest unsigned dtype that holds them.
    """

    keys: np.ndarray
    root: np.ndarray
    shift: int

    @property
    def position_mask(self) -> int:
        return (1 << self.shift) - 1

    @property
    def nan_key(self) -> int:
        """The smallest key a NaN cell can have."""
        return len(self.keys) << self.shift


def sort_columns(X: np.ndarray) -> SortedColumns:
    """Sort every column of ``X`` once, with one float argsort."""
    n = len(X)
    order = np.argsort(X, axis=0, kind="stable")
    values = np.take_along_axis(X, order, axis=0)
    shift = max(n - 1, 0).bit_length()
    dtype = np.min_scalar_type(((n + 1) << shift) - 1)
    ranks = np.zeros(X.shape, dtype=dtype)
    np.cumsum(values[1:] > values[:-1], axis=0, dtype=dtype, out=ranks[1:])
    ranks[np.isnan(values)] = n
    ranks <<= shift
    keys = np.empty_like(ranks)
    np.put_along_axis(keys, order, ranks, axis=0)
    return SortedColumns(keys=keys, root=ranks | order.astype(dtype), shift=shift)


class RegressionTree:
    """A single gradient/hessian-fitted regression tree."""

    def __init__(self, params: TreeParams | None = None):
        self.params = params or TreeParams()
        self._nodes: list[_Node] = []
        self._n_features = 0

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def depth(self) -> int:
        """Realised depth of the fitted tree (root = depth 0)."""
        self._check_fitted()

        def walk(index: int) -> int:
            node = self._nodes[index]
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(0)

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        feature_indices: np.ndarray | None = None,
        columns: SortedColumns | None = None,
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
        columns:
            ``sort_columns(X)``, when the caller fits many trees on the
            same ``X``; computed here otherwise.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ConfigurationError(f"X must be 2-D, got shape {X.shape}")
        gradients = np.asarray(gradients, dtype=np.float64)
        hessians = np.asarray(hessians, dtype=np.float64)
        if len(gradients) != len(X) or len(hessians) != len(X):
            raise ConfigurationError("X, gradients and hessians must align")
        self._n_features = X.shape[1]
        if feature_indices is not None:
            feature_indices = np.asarray(feature_indices, dtype=np.int64)
        if columns is None:
            columns = sort_columns(X)
        self._nodes = []
        rows = np.arange(len(X))
        self._grow(X, gradients, hessians, rows, feature_indices, columns, depth=0)
        return self

    def _grow(
        self,
        X: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        rows: np.ndarray,
        features: np.ndarray | None,
        columns: SortedColumns,
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
        best = self._best_split(X, g, h, rows, features, columns, depth == 0, g_sum, h_sum)
        if best is None:
            return index
        feature, threshold, gain, left_rows, right_rows = best
        node = self._nodes[index]
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.gain = float(gain)
        node.left = self._grow(X, g, h, left_rows, features, columns, depth + 1)
        node.right = self._grow(X, g, h, right_rows, features, columns, depth + 1)
        return index

    def _best_split(
        self,
        X: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        rows: np.ndarray,
        features: np.ndarray | None,
        columns: SortedColumns,
        root: bool,
        g_sum: float,
        h_sum: float,
    ) -> tuple[int, float, float, np.ndarray, np.ndarray] | None:
        """Vectorised best-split search across all candidate features.

        Each candidate column is sorted stably by value, NaN last: the
        root (all rows, in index order) reuses ``columns.root``; any
        other node sorts its rows' keys.  A split may fall between two
        sorted positions whose ranks differ and are not NaN's, leaving
        at least ``min_samples_leaf`` rows on each side.
        """
        params = self.params
        lam = params.reg_lambda
        m = len(rows)
        if root:  # all rows, in index order
            keys = columns.root if features is None else columns.root[:, features]
        else:
            keys = columns.keys[rows] if features is None else columns.keys[np.ix_(rows, features)]
            keys |= np.arange(m, dtype=keys.dtype)[:, None]
            keys.sort(axis=0)
        order = (keys & columns.position_mask).astype(np.intp)
        gs = g[rows][order]
        hs = h[rows][order]
        # Position i splits the sorted rows into [0, i] and [i + 1, m).
        lo, hi = params.min_samples_leaf - 1, m - params.min_samples_leaf
        GL = gs[:hi].cumsum(axis=0)[lo:]
        HL = hs[:hi].cumsum(axis=0)[lo:]
        GR = g_sum - GL
        HR = h_sum - HL
        parent_score = g_sum**2 / (h_sum + lam)
        # With reg_lambda == 0, split positions whose child hessian sum is
        # zero divide 0/0; those positions are always masked out below
        # (min_child_weight), so silence the vectorised warning.
        quiet = np.errstate(divide="ignore", invalid="ignore") if lam == 0 else nullcontext()
        with quiet:
            gains = (
                0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - parent_score)
                - params.gamma
            )
        upper = keys[lo + 1 : hi + 1]
        valid = (
            (upper > (keys[lo:hi] | columns.position_mask))  # a larger rank
            & (upper < columns.nan_key)
            & (HL >= params.min_child_weight)
            & (HR >= params.min_child_weight)
        )
        gains = np.where(valid, gains, -np.inf)
        split_pos, feat_pos = divmod(int(np.argmax(gains)), gains.shape[1])
        best_gain = gains[split_pos, feat_pos]
        if not np.isfinite(best_gain) or best_gain <= 0:
            return None
        split_pos += lo
        feature = feat_pos if features is None else int(features[feat_pos])
        column_order = order[:, feat_pos]
        left_rows = rows[column_order[: split_pos + 1]]
        right_rows = rows[column_order[split_pos + 1 :]]
        threshold = 0.5 * (X[left_rows[-1], feature] + X[right_rows[0], feature])
        return feature, threshold, float(best_gain), left_rows, right_rows

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self._nodes:
            raise NotFittedError("tree is not fitted")

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for each row of ``X``."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.float64)
        stack = [(0, np.arange(len(X)))]
        while stack:
            index, idx = stack.pop()
            if not len(idx):
                continue
            node = self._nodes[index]
            if node.is_leaf:
                out[idx] = node.value
                continue
            go_left = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
        return out

    def contributions(self, X: np.ndarray) -> np.ndarray:
        """Saabas per-sample feature contributions, shape (n, p + 1).

        Column ``p`` holds the bias (root value); the sum over each row
        equals :meth:`predict` for that row.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        out = np.zeros((len(X), self._n_features + 1), dtype=np.float64)
        out[:, -1] = self._nodes[0].value
        stack = [(0, np.arange(len(X)))]
        while stack:
            index, idx = stack.pop()
            if not len(idx):
                continue
            node = self._nodes[index]
            if node.is_leaf:
                continue
            go_left = X[idx, node.feature] <= node.threshold
            for child_index, child_idx in (
                (node.left, idx[go_left]),
                (node.right, idx[~go_left]),
            ):
                child = self._nodes[child_index]
                out[child_idx, node.feature] += child.value - node.value
                stack.append((child_index, child_idx))
        return out

    def feature_gains(self) -> np.ndarray:
        """Total split gain accumulated per feature."""
        self._check_fitted()
        gains = np.zeros(self._n_features, dtype=np.float64)
        for node in self._nodes:
            if not node.is_leaf:
                gains[node.feature] += node.gain
        return gains

    def leaf_values(self) -> np.ndarray:
        """Values of all leaves (diagnostics / regularisation tests)."""
        self._check_fitted()
        return np.array([n.value for n in self._nodes if n.is_leaf])
