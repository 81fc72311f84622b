"""The presorted split search grows the trees of the per-node float argsort.

:class:`~repro.ml.tree.RegressionTree` sorts each design column once
(:func:`~repro.ml.tree.sort_columns`) and every node then sorts integer
keys.  :mod:`tests.ml.tree_oracle` keeps the builder it replaced, which
argsorts each node's float values.  Every node field must be bitwise
equal between the two, and so must exceptions and warnings, over
columns with ties, NaN, infinities, signed zeros and adjacent floats,
on both sides of the 255/256-row switch of the key dtype, and under row
and column subsampling.
"""

from __future__ import annotations

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import GbmParams, GradientBoostedTrees, RegressionTree, TreeParams
from repro.ml.tree import sort_columns
from tests.ml.tree_oracle import OracleTree, oracle_builder

_FIELDS = ("value", "n_samples", "cover", "feature", "threshold", "gain", "left", "right")

COLUMN_KINDS = (
    "normal",
    "ties",
    "nan",
    "all_nan",
    "inf",
    "signed_zero",
    "adjacent",
    "constant",
)


def make_column(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "ties":
        return rng.integers(0, 4, n).astype(np.float64)
    if kind == "nan":
        column = rng.integers(0, 5, n).astype(np.float64)
        column[rng.random(n) < 0.3] = np.nan
        return column
    if kind == "all_nan":
        return np.full(n, np.nan)
    if kind == "inf":
        return rng.choice([-np.inf, -1.0, 0.0, 2.5, np.inf], n)
    if kind == "signed_zero":
        return rng.choice([-0.0, 0.0, 1.0, -1.0], n)
    if kind == "adjacent":
        base = rng.normal()
        up = np.nextafter(base, np.inf)
        return rng.choice([base, up, np.nextafter(up, np.inf)], n)
    assert kind == "constant"
    return np.full(n, rng.normal())


def node_bits(tree: RegressionTree) -> list[tuple]:
    """Every node field; floats as their IEEE-754 bytes."""
    return [
        tuple(
            struct.pack("<d", value) if type(value) is float else value
            for value in (getattr(node, name) for name in _FIELDS)
        )
        for node in tree._nodes
    ]


def grow(tree_cls, params: TreeParams, X, g, h, features):
    """(node bits or the exception's type, warning messages) of one fit."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = node_bits(tree_cls(params).fit(X, g, h, features))
        except Exception as exc:  # compared with the oracle's
            outcome = type(exc)
    return outcome, sorted(str(w.message) for w in caught)


@st.composite
def split_problems(draw):
    n = draw(st.one_of(st.integers(1, 40), st.sampled_from([254, 255, 256, 257])))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([make_column(kind, n, rng) for kind in kinds])
    g = rng.normal(size=n) * draw(st.sampled_from([1.0, 30.0]))
    h = draw(st.sampled_from(["ones", "uniform", "with_zeros"]))
    if h == "ones":
        h = np.ones(n)
    elif h == "uniform":
        h = rng.uniform(0.0, 2.0, n)
    else:  # rows a subsample left out carry zero gradient and hessian
        left_out = rng.random(n) < 0.3
        g[left_out] = 0.0
        h = np.where(left_out, 0.0, 1.0)
    features = None
    if draw(st.booleans()):
        size = draw(st.integers(1, len(kinds)))
        features = np.sort(rng.choice(len(kinds), size=size, replace=False))
    params = TreeParams(
        max_depth=draw(st.integers(1, 4)),
        min_samples_leaf=draw(st.integers(1, 5)),
        min_child_weight=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        reg_lambda=draw(st.sampled_from([0.0, 0.1, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.05, 2.0])),
    )
    return params, X, g, h, features


class TestTreeDifferential:
    @given(split_problems())
    @settings(max_examples=300, deadline=None)
    def test_every_node_field_is_bitwise_equal(self, problem):
        params, X, g, h, features = problem
        assert grow(RegressionTree, params, X, g, h, features) == grow(
            OracleTree, params, X, g, h, features
        )

    @pytest.mark.parametrize("n", [255, 256])
    def test_both_sides_of_the_key_dtype_switch(self, n):
        rng = np.random.default_rng(n)
        kinds = ("normal", "ties", "nan", "all_nan", "inf", "signed_zero", "adjacent")
        X = np.column_stack([make_column(kind, n, rng) for kind in kinds])
        g, h = rng.normal(size=n), np.ones(n)
        params = TreeParams(max_depth=4, min_samples_leaf=1)
        new, new_warnings = grow(RegressionTree, params, X, g, h, None)
        assert len(new) > 1
        assert (new, new_warnings) == grow(OracleTree, params, X, g, h, None)

    def test_an_ensembles_columns_give_the_same_tree(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([make_column(kind, 60, rng) for kind in COLUMN_KINDS])
        g, h = rng.normal(size=60), np.ones(60)
        alone = RegressionTree().fit(X, g, h)
        shared = RegressionTree().fit(X, g, h, columns=sort_columns(X))
        assert node_bits(shared) == node_bits(alone)


class TestSortColumns:
    @pytest.mark.parametrize(
        "n, dtype", [(1, np.uint8), (98, np.uint16), (255, np.uint16), (256, np.uint32)]
    )
    def test_keys_take_the_smallest_unsigned_dtype(self, n, dtype):
        X = np.arange(n, dtype=np.float64)[:, None]
        X[-1] = np.nan
        columns = sort_columns(X)
        assert columns.keys.dtype == dtype and columns.root.dtype == dtype

    def test_root_keys_hold_the_stable_order_and_the_ranks(self):
        X = np.array([[2.0, np.nan], [-0.0, 1.0], [np.nan, 1.0], [0.0, -np.inf], [2.0, np.nan]])
        columns = sort_columns(X)
        order = columns.root & columns.position_mask
        np.testing.assert_array_equal(order, np.argsort(X, axis=0, kind="stable"))
        ranks = columns.keys >> columns.shift
        np.testing.assert_array_equal(ranks[:, 0], [1, 0, 5, 0, 1])  # -0.0 ties 0.0
        np.testing.assert_array_equal(ranks[:, 1], [5, 1, 1, 0, 5])  # every NaN on top
        assert columns.nan_key == 5 << columns.shift


@st.composite
def ensemble_problems(draw):
    n = draw(st.integers(8, 60))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([make_column(kind, n, rng) for kind in kinds])
    y = rng.normal(size=n) * 10.0
    params = GbmParams(
        n_estimators=draw(st.integers(1, 8)),
        max_depth=draw(st.integers(1, 4)),
        min_samples_leaf=draw(st.integers(1, 5)),
        min_child_weight=draw(st.sampled_from([0.0, 1.0])),
        reg_lambda=draw(st.sampled_from([0.0, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.5])),
        subsample=draw(st.sampled_from([0.5, 0.8, 1.0])),
        colsample=draw(st.sampled_from([0.4, 1.0])),
        loss=draw(st.sampled_from(["l2", "pseudo_huber", "l1"])),
        random_state=draw(st.integers(0, 5)),
    )
    return params, X, y


def fit_bits(params: GbmParams, X, y):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            model = GradientBoostedTrees(params).fit(X, y)
            outcome = [node_bits(tree) for tree in model._trees]
        except Exception as exc:  # compared with the oracle's
            outcome = type(exc)
    return outcome, sorted(str(w.message) for w in caught)


class TestEnsembleDifferential:
    @given(ensemble_problems())
    @settings(max_examples=60, deadline=None)
    def test_every_tree_is_bitwise_equal(self, problem):
        params, X, y = problem
        new = fit_bits(params, X, y)
        with oracle_builder():
            assert new == fit_bits(params, X, y)


class TestOneFloatArgsortPerEnsemble:
    def test_an_ensemble_fit_argsorts_floats_once(self, monkeypatch):
        rng = np.random.default_rng(1)
        X, y = rng.normal(size=(98, 12)), rng.normal(size=98)
        calls: list[np.dtype] = []
        argsort = np.argsort

        def counting(a, *args, **kwargs):
            calls.append(np.asarray(a).dtype)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        model = GradientBoostedTrees(GbmParams(n_estimators=25, subsample=0.8)).fit(X, y)
        assert sum(tree.n_nodes for tree in model._trees) > 25 * 3
        assert calls == [np.dtype(np.float64)]
