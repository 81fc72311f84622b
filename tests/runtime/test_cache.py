"""ArtifactCache LRU semantics and content fingerprinting."""

import numpy as np
import pytest

from repro.runtime import (
    ArtifactCache,
    MetricsSink,
    fingerprint_array,
    fingerprint_bytes,
    fingerprint_of,
)


class TestFingerprints:
    def test_bytes_digest_is_stable_and_length_prefixed(self):
        assert fingerprint_bytes(b"ab", b"c") == fingerprint_bytes(b"ab", b"c")
        # chunk boundaries matter: ("ab","c") != ("a","bc")
        assert fingerprint_bytes(b"ab", b"c") != fingerprint_bytes(b"a", b"bc")

    def test_array_fingerprint_sensitive_to_content_dtype_shape(self):
        a = np.arange(6, dtype=np.int64)
        assert fingerprint_array(a) == fingerprint_array(a.copy())
        assert fingerprint_array(a) != fingerprint_array(a.astype(np.float64))
        assert fingerprint_array(a) != fingerprint_array(a.reshape(2, 3))
        b = a.copy()
        b[0] = 99
        assert fingerprint_array(a) != fingerprint_array(b)

    def test_object_arrays_hash_by_string_values(self):
        strings = np.array(["G", "N", "NG"], dtype=object)
        assert fingerprint_array(strings) == fingerprint_array(strings.copy())
        other = np.array(["G", "N", "X"], dtype=object)
        assert fingerprint_array(strings) != fingerprint_array(other)

    def test_non_contiguous_view_equals_contiguous_copy(self):
        base = np.arange(20).reshape(4, 5)
        view = base[:, ::2]
        assert fingerprint_array(view) == fingerprint_array(view.copy())

    def test_fingerprint_of_mixes_part_types(self):
        key = fingerprint_of("grid", 3, np.arange(4))
        assert key == fingerprint_of("grid", 3, np.arange(4))
        assert key != fingerprint_of("grid", 4, np.arange(4))
        assert key != fingerprint_of("grid", 3, np.arange(5))


def per_cell_fingerprint(array: np.ndarray) -> str:
    """``fingerprint_array`` of an object array, one ``str`` per cell (the
    join it replaced, verbatim)."""
    payload = "\x1f".join(str(v) for v in array.ravel()).encode()
    return fingerprint_bytes(
        str(array.dtype).encode(), str(array.shape).encode(), payload
    )


class TestObjectColumnJoin:
    """Object columns are joined from one ``tolist()``: same bytes as
    ``str`` of every cell."""

    @pytest.mark.parametrize(
        "values",
        [
            ["G", "N", "NG", "111-11-001"],
            [None, None],
            [float("nan"), 1.5, -0.0, float("inf")],
            [1, -2, 10**30],
            ["a", None, float("nan"), 3, 2.5, True, b"x", ("t", 1)],
            ["with\x1fseparator", "\x1f", ""],
            ["naïve", "日本語", "emoji 🚢", "Ω"],
            [],
        ],
        ids=["str", "none", "nan", "int", "mixed", "separator", "non-ascii", "empty"],
    )
    def test_matches_the_per_cell_join(self, values):
        array = np.empty(len(values), dtype=object)
        array[:] = values
        assert fingerprint_array(array) == per_cell_fingerprint(array)

    def test_two_dimensional_and_numpy_scalar_cells(self):
        array = np.empty((2, 3), dtype=object)
        array[:] = [
            [np.float64(0.1), np.int64(7), np.str_("x")],
            [np.float32(0.1), None, "y"],
        ]
        assert fingerprint_array(array) == per_cell_fingerprint(array)
        assert fingerprint_array(array.T) == per_cell_fingerprint(array.T)

    def test_paper_scale_rcc_columns(self, full_dataset):
        for name in ("rcc_type", "swlin", "status"):
            column = np.asarray(full_dataset.rccs[name])
            assert column.dtype == object
            assert fingerprint_array(column) == per_cell_fingerprint(column)


class TestArtifactCache:
    def test_get_or_build_builds_once(self):
        cache = ArtifactCache()
        calls = []

        def build():
            calls.append(1)
            return "tensor"

        assert cache.get_or_build("k", build) == "tensor"
        assert cache.get_or_build("k", build) == "tensor"
        assert len(calls) == 1

    def test_lru_eviction_drops_oldest(self):
        cache = ArtifactCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert len(cache) == 2

    def test_metrics_counters(self):
        sink = MetricsSink()
        cache = ArtifactCache(max_entries=1, metrics=sink)
        cache.get_or_build("a", lambda: 1)  # miss
        cache.get_or_build("a", lambda: 1)  # hit
        cache.get_or_build("b", lambda: 2)  # miss + eviction of a
        assert sink.counter_value("cache.hits") == 1
        assert sink.counter_value("cache.misses") == 2
        assert sink.counter_value("cache.evictions") == 1

    def test_get_default_and_clear(self):
        cache = ArtifactCache()
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42
        cache.put("k", 1)
        cache.clear()
        assert len(cache) == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_entries=0)


class TestExtractionCaching:
    def test_extractor_reuses_tensor_for_same_inputs(self, small_dataset):
        from repro.features.transform import StatusFeatureExtractor
        from repro.runtime import ExecutionContext

        context = ExecutionContext()
        t_stars = [0.0, 50.0, 100.0]
        first = StatusFeatureExtractor(
            small_dataset, t_stars, context=context
        ).extract()
        second = StatusFeatureExtractor(
            small_dataset, t_stars, context=context
        ).extract()
        assert second is first
        assert context.metrics.counter_value("cache.hits") == 1

    def test_different_timeline_misses(self, small_dataset):
        from repro.features.transform import StatusFeatureExtractor
        from repro.runtime import ExecutionContext

        context = ExecutionContext()
        first = StatusFeatureExtractor(
            small_dataset, [0.0, 100.0], context=context
        ).extract()
        other = StatusFeatureExtractor(
            small_dataset, [0.0, 50.0, 100.0], context=context
        ).extract()
        assert other is not first
        assert context.metrics.counter_value("cache.misses") == 2
