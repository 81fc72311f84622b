"""Common interface for logical-time RCC indexes (paper Section 4.1).

Every index design stores ``(t_start, t_end, id)`` triples — the logical
creation time, logical settled time, and row id of each RCC — and answers
the four Status Query retrieval sets at any logical timestamp ``t*``:

===========  =====================================  ==================
set          definition                             paper equation
===========  =====================================  ==================
active       ``t_start <= t* < t_end``              (3) point query
settled      ``t_end <= t*``                        (4) overlap query
created      ``active ∪ settled`` = start <= t*     (5) union
pending      everything else (start > t*)           (6) difference
===========  =====================================  ==================

All methods return sorted ``int64`` arrays of RCC ids so results are
directly comparable across designs.

The public retrieval methods are concrete: they maintain the uniform
per-operator statistics table (:attr:`op_stats` — calls and rows
returned per retrieval set, identical keys for every backend, enforced
by ``tests/index/test_backend_metrics.py``) and delegate to the
design-specific ``_*_impl`` hooks.  EXPLAIN/ANALYZE reads these stats to
report rows-out per operator without any backend-specific code.
"""

from __future__ import annotations

import abc
import importlib
import sys
from typing import ClassVar

import numpy as np

from repro.errors import ConfigurationError, LengthMismatchError

#: The index designs, by the name the engine and the CLI use (note
#: ``sorted_array`` here vs the class's ``name = "sorted"``), in paper
#: order, as ``(module, class)``: a design's module is imported when an
#: index of it is first built (:func:`design_class`).
DESIGN_CLASSES: dict[str, tuple[str, str]] = {
    "naive": ("repro.index.naive", "NaiveJoinIndex"),
    "avl": ("repro.index.avl_index", "DualAvlIndex"),
    "interval": ("repro.index.interval_index", "IntervalTreeIndex"),
    "sorted_array": ("repro.index.sorted_array", "SortedArrayIndex"),
}


def design_class(design: str) -> type["LogicalTimeIndex"]:
    """The index class of a design named in :data:`DESIGN_CLASSES`."""
    module, name = DESIGN_CLASSES[design]
    return getattr(importlib.import_module(module), name)


#: Retrieval operators every backend answers; the keys of ``op_stats``.
OPERATOR_NAMES = ("settled", "created", "active", "pending")

#: Fields tracked per operator — the shared stat schema across backends.
OPERATOR_STAT_FIELDS = ("calls", "rows_out")

#: Ingest operators every mutable backend counts; keys of ``ingest_stats``.
#: Kept separate from ``op_stats`` so the retrieval schema (pinned by
#: ``tests/index/test_backend_metrics.py``) is untouched by streaming.
INGEST_OPERATOR_NAMES = ("insert", "settle", "revise", "rebuild")

#: Fields tracked per ingest operator, uniform across backends.
INGEST_STAT_FIELDS = ("calls", "rows")


def validate_triples(
    starts: np.ndarray, ends: np.ndarray, ids: np.ndarray
) -> None:
    """Reject rows that settle before they are created.

    Reports *every* offending row with its id — a batch loaded from a
    corrupted extract fails with the full repair list, not a fix-one-
    rerun-find-the-next loop.
    """
    bad = np.flatnonzero(ends < starts)
    if len(bad):
        shown = bad[:20]
        detail = ", ".join(
            f"id {ids[row]} ({ends[row]} < {starts[row]})" for row in shown
        )
        suffix = "" if len(bad) <= len(shown) else f" and {len(bad) - len(shown)} more"
        raise ConfigurationError(
            f"{len(bad)} RCC row(s) where the RCC settles before it is "
            f"created: {detail}{suffix}"
        )


class LogicalTimeIndex(abc.ABC):
    """Abstract base for the three index designs of Section 4.1."""

    #: short name used in benchmark tables ("avl", "interval", "naive").
    name: ClassVar[str] = "abstract"

    #: Whether the design supports in-place incremental ingestion via
    #: :meth:`apply_insert` / :meth:`apply_update`.  The streaming
    #: :class:`~repro.stream.mutable.MutableIndexAdapter` stages a delta
    #: buffer in front of designs that do not.
    supports_incremental_ingest: ClassVar[bool] = False

    def __init__(self, starts: np.ndarray, ends: np.ndarray, ids: np.ndarray):
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        ids = np.asarray(ids, dtype=np.int64)
        if not (len(starts) == len(ends) == len(ids)):
            raise LengthMismatchError(
                f"starts/ends/ids lengths differ: {len(starts)}/{len(ends)}/{len(ids)}"
            )
        validate_triples(starts, ends, ids)
        self._starts = starts
        self._ends = ends
        self._ids = ids
        self.reset_op_stats()
        self._build()

    @abc.abstractmethod
    def _build(self) -> None:
        """Construct the index from the stored triples."""

    # ------------------------------------------------------------------
    # per-operator statistics (uniform across backends)
    # ------------------------------------------------------------------
    def reset_op_stats(self) -> None:
        """Zero the per-operator call/row counters (retrieval + ingest)."""
        self.op_stats: dict[str, dict[str, int]] = {
            op: {field: 0 for field in OPERATOR_STAT_FIELDS}
            for op in OPERATOR_NAMES
        }
        self.ingest_stats: dict[str, dict[str, int]] = {
            op: {field: 0 for field in INGEST_STAT_FIELDS}
            for op in INGEST_OPERATOR_NAMES
        }

    def _record_op(self, op: str, result: np.ndarray) -> np.ndarray:
        stats = self.op_stats[op]
        stats["calls"] += 1
        stats["rows_out"] += len(result)
        return result

    def _record_ingest(self, op: str, rows: int = 1) -> None:
        stats = self.ingest_stats[op]
        stats["calls"] += 1
        stats["rows"] += int(rows)

    # ------------------------------------------------------------------
    # public retrieval surface (counts, then delegates to the design)
    # ------------------------------------------------------------------
    def active_ids(self, t: float) -> np.ndarray:
        """Ids of RCCs active at ``t`` (created, not yet settled)."""
        return self._record_op("active", self._active_ids_impl(t))

    def settled_ids(self, t: float) -> np.ndarray:
        """Ids of RCCs settled by ``t``."""
        return self._record_op("settled", self._settled_ids_impl(t))

    def created_ids(self, t: float) -> np.ndarray:
        """Ids of RCCs created by ``t`` (active ∪ settled)."""
        return self._record_op("created", self._created_ids_impl(t))

    def pending_ids(self, t: float) -> np.ndarray:
        """Ids of RCCs not yet created at ``t``."""
        return self._record_op("pending", self._pending_ids_impl(t))

    def batch_status_buckets(
        self, ts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-aligned status buckets for an ascending timestamp batch.

        The batched retrieval surface behind the columnar executor: one
        call answers *all* timestamps of a sweep.  Returns
        ``(start_buckets, end_buckets)``, both ``int64`` arrays indexed
        by RCC id (= row position), where ``start_buckets[row]`` is the
        index of the first timestamp in ``ts`` at which the row is
        created (``t_start <= ts[b]``) and ``end_buckets[row]`` the
        first at which it is settled; ``len(ts)`` means "not within this
        batch".  Point-query masks fall out as ``buckets == 0`` for a
        single-element ``ts``.

        Requires ids to be a permutation of ``0..n-1`` — the row-position
        contract :class:`~repro.index.status_query.StatusQueryEngine`
        already imposes on injected indexes.  Folds the equivalent
        per-timestamp ``created``/``settled`` calls and rows into
        :attr:`op_stats`, so observability parity with the scalar path
        holds per backend.
        """
        ts = np.asarray(ts, dtype=np.float64)
        n_ts = len(ts)
        start_buckets, end_buckets = self._batch_status_buckets_impl(ts)
        created = self.op_stats["created"]
        settled = self.op_stats["settled"]
        created["calls"] += n_ts
        settled["calls"] += n_ts
        if n_ts:
            # a row with bucket b would appear in (n_ts - b) scalar calls
            created["rows_out"] += int(np.sum(n_ts - start_buckets))
            settled["rows_out"] += int(np.sum(n_ts - end_buckets))
        return start_buckets, end_buckets

    def _batch_status_buckets_impl(
        self, ts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Default batched retrieval over the stored triple arrays.

        ``searchsorted`` of every start/end against the ascending batch,
        scattered into id order.  Designs whose base arrays go stale
        under the structure-only ingest protocol (``sorted_array``)
        override this with their maintained structures; structure-only
        AVL/naive/interval instances are only ever queried through the
        :class:`~repro.stream.mutable.MutableIndexAdapter`, whose base
        arrays are the authoritative triples.
        """
        n = len(self._ids)
        self._check_row_position_ids(self._ids)
        start_buckets = np.empty(n, dtype=np.int64)
        end_buckets = np.empty(n, dtype=np.int64)
        start_buckets[self._ids] = np.searchsorted(ts, self._starts, side="left")
        end_buckets[self._ids] = np.searchsorted(ts, self._ends, side="left")
        return start_buckets, end_buckets

    def event_time_orders(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Build-time ``(argsort by start, argsort by end)``, if retained.

        Designs that already paid the stable event-time argsorts during
        construction expose them here so the columnar executor's frame
        can share the permutations instead of re-sorting — the arrays
        are positions into the build-time triples (the engine's table
        rows) and are immutable after ``_build``, so they stay valid for
        that table regardless of later structure-only mutation.  Default
        ``None``: the frame derives its own orders.
        """
        return None

    @staticmethod
    def _check_row_position_ids(ids: np.ndarray) -> None:
        """Reject batched retrieval when ids are not row positions."""
        n = len(ids)
        if n and (
            ids.min() < 0
            or ids.max() >= n
            or not np.all(np.bincount(ids, minlength=n) == 1)
        ):
            raise ConfigurationError(
                "batched status retrieval requires ids to be a permutation "
                f"of 0..{n - 1} (row positions); use the scalar retrieval "
                "methods for arbitrary ids"
            )

    # ------------------------------------------------------------------
    # design-specific hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _active_ids_impl(self, t: float) -> np.ndarray:
        """Design-specific active-set retrieval."""

    @abc.abstractmethod
    def _settled_ids_impl(self, t: float) -> np.ndarray:
        """Design-specific settled-set retrieval."""

    def _created_ids_impl(self, t: float) -> np.ndarray:
        return np.sort(self._ids[self._starts <= t])

    def _pending_ids_impl(self, t: float) -> np.ndarray:
        return np.sort(self._ids[self._starts > t])

    def __len__(self) -> int:
        return len(self._ids)

    def approx_nbytes(self) -> int:
        """Approximate memory footprint of the index payload in bytes.

        Includes the base triple arrays plus whatever structure the
        concrete design allocates (reported via :meth:`_structure_nbytes`).
        """
        base = int(self._starts.nbytes + self._ends.nbytes + self._ids.nbytes)
        return base + self._structure_nbytes()

    @abc.abstractmethod
    def _structure_nbytes(self) -> int:
        """Bytes used by the design-specific structure."""


def deep_node_nbytes(root: object, child_attrs: tuple[str, ...]) -> int:
    """Sum ``sys.getsizeof`` over a linked node structure iteratively."""
    total = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        total += sys.getsizeof(node)
        values = getattr(node, "values", None)
        if values is not None:
            total += sys.getsizeof(values)
        for attr in child_attrs:
            stack.append(getattr(node, attr))
    return total
