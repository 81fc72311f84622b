"""Incremental index maintenance over every backend: one interface.

:class:`MutableIndexAdapter` is itself a :class:`LogicalTimeIndex`, so
:class:`~repro.index.status_query.StatusQueryEngine` (and therefore the
planner, EXPLAIN and the service layer) consume a live-maintained index
through the exact interface they already speak — injected via the
engine's ``index=`` parameter, zero backend-specific code downstream.

Two maintenance strategies, selected per backend via the
``supports_incremental_ingest`` class flag:

* **incremental** (``avl``, ``sorted_array``): every mutation is applied
  in place through the backend's structure-only ``apply_insert`` /
  ``apply_update`` protocol — O(log n) tree rotations or one O(n)
  memmove splice, never a rebuild.
* **staged** (``naive``, ``interval``): mutations land in a delta buffer
  in front of an immutable inner index.  Queries answer from
  ``inner minus dirty rows`` plus a vectorised scan of the staged rows;
  once the buffer reaches ``rebuild_threshold`` rows the inner index is
  rebuilt from the authoritative triples in one shot, amortising the
  merge cost (the classic LSM/delta-main split).

The adapter owns the authoritative ``(t_start, t_end, id)`` triples in
growable buffers; inner backends are pure query structures whose base
arrays may go stale (documented in their ``apply_*`` sections).
Equivalence with build-from-scratch at every watermark is pinned by
``tests/stream/test_ingest_differential.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError, StreamStateError
from repro.index.base import DESIGN_CLASSES, LogicalTimeIndex, design_class

#: Every design's class, keyed the way the engine/CLI name designs.
_DESIGNS: dict[str, type[LogicalTimeIndex]] = {
    design: design_class(design) for design in DESIGN_CLASSES
}

_MIN_CAPACITY = 64


def default_rebuild_threshold(n_rows: int) -> int:
    """Delta-buffer size that triggers an inner rebuild: ``max(64, √n)``.

    √n balances the O(n) rebuild against per-query staged-scan cost —
    with a √n buffer the amortised per-event rebuild work is O(√n).
    """
    return max(_MIN_CAPACITY, int(math.isqrt(max(n_rows, 0))))


class MutableIndexAdapter(LogicalTimeIndex):
    """A live-maintainable view over any registered index design."""

    name = "mutable"

    def __init__(
        self,
        design: str,
        starts: np.ndarray,
        ends: np.ndarray,
        ids: np.ndarray,
        rebuild_threshold: int | None = None,
    ):
        if design not in _DESIGNS:
            raise ConfigurationError(
                f"unknown index design {design!r}; expected one of {sorted(_DESIGNS)}"
            )
        # Set before super().__init__ — _build() runs inside it.
        self.design = design
        self._inner_cls = _DESIGNS[design]
        self._rebuild_threshold = rebuild_threshold
        #: Watermark (WAL seq) this index reflects; stamped by the ingestor.
        self.watermark: int | None = None
        #: Inner rebuilds performed (staged strategy only).
        self.rebuilds = 0
        super().__init__(starts, ends, ids)

    # ------------------------------------------------------------------
    # storage: growable buffers the base-class views alias into
    # ------------------------------------------------------------------
    def _build(self) -> None:
        n = len(self._ids)
        capacity = max(_MIN_CAPACITY, 2 * n)
        self._n = n
        self._buf_starts = np.empty(capacity, dtype=np.float64)
        self._buf_ends = np.empty(capacity, dtype=np.float64)
        self._buf_ids = np.empty(capacity, dtype=np.int64)
        self._buf_starts[:n] = self._starts
        self._buf_ends[:n] = self._ends
        self._buf_ids[:n] = self._ids
        self._pos = {int(rcc_id): row for row, rcc_id in enumerate(self._ids)}
        self._incremental = self._inner_cls.supports_incremental_ingest
        if self._rebuild_threshold is None:
            self._rebuild_threshold = default_rebuild_threshold(n)
        # rows (buffer positions) staged since the last inner rebuild
        self._staged_rows: list[int] = []
        # ids whose inner entry is stale (staged inserts + mutated rows)
        self._dirty: set[int] = set()
        self._refresh_views()
        self._rebuild_inner()

    def _refresh_views(self) -> None:
        n = self._n
        self._starts = self._buf_starts[:n]
        self._ends = self._buf_ends[:n]
        self._ids = self._buf_ids[:n]

    def _grow(self) -> None:
        capacity = max(_MIN_CAPACITY, 2 * len(self._buf_ids))
        for attr in ("_buf_starts", "_buf_ends", "_buf_ids"):
            old = getattr(self, attr)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[: self._n] = old[: self._n]
            setattr(self, attr, fresh)

    def _rebuild_inner(self) -> None:
        """Construct the inner backend from the authoritative triples."""
        self._inner: LogicalTimeIndex = self._inner_cls(
            self._buf_starts[: self._n].copy(),
            self._buf_ends[: self._n].copy(),
            self._buf_ids[: self._n].copy(),
        )
        self._staged_rows = []
        self._dirty = set()

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the current authoritative ``(starts, ends, ids)``."""
        return (
            self._buf_starts[: self._n].copy(),
            self._buf_ends[: self._n].copy(),
            self._buf_ids[: self._n].copy(),
        )

    # ------------------------------------------------------------------
    # mutation surface (called by the ingestor)
    # ------------------------------------------------------------------
    def insert(self, t_start: float, t_end: float, rcc_id: int) -> None:
        """Add one interval (``t_end`` may be the UNSETTLED sentinel)."""
        t_start, t_end, rcc_id = float(t_start), float(t_end), int(rcc_id)
        if t_end < t_start:
            raise ConfigurationError(
                f"RCC {rcc_id} would settle before it is created "
                f"({t_end} < {t_start})"
            )
        if rcc_id in self._pos:
            raise StreamStateError(f"index already holds RCC id {rcc_id}")
        if self._n == len(self._buf_ids):
            self._grow()
        row = self._n
        self._buf_starts[row] = t_start
        self._buf_ends[row] = t_end
        self._buf_ids[row] = rcc_id
        self._n += 1
        self._pos[rcc_id] = row
        self._refresh_views()
        if self._incremental:
            self._inner.apply_insert(t_start, t_end, rcc_id)
        else:
            self._staged_rows.append(row)
            self._dirty.add(rcc_id)
            self._record_ingest("insert")
            self._maybe_rebuild()

    def insert_batch(
        self, starts: np.ndarray, ends: np.ndarray, rcc_ids: np.ndarray
    ) -> None:
        """Add many intervals in one pass (same semantics as ``insert``).

        The authoritative buffers grow once, then the inner structure is
        maintained by the cheapest route the backend offers: one merged
        splice for ``sorted_array`` (:meth:`apply_insert_batch`), per-row
        O(log n) tree inserts for ``avl``, and a single staged-buffer
        extension with *one* threshold check for the rebuild designs.
        Equivalence with the per-event path is pinned by the streaming
        differential suite.
        """
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        rcc_ids = np.asarray(rcc_ids, dtype=np.int64)
        k = len(rcc_ids)
        if not (len(starts) == len(ends) == k):
            raise ConfigurationError(
                f"insert_batch lengths differ: {len(starts)}/{len(ends)}/{k}"
            )
        if k == 0:
            return
        bad = np.flatnonzero(ends < starts)
        if len(bad):
            row = int(bad[0])
            raise ConfigurationError(
                f"RCC {rcc_ids[row]} would settle before it is created "
                f"({ends[row]} < {starts[row]})"
            )
        unique_ids = set(int(i) for i in rcc_ids)
        if len(unique_ids) != k:
            raise StreamStateError("insert_batch has duplicate RCC ids")
        held = unique_ids & self._pos.keys()
        if held:
            raise StreamStateError(
                f"index already holds RCC id {min(held)}"
            )
        while self._n + k > len(self._buf_ids):
            self._grow()
        row0 = self._n
        self._buf_starts[row0 : row0 + k] = starts
        self._buf_ends[row0 : row0 + k] = ends
        self._buf_ids[row0 : row0 + k] = rcc_ids
        self._n += k
        for offset, rcc_id in enumerate(rcc_ids):
            self._pos[int(rcc_id)] = row0 + offset
        self._refresh_views()
        if self._incremental:
            batch_apply = getattr(self._inner, "apply_insert_batch", None)
            if batch_apply is not None:
                batch_apply(starts, ends, rcc_ids)
            else:
                for offset in range(k):
                    self._inner.apply_insert(
                        float(starts[offset]),
                        float(ends[offset]),
                        int(rcc_ids[offset]),
                    )
        else:
            self._staged_rows.extend(range(row0, row0 + k))
            self._dirty.update(unique_ids)
            self._record_ingest("insert", rows=k)
            self._maybe_rebuild()

    def settle(self, rcc_id: int, t_end: float) -> None:
        """Move one interval's end (typically sentinel → settled time)."""
        self._update(int(rcc_id), new_end=float(t_end))

    def update_interval(self, rcc_id: int, t_start: float, t_end: float) -> None:
        """Re-key one interval on both sides (avail_extended rescale)."""
        self._update(int(rcc_id), new_start=float(t_start), new_end=float(t_end))

    def _update(
        self,
        rcc_id: int,
        new_start: float | None = None,
        new_end: float | None = None,
    ) -> None:
        row = self._pos.get(rcc_id)
        if row is None:
            raise StreamStateError(f"index has no RCC id {rcc_id}")
        old_start = float(self._buf_starts[row])
        old_end = float(self._buf_ends[row])
        t_start = old_start if new_start is None else new_start
        t_end = old_end if new_end is None else new_end
        if t_end < t_start:
            raise ConfigurationError(
                f"RCC {rcc_id} would settle before it is created "
                f"({t_end} < {t_start})"
            )
        if t_start == old_start and t_end == old_end:
            return
        self._buf_starts[row] = t_start
        self._buf_ends[row] = t_end
        if self._incremental:
            self._inner.apply_update(rcc_id, old_start, old_end, t_start, t_end)
        else:
            if rcc_id not in self._dirty:
                self._staged_rows.append(row)
                self._dirty.add(rcc_id)
            self._record_ingest("settle" if t_start == old_start else "revise")
            self._maybe_rebuild()

    def _maybe_rebuild(self) -> None:
        if len(self._staged_rows) >= self._rebuild_threshold:
            self._rebuild_inner()
            self.rebuilds += 1
            self._record_ingest("rebuild", rows=self._n)

    # ------------------------------------------------------------------
    # retrieval: inner minus dirty, plus a vector scan of staged rows
    # ------------------------------------------------------------------
    def _merged(self, op: str, t: float) -> np.ndarray:
        if self._incremental or not self._staged_rows:
            return getattr(self._inner, f"_{op}_ids_impl")(t)
        base = getattr(self._inner, f"_{op}_ids_impl")(t)
        dirty = np.fromiter(self._dirty, dtype=np.int64, count=len(self._dirty))
        base = base[~np.isin(base, dirty)]
        rows = np.asarray(self._staged_rows, dtype=np.int64)
        starts = self._buf_starts[rows]
        ends = self._buf_ends[rows]
        if op == "settled":
            mask = ends <= t
        elif op == "created":
            mask = starts <= t
        elif op == "active":
            mask = (starts <= t) & (t < ends)
        else:  # pending
            mask = starts > t
        staged = self._buf_ids[rows[mask]]
        return np.sort(np.concatenate([base, staged]))

    def _settled_ids_impl(self, t: float) -> np.ndarray:
        return self._merged("settled", t)

    def _created_ids_impl(self, t: float) -> np.ndarray:
        return self._merged("created", t)

    def _active_ids_impl(self, t: float) -> np.ndarray:
        return self._merged("active", t)

    def _pending_ids_impl(self, t: float) -> np.ndarray:
        return self._merged("pending", t)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def staged_count(self) -> int:
        return len(self._staged_rows)

    @property
    def rebuild_threshold(self) -> int:
        return int(self._rebuild_threshold)

    def combined_ingest_stats(self) -> dict[str, dict[str, int]]:
        """Adapter + inner ingest counters, summed per operator."""
        merged = {
            op: dict(stats) for op, stats in self.ingest_stats.items()
        }
        for op, stats in self._inner.ingest_stats.items():
            for field, value in stats.items():
                merged[op][field] += value
        return merged

    def _structure_nbytes(self) -> int:
        staged = len(self._staged_rows) * 8 + len(self._dirty) * 8
        return int(self._inner.approx_nbytes()) + staged
