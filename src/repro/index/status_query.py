"""Status Query processing (paper Sections 3.1 and 4.2-4.3).

A *Status Query* is the generic retrieval task behind all RCC feature
engineering: at logical time ``t*``, group RCCs by type and SWLIN level,
partition each group into created / settled / active status sets, and
aggregate amounts and durations.

This module implements:

* :class:`StatusQuery` — the query specification (Figure 3).
* :class:`StatusQueryEngine` — Algorithm StatusQ: group-by resolution via
  the RCC-type tree and SWLIN tree, then per-``t*`` retrieval through a
  pluggable logical-time index design (naive / avl / interval).
* :class:`StatStructure` — the incremental accumulator of Section 4.3
  that advances from one logical timestamp to the next touching only the
  delta events, instead of recomputing from scratch.

Both execution paths produce numerically identical aggregate tables,
which the test-suite asserts.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import ConfigurationError, SchemaError
from repro.index.base import DESIGN_CLASSES, LogicalTimeIndex, design_class
from repro.index.columnar import (
    SWEEP_CHUNK_SIZE,
    ColumnarRccFrame,
    ColumnarSweepState,
    derived_aggregate_columns,
    fused_point_aggregates,
    safe_divide,
)
from repro.index.hierarchy import RccTypeTree, SwlinTree
from repro.runtime import (
    ExecutionContext,
    WorkloadSpec,
    check_deadline,
    ensure_context,
)
from repro.table.table import ColumnTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.explain import OperatorRecorder

#: Columns the engine requires on the RCC table.
REQUIRED_RCC_COLUMNS = ("rcc_type", "swlin", "t_start", "t_end", "amount")

#: Aggregate columns produced for every group row.
AGGREGATE_COLUMNS = (
    "n_created",
    "n_settled",
    "n_active",
    "amt_created_sum",
    "amt_settled_sum",
    "amt_settled_avg",
    "amt_active_sum",
    "dur_settled_sum",
    "dur_settled_avg",
    "pct_active",
)

@dataclass(frozen=True)
class StatusQuery:
    """Specification of a Status Query (Figure 3 of the paper).

    Attributes
    ----------
    t_star:
        Logical timestamp (percent of planned duration; may exceed 100
        for overrunning avails).
    group_by_type:
        Whether to group by RCC type (G / N / NG).
    swlin_level:
        SWLIN hierarchy level to group by (1..4), or None for no SWLIN
        grouping.
    """

    t_star: float
    group_by_type: bool = True
    swlin_level: int | None = 1

    def __post_init__(self) -> None:
        if self.swlin_level is not None and not 1 <= self.swlin_level <= 4:
            raise ConfigurationError(f"swlin_level must be 1..4, got {self.swlin_level}")


#: Execution strategies of :class:`StatusQueryEngine`: ``"columnar"``
#: (fused batched kernels over the SoA frame — the default) and
#: ``"scalar"`` (the original per-set Algorithm-StatusQ path, kept as
#: the differential-testing reference).  Both produce byte-identical
#: aggregate tables.
EXECUTORS = ("columnar", "scalar")

# Zero-count division sentinel, shared with the columnar kernels so both
# executors emit identical averages for empty groups.
_safe_div = safe_divide


class StatStructure:
    """Incremental per-group Status Query state (Section 4.3).

    Holds running created/settled accumulators per group and advances
    monotonically over the logical timeline; between two consecutive
    timestamps only the events in ``(prev, t]`` are touched.
    """

    def __init__(
        self,
        group_ids: np.ndarray,
        n_groups: int,
        starts: np.ndarray,
        ends: np.ndarray,
        amounts: np.ndarray,
    ):
        self._group_ids = group_ids
        self._n_groups = n_groups
        self._starts = starts
        self._ends = ends
        self._amounts = amounts
        self._durations = ends - starts
        self._order_by_start = np.argsort(starts, kind="stable")
        self._order_by_end = np.argsort(ends, kind="stable")
        self._sorted_starts = starts[self._order_by_start]
        self._sorted_ends = ends[self._order_by_end]
        self.reset()

    def reset(self) -> None:
        """Rewind to before the first event."""
        n = self._n_groups
        self.t = float("-inf")
        self._ptr_start = 0
        self._ptr_end = 0
        self.created_count = np.zeros(n, dtype=np.int64)
        self.created_amount = np.zeros(n, dtype=np.float64)
        self.settled_count = np.zeros(n, dtype=np.int64)
        self.settled_amount = np.zeros(n, dtype=np.float64)
        self.settled_duration = np.zeros(n, dtype=np.float64)
        # Sums of creation times — used to derive the mean age of the
        # active set without enumerating it (feature engineering).
        self.created_start_sum = np.zeros(n, dtype=np.float64)
        self.settled_start_sum = np.zeros(n, dtype=np.float64)

    def advance(self, t: float) -> int:
        """Advance state to logical time ``t`` (monotone, inclusive).

        Returns the number of delta events applied.
        """
        if t < self.t:
            raise ConfigurationError(
                f"StatStructure can only move forward (at {self.t}, asked {t})"
            )
        new_start_ptr = int(np.searchsorted(self._sorted_starts, t, side="right"))
        new_end_ptr = int(np.searchsorted(self._sorted_ends, t, side="right"))
        delta = 0
        if new_start_ptr > self._ptr_start:
            rows = self._order_by_start[self._ptr_start : new_start_ptr]
            groups = self._group_ids[rows]
            self.created_count += np.bincount(groups, minlength=self._n_groups)
            self.created_amount += np.bincount(
                groups, weights=self._amounts[rows], minlength=self._n_groups
            )
            self.created_start_sum += np.bincount(
                groups, weights=self._starts[rows], minlength=self._n_groups
            )
            delta += len(rows)
            self._ptr_start = new_start_ptr
        if new_end_ptr > self._ptr_end:
            rows = self._order_by_end[self._ptr_end : new_end_ptr]
            groups = self._group_ids[rows]
            self.settled_count += np.bincount(groups, minlength=self._n_groups)
            self.settled_amount += np.bincount(
                groups, weights=self._amounts[rows], minlength=self._n_groups
            )
            self.settled_duration += np.bincount(
                groups, weights=self._durations[rows], minlength=self._n_groups
            )
            self.settled_start_sum += np.bincount(
                groups, weights=self._starts[rows], minlength=self._n_groups
            )
            delta += len(rows)
            self._ptr_end = new_end_ptr
        self.t = t
        return delta

    def aggregates(self) -> dict[str, np.ndarray]:
        """Current aggregate columns (all float64), one entry per group.

        The internal accumulators stay int64/float64 as allocated (the
        feature extractor reads them directly); only the derived output
        columns are float64, produced by the same shared helper the
        columnar kernels use so both executors agree byte for byte.
        """
        return derived_aggregate_columns(
            self.created_count,
            self.created_amount,
            self.settled_count,
            self.settled_amount,
            self.settled_duration,
        )


class StatusQueryEngine:
    """Algorithm StatusQ over a pluggable logical-time index design.

    Parameters
    ----------
    rccs:
        RCC table with columns ``rcc_type, swlin, t_start, t_end, amount``
        (logical times).  Extra columns — e.g. ``avail_id`` — may be
        named in ``extra_group_keys`` to extend the grouping.
    design:
        ``"naive"``, ``"avl"``, ``"interval"`` or ``"sorted_array"``
        (Section 4.1 plus the repository's vectorised ablation), or
        ``"auto"`` to let the context's cost-based
        :class:`~repro.runtime.planner.QueryPlanner` choose from the
        workload shape.
    avails:
        Optional avail table; when provided together with the naive
        design, every query re-joins it against the RCC table, matching
        the pandas-merge baseline's cost profile.
    extra_group_keys:
        Additional RCC columns prepended to the group key.
    context:
        Optional :class:`~repro.runtime.ExecutionContext`; supplies the
        planner for ``design="auto"`` and receives spans/counters.
    workload:
        Workload shape hint for the planner (defaults to a full
        timeline sweep over this RCC table).
    index:
        Pre-built logical-time index to serve queries from instead of
        building one from the table — the streaming path injects its
        incrementally maintained
        :class:`~repro.stream.mutable.MutableIndexAdapter` here so the
        engine (and everything above it) stays backend-agnostic.  The
        index must cover exactly the table's rows, by row position.
    """

    def __init__(
        self,
        rccs: ColumnTable,
        design: str = "avl",
        avails: ColumnTable | None = None,
        extra_group_keys: tuple[str, ...] = (),
        context: ExecutionContext | None = None,
        workload: WorkloadSpec | None = None,
        index: LogicalTimeIndex | None = None,
        executor: str = "columnar",
    ):
        missing = [c for c in REQUIRED_RCC_COLUMNS if c not in rccs]
        if missing:
            raise SchemaError(f"RCC table missing columns: {missing}")
        if executor not in EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.context = ensure_context(context)
        telemetry = self.context.metrics.telemetry
        if index is not None:
            if len(index) != rccs.n_rows:
                raise ConfigurationError(
                    f"injected index covers {len(index)} rows but the RCC "
                    f"table has {rccs.n_rows}"
                )
            design = getattr(index, "design", index.name)
        if design == "auto":
            spec = workload or WorkloadSpec(
                n_rccs=rccs.n_rows, n_timestamps=11, mode="sweep"
            )
            decision = self.context.planner.plan(spec)
            design = decision.backend
            self.plan_decision = decision
            self.context.counter(f"planner.chosen.{design}")
            if telemetry is not None:
                telemetry.emit("planner_decision", **decision.as_dict())
                # The decision's modelled cost, histogrammed next to the
                # realized per-backend query latencies for comparison.
                telemetry.observe(
                    f"planner.estimate.{design}",
                    decision.estimated_seconds.get(design, 0.0),
                )
        else:
            self.plan_decision = None
        if index is None and design not in DESIGN_CLASSES:
            raise ConfigurationError(
                f"unknown index design {design!r}; expected one of "
                f"{sorted(DESIGN_CLASSES)} or 'auto'"
            )
        self._rccs = rccs
        self._design = design
        self._avails = avails
        self._extra_group_keys = tuple(extra_group_keys)
        self._starts = np.asarray(rccs["t_start"], dtype=np.float64)
        self._ends = np.asarray(rccs["t_end"], dtype=np.float64)
        self._amounts = np.asarray(rccs["amount"], dtype=np.float64)
        # Group-by hierarchies (Algorithm StatusQ inputs) — built lazily;
        # the vectorised group-assignment path below doesn't need the
        # tries, only explicit subtree retrieval does.
        self._swlin_tree: SwlinTree | None = None
        self._type_tree: RccTypeTree | None = None
        # Logical-time index over row positions.
        self.context.counter(f"index.backend.{design}")
        if index is not None:
            # Streaming injection: the adapter is already built and
            # incrementally maintained; no build span is paid here.
            self.index: LogicalTimeIndex = index
        else:
            rows = np.arange(rccs.n_rows, dtype=np.int64)
            with self.context.span(f"index.build.{design}"):
                self.index = design_class(design)(self._starts, self._ends, rows)
        self._executor = executor
        # Struct-of-arrays frame behind the columnar executor: owns the
        # contiguous numeric columns, shared event-time sort orders and
        # the pre-resolved group-code cache.
        self._frame = ColumnarRccFrame(rccs, self._extra_group_keys)
        # Engine-built indexes already paid the stable event-time
        # argsorts during construction; share them so columnar sweep
        # setup skips two O(n log n) re-sorts.  (Injected adapters
        # return None — the frame derives its own orders lazily.)
        if index is None:
            orders = self.index.event_time_orders()
            if orders is not None:
                self._frame.seed_event_time_orders(*orders)
        self._group_cache: dict[tuple[bool, int | None], tuple[np.ndarray, ColumnTable]] = {}
        self._stat_cache: dict[tuple[bool, int | None], StatStructure] = {}
        self._sweep_states: dict[tuple[bool, int | None], ColumnarSweepState] = {}
        # EXPLAIN/ANALYZE capture hook; None on the (default) fast path,
        # where every stage pays exactly one `is None` check.
        self._recorder: "OperatorRecorder | None" = None

    @contextmanager
    def recording(self, recorder: "OperatorRecorder") -> Iterator["OperatorRecorder"]:
        """Attach an EXPLAIN operator recorder for the duration.

        Used by :func:`repro.runtime.explain.explain_point` /
        :func:`~repro.runtime.explain.explain_sweep`; recordings do not
        nest (the innermost recorder wins and is restored on exit).
        """
        previous = self._recorder
        self._recorder = recorder
        try:
            yield recorder
        finally:
            self._recorder = previous

    @property
    def design(self) -> str:
        """The resolved index design name (after any planning)."""
        return self._design

    @property
    def swlin_tree(self) -> SwlinTree:
        """SWLIN trie over the RCC table (built on first access)."""
        if self._swlin_tree is None:
            self._swlin_tree = SwlinTree(self._rccs["swlin"])
        return self._swlin_tree

    @property
    def type_tree(self) -> RccTypeTree:
        """RCC-type hierarchy over the RCC table (built on first access)."""
        if self._type_tree is None:
            self._type_tree = RccTypeTree(self._rccs["rcc_type"])
        return self._type_tree

    # ------------------------------------------------------------------
    # grouping
    # ------------------------------------------------------------------
    def _group_assignment(self, query: StatusQuery) -> tuple[np.ndarray, ColumnTable]:
        """(group id per RCC row, table of group label columns).

        Both executors resolve groups through the frame's cached
        :meth:`~repro.index.columnar.ColumnarRccFrame.group_coding`
        (SWLIN codes normalised once, prefixes sliced per level), so the
        dense codes and label row order are identical by construction.
        """
        cache_key = (query.group_by_type, query.swlin_level)
        cached = self._group_cache.get(cache_key)
        if cached is not None:
            return cached
        coding = self._frame.group_coding(query.group_by_type, query.swlin_level)
        self._group_cache[cache_key] = (coding.codes, coding.labels)
        return coding.codes, coding.labels

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, query: StatusQuery) -> ColumnTable:
        """Run one Status Query from scratch through the index design.

        Every backend's query path emits the same metric names modulo
        the backend label — counter ``status_query.queries.<design>``
        and span ``status_query.query.<design>`` around the index
        retrieval — so latency histograms and planner statistics stay
        comparable across ``naive``/``avl``/``interval``/``sorted_array``.
        """
        recorder = self._recorder
        check_deadline("status_query.execute")
        with self.context.span("status_query.execute"):
            self.context.counter("status_query.point_queries")
            self.context.counter(f"status_query.queries.{self._design}")
            if self._design == "naive" and self._avails is not None:
                # Faithful baseline: re-join avails x RCCs on every query.
                if "avail_id" in self._rccs and "avail_id" in self._avails:
                    if recorder is not None:
                        with recorder.op("rejoin", rows_in=self._rccs.n_rows) as op:
                            joined = self._rccs.merge(self._avails, on="avail_id")
                            op.rows_out += joined.n_rows
                    else:
                        self._rccs.merge(self._avails, on="avail_id")
            if recorder is not None:
                with recorder.op("group_assignment", rows_in=self._rccs.n_rows) as op:
                    group_ids, labels = self._group_assignment(query)
                    op.rows_out += labels.n_rows
            else:
                group_ids, labels = self._group_assignment(query)
            n_groups = labels.n_rows
            t = query.t_star
            if self._executor == "columnar":
                return self._execute_point_columnar(query, labels, t, recorder)
            with self.context.span(f"status_query.query.{self._design}") as handle:
                settled_rows = self.index.settled_ids(t)
                created_rows = self.index.created_ids(t)
            if recorder is not None:
                recorder.add(
                    "index_lookup",
                    seconds=handle.seconds,
                    rows_in=len(self.index),
                    rows_out=len(settled_rows) + len(created_rows),
                )
                with recorder.op("aggregate", rows_in=len(created_rows)) as op:
                    result = self._aggregate_rows(
                        group_ids, n_groups, labels, created_rows, settled_rows, t
                    )
                    op.rows_out += result.n_rows
                return result
            return self._aggregate_rows(
                group_ids, n_groups, labels, created_rows, settled_rows, t
            )

    def _execute_point_columnar(
        self,
        query: StatusQuery,
        labels: ColumnTable,
        t: float,
        recorder: "OperatorRecorder | None",
    ) -> ColumnTable:
        """Fused point execution: batched bucket lookup + one kernel.

        Emits the same EXPLAIN rows as the scalar path — ``index_lookup``
        with the created+settled cardinality, ``aggregate`` fed the
        created count — so golden plans are executor-invariant.
        """
        coding = self._frame.group_coding(query.group_by_type, query.swlin_level)
        with self.context.span(f"status_query.query.{self._design}") as handle:
            start_buckets, end_buckets = self.index.batch_status_buckets(
                np.array([t], dtype=np.float64)
            )
            created_mask = start_buckets == 0
            settled_mask = end_buckets == 0
        n_created = int(np.count_nonzero(created_mask))
        if recorder is not None:
            recorder.add(
                "index_lookup",
                seconds=handle.seconds,
                rows_in=len(self.index),
                rows_out=n_created + int(np.count_nonzero(settled_mask)),
            )
            with recorder.op("aggregate", rows_in=n_created) as op:
                result = self._assemble_point_columnar(
                    labels, coding, created_mask, settled_mask, t
                )
                op.rows_out += result.n_rows
            return result
        return self._assemble_point_columnar(
            labels, coding, created_mask, settled_mask, t
        )

    def _assemble_point_columnar(
        self, labels, coding, created_mask, settled_mask, t
    ) -> ColumnTable:
        n_groups = labels.n_rows
        columns = {name: labels[name] for name in labels.column_names}
        columns["t_star"] = np.full(n_groups, t, dtype=np.float64)
        columns.update(
            fused_point_aggregates(self._frame, coding, created_mask, settled_mask)
        )
        return ColumnTable._from_arrays(columns, n_groups)

    def _aggregate_rows(
        self,
        group_ids: np.ndarray,
        n_groups: int,
        labels: ColumnTable,
        created_rows: np.ndarray,
        settled_rows: np.ndarray,
        t: float,
    ) -> ColumnTable:
        created_groups = group_ids[created_rows]
        settled_groups = group_ids[settled_rows]
        created_count = np.bincount(created_groups, minlength=n_groups)
        created_amount = np.bincount(
            created_groups, weights=self._amounts[created_rows], minlength=n_groups
        )
        settled_count = np.bincount(settled_groups, minlength=n_groups)
        settled_amount = np.bincount(
            settled_groups, weights=self._amounts[settled_rows], minlength=n_groups
        )
        settled_duration = np.bincount(
            settled_groups,
            weights=(self._ends - self._starts)[settled_rows],
            minlength=n_groups,
        )
        columns = {name: labels[name] for name in labels.column_names}
        columns["t_star"] = np.full(n_groups, t, dtype=np.float64)
        columns.update(
            derived_aggregate_columns(
                created_count,
                created_amount,
                settled_count,
                settled_amount,
                settled_duration,
            )
        )
        return ColumnTable._from_arrays(columns, n_groups)

    def execute_sweep(
        self,
        t_stars: list[float] | np.ndarray,
        group_by_type: bool = True,
        swlin_level: int | None = 1,
        incremental: bool = True,
    ) -> list[ColumnTable]:
        """Run Status Queries over an ascending sequence of timestamps.

        With ``incremental=True`` (Section 4.3), a :class:`StatStructure`
        carries state between timestamps so only the delta events in
        ``(t_j, t_{j+1}]`` are processed.  Otherwise every timestamp is
        computed from scratch through :meth:`execute`.
        """
        t_stars = [float(t) for t in t_stars]
        if any(b < a for a, b in zip(t_stars, t_stars[1:])):
            raise ConfigurationError("sweep timestamps must be ascending")
        self.context.counter("status_query.sweeps")
        self.context.counter("status_query.sweep_timestamps", len(t_stars))
        if not incremental:
            with self.context.span("status_query.sweep.scratch"):
                return [
                    self.execute(
                        StatusQuery(
                            t, group_by_type=group_by_type, swlin_level=swlin_level
                        )
                    )
                    for t in t_stars
                ]
        probe = StatusQuery(
            t_stars[0] if t_stars else 0.0,
            group_by_type=group_by_type,
            swlin_level=swlin_level,
        )
        recorder = self._recorder
        if recorder is not None:
            with recorder.op("group_assignment", rows_in=self._rccs.n_rows) as op:
                group_ids, labels = self._group_assignment(probe)
                op.rows_out += labels.n_rows
        else:
            group_ids, labels = self._group_assignment(probe)
        cache_key = (group_by_type, swlin_level)
        if self._executor == "columnar":
            return self._sweep_columnar(
                t_stars, cache_key, group_by_type, swlin_level, labels, recorder
            )
        stat = self._stat_cache.get(cache_key)
        stat_reused = not (stat is None or (t_stars and t_stars[0] < stat.t))
        if not stat_reused:
            if recorder is not None:
                with recorder.op("stat_build", rows_in=self._rccs.n_rows) as op:
                    stat = StatStructure(
                        group_ids,
                        labels.n_rows,
                        self._starts,
                        self._ends,
                        self._amounts,
                    )
                    op.rows_out += labels.n_rows
            else:
                stat = StatStructure(
                    group_ids, labels.n_rows, self._starts, self._ends, self._amounts
                )
            self._stat_cache[cache_key] = stat
        if recorder is not None:
            # The incremental-vs-reset decision: a reused StatStructure
            # only touches delta events, a reset one replays from t=-inf.
            recorder.note(stat_reused=stat_reused)
        # Same per-query counter the scratch path emits through execute(),
        # so sweep and point workloads stay comparable per backend.
        self.context.counter(f"status_query.queries.{self._design}", len(t_stars))
        results = []
        with self.context.span("status_query.sweep.incremental"):
            for t in t_stars:
                # Cooperative cancellation between timestamps: a pooled
                # request abandons the sweep within one delta's work.
                check_deadline("status_query.sweep")
                if recorder is not None:
                    with recorder.op("advance") as op:
                        applied = stat.advance(t)
                        op.rows_in += applied
                        op.rows_out += applied
                    with recorder.op("aggregate", rows_in=labels.n_rows) as op:
                        aggs = stat.aggregates()
                        columns = {
                            name: labels[name] for name in labels.column_names
                        }
                        columns["t_star"] = np.full(
                            labels.n_rows, t, dtype=np.float64
                        )
                        columns.update(aggs)
                        results.append(
                            ColumnTable._from_arrays(columns, labels.n_rows)
                        )
                        op.rows_out += labels.n_rows
                else:
                    stat.advance(t)
                    aggs = stat.aggregates()
                    columns = {name: labels[name] for name in labels.column_names}
                    columns["t_star"] = np.full(labels.n_rows, t, dtype=np.float64)
                    columns.update(aggs)
                    results.append(ColumnTable._from_arrays(columns, labels.n_rows))
        return results

    def _sweep_columnar(
        self,
        t_stars: list[float],
        cache_key: tuple[bool, int | None],
        group_by_type: bool,
        swlin_level: int | None,
        labels: ColumnTable,
        recorder: "OperatorRecorder | None",
    ) -> list[ColumnTable]:
        """Batched incremental sweep: one fused kernel pass per chunk.

        Same resume semantics, counters, spans and EXPLAIN rows as the
        scalar path (``advance``/``aggregate`` report one logical call
        per timestamp even though a whole chunk runs in one kernel);
        deadline checkpoints fire between chunks, never per row.
        """
        coding = self._frame.group_coding(group_by_type, swlin_level)
        state = self._sweep_states.get(cache_key)
        stat_reused = not (state is None or (t_stars and t_stars[0] < state.t))
        if not stat_reused:
            if recorder is not None:
                with recorder.op("stat_build", rows_in=self._rccs.n_rows) as op:
                    state = ColumnarSweepState(self._frame, coding)
                    op.rows_out += labels.n_rows
            else:
                state = ColumnarSweepState(self._frame, coding)
            self._sweep_states[cache_key] = state
        if recorder is not None:
            recorder.note(stat_reused=stat_reused)
        self.context.counter(f"status_query.queries.{self._design}", len(t_stars))
        n_groups = labels.n_rows
        label_columns = {name: labels[name] for name in labels.column_names}
        results: list[ColumnTable] = []

        def assemble(chunk: list[float], matrices: dict[str, np.ndarray]) -> None:
            for row, t in enumerate(chunk):
                columns = dict(label_columns)
                columns["t_star"] = np.full(n_groups, t, dtype=np.float64)
                columns.update(state.aggregates_at(matrices, row))
                results.append(ColumnTable._from_arrays(columns, n_groups))

        with self.context.span("status_query.sweep.incremental"):
            for lo in range(0, len(t_stars), SWEEP_CHUNK_SIZE):
                # Cooperative cancellation between batch chunks: a pooled
                # request abandons the sweep within one chunk's work.
                check_deadline("status_query.sweep")
                chunk = t_stars[lo : lo + SWEEP_CHUNK_SIZE]
                if recorder is not None:
                    with self.context.span("op.advance") as handle:
                        matrices, delta = state.advance_batch(chunk)
                    recorder.add(
                        "advance",
                        seconds=handle.seconds,
                        rows_in=delta,
                        rows_out=delta,
                        calls=len(chunk),
                    )
                    with self.context.span("op.aggregate") as handle:
                        assemble(chunk, matrices)
                    recorder.add(
                        "aggregate",
                        seconds=handle.seconds,
                        rows_in=n_groups * len(chunk),
                        rows_out=n_groups * len(chunk),
                        calls=len(chunk),
                    )
                else:
                    matrices, _ = state.advance_batch(chunk)
                    assemble(chunk, matrices)
        return results

    @staticmethod
    def designs() -> tuple[str, ...]:
        """Names of the available index designs, in paper order."""
        return tuple(DESIGN_CLASSES)
