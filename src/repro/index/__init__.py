"""Logical-time index structures and Status Query processing (Section 4).

Public API::

    from repro.index import (
        AvlTree, IntervalTree, DualAvlIndex, IntervalTreeIndex,
        NaiveJoinIndex, SwlinTree, RccTypeTree,
        StatusQuery, StatusQueryEngine, StatStructure,
        ColumnarRccFrame, GroupCoding, EXECUTORS,
    )
"""

from repro._lazy import attach

# Each name's module is imported when the name is first read.
__getattr__, __dir__ = attach(
    __name__,
    {
        "repro.index.avl": ("AvlTree",),
        "repro.index.avl_index": ("DualAvlIndex",),
        "repro.index.base": ("LogicalTimeIndex",),
        "repro.index.hierarchy": (
            "RCC_TYPES",
            "RccTypeTree",
            "SwlinTree",
            "format_swlin",
            "normalize_swlin",
            "swlin_prefix",
        ),
        "repro.index.columnar": (
            "ColumnarRccFrame",
            "ColumnarSweepState",
            "GroupCoding",
            "fused_point_aggregates",
        ),
        "repro.index.interval_index": ("IntervalTreeIndex", "index_designs"),
        "repro.index.interval_tree": ("IntervalTree",),
        "repro.index.naive": ("NaiveJoinIndex",),
        "repro.index.sorted_array": ("SortedArrayIndex",),
        "repro.index.status_query": (
            "AGGREGATE_COLUMNS",
            "EXECUTORS",
            "StatStructure",
            "StatusQuery",
            "StatusQueryEngine",
        ),
    },
)

__all__ = [
    "AvlTree",
    "IntervalTree",
    "LogicalTimeIndex",
    "DualAvlIndex",
    "IntervalTreeIndex",
    "NaiveJoinIndex",
    "SortedArrayIndex",
    "index_designs",
    "SwlinTree",
    "RccTypeTree",
    "RCC_TYPES",
    "normalize_swlin",
    "format_swlin",
    "swlin_prefix",
    "StatusQuery",
    "StatusQueryEngine",
    "StatStructure",
    "AGGREGATE_COLUMNS",
    "EXECUTORS",
    "ColumnarRccFrame",
    "ColumnarSweepState",
    "GroupCoding",
    "fused_point_aggregates",
]
