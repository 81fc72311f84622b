"""The generated-feature grid (transformation function T, Section 3.1).

Every RCC-dependent feature is one cell of a grid::

    (RCC type) x (SWLIN scope) x (status-specific statistic)

* **RCC types** — G, N, NG, plus the ALL marginal.
* **SWLIN scopes** — the nine leading subsystem digits 1..9, four
  super-groups of related subsystems (platform / combat / auxiliary /
  support), plus the ALL marginal.
* **statistics** — counts, sums, averages, rates, deltas and ratios of
  settled amount / duration / activity, each computed over one of the
  three status sets (created / settled / active) at logical time ``t*``.

Feature names follow the paper's convention, e.g. ``G1-AVG_SETTLED_AMT``
is the average settled amount of Growth RCCs under SWLIN subsystem 1.
The default grid yields :data:`N_GENERATED_FEATURES` features —
matching the order of magnitude (and nearly the exact count) of the
paper's 1490 RCC-dependent features.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

#: RCC type axis (label, member types). "ALL" marginalises over types.
TYPE_AXIS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("G", ("G",)),
    ("N", ("N",)),
    ("NG", ("NG",)),
    ("ALL", ("G", "N", "NG")),
)

#: SWLIN scope axis (label, member leading digits).  Digits follow the
#: expanded ship work breakdown: 1xx structure, 2xx propulsion,
#: 3xx electric, 4xx command, 5xx auxiliary, 6xx outfit, 7xx armament,
#: 8xx integration, 9xx support.
SWLIN_AXIS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("1", (1,)),
    ("2", (2,)),
    ("3", (3,)),
    ("4", (4,)),
    ("5", (5,)),
    ("6", (6,)),
    ("7", (7,)),
    ("8", (8,)),
    ("9", (9,)),
    ("PLT", (1, 2, 3)),  # platform: structure / propulsion / electric
    ("CBT", (4, 7)),  # combat: command & surveillance / armament
    ("AUX", (5, 6)),  # auxiliary systems / outfit & furnishing
    ("SUP", (8, 9)),  # integration / support services
    ("ALL", (1, 2, 3, 4, 5, 6, 7, 8, 9)),
)

#: Statistic axis: (name, status, kind).  ``kind`` tells the extractor
#: which base accumulators the statistic derives from.
STAT_AXIS: tuple[tuple[str, str, str], ...] = (
    # created-status statistics
    ("CNT_CREATED", "created", "count"),
    ("SUM_CREATED_AMT", "created", "amount_sum"),
    ("AVG_CREATED_AMT", "created", "amount_avg"),
    ("RATE_CREATED_CNT", "created", "count_rate"),
    ("RATE_CREATED_AMT", "created", "amount_rate"),
    ("DLT_CREATED_CNT", "created", "count_delta"),
    ("DLT_CREATED_AMT", "created", "amount_delta"),
    # settled-status statistics
    ("CNT_SETTLED", "settled", "count"),
    ("SUM_SETTLED_AMT", "settled", "amount_sum"),
    ("AVG_SETTLED_AMT", "settled", "amount_avg"),
    ("SUM_SETTLED_DUR", "settled", "duration_sum"),
    ("AVG_SETTLED_DUR", "settled", "duration_avg"),
    ("RATE_SETTLED_CNT", "settled", "count_rate"),
    ("RATE_SETTLED_AMT", "settled", "amount_rate"),
    ("DLT_SETTLED_CNT", "settled", "count_delta"),
    ("DLT_SETTLED_AMT", "settled", "amount_delta"),
    ("RATIO_SETTLED_CNT", "settled", "settle_ratio_count"),
    ("RATIO_SETTLED_AMT", "settled", "settle_ratio_amount"),
    # active-status statistics
    ("CNT_ACTIVE", "active", "count"),
    ("SUM_ACTIVE_AMT", "active", "amount_sum"),
    ("AVG_ACTIVE_AMT", "active", "amount_avg"),
    ("PCT_ACTIVE", "active", "pct_active"),
    ("SUM_ACTIVE_AGE", "active", "age_sum"),
    ("AVG_ACTIVE_AGE", "active", "age_avg"),
    ("DLT_ACTIVE_CNT", "active", "count_delta"),
    ("DLT_ACTIVE_AMT", "active", "amount_delta"),
)

#: Timeline-global specials appended after the grid features.
SPECIAL_FEATURES: tuple[str, ...] = (
    "T_STAR",
    "LOG_TOTAL_CREATED_AMT",
    "SWLIN_DIGITS_TOUCHED",
    "AMT_CONCENTRATION_HHI",
)

N_GRID_FEATURES = len(TYPE_AXIS) * len(SWLIN_AXIS) * len(STAT_AXIS)
N_GENERATED_FEATURES = N_GRID_FEATURES + len(SPECIAL_FEATURES)


#: stat name -> (status, kind) lookup.
STAT_LOOKUP = {name: (status, kind) for name, status, kind in STAT_AXIS}


@dataclass(frozen=True)
class FeatureSpec:
    """One generated feature: its grid coordinates and flat index."""

    index: int
    name: str
    type_label: str
    swlin_label: str
    stat_name: str
    status: str
    kind: str


def grid_feature_name(type_label: str, swlin_label: str, stat_name: str) -> str:
    """Canonical feature name, e.g. ``G1-AVG_SETTLED_AMT``."""
    return f"{type_label}{swlin_label}-{stat_name}"


@dataclass(frozen=True)
class FeatureGridSpec:
    """A configurable feature grid (the paper's T, parameterised).

    The default reproduces the paper's grid; deeper or narrower grids
    support the tech report's richer SWLIN hierarchies and cheap
    restricted extractions:

    * ``swlin_depth`` — 1 groups by the leading subsystem digit (paper
      default, 9 codes); 2 groups by the first two digits (90 codes).
    * ``swlin_axis`` — scope labels over the digit codes at that depth.
    * ``stats`` — subset (and order) of :data:`STAT_AXIS` names.
    """

    type_axis: tuple[tuple[str, tuple[str, ...]], ...] = TYPE_AXIS
    swlin_axis: tuple[tuple[str, tuple[int, ...]], ...] = SWLIN_AXIS
    swlin_depth: int = 1
    stats: tuple[str, ...] = tuple(name for name, _, _ in STAT_AXIS)
    include_specials: bool = True

    def __post_init__(self) -> None:
        from repro.errors import ConfigurationError

        if self.swlin_depth not in (1, 2):
            raise ConfigurationError("swlin_depth must be 1 or 2")
        unknown = [s for s in self.stats if s not in STAT_LOOKUP]
        if unknown:
            raise ConfigurationError(f"unknown statistics: {unknown}")
        if not self.stats or not self.type_axis or not self.swlin_axis:
            raise ConfigurationError("feature grid axes must be non-empty")
        lo, hi = self.digit_code_range
        for label, codes in self.swlin_axis:
            bad = [c for c in codes if not lo <= c <= hi]
            if bad:
                raise ConfigurationError(
                    f"scope {label!r} has codes {bad} outside depth-{self.swlin_depth} "
                    f"range [{lo}, {hi}]"
                )

    @property
    def digit_code_range(self) -> tuple[int, int]:
        """Valid digit codes at this depth (1..9 or 10..99)."""
        return (1, 9) if self.swlin_depth == 1 else (10, 99)

    @property
    def n_digit_codes(self) -> int:
        lo, hi = self.digit_code_range
        return hi - lo + 1

    @property
    def n_features(self) -> int:
        grid = len(self.type_axis) * len(self.swlin_axis) * len(self.stats)
        return grid + (len(SPECIAL_FEATURES) if self.include_specials else 0)

    @classmethod
    def default(cls) -> "FeatureGridSpec":
        """The paper's grid (:data:`N_GENERATED_FEATURES` features)."""
        return cls()

    @classmethod
    def deep(cls) -> "FeatureGridSpec":
        """Depth-2 grid: one scope per two-digit SWLIN prefix plus ALL.

        ~9.4k features — the tech report's richer hierarchy; pair with a
        larger ``k`` or stronger selection.
        """
        axis = tuple(
            (str(code), (code,)) for code in range(10, 100)
        ) + (("ALL", tuple(range(10, 100))),)
        return cls(swlin_axis=axis, swlin_depth=2)

    @classmethod
    def compact(cls) -> "FeatureGridSpec":
        """A small grid (counts/sums only, no deltas) for fast pipelines."""
        keep = tuple(
            name
            for name, _, kind in STAT_AXIS
            if kind in ("count", "amount_sum", "amount_avg", "pct_active")
        )
        return cls(stats=keep, include_specials=False)

    def build_registry(self) -> list[FeatureSpec]:
        """Enumerate this grid's features in flat (row-major) order."""
        return list(_registry_of(self))

    def feature_names(self) -> list[str]:
        return list(_names_of(self))

    def fingerprint(self) -> str:
        """Content fingerprint of the grid (artifact-cache key part)."""
        from repro.runtime.cache import fingerprint_of

        return fingerprint_of(
            self.type_axis,
            self.swlin_axis,
            self.swlin_depth,
            self.stats,
            self.include_specials,
        )


@functools.lru_cache(maxsize=16)
def _registry_of(grid: FeatureGridSpec) -> tuple[FeatureSpec, ...]:
    """A grid's features, enumerated once per distinct (frozen) spec."""
    specs: list[FeatureSpec] = []
    index = 0
    for type_label, _ in grid.type_axis:
        for swlin_label, _ in grid.swlin_axis:
            for stat_name in grid.stats:
                status, kind = STAT_LOOKUP[stat_name]
                specs.append(
                    FeatureSpec(
                        index=index,
                        name=grid_feature_name(type_label, swlin_label, stat_name),
                        type_label=type_label,
                        swlin_label=swlin_label,
                        stat_name=stat_name,
                        status=status,
                        kind=kind,
                    )
                )
                index += 1
    if grid.include_specials:
        for name in SPECIAL_FEATURES:
            specs.append(
                FeatureSpec(
                    index=index,
                    name=name,
                    type_label="ALL",
                    swlin_label="ALL",
                    stat_name=name,
                    status="special",
                    kind="special",
                )
            )
            index += 1
    return tuple(specs)


@functools.lru_cache(maxsize=16)
def _names_of(grid: FeatureGridSpec) -> tuple[str, ...]:
    return tuple(spec.name for spec in _registry_of(grid))


def build_registry(spec: FeatureGridSpec | None = None) -> list[FeatureSpec]:
    """Enumerate a grid's features (default: the paper's grid)."""
    return (spec or FeatureGridSpec.default()).build_registry()


def feature_names(spec: FeatureGridSpec | None = None) -> list[str]:
    """Flat list of a grid's feature names (default: the paper's grid)."""
    return (spec or FeatureGridSpec.default()).feature_names()
