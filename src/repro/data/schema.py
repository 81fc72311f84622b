"""NMD data model: ships, availabilities, RCCs (paper Section 2).

The dataset is a pair of large tables (plus a ship dimension table):

* **avail table** — one row per maintenance period ("availability"):
  ``a_i = <i, t_planS, t_planE, t_actS, t_actE>`` plus the static
  attributes used for modeling (ship class, RMC, age, planned duration,
  ...).  Delay is ``(actE - actS) - (planE - planS)`` — agnostic of late
  starts by definition.
* **RCC table** — one row per Request for Contract Change:
  ``r_j = <j, a_i, w_j, t_s, t_e, m_j>`` (type, SWLIN, creation date,
  settled date, settled amount).

Record classes are provided for ergonomic single-row access; bulk storage
stays columnar in :class:`~repro.table.table.ColumnTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dates import MISSING_DATE, logical_time
from repro.errors import SchemaError
from repro.table.table import ColumnTable

#: Columns of the avail table, in canonical order.
AVAIL_COLUMNS = (
    "avail_id",
    "ship_id",
    "status",
    "plan_start",
    "plan_end",
    "act_start",
    "act_end",
    "delay",
    # static modeling attributes (the paper's 8 static features)
    "ship_class",
    "rmc_id",
    "ship_age",
    "planned_duration",
    "n_prior_avails",
    "avail_type",
    "start_quarter",
    "displacement",
)

#: Columns of the RCC table, in canonical order.
RCC_COLUMNS = (
    "rcc_id",
    "avail_id",
    "rcc_type",
    "swlin",
    "create_date",
    "settle_date",
    "status",
    "amount",
)

#: Columns of the ship dimension table.
SHIP_COLUMNS = ("ship_id", "ship_class", "commission_year", "rmc_id", "displacement")

#: The 8 static features used for the "base prediction" (Section 5.2.1).
STATIC_FEATURES = (
    "ship_class_code",
    "rmc_id",
    "ship_age",
    "planned_duration",
    "n_prior_avails",
    "avail_type_code",
    "start_quarter",
    "displacement",
)

AVAIL_STATUS_VALUES = ("closed", "ongoing")
AVAIL_TYPE_VALUES = ("docking", "pierside")


@dataclass(frozen=True)
class Avail:
    """One availability record (convenience view over an avail-table row)."""

    avail_id: int
    ship_id: int
    status: str
    plan_start: int
    plan_end: int
    act_start: int
    act_end: int

    @property
    def planned_duration(self) -> int:
        """``s_plan = t_planE - t_planS``."""
        return self.plan_end - self.plan_start

    @property
    def actual_duration(self) -> int | None:
        """``s_act`` or None for ongoing avails."""
        if self.act_end == MISSING_DATE:
            return None
        return self.act_end - self.act_start

    @property
    def delay(self) -> int | None:
        """``d = s_act - s_plan`` (None while ongoing)."""
        actual = self.actual_duration
        if actual is None:
            return None
        return actual - self.planned_duration

    def logical_time_of(self, physical_day: float) -> float:
        """Logical timestamp ``t*`` of a physical day for this avail."""
        return float(
            logical_time(physical_day, self.act_start, self.planned_duration)
        )


@dataclass(frozen=True)
class Rcc:
    """One Request-for-Contract-Change record."""

    rcc_id: int
    avail_id: int
    rcc_type: str
    swlin: str
    create_date: int
    settle_date: int
    amount: float

    @property
    def duration(self) -> int:
        """Days between creation and settlement."""
        return self.settle_date - self.create_date


def avail_record(avails: ColumnTable, avail_id: int) -> Avail:
    """One row of an avail table as a record object."""
    rows = np.flatnonzero(avails["avail_id"] == avail_id)
    if len(rows) == 0:
        raise SchemaError(f"no avail with id {avail_id}")
    row = avails.row(int(rows[0]))
    return Avail(
        avail_id=row["avail_id"],
        ship_id=row["ship_id"],
        status=row["status"],
        plan_start=row["plan_start"],
        plan_end=row["plan_end"],
        act_start=row["act_start"],
        act_end=row["act_end"],
    )


@dataclass
class NavyMaintenanceDataset:
    """The full NMD snapshot: ship dimension + avail and RCC fact tables."""

    ships: ColumnTable
    avails: ColumnTable
    rccs: ColumnTable
    seed: int | None = None
    scaling_factor: int = 1
    notes: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for table, expected, label in (
            (self.ships, SHIP_COLUMNS, "ship"),
            (self.avails, AVAIL_COLUMNS, "avail"),
            (self.rccs, RCC_COLUMNS, "RCC"),
        ):
            missing = [c for c in expected if c not in table]
            if missing:
                raise SchemaError(f"{label} table missing columns: {missing}")

    # ------------------------------------------------------------------
    # statistics (Table 5)
    # ------------------------------------------------------------------
    @property
    def n_ships(self) -> int:
        return self.ships.n_rows

    @property
    def n_avails(self) -> int:
        return self.avails.n_rows

    @property
    def n_rccs(self) -> int:
        return self.rccs.n_rows

    def statistics(self) -> dict[str, int]:
        """Dataset statistics in the shape of the paper's Table 5."""
        return {
            "n_ships": self.n_ships,
            "n_avails": self.n_avails,
            "n_closed_avails": int(np.sum(self.avails["status"] == "closed")),
            "n_rccs": self.n_rccs,
            "scaling_factor": self.scaling_factor,
        }

    def fingerprint(self) -> str:
        """Content fingerprint of the snapshot (artifact-cache key).

        Hashes every column of all three tables, so any edit to the
        data — including what-if RCC injection — changes the key.
        """
        from repro.runtime.cache import fingerprint_array, fingerprint_of

        parts: list[object] = []
        for label, table in (
            ("ships", self.ships),
            ("avails", self.avails),
            ("rccs", self.rccs),
        ):
            parts.append(label)
            for name in table.column_names:
                parts.append(name)
                parts.append(fingerprint_array(np.asarray(table[name])))
        return fingerprint_of(*parts)

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def avail(self, avail_id: int) -> Avail:
        """Fetch one avail as a record object."""
        return avail_record(self.avails, avail_id)

    def rccs_of(self, avail_id: int) -> ColumnTable:
        """All RCC rows of one avail."""
        return self.rccs.filter(self.rccs["avail_id"] == avail_id)

    def closed_avails(self) -> ColumnTable:
        """Avails with a known delay (the modeling population)."""
        return self.avails.filter(self.avails["status"] == "closed")

    # ------------------------------------------------------------------
    # logical time
    # ------------------------------------------------------------------
    def rccs_with_logical_times(self) -> ColumnTable:
        """RCC table extended with ``t_start``/``t_end`` logical columns.

        Each RCC's creation and settled dates are converted to the
        logical timeline of its avail (Equation 1).  The output also
        carries ``amount`` duplicated so it satisfies the Status Query
        engine's required schema directly.
        """
        avail_cols = self.avails.select(["avail_id", "act_start", "planned_duration"])
        joined = self.rccs.merge(avail_cols, on="avail_id")
        t_start = logical_time(
            joined["create_date"].astype(np.float64),
            joined["act_start"].astype(np.float64),
            joined["planned_duration"].astype(np.float64),
        )
        t_end = logical_time(
            joined["settle_date"].astype(np.float64),
            joined["act_start"].astype(np.float64),
            joined["planned_duration"].astype(np.float64),
        )
        return joined.with_column("t_start", t_start).with_column("t_end", t_end)

    def delays(self) -> np.ndarray:
        """Delay (days) of closed avails, aligned with :meth:`closed_avails`."""
        closed = self.closed_avails()
        return np.asarray(closed["delay"], dtype=np.float64)


@dataclass(frozen=True)
class LiveSnapshot:
    """The ship and avail tables of a live snapshot at a WAL watermark.

    What a live estimator serves from.  Its RCC table is not held: a
    live refresh reads only the RCCs of the avails a batch touched.  So
    :attr:`rccs` raises, naming where the whole snapshot at a watermark
    comes from, rather than answering from a table at another one.
    """

    ships: ColumnTable
    avails: ColumnTable
    watermark: int

    @property
    def rccs(self) -> ColumnTable:
        raise SchemaError(
            f"the live snapshot at watermark {self.watermark} holds no RCC "
            "table; read the whole snapshot with StreamIngestor.dataset()"
        )

    def avail(self, avail_id: int) -> Avail:
        """Fetch one avail as a record object."""
        return avail_record(self.avails, avail_id)
