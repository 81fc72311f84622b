"""Dataset persistence: a NavyMaintenanceDataset as a directory of CSVs."""

from __future__ import annotations

import json
from pathlib import Path

from repro.data.schema import NavyMaintenanceDataset
from repro.errors import SchemaError
from repro.table import ColumnTable
from repro.table.io import read_csv, write_csv

_TABLES = ("ships", "avails", "rccs")
_META_FILE = "dataset.json"


def save_dataset(dataset: NavyMaintenanceDataset, directory: str | Path) -> None:
    """Write ships/avails/rccs CSVs plus a metadata JSON to ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_csv(dataset.ships, directory / "ships.csv")
    write_csv(dataset.avails, directory / "avails.csv")
    write_csv(dataset.rccs, directory / "rccs.csv")
    meta = {
        "seed": dataset.seed,
        "scaling_factor": dataset.scaling_factor,
        "statistics": dataset.statistics(),
    }
    (directory / _META_FILE).write_text(json.dumps(meta, indent=2), encoding="utf-8")


def load_dataset(directory: str | Path) -> NavyMaintenanceDataset:
    """Read a dataset previously written by :func:`save_dataset`."""
    directory = Path(directory)
    ships, avails, rccs = [_table_path(directory, table) for table in _TABLES]
    meta_path = directory / _META_FILE
    meta = json.loads(meta_path.read_text(encoding="utf-8")) if meta_path.exists() else {}
    return NavyMaintenanceDataset(
        ships=read_csv(ships),
        avails=read_csv(avails),
        rccs=read_csv(rccs),
        seed=meta.get("seed"),
        scaling_factor=meta.get("scaling_factor", 1),
    )


def load_avails(directory: str | Path) -> ColumnTable:
    """Read only the avails table of a dataset written by :func:`save_dataset`."""
    return read_csv(_table_path(Path(directory), "avails"))


def _table_path(directory: Path, table: str) -> Path:
    path = directory / f"{table}.csv"
    if not path.exists():
        raise SchemaError(f"missing {table}.csv in {directory}")
    return path
