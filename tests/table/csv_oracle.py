"""The per-cell CSV reader and writer, kept as the oracle of the column-wise ones.

:func:`repro.table.io.read_csv` and :func:`repro.table.io.write_csv` work
a column at a time.  These are the functions they replaced, verbatim:
the writer formats and writes one cell at a time, and the reader infers
each column's kind cell by cell.  Written files must be byte-identical
and read tables equal in names, dtypes, values and NaN positions.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any

from repro.table.table import ColumnTable

_MISSING_TOKENS = {"", "nan", "NaN", "None", "null"}


def write_csv(table: ColumnTable, path: str | Path) -> None:
    """Write the table to ``path`` as UTF-8 CSV with a header row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        arrays = [table[name] for name in table.column_names]
        for i in range(table.n_rows):
            writer.writerow([_format_cell(array[i]) for array in arrays])


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and value != value:  # nan
        return ""
    return str(value)


def read_csv(path: str | Path) -> ColumnTable:
    """Read a CSV file written by :func:`write_csv` (or any simple CSV)."""
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            return ColumnTable()
        raw_columns: list[list[str]] = [[] for _ in header]
        for row in reader:
            for i, cell in enumerate(row):
                raw_columns[i].append(cell)
    data = {name: _parse_column(cells) for name, cells in zip(header, raw_columns)}
    return ColumnTable(data)


def _parse_column(cells: list[str]) -> list[Any]:
    """Infer int / float / str for a raw string column."""
    parsed: list[Any] = []
    kind = "int"
    for cell in cells:
        if cell in _MISSING_TOKENS:
            parsed.append(None)
            if kind == "int":
                kind = "float"
            continue
        if kind in ("int", "float"):
            try:
                value = int(cell)
                parsed.append(value)
                continue
            except ValueError:
                pass
            try:
                value = float(cell)
                parsed.append(value)
                kind = "float"
                continue
            except ValueError:
                kind = "str"
        parsed.append(cell)
    if kind == "str":
        return [("" if cell in _MISSING_TOKENS else cell) for cell in cells]
    return parsed
