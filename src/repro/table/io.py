"""CSV persistence for :class:`~repro.table.table.ColumnTable`.

The synthetic NMD tables are written to / read from plain CSV so the
examples and benchmarks can snapshot datasets without any binary format
dependency.  Type inference on read follows the same rules as column
coercion: ints stay ints, anything with a decimal point or ``nan`` becomes
float, everything else is a string.

Both directions work a column at a time.  The reader transposes the
parsed rows a chunk at a time and converts each column with one pass
of ``int``, else ``float``, else keeps its strings; the writer formats
each column once and hands the rows to ``csv`` in one call.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.table.table import ColumnTable

_MISSING_TOKENS = {"", "nan", "NaN", "None", "null"}


def write_csv(table: ColumnTable, path: str | Path) -> None:
    """Write the table to ``path`` as UTF-8 CSV with a header row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [_format_column(table[name]) for name in table.column_names]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        writer.writerows(zip(*columns))


def _format_column(array: np.ndarray) -> list[str]:
    """The column's cells as text, by :func:`_format_cell`'s rules.

    ``tolist()`` gives Python scalars that print as numpy's own do for
    these dtypes; others (float32, datetime64, ...) keep numpy scalars.
    """
    kind = array.dtype.kind
    if kind in "biu":  # never None or NaN
        return list(map(str, array.tolist()))
    if kind in "OSU" or array.dtype == np.float64:
        return list(map(_format_cell, array.tolist()))
    return list(map(_format_cell, array))


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and value != value:  # nan
        return ""
    return str(value)


def read_csv(path: str | Path) -> ColumnTable:
    """Read a CSV file written by :func:`write_csv` (or any simple CSV).

    Blank lines are skipped; a row whose field count differs from the
    header's raises :class:`~repro.errors.SchemaError`.
    """
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            return ColumnTable()
        width = len(header)
        columns: list[list[str]] = [[] for _ in header]
        rows: list[list[str]] = []
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise SchemaError(
                    f"{path}: the row ending on line {reader.line_num} has "
                    f"{len(row)} fields, the header has {width}"
                )
            rows.append(row)
            if len(rows) == _CHUNK_ROWS:
                _transpose_into(columns, rows)
        _transpose_into(columns, rows)
    data = {name: _parse_column(cells) for name, cells in zip(header, columns)}
    return ColumnTable(data)


#: Rows transposed at once.  Each parsed row is a list the cyclic
#: garbage collector tracks; fewer than its default generation-0
#: threshold (700) die before a collection can promote them, where a
#: whole file's rows held at once make a paper-scale read run a full
#: collection.
_CHUNK_ROWS = 256


def _transpose_into(columns: list[list[str]], rows: list[list[str]]) -> None:
    """Append ``rows``' cells to ``columns``, then empty ``rows``."""
    for column, cells in zip(columns, zip(*rows)):
        column.extend(cells)
    rows.clear()


def _parse_column(cells: Sequence[str]) -> np.ndarray:
    """Infer int64 / float64 / str for a raw string column.

    int64 when every cell is an int; float64 when every present cell is
    a number, with NaN for the missing ones; otherwise strings, with
    ``""`` for the missing ones.
    """
    if not cells:
        return np.empty(0, dtype=np.float64)
    try:
        return np.array(list(map(int, cells)), dtype=np.int64)
    except ValueError:
        pass
    missing = [cell in _MISSING_TOKENS for cell in cells]
    try:
        floats = [float(cell) for cell, gone in zip(cells, missing) if not gone]
    except ValueError:
        return np.array(
            ["" if gone else cell for cell, gone in zip(cells, missing)], dtype=object
        )
    out = np.full(len(cells), np.nan)
    out[~np.array(missing, dtype=bool)] = floats
    # An int token reads as float(int(token)), which differs from
    # float(token) only for "-0" (0.0, not -0.0) and past the float range
    # (OverflowError, not inf): redo those cells int-first.
    for i in np.flatnonzero(np.isinf(out) | ((out == 0) & np.signbit(out))):
        try:
            out[i] = float(int(cells[i]))
        except ValueError:
            pass  # not an int token: float() read it already
    return out
