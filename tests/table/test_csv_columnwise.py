"""The column-wise CSV reader and writer against the per-cell oracle.

The writer must produce the oracle's bytes and the reader the oracle's
tables — names, dtypes, values and NaN positions — on paper-scale
datasets and on hypothesis tables and raw CSV text.  Ragged rows, which
the oracle mis-reported, raise one :class:`~repro.errors.SchemaError`.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.data import SyntheticNmdConfig, generate_dataset, save_dataset
from repro.errors import SchemaError
from repro.table import ColumnTable, read_csv, write_csv
from tests.table import csv_oracle

MISSING = ["", "nan", "NaN", "None", "null"]


def assert_same_table(new: ColumnTable, old: ColumnTable) -> None:
    assert new.column_names == old.column_names
    assert new.n_rows == old.n_rows
    for name in new.column_names:
        a, b = new[name], old[name]
        assert a.dtype == b.dtype, (name, a.dtype, b.dtype)
        if a.dtype.kind == "f":
            assert np.array_equal(np.isnan(a), np.isnan(b)), name
            assert a.tobytes() == b.tobytes(), name  # bitwise: -0.0 too
        else:
            assert a.tolist() == b.tolist(), name


def read_both(path: Path) -> None:
    """Both readers give the same table, or raise the same error type."""
    try:
        old = csv_oracle.read_csv(path)
    except Exception as error:  # noqa: BLE001 — compared below
        with pytest.raises(type(error)):
            read_csv(path)
        return
    assert_same_table(read_csv(path), old)


def write_both(table: ColumnTable, directory: Path) -> Path:
    """Both writers give the same bytes; returns the written file."""
    new, old = directory / "new.csv", directory / "old.csv"
    write_csv(table, new)
    csv_oracle.write_csv(table, old)
    assert new.read_bytes() == old.read_bytes()
    return new


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_paper_scale_dataset_matches_the_oracle(seed, tmp_path):
    dataset = generate_dataset(SyntheticNmdConfig(seed=seed))
    save_dataset(dataset, tmp_path / "new")
    for name in ("ships", "avails", "rccs"):
        written = tmp_path / "new" / f"{name}.csv"
        oracle = tmp_path / f"{name}.csv"
        csv_oracle.write_csv(getattr(dataset, name), oracle)
        assert written.read_bytes() == oracle.read_bytes(), name
        assert_same_table(read_csv(written), csv_oracle.read_csv(written))


def test_paper_scale_load_makes_no_full_collection(tmp_path):
    """Rows are transposed a chunk at a time, so they die young."""
    save_dataset(generate_dataset(SyntheticNmdConfig(seed=1)), tmp_path)
    probe = (
        "import gc, sys\n"
        "from repro.data import load_dataset\n"
        "full = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start'"
        " and info['generation'] == 2 and full.append(info))\n"
        f"load_dataset({str(tmp_path)!r})\n"
        "print(len(full))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "0", done.stdout


# ----------------------------------------------------------------------
# hypothesis tables and raw CSV text
# ----------------------------------------------------------------------
text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=8,
)
tricky_text = st.sampled_from(['a,b', 'say "hi"', "two\nlines", "cr\r\nlf", " ", "x"])
int_tokens = st.one_of(
    st.integers(-(10**15), 10**15).map(str),
    st.sampled_from(
        ["-0", " 12 ", "1_000", "+5", "007", "9223372036854775808", "1" + "0" * 400]
    ),
)
float_tokens = st.one_of(
    st.floats().map(str),
    st.floats().map(repr),
    st.sampled_from(
        ["1e5", "-2.5E-3", "inf", "-inf", "Infinity", "NAN", "-nan", "1_0.5", " 3.0 ", "-0.0"]
    ),
)
str_tokens = st.one_of(text, tricky_text)


@st.composite
def raw_columns(draw):
    """A header plus rows of tokens: each column leans int, float or str,
    and any cell may be any missing token."""
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(1, 4))
    columns = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from([int_tokens, float_tokens, str_tokens]))
        token = st.one_of(kind, st.sampled_from(MISSING)) if draw(st.booleans()) else kind
        columns.append(draw(st.lists(token, min_size=n_rows, max_size=n_rows)))
    header = [f"c{i}" for i in range(n_cols)]
    return header, [list(row) for row in zip(*columns)]


@st.composite
def tables(draw):
    """int64, float64 (NaN and inf included) and object columns, the
    last holding text, None and NaN."""
    n_rows = draw(st.integers(0, 10))
    cells = {
        np.int64: st.integers(-(2**63), 2**63 - 1),
        np.float64: st.floats(),
        object: st.one_of(text, tricky_text, st.none(), st.just(float("nan"))),
    }
    kinds = draw(st.lists(st.sampled_from(list(cells)), min_size=1, max_size=4))
    return ColumnTable(
        {
            f"c{i}": np.array(
                draw(st.lists(cells[kind], min_size=n_rows, max_size=n_rows)), dtype=kind
            )
            for i, kind in enumerate(kinds)
        }
    )


@given(raw_columns())
@settings(max_examples=300, deadline=None)
def test_reader_matches_the_oracle_on_raw_text(raw):
    header, rows = raw
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "raw.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        read_both(path)


@given(tables())
@settings(max_examples=200, deadline=None)
def test_writer_and_reader_match_the_oracle_on_tables(table):
    with tempfile.TemporaryDirectory() as directory:
        read_both(write_both(table, Path(directory)))


@pytest.mark.parametrize("token", MISSING)
def test_each_missing_token_in_every_column_kind(token, tmp_path):
    path = tmp_path / "missing.csv"
    path.write_text(f"i,f,s,all\n1,1.5,a,{token}\n{token},{token},{token},{token}\n-3,2e3,b,\n")
    read_both(path)
    table = read_csv(path)
    assert [table[name].dtype for name in table.column_names] == [
        np.float64, np.float64, object, np.float64
    ]
    assert np.isnan(table["i"][1]) and np.isnan(table["f"][1])
    assert table["s"].tolist() == ["a", "", "b"]


def test_one_row_table_and_header_only_file(tmp_path):
    one_row = ColumnTable({"i": [-7], "f": [float("inf")], "s": ["q,\"r\""]})
    read_both(write_both(one_row, tmp_path))
    header_only = write_both(ColumnTable({"a": [], "b": []}), tmp_path)
    read_both(header_only)
    assert read_csv(header_only).column_names == ("a", "b")


def test_other_dtypes_print_as_numpy_scalars(tmp_path):
    """float32, bool and datetime64 cells print as the oracle's numpy
    scalars do, not as their ``tolist()`` Python values."""
    table = ColumnTable(
        {
            "f32": np.array([0.1, np.nan, -2.5e-8], dtype=np.float32),
            "b": np.array([True, False, True]),
            "day": np.array(["2020-01-05", "2021-12-31", "NaT"], dtype="datetime64[D]"),
            "ns": np.array(["2020-01-05T01:02:03"] * 3, dtype="datetime64[ns]"),
            "u8": np.array([0, 7, 255], dtype=np.uint8),
        }
    )
    read_both(write_both(table, tmp_path))


@pytest.mark.parametrize(
    "body, line",
    [("1,2,3\n4,5\n6,7,8\n", 3), ("1,2,3\n4,5,6,7\n", 3), ('1,"x\ny",3\n4\n', 4)],
    ids=["short", "long", "after-a-quoted-newline"],
)
def test_ragged_row_raises_schema_error_naming_file_and_row(body, line, tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b,c\n" + body)
    with pytest.raises(SchemaError, match=rf"ragged\.csv: the row ending on line {line} "):
        read_csv(path)


def test_blank_lines_are_skipped_as_before(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a,b\n1,x\n\n2,y\n\n")
    read_both(path)
    assert read_csv(path)["a"].tolist() == [1, 2]
