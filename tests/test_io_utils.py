"""write_csv gives the same bytes as the plain csv.writer + format_value writer."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrot.io_utils import write_csv


def _reference_format(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


def _reference_write_csv(path, header, rows, comments=None) -> None:
    """Every row through csv.writer: the writer as it was before the float template."""
    with open(path, "w", newline="") as fh:
        for line in comments or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_reference_format(v) for v in row])


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


def _assert_same_bytes(out_dir, header, rows, comments=None, as_generator=False):
    got, want = out_dir / "got.csv", out_dir / "want.csv"
    write_csv(got, header, (r for r in rows) if as_generator else rows, comments)
    _reference_write_csv(want, header, rows, comments)
    assert got.read_bytes() == want.read_bytes()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308,
                  1.7976931348623157e308, 0.1, 1.0, -3.0, 2.0 ** 53, 1e16, 1e17, 1e22]


def test_special_floats(out_dir):
    rows = [(v,) for v in SPECIAL_FLOATS] + [tuple(SPECIAL_FLOATS)]
    _assert_same_bytes(out_dir, ["x"], rows)


@pytest.mark.parametrize("row", [
    [None], [None, 1.0], [True, False], [1.0, True], [3], [1.0, 3], [10 ** 20],
    [2.0, 10 ** 20], [np.float64(0.1), np.float64(-0.0)], [1.0, np.float64(math.nan)],
    [np.int64(7), 1.5], ["a,b", 1.0], ['say "hi"', 2.0], ["two\nlines", 3.0],
    ["cr\rhere"], [""], ["", 1.0], [1.0, "ok", None, False],
], ids=repr)
def test_non_float_values_keep_csv_writer_bytes(out_dir, row):
    _assert_same_bytes(out_dir, ["a", "b"], [row, [1.0, 2.0], tuple(row)])


def test_ragged_rows_and_comments(out_dir):
    rows = [(1.0,), (1.0, 2.0, 3.0), (), [], (4.0, None), [5.0, 6.0], (7.0, 8.0, 9.0, 10.0)]
    _assert_same_bytes(out_dir, ["a", "b", "c"], rows, comments=["config_sha256=abc", "x, y"])


@pytest.mark.parametrize("as_generator", [False, True])
def test_empty_row_iterable(out_dir, as_generator):
    _assert_same_bytes(out_dir, ["t", "x"], [], comments=["c"], as_generator=as_generator)


def test_generator_rows(out_dir):
    rows = [(0.1 * k, float(k) ** 0.5, -1.0 / (k + 1)) for k in range(50)]
    rows[10] = (1.0, None, "status")
    _assert_same_bytes(out_dir, ["t", "a", "b"], rows, as_generator=True)


def test_rows_that_are_generators(out_dir):
    def make():
        return ((v for v in (1.0, float(k), 2.5)) for k in range(5))

    got, want = out_dir / "got.csv", out_dir / "want.csv"
    write_csv(got, ["a", "b", "c"], make())
    _reference_write_csv(want, ["a", "b", "c"], make())
    assert got.read_bytes() == want.read_bytes()


_text = st.text(st.characters(min_codepoint=9, max_codepoint=126), max_size=8)
_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.none(), st.booleans(), st.integers(min_value=-10 ** 30, max_value=10 ** 30), _text)
_float_row = st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=7)
_any_row = st.lists(_value, max_size=7)


@settings(max_examples=200, deadline=None)
@given(header=st.lists(_text, min_size=1, max_size=7),
       rows=st.lists(st.one_of(_float_row, _any_row), max_size=12),
       comments=st.one_of(st.none(), st.lists(_text.filter(lambda s: "\n" not in s),
                                              max_size=3)),
       as_generator=st.booleans(),
       as_tuples=st.booleans())
def test_matches_csv_writer_reference(out_dir, header, rows, comments, as_generator, as_tuples):
    if as_tuples:
        rows = [tuple(r) for r in rows]
    _assert_same_bytes(out_dir, header, rows, comments, as_generator)
