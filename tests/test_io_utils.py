"""The CSV writers give the bytes of the plain csv.writer + format_value writer.

write_rows (the sweep's mixed cells) and write_csv (float columns, written
per block, sibling files in one pass) are both held to the same row-by-row
reference, each file on its own values.
"""

import csv
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrot.cli import (_write_simulate_artifacts, _write_verify_artifacts, run_simulate,
                         run_verify)
from spinrot.config import resolve_run_config
from spinrot.io_utils import write_csv, write_rows


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
    write_rows(got, header, (r for r in rows) if as_generator else rows, comments)
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
    write_rows(got, ["a", "b", "c"], make())
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


# -- float columns ---------------------------------------------------------------

# around the 128-row block: empty, one row, four blocks less one row/exactly/one more,
# eight blocks plus one
ROW_COUNTS = [0, 1, 511, 512, 513, 1025]
HEADER = ["t", "a", "b", "c"]


def _float_columns(n):
    """Four float64 columns of n rows: SPECIAL_FLOATS cycled, reversed, and seeded randoms."""
    rng = np.random.default_rng(n)
    cycle = np.resize(np.array(SPECIAL_FLOATS), n)
    wide = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    return [np.linspace(0.0, 0.1 * n, n), cycle, wide, -cycle[::-1]]


def _reference(out_dir, name, header, cols, comments=None):
    """The reference file of the given columns, fed np.float64 cells row by row."""
    want = out_dir / f"want_{name}"
    _reference_write_csv(want, header, [[c[i] for c in cols] for i in range(len(cols[0]))],
                         comments)
    return want.read_bytes()


def _assert_columns_match(out_dir, header, given, cols, comments=None):
    """write_csv of the given columns equals the reference fed np.float64 cells row by row."""
    got = out_dir / "got.csv"
    write_csv(got, header, given, comments)
    assert got.read_bytes() == _reference(out_dir, "got.csv", header, cols, comments)


def _assert_pass_matches(out_dir, files, comments=None):
    """One write_csv pass over the (name, header, columns) files; each file against its reference."""
    (name, header, cols), *siblings = files
    write_csv(out_dir / name, header, cols, comments,
              siblings=[(out_dir / n, h, c) for n, h, c in siblings])
    for name, header, cols in files:
        assert (out_dir / name).read_bytes() == _reference(out_dir, name, header, cols,
                                                           comments), name


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_derived_text_is_the_float_text(out_dir, n):
    # a sibling's copies and negations, with and without + 0.0, take the first file's
    # text and still print each value's own "%.17g"
    values = np.concatenate(_float_columns(n))
    derived = [values, values.copy(), -values, -values + 0.0, values + 0.0]
    _assert_pass_matches(out_dir, [("x.csv", ["x"], [values]),
                                   ("y.csv", [f"y{j}" for j in range(5)], derived)])
    lines = (out_dir / "y.csv").read_text().splitlines()[1:]
    assert [line.split(",")[2] for line in lines] == [f"{-v:.17g}" for v in values.tolist()]


@pytest.mark.parametrize("shared_t", [False, True], ids=["t-array", "t-text"])
@pytest.mark.parametrize("n", ROW_COUNTS)
def test_float_columns_match_reference(out_dir, n, shared_t):
    cols = _float_columns(n)
    if shared_t:  # t shared with a sibling file: its text is formatted once for both
        _assert_pass_matches(out_dir, [("got.csv", HEADER, cols), ("t.csv", ["t"], cols[:1])],
                             comments=["config_sha256=abc"])
    else:
        _assert_columns_match(out_dir, HEADER, cols, cols, comments=["config_sha256=abc"])


def test_columns_from_a_generator(out_dir):
    # the columns may come as any iterable, one column a tuple of np.float64 cells
    cols = _float_columns(513)
    given = (tuple(c) if j == 2 else c for j, c in enumerate(cols))
    _assert_columns_match(out_dir, HEADER, given, cols)


@pytest.mark.parametrize("columns", [[], [np.array([])], [np.array([]), []]], ids=repr)
def test_no_rows(out_dir, columns):
    got = out_dir / "got.csv"
    write_csv(got, ["t", "x"], columns, ["c"])
    assert got.read_bytes() == b"# c\nt,x\r\n"


def test_columns_of_unequal_length_rejected(out_dir):
    # within a file or across the files of a pass, where a file of no columns has no
    # rows; no file is created
    path, sibling = out_dir / "ragged.csv", out_dir / "ragged_sibling.csv"
    with pytest.raises(ValueError, match="columns differ in length"):
        write_csv(path, ["t", "x"], [np.zeros(513), np.zeros(512)])
    with pytest.raises(ValueError, match="columns differ in length"):
        write_csv(path, ["t"], [np.zeros(512)], siblings=[(sibling, ["t"], [np.zeros(513)])])
    with pytest.raises(ValueError, match="columns differ in length"):  # a file of no columns
        write_csv(path, ["t"], [np.zeros(512)], siblings=[(sibling, [], [])])
    assert not path.exists() and not sibling.exists()


_float = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.one_of(st.sampled_from(ROW_COUNTS), st.integers(0, 40)),
       k=st.integers(1, 5))
def test_float_columns_property(out_dir, data, n, k):
    cols = [np.array(data.draw(st.lists(_float, min_size=n, max_size=n)), dtype=float)
            for _ in range(k)]
    # a column may be passed twice, as the same array
    given = [cols[data.draw(st.integers(0, j))] if data.draw(st.booleans()) else c
             for j, c in enumerate(cols)]
    _assert_columns_match(out_dir, [f"c{j}" for j in range(k)], given, given)


_DERIVED = {
    "same": lambda c: c,
    "copy": lambda c: c.copy(),
    "plus_zero": lambda c: c + 0.0,  # -0 becomes 0: a copy whose zeros differ in sign
    "negation": lambda c: -c,
    "negation_plus_zero": lambda c: -c + 0.0,  # time_reverse's spin-down zeros
    "abs": np.abs,  # neither a copy nor a negation where the signs are mixed
    "other": lambda c: np.flip(c).copy(),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.one_of(st.sampled_from([127, 128, 129, 257]), st.integers(0, 40)),
       k=st.integers(1, 4), siblings=st.integers(1, 3))
def test_sibling_files_property(out_dir, data, n, k, siblings):
    # siblings of copies and negations of the first file's columns, one of them
    # a negation except at one NaN, give each file's own bytes
    first = [np.array(data.draw(st.lists(_float, min_size=n, max_size=n)), dtype=float)
             for _ in range(k)]
    files = [("f0.csv", [f"c{j}" for j in range(k)], first)]
    for s in range(1, siblings + 1):
        cols = []
        for j in range(data.draw(st.integers(1, 4))):
            c = first[data.draw(st.integers(0, k - 1))]
            cols.append(_DERIVED[data.draw(st.sampled_from(sorted(_DERIVED)))](c))
        if n and data.draw(st.booleans()):
            c = -first[0]
            c[data.draw(st.integers(0, n - 1))] = math.nan
            cols.append(c)
        files.append((f"f{s}.csv", [f"d{j}" for j in range(len(cols))], cols))
    _assert_pass_matches(out_dir, files, comments=["config_sha256=abc"])


def test_negation_but_for_one_nan_is_formatted_directly(out_dir):
    x = np.array([1.5, -0.0, 0.0, 2.0, math.inf])
    y = -x
    y[3] = math.nan
    _assert_pass_matches(out_dir, [("x.csv", ["x"], [x]), ("y.csv", ["y"], [y])])
    assert (out_dir / "y.csv").read_text().splitlines()[1:] == ["-1.5", "0", "-0", "nan", "-inf"]


# -- artifacts -------------------------------------------------------------------

README_DEMO = {
    "schema_version": 1,
    "trajectory": {"kind": "constant_precession", "omega0": 1.0,
                   "Omega": 0.5, "theta": 1.0471975511965976, "phi0": 0.0},
    "initial_conditions": "precession-consistent",
    "sigmas": [0.5, -0.5],
    "integrator": {"step": 0.01, "periods": 1.0},
    "oracle": {"enabled": True, "step": 0.0025, "method": "exponential_product"},
    "output": {"directory": "out", "prefix": "demo"},
}


def test_simulate_and_verify_artifacts_match_reference_rows(tmp_path):
    # one period of the README demo, written by the CLI and row by row from the same arrays
    cfg = resolve_run_config(README_DEMO, str(tmp_path))
    sim, ver = run_simulate(cfg), run_verify(cfg)
    out = tmp_path / "out"
    paths = _write_simulate_artifacts(cfg, sim, str(out)) + _write_verify_artifacts(cfg, ver, str(out))
    sol = sim["sol"]
    want = {"demo_aux.csv": (["t", "lambda", "gamma", "lambda_dot", "gamma_dot", "lvn_residual"],
                             [sol.t, sol.lam, sol.gamma, sol.lam_dot, sol.gamma_dot,
                              sim["lvn_residual"]])}
    for s, hist in sim["histories"].items():
        want[f"demo_phases_{'up' if s > 0 else 'down'}.csv"] = (
            ["t", "phi_dyn", "phi_geo", "phi_total"],
            [hist.t, hist.phi_dyn, hist.phi_geo, hist.phi_total])
    for s, (run, fid, phase) in ver["verify_series"].items():
        want[f"demo_verify_{'up' if s > 0 else 'down'}.csv"] = (
            ["t", "re_plus", "im_plus", "re_minus", "im_minus", "fidelity", "overlap_phase"],
            [run.t, run.states[:, 0].real, run.states[:, 0].imag, run.states[:, 1].real,
             run.states[:, 1].imag, fid, phase])
    assert sorted(os.path.basename(p) for p in paths if p.endswith(".csv")) == sorted(want)
    comments = [f"config_sha256={cfg.sha256}"]
    for name, (header, cols) in want.items():
        ref = tmp_path / f"reference_{name}"
        _reference_write_csv(ref, header, zip(*[c.tolist() for c in cols]), comments)
        assert (out / name).read_bytes() == ref.read_bytes(), name


# -- row slices formatted in forked children ---------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns in this process, recorded in order."""
    pids = []

    def recording_fork(_fork=os.fork):
        pid = _fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _sliced_files(n):
    """Three files of n rows: shared, negated and copied columns, zeros of both signs every
    13 rows, which a copy y + 0.0 takes with one sign mended, and a NaN in the last row."""
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, 0.01 * n, n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    y = np.resize(np.array(SPECIAL_FLOATS[3:]), n)  # -0.0, 0.0, 5e-324, ...
    if n:
        x[-1] = math.nan
    return [("a.csv", ["t", "x", "y"], [t, x, y]),
            ("b.csv", ["t", "neg_y", "y_plus_zero", "neg_x"], [t, -y, y + 0.0, -x]),
            ("c.csv", ["t"], [t.copy()])]


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 385, 12567])
def test_forked_slices_give_the_one_process_bytes(tmp_path, monkeypatch, forks, n):
    # with the fork threshold at one row every pass of more than one 128-row block
    # forks, one child per slice after the first; no part file is left beside the files
    from spinrot import io_utils
    monkeypatch.setattr(io_utils, "_MIN_FORK_ROWS", 1)
    files = _sliced_files(n)
    comments = ["config_sha256=abc"]
    want = {name: _reference(tmp_path, name, header, cols, comments)
            for name, header, cols in files}
    (first, header, cols), *siblings = files
    for workers in (1, 2, 3):
        out = tmp_path / str(workers)
        out.mkdir()
        forks.clear()
        write_csv(out / first, header, cols, comments, workers=workers,
                  siblings=[(out / name, h, c) for name, h, c in siblings])
        assert len(forks) == max(0, min(workers, -(-n // 128)) - 1)
        _assert_reaped(forks)
        assert sorted(os.listdir(out)) == sorted(want)
        assert {name: (out / name).read_bytes() for name in want} == want


def test_fork_parts_rule(monkeypatch):
    # the README demo's 12,567 rows fork; the tabulated CI config's 2,001 do not
    from spinrot.io_utils import _MIN_FORK_ROWS, fork_parts
    assert _MIN_FORK_ROWS == 4096
    assert [fork_parts(12567, w) for w in (1, 2, 3, 4)] == [1, 2, 3, 3]
    assert [fork_parts(rows, 2) for rows in (0, 2001, 8191, 8192)] == [1, 1, 1, 2]
    monkeypatch.delattr(os, "fork")
    assert fork_parts(12567, 2) == 1


def _child_fails(monkeypatch, how):
    """Make _block_text fail in a forked child (how: "raise", "exit") or in the parent,
    whose children then sleep."""
    from spinrot import io_utils
    parent = os.getpid()

    def failing(*args, _fn=io_utils._block_text):
        if (os.getpid() == parent) is (how == "parent"):
            if how == "exit":
                os._exit(3)
            raise OSError(28, "No space left on device")
        if how == "parent":
            time.sleep(60)
        return _fn(*args)

    monkeypatch.setattr(io_utils, "_block_text", failing)
    monkeypatch.setattr(io_utils, "_MIN_FORK_ROWS", 1)


@pytest.mark.parametrize("how,error", [("raise", "No space left"), ("exit", "without its result"),
                                       ("parent", "No space left")])
def test_failed_slice_raises_and_leaves_no_part_file(tmp_path, monkeypatch, forks, how, error):
    # a child's exception is raised in the parent, a child that dies is reported, and a
    # parent that fails kills its children; every child is reaped, and the temporary files
    # the slices went to are never visible
    _child_fails(monkeypatch, how)
    (name, header, cols), *siblings = _sliced_files(1000)
    start = time.perf_counter()
    with pytest.raises(OSError, match=error):
        write_csv(tmp_path / name, header, cols, workers=3,
                  siblings=[(tmp_path / n, h, c) for n, h, c in siblings])
    assert time.perf_counter() - start < 30.0  # the sleeping children were killed
    assert len(forks) == 2
    _assert_reaped(forks)
    assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv", "c.csv"]
