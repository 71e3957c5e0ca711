"""File formats and the command-line interface."""

import io as std_io
import json
import math
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import linecluster as lc
from linecluster import _scan_c, io
from linecluster.cli import cli_dispatch

# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

AWKWARD = [0.1 + 0.2, 1.0 / 3.0, -0.0, 1e-300, 1e300, math.pi, 2.0**-1074]


def test_points_csv_round_trip_is_lossless(tmp_path):
    pts = np.array([[v, -v] for v in AWKWARD])
    labels = np.array([1, 2, 1, 2, 1, 2, 1], dtype=np.int8)
    path = tmp_path / "points.csv"
    io.write_points_csv(path, pts, labels)
    back_pts, back_labels = io.read_points_csv(path)
    assert np.array_equal(pts, back_pts)  # bit-exact, 17 significant digits
    assert np.array_equal(labels, back_labels)
    assert path.read_bytes() == (
        b"x,y,z\n0.30000000000000004,-0.30000000000000004,1\n"
        b"0.33333333333333331,-0.33333333333333331,2\n-0,0,1\n1e-300,-1e-300,2\n"
        b"1.0000000000000001e+300,-1.0000000000000001e+300,1\n"
        b"3.1415926535897931,-3.1415926535897931,2\n"
        b"4.9406564584124654e-324,-4.9406564584124654e-324,1\n"
    )
    io.write_points_csv(path, np.empty((0, 2)), np.empty(0, dtype=np.int8))
    assert path.read_bytes() == b"x,y,z\n"


def test_points_csv_without_labels(tmp_path):
    pts = np.array([[1.5, -2.5], [0.25, 0.75]])
    path = tmp_path / "points.csv"
    io.write_points_csv(path, pts)
    back_pts, back_labels = io.read_points_csv(path)
    assert np.array_equal(pts, back_pts)
    assert back_labels is None
    assert path.read_text().splitlines()[0] == "x,y"


def test_points_csv_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(lc.LineClusterError, match="empty dataset"):
        io.read_points_csv(empty)

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("a,b\n1,2\n")
    with pytest.raises(lc.LineClusterError, match="expected header"):
        io.read_points_csv(bad_header)

    extra = tmp_path / "extra.csv"
    extra.write_text("x,y,z,w\n1,2,1,0\n")
    with pytest.raises(lc.LineClusterError, match="expected header"):
        io.read_points_csv(extra)

    malformed = tmp_path / "malformed.csv"
    malformed.write_text("x,y\n1,two\n")
    with pytest.raises(lc.LineClusterError, match="malformed row"):
        io.read_points_csv(malformed)


LONG = "a" * 131_073  # one character past the csv module's default field limit

# (file text, fast, outcome): the outcome is the (points, labels) that
# read_points_csv returns, or the start of its error message after the path.
# ``fast`` marks the files an earlier two-reader design parsed on its
# np.loadtxt path rather than its csv-module row loop; it only keeps each
# case's test id.
POINTS_CSV_CASES = [
    ("x,y,z\n0.5,-1e-300,1\n2,3,2\n", True, ([[0.5, -1e-300], [2, 3]], [1, 2])),
    ("x,y\n1,2\n3,4\n", True, ([[1, 2], [3, 4]], None)),
    (" X , Y \n 1 ,\t2\n", True, ([[1, 2]], None)),
    ("x,y,z\n1,2,+1,9,junk\n", True, ([[1, 2]], [1])),
    ("x,y\n1,2\n\n3,4\n\n", True, ([[1, 2], [3, 4]], None)),
    ("x,y,z\r\n1,2,1\r\n3,4,-0\r\n", True, ([[1, 2], [3, 4]], [1, 0])),
    ("x,y\nnan,-inf\n", True, ([[math.nan, -math.inf]], None)),
    # Digit separators are not numerals to np.loadtxt, though float() and int() take them.
    ("x,y\n1_0,2\n", False, "malformed row (could not convert string '1_0'"),
    ("x,y,z\n1,2,1_0\n", False, "malformed row (could not convert string '1_0'"),
    ('x,y\n"1",2\n', False, ([[1, 2]], None)),
    ('x,y\n1,2,"\n3,4,"\n', False, ([[1, 2]], None)),
    ("x,y,z\n", False, ([], [])),
    ("x,y\n\n\n", False, ([], None)),
    ("x,y\n   \n", False, "malformed row (could not convert string '   '"),
    ("x,y,z\n1,2,128\n", False, "label out of range (Python integer 128 out of bounds for int8)"),
    ("x,y,z\n1,2,-129\n", False,
     "label out of range (Python integer -129 out of bounds for int8)"),
    ("x,y,z\n0,0,1\n1,1,300\n2,2,2\n", False,
     "label out of range (Python integer 300 out of bounds for int8)"),
    # Row errors name the file line, the header being line 1.
    ("x,y,z\n1,2\n", False, "malformed row (invalid column index 2 at line 2 with 2 columns)"),
    ("x,y,z\n1,2,1.0\n", False,
     "malformed row (could not convert string '1.0' to int64 at line 2, column 3.)"),
    ("x,y,z\n\n1,2,1.0\n", False,
     "malformed row (could not convert string '1.0' to int64 at line 3, column 3.)"),
    ("x,y,z\n1,2,1\n\n\n3,4\n", False,
     "malformed row (invalid column index 2 at line 5 with 2 columns)"),
    ("x,y,z\r\n1,2,1\r\n\r\n1,2,x\r\n", False,
     "malformed row (could not convert string 'x' to int64 at line 4, column 3.)"),
    ('x,y\n1,2,"a\n\nb"\n\n1,x\n', False,
     "malformed row (could not convert string 'x' to float64 at line 6, column 2.)"),
    ("x,y\n1,two\n", False, "malformed row (could not convert string 'two'"),
    ("", False, "empty dataset file"),
    ("\nx,y\n1,2\n", False, "expected header 'x,y[,z]', got "),
    ("a,b\n1,2\n", False, "expected header 'x,y[,z]', got a,b"),
    ("x,y,z,w\n1,2,1,0\n", False, "expected header 'x,y[,z]', got x,y,z,w"),
    ("x,y,\n1,2\n", False, "expected header 'x,y[,z]', got x,y,"),
    # A field past the csv module's limit is an ignored extra column like any other.
    ("x,y\n1,2," + LONG + "\n", False, ([[1, 2]], None)),
    ("x,y\n" + "1,2,é" * 8000 + "\n" * 10 + "3,4," + LONG, False, ([[1, 2], [3, 4]], None)),
    ('"x","y","z"\n1,2,1\n', False, ([[1, 2]], [1])),
    ("x,y,z\n1,2,99999999999999999999\n", False,
     "malformed row (could not convert string '99999999999999999999'"),
    ("x,y,z\n1,2," + "1" * 200_000 + "\n", False, "malformed row (could not convert string '111"),
    ("x,y\n1,2," + "1" * 200_000 + "\n", False, ([[1, 2]], None)),
]


@pytest.mark.parametrize("text, outcome", [(text, outcome) for text, _, outcome in POINTS_CSV_CASES],
                         ids=[f"{text!r:.40}-{fast}" for text, fast, _ in POINTS_CSV_CASES])
def test_points_csv_fast_path_agrees_with_the_row_loop(tmp_path, text, outcome):
    """read_points_csv on each file of POINTS_CSV_CASES: bit-exact arrays, or
    a LineClusterError whose message starts as pinned; never a warning."""
    path = tmp_path / "points.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(outcome, str):
            with pytest.raises(lc.LineClusterError) as info:
                io.read_points_csv(path)
            assert str(info.value).startswith(f"{path}: {outcome}")
            return
        points, labels = io.read_points_csv(path)
    expected_points, expected_labels = outcome
    assert points.tobytes() == np.array(expected_points, dtype=np.float64).reshape(-1, 2).tobytes()
    assert points.shape == (len(expected_points), 2)
    if expected_labels is None:
        assert labels is None
    else:
        assert labels.dtype == np.int8 and labels.tolist() == expected_labels


def test_params_json_round_trip(tmp_path, cross):
    path = tmp_path / "params.json"
    io.write_params_json(path, math.pi / 2.0, 1.0, 0.05, 200, 7)
    params = io.read_params_json(path)
    assert params.seg1 == cross[0]
    assert params.seg2 == cross[1]
    assert params.sigma == 0.05
    assert params.n_points == 200
    assert params.seed == 7
    payload = json.loads(path.read_text())
    assert list(payload) == sorted(payload)  # sorted keys, stable bytes


def test_params_json_rejects_bad_files(tmp_path):
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{oops")
    with pytest.raises(lc.LineClusterError, match="invalid JSON"):
        io.read_params_json(invalid)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"alpha": 1.0}))
    with pytest.raises(lc.LineClusterError, match="missing key"):
        io.read_params_json(missing)
    # integer keys are not truncated or converted from strings, and number
    # keys are not converted from bools or strings
    good = {"alpha": 1.0, "half_length": 1.0, "sigma": 0.01, "n_points": 80, "seed": 3}
    for key, bad, kind in (
        ("n_points", 80.7, "an integer"),
        ("n_points", "80", "an integer"),
        ("seed", 1.5, "an integer"),
        ("sigma", True, "a number"),
        ("alpha", "1.0", "a number"),
    ):
        bad_file = tmp_path / "bad_value.json"
        bad_file.write_text(json.dumps({**good, key: bad}))
        with pytest.raises(lc.LineClusterError, match=f"bad value.*{key} must be {kind}"):
            io.read_params_json(bad_file)


def test_labels_csv_round_trip_and_errors(tmp_path):
    path = tmp_path / "labels.csv"
    labels = np.array([2, 1, 1, 2], dtype=np.int8)
    io.write_labels_csv(path, labels)
    assert np.array_equal(io.read_labels_csv(path), labels)
    assert path.read_text().splitlines()[0] == "index,z_hat"

    bad = tmp_path / "bad.csv"
    bad.write_text("idx,label\n0,1\n")
    with pytest.raises(lc.LineClusterError, match="expected header"):
        io.read_labels_csv(bad)

    gap = tmp_path / "gap.csv"
    gap.write_text("index,z_hat\n0,1\n5,2\n")
    with pytest.raises(lc.LineClusterError, match="out of range"):
        io.read_labels_csv(gap)


def test_labels_csv_reads_100k_labels_back_in_any_row_order(tmp_path):
    path = tmp_path / "labels.csv"
    rng = np.random.default_rng(8)
    labels = rng.integers(1, 3, size=100_000).astype(np.int8)
    io.write_labels_csv(path, labels)
    back = io.read_labels_csv(path)
    assert back.dtype == np.int8 and np.array_equal(back, labels)
    header, *rows = path.read_text().splitlines()
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header] + [rows[i] for i in rng.permutation(len(rows))]) + "\n")
    assert np.array_equal(io.read_labels_csv(shuffled), labels)


_RANGE = "".join(f"{i},1\n" for i in range(100_000))


@pytest.mark.parametrize("body, message", [
    ("0,1\n1,3\n2,0\n", "z_hat must be 1 or 2, got 3"),
    ("0,2\n1,1\n2,-1\n", "z_hat must be 1 or 2, got -1"),
    ("0,1\n7,1\n-1,2\n", "index 7 out of range"),
    ("-1,1\n0,1\n", "index -1 out of range"),
    ("0,1\n1,2\n1,1\n0,2\n", "index 1 appears twice"),
    ("0,1\n0,2\n5,1\n", "index 0 appears twice"),
    ("5,1\n0,2\n0,1\n", "index 5 out of range"),
    (_RANGE.replace("99999,1", "100000,1"), "index 100000 out of range"),
    (_RANGE.replace("99998,1", "17,1"), "index 17 appears twice"),
    (_RANGE + "3,7\n", "z_hat must be 1 or 2, got 7"),
    ("0,1\n1\n", "malformed row (invalid column index 1"),
    ("0,1\n1,two\n", "malformed row (could not convert string 'two'"),
], ids=lambda value: repr(value)[:30])
def test_labels_csv_reports_the_first_bad_row(tmp_path, body, message):
    path = tmp_path / "labels.csv"
    path.write_text("index,z_hat\n" + body)
    with pytest.raises(lc.LineClusterError) as info:
        io.read_labels_csv(path)
    assert str(info.value).startswith(f"{path}: {message}")


def test_similarity_csv_lists_the_upper_triangle(tmp_path):
    counts = np.array([[0, 2, 0], [2, 0, 1], [0, 1, 0]])
    path = tmp_path / "w.csv"
    io.write_similarity_csv(path, counts)
    assert path.read_text() == "i,j,count\n0,1,2\n1,2,1\n"


def test_similarity_csv_bytes_are_pinned(tmp_path):
    counts = np.array(
        [[0, 12, 0, 3], [12, 0, 1, 0], [0, 1, 0, 0], [3, 0, 0, 0]], dtype=np.int32
    )
    path = tmp_path / "w.csv"
    io.write_similarity_csv(path, counts)
    assert path.read_bytes() == b"i,j,count\n0,1,12\n0,3,3\n1,2,1\n"
    io.write_similarity_csv(path, np.zeros((3, 3), dtype=np.int32))
    assert path.read_bytes() == b"i,j,count\n"


def test_similarity_csv_bytes_are_pinned_for_fields_of_mixed_width(tmp_path):
    counts = np.zeros((120, 120), dtype=np.int32)
    for i, j, c in ((0, 101, 12), (7, 110, 345), (9, 10, 1), (100, 119, 1000)):
        counts[i, j] = counts[j, i] = c
    path = tmp_path / "w.csv"
    io.write_similarity_csv(path, counts)
    assert path.read_bytes() == b"i,j,count\n0,101,12\n7,110,345\n9,10,1\n100,119,1000\n"
    # A random matrix against the plain per-pair rendering.
    rng = np.random.default_rng(3)
    upper = np.triu(rng.integers(0, 3, size=(150, 150)) * rng.integers(0, 20000, size=(150, 150)), 1)
    io.write_similarity_csv(path, upper + upper.T)
    ii, jj = np.nonzero(upper)
    expected = "i,j,count\n" + "".join(f"{i},{j},{upper[i, j]}\n" for i, j in zip(ii, jj))
    assert path.read_bytes() == expected.encode()


def _symmetric(n: int, entries) -> np.ndarray:
    """The C-contiguous int32 W with the upper-triangle ``entries`` (i, j, c)."""
    w = np.zeros((n, n), dtype=np.int32)
    for i, j, c in entries:
        w[i, j] = w[j, i] = c
    return w


def _plain_rows(counts) -> bytes:
    """similarity.csv's rows, one f-string per nonzero upper-triangle pair."""
    ii, jj = np.nonzero(np.triu(counts, 1))
    return "".join(f"{i},{j},{counts[i, j]}\n" for i, j in zip(ii, jj)).encode()


def _compiled_kernel() -> _scan_c.CompiledKernel:
    kernel = lc.hypergraph._compiled
    if not kernel.ready(build_missing=True):
        pytest.skip("no C compiler: the compiled encoder cannot be built")
    return kernel


def _both_encoders(counts) -> tuple[bytes, bytes]:
    """similarity.csv's rows from the C encoder and from the numpy block path."""
    kernel = _compiled_kernel()
    c_out, np_out = std_io.BytesIO(), std_io.BytesIO()
    io._write_upper_compiled(c_out, counts, kernel)
    io._write_upper_numpy(np_out, counts)
    return c_out.getvalue(), np_out.getvalue()


def _random_w(n: int, seed: int, top: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(0, top, size=(n, n)) * (rng.random((n, n)) < 0.7), 1)
    return (upper + upper.T).astype(np.int32)


ENCODER_CASES = {
    "all zero": lambda: np.zeros((5, 5), dtype=np.int32),
    "n=2": lambda: _symmetric(2, [(0, 1, 7)]),
    "n=3": lambda: _symmetric(3, [(0, 1, 2), (0, 2, 10), (1, 2, 1)]),
    "complete graph": lambda: (np.ones((40, 40)) - np.eye(40)).astype(np.int32),
    "one negative entry": lambda: _symmetric(4, [(0, 1, 5), (1, 3, -3), (2, 3, 12)]),
    "int32 extremes": lambda: _symmetric(3, [(0, 1, -2**31), (0, 2, 2**31 - 1), (1, 2, -1)]),
    "1-4 digits, indices past 1000": lambda: _symmetric(
        1203, [(0, 1202, 4444), (999, 1000, 1), (999, 1001, 22), (1000, 1100, 333),
               (1001, 1002, 4444), (1200, 1201, 9), (1201, 1202, 1000)]),
    "random n=150": lambda: _random_w(150, 3, 20000),
}


@pytest.mark.parametrize("make", ENCODER_CASES.values(), ids=ENCODER_CASES.keys())
def test_similarity_encoders_give_the_same_bytes(make):
    counts = make()
    c_rows, np_rows = _both_encoders(counts)
    assert c_rows == np_rows == _plain_rows(counts)


def test_similarity_encoders_agree_across_many_blocks(monkeypatch):
    counts = _random_w(300, 4, 5000)
    expected = _plain_rows(counts)
    # A few rows per block on both paths: 36 n bytes for C, about 500 pairs for numpy.
    monkeypatch.setattr(io, "_BUFFER_BYTES", 0)
    monkeypatch.setattr(io, "_BLOCK_PAIRS", 500)
    assert _both_encoders(counts) == (expected, expected)


def test_compiled_encoder_writes_whole_rows_that_fit():
    kernel = _compiled_kernel()
    counts = _random_w(12, 7, 300)
    counts[0, 11] = counts[11, 0] = -40
    rows = _plain_rows(counts).splitlines(keepends=True)

    def worst(i):  # lines of i and of n - 1's two digits, 11 for c, 3 separators; 16 spare
        return (11 - i) * (len(str(i)) + 2 + 11 + 3) + 16

    out = np.zeros(worst(0), dtype=np.uint8)
    size, row = kernel.encode_upper_csv(counts, 0, out)
    assert 1 <= row < 12 and worst(row) > out.size - size
    assert out[:size].tobytes() == b"".join(r for r in rows if int(r.split(b",")[0]) < row)
    assert kernel.encode_upper_csv(counts, 0, out[:-1]) == (0, 0)
    assert kernel.encode_upper_csv(counts, 12, out) == (0, 12)
    with pytest.raises(ValueError):
        kernel.encode_upper_csv(counts.astype(np.int64), 0, out)


def test_similarity_csv_of_other_dtypes_takes_the_numpy_path(tmp_path, monkeypatch):
    counts = _random_w(80, 5, 300)
    path = tmp_path / "w.csv"
    io.write_similarity_csv(path, counts)
    expected = path.read_bytes()
    assert expected == b"i,j,count\n" + _plain_rows(counts)

    def refuse(*args):
        raise AssertionError("the compiled encoder ran")

    monkeypatch.setattr(io, "_write_upper_compiled", refuse)
    for other in (counts.astype(np.int64), np.asfortranarray(counts), counts.tolist()):
        io.write_similarity_csv(path, other)
        assert path.read_bytes() == expected


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_similarity_csv_memory_is_bounded_at_n_2000(tmp_path, monkeypatch, compiled):
    n = 2000
    rng = np.random.default_rng(6)
    upper = np.triu(rng.integers(1, n - 1, size=(n, n), dtype=np.int32), 1)
    counts = upper + upper.T  # dense, as the scan's W of a noisy cross
    del upper
    if compiled:
        _compiled_kernel()
    else:
        monkeypatch.setattr(lc.hypergraph, "_compiled", _scan_c.CompiledKernel(tmp_path / "none"))
    path = tmp_path / "w.csv"
    tracemalloc.start()
    try:
        io.write_similarity_csv(path, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6  # W itself is 16 MB
    with open(path, "rb") as fh:
        assert fh.readline() == b"i,j,count\n"
        assert fh.readline() == f"0,1,{counts[0, 1]}\n".encode()
    assert sum(1 for _ in open(path, "rb")) == 1 + n * (n - 1) // 2


def test_labels_csv_bytes_are_pinned(tmp_path):
    path = tmp_path / "labels.csv"
    io.write_labels_csv(path, np.array([], dtype=np.int8))
    assert path.read_bytes() == b"index,z_hat\n"
    io.write_labels_csv(path, np.array([2, 1, 1, 2], dtype=np.int8))
    assert path.read_bytes() == b"index,z_hat\n0,2\n1,1\n2,1\n3,2\n"
    # 100k random labels against the plain per-row rendering.
    labels = np.random.default_rng(5).integers(1, 3, size=100_000).astype(np.int8)
    io.write_labels_csv(path, labels)
    expected = "index,z_hat\n" + "".join(f"{i},{int(z)}\n" for i, z in enumerate(labels))
    assert path.read_bytes() == expected.encode()


def test_bounds_csv_renders_optional_monte_carlo_columns(tmp_path):
    rows = [
        {"bound_name": "a", "params": "t=0.1", "theory": 0.5,
         "mc_estimate": 0.25, "mc_se": 0.01, "pass": True},
        {"bound_name": "b", "params": "t=0.1", "theory": 0.75},
    ]
    path = tmp_path / "bounds.csv"
    io.write_bounds_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "bound_name,params,theory,mc_estimate,mc_se,pass"
    assert lines[1] == "a,t=0.1,0.5,0.25,0.01,1"
    assert lines[2] == "b,t=0.1,0.75,,,"


def test_sweep_rows_render_sanitized_errors_and_nan_metrics(tmp_path):
    row = lc.SweepRow(
        n=4, sigma=0.05, t=math.nan, trial=0, seed=99, ham_star=math.nan,
        rate=math.nan, exact=False, runtime_ms=math.nan, p_hat=math.nan,
        q_hat=math.nan, sin_angle_1=math.nan, sin_angle_2=math.nan,
        center_err_1=math.nan, center_err_2=math.nan,
        error="Boom: a, b\nand more",
    )

    def rendered_cells(sweep_row):
        path = tmp_path / "sweep.csv"
        io.write_sweep_csv(path, [sweep_row])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        return lines[1].split(",")

    rendered = rendered_cells(row)
    assert rendered[io.SWEEP_COLUMNS.index("error")] == "Boom: a; b and more"
    assert rendered[io.SWEEP_COLUMNS.index("ham_star")] == "nan"
    assert rendered[io.SWEEP_COLUMNS.index("exact")] == "0"
    assert rendered[io.SWEEP_COLUMNS.index("n")] == "4"
    assert len(rendered) == len(io.SWEEP_COLUMNS)
    # A failed trial names only its identity and error; the metric defaults
    # render exactly as the spelled-out nan / False values.
    short = lc.SweepRow(n=4, sigma=0.05, t=math.nan, trial=0, seed=99,
                        error="Boom: a, b\nand more")
    assert short == row
    assert rendered_cells(short) == rendered


def test_sweep_csv_bytes_are_pinned(tmp_path):
    ok = lc.SweepRow(n=40, sigma=0.01, t=0.1, trial=0, seed=2**64 - 1, ham_star=np.int64(0),
                     rate=0.0, exact=np.bool_(True), runtime_ms=12.5, p_hat=0.75,
                     q_hat=1 / 3, sin_angle_1=0.0012, sin_angle_2=np.float64(2e-5),
                     center_err_1=0.5, center_err_2=math.nan)
    failed = lc.SweepRow(n=4, sigma=0.0, t=math.nan, trial=1, seed=7,
                         error="SampleExhaustsNodesError: touched 3, of 4\nnodes")
    path = tmp_path / "sweep.csv"
    io.write_sweep_csv(path, [ok, failed])
    assert path.read_bytes() == (
        b"n,sigma,t,trial,seed,ham_star,rate,exact,runtime_ms,p_hat,q_hat,"
        b"sin_angle_1,sin_angle_2,center_err_1,center_err_2,error\n"
        b"40,0.01,0.10000000000000001,0,18446744073709551615,0,0,1,12.5,0.75,"
        b"0.33333333333333331,0.0011999999999999999,2.0000000000000002e-05,0.5,nan,\n"
        b"4,0,nan,1,7,nan,nan,0,nan,nan,nan,nan,nan,nan,nan,"
        b"SampleExhaustsNodesError: touched 3; of 4 nodes\n"
    )


def test_sweep_csv_header_is_the_pinned_column_order(tmp_path):
    config = lc.SweepConfig(n_points=[30], sigma=[0.01], t=[0.1], trials=1, seed=0)
    rows = lc.run_sweep(config)
    path = tmp_path / "sweep.csv"
    io.write_sweep_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(io.SWEEP_COLUMNS)
    assert len(lines) == 2
    assert lines[1].split(",")[-1] == ""  # no error


def test_to_jsonable_handles_arrays_scalars_and_nonfinite():
    payload = io.to_jsonable(
        {
            "arr": np.array([1.0, 2.0]),
            "i": np.int64(3),
            "f": np.float64(0.5),
            "bad": math.inf,
            "nan": math.nan,
            "nested": [np.int32(1), (2.0, np.array([3]))],
        }
    )
    assert payload["arr"] == [1.0, 2.0]
    assert payload["i"] == 3 and isinstance(payload["i"], int)
    assert payload["f"] == 0.5
    assert payload["bad"] == "inf"
    assert payload["nan"] == "nan"
    assert payload["nested"] == [1, [2.0, [3]]]
    json.dumps(payload)  # must be serializable as-is


@given(st.floats(allow_nan=False))
def test_seventeen_digit_format_round_trips_every_float(v):
    assert float(io.fmt_float(v)) == v


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _run(capsys, argv):
    code = cli_dispatch(argv)
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip().startswith("{") else None
    return code, payload, out.err


def _gen(capsys, tmp_path, n=40, sigma=0.05, seed=1):
    d = tmp_path / "data"
    code, payload, _ = _run(
        capsys,
        ["gen", "--sigma", str(sigma), "--n", str(n), "--seed", str(seed), "--out", str(d)],
    )
    assert code == 0
    return d, payload


def test_cli_gen_writes_both_artifacts(capsys, tmp_path):
    d, payload = _gen(capsys, tmp_path, n=40)
    assert payload["schema_version"] == io.SCHEMA_VERSION
    assert payload["command"] == "gen"
    assert payload["label_counts"]["1"] + payload["label_counts"]["2"] == 40
    points_csv = d / "points.csv"
    assert points_csv.read_text().count("\n") == 41  # header + 40 rows
    assert (d / "params.json").exists()
    first = points_csv.read_bytes()
    code, _, _ = _run(
        capsys, ["gen", "--sigma", "0.05", "--n", "40", "--seed", "1", "--out", str(d)]
    )
    assert code == 0
    assert points_csv.read_bytes() == first  # rerun is byte-identical


def test_cli_tls_score_from_argument(capsys):
    code, payload, _ = _run(capsys, ["tls-score", "--points", "0,0;1,0;0.5,0.3"])
    assert code == 0
    assert payload["s_xx"] == 0.5
    assert payload["s_xy"] == 0.0
    assert payload["sigma_tls_sq"] == pytest.approx(0.06, rel=1e-13)
    assert payload["sigma_tls"] == pytest.approx(math.sqrt(0.06), rel=1e-13)
    # a triple whose squared coordinates overflow is still scored
    code, payload, _ = _run(capsys, ["tls-score", "--points", "0,0;1e150,0;0.5e150,0.3e150"])
    assert code == 0
    assert payload["sigma_tls_sq"] == pytest.approx(6e298, rel=1e-13)


def test_cli_tls_score_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", std_io.StringIO("x,y\n0,0\n1,0\n0.5,0.3\n"))
    code, payload, _ = _run(capsys, ["tls-score"])
    assert code == 0
    assert payload["sigma_tls_sq"] == pytest.approx(0.06, rel=1e-13)


def test_cli_cluster_reports_metrics_and_writes_stable_artifacts(capsys, tmp_path):
    d, _ = _gen(capsys, tmp_path, n=120, sigma=0.01, seed=2)
    out = tmp_path / "run"
    argv = [
        "cluster", "--in", str(d / "points.csv"), "--t", "0.1", "--seed", "0",
        "--out", str(out),
    ]
    code, payload, _ = _run(capsys, argv)
    assert code == 0
    assert payload["schema_version"] == io.SCHEMA_VERSION
    assert payload["n"] == 120
    assert {"ham_star", "rate", "exact", "p_hat", "q_hat"} <= set(payload)
    assert len(payload["eigenvalues"]) == 2
    labels_csv = (out / "labels.csv").read_bytes()
    w_csv = (out / "similarity.csv").read_bytes()
    code, payload2, _ = _run(capsys, argv)
    assert code == 0
    assert payload2 == payload  # nothing time-dependent in the summary
    assert (out / "labels.csv").read_bytes() == labels_csv
    assert (out / "similarity.csv").read_bytes() == w_csv


def test_cli_cluster_artifacts_do_not_depend_on_the_compiled_library(capsys, tmp_path,
                                                                     monkeypatch):
    d, _ = _gen(capsys, tmp_path, n=lc.hypergraph.BUILD_MIN_N + 10, sigma=0.01, seed=3)

    def cluster(out):
        argv = ["cluster", "--in", str(d / "points.csv"), "--t", "0.05", "--seed", "0",
                "--out", str(out)]
        code, payload, _ = _run(capsys, argv)
        assert code == 0
        return payload

    _compiled_kernel()
    compiled = cluster(tmp_path / "compiled")
    # A library that cannot be built: its cache directory is a file.
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    broken = _scan_c.CompiledKernel(blocker)
    monkeypatch.setattr(lc.hypergraph, "_compiled", broken)
    with pytest.warns(RuntimeWarning, match="not available"):
        fallback = cluster(tmp_path / "numpy")
    assert not broken.ready(build_missing=True)
    assert (compiled.pop("backend"), fallback.pop("backend")) == ("compiled", "numpy")
    for name in ("similarity.csv", "labels.csv"):
        assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "compiled" / name).read_bytes()
    for payload in (compiled, fallback):
        del payload["labels_out"], payload["w_out"]
    assert fallback == compiled


def test_cli_cluster_on_unlabeled_data_omits_the_truth_metrics(capsys, tmp_path):
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, -0.5], [1.5, -1.5]])
    path = tmp_path / "plain.csv"
    io.write_points_csv(path, pts)
    code, payload, _ = _run(capsys, ["cluster", "--in", str(path), "--t", "0.05"])
    assert code == 0
    assert "ham_star" not in payload
    assert "p_hat" not in payload


def test_cli_cluster_at_a_zero_threshold_is_degenerate(capsys, tmp_path):
    d, _ = _gen(capsys, tmp_path, n=30, sigma=0.01, seed=2)
    out = tmp_path / "run"
    code, payload, _ = _run(capsys, ["cluster", "--in", str(d / "points.csv"), "--t", "0",
                                     "--out", str(out)])
    assert code == 0
    assert payload["degenerate"] is True and payload["eigenvalues"] == [0.0, 0.0]
    assert (payload["p_hat"], payload["q_hat"]) == (0.0, 0.0)
    assert (out / "labels.csv").read_text().splitlines()[1:] == [f"{i},1" for i in range(30)]
    assert len((out / "similarity.csv").read_text().splitlines()) == 1  # the header alone
    code, _, err = _run(capsys, ["cluster", "--in", str(d / "points.csv"), "--t", "-0.1"])
    assert code == 1 and "threshold t must be finite and >= 0" in err


def test_cli_cluster_reports_the_kernel_its_scan_ran(capsys, tmp_path, monkeypatch):
    path = tmp_path / "plain.csv"
    io.write_points_csv(path, np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, -0.5]]))
    kernel = _scan_c.CompiledKernel(tmp_path / "empty-cache")
    monkeypatch.setattr(lc.hypergraph, "_compiled", kernel)
    # Too small to build the kernel, and nothing cached: the scan runs numpy.
    _, payload, _ = _run(capsys, ["cluster", "--in", str(path), "--t", "0.05"])
    assert payload["backend"] == "numpy"
    if shutil.which("cc") is not None:
        assert kernel.ready(build_missing=True)
        _, payload, _ = _run(capsys, ["cluster", "--in", str(path), "--t", "0.05"])
        assert payload["backend"] == "compiled"


def test_cli_autocluster_reports_full_and_rest_only_blocks(capsys, tmp_path):
    d, _ = _gen(capsys, tmp_path, n=150, sigma=0.01, seed=3)
    out = tmp_path / "auto"
    code, payload, _ = _run(
        capsys,
        ["autocluster", "--in", str(d / "points.csv"), "--m", "20", "--seed", "4",
         "--out", str(out)],
    )
    assert code == 0
    assert payload["t_star"] > 0.0
    assert payload["touched_nodes"] + payload["rest"] == 150
    for block in ("full", "rest_only"):
        assert set(payload[block]) == {"ham_star", "rate", "exact"}
    assert payload["rest_only"]["ham_star"] <= payload["full"]["ham_star"]
    assert (out / "labels.csv").exists()


def test_cli_recover_lines_with_params_reports_errors(capsys, tmp_path):
    d, _ = _gen(capsys, tmp_path, n=200, sigma=0.01, seed=5)
    code, payload, _ = _run(
        capsys,
        ["recover-lines", "--in", str(d / "points.csv"), "--params", str(d / "params.json")],
    )
    assert code == 0
    assert set(payload["errors"]) == {
        "sin_angle_1", "sin_angle_2", "center_err_1", "center_err_2"
    }
    assert payload["errors"]["sin_angle_1"] <= 0.05
    assert payload["line1"]["cluster_size"] + payload["line2"]["cluster_size"] == 200


def test_cli_oracle_classifies_and_writes_labels(capsys, tmp_path):
    d, _ = _gen(capsys, tmp_path, n=100, sigma=0.05, seed=6)
    out = tmp_path / "oracle"
    code, payload, _ = _run(
        capsys,
        ["oracle", "--in", str(d / "points.csv"), "--params", str(d / "params.json"),
         "--out", str(out)],
    )
    assert code == 0
    assert payload["perr"] == pytest.approx(
        lc.perr_exact(math.pi / 2.0, 2.0, 0.05).perr, rel=1e-12
    )
    assert payload["rate"] <= 0.2
    labels = io.read_labels_csv(out / "labels.csv")
    assert labels.shape == (100,)


def test_cli_bounds_writes_rows_and_all_checks_pass(capsys, tmp_path):
    out = tmp_path / "bounds"
    code, payload, _ = _run(
        capsys,
        ["bounds", "--t", "0.1", "--sigma", "0.01", "--mc-samples", "2000",
         "--seed", "1", "--out", str(out)],
    )
    assert code == 0
    assert payload["skipped"] == []
    names = [row["bound_name"] for row in payload["rows"]]
    assert names == [
        "within_miss_upper", "between_accept_lower", "between_accept_upper",
        "disc_intersect_upper", "tail_chi2", "cdf_rayleigh", "tail_binomial",
    ]
    lines = (out / "bounds.csv").read_text().splitlines()
    assert len(lines) == 8
    flags = [line.split(",")[-1] for line in lines[1:]]
    assert all(flag in ("", "1") for flag in flags)  # no failed checks


@pytest.mark.parametrize("t, sigma", [("0.05", "0.01"), ("0.1", "0.02")])
def test_cli_bounds_readme_examples_pass(capsys, t, sigma):
    # Every Rayleigh draw lands below t, so the estimate is exactly 1.0 with
    # se 0; the check must still accept it against the exact CDF.
    code, payload, _ = _run(capsys, ["bounds", "--t", t, "--sigma", sigma])
    assert code == 0
    ray = next(row for row in payload["rows"] if row["bound_name"] == "cdf_rayleigh")
    assert ray["mc_estimate"] == 1.0 and ray["pass"] is True


def test_cli_bounds_accepts_one_rayleigh_draw_beyond_t(capsys):
    # Theory expects 0.07 of 20 000 draws beyond t; one such draw is 3.4
    # theory-SE out, but under Binomial(20 000, theory) it has probability
    # about 0.07, so the exact test accepts it.
    argv = ["bounds", "--t", "0.05", "--sigma", "0.01", "--mc-samples", "20000", "--seed", "1"]
    code, payload, _ = _run(capsys, argv)
    assert code == 0
    ray = next(row for row in payload["rows"] if row["bound_name"] == "cdf_rayleigh")
    assert ray["mc_estimate"] == 1.0 - 1.0 / 20_000 and ray["pass"] is True


def test_cli_bounds_fails_a_rayleigh_theory_ten_se_off(capsys, monkeypatch):
    n = 20_000
    exact = lc.bounds.cdf_rayleigh

    def off(t, scale):
        p = exact(t, scale)
        return p - 10.0 * math.sqrt(p * (1.0 - p) / n)

    monkeypatch.setattr(lc.bounds, "cdf_rayleigh", off)
    code, payload, _ = _run(
        capsys,
        ["bounds", "--t", "0.05", "--sigma", "0.02", "--mc-samples", str(n), "--seed", "1"],
    )
    assert code == 1
    failed = [row["bound_name"] for row in payload["rows"] if row.get("pass") is False]
    assert failed == ["cdf_rayleigh"]


def test_cli_bounds_skips_out_of_domain_rows(capsys, tmp_path):
    code, payload, _ = _run(
        capsys, ["bounds", "--t", "0.01", "--sigma", "0.01", "--no-mc"]
    )
    assert code == 0
    assert any("within_miss_upper" in s for s in payload["skipped"])
    assert all(row["bound_name"] != "within_miss_upper" for row in payload["rows"])


@pytest.mark.parametrize("mc", ["--no-mc", "--mc"])
def test_cli_bounds_skips_the_rayleigh_rows_at_sigma_zero(capsys, mc):
    # sigma = 0 is outside within_miss_upper's and cdf_rayleigh's domains; the
    # other five bounds are evaluated there.
    code, payload, err = _run(capsys, ["bounds", "--t", "0.05", "--sigma", "0", mc])
    assert code == 0 and err == ""
    assert [s.split(":")[0] for s in payload["skipped"]] == ["within_miss_upper", "cdf_rayleigh"]
    assert len(payload["rows"]) == 5


def test_cli_bounds_draws_the_mixed_triples_once(capsys, monkeypatch):
    calls = []
    draw = lc.montecarlo.mc_hyperedge_rates

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(lc.montecarlo, "mc_hyperedge_rates", counted)
    code, payload, _ = _run(capsys, ["bounds", "--t", "0.1", "--sigma", "0.01",
                                     "--mc-samples", "2000", "--seed", "1"])
    assert code == 0 and len(calls) == 1
    mixed = [row for row in payload["rows"] if row["bound_name"].startswith("between_accept")]
    assert len(mixed) == 2 and mixed[0]["mc_estimate"] == mixed[1]["mc_estimate"]


_VALIDATORS = ("mc_hyperedge_rates", "mc_within_miss", "mc_chi2_tail", "mc_rayleigh_cdf",
               "mc_binomial_tail")


def _record_validator_threads(monkeypatch, delay: float = 0.0) -> list:
    """Wrap the five validators ``bounds`` runs; each appends (name, thread
    ident) to the returned list when it returns or raises, ``delay`` s after
    it was called."""
    calls = []
    for name in _VALIDATORS:
        def recorded(*args, _name=name, _run=getattr(lc.montecarlo, name)):
            try:
                time.sleep(delay)
                return _run(*args)
            finally:
                calls.append((_name, threading.get_ident()))

        monkeypatch.setattr(lc.montecarlo, name, recorded)
    return calls


def test_cli_bounds_is_the_same_at_one_and_two_threads(capsys, tmp_path, monkeypatch):
    # The README example; at two threads the validators run side by side.
    calls = _record_validator_threads(monkeypatch)
    monkeypatch.setattr(lc.hypergraph, "_cpus", lambda: 2)
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("LINECLUSTER_THREADS", threads)
        calls.clear()
        out = tmp_path / threads
        code = cli_dispatch(["bounds", "--t", "0.05", "--sigma", "0.01", "--out", str(out)])
        std = capsys.readouterr()
        assert code == 0 and std.err == ""
        assert sorted(name for name, _ in calls) == sorted(_VALIDATORS)
        idents = {ident for _, ident in calls}
        if threads == "1":
            assert idents == {threading.get_ident()}
        else:
            assert len(idents) == 2 and threading.get_ident() in idents
        outputs.append((std.out.replace(str(out), "OUT"), (out / "bounds.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_cli_bounds_raises_a_validator_error_after_every_validator_returns(capsys, monkeypatch):
    # One sample has one triple, of one composition: mc_hyperedge_rates fails
    # at once, while each of the others takes at least 0.1 s.
    results = []
    for threads in ("1", "2"):
        monkeypatch.setattr(lc.hypergraph, "_cpus", lambda: 2)
        monkeypatch.setenv("LINECLUSTER_THREADS", threads)
        calls = _record_validator_threads(monkeypatch, delay=0.1)
        code, payload, err = _run(capsys, ["bounds", "--t", "0.05", "--sigma", "0.01",
                                           "--mc-samples", "1"])
        assert sorted(name for name, _ in calls) == sorted(_VALIDATORS)
        results.append((code, payload, err))
        monkeypatch.undo()
    assert results[0] == results[1]
    assert results[0] == (1, None, "error: sample contains no triples of one composition; "
                                   "increase n_triples\n")


def test_cli_sweep_runs_a_config_file(capsys, tmp_path):
    # A negative seed runs and reproduces, as it does for gen and cluster.
    for seed in (1, -3):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"n_points": [40], "sigma": [0.01], "t": [0.1], "trials": 2, "seed": seed})
        )
        out = tmp_path / f"sweep{seed}"
        argv = ["sweep", "--config", str(config), "--out", str(out)]
        code, payload, _ = _run(capsys, argv)
        assert code == 0
        assert payload["rows"] == 2
        assert payload["failed_rows"] == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ",".join(io.SWEEP_COLUMNS)
        assert len(lines) == 3

        # rerun: every column except runtime_ms is identical
        first = [line.split(",") for line in lines[1:]]
        code, _, _ = _run(capsys, argv)
        assert code == 0
        second = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        skip = io.SWEEP_COLUMNS.index("runtime_ms")
        for a, b in zip(first, second):
            assert [v for i, v in enumerate(a) if i != skip] == [
                v for i, v in enumerate(b) if i != skip
            ]


def test_cli_sweep_summary_covers_the_trials_that_ran(capsys, tmp_path):
    # The n = 3 cell's trials all fail (the sample exhausts the points); the
    # summary figures come from the three n = 200 trials alone.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_points": [3, 200], "sigma": [0.01], "t": "auto",
                                  "algorithm": "autocluster", "trials": 3, "seed": 1}))
    code, payload, _ = _run(capsys, ["sweep", "--config", str(config)])
    assert code == 0
    assert (payload["rows"], payload["failed_rows"]) == (6, 3)
    assert payload["median_rate"] == 0.195
    assert payload["exact_fraction"] == 0.0
    # With no trial run, neither figure exists.
    config.write_text(json.dumps({"n_points": [3], "sigma": [0.01], "t": "auto",
                                  "algorithm": "autocluster", "trials": 2}))
    code, payload, _ = _run(capsys, ["sweep", "--config", str(config)])
    assert code == 0 and payload["failed_rows"] == 2
    assert payload["median_rate"] == "nan" and payload["exact_fraction"] == "nan"


def test_cli_exit_codes(capsys, tmp_path):
    code, _, err = _run(capsys, ["cluster", "--in", str(tmp_path / "nope.csv"), "--t", "0.1"])
    assert code == 1
    assert "error:" in err

    d, _ = _gen(capsys, tmp_path, n=10, sigma=0.05, seed=1)
    code, _, err = _run(
        capsys, ["cluster", "--in", str(d / "points.csv"), "--t", "-1.0"]
    )
    assert code == 1
    assert "error:" in err

    assert cli_dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    assert cli_dispatch([]) == 2
    capsys.readouterr()
    assert cli_dispatch(["--version"]) == 0
    assert lc.__version__ in capsys.readouterr().out


def _documented_keys() -> dict[str, list[set[str]]]:
    """Per command, the key sets of the table in docs/formats.md: always,
    with a z column, with --out (--params for recover-lines)."""
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    section = text.split("## CLI JSON summaries")[1].split("\n## ")[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, *cells = line.strip("|").split("|")
            table[name.strip(" `")] = [set(re.findall(r"`([a-z_0-9]+)`", c)) for c in cells]
    return table


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """One generated dataset, its unlabeled copy, its labels and a sweep config."""
    d = tmp_path_factory.mktemp("cli-keys")
    assert cli_dispatch(["gen", "--sigma", "0.05", "--n", "40", "--seed", "1", "--out", str(d)]) == 0
    points, labels = io.read_points_csv(d / "points.csv")
    io.write_points_csv(d / "plain.csv", points)
    io.write_labels_csv(d / "labels.csv", labels)
    (d / "sweep.json").write_text(json.dumps({"n_points": [10], "sigma": [0.05], "t": [0.1]}))
    return d


def _key_runs(command: str, d: Path, out: Path) -> list[tuple[list[str], bool, bool]]:
    """(argv, reads a z column, sets --out or --params) for each run of ``command``."""
    labeled, plain, params = str(d / "points.csv"), str(d / "plain.csv"), str(d / "params.json")
    to_out = ["--out", str(out)]
    if command == "gen":
        return [(["gen", "--sigma", "0.05", "--n", "20", "--seed", "1", *to_out], False, True)]
    if command == "tls-score":
        return [(["tls-score", "--points", "0,0;1,0;0.5,0.3"], False, False)]
    if command == "recover-lines":
        return [(["recover-lines", "--in", labeled], True, False),
                (["recover-lines", "--in", labeled, "--params", params], True, True),
                (["recover-lines", "--in", plain, "--labels", str(d / "labels.csv")], False, False)]
    if command in ("bounds", "sweep"):
        base = (["bounds", "--t", "0.1", "--sigma", "0.01", "--no-mc"] if command == "bounds"
                else ["sweep", "--config", str(d / "sweep.json")])
        return [(base, False, False), (base + to_out, False, True)]
    flags = {"cluster": ["--t", "0.1"], "autocluster": ["--m", "5"], "oracle": ["--params", params]}
    return [([command, "--in", path, *flags[command], *extra], path == labeled, bool(extra))
            for path in (labeled, plain) for extra in ([], to_out)]


@pytest.mark.parametrize("command", ["gen", "tls-score", "cluster", "autocluster",
                                     "recover-lines", "oracle", "bounds", "sweep"])
def test_cli_json_keys_match_the_documented_table(capsys, tmp_path, cli_inputs, command):
    always, with_z, with_flag = _documented_keys()[command]
    for argv, reads_z, flagged in _key_runs(command, cli_inputs, tmp_path / "out"):
        code, payload, _ = _run(capsys, argv)
        assert code == 0, argv
        expected = {"schema_version", "command"} | always
        expected |= (with_z if reads_z else set()) | (with_flag if flagged else set())
        assert set(payload) == expected, argv
        assert payload["command"] == command
        assert all(Path(payload[key]).is_file() for key in payload if key.endswith("out"))


_LABELS = "index,z_hat\n" + "".join(f"{i},1\n" for i in range(9))


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["recover-lines", "--labels"], _LABELS + "9\n", "malformed row"),
        (["recover-lines", "--labels"], _LABELS + "9,two\n", "malformed row"),
        (["recover-lines", "--labels"], _LABELS + "9,300\n", "must be 1 or 2, got 300"),
        (["recover-lines", "--labels"], _LABELS + "8,2\n", "index 8 appears twice"),
        (["oracle", "--params"], "[1, 2]", "must be an object"),
        (["sweep", "--config"], json.dumps({"n_points": 5, "sigma": [0.01], "t": [0.1]}),
         "n_points must be a list"),
        (["tls-score"], "0,0\n1,x\n0.5,0.3\n", "malformed row '1,x'"),
        (["cluster", "--t", "0.1", "--in"], "x,y,z\n0,0,1\n1,1,300\n2,2,2\n", "out of range"),
        (["cluster", "--t", "0.1", "--in"], "x,y,z\n0,0," + "1" * 200_000 + "\n", "malformed row"),
        (["cluster", "--t", "0.1", "--in"], "x,y\n0,0\n\n1,x\n",
         "malformed row (could not convert string 'x' to float64 at line 4, column 2.)"),
        (["recover-lines", "--labels"], _LABELS + "\n9\n",
         "malformed row (invalid column index 1 at line 12 with 1 columns)"),
        (["bounds", "--t", "0.05", "--sigma", "0.01", "--mc-samples", "0"], "",
         "sample count must be at least 1, got 0"),
        (["bounds", "--t", "0.05", "--sigma", "0.01", "--mc-samples", "-5"], "",
         "sample count must be at least 1, got -5"),
        (["sweep", "--config"], json.dumps({"n_points": [10], "sigma": [0.01], "t": [0.1],
                                            "trials": 2.5}), "trials must be an integer"),
        (["sweep", "--config"], json.dumps({"n_points": [10], "sigma": [0.01], "t": [0.1],
                                            "seed": 0.5}), "seed must be an integer"),
        (["sweep", "--config"], json.dumps({"n_points": [40.7], "sigma": [0.01], "t": [0.1]}),
         "each n_points entry must be an integer, got 40.7"),
        (["sweep", "--config"], json.dumps({"n_points": [40], "sigma": [0.01], "t": "auto",
                                            "algorithm": "autocluster", "m": 2.5}),
         "m must be an integer, got 2.5"),
        (["sweep", "--config"], json.dumps({"n_points": [40], "sigma": [True], "t": [0.1]}),
         "each sigma entry must be a number, got True"),
        (["sweep", "--config"], json.dumps({"n_points": [40], "sigma": [0.0, 0.05], "t": "auto",
                                            "algorithm": "oracle"}),
         "algorithm 'oracle' needs every sigma > 0"),
        (["bounds", "--t", "0.05", "--sigma", "0.01", "--ell", "nan"], "",
         "ell must be positive and finite, got nan"),
        (["bounds", "--t", "0.05", "--sigma", "0.01", "--ell", "-1"], "",
         "ell must be positive and finite, got -1.0"),
    ],
    ids=["short labels row", "non-integer label", "label past int8", "repeated index",
         "params list", "n_points not a list", "non-numeric stdin", "dataset label past int8",
         "dataset label of 200000 digits", "dataset row after a blank line",
         "labels row after a blank line", "zero mc samples", "negative mc samples",
         "fractional sweep trials", "fractional sweep seed", "fractional sweep n_points",
         "fractional sweep m", "boolean sweep sigma", "oracle sweep at sigma zero",
         "nan bounds ell", "negative bounds ell"],
)
def test_cli_reports_malformed_input_as_an_error(capsys, tmp_path, monkeypatch, command, text,
                                                 message):
    d, _ = _gen(capsys, tmp_path, n=10, sigma=0.05, seed=1)
    path = tmp_path / "input"
    path.write_text(text)
    monkeypatch.setattr(sys, "stdin", std_io.StringIO(text))
    argv = command + [str(path)] if command[-1].startswith("--") else command
    if command[0] in ("recover-lines", "oracle"):
        argv += ["--in", str(d / "points.csv")]
    code, payload, err = _run(capsys, argv)
    assert code == 1 and payload is None
    assert err.startswith("error: ") and message in err and "Traceback" not in err


_SCIPY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

import linecluster
steps = [["import linecluster", 0, loaded()]]
from linecluster.cli import cli_dispatch
steps.append(["import linecluster.cli", 0, loaded()])
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_dispatch(argv)
    steps.append([" ".join(argv[:3]), code, loaded()])
print(json.dumps(steps))
"""


def _scipy_steps(argvs):
    """Run CLI commands in a fresh interpreter: (step, exit code, scipy loaded) after each."""
    src = str(Path(lc.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, src, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120, check=True)
    return [tuple(step) for step in json.loads(done.stdout)]


def test_scipy_loads_only_for_the_oracle_and_the_bounds_check(tmp_path):
    data = tmp_path / "data"
    spectral, auto = tmp_path / "spectral.json", tmp_path / "auto.json"
    spectral.write_text(json.dumps({"n_points": [40], "sigma": [0.01], "t": [0.1]}))
    auto.write_text(json.dumps({"n_points": [60], "sigma": [0.01], "t": "auto",
                                "algorithm": "autocluster"}))
    points = str(data / "points.csv")
    steps = _scipy_steps([
        ["gen", "--sigma", "0.02", "--n", "60", "--seed", "1", "--out", str(data)],
        ["cluster", "--in", points, "--t", "0.05", "--out", str(tmp_path / "c")],
        ["autocluster", "--in", points],
        ["sweep", "--config", str(spectral)],
        ["sweep", "--config", str(auto)],
        ["bounds", "--t", "0.1", "--sigma", "0.02", "--mc-samples", "2000"],
    ])
    assert [code for _, code, _ in steps] == [0] * len(steps)
    assert [has_scipy for _, _, has_scipy in steps] == [False] * (len(steps) - 1) + [True]
    oracle = ["oracle", "--in", points, "--params", str(data / "params.json")]
    assert _scipy_steps([oracle])[1:] == [("import linecluster.cli", 0, False),
                                          ("oracle --in " + points, 0, True)]
