"""File formats for datasets, labels, similarity dumps, bounds, and sweeps.

All formats are plain text, written deterministically so a rerun with the
same seed is byte-identical:

  * dataset CSV: header ``x,y,z``; floats with 17 significant digits
    (lossless float64 round-trip), labels as integers; the ``z`` column may
    be absent on input (unlabeled data);
  * params JSON: keys ``alpha, half_length, sigma, n_points, seed``
    (the symmetric-cross geometry), sorted keys, 2-space indent;
  * labels CSV: header ``index,z_hat``;
  * similarity CSV: header ``i,j,count``, upper-triangle nonzero entries in
    row-major order, written in blocks of whole rows: by the compiled
    library's C encoder when it is already built and W is the scan's
    contiguous int32 matrix, else by the numpy encoder; both write the same
    bytes, and neither holds more than about a megabyte beyond W;
  * bounds CSV: header ``bound_name,params,theory,mc_estimate,mc_se,pass``;
    Monte-Carlo columns are empty for bounds without a sampling validator;
  * sweep CSV: one row per (cell, trial), its columns ``SweepRow``'s fields
    in order (``SWEEP_COLUMNS``); ``runtime_ms`` is the only column exempt
    from rerun determinism.

The dataset CSV and both tables go through ``_write_table``, which renders
each cell by the value's type (``_cell``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np

from . import hypergraph
from ._validate import as_float, as_int
from .errors import LineClusterError
from .model import ModelParams, standard_cross
from .sweep import SweepRow

SCHEMA_VERSION = 1

SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))
BOUNDS_COLUMNS = ("bound_name", "params", "theory", "mc_estimate", "mc_se", "pass")


def fmt_float(v: float) -> str:
    """17-significant-digit decimal form (round-trips any float64)."""
    return f"{float(v):.17g}"


def write_points_csv(path, points, labels=None) -> None:
    x, y = np.asarray(points, dtype=np.float64).T
    columns = [x.tolist(), y.tolist()]
    if labels is not None:
        columns.append(np.asarray(labels).astype(np.int64).tolist())
    _write_table(path, ("x", "y", "z")[: len(columns)], zip(*columns))


def read_points_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a dataset CSV; returns (points, labels or None).

    The header is ``x,y`` or ``x,y,z`` (any case, spaces and quotes around a
    name allowed). The rows go through one ``np.loadtxt`` call: fields may be
    quoted and padded with spaces, lines may end in CRLF, blank lines are
    skipped and columns past the header's are ignored. A missing field, or one
    loadtxt cannot convert (``two``, a digit separator as in ``1_0``, a label
    ``1.0``), is a malformed row; a label must fit in int8.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise LineClusterError(f"{path}: empty dataset file")
        cols = _header_names(header)
        if cols not in (["x", "y"], ["x", "y", "z"]):
            header = header.rstrip("\n")
            raise LineClusterError(f"{path}: expected header 'x,y[,z]', got {header}")
        table = _load_rows(fh, path, [("x", "f8"), ("y", "f8"), ("z", "i8")][: len(cols)])
    labels = None
    if len(cols) == 3:
        z = table["z"]
        out = z[(z < -128) | (z > 127)]
        if out.size:
            raise LineClusterError(
                f"{path}: label out of range (Python integer {out[0]} out of bounds for int8)")
        labels = z.astype(np.int8)
    return np.column_stack([table["x"], table["y"]]), labels


def _header_names(line: str) -> list[str]:
    """A header line's field names, stripped of spaces and quotes, lowercased."""
    return [c.strip().strip('"').lower() for c in line.rstrip("\n").split(",")]


def _load_rows(fh, path, dtype) -> np.ndarray:
    """The rest of the open file ``fh`` (past its one header line) as a
    structured array with ``dtype``'s fields, read from as many leading
    columns; later columns are ignored."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', dtype=dtype,
                              usecols=range(len(dtype)), ndmin=1)
    except (ValueError, OverflowError) as exc:
        raise LineClusterError(f"{path}: malformed row ({_name_file_line(fh, str(exc))})") from exc


# A loadtxt error numbers rows from the first line loadtxt read, skipping blank
# lines: the row of a bad value 0-based, any other row 1-based.
_NUMPY_ROW = re.compile(r" at row (\d+)")


def _name_file_line(fh, message: str) -> str:
    """numpy's loadtxt ``message`` with its row number replaced by the 1-based
    line of ``fh`` where that row starts, the header being line 1."""
    found = _NUMPY_ROW.search(message)
    if found is None:
        return message
    row = int(found.group(1)) - (0 if message.startswith("could not convert") else 1)
    fh.seek(0)
    fh.readline()
    quoted = False  # inside a quoted field that runs on past a line end
    for line_no, line in enumerate(fh, start=2):
        if not quoted and line != "\n":
            if row == 0:
                return f"{message[:found.start()]} at line {line_no}{message[found.end():]}"
            row -= 1
        quoted ^= line.count('"') % 2 == 1
    return message


def write_params_json(path, alpha: float, half_length: float, sigma: float, n_points: int, seed: int) -> None:
    payload = {
        "alpha": alpha,
        "half_length": half_length,
        "sigma": sigma,
        "n_points": int(n_points),
        "seed": int(seed),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_params_json(path) -> ModelParams:
    """Reconstruct cross-geometry model parameters from a params JSON."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise LineClusterError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise LineClusterError(f"{path}: params JSON must be an object, got {type(payload).__name__}")
    try:
        alpha, half_length, sigma = (
            as_float(payload[k], k) for k in ("alpha", "half_length", "sigma")
        )
        n_points, seed = (as_int(payload[k], k) for k in ("n_points", "seed"))
    except KeyError as exc:
        raise LineClusterError(f"{path}: missing key {exc} in params JSON") from exc
    except LineClusterError as exc:
        raise LineClusterError(f"{path}: bad value in params JSON ({exc})") from exc
    seg1, seg2 = standard_cross(alpha, half_length)
    return ModelParams(seg1=seg1, seg2=seg2, sigma=sigma, n_points=n_points, seed=seed)


def write_labels_csv(path, labels) -> None:
    z = np.asarray(labels).astype(np.int64)
    with open(path, "wb") as fh:
        fh.write(b"index,z_hat\n")
        fh.write(_integer_rows(np.arange(z.size), z))


def read_labels_csv(path) -> np.ndarray:
    """Read a labels CSV (header ``index,z_hat``, one row per point, indices a
    permutation of ``0..n-1``, each ``z_hat`` 1 or 2) into int8 labels by index.
    Rows are parsed as in ``read_points_csv``."""
    with open(path) as fh:
        if _header_names(fh.readline()) != ["index", "z_hat"]:
            raise LineClusterError(f"{path}: expected header 'index,z_hat'")
        table = _load_rows(fh, path, [("index", "i8"), ("z_hat", "i8")])
    idx, z = table["index"], table["z_hat"]
    bad_z = z[(z != 1) & (z != 2)]
    if bad_z.size:
        raise LineClusterError(f"{path}: z_hat must be 1 or 2, got {bad_z[0]}")
    # The first row whose index is out of range or already seen names the error.
    out = (idx < 0) | (idx >= idx.size)
    repeat = np.ones(idx.size, dtype=bool)
    repeat[np.unique(idx, return_index=True)[1]] = False
    first = np.flatnonzero(out | repeat)
    if first.size:
        row = first[0]
        problem = "out of range" if out[row] else "appears twice"
        raise LineClusterError(f"{path}: index {idx[row]} {problem}")
    labels = np.empty(idx.size, dtype=np.int8)
    labels[idx] = z
    return labels


_PAD = 0  # a byte no CSV field contains; dropped from the assembled rows


def _ascii_column(values: np.ndarray, text: np.ndarray) -> None:
    """Fill the (m, 1 + width) uint8 ``text`` with the integer ``values``: a sign
    byte, then the digits right-aligned; without its ``_PAD`` bytes a row is
    ``str(int(value))``. ``text`` must be wide enough for the largest magnitude."""
    mag = np.abs(values)
    width = text.shape[1] - 1
    # Dividing by a scalar is several times faster in 32 bits than in 64.
    rest = mag.astype(np.uint32 if width < 10 else np.uint64)
    text[:, 0] = (values < 0) * ord("-")
    for col in range(width, 0, -1):
        # Times 0 (= _PAD) for a leading zero; the last digit is always kept.
        text[:, col] = (rest % 10 + ord("0")) * ((rest > 0) | (col == width))
        rest //= 10


def _integer_rows(*columns: np.ndarray) -> np.ndarray:
    """The text of one line per row of the integer ``columns``, as uint8 bytes:
    fields comma-separated as ``str(int(value))``, each line ending in a
    newline. Assembled in one byte table, then the pads are dropped."""
    widths = [len(str(max(int(col.max()), -int(col.min())))) if col.size else 1
              for col in columns]
    # Per column a sign byte and its digits, then a comma (a newline after the last).
    table = np.empty((columns[0].size, sum(widths) + 2 * len(columns)), dtype=np.uint8)
    at = 0
    for col, width in zip(columns, widths):
        _ascii_column(col, table[:, at:at + 1 + width])
        at += 2 + width
        table[:, at - 1] = ord(",")
    table[:, -1] = ord("\n")
    flat = table.ravel()
    return flat[flat != _PAD]


# Pairs of the upper triangle per block of the numpy encoder (whole rows, at
# most this many unless one row holds more), so its memory does not grow with n.
_BLOCK_PAIRS = 2**14
# Smallest buffer of the C encoder; 36 n bytes hold a row's worst case below
# n = 10^11 (see encode_upper_csv in _scan.c).
_BUFFER_BYTES = 2**20


def write_similarity_csv(path, counts) -> None:
    """Write the nonzero upper-triangle entries of the square ``counts`` as
    ``similarity.csv``: header ``i,j,count``, then ``i,j,count`` lines in
    row-major order, each number as ``str(int(value))``.

    The file is written in blocks of whole rows, so memory stays bounded
    whatever n is. A C-contiguous int32 matrix (the scan's output) is encoded
    by the compiled library's ``encode_upper_csv`` into one reused buffer,
    when that library is already loaded or cached: a write never starts a
    compiler. Any other input, or no library, goes through the numpy encoder,
    by blocks of about ``_BLOCK_PAIRS`` pairs. Both give the same bytes.
    """
    mat = np.asarray(counts)
    kernel = hypergraph._compiled
    with open(path, "wb") as fh:
        fh.write(b"i,j,count\n")
        if (mat.dtype == np.int32 and mat.ndim == 2 and mat.shape[0] == mat.shape[1]
                and mat.flags.c_contiguous and kernel.ready(build_missing=False)):
            _write_upper_compiled(fh, mat, kernel)
        else:
            _write_upper_numpy(fh, mat)


def _write_upper_compiled(fh, mat: np.ndarray, kernel) -> None:
    """The rows of ``similarity.csv`` for ``mat`` through the C encoder, one
    buffer of max(1 MiB, 36 n) bytes refilled per block of rows."""
    n = mat.shape[0]
    buf = np.empty(max(_BUFFER_BYTES, 36 * n), dtype=np.uint8)
    view = memoryview(buf)
    row = 0
    while row < n:
        size, row = kernel.encode_upper_csv(mat, row, buf)
        fh.write(view[:size])


def _write_upper_numpy(fh, mat: np.ndarray) -> None:
    """The rows of ``similarity.csv`` for ``mat`` through ``_integer_rows``,
    a block of about ``_BLOCK_PAIRS`` pairs at a time."""
    rows, cols = mat.shape
    lo = 0
    while lo < rows:
        # Row lo is the longest of its block: rows shrink down the triangle.
        hi = min(rows, lo + max(1, _BLOCK_PAIRS // max(1, cols - 1 - lo)))
        # Columns past lo only: block entry (r, c) is mat[lo + r, lo + 1 + c].
        block = np.triu(mat[lo:hi, lo + 1:])
        ii, jj = np.nonzero(block)
        fh.write(_integer_rows(ii + lo, jj + (lo + 1), block[ii, jj].astype(np.int64)))
        lo = hi


def _cell(value) -> str:
    """One table cell, rendered by the value's type: None empty, a string with
    commas and newlines replaced (so it stays one field), a bool ``1``/``0``,
    an integer ``str(int(v))``, anything else ``fmt_float`` (nan as ``nan``)."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace(",", ";").replace("\n", " ")
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return fmt_float(value)


def _write_table(path, columns, rows) -> None:
    """A CSV of the header ``columns``, then one line per row of values."""
    lines = [",".join(columns)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_bounds_csv(path, rows: list[dict]) -> None:
    _write_table(path, BOUNDS_COLUMNS, ([row.get(col) for col in BOUNDS_COLUMNS] for row in rows))


def write_sweep_csv(path, rows) -> None:
    _write_table(path, SWEEP_COLUMNS, map(dataclasses.astuple, rows))


def to_jsonable(obj):
    """Recursively convert dataclasses/arrays/numpy scalars to JSON-safe values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj
