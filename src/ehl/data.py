"""Sample containers and CSV input/output.

A sample is a vector of probability forecasts paired with binary outcomes.
Arrays are validated once at construction and frozen (read-only views), so
downstream code can share them across threads without copying.

CSV files of plain numbers load through numpy's C reader, which reads a
named file of at least _BLOCK_READ_BYTES in blocks. Any other file,
including one with an id or label column, takes the row-by-row csv loop,
and both paths give the same arrays and the same row-numbered errors (see
load_samples for the one exception).
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import DegenerateSplitError, InputError, check_fraction, check_int


# rows that the CSV writer formats at once
_DUMP_ROWS = 1024

# A named file of at least this many bytes is handed to np.loadtxt by name,
# so that its C reader takes the file in blocks rather than one Python line
# at a time. numpy's opener costs about 0.1 ms more per file, which small
# files do not win back. load_samples on p,y files, min of 15 interleaved
# runs, handle -> blocks (2-core Intel Xeon, Python 3.11, numpy 2.4):
#   continuous:  133 B 0.09 -> 0.19 ms, 8.5 kB 0.32 -> 0.35 ms,
#                17 kB 0.59 -> 0.59 ms, 34 kB 1.08 -> 0.96 ms,
#                4.2 MB 120 -> 94 ms;
#   two-decimal: 5.5 kB 0.31 -> 0.34 ms, 22 kB 0.86 -> 0.73 ms,
#                1.4 MB 54 -> 33 ms.
# Blocks break even near 16 KiB; the floor is twice that.
_BLOCK_READ_BYTES = 32 * 1024

# suffixes that numpy's opener decompresses, which the row loop does not
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Probability forecasts p in [0, 1] with outcomes y in {0, 1}, and
    optional covariates x and true conditional probabilities pi_bar
    (available in simulations, absent in applications)."""

    p: np.ndarray
    y: np.ndarray
    x: np.ndarray | None = None
    pi_bar: np.ndarray | None = None

    def __post_init__(self) -> None:
        p = np.array(self.p, dtype=float, copy=True).reshape(-1)
        y = np.array(self.y, dtype=np.int64, copy=True).reshape(-1)
        if p.size == 0:
            raise InputError("sample must contain at least one observation")
        if p.shape != y.shape:
            raise InputError(f"p and y lengths differ: {p.size} vs {y.size}")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise InputError("forecasts must lie in [0, 1]")
        if not np.all((y == 0) | (y == 1)):
            raise InputError("outcomes must be 0 or 1")
        object.__setattr__(self, "p", _freeze(p))
        object.__setattr__(self, "y", _freeze(y))
        for name in ("x", "pi_bar"):
            val = getattr(self, name)
            if val is None:
                continue
            arr = np.array(val, dtype=float, copy=True).reshape(-1)
            if arr.size != p.size:
                raise InputError(f"{name} length {arr.size} does not match sample size {p.size}")
            if name == "pi_bar" and not np.all((arr >= 0.0) & (arr <= 1.0)):
                raise InputError("pi_bar must lie in [0, 1]")
            object.__setattr__(self, name, _freeze(arr))

    def __len__(self) -> int:
        return int(self.p.size)

    @property
    def has_boundary_forecasts(self) -> bool:
        return bool(np.any((self.p == 0.0) | (self.p == 1.0)))

    def take(self, indices: np.ndarray) -> "SampleSet":
        return SampleSet(
            self.p[indices],
            self.y[indices],
            None if self.x is None else self.x[indices],
            None if self.pi_bar is None else self.pi_bar[indices],
        )

    def with_p(self, p: np.ndarray) -> "SampleSet":
        return SampleSet(p, self.y, self.x, self.pi_bar)


# another name for SampleSet, kept because it is exported and callers
# construct it
LabeledSampleSet = SampleSet


def _parse_float(text: str, column: str, row: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"row {row}: malformed number {text!r} in column {column!r}") from None
    return value


def load_samples(source: str | Path | IO[str]) -> SampleSet:
    """Read a forecast sample from CSV.

    Requires columns ``p`` and ``y``; columns ``x`` and ``pi_bar`` are picked
    up when present. Errors carry the 1-based data row number. Rows with
    p outside [0, 1], y outside {0, 1}, or unparseable numbers are rejected;
    there is no imputation.

    A seekable source whose cells are all plain numbers is parsed in C by
    np.loadtxt, which reads every number with the routine float() uses. A
    named file of at least _BLOCK_READ_BYTES goes to it by name, so that it
    reads the file in blocks, unless numpy would decompress the file for
    its suffix or the name no longer leads to the open file; smaller files
    and streams go through the open handle a line at a time. Anything the C
    reader does not accept exactly as the row loop would (a quoted,
    duplicate or malformed header, a quoted or non-numeric cell, an id or
    label column, ragged rows, a value out of range, no data rows) sends
    the source back to its start and through the row-by-row csv loop, so
    results and errors are the same either way; that loop is also the only
    path for sources that cannot seek. The one exception is a field longer
    than csv.field_size_limit() characters. The C reader reads such a
    number; the row loop refuses its row with an InputError that gives the
    row number, and so it refuses a file whose long field is an id or label.

    A UTF-8 byte-order mark, as spreadsheet programs write at the start of
    a CSV, is skipped, in a file and at the start of a text stream.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="", encoding="utf-8-sig") as fh:
            return _load(fh, _block_path(source, fh))
    return _load(source, None)


def _block_path(source: str | Path, fh: IO[str]) -> str | None:
    """The absolute name under which np.loadtxt reads source in blocks, or
    None when it should read fh. An absolute name is never taken for a URL."""
    name = os.path.abspath(source)
    opened = os.fstat(fh.fileno())
    if name.endswith(_COMPRESSED) or opened.st_size < _BLOCK_READ_BYTES:
        return None
    # the header is read from fh and the numbers by name: both must come
    # from one file, even if the name was since replaced or removed
    try:
        named = os.stat(name)
    except OSError:
        return None
    if (named.st_dev, named.st_ino) != (opened.st_dev, opened.st_ino):
        return None
    return name


def _load(fh: IO[str], path: str | None) -> SampleSet:
    seekable = getattr(fh, "seekable", None)
    if seekable is not None and seekable():
        start = fh.tell()
        samples = _load_numeric(fh, path)
        if samples is not None:
            return samples
        fh.seek(start)
    return _load_rows(fh)


def _load_numeric(fh: IO[str], path: str | None) -> SampleSet | None:
    """The sample, when every row is plain numbers that pass the row rules;
    None otherwise, with fh left anywhere."""
    line = fh.readline().removeprefix("\ufeff")
    # a quoted header field may run on over later lines
    if '"' in line:
        return None
    try:
        header = next(csv.reader([line.rstrip("\r\n")]), [])
    except csv.Error:
        return None
    if "p" not in header or "y" not in header or len(set(header)) != len(header):
        return None
    table = _numbers(fh, path)
    if table is None or table.shape[1] != len(header) or table.shape[0] == 0:
        return None
    cols = {
        name: table[:, header.index(name)]
        for name in ("p", "y", "x", "pi_bar")
        if name in header
    }
    p, y, pi_bar = cols["p"], cols["y"], cols.get("pi_bar")
    if not np.all((p >= 0.0) & (p <= 1.0)) or not np.all((y == 0.0) | (y == 1.0)):
        return None
    if pi_bar is not None and not np.all((pi_bar >= 0.0) & (pi_bar <= 1.0)):
        return None
    return SampleSet(p, y.astype(np.int64), cols.get("x"), pi_bar)


def _numbers(fh: IO[str], path: str | None) -> np.ndarray | None:
    """The data rows after fh's header as a 2-d float table, read from fh or,
    when path is given, from the file of that name; None when numpy refuses
    them."""
    try:
        with warnings.catch_warnings():
            # loadtxt warns instead of failing when there are no data rows
            warnings.simplefilter("error")
            if path is not None:
                try:
                    return np.loadtxt(
                        path, delimiter=",", comments=None, quotechar=None, ndmin=2,
                        skiprows=1, encoding="utf-8-sig",
                    )
                except OSError:
                    # the file could not be opened again by name
                    pass
            return np.loadtxt(fh, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except (ValueError, UserWarning):
        return None


def _records(reader: csv.DictReader) -> Iterator[tuple[int, dict]]:
    """(data row number, record) of each row of reader, 1-based; a row that
    the csv module cannot read, such as one with a field longer than
    csv.field_size_limit(), raises InputError with its number."""
    row_num = 0
    try:
        for row_num, record in enumerate(reader, start=1):
            yield row_num, record
    except csv.Error as exc:
        raise InputError(f"row {row_num + 1}: {exc}") from None


def _load_rows(fh: IO[str]) -> SampleSet:
    reader = csv.DictReader(fh)
    try:
        header = reader.fieldnames
    except csv.Error as exc:
        raise InputError(f"header: {exc}") from None
    if header is None:
        raise InputError("empty input: no CSV header")
    if header and header[0].startswith("\ufeff"):
        header = reader.fieldnames = [header[0][1:], *header[1:]]
    for required in ("p", "y"):
        if required not in header:
            raise InputError(f"missing required column {required!r} (header: {header})")
    optional = [name for name in ("x", "pi_bar") if name in header]

    ps: list[float] = []
    ys: list[int] = []
    extras: dict[str, list[float]] = {name: [] for name in optional}
    for row_num, record in _records(reader):
        raw_p = record.get("p")
        raw_y = record.get("y")
        if raw_p is None or raw_y is None or raw_p == "" or raw_y == "":
            raise InputError(f"row {row_num}: missing value for p or y")
        p = _parse_float(raw_p, "p", row_num)
        if math.isnan(p) or not 0.0 <= p <= 1.0:
            raise InputError(f"row {row_num}: p={raw_p} outside [0, 1]")
        y_val = _parse_float(raw_y, "y", row_num)
        if y_val not in (0.0, 1.0):
            raise InputError(f"row {row_num}: y={raw_y} is not 0 or 1")
        for name in optional:
            raw = record.get(name)
            if raw is None or raw == "":
                raise InputError(f"row {row_num}: missing value in column {name!r}")
            value = _parse_float(raw, name, row_num)
            if name == "pi_bar" and (math.isnan(value) or not 0.0 <= value <= 1.0):
                raise InputError(f"row {row_num}: pi_bar={raw} outside [0, 1]")
            extras[name].append(value)
        ps.append(p)
        ys.append(int(y_val))
    if not ps:
        raise InputError("empty input: no data rows")
    return SampleSet(
        np.array(ps),
        np.array(ys),
        np.array(extras["x"]) if "x" in extras else None,
        np.array(extras["pi_bar"]) if "pi_bar" in extras else None,
    )


def dump_samples(samples: SampleSet, dest: str | Path | IO[str]) -> None:
    """Write a sample as CSV that load_samples reads back without loss.

    Floats are written with repr (shortest round-trip form), outcomes as
    integers, lines terminated with a bare newline for byte-stable output.
    """
    names = ["p", "y"]
    columns = [(repr, samples.p), (str, samples.y)]
    for name in ("x", "pi_bar"):
        values = getattr(samples, name)
        if values is not None:
            names.append(name)
            columns.append((repr, values))
    _write_csv(dest, names, columns)


def _write_csv(dest: str | Path | IO[str], names: list[str], columns: list) -> None:
    """Write (format, array) columns under a header of names to a path or a
    text handle, with bare newlines."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", newline="") as fh:
            _write_csv(fh, names, columns)
        return
    dest.write(",".join(names) + "\n")
    # formatted a column at a time, in blocks of rows so that the text held
    # at once stays small
    for lo in range(0, columns[0][1].size, _DUMP_ROWS):
        cells = [map(form, col[lo:lo + _DUMP_ROWS].tolist()) for form, col in columns]
        dest.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _train_size(n: int, fraction: float) -> int:
    """Size floor(n * fraction) of a split's estimation part.

    Raises InputError when n or fraction is out of range, and
    DegenerateSplitError when either part would be empty.
    """
    check_int("n", n, 1)
    check_fraction("split fraction", fraction)
    # tolerance absorbs float under-representation of exact integer products
    k = int(math.floor(n * fraction + 1e-9))
    if k < 1 or n - k < 1:
        raise DegenerateSplitError(
            f"split of n={n} at fraction={fraction} leaves an empty part (train size {k})"
        )
    return k


def split_indices(
    n: int, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Partition range(n) into a size-floor(n * fraction) estimation part and
    its complement, drawn without replacement.

    Both index arrays come back sorted. Raises DegenerateSplitError when
    either part would be empty. Consumes one permutation from rng, so
    repeated calls on the same generator give fresh splits.
    """
    k = _train_size(n, fraction)
    perm = rng.permutation(n)
    return np.sort(perm[:k]), np.sort(perm[k:])

