"""Sample containers and CSV input/output.

A sample is a vector of probability forecasts paired with binary outcomes.
Arrays are validated once at construction and frozen (read-only views), so
downstream code can share them across threads without copying.

CSV files of plain numbers load through numpy's C reader; any other file
takes the row-by-row csv loop, and both give the same arrays and the same
row-numbered errors (see load_samples).
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import DegenerateSplitError, InputError


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SampleSet:
    """Probability forecasts p in [0, 1] with outcomes y in {0, 1}."""

    p: np.ndarray
    y: np.ndarray

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

    def __len__(self) -> int:
        return int(self.p.size)

    @property
    def has_boundary_forecasts(self) -> bool:
        return bool(np.any((self.p == 0.0) | (self.p == 1.0)))

    def take(self, indices: np.ndarray) -> "SampleSet":
        return SampleSet(self.p[indices], self.y[indices])

    def with_p(self, p: np.ndarray) -> "SampleSet":
        return SampleSet(p, self.y)


@dataclass(frozen=True)
class LabeledSampleSet(SampleSet):
    """SampleSet extended with optional covariates x and true conditional
    probabilities pi_bar (available in simulations, absent in applications)."""

    x: np.ndarray | None = None
    pi_bar: np.ndarray | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        n = self.p.size
        for name in ("x", "pi_bar"):
            val = getattr(self, name)
            if val is None:
                continue
            arr = np.array(val, dtype=float, copy=True).reshape(-1)
            if arr.size != n:
                raise InputError(f"{name} length {arr.size} does not match sample size {n}")
            if name == "pi_bar" and not np.all((arr >= 0.0) & (arr <= 1.0)):
                raise InputError("pi_bar must lie in [0, 1]")
            object.__setattr__(self, name, _freeze(arr))

    def take(self, indices: np.ndarray) -> "LabeledSampleSet":
        return LabeledSampleSet(
            self.p[indices],
            self.y[indices],
            None if self.x is None else self.x[indices],
            None if self.pi_bar is None else self.pi_bar[indices],
        )

    def with_p(self, p: np.ndarray) -> "LabeledSampleSet":
        return LabeledSampleSet(p, self.y, self.x, self.pi_bar)


def _parse_float(text: str, column: str, row: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"row {row}: malformed number {text!r} in column {column!r}") from None
    return value


def load_samples(source: str | Path | IO[str]) -> LabeledSampleSet:
    """Read a forecast sample from CSV.

    Requires columns ``p`` and ``y``; columns ``x`` and ``pi_bar`` are picked
    up when present. Errors carry the 1-based data row number. Rows with
    p outside [0, 1], y outside {0, 1}, or unparseable numbers are rejected;
    there is no imputation.

    A seekable source whose cells are all plain numbers is parsed in C by
    np.loadtxt, which reads every number with the routine float() uses.
    Anything that path does not accept exactly as the row loop would (a
    quoted, duplicate or malformed header, a quoted or non-numeric cell, a
    ragged row, a value out of range, no data rows) sends the source back
    to its start and through the row-by-row csv loop, so results and
    errors are the same either way; that loop is also the only path for
    sources that cannot seek.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="") as fh:
            return _load(fh)
    return _load(source)


def _load(fh: IO[str]) -> LabeledSampleSet:
    seekable = getattr(fh, "seekable", None)
    if seekable is not None and seekable():
        start = fh.tell()
        samples = _load_numeric(fh)
        if samples is not None:
            return samples
        fh.seek(start)
    return _load_rows(fh)


def _load_numeric(fh: IO[str]) -> LabeledSampleSet | None:
    """The sample, when every row is plain numbers that pass the row rules;
    None otherwise, with fh left anywhere."""
    line = fh.readline()
    # a quoted header field may run on over later lines
    if '"' in line:
        return None
    try:
        header = next(csv.reader([line.rstrip("\r\n")]), [])
    except csv.Error:
        return None
    if "p" not in header or "y" not in header or len(set(header)) != len(header):
        return None
    try:
        with warnings.catch_warnings():
            # loadtxt warns instead of failing when there are no data rows
            warnings.simplefilter("error")
            table = np.loadtxt(fh, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except (ValueError, UserWarning):
        return None
    if table.shape[0] == 0 or table.shape[1] != len(header):
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
    return LabeledSampleSet(p, y.astype(np.int64), cols.get("x"), pi_bar)


def _load_rows(fh: IO[str]) -> LabeledSampleSet:
    reader = csv.DictReader(fh)
    header = reader.fieldnames
    if header is None:
        raise InputError("empty input: no CSV header")
    for required in ("p", "y"):
        if required not in header:
            raise InputError(f"missing required column {required!r} (header: {header})")
    optional = [name for name in ("x", "pi_bar") if name in header]

    ps: list[float] = []
    ys: list[int] = []
    extras: dict[str, list[float]] = {name: [] for name in optional}
    for row_num, record in enumerate(reader, start=1):
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
    return LabeledSampleSet(
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
    if isinstance(dest, (str, Path)):
        with open(dest, "w", newline="") as fh:
            _dump(samples, fh)
    else:
        _dump(samples, dest)


def _dump(samples: SampleSet, fh: IO[str]) -> None:
    columns = ["p", "y"]
    x = getattr(samples, "x", None)
    pi_bar = getattr(samples, "pi_bar", None)
    if x is not None:
        columns.append("x")
    if pi_bar is not None:
        columns.append("pi_bar")
    fh.write(",".join(columns) + "\n")
    for i in range(len(samples)):
        cells = [repr(float(samples.p[i])), str(int(samples.y[i]))]
        if x is not None:
            cells.append(repr(float(x[i])))
        if pi_bar is not None:
            cells.append(repr(float(pi_bar[i])))
        fh.write(",".join(cells) + "\n")


def samples_to_csv(samples: SampleSet) -> str:
    buf = io.StringIO()
    _dump(samples, buf)
    return buf.getvalue()


def _train_size(n: int, fraction: float) -> int:
    """Size floor(n * fraction) of a split's estimation part.

    Raises InputError when n or fraction is out of range, and
    DegenerateSplitError when either part would be empty.
    """
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if not 0.0 < fraction < 1.0:
        raise InputError(f"split fraction must lie strictly in (0, 1), got {fraction}")
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


def bernoulli(p: Iterable[float], rng: np.random.Generator) -> np.ndarray:
    """Outcomes y_i ~ Bernoulli(p_i), one uniform per observation."""
    arr = np.asarray(p, dtype=float)
    return (rng.random(arr.shape) < arr).astype(np.int64)
