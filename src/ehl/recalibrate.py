"""Forecast recalibration by Laplace-smoothed isotonic regression.

A recalibration sample (forecasts plus realized outcomes) yields a map from
forecast to adjusted probability: fit the isotonic curve, smooth each pooled
block toward 1/2, interpolate between knots. The bagged variant averages the
map over bootstrap resamples of the recalibration sample, which removes most
of the staircase artifact of a single fit and supplies a pointwise band from
the bag quantiles.

The sample is sorted once. A bag is the multiplicity of each sorted row in
its bootstrap draw, so it needs no copy and no sort of its own, and its fit
is kept as the first and last knot of each pooled block, which describe the
same curve. apply() maps each distinct point once.

Mapped values are always strictly inside (0, 1), so recalibrated forecasts
can be fed straight into the likelihood-ratio e-value tests.
"""

from __future__ import annotations

import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .data import SampleSet, _write_csv
from .errors import InputError, check_int
from .isotonic import SmoothedFit, _block_ends_fit, _merged
from .numeric import _replicates, seed_key

DEFAULT_BAGS = 100
DEFAULT_BAND = (0.01, 0.99)
DEFAULT_GRID_SIZE = 1001


@dataclass(frozen=True, eq=False)
class RecalCurve:
    """Recalibration map with its export grid.

    grid/mean/q_low/q_high describe the curve on an even grid over [0, 1]
    for plotting and CSV export; apply() evaluates the exact map (the mean
    of the underlying smoothed fits) at arbitrary points. For an unbagged
    curve the band degenerates to the curve itself. Each fit holds the
    first and last knot of each of its pooled blocks, both with the block's
    smoothed value.
    """

    grid: np.ndarray
    mean: np.ndarray
    q_low: np.ndarray
    q_high: np.ndarray
    band: tuple[float, float]
    n_bags: int
    fits: tuple[SmoothedFit, ...]

    def __post_init__(self) -> None:
        for name in ("grid", "mean", "q_low", "q_high"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.grid.shape == self.mean.shape == self.q_low.shape == self.q_high.shape):
            raise InputError("curve arrays must share one shape")
        if not self.fits:
            raise InputError("curve requires at least one fit")

    def apply(self, p: Sequence[float] | np.ndarray) -> np.ndarray:
        """Map forecasts through the recalibration curve (exact, not via
        the export grid)."""
        arr = np.asarray(p, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise InputError("forecasts to recalibrate must lie in [0, 1]")
        # each distinct point sums its bags' values once, in bag order; the
        # inverse is flat on numpy 1.x and shaped like arr on 2.x, so reshape
        points, inverse = np.unique(arr, return_inverse=True)
        total = np.zeros(points.shape, dtype=float)
        for fit in self.fits:
            total += np.interp(points, fit.knots, fit.values)
        out = (total / len(self.fits))[inverse].reshape(arr.shape)
        return out if arr.ndim else out[()]

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    def write_csv(self, dest: str | Path | IO[str]) -> None:
        """Write the export grid as CSV (p,mean,q_low,q_high, floats by
        repr) to a path or a text handle, a block of rows at a time."""
        columns = [(repr, arr) for arr in (self.grid, self.mean, self.q_low, self.q_high)]
        _write_csv(dest, ["p", "mean", "q_low", "q_high"], columns)


def _curve_from_fits(
    fits: tuple[SmoothedFit, ...],
    band: tuple[float, float],
    grid_size: int,
) -> RecalCurve:
    grid = np.linspace(0.0, 1.0, grid_size)
    values = np.empty((len(fits), grid_size))
    for i, fit in enumerate(fits):
        values[i] = np.interp(grid, fit.knots, fit.values)
    mean = values.mean(axis=0)
    if len(fits) == 1:
        q_low = mean.copy()
        q_high = mean.copy()
    else:
        q_low = np.quantile(values, band[0], axis=0)
        q_high = np.quantile(values, band[1], axis=0)
    return RecalCurve(grid, mean, q_low, q_high, band, len(fits), fits)


def isotonic_recalibrate(recal: SampleSet, grid_size: int = DEFAULT_GRID_SIZE) -> RecalCurve:
    """Single smoothed isotonic fit on the recalibration sample."""
    # a curve grid holds both ends of [0, 1]
    check_int("grid size", grid_size, 2)
    fit = _block_ends_fit(*_merged(recal)[2:])
    return _curve_from_fits((fit,), DEFAULT_BAND, grid_size)


def bagged_recalibrate(
    recal: SampleSet,
    n_bags: int = DEFAULT_BAGS,
    seed: int | Sequence[int] = 0,
    *,
    band: tuple[float, float] = DEFAULT_BAND,
    grid_size: int = DEFAULT_GRID_SIZE,
    threads: int = 1,
) -> RecalCurve:
    """Average the smoothed isotonic map over bootstrap resamples.

    Bag b resamples n observations with replacement from a generator seeded
    by (seed, b), so results are reproducible and independent of the thread
    count. The band is the pointwise (band[0], band[1]) quantile across bags
    on the export grid.
    """
    check_int("grid size", grid_size, 2)
    check_int("n_bags", n_bags, 1)
    check_int("threads", threads, 1)
    key = seed_key(seed)
    if not 0.0 <= band[0] < band[1] <= 1.0:
        raise InputError(f"band levels must satisfy 0 <= low < high <= 1, got {band}")
    n = len(recal)
    order, ys, knots, w, _ = _merged(recal)
    # each knot's first sorted row, to sum a bag's row counts per knot; when
    # every row is its own knot they are the knot counts already, and
    # reduceat over one-row segments would cost about 15 ms a bag at 10^6
    starts = None if knots.size == n else np.cumsum(w) - w

    def bag(rng: np.random.Generator) -> SmoothedFit:
        # each sorted row's multiplicity in the bag's draw, summed per knot
        cnt = np.bincount(rng.integers(0, n, size=n), minlength=n)[order]
        if starts is None:
            return _block_ends_fit(knots, cnt, cnt * ys)
        return _block_ends_fit(
            knots, np.add.reduceat(cnt, starts), np.add.reduceat(cnt * ys, starts)
        )

    def bags(b0: int, rngs: Iterable[np.random.Generator]) -> list[SmoothedFit]:
        return [bag(rng) for rng in rngs]

    fits = _replicates(
        key, n_bags, bags, threads=threads, n=n, pool=ThreadPoolExecutor
    )
    return _curve_from_fits(tuple(fits), band, grid_size)
