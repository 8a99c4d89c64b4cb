"""Forecast recalibration by Laplace-smoothed isotonic regression.

A recalibration sample (forecasts plus realized outcomes) yields a map from
forecast to adjusted probability: fit the isotonic curve, smooth each pooled
block toward 1/2, interpolate between knots. The bagged variant averages the
map over bootstrap resamples of the recalibration sample, which removes most
of the staircase artifact of a single fit and supplies a pointwise band from
the bag quantiles.

Mapped values are always strictly inside (0, 1), so recalibrated forecasts
can be fed straight into the likelihood-ratio e-value tests.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import SampleSet
from .errors import InputError
from .isotonic import SmoothedFit, laplace_smooth, pava_fit
from .numeric import seed_key

DEFAULT_BAGS = 100
DEFAULT_BAND = (0.01, 0.99)
DEFAULT_GRID_SIZE = 1001


@dataclass(frozen=True)
class RecalCurve:
    """Recalibration map with its export grid.

    grid/mean/q_low/q_high describe the curve on an even grid over [0, 1]
    for plotting and CSV export; apply() evaluates the exact map (the mean
    of the underlying smoothed fits) at arbitrary points. For an unbagged
    curve the band degenerates to the curve itself.
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
        total = np.zeros(arr.shape, dtype=float)
        for fit in self.fits:
            total += np.interp(arr, fit.knots, fit.values)
        return total / len(self.fits)

    def to_csv(self) -> str:
        lines = ["p,mean,q_low,q_high"]
        for i in range(self.grid.size):
            cells = (self.grid[i], self.mean[i], self.q_low[i], self.q_high[i])
            lines.append(",".join(repr(float(v)) for v in cells))
        return "\n".join(lines) + "\n"


def _curve_from_fits(
    fits: tuple[SmoothedFit, ...],
    band: tuple[float, float],
    grid_size: int,
) -> RecalCurve:
    if grid_size < 2:
        raise InputError(f"grid size must be at least 2, got {grid_size}")
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
    fit = laplace_smooth(pava_fit(recal))
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
    if n_bags < 1:
        raise InputError(f"n_bags must be positive, got {n_bags}")
    if not 0.0 <= band[0] < band[1] <= 1.0:
        raise InputError(f"band levels must satisfy 0 <= low < high <= 1, got {band}")
    if threads < 1:
        raise InputError(f"threads must be positive, got {threads}")
    key = seed_key(seed)
    n = len(recal)
    fits: list[SmoothedFit | None] = [None] * n_bags

    def run(lo: int, hi: int) -> None:
        for b in range(lo, hi):
            rng = np.random.default_rng([*key, b])
            idx = rng.integers(0, n, size=n)
            fits[b] = laplace_smooth(pava_fit(recal.take(idx)))

    if threads == 1 or n_bags == 1:
        run(0, n_bags)
    else:
        step = -(-n_bags // threads)
        spans = [(lo, min(lo + step, n_bags)) for lo in range(0, n_bags, step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in pool.map(lambda span: run(*span), spans):
                pass

    return _curve_from_fits(tuple(fits), band, grid_size)
