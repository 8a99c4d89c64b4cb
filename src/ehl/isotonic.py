"""Isotonic regression of binary outcomes on probability forecasts.

The fit maximizes the log-likelihood-ratio score

    sum_i  y_i log(g_i / p_i) + (1 - y_i) log((1 - g_i) / (1 - p_i))

over nondecreasing g, which coincides with the least-squares isotonic fit
and is computed by pool-adjacent-violators. Observations sharing a forecast
value are merged into one knot first, so fitted values are constant on ties.

Block arithmetic is exact: weights and outcome sums are integers, and the
violator comparison is done by cross-multiplication, so the block structure
never depends on floating-point rounding. Products are at most n^2 for n
observations, below 2^63 while n < 3e9, so int64 cannot overflow. The
blocks are computed once, as integers (count, outcome sum, knots covered),
and fitted, smoothed and out-of-sample values are all read from them.

Pooling runs in two phases. Vectorized passes first pool every maximal run
of adjacent blocks whose means do not increase, all at once; they stop when
no violator is left, when a few dozen blocks remain, or when a pass fails to
halve the block count (as under a rising staircase that ends in one heavy
block, which loses one block per pass). The classic stack algorithm then
finishes on the surviving blocks. The result is exact, not approximate:
pooling adjacent violators in any order reaches the same unique isotonic
solution (Best & Chakravarti 1990; de Leeuw, Hornik & Mair 2009), so every
block has the same integer sum and count, hence the same float mean, as
under the stack algorithm alone. The work is O(m) for m knots because the
passes shrink the block count geometrically.

The out-of-sample value at a new point is defined through two augmented
fits, one with an artificial success and one with an artificial failure
appended at the new point:

    q = g1 / (g1 + 1 - g0)

where g1 and g0 are the augmented fitted values there. An empty prefix
gives q = 1/2. The Laplace-smoothed fit replaces each pooled block mean
(sum / count) by (0.5 + sum) / (count + 1), which is strictly inside (0, 1),
and predicts between knots by linear interpolation with constant extension
beyond the outermost knots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import SampleSet, _freeze
from .errors import InputError


# Below this many blocks the stack algorithm costs less than one more
# vectorized pass: numpy calls carry a fixed overhead.
_STACK_BLOCKS = 32


def _stack_pool(
    ws: list[int], ss: list[int], ks: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """The stack algorithm on blocks given as Python ints (counts, outcome
    sums, knots per block): pools each block into its left neighbours while
    their mean is not below its own. Returns the pooled blocks."""
    bw: list[int] = []
    bs: list[int] = []
    bk: list[int] = []
    for cw, cs, ck in zip(ws, ss, ks):
        while bw and bs[-1] * cw >= cs * bw[-1]:
            cw += bw.pop()
            cs += bs.pop()
            ck += bk.pop()
        bw.append(cw)
        bs.append(cs)
        bk.append(ck)
    return bw, bs, bk


def _pool_blocks(w: np.ndarray, s: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Pooled blocks, given per-knot counts w and outcome sums s (int64, in
    knot order): Python-int lists of each block's count, outcome sum and
    number of knots, in knot order, with strictly increasing means."""
    bw = np.asarray(w, dtype=np.int64)
    bs = np.asarray(s, dtype=np.int64)
    m = bw.shape[0]
    if m <= _STACK_BLOCKS:
        return _stack_pool(bw.tolist(), bs.tolist(), [1] * m)
    bk = np.ones(m, dtype=np.int64)
    # Phase 1: pool every maximal run of adjacent violators at once. A block
    # starts a new group when its mean is strictly above its left neighbour's.
    while m > _STACK_BLOCKS:
        new = np.empty(m, dtype=bool)
        new[0] = True
        np.less(bs[:-1] * bw[1:], bs[1:] * bw[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        if starts.shape[0] == m:
            return bw.tolist(), bs.tolist(), bk.tolist()
        bw = np.add.reduceat(bw, starts)
        bs = np.add.reduceat(bs, starts)
        bk = np.add.reduceat(bk, starts)
        # a staircase under a heavy block shrinks by one block per pass
        if 2 * starts.shape[0] > m:
            break
        m = starts.shape[0]
    # Phase 2: the stack algorithm finishes on the surviving blocks.
    return _stack_pool(bw.tolist(), bs.tolist(), bk.tolist())


def _smoothed_values(bw, bs, bk) -> np.ndarray:
    """Per-knot smoothed values of pooled blocks: (0.5 + sum) / (count + 1)."""
    return np.repeat(np.divide(np.add(0.5, bs), np.add(bw, 1.0)), bk)


def _merge_sorted(ps: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse equal consecutive forecasts into knots.

    ps must be sorted ascending. Returns (knots, counts, sums) where counts
    and sums are int64 per-knot observation counts and outcome sums.
    """
    n = ps.shape[0]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(ps[1:], ps[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    knots = ps[starts]
    counts = np.diff(np.append(starts, n)).astype(np.int64)
    sums = np.add.reduceat(ys.astype(np.int64), starts)
    return knots, counts, sums


def _splice(a: np.ndarray, j: int, v) -> np.ndarray:
    """a with v inserted before position j; np.insert without its fixed
    per-call cost, which dominates on the few knots of a prefix state."""
    out = np.empty(a.shape[0] + 1, dtype=a.dtype)
    out[:j] = a[:j]
    out[j] = v
    out[j + 1:] = a[j:]
    return out


def _insert_merged(
    knots: np.ndarray, w: np.ndarray, s: np.ndarray, p: float, y: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merged-knot state after adding one observation (p, y)."""
    j = int(np.searchsorted(knots, p))
    if j < knots.shape[0] and knots[j] == p:
        w2 = w.copy()
        s2 = s.copy()
        w2[j] += 1
        s2[j] += y
        return knots, w2, s2
    return _splice(knots, j, p), _splice(w, j, 1), _splice(s, j, y)


def _block_mean_at(w: np.ndarray, s: np.ndarray, j: int) -> float:
    """Pooled block mean at knot j of the fit on per-knot counts w, sums s."""
    for cw, cs, ck in zip(*_pool_blocks(w, s)):
        if j < ck:
            # for sums below 2^53, int / int rounds exactly as numpy int64 division
            return cs / cw
        j -= ck


def _oos_from_merged(knots: np.ndarray, w: np.ndarray, s: np.ndarray, p_new: float) -> float:
    """Out-of-sample value at p_new given merged-knot prefix state."""
    j = int(np.searchsorted(knots, p_new))
    if j < knots.shape[0] and knots[j] == p_new:
        w2 = w.copy()
        w2[j] += 1
        s0 = s.copy()
    else:
        w2 = _splice(w, j, 1)
        s0 = _splice(s, j, 0)
    g0 = _block_mean_at(w2, s0, j)
    s0[j] += 1
    g1 = _block_mean_at(w2, s0, j)
    # g1 >= g0, so the denominator is at least 1
    return g1 / (g1 + 1.0 - g0)


def _check_knots(knots: np.ndarray) -> None:
    if not (np.all((knots >= 0.0) & (knots <= 1.0)) and np.all(np.diff(knots) > 0)):
        raise InputError("knots must be strictly increasing values in [0, 1]")


@dataclass(frozen=True)
class IsotonicFit:
    """Monotone fit on the distinct forecast values.

    Attributes
    ----------
    knots : ndarray
        Strictly increasing distinct forecast values in [0, 1].
    block_weights : ndarray
        Observation count at each knot (tie multiplicity).
    block_sums : ndarray
        Outcome sum at each knot.
    pool_weights, pool_sums, pool_sizes : ndarray
        The pooled blocks, in knot order: each block's observation count,
        outcome sum and number of knots. Block means strictly increase.
    """

    knots: np.ndarray
    block_weights: np.ndarray
    block_sums: np.ndarray
    pool_weights: np.ndarray
    pool_sums: np.ndarray
    pool_sizes: np.ndarray

    def __post_init__(self) -> None:
        for name in ("knots", "block_weights", "block_sums", "pool_weights", "pool_sums", "pool_sizes"):
            object.__setattr__(self, name, _freeze(np.array(getattr(self, name), copy=True)))
        if not (self.knots.shape == self.block_weights.shape == self.block_sums.shape):
            raise InputError("knot arrays must share one shape")
        if self.knots.size == 0:
            raise InputError("fit requires at least one knot")
        _check_knots(self.knots)
        bw, bs, bk = self.pool_weights, self.pool_sums, self.pool_sizes
        if not bw.shape == bs.shape == bk.shape or np.any(bk <= 0) or bk.sum() != self.knots.size:
            raise InputError("pooled block sizes must be positive and sum to the knot count")
        if np.any(bw <= 0) or np.any(bs[:-1] * bw[1:] >= bs[1:] * bw[:-1]):
            raise InputError("pooled block means must be strictly increasing")

    @property
    def values(self) -> np.ndarray:
        """Nondecreasing fitted values: each knot's pooled block mean."""
        return np.repeat(np.divide(self.pool_sums, self.pool_weights), self.pool_sizes)

    def __len__(self) -> int:
        return int(self.knots.size)


@dataclass(frozen=True)
class SmoothedFit:
    """Laplace-smoothed fit: values strictly inside (0, 1), one per knot."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("knots", "values"):
            object.__setattr__(self, name, _freeze(np.array(getattr(self, name), copy=True)))
        if self.knots.shape != self.values.shape or self.knots.size == 0:
            raise InputError("smoothed fit requires matching nonempty knot and value arrays")
        _check_knots(self.knots)
        if not np.all((self.values > 0.0) & (self.values < 1.0)):
            raise InputError("smoothed values must lie strictly inside (0, 1)")


def pava_fit(samples) -> IsotonicFit:
    """Isotonic fit of outcomes on forecasts via pool-adjacent-violators.

    Accepts any object with ``p`` and ``y`` array attributes. Ties in p are
    merged before pooling, so the result is invariant to input order.
    """
    order = np.argsort(samples.p, kind="stable")
    ps = np.asarray(samples.p, dtype=float)[order]
    ys = np.asarray(samples.y, dtype=np.int64)[order]
    knots, w, s = _merge_sorted(ps, ys)
    return IsotonicFit(knots, w, s, *_pool_blocks(w, s))


def laplace_smooth(fit: IsotonicFit) -> SmoothedFit:
    """Smooth a fit's pooled block means toward 1/2.

    Each pooled block, with count W and outcome sum S, gets the smoothed
    value (0.5 + S) / (W + 1) at all of its knots. Smoothed values are
    strictly inside (0, 1) even for pure-0 or pure-1 blocks.
    """
    return SmoothedFit(fit.knots, _smoothed_values(fit.pool_weights, fit.pool_sums, fit.pool_sizes))


def interpolate(fit: SmoothedFit, p: float | Sequence[float] | np.ndarray):
    """Evaluate a smoothed fit at new points.

    Linear interpolation between adjacent knots; constant extension below
    the first and above the last knot. Scalar in, scalar out.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(np.isnan(arr)) or np.any((arr < 0.0) | (arr > 1.0)):
        raise InputError("interpolation points must lie in [0, 1]")
    out = np.interp(arr, fit.knots, fit.values)
    if np.isscalar(p) or arr.ndim == 0:
        return float(out)
    return out


def oos_predict(
    prefix_p: Sequence[float] | np.ndarray,
    prefix_y: Sequence[int] | np.ndarray,
    p_new: float,
) -> float:
    """Out-of-sample isotonic value at p_new given prior observations.

    Fits twice with an artificial observation at p_new, once a success and
    once a failure, and combines the fitted values g1 and g0 there as
    g1 / (g1 + 1 - g0). The empty prefix yields 1/2. The result is a valid
    probability and is nondecreasing in p_new for a fixed prefix.
    """
    if not 0.0 <= p_new <= 1.0:
        raise InputError(f"p_new must lie in [0, 1], got {p_new!r}")
    if np.size(prefix_p) == 0 and np.size(prefix_y) == 0:
        return 0.5
    prefix = SampleSet(prefix_p, prefix_y)
    order = np.argsort(prefix.p, kind="stable")
    knots, w, s = _merge_sorted(prefix.p[order], prefix.y[order])
    return _oos_from_merged(knots, w, s, p_new)
