"""Isotonic regression of binary outcomes on probability forecasts.

The fit maximizes the log-likelihood-ratio score

    sum_i  y_i log(g_i / p_i) + (1 - y_i) log((1 - g_i) / (1 - p_i))

over nondecreasing g, which coincides with the least-squares isotonic fit
and is computed by pool-adjacent-violators. Observations sharing a forecast
value are merged into one knot first, so fitted values are constant on ties.

Block arithmetic is exact: weights and outcome sums are integers, and the
violator comparison is done by cross-multiplication, so the block structure
never depends on floating-point rounding. Products are at most n^2 for n
observations, below 2^63 while n < 3e9, so int64 cannot overflow. Fitted
block values are the pooled outcome means, computed once per block.

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

from .errors import InputError


# Below this many blocks the stack algorithm costs less than one more
# vectorized pass, and below this many knots building the output in Python
# costs less than np.repeat: numpy calls carry a fixed overhead.
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


def _pool_values(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Pooled block mean at each knot, given per-knot counts w and outcome
    sums s (int64, in knot order)."""
    bw = np.asarray(w, dtype=np.int64)
    bs = np.asarray(s, dtype=np.int64)
    m = bw.shape[0]
    if m <= _STACK_BLOCKS:
        out: list[float] = []
        # for sums below 2^53, int / int rounds exactly as numpy int64 division
        for cw, cs, ck in zip(*_stack_pool(bw.tolist(), bs.tolist(), [1] * m)):
            out += [cs / cw] * ck
        return np.array(out, dtype=np.float64)
    bk = np.ones(m, dtype=np.int64)
    # Phase 1: pool every maximal run of adjacent violators at once. A block
    # starts a new group when its mean is strictly above its left neighbour's.
    while m > _STACK_BLOCKS:
        new = np.empty(m, dtype=bool)
        new[0] = True
        np.less(bs[:-1] * bw[1:], bs[1:] * bw[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        if starts.shape[0] == m:
            return np.repeat(bs / bw, bk)
        bw = np.add.reduceat(bw, starts)
        bs = np.add.reduceat(bs, starts)
        bk = np.add.reduceat(bk, starts)
        # a staircase under a heavy block shrinks by one block per pass
        if 2 * starts.shape[0] > m:
            break
        m = starts.shape[0]
    # Phase 2: the stack algorithm finishes on the surviving blocks.
    pw, ps, pk = _stack_pool(bw.tolist(), bs.tolist(), bk.tolist())
    return np.repeat(np.array(ps, dtype=np.int64) / np.array(pw, dtype=np.int64), pk)


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
    return np.insert(knots, j, p), np.insert(w, j, 1), np.insert(s, j, y)


def _oos_from_merged(knots: np.ndarray, w: np.ndarray, s: np.ndarray, p_new: float) -> float:
    """Out-of-sample value at p_new given merged-knot prefix state."""
    j = int(np.searchsorted(knots, p_new))
    if j < knots.shape[0] and knots[j] == p_new:
        w2 = w.copy()
        w2[j] += 1
        s0 = s.copy()
    else:
        w2 = np.insert(w, j, 1)
        s0 = np.insert(s, j, 0)
    g0 = float(_pool_values(w2, s0)[j])
    s0[j] += 1
    g1 = float(_pool_values(w2, s0)[j])
    # g1 >= g0, so the denominator is at least 1
    return g1 / (g1 + 1.0 - g0)


def _laplace_values(values: np.ndarray, w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per-knot Laplace-smoothed values: blocks are maximal runs of equal
    fitted values; each block's (0.5 + sum) / (count + 1) is assigned to
    every knot it covers."""
    m = values.shape[0]
    new = np.empty(m, dtype=bool)
    new[0] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    bw = np.add.reduceat(w, starts)
    bs = np.add.reduceat(s, starts)
    per_block = (0.5 + bs) / (bw + 1.0)
    counts = np.diff(np.append(starts, m))
    return np.repeat(per_block, counts)


@dataclass(frozen=True)
class IsotonicFit:
    """Monotone fit on the distinct forecast values.

    Attributes
    ----------
    knots : ndarray
        Strictly increasing distinct forecast values.
    values : ndarray
        Nondecreasing fitted values, one per knot; knots sharing a pooled
        block carry the identical float.
    block_weights : ndarray
        Observation count at each knot (tie multiplicity).
    block_sums : ndarray
        Outcome sum at each knot.
    """

    knots: np.ndarray
    values: np.ndarray
    block_weights: np.ndarray
    block_sums: np.ndarray

    def __post_init__(self) -> None:
        for name in ("knots", "values", "block_weights", "block_sums"):
            arr = getattr(self, name)
            arr = np.array(arr, copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.knots.shape == self.values.shape == self.block_weights.shape == self.block_sums.shape):
            raise InputError("knot arrays must share one shape")
        if self.knots.size == 0:
            raise InputError("fit requires at least one knot")
        if np.any(np.diff(self.knots) <= 0):
            raise InputError("knots must be strictly increasing")
        if np.any(np.diff(self.values) < 0):
            raise InputError("fitted values must be nondecreasing")

    def __len__(self) -> int:
        return int(self.knots.size)


@dataclass(frozen=True)
class SmoothedFit:
    """Laplace-smoothed fit: values strictly inside (0, 1), one per knot."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("knots", "values"):
            arr = np.array(getattr(self, name), copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.knots.shape != self.values.shape or self.knots.size == 0:
            raise InputError("smoothed fit requires matching nonempty knot and value arrays")
        if np.any((self.values <= 0.0) | (self.values >= 1.0)):
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
    values = _pool_values(w, s)
    return IsotonicFit(knots, values, w, s)


def laplace_smooth(fit: IsotonicFit) -> SmoothedFit:
    """Smooth a fit's pooled block means toward 1/2.

    Each maximal run of knots with equal fitted value forms one block with
    pooled count W and outcome sum S; the smoothed value (0.5 + S) / (W + 1)
    is assigned to all of the block's knots. Smoothed values are strictly
    inside (0, 1) even for pure-0 or pure-1 blocks.
    """
    return SmoothedFit(fit.knots, _laplace_values(fit.values, fit.block_weights, fit.block_sums))


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
    ps = np.asarray(prefix_p, dtype=float).reshape(-1)
    ys = np.asarray(prefix_y, dtype=np.int64).reshape(-1)
    if ps.shape != ys.shape:
        raise InputError("prefix forecast and outcome lengths differ")
    if ps.size == 0:
        return 0.5
    if np.any((ps < 0.0) | (ps > 1.0)):
        raise InputError("prefix forecasts must lie in [0, 1]")
    if not np.all((ys == 0) | (ys == 1)):
        raise InputError("prefix outcomes must be 0 or 1")
    order = np.argsort(ps, kind="stable")
    knots, w, s = _merge_sorted(ps[order], ys[order])
    return _oos_from_merged(knots, w, s, p_new)
