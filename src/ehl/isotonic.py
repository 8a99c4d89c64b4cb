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
passes shrink the block count geometrically. Fits laid end to end pool in
one call with fit r's outcome sums raised by 2 r times its counts: no block
pools across fits, and for c fits of k observations products stay at most
2 c k^2.

The out-of-sample value at a new point is defined through two augmented
fits, one with an artificial success and one with an artificial failure
appended at the new point:

    q = g1 / (g1 + 1 - g0)

where g1 and g0 are the augmented fitted values there. An empty prefix
gives q = 1/2. The sequential e-value keeps its growing prefix as pooled
blocks; by the same order independence, only the block that holds the new
point pools again. The label enters only at the new point's knot, so that
block's knots left and right of the point pool once for both labels. A
pooled block's prefix means are never below its mean (Barlow, Bartholomew,
Bremner & Brunk 1972), so the left side's blocks start the stack as they
are, and the new knot, the right side's blocks and the neighbours go on by
the stack rule. So g1 and g0 come from the same integers as a full refit,
and a step costs about the knot count of the holding block.

New points against one fixed sample, in the exact e-value and in
oos_predict, go another way. Every prefix of the sample's knots is pooled
once, left to right, and every suffix once, right to left; each block links
to the block under it, so every intermediate stack stays readable from its
top block. A point's block starts from its own knot, pops the stack of the
knots below it by the stack rule, then pools in the blocks of the knots
above it, popping again after each merge, until one of them does not pool.
By the same order independence those are the integers of a full refit, and
a point costs the blocks it pools.

The Laplace-smoothed fit replaces each pooled block mean (sum / count) by
(0.5 + sum) / (count + 1), which is strictly inside (0, 1), and predicts
between knots by linear interpolation with constant extension beyond the
outermost knots.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .data import SampleSet, _freeze
from .errors import InputError
from .numeric import _stable_order


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
    number of knots, in knot order, with strictly increasing means.
    """
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


def _pool_rows(
    w: np.ndarray, s: np.ndarray, row: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """_pool_blocks of fits laid end to end, row[i] the fit of knot i (0, 1,
    ... in order), as if each were pooled alone; counts and sums as int64.

    Adding 2 r w lifts fit r's means into [2r, 2r + 1], as 0 <= s <= w, so
    no block pools across fits, and a block's sum is bs + 2 r bw with
    0 <= bs <= bw: r = sum // (2 bw), and the remainder is bs exactly.
    """
    bw, bs, bk = _pool_blocks(w, s + 2 * row * w)
    bw = np.array(bw, dtype=np.int64)
    return bw, np.array(bs, dtype=np.int64) % (2 * bw), bk


def _smoothed_values(bw, bs, bk) -> np.ndarray:
    """Per-knot smoothed values of pooled blocks: (0.5 + sum) / (count + 1)."""
    return np.repeat(np.divide(np.add(0.5, bs), np.add(bw, 1.0)), bk)


def _merge_sorted(
    ps: np.ndarray, ys: np.ndarray, width: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse equal consecutive forecasts into knots.

    ps must be sorted ascending. Returns (knots, counts, sums) where counts
    and sums are int64 per-knot observation counts and outcome sums. With
    width, ps holds several samples of width observations each, each sorted,
    and every sample starts a knot of its own.
    """
    n = ps.shape[0]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(ps[1:], ps[:-1], out=new[1:])
    if width is not None:
        new[::width] = True
    starts = np.flatnonzero(new)
    knots = ps[starts]
    counts = np.diff(np.append(starts, n)).astype(np.int64, copy=False)
    sums = np.add.reduceat(ys.astype(np.int64, copy=False), starts)
    return knots, counts, sums


def _splice(a: np.ndarray, j: int, v) -> np.ndarray:
    """a with v inserted before position j; np.insert without its fixed
    per-call cost, which dominates on the few knots of a prefix state."""
    out = np.empty(a.shape[0] + 1, dtype=a.dtype)
    out[:j] = a[:j]
    out[j] = v
    out[j + 1:] = a[j:]
    return out


def _first_knots(knots: list[float], start: int, sizes: list[int]) -> list[float]:
    """First knot of each block of the given sizes, the first block starting
    at knot index start."""
    out = []
    for k in sizes:
        out.append(knots[start])
        start += k
    return out


class _PrefixBlocks:
    """The sequential e-value's prefix, from empty, as its pooled blocks.

    knots is the sorted list of distinct forecasts, w and s the int64 count
    and outcome sum at each knot; bw, bs and bk are the pooled blocks as
    Python ints (count, outcome sum, knots covered), and bf each block's
    first knot. One step pools the two sides of the block that holds the
    new point once, reads the fitted value there for each label, and adds
    the observation with its own label.
    """

    __slots__ = ("knots", "w", "s", "bw", "bs", "bk", "bf")

    def __init__(self) -> None:
        self.knots: list[float] = []
        self.w = np.empty(0, np.int64)
        self.s = np.empty(0, np.int64)
        self.bw: list[int] = []
        self.bs: list[int] = []
        self.bk: list[int] = []
        self.bf: list[float] = []

    def step(self, p: float, y: int) -> list[float]:
        """[g0, g1]: the fitted value at p after adding an observation at p
        with outcome 0 or 1. The holding block's knots left and right of p
        pool once for both; then the observation (p, y) is added to the
        state."""
        knots, w, s, bw, bs, bk = self.knots, self.w, self.s, self.bw, self.bs, self.bk
        if bw:
            # the block holding p: the last one whose first knot is at most
            # p, and block 0 below every knot
            h = max(bisect_right(self.bf, p) - 1, 0)
            a = bisect_left(knots, self.bf[h])
            b = a + bk[h]
        else:
            h = a = b = 0
        j = bisect_left(knots, p, a, b)
        tie = j < b and knots[j] == p
        # The label enters only at knot j, so each side of the holding block
        # pools once; the left side's blocks have means above the holding
        # block's left neighbour, so they start the stack. An empty side skips
        # the numpy slicing, which costs small holding blocks most.
        left = _pool_blocks(w[a:j], s[a:j]) if a < j else ([], [], [])
        right = _pool_blocks(w[j + tie:b], s[j + tie:b]) if j + tie < b else ([], [], [])
        jw, js = (w.item(j) + 1, s.item(j)) if tie else (1, 0)
        nb = len(bw)
        values = []
        for label in (0, 1):
            # The stack rule outward: tw, ts, tk is the stack above the left
            # blocks bw[:lo], whose knots start at index start. Knot j's
            # block goes on, then the right side's blocks, then right blocks
            # from hi on while the stack top pools with them; once one does
            # not, none beyond it can.
            lo, hi, start = h, h + 1 if bw else 0, a
            tw, ts, tk = left[0][:], left[1][:], left[2][:]
            incoming = chain(((jw, js + label, 1),), zip(*right))
            while True:
                block = next(incoming, None)
                if block is not None:
                    cw, cs, ck = block
                elif hi < nb and ts[-1] * bw[hi] >= bs[hi] * tw[-1]:
                    cw, cs, ck = bw[hi], bs[hi], bk[hi]
                    hi += 1
                else:
                    break
                while True:
                    if tw:
                        if ts[-1] * cw < cs * tw[-1]:
                            break
                        cw += tw.pop()
                        cs += ts.pop()
                        ck += tk.pop()
                    elif lo and bs[lo - 1] * cw >= cs * bw[lo - 1]:
                        lo -= 1
                        cw += bw[lo]
                        cs += bs[lo]
                        ck += bk[lo]
                        start -= bk[lo]
                    else:
                        break
                tw.append(cw)
                ts.append(cs)
                tk.append(ck)
            end = start
            for cw, cs, ck in zip(tw, ts, tk):
                end += ck
                if j < end:
                    # for sums below 2^53, int / int rounds exactly as numpy int64 division
                    values.append(cs / cw)
                    break
            if label == y:
                grown = lo, hi, start, tw, ts, tk
        lo, hi, start, tw, ts, tk = grown
        if tie:
            w[j] += 1
            s[j] += y
        else:
            knots.insert(j, p)
            self.w = _splice(w, j, 1)
            self.s = _splice(s, j, y)
        bw[lo:hi] = tw
        bs[lo:hi] = ts
        bk[lo:hi] = tk
        self.bf[lo:hi] = _first_knots(knots, start, tk)
        return values


def _fixed_set_values(
    knots: list[float], w: list[int], s: list[int], points: Iterable[float]
) -> list[list[float]]:
    """[g0, g1] at each point for one fixed sample: the fitted values at the
    point after adding an observation there with outcome 0 or 1. The sample
    is given as its sorted merged knots with per-knot counts w and outcome
    sums s, all Python numbers.

    Every prefix of the knots is pooled once, left to right, and every
    suffix once, right to left, into stacks whose blocks link to the block
    under them, so that each prefix's and each suffix's blocks are read from
    their top block. A point at slot j starts from its own knot's block
    (count 1, or the tied knot's count + 1), pops the stack of the knots
    below j by the stack rule, then pools in the blocks of the knots above
    it, popping again after each merge. It stops at the first of those
    blocks that does not pool, since the later ones have larger means.
    """
    m = len(knots)
    # block i < m tops the pooled stack of the knots [0, i], block m + i
    # that of the knots [i, m): its count bw, outcome sum bs, and under, the
    # next block down the stack (-1 at the bottom)
    bw = w + w
    bs = s + s
    under = [-1] * (2 * m)
    t = -1
    for i in range(m):
        cw, cs = bw[i], bs[i]
        while t >= 0 and bs[t] * cw >= cs * bw[t]:
            cw += bw[t]
            cs += bs[t]
            t = under[t]
        bw[i], bs[i], under[i] = cw, cs, t
        t = i
    t = -1
    for i in range(2 * m - 1, m - 1, -1):
        cw, cs = bw[i], bs[i]
        while t >= 0 and cs * bw[t] >= bs[t] * cw:
            cw += bw[t]
            cs += bs[t]
            t = under[t]
        bw[i], bs[i], under[i] = cw, cs, t
        t = i
    out = []
    for x in points:
        j = bisect_left(knots, x)
        if j < m and knots[j] == x:
            w0, s0, r = w[j] + 1, s[j], j + 1
        else:
            w0, s0, r = 1, 0, j
        right = m + r if r < m else -1
        values = []
        for cs in (s0, s0 + 1):
            cw, t, u = w0, j - 1, right
            while True:
                while t >= 0 and bs[t] * cw >= cs * bw[t]:
                    cw += bw[t]
                    cs += bs[t]
                    t = under[t]
                if u < 0 or cs * bw[u] < bs[u] * cw:
                    break
                cw += bw[u]
                cs += bs[u]
                u = under[u]
            # for sums below 2^53, int / int rounds exactly as numpy int64 division
            values.append(cs / cw)
        out.append(values)
    return out


def _oos_value(g0: float, g1: float) -> float:
    """Out-of-sample value from the augmented fitted values g0 and g1."""
    # g1 >= g0, so the denominator is at least 1
    return g1 / (g1 + 1.0 - g0)


def _check_knots(knots: np.ndarray) -> None:
    if not (np.all((knots >= 0.0) & (knots <= 1.0)) and np.all(np.diff(knots) > 0)):
        raise InputError("knots must be strictly increasing values in [0, 1]")


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


def _merged(samples) -> tuple[np.ndarray, ...]:
    """A sample's stable sort order by forecast, its int64 outcomes in that
    order, and its distinct forecasts with their int64 counts and outcome
    sums. samples is any object with ``p`` and ``y`` array attributes."""
    p = np.asarray(samples.p, dtype=float)
    order = _stable_order(p)
    ys = np.asarray(samples.y, dtype=np.int64)[order]
    return (order, ys, *_merge_sorted(p[order], ys))


def pava_fit(samples) -> IsotonicFit:
    """Isotonic fit of outcomes on forecasts via pool-adjacent-violators.

    Accepts any object with ``p`` and ``y`` array attributes. Ties in p are
    merged before pooling, so the result is invariant to input order.
    """
    knots, w, s = _merged(samples)[2:]
    return IsotonicFit(knots, w, s, *_pool_blocks(w, s))


def laplace_smooth(fit: IsotonicFit) -> SmoothedFit:
    """Smooth a fit's pooled block means toward 1/2.

    Each pooled block, with count W and outcome sum S, gets the smoothed
    value (0.5 + S) / (W + 1) at all of its knots. Smoothed values are
    strictly inside (0, 1) even for pure-0 or pure-1 blocks.
    """
    return SmoothedFit(fit.knots, _smoothed_values(fit.pool_weights, fit.pool_sums, fit.pool_sizes))


def _block_ends_fit(knots: np.ndarray, w: np.ndarray, s: np.ndarray) -> SmoothedFit:
    """laplace_smooth(pava_fit(...)) of a sample merged into the sorted
    knots with int64 counts w and outcome sums s, kept as the first and
    last knot of each pooled block.

    Knots with a count of 0 drop out, so w may count a resample of the
    sample the knots were merged from. A smoothed fit is constant on a
    block, so np.interp, whose slope inside a block is 0, gives the same
    bits from the two end knots as from all of them. A one-knot block keeps
    one knot, so the knots stay strictly increasing.
    """
    kept = np.flatnonzero(w)
    bw, bs, bk = _pool_blocks(w[kept], s[kept])
    last = np.cumsum(bk) - 1
    ends = np.union1d(last + 1 - np.asarray(bk), last)
    return SmoothedFit(knots[kept[ends]], _smoothed_values(bw, bs, np.minimum(bk, 2)))


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
    probability and is nondecreasing in p_new for a fixed prefix. g0 and
    g1 come from the exact e-value's routine, _fixed_set_values.
    """
    if not 0.0 <= p_new <= 1.0:
        raise InputError(f"p_new must lie in [0, 1], got {p_new!r}")
    if np.size(prefix_p) == 0 and np.size(prefix_y) == 0:
        return 0.5
    knots, w, s = (a.tolist() for a in _merged(SampleSet(prefix_p, prefix_y))[2:])
    (values,) = _fixed_set_values(knots, w, s, [float(p_new)])
    return _oos_value(*values)
