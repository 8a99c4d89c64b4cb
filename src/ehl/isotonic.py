"""Isotonic regression of binary outcomes on probability forecasts.

The fit maximizes the log-likelihood-ratio score

    sum_i  y_i log(g_i / p_i) + (1 - y_i) log((1 - g_i) / (1 - p_i))

over nondecreasing g, which coincides with the least-squares isotonic fit
and is computed by pool-adjacent-violators. Observations sharing a forecast
value are merged into one knot first, so fitted values are constant on ties.

Block arithmetic is exact: weights and outcome sums are integers, and the
violator comparison is done by cross-multiplication, so the block structure
never depends on floating-point rounding. The blocks are computed once, as
integers (count, outcome sum, knots covered), and fitted, smoothed and
out-of-sample values are all read from them.

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
pools across fits, and for c fits of k observations (one fit: c = 1)
products stay at most 2 c k^2, below 2^63 while c k^2 < 2^62, so int64
cannot overflow.

The out-of-sample value at a new point is defined through two augmented
fits, one with an artificial success and one with an artificial failure
appended at the new point:

    q = g1 / (g1 + 1 - g0)

where g1 and g0 are the augmented fitted values there. An empty prefix
gives q = 1/2. g0 and g1 are read off pooled stacks. For one fixed sample,
in the exact e-value and in oos_predict, every prefix of the sample's knots
is pooled once, left to right, and every suffix once, right to left; each
stack node links to the node under it, so every intermediate stack stays
readable from its top node. A point's block starts from its own knot, pops
the stack of the knots below it by the stack rule, then pools in the nodes
of the stack of the knots above it, popping again after each merge, until
one of them does not pool. By the same order independence those are the
integers of a full refit, and a point costs the nodes it pools.

The sequential e-value keeps such stacks across steps, per pooled block of
its growing prefix: stacks pooled from the block's first knot, stacks
pooled to its last knot, two watermarks that say how many of each are
still valid, and the two stacks the last step's walk in the block started
from. A pooled block's prefix means are never below its mean, and its
suffix means never above (Barlow, Bartholomew, Bremner & Brunk 1972), so
the blocks left of a block, followed by one of its prefix stacks, are the
pooled stack of all knots up to there, and likewise to the right. A step
extends the holding block's valid stacks up to the new point from each
side, walks out from the point for each label, and rewrites only the
blocks that changed; a new block keeps the valid stacks of each side on
which it starts or ends with the holding block. So a step pools the knots
between the point and the nearer of the watermark and the last step's
reach, not the whole block. A stretch of more than _WIDE knots pools in
numpy instead and leaves the watermark where it was, so the worst case,
one block holding every knot, costs at most what re-pooling the block
costs.

The Laplace-smoothed fit replaces each pooled block mean (sum / count) by
(0.5 + sum) / (count + 1), which is strictly inside (0, 1), and predicts
between knots by linear interpolation with constant extension beyond the
outermost knots.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
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


# A stretch of more knots than this, on one side of a sequential step, is
# pooled by _pool_blocks over int64 arrays instead of knot by knot in Python.
# On one core of a 2-core Intel Xeon (Python 3.11, numpy 2.4), pushing one
# stretch of outcomes falling with p took 31 us knot by knot against 25 us
# by _pool_blocks at 128 knots, 14 against 22 us at 64 and 259 against 70 us
# at 1024; a push knot by knot also moves the watermark. Whole sequential
# runs with 64, 128, 256 and 512 differed by less than the host's noise, on
# one-block data at n = 4000 and calibrated data at 5000 and 2*10^4.
_WIDE = 128


def _splice(a: np.ndarray, j: int, v) -> np.ndarray:
    """a with v inserted before position j; np.insert without its fixed
    per-call cost."""
    out = np.empty(a.shape[0] + 1, dtype=a.dtype)
    out[:j] = a[:j]
    out[j] = v
    out[j + 1:] = a[j:]
    return out


def _push_prefix(P, t, blocks: Iterable) -> None:
    """Push blocks (count, outcome sum, key), in rising knot order, onto the
    prefix stack whose top node is P[t] (t = -1: empty) by the stack rule.
    Each block's node (count, outcome sum, under) goes to P at its key, its
    last knot's, with under the key of the node below it (-1 at the bottom).
    Keys are knot positions or other integers, all at least 0."""
    for cw, cs, key in blocks:
        while t >= 0:
            nw, ns, nt = P[t]
            if ns * cw < cs * nw:
                break
            cw += nw
            cs += ns
            t = nt
        P[key] = (cw, cs, t)
        t = key


def _push_suffix(S, u, blocks: Iterable) -> None:
    """_push_prefix mirrored: blocks in falling knot order, each keyed by its
    first knot, onto the suffix stack whose top node is S[u]."""
    for cw, cs, key in blocks:
        while u >= 0:
            nw, ns, nu = S[u]
            if cs * nw < ns * cw:
                break
            cw += nw
            cs += ns
            u = nu
        S[key] = (cw, cs, u)
        u = key


def _walk(P, S, cw: int, cs: int, t, u) -> tuple:
    """Pool a block of count cw and outcome sum cs that sits between the
    prefix stack topped by P[t] and the suffix stack topped by S[u]: pop the
    prefix stack by the stack rule, then pool in the suffix stack's nodes,
    popping again after each merge, until one of them does not pool; the
    later ones have larger means. Returns the pooled block's count and sum
    and the keys of the two stack tops left."""
    while True:
        while t >= 0:
            nw, ns, nt = P[t]
            if ns * cw < cs * nw:
                break
            cw += nw
            cs += ns
            t = nt
        if u < 0:
            break
        nw, ns, nu = S[u]
        if cs * nw < ns * cw:
            break
        cw += nw
        cs += ns
        u = nu
    return cw, cs, t, u


class _PrefixBlocks:
    """The sequential e-value's prefix, from empty, as its pooled blocks.

    knots is the sorted list of distinct forecasts and ids the key of each:
    the number of knots made before it, so a key never moves. By key, val is
    the knot, kn its node (count, outcome sum, key), and P and S the top
    node of the stack that pools its block's knots from the block's first
    knot up to it (P), and from it to the block's last knot (S), as
    _push_prefix and _push_suffix leave them. P at a block's last knot and
    S at its first are always valid and are the whole block, linked to the
    neighbour block's, so P read down from any valid node is the pooled
    prefix of all knots up to it, and S read up is the pooled suffix.

    Per block, bf is its first knot and bk its knot count. The watermarks
    pw and sw count its leading P nodes and trailing S nodes that are
    valid. The tops pt and st mark the P node at its knot pt - 1 and the S
    node at its knot bk - st, where the last step's walk started, as valid
    with every node under them (0: none); they let a step go on from where
    the last one reached when a wide stretch left the watermark behind.

    A step makes valid only the holding block's P nodes below the new point
    and S nodes above it, walks out from the point for each label, and
    rewrites only the blocks that changed. From the first stretch wider than
    _WIDE on, arrays keeps int64 counts and sums per knot, and such
    stretches pool in numpy; their nodes are written at their blocks' ends
    only, so the watermark does not move over them.
    """

    __slots__ = ("knots", "ids", "val", "kn", "P", "S", "bf", "bk", "pw", "sw", "pt", "st", "arrays")

    def __init__(self) -> None:
        self.knots: list[float] = []
        self.ids: list[int] = []
        self.val: list[float] = []
        self.kn: list[tuple[int, int, int]] = []
        self.P: list = []
        self.S: list = []
        self.bf: list[float] = []
        self.bk: list[int] = []
        self.pw: list[int] = []
        self.sw: list[int] = []
        self.pt: list[int] = []
        self.st: list[int] = []
        self.arrays: tuple[np.ndarray, np.ndarray] | None = None

    def _wide(self, i: int, j: int, last: bool) -> list[tuple[int, int, int]]:
        """_pool_blocks of the knots [i, j), each block keyed by its last
        knot (last) or its first."""
        if self.arrays is None:
            ws = np.array([self.kn[x] for x in self.ids], dtype=np.int64)
            self.arrays = ws[:, 0].copy(), ws[:, 1].copy()
        w, s = self.arrays
        bw, bs, bk = _pool_blocks(w[i:j], s[i:j])
        keys = []
        for k in bk:
            keys.append(self.ids[i + k - 1 if last else i])
            i += k
        return list(zip(bw, bs, keys))

    def step(self, p: float, y: int) -> list[float]:
        """[g0, g1]: the fitted value at p after adding an observation at p
        with outcome 0 or 1; then the observation (p, y) is added."""
        knots, ids, val, kn, P, S, bf = (
            self.knots, self.ids, self.val, self.kn, self.P, self.S, self.bf)
        m = len(knots)
        if bf:
            # the block holding p: the last one whose first knot is at most
            # p, and block 0 below every knot
            h = max(bisect_right(bf, p) - 1, 0)
            a = bisect_left(knots, bf[h])
            b = a + self.bk[h]
            pw, sw = self.pw[h], self.sw[h]
            pt, st = self.pt[h], self.st[h]
        else:
            h = a = b = pw = sw = pt = st = 0
        j = bisect_left(knots, p, a, b)
        tie = j < b and knots[j] == p
        r = j + tie
        # Make P valid at knot j - 1 and S at knot r, pushing on from the
        # watermark or from the last step's top if that is nearer; a block's
        # end nodes always are valid.
        if a + pw < j < b and pt != j - a:
            i = a + pt if pw < pt < j - a else a + pw
            if j - i > _WIDE:
                blocks = self._wide(i, j, True)
            else:
                blocks = map(kn.__getitem__, ids[i:j])
                if i == a + pw:
                    pw = j - a
            _push_prefix(P, ids[i - 1] if i else -1, blocks)
        if a < r < b - sw and b - st != r:
            i = b - st if sw < st < b - r else b - sw
            if i - r > _WIDE:
                blocks = reversed(self._wide(r, i, False))
            else:
                blocks = map(kn.__getitem__, reversed(ids[r:i]))
                if i == b - sw:
                    sw = b - r
            _push_suffix(S, ids[i] if i < m else -1, blocks)
        t0 = ids[j - 1] if j else -1
        u0 = ids[r] if r < m else -1
        cw, cs = (kn[ids[j]][0] + 1, kn[ids[j]][1]) if tie else (1, 0)
        e0 = _walk(P, S, cw, cs, t0, u0)
        e1 = _walk(P, S, cw, cs + 1, t0, u0)
        # for sums below 2^53, int / int rounds exactly as numpy int64 division
        values = [e0[1] / e0[0], e1[1] / e1[0]]
        cw, cs, t, u = e1 if y else e0

        # The pooled blocks with (p, y) added replace the blocks [lo, hi):
        # the prefix stack's nodes left from the holding block's first knot
        # on, the walked block, knots t0 + 1 .. u0 - 1 with p, and the suffix
        # stack's nodes up to the holding block's last knot.
        left = []
        e = t
        while e >= 0 and val[e] >= bf[h]:
            left.append(e)
            e = P[e][2]
        right = []
        x = u
        while x >= 0 and val[x] <= knots[b - 1]:
            right.append(x)
            x = S[x][2]
        t0 = bisect_left(knots, val[t], 0, j) if t >= 0 else -1
        u0 = bisect_left(knots, val[u], r) if u >= 0 else m
        lo = h if t0 + 1 >= a else bisect_right(bf, val[t]) if t >= 0 else 0
        hi = h + 1 if u0 <= b else bisect_left(bf, val[u]) if u >= 0 else len(bf)
        arrays = self.arrays
        if tie:
            k = ids[j]
            kn[k] = (kn[k][0] + 1, kn[k][1] + y, k)
            if arrays is not None:
                arrays[0][j] += 1
                arrays[1][j] += y
        else:
            k = len(val)
            knots.insert(j, p)
            ids.insert(j, k)
            val.append(p)
            kn.append((1, y, k))
            P.append(None)
            S.append(None)
            if arrays is not None:
                self.arrays = _splice(arrays[0], j, 1), _splice(arrays[1], j, y)
            b += 1
            u0 += 1
        # Each new block's first knot and knot count, and its nodes at its
        # ends, linked to the knots beside it. The first left piece starts
        # where the holding block did and keeps its valid P nodes, as the
        # walked block does if it starts there, with knot j - 1's node as
        # its top; the walked block and the last right piece keep the valid
        # S nodes if they end where the holding block did, the walked block
        # with knot r's node as its top. Knot j's nodes are no longer valid.
        nf, nk = [], []
        x = a
        for e in reversed(left):
            x1 = bisect_left(knots, val[e], x, j) + 1
            S[ids[x]] = (*P[e][:2], ids[x1])
            nf.append(knots[x])
            nk.append(x1 - x)
            x = x1
        P[ids[u0 - 1]] = (cw, cs, t)
        S[ids[t0 + 1]] = (cw, cs, u)
        nf.append(knots[t0 + 1])
        nk.append(u0 - 1 - t0)
        x0 = u0
        for i, x in enumerate(right, 1):
            x1 = bisect_left(knots, val[right[i]], x0) if i < len(right) else b
            P[ids[x1 - 1]] = (*S[x][:2], ids[x0 - 1])
            nf.append(val[x])
            nk.append(x1 - x0)
            x0 = x1
        npw = [0] * len(nk)
        nsw = [0] * len(nk)
        npt = [0] * len(nk)
        nst = [0] * len(nk)
        if left:
            npw[0] = min(pw, nk[0])
        elif t0 + 1 == a:
            npw[0] = min(pw, j - a)
            npt[0] = j - a
        if right:
            nsw[-1] = min(sw, nk[-1])
        elif u0 == b:
            nsw[-1] = min(sw, b - 1 - j)
            nst[-1] = b - 1 - j
        bf[lo:hi] = nf
        self.bk[lo:hi] = nk
        self.pw[lo:hi] = npw
        self.sw[lo:hi] = nsw
        self.pt[lo:hi] = npt
        self.st[lo:hi] = nst
        hi = lo + len(nk)
        if not tie and j == u0 - 1 == b - 1 and hi < len(bf):
            # p is now the last knot before block hi, whose P nodes linked to
            # the knot that was
            e = ids[b - 1 + self.bk[hi]]
            P[e] = (*P[e][:2], k)
            self.pw[hi] = 0
            self.pt[hi] = 0
        return values


def _fixed_set_values(
    knots: list[float], w: list[int], s: list[int], points: Iterable[float]
) -> list[tuple[float, float]]:
    """(g0, g1) at each point for one fixed sample: the fitted values at the
    point after adding an observation there with outcome 0 or 1. The sample
    is given as its sorted merged knots with per-knot counts w and outcome
    sums s, all Python numbers.

    Every prefix of the knots is pooled once, left to right, and every
    suffix once, right to left, into stacks whose nodes link to the node
    under them, keyed by knot position, so that each prefix's and each
    suffix's blocks are read from their top node. A point at slot j starts
    from its own knot's block (count 1, or the tied knot's count + 1) and
    walks out over the stacks of the knots below and above it (_walk).
    """
    m = len(knots)
    P: list = [None] * m
    S: list = [None] * m
    nodes = list(zip(w, s, range(m)))
    _push_prefix(P, -1, nodes)
    _push_suffix(S, -1, reversed(nodes))
    out = []
    for x in points:
        j = bisect_left(knots, x)
        if j < m and knots[j] == x:
            cw, cs, r = w[j] + 1, s[j], j + 1
        else:
            cw, cs, r = 1, 0, j
        if r == m:
            r = -1
        e0 = _walk(P, S, cw, cs, j - 1, r)
        e1 = _walk(P, S, cw, cs + 1, j - 1, r)
        # for sums below 2^53, int / int rounds exactly as numpy int64 division
        out.append((e0[1] / e0[0], e1[1] / e1[0]))
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
