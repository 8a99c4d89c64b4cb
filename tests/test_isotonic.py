import itertools
import time

import numpy as np
import pytest

from ehl import (
    InputError,
    IsotonicFit,
    SampleSet,
    SmoothedFit,
    interpolate,
    laplace_smooth,
    oos_predict,
    pava_fit,
)
from ehl.isotonic import _fixed_set_values, _oos_value, _pool_blocks, _pool_rows
from ehl.numeric import _RUN_CELLS

from helpers import (
    farey_staircase,
    knot_stats,
    laplace_values_reference,
    log_score,
    monotone_grid_max,
    oos_reference,
    stack_pool_values,
)


def _fit(p, y):
    return pava_fit(SampleSet(p, y))


def _fit_objective(fit, p, y):
    idx = np.searchsorted(fit.knots, np.asarray(p, dtype=float))
    g = fit.values[idx]
    return log_score(p, y, g)


class TestPava:
    def test_already_monotone(self):
        fit = _fit([0.1, 0.4], [0, 1])
        assert list(fit.values) == [0.0, 1.0]
        assert list(fit.knots) == [0.1, 0.4]

    def test_single_violation_pools(self):
        fit = _fit([0.1, 0.4], [1, 0])
        assert list(fit.values) == [0.5, 0.5]

    def test_partial_pool(self):
        fit = _fit([0.1, 0.4, 0.9], [1, 0, 1])
        assert list(fit.values) == [0.5, 0.5, 1.0]

    def test_ties_merge_before_pooling(self):
        fit = _fit([0.3, 0.3, 0.7], [0, 1, 1])
        assert list(fit.knots) == [0.3, 0.7]
        assert list(fit.block_weights) == [2, 1]
        assert list(fit.block_sums) == [1, 1]
        assert list(fit.values) == [0.5, 1.0]

    def test_block_value_is_pooled_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            p = rng.choice(np.linspace(0.05, 0.95, 7), size=n)
            y = (rng.random(n) < 0.5).astype(int)
            fit = _fit(p, y)
            # group knots by equal fitted value and compare with the block mean
            start = 0
            for k in range(1, len(fit) + 1):
                if k == len(fit) or fit.values[k] != fit.values[start]:
                    w = fit.block_weights[start:k].sum()
                    s = fit.block_sums[start:k].sum()
                    assert fit.values[start] == s / w
                    start = k

    def test_values_nondecreasing_knots_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            p = rng.random(n)
            y = (rng.random(n) < p).astype(int)
            fit = _fit(p, y)
            assert np.all(np.diff(fit.values) >= 0)
            assert np.all(np.diff(fit.knots) > 0)
            assert fit.block_weights.sum() == n

    def test_input_order_invariance(self):
        rng = np.random.default_rng(4)
        p = rng.choice([0.2, 0.4, 0.6, 0.8], size=25)
        y = (rng.random(25) < p).astype(int)
        base = _fit(p, y)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(25)
            other = _fit(p[perm], y[perm])
            assert np.array_equal(base.knots, other.knots)
            assert np.array_equal(base.values, other.values)
            assert np.array_equal(base.block_weights, other.block_weights)

    def test_fit_validation(self):
        # three knots: the first two pool into one block of mean 1/2
        good = dict(knots=[0.1, 0.4, 0.9], block_weights=[1, 1, 1], block_sums=[1, 0, 1],
                    pool_weights=[2, 1], pool_sums=[1, 1], pool_sizes=[2, 1])
        fit = IsotonicFit(**good)
        assert list(fit.values) == [0.5, 0.5, 1.0]
        same = _fit([0.1, 0.4, 0.9], [1, 0, 1])
        for name in good:
            assert np.array_equal(getattr(fit, name), getattr(same, name))
        bad = [
            dict(knots=[0.1, float("nan"), 0.9]),
            dict(knots=[float("nan"), 0.4, 0.9]),
            dict(knots=[0.4, 0.1, 0.9]),
            dict(knots=[0.1, 0.1, 0.9]),
            dict(knots=[0.1, 0.4, 1.5]),
            dict(block_weights=[1, 1]),
            dict(knots=[], block_weights=[], block_sums=[], pool_weights=[], pool_sums=[], pool_sizes=[]),
            # block sizes must be positive and sum to the knot count
            dict(pool_weights=[2, 3, 1], pool_sums=[1, 2, 1], pool_sizes=[2, 0, 1]),
            dict(pool_sizes=[2, 2]),
            dict(pool_sizes=[1, 1]),
            dict(pool_weights=[2, 1], pool_sums=[1], pool_sizes=[2, 1]),
            # equal adjacent means pool; a falling mean is a violator
            dict(block_sums=[0, 1, 1], pool_weights=[1, 1, 1], pool_sums=[0, 1, 1], pool_sizes=[1, 1, 1]),
            dict(pool_weights=[1, 2], pool_sums=[1, 1], pool_sizes=[1, 2]),
            dict(pool_weights=[2, 0]),
            dict(pool_weights=[2, -1], pool_sums=[1, 0]),
        ]
        for change in bad:
            with pytest.raises(InputError):
                IsotonicFit(**{**good, **change})

    def test_optimality_against_grid_search(self):
        # brute force over nondecreasing assignments on a coarse value grid
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 1.0, 11)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            p = rng.choice(np.linspace(0.1, 0.9, 5), size=n)
            y = (rng.random(n) < 0.5).astype(int)
            fit = _fit(p, y)
            mine = _fit_objective(fit, p, y)
            brute = monotone_grid_max(p, y, grid)
            assert mine >= brute - 1e-9


def _kernel_corpus():
    rng = np.random.default_rng(9)
    for _ in range(300):
        m = int(rng.integers(1, 3001))
        w = rng.integers(1, 7, size=m).astype(np.int64)
        yield w, rng.binomial(w, rng.random()).astype(np.int64)
    # merged knots of two-decimal forecasts: many ties, outcomes from p
    for n in (10, 300, 5000):
        p = np.round(rng.uniform(0.01, 0.99, size=n), 2)
        y = (rng.random(n) < p).astype(np.int64)
        _, inverse = np.unique(p, return_inverse=True)
        yield (np.bincount(inverse).astype(np.int64),
               np.bincount(inverse, weights=y).astype(np.int64))
    for m in (1, 2, 50, 2000):
        w = rng.integers(1, 7, size=m).astype(np.int64)
        yield w, np.zeros(m, np.int64)
        yield w, w.copy()
    for m in (2, 3, 1000, 1001):
        yield np.ones(m, np.int64), np.arange(m, dtype=np.int64) % 2
    for m in (2, 40, 1500):
        yield farey_staircase(m)
    # no violator at all, and none left after the first pass: pairs of a
    # success then a heavier failure, pair means 1 / (1 + w) rising
    for m in (33, 500):
        yield np.full(m, m, np.int64), np.arange(m, dtype=np.int64)
        w = np.ones(2 * m, np.int64)
        w[1::2] = np.arange(m + 1, 1, -1)
        yield w, (np.arange(2 * m) % 2 == 0).astype(np.int64)
    yield np.array([4], np.int64), np.array([3], np.int64)


def _pooled_values(w, s):
    """_pool_blocks expanded to one block mean per knot, checked for the
    block structure on the way: Python-int blocks in knot order that cover
    every knot, whose totals are the per-knot sums over their knots, and
    whose means strictly increase."""
    bw, bs, bk = _pool_blocks(w, s)
    assert all(type(v) is int for v in bw + bs + bk)
    assert len(bw) == len(bs) == len(bk) and min(bk) > 0 and sum(bk) == w.shape[0]
    starts = np.cumsum(bk) - bk
    assert np.add.reduceat(w, starts).tolist() == bw
    assert np.add.reduceat(s, starts).tolist() == bs
    assert all(s0 * w1 < s1 * w0 for w0, s0, w1, s1 in zip(bw, bs, bw[1:], bs[1:]))
    return np.repeat(np.divide(bs, bw), bk)


def test_kernel_matches_stack_oracle_bit_for_bit():
    for w, s in _kernel_corpus():
        want = stack_pool_values(w, s)
        got = _pooled_values(w, s)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_pooled_block_prefix_means_are_at_least_the_block_mean():
    # every prefix of a pooled block has a mean at least the block's, and
    # every suffix one at most it, so the pooled blocks of a block's left
    # part never pool with the block's left neighbour. Means are compared by
    # integer cross-multiplication.
    for w, s in _kernel_corpus():
        bw, bs, bk = (np.array(v, dtype=np.int64) for v in _pool_blocks(w, s))
        block = np.repeat(np.arange(bk.shape[0]), bk)
        first = np.cumsum(bk) - bk
        # counts and outcome sums of each knot's block up to that knot
        cw, cs = np.cumsum(w), np.cumsum(s)
        pw = cw - (cw - w)[first][block]
        ps = cs - (cs - s)[first][block]
        W, S = bw[block], bs[block]
        assert np.all(ps * W >= S * pw)
        # and from that knot to the block's end
        sw, ss = W - pw + w, S - ps + s
        assert np.all(ss * W <= S * sw)


def _assert_rows_pool_apart(group):
    """_pool_rows on the fits of group laid end to end gives each fit's own
    blocks, in order; returns whether _pool_blocks on them does not."""
    w = np.concatenate([gw for gw, _ in group])
    s = np.concatenate([gs for _, gs in group])
    row = np.repeat(np.arange(len(group)), [gw.shape[0] for gw, _ in group])
    want = ([], [], [])
    for gw, gs in group:
        for out, part in zip(want, _pool_blocks(gw, gs)):
            out += part
    bw, bs, bk = _pool_rows(w, s, row)
    assert bw.dtype == bs.dtype == np.int64
    assert (bw.tolist(), bs.tolist(), bk) == want
    return _pool_blocks(w, s) != want


def test_row_barriers_pool_each_fit_as_on_its_own():
    # fits of the kernel corpus laid end to end in groups, so that a falling
    # fit often follows a rising one and would pool into it were it not
    # lifted above it; staircases make the passes stop early, so the stack
    # finishes
    corpus = list(_kernel_corpus())
    rng = np.random.default_rng(12)
    crossed = 0
    for lo in range(0, len(corpus), 7):
        order = rng.permutation(np.arange(lo, min(lo + 7, len(corpus))))
        crossed += _assert_rows_pool_apart([corpus[i] for i in order])
    assert crossed > 0
    # the tightest boundary: every row ends in a block of mean 1 and the
    # next starts with a block of mean 0, over as many rows as one run of
    # the split engine holds at n = 64 and s = 1/2
    n = 64
    c, k = _RUN_CELLS // n, n // 2
    s = (rng.random((c, k)) < 0.5).astype(np.int64)
    s[:, 0], s[:, -1] = 0, 1
    w = np.ones(k, np.int64)
    assert _assert_rows_pool_apart([(w, row) for row in s])


def _laplace_corpus():
    for w, s in _kernel_corpus():
        yield w, s, np.linspace(0.0005, 0.9995, w.shape[0])
    # tied forecasts, and one constant forecast
    rng = np.random.default_rng(19)
    for n in (7, 400, 6000):
        p = np.round(rng.uniform(0.01, 0.99, size=n), 1)
        y = (rng.random(n) < p).astype(np.int64)
        knots, inverse = np.unique(p, return_inverse=True)
        yield (np.bincount(inverse).astype(np.int64),
               np.bincount(inverse, weights=y).astype(np.int64), knots)
    for n, ones in ((1, 0), (1, 1), (50, 0), (50, 50), (50, 17)):
        yield np.array([n], np.int64), np.array([ones], np.int64), np.array([0.3])


def test_laplace_smooth_matches_run_reference_bit_for_bit():
    # the smoothed values read from the pooled blocks equal the old smoothing,
    # which found each block again as a maximal run of equal fitted values
    for w, s, knots in _laplace_corpus():
        p = np.repeat(knots, w)
        y = np.concatenate([[1] * ones + [0] * (count - ones) for count, ones in zip(w, s)])
        sm = laplace_smooth(_fit(p, y))
        want = laplace_values_reference(stack_pool_values(w, s), w, s)
        assert np.array_equal(sm.knots, knots)
        assert np.array_equal(sm.values.view(np.int64), want.view(np.int64))


# Edge inputs must finish within a stated bound: the kernel takes about 0.1 s
# on either case on a 2-core x86 server, and a hang or a quadratic pass count
# would not finish in time.
KERNEL_TIME_BOUND_S = 10.0


def test_kernel_time_bound_on_adversarial_staircase():
    # the heavy last block pools about 1.5e5 knots into one, and every
    # pooling pass removes just one block, so the stack phase must take
    # over. With n = w.sum() about 4e8, every cross-product is at most
    # n^2 < 2^63, so the int64 comparison cannot overflow.
    w, s = farey_staircase(200_000)
    assert int(w.sum()) ** 2 < 2**63
    t0 = time.perf_counter()
    blocks = _pool_blocks(w, s)
    assert time.perf_counter() - t0 < KERNEL_TIME_BOUND_S
    assert blocks == _pool_blocks(w, s)
    values = _pooled_values(w, s)
    assert np.array_equal(values.view(np.int64), stack_pool_values(w, s).view(np.int64))


def test_kernel_time_bound_on_a_million_random_outcomes():
    rng = np.random.default_rng(11)
    y = (rng.random(1_000_000) < 0.5).astype(np.int64)
    t0 = time.perf_counter()
    w = np.ones(y.size, np.int64)
    blocks = _pool_blocks(w, y)
    assert time.perf_counter() - t0 < KERNEL_TIME_BOUND_S
    assert blocks == _pool_blocks(w, y)
    values = _pooled_values(w, y)
    assert np.array_equal(values.view(np.int64), stack_pool_values(w, y).view(np.int64))


class TestOosPredict:
    def test_empty_prefix(self):
        assert oos_predict([], [], 0.4) == 0.5

    def test_hand_cases(self):
        assert oos_predict([0.3], [1], 0.6) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert oos_predict([0.3], [0], 0.1) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_at_existing_knot(self):
        # augmentation merges into the tied knot instead of adding one
        q = oos_predict([0.5, 0.5], [1, 0], 0.5)
        # g1 = 2/3, g0 = 1/3 -> q = (2/3) / (2/3 + 1/3) = 0.5
        assert q == pytest.approx(0.5, abs=1e-15)

    def test_is_probability(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(0, 25))
            p = rng.random(n)
            y = (rng.random(n) < 0.5).astype(int)
            for p_new in rng.random(4):
                q = oos_predict(p, y, float(p_new))
                assert 0.0 <= q <= 1.0

    def test_nondecreasing_in_p_new(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 20))
            p = rng.choice(np.linspace(0.1, 0.9, 9), size=n)
            y = (rng.random(n) < p).astype(int)
            grid = np.linspace(0.0, 1.0, 21)
            qs = [oos_predict(p, y, float(t)) for t in grid]
            assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))

    def test_matches_explicitly_augmented_fits(self):
        # reconstruct the definition through the public fit: g1 and g0 are
        # the fitted values at p_new after adding an artificial success or
        # failure there, and the prediction is g1 / (g1 + 1 - g0). Short
        # prefixes on five levels, then continuous prefixes of up to 300
        # observations, whose block holding p_new can exceed the 32 knots
        # that the stack algorithm takes alone.
        rng = np.random.default_rng(14)
        prefixes = []
        for _ in range(40):
            n = int(rng.integers(1, 15))
            prefixes.append(rng.choice(np.linspace(0.1, 0.9, 5), size=n))
        for _ in range(30):
            prefixes.append(rng.random(int(rng.integers(15, 301))))
        wide = 0
        for p in prefixes:
            y = (rng.random(p.size) < 0.5).astype(int)
            prefix_fit = _fit(p, y)
            sizes = prefix_fit.pool_sizes
            firsts = prefix_fit.knots[np.cumsum(sizes) - sizes]
            # new points between the knots, and on a knot of the prefix
            for p_new in [*rng.random(3), rng.choice(p)]:
                wide += sizes[max(np.searchsorted(firsts, p_new, side="right") - 1, 0)] > 32
                aug_p = np.append(p, p_new)
                g = []
                for label in (1, 0):
                    fit = _fit(aug_p, np.append(y, label))
                    j = np.searchsorted(fit.knots, p_new)
                    g.append(float(fit.values[j]))
                g1, g0 = g
                q = oos_predict(p, y, float(p_new))
                assert g0 - 1e-15 <= q <= g1 + 1e-15
                assert q == g1 / (g1 + 1.0 - g0)
        assert wide >= 10

    def test_validation(self):
        with pytest.raises(InputError):
            oos_predict([0.5], [1], 1.5)
        with pytest.raises(InputError):
            oos_predict([0.5], [1, 0], 0.5)
        with pytest.raises(InputError):
            oos_predict([1.5], [1], 0.5)
        with pytest.raises(InputError):
            oos_predict([0.5], [2], 0.5)
        with pytest.raises(InputError):
            oos_predict([float("nan"), 0.3], [1, 0], 0.5)
        with pytest.raises(InputError):
            oos_predict([], [1], 0.5)


class TestFixedSetValues:
    """Many new points against one fixed sample, as the exact e-value asks:
    every q must have the bits of two full refits."""

    @staticmethod
    def _assert_refit_bits(p, y, points):
        knots, w, s = knot_stats(p, y) if len(p) else ([], [], [])
        values = _fixed_set_values(knots, w, s, points)
        assert len(values) == len(points)
        for x, (g0, g1) in zip(points, values):
            assert _oos_value(g0, g1).hex() == oos_reference(knots, w, s, x).hex()

    def test_empty_set(self):
        self._assert_refit_bits([], [], [0.05, 0.5, 0.95])

    def test_ties_at_the_ends_and_points_outside_the_knots(self):
        p = [0.2, 0.2, 0.35, 0.5, 0.5, 0.5, 0.8, 0.8]
        for y in ([1, 0, 0, 1, 1, 0, 0, 1], [0, 0, 1, 0, 1, 1, 1, 1], [1, 1, 0, 1, 0, 0, 0, 0]):
            # the first and the last knot, every other knot, below and above
            # every knot, and between knots
            self._assert_refit_bits(p, y, [0.2, 0.8, 0.35, 0.5, 0.01, 0.99, 0.3, 0.6])

    def test_one_block_sets(self):
        # outcomes falling with p pool every knot into one block
        p = np.linspace(0.1, 0.9, 9)
        for y in ((p < 0.45).astype(int), (p < 0.75).astype(int), np.array([1, 1, 1, 0, 1, 0, 0, 0, 0])):
            knots, w, s = knot_stats(p, y)
            assert len(_pool_blocks(np.array(w), np.array(s))[0]) == 1
            self._assert_refit_bits(p, y, [0.05, 0.1, 0.3, 0.55, 0.9, 0.95])

    def test_random_sets(self):
        rng = np.random.default_rng(53)
        for t in range(300):
            n = int(rng.integers(0, 16))
            p = rng.uniform(0.05, 0.95, n)
            if t % 2:
                p = np.clip(np.round(p, 1), 0.1, 0.9)
            y = (rng.random(n) < rng.choice([0.2, 0.5, 0.8])).astype(int)
            points = [*p[: n // 2], *rng.uniform(0.0, 1.0, 4), *np.round(rng.uniform(0.05, 0.95, 2), 1)]
            self._assert_refit_bits(p, y, [float(x) for x in points])


class TestLaplace:
    def test_single_observation_blocks(self):
        fit = laplace_smooth(_fit([0.4], [1]))
        assert fit.values[0] == pytest.approx(0.75, abs=1e-15)
        fit = laplace_smooth(_fit([0.4, 0.5, 0.6], [0, 0, 0]))
        # one block of weight 3, no successes: (0.5 + 0) / 4
        assert np.all(fit.values == 0.125)

    def test_balanced_block(self):
        fit = laplace_smooth(_fit([0.2, 0.8], [1, 0]))
        assert np.all(fit.values == 0.5)

    def test_strictly_interior(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            n = int(rng.integers(1, 50))
            p = rng.random(n)
            y = (rng.random(n) < p).astype(int)
            sm = laplace_smooth(_fit(p, y))
            assert np.all(sm.values > 0.0) and np.all(sm.values < 1.0)

    def test_monotone_for_equal_weight_blocks(self):
        # with equal block weights the smoothing is order preserving
        p = np.repeat(np.linspace(0.1, 0.9, 5), 10)
        counts = [1, 3, 5, 7, 9]
        y = np.concatenate([[1] * c + [0] * (10 - c) for c in counts])
        sm = laplace_smooth(_fit(p, y))
        assert np.all(np.diff(sm.values) >= 0)

    def test_boundary_block_dip(self):
        # smoothing is not monotone in general: a heavy block followed by a
        # light one with a higher mean can cross after shrinkage toward 1/2
        p = np.linspace(0.1, 0.9, 11)
        y = np.array([1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1])
        fit = _fit(p, y)
        assert list(np.unique(fit.values)) == [0.9, 1.0]
        sm = laplace_smooth(fit)
        assert sm.values[0] == pytest.approx(9.5 / 11.0, abs=1e-15)
        assert sm.values[-1] == pytest.approx(0.75, abs=1e-15)
        assert sm.values[-1] < sm.values[0]

    def test_smoothed_fit_validation(self):
        bad = [
            ([0.5], [1.0]),
            ([0.5], [float("nan")]),
            ([0.8, 0.2], [0.3, 0.6]),
            ([0.2, 0.2], [0.3, 0.6]),
            ([0.2, float("nan")], [0.3, 0.6]),
            ([float("nan")], [0.3]),
            ([-0.1, 0.2], [0.3, 0.6]),
            ([0.2, 1.5], [0.3, 0.6]),
        ]
        for knots, values in bad:
            with pytest.raises(InputError):
                SmoothedFit(np.array(knots), np.array(values))


class TestInterpolate:
    def test_between_and_beyond_knots(self):
        fit = SmoothedFit(np.array([0.2, 0.8]), np.array([0.25, 0.75]))
        assert interpolate(fit, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert interpolate(fit, 0.1) == 0.25
        assert interpolate(fit, 0.9) == 0.75
        assert interpolate(fit, 0.2) == 0.25

    def test_single_knot_is_constant(self):
        fit = SmoothedFit(np.array([0.4]), np.array([0.6]))
        for t in (0.0, 0.4, 1.0):
            assert interpolate(fit, t) == 0.6

    def test_vectorized(self):
        fit = SmoothedFit(np.array([0.2, 0.8]), np.array([0.25, 0.75]))
        out = interpolate(fit, np.array([0.0, 0.5, 1.0]))
        assert out.shape == (3,)
        assert list(out) == [0.25, 0.5, 0.75]

    def test_output_interior(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            p = rng.random(n)
            y = (rng.random(n) < p).astype(int)
            sm = laplace_smooth(_fit(p, y))
            vals = interpolate(sm, np.linspace(0.0, 1.0, 33))
            assert np.all(vals > 0.0) and np.all(vals < 1.0)

    def test_domain(self):
        fit = SmoothedFit(np.array([0.5]), np.array([0.5]))
        with pytest.raises(InputError):
            interpolate(fit, 1.2)
        with pytest.raises(InputError):
            interpolate(fit, np.array([0.5, float("nan")]))


def test_objective_beats_random_monotone_candidates():
    # any monotone candidate scores no better than the fit
    rng = np.random.default_rng(40)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        p = rng.random(n)
        y = (rng.random(n) < p).astype(int)
        fit = _fit(p, y)
        best = _fit_objective(fit, p, y)
        for _ in range(20):
            cand = np.sort(rng.random(len(fit)))
            idx = np.searchsorted(fit.knots, p)
            assert log_score(p, y, cand[idx]) <= best + 1e-9
