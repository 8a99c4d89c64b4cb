import math
import time

import numpy as np
import pytest

import ehl.recalibrate
from ehl import (
    InputError,
    RecalCurve,
    SampleSet,
    bagged_recalibrate,
    isotonic_recalibrate,
    split_evalue,
)
from ehl.isotonic import laplace_smooth, pava_fit
from ehl.numeric import expit_array, logit
from helpers import bagged_reference


def _ss(p, y):
    return SampleSet(p, y)


def _calibrated(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 0.95, size=n)
    y = (rng.random(n) < p).astype(int)
    return _ss(p, y)


class TestUnbagged:
    def test_balanced_pair_maps_everything_to_half(self):
        # one pooled block with one success in two trials: (0.5 + 1) / 3
        curve = isotonic_recalibrate(_ss([0.3, 0.7], [1, 0]))
        assert np.all(curve.mean == 0.5)
        assert np.all(curve.apply([0.0, 0.3, 0.55, 1.0]) == 0.5)
        assert curve.n_bags == 1

    def test_single_observation(self):
        curve = isotonic_recalibrate(_ss([0.4], [1]))
        assert np.all(curve.apply([0.0, 0.4, 1.0]) == 0.75)

    def test_band_degenerates_to_curve(self):
        curve = isotonic_recalibrate(_calibrated(50, seed=1))
        assert np.array_equal(curve.q_low, curve.mean)
        assert np.array_equal(curve.q_high, curve.mean)

    def test_grid_layout(self):
        curve = isotonic_recalibrate(_calibrated(30, seed=2))
        assert curve.grid.size == 1001
        assert curve.grid[0] == 0.0 and curve.grid[-1] == 1.0
        assert np.allclose(np.diff(curve.grid), 0.001)
        curve = isotonic_recalibrate(_calibrated(30, seed=2), grid_size=11)
        assert curve.grid.size == 11
        with pytest.raises(InputError):
            isotonic_recalibrate(_calibrated(30, seed=2), grid_size=1)

    def test_constant_extension_outside_knots(self):
        curve = isotonic_recalibrate(_ss([0.4, 0.6], [0, 1]))
        fit = curve.fits[0]
        assert curve.apply(0.0) == fit.values[0]
        assert curve.apply(0.2) == fit.values[0]
        assert curve.apply(0.8) == fit.values[-1]
        assert curve.apply(1.0) == fit.values[-1]

    def test_near_identity_on_calibrated_data(self):
        curve = isotonic_recalibrate(_calibrated(4000, seed=3))
        grid = np.linspace(0.1, 0.9, 33)
        out = curve.apply(grid)
        assert np.max(np.abs(out - grid)) < 0.1
        assert np.mean(np.abs(out - grid)) < 0.03

    def test_monotone_when_blocks_share_weight(self):
        p = np.repeat(np.linspace(0.1, 0.9, 5), 10)
        counts = [1, 3, 5, 7, 9]
        y = np.concatenate([[1] * c + [0] * (10 - c) for c in counts])
        curve = isotonic_recalibrate(_ss(p, y))
        out = curve.apply(np.linspace(0.0, 1.0, 101))
        assert np.all(np.diff(out) >= 0)

    def test_light_trailing_block_can_dip(self):
        # interpolation follows the smoothed knot values, which are not
        # monotone when a light block follows a heavy one
        p = np.linspace(0.1, 0.9, 11)
        y = np.array([1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1])
        curve = isotonic_recalibrate(_ss(p, y))
        assert curve.apply(0.1) == pytest.approx(9.5 / 11.0, abs=1e-15)
        assert curve.apply(0.9) == pytest.approx(0.75, abs=1e-15)
        assert curve.apply(0.9) < curve.apply(0.1)

    def test_output_strictly_interior(self):
        curve = isotonic_recalibrate(_ss([0.2, 0.5, 0.9], [0, 0, 0]))
        out = curve.apply(np.linspace(0.0, 1.0, 50))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_apply_domain(self):
        curve = isotonic_recalibrate(_calibrated(20, seed=4))
        with pytest.raises(InputError):
            curve.apply([0.5, 1.2])
        with pytest.raises(InputError):
            curve.apply([-0.1])
        with pytest.raises(InputError):
            curve.apply([0.5, float("nan")])


class TestBagged:
    def test_determinism_and_seed_sensitivity(self):
        ss = _calibrated(80, seed=5)
        a = bagged_recalibrate(ss, n_bags=12, seed=9)
        b = bagged_recalibrate(ss, n_bags=12, seed=9)
        c = bagged_recalibrate(ss, n_bags=12, seed=10)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.q_low, b.q_low)
        assert np.array_equal(a.q_high, b.q_high)
        assert not np.array_equal(a.mean, c.mean)

    def test_single_bag_matches_manual_resample(self):
        ss = _calibrated(60, seed=6)
        curve = bagged_recalibrate(ss, n_bags=1, seed=4)
        rng = np.random.default_rng([4, 0])
        idx = rng.integers(0, 60, size=60)
        fit = laplace_smooth(pava_fit(ss.take(idx)))
        grid = np.linspace(0.0, 1.0, 1001)
        assert np.array_equal(curve.mean, np.interp(grid, fit.knots, fit.values))
        assert np.array_equal(curve.q_low, curve.mean)

    def test_constant_forecasts_closed_form(self):
        # every bag fits the single knot 0.5 with value (0.5 + S_b)/(n + 1),
        # so the curve is flat at the average of those constants
        n, bags, seed = 40, 5, 3
        rng = np.random.default_rng(11)
        y = (rng.random(n) < 0.5).astype(int)
        ss = _ss(np.full(n, 0.5), y)
        curve = bagged_recalibrate(ss, n_bags=bags, seed=seed)
        total = 0.0
        for b in range(bags):
            idx = np.random.default_rng([seed, b]).integers(0, n, size=n)
            total += (0.5 + y[idx].sum()) / (n + 1.0)
        assert curve.apply(0.37) == total / bags
        assert curve.apply(0.0) == curve.apply(1.0) == curve.apply(0.37)

    def test_band_brackets_the_bags(self):
        ss = _calibrated(100, seed=7)
        curve = bagged_recalibrate(ss, n_bags=50, seed=1)
        assert np.all(curve.q_low <= curve.q_high)
        assert np.all(curve.q_low > 0.0) and np.all(curve.q_high < 1.0)
        assert curve.band == (0.01, 0.99)
        narrow = bagged_recalibrate(ss, n_bags=50, seed=1, band=(0.25, 0.75))
        assert np.all(narrow.q_low >= curve.q_low)
        assert np.all(narrow.q_high <= curve.q_high)
        assert np.array_equal(narrow.mean, curve.mean)

    def test_apply_is_exact_mean_of_bag_fits(self):
        ss = _calibrated(70, seed=8)
        curve = bagged_recalibrate(ss, n_bags=7, seed=2)
        pts = np.array([0.03, 0.41, 0.77])
        manual = np.zeros(3)
        for fit in curve.fits:
            manual += np.interp(pts, fit.knots, fit.values)
        assert np.array_equal(curve.apply(pts), manual / 7)

    def test_thread_count_does_not_change_result(self, forced_pool):
        ss = _calibrated(90, seed=9)
        one = bagged_recalibrate(ss, n_bags=13, seed=5, threads=1)
        assert forced_pool == []
        three = bagged_recalibrate(ss, n_bags=13, seed=5, threads=3)
        assert forced_pool == [3]
        assert one.to_csv() == three.to_csv()
        grid = np.linspace(0.0, 1.0, 101)
        assert one.apply(grid).tobytes() == three.apply(grid).tobytes()

    def test_smoother_than_single_fit(self):
        # bagging averages staircase jumps away: the largest grid increment
        # shrinks against the unbagged curve on the same data
        ss = _calibrated(200, seed=10)
        single = isotonic_recalibrate(ss)
        bagged = bagged_recalibrate(ss, n_bags=40, seed=0)
        assert np.max(np.diff(bagged.mean)) < np.max(np.diff(single.mean))

    # held with room for slow shared hosts: on a 2-core x86 server four
    # bags of 10^5 rows take about 0.08 s
    def test_time_bound_at_10_to_the_5_rows(self):
        ss = _calibrated(100_000, seed=43)
        start = time.perf_counter()
        curve = bagged_recalibrate(ss, n_bags=4, seed=0)
        assert time.perf_counter() - start < 2.0
        assert len(curve.fits) == 4 and np.all((curve.mean > 0.0) & (curve.mean < 1.0))

    def test_domain_errors(self):
        ss = _calibrated(20, seed=11)
        with pytest.raises(InputError):
            bagged_recalibrate(ss, n_bags=0)
        with pytest.raises(InputError):
            bagged_recalibrate(ss, n_bags=5, band=(0.9, 0.1))
        with pytest.raises(InputError):
            bagged_recalibrate(ss, n_bags=5, band=(0.0, 1.5))
        with pytest.raises(InputError):
            bagged_recalibrate(ss, n_bags=5, threads=0)


def _two_decimal(n, seed):
    ss = _calibrated(n, seed)
    return _ss(np.round(ss.p, 2), ss.y)


def _with_ends(n, seed):
    # forecasts of exactly 0 and 1 among one-decimal ties
    rng = np.random.default_rng(seed)
    p = np.round(rng.uniform(size=n), 1)
    p[: n // 8] = 0.0
    p[n // 8 : n // 4] = 1.0
    y = (rng.random(n) < np.clip(p, 0.1, 0.9)).astype(int)
    return _ss(p, y)


_SAMPLES = {
    "two_decimal_ties": lambda: _two_decimal(2000, seed=20),
    "constant_forecasts": lambda: _ss(np.full(300, 0.4), _calibrated(300, seed=21).y),
    "all_0": lambda: _ss(_calibrated(300, seed=22).p, np.zeros(300, dtype=int)),
    "all_1": lambda: _ss(_calibrated(300, seed=23).p, np.ones(300, dtype=int)),
    "n_1": lambda: _ss([0.3], [1]),
    "n_2": lambda: _ss([0.7, 0.2], [0, 1]),
    "forecasts_0_and_1": lambda: _with_ends(400, seed=24),
    "continuous_10_to_the_5": lambda: _calibrated(100_000, seed=25),
}


def _curve(ss, n_bags, seed):
    # n_bags 0 is the unbagged fit, as with --bags 0
    return isotonic_recalibrate(ss) if n_bags == 0 else bagged_recalibrate(ss, n_bags, seed=seed)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def test_grid_size_below_2_is_refused_before_any_fit(monkeypatch):
    def refuse(*args):
        raise AssertionError("a curve was fitted")

    monkeypatch.setattr(ehl.recalibrate, "_block_ends_fit", refuse)
    recal = _calibrated(200, seed=4)
    for grid_size in (1, 0):
        with pytest.raises(InputError, match="grid size"):
            isotonic_recalibrate(recal, grid_size=grid_size)
        with pytest.raises(InputError, match="grid size"):
            bagged_recalibrate(recal, 40, 1, grid_size=grid_size)


class TestAgainstBagLoop:
    """The counted two-knot bag fits against the frozen per-bag loop."""

    @pytest.mark.parametrize("n_bags", [0, 1, 7])
    @pytest.mark.parametrize("name", list(_SAMPLES))
    def test_curve_and_apply_bit_for_bit(self, name, n_bags):
        ss = _SAMPLES[name]()
        points = np.concatenate([np.linspace(0.0, 1.0, 257), ss.p, [-0.0, 0.0, 1.0]])
        want = bagged_reference(ss, n_bags, 5, points)
        curve = _curve(ss, n_bags, seed=5)
        got = (curve.grid, curve.mean, curve.q_low, curve.q_high, curve.apply(points))
        for name_, a, b in zip(("grid", "mean", "q_low", "q_high", "apply"), got, want):
            assert np.array_equal(_bits(a), _bits(b)), name_

    @pytest.mark.parametrize("n_bags", [0, 6])
    @pytest.mark.parametrize("name", list(_SAMPLES))
    def test_two_knots_per_pooled_block(self, name, n_bags):
        ss = _SAMPLES[name]()
        curve = _curve(ss, n_bags, seed=8)
        fits = bagged_reference(ss, n_bags, 8, [])[5]
        assert len(curve.fits) == len(fits)
        for fit, ref in zip(curve.fits, fits):
            assert np.all(np.diff(fit.knots) > 0)
            # the smallest and largest forecast the bag drew
            assert fit.knots[0] == ref.knots[0] and fit.knots[-1] == ref.knots[-1]
            last = np.cumsum(ref.pool_sizes) - 1
            first = last + 1 - ref.pool_sizes
            block = np.searchsorted(ref.knots[last], fit.knots)
            # each stored knot is its pooled block's first or last knot, and
            # every block keeps both (one when they coincide)
            assert np.array_equal(np.searchsorted(ref.knots, fit.knots), np.union1d(first, last))
            kept = np.bincount(block, minlength=last.size)
            assert np.all(kept == np.where(ref.pool_sizes > 1, 2, 1))
            value = (0.5 + ref.pool_sums) / (ref.pool_weights + 1.0)
            assert np.array_equal(_bits(fit.values), _bits(value[block]))


class TestApplyShapes:
    @pytest.fixture(autouse=True)
    def _fitted(self):
        self.curve = bagged_recalibrate(_calibrated(200, seed=30), 5, seed=1)

    def _reference(self, pts):
        return bagged_reference(_calibrated(200, seed=30), 5, 1, pts)[4]

    @pytest.mark.parametrize("point", [0.37, np.float64(0.37), np.array(0.37)])
    def test_scalar_in_scalar_out(self, point):
        out = self.curve.apply(point)
        assert np.ndim(out) == 0 and isinstance(out, np.float64)
        assert _bits(out) == _bits(self._reference(0.37))

    def test_two_dimensional(self):
        pts = np.array([[0.2, 0.9, 0.2], [0.55, 0.0, 0.9]])
        out = self.curve.apply(pts)
        assert out.shape == (2, 3)
        assert np.array_equal(_bits(out), _bits(self._reference(pts)))
        assert np.array_equal(_bits(out.ravel()), _bits(self.curve.apply(pts.ravel())))

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty(self, shape):
        out = self.curve.apply(np.empty(shape))
        assert out.shape == shape and out.dtype == np.float64

    def test_negative_zero(self):
        out = self.curve.apply([-0.0, 0.0, -0.0])
        assert np.array_equal(_bits(out), _bits(np.full(3, self.curve.apply(0.0))))
        assert _bits(self.curve.apply(-0.0)) == _bits(self._reference(0.0))

    @pytest.mark.parametrize(
        "bad", [float("nan"), [[0.2, float("nan")]], 1.5, [[-0.1, 0.3]], [0.5, np.inf]]
    )
    def test_nan_and_out_of_range_raise(self, bad):
        with pytest.raises(InputError):
            self.curve.apply(bad)

    # held with room for slow shared hosts: on a 2-core x86 server one
    # apply of 10^5 points on 20 bags of 10^5 rows takes 15-30 ms
    def test_time_bound_at_10_to_the_5_points(self):
        ss = _calibrated(100_000, seed=44)
        curve = bagged_recalibrate(ss, n_bags=20, seed=0)
        start = time.perf_counter()
        out = curve.apply(ss.p)
        assert time.perf_counter() - start < 1.0
        assert out.shape == ss.p.shape and np.all((out > 0.0) & (out < 1.0))


class TestCurveObject:
    def test_csv_layout_and_roundtrip(self):
        curve = bagged_recalibrate(_calibrated(40, seed=12), n_bags=6, seed=1, grid_size=21)
        text = curve.to_csv()
        lines = text.splitlines()
        assert lines[0] == "p,mean,q_low,q_high"
        assert len(lines) == 22
        cells = lines[1].split(",")
        assert float(cells[0]) == 0.0
        assert float(cells[1]) == curve.mean[0]
        cells = lines[-1].split(",")
        assert float(cells[0]) == 1.0
        assert float(cells[3]) == curve.q_high[-1]

    def test_validation(self):
        g = np.linspace(0.0, 1.0, 5)
        with pytest.raises(InputError):
            RecalCurve(g, g[:3], g, g, (0.01, 0.99), 1, ())
        fit = laplace_smooth(pava_fit(_ss([0.5], [1])))
        with pytest.raises(InputError):
            RecalCurve(g, g, g, g, (0.01, 0.99), 0, ())
        curve = RecalCurve(g, g, g, g, (0.01, 0.99), 1, (fit,))
        with pytest.raises(ValueError):
            curve.mean[0] = 2.0


class TestPipeline:
    def test_recalibration_removes_most_evidence(self):
        # forecasts pushed away from the truth: the raw split test rejects
        # decisively, while the recalibrated forecasts retain at most noise
        rng = np.random.default_rng(13)
        n_recal, n_eval = 3000, 1500
        p = rng.uniform(0.05, 0.95, size=n_recal + n_eval)
        truth = expit_array(np.asarray([logit(v) for v in p]) * 0.45)
        y = (rng.random(n_recal + n_eval) < truth).astype(int)

        recal = _ss(p[:n_recal], y[:n_recal])
        raw_eval = _ss(p[n_recal:], y[n_recal:])
        raw = split_evalue(raw_eval, 0.5, 50, seed=0)
        assert raw.reject_at_20
        assert raw.log_e > math.log(1e8)

        for curve in (
            isotonic_recalibrate(recal),
            bagged_recalibrate(recal, n_bags=50, seed=0),
        ):
            fixed_eval = raw_eval.with_p(curve.apply(raw_eval.p))
            fixed = split_evalue(fixed_eval, 0.5, 50, seed=0)
            assert raw.log_e - fixed.log_e > math.log(1e6)
            assert fixed.e_value < 100.0
