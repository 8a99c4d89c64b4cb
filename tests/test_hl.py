import math
import time
import warnings

import numpy as np
import pytest

from ehl import (
    METHODS,
    SWEEP_G_VALUES,
    DegreesOfFreedomError,
    InputError,
    SampleSet,
    bin_equal_count,
    bin_equidistant,
    bin_quantile,
    hl_pvalue,
    hl_statistic,
    hl_sweep,
    hl_test,
    make_binning,
)
from ehl.numeric import chisq_sf

from helpers import hl_bins_reference, hl_table_reference, type7_quantile


def _ss(p, y):
    return SampleSet(p, y)


def _bins_as_sets(binning):
    return [set(map(int, b)) for b in binning.bins]


def _stat_oracle(samples, binning):
    # recompute the statistic from the bin index sets by direct summation
    total = 0.0
    for idx in binning.bins:
        c = idx.size
        o1 = float(samples.y[idx].sum())
        e1 = float(samples.p[idx].sum())
        if e1 == 0.0 and o1 != 0.0:
            return float("inf")
        if c - e1 == 0.0 and c - o1 != 0.0:
            return float("inf")
        if e1 != 0.0:
            total += (o1 - e1) ** 2 / e1
        if c - e1 != 0.0:
            total += ((c - o1) - (c - e1)) ** 2 / (c - e1)
    return total


class TestEquidistant:
    def test_empty_interior_bins_are_dropped(self):
        b = bin_equidistant(_ss([0.1, 0.2, 0.9], [0, 0, 1]), 4)
        assert b.g_requested == 4
        assert b.g_realized == 2
        assert _bins_as_sets(b) == [{0, 1}, {2}]

    def test_cut_value_goes_left(self):
        b = bin_equidistant(_ss([0.1, 0.5, 0.9], [0, 0, 1]), 2)
        assert _bins_as_sets(b) == [{0, 1}, {2}]

    def test_constant_forecasts_collapse_to_one_bin(self):
        b = bin_equidistant(_ss([0.4] * 5, [0, 1, 0, 1, 0]), 5)
        assert b.g_realized == 1
        assert _bins_as_sets(b) == [{0, 1, 2, 3, 4}]

    def test_full_range_forecasts(self):
        b = bin_equidistant(_ss([0.0, 0.5, 1.0], [0, 0, 1]), 2)
        assert _bins_as_sets(b) == [{0, 1}, {2}]

    def test_partition(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 80))
            p = rng.random(n)
            y = (rng.random(n) < p).astype(int)
            g = int(rng.integers(1, n + 10))
            b = bin_equidistant(_ss(p, y), g)
            flat = np.concatenate(b.bins)
            assert sorted(flat) == list(range(n))
            # bins are ordered by forecast value
            tops = [p[idx].max() for idx in b.bins]
            bots = [p[idx].min() for idx in b.bins]
            assert all(t <= nb for t, nb in zip(tops, bots[1:]))


class TestQuantile:
    def test_median_cut(self):
        b = bin_quantile(_ss([0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1]), 2)
        assert b.g_realized == 2
        assert _bins_as_sets(b) == [{0, 1}, {2, 3}]

    def test_side_decides_ties_with_cut(self):
        # the g = 2 cut of (0.1, 0.25, 0.4) lands exactly on 0.25
        ss = _ss([0.1, 0.25, 0.4], [0, 1, 1])
        left = bin_quantile(ss, 2, "left")
        right = bin_quantile(ss, 2, "right")
        assert _bins_as_sets(left) == [{0, 1}, {2}]
        assert _bins_as_sets(right) == [{0}, {1, 2}]
        assert left.method == "QL" and right.method == "QR"

    def test_duplicate_cuts_collapse(self):
        b = bin_quantile(_ss([0.5] * 4, [0, 1, 0, 1]), 2)
        assert b.g_realized == 1

    def test_cuts_match_quantile_definition(self):
        # cuts are the k/g sample quantiles with h = (n - 1) q + 1
        rng = np.random.default_rng(6)
        x = rng.random(37)
        for g in (2, 3, 5, 8):
            levels = np.arange(1, g) / g
            mine = np.quantile(x, levels)
            theirs = [type7_quantile(x, q) for q in levels]
            assert mine == pytest.approx(theirs, rel=1e-12)

    def test_partition(self):
        rng = np.random.default_rng(7)
        for side in ("left", "right"):
            for _ in range(15):
                n = int(rng.integers(2, 60))
                p = rng.random(n)
                y = (rng.random(n) < p).astype(int)
                g = int(rng.integers(1, n + 10))
                b = bin_quantile(_ss(p, y), g, side)
                assert sorted(np.concatenate(b.bins)) == list(range(n))


class TestEqualCount:
    def test_oversized_bin_positions(self):
        p = np.linspace(0.05, 0.95, 10)
        y = np.zeros(10, dtype=int)
        b = bin_equal_count(_ss(p, y), 3)
        assert [len(idx) for idx in b.bins] == [3, 4, 3]

    def test_remainder_spread(self):
        # n = 11, g = 4: two extras at ceil(4/8) = 1 and ceil(12/8) = 2
        p = np.linspace(0.05, 0.95, 11)
        b = bin_equal_count(_ss(p, np.zeros(11, dtype=int)), 4)
        assert [len(idx) for idx in b.bins] == [3, 3, 2, 3]

    def test_tie_order_splits_equal_forecasts(self):
        ss = _ss([0.5, 0.5], [0, 1])
        plus = bin_equal_count(ss, 2, "ascending")
        minus = bin_equal_count(ss, 2, "descending")
        assert _bins_as_sets(plus) == [{0}, {1}]
        assert _bins_as_sets(minus) == [{1}, {0}]
        assert plus.method == "Qplus" and minus.method == "Qminus"

    def test_no_ties_variants_agree(self):
        rng = np.random.default_rng(9)
        p = rng.permutation(np.linspace(0.01, 0.99, 23))
        y = (rng.random(23) < p).astype(int)
        a = bin_equal_count(_ss(p, y), 4, "ascending")
        d = bin_equal_count(_ss(p, y), 4, "descending")
        assert _bins_as_sets(a) == _bins_as_sets(d)

    def test_tie_order_changes_statistic(self):
        ss = _ss([0.5, 0.5, 0.5, 0.2], [0, 1, 1, 0])
        plus = bin_equal_count(ss, 2, "ascending")
        minus = bin_equal_count(ss, 2, "descending")
        sp = hl_statistic(ss, plus)
        sm = hl_statistic(ss, minus)
        assert sp != sm
        assert sp == pytest.approx(_stat_oracle(ss, plus), rel=1e-12)
        assert sm == pytest.approx(_stat_oracle(ss, minus), rel=1e-12)

    def test_partition_and_sizes(self):
        rng = np.random.default_rng(10)
        for order in ("ascending", "descending"):
            for _ in range(15):
                n = int(rng.integers(2, 60))
                p = rng.choice(np.linspace(0.1, 0.9, 9), size=n)
                y = (rng.random(n) < p).astype(int)
                g = int(rng.integers(1, n + 1))
                b = bin_equal_count(_ss(p, y), g, order)
                assert b.g_realized == g
                sizes = sorted(len(idx) for idx in b.bins)
                assert sizes[-1] - sizes[0] <= 1
                assert sorted(np.concatenate(b.bins)) == list(range(n))


class TestDispatch:
    def test_all_methods(self):
        rng = np.random.default_rng(12)
        p = rng.random(40)
        y = (rng.random(40) < p).astype(int)
        for m in METHODS:
            b = make_binning(_ss(p, y), m, 5)
            assert b.method == m

    def test_unknown_method(self):
        with pytest.raises(InputError):
            make_binning(_ss([0.5], [1]), "median", 1)

    def test_g_domain(self):
        ss = _ss([0.2, 0.8], [0, 1])
        with pytest.raises(InputError):
            make_binning(ss, "QR", 0)
        with pytest.raises(InputError):
            make_binning(ss, "E", 2.5)
        # only equal-count binning requires g <= n; edge-based binnings
        # just realize fewer bins
        with pytest.raises(InputError):
            make_binning(ss, "Qplus", 3)
        with pytest.raises(InputError):
            make_binning(ss, "Qminus", 3)
        assert make_binning(ss, "QR", 3).g_realized <= 3
        assert make_binning(ss, "E", 5).g_realized == 2


class TestStatistic:
    def test_perfectly_calibrated_bin(self):
        ss = _ss([0.5, 0.5], [1, 0])
        assert hl_statistic(ss, make_binning(ss, "E", 1)) == 0.0

    def test_hand_value(self):
        # o1 = 2, e1 = 1: (2-1)^2/1 + (0-1)^2/1 = 2
        ss = _ss([0.5, 0.5], [1, 1])
        assert hl_statistic(ss, make_binning(ss, "E", 1)) == 2.0

    def test_zero_expected_zero_observed_contributes_nothing(self):
        ss = _ss([1.0, 1.0], [1, 1])
        assert hl_statistic(ss, make_binning(ss, "E", 1)) == 0.0

    def test_zero_expected_nonzero_observed_is_infinite(self):
        ss = _ss([1.0, 1.0], [1, 0])
        with pytest.warns(RuntimeWarning):
            stat = hl_statistic(ss, make_binning(ss, "E", 1))
        assert stat == math.inf
        assert hl_pvalue(stat, 1) == 0.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(2, 100))
            p = rng.uniform(0.01, 0.99, size=n)
            y = (rng.random(n) < p).astype(int)
            ss = _ss(p, y)
            m = METHODS[int(rng.integers(0, 5))]
            g = int(rng.integers(1, min(n, 12) + 1))
            b = make_binning(ss, m, g)
            assert hl_statistic(ss, b) == pytest.approx(_stat_oracle(ss, b), rel=1e-12)

    def test_input_order_invariance(self):
        rng = np.random.default_rng(15)
        p = rng.choice(np.linspace(0.1, 0.9, 9), size=50)
        y = (rng.random(50) < p).astype(int)
        base = {
            m: hl_statistic(_ss(p, y), make_binning(_ss(p, y), m, 6)) for m in METHODS
        }
        for seed in range(4):
            perm = np.random.default_rng(seed).permutation(50)
            ss = _ss(p[perm], y[perm])
            for m in METHODS:
                got = hl_statistic(ss, make_binning(ss, m, 6))
                assert got == pytest.approx(base[m], rel=1e-12)


class TestPvalue:
    def test_pinned_critical_values(self):
        assert hl_pvalue(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-6)
        assert hl_pvalue(18.307038053275146, 10) == pytest.approx(0.05, abs=1e-4)

    def test_in_sample_costs_two_degrees(self):
        assert hl_pvalue(5.0, 7, estimated_in_sample=True) == chisq_sf(5.0, 5)
        assert hl_pvalue(5.0, 7) == chisq_sf(5.0, 7)

    def test_too_few_bins(self):
        with pytest.raises(DegreesOfFreedomError):
            hl_pvalue(1.0, 2, estimated_in_sample=True)
        with pytest.raises(DegreesOfFreedomError):
            hl_pvalue(1.0, 0)
        hl_pvalue(1.0, 1)
        hl_pvalue(1.0, 3, estimated_in_sample=True)


class TestHlTest:
    def test_report_fields(self):
        rng = np.random.default_rng(18)
        p = rng.uniform(0.05, 0.95, size=120)
        y = (rng.random(120) < p).astype(int)
        ss = _ss(p, y)
        report = hl_test(ss, "QR", 10)
        assert report.method == "QR"
        assert report.g_requested == 10
        assert report.g_realized == 10
        assert report.dof == 10
        assert not report.estimated_in_sample
        b = make_binning(ss, "QR", 10)
        assert report.statistic == hl_statistic(ss, b)
        assert report.p_value == chisq_sf(report.statistic, 10)

    def test_table_totals(self):
        rng = np.random.default_rng(19)
        p = rng.uniform(0.05, 0.95, size=60)
        y = (rng.random(60) < p).astype(int)
        report = hl_test(_ss(p, y), "E", 5)
        table = np.asarray(report.table)
        assert table[:, 0].sum() == 60
        assert table[:, 1].sum() == y.sum()
        assert table[:, 2].sum() == pytest.approx(p.sum(), rel=1e-12)
        assert np.all(table[:, 0] == table[:, 1] + table[:, 3])
        assert table[:, 4].sum() == pytest.approx((1 - p).sum(), rel=1e-12)

    def test_in_sample_flag(self):
        rng = np.random.default_rng(20)
        p = rng.uniform(0.05, 0.95, size=80)
        y = (rng.random(80) < p).astype(int)
        report = hl_test(_ss(p, y), "QL", 8, estimated_in_sample=True)
        assert report.dof == 6
        assert report.estimated_in_sample
        assert report.p_value == chisq_sf(report.statistic, 6)

    def test_json_dict(self):
        report = hl_test(_ss([0.2, 0.4, 0.6, 0.8], [0, 0, 1, 1]), "E", 2)
        d = report.to_json_dict()
        assert set(d) == {
            "method",
            "g_requested",
            "g_realized",
            "statistic",
            "dof",
            "p_value",
            "estimated_in_sample",
            "table",
        }
        assert len(d["table"]) == report.g_realized
        assert set(d["table"][0]) == {"count", "o1", "e1", "o0", "e0"}

    def test_collapsed_bins_shrink_dof(self):
        # constant forecasts: one realized bin, one degree of freedom
        report = hl_test(_ss([0.5] * 12, [0, 1] * 6), "QR", 4)
        assert report.g_realized == 1
        assert report.dof == 1


class TestSweep:
    def _data(self, n=400, seed=21):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.02, 0.98, size=n)
        y = (rng.random(n) < p).astype(int)
        return _ss(p, y)

    def test_default_grid(self):
        result = hl_sweep(self._data())
        assert result.methods == METHODS
        assert result.g_values == SWEEP_G_VALUES
        assert result.n_cells == 80
        assert len(result.reports) == 80
        assert not result.failures
        ps = [r.p_value for r in result.reports.values()]
        assert result.p_min == min(ps)
        assert result.p_max == max(ps)
        assert 0.0 <= result.p_min <= result.p_max <= 1.0

    def test_cells_match_single_tests(self):
        ss = self._data(n=150, seed=22)
        result = hl_sweep(ss, g_values=(5, 9), methods=("QR", "E"))
        for (m, g), rep in result.reports.items():
            single = hl_test(ss, m, g)
            assert rep.statistic == single.statistic
            assert rep.p_value == single.p_value

    def test_csv_layout(self):
        result = hl_sweep(self._data(n=200, seed=23))
        text = result.to_csv()
        lines = text.splitlines()
        assert lines[0] == "g," + ",".join(METHODS)
        assert len(lines) == 1 + len(SWEEP_G_VALUES)
        assert text.endswith("\n")
        first = lines[1].split(",")
        assert first[0] == "5"
        # machine cells round-trip exactly
        assert float(first[1]) == result.reports[("QL", 5)].p_value

    def test_csv_display_mode(self):
        result = hl_sweep(self._data(n=200, seed=24), g_values=(6,), methods=("QR",))
        cell = result.to_csv(display=True).splitlines()[1].split(",")[1]
        assert cell == f"{result.reports[('QR', 6)].p_value:.2f}"

    def test_json_cells(self):
        result = hl_sweep(self._data(n=160, seed=25))
        d = result.to_json_dict()
        assert len(d["cells"]) == 80
        assert d["methods"] == list(METHODS)
        assert d["g_values"] == list(SWEEP_G_VALUES)
        assert d["p_min"] == result.p_min
        ok = [c for c in d["cells"] if "p_value" in c]
        assert len(ok) == 80
        assert {"method", "g", "g_realized", "statistic", "dof", "p_value"} <= set(
            ok[0]
        )

    def test_failures_are_recorded_per_cell(self):
        # ten observations: equal-count cells with g above 10 fail, while
        # the quantile cells just realize fewer bins
        ss = self._data(n=10, seed=26)
        result = hl_sweep(ss, methods=("Qplus", "QR"))
        assert len(result.reports) + len(result.failures) == 32
        assert set(result.failures) == {("Qplus", g) for g in range(11, 21)}
        assert all("exceeds sample size" in msg for msg in result.failures.values())
        # failed cells render as empty csv fields and error json cells
        line20 = result.to_csv().splitlines()[-1]
        qr20 = result.reports[("QR", 20)]
        assert line20 == f"20,,{qr20.p_value!r}"
        assert qr20.g_realized <= 10
        errs = [c for c in result.to_json_dict()["cells"] if "error" in c]
        assert len(errs) == len(result.failures)

    def test_in_sample_collapse_fails_cells(self):
        # constant forecasts collapse the edge-based binnings to one bin,
        # which cannot pay the two in-sample degrees of freedom; the
        # equal-count binnings still realize g bins and succeed
        ss = _ss([0.5] * 30, [0, 1] * 15)
        result = hl_sweep(ss, estimated_in_sample=True)
        assert set(result.failures) == {
            (m, g) for m in ("QL", "QR", "E") for g in SWEEP_G_VALUES
        }
        assert set(result.reports) == {
            (m, g) for m in ("Qplus", "Qminus") for g in SWEEP_G_VALUES
        }
        empty = hl_sweep(ss, methods=("QR", "E"), estimated_in_sample=True)
        assert not empty.reports
        assert empty.p_min is None and empty.p_max is None

    def test_unknown_method_rejected(self):
        with pytest.raises(InputError):
            hl_sweep(self._data(n=50, seed=27), methods=("QR", "bogus"))


def _reference_corpus(seed=31, cases=120):
    """Forecast samples that stress the binning rules: two-decimal ties,
    constant forecasts, forecasts of exactly 0 and 1, all-0 and all-1
    outcomes, fewer distinct values than bins, and n below g."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        n = int(rng.integers(1, 250))
        kind = i % 5
        if kind == 0:
            p = rng.random(n)
        elif kind == 1:
            p = np.round(rng.random(n), 2)
        elif kind == 2:
            p = np.full(n, 0.3)
        elif kind == 3:
            p = rng.choice([0.0, 0.5, 1.0], size=n)
        else:
            p = np.round(rng.random(n), 1)
        outcomes = (i // 5) % 3
        if outcomes == 0:
            y = (rng.random(n) < p).astype(int)
        else:
            y = np.full(n, outcomes - 1)
        yield p, y


class TestAgainstPerCellReference:
    """The sorted-view binning against frozen copies of the per-cell
    binning it replaced: bins and integer counts exactly, and sums, which
    now run over each bin's forecasts in ascending order instead of input
    order, to 1e-12 relative (with 1e-12 absolute slack on a statistic
    near zero, where o - e cancels)."""

    G_VALUES = (1, 2, 3, 5, 10, 20, 300)

    def test_structure_exact_and_sums_close(self):
        cells = 0
        for p, y in _reference_corpus():
            ss = _ss(p, y)
            for m in METHODS:
                for g in self.G_VALUES:
                    if m in ("Qplus", "Qminus") and g > p.size:
                        with pytest.raises(InputError, match="exceeds sample size"):
                            hl_test(ss, m, g)
                        continue
                    ref_bins = hl_bins_reference(p, y, m, g)
                    binning = make_binning(ss, m, g)
                    assert len(binning.bins) == len(ref_bins)
                    for got, want in zip(binning.bins, ref_bins):
                        assert np.array_equal(got, want)
                    ref_table = hl_table_reference(p, y, ref_bins)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        try:
                            report = hl_test(ss, m, g)
                        except DegreesOfFreedomError:
                            continue
                        assert report.statistic == hl_statistic(ss, binning)
                    cells += 1
                    assert report.g_realized == len(ref_table)
                    for row, ref in zip(report.table, ref_table):
                        assert (row[0], row[1], row[3]) == (ref[0], ref[1], ref[3])
                        assert row[2] == pytest.approx(ref[2], rel=1e-12)
                        assert row[4] == pytest.approx(ref[4], rel=1e-12)
                    ref_stat = _stat_oracle(ss, binning)
                    assert report.statistic == pytest.approx(ref_stat, rel=1e-12, abs=1e-12)
                    assert report.p_value == chisq_sf(report.statistic, report.dof)
        assert cells > 3000

    def test_sweep_cells_equal_single_tests(self):
        # the sweep takes every quantile cut from one np.quantile call; the
        # single test asks for its g alone, and the two must agree exactly
        for p, y in _reference_corpus(seed=32, cases=30):
            ss = _ss(p, y)
            for in_sample in (False, True):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    result = hl_sweep(ss, g_values=range(0, 22), estimated_in_sample=in_sample)
                    for (m, g), rep in result.reports.items():
                        assert rep == hl_test(ss, m, g, in_sample)
                    for (m, g), msg in result.failures.items():
                        with pytest.raises((InputError, DegreesOfFreedomError)) as exc:
                            hl_test(ss, m, g, in_sample)
                        assert str(exc.value) == msg
                assert len(result.reports) + len(result.failures) == 5 * 22

    def test_sweep_time_bound_on_a_million_rows(self):
        rng = np.random.default_rng(33)
        p = np.round(rng.random(1_000_000), 3)
        ss = _ss(p, (rng.random(p.size) < p).astype(int))
        t0 = time.perf_counter()
        result = hl_sweep(ss)
        assert time.perf_counter() - t0 < 10.0
        assert len(result.reports) == 80

