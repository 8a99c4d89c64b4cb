import math
import time
import warnings

import numpy as np
import pytest

import ehl.hl

from ehl import (
    METHODS,
    SWEEP_G_VALUES,
    DegreesOfFreedomError,
    InputError,
    SampleSet,
    hl_statistic,
    hl_sweep,
    hl_test,
    make_binning,
)
from ehl.hl import MAX_BINS, _quantile_cuts
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
        b = make_binning(_ss([0.1, 0.2, 0.9], [0, 0, 1]), "E", 4)
        assert b.g_requested == 4
        assert b.g_realized == 2
        assert _bins_as_sets(b) == [{0, 1}, {2}]

    def test_cut_value_goes_left(self):
        b = make_binning(_ss([0.1, 0.5, 0.9], [0, 0, 1]), "E", 2)
        assert _bins_as_sets(b) == [{0, 1}, {2}]

    def test_constant_forecasts_collapse_to_one_bin(self):
        b = make_binning(_ss([0.4] * 5, [0, 1, 0, 1, 0]), "E", 5)
        assert b.g_realized == 1
        assert _bins_as_sets(b) == [{0, 1, 2, 3, 4}]

    def test_full_range_forecasts(self):
        b = make_binning(_ss([0.0, 0.5, 1.0], [0, 0, 1]), "E", 2)
        assert _bins_as_sets(b) == [{0, 1}, {2}]

    def test_partition(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 80))
            p = rng.random(n)
            y = (rng.random(n) < p).astype(int)
            g = int(rng.integers(1, n + 10))
            b = make_binning(_ss(p, y), "E", g)
            flat = np.concatenate(b.bins)
            assert sorted(flat) == list(range(n))
            # bins are ordered by forecast value
            tops = [p[idx].max() for idx in b.bins]
            bots = [p[idx].min() for idx in b.bins]
            assert all(t <= nb for t, nb in zip(tops, bots[1:]))


class TestQuantile:
    def test_median_cut(self):
        b = make_binning(_ss([0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1]), "QL", 2)
        assert b.g_realized == 2
        assert _bins_as_sets(b) == [{0, 1}, {2, 3}]

    def test_side_decides_ties_with_cut(self):
        # the g = 2 cut of (0.1, 0.25, 0.4) lands exactly on 0.25
        ss = _ss([0.1, 0.25, 0.4], [0, 1, 1])
        left = make_binning(ss, "QL", 2)
        right = make_binning(ss, "QR", 2)
        assert _bins_as_sets(left) == [{0, 1}, {2}]
        assert _bins_as_sets(right) == [{0}, {1, 2}]
        assert left.method == "QL" and right.method == "QR"

    def test_duplicate_cuts_collapse(self):
        b = make_binning(_ss([0.5] * 4, [0, 1, 0, 1]), "QL", 2)
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
        for method in ("QL", "QR"):
            for _ in range(15):
                n = int(rng.integers(2, 60))
                p = rng.random(n)
                y = (rng.random(n) < p).astype(int)
                g = int(rng.integers(1, n + 10))
                b = make_binning(_ss(p, y), method, g)
                assert sorted(np.concatenate(b.bins)) == list(range(n))


class TestEqualCount:
    def test_oversized_bin_positions(self):
        p = np.linspace(0.05, 0.95, 10)
        y = np.zeros(10, dtype=int)
        b = make_binning(_ss(p, y), "Qplus", 3)
        assert [len(idx) for idx in b.bins] == [3, 4, 3]

    def test_remainder_spread(self):
        # n = 11, g = 4: two extras at ceil(4/8) = 1 and ceil(12/8) = 2
        p = np.linspace(0.05, 0.95, 11)
        b = make_binning(_ss(p, np.zeros(11, dtype=int)), "Qplus", 4)
        assert [len(idx) for idx in b.bins] == [3, 3, 2, 3]

    def test_tie_order_splits_equal_forecasts(self):
        ss = _ss([0.5, 0.5], [0, 1])
        plus = make_binning(ss, "Qplus", 2)
        minus = make_binning(ss, "Qminus", 2)
        assert _bins_as_sets(plus) == [{0}, {1}]
        assert _bins_as_sets(minus) == [{1}, {0}]
        assert plus.method == "Qplus" and minus.method == "Qminus"

    def test_no_ties_variants_agree(self):
        rng = np.random.default_rng(9)
        p = rng.permutation(np.linspace(0.01, 0.99, 23))
        y = (rng.random(23) < p).astype(int)
        a = make_binning(_ss(p, y), "Qplus", 4)
        d = make_binning(_ss(p, y), "Qminus", 4)
        assert _bins_as_sets(a) == _bins_as_sets(d)

    def test_tie_order_changes_statistic(self):
        ss = _ss([0.5, 0.5, 0.5, 0.2], [0, 1, 1, 0])
        plus = make_binning(ss, "Qplus", 2)
        minus = make_binning(ss, "Qminus", 2)
        sp = hl_statistic(ss, plus)
        sm = hl_statistic(ss, minus)
        assert sp != sm
        assert sp == pytest.approx(_stat_oracle(ss, plus), rel=1e-12)
        assert sm == pytest.approx(_stat_oracle(ss, minus), rel=1e-12)

    def test_partition_and_sizes(self):
        rng = np.random.default_rng(10)
        for method in ("Qplus", "Qminus"):
            for _ in range(15):
                n = int(rng.integers(2, 60))
                p = rng.choice(np.linspace(0.1, 0.9, 9), size=n)
                y = (rng.random(n) < p).astype(int)
                g = int(rng.integers(1, n + 1))
                b = make_binning(_ss(p, y), method, g)
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

    def test_bin_count_above_the_cap_is_refused(self):
        # the check comes before any O(g) allocation, so no cell allocates
        # above the cap
        ss = _ss([0.2, 0.8], [0, 1])
        for m in METHODS:
            with pytest.raises(InputError, match=f"from 1 to {MAX_BINS}"):
                hl_test(ss, m, MAX_BINS + 1)
            with pytest.raises(InputError, match=f"from 1 to {MAX_BINS}"):
                make_binning(ss, m, MAX_BINS + 1)
        result = hl_sweep(ss, g_values=(MAX_BINS + 1,))
        assert not result.reports
        assert all(f"from 1 to {MAX_BINS}" in msg for msg in result.failures.values())
        assert len(result.failures) == len(METHODS)

    def test_time_bound_at_the_cap(self):
        # E, QL and QR build O(g) edges; 0.05-0.2 s each at 10^6 bins
        rng = np.random.default_rng(13)
        p = rng.random(1000)
        ss = _ss(p, (rng.random(p.size) < p).astype(int))
        t0 = time.perf_counter()
        for m in ("E", "QL", "QR"):
            assert hl_test(ss, m, MAX_BINS).g_realized <= 1000
        assert time.perf_counter() - t0 < 10.0


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
        with pytest.warns(RuntimeWarning):
            report = hl_test(ss, "E", 1)
        assert report.statistic == math.inf
        assert report.p_value == 0.0

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
    def test_closed_form_p_values(self):
        # one bin, two successes at p = 1/2: C = 2 on one degree of freedom,
        # whose tail is erfc(sqrt(C / 2))
        one = hl_test(_ss([0.5, 0.5], [1, 1]), "E", 1)
        assert (one.statistic, one.dof) == (2.0, 1)
        assert one.p_value == pytest.approx(math.erfc(1.0), rel=1e-12)
        # two bins of C = 6 each on two degrees of freedom, tail exp(-C / 2)
        two = hl_test(_ss([0.25, 0.25, 0.75, 0.75], [1, 1, 0, 0]), "E", 2)
        assert (two.statistic, two.dof) == (12.0, 2)
        assert two.p_value == pytest.approx(math.exp(-6.0), rel=1e-12)

    def test_in_sample_costs_two_degrees(self):
        rng = np.random.default_rng(22)
        p = rng.uniform(0.05, 0.95, size=70)
        ss = _ss(p, (rng.random(70) < p).astype(int))
        out = hl_test(ss, "QR", 7)
        inside = hl_test(ss, "QR", 7, estimated_in_sample=True)
        assert out.g_realized == inside.g_realized == 7
        assert (out.dof, inside.dof) == (7, 5)
        assert inside.statistic == out.statistic
        assert out.p_value == chisq_sf(out.statistic, 7)
        assert inside.p_value == chisq_sf(inside.statistic, 5)

    def test_too_few_bins(self):
        ss = _ss([0.2, 0.4, 0.6, 0.8], [0, 1, 0, 1])
        with pytest.raises(DegreesOfFreedomError):
            hl_test(ss, "E", 2, estimated_in_sample=True)
        with pytest.raises(DegreesOfFreedomError):
            hl_test(ss, "E", 1, estimated_in_sample=True)
        assert hl_test(ss, "E", 1).dof == 1
        assert hl_test(ss, "E", 3, estimated_in_sample=True).dof == 1


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
        # a repeated g or method runs once, where it first appears
        result = hl_sweep(ss, g_values=(5, np.int64(9), 5), methods=("QR", "E", "QR"))
        assert result.g_values == (5, 9) and result.methods == ("QR", "E")
        assert result.n_cells == len(result.reports) == 4
        assert [ln.split(",")[0] for ln in result.to_csv().splitlines()] == ["g", "5", "9"]
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

    def test_non_integer_g_rejected_before_any_cell(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(ehl.hl, "_report", refuse)
        ss = self._data(n=50, seed=28)
        for g_values in ((5.7,), (5, 6.0), (5, "7")):
            with pytest.raises(InputError, match="must be integers"):
                hl_sweep(ss, g_values=g_values)
        with pytest.raises(InputError, match="unknown binning method"):
            hl_sweep(ss, methods=("QR", "bogus"))


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
        # every sweep cell, a failed one included, is the single test of its
        # (method, g) on the same sample, exactly; g runs past n and from 0
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

    def test_quantile_cuts_have_the_bits_of_np_quantile(self):
        samples = [np.sort(p) for p, _ in _reference_corpus()]
        samples += [np.array(v) for v in ([0.0], [0.3], [1.0], [0.2, 0.7], [0.5, 0.5], [0.0, 1.0])]
        for ps in samples:
            for g in (*range(1, 22), 300):
                want = np.quantile(ps, np.arange(1, g) / g)
                got = _quantile_cuts(ps, g)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_quantile_binnings_do_not_call_np_quantile(self, monkeypatch):
        p, y = next(_reference_corpus(seed=34, cases=1))
        ss = _ss(p, y)
        want = [hl_test(ss, m, g) for m in ("QL", "QR") for g in (3, 10)]
        want_sweep = hl_sweep(ss).to_json_dict()

        def refuse(*args, **kwargs):
            raise AssertionError("np.quantile was called")

        monkeypatch.setattr(np, "quantile", refuse)
        assert [hl_test(ss, m, g) for m in ("QL", "QR") for g in (3, 10)] == want
        assert hl_sweep(ss).to_json_dict() == want_sweep

    def test_sweep_time_bound_on_a_million_rows(self):
        rng = np.random.default_rng(33)
        p = np.round(rng.random(1_000_000), 3)
        ss = _ss(p, (rng.random(p.size) < p).astype(int))
        t0 = time.perf_counter()
        result = hl_sweep(ss)
        assert time.perf_counter() - t0 < 10.0
        assert len(result.reports) == 80

