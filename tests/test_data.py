import io
import time
import warnings

import numpy as np
import pytest

from ehl import (
    DegenerateSplitError,
    InputError,
    LabeledSampleSet,
    SampleSet,
    dump_samples,
    load_samples,
    split_indices,
)
from ehl.data import bernoulli, samples_to_csv

from helpers import load_rows_reference


def _load_text(text):
    return load_samples(io.StringIO(text))


class TestSampleSet:
    def test_basic_construction(self):
        s = SampleSet([0.5, 0.25], [1, 0])
        assert len(s) == 2
        assert s.p.dtype == np.float64
        assert s.y.dtype == np.int64

    def test_validation(self):
        with pytest.raises(InputError):
            SampleSet([], [])
        with pytest.raises(InputError):
            SampleSet([0.5], [1, 0])
        with pytest.raises(InputError):
            SampleSet([1.5], [1])
        with pytest.raises(InputError):
            SampleSet([0.5], [2])

    def test_boundary_flag(self):
        assert SampleSet([0.0, 0.5], [0, 1]).has_boundary_forecasts
        assert SampleSet([0.5, 1.0], [0, 1]).has_boundary_forecasts
        assert not SampleSet([0.01, 0.99], [0, 1]).has_boundary_forecasts

    def test_arrays_frozen(self):
        s = SampleSet([0.5, 0.25], [1, 0])
        with pytest.raises(ValueError):
            s.p[0] = 0.9
        # the source array is copied, not aliased
        src = np.array([0.3, 0.4])
        s2 = SampleSet(src, [0, 1])
        src[0] = 0.9
        assert s2.p[0] == 0.3

    def test_take_and_with_p(self):
        s = SampleSet([0.1, 0.2, 0.3], [0, 1, 0])
        sub = s.take(np.array([2, 0]))
        assert list(sub.p) == [0.3, 0.1]
        swapped = s.with_p([0.7, 0.8, 0.9])
        assert list(swapped.y) == [0, 1, 0]

    def test_labeled_extras(self):
        s = LabeledSampleSet([0.5], [1], x=[2.0], pi_bar=[0.4])
        assert s.x[0] == 2.0
        sub = s.take(np.array([0]))
        assert sub.pi_bar[0] == 0.4
        with pytest.raises(InputError):
            LabeledSampleSet([0.5], [1], x=[1.0, 2.0])
        with pytest.raises(InputError):
            LabeledSampleSet([0.5], [1], pi_bar=[1.2])


class TestLoad:
    def test_two_row_example(self):
        s = _load_text("p,y\n0.5,1\n0.25,0\n")
        assert len(s) == 2
        assert list(s.p) == [0.5, 0.25]
        assert list(s.y) == [1, 0]
        assert s.x is None and s.pi_bar is None

    def test_bad_outcome_reports_row(self):
        with pytest.raises(InputError, match="row 1"):
            _load_text("p,y\n0.5,2\n")
        with pytest.raises(InputError, match="row 2"):
            _load_text("p,y\n0.5,1\n0.5,3\n")

    def test_out_of_range_forecast(self):
        with pytest.raises(InputError, match="outside"):
            _load_text("p,y\n1.2,1\n")
        with pytest.raises(InputError, match="outside"):
            _load_text("p,y\nnan,1\n")

    def test_malformed_number(self):
        with pytest.raises(InputError, match="malformed"):
            _load_text("p,y\nabc,1\n")

    def test_missing_column(self):
        with pytest.raises(InputError, match="missing required column"):
            _load_text("p,z\n0.5,1\n")

    def test_empty_inputs(self):
        with pytest.raises(InputError, match="no CSV header"):
            _load_text("")
        with pytest.raises(InputError, match="no data rows"):
            _load_text("p,y\n")
        with pytest.raises(InputError, match="missing value"):
            _load_text("p,y\n0.5,\n")

    def test_optional_columns(self):
        s = _load_text("p,y,x,pi_bar\n0.5,1,-2.0,0.4\n0.25,0,1.5,0.3\n")
        assert list(s.x) == [-2.0, 1.5]
        assert list(s.pi_bar) == [0.4, 0.3]
        with pytest.raises(InputError, match="pi_bar"):
            _load_text("p,y,pi_bar\n0.5,1,1.4\n")

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("p,y\n0.125,0\n")
        s = load_samples(path)
        assert s.p[0] == 0.125


# Texts on which the numpy fast path and the row loop could part ways:
# line endings, blank lines, csv quoting, ragged rows, header oddities and
# the number spellings float() takes but numpy's parser may not.
LOADER_CORPUS = {
    "plain": "p,y\n0.5,1\n0.25,0\n",
    "blank_lines": "p,y\n0.5,1\n\n0.25,0\n\n",
    "whitespace_line": "p,y\n0.5,1\n   \n0.25,0\n",
    "tab_line": "p,y\n0.5,1\n\t\n",
    "crlf": "p,y\r\n0.5,1\r\n0.25,0\r\n",
    "bare_cr": "p,y\r0.5,1\r0.25,0\r",
    "cr_cr_lf": "p,y\r\r\n0.5,1\n",
    "no_final_newline": "p,y\n0.5,1\n0.25,0",
    "quoted_field": 'p,y\n"0.5",1\n',
    "quoted_header": '"p","y"\n0.5,1\n',
    "quoted_header_field_runs_on": 'p,y,"z\n0.5,1,2\n',
    "trailing_comma": "p,y\n0.5,1,\n",
    "trailing_comma_header": "p,y,\n0.5,1,\n",
    "missing_field": "p,y,x\n0.5,1\n",
    "missing_y_field": "p,y\n0.5\n",
    "ragged_extra_field": "p,y\n0.5,1\n0.5,1,3\n",
    "non_numeric_column": "id,p,y\na,0.5,1\nb,0.25,0\n",
    "duplicate_header": "p,y,p\n0.5,1,0.75\n",
    "header_spaces": "p, y\n0.5,1\n",
    "bom": "\ufeffp,y\n0.5,1\n",
    "bom_on_other_column": "\ufeffx,p,y\n3,0.5,1\n",
    "underscore": "p,y\n0_5,1\n",
    "leading_space": "p,y\n 0.5,1\n",
    "trailing_space": "p,y\n0.5 ,1\n",
    "nbsp": "p,y\n0.5\xa0,1\n",
    "form_feed": "p,y\n0.5,1\x0c\n",
    "non_ascii_digit": "p,y\n\u0661,1\n",
    "nul": "p,y\n0.5,1\x00\n",
    "hash": "p,y\n0.5,1 # c\n",
    "nan_p": "p,y\nnan,1\n",
    "inf_p": "p,y\ninf,1\n",
    "underflow": "p,y\n1e-400,1\n",
    "plus_dot": "p,y\n+.5,1\n",
    "exponents": "p,y\n5e-1,1e0\n2.5E-1,0\n",
    "shortest_repr": "p,y\n0.1,1\n0.30000000000000004,0\n1e-05,1\n5e-324,0\n",
    "negative_zero": "p,y\n-0.0,-0\n0.0,1\n",
    "y_as_float": "p,y\n0.5,1.0\n0.5,0.0\n",
    "y_two": "p,y\n0.5,2\n",
    "p_out_of_range": "p,y\n1.2,1\n",
    "second_row_bad": "p,y\n0.5,1\n0.5,3\n",
    "empty_cell": "p,y\n0.5,\n",
    "empty_x": "p,y,x\n0.5,1,\n",
    "nan_x": "p,y,x\n0.5,1,nan\n0.25,0,-nan\n",
    "inf_x": "p,y,x\n0.5,1,inf\n0.5,0,-inf\n",
    "pi_bar_out_of_range": "p,y,pi_bar\n0.5,1,1.5\n",
    "pi_bar_nan": "p,y,pi_bar\n0.5,1,nan\n",
    "all_columns": "p,y,x,pi_bar\n0.5,1,-2.0,0.4\n0.25,0,1.5,0.3\n",
    "header_only": "p,y\n",
    "header_only_no_newline": "p,y",
    "header_then_blank_lines": "p,y\n\n\n",
    "empty": "",
    "blank_before_header": "\np,y\n0.5,1\n",
    "missing_column": "p,z\n0.5,1\n",
}


class _NoSeek(io.StringIO):
    def seekable(self):
        return False


def _outcome(read):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = "ok", read()
        except Exception as exc:  # compared by type and message below
            result = "error", (type(exc), str(exc))
    # a warning on the way is a difference too
    return result + ([str(w.message) for w in caught],)


def _assert_same_as_row_loop(load, reference):
    kind, got, warned = _outcome(load)
    ref_kind, want, ref_warned = _outcome(reference)
    assert warned == ref_warned
    assert kind == ref_kind, (got, want)
    if kind == "error":
        assert got == want
        return
    for name in ("p", "y", "x", "pi_bar"):
        a, b = getattr(got, name), want[name]
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype, name
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


class TestLoaderMatchesRowLoop:
    """load_samples against a frozen copy of the csv.DictReader loop it
    used to be: the same columns bit for bit, or the same exception type
    and message, from every kind of source."""

    @pytest.mark.parametrize("name", sorted(LOADER_CORPUS))
    def test_corpus(self, name, tmp_path):
        text = LOADER_CORPUS[name]
        _assert_same_as_row_loop(
            lambda: load_samples(io.StringIO(text)),
            lambda: load_rows_reference(io.StringIO(text)),
        )
        _assert_same_as_row_loop(
            lambda: load_samples(_NoSeek(text)),
            lambda: load_rows_reference(io.StringIO(text)),
        )
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)

        def reference():
            with open(path, newline="") as fh:
                return load_rows_reference(fh)

        _assert_same_as_row_loop(lambda: load_samples(path), reference)

    def test_number_spellings(self):
        # shortest repr, fixed and exponent forms with 17 digits, and
        # padded cells: numpy must read each as float() does
        rng = np.random.default_rng(8)
        v = np.concatenate((rng.random(500), rng.random(100) * 1e-300, rng.random(100) ** 40))
        y = (rng.random(v.size) < 0.5).astype(int)
        spellings = (repr, "{:.17g}".format, "{:.17e}".format, "{:.3f}".format, " {!r} ".format)
        for spell in spellings:
            cells = [spell(float(a)) for a in v]
            text = "p,y,x\n" + "".join(
                f"{c},{b},{c}\n" for c, b in zip(cells, y.tolist())
            )
            _assert_same_as_row_loop(
                lambda: load_samples(io.StringIO(text)),
                lambda: load_rows_reference(io.StringIO(text)),
            )

    def test_reads_on_from_the_start_position(self):
        # a handle positioned mid-stream is read from there, on both paths
        for body in ("0.5,1\n0.25,0\n", '"0.5",1\n0.25,0\n'):
            fh = io.StringIO("junk line\np,y\n" + body)
            fh.readline()
            s = load_samples(fh)
            assert list(s.p) == [0.5, 0.25]

    def test_time_bound_on_a_million_rows(self, tmp_path):
        rng = np.random.default_rng(12)
        p = rng.random(1_000_000)
        y = (rng.random(p.size) < p).astype(int)
        path = tmp_path / "big.csv"
        with open(path, "w") as fh:
            fh.write("p,y\n")
            fh.write("".join(f"{a!r},{b}\n" for a, b in zip(p.tolist(), y.tolist())))
        t0 = time.perf_counter()
        s = load_samples(path)
        assert time.perf_counter() - t0 < 10.0
        assert np.array_equal(s.p.view(np.int64), p.view(np.int64))
        assert np.array_equal(s.y, y)


class TestDump:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.0, 1.0, 40)
        y = (rng.random(40) < p).astype(int)
        x = rng.normal(size=40)
        s = LabeledSampleSet(p, y, x=x, pi_bar=p)
        text = samples_to_csv(s)
        back = load_samples(io.StringIO(text))
        assert np.array_equal(back.p, s.p)
        assert np.array_equal(back.y, s.y)
        assert np.array_equal(back.x, s.x)
        assert np.array_equal(back.pi_bar, s.pi_bar)

    def test_dump_to_path(self, tmp_path):
        path = tmp_path / "out.csv"
        dump_samples(SampleSet([0.1], [1]), path)
        assert path.read_text() == "p,y\n0.1,1\n"


class TestSplitIndices:
    def test_half_split(self):
        train, hold = split_indices(4, 0.5, np.random.default_rng(0))
        assert train.size == 2 and hold.size == 2
        assert sorted(np.concatenate([train, hold])) == [0, 1, 2, 3]
        assert np.all(np.diff(train) > 0) and np.all(np.diff(hold) > 0)

    def test_degenerate(self):
        with pytest.raises(DegenerateSplitError):
            split_indices(2, 0.1, np.random.default_rng(0))
        with pytest.raises(DegenerateSplitError):
            split_indices(9, 0.1, np.random.default_rng(0))
        # flooring can only empty the estimation part; a fraction near one
        # still leaves a single holdout point
        train, hold = split_indices(2, 0.99, np.random.default_rng(0))
        assert train.size == 1 and hold.size == 1

    def test_fraction_domain(self):
        with pytest.raises(InputError):
            split_indices(4, 0.0, np.random.default_rng(0))
        with pytest.raises(InputError):
            split_indices(4, 1.0, np.random.default_rng(0))
        with pytest.raises(InputError):
            split_indices(0, 0.5, np.random.default_rng(0))

    def test_float_floor_guard(self):
        # 6 * (1/3) under-represents 2.0 in binary; the floor must still be 2
        train, _ = split_indices(6, 1.0 / 3.0, np.random.default_rng(0))
        assert train.size == 2

    def test_deterministic_and_advancing(self):
        t1, _ = split_indices(10, 0.5, np.random.default_rng(42))
        t2, _ = split_indices(10, 0.5, np.random.default_rng(42))
        assert np.array_equal(t1, t2)
        rng = np.random.default_rng(42)
        a, _ = split_indices(10, 0.5, rng)
        b, _ = split_indices(10, 0.5, rng)
        assert not np.array_equal(a, b)


def test_bernoulli_reproducible():
    p = np.full(1000, 0.3)
    y1 = bernoulli(p, np.random.default_rng(3))
    y2 = bernoulli(p, np.random.default_rng(3))
    assert np.array_equal(y1, y2)
    assert set(np.unique(y1)) <= {0, 1}
    assert 200 < y1.sum() < 400
