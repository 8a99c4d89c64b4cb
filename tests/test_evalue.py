import bisect
import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ehl import (
    BoundaryForecastError,
    DegenerateSplitError,
    EValueReport,
    ExactSizeError,
    InputError,
    SampleSet,
    eq_single,
    evalue_to_pvalue,
    exact_symmetrized_evalue,
    pava_fit,
    sequential_evalue,
    split_evalue,
    split_indices,
)
import ehl.evalue
import ehl.numeric
from ehl.evalue import EXACT_N_LIMIT, _split_log_e, _split_view
from ehl.isotonic import _WIDE, _PrefixBlocks, _pool_blocks
from ehl.numeric import _replicates

from helpers import (
    exact_reference,
    outcome_expectation,
    sequential_reference,
    split_reference,
    step_cases,
)


def _samples(p, y):
    return SampleSet(p, y)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _sequential_corpus():
    """(p, y) pairs for the bit-identity gate of the sequential test."""
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5, 12, 60, 250, 700, 2000):
        p = rng.uniform(0.02, 0.98, n)
        yield p, (rng.random(n) < p).astype(int)
        if n <= 700:
            # one- and two-decimal ties, and one constant forecast
            p1 = np.clip(np.round(p, 1), 0.1, 0.9)
            yield p1, (rng.random(n) < p1).astype(int)
            p2 = np.clip(np.round(p, 2), 0.01, 0.99)
            yield p2, (rng.random(n) < p2).astype(int)
            yield np.full(n, 0.37), (rng.random(n) < 0.5).astype(int)
            # all failures and all successes
            yield p, np.zeros(n, int)
            yield p2, np.ones(n, int)
    for n in (300, 1000):
        # outcomes falling with p: one block holds everything
        p = rng.uniform(0.02, 0.98, n)
        yield p, (rng.random(n) < 1.0 - p).astype(int)
        yield p, (p < 0.5).astype(int)
    # outcomes rising with p: nine tied levels whose outcome rates rise, so
    # every knot ends as its own block
    levels = np.repeat(np.linspace(0.1, 0.9, 9), 20)
    ones = np.concatenate([np.arange(20) < 2 * (k + 1) for k in range(9)]).astype(int)
    order = rng.permutation(levels.size)
    yield levels[order], ones[order]
    p = rng.uniform(0.02, 0.98, 400)
    yield p, (p > 0.5).astype(int)


class TestEqSingle:
    def test_matching_alternative_is_one(self):
        for p in (0.1, 0.5, 0.9):
            for y in (0, 1):
                assert eq_single(p, y, p) == 1.0

    def test_hand_values(self):
        assert eq_single(0.25, 1, 0.5) == 2.0
        assert eq_single(0.3, 1, 0.2) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert eq_single(0.4, 0, 0.2) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert eq_single(0.5, 1, 0.0) == 0.0
        assert eq_single(0.5, 0, 1.0) == 0.0

    def test_linear_form_cross_check(self):
        # same quantity written as 1 + lambda (p - y)
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = float(rng.uniform(0.01, 0.99))
            q = float(rng.uniform(0.0, 1.0))
            y = int(rng.integers(0, 2))
            lam = (p - q) / (p * (1.0 - p))
            assert eq_single(p, y, q) == pytest.approx(1.0 + lam * (p - y), rel=1e-12)

    def test_expectation_is_one_under_forecast(self):
        # p e(y=1) + (1-p) e(y=0) = 1 for any alternative
        for p in (0.2, 0.5, 0.77):
            for q in (0.0, 0.3, 0.9, 1.0):
                total = p * eq_single(p, 1, q) + (1 - p) * eq_single(p, 0, q)
                assert total == pytest.approx(1.0, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(BoundaryForecastError):
            eq_single(0.0, 1, 0.5)
        with pytest.raises(BoundaryForecastError):
            eq_single(1.0, 0, 0.5)
        with pytest.raises(InputError):
            eq_single(1.2, 1, 0.5)
        with pytest.raises(InputError):
            eq_single(0.5, 1, -0.1)
        with pytest.raises(InputError):
            eq_single(0.5, 2, 0.5)


class TestSequential:
    def test_first_alternative_is_half(self):
        assert sequential_evalue(_samples([0.5], [1])).e_value == 1.0
        assert sequential_evalue(_samples([0.25], [1])).e_value == pytest.approx(
            2.0, rel=1e-15
        )
        assert sequential_evalue(_samples([0.8], [0])).e_value == pytest.approx(
            2.5, rel=1e-15
        )

    def test_two_point_hand_computation(self):
        # q1 = 1/2 so e1 = 5/3; the prediction at 0.6 after seeing a success
        # at 0.3 is 2/3, so e2 = (2/3) / 0.6 = 10/9
        report = sequential_evalue(_samples([0.3, 0.6], [1, 1]))
        assert report.path == pytest.approx((5.0 / 3.0, 50.0 / 27.0), rel=1e-12)
        assert report.e_value == pytest.approx(50.0 / 27.0, rel=1e-12)

    def test_path_consistency(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(0.05, 0.95, size=12)
        y = (rng.random(12) < p).astype(int)
        report = sequential_evalue(_samples(p, y))
        assert report.variant == "sequential"
        assert len(report.path) == 12
        assert report.path[-1] == report.e_value
        assert all(v >= 0.0 for v in report.path)
        assert report.e_value == pytest.approx(math.exp(report.log_e), rel=1e-15)
        assert report.implied_p == min(1.0, 1.0 / report.e_value)
        assert report.s is None and report.B is None and report.seed is None
        assert report.per_split_log_e is None

    def test_unit_expectation_under_null(self):
        # enumerating all outcome vectors: the product is a test martingale,
        # so its mean is exactly 1 at every step
        p = np.array([0.3, 0.62, 0.47, 0.81, 0.15])

        for k in range(1, 6):
            def at_k(y, k=k):
                return sequential_evalue(_samples(p[:k], y[:k])).e_value

            assert outcome_expectation(p[:k], at_k) == pytest.approx(1.0, abs=1e-9)

    def test_boundary_forecast_rejected(self):
        with pytest.raises(BoundaryForecastError):
            sequential_evalue(_samples([0.5, 1.0], [1, 1]))

    def test_matches_full_refit_loop_bit_for_bit(self):
        # the block-local step against the frozen loop that refits the whole
        # prefix twice per step
        for p, y in _sequential_corpus():
            report = sequential_evalue(_samples(p, y))
            log_e, path = sequential_reference(p, y)
            assert np.array_equal(_bits(report.path), _bits(path))
            assert _bits(report.log_e) == _bits(log_e)

    def test_corpus_reaches_every_case_of_the_step(self):
        # ties, a holding block beyond the stack-only size, augmented blocks
        # that pool with left and with right neighbours, and each side of the
        # holding block empty and beyond the stack-only size
        cases = set()
        for p, y in _sequential_corpus():
            if p.size <= 300:
                cases |= step_cases(p, y)
        assert cases == {
            "tie", "wide", "left", "right", "no left side", "no right side",
            "wide left side", "wide right side",
        }

    # The cost the README states, held with room for slow shared hosts. On a
    # 2-core x86 server typical data takes 0.40-0.42 s at n = 10^4, and one
    # block holding every knot, the worst case of the step, where every
    # stretch is wide and re-pools in numpy, 0.38-0.40 s at n = 4000.
    def test_time_bound_on_typical_data(self):
        rng = np.random.default_rng(37)
        p = rng.uniform(0.02, 0.98, 10_000)
        y = (rng.random(p.size) < p).astype(int)
        start = time.perf_counter()
        report = sequential_evalue(_samples(p, y))
        assert time.perf_counter() - start < 20.0
        assert len(report.path) == p.size and math.isfinite(report.log_e)

    def test_time_bound_on_one_block(self):
        rng = np.random.default_rng(41)
        p = rng.uniform(0.02, 0.98, 4000)
        y = (rng.random(p.size) < 1.0 - p).astype(int)
        assert len(pava_fit(_samples(p, y)).pool_weights) == 1
        start = time.perf_counter()
        report = sequential_evalue(_samples(p, y))
        assert time.perf_counter() - start < 20.0
        assert len(report.path) == p.size and math.isfinite(report.log_e)

    # Outcomes that do not depend on the forecast leave a few huge pooled
    # blocks, the slowest realistic input: 0.92-1.27 s at n = 10^4 on the
    # server above.
    def test_time_bound_on_low_discrimination(self):
        rng = np.random.default_rng(47)
        p = rng.uniform(0.05, 0.95, 10_000)
        y = (rng.random(p.size) < 0.3).astype(int)
        start = time.perf_counter()
        report = sequential_evalue(_samples(p, y))
        assert time.perf_counter() - start < 20.0
        assert len(report.path) == p.size and math.isfinite(report.log_e)


def _fresh_stack_nodes(w, s, rising):
    """The top node of the stack after each push of the knots (w[i], s[i])
    by the stack rule, pooling left to right (rising) or right to left on
    the knots given reversed: (count, outcome sum, index of the knot below
    the node's first, -1 at the bottom)."""
    out, stack = [], []
    for i, (cw, cs) in enumerate(zip(w, s)):
        first = i
        while stack and (
            stack[-1][1] * cw >= cs * stack[-1][0] if rising
            else cs * stack[-1][0] >= stack[-1][1] * cw
        ):
            tw, ts, first = stack.pop()
            cw += tw
            cs += ts
        stack.append((cw, cs, first))
        out.append((cw, cs, first - 1))
    return out


def _chain(nodes, i):
    """Index i and the indices under it in the stack of fresh nodes."""
    while i >= 0:
        yield i
        i = nodes[i][2]


def _check_prefix_state(state, w, s):
    """The pooled blocks of _PrefixBlocks are _pool_blocks of its merged
    prefix (per-knot counts w and sums s); each block's end nodes are the
    whole block linked to its neighbours; and every node its watermarks mark
    valid, and every node under its tops, equals a fresh stack's, pooled
    from the block's first knot (P) or to its last knot (S)."""
    ids = state.ids
    assert [state.kn[k][:2] for k in ids] == list(zip(w, s))
    bw, bs, bk = _pool_blocks(np.array(w, np.int64), np.array(s, np.int64))
    assert state.bk == bk
    a = 0
    for h, k in enumerate(bk):
        b = a + k
        below = ids[a - 1] if a else -1
        above = ids[b] if b < len(ids) else -1
        assert state.bf[h] == state.knots[a]
        assert state.P[ids[b - 1]] == (bw[h], bs[h], below)
        assert state.S[ids[a]] == (bw[h], bs[h], above)
        nodes = _fresh_stack_nodes(w[a:b], s[a:b], True)
        for i in [*range(state.pw[h]), *_chain(nodes, state.pt[h] - 1)]:
            cw, cs, r = nodes[i]
            assert state.P[ids[a + i]] == (cw, cs, ids[a + r] if r >= 0 else below)
        nodes = _fresh_stack_nodes(w[a:b][::-1], s[a:b][::-1], False)
        for i in [*range(state.sw[h]), *_chain(nodes, state.st[h] - 1)]:
            cw, cs, r = nodes[i]
            assert state.S[ids[b - 1 - i]] == (cw, cs, ids[b - 1 - r] if r >= 0 else above)
        a = b


def _prefix_state_cases(state, p, y):
    """One step of state at (p, y), and the cases it met: the holding block
    found as the step finds it, its valid P nodes below p or S nodes above
    p read again ('reused prefix', 'reused suffix'), a step that goes on
    from the last step's top past the watermark ('reused top'), a stretch of
    more than _WIDE knots to pool ('wide'), a piece of the holding block
    kept left or right of p's new block ('kept left piece', 'kept right
    piece'), a 'tie', p's new block reaching past the holding block on a
    side whose watermark was positive ('neighbour merge resets a
    watermark'), and a new knot that becomes the last before the next block
    ('new last knot before a block')."""
    knots, cases = state.knots, set()
    if state.bf:
        h = max(bisect.bisect_right(state.bf, p) - 1, 0)
        a = bisect.bisect_left(knots, state.bf[h])
        b = a + state.bk[h]
        pw, sw, pt, st = state.pw[h], state.sw[h], state.pt[h], state.st[h]
    else:
        a = b = pw = sw = pt = st = 0
    j = bisect.bisect_left(knots, p, a, b)
    tie = j < b and knots[j] == p
    r = j + tie
    if tie:
        cases.add("tie")
    if a < j < b and pw:
        cases.add("reused prefix")
    if a < r < b and sw:
        cases.add("reused suffix")
    if a + pw < j < b and pw < pt <= j - a or a < r < b - sw and sw < st <= b - r:
        cases.add("reused top")
    # the first knot from which P, and the last down to which S, must pool
    i = a + (pt if pw < pt <= j - a else pw)
    k = b - (st if sw < st <= b - r else sw)
    if i < j < b and j - i > _WIDE or a < r < k and k - r > _WIDE:
        cases.add("wide")
    state.step(p, y)
    b += not tie
    h = bisect.bisect_right(state.bf, p) - 1
    first = bisect.bisect_left(knots, state.bf[h])
    end = first + state.bk[h]
    if first > a:
        cases.add("kept left piece")
    if end < b:
        cases.add("kept right piece")
    if first < a and pw or end > b and sw:
        cases.add("neighbour merge resets a watermark")
    if not tie and knots[end - 1] == p and end == b and end < len(knots):
        cases.add("new last knot before a block")
    return cases


def _prefix_state_inputs():
    """(p, y) pairs for the state test: the bit-identity corpus up to 300
    rows, two-decimal data, one-block data (outcomes falling with p) and a
    rising staircase of tied levels, presented in random order."""
    for p, y in _sequential_corpus():
        if p.size <= 300:
            yield p, y
    rng = np.random.default_rng(43)
    p = np.clip(np.round(rng.uniform(0.02, 0.98, 300), 2), 0.01, 0.99)
    yield p, (rng.random(p.size) < p).astype(int)
    p = rng.uniform(0.02, 0.98, 300)
    yield p, (rng.random(p.size) < 1.0 - p).astype(int)
    levels = np.repeat(np.linspace(0.05, 0.95, 19), 12)
    ones = np.concatenate([np.arange(12) < k * 12 // 19 for k in range(19)]).astype(int)
    order = rng.permutation(levels.size)
    yield levels[order], ones[order]


class TestPrefixState:
    def test_blocks_and_valid_nodes_match_fresh_pooling_after_every_step(self):
        cases = set()
        for p, y in _prefix_state_inputs():
            state = _PrefixBlocks()
            knots, w, s = [], [], []
            for pi, yi in zip(p.tolist(), y.tolist()):
                cases |= _prefix_state_cases(state, pi, yi)
                j = bisect.bisect_left(knots, pi)
                if j < len(knots) and knots[j] == pi:
                    w[j] += 1
                    s[j] += yi
                else:
                    knots.insert(j, pi)
                    w.insert(j, 1)
                    s.insert(j, yi)
                assert state.knots == knots
                _check_prefix_state(state, w, s)
        assert cases == {
            "reused prefix", "reused suffix", "reused top", "wide",
            "kept left piece", "kept right piece", "tie",
            "neighbour merge resets a watermark", "new last knot before a block",
        }


class TestExact:
    def test_single_observation_matches_sequential(self):
        for p, y in ((0.2, 1), (0.7, 0)):
            a = exact_symmetrized_evalue(_samples([p], [y]))
            b = sequential_evalue(_samples([p], [y]))
            assert a.e_value == pytest.approx(b.e_value, rel=1e-15)
            assert a.variant == "exact"

    def test_two_point_hand_computation(self):
        # order (0.3, 0.6): 50/27; order (0.6, 0.3): (5/6)(5/3) = 25/18;
        # the symmetrized value is their mean, 175/108
        report = exact_symmetrized_evalue(_samples([0.3, 0.6], [1, 1]))
        assert report.e_value == pytest.approx(175.0 / 108.0, rel=1e-12)

    def test_matches_explicit_permutation_average(self):
        # continuous forecasts, then one-decimal ones whose ties reach the
        # tie branch of the merged prefix state
        rng = np.random.default_rng(11)
        for t in range(140):
            n = int(rng.integers(1, 7))
            p = rng.uniform(0.05, 0.95, size=n)
            if t >= 100:
                p = np.round(p, 1)
            y = (rng.random(n) < p).astype(int)
            got = exact_symmetrized_evalue(_samples(p, y)).e_value
            perms = [
                sequential_evalue(_samples(p[list(perm)], y[list(perm)])).e_value
                for perm in itertools.permutations(range(n))
            ]
            assert got == pytest.approx(float(np.mean(perms)), rel=1e-12)

    def test_input_order_invariance(self):
        rng = np.random.default_rng(15)
        p = rng.uniform(0.1, 0.9, size=6)
        y = (rng.random(6) < p).astype(int)
        base = exact_symmetrized_evalue(_samples(p, y)).log_e
        for seed in range(4):
            perm = np.random.default_rng(seed).permutation(6)
            other = exact_symmetrized_evalue(_samples(p[perm], y[perm])).log_e
            assert other == pytest.approx(base, abs=1e-12)

    def test_unit_expectation_under_null(self):
        p = np.array([0.25, 0.6, 0.4, 0.85])

        def e_of(y):
            return exact_symmetrized_evalue(_samples(p, y)).e_value

        assert outcome_expectation(p, e_of) == pytest.approx(1.0, abs=1e-9)

    def test_size_cap(self):
        p = np.linspace(0.1, 0.9, 9)
        y = np.zeros(9, dtype=int)
        with pytest.raises(ExactSizeError):
            exact_symmetrized_evalue(_samples(p, y))
        with pytest.raises(ExactSizeError):
            exact_symmetrized_evalue(_samples(p[:5], y[:5]), n_max=4)
        exact_symmetrized_evalue(_samples(p, y), n_max=9)
        with pytest.raises(InputError):
            exact_symmetrized_evalue(_samples(p[:2], y[:2]), n_max=0)

    def test_hard_limit_fails_fast(self):
        n = EXACT_N_LIMIT + 1
        p = np.linspace(0.1, 0.9, n)
        y = np.zeros(n, dtype=int)
        start = time.perf_counter()
        with pytest.raises(ExactSizeError, match=f"hard limit of {EXACT_N_LIMIT}"):
            exact_symmetrized_evalue(_samples(p, y), n_max=20)
        assert time.perf_counter() - start < 1.0

    def test_matches_full_refit_loop_bit_for_bit(self):
        rng = np.random.default_rng(43)
        for t in range(60):
            n = int(rng.integers(1, 9))
            p = rng.uniform(0.05, 0.95, size=n)
            if t % 2:
                p = np.clip(np.round(p, 1), 0.1, 0.9)
            y = (rng.random(n) < p).astype(int)
            got = exact_symmetrized_evalue(_samples(p, y)).log_e
            assert _bits(got) == _bits(exact_reference(p, y))

    def test_time_bound_at_n11(self):
        # about 0.03 s on one core; the bound leaves room for slow shared hosts
        rng = np.random.default_rng(17)
        p = np.round(rng.uniform(0.05, 0.95, size=11), 1)
        y = (rng.random(11) < p).astype(int)
        start = time.perf_counter()
        report = exact_symmetrized_evalue(_samples(p, y), n_max=11)
        assert time.perf_counter() - start < 20.0
        assert math.isfinite(report.log_e)


def _laplace_log_e(s, n, p):
    """Log sequential e-value at one forecast level p after n observations
    with s successes. Every prefix is one knot, where the out-of-sample rule
    is Laplace's rule of succession, q = (s + 1) / (n + 2), so the product is
    s! (n - s)! / (n + 1)! over the null likelihood p^s (1 - p)^(n - s).

    The float p is a / 2^k exactly, so E = 2^(kn) / ((n + 1) C(n, s) a^s
    (2^k - a)^(n - s)) in integers, and only the last logarithm rounds. A
    difference of lgamma terms would lose about 1e-16 n log n to
    cancellation, 1e-11 at n = 10^4, where log E itself is near zero."""
    a, d = p.as_integer_ratio()
    k = d.bit_length() - 1
    den = (n + 1) * math.comb(n, s) * a**s * (d - a) ** (n - s)
    shift = max(den.bit_length() - 64, 0)
    return (k * n - shift) * math.log(2) - math.log(den >> shift)


def _close_in_log(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0, math.inf])
def test_bad_threshold_is_refused_before_any_work(threshold, monkeypatch):
    # nan never rejected and wrote the invalid JSON token NaN; -1 always rejected
    def refuse(*args, **kwargs):
        raise AssertionError("work ran")

    for name in ("_replicates", "_PrefixBlocks", "_fixed_set_values"):
        monkeypatch.setattr(ehl.evalue, name, refuse)
    ss = _samples([0.3, 0.6, 0.8, 0.4], [0, 1, 1, 0])
    for run in (split_evalue, sequential_evalue, exact_symmetrized_evalue):
        with pytest.raises(InputError, match="threshold must be a finite number above 0"):
            run(ss, threshold=threshold)


class TestOneLevelOracle:
    def test_sequential_matches_closed_form(self):
        rng = np.random.default_rng(47)
        for p in (0.5, 0.13, 0.9):
            for n in (1, 2, 7, 100, 1000, 10_000):
                for rate in (0.0, p, 0.5, 1.0):
                    y = (rng.random(n) < rate).astype(int)
                    report = sequential_evalue(_samples(np.full(n, p), y))
                    assert _close_in_log(report.log_e, _laplace_log_e(int(y.sum()), n, p))

    def test_exact_matches_closed_form(self):
        # the closed form does not depend on the order, so neither does the
        # permutation average
        for p in (0.5, 0.13, 0.9):
            for n in (1, 2, 3, 5, 8, 10, EXACT_N_LIMIT):
                for s in sorted({0, 1, n // 3, n}):
                    y = np.arange(n) < s
                    got = exact_symmetrized_evalue(_samples(np.full(n, p), y), n_max=n)
                    assert _close_in_log(got.log_e, _laplace_log_e(s, n, p))

    def test_unit_mean_and_visible_mass_at_n256(self):
        # the design of acceptance criterion 02: each outcome count s has
        # null probability C(n, s) p^s (1 - p)^(n - s), and its e-value times
        # that probability is 1 / (n + 1), so the mean is exactly 1. The
        # rarest counts, of total probability below 1e-3, carry 0.794 of it,
        # so a 1000-replication mean sees only 53 / 257 = 0.206.
        n, p = 256, 0.5
        pmf = [math.exp(math.lgamma(n + 1) - math.lgamma(s + 1) - math.lgamma(n - s + 1)
                        + s * math.log(p) + (n - s) * math.log1p(-p)) for s in range(n + 1)]
        terms = [q * math.exp(_laplace_log_e(s, n, p)) for s, q in enumerate(pmf)]
        assert math.fsum(terms) == pytest.approx(1.0, abs=1e-12)
        rare, mass = set(), 0.0
        for s in sorted(range(n + 1), key=pmf.__getitem__):
            if mass + pmf[s] >= 1e-3:
                break
            mass += pmf[s]
            rare.add(s)
        visible = [t for s, t in enumerate(terms) if s not in rare]
        assert len(visible) == 53
        assert math.fsum(visible) == pytest.approx(53 / 257, rel=1e-12)


class TestSplit:
    # held with room for slow shared hosts: on a 2-core x86 server four
    # splits of 10^5 rows take about 0.05 s
    def test_time_bound_at_10_to_the_5_rows(self):
        rng = np.random.default_rng(43)
        p = rng.uniform(0.02, 0.98, 100_000)
        y = (rng.random(p.size) < p).astype(int)
        start = time.perf_counter()
        report = split_evalue(_samples(p, y), 0.5, 4, seed=0)
        assert time.perf_counter() - start < 2.0
        assert len(report.per_split_log_e) == 4 and math.isfinite(report.log_e)

    def test_constant_half_forecasts_hand_case(self):
        # train half carries one success out of two: the smoothed value is
        # (0.5 + 1) / 3 = 1/2, so every holdout ratio is 1 and E = 1 exactly
        ss = _samples([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert split_evalue(ss, 0.5, 1, seed=1).e_value == 1.0
        # train half carries both successes: q = 5/6 and the two holdout
        # failures contribute (1/6 / 0.5)^2 = 1/9
        assert split_evalue(ss, 0.5, 1, seed=0).e_value == pytest.approx(
            1.0 / 9.0, rel=1e-12
        )

    def test_determinism_and_seed_sensitivity(self):
        rng = np.random.default_rng(17)
        p = rng.uniform(0.05, 0.95, size=30)
        y = (rng.random(30) < p).astype(int)
        ss = _samples(p, y)
        a = split_evalue(ss, 0.5, 25, seed=3)
        b = split_evalue(ss, 0.5, 25, seed=3)
        c = split_evalue(ss, 0.5, 25, seed=4)
        assert a.log_e == b.log_e
        assert a.per_split_log_e == b.per_split_log_e
        assert a.log_e != c.log_e

    def test_tuple_seed(self):
        rng = np.random.default_rng(18)
        p = rng.uniform(0.1, 0.9, size=20)
        y = (rng.random(20) < p).astype(int)
        ss = _samples(p, y)
        a = split_evalue(ss, 0.5, 10, seed=7)
        b = split_evalue(ss, 0.5, 10, seed=(7,))
        c = split_evalue(ss, 0.5, 10, seed=(7, 1))
        assert a.log_e == b.log_e
        assert a.log_e != c.log_e
        assert c.seed == (7, 1)

    def test_report_shape(self):
        rng = np.random.default_rng(19)
        p = rng.uniform(0.1, 0.9, size=16)
        y = (rng.random(16) < p).astype(int)
        report = split_evalue(_samples(p, y), 0.25, 8, seed=2)
        assert report.variant == "split"
        assert report.s == 0.25
        assert report.B == 8
        assert report.seed == 2
        assert len(report.per_split_log_e) == 8
        # the average is taken in log space over the per-split values
        from ehl.numeric import logsumexp

        expect = logsumexp(np.array(report.per_split_log_e)) - math.log(8)
        assert report.log_e == pytest.approx(expect, rel=1e-15)
        assert report.path is None

    def test_thread_count_does_not_change_result(self, forced_pool):
        rng = np.random.default_rng(20)
        p = rng.uniform(0.05, 0.95, size=40)
        y = (rng.random(40) < p).astype(int)
        ss = _samples(p, y)
        one = split_evalue(ss, 0.5, 23, seed=5, threads=1)
        assert forced_pool == []
        three = split_evalue(ss, 0.5, 23, seed=5, threads=3)
        assert forced_pool == [3]
        assert one.log_e == three.log_e
        assert np.array_equal(_bits(one.per_split_log_e), _bits(three.per_split_log_e))

    def test_unit_expectation_under_null(self):
        # exact over all 2^5 outcomes, for a fixed split randomization
        p = np.array([0.3, 0.55, 0.42, 0.7, 0.2])

        def e_of(y):
            return split_evalue(_samples(p, y), 0.5, 3, seed=7).e_value

        assert outcome_expectation(p, e_of) == pytest.approx(1.0, abs=1e-9)

    def test_null_monte_carlo_mean(self):
        rng = np.random.default_rng(23)
        values = []
        for _ in range(60):
            p = rng.uniform(0.1, 0.9, size=200)
            y = (rng.random(200) < p).astype(int)
            values.append(split_evalue(_samples(p, y), 0.5, 20, seed=0).e_value)
        values = np.asarray(values)
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert values.mean() <= 1.0 + 3.0 * se

    def test_domain_errors(self):
        ss = _samples([0.4, 0.6], [1, 0])
        with pytest.raises(DegenerateSplitError, match="leaves an empty part"):
            split_evalue(ss, 0.2, 4, seed=0)
        with pytest.raises(InputError, match="strictly in"):
            split_evalue(ss, 1.0, 4, seed=0)
        with pytest.raises(InputError):
            split_evalue(ss, 0.5, 0, seed=0)
        with pytest.raises(InputError):
            split_evalue(ss, 0.5, 4, seed=0, threads=0)
        with pytest.raises(BoundaryForecastError):
            split_evalue(_samples([0.0, 0.5], [0, 1]), 0.5, 4, seed=0)

    def test_numpy_integer_seed_reports_like_the_equal_int(self):
        rng = np.random.default_rng(24)
        p = rng.uniform(0.1, 0.9, size=20)
        ss = _samples(p, (rng.random(20) < p).astype(int))
        a = split_evalue(ss, 0.5, 6, seed=np.int64(3))
        b = split_evalue(ss, 0.5, 6, seed=3)
        assert a == b
        assert type(a.seed) is int
        assert a.to_json_dict() == b.to_json_dict()

    def test_one_draw_serves_the_fitted_and_the_oracle_value(self):
        # the oracle sum over each holdout equals a fresh draw of the same
        # split, and the fitted values equal split_evalue's, whether or not
        # the other value is taken
        rng = np.random.default_rng(21)
        n, B, key = 50, 12, (3, 1, 0, 2)
        p = rng.uniform(0.05, 0.95, size=n)
        y = (rng.random(n) < p).astype(int)
        oracle_terms = rng.normal(size=n)
        ss = _samples(p, y)

        def draw(fit, terms):
            # one run of all B replicates, as _replicates hands it over
            body = _split_log_e(ss, 1 / 3, _split_view(ss) if fit else None, terms)
            return body(0, [np.random.default_rng([*key, b]) for b in range(B)])

        fitted, oracle = zip(*draw(True, oracle_terms))
        fitted_alone, no_oracle = zip(*draw(True, None))
        no_fit, oracle_alone = zip(*draw(False, oracle_terms))
        assert set(no_oracle) == set(no_fit) == {None}
        redrawn = []
        for b in range(B):
            _, hold = split_indices(n, 1 / 3, np.random.default_rng([*key, b]))
            redrawn.append(float(np.sum(oracle_terms[hold])))
        assert np.array_equal(_bits(oracle), _bits(redrawn))
        assert np.array_equal(_bits(oracle_alone), _bits(redrawn))
        report = split_evalue(ss, 1 / 3, B, seed=key)
        assert np.array_equal(_bits(fitted), _bits(report.per_split_log_e))
        assert np.array_equal(_bits(fitted_alone), _bits(report.per_split_log_e))


def _split_kinds(n, rng):
    """(name, p, y) of the split engine's bit-identity corpus at size n."""
    p = rng.uniform(0.02, 0.98, n)
    yield "continuous", p, (rng.random(n) < p).astype(int)
    ties = np.clip(np.round(p, 2), 0.01, 0.99)
    yield "ties", ties, (rng.random(n) < ties).astype(int)
    yield "constant", np.full(n, 0.37), (rng.random(n) < 0.5).astype(int)
    yield "all_0", p, np.zeros(n, int)
    yield "all_1", ties, np.ones(n, int)
    # outcomes falling with p: every fit pools to one block
    yield "falling", p, (rng.random(n) < 1.0 - p).astype(int)


def _engine(p, y, s, key, B, oracle_terms):
    samples = _samples(p, y)
    body = _split_log_e(samples, s, _split_view(samples), oracle_terms)
    return _replicates(key, B, body, n=len(samples), pool=ThreadPoolExecutor)


def _same_bits(got, want):
    fitted, oracle = zip(*got)
    fitted_want, oracle_want = zip(*want)
    return np.array_equal(_bits(fitted), _bits(fitted_want)) and np.array_equal(
        _bits(oracle), _bits(oracle_want)
    )


class TestSplitEngine:
    @pytest.mark.parametrize("n", [2, 3, 5, 128, 257, 2048, 10**5])
    def test_matches_the_per_replicate_reference_bit_for_bit(self, n, monkeypatch):
        if n < 128:
            # shorter runs, so that a few hundred splits span several
            monkeypatch.setattr(ehl.numeric, "_RUN_CELLS", 64)
        run = max(1, ehl.numeric._RUN_CELLS // n)
        rng = np.random.default_rng(n)
        key = (9, n)
        for kind, p, y in _split_kinds(n, rng):
            terms = rng.normal(size=n)
            for s in (1 / 3, 1 / 2, 2 / 3):
                if math.floor(n * s + 1e-9) < 1:
                    continue  # an empty estimation part
                if n == 10**5 and kind != "continuous" and s != 1 / 2:
                    continue  # the large sample takes one fraction per kind
                # one replicate; one past a run boundary; several runs
                counts = [1, run + 1]
                if kind == "continuous" and s == 1 / 2:
                    counts.append(3 * run + 2)
                want = split_reference(p, y, s, key, max(counts), terms)
                for B in counts:
                    got = _engine(p, y, s, key, B, terms)
                    assert _same_bits(got, want[:B]), (kind, s, B)

    def test_a_run_of_the_shipped_length_on_a_tiny_sample(self):
        n = 5
        run = ehl.numeric._RUN_CELLS // n
        rng = np.random.default_rng(6)
        for kind, p, y in _split_kinds(n, rng):
            if kind in ("continuous", "falling"):
                terms = rng.normal(size=n)
                want = split_reference(p, y, 1 / 2, (4,), run + 1, terms)
                assert _same_bits(_engine(p, y, 1 / 2, (4,), run + 1, terms), want), kind


class TestReporting:
    def test_markov_pvalue(self):
        assert evalue_to_pvalue(0.0) == 1.0
        assert evalue_to_pvalue(0.5) == 1.0
        assert evalue_to_pvalue(2.0) == 0.5
        assert evalue_to_pvalue(20.0) == 0.05
        assert evalue_to_pvalue(float("inf")) == 0.0
        with pytest.raises(InputError):
            evalue_to_pvalue(-1.0)
        with pytest.raises(InputError):
            evalue_to_pvalue(float("nan"))

    def test_rejection_threshold(self):
        report = EValueReport.from_log("split", math.log(25.0))
        assert report.reject_at_20
        report = EValueReport.from_log("split", math.log(19.0))
        assert not report.reject_at_20
        # a custom threshold moves the cut, the field name stays the same
        report = EValueReport.from_log("split", math.log(6.0), threshold=5.0)
        assert report.reject_at_20 and report.threshold == 5.0

    def test_extreme_log_values(self):
        report = EValueReport.from_log("sequential", 1000.0)
        assert report.e_value == math.inf
        assert report.implied_p == 0.0
        report = EValueReport.from_log("sequential", -math.inf)
        assert report.e_value == 0.0
        assert report.implied_p == 1.0

    def test_json_keys_by_variant(self):
        base = {
            "variant",
            "e_value",
            "log_e",
            "implied_p",
            "reject_at_20",
            "threshold",
            "s",
            "B",
            "seed",
        }
        rng = np.random.default_rng(29)
        p = rng.uniform(0.1, 0.9, size=6)
        y = (rng.random(6) < p).astype(int)
        ss = _samples(p, y)
        seq = sequential_evalue(ss).to_json_dict()
        assert set(seq) == base | {"path"}
        exact = exact_symmetrized_evalue(ss).to_json_dict()
        assert set(exact) == base
        split = split_evalue(ss, 0.5, 4, seed=(1, 2)).to_json_dict()
        assert set(split) == base | {"per_split_log_e"}
        assert split["seed"] == [1, 2]
        assert split["B"] == 4
        # lists, not tuples, so a parsed result compares equal
        for d in (seq, exact, split):
            assert json.loads(json.dumps(d)) == d
