import json
import math
import os

import numpy as np
import pytest

from ehl import (
    InputError,
    SampleSet,
    SimulationConfig,
    bagged_recalibrate,
    chisq_sf,
    expit,
    logit,
    run_power_study,
    solve_linear_3x3,
    split_evalue,
)
import ehl.evalue
from ehl.numeric import (
    _RUN_CELLS,
    _SEED_BLOCK,
    _STABLE_SORT_MIN_N,
    _THREAD_MIN_N,
    _generators,
    _logaddexp,
    _replicates,
    _stable_order,
    _thread_spans,
    exp_clamped,
    expit_array,
    logsumexp,
    seed_key,
)

from helpers import chi2_sf_quad


class TestLinks:
    def test_expit_center(self):
        assert expit(0.0) == 0.5

    def test_logit_known_value(self):
        assert logit(0.95) == pytest.approx(math.log(19.0), abs=1e-14)

    def test_roundtrip(self):
        for p in np.linspace(1e-6, 1.0 - 1e-6, 57):
            assert expit(logit(float(p))) == pytest.approx(p, abs=1e-12)

    def test_logit_domain(self):
        for bad in (0.0, 1.0, -0.25, 1.5):
            with pytest.raises(InputError):
                logit(bad)

    def test_expit_extreme_arguments(self):
        assert expit(800.0) == 1.0
        assert expit(-800.0) == 0.0

    def test_expit_array_matches_scalar(self):
        z = np.array([-700.0, -3.2, 0.0, 1.7, 500.0])
        vec = expit_array(z)
        for zi, vi in zip(z, vec):
            assert vi == expit(float(zi))


class TestChisqSf:
    def test_pinned_quantiles(self):
        assert abs(chisq_sf(3.841459, 1) - 0.05) <= 1e-6
        assert abs(chisq_sf(18.307, 10) - 0.05) <= 1e-4

    def test_edges(self):
        assert chisq_sf(0.0, 3) == 1.0
        assert chisq_sf(float("inf"), 3) == 0.0

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 60.0, 121)
        vals = [chisq_sf(float(x), 7) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_against_quadrature(self):
        # both series and continued-fraction regimes, small and large dof
        for k in (1, 2, 3, 5, 10, 30, 50):
            for x in (0.3, 1.0, 2.5, 7.0, 15.0, 40.0, 120.0):
                want = chi2_sf_quad(x, k)
                assert abs(chisq_sf(x, k) - want) <= 1e-9, (x, k)

    def test_domain(self):
        with pytest.raises(InputError):
            chisq_sf(-0.5, 2)
        with pytest.raises(InputError):
            chisq_sf(1.0, 0)
        with pytest.raises(InputError):
            chisq_sf(1.0, 2.5)
        with pytest.raises(InputError):
            chisq_sf(float("nan"), 2)


class TestSolve3x3:
    def test_identity(self):
        x = solve_linear_3x3(np.eye(3), np.array([2.0, -1.0, 0.5]))
        assert np.allclose(x, [2.0, -1.0, 0.5], atol=1e-15)

    def test_singular(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        with pytest.raises(InputError):
            solve_linear_3x3(a, np.ones(3))

    def test_shape_check(self):
        with pytest.raises(InputError):
            solve_linear_3x3(np.eye(2), np.ones(2))

    def test_random_systems_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=3)
            x = solve_linear_3x3(a, b)
            assert np.max(np.abs(a @ x - b)) <= 1e-9 * max(1.0, np.max(np.abs(b)))


class TestRng:
    def test_seed_key_forms(self):
        assert seed_key(4) == (4,)
        assert seed_key((1, 2)) == (1, 2)
        with pytest.raises(InputError):
            seed_key(-1)
        with pytest.raises(InputError):
            seed_key(())

    def test_seed_key_refuses_what_is_not_a_nonnegative_integer(self):
        # int() once truncated 2.5 to 2 and read the string "12" as (1, 2),
        # and a float or None seed raised TypeError
        for seed in ((1, 2.5), "12", (1, -2)):
            with pytest.raises(InputError, match="seed component"):
                seed_key(seed)
        for seed in (3.0, None):
            with pytest.raises(InputError, match="seed must be"):
                seed_key(seed)
        key = seed_key((np.int64(3), np.uint32(4)))
        assert key == (3, 4) and all(type(k) is int for k in key)


class TestLogSumExp:
    def test_small_values(self):
        vals = [0.1, -0.4, 1.2]
        want = math.log(sum(math.exp(v) for v in vals))
        assert logsumexp(vals) == pytest.approx(want, abs=1e-14)

    def test_large_values_no_overflow(self):
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)

    def test_degenerate(self):
        assert logsumexp([]) == -math.inf
        assert logsumexp([-math.inf, -math.inf]) == -math.inf

    def test_exp_clamped(self):
        assert exp_clamped(800.0) == math.inf
        assert exp_clamped(-math.inf) == 0.0
        assert exp_clamped(0.0) == 1.0

    def test_logaddexp_has_the_bits_of_numpy(self):
        # the exact e-value accumulates with _logaddexp and must keep the
        # bits it had with np.logaddexp
        inf = math.inf
        pairs = [(-inf, -inf), (-inf, 0.3), (0.3, -inf), (-inf, -750.0), (inf, inf), (inf, 2.0)]
        pairs += [(v, v) for v in (-745.5, -3.25, 1e-300, 17.0, 708.9)]
        pairs += [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (-0.0, 1.5), (2.5, 0.0)]
        for gap in np.logspace(-300, math.log10(800.0), 121).tolist():
            for x in (-12.5, 0.0, 3.75):
                pairs += [(x, x + gap), (x + gap, x), (x, x - gap)]
        for x in (-700.0, 700.0, -709.5, 709.5):
            pairs += [(x, x + 0.5), (x - 1e-9, x), (x, -x), (x, 0.0)]
        rng = np.random.default_rng(59)
        a = rng.normal(0.0, 200.0, 10_000)
        b = a + rng.normal(0.0, 20.0, a.size) * rng.choice([1e-12, 1.0, 10.0], a.size)
        pairs += list(zip(a.tolist(), b.tolist()))
        x, y = (np.array(v) for v in zip(*pairs))
        got = np.array([_logaddexp(u, v) for u, v in pairs])
        assert np.array_equal(got.view(np.int64), np.logaddexp(x, y).view(np.int64))


def _small_sample(n=24):
    rng = np.random.default_rng(4)
    p = rng.uniform(0.1, 0.9, size=n)
    return SampleSet(p, (rng.random(n) < p).astype(int))


def _first_draws(key, count):
    return [(b, int(np.random.default_rng([*key, b]).integers(2**63))) for b in range(count)]


def _first_draw(b0, rngs):
    return [(b0 + i, int(rng.integers(2**63))) for i, rng in enumerate(rngs)]


# the three pool sites on a sample of exactly _THREAD_MIN_N observations,
# each output as it is written out


def _split_at_the_floor(threads):
    report = split_evalue(_small_sample(_THREAD_MIN_N), 0.5, 4, seed=0, threads=threads)
    return json.dumps(report.to_json_dict())


def _bags_at_the_floor(threads):
    curve = bagged_recalibrate(_small_sample(_THREAD_MIN_N), 4, seed=0, threads=threads)
    return curve.to_csv(), curve.apply(np.linspace(0.0, 1.0, 97)).tobytes()


def _study_at_the_floor(threads):
    config = SimulationConfig(
        j_values=(0.1,),
        n_values=(_THREAD_MIN_N,),
        s_values=(0.5,),
        variants=("ehl", "hl", "oracle"),
        reps=4,
        B=2,
        threads=threads,
    )
    return json.dumps(run_power_study(config).to_json_dict())


class TestReplicates:
    def test_one_span_in_index_order_on_each_replicates_stream(self):
        key = (5, 0, 2)
        got = _replicates(key, 7, _first_draw, pool=ehl.evalue.ThreadPoolExecutor)
        assert got == _first_draws(key, 7)

    def test_three_spans_on_a_pool_keep_index_order(self, forced_pool):
        key = (5, 0, 2)
        got = _replicates(
            key, 7, _first_draw, threads=3, n=1, pool=ehl.evalue.ThreadPoolExecutor
        )
        assert forced_pool == [3]
        assert got == _first_draws(key, 7)

    def test_key_parts_of_2_to_the_32_or_more_keep_their_stream(self):
        key = (2**32 + 5, 2**40)
        got = _replicates(key, 3, _first_draw, pool=ehl.evalue.ThreadPoolExecutor)
        assert got == _first_draws(key, 3)
        # not the stream of the parts reduced modulo 2^32
        assert got != _first_draws((5, 0), 3)

    @pytest.mark.parametrize("n", [1, 7, 1000, _RUN_CELLS, 10**6])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_runs_are_bounded_consecutive_and_seeded_by_index(self, forced_pool, n, threads):
        key, count = (8, 1), 100
        runs = []

        def body(b0, rngs):
            rngs = list(rngs)
            runs.append((b0, len(rngs)))
            for i, rng in enumerate(rngs):
                fresh = np.random.default_rng([*key, b0 + i])
                assert rng.bit_generator.state == fresh.bit_generator.state
            return list(range(b0, b0 + len(rngs)))

        got = _replicates(key, count, body, threads=threads, n=n, pool=ehl.evalue.ThreadPoolExecutor)
        assert forced_pool == ([3] if threads == 3 else [])
        assert got == list(range(count))
        assert all(1 <= size <= max(1, 2**15 // n) for _, size in runs)
        # the runs tile range(count); threads may hand them over interleaved
        ends = [b0 + size for b0, size in sorted(runs)]
        assert [b0 for b0, _ in sorted(runs)] == [0] + ends[:-1]
        assert ends[-1] == count
        if threads == 1:
            assert runs == sorted(runs)


# key parts of one, two and three 32-bit words, at both ends of a word
_KEY_PARTS = (0, 1, 2**32 - 1, 2**32, 2**40, 2**64 + 7)


def _states_match(key):
    """A replicate body that compares each generator's state with
    default_rng([*key, b])'s."""

    def body(b0, rngs):
        return [
            rng.bit_generator.state == np.random.default_rng([*key, b0 + i]).bit_generator.state
            for i, rng in enumerate(rngs)
        ]

    return body


class TestBulkSeeding:
    @pytest.mark.parametrize("length", range(1, 9))
    def test_states_equal_default_rngs_across_a_seeding_block(self, length):
        count = _SEED_BLOCK + 2
        for first in range(len(_KEY_PARTS)):
            key = tuple(_KEY_PARTS[(first + j) % len(_KEY_PARTS)] for j in range(length))
            got = _replicates(key, count, _states_match(key), pool=ehl.evalue.ThreadPoolExecutor)
            assert got == [True] * count, key

    @pytest.mark.parametrize("key", [(7,), (3, 1, 0, 1, 5, 2), (2**64 + 7, 2**32)])
    def test_spans_that_start_mid_block_keep_the_states(self, forced_pool, key):
        count = 2 * _SEED_BLOCK + 5
        got = _replicates(
            key, count, _states_match(key), threads=3, pool=ehl.evalue.ThreadPoolExecutor
        )
        assert forced_pool == [3]
        assert got == [True] * count

    @pytest.mark.parametrize("key", [(0,), (2**32 - 1, 2**40), (3, 1, 0, 1, 5, 2)])
    def test_indices_from_2_to_the_32_fall_back_to_default_rng(self, key):
        lo, hi = 2**32 - 3, 2**32 + 3
        rngs = list(_generators(key, lo, hi))
        assert len(rngs) == hi - lo
        assert _states_match(key)(lo, rngs) == [True] * (hi - lo)


class TestThreadSpans:
    def test_one_span_below_the_size_floor(self):
        assert _thread_spans(10, 4, _THREAD_MIN_N - 1) == [(0, 10)]

    def test_spans_cover_the_replicates_in_order(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _thread_spans(10, 4, _THREAD_MIN_N) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert _thread_spans(3, 8, _THREAD_MIN_N) == [(0, 1), (1, 2), (2, 3)]
        assert _thread_spans(7, 1, _THREAD_MIN_N) == [(0, 7)]

    def test_workers_capped_at_the_core_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _thread_spans(10**4, 10**4, 10**6) == [(0, 5000), (5000, 10**4)]

    @pytest.mark.parametrize(
        "run",
        [
            lambda threads: split_evalue(_small_sample(), 0.5, 4, seed=0, threads=threads),
            lambda threads: bagged_recalibrate(_small_sample(), 4, seed=0, threads=threads),
            lambda threads: run_power_study(
                SimulationConfig(
                    j_values=(0.0,),
                    n_values=(32,),
                    s_values=(0.5,),
                    variants=("ehl",),
                    reps=4,
                    B=2,
                    threads=threads,
                )
            ),
        ],
        ids=["split_evalue", "bagged_recalibrate", "run_power_study"],
    )
    def test_huge_thread_count_starts_a_worker_per_core_at_most(self, pool_workers, run):
        # four replicates, so that even an uncapped pool starts four threads
        run(10**6)
        cores = os.cpu_count()
        assert all(w <= cores for w in pool_workers)
        assert pool_workers == ([min(cores, 4)] if cores > 1 else [])

    @pytest.mark.parametrize(
        "run",
        [_split_at_the_floor, _bags_at_the_floor, _study_at_the_floor],
        ids=["split_evalue", "bagged_recalibrate", "run_power_study"],
    )
    def test_two_threads_at_the_size_floor_run_one_pool(
        self, recorded_pools, monkeypatch, run
    ):
        # the floor as shipped: a sample of exactly _THREAD_MIN_N observations
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = run(1)
        assert recorded_pools == []
        assert run(2) == serial
        assert recorded_pools == [2]


def _sort_inputs():
    """Forecast arrays by name: the sizes around the kernel's floor, ties,
    signed zeros, boundary values and NaN."""
    rng = np.random.default_rng(28)
    m = _STABLE_SORT_MIN_N
    cases = {
        "n=0": np.array([]),
        "n=1": np.array([0.5]),
        "n=2 tied": np.array([0.5, 0.5]),
        "n=2 descending": np.array([0.7, 0.2]),
        "all equal": np.full(3 * m, 0.3),
        "signed zeros": rng.choice([0.0, -0.0, 0.5], 3 * m),
        "boundary values": rng.choice([0.0, 1.0, 0.25], 3 * m),
        "boundary and continuous": np.concatenate(([1.0, 0.0] * m, rng.random(m))),
        "nan": np.where(rng.random(3 * m) < 0.1, np.nan, np.round(rng.random(3 * m), 2)),
        "all nan": np.full(m + 1, np.nan),
        "float32 two-decimal": np.round(rng.random(3 * m), 2).astype(np.float32),
        "int64 ties": rng.integers(0, 50, 3 * m),
    }
    for n in (m - 1, m, m + 1, 20000):
        cases[f"continuous n={n}"] = rng.random(n)
        cases[f"two-decimal n={n}"] = np.round(rng.random(n), 2)
    return cases


_SORT_INPUTS = _sort_inputs()


def _assert_stable_order(p):
    expected = np.argsort(p, kind="stable")
    got = _stable_order(p)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


class TestStableOrder:
    @pytest.mark.parametrize("name", list(_SORT_INPUTS))
    def test_equals_the_stable_argsort(self, name):
        _assert_stable_order(_SORT_INPUTS[name])

    @pytest.mark.parametrize("name", list(_SORT_INPUTS))
    def test_tie_repair_at_every_size(self, name, monkeypatch):
        # with the floor at 2 the default sort and repair run on every input
        monkeypatch.setattr(ehl.numeric, "_STABLE_SORT_MIN_N", 2)
        _assert_stable_order(_SORT_INPUTS[name])

    def test_signed_zeros_keep_index_order(self, monkeypatch):
        monkeypatch.setattr(ehl.numeric, "_STABLE_SORT_MIN_N", 2)
        p = np.array([0.0, 0.5, -0.0, 0.0, -0.0])
        order = _stable_order(p)
        assert order.tolist() == [0, 2, 3, 4, 1]
        assert np.signbit(p[order]).tolist() == [False, True, False, True, False]

    @pytest.mark.parametrize("rounded", [False, True], ids=["continuous", "two-decimal"])
    def test_a_million_rows(self, rounded):
        p = np.random.default_rng(29).random(10**6)
        _assert_stable_order(np.round(p, 2) if rounded else p)
