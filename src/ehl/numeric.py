"""Numerical building blocks: stable link functions, log-space sums,
chi-square tail probabilities, small linear solves, the stable sort order
that every sorted view of a sample is built from, seed normalization, and
the replicate runner that seeds, chunks and threads every loop of random
replicates (splits, bootstrap bags and power-study replications). It hands
the replicates over in seeded runs of bounded size: each replicate keeps
its own generator, and a run covers at most _RUN_CELLS replicate-times-row
cells, so the split engine can fit a whole run in one batched pass. The
generators are seeded in bulk: one vectorized pass of numpy's SeedSequence
algorithm gives a whole block of replicates their state words.

The chi-square survival function is computed from the regularized upper
incomplete gamma function with the classic two-regime scheme: a power series
for the lower function when x < a + 1 and a Lentz-style continued fraction
for the upper function otherwise. Both converge to near machine precision
for the degrees of freedom used anywhere in this package.
"""

from __future__ import annotations

import math
import os
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InputError, check_fraction, check_int

_MAX_ITER = 600
_EPS = 1e-16
_TINY = 1e-300
# exp() overflows above ~709.78; clamp instead of raising
_EXP_MAX = 709.0
_LOG2 = math.log(2.0)
# smallest sample whose replicates run on worker threads: on a 2-core host,
# two threads against one took 0.62-0.63 / 0.88-0.93 / 0.67-0.70 of the
# wall time in split_evalue / bagged_recalibrate (100 bags) /
# run_power_study at n = 8192, and less at 16384; at 4096 splits and power
# replications won (0.62-0.77 and 0.79-0.80) but bags, whose fits are mostly
# interpreter work there, lost (1.19-1.23)
_THREAD_MIN_N = 8192
# most replicates times sample size that one run of replicates covers: a
# run of the batched split fit peaks at about 3 MiB of arrays
_RUN_CELLS = 2**15
# most replicates whose generator states one bulk-seeding pass computes
_SEED_BLOCK = 256
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the pool
# hashes its input with INIT_A/MULT_A and its output with INIT_B/MULT_B
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF
# smallest sample that _stable_order sorts with the default sort plus a tie
# repair; smaller ones take numpy's stable sort. Kernel / stable time on a
# 2-core x86-64 host with AVX-512 (numpy 2.4), median of 40 rounds:
# continuous / two-decimal forecasts 0.61 / 1.33 at n = 1024, 0.41 / 0.96 at
# 1280, 0.35 / 0.82 at 1536 and 0.29 / 0.75 at 2048
_STABLE_SORT_MIN_N = 1280


def expit(z: float) -> float:
    """Logistic function 1 / (1 + exp(-z)); scalar front end of expit_array
    so both produce identical bits."""
    return float(expit_array(np.array([z], dtype=float))[0])


def expit_array(z: np.ndarray) -> np.ndarray:
    """Vectorized logistic function, stable at both tails."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    t = np.exp(z[~pos])
    out[~pos] = t / (1.0 + t)
    return out


def logit(p: float) -> float:
    """Inverse logistic log(p / (1 - p)); requires p strictly inside (0, 1)."""
    check_fraction("logit's p", p)
    return math.log(p) - math.log1p(-p)


def exp_clamped(x: float) -> float:
    """exp(x) that saturates to +inf instead of raising OverflowError."""
    if x > _EXP_MAX:
        return math.inf
    return math.exp(x)


def logsumexp(values: Sequence[float] | np.ndarray) -> float:
    """log(sum(exp(values))) with the usual max shift.

    Returns -inf for an empty input or when every entry is -inf.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return -math.inf
    m = float(np.max(arr))
    if m == -math.inf:
        return -math.inf
    if math.isinf(m):
        return math.inf
    return m + math.log(float(np.sum(np.exp(arr - m))))


def _logaddexp(x: float, y: float) -> float:
    """np.logaddexp(x, y) of two floats, with its bits and without the cost
    of a ufunc call on scalars: the formula of numpy's npy_logaddexp, whose
    exp and log1p are the C library's, as are math's."""
    if x == y:
        # equal infinities too, which x - y would turn into nan
        return x + _LOG2
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))
    # a nan argument
    return d


def _stable_order(p: np.ndarray) -> np.ndarray:
    """np.argsort(p, kind="stable") of a one-dimensional p, built from
    numpy's faster default sort.

    A stable sorting permutation is unique, so the default sort's order
    only needs its ties put back in index order: each entry gets the rank
    of its value among the distinct sorted values, and one sort of the int64
    keys rank * n + index gives the answer as key % n. The keys fit for
    n < 3 * 10^9. -0.0 and 0.0 compare equal, so they share a rank and keep
    index order, as in the stable sort. NaN never equals itself, so a
    sample with a NaN, which sorts last, takes the stable sort. So do
    samples below _STABLE_SORT_MIN_N, where that sort is cheaper. At any
    time it holds, its output included, at most two arrays of n 8-byte
    entries and one of n booleans.
    """
    p = np.asarray(p)
    n = p.size
    if n < _STABLE_SORT_MIN_N:
        return np.argsort(p, kind="stable")
    order = np.argsort(p)
    ps = p[order]
    if ps[-1] != ps[-1]:
        return np.argsort(p, kind="stable")
    new = ps[1:] != ps[:-1]
    if new.all():
        return order
    # the keys reuse the buffer of ps, which is no longer read, when it
    # holds 8-byte values
    key = ps.view(np.int64) if ps.itemsize == 8 else np.empty(n, dtype=np.int64)
    del ps
    key[0] = 0
    key[1:] = new
    del new
    # in place: a cumsum from the booleans would cast through a temporary
    np.cumsum(key[1:], out=key[1:])
    key *= n
    key += order
    del order
    key.sort()
    np.remainder(key, n, out=key)
    return key


def _lower_regularized_series(a: float, x: float) -> float:
    # P(a, x) = x^a e^-x / Gamma(a+1) * sum_k x^k / ((a+1)...(a+k)), x <= a + 1
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_regularized_contfrac(a: float, x: float) -> float:
    # Q(a, x) via modified Lentz continued fraction, x > a + 1
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chisq_sf(x: float, k: int) -> float:
    """Survival function P(X > x) of the chi-square distribution with k
    degrees of freedom.

    Parameters
    ----------
    x : float
        Evaluation point, must be nonnegative (x = +inf gives 0).
    k : int
        Degrees of freedom, a positive integer.

    Returns
    -------
    float
        Upper tail probability in [0, 1].
    """
    check_int("degrees of freedom", k, 1)
    x = float(x)
    if math.isnan(x) or x < 0.0:
        raise InputError(f"chi-square statistic must be nonnegative, got {x!r}")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    a = 0.5 * k
    hx = 0.5 * x
    if hx < a + 1.0:
        p = 1.0 - _lower_regularized_series(a, hx)
    else:
        p = _upper_regularized_contfrac(a, hx)
    return min(1.0, max(0.0, p))


def solve_linear_3x3(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a 3x3 linear system with an explicit conditioning guard.

    Raises InputError when the determinant is negligible relative to the
    row scales, rather than returning a garbage solution.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.shape != (3, 3) or b.shape != (3,):
        raise InputError(f"expected a 3x3 matrix and length-3 rhs, got {a.shape} and {b.shape}")
    scale = 1.0
    for row in a:
        scale *= max(np.max(np.abs(row)), _TINY)
    det = float(np.linalg.det(a))
    if abs(det) <= 1e-12 * scale:
        raise InputError("singular or near-singular 3x3 system")
    return np.linalg.solve(a, b)


def _thread_spans(count: int, threads: int, n: int) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) spans of range(count), one per worker thread.

    Replicates on a sample of fewer than _THREAD_MIN_N observations are
    mostly interpreter work, which threads only contend for, so they get
    one span. Otherwise there are at most min(threads, cores) spans of
    near-equal size. _replicates seeds each replicate by its index, so the
    spans never change a result.
    """
    workers = 1 if n < _THREAD_MIN_N else min(threads, os.cpu_count() or 1, count)
    step = -(-count // workers)
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """SeedSequence's running hash constant: init * mult^t mod 2^32 for t
    in range(count)."""
    consts = [init]
    while len(consts) < count:
        consts.append(consts[-1] * mult & _WORD)
    return consts


def _hashmix(
    value: int | np.ndarray, const: int | np.ndarray, mult: int | np.ndarray
) -> int | np.ndarray:
    """SeedSequence's hashmix of value at hash constant const, whose next
    value is mult. Words are Python ints or uint64 arrays below 2^32, and
    each product is masked back to 32 bits, so one expression serves both;
    a uint64 product of two such words cannot overflow."""
    value = (value ^ const) * mult & _WORD
    return value ^ value >> 16


def _mix(x: int | np.ndarray, y: int | np.ndarray) -> int | np.ndarray:
    """SeedSequence's mix of two words, as _hashmix takes them. A uint64
    difference may wrap, which leaves its low 32 bits right."""
    value = (_MIX_L * x - _MIX_R * y) & _WORD
    return value ^ value >> 16


def _mix_entropy(entropy: list, consts: list[int]) -> tuple[list, int]:
    """SeedSequence.mix_entropy into a pool of four words: the pool and the
    number of hash constants used.

    The pool starts as the first four entropy words hashed, 0 past the end.
    Then each pool word is mixed into the other three, and each later
    entropy word into all four.
    """
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else 0, consts[i], consts[i + 1])
        for i in range(4)
    ]
    t = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[t], consts[t + 1]))
                t += 1
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts[t], consts[t + 1]))
            t += 1
    return pool, t


# generate_state(4, np.uint64) hashes the pool out into eight 32-bit words,
# reading pool word i % 4 for output word i
_OUT = np.array(_hash_consts(_INIT_B, _MULT_B, 9), dtype=np.uint64)[:, None]


def _seed_states(key: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """states(bs): for a uint64 array bs of indices below 2^32, the
    len(bs) x 4 uint64 array whose row i is
    SeedSequence([*key, bs[i]]).generate_state(4, np.uint64).

    SeedSequence's entropy is each key part's 32-bit words, low word first
    (0 gives one word), then b's one word. The steps that do not depend on
    b run here once, on Python ints; states runs the rest on arrays.
    """
    words = [
        int(part) >> shift & _WORD
        for part in key
        for shift in range(0, max(int(part).bit_length(), 1), 32)
    ]
    # 16 hashes fill and cross-mix the pool, and 4 more absorb each entropy
    # word past the fourth; each hash also reads the next constant
    consts = _hash_consts(_INIT_A, _MULT_A, 17 + 4 * max(0, len(words) - 3))
    if len(words) < 4:
        # b's word is in the pool's first four, so every step depends on it
        def pool(bs: np.ndarray) -> np.ndarray:
            return np.stack(_mix_entropy([*words, bs], consts)[0])

    else:
        # b's word comes last: mix the key in once, then b into all four
        # pool words in one pass, with four consecutive hash constants
        head, t = _mix_entropy(words, consts)
        head = np.array(head, dtype=np.uint64)[:, None]
        c = np.array(consts[t : t + 5], dtype=np.uint64)[:, None]

        def pool(bs: np.ndarray) -> np.ndarray:
            return _mix(head, _hashmix(bs, c[:-1], c[1:]))

    def states(bs: np.ndarray) -> np.ndarray:
        out = _hashmix(pool(bs)[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT[:-1], _OUT[1:])
        # each pair of 32-bit words, low word first, is one uint64 word
        return np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)

    return states


class _StateWords(ISeedSequence):
    """Seeds a PCG64 with precomputed generate_state(4, np.uint64) words,
    the only request PCG64 makes of its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _generators(key: tuple[int, ...], lo: int, hi: int) -> Iterator[np.random.Generator]:
    """Generators with the states of default_rng([*key, b]) for b in
    range(lo, hi), one at a time.

    Their state words come from _seed_states in blocks of at most
    _SEED_BLOCK indices. An index of 2^32 or more has two words in
    SeedSequence's entropy, so it falls back to default_rng.
    """
    states = _seed_states(key)
    for b0 in range(lo, min(hi, 2**32), _SEED_BLOCK):
        bs = np.arange(b0, min(b0 + _SEED_BLOCK, hi, 2**32), dtype=np.uint64)
        for words in states(bs):
            yield np.random.Generator(np.random.PCG64(_StateWords(words)))
    for b in range(max(lo, 2**32), hi):
        yield np.random.default_rng([*key, b])


def _replicates(
    key: tuple[int, ...],
    count: int,
    body: Callable[[int, Iterable[np.random.Generator]], list],
    *,
    threads: int = 1,
    n: int = 1,
    pool: type,
) -> list:
    """One result per replicate b in range(count), in index order.

    The replicates go to body(b0, rngs) in runs of consecutive indices
    b0, b0 + 1, ..., where rngs yields the i-th replicate of the run a
    generator with the state of default_rng([*key, b0 + i]), one at a time,
    and body returns one result per generator. A run holds at most
    max(1, _RUN_CELLS // n) replicates of a sample of n observations.
    The generators come from _generators, which seeds them in bulk. So a
    generator's bit_generator.seed_seq is a _StateWords, not a
    SeedSequence, and cannot spawn; nothing in this package calls spawn.
    Replicate b draws only from its own generator, so the result does not
    depend on how the replicates are cut into runs or spread over threads.
    The spans come from _thread_spans(count, threads, n); when there is more
    than one, they run on the caller's ThreadPoolExecutor, passed as pool,
    one worker per span.
    """
    run = max(1, _RUN_CELLS // n)

    def chunk(span: tuple[int, int]) -> list:
        lo, hi = span
        rngs = _generators(key, lo, hi)
        out = []
        for b0 in range(lo, hi, run):
            out += body(b0, islice(rngs, run))
        return out

    spans = _thread_spans(count, threads, n)
    if len(spans) == 1:
        return chunk(spans[0])
    with pool(max_workers=len(spans)) as workers:
        return [out for part in workers.map(chunk, spans) for out in part]


def seed_key(seed: int | Sequence[int]) -> tuple[int, ...]:
    """Normalize a user-facing seed (int or sequence of ints) to a tuple."""
    if not isinstance(seed, Iterable):
        return (check_int("seed", seed, 0),)
    parts = tuple(check_int("seed component", s, 0) for s in seed)
    if not parts:
        raise InputError("seed sequence must be nonempty")
    return parts
