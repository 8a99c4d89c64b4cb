"""Numerical building blocks: stable link functions, log-space sums,
chi-square tail probabilities, small linear solves, seed normalization, and
the replicate runner that seeds, chunks and threads every loop of random
replicates (splits, bootstrap bags and power-study replications). It hands
the replicates over in seeded runs of bounded size: each replicate keeps
its own generator, and a run covers at most _RUN_CELLS replicate-times-row
cells, so the split engine can fit a whole run in one batched pass.

The chi-square survival function is computed from the regularized upper
incomplete gamma function with the classic two-regime scheme: a power series
for the lower function when x < a + 1 and a Lentz-style continued fraction
for the upper function otherwise. Both converge to near machine precision
for the degrees of freedom used anywhere in this package.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InputError

_MAX_ITER = 600
_EPS = 1e-16
_TINY = 1e-300
# exp() overflows above ~709.78; clamp instead of raising
_EXP_MAX = 709.0
# smallest sample whose replicates run on worker threads: on a 2-core host,
# two threads lost to one up to n = 1024, tied at 2048 and won from 4096, in
# split_evalue, bagged_recalibrate and run_power_study alike
_THREAD_MIN_N = 4096
# most replicates times sample size that one run of replicates covers: a
# run of the batched split fit peaks at about 3 MiB of arrays
_RUN_CELLS = 2**15


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
    if not 0.0 < p < 1.0:
        raise InputError(f"logit requires p in (0, 1), got {p!r}")
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
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InputError(f"degrees of freedom must be a positive integer, got {k!r}")
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
    b0, b0 + 1, ..., where rngs yields default_rng([*key, b0 + i]) for the
    i-th replicate of the run, one at a time, and body returns one result
    per generator. A run holds at most max(1, _RUN_CELLS // n) replicates
    of a sample of n observations.
    Replicate b draws only from its own generator, so the result does not
    depend on how the replicates are cut into runs or spread over threads.
    The spans come from _thread_spans(count, threads, n); when there is more
    than one, they run on the caller's ThreadPoolExecutor, passed as pool,
    one worker per span.
    """
    run = max(1, _RUN_CELLS // n)

    def chunk(span: tuple[int, int]) -> list:
        lo, hi = span
        out = []
        for b0 in range(lo, hi, run):
            rngs = (np.random.default_rng([*key, b]) for b in range(b0, min(b0 + run, hi)))
            out += body(b0, rngs)
        return out

    spans = _thread_spans(count, threads, n)
    if len(spans) == 1:
        return chunk(spans[0])
    with pool(max_workers=len(spans)) as workers:
        return [out for part in workers.map(chunk, spans) for out in part]


def seed_key(seed: int | Sequence[int]) -> tuple[int, ...]:
    """Normalize a user-facing seed (int or sequence of ints) to a tuple."""
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise InputError(f"seed must be nonnegative, got {seed}")
        return (int(seed),)
    parts = tuple(int(s) for s in seed)
    if not parts:
        raise InputError("seed sequence must be nonempty")
    if any(s < 0 for s in parts):
        raise InputError(f"seed components must be nonnegative, got {parts}")
    return parts
