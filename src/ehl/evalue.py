"""E-value tests of forecast calibration.

The single-observation likelihood ratio against an alternative forecast q is

    eq(p, y, q) = q / p          if y = 1
                  (1 - q)/(1 - p) if y = 0

and has expectation 1 whenever y is Bernoulli(p). Three tests build on it:

* sequential: one pass in presentation order, q_i predicted from the first
  i - 1 observations by the out-of-sample isotonic rule (q_1 = 1/2); the
  running product is a nonnegative martingale under calibration.
* exact: the sequential product averaged over all n! presentation orders,
  as a recursion over the 2^n prefix sets that computes each factor once
  per (prefix set, next index), all factors of one set in one pass over
  its pooled prefix and suffix stacks, so only small samples are allowed;
  it sums in another order than a per-permutation sum, equal to 1e-12
  relative.
* split: repeated sample splitting; each replicate fits a Laplace-smoothed
  isotonic curve on a random estimation part and evaluates the product of
  likelihood ratios on the holdout, and the replicates are averaged. The
  replicates come in seeded runs of bounded size, and each run is fitted
  in one batched numpy pass whose values are bit for bit those of
  replicates fitted one at a time.

All accumulation is in log space; results near 1e28 are ordinary. Large
e-values are evidence against calibration: by Markov's inequality 1/e is
a conservative p-value, and e > 20 corresponds to the 0.05 level.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .data import SampleSet, _train_size
from .errors import BoundaryForecastError, ExactSizeError, InputError, check_int, check_positive
from .isotonic import (
    _PrefixBlocks,
    _fixed_set_values,
    _merge_sorted,
    _oos_value,
    _pool_rows,
    _smoothed_values,
)
from .numeric import (
    _logaddexp,
    _replicates,
    _stable_order,
    exp_clamped,
    logsumexp,
    seed_key,
)

DEFAULT_THRESHOLD = 20.0
# largest sample the exact variant accepts, whatever n_max is: n = 16 visits
# 2^16 prefix sets in 1.1-1.7 s of CPU on one core of a 2-core Intel Xeon,
# n = 17 took 2.4-3.2 s
EXACT_N_LIMIT = 16


def _require_interior(samples: SampleSet) -> None:
    if samples.has_boundary_forecasts:
        raise BoundaryForecastError(
            "forecasts of exactly 0 or 1 admit no likelihood-ratio test; "
            "clip or drop boundary forecasts first"
        )


def eq_single(p: float, y: int, q: float) -> float:
    """Single-observation e-value of forecast p against alternative q.

    Equals 1 + lambda (p - y) with lambda = (p - q) / (p (1 - p)); in
    particular it is 1 when q = p, and it exceeds 1 exactly when q is on
    the same side of p as the outcome.
    """
    if not 0.0 <= p <= 1.0:
        raise InputError(f"forecast must lie in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        raise BoundaryForecastError(f"forecast {p} is on the boundary")
    if not 0.0 <= q <= 1.0:
        raise InputError(f"alternative forecast must lie in [0, 1], got {q!r}")
    if y not in (0, 1):
        raise InputError(f"outcome must be 0 or 1, got {y!r}")
    if y == 1:
        return q / p
    return (1.0 - q) / (1.0 - p)


# log eq is spelled twice, with math for the sequential and exact variants
# and with numpy for whole arrays, and the two cannot merge without changing
# output bits: on 10^6 uniform values np.log differs from math.log in about
# 3,500 and np.log1p from math.log1p in about 73,600 (numpy 2.4, x86-64).
def _log_eq_scalar(p: float, y: int, q: float) -> float:
    # q comes from _oos_value, strictly inside (0, 1): g1 >= 1/cw and
    # 1 - g0 >= 1/cw for the count cw of the block that holds the new point
    if y == 1:
        return math.log(q) - math.log(p)
    return math.log1p(-q) - math.log1p(-p)


def _log_eq_terms(p: np.ndarray, y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorized log eq for strictly interior p and q; not the bits of
    _log_eq_scalar, whose math.log and math.log1p round differently."""
    return np.where(
        y == 1,
        np.log(q) - np.log(p),
        np.log1p(-q) - np.log1p(-p),
    )


def evalue_to_pvalue(e: float) -> float:
    """Markov bound min(1, 1/e); e = +inf maps to 0, e = 0 maps to 1."""
    if math.isnan(e) or e < 0.0:
        raise InputError(f"e-value must be nonnegative, got {e!r}")
    if e == 0.0:
        return 1.0
    if math.isinf(e):
        return 0.0
    return min(1.0, 1.0 / e)


@dataclass(frozen=True)
class EValueReport:
    """Outcome of one e-value test.

    log_e is the primary quantity; e_value = exp(log_e) saturates to +inf
    rather than overflowing. implied_p is the Markov bound min(1, 1/e).
    Variant-specific diagnostics: per_split_log_e for the split test, the
    cumulative e-process path for the sequential test.
    """

    variant: str
    log_e: float
    e_value: float
    implied_p: float
    reject_at_20: bool
    threshold: float = DEFAULT_THRESHOLD
    s: float | None = None
    B: int | None = None
    seed: int | tuple[int, ...] | None = None
    per_split_log_e: tuple[float, ...] | None = None
    path: tuple[float, ...] | None = None

    @classmethod
    def from_log(
        cls,
        variant: str,
        log_e: float,
        threshold: float = DEFAULT_THRESHOLD,
        **diagnostics,
    ) -> "EValueReport":
        e = exp_clamped(log_e)
        return cls(
            variant=variant,
            log_e=log_e,
            e_value=e,
            implied_p=evalue_to_pvalue(e),
            reject_at_20=bool(e > threshold),
            threshold=threshold,
            **diagnostics,
        )

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            # a diagnostic that the variant does not make is left out, not null
            if value is None and f.name in ("per_split_log_e", "path"):
                continue
            # JSON has no tuples; the lists compare equal to a parsed result
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def sequential_evalue(
    samples: SampleSet, *, threshold: float = DEFAULT_THRESHOLD
) -> EValueReport:
    """Sequential e-value in presentation order.

    The alternative q_i for observation i is the out-of-sample isotonic
    prediction from observations 1..i-1 (1/2 for the first). Returns the
    final e-value together with the cumulative path (E_1, ..., E_n), whose
    running values form a test martingale under calibration.

    The prefix is kept as its pooled blocks, each with the pooled stacks
    of its knots from its first knot and to its last that are still valid.
    A step makes those stacks valid up to the new point from each side,
    reads g0 and g1 by walking out from the point, and rewrites only the
    blocks that change. So a step pools the knots between the point and
    the last step's reach, not the whole block that holds it: 17-19
    knots a step on calibrated data at n = 800, against 39-52 when both
    sides of that block pooled again. A stretch of more than _WIDE knots
    pools in numpy, at the cost of re-pooling it, so one block holding
    every knot still costs O(n) per step and O(n^2) in total.
    """
    check_positive("threshold", threshold)
    _require_interior(samples)
    p = samples.p
    y = samples.y
    n = len(samples)
    state = _PrefixBlocks()
    log_e = 0.0
    path = []
    for i in range(n):
        pi = float(p[i])
        yi = int(y[i])
        q = _oos_value(*state.step(pi, yi))
        log_e += _log_eq_scalar(pi, yi, q)
        path.append(exp_clamped(log_e))
    return EValueReport.from_log(
        "sequential", log_e, threshold=threshold, path=tuple(path)
    )


def exact_symmetrized_evalue(
    samples: SampleSet, n_max: int = 8, *, threshold: float = DEFAULT_THRESHOLD
) -> EValueReport:
    """Average of the sequential e-value over all n! presentation orders.

    A factor of the sequential product depends only on the set of earlier
    observations and on the next one, so the average is a recursion over
    prefix sets T: F(T + {j}) accumulates F(T) + log eq_j(T) by log-sum-exp,
    starting from F({}) = 0, and log e = F(all) - log n!. Each factor is
    computed once per (prefix set, next index) with the arithmetic of the
    sequential test, so the work is about 2^n n / 2 out-of-sample values.
    Each set's merged knots are read off one sorted order of the sample,
    and all of its values come from one pass: its prefixes and suffixes
    are pooled once into stacks, and each next observation's g0 and g1 are
    read by popping them. No set's state is kept. The factors are combined
    in a different order than a sum over permutations; the two agree to
    1e-12 relative. The result does not depend on the input order.

    n is capped at n_max (default 8) and, whatever n_max is, at
    EXACT_N_LIMIT; a larger sample raises ExactSizeError before any work.
    """
    check_int("n_max", n_max, 1)
    check_positive("threshold", threshold)
    _require_interior(samples)
    n = len(samples)
    if n > EXACT_N_LIMIT:
        raise ExactSizeError(
            f"sample size {n} exceeds the exact variant's hard limit of "
            f"{EXACT_N_LIMIT} observations (its work grows as 2^n); "
            "use the split or sequential variant"
        )
    if n > n_max:
        raise ExactSizeError(
            f"sample size {n} exceeds the exact-enumeration cap {n_max}; "
            "use the split or sequential variant"
        )
    full = (1 << n) - 1
    # the observations in one sorted order, each with its bit in a mask
    ranked = sorted(zip(samples.p.tolist(), [1 << i for i in range(n)], samples.y.tolist()))
    log_f = [-math.inf] * (full + 1)
    log_f[0] = 0.0
    for mask in range(full):
        # the set's merged knots and the distinct forecasts outside it, read
        # off that order; tied observations outside share one query
        knots: list[float] = []
        w: list[int] = []
        s: list[int] = []
        queries: list[float] = []
        rest = []
        for pi, bit, yi in ranked:
            if mask & bit:
                if knots and knots[-1] == pi:
                    w[-1] += 1
                    s[-1] += yi
                else:
                    knots.append(pi)
                    w.append(1)
                    s.append(yi)
            else:
                if not queries or queries[-1] != pi:
                    queries.append(pi)
                rest.append((pi, bit, yi, len(queries) - 1))
        values = _fixed_set_values(knots, w, s, queries)
        base = log_f[mask]
        # each observation grows the set into its own entry of log_f
        for pi, bit, yi, k in rest:
            term = base + _log_eq_scalar(pi, yi, _oos_value(*values[k]))
            grown = mask | bit
            log_f[grown] = _logaddexp(log_f[grown], term)
    log_e = log_f[full] - math.log(math.factorial(n))
    return EValueReport.from_log("exact", log_e, threshold=threshold)


def _split_log_e(
    samples: SampleSet,
    s: float,
    fit: bool,
    oracle_terms: np.ndarray | None = None,
) -> Callable[
    [int, Iterable[np.random.Generator]], list[tuple[float | None, float | None]]
]:
    """Split replicates over one sample, as body(b0, rngs) for _replicates.

    Each replicate draws its split from its generator, as split_indices
    does, and gives (fitted, oracle). With fit, fitted is the holdout's log
    likelihood ratio against the Laplace-smoothed isotonic curve fitted on
    the estimation part; with oracle_terms, oracle is their sum over the
    same holdout. Either is None when not asked for. So one draw serves both
    e-values, and neither value depends on whether the other is taken.

    The replicates of a run are fitted together, one row each of a
    c x n array: one pass finds every row's knots, one _pool_rows call
    pools them with each row kept apart, and the holdout is interpolated
    in sorted order, one np.interp per row. Every step is per element or
    per row, and each row sums its terms in holdout index order, so every
    value has the bits of a replicate fitted on its own.
    """
    n = len(samples)
    # validate the split geometry once, with the rule split_indices applies
    k = _train_size(n, s)
    h = n - k
    if fit:
        p = samples.p
        order = _stable_order(p)
        ps = p[order]
        ys = samples.y[order]
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        log_ps = np.log(p)[order]
        log1m_ps = np.log1p(-p)[order]

    def body(
        b0: int, rngs: Iterable[np.random.Generator]
    ) -> list[tuple[float | None, float | None]]:
        train = np.stack([rng.permutation(n)[:k] for rng in rngs])
        c = train.shape[0]
        # row r of a flat c x n array starts at offs[r]
        offs = np.arange(0, c * n, n)[:, None]
        taken = np.zeros(c * n, dtype=bool)
        taken[train + offs] = True
        # each row's holdout in index order, as split_indices sorts it
        hold = np.flatnonzero(~taken).reshape(c, h) - offs
        oracle = (
            [None] * c
            if oracle_terms is None
            else oracle_terms[hold].sum(axis=1).tolist()
        )
        if not fit:
            return list(zip([None] * c, oracle))
        # the same masks in sorted-p order
        taken[:] = False
        taken[pos[train] + offs] = True
        fit_at = np.flatnonzero(taken)
        cols = (fit_at.reshape(c, k) - offs).ravel()
        knots, w, sums = _merge_sorted(ps[cols], ys[cols], width=k)
        # each knot's row: that of its first observation in the flat array
        row = (np.cumsum(w) - w) // k
        values = _smoothed_values(*_pool_rows(w, sums, row))
        cuts = np.searchsorted(row, np.arange(c + 1)).tolist()
        hold_at = np.flatnonzero(~taken)
        hcols = hold_at.reshape(c, h) - offs
        xs = ps[hcols]
        q = np.empty((c, h))
        for r in range(c):
            a, b = cuts[r], cuts[r + 1]
            q[r] = np.interp(xs[r], knots[a:b], values[a:b])
        terms = np.empty(c * n)
        terms[hold_at] = np.where(
            ys[hcols] == 1, np.log(q) - log_ps[hcols], np.log1p(-q) - log1m_ps[hcols]
        ).ravel()
        fitted = terms[pos[hold] + offs].sum(axis=1).tolist()
        return list(zip(fitted, oracle))

    return body


def split_evalue(
    samples: SampleSet,
    s: float = 0.5,
    B: int = 10000,
    seed: int | Sequence[int] = 0,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    threads: int = 1,
) -> EValueReport:
    """Split likelihood-ratio e-value with B independent splits.

    Each replicate draws an estimation part of size floor(n s) without
    replacement, fits the Laplace-smoothed isotonic curve on it, reads off
    alternatives q_i for the holdout by interpolation, and multiplies the
    holdout likelihood ratios. The reported e-value is the average of the
    B replicates, computed by log-sum-exp.

    Replicate b draws from a generator seeded by (seed, b), so the result
    is identical for any thread count and any B-wise work distribution.
    """
    check_int("B", B, 1)
    check_int("threads", threads, 1)
    check_positive("threshold", threshold)
    key = seed_key(seed)
    _require_interior(samples)
    n = len(samples)
    body = _split_log_e(samples, s, fit=True)
    replicates = _replicates(
        key, B, body, threads=threads, n=n, pool=ThreadPoolExecutor
    )
    per_split = np.array([fitted for fitted, _ in replicates])
    log_e = logsumexp(per_split) - math.log(B)
    return EValueReport.from_log(
        "split",
        log_e,
        threshold=threshold,
        s=float(s),
        B=int(B),
        seed=key[0] if isinstance(seed, (int, np.integer)) else key,
        per_split_log_e=tuple(float(v) for v in per_split),
    )
