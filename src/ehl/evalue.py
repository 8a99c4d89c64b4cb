"""E-value tests of forecast calibration.

The single-observation likelihood ratio against an alternative forecast q is

    eq(p, y, q) = q / p          if y = 1
                  (1 - q)/(1 - p) if y = 0

and has expectation 1 whenever y is Bernoulli(p). Three tests build on it:

* sequential: one pass in presentation order, q_i predicted from the first
  i - 1 observations by the out-of-sample isotonic rule (q_1 = 1/2); the
  running product is a nonnegative martingale under calibration.
* exact: the sequential product averaged over all n! presentation orders,
  enumerated exhaustively, so only tiny samples are allowed.
* split: repeated sample splitting; each replicate fits a Laplace-smoothed
  isotonic curve on a random estimation part and evaluates the product of
  likelihood ratios on the holdout, and the replicates are averaged.

All accumulation is in log space; results near 1e28 are ordinary. Large
e-values are evidence against calibration: by Markov's inequality 1/e is
a conservative p-value, and e > 20 corresponds to the 0.05 level.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import SampleSet, _train_size, split_indices
from .errors import BoundaryForecastError, ExactSizeError, InputError
from .isotonic import (
    _insert_merged,
    _laplace_values,
    _merge_sorted,
    _oos_from_merged,
    _pool_values,
)
from .numeric import exp_clamped, logsumexp, seed_key

DEFAULT_THRESHOLD = 20.0


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


def _log_eq_scalar(p: float, y: int, q: float) -> float:
    num = q if y == 1 else 1.0 - q
    if num == 0.0:
        return -math.inf
    if y == 1:
        return math.log(q) - math.log(p)
    return math.log1p(-q) - math.log1p(-p)


def _log_eq_terms(p: np.ndarray, y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorized log eq for strictly interior p and q."""
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
        out = {
            "variant": self.variant,
            "e_value": self.e_value,
            "log_e": self.log_e,
            "implied_p": self.implied_p,
            "reject_at_20": self.reject_at_20,
            "threshold": self.threshold,
            "s": self.s,
            "B": self.B,
            "seed": list(self.seed) if isinstance(self.seed, tuple) else self.seed,
        }
        if self.per_split_log_e is not None:
            out["per_split_log_e"] = list(self.per_split_log_e)
        if self.path is not None:
            out["path"] = list(self.path)
        return out


def sequential_evalue(
    samples: SampleSet, *, threshold: float = DEFAULT_THRESHOLD
) -> EValueReport:
    """Sequential e-value in presentation order.

    The alternative q_i for observation i is the out-of-sample isotonic
    prediction from observations 1..i-1 (1/2 for the first). Returns the
    final e-value together with the cumulative path (E_1, ..., E_n), whose
    running values form a test martingale under calibration.
    """
    _require_interior(samples)
    p = samples.p
    y = samples.y
    n = len(samples)
    knots = np.empty(0, dtype=float)
    w = np.empty(0, dtype=np.int64)
    s = np.empty(0, dtype=np.int64)
    log_e = 0.0
    path = []
    for i in range(n):
        pi = float(p[i])
        yi = int(y[i])
        q = 0.5 if i == 0 else _oos_from_merged(knots, w, s, pi)
        log_e += _log_eq_scalar(pi, yi, q)
        path.append(exp_clamped(log_e))
        knots, w, s = _insert_merged(knots, w, s, pi, yi)
    return EValueReport.from_log(
        "sequential", log_e, threshold=threshold, path=tuple(path)
    )


def exact_symmetrized_evalue(
    samples: SampleSet, n_max: int = 8, *, threshold: float = DEFAULT_THRESHOLD
) -> EValueReport:
    """Average of the sequential e-value over all n! presentation orders.

    Enumerates every permutation, so n is capped at n_max (default 8).
    Log factors are cached per (prefix set, next index); the arithmetic is
    identical to running the sequential test on each permutation. The
    result does not depend on the input order.
    """
    _require_interior(samples)
    n = len(samples)
    if n_max < 1:
        raise InputError(f"n_max must be positive, got {n_max}")
    if n > n_max:
        raise ExactSizeError(
            f"sample size {n} exceeds the exact-enumeration cap {n_max}; "
            "use the split or sequential variant"
        )
    p = [float(v) for v in samples.p]
    y = [int(v) for v in samples.y]
    cache: dict[tuple[int, int], float] = {}

    def log_factor(mask: int, j: int) -> float:
        key = (mask, j)
        got = cache.get(key)
        if got is None:
            if mask == 0:
                q = 0.5
            else:
                idx = [i for i in range(n) if mask >> i & 1]
                ps = np.array([p[i] for i in idx])
                ys = np.array([y[i] for i in idx], dtype=np.int64)
                order = np.argsort(ps, kind="stable")
                q = _oos_from_merged(*_merge_sorted(ps[order], ys[order]), p[j])
            got = _log_eq_scalar(p[j], y[j], q)
            cache[key] = got
        return got

    log_terms = np.empty(math.factorial(n))
    for t, perm in enumerate(itertools.permutations(range(n))):
        mask = 0
        total = 0.0
        for j in perm:
            total += log_factor(mask, j)
            mask |= 1 << j
        log_terms[t] = total
    log_e = logsumexp(log_terms) - math.log(math.factorial(n))
    return EValueReport.from_log("exact", log_e, threshold=threshold)


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
    _require_interior(samples)
    n = len(samples)
    if B < 1:
        raise InputError(f"B must be positive, got {B}")
    if threads < 1:
        raise InputError(f"threads must be positive, got {threads}")
    key = seed_key(seed)
    p = samples.p
    y = samples.y
    order = np.argsort(p, kind="stable")
    ps = p[order]
    ys = y[order]
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    logp = np.log(p)
    log1mp = np.log1p(-p)
    # validate the split geometry once, with the rule split_indices applies
    _train_size(n, s)
    per_split = np.empty(B)

    def run(lo: int, hi: int) -> None:
        mask = np.empty(n, dtype=bool)
        for b in range(lo, hi):
            rng = np.random.default_rng([*key, b])
            train, hold = split_indices(n, s, rng)
            mask[:] = False
            mask[pos[train]] = True
            knots, w, sums = _merge_sorted(ps[mask], ys[mask])
            smoothed = _laplace_values(_pool_values(w, sums), w, sums)
            q = np.interp(p[hold], knots, smoothed)
            yh = y[hold]
            terms = np.where(
                yh == 1, np.log(q) - logp[hold], np.log1p(-q) - log1mp[hold]
            )
            per_split[b] = float(np.sum(terms))

    if threads == 1 or B == 1:
        run(0, B)
    else:
        step = -(-B // threads)
        spans = [(lo, min(lo + step, B)) for lo in range(0, B, step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in pool.map(lambda span: run(*span), spans):
                pass

    log_e = logsumexp(per_split) - math.log(B)
    return EValueReport.from_log(
        "split",
        log_e,
        threshold=threshold,
        s=float(s),
        B=int(B),
        seed=seed if isinstance(seed, int) else tuple(int(v) for v in seed),
        per_split_log_e=tuple(float(v) for v in per_split),
    )
