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
  per (prefix set, next index), so only small samples are allowed; it sums
  in another order than a per-permutation sum, equal to 1e-12 relative.
* split: repeated sample splitting; each replicate fits a Laplace-smoothed
  isotonic curve on a random estimation part and evaluates the product of
  likelihood ratios on the holdout, and the replicates are averaged.

All accumulation is in log space; results near 1e28 are ordinary. Large
e-values are evidence against calibration: by Markov's inequality 1/e is
a conservative p-value, and e > 20 corresponds to the 0.05 level.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import SampleSet, _train_size, split_indices
from .errors import BoundaryForecastError, ExactSizeError, InputError
from .isotonic import (
    _insert_merged,
    _merge_sorted,
    _oos_from_merged,
    _pool_blocks,
    _smoothed_values,
)
from .numeric import exp_clamped, logsumexp, seed_key

DEFAULT_THRESHOLD = 20.0
# largest sample the exact variant accepts, whatever n_max is: n = 14 visits
# 2^14 prefix sets in about 7 s on one core
EXACT_N_LIMIT = 14


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
        q = _oos_from_merged(knots, w, s, pi)
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

    A factor of the sequential product depends only on the set of earlier
    observations and on the next one, so the average is a recursion over
    prefix sets T: F(T + {j}) accumulates F(T) + log eq_j(T) by log-sum-exp,
    starting from F({}) = 0, and log e = F(all) - log n!. Each factor is
    computed once per (prefix set, next index) with the arithmetic of the
    sequential test, so the work is about 2^n n / 2 out-of-sample fits. The
    factors are combined in a different order than a sum over permutations;
    the two agree to 1e-12 relative. The result does not depend on the input
    order.

    n is capped at n_max (default 8) and, whatever n_max is, at
    EXACT_N_LIMIT; a larger sample raises ExactSizeError before any work.
    """
    _require_interior(samples)
    n = len(samples)
    if n_max < 1:
        raise InputError(f"n_max must be positive, got {n_max}")
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
    p = [float(v) for v in samples.p]
    y = [int(v) for v in samples.y]
    full = (1 << n) - 1
    # merged-knot state of each prefix set: the state of the set without its
    # lowest member, plus that member
    states = [(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))]
    log_f = np.full(full + 1, -math.inf)
    log_f[0] = 0.0
    for mask in range(full):
        if mask:
            j0 = (mask & -mask).bit_length() - 1
            states.append(_insert_merged(*states[mask & (mask - 1)], p[j0], y[j0]))
        state = states[mask]
        for j in range(n):
            if not mask >> j & 1:
                term = log_f[mask] + _log_eq_scalar(p[j], y[j], _oos_from_merged(*state, p[j]))
                grown = mask | 1 << j
                log_f[grown] = np.logaddexp(log_f[grown], term)
    log_e = float(log_f[full]) - math.log(math.factorial(n))
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
            smoothed = _smoothed_values(*_pool_blocks(w, sums))
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
