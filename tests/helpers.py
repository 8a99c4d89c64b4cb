"""Independent oracles shared by the test modules.

Everything here recomputes results by a route deliberately different from
the library's own: exhaustive enumeration, brute-force grid search, textbook
formulas, or quadrature. Keep it that way; these functions must never call
back into the implementation paths they are checking.
"""

import itertools
import math

import numpy as np


def log_score(p, y, g):
    """Log-likelihood-ratio objective of candidate values g against the
    forecasts, with -inf on impossible assignments."""
    total = 0.0
    for pi, yi, gi in zip(p, y, g):
        if yi == 1:
            if gi == 0.0:
                return -math.inf
            total += math.log(gi / pi)
        else:
            if gi == 1.0:
                return -math.inf
            total += math.log((1.0 - gi) / (1.0 - pi))
    return total


def knot_stats(p, y):
    """Distinct sorted forecast values with per-knot counts and outcome sums."""
    order = np.argsort(p, kind="stable")
    ps = np.asarray(p, dtype=float)[order]
    ys = np.asarray(y)[order]
    knots, counts, sums = [], [], []
    for pv, yv in zip(ps, ys):
        if knots and knots[-1] == pv:
            counts[-1] += 1
            sums[-1] += int(yv)
        else:
            knots.append(float(pv))
            counts.append(1)
            sums.append(int(yv))
    return knots, counts, sums


def stack_pool_values(w, s):
    """Pool-adjacent-violators by the one-knot-at-a-time stack algorithm:
    the pooled block mean (outcome sum / count) at each knot, given per-knot
    counts w and outcome sums s. Violators are compared by exact integer
    cross-multiplication, and equal adjacent means pool."""
    m = w.shape[0]
    bw = np.empty(m, np.int64)
    bs = np.empty(m, np.int64)
    bk = np.empty(m, np.int64)
    top = 0
    for i in range(m):
        cw = w[i]
        cs = s[i]
        ck = 1
        while top > 0 and bs[top - 1] * cw >= cs * bw[top - 1]:
            top -= 1
            cw += bw[top]
            cs += bs[top]
            ck += bk[top]
        bw[top] = cw
        bs[top] = cs
        bk[top] = ck
        top += 1
    out = np.empty(m, np.float64)
    pos = 0
    for b in range(top):
        v = bs[b] / bw[b]
        for _ in range(bk[b]):
            out[pos] = v
            pos += 1
    return out


def farey_staircase(m):
    """m knots (counts w, outcome sums s) whose means rise strictly through
    reduced fractions with small denominators, the last knot replaced by a
    heavy block of failures that pools a long tail of the staircase. Pooling
    adjacent violators shrinks this input by one block per pass."""
    # about 3 d^2 / pi^2 reduced fractions in (0, 1) have denominator < d
    d = int(math.pi * math.sqrt(m / 3.0)) + 3
    while True:
        den, num = np.divmod(np.arange(d * d), d)
        keep = (num > 0) & (num < den) & (np.gcd(num, den) == 1)
        if np.count_nonzero(keep) >= m:
            break
        d += 8
    num, den = num[keep], den[keep]
    order = np.argsort(num / den)
    s = num[order][:m].astype(np.int64)
    w = den[order][:m].astype(np.int64)
    w[-1] = w.sum()
    s[-1] = 0
    return w, s


def monotone_grid_max(p, y, grid):
    """Brute-force maximum of the log score over nondecreasing assignments
    of grid values to the distinct forecasts."""
    knots, counts, sums = knot_stats(p, y)
    m = len(knots)
    best = -math.inf
    for combo in itertools.combinations_with_replacement(grid, m):
        total = 0.0
        for knot, w, s_, g in zip(knots, counts, sums, combo):
            if s_ > 0:
                if g == 0.0:
                    total = -math.inf
                    break
                total += s_ * math.log(g / knot)
            if w - s_ > 0:
                if g == 1.0:
                    total = -math.inf
                    break
                total += (w - s_) * math.log((1.0 - g) / (1.0 - knot))
        if total > best:
            best = total
    return best


def outcome_expectation(p, evaluate):
    """Expectation of evaluate(y) over independent Bernoulli(p_i) outcomes,
    by full enumeration of the 2^n outcome vectors."""
    p = np.asarray(p, dtype=float)
    n = p.size
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        y = np.array(bits, dtype=np.int64)
        weight = float(np.prod(np.where(y == 1, p, 1.0 - p)))
        total += weight * evaluate(y)
    return total


def type7_quantile(x, q):
    """Sample quantile with h = (n - 1) q + 1 and linear interpolation."""
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    h = (n - 1) * q + 1.0
    lo = int(math.floor(h))
    lo = min(max(lo, 1), n)
    frac = h - lo
    if lo == n:
        return float(xs[-1])
    return float(xs[lo - 1] + frac * (xs[lo] - xs[lo - 1]))


def chi2_sf_quad(x, k):
    """Upper tail of the chi-square distribution by numeric quadrature of
    its density."""
    from scipy import integrate

    a = 0.5 * k

    def dens(t):
        return math.exp((a - 1.0) * math.log(t) - 0.5 * t - a * math.log(2.0) - math.lgamma(a))

    val, _ = integrate.quad(dens, x, np.inf, limit=400)
    return val
