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


def laplace_values_reference(values, w, s):
    """Frozen copy of the per-knot Laplace smoothing that found each pooled
    block again as a maximal run of equal fitted values, then assigned the
    block's (0.5 + sum) / (count + 1) to every knot it covers."""
    m = values.shape[0]
    new = np.empty(m, dtype=bool)
    new[0] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    bw = np.add.reduceat(w, starts)
    bs = np.add.reduceat(s, starts)
    per_block = (0.5 + bs) / (bw + 1.0)
    counts = np.diff(np.append(starts, m))
    return np.repeat(per_block, counts)


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


# Frozen copies of the per-cell binning and the row-by-row CSV loader that
# the sorted-view binning and the numpy loader replaced. They are the
# references the replacements are checked against.


def hl_bins_reference(p, y, method, g):
    """Index arrays of the realized bins of one (method, g) cell: edges by
    the documented formulas, then one flatnonzero per bin, or an equal-count
    split of the (p, +-y, index) lexsort order."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if method in ("Qplus", "Qminus"):
        n = p.size
        y_key = y if method == "Qplus" else -y
        order = np.lexsort((np.arange(n), y_key, p))
        base = n // g
        sizes = np.full(g, base, dtype=np.int64)
        r = n % g
        for t in range(1, r + 1):
            target = -((2 * t - 1) * g // -(2 * r))  # ceil((2t-1) g / (2r))
            sizes[target - 1] += 1
        stops = np.cumsum(sizes)
        starts = stops - sizes
        return [np.sort(order[a:b]) for a, b in zip(starts, stops)]
    if method == "E":
        edges = np.linspace(float(np.min(p)), float(np.max(p)), g + 1)
        side = "left"
    else:
        cuts = np.quantile(p, np.arange(1, g) / g)
        edges = np.unique(np.concatenate(([0.0], cuts, [1.0])))
        side = "left" if method == "QL" else "right"
    m = edges.size - 1
    idx = np.searchsorted(edges, p, side=side) - 1
    idx = np.clip(idx, 0, m - 1)
    bins = [np.flatnonzero(idx == k) for k in range(m)]
    return [b for b in bins if b.size > 0]


def hl_table_reference(p, y, bins):
    """Rows (count, o1, e1, o0, e0) per bin, sums taken in index order."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    rows = []
    for idx in bins:
        count = int(idx.size)
        o1 = float(np.sum(y[idx]))
        e1 = float(np.sum(p[idx]))
        rows.append((float(count), o1, e1, count - o1, count - e1))
    return rows


def load_rows_reference(fh):
    """Columns p, y, x, pi_bar (None when absent) of a forecast CSV read
    row by row with csv.DictReader and float(), or the InputError the
    loader raises, with its row-numbered message."""
    import csv

    from ehl.errors import InputError

    def parse(text, column, row):
        try:
            return float(text)
        except ValueError:
            raise InputError(
                f"row {row}: malformed number {text!r} in column {column!r}"
            ) from None

    reader = csv.DictReader(fh)
    header = reader.fieldnames
    if header is None:
        raise InputError("empty input: no CSV header")
    for required in ("p", "y"):
        if required not in header:
            raise InputError(f"missing required column {required!r} (header: {header})")
    optional = [name for name in ("x", "pi_bar") if name in header]

    ps, ys = [], []
    extras = {name: [] for name in optional}
    for row_num, record in enumerate(reader, start=1):
        raw_p = record.get("p")
        raw_y = record.get("y")
        if raw_p is None or raw_y is None or raw_p == "" or raw_y == "":
            raise InputError(f"row {row_num}: missing value for p or y")
        p = parse(raw_p, "p", row_num)
        if math.isnan(p) or not 0.0 <= p <= 1.0:
            raise InputError(f"row {row_num}: p={raw_p} outside [0, 1]")
        y_val = parse(raw_y, "y", row_num)
        if y_val not in (0.0, 1.0):
            raise InputError(f"row {row_num}: y={raw_y} is not 0 or 1")
        for name in optional:
            raw = record.get(name)
            if raw is None or raw == "":
                raise InputError(f"row {row_num}: missing value in column {name!r}")
            value = parse(raw, name, row_num)
            if name == "pi_bar" and (math.isnan(value) or not 0.0 <= value <= 1.0):
                raise InputError(f"row {row_num}: pi_bar={raw} outside [0, 1]")
            extras[name].append(value)
        ps.append(p)
        ys.append(int(y_val))
    if not ps:
        raise InputError("empty input: no data rows")
    return {
        "p": np.array(ps),
        "y": np.array(ys),
        "x": np.array(extras["x"]) if "x" in extras else None,
        "pi_bar": np.array(extras["pi_bar"]) if "pi_bar" in extras else None,
    }
