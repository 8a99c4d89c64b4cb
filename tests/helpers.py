"""Independent oracles shared by the test modules.

Everything here recomputes results by a route deliberately different from
the library's own: exhaustive enumeration, brute-force grid search, textbook
formulas, or quadrature. Keep it that way; these functions must never call
back into the implementation paths they are checking.
"""

import bisect
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


# Frozen copy of the sequential and exact loops that refit the whole prefix
# twice per step: the merged-knot prefix grows by one observation at a time,
# and each out-of-sample value pools every knot again, once with an
# artificial failure and once with an artificial success at the new point.
# The block-local step is checked against it bit for bit.


def _stack_blocks(w, s):
    """Pooled blocks (count, outcome sum, knots) of Python-int lists w, s by
    the stack algorithm, with equal adjacent means pooled."""
    bw, bs, bk = [], [], []
    for cw, cs in zip(w, s):
        ck = 1
        while bw and bs[-1] * cw >= cs * bw[-1]:
            cw += bw.pop()
            cs += bs.pop()
            ck += bk.pop()
        bw.append(cw)
        bs.append(cs)
        bk.append(ck)
    return bw, bs, bk


def _refit_value_at(w, s, j):
    for cw, cs, ck in zip(*_stack_blocks(w, s)):
        if j < ck:
            return cs / cw
        j -= ck


def oos_reference(knots, w, s, p_new):
    """Out-of-sample value at p_new of the merged prefix (knots, w, s), by
    two full refits."""
    j = bisect.bisect_left(knots, p_new)
    if j < len(knots) and knots[j] == p_new:
        w2 = w[:]
        w2[j] += 1
        s0 = s[:]
    else:
        w2 = w[:j] + [1] + w[j:]
        s0 = s[:j] + [0] + s[j:]
    g0 = _refit_value_at(w2, s0, j)
    s0[j] += 1
    g1 = _refit_value_at(w2, s0, j)
    return g1 / (g1 + 1.0 - g0)


def _insert_reference(knots, w, s, p, y):
    j = bisect.bisect_left(knots, p)
    if j < len(knots) and knots[j] == p:
        w, s = w[:], s[:]
        w[j] += 1
        s[j] += y
        return knots, w, s
    return knots[:j] + [p] + knots[j:], w[:j] + [1] + w[j:], s[:j] + [y] + s[j:]


def _log_eq_reference(p, y, q):
    if (q if y == 1 else 1.0 - q) == 0.0:
        return -math.inf
    if y == 1:
        return math.log(q) - math.log(p)
    return math.log1p(-q) - math.log1p(-p)


def sequential_reference(p, y):
    """Final log e-value and e-process path of the sequential test."""
    state = ([], [], [])
    log_e = 0.0
    path = []
    for pi, yi in zip(p, y):
        pi, yi = float(pi), int(yi)
        log_e += _log_eq_reference(pi, yi, oos_reference(*state, pi))
        path.append(math.inf if log_e > 709.0 else math.exp(log_e))
        state = _insert_reference(*state, pi, yi)
    return log_e, path


def exact_reference(p, y):
    """Log e-value of the exact test: the recursion over prefix sets, each
    set's state grown from the set without its lowest member."""
    p = [float(v) for v in p]
    y = [int(v) for v in y]
    n = len(p)
    full = (1 << n) - 1
    states = [([], [], [])]
    log_f = np.full(full + 1, -math.inf)
    log_f[0] = 0.0
    for mask in range(full):
        if mask:
            j0 = (mask & -mask).bit_length() - 1
            states.append(_insert_reference(*states[mask & (mask - 1)], p[j0], y[j0]))
        for j in range(n):
            if not mask >> j & 1:
                q = oos_reference(*states[mask], p[j])
                term = log_f[mask] + _log_eq_reference(p[j], y[j], q)
                grown = mask | 1 << j
                log_f[grown] = np.logaddexp(log_f[grown], term)
    return float(log_f[full]) - math.log(math.factorial(n))


def step_cases(p, y):
    """The cases the out-of-sample steps of the sequential test meet, found
    by full refits: 'tie' when the new point ties a prefix knot, 'wide' when
    the prefix block holding it (the last block whose first knot is at most
    the point, block 0 below every knot) has more than 32 knots, and 'left'
    and 'right' when the augmented block at the new point reaches past that
    block's first or last knot. The holding block's knots below the point
    are its left side and those above it its right side: 'no left side'
    when the point is at or below the block's first knot, 'no right side'
    when it is past the block's last knot, and 'wide left side' and 'wide
    right side' when a side has more than 32 knots."""
    cases = set()
    knots, w, s = [], [], []
    for pi, yi in zip(p, y):
        pi, yi = float(pi), int(yi)
        if knots:
            starts = list(itertools.accumulate([0] + _stack_blocks(w, s)[2]))
            h = max(bisect.bisect_right([knots[a] for a in starts[:-1]], pi) - 1, 0)
            j = bisect.bisect_left(knots, pi)
            tie = j < len(knots) and knots[j] == pi
            first, last = starts[h], starts[h + 1] - tie
            if tie:
                cases.add("tie")
            if starts[h + 1] - starts[h] > 32:
                cases.add("wide")
            if pi <= knots[starts[h]]:
                cases.add("no left side")
            if pi > knots[starts[h + 1] - 1]:
                cases.add("no right side")
            if bisect.bisect_left(knots, pi, starts[h], starts[h + 1]) - starts[h] > 32:
                cases.add("wide left side")
            if starts[h + 1] - bisect.bisect_right(knots, pi, starts[h], starts[h + 1]) > 32:
                cases.add("wide right side")
            for label in (0, 1):
                aug = _insert_reference(knots, w, s, pi, label)
                lo = 0
                for size in _stack_blocks(aug[1], aug[2])[2]:
                    if j < lo + size:
                        break
                    lo += size
                if lo < first:
                    cases.add("left")
                if lo + size - 1 > last:
                    cases.add("right")
        knots, w, s = _insert_reference(knots, w, s, pi, yi)
    return cases


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
    # a leading UTF-8 byte-order mark is not part of the first column's name
    if header and header[0].startswith("\ufeff"):
        header = reader.fieldnames = [header[0][1:], *header[1:]]
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


def dump_rows_reference(samples):
    """Frozen copy of the CSV writer that formatted one row at a time, with
    numpy scalar indexing: the text dump_samples writes."""
    columns = ["p", "y"]
    x = getattr(samples, "x", None)
    pi_bar = getattr(samples, "pi_bar", None)
    if x is not None:
        columns.append("x")
    if pi_bar is not None:
        columns.append("pi_bar")
    lines = [",".join(columns) + "\n"]
    for i in range(len(samples)):
        cells = [repr(float(samples.p[i])), str(int(samples.y[i]))]
        if x is not None:
            cells.append(repr(float(x[i])))
        if pi_bar is not None:
            cells.append(repr(float(pi_bar[i])))
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


# Frozen copy of the split replicate as it ran one replicate at a time: both
# halves of the permutation sorted, the estimation part merged into knots,
# pooled by the stack algorithm and smoothed, and the holdout interpolated
# and summed in index order. The batched split engine is checked against it
# bit for bit.


def split_reference(p, y, s, key, B, oracle_terms=None):
    """(fitted, oracle) per split b in range(B), split b drawn from
    default_rng([*key, b]); oracle is None without oracle_terms."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    n = p.size
    k = int(math.floor(n * s + 1e-9))
    order = np.argsort(p, kind="stable")
    ps = p[order]
    ys = y[order]
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    logp = np.log(p)
    log1mp = np.log1p(-p)
    out = []
    for b in range(B):
        perm = np.random.default_rng([*key, b]).permutation(n)
        train, hold = np.sort(perm[:k]), np.sort(perm[k:])
        oracle = None if oracle_terms is None else float(np.sum(oracle_terms[hold]))
        mask = np.zeros(n, dtype=bool)
        mask[pos[train]] = True
        pt, yt = ps[mask], ys[mask]
        new = np.empty(k, dtype=bool)
        new[0] = True
        np.not_equal(pt[1:], pt[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        knots = pt[starts]
        w = np.diff(np.append(starts, k))
        sums = np.add.reduceat(yt, starts)
        bw, bs, bk = _stack_blocks(w.tolist(), sums.tolist())
        smoothed = np.repeat(np.divide(np.add(0.5, bs), np.add(bw, 1.0)), bk)
        q = np.interp(p[hold], knots, smoothed)
        terms = np.where(
            y[hold] == 1, np.log(q) - logp[hold], np.log1p(-q) - log1mp[hold]
        )
        out.append((float(np.sum(terms)), oracle))
    return out


# Frozen copy of the bag loop as it ran before bags became multiplicities
# over one sorted order: each bag copied its draw out of the sample, and
# sorted, pooled and smoothed it with pava_fit and laplace_smooth, keeping
# every knot; apply summed the bags' np.interp values at every point. The
# counted fits, which keep two knots per pooled block, are checked against
# it bit for bit. pava_fit and laplace_smooth are not on that path.


def bagged_reference(recal, n_bags, seed, points, grid_size=1001, band=(0.01, 0.99)):
    """(grid, mean, q_low, q_high, applied, fits) of the curve of n_bags
    bags, bag b drawn from default_rng([seed, b]); n_bags 0 is the single
    fit on the whole sample. fits are the pava_fit results of the bags."""
    from ehl.isotonic import laplace_smooth, pava_fit

    n = len(recal)
    if n_bags == 0:
        fits = [pava_fit(recal)]
    else:
        fits = [
            pava_fit(recal.take(np.random.default_rng([seed, b]).integers(0, n, size=n)))
            for b in range(n_bags)
        ]
    smoothed = [laplace_smooth(fit) for fit in fits]
    grid = np.linspace(0.0, 1.0, grid_size)
    values = np.empty((len(fits), grid_size))
    for i, fit in enumerate(smoothed):
        values[i] = np.interp(grid, fit.knots, fit.values)
    mean = values.mean(axis=0)
    if len(fits) == 1:
        q_low = q_high = mean
    else:
        q_low = np.quantile(values, band[0], axis=0)
        q_high = np.quantile(values, band[1], axis=0)
    points = np.asarray(points, dtype=float)
    total = np.zeros(points.shape)
    for fit in smoothed:
        total += np.interp(points, fit.knots, fit.values)
    return grid, mean, q_low, q_high, total / len(fits), fits
