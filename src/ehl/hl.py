"""Chi-square goodness-of-fit test for binary probability forecasts.

The statistic groups observations into bins and compares observed with
expected counts in both outcome classes:

    C = sum_k (o1k - e1k)^2 / e1k + (o0k - e0k)^2 / e0k

where e1k is the sum of forecasts in bin k and e0k its complement. e1k is
numpy's pairwise sum of the bin's forecasts in ascending order, so it does
not depend on the order of the input rows. The p-value uses a chi-square
reference distribution with g degrees of freedom when the forecasts were
produced out of sample, or g - 2 when the model was estimated on the same
data.

Five binning schemes are provided, because the test's conclusion can depend
heavily on which one is used:

* E: g equidistant intervals spanning [min p, max p]; the first interval is
  closed on the left, all are closed on the right.
* QL / QR: cut points at the k/g sample quantiles (k = 1..g-1, the usual
  linearly interpolated sample quantile); duplicate cut points are merged,
  so fewer than g bins can be realized. QL assigns a forecast equal to a cut
  point to the bin on the left, QR to the bin on the right.
* Qplus / Qminus: equal-count bins of sorted forecasts; ties between equal
  forecasts are ordered by outcome, ascending for Qplus and descending for
  Qminus, with the original index as the final tiebreak. When n is not a
  multiple of g, the r = n mod g extra observations go to bins
  ceil((2t - 1) g / (2 r)), t = 1..r.

Every scheme's bins are runs of consecutive forecasts in sorted order, so
a sample is sorted once and each binning reduces to boundary positions in
that order; hl_sweep computes all its cells from one sort and one quantile
call.

Empty bins are dropped, and a bin with zero expected count contributes 0
when its observed count is also 0 and +inf otherwise (with a warning).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .data import SampleSet
from .errors import DegreesOfFreedomError, InputError
from .numeric import chisq_sf

METHODS = ("QL", "QR", "Qplus", "Qminus", "E")
SWEEP_G_VALUES = tuple(range(5, 21))


@dataclass(frozen=True)
class Binning:
    """Assignment of observations to bins.

    bins holds one sorted index array per realized (nonempty) bin, in
    increasing order of forecast value.
    """

    method: str
    g_requested: int
    bins: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        frozen = []
        for b in self.bins:
            arr = np.array(b, dtype=np.int64, copy=True)
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "bins", tuple(frozen))
        if not self.bins:
            raise InputError("binning produced no bins")

    @property
    def g_realized(self) -> int:
        return len(self.bins)


@dataclass(frozen=True)
class HLReport:
    """Statistic, reference distribution, and the per-bin count table."""

    method: str
    g_requested: int
    g_realized: int
    statistic: float
    dof: int
    p_value: float
    estimated_in_sample: bool
    # rows (count, o1, e1, o0, e0) per realized bin
    table: tuple[tuple[float, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "g_requested": self.g_requested,
            "g_realized": self.g_realized,
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "estimated_in_sample": self.estimated_in_sample,
            "table": [
                {"count": r[0], "o1": r[1], "e1": r[2], "o0": r[3], "e0": r[4]}
                for r in self.table
            ],
        }


def _check_g(g: int) -> None:
    if not isinstance(g, (int, np.integer)) or g < 1:
        raise InputError(f"bin count must be a positive integer, got {g!r}")


class _SortedView(NamedTuple):
    """One sample sorted by forecast, shared by every binning of it.

    Every bin of every scheme is a run of consecutive positions in this
    order, so a binning is just its boundary positions.
    """

    order: np.ndarray  # stable argsort of p
    ps: np.ndarray  # p in that order
    ones: np.ndarray  # ones[k]: outcome-1 count among the first k positions


def _sorted_view(samples: SampleSet) -> _SortedView:
    order = np.argsort(samples.p, kind="stable")
    ones = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(samples.y[order], out=ones[1:])
    return _SortedView(order, samples.p[order], ones)


def _quantile_cuts(ps: np.ndarray, g_values: Iterable[int]) -> dict:
    """The k/g sample quantiles, k = 1..g-1, for every g, from one
    np.quantile call; each cut is the value a call for that g alone gives."""
    gs = sorted({g for g in g_values if g >= 1})
    if not gs:
        return {}
    levels = [np.arange(1, g) / g for g in gs]
    flat = np.quantile(ps, np.concatenate(levels))
    return dict(zip(gs, np.split(flat, np.cumsum([lv.size for lv in levels])[:-1])))


def _bounds(view: _SortedView, method: str, g: int, cuts: np.ndarray | None = None) -> np.ndarray:
    """Boundaries of one binning as positions in sorted-forecast order: bin
    k holds positions bounds[k] .. bounds[k + 1] - 1. Empty bins are dropped.

    An interval (a, b] of forecast values ends at the count of ps <= b, an
    interval [a, b) at the count of ps < b; the clip of the outermost bins
    to the data is the 0 and n at the ends.
    """
    if method not in METHODS:
        raise InputError(f"unknown binning method {method!r}; expected one of {METHODS}")
    _check_g(g)
    ps = view.ps
    n = ps.size
    if method in ("Qplus", "Qminus"):
        # unlike the edge-based binnings, equal counts need g nonempty bins
        if g > n:
            raise InputError(f"bin count {g} exceeds sample size {n}")
        sizes = np.full(g, n // g, dtype=np.int64)
        r = n % g
        for t in range(1, r + 1):
            target = -((2 * t - 1) * g // -(2 * r))  # ceil((2t-1) g / (2r))
            sizes[target - 1] += 1
        return np.concatenate(([0], np.cumsum(sizes)))
    if method == "E":
        edges = np.linspace(float(ps[0]), float(ps[-1]), g + 1)
        side = "right"
    else:
        if cuts is None:
            cuts = np.quantile(ps, np.arange(1, g) / g)
        edges = np.unique(np.concatenate(([0.0], cuts, [1.0])))
        side = "right" if method == "QL" else "left"
    inner = np.searchsorted(ps, edges[1:-1], side=side)
    return np.unique(np.concatenate(([0], inner, [n])))


def _tie_groups(view: _SortedView, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end positions of the run of equal forecasts at each position."""
    v = view.ps[positions]
    return np.searchsorted(view.ps, v, side="left"), np.searchsorted(view.ps, v, side="right")


def _ones_at(view: _SortedView, method: str, bounds: np.ndarray) -> np.ndarray:
    """Outcome-1 count before each boundary.

    Qplus orders a tie group's outcome-0 members first, Qminus its outcome-1
    members. A boundary k places into a group of z zeros and u ones, after
    `done` ones in earlier groups, so has done + max(0, k - z) (Qplus) or
    done + min(k, u) (Qminus) ones before it. Only the groups at the
    boundaries are looked at.
    """
    if method not in ("Qplus", "Qminus"):
        return view.ones[bounds]
    inner = bounds[1:-1]
    start, end = _tie_groups(view, inner)
    done = view.ones[start]
    u = view.ones[end] - done
    k = inner - start
    if method == "Qplus":
        got = np.maximum(0, k - (end - start - u))
    else:
        got = np.minimum(k, u)
    return np.concatenate(([0], done + got, view.ones[-1:]))


def _row(count: int, o1, e1) -> tuple[float, ...]:
    o1 = float(o1)
    e1 = float(e1)
    return (float(count), o1, e1, count - o1, count - e1)


def _cell_table(
    view: _SortedView, method: str, g: int, cuts: np.ndarray | None = None
) -> tuple[tuple[float, ...], ...]:
    bounds = _bounds(view, method, g, cuts)
    o1 = np.diff(_ones_at(view, method, bounds)).tolist()
    pairs = zip(bounds[:-1].tolist(), bounds[1:].tolist())
    return tuple(_row(b - a, k, np.sum(view.ps[a:b])) for (a, b), k in zip(pairs, o1))


def make_binning(samples: SampleSet, method: str, g: int) -> Binning:
    """Dispatch on the method tag: E, QL, QR, Qplus, or Qminus."""
    view = _sorted_view(samples)
    bounds = _bounds(view, method, g)
    order = view.order
    if method in ("Qplus", "Qminus"):
        # lay out each tie group a boundary cuts as the binning orders it:
        # outcome first (0 first for Qplus, 1 for Qminus), then index
        order = order.copy()
        first = 0 if method == "Qplus" else 1
        for a, b in zip(*_tie_groups(view, bounds[1:-1])):
            group = view.order[a:b]
            lead = samples.y[group] == first
            order[a:b] = np.concatenate((group[lead], group[~lead]))
    pairs = zip(bounds[:-1].tolist(), bounds[1:].tolist())
    return Binning(method, g, tuple(np.sort(order[a:b]) for a, b in pairs))


def bin_equidistant(samples: SampleSet, g: int) -> Binning:
    """g intervals of equal width spanning [min p, max p]."""
    return make_binning(samples, "E", g)


def bin_quantile(samples: SampleSet, g: int, side: str = "left") -> Binning:
    """Bins cut at the k/g sample quantiles of the forecasts.

    Duplicate cut points collapse, so g_realized can be below g. side
    chooses where a forecast lying exactly on a cut point goes.
    """
    _check_g(g)
    if side not in ("left", "right"):
        raise InputError(f"side must be 'left' or 'right', got {side!r}")
    return make_binning(samples, "QL" if side == "left" else "QR", g)


def bin_equal_count(samples: SampleSet, g: int, tie_order: str = "ascending") -> Binning:
    """Equal-count bins of the sorted forecasts.

    Equal forecasts are ordered by outcome (ascending or descending, then
    original index), which is what distinguishes the two variants; with no
    ties they coincide. The r = n mod g oversized bins sit at positions
    ceil((2t - 1) g / (2 r)) for t = 1..r.
    """
    _check_g(g)
    if tie_order not in ("ascending", "descending"):
        raise InputError(f"tie_order must be 'ascending' or 'descending', got {tie_order!r}")
    return make_binning(samples, "Qplus" if tie_order == "ascending" else "Qminus", g)


def _chi_square(table: Sequence[tuple[float, ...]], stacklevel: int = 3) -> float:
    total = 0.0
    for count, o1, e1, o0, e0 in table:
        for o, e in ((o1, e1), (o0, e0)):
            if e == 0.0:
                if o != 0.0:
                    warnings.warn(
                        "zero expected count with nonzero observed count; "
                        "statistic is +inf and the p-value is 0",
                        RuntimeWarning,
                        stacklevel=stacklevel,
                    )
                    return float("inf")
                continue
            total += (o - e) ** 2 / e
    return total


def hl_statistic(samples: SampleSet, binning: Binning) -> float:
    """The binned chi-square statistic; +inf when a zero expected count
    meets a nonzero observed count."""
    return _chi_square(
        [
            _row(idx.size, np.sum(samples.y[idx]), np.sum(np.sort(samples.p[idx])))
            for idx in binning.bins
        ]
    )


def _dof(g_realized: int, estimated_in_sample: bool) -> int:
    dof = g_realized - 2 if estimated_in_sample else g_realized
    if dof < 1:
        raise DegreesOfFreedomError(
            f"{g_realized} realized bins leave {dof} degrees of freedom"
        )
    return dof


def hl_pvalue(statistic: float, g_realized: int, estimated_in_sample: bool = False) -> float:
    """Chi-square upper tail at the statistic.

    Degrees of freedom are g_realized for out-of-sample forecasts and
    g_realized - 2 when the forecast model was fit on the same data; fewer
    than one degree of freedom is an error.
    """
    return chisq_sf(statistic, _dof(g_realized, estimated_in_sample))


def _report(
    view: _SortedView,
    method: str,
    g: int,
    estimated_in_sample: bool,
    cuts: np.ndarray | None = None,
) -> HLReport:
    table = _cell_table(view, method, g, cuts)
    # the zero-expected-count warning names the caller of hl_test/hl_sweep
    stat = _chi_square(table, stacklevel=4)
    dof = _dof(len(table), estimated_in_sample)
    return HLReport(
        method=method,
        g_requested=g,
        g_realized=len(table),
        statistic=stat,
        dof=dof,
        p_value=chisq_sf(stat, dof),
        estimated_in_sample=estimated_in_sample,
        table=table,
    )


def hl_test(
    samples: SampleSet,
    method: str = "QR",
    g: int = 10,
    estimated_in_sample: bool = False,
) -> HLReport:
    """Bin, compute the statistic, and attach the p-value in one step."""
    return _report(_sorted_view(samples), method, g, estimated_in_sample)


@dataclass(frozen=True)
class SweepResult:
    """One test per (binning method, g) cell.

    Cells that fail (for example, too few realized bins for the degrees of
    freedom) are recorded as error strings rather than aborting the sweep.
    """

    methods: tuple[str, ...]
    g_values: tuple[int, ...]
    reports: dict
    failures: dict

    @property
    def n_cells(self) -> int:
        return len(self.methods) * len(self.g_values)

    @property
    def p_min(self) -> float | None:
        ps = [r.p_value for r in self.reports.values()]
        return min(ps) if ps else None

    @property
    def p_max(self) -> float | None:
        ps = [r.p_value for r in self.reports.values()]
        return max(ps) if ps else None

    def to_csv(self, display: bool = False) -> str:
        def fmt(v: float) -> str:
            return f"{v:.2f}" if display else repr(v)

        lines = ["g," + ",".join(self.methods)]
        for g in self.g_values:
            cells = []
            for m in self.methods:
                rep = self.reports.get((m, g))
                cells.append("" if rep is None else fmt(rep.p_value))
            lines.append(f"{g}," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        cells = []
        for m in self.methods:
            for g in self.g_values:
                if (m, g) in self.reports:
                    r = self.reports[(m, g)]
                    cells.append(
                        {
                            "method": m,
                            "g": g,
                            "g_realized": r.g_realized,
                            "statistic": r.statistic,
                            "dof": r.dof,
                            "p_value": r.p_value,
                        }
                    )
                else:
                    cells.append({"method": m, "g": g, "error": self.failures[(m, g)]})
        return {
            "methods": list(self.methods),
            "g_values": list(self.g_values),
            "cells": cells,
            "p_min": self.p_min,
            "p_max": self.p_max,
        }


def hl_sweep(
    samples: SampleSet,
    g_values: Iterable[int] = SWEEP_G_VALUES,
    methods: Sequence[str] = METHODS,
    estimated_in_sample: bool = False,
) -> SweepResult:
    """Run the test across every (method, g) combination.

    With the defaults that is 5 methods times g = 5..20, 80 cells. Per-cell
    errors are captured so a pathological cell cannot hide the rest.
    """
    g_tuple = tuple(int(g) for g in g_values)
    m_tuple = tuple(methods)
    for m in m_tuple:
        if m not in METHODS:
            raise InputError(f"unknown binning method {m!r}; expected one of {METHODS}")
    view = _sorted_view(samples)
    cuts = _quantile_cuts(view.ps, g_tuple) if {"QL", "QR"} & set(m_tuple) else {}
    reports: dict = {}
    failures: dict = {}
    for m in m_tuple:
        for g in g_tuple:
            try:
                reports[(m, g)] = _report(view, m, g, estimated_in_sample, cuts.get(g))
            except (InputError, DegreesOfFreedomError) as exc:
                failures[(m, g)] = str(exc)
    return SweepResult(m_tuple, g_tuple, reports, failures)
