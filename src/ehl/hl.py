"""Chi-square goodness-of-fit test for binary probability forecasts.

The statistic groups observations into bins and compares observed with
expected counts in both outcome classes:

    C = sum_k (o1k - e1k)^2 / e1k + (o0k - e0k)^2 / e0k

where e1k is the sum of forecasts in bin k and e0k its complement. The
p-value uses a chi-square reference distribution with g degrees of freedom
when the forecasts were produced out of sample, or g - 2 when the model was
estimated on the same data.

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

Empty bins are dropped, and a bin with zero expected count contributes 0
when its observed count is also 0 and +inf otherwise (with a warning).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _bins_from_edges(p: np.ndarray, edges: np.ndarray, side: str) -> tuple[np.ndarray, ...]:
    # side "left": intervals (a, b], value on a cut goes left (searchsorted
    # finds the first edge >= p). side "right": intervals [a, b), value on a
    # cut goes right. Outermost bins are closed at the data boundary either
    # way, which the clip enforces.
    m = edges.size - 1
    idx = np.searchsorted(edges, p, side=side) - 1
    idx = np.clip(idx, 0, m - 1)
    bins = [np.flatnonzero(idx == k) for k in range(m)]
    return tuple(b for b in bins if b.size > 0)


def bin_equidistant(samples: SampleSet, g: int) -> Binning:
    """g intervals of equal width spanning [min p, max p]."""
    p = samples.p
    _check_g(g)
    edges = np.linspace(float(np.min(p)), float(np.max(p)), g + 1)
    return Binning("E", g, _bins_from_edges(p, edges, "left"))


def bin_quantile(samples: SampleSet, g: int, side: str = "left") -> Binning:
    """Bins cut at the k/g sample quantiles of the forecasts.

    Duplicate cut points collapse, so g_realized can be below g. side
    chooses where a forecast lying exactly on a cut point goes.
    """
    p = samples.p
    _check_g(g)
    if side not in ("left", "right"):
        raise InputError(f"side must be 'left' or 'right', got {side!r}")
    levels = np.arange(1, g) / g
    cuts = np.quantile(p, levels)
    edges = np.unique(np.concatenate(([0.0], cuts, [1.0])))
    method = "QL" if side == "left" else "QR"
    return Binning(method, g, _bins_from_edges(p, edges, side))


def bin_equal_count(samples: SampleSet, g: int, tie_order: str = "ascending") -> Binning:
    """Equal-count bins of the sorted forecasts.

    Equal forecasts are ordered by outcome (ascending or descending, then
    original index), which is what distinguishes the two variants; with no
    ties they coincide. The r = n mod g oversized bins sit at positions
    ceil((2t - 1) g / (2 r)) for t = 1..r.
    """
    p = samples.p
    y = samples.y
    n = p.size
    _check_g(g)
    # unlike the edge-based binnings, equal counts need g nonempty bins
    if g > n:
        raise InputError(f"bin count {g} exceeds sample size {n}")
    if tie_order not in ("ascending", "descending"):
        raise InputError(f"tie_order must be 'ascending' or 'descending', got {tie_order!r}")
    y_key = y if tie_order == "ascending" else -y
    order = np.lexsort((np.arange(n), y_key, p))
    base = n // g
    sizes = np.full(g, base, dtype=np.int64)
    r = n % g
    for t in range(1, r + 1):
        target = -((2 * t - 1) * g // -(2 * r))  # ceil((2t-1) g / (2r))
        sizes[target - 1] += 1
    stops = np.cumsum(sizes)
    starts = stops - sizes
    bins = tuple(np.sort(order[a:b]) for a, b in zip(starts, stops))
    method = "Qplus" if tie_order == "ascending" else "Qminus"
    return Binning(method, g, bins)


def make_binning(samples: SampleSet, method: str, g: int) -> Binning:
    """Dispatch on the method tag: E, QL, QR, Qplus, or Qminus."""
    if method == "E":
        return bin_equidistant(samples, g)
    if method in ("QL", "QR"):
        return bin_quantile(samples, g, "left" if method == "QL" else "right")
    if method in ("Qplus", "Qminus"):
        return bin_equal_count(samples, g, "ascending" if method == "Qplus" else "descending")
    raise InputError(f"unknown binning method {method!r}; expected one of {METHODS}")


def _bin_table(samples: SampleSet, binning: Binning) -> list[tuple[float, ...]]:
    rows = []
    for idx in binning.bins:
        count = int(idx.size)
        o1 = float(np.sum(samples.y[idx]))
        e1 = float(np.sum(samples.p[idx]))
        rows.append((float(count), o1, e1, count - o1, count - e1))
    return rows


def _chi_square(table: Sequence[tuple[float, ...]]) -> float:
    total = 0.0
    for count, o1, e1, o0, e0 in table:
        for o, e in ((o1, e1), (o0, e0)):
            if e == 0.0:
                if o != 0.0:
                    warnings.warn(
                        "zero expected count with nonzero observed count; "
                        "statistic is +inf and the p-value is 0",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    return float("inf")
                continue
            total += (o - e) ** 2 / e
    return total


def hl_statistic(samples: SampleSet, binning: Binning) -> float:
    """The binned chi-square statistic; +inf when a zero expected count
    meets a nonzero observed count."""
    return _chi_square(_bin_table(samples, binning))


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


def hl_test(
    samples: SampleSet,
    method: str = "QR",
    g: int = 10,
    estimated_in_sample: bool = False,
) -> HLReport:
    """Bin, compute the statistic, and attach the p-value in one step."""
    binning = make_binning(samples, method, g)
    table = tuple(_bin_table(samples, binning))
    stat = _chi_square(table)
    dof = _dof(binning.g_realized, estimated_in_sample)
    return HLReport(
        method=binning.method,
        g_requested=g,
        g_realized=binning.g_realized,
        statistic=stat,
        dof=dof,
        p_value=chisq_sf(stat, dof),
        estimated_in_sample=estimated_in_sample,
        table=table,
    )


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
    reports: dict = {}
    failures: dict = {}
    for m in m_tuple:
        for g in g_tuple:
            try:
                reports[(m, g)] = hl_test(samples, m, g, estimated_in_sample)
            except (InputError, DegreesOfFreedomError) as exc:
                failures[(m, g)] = str(exc)
    return SweepResult(m_tuple, g_tuple, reports, failures)
