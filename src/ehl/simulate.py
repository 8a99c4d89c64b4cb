"""Monte Carlo power study on a quadratic-logistic data generating process.

Covariates are uniform on (-3, 3) and the true conditional probability is

    pi(x) = expit(beta0 + beta1 x + beta2 x^2)

with the betas solved from three anchor conditions: pi(-3) = j + 0.00733745,
pi(-1.5) = 0.05, and pi(3) = 0.95. The parameter j >= 0 controls how far the
process sits from any linear-logistic model; at j = 0 the curvature
coefficient vanishes (up to rounding of the anchor constant) and a linear
logit is correctly specified.

Each replication draws 2n points, fits a linear-logistic model on the first
n by maximum likelihood (at j = 0 the true intercept and slope are used
instead), predicts on the remaining n, and applies the configured
calibration tests to those predictions. The oracle e-value variant keeps the
split structure of the feasible test but evaluates likelihood ratios against
the true pi(x) instead of an estimated curve, which bounds what any
estimation scheme could achieve.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from ._version import __version__
from .data import SampleSet, _train_size
from .errors import FitError, InputError, check_choice, check_fraction, check_int, check_positive
from .evalue import _log_eq_terms, _require_interior, _split_log_e
from .hl import MAX_BINS, METHODS, hl_test
from .numeric import (
    _replicates,
    exp_clamped,
    expit_array,
    logit,
    logsumexp,
    solve_linear_3x3,
)

ANCHOR_OFFSET = 0.00733745
ANCHOR_X = (-3.0, -1.5, 3.0)
VARIANTS = ("ehl", "hl", "oracle")


@dataclass(frozen=True)
class QuadraticModel:
    """Quadratic-logistic conditional probability curve."""

    j: float
    beta0: float
    beta1: float
    beta2: float

    def pi_bar(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return expit_array(self.beta0 + self.beta1 * x + self.beta2 * x * x)


def solve_quadratic_betas(j: float) -> QuadraticModel:
    """Solve the three anchor conditions for (beta0, beta1, beta2).

    At j = 0 the solution is linear up to the rounding of the anchor
    constant (|beta2| around 1e-7).
    """
    targets = (j + ANCHOR_OFFSET, 0.05, 0.95)
    for t in targets:
        if not 0.0 < t < 1.0:
            raise InputError(f"anchor probability {t} outside (0, 1); j={j} is infeasible")
    a = np.array([[1.0, x, x * x] for x in ANCHOR_X])
    rhs = np.array([logit(t) for t in targets])
    b = solve_linear_3x3(a, rhs)
    return QuadraticModel(float(j), float(b[0]), float(b[1]), float(b[2]))


def generate_data(n: int, model: QuadraticModel, rng: np.random.Generator) -> SampleSet:
    """Draw n observations from the model.

    The forecast column is initialized to pi_bar so the sample is valid on
    its own; study code replaces it with model predictions before testing.
    """
    check_int("n", n, 1)
    x = rng.uniform(-3.0, 3.0, size=n)
    pi = model.pi_bar(x)
    y = (rng.random(n) < pi).astype(np.int64)
    return SampleSet(pi, y, x, pi)


def fit_logistic_linear(samples: SampleSet, max_iter: int = 100, tol: float = 1e-8) -> tuple[float, float]:
    """Maximum-likelihood intercept and slope of a linear-logistic model.

    Newton iteration from (0, 0) until the gradient's max-norm drops below
    tol. Raises FitError on separation (non-convergence), a singular
    information matrix, or a single-class outcome vector.
    """
    if samples.x is None:
        raise InputError("logistic fit requires covariates x")
    x = samples.x
    y = samples.y.astype(float)
    if np.all(y == y[0]):
        raise FitError("logistic fit requires both outcome classes")
    # a constant covariate leaves the slope unidentified, and a balanced
    # outcome would let the start point pass as a stationary fit
    if np.all(x == x[0]):
        raise FitError("covariate x is constant; the slope is not identified")
    b0 = 0.0
    b1 = 0.0
    for _ in range(max_iter):
        mu = expit_array(b0 + b1 * x)
        resid = y - mu
        g0 = float(np.sum(resid))
        g1 = float(np.sum(resid * x))
        if max(abs(g0), abs(g1)) < tol:
            return b0, b1
        w = mu * (1.0 - mu)
        h00 = float(np.sum(w))
        h01 = float(np.sum(w * x))
        h11 = float(np.sum(w * x * x))
        det = h00 * h11 - h01 * h01
        if not math.isfinite(det) or abs(det) < 1e-12 * max(h00 * h11, 1e-12):
            raise FitError("singular information matrix in logistic fit")
        b0 += (h11 * g0 - h01 * g1) / det
        b1 += (h00 * g1 - h01 * g0) / det
    raise FitError(f"logistic fit did not converge in {max_iter} iterations")


@dataclass(frozen=True)
class SimulationConfig:
    """Grid and test settings for one power study."""

    j_values: tuple[float, ...]
    n_values: tuple[int, ...]
    s_values: tuple[float, ...] = (1.0 / 3.0, 0.5, 2.0 / 3.0)
    variants: tuple[str, ...] = ("ehl", "hl")
    reps: int = 1000
    B: int = 10
    seed: int = 0
    threshold: float = 20.0
    alpha: float = 0.05
    hl_bins: int = 10
    hl_method: str = "QR"
    estimated_in_sample: bool = False
    threads: int = 1

    def __post_init__(self) -> None:
        if not self.j_values or not self.n_values or not self.s_values:
            raise InputError("j_values, n_values, and s_values must be nonempty")
        for v in self.variants:
            check_choice("variant", v, VARIANTS)
        if not self.variants:
            raise InputError("at least one variant is required")
        for n in self.n_values:
            check_int("n", n, 1)
        for s in self.s_values:
            check_fraction("split fraction", s)
        for name in ("reps", "B", "threads"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0)
        check_positive("threshold", self.threshold)
        check_fraction("alpha", self.alpha)
        check_int("bin count", self.hl_bins, 1, MAX_BINS)
        check_choice("binning method", self.hl_method, METHODS)

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            # threads is not echoed: no output depends on it
            if f.name != "threads":
                value = getattr(self, f.name)
                # JSON has no tuples; the lists compare equal to a parsed result
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class PowerCell:
    """Aggregated results for one (j, n, variant[, s]) combination."""

    j: float
    n: int
    variant: str
    s: float | None
    rep_count: int
    failures: int
    rejections: int
    reject_rate: float
    mean_log_e: float | None
    se_log_e: float | None

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class PowerStudyReport:
    """All cells of a study plus the configuration that produced them."""

    config: SimulationConfig
    cells: tuple[PowerCell, ...] = field(default_factory=tuple)

    def cell(self, j: float, n: int, variant: str, s: float | None = None) -> PowerCell:
        for c in self.cells:
            if c.j == j and c.n == n and c.variant == variant and (s is None or c.s == s):
                return c
        raise KeyError(f"no cell for j={j}, n={n}, variant={variant}, s={s}")

    def to_csv(self) -> str:
        meta = json.dumps(self.config.to_json_dict(), sort_keys=True)
        lines = [
            f"# ehl simulate version={__version__} seed={self.config.seed} config={meta}",
            "j,n,s,variant,rep_count,reject_rate,mean_log_e,failures,se_log_e",
        ]
        for c in self.cells:
            s_txt = "" if c.s is None else repr(c.s)
            mle_txt = "" if c.mean_log_e is None else repr(c.mean_log_e)
            se_txt = "" if c.se_log_e is None else repr(c.se_log_e)
            lines.append(
                f"{c.j!r},{c.n},{s_txt},{c.variant},{c.rep_count},{c.reject_rate!r},"
                f"{mle_txt},{c.failures},{se_txt}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "cells": [c.to_json_dict() for c in self.cells],
        }


def run_power_study(config: SimulationConfig) -> PowerStudyReport:
    """Run the full replication grid.

    Replication r of cell (j index ji, n index ni) derives its data stream
    from (seed, 0, ji, ni, r); split-based tests derive stream (seed, 1, ji,
    ni, r, si, b) for split b, shared between the feasible and oracle
    variants so their comparison is paired. Results are invariant to the
    thread count. Replications whose logistic fit fails are counted and
    excluded from the cell's rates.
    """
    # an infeasible j fails here, before any cell has run, and so do a split
    # and an equal-count bin count that no sample of the size can meet
    models = [solve_quadratic_betas(j) for j in config.j_values]
    if {"ehl", "oracle"} & set(config.variants):
        for n in config.n_values:
            for s in config.s_values:
                _train_size(n, s)
    if "hl" in config.variants and config.hl_method in ("Qplus", "Qminus"):
        n_min = min(config.n_values)
        if config.hl_bins > n_min:
            raise InputError(f"bin count {config.hl_bins} exceeds sample size {n_min}")
    cells: list[PowerCell] = []
    for ji, model in enumerate(models):
        for ni, n in enumerate(config.n_values):
            rep_results = _replicates(
                (config.seed, 0, ji, ni),
                config.reps,
                lambda r0, rngs: [
                    _one_rep(config, model, n, ji, ni, r0 + i, rng)
                    for i, rng in enumerate(rngs)
                ],
                threads=config.threads,
                n=n,
                pool=ThreadPoolExecutor,
            )
            failures = sum(1 for res in rep_results if res is None)
            for variant in config.variants:
                if variant == "hl":
                    cells.append(_aggregate(rep_results, model.j, n, variant, None, failures))
                else:
                    for s in config.s_values:
                        cells.append(_aggregate(rep_results, model.j, n, variant, s, failures))
    return PowerStudyReport(config, tuple(cells))


def _one_rep(
    config: SimulationConfig,
    model: QuadraticModel,
    n: int,
    ji: int,
    ni: int,
    r: int,
    rng: np.random.Generator,
) -> dict | None:
    data = generate_data(2 * n, model, rng)
    estimation = data.take(np.arange(n))
    validation = data.take(np.arange(n, 2 * n))
    if model.j == 0.0:
        b0, b1 = model.beta0, model.beta1
    else:
        try:
            b0, b1 = fit_logistic_linear(estimation)
        except FitError:
            return None
    predicted = validation.with_p(expit_array(b0 + b1 * validation.x))

    out: dict = {}
    if "hl" in config.variants:
        rep = hl_test(
            predicted, config.hl_method, config.hl_bins, config.estimated_in_sample
        )
        out[("hl", None)] = (rep.p_value <= config.alpha, None)
    fit = "ehl" in config.variants
    if not fit and "oracle" not in config.variants:
        return out
    if fit:
        _require_interior(predicted)
    terms = None
    if "oracle" in config.variants:
        terms = _log_eq_terms(predicted.p, predicted.y, predicted.pi_bar)
    for si, s in enumerate(config.s_values):
        # one draw of each split serves both e-values, so they stay paired
        body = _split_log_e(predicted, s, fit, terms)
        replicates = _replicates(
            (config.seed, 1, ji, ni, r, si), config.B, body, n=n, pool=ThreadPoolExecutor
        )
        fitted, oracle = zip(*replicates)
        for variant, values in (("ehl", fitted), ("oracle", oracle)):
            if variant in config.variants:
                log_e = logsumexp(values) - math.log(config.B)
                out[(variant, s)] = (exp_clamped(log_e) > config.threshold, log_e)
    return out


def _aggregate(
    rep_results: list, j: float, n: int, variant: str, s: float | None, failures: int
) -> PowerCell:
    rejections = 0
    logs: list[float] = []
    count = 0
    for res in rep_results:
        if res is None:
            continue
        reject, log_e = res[(variant, s)]
        count += 1
        rejections += int(reject)
        if log_e is not None:
            logs.append(log_e)
    rate = rejections / count if count else float("nan")
    mean_log_e = None
    se_log_e = None
    if logs:
        arr = np.array(logs)
        mean_log_e = float(np.mean(arr))
        if arr.size > 1:
            se_log_e = float(np.std(arr, ddof=1) / math.sqrt(arr.size))
    return PowerCell(
        j=float(j),
        n=int(n),
        variant=variant,
        s=s,
        rep_count=count,
        failures=failures,
        rejections=rejections,
        reject_rate=rate,
        mean_log_e=mean_log_e,
        se_log_e=se_log_e,
    )
