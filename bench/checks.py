"""Output checks for benchmark requests, run outside the timed region.

``full`` checks recompute a request's answer another way: by replaying split
replicates through the public isotonic functions, by independent binning and
``scipy.stats.chi2``, by prefix-wise ``oos_predict``, by enumerating
permutations. ``light`` checks test cheap invariants and run on every
request. ``digest`` reduces an output to the values compared against the
reference file stored with the benchmark.

Tolerances: a replayed split replicate must match bit for bit; recomputed
chi-square statistics agree to 1e-9 and p-values to 1e-7 relative; sums the
library may reorder (log-sum-exp, permutation averages, sequential paths)
agree to 1e-12 relative; reference values agree to REFERENCE_RTOL.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
REPLAY_SPLITS = 5
SEQUENTIAL_REPLAY_MAX_N = 200
EXACT_CHECK_MAX_N = 6
RECAL_CHECK_MAX_N = 2000
SWEEP_CELLS_CHECKED = 4


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if a is None or b is None:
        return a is b
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def _is_exp(e: float, log_e: float) -> bool:
    """e is exp(log_e), or +inf where exp(log_e) is near or past overflow."""
    if e == math.inf:
        return log_e > 709.0
    return log_e < 709.78 and _close(e, math.exp(log_e), 1e-12)


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    if math.isinf(m):
        return m
    return m + math.log(float(np.sum(np.exp(values - m))))


def _log_eq(p: np.ndarray, y: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.where(y == 1, np.log(q) - np.log(p), np.log1p(-q) - np.log1p(-p))


def read_output(req) -> str:
    return Path(req.output).read_text()


def _args(req) -> dict:
    argv = req.argv
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


# ---------------------------------------------------------------- light checks

def light(req, text: str) -> list[str]:
    kind = req.kind
    if kind in ("split", "sequential", "exact"):
        rep = json.loads(text)["report"]
        problems = []
        if not _is_exp(rep["e_value"], rep["log_e"]):
            problems.append("e_value is not exp(log_e)")
        if kind == "split":
            per = np.array(rep["per_split_log_e"])
            B = int(_args(req)["--splits"])
            if per.size != B or rep["B"] != B:
                problems.append(f"expected {B} splits, got {per.size}")
            elif not _close(rep["log_e"], _logsumexp(per) - math.log(B), 1e-12, 1e-12):
                problems.append("log_e differs from logsumexp(per_split_log_e) - log B")
        if kind == "sequential":
            if len(rep["path"]) != req.inputs[0].p.size or not _close(rep["path"][-1], rep["e_value"], 1e-12):
                problems.append("path length or last value is wrong")
        return problems
    if kind == "simulate":
        payload = json.loads(text)
        reps = payload["config"]["reps"]
        bad = [c for c in payload["cells"] if c["rep_count"] + c["failures"] != reps]
        problems = [f"{len(bad)} cells with rep_count + failures != reps"] if bad else []
        if len(payload["cells"]) != 7:
            problems.append(f"expected 7 cells, got {len(payload['cells'])}")
        return problems
    if kind == "recalibrate":
        return _check_recalibrated(req, text)
    if kind == "sweep":
        cells = _sweep_cells(req, text)
        return [] if len(cells) == 80 else [f"expected 80 sweep cells, got {len(cells)}"]
    if kind == "hl-test":
        rep = json.loads(text)["report"]
        return [] if rep["g_realized"] == len(rep["table"]) else ["table length differs from g_realized"]
    raise ValueError(kind)


def _check_recalibrated(req, text: str) -> list[str]:
    rows = text.splitlines()
    ev = req.inputs[1]
    if rows[0] != "p,y" or len(rows) != ev.p.size + 1:
        return ["recalibrated CSV has the wrong header or row count"]
    mapped = np.array([float(r.split(",")[0]) for r in rows[1:]])
    ys = np.array([int(r.split(",")[1]) for r in rows[1:]])
    problems = []
    if not np.array_equal(ys, ev.y):
        problems.append("outcomes changed")
    # Laplace smoothing can reorder adjacent blocks, so the map need not be
    # monotone; its values must stay strictly inside (0, 1)
    if not np.all((mapped > 0.0) & (mapped < 1.0)):
        problems.append("recalibrated forecast outside (0, 1)")
    return problems


def _sweep_cells(req, text: str) -> dict:
    """(method, g) -> dict with p_value and, for json, statistic/dof/g_realized."""
    if _args(req).get("--format") == "json":
        cells = json.loads(text)["sweep"]["cells"]
        return {(c["method"], c["g"]): c for c in cells}
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    methods = lines[0].split(",")[1:]
    out = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        for m, v in zip(methods, parts[1:]):
            out[(m, int(parts[0]))] = {"p_value": float(v) if v else None}
    return out


# ---------------------------------------------------------------- full checks

def full(req, text: str, ehl) -> list[str]:
    """Independent recomputation; ``ehl`` is the imported package."""
    problems = light(req, text)
    if problems:
        return problems
    kind = req.kind
    if kind == "split":
        return replay_split(req, json.loads(text)["report"], ehl)
    if kind == "sequential" and req.inputs[0].p.size <= SEQUENTIAL_REPLAY_MAX_N:
        return replay_sequential(req, json.loads(text)["report"], ehl)
    if kind == "exact" and req.inputs[0].p.size <= EXACT_CHECK_MAX_N:
        return _check_exact(req, json.loads(text)["report"], ehl)
    if kind == "recalibrate" and req.inputs[0].p.size <= RECAL_CHECK_MAX_N:
        return _check_bagged(req, text, ehl)
    if kind == "sweep":
        return _check_sweep(req, text)
    if kind == "hl-test":
        return _check_hl_test(req, text)
    return []


def replay_split(req, rep: dict, ehl) -> list[str]:
    """Replay the first replicates through the public functions; each
    ``per_split_log_e[b]`` must match bit for bit. Names are looked up at
    call time so a traced replay goes through the wrappers."""
    sample = req.inputs[0]
    samples = ehl.data.SampleSet(sample.p, sample.y)
    n = sample.p.size
    s = rep["s"]
    mismatches = 0
    count = min(REPLAY_SPLITS, rep["B"])
    for b in range(count):
        rng = np.random.default_rng([req.ehl_seed, b])
        train, hold = ehl.data.split_indices(n, s, rng)
        fit = ehl.isotonic.laplace_smooth(ehl.isotonic.pava_fit(samples.take(train)))
        q = ehl.isotonic.interpolate(fit, sample.p[hold])
        value = float(np.sum(_log_eq(sample.p[hold], sample.y[hold], q)))
        mismatches += value != rep["per_split_log_e"][b]
    return [f"{mismatches} of {count} replayed splits differ"] if mismatches else []


def replay_sequential(req, rep: dict, ehl) -> list[str]:
    """Re-derive the e-process path with ``oos_predict`` on every prefix."""
    p, y = req.inputs[0].p, req.inputs[0].y
    log_e = 0.0
    bad = 0
    for i in range(p.size):
        q = ehl.isotonic.oos_predict(p[:i], y[:i], float(p[i]))
        log_e += math.log(q) - math.log(p[i]) if y[i] == 1 else math.log1p(-q) - math.log1p(-p[i])
        bad += not _is_exp(rep["path"][i], log_e)
    return [f"{bad} path entries differ from prefix oos_predict"] if bad else []


def _check_exact(req, rep: dict, ehl) -> list[str]:
    p, y = req.inputs[0].p, req.inputs[0].y
    logs = []
    for perm in itertools.permutations(range(p.size)):
        idx = np.array(perm)
        logs.append(ehl.evalue.sequential_evalue(ehl.data.SampleSet(p[idx], y[idx])).log_e)
    want = _logsumexp(np.array(logs)) - math.log(len(logs))
    return [] if _close(rep["log_e"], want, 1e-12, 1e-12) else ["exact e-value differs from permutation average"]


def _check_bagged(req, text: str, ehl) -> list[str]:
    recal, ev = req.inputs
    n = recal.p.size
    bags = int(_args(req)["--bags"])
    total = np.zeros(ev.p.size)
    for b in range(bags):
        idx = np.random.default_rng([req.ehl_seed, b]).integers(0, n, size=n)
        fit = ehl.isotonic.laplace_smooth(ehl.isotonic.pava_fit(ehl.data.SampleSet(recal.p[idx], recal.y[idx])))
        total += ehl.isotonic.interpolate(fit, ev.p)
    want = total / bags
    mapped = np.array([float(r.split(",")[0]) for r in text.splitlines()[1:]])
    return [] if np.allclose(mapped, want, rtol=1e-12, atol=0.0) else ["bagged map differs from replayed bags"]


def _bin_ids(p: np.ndarray, y: np.ndarray, method: str, g: int) -> np.ndarray:
    """Bin index per observation, from the documented binning rules."""
    n = p.size
    if method in ("Qplus", "Qminus"):
        key = y if method == "Qplus" else -y
        order = np.lexsort((np.arange(n), key, p))
        sizes = np.full(g, n // g)
        r = n % g
        for t in range(1, r + 1):
            sizes[math.ceil((2 * t - 1) * g / (2 * r)) - 1] += 1
        ids = np.empty(n, dtype=np.int64)
        ids[order] = np.repeat(np.arange(g), sizes)
        return ids
    if method == "E":
        edges, side = np.linspace(p.min(), p.max(), g + 1), "left"
    else:
        cuts = np.quantile(p, np.arange(1, g) / g)
        edges = np.unique(np.concatenate(([0.0], cuts, [1.0])))
        side = "left" if method == "QL" else "right"
    return np.clip(np.searchsorted(edges, p, side=side) - 1, 0, edges.size - 2)


def hl_cell(p: np.ndarray, y: np.ndarray, method: str, g: int, in_sample: bool):
    from scipy.stats import chi2

    ids = _bin_ids(p, y, method, g)
    count = np.bincount(ids)
    keep = count > 0
    o1 = np.bincount(ids, weights=y)[keep]
    e1 = np.bincount(ids, weights=p)[keep]
    count = count[keep]
    o0, e0 = count - o1, count - e1
    stat = float(np.sum((o1 - e1) ** 2 / e1) + np.sum((o0 - e0) ** 2 / e0))
    g_realized = int(keep.sum())
    dof = g_realized - 2 if in_sample else g_realized
    return stat, dof, g_realized, float(chi2.sf(stat, dof))


def _check_sweep(req, text: str) -> list[str]:
    sample = req.inputs[0]
    cells = _sweep_cells(req, text)
    in_sample = _args(req).get("--dof") == "g-2"
    # which cells to recompute follows from the input, not from the run
    rng = np.random.Generator(np.random.PCG64(sample.p.size))
    keys = sorted(cells)
    problems = []
    for i in rng.choice(len(keys), size=SWEEP_CELLS_CHECKED, replace=False):
        method, g = keys[i]
        stat, dof, g_realized, pv = hl_cell(sample.p, sample.y, method, g, in_sample)
        cell = cells[(method, g)]
        if not _close(cell["p_value"], pv, 1e-7, 1e-300):
            problems.append(f"sweep cell {method} g={g}: p {cell['p_value']} != {pv}")
        if "statistic" in cell and (not _close(cell["statistic"], stat, 1e-9) or cell["dof"] != dof
                                    or cell["g_realized"] != g_realized):
            problems.append(f"sweep cell {method} g={g}: statistic or dof differs")
    return problems


def _check_hl_test(req, text: str) -> list[str]:
    sample = req.inputs[0]
    args = _args(req)
    rep = json.loads(text)["report"]
    stat, dof, g_realized, pv = hl_cell(sample.p, sample.y, args["--binning"], int(args["--bins"]),
                                        args.get("--dof") == "g-2")
    if not (_close(rep["statistic"], stat, 1e-9) and _close(rep["p_value"], pv, 1e-7, 1e-300)
            and rep["dof"] == dof and rep["g_realized"] == g_realized):
        return [f"hl-test {args['--binning']}: report differs from independent recomputation"]
    return []


# ---------------------------------------------------------------- reference values

def _summary(values) -> list:
    arr = np.asarray(values, dtype=float)
    return [int(arr.size), float(np.sum(arr)), float(arr.min()), float(arr.max()), float(arr[0]), float(arr[-1])]


def digest(req, text: str):
    """The values of a request's report that are compared with the stored
    reference; input paths and other run-specific fields are left out."""
    kind = req.kind
    if kind in ("split", "sequential", "exact"):
        rep = json.loads(text)["report"]
        out = {k: rep[k] for k in ("variant", "log_e", "e_value", "implied_p", "reject_at_20", "B", "s")}
        if rep.get("per_split_log_e") is not None:
            out["per_split_log_e"] = _summary(rep["per_split_log_e"])
        if rep.get("path") is not None:
            out["path"] = _summary(rep["path"])
        return out
    if kind == "hl-test":
        rep = json.loads(text)["report"]
        table = rep["table"]
        return {"statistic": rep["statistic"], "p_value": rep["p_value"], "dof": rep["dof"],
                "g_realized": rep["g_realized"], "e1": [r["e1"] for r in table], "o1": [r["o1"] for r in table]}
    if kind == "sweep":
        cells = _sweep_cells(req, text)
        return {f"{m}:{g}": [c.get("p_value"), c.get("statistic")] for (m, g), c in sorted(cells.items())}
    if kind == "simulate":
        cells = json.loads(text)["cells"]
        keys = ("rep_count", "failures", "rejections", "mean_log_e", "se_log_e")
        return [[c[k] for k in keys] for c in cells]
    if kind == "recalibrate":
        return _summary([float(r.split(",")[0]) for r in text.splitlines()[1:]])
    raise ValueError(kind)


def same(got, want, path: str = "") -> list[str]:
    """Differences between a digest and its stored reference."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [d for k in want for d in same(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [d for i, (a, b) in enumerate(zip(got, want)) for d in same(a, b, f"{path}[{i}]")]
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(want, bool) or not _close(got, want, REFERENCE_RTOL, REFERENCE_ATOL):
            return [f"{path}: {got!r} != {want!r}"]
        return []
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]
