"""Seeded inputs and CLI request lists for the four benchmark workloads.

Inputs come from numpy's PCG64 generator alone, never from ``ehl``, so they
stay the same when the code under test changes. Every workload is a fixed
cycle of request shapes; the benchmark repeats whole cycles, so the mix of
shapes in a run does not depend on how many cycles fit into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("analyst", "sweep", "power", "sequential")


@dataclass(frozen=True)
class Sample:
    """A CSV input file and the arrays written into it."""

    path: str
    p: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class Request:
    """One CLI invocation; ``label`` names its shape and repeats every cycle."""

    label: str
    kind: str
    argv: tuple[str, ...]
    inputs: tuple[Sample, ...]
    output: str
    ehl_seed: int | None = None


@dataclass(frozen=True)
class Shape:
    label: str
    kind: str
    args: tuple[str, ...]
    inputs: tuple[Sample, ...]
    seeded: bool


class Workload:
    """The request cycle of one workload built from one benchmark seed.

    ``tail_pct`` is the latency percentile reported as the tail. It is fixed
    per workload, so it means the same on every commit; it sits inside one
    group of similar request shapes, and a run lasts at least ``min_cycles``
    so that ten or more requests lie beyond it. ``warmup`` is a small request
    of the workload's kind, so that set-up time is not mostly compute.
    """

    def __init__(self, name: str, seed: int, shapes: list[Shape], tail_pct: float, warmup: Shape):
        self.name = name
        self.seed = seed
        self.shapes = shapes
        self.tail_pct = tail_pct
        self.warmup_shape = warmup
        self.min_cycles = math.ceil(10.0 / (1.0 - tail_pct / 100.0) / len(shapes))

    def requests(self, cycle: int, outdir: Path) -> list[Request]:
        return [self._request(shape, cycle, outdir / f"c{cycle}_{i}.out") for i, shape in enumerate(self.shapes)]

    def warmup(self, outdir: Path) -> Request:
        return self._request(self.warmup_shape, 0, outdir / "warmup.out")

    def _request(self, shape: Shape, cycle: int, out: Path) -> Request:
        argv = [*_COMMAND[shape.kind], *shape.args]
        ehl_seed = None
        if shape.seeded:
            # a fresh split/bag/replication seed each cycle, so a cache of
            # earlier answers cannot stand in for the computation
            ehl_seed = (self.seed * 1009 + cycle) % 2**31
            argv += ["--seed", str(ehl_seed)]
        argv += ["--output", str(out)]
        return Request(shape.label, shape.kind, tuple(argv), shape.inputs, str(out), ehl_seed)


_COMMAND = {
    "split": ("ehl-test", "--variant", "split", "--threads", "1"),
    "sequential": ("ehl-test", "--variant", "sequential"),
    "exact": ("ehl-test", "--variant", "exact"),
    "recalibrate": ("recalibrate",),
    "sweep": ("hl-sweep",),
    "hl-test": ("hl-test",),
    "simulate": ("simulate",),
}


class _Inputs:
    """Writes seeded forecast samples as CSV files into one directory."""

    def __init__(self, seed: int, workload: str, directory: Path):
        index = WORKLOADS.index(workload)
        self.rng = np.random.Generator(np.random.PCG64([seed, index]))
        self.directory = directory
        self.count = 0

    def sample(self, n: int, rounded: bool) -> Sample:
        rng = self.rng
        p = rng.uniform(0.02, 0.98, size=n)
        if rounded:
            # two-decimal forecasts: at most 97 distinct values, many ties
            p = np.round(p, 2)
        # mild miscalibration: the truth is steeper than the forecast
        logit = np.log(p) - np.log1p(-p)
        truth = 1.0 / (1.0 + np.exp(-1.2 * logit))
        y = (rng.random(n) < truth).astype(np.int64)
        path = self.directory / f"in{self.count}_{n}{'r' if rounded else 'c'}.csv"
        self.count += 1
        # written row by row so that input generation does not set the
        # process's peak memory, which the benchmark reports
        with open(path, "w", newline="") as fh:
            fh.write("p,y\n")
            for a, b in zip(p, y):
                fh.write(f"{repr(float(a))},{int(b)}\n")
        return Sample(str(path), p, y)


def build(name: str, seed: int, directory: Path) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    directory.mkdir(parents=True, exist_ok=True)
    inputs = _Inputs(seed, name, directory)
    return _BUILDERS[name](seed, inputs)


def _analyst(seed: int, inp: _Inputs) -> Workload:
    shapes = []
    # B shrinks as n grows so that no single request dominates the cycle
    for n, B in ((128, 1000), (2048, 300), (32768, 10)):
        for rounded in (False, True):
            s = inp.sample(n, rounded)
            tag = "r" if rounded else "c"
            shapes.append(Shape(f"split_n{n}{tag}", "split", ("--input", s.path, "--splits", str(B)), (s,), True))
    for n, bags in ((2000, 50), (20000, 10)):
        for rounded in (False, True):
            recal = inp.sample(n, rounded)
            ev = inp.sample(n, rounded)
            tag = "r" if rounded else "c"
            args = ("--recal", recal.path, "--eval", ev.path, "--bags", str(bags))
            shapes.append(Shape(f"recal_n{n}{tag}", "recalibrate", args, (recal, ev), True))
    # an unbagged fit; an odd shape count puts the median inside one shape
    args = ("--recal", recal.path, "--eval", ev.path, "--bags", "0")
    shapes.append(Shape("recal_n20000r_single", "recalibrate", args, (recal, ev), False))
    warmup = Shape("warmup", "split", ("--input", shapes[0].inputs[0].path, "--splits", "20"), shapes[0].inputs, True)
    return Workload("analyst", seed, shapes, 85.0, warmup)


def _sweep(seed: int, inp: _Inputs) -> Workload:
    shapes = []
    for n, rounded, fmt in ((10000, False, "csv"), (10000, True, "json"), (50000, False, "json"),
                            (50000, True, "csv"), (200000, True, "csv")):
        s = inp.sample(n, rounded)
        tag = "r" if rounded else "c"
        shapes.append(Shape(f"sweep_n{n}{tag}_{fmt}", "sweep", ("--input", s.path, "--format", fmt), (s,), False))
    # ten quick hl-tests put the median in the middle of their latencies
    for rounded in (False, True):
        s = inp.sample(20000, rounded)
        tag = "r" if rounded else "c"
        for method in ("E", "QL", "QR", "Qplus", "Qminus"):
            args = ("--input", s.path, "--binning", method, "--bins", "10")
            shapes.append(Shape(f"hltest_{method}_n20000{tag}", "hl-test", args, (s,), False))
    return Workload("sweep", seed, shapes, 85.0, shapes[5])


def _power(seed: int, inp: _Inputs) -> Workload:
    shapes = []
    # reps are even so that both worker threads get equal chunks, and chosen
    # so that all four requests take about as long
    for j in ("0", "0.1"):
        for n, reps in ((256, 10), (1024, 4)):
            args = ("--threads", "2", "--variants", "ehl,hl,oracle", "--j", j, "--n", str(n),
                    "--splits", "10", "--reps", str(reps), "--format", "json")
            shapes.append(Shape(f"sim_j{j}_n{n}", "simulate", args, (), True))
    args = ("--threads", "2", "--variants", "ehl,hl,oracle", "--n", "256", "--splits", "10", "--reps", "2")
    return Workload("power", seed, shapes, 90.0, Shape("warmup", "simulate", args, (), True))


def _sequential(seed: int, inp: _Inputs) -> Workload:
    shapes = []
    for n in (200, 400, 800):
        for rounded in (False, True):
            s = inp.sample(n, rounded)
            tag = "r" if rounded else "c"
            shapes.append(Shape(f"seq_n{n}{tag}", "sequential", ("--input", s.path), (s,), False))
    for n in (6, 7, 8):
        s = inp.sample(n, False)
        shapes.append(Shape(f"exact_n{n}", "exact", ("--input", s.path), (s,), False))
    return Workload("sequential", seed, shapes, 83.0, shapes[-3])


_BUILDERS = {"analyst": _analyst, "sweep": _sweep, "power": _power, "sequential": _sequential}
