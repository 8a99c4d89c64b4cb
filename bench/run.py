"""End-to-end benchmark of the ehl command-line interface.

One client sends a seeded cycle of CLI requests through ``ehl.cli.main(argv)``
in this process, each after the previous one completes (a closed loop), and
repeats whole cycles until ``--seconds`` have passed (and enough cycles for
the tail percentile). Inputs are written before timing into a scratch
directory inside the checkout; outputs go to files through ``--output``, and
are checked after timing.

    python3 bench/run.py --workload analyst --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --write-reference

Times are normalised to a reference machine speed. On a shared host, other
tenants can change the speed of the same request by 1.6x within minutes; a
fixed probe of interpreter work, independent of ehl, runs after every
request, and each time is scaled by PROBE_REFERENCE_S over the median probe
time around that request. The raw figures are kept in the detail line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced cycles of the same requests and prints the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
# inputs of the reference requests; never a seed the timed runs depend on
GOLDEN_SEED = 20220301
SETUP_PROBES = 5
# probe time of the reference machine; it fixes the unit of the normalised
# times and is never changed, so figures from different commits compare
PROBE_REFERENCE_S = 0.006
# probes around a request that set its speed factor
PROBE_WINDOW = 9


def import_ehl():
    """Import ehl from this checkout's src/ and nowhere else."""
    if not (SRC / "ehl" / "__init__.py").is_file():
        sys.exit(f"error: no ehl package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ehl
    import ehl.cli

    if Path(ehl.__file__).resolve().parent != (SRC / "ehl").resolve():
        sys.exit(f"error: imported ehl from {ehl.__file__}, not from {SRC}")
    return ehl


class Record:
    __slots__ = ("req", "cycle", "latency", "cpu", "rc", "error", "traced", "probe", "scale")

    def __init__(self, req, cycle, latency, cpu, rc, error, traced=False):
        self.req = req
        self.cycle = cycle
        self.latency = latency
        self.cpu = cpu
        self.rc = rc
        self.error = error
        self.traced = traced
        self.probe = None
        self.scale = 1.0


class SpeedProbe:
    """Times a fixed piece of interpreter work that runs none of ehl's code,
    so no change to ehl moves it: parsing a 1500-row CSV with the csv module
    and float(), which allocates like ehl's loader, plus an integer loop,
    which runs like its pure-Python kernels. In a quiet spell of the machine
    the CSV part alone speeds up more than ehl's requests do, the loop less."""

    def __init__(self):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(0))
        rows = zip(rng.random(1500).tolist(), rng.integers(0, 2, 1500).tolist())
        self.text = "p,y\n" + "".join(f"{a!r},{b}\n" for a, b in rows)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        total = sum(float(row["p"]) for row in csv.DictReader(io.StringIO(self.text)))
        acc = 0
        for i in range(30000):
            acc += i * i
        elapsed = time.perf_counter() - t0
        if not (total > 0.0 and acc > 0):
            raise RuntimeError("speed probe computed nothing")
        return elapsed


def set_scales(records) -> float:
    """Give each record the factor that maps its times to the reference
    speed; return the factor of the whole run."""
    probes = [r.probe for r in records]
    half = PROBE_WINDOW // 2
    for i, rec in enumerate(records):
        rec.scale = PROBE_REFERENCE_S / statistics.median(probes[max(0, i - half): i + half + 1])
    return PROBE_REFERENCE_S / statistics.median(probes)


def send(main, req, cycle, traced=False) -> Record:
    sink = io.StringIO()
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(list(req.argv))
    except SystemExit as exc:  # argparse rejects a request this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the loop must survive a crashing request and count it
        rc = -1
        error = traceback.format_exc(limit=3)
    latency = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if rc != 0 and error is None:
        error = sink.getvalue()[-300:]
    return Record(req, cycle, latency, cpu, rc, error, traced)


def measure_setup(warmup, probe) -> tuple[list[float], list[float], list[str]]:
    """Samples of fresh-interpreter set-up time, and speed probes taken
    between them."""
    samples, speed, problems = [], [], []
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *warmup.argv]
    for _ in range(SETUP_PROBES):
        speed += [probe() for _ in range(3)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        try:
            got = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            problems.append(f"setup probe failed: {proc.stderr[-300:]}")
            continue
        if got["rc"] != 0:
            problems.append(f"setup warm-up request exited {got['rc']}")
        samples.append(got["seconds"])
    return samples, speed, problems


def timed_run(main, wl, seconds, outdir):
    probe = SpeedProbe()
    records = []
    cycle = 0
    t0 = time.perf_counter()
    while True:
        for req in wl.requests(cycle, outdir):
            rec = send(main, req, cycle)
            rec.probe = probe()
            records.append(rec)
        cycle += 1
        if cycle >= wl.min_cycles and time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, wall, rss_mib


def traced_run(ehl, wl, seconds, outdir):
    """Alternate an untraced and a traced pass over the same requests."""
    from checks import replay_sequential, replay_split, SEQUENTIAL_REPLAY_MAX_N
    from spans import Tracer

    tracer = Tracer()
    tracer.layers.update(("cli", "bench.replay"))
    probe = SpeedProbe()
    main = ehl.cli.main
    records, replay_problems = [], []
    plain = traced = 0.0
    pair = 0
    t0 = time.perf_counter()
    while True:
        for req in wl.requests(pair, outdir / "plain"):
            rec = send(main, req, pair)
            rec.probe = probe()
            plain += rec.latency
            records.append(rec)
        with tracer.installed():
            for req in wl.requests(pair, outdir / "traced"):
                rid = len(records)
                with tracer.span("cli", request=rid):
                    rec = send(main, req, pair, traced=True)
                traced += rec.latency
                records.append(rec)
                rec.probe = probe()
                if rec.rc != 0:
                    continue
                # the split and sequential loops call private helpers, so
                # their isotonic work is seen by replaying it through the
                # public functions, outside the request's own time
                n = req.inputs[0].p.size if req.inputs else 0
                if req.kind == "split" or (req.kind == "sequential" and n <= SEQUENTIAL_REPLAY_MAX_N):
                    report = json.loads(Path(req.output).read_text())["report"]
                    replay = replay_split if req.kind == "split" else replay_sequential
                    with tracer.span("bench.replay", request=rid):
                        replay_problems += replay(req, report, ehl)
        pair += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return records, tracer, traced / plain - 1.0, replay_problems


def check_records(records, ehl) -> tuple[int, list[str]]:
    """Failed request count and a description of each failure.

    The first output of each request shape gets the full, independent check.
    A later output of the same request (same shape and seed) must repeat the
    first byte for byte; other outputs get the cheap invariant checks.
    """
    from checks import full, light, read_output

    first: dict = {}
    failed = 0
    problems: list[str] = []
    for rec in records:
        req = rec.req
        key = (req.label, req.ehl_seed)
        if rec.rc != 0:
            found = [f"exit {rec.rc}: {rec.error}"]
        else:
            text = read_output(req)
            if key in first:
                found = [] if text == first[key] else ["output differs from an identical earlier request"]
            elif req.label not in {k[0] for k in first}:
                found = full(req, text, ehl)
            else:
                found = light(req, text)
            first.setdefault(key, text)
        if found:
            failed += 1
            problems += [f"{req.label} cycle {rec.cycle}: {p}" for p in found]
    return failed, problems


def golden_requests(ehl, workload, workdir):
    """Run the reference cycle: the workload's requests on fixed-seed inputs."""
    import workloads

    wl = workloads.build(workload, GOLDEN_SEED, workdir / "golden_in")
    outdir = workdir / "golden_out"
    outdir.mkdir(parents=True, exist_ok=True)
    return [send(ehl.cli.main, req, 0) for req in wl.requests(0, outdir)]


def check_golden(ehl, workload, workdir) -> tuple[int, int, list[str]]:
    from checks import digest, read_output, same

    reference = json.loads(REFERENCE.read_text()).get(workload, {}) if REFERENCE.is_file() else {}
    records = golden_requests(ehl, workload, workdir)
    failed, problems = 0, []
    for rec in records:
        label = rec.req.label
        if rec.rc != 0:
            found = [f"exit {rec.rc}: {rec.error}"]
        elif label not in reference:
            found = ["no stored reference value"]
        else:
            found = same(digest(rec.req, read_output(rec.req)), reference[label], label)
        if found:
            failed += 1
            problems += [f"reference {p}" for p in found[:5]]
    return len(records), failed, problems


def machine_facts() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba_imports": numba_imports,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    ehl = import_ehl()
    import workloads

    loadavg_start = os.getloadavg()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        t_setup = time.perf_counter()
        wl = workloads.build(args.workload, args.seed, workdir / "in")
        outdir = workdir / "out"
        for sub in ("", "plain", "traced"):
            (outdir / sub).mkdir(parents=True, exist_ok=True)
        input_s = time.perf_counter() - t_setup
        setup_samples, setup_speed, problems = measure_setup(wl.warmup(outdir), SpeedProbe())
        warm = send(ehl.cli.main, wl.warmup(outdir), -1)
        if warm.rc != 0:
            problems.append(f"warm-up request exited {warm.rc}: {warm.error}")

        if args.trace:
            records, tracer, overhead, replay_problems = traced_run(ehl, wl, args.seconds, outdir)
            problems += replay_problems
        else:
            records, wall, rss_mib = timed_run(ehl.cli.main, wl, args.seconds, outdir)

        failed, found = check_records(records, ehl)
        problems += found
        golden_count, golden_failed, found = check_golden(ehl, args.workload, workdir)
        problems += found
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records) + golden_count
    failed += golden_failed
    run_scale = set_scales(records)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": max(r.cycle for r in records) + 1,
        "requests": len(records),
        "reference_requests": golden_count,
        "failed_ratio": failed / attempted,
        "input_generation_s": input_s,
        "setup_samples_s": setup_samples,
        "probe_median_ms": 1000.0 * PROBE_REFERENCE_S / run_scale,
        "speed_scale": run_scale,
        "machine": machine_facts(),
        "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg(),
        "problems": problems[:20],
    }
    if args.trace:
        from spans import LayerStats, per_layer_metrics

        traced = [r for r in records if r.traced]
        layer = per_layer_metrics(LayerStats(tracer.spans), tracer.layers, len(traced), overhead, run_scale)
        detail["absent_metrics"] = sorted(k for k, v in layer.items() if v is None)
        detail["spans"] = len(tracer.spans)
        metrics = {k: metric(*v) for k, v in layer.items() if v is not None}
    else:
        import numpy as np

        lat = np.array([r.latency * r.scale for r in records])
        p50, tail = np.percentile(lat, [50.0, wl.tail_pct])
        raw = np.array([r.latency for r in records])
        detail["tail_percentile"] = wl.tail_pct
        detail["tail_samples_beyond"] = int(np.sum(lat > tail))
        # Throughput and CPU come from per-shape medians over the cycles,
        # so a burst of contention that covers a minority of a run is left out
        shapes = list(dict.fromkeys(r.req.label for r in records))
        median_s = {k: statistics.median(r.latency * r.scale for r in records if r.req.label == k) for k in shapes}
        median_cpu = {k: statistics.median(r.cpu * r.scale for r in records if r.req.label == k) for k in shapes}
        detail["wall_s"] = wall
        detail["raw"] = {
            "requests_per_wall_s": len(records) / wall,
            "latency_p50_ms": 1000.0 * float(np.percentile(raw, 50.0)),
            "latency_tail_ms": 1000.0 * float(np.percentile(raw, wl.tail_pct)),
            "setup_s": statistics.median(setup_samples) if setup_samples else None,
        }
        detail["median_ms_by_shape"] = {k: 1000.0 * v for k, v in median_s.items()}
        setup_scale = PROBE_REFERENCE_S / statistics.median(setup_speed)
        setup_s = statistics.median(setup_samples) * setup_scale if setup_samples else float("nan")
        metrics = {
            "requests_per_s": metric(len(shapes) / sum(median_s.values()), "req/s"),
            "latency_p50_ms": metric(1000.0 * p50, "ms"),
            "latency_tail_ms": metric(1000.0 * tail, "ms"),
            "cpu_ms_per_request": metric(1000.0 * sum(median_cpu.values()) / len(shapes), "ms"),
            "peak_rss_mib": metric(rss_mib, "MiB"),
            "setup_s": metric(setup_s, "s"),
        }
        rows = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
        rows.insert(5, ("failed_ratio", detail["failed_ratio"], "fraction"))
        for name, value, unit in rows:
            print(f"{args.workload:<11} {name:<20} {value:>14.6g} {unit}")
        print(f"{args.workload:<11} tail is p{wl.tail_pct:g} with {detail['tail_samples_beyond']} "
              f"of {len(records)} requests beyond it")
    print(json.dumps({"detail": detail}))
    correct = not problems and bool(setup_samples)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so memory peaks stay apart."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit {proc.returncode}\n{proc.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        if args.trace:
            for key, m in result["metrics"].items():
                print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
        else:
            print("\n".join(line for line in lines if not line.startswith("{")))
    return status


def write_reference() -> int:
    """Store the reference values of every workload's fixed-seed cycle."""
    ehl = import_ehl()
    from checks import digest, read_output

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".bench_work"))
    import workloads

    out = {}
    try:
        for name in workloads.WORKLOADS:
            records = golden_requests(ehl, name, workdir / name)
            bad = [r for r in records if r.rc != 0]
            if bad:
                sys.exit(f"error: reference request {bad[0].req.label} exited {bad[0].rc}")
            out[name] = {r.req.label: digest(r.req, read_output(r.req)) for r in records}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="analyst, sweep, power, sequential or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the reference values after an intended change of results")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
