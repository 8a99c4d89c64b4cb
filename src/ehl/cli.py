"""Command-line interface.

Five subcommands: ehl-test, hl-test, hl-sweep, recalibrate, simulate; each
is also installed as a standalone console script. Output is written to
stdout or --output, with sorted-key JSON and repr floats throughout, so a
rerun with the same flags produces byte-identical bytes; nothing
time-dependent is ever emitted.

Exit codes describe operational failures only, never the statistical
decision: 0 success, 2 bad input or configuration, 3 boundary forecasts
where a likelihood ratio is required, 4 sample too large for exact
enumeration, 5 not enough degrees of freedom.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Sequence

from ._version import __version__
from .data import dump_samples, load_samples
from .errors import ArgumentError, EhlError, check_fraction, check_int, check_positive
from .evalue import EXACT_N_LIMIT, exact_symmetrized_evalue, sequential_evalue, split_evalue
from .hl import MAX_BINS, METHODS, hl_sweep, hl_test
from .recalibrate import bagged_recalibrate, isotonic_recalibrate
from .simulate import SimulationConfig, run_power_study


def _fraction(text: str) -> float:
    """A plain float or an a/b fraction like 1/2 or 1/3."""
    num, slash, den = text.partition("/")
    try:
        return float(num) / float(den) if slash else float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _checked(parse: Callable, check: Callable, *bounds: int) -> Callable:
    """An argument type: the text parsed, then refused at parse time by the
    library's own check, which names the rule against the text as given."""

    def convert(text: str) -> object:
        value = parse(text)
        try:
            check("argument", value, *bounds)
        except ArgumentError as exc:
            raise argparse.ArgumentTypeError(f"expected {exc.rule}, got {text!r}") from None
        return value

    # argparse names a type by this when it raises ValueError
    convert.__name__ = parse.__name__
    return convert


def _listed(convert: Callable) -> Callable:
    """The comma-separated list form of an argument type."""

    def convert_list(text: str) -> tuple:
        return tuple(convert(v) for v in text.split(","))

    convert_list.__name__ = convert.__name__
    return convert_list


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehl",
        description="Calibration tests for binary probability forecasts.",
    )
    parser.add_argument("--version", action="version", version=f"ehl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("ehl-test", help="e-value calibration test on a forecast CSV")
    t.add_argument("--input", required=True, help="CSV with columns p,y")
    t.add_argument("--variant", choices=("split", "sequential", "exact"), default="split",
                   help="which e-value: split averages B random splits, sequential "
                        "takes the rows in file order, exact averages every order "
                        "(default split)")
    t.add_argument("--split-fraction", type=_checked(_fraction, check_fraction),
                   default=0.5, metavar="S",
                   help="estimation fraction for the split variant, a number strictly "
                        "in (0, 1) (accepts a/b, default 1/2)")
    t.add_argument("--splits", type=_checked(int, check_int, 1), default=10000, metavar="B",
                   help="number of splits for the split variant, an integer of at "
                        "least 1 (default 10000)")
    t.add_argument("--seed", type=_checked(int, check_int, 0), default=0,
                   help="seed of the split variant's random splits, an integer of at "
                        "least 0 (default 0)")
    t.add_argument("--threshold", type=_checked(float, check_positive), default=20.0,
                   help="rejection threshold on the e-value, a finite number above 0 "
                        "(default 20)")
    t.add_argument("--n-max", type=_checked(int, check_int, 1), default=8,
                   help="sample-size cap for the exact variant, an integer of at least "
                        f"1 (default 8; samples above {EXACT_N_LIMIT} are refused "
                        "whatever the cap)")
    t.add_argument("--threads", type=_checked(int, check_int, 1), default=1,
                   help="worker threads for the splits, an integer of at least 1; the "
                        "result does not depend on it (default 1)")
    t.add_argument("--output", help="write JSON here instead of stdout")

    h = sub.add_parser("hl-test", help="binned chi-square calibration test")
    h.add_argument("--input", required=True, help="CSV with columns p,y")
    h.add_argument("--bins", type=_checked(int, check_int, 1, MAX_BINS), default=10, metavar="G",
                   help=f"number of bins, an integer from 1 to {MAX_BINS} (default 10)")
    h.add_argument("--binning", choices=METHODS, default="QR",
                   help="how the bins are cut: E equal width, QL/QR at the "
                        "quantiles (a forecast on a cut goes left/right), "
                        "Qplus/Qminus equal counts (default QR)")
    h.add_argument("--dof", choices=("g", "g-2"), default="g",
                   help="degrees of freedom: g for out-of-sample forecasts, g-2 in-sample")
    h.add_argument("--alpha", type=_checked(_fraction, check_fraction), default=0.05,
                   help="level at which reject_at_alpha is set, a number strictly in "
                        "(0, 1) (accepts a/b, default 0.05)")
    h.add_argument("--output", help="write JSON here instead of stdout")

    w = sub.add_parser("hl-sweep", help="chi-square test across all binnings and g=5..20")
    w.add_argument("--input", required=True, help="CSV with columns p,y")
    w.add_argument("--dof", choices=("g", "g-2"), default="g",
                   help="degrees of freedom: g for out-of-sample forecasts, g-2 in-sample")
    w.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    w.add_argument("--mode", choices=("machine", "display"), default="machine",
                   help="csv float rendering: full precision or 2 decimals")
    w.add_argument("--output", help="write the table here instead of stdout")

    r = sub.add_parser("recalibrate", help="isotonic recalibration of forecasts")
    r.add_argument("--recal", required=True, help="CSV used to fit the recalibration map")
    r.add_argument("--eval", required=True, help="CSV whose forecasts are mapped")
    r.add_argument("--bags", type=_checked(int, check_int, 0), default=100,
                   help="bootstrap bags, an integer of at least 0; 0 fits a single "
                        "curve (default 100)")
    r.add_argument("--seed", type=_checked(int, check_int, 0), default=0,
                   help="seed of the bootstrap bags, an integer of at least 0 (default 0)")
    r.add_argument("--grid-points", type=_checked(int, check_int, 2), default=1001,
                   help="points of the curve grid on [0, 1], an integer of at least 2 "
                        "(default 1001)")
    r.add_argument("--threads", type=_checked(int, check_int, 1), default=1,
                   help="worker threads for the bags, an integer of at least 1; the "
                        "result does not depend on it (default 1)")
    r.add_argument("--curve-output", help="write the curve grid CSV (p,mean,q_low,q_high) here")
    r.add_argument("--output", help="write the recalibrated eval CSV here instead of stdout")

    m = sub.add_parser("simulate", help="Monte Carlo power study")
    m.add_argument("--j", type=_listed(float), default=(0.0,), metavar="J1,J2,...",
                   help="miscalibration levels; each must leave the anchor "
                        "probability j + 0.00733745 strictly in (0, 1) (default 0)")
    m.add_argument("--n", type=_listed(_checked(int, check_int, 1)), default=(1024,),
                   metavar="N1,N2,...",
                   help="sample sizes, integers of at least 1: each replication fits "
                        "on n points and tests on n more (default 1024)")
    m.add_argument("--s", type=_listed(_checked(_fraction, check_fraction)),
                   default=(1.0 / 3.0, 0.5, 2.0 / 3.0), metavar="S1,S2,...",
                   help="train fractions for the split e-value, numbers strictly in "
                        "(0, 1) (accepts a/b, default 1/3,1/2,2/3)")
    m.add_argument("--variants", type=_name_list, default=("ehl", "hl"),
                   help="comma list from ehl,hl,oracle (default ehl,hl)")
    m.add_argument("--reps", type=_checked(int, check_int, 1), default=1000,
                   help="replications per (j, n) cell, an integer of at least 1 "
                        "(default 1000)")
    m.add_argument("--splits", type=_checked(int, check_int, 1), default=10, metavar="B",
                   help="splits per e-value inside the study, an integer of at least 1 "
                        "(default 10)")
    m.add_argument("--seed", type=_checked(int, check_int, 0), default=0,
                   help="seed of the whole study, an integer of at least 0 (default 0)")
    m.add_argument("--threshold", type=_checked(float, check_positive), default=20.0,
                   help="e-value rejection threshold, a finite number above 0 (default 20)")
    m.add_argument("--alpha", type=_checked(_fraction, check_fraction), default=0.05,
                   help="level of the chi-square test, a number strictly in (0, 1) "
                        "(accepts a/b, default 0.05)")
    m.add_argument("--bins", type=_checked(int, check_int, 1, MAX_BINS), default=10,
                   help=f"bins of the chi-square test, an integer from 1 to {MAX_BINS} "
                        "(default 10)")
    m.add_argument("--binning", choices=METHODS, default="QR",
                   help="how the chi-square test cuts its bins, as hl-test --binning "
                        "(default QR)")
    m.add_argument("--dof", choices=("g", "g-2"), default="g",
                   help="degrees of freedom of the chi-square test, as hl-test --dof "
                        "(default g)")
    m.add_argument("--threads", type=_checked(int, check_int, 1), default=1,
                   help="worker threads for the replications, an integer of at least 1; "
                        "the result does not depend on it (default 1)")
    m.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    m.add_argument("--output", help="write the study here instead of stdout")

    return parser


# parse_args reads the parser and fills a fresh namespace, so one parser
# serves every main call of a process; building it took 1.0 ms against
# 0.04 ms for a parse
_parser = functools.cache(build_parser)


def _config(args: argparse.Namespace) -> dict:
    """The parsed options that a JSON result echoes: every one but the
    subcommand and those that only say where and how the result is written."""
    skip = ("command", "output", "format", "mode")
    return {name: value for name, value in vars(args).items() if name not in skip}


def _cmd_ehl_test(args: argparse.Namespace) -> int:
    samples = load_samples(args.input)
    if args.variant == "split":
        report = split_evalue(
            samples,
            args.split_fraction,
            args.splits,
            args.seed,
            threshold=args.threshold,
            threads=args.threads,
        )
    elif args.variant == "sequential":
        report = sequential_evalue(samples, threshold=args.threshold)
    else:
        report = exact_symmetrized_evalue(samples, args.n_max, threshold=args.threshold)
    payload = {
        "version": __version__,
        "command": "ehl-test",
        "config": _config(args),
        "report": report.to_json_dict(),
    }
    _write(_json_text(payload), args.output)
    return 0


def _cmd_hl_test(args: argparse.Namespace) -> int:
    samples = load_samples(args.input)
    report = hl_test(samples, args.binning, args.bins, args.dof == "g-2")
    payload = {
        "version": __version__,
        "command": "hl-test",
        "config": _config(args),
        "report": report.to_json_dict(),
        "reject_at_alpha": bool(report.p_value <= args.alpha),
    }
    _write(_json_text(payload), args.output)
    return 0


def _cmd_hl_sweep(args: argparse.Namespace) -> int:
    samples = load_samples(args.input)
    sweep = hl_sweep(samples, estimated_in_sample=args.dof == "g-2")
    if args.format == "csv":
        header = f"# ehl hl-sweep version={__version__} input={args.input} dof={args.dof}\n"
        _write(header + sweep.to_csv(display=args.mode == "display"), args.output)
    else:
        payload = {
            "version": __version__,
            "command": "hl-sweep",
            "config": _config(args),
            "sweep": sweep.to_json_dict(),
        }
        _write(_json_text(payload), args.output)
    return 0


def _cmd_recalibrate(args: argparse.Namespace) -> int:
    recal = load_samples(args.recal)
    evaluation = load_samples(args.eval)
    if args.bags == 0:
        curve = isotonic_recalibrate(recal, grid_size=args.grid_points)
    else:
        curve = bagged_recalibrate(
            recal,
            args.bags,
            args.seed,
            grid_size=args.grid_points,
            threads=args.threads,
        )
    mapped = evaluation.with_p(curve.apply(evaluation.p))
    dump_samples(mapped, sys.stdout if args.output is None else args.output)
    if args.curve_output is not None:
        curve.write_csv(args.curve_output)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SimulationConfig(
        j_values=args.j,
        n_values=args.n,
        s_values=args.s,
        variants=args.variants,
        reps=args.reps,
        B=args.splits,
        seed=args.seed,
        threshold=args.threshold,
        alpha=args.alpha,
        hl_bins=args.bins,
        hl_method=args.binning,
        estimated_in_sample=args.dof == "g-2",
        threads=args.threads,
    )
    report = run_power_study(config)
    if args.format == "csv":
        _write(report.to_csv(), args.output)
    else:
        payload = {
            "version": __version__,
            "command": "simulate",
            **report.to_json_dict(),
        }
        _write(_json_text(payload), args.output)
    return 0


_DISPATCH = {
    "ehl-test": _cmd_ehl_test,
    "hl-test": _cmd_hl_test,
    "hl-sweep": _cmd_hl_sweep,
    "recalibrate": _cmd_recalibrate,
    "simulate": _cmd_simulate,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except EhlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _alias(command: str, argv: Sequence[str] | None) -> int:
    rest = sys.argv[1:] if argv is None else list(argv)
    return main([command, *rest])


def main_ehl_test(argv: Sequence[str] | None = None) -> int:
    return _alias("ehl-test", argv)


def main_hl_test(argv: Sequence[str] | None = None) -> int:
    return _alias("hl-test", argv)


def main_hl_sweep(argv: Sequence[str] | None = None) -> int:
    return _alias("hl-sweep", argv)


def main_recalibrate(argv: Sequence[str] | None = None) -> int:
    return _alias("recalibrate", argv)


def main_simulate(argv: Sequence[str] | None = None) -> int:
    return _alias("simulate", argv)
