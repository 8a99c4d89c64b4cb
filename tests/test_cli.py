import argparse
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ehl
import ehl.cli
import ehl.evalue
import ehl.recalibrate
from ehl import (
    InputError,
    SampleSet,
    SimulationConfig,
    bagged_recalibrate,
    exact_symmetrized_evalue,
    hl_test,
    isotonic_recalibrate,
    load_samples,
    sequential_evalue,
    split_evalue,
)
from ehl.cli import (
    build_parser,
    main,
    main_ehl_test,
    main_hl_sweep,
    main_hl_test,
    main_recalibrate,
    main_simulate,
)
from ehl._version import __version__
from ehl.evalue import EXACT_N_LIMIT
from ehl.hl import MAX_BINS


def _write_csv(path, p, y):
    lines = ["p,y"] + [f"{float(pi)!r},{int(yi)}" for pi, yi in zip(p, y)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def forecast_csv(tmp_path):
    rng = np.random.default_rng(40)
    p = rng.uniform(0.05, 0.95, size=40)
    y = (rng.random(40) < p).astype(int)
    return _write_csv(tmp_path / "forecasts.csv", p, y)


class TestEhlTest:
    def test_split_json(self, forecast_csv, capsys):
        rc = main(
            ["ehl-test", "--input", forecast_csv, "--splits", "25", "--seed", "3"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == __version__
        assert payload["command"] == "ehl-test"
        assert payload["config"]["variant"] == "split"
        assert payload["config"]["splits"] == 25
        assert payload["config"]["seed"] == 3
        report = payload["report"]
        assert report["variant"] == "split"
        assert len(report["per_split_log_e"]) == 25
        assert report["reject_at_20"] == (report["e_value"] > 20.0)

    def test_sequential_matches_library(self, forecast_csv, capsys):
        rc = main(["ehl-test", "--input", forecast_csv, "--variant", "sequential"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        report = sequential_evalue(load_samples(forecast_csv))
        assert payload["report"]["log_e"] == report.log_e
        assert payload["report"]["path"] == list(report.path)

    def test_exact_small_sample(self, tmp_path, capsys):
        f = _write_csv(tmp_path / "s.csv", [0.3, 0.6], [1, 1])
        rc = main(["ehl-test", "--input", f, "--variant", "exact"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["e_value"] == pytest.approx(175.0 / 108.0, rel=1e-12)

    def test_exact_cap_exit_code(self, tmp_path, capsys):
        p = np.linspace(0.1, 0.9, 9)
        f = _write_csv(tmp_path / "big.csv", p, [0] * 9)
        rc = main(["ehl-test", "--input", f, "--variant", "exact"])
        assert rc == 4
        assert "error:" in capsys.readouterr().err
        rc = main(["ehl-test", "--input", f, "--variant", "exact", "--n-max", "9"])
        assert rc == 0

    def test_exact_hard_limit_exit_code(self, tmp_path, capsys):
        n = EXACT_N_LIMIT + 1
        p = np.linspace(0.1, 0.9, n)
        f = _write_csv(tmp_path / "big.csv", p, [0] * n)
        rc = main(["ehl-test", "--input", f, "--variant", "exact", "--n-max", str(n + 5)])
        assert rc == 4
        assert f"hard limit of {EXACT_N_LIMIT}" in capsys.readouterr().err

    def test_boundary_exit_code(self, tmp_path, capsys):
        f = _write_csv(tmp_path / "b.csv", [0.0, 0.5], [0, 1])
        rc = main(["ehl-test", "--input", f])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_input_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("p,y\n0.5,2\n")
        rc = main(["ehl-test", "--input", str(f)])
        assert rc == 2
        assert "row 1" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, where", [
        (["id,p,y", "{long},0.5,1", "b,0.2,0"], "row 1"),
        (["id,p,y", "a,0.5,1", "{long},0.2,0"], "row 2"),
        (["p,y,{long}", "0.5,1,0"], "header"),
    ])
    def test_field_over_the_csv_size_limit_exits_2_without_a_traceback(
        self, lines, where, tmp_path, capsys
    ):
        long = "x" * (csv.field_size_limit() + 1)
        f = tmp_path / "long.csv"
        f.write_text("\n".join(lines).format(long=long) + "\n")
        rc = main(["ehl-test", "--input", str(f)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: field larger than field limit")
        assert "Traceback" not in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = main(["ehl-test", "--input", str(tmp_path / "nope.csv")])
        assert rc == 2
        capsys.readouterr()

    def test_fraction_argument(self, forecast_csv, capsys):
        rc = main(
            [
                "ehl-test",
                "--input",
                forecast_csv,
                "--split-fraction",
                "1/3",
                "--splits",
                "10",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["split_fraction"] == pytest.approx(1.0 / 3.0)
        with pytest.raises(SystemExit) as exc:
            main(["ehl-test", "--input", forecast_csv, "--split-fraction", "3/2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_rerun_is_byte_identical(self, forecast_csv, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["ehl-test", "--input", forecast_csv, "--splits", "30", "--seed", "7"]
        assert main([*argv, "--output", str(out1)]) == 0
        assert main([*argv, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_do_not_change_report(self, forecast_csv, tmp_path):
        outs = []
        for threads, name in ((1, "t1.json"), (3, "t3.json")):
            out = tmp_path / name
            rc = main(
                [
                    "ehl-test",
                    "--input",
                    forecast_csv,
                    "--splits",
                    "30",
                    "--threads",
                    str(threads),
                    "--output",
                    str(out),
                ]
            )
            assert rc == 0
            outs.append(json.loads(out.read_text()))
        assert outs[0]["report"] == outs[1]["report"]

    def test_threshold_flag(self, forecast_csv, capsys):
        rc = main(
            ["ehl-test", "--input", forecast_csv, "--splits", "10", "--threshold", "1e-9"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["threshold"] == 1e-9
        assert payload["report"]["reject_at_20"] is True


class TestHlTest:
    def test_json_fields(self, forecast_csv, capsys):
        rc = main(["hl-test", "--input", forecast_csv, "--bins", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "hl-test"
        report = payload["report"]
        assert report["method"] == "QR"
        assert report["g_requested"] == 5
        assert report["dof"] == report["g_realized"]
        assert len(report["table"]) == report["g_realized"]
        assert payload["reject_at_alpha"] == (report["p_value"] <= 0.05)

    def test_in_sample_dof(self, forecast_csv, capsys):
        rc = main(["hl-test", "--input", forecast_csv, "--bins", "6", "--dof", "g-2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["dof"] == payload["report"]["g_realized"] - 2

    def test_dof_exit_code(self, tmp_path, capsys):
        f = _write_csv(tmp_path / "c.csv", [0.5] * 12, [0, 1] * 6)
        rc = main(["hl-test", "--input", f, "--dof", "g-2"])
        assert rc == 5
        assert "degrees of freedom" in capsys.readouterr().err

    def test_binning_flag(self, forecast_csv, capsys):
        rc = main(["hl-test", "--input", forecast_csv, "--binning", "Qminus"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["report"]["method"] == "Qminus"


class TestHlSweep:
    def test_csv_output(self, forecast_csv, capsys):
        rc = main(["hl-sweep", "--input", forecast_csv])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"# ehl hl-sweep version={__version__} input=")
        assert lines[0].endswith("dof=g")
        assert lines[1] == "g,QL,QR,Qplus,Qminus,E"
        assert len(lines) == 18
        cell = lines[2].split(",")[1]
        float(cell)

    def test_display_mode(self, forecast_csv, capsys):
        rc = main(["hl-sweep", "--input", forecast_csv, "--mode", "display"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        for cell in lines[2].split(",")[1:]:
            if cell:
                whole, frac = cell.split(".")
                assert len(frac) == 2

    def test_json_output(self, forecast_csv, capsys):
        rc = main(["hl-sweep", "--input", forecast_csv, "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "hl-sweep"
        assert len(payload["sweep"]["cells"]) == 80
        assert payload["sweep"]["p_min"] <= payload["sweep"]["p_max"]


class TestRecalibrate:
    @pytest.fixture
    def miscalibrated(self, tmp_path):
        rng = np.random.default_rng(41)
        p = rng.uniform(0.1, 0.9, size=300)
        truth = np.clip(p * 0.6 + 0.25, 0.0, 1.0)
        y = (rng.random(300) < truth).astype(int)
        recal = _write_csv(tmp_path / "recal.csv", p[:200], y[:200])
        evaluation = _write_csv(tmp_path / "eval.csv", p[200:], y[200:])
        return recal, evaluation

    def test_output_reingestible(self, miscalibrated, tmp_path, capsys):
        recal, evaluation = miscalibrated
        out = tmp_path / "mapped.csv"
        rc = main(
            [
                "recalibrate",
                "--recal",
                recal,
                "--eval",
                evaluation,
                "--bags",
                "10",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        mapped = load_samples(str(out))
        original = load_samples(evaluation)
        assert len(mapped) == 100
        assert np.array_equal(mapped.y, original.y)
        assert np.all((mapped.p > 0.0) & (mapped.p < 1.0))
        assert not np.array_equal(mapped.p, original.p)
        # the mapped forecasts feed straight back into the e-value test
        rc = main(["ehl-test", "--input", str(out), "--splits", "10"])
        assert rc == 0
        capsys.readouterr()

    def test_stdout_and_unbagged(self, miscalibrated, capsys):
        recal, evaluation = miscalibrated
        rc = main(["recalibrate", "--recal", recal, "--eval", evaluation, "--bags", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "p,y"
        assert len(lines) == 101

    def test_curve_output(self, miscalibrated, tmp_path):
        recal, evaluation = miscalibrated
        curve_file = tmp_path / "curve.csv"
        out = tmp_path / "m.csv"
        rc = main(
            [
                "recalibrate",
                "--recal",
                recal,
                "--eval",
                evaluation,
                "--bags",
                "5",
                "--grid-points",
                "21",
                "--curve-output",
                str(curve_file),
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        lines = curve_file.read_text().splitlines()
        assert lines[0] == "p,mean,q_low,q_high"
        assert len(lines) == 22
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert 0.0 < float(first[1]) < 1.0

    def test_deterministic(self, miscalibrated, tmp_path):
        recal, evaluation = miscalibrated
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            argv = [
                "recalibrate",
                "--recal",
                recal,
                "--eval",
                evaluation,
                "--bags",
                "8",
                "--seed",
                "5",
                "--output",
                str(out),
            ]
            assert main(argv) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSimulate:
    ARGS = [
        "simulate",
        "--j",
        "0.0,0.1",
        "--n",
        "64",
        "--s",
        "0.5",
        "--variants",
        "ehl,hl",
        "--reps",
        "12",
        "--splits",
        "5",
        "--seed",
        "9",
    ]

    def test_default_fraction_grid(self, capsys):
        rc = main(
            ["simulate", "--n", "32", "--variants", "ehl", "--reps", "3", "--splits", "2"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        fractions = [float(ln.split(",")[2]) for ln in lines[2:]]
        assert fractions == pytest.approx([1 / 3, 1 / 2, 2 / 3])

    def test_csv_rows(self, capsys):
        rc = main(self.ARGS)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# ehl simulate version=")
        assert lines[1] == "j,n,s,variant,rep_count,reject_rate,mean_log_e,failures,se_log_e"
        assert len(lines) == 2 + 4
        variants = [ln.split(",")[3] for ln in lines[2:]]
        assert variants.count("ehl") == 2 and variants.count("hl") == 2

    def test_json_format(self, capsys):
        rc = main([*self.ARGS, "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "simulate"
        assert payload["config"]["j_values"] == [0.0, 0.1]
        assert len(payload["cells"]) == 4

    def test_rerun_and_threads_byte_identical(self, tmp_path):
        files = []
        for name, extra in (
            ("a.csv", []),
            ("b.csv", []),
            ("c.csv", ["--threads", "2"]),
        ):
            out = tmp_path / name
            assert main([*self.ARGS, *extra, "--output", str(out)]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]
        # the config echo records the thread count, the cells must not move
        tail = [f.split(b"\n", 2)[2] for f in files]
        assert tail[0] == tail[2]

    def test_bad_variant(self, capsys):
        rc = main(["simulate", "--variants", "ehl,bogus", "--reps", "2", "--n", "16"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestEntryPoints:
    def test_aliases(self, forecast_csv, tmp_path, capsys):
        assert main_ehl_test(["--input", forecast_csv, "--splits", "5"]) == 0
        assert main_hl_test(["--input", forecast_csv]) == 0
        assert main_hl_sweep(["--input", forecast_csv]) == 0
        rng = np.random.default_rng(1)
        p = rng.uniform(0.2, 0.8, 30)
        y = (rng.random(30) < p).astype(int)
        f = _write_csv(tmp_path / "r.csv", p, y)
        assert main_recalibrate(["--recal", f, "--eval", f, "--bags", "3"]) == 0
        assert (
            main_simulate(["--n", "16", "--reps", "2", "--j", "0.0", "--splits", "3"])
            == 0
        )
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"ehl {__version__}"

    def test_module_invocation(self):
        # the child process imports the same ehl as this one, also when
        # only pytest's pythonpath setting put it on sys.path
        src = os.path.dirname(os.path.dirname(ehl.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "ehl", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"ehl {__version__}"

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_every_option_has_help_text(self):
        parsers = [("ehl", ehl.cli._parser())]
        empty = []
        while parsers:
            command, parser = parsers.pop()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers += action.choices.items()
                elif not (action.help or "").strip():
                    empty.append(f"{command} {action.option_strings[0]}")
        assert empty == []

    @pytest.mark.parametrize("argv", [
        ["ehl-test", "--input", "in.csv", "--threshold", value] for value in ("nan", "inf", "0", "-1")
    ] + [
        ["hl-test", "--input", "in.csv", "--alpha", value] for value in ("nan", "2", "0", "1")
    ] + [
        ["simulate", "--threshold", "nan"], ["simulate", "--alpha", "inf"],
    ])
    def test_bad_threshold_or_alpha_exits_2_at_parse_time(self, argv, capsys):
        # nan and inf would print the invalid JSON tokens NaN and Infinity
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("value, named", [("0", "'0'"), ("-4", "'-4'"), ("16,0", "'0'")])
    def test_nonpositive_simulate_n_exits_2_at_parse_time(self, value, named, capsys):
        # 0 once divided by zero in the run sizing, and -4 was reported as the
        # doubled size the generator draws
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --n" in err and f"got {named}" in err

    def test_grid_points_below_2_exit_2_before_any_csv_is_read(self, monkeypatch, capsys):
        def refuse(source):
            raise AssertionError("a CSV was read")

        monkeypatch.setattr(ehl.cli, "load_samples", refuse)
        for value in ("1", "0"):
            with pytest.raises(SystemExit) as exc:
                main(["recalibrate", "--recal", "r.csv", "--eval", "e.csv", "--grid-points", value])
            assert exc.value.code == 2
            assert "argument --grid-points" in capsys.readouterr().err

    def test_bins_above_the_cap_exit_2_before_any_input_is_read(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a CSV was read or a replication ran")

        monkeypatch.setattr(ehl.cli, "load_samples", refuse)
        monkeypatch.setattr(ehl.cli, "run_power_study", refuse)
        for value in (str(MAX_BINS + 1), "3000000000"):
            for argv in (["hl-test", "--input", "f.csv", "--binning", "E", "--bins", value],
                         ["hl-test", "--input", "f.csv", "--binning", "QR", "--bins", value],
                         ["simulate", "--bins", value]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
                assert "argument --bins" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, keys", [
        (["ehl-test", "--splits", "5", "--output", "{out}"],
         {"input", "variant", "split_fraction", "splits", "seed", "threshold", "n_max", "threads"}),
        (["hl-test", "--output", "{out}"], {"input", "binning", "bins", "dof", "alpha"}),
        (["hl-sweep", "--format", "json", "--mode", "display", "--output", "{out}"],
         {"input", "dof"}),
    ])
    def test_config_echoes_every_option_but_where_and_how_output_goes(
        self, argv, keys, forecast_csv, tmp_path
    ):
        out = str(tmp_path / "out.json")
        argv = [argv[0], "--input", forecast_csv] + [out if a == "{out}" else a for a in argv[1:]]
        assert main(argv) == 0
        with open(out) as fh:
            config = json.load(fh)["config"]
        assert set(config) == keys
        assert config["input"] == forecast_csv


class _Work(Exception):
    """Raised by a work function that a check should have kept from running."""


def _ratio(text):
    num, slash, den = text.partition("/")
    return float(num) / float(den) if slash else float(text)


def _ints(text):
    return tuple(int(v) for v in text.split(","))


def _ratios(text):
    return tuple(_ratio(v) for v in text.split(","))


_FOUR = SampleSet([0.3, 0.6, 0.8, 0.4], [0, 1, 1, 0])
_ONE = SampleSet([0.3], [1])


def _study(field):
    return lambda value: SimulationConfig(**{"j_values": (0.0,), "n_values": (64,), field: value})


# (command and its required options, option, the text's parse, the library
# call that takes the parsed value); an option with two library entry points
# has a row for each
_PARITY = [
    (["ehl-test", "--input", "f.csv"], "--split-fraction", _ratio,
     lambda v: split_evalue(_FOUR, s=v)),
    (["ehl-test", "--input", "f.csv"], "--splits", int, lambda v: split_evalue(_FOUR, B=v)),
    (["ehl-test", "--input", "f.csv"], "--seed", int, lambda v: split_evalue(_FOUR, seed=v)),
    (["ehl-test", "--input", "f.csv"], "--threshold", float,
     lambda v: split_evalue(_FOUR, threshold=v)),
    (["ehl-test", "--input", "f.csv"], "--threshold", float,
     lambda v: sequential_evalue(_FOUR, threshold=v)),
    (["ehl-test", "--input", "f.csv"], "--threshold", float,
     lambda v: exact_symmetrized_evalue(_ONE, threshold=v)),
    (["ehl-test", "--input", "f.csv"], "--n-max", int,
     lambda v: exact_symmetrized_evalue(_ONE, v)),
    (["ehl-test", "--input", "f.csv"], "--threads", int,
     lambda v: split_evalue(_FOUR, threads=v)),
    (["hl-test", "--input", "f.csv"], "--bins", int, lambda v: hl_test(_FOUR, "QR", v)),
    (["hl-test", "--input", "f.csv"], "--alpha", _ratio, _study("alpha")),
    (["recalibrate", "--recal", "r.csv", "--eval", "e.csv"], "--bags", int,
     lambda v: isotonic_recalibrate(_FOUR) if v == 0 else bagged_recalibrate(_FOUR, v)),
    (["recalibrate", "--recal", "r.csv", "--eval", "e.csv"], "--seed", int,
     lambda v: bagged_recalibrate(_FOUR, 1, v)),
    (["recalibrate", "--recal", "r.csv", "--eval", "e.csv"], "--grid-points", int,
     lambda v: isotonic_recalibrate(_FOUR, grid_size=v)),
    (["recalibrate", "--recal", "r.csv", "--eval", "e.csv"], "--grid-points", int,
     lambda v: bagged_recalibrate(_FOUR, 1, grid_size=v)),
    (["recalibrate", "--recal", "r.csv", "--eval", "e.csv"], "--threads", int,
     lambda v: bagged_recalibrate(_FOUR, 1, threads=v)),
    (["simulate"], "--n", _ints, _study("n_values")),
    (["simulate"], "--s", _ratios, _study("s_values")),
    (["simulate"], "--reps", int, _study("reps")),
    (["simulate"], "--splits", int, _study("B")),
    (["simulate"], "--seed", int, _study("seed")),
    (["simulate"], "--threshold", float, _study("threshold")),
    (["simulate"], "--alpha", _ratio, _study("alpha")),
    (["simulate"], "--bins", int, _study("hl_bins")),
    (["simulate"], "--threads", int, _study("threads")),
]
_CORPUS = ("0", "-1", "1", "2", "nan", "inf", "1/0", "x", str(MAX_BINS), str(MAX_BINS + 1),
           "16,0", "1/3", "0.5", "1e400")


@pytest.mark.parametrize("command, option, parse, call", _PARITY,
                         ids=[f"{row[0][0]} {row[1]} {i}" for i, row in enumerate(_PARITY)])
def test_cli_refuses_at_parse_time_exactly_what_the_library_refuses(
    command, option, parse, call, monkeypatch, capsys
):
    def work(*args, **kwargs):
        raise _Work

    for module, name in ((ehl.evalue, "_replicates"), (ehl.evalue, "_PrefixBlocks"),
                         (ehl.evalue, "_fixed_set_values"), (ehl.recalibrate, "_merged")):
        monkeypatch.setattr(module, name, work)
    parsed = []
    monkeypatch.setattr(ehl.cli, "_DISPATCH",
                        dict.fromkeys(ehl.cli._DISPATCH, lambda args: parsed.append(args) or 0))
    dest = option.lstrip("-").replace("-", "_")
    for text in _CORPUS:
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError):
            refused = True
        else:
            try:
                call(value)
                refused = False
            except _Work:
                refused = False
            except InputError:
                refused = True
        parsed.clear()
        try:
            rc = main([*command, option, text])
        except SystemExit as exc:
            rc = exc.code
        err = capsys.readouterr().err
        assert (rc == 2 and f"argument {option}" in err) == refused, (option, text, err)
        if not refused:
            # the parsed value and its type, element by element for a list
            got = getattr(parsed[0], dest)
            assert rc == 0 and got == value and type(got) is type(value)
            if isinstance(value, tuple):
                assert [type(v) for v in got] == [type(v) for v in value]


def _run_all(calls, outdir, capsys):
    """Run main on each argv in turn, with {out} in an argv standing for
    outdir: per call the exit code, stdout, stderr and the bytes of every
    file in outdir, which is emptied first."""
    results = []
    for argv in calls:
        for name in os.listdir(outdir):
            os.remove(os.path.join(outdir, name))
        try:
            rc = main([a.format(out=outdir) for a in argv])
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        files = {name: (outdir / name).read_bytes() for name in sorted(os.listdir(outdir))}
        results.append((rc, out, err, files))
    return results


class TestParserReuse:
    """main builds its parser once per process; every call must behave as
    if it had a parser of its own."""

    SEQUENCES = {
        "output then stdout": [
            ["hl-test", "--input", "{csv}", "--bins", "6", "--output", "{out}/a.json"],
            ["hl-test", "--input", "{csv}"],
            ["hl-sweep", "--input", "{csv}", "--format", "json", "--output", "{out}/s.json"],
            ["hl-sweep", "--input", "{csv}"],
        ],
        "error then good call": [
            ["hl-test", "--input", "{csv}", "--bins", "0"],
            ["hl-test", "--input", "{csv}"],
            ["ehl-test", "--input", "{csv}", "--variant", "bogus"],
            ["ehl-test", "--input", "{csv}", "--splits", "5"],
        ],
        "hl-test after ehl-test": [
            ["ehl-test", "--input", "{csv}", "--splits", "7", "--seed", "3",
             "--threshold", "5", "--output", "{out}/e.json"],
            ["hl-test", "--input", "{csv}"],
            ["ehl-test", "--input", "{csv}", "--splits", "4"],
        ],
    }

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_matches_a_fresh_parser(self, name, forecast_csv, tmp_path, monkeypatch, capsys):
        calls = [[a.replace("{csv}", forecast_csv) for a in argv] for argv in self.SEQUENCES[name]]
        outdir = tmp_path / "out"
        outdir.mkdir()
        shared = _run_all(calls, outdir, capsys)
        monkeypatch.setattr(ehl.cli, "_parser", build_parser)
        fresh = [_run_all([argv], outdir, capsys)[0] for argv in calls]
        assert shared == fresh
        for (rc, out, err, files), argv in zip(shared, calls):
            if rc == 2:
                assert "usage:" in err and not out and not files
            else:
                assert rc == 0 and not err
                # output goes where this call's own --output says
                assert bool(files) == ("--output" in argv)
                assert bool(out) != ("--output" in argv)

    def test_namespaces_carry_no_earlier_value(self, monkeypatch):
        assert ehl.cli._parser() is ehl.cli._parser()
        seen = []

        def record(args):
            seen.append(vars(args))
            return 0

        monkeypatch.setattr(ehl.cli, "_DISPATCH", dict.fromkeys(ehl.cli._DISPATCH, record))
        calls = [
            ["ehl-test", "--input", "x.csv", "--splits", "9", "--output", "o"],
            ["hl-test", "--input", "y.csv", "--bins", "3", "--output", "o"],
            ["hl-test", "--input", "y.csv"],
            ["simulate", "--n", "16"],
            ["hl-sweep", "--input", "z.csv"],
        ]
        for argv in calls:
            assert main(argv) == 0
        assert seen == [vars(build_parser().parse_args(argv)) for argv in calls]
