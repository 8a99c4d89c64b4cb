import json
import math

import numpy as np
import pytest
import scipy.integrate

import ehl.numeric
import ehl.simulate
from ehl import (
    FitError,
    InputError,
    LabeledSampleSet,
    SimulationConfig,
    fit_logistic_linear,
    generate_data,
    run_power_study,
    solve_quadratic_betas,
)
from ehl.numeric import expit, expit_array, logit, logsumexp
from ehl.simulate import ANCHOR_OFFSET, ANCHOR_X, _fit_logistic_rows

from helpers import logistic_fit_reference, split_reference


def _betas_by_elimination(j):
    # solve the anchor system by hand elimination: subtracting and adding
    # the two x = +-3 rows isolates beta1 and beta0 + 9 beta2, and the
    # middle row then gives beta2
    l1 = logit(j + ANCHOR_OFFSET)
    l2 = logit(0.05)
    l3 = logit(0.95)
    b1 = (l3 - l1) / 6.0
    b2 = ((l1 + l3) / 2.0 - (l3 - l1) / 4.0 - l2) / 6.75
    b0 = (l1 + l3) / 2.0 - 9.0 * b2
    return b0, b1, b2


class TestQuadraticBetas:
    def test_flat_bump_is_linear(self):
        model = solve_quadratic_betas(0.0)
        assert abs(model.beta2) < 1e-6
        b0, b1, _ = _betas_by_elimination(0.0)
        assert model.beta0 == pytest.approx(b0, rel=1e-12)
        assert model.beta1 == pytest.approx(b1, rel=1e-12)

    def test_matches_hand_elimination(self):
        for j in (0.0, 0.02, 0.1, 0.4):
            model = solve_quadratic_betas(j)
            b0, b1, b2 = _betas_by_elimination(j)
            assert model.beta0 == pytest.approx(b0, rel=1e-12)
            assert model.beta1 == pytest.approx(b1, rel=1e-12)
            assert model.beta2 == pytest.approx(b2, rel=1e-9, abs=1e-12)

    def test_anchor_conditions(self):
        for j in (0.0, 0.01, 0.0427, 0.05, 0.1, 0.2, 0.5):
            model = solve_quadratic_betas(j)
            targets = (j + ANCHOR_OFFSET, 0.05, 0.95)
            for x, t in zip(ANCHOR_X, targets):
                z = model.beta0 + model.beta1 * x + model.beta2 * x * x
                assert z == pytest.approx(logit(t), abs=1e-9)
                assert float(model.pi_bar(np.array([x]))[0]) == pytest.approx(
                    t, abs=1e-10
                )

    def test_bump_raises_left_tail(self):
        flat = solve_quadratic_betas(0.0)
        bumped = solve_quadratic_betas(0.1)
        x = np.array([-3.0])
        assert float(bumped.pi_bar(x)[0]) > float(flat.pi_bar(x)[0])
        assert float(bumped.pi_bar(x)[0]) == pytest.approx(0.1 + ANCHOR_OFFSET, abs=1e-10)
        # the two right anchors stay pinned
        rest = np.array([-1.5, 3.0])
        assert bumped.pi_bar(rest) == pytest.approx(flat.pi_bar(rest), abs=1e-10)

    def test_infeasible_bump(self):
        with pytest.raises(InputError):
            solve_quadratic_betas(0.999)
        with pytest.raises(InputError):
            solve_quadratic_betas(-ANCHOR_OFFSET)
        with pytest.raises(InputError):
            solve_quadratic_betas(-0.01)


class TestGenerateData:
    def test_reproducible(self):
        model = solve_quadratic_betas(0.05)
        a = generate_data(40, model, np.random.default_rng(7))
        b = generate_data(40, model, np.random.default_rng(7))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        c = generate_data(40, model, np.random.default_rng(8))
        assert not np.array_equal(a.x, c.x)

    def test_shapes_and_ranges(self):
        model = solve_quadratic_betas(0.1)
        data = generate_data(500, model, np.random.default_rng(1))
        assert len(data) == 500
        assert np.all((data.x >= -3.0) & (data.x <= 3.0))
        assert set(np.unique(data.y)) <= {0, 1}
        assert np.array_equal(data.p, data.pi_bar)
        assert np.array_equal(data.pi_bar, model.pi_bar(data.x))

    def test_domain(self):
        model = solve_quadratic_betas(0.0)
        with pytest.raises(InputError):
            generate_data(0, model, np.random.default_rng(0))

    def test_mean_outcome_matches_quadrature(self):
        # E[Y] = (1/6) times the integral of the curve over [-3, 3]
        model = solve_quadratic_betas(0.1)

        def curve(x):
            return expit(model.beta0 + model.beta1 * x + model.beta2 * x * x)

        expected, err = scipy.integrate.quad(curve, -3.0, 3.0)
        expected /= 6.0
        assert err < 1e-6
        data = generate_data(200_000, model, np.random.default_rng(2))
        assert float(data.y.mean()) == pytest.approx(expected, abs=0.005)
        assert float(data.pi_bar.mean()) == pytest.approx(expected, abs=0.003)


class TestLogisticFit:
    def test_balanced_data_fits_zero(self):
        samples = LabeledSampleSet(
            [0.5] * 4, [0, 1, 0, 1], x=[-1.0, -1.0, 1.0, 1.0]
        )
        assert fit_logistic_linear(samples) == (0.0, 0.0)

    def test_gradient_vanishes_at_fit(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-3.0, 3.0, size=300)
        truth = expit_array(0.3 - 0.7 * x)
        y = (rng.random(300) < truth).astype(int)
        samples = LabeledSampleSet(truth, y, x=x)
        b0, b1 = fit_logistic_linear(samples)
        mu = expit_array(b0 + b1 * x)
        assert abs(np.sum(y - mu)) < 1e-6
        assert abs(np.sum((y - mu) * x)) < 1e-6

    def test_fit_is_local_maximum(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-3.0, 3.0, size=200)
        truth = expit_array(-0.2 + 0.5 * x)
        y = (rng.random(200) < truth).astype(int)
        samples = LabeledSampleSet(truth, y, x=x)
        b0, b1 = fit_logistic_linear(samples)

        def loglik(a, b):
            z = a + b * x
            return float(np.sum(y * z - np.logaddexp(0.0, z)))

        best = loglik(b0, b1)
        for da in (-0.05, 0.0, 0.05):
            for db in (-0.05, 0.0, 0.05):
                assert loglik(b0 + da, b1 + db) <= best + 1e-12

    def test_recovers_truth_at_large_n(self):
        rng = np.random.default_rng(5)
        n = 60_000
        x = rng.uniform(-3.0, 3.0, size=n)
        truth = expit_array(0.25 + 0.9 * x)
        y = (rng.random(n) < truth).astype(int)
        b0, b1 = fit_logistic_linear(LabeledSampleSet(truth, y, x=x))
        assert b0 == pytest.approx(0.25, abs=0.05)
        assert b1 == pytest.approx(0.9, abs=0.05)

    def test_constant_covariate_fails(self):
        # rank-deficient design: the information matrix is singular
        samples = LabeledSampleSet([0.5] * 4, [0, 0, 1, 1], x=[0.0, 0.0, 0.0, 0.0])
        with pytest.raises(FitError):
            fit_logistic_linear(samples)

    def test_single_class_fails(self):
        samples = LabeledSampleSet([0.5] * 3, [1, 1, 1], x=[-1.0, 0.0, 1.0])
        with pytest.raises(FitError):
            fit_logistic_linear(samples)

    def test_missing_covariates(self):
        samples = LabeledSampleSet([0.5, 0.5], [0, 1])
        with pytest.raises(InputError):
            fit_logistic_linear(samples)


def _fit_rows_corpus(m):
    """(x, y) rows of length m that stop the Newton loop in every way: at
    different steps, on one outcome class, on a constant or nearly constant
    covariate, at the start point and on separated outcomes."""
    rng = np.random.default_rng(m)
    xs, ys = [], []
    for bias in (-1.5, -0.5, 0.0, 0.5, 2.0):
        for _ in range(3):
            x = rng.uniform(-3.0, 3.0, m)
            xs.append(x)
            ys.append((rng.random(m) < expit_array(bias + 0.8 * x)).astype(int))
    xs.append(rng.uniform(-3.0, 3.0, m))
    ys.append(np.ones(m, int))
    xs.append(np.full(m, 0.25))
    ys.append(np.arange(m) % 2)
    near = np.ones(m)
    near[1] += 2.0**-52
    xs.append(near)
    ys.append((np.arange(m) % 3 > 0).astype(int))
    xs.append(np.where(np.arange(m) % 2 == 0, -1.0, 1.0))
    ys.append(np.arange(m) // 2 % 2)
    xs.append(np.linspace(-2.0, 2.0, m))
    ys.append((np.arange(m) >= m // 2).astype(int))
    return np.array(xs), np.array(ys)


class TestBatchedLogisticFit:
    @pytest.mark.parametrize("m, max_iter", [(4, 100), (40, 7), (40, 100), (257, 100), (1024, 3)])
    def test_rows_match_the_one_row_loop_bit_for_bit(self, m, max_iter):
        x, y = _fit_rows_corpus(m)
        fits = _fit_logistic_rows(x, y, max_iter)
        for xi, yi, fit in zip(x, y, fits):
            want = logistic_fit_reference(xi, yi, max_iter)
            one = LabeledSampleSet(np.full(m, 0.5), yi, x=xi)
            if isinstance(want, str):
                assert isinstance(fit, FitError) and str(fit) == want
                with pytest.raises(FitError, match=f"^{want}$"):
                    fit_logistic_linear(one, max_iter)
            else:
                assert [v.hex() for v in fit] == [v.hex() for v in want]
                assert fit_logistic_linear(one, max_iter) == fit

    def test_a_mixed_run_fails_exactly_where_the_one_row_fit_raises(self):
        x, y = _fit_rows_corpus(40)
        fits = _fit_logistic_rows(x, y, 7)
        failed = [isinstance(fit, FitError) for fit in fits]
        raised = []
        for xi, yi in zip(x, y):
            try:
                fit_logistic_linear(LabeledSampleSet(np.full(40, 0.5), yi, x=xi), 7)
                raised.append(False)
            except FitError:
                raised.append(True)
        assert failed == raised
        # every way to stop is in the run, and so are fits at several steps
        assert {str(fit) for fit in fits if isinstance(fit, FitError)} == {
            "logistic fit requires both outcome classes",
            "covariate x is constant; the slope is not identified",
            "singular information matrix in logistic fit",
            "logistic fit did not converge in 7 iterations",
        }
        assert failed.count(False) >= 10


class TestConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            SimulationConfig(j_values=(), n_values=(64,))
        with pytest.raises(InputError):
            SimulationConfig(j_values=(0.0,), n_values=(64,), variants=("ehl", "both"))
        with pytest.raises(InputError):
            SimulationConfig(j_values=(0.0,), n_values=(64,), reps=0)
        with pytest.raises(InputError):
            SimulationConfig(j_values=(0.0,), n_values=(64,), s_values=(1.0,))
        with pytest.raises(InputError):
            SimulationConfig(j_values=(0.0,), n_values=(64,), threads=0)

    def test_json_echo(self):
        config = SimulationConfig(j_values=(0.0, 0.1), n_values=(64, 128), seed=9)
        d = config.to_json_dict()
        assert d["j_values"] == [0.0, 0.1]
        assert d["n_values"] == [64, 128]
        assert d["seed"] == 9
        # threads is not echoed, and the dict holds lists, not tuples
        assert "threads" not in d
        assert json.loads(json.dumps(d)) == d


class TestPowerStudy:
    @staticmethod
    def _config(**overrides):
        base = dict(
            j_values=(0.0, 0.1),
            n_values=(64,),
            s_values=(0.5,),
            variants=("ehl", "hl", "oracle"),
            reps=30,
            B=5,
            seed=11,
        )
        base.update(overrides)
        return SimulationConfig(**base)

    def test_cell_grid(self):
        report = run_power_study(self._config())
        assert len(report.cells) == 6
        for j in (0.0, 0.1):
            for variant, s in (("ehl", 0.5), ("hl", None), ("oracle", 0.5)):
                cell = report.cell(j, 64, variant, s)
                assert cell.rep_count + cell.failures == 30
                assert 0.0 <= cell.reject_rate <= 1.0
                if variant == "hl":
                    assert cell.mean_log_e is None and cell.se_log_e is None
                else:
                    assert cell.mean_log_e is not None
                    assert cell.se_log_e > 0.0
        with pytest.raises(KeyError):
            report.cell(0.3, 64, "ehl")

    def test_true_model_has_no_fit_failures(self):
        report = run_power_study(self._config(j_values=(0.0,)))
        for cell in report.cells:
            assert cell.failures == 0
            assert cell.rep_count == 30

    def test_deterministic_and_thread_invariant(self, forced_pool):
        a = run_power_study(self._config())
        b = run_power_study(self._config())
        assert forced_pool == []
        c = run_power_study(self._config(threads=3))
        # one pool per (j, n) cell
        assert forced_pool == [3, 3]
        assert a.to_csv() == b.to_csv() == c.to_csv()
        d = run_power_study(self._config(seed=12))
        assert d.to_csv() != a.to_csv()

    def test_infeasible_j_fails_before_any_replication(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(ehl.simulate, "_one_rep", refuse)
        for overrides, match in (
            (dict(j_values=(0.0, 0.1, 5.0)), "infeasible"),
            # a split that leaves an empty part at the last n
            (dict(n_values=(64, 1), variants=("ehl", "hl")), "empty part"),
            (dict(n_values=(64, 1), variants=("oracle",)), "empty part"),
            # equal-count bins need at least as many rows as bins
            (dict(n_values=(64, 8), variants=("hl",), hl_method="Qplus", hl_bins=10), "exceeds"),
            (dict(n_values=(64, 8), variants=("hl",), hl_method="Qminus", hl_bins=10), "exceeds"),
        ):
            with pytest.raises(InputError, match=match):
                run_power_study(self._config(**overrides))
        # the quantile binnings just realize fewer bins, so they get to run
        with pytest.raises(AssertionError, match="a replication ran"):
            run_power_study(self._config(n_values=(8,), variants=("hl",), hl_bins=10))

    @pytest.mark.parametrize("overrides, match", [
        (dict(threshold=math.nan), "threshold"),
        (dict(threshold=0.0), "threshold"),
        (dict(threshold=-1.0), "threshold"),
        (dict(threshold=math.inf), "threshold"),
        (dict(alpha=math.nan), "alpha"),
        (dict(alpha=2.0), "alpha"),
        # -1 once ran the cells of seed 2^32 - 1
        (dict(seed=-1), "seed must be an integer of at least 0, got -1"),
        # 0 once divided by zero in the run sizing, and -3 was reported as -6
        (dict(n_values=(0,)), "n must be an integer of at least 1, got 0"),
        (dict(n_values=(-3,)), "n must be an integer of at least 1, got -3"),
        # both were refused only inside the first replication
        (dict(hl_bins=0), "bin count must be an integer from 1 to"),
        (dict(hl_method="XX"), "unknown binning method 'XX'"),
    ])
    def test_bad_scalar_is_refused_before_any_replication(self, overrides, match, monkeypatch):
        def refuse(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(ehl.simulate, "_one_rep", refuse)
        with pytest.raises(InputError, match=match):
            run_power_study(self._config(**overrides))

    def test_variants_do_not_change_each_other(self):
        # one draw of each split serves the feasible and the oracle e-value;
        # a study of either alone gives the same cells bit for bit
        every = run_power_study(self._config())
        for variant in ("ehl", "hl", "oracle"):
            alone = run_power_study(self._config(variants=(variant,)))
            for cell in alone.cells:
                want = every.cell(cell.j, cell.n, variant, cell.s)
                assert json.dumps(cell.to_json_dict()) == json.dumps(want.to_json_dict())

    def test_csv_layout(self):
        report = run_power_study(self._config(j_values=(0.1,), reps=10))
        lines = report.to_csv().splitlines()
        assert lines[0].startswith("# ehl simulate version=")
        assert "seed=11" in lines[0]
        assert lines[1] == "j,n,s,variant,rep_count,reject_rate,mean_log_e,failures,se_log_e"
        assert len(lines) == 2 + 3
        by_variant = {ln.split(",")[3]: ln.split(",") for ln in lines[2:]}
        assert set(by_variant) == {"ehl", "hl", "oracle"}
        # hl rows leave the split fraction and the log e columns empty
        assert by_variant["hl"][2] == "" and by_variant["hl"][6] == ""
        assert by_variant["hl"][8] == ""
        assert by_variant["ehl"][2] == "0.5"
        assert float(by_variant["ehl"][0]) == 0.1
        cell = report.cell(0.1, 64, "ehl", 0.5)
        assert float(by_variant["ehl"][5]) == cell.reject_rate
        assert float(by_variant["ehl"][6]) == cell.mean_log_e
        assert int(by_variant["ehl"][7]) == cell.failures
        assert float(by_variant["ehl"][8]) == cell.se_log_e

    def test_json_roundtrip(self):
        report = run_power_study(self._config(j_values=(0.0,), reps=8))
        d = report.to_json_dict()
        text = json.dumps(d, sort_keys=True)
        back = json.loads(text)
        assert back == d
        assert back["config"]["reps"] == 8
        assert len(back["cells"]) == 3
        assert {c["variant"] for c in back["cells"]} == {"ehl", "hl", "oracle"}

    def test_multiple_split_fractions(self):
        report = run_power_study(
            self._config(j_values=(0.1,), s_values=(0.25, 0.5), variants=("ehl",), reps=8)
        )
        assert len(report.cells) == 2
        assert {c.s for c in report.cells} == {0.25, 0.5}

    def test_per_split_log_e_matches_the_per_replicate_reference(self, monkeypatch):
        # every split of replication r at fraction index si is drawn from
        # default_rng([seed, 1, ji, ni, r, si, b]), whatever run of
        # replications it was seeded with
        monkeypatch.setattr(ehl.numeric, "_RUN_CELLS", 256)
        config = self._config(
            j_values=(0.0, 0.1), n_values=(24, 64), s_values=(1 / 3, 0.5), reps=13, B=7,
            seed=2**32 + 5,
        )
        seen = []
        one_rep, runs = ehl.simulate._one_rep, ehl.simulate._runs

        def spy_one_rep(config, n, predicted, splits):
            seen.append((predicted, []))
            return one_rep(config, n, predicted, splits)

        def spy_runs(*args):
            out = runs(*args)
            seen[-1][1].append(out)
            return out

        monkeypatch.setattr(ehl.simulate, "_one_rep", spy_one_rep)
        monkeypatch.setattr(ehl.simulate, "_runs", spy_runs)
        report = run_power_study(config)
        # each replication found again by its validation covariates
        where = {}
        for ji, j in enumerate(config.j_values):
            model = solve_quadratic_betas(j)
            for ni, n in enumerate(config.n_values):
                for r in range(config.reps):
                    rng = np.random.default_rng([config.seed, 0, ji, ni, r])
                    data = generate_data(2 * n, model, rng)
                    where[data.x[n:].tobytes()] = (ji, ni, r)
        failures = sum(c.failures for c in report.cells if c.variant == "hl")
        assert len(seen) == len(where) - failures
        log_e = {}
        for predicted, per_s in seen:
            ji, ni, r = where[predicted.x.tobytes()]
            p, y, pi = predicted.p, predicted.y, predicted.pi_bar
            terms = np.where(y == 1, np.log(pi) - np.log(p), np.log1p(-pi) - np.log1p(-p))
            assert len(per_s) == len(config.s_values)
            for si, (s, got) in enumerate(zip(config.s_values, per_s)):
                key = (config.seed, 1, ji, ni, r, si)
                want = split_reference(p, y, s, key, config.B, terms)
                for variant, column in (("ehl", 0), ("oracle", 1)):
                    values = [split[column] for split in got]
                    assert [v.hex() for v in values] == [w[column].hex() for w in want]
                    log_e.setdefault((ji, ni, variant, s), []).append(
                        logsumexp(values) - math.log(config.B)
                    )
        # and the cells are the means of those log e-values
        for (ji, ni, variant, s), logs in log_e.items():
            cell = report.cell(config.j_values[ji], config.n_values[ni], variant, s)
            assert cell.mean_log_e == float(np.mean(logs))

    def test_oracle_tracks_feasible_on_shared_splits(self):
        # same replication, same split stream: the oracle uses the true
        # curve instead of the fitted isotonic alternative
        report = run_power_study(self._config(j_values=(0.1,), reps=40, seed=2))
        feas = report.cell(0.1, 64, "ehl", 0.5)
        orac = report.cell(0.1, 64, "oracle", 0.5)
        assert feas.rep_count == orac.rep_count
        spread = 3.0 * math.hypot(feas.se_log_e, orac.se_log_e)
        assert orac.mean_log_e >= feas.mean_log_e - spread
