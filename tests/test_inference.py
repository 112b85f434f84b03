import dataclasses
import functools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import rankmix.inference as inference
from rankmix.data import CovariateDecl, aggregate
from rankmix.fitting import FitConfig, _damped_newton, fit
from rankmix.inference import (
    StandardErrorError,
    corrected_se,
    hessian_standard_errors,
    raw_em_standard_errors,
    standard_error_report,
)
from rankmix.model import (
    ModelSpec,
    Parameters,
    _Enumeration,
    mixture_loglik,
    mixture_score,
    posterior_weights,
)

from conftest import make_data, shared_space
import oracles


@functools.lru_cache(maxsize=None)
def two_class_two_set_fit(seed=42, n=6000, separation=0.55):
    rng = np.random.default_rng(seed)

    def counts_for(shift):
        p1 = oracles.ranking_probabilities([0.15 + shift + separation, 0.25, 0.0])
        p2 = oracles.ranking_probabilities([0.15 + shift - separation, -0.15, 0.0])
        return rng.multinomial(n, 0.55 * p1 + 0.45 * p2)

    counts = np.vstack([counts_for(0.0), counts_for(0.3)])
    data = make_data(3, counts, factor_levels=["a", "b"])
    spec = ModelSpec(("A", "B", "C"), ("g",), 2)
    result = fit(spec, data, FitConfig(n_starts=10, seed=3))
    assert result.converged
    return result, data


@functools.lru_cache(maxsize=None)
def single_class_fit(seed=3, n=2000):
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, oracles.ranking_probabilities([0.3, -0.2, 0.0]))
    data = make_data(3, counts)
    result = fit(ModelSpec(("A", "B", "C"), (), 1), data, FitConfig(seed=1))
    return result, data


class TestCorrectedSE:
    def test_formula_arithmetic(self):
        # |estimate| / sqrt(drop in 2 log L)
        assert 0.169 / math.sqrt(88.2) == pytest.approx(0.0180, abs=5e-5)

    def test_wald_equals_likelihood_ratio(self):
        result, data = single_class_fit()
        for i, coef in enumerate(result.design.coefficients):
            se, drop = corrected_se(result, data, i)
            wald = (result.params.coefficients[i] / se) ** 2
            assert wald == pytest.approx(drop, rel=1e-6)

    def test_accepts_coefficient_names(self):
        result, data = single_class_fit()
        by_name, _ = corrected_se(result, data, "A")
        by_index, _ = corrected_se(result, data, 0)
        assert by_name == by_index

    def test_raw_and_corrected_close_for_single_class(self):
        result, data = single_class_fit()
        raw = raw_em_standard_errors(result, data)
        for i in range(result.design.n_coefficients):
            se, _ = corrected_se(result, data, i)
            assert se / raw[i] == pytest.approx(1.0, abs=0.1)

    def test_zero_coefficient_rejected(self):
        result, data = single_class_fit()
        params = result.params.copy()
        params.coefficients[0] = 0.0
        forged = dataclasses.replace(
            result, params=params,
            posteriors=posterior_weights(params, result.design),
        )
        with pytest.raises(ValueError, match="already zero"):
            corrected_se(forged, data, 0)

    def test_drops_match_converged_em_refits(self):
        # EM refits that held each coefficient at zero, resumed from the
        # fit's posterior weights and ran to tol=1e-10 (96 to 7977
        # iterations) gave these drops
        em = {"A": 44.75815379, "B": 147.21981083, "A:g=b": 269.08179451,
              "B:g=b": 1.24207129, "A:class1": 350.81667406,
              "B:class1": 162.77970380}
        result, data = two_class_two_set_fit()
        report = standard_error_report(result, data, methods=("corrected",))
        for row in report.rows:
            assert row.note is None
            assert row.lr_drop == pytest.approx(em[row.name], abs=1e-5)

    @pytest.mark.parametrize("options", [{"degenerate_mass": 0.5},
                                         {"degenerate_offset": 0.1}])
    def test_degenerate_refit_raises(self, options):
        # the fit's masses are about 0.55 / 0.45 and its class offsets
        # larger than 0.1, so the refit of A ends past either threshold
        result, data = two_class_two_set_fit()
        with pytest.raises(StandardErrorError, match="refit for 'A' degenerated"):
            corrected_se(result, data, "A", FitConfig(**options))

    @pytest.mark.parametrize("ratio", [-700.0, 700.0])
    def test_refit_whose_class_empties_stops_unconverged(self, ratio):
        # A held at zero and the mass log-ratio moved so far that a class is
        # all but empty: the chain stops at its start, unconverged, where it
        # would otherwise reach a flat point 275 below the fit (-700) or fail
        # with a singular information (+700)
        result, _ = two_class_two_set_fit()
        design = result.design
        held = design.name_to_index["A"]
        start = result.params.theta[None].copy()
        start[0, [held, -1]] = 0.0, ratio
        (chain,) = _damped_newton(design, start, [held], 200,
                                  FitConfig().degenerate_mass)
        point, _, converged = chain
        assert not converged
        assert np.array_equal(point, start[0])

    def test_constrained_refit_never_beats_unconstrained(self):
        result, data = two_class_two_set_fit()
        for name in ("A", "A:class1"):
            _, drop = corrected_se(result, data, name)
            assert drop > 0


class TestHessianSE:
    def test_information_matches_oracle_hessian_off_the_optimum(self):
        # J=3, R=2, a factor and a continuous term, two simulated classes.
        # The point is a random step away from the fit, so the score is not
        # zero there and the score terms of Louis's identity matter; a
        # random point far from the fit has an indefinite information.
        rng = np.random.default_rng(31)
        orders = oracles.enumerate_order_vectors(3)
        rows = []
        for _ in range(300):
            g, x = rng.choice(["a", "b"]), rng.choice([-1.0, 0.5, 2.0])
            effects = ([1.0, 0.5, 0.0] if rng.random() < 0.4
                       else [-0.8, 0.2, 0.0])
            effects = np.add(effects, [0.3 * (g == "b") + 0.2 * x, 0.0, 0.0])
            order = orders[rng.choice(6, p=oracles.ranking_probabilities(effects))]
            rows.append((np.argsort(order) + 1, {"g": str(g), "x": float(x)}))
        data = aggregate(shared_space(3), rows,
                         [CovariateDecl("g", "factor"),
                          CovariateDecl("x", "continuous")])
        spec = ModelSpec(("A", "B", "C"), ("g", "x"), 2)
        result = fit(spec, data, FitConfig(n_starts=2))
        design = result.design
        p = design.n_coefficients
        params = Parameters(result.params.coefficients + rng.normal(0.0, 0.1, p),
                            result.params.mixing + [0.05, -0.05])
        forged = dataclasses.replace(
            result, params=params,
            posteriors=posterior_weights(params, design),
        )
        assert np.abs(mixture_score(params, design, data)).max() > 1.0
        _, info, _ = hessian_standard_errors(forged, data)

        def loglik(psi):
            # psi = (coefficients, log q1 / q2)
            mixing = np.exp(np.append(psi[p:], 0.0))
            effects = design.item_effects(psi[:p])
            table = {(k, r): effects[:, k, r]
                     for k in range(design.n_sets) for r in range(2)}
            return oracles.mixture_loglik_direct(data.counts, table,
                                                 mixing / mixing.sum())

        point = np.append(params.coefficients,
                          math.log(params.mixing[0] / params.mixing[1]))
        hess = oracles.numerical_hessian(loglik, point)
        assert np.abs(info + hess).max() <= 1e-6 * np.abs(hess).max()

    def test_single_class_matches_oracle_hessian(self):
        result, data = single_class_fit()
        ses, _, _ = hessian_standard_errors(result, data)

        def literal_loglik(theta):
            table = {(0, 0): np.append(theta, 0.0)}
            return oracles.mixture_loglik_direct(data.counts, table, [1.0])

        hess = oracles.numerical_hessian(literal_loglik,
                                         result.params.coefficients)
        oracle_ses = np.sqrt(np.diag(np.linalg.inv(-hess)))
        assert ses == pytest.approx(oracle_ses, abs=1e-4)

    def test_single_class_equals_raw(self):
        # one class: every posterior weight is 1, so the missing information
        # is zero, the observed information is the complete-data one, and
        # it has no mass block
        result, data = single_class_fit()
        hess, info, _ = hessian_standard_errors(result, data)
        raw = raw_em_standard_errors(result, data)
        assert info.shape == (result.design.n_coefficients,) * 2
        assert np.abs(hess / raw - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("call", [
        lambda fit, data: raw_em_standard_errors(fit, data),
        lambda fit, data: hessian_standard_errors(fit, data),
        lambda fit, data: mixture_score(fit.params, fit.design, data),
    ], ids=["raw", "hessian", "score"])
    def test_one_normalizer_call(self, monkeypatch, call):
        # the score and both informations come from one pass over the
        # patterns at the fit's parameters
        result, data = two_class_two_set_fit()
        calls = []
        moments = _Enumeration.moments

        def counted(self, a):
            calls.append(1)
            return moments(self, a)

        monkeypatch.setattr(_Enumeration, "moments", counted)
        call(result, data)
        assert len(calls) == 1

    def test_report_takes_one_pass_before_the_refits(self, monkeypatch):
        # the raw SEs, the Hessian SEs and the refit starts share one
        # information at the fit's parameters
        result, data = two_class_two_set_fit()
        calls = []
        moments, refits = _Enumeration.moments, inference._damped_newton

        def counted(self, a):
            calls.append("pass")
            return moments(self, a)

        def refit(*args):
            calls.append("refit")
            return refits(*args)

        monkeypatch.setattr(_Enumeration, "moments", counted)
        monkeypatch.setattr(inference, "_damped_newton", refit)
        report = standard_error_report(result, data, methods=("all",))
        assert calls[:calls.index("refit")] == ["pass"]
        assert all(row.se_raw and row.se_hessian and row.se_corrected
                   for row in report.rows)

    def test_identical_classes_reported_as_flat(self):
        rng = np.random.default_rng(8)
        counts = rng.multinomial(500, oracles.ranking_probabilities([0.4, 0.1, 0.0]))
        data = make_data(3, counts)
        result = fit(ModelSpec(("A", "B", "C"), (), 2), data,
                     FitConfig(n_starts=4, seed=2))
        params = Parameters(np.array([0.4, 0.1, 0.0, 0.0]), np.array([0.5, 0.5]))
        forged = dataclasses.replace(
            result, params=params,
            posteriors=posterior_weights(params, result.design),
        )
        with pytest.raises(StandardErrorError, match="not positive definite"):
            hessian_standard_errors(forged, data)

    def test_shrinks_like_root_n(self):
        # variance of the estimates should halve per doubling of N
        rng = np.random.default_rng(77)

        def counts_for(n):
            p1a = oracles.ranking_probabilities([0.8, 0.25, 0.0])
            p2a = oracles.ranking_probabilities([-0.6, -0.1, 0.0])
            p1b = oracles.ranking_probabilities([1.1, 0.25, 0.0])
            p2b = oracles.ranking_probabilities([-0.3, -0.1, 0.0])
            return np.vstack(
                [
                    rng.multinomial(n, 0.55 * p1a + 0.45 * p2a),
                    rng.multinomial(n, 0.55 * p1b + 0.45 * p2b),
                ]
            )

        spec = ModelSpec(("A", "B", "C"), ("g",), 2)
        ses = []
        for n in (500, 1000, 2000, 4000, 8000):
            data = make_data(3, counts_for(n), factor_levels=["a", "b"])
            result = fit(spec, data, FitConfig(n_starts=8, seed=5))
            se_n, _, _ = hessian_standard_errors(result, data)
            ses.append(se_n)
        ses = np.array(ses)
        variance_ratios = (ses[1:] / ses[:-1]) ** 2
        assert 0.45 <= variance_ratios.mean() <= 0.55


class TestCrossMethod:
    def test_corrected_and_hessian_agree_on_well_conditioned_fit(self):
        result, data = two_class_two_set_fit()
        hess, _, _ = hessian_standard_errors(result, data)
        ratios = []
        for i in range(result.design.n_coefficients):
            se, _ = corrected_se(result, data, i)
            ratios.append(se / hess[i])
        assert 0.8 <= float(np.median(ratios)) <= 1.2

    def test_corrected_exceeds_raw_on_mixture_fits(self):
        result, data = two_class_two_set_fit()
        raw = raw_em_standard_errors(result, data)
        ratios = []
        for i in range(result.design.n_coefficients):
            se, _ = corrected_se(result, data, i)
            ratios.append(se / raw[i])
        assert all(r > 1.0 for r in ratios)


class TestReport:
    def test_report_rows_cover_all_methods(self):
        result, data = single_class_fit()
        report = standard_error_report(result, data, methods=("all",))
        assert len(report.rows) == result.design.n_coefficients
        for row in report.rows:
            assert row.se_raw is not None and row.se_raw > 0
            assert row.se_corrected is not None and row.se_corrected > 0
            assert row.se_hessian is not None and row.se_hessian > 0
            assert row.lr_drop is not None and row.lr_drop > 0

    def test_failed_coefficient_recorded_in_note(self):
        result, data = single_class_fit()
        params = result.params.copy()
        params.coefficients[0] = 0.0
        forged = dataclasses.replace(
            result, params=params,
            posteriors=posterior_weights(params, result.design),
        )
        report = standard_error_report(forged, data, methods=("corrected",))
        assert report.rows[0].se_corrected is None
        assert "zero" in report.rows[0].note
        assert report.by_name("B").se_corrected is not None

    def test_recovery_study_script_runs(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = subprocess.run(
            [sys.executable, str(root / "scripts" / "recovery_study.py"),
             "--reps", "1", "--n", "2000", "--max-classes", "2", "--starts", "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[0].startswith("rep  0  selected R=")
        assert "R=1: BIC" in lines[0] and "R=2: BIC" in lines[0]
        assert "replications" in out.stdout

    def test_se_methods_study_script_runs(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = subprocess.run(
            [sys.executable, str(root / "scripts" / "se_methods_study.py"),
             "--sizes", "1000", "--starts", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        table = [line.split() for line in out.stdout.splitlines()
                 if line.startswith("  ") and "estimate" not in line]
        names = ["A", "B", "A:g=b", "B:g=b", "A:class1", "B:class1"]
        assert [cells[0] for cells in table] == names
        for cells in table:
            assert math.isfinite(float(cells[-1]))
