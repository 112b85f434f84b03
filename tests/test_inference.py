import dataclasses
import functools
import math

import numpy as np
import pytest

from rankmix.fitting import FitConfig, fit
from rankmix.inference import (
    StandardErrorError,
    corrected_se,
    hessian_standard_errors,
    observed_information,
    raw_em_standard_errors,
    standard_error_report,
)
from rankmix.model import (
    ModelSpec,
    Parameters,
    mixture_loglik,
    posterior_weights,
)

from conftest import make_data
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

    def test_constrained_refit_never_beats_unconstrained(self):
        result, data = two_class_two_set_fit()
        for name in ("A", "A:class1"):
            _, drop = corrected_se(result, data, name)
            assert drop > 0


class TestObservedInformation:
    def test_quadratic_single_parameter(self):
        # loglik = -(x - a)^2 / (2 s^2): the SE must equal s
        a, s = 0.7, 0.35

        def score(psi):
            return np.array([-(psi[0] - a) / s**2])

        info, asym = observed_information(score, np.array([0.2]))
        assert asym == pytest.approx(0.0, abs=1e-10)
        assert 1.0 / math.sqrt(info[0, 0]) == pytest.approx(s, abs=1e-8)

    def test_symmetry_under_difference_order_swap(self):
        result, data = two_class_two_set_fit()
        _, info, asymmetry = hessian_standard_errors(result, data)
        assert asymmetry / np.abs(info).max() < 1e-8


class TestHessianSE:
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
