import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from rankmix.data import DataError
from rankmix.model import (
    Design,
    _logsumexp,
    ModelSpec,
    Parameters,
    bic,
    count_parameters,
    mixture_loglik,
    mixture_score,
    pairwise_win_prob,
    worths,
)

from conftest import make_data, shared_space
import oracles

# brute-force pattern probabilities for J=3, effects (0.5, 0.2, 0),
# frozen from the pairwise-product oracle in oracles.ranking_probabilities
PROBS_3_ITEMS = [
    0.35676564789287735,
    0.23914716551948823,
    0.19579713892223533,
    0.07202974204967917,
    0.08797732560904373,
    0.04828298000667617,
]
# literal summation over the same distribution with counts (7,3,5,2,4,1)
COUNTS_3 = [7, 3, 5, 2, 4, 1]
LOGLIK_3 = -37.67487554724647
DEVIANCE_3 = 3.135621701050013


def design_for(counts, n_classes=1, factor_levels=None, terms=()):
    counts = np.asarray(counts)
    n_items = {6: 3, 24: 4}[counts.shape[-1]]
    data = make_data(n_items, counts, factor_levels=factor_levels)
    labels = tuple("ABCD"[:n_items])
    spec = ModelSpec(labels, tuple(terms), n_classes)
    return Design(spec, data), data


class TestPairwiseProb:
    def test_equal_effects(self):
        assert pairwise_win_prob(0.7, 0.7) == pytest.approx(0.5)

    def test_worth_ratio_two_to_one(self):
        assert pairwise_win_prob(0.5 * math.log(2), 0.0) == pytest.approx(2 / 3)

    def test_monotone_to_one(self):
        values = [pairwise_win_prob(x, 0.0) for x in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-6)
        # saturation at extreme effects stays inside [0, 1]
        assert pairwise_win_prob(200.0, 0.0) <= 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pairwise_win_prob(float("nan"), 0.0)
        with pytest.raises(ValueError):
            pairwise_win_prob(0.0, float("inf"))


class TestWorths:
    def test_uniform_at_zero(self):
        assert worths(np.zeros(4)) == pytest.approx(np.full(4, 0.25))

    def test_two_items(self):
        assert worths([0.5 * math.log(2), 0.0]) == pytest.approx([2 / 3, 1 / 3])

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=6),
           st.floats(-5, 5))
    def test_translation_invariant(self, effects, shift):
        base = worths(effects)
        shifted = worths(np.asarray(effects) + shift)
        assert np.abs(base - shifted).max() < 1e-10
        assert base.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(base > 0)


class TestLinearPredictor:
    def test_zero_coefficients_zero_eta(self):
        design, _ = design_for(np.ones(6))
        eta = design.eta(np.zeros(design.n_coefficients))
        assert np.abs(eta).max() == 0.0

    def test_identity_pattern_doubles_first_effect(self):
        # ranking 1>2>3 has eta = 2*lambda_1 when lambda_2 = lambda_3 = 0
        design, _ = design_for(np.ones(6))
        coefs = np.array([0.37, 0.0])
        assert design.linear_predictor(coefs, 0, 0, 0) == pytest.approx(2 * 0.37)
        # algebraic expansion for the general case
        coefs = np.array([0.37, -0.11])
        expected = (0.37 - -0.11) + 0.37 + -0.11
        assert design.linear_predictor(coefs, 0, 0, 0) == pytest.approx(expected)

    def test_single_flip_pairs_differ_by_twice_effect_gap(self, space4):
        design, _ = design_for(np.ones(24))
        rng = np.random.default_rng(4)
        coefs = rng.normal(0, 0.8, design.n_coefficients)
        effects = np.append(coefs, 0.0)
        eta = design.eta(coefs)[0, :, 0]
        patterns = space4.patterns
        for la in range(space4.size):
            for lb in range(space4.size):
                diff = patterns[la] != patterns[lb]
                if diff.sum() != 1:
                    continue
                pos = int(np.nonzero(diff)[0][0])
                pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
                i, j = pairs[pos]
                sign = patterns[la][pos]
                gap = eta[la] - eta[lb]
                assert gap == pytest.approx(2 * sign * (effects[i] - effects[j]),
                                            abs=1e-10)


class TestPatternProbs:
    def test_uniform_at_zero(self):
        design, _ = design_for(np.ones(24), n_classes=2,
                               factor_levels=None)
        probs = design.pattern_probs(np.zeros(design.n_coefficients), 0, 1)
        assert probs == pytest.approx(np.full(24, 1 / 24))

    def test_matches_bruteforce_oracle(self):
        design, _ = design_for(np.ones(6))
        probs = design.pattern_probs(np.array([0.5, 0.2]), 0, 0)
        assert probs == pytest.approx(PROBS_3_ITEMS, abs=1e-12)

    def test_single_flip_probability_ratio(self):
        design, _ = design_for(np.ones(6))
        probs = design.pattern_probs(np.array([0.5, 0.2]), 0, 0)
        # patterns 0 and 2 differ only in the (0,1) comparison
        ratio = probs[0] / probs[2]
        assert math.log(ratio) == pytest.approx(2 * (0.5 - 0.2), abs=1e-10)

    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=2))
    def test_normalization(self, coef_list):
        design, _ = design_for(np.ones(6))
        probs = design.pattern_probs(np.array(coef_list), 0, 0)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_translation_invariance_via_shared_shift(self):
        # adding a constant to every item effect cannot be expressed in the
        # reference-coded design, so check on the worth/probability scale
        design, _ = design_for(np.ones(6))
        base = design.pattern_probs(np.array([0.5, 0.2]), 0, 0)
        shifted_effects = np.array([0.5 + 0.9, 0.2 + 0.9, 0.9])
        eta = design.data.space.score_matrix() @ shifted_effects
        direct = np.exp(eta - eta.max())
        direct /= direct.sum()
        assert base == pytest.approx(direct, abs=1e-10)


class TestLogsumexp:
    @pytest.mark.parametrize("axis", [1, 2])
    def test_matches_scipy(self, axis):
        # (K, L, R) like the cell arrays: axis 1 normalizes over patterns,
        # axis 2 mixes over classes
        a = np.random.default_rng(5).normal(0.0, 3.0, (3, 6, 4))
        a[0, 0, :] += 700.0
        a[0, 1, :] -= 700.0
        a[0, :, 0] += 700.0
        a[1, 2, :] = -np.inf  # a whole class slice
        a[2, :, 1] = -np.inf  # a whole pattern slice
        ours = _logsumexp(a, axis=axis)
        ref = logsumexp(a, axis=axis, keepdims=True)
        assert ours.shape == ref.shape
        assert np.array_equal(np.isneginf(ours), np.isneginf(ref))
        assert np.isneginf(ours).any()
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)


class TestMixtureLoglik:
    def test_single_class_matches_frozen_oracle(self):
        design, data = design_for(COUNTS_3)
        params = Parameters(np.array([0.5, 0.2]), np.array([1.0]))
        loglik, deviance = mixture_loglik(params, design, data)
        assert loglik == pytest.approx(LOGLIK_3, abs=1e-10)
        assert deviance == pytest.approx(DEVIANCE_3, abs=1e-10)

    def test_single_class_matches_live_oracle(self):
        design, data = design_for(COUNTS_3)
        params = Parameters(np.array([0.5, 0.2]), np.array([1.0]))
        loglik, _ = mixture_loglik(params, design, data)
        direct = oracles.mixture_loglik_direct(
            data.counts, {(0, 0): np.array([0.5, 0.2, 0.0])}, [1.0]
        )
        assert loglik == pytest.approx(direct, abs=1e-10)

    def test_mixture_matches_live_oracle(self):
        design, data = design_for(
            [[4, 1, 2, 0, 3, 1], [0, 2, 5, 1, 0, 2]],
            n_classes=2,
            factor_levels=["a", "b"],
            terms=("g",),
        )
        rng = np.random.default_rng(7)
        coefs = rng.normal(0, 0.5, design.n_coefficients)
        params = Parameters(coefs, np.array([0.3, 0.7]))
        loglik, _ = mixture_loglik(params, design, data)
        effects = design.item_effects(coefs)
        table = {
            (k, r): effects[:, k, r] for k in range(2) for r in range(2)
        }
        direct = oracles.mixture_loglik_direct(data.counts, table, [0.3, 0.7])
        assert loglik == pytest.approx(direct, abs=1e-10)

    def test_uniform_counts_saturate_null_model(self):
        design, data = design_for(np.full(6, 5))
        params = Parameters(np.zeros(2), np.array([1.0]))
        _, deviance = mixture_loglik(params, design, data)
        assert deviance == pytest.approx(0.0, abs=1e-10)

    def test_empty_covariate_set_is_an_error(self):
        design, data = design_for([[1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0]],
                                  factor_levels=["a", "b"])
        params = Parameters(np.zeros(design.n_coefficients), np.array([1.0]))
        with pytest.raises(DataError, match="no respondents"):
            mixture_loglik(params, design, data)


class TestScore:
    @pytest.mark.parametrize("point", range(10))
    def test_matches_central_differences(self, point):
        # J=3, two covariate sets, two classes
        design, data = design_for(
            [[6, 3, 4, 1, 2, 1], [2, 5, 1, 3, 1, 4]],
            n_classes=2,
            factor_levels=["a", "b"],
            terms=("g",),
        )
        rng = np.random.default_rng(100 + point)
        coefs = rng.normal(0, 0.7, design.n_coefficients)
        gamma = rng.normal(0, 0.5)
        mixing = np.array([math.exp(gamma), 1.0])
        mixing /= mixing.sum()
        params = Parameters(coefs, mixing)
        analytic = mixture_score(params, design, data)

        def loglik_at(psi):
            c = psi[: design.n_coefficients]
            g = psi[design.n_coefficients]
            mix = np.array([math.exp(g), 1.0])
            mix /= mix.sum()
            value, _ = mixture_loglik(Parameters(c, mix), design, data)
            return value

        psi = np.append(coefs, gamma)
        h = 1e-6
        numeric = np.empty_like(psi)
        for c in range(psi.size):
            hi, lo = psi.copy(), psi.copy()
            hi[c] += h
            lo[c] -= h
            numeric[c] = (loglik_at(hi) - loglik_at(lo)) / (2 * h)
        scale = max(np.abs(numeric).max(), 1.0)
        assert np.abs(analytic - numeric).max() / scale < 1e-5


class TestParameterCount:
    def make_eight_set_design(self, n_classes):
        # J=6 with AGE (4 levels) x SEX (2 levels): 8 covariate sets
        space = shared_space(6)
        from rankmix.data import AggregatedData, CovariateDecl, CovariateSet

        sets = []
        k = 0
        for age in ("a1", "a2", "a3", "a4"):
            for sex in ("m", "f"):
                sets.append(CovariateSet(k, (age, sex), ()))
                k += 1
        counts = np.ones((8, space.size), dtype=np.int64)
        data = AggregatedData(
            space=space,
            declarations=(
                CovariateDecl("AGE", "factor"),
                CovariateDecl("SEX", "factor"),
            ),
            covariate_sets=tuple(sets),
            counts=counts,
        )
        return data

    def test_null_model_thirteen(self):
        data = self.make_eight_set_design(1)
        assert data.n_cells == 5760
        spec = ModelSpec(tuple("uvwxyz"), (), 1)
        assert count_parameters(Design(spec, data)) == 13

    def test_additive_model_thirty_three(self):
        data = self.make_eight_set_design(1)
        spec = ModelSpec(tuple("uvwxyz"), ("AGE", "SEX"), 1)
        assert count_parameters(Design(spec, data)) == 33

    def test_six_classes_fifty_eight(self):
        data = self.make_eight_set_design(6)
        spec = ModelSpec(tuple("uvwxyz"), ("AGE", "SEX"), 6)
        assert count_parameters(Design(spec, data)) == 58

    def test_interaction_model_forty_eight(self):
        data = self.make_eight_set_design(1)
        spec = ModelSpec(tuple("uvwxyz"), ("AGE", "SEX", "AGE:SEX"), 1)
        assert count_parameters(Design(spec, data)) == 48

    def test_counting_masses_mode(self):
        data = self.make_eight_set_design(6)
        spec = ModelSpec(tuple("uvwxyz"), ("AGE", "SEX"), 6)
        assert count_parameters(Design(spec, data), count_masses=True) == 63


class TestBic:
    @pytest.mark.parametrize(
        "value,n_params,printed",
        [(21293, 13, 21406), (12494, 18, 12650), (8667, 58, 9170)],
    )
    def test_published_arithmetic(self, value, n_params, printed):
        assert abs(round(bic(value, n_params, 5760)) - printed) <= 1

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            bic(10.0, 2, 0)
