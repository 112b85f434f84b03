import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from rankmix.data import AggregatedData, CovariateDecl, CovariateSet, DataError, aggregate
import rankmix.model as model
from rankmix.fitting import FitConfig
from rankmix.model import (
    Design,
    RankDeficientDesignError,
    _coefficient_score,
    _information,
    _logsumexp,
    _structural_information,
    ModelSpec,
    Parameters,
    bic,
    count_parameters,
    mixture_loglik,
    mixture_score,
    pairwise_win_prob,
    posterior_weights,
    worths,
)

from conftest import make_data, shared_space, table_cells
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


def design_for_items(n_items):
    """A one-set, one-class design over every ranking of ``n_items`` items."""
    data = make_data(n_items, np.ones(math.factorial(n_items)))
    return Design(ModelSpec(tuple("ABCDEF"[:n_items])), data), data


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


def linear_predictor(design, coefficients):
    """eta_l = s_l . a of every pattern of the first set and class.

    It is log P less its mean over the patterns, as the net-win scores of
    all orderings of the items sum to zero.
    """
    log_p = design.log_pattern_probs(coefficients)[0, :, 0]
    return log_p - log_p.mean()


class TestLinearPredictor:
    def test_zero_coefficients_zero_eta(self):
        # every pattern has eta 0, so log P is the same for all of them
        design, _ = design_for(np.ones(6))
        log_p = design.log_pattern_probs(np.zeros(design.n_coefficients))
        assert np.abs(log_p - log_p[:, :1]).max() == 0.0

    def test_identity_pattern_doubles_first_effect(self):
        # ranking 1>2>3 has eta = 2*lambda_1 when lambda_2 = lambda_3 = 0
        design, _ = design_for(np.ones(6))
        coefs = np.array([0.37, 0.0])
        assert linear_predictor(design, coefs)[0] == pytest.approx(2 * 0.37)
        # algebraic expansion for the general case
        coefs = np.array([0.37, -0.11])
        expected = (0.37 - -0.11) + 0.37 + -0.11
        assert linear_predictor(design, coefs)[0] == pytest.approx(expected)

    def test_single_flip_pairs_differ_by_twice_effect_gap(self, space4):
        # a gap between two patterns' eta is the gap between their log P
        design, _ = design_for(np.ones(24))
        rng = np.random.default_rng(4)
        coefs = rng.normal(0, 0.8, design.n_coefficients)
        effects = np.append(coefs, 0.0)
        log_p = design.log_pattern_probs(coefs)[0, :, 0]
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
                gap = log_p[la] - log_p[lb]
                assert gap == pytest.approx(2 * sign * (effects[i] - effects[j]),
                                            abs=1e-10)


def pattern_probs(design, coefficients, covariate_set, cls):
    return np.exp(design.log_pattern_probs(coefficients)[covariate_set, :, cls])


class TestPatternProbs:
    def test_uniform_at_zero(self):
        design, _ = design_for(np.ones(24), n_classes=2,
                               factor_levels=None)
        probs = pattern_probs(design, np.zeros(design.n_coefficients), 0, 1)
        assert probs == pytest.approx(np.full(24, 1 / 24))

    def test_matches_bruteforce_oracle(self):
        design, _ = design_for(np.ones(6))
        probs = pattern_probs(design, np.array([0.5, 0.2]), 0, 0)
        assert probs == pytest.approx(PROBS_3_ITEMS, abs=1e-12)

    def test_single_flip_probability_ratio(self):
        design, _ = design_for(np.ones(6))
        probs = pattern_probs(design, np.array([0.5, 0.2]), 0, 0)
        # patterns 0 and 2 differ only in the (0,1) comparison
        ratio = probs[0] / probs[2]
        assert math.log(ratio) == pytest.approx(2 * (0.5 - 0.2), abs=1e-10)

    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=2))
    def test_normalization(self, coef_list):
        design, _ = design_for(np.ones(6))
        probs = pattern_probs(design, np.array(coef_list), 0, 0)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_translation_invariance_via_shared_shift(self):
        # adding a constant to every item effect cannot be expressed in the
        # reference-coded design, so check on the worth/probability scale
        design, _ = design_for(np.ones(6))
        base = pattern_probs(design, np.array([0.5, 0.2]), 0, 0)
        shifted_effects = np.array([0.5 + 0.9, 0.2 + 0.9, 0.9])
        eta = design.data.space.score_matrix() @ shifted_effects
        direct = np.exp(eta - eta.max())
        direct /= direct.sum()
        assert base == pytest.approx(direct, abs=1e-10)


class TestLogNormalizer:
    """The one kernel over the pattern space, against brute-force enumeration."""

    @staticmethod
    def enumerated(effects):
        """log Z, E[s] and Cov[s] over the non-reference items, from the
        pairwise-product oracle and net wins counted off each order vector."""
        j = effects.size
        probs = oracles.ranking_probabilities(effects)
        scores = np.zeros((probs.size, j))
        for l, order in enumerate(oracles.enumerate_order_vectors(j)):
            for pos, item in enumerate(order):
                scores[l, item] = (j - 1 - pos) - pos
        # p_l = exp(s_l . a) / Z at any pattern; the most likely is exact
        mode = np.argmax(probs)
        log_z = scores[mode] @ effects - math.log(probs[mode])
        free = scores[:, :-1]
        mean = probs @ scores
        cov = (np.einsum("l,li,lj->ij", probs, free, free)
               - np.outer(mean[:-1], mean[:-1]))
        return log_z, mean, cov.ravel()

    @pytest.mark.parametrize("n_items", [2, 3, 4, 5, 6])
    def test_log_z_and_moments_match_enumeration(self, n_items):
        design, _ = design_for_items(n_items)
        rng = np.random.default_rng(n_items)
        blocks = np.array([
            np.zeros(n_items),
            rng.normal(0.0, 1.0, n_items),
            rng.normal(0.0, 3.0, n_items),
            # effects of +-50: exp(s . a) overflows without the shift
            50.0 * rng.choice([-1.0, 1.0], n_items),
            np.linspace(-50.0, 50.0, n_items),
        ])
        # a stack of blocks, each its own chain of one set and one class
        log_z, mean, cov, _ = design.enumeration.moments(blocks[:, None, None, :])
        assert np.isfinite(log_z).all()
        for b, effects in enumerate(blocks):
            want_log_z, want_mean, want_cov = self.enumerated(effects)
            assert log_z[b, 0, 0] == pytest.approx(want_log_z, rel=1e-12,
                                                   abs=1e-12)
            assert mean[b, 0, 0] == pytest.approx(want_mean, abs=1e-12)
            assert cov[b, 0, 0] == pytest.approx(want_cov, abs=1e-12)

    @staticmethod
    def two_pass(data, a):
        """log Z, E[s], Cov[s] and the cells' log P at effects ``a`` (B, K, R, J),
        over the dense score matrix: the shifted products, one ``exp`` and a
        row sum give log Z, and the normalized weights the moments."""
        scores = data.space.score_matrix()
        e = a @ scores.T  # (B, K, R, L)
        shift = e.max(axis=-1, keepdims=True)
        w = np.exp(e - shift)
        total = w.sum(axis=-1)
        p = w / total[..., None]
        mean = p @ scores
        free = scores[:, :-1]
        cov = (np.einsum("...l,li,lj->...ij", p, free, free)
               - mean[..., :-1, None] * mean[..., None, :-1])
        log_z = np.log(total) + shift[..., 0]
        logp = (e - log_z[..., None]).transpose(0, 2, 1, 3)
        return (log_z, mean, cov.reshape(cov.shape[:-2] + (-1,)),
                logp[:, :, data.cell_set, data.cell_pattern])

    @given(n_items=st.sampled_from([3, 4, 5]), n_sets=st.integers(1, 4),
           n_classes=st.integers(1, 3), stack=st.integers(1, 5),
           chunk_rows=st.integers(1, 9), seed=st.integers(0, 2 ** 16),
           underflow=st.booleans())
    def test_one_pass_matches_two_passes(self, n_items, n_sets, n_classes, stack,
                                         chunk_rows, seed, underflow):
        # chunks of a few rows: a chain whose K * R block rows outnumber a
        # chunk's is cut inside, and chains that fit share chunks
        L = math.factorial(n_items)
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 3, (n_sets, L)) * (rng.random((n_sets, L)) < 0.5)
        counts[:, 0] += 1
        levels = [f"l{k}" for k in range(n_sets)] if n_sets > 1 else None
        data = make_data(n_items, counts, factor_levels=levels)
        with mock.patch.object(model, "_CHUNK_ENTRIES", chunk_rows * L):
            enumeration = model._Enumeration(data, n_classes)
        a = rng.normal(0.0, 1.0, (stack, n_sets, n_classes, n_items))
        a[..., -1] = 0.0
        if underflow:  # a block whose weights mostly underflow
            a[-1, -1, -1, :-1] = 200.0 * rng.choice([-1.0, 1.0], n_items - 1)
        for got, want in zip(enumeration.moments(a), self.two_pass(data, a)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * max(np.abs(want).max(), 1.0))

    @pytest.mark.parametrize("n_items", [2, 3, 4, 5, 6, 7])
    def test_uniform_closed_form_is_the_pass_at_zero(self, n_items):
        # two chains of three sets and two classes at zero effects
        rng = np.random.default_rng(n_items)
        counts = rng.integers(0, 3, (3, math.factorial(n_items)))
        counts[:, 0] += 1
        design = Design(ModelSpec(tuple("ABCDEFG"[:n_items]), ("g",), 2),
                        make_data(n_items, counts, factor_levels=["a", "b", "c"]))
        enumeration = design.enumeration
        passes = enumeration.moments(np.zeros((2, 3, 2, n_items)))
        closed = enumeration.uniform(2)
        assert len(closed) == len(passes) == 4
        for got, want in zip(closed, passes):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)

    @pytest.mark.parametrize("n_items", [3, 6])
    @pytest.mark.parametrize("n_classes", [1, 2, 3])
    @pytest.mark.parametrize("stack", [1, 3])
    def test_cells_log_p_matches_the_dense_table(self, n_items, n_classes, stack):
        # three sets, about half the cells observed; the last chain's
        # coefficients all sit just inside the degenerate class offset, with
        # the sign of their item, so that the effects add up within a block
        rng = np.random.default_rng(10 * n_items + n_classes)
        L = math.factorial(n_items)
        counts = rng.integers(0, 3, (3, L)) * (rng.random((3, L)) < 0.5)
        counts[:, 0] += 1
        design = Design(ModelSpec(tuple("ABCDEF"[:n_items]), ("g",), n_classes),
                        make_data(n_items, counts, factor_levels=["a", "b", "c"]))
        coefficients = rng.normal(0.0, 1.0, (stack, design.n_coefficients))
        edge = 0.995 * FitConfig().degenerate_offset
        signs = np.where(np.arange(n_items - 1) < n_items // 2, 1.0, -1.0)
        coefficients[-1] = np.tile(edge * signs, design.n_coefficients // (n_items - 1))
        logp = design.enumeration.moments(design.block_effects(coefficients))[3]
        assert logp.shape == (stack, n_classes, design.cell_set.size)
        for b in range(stack):
            dense = design.log_pattern_probs(coefficients[b])
            want = dense[design.cell_set, design.cell_pattern].T
            assert np.abs(logp[b] - want).max() < 1e-12
        if n_items == 6:
            # exp underflows many of the extreme chain's pattern probabilities
            # (most of them in a block with a class offset), while its cells'
            # log P stays finite
            underflow = np.mean(np.exp(dense) == 0.0, axis=1).max()
            assert underflow > (0.5 if n_classes > 1 else 0.4)
        assert np.isfinite(logp).all()


    @staticmethod
    def two_set_design(n_items, seed):
        """Two sets, two classes, about a third of the cells observed."""
        L = math.factorial(n_items)
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 3, (2, L)) * (rng.random((2, L)) < 0.3)
        counts[:, 0] += 1
        data = make_data(n_items, counts, factor_levels=["a", "b"])
        return Design(ModelSpec(tuple("ABCDEF"[:n_items]), ("g",), 2), data)

    def test_design_holds_no_pattern_axis(self):
        # J=5 has L=120 patterns; only the design's enumeration holds arrays
        # over them
        design = self.two_set_design(5, 17)
        assert design.cell_set.size != 120
        arrays = [x for x in vars(design).values() if isinstance(x, np.ndarray)]
        assert arrays and all(120 not in x.shape for x in arrays)

    @pytest.mark.parametrize("n_items", [3, 6])
    def test_cell_rows_are_the_moment_table_at_the_cells(self, n_items):
        # the cells' [1 | s | s_i s_j], built from their own rankings, are the
        # enumeration's moment table rows, bit for bit
        design = self.two_set_design(n_items, n_items)
        want = design.enumeration._moment_table[design.cell_pattern]
        assert design._cell_moments.shape == want.shape
        assert design._cell_moments.tobytes() == want.tobytes()


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


class TestCoefficientLayout:
    """Each coefficient's item effects, read off the design, match the
    effect its name describes, built literally from the covariate sets."""

    @staticmethod
    def design():
        # J=4, R=3: factors g (3 levels) and h (2 levels), their
        # interaction, and a continuous x
        rng = np.random.default_rng(29)
        rows = [
            (rng.permutation(4) + 1,
             {"g": str(rng.choice(["a", "b", "c"])),
              "h": str(rng.choice(["u", "v"])),
              "x": float(rng.choice([-1.0, 0.5, 2.0]))})
            for _ in range(80)
        ]
        data = aggregate(shared_space(4), rows,
                         [CovariateDecl("g", "factor"),
                          CovariateDecl("h", "factor"),
                          CovariateDecl("x", "continuous")])
        spec = ModelSpec(tuple("ABCD"), ("g", "g:h", "x"), 3)
        return Design(spec, data), data

    @staticmethod
    def literal_effect(coef, data, n_items, n_classes):
        factors = ["g", "h"]
        profile = np.ones((data.n_sets, n_classes))
        for k, cset in enumerate(data.covariate_sets):
            if coef.kind == "continuous":
                mean, scale = data.continuous_scale[coef.term]
                profile[k] = (cset.continuous_values[0] - mean) / scale
            elif coef.kind == "factor":
                parts = coef.term.split(":")
                profile[k] = all(cset.factor_levels[factors.index(p)] == lev
                                 for p, lev in zip(parts, coef.levels))
        if coef.kind == "class":
            profile[:] = np.arange(n_classes) == coef.class_index
        effect = np.zeros((n_items, data.n_sets, n_classes))
        effect[coef.item] = profile
        return effect

    def test_unit_coefficient_gives_its_literal_effect(self):
        design, data = self.design()
        assert design.n_coefficients == 3 * (1 + 2 + 2 + 1 + 2)
        assert {c.kind for c in design.coefficients} == {
            "item", "factor", "continuous", "class"}
        for c, coef in enumerate(design.coefficients):
            unit = np.zeros(design.n_coefficients)
            unit[c] = 1.0
            expected = self.literal_effect(coef, data, 4, 3)
            assert np.array_equal(design.item_effects(unit), expected), coef.name

    def test_class_offsets_are_the_class_coefficients(self):
        design, _ = self.design()
        coefs = np.random.default_rng(2).normal(size=design.n_coefficients)
        offsets = design.class_offsets(coefs)
        assert offsets.shape == (4, 3)
        for c, coef in enumerate(design.coefficients):
            if coef.kind == "class":
                assert offsets[coef.item, coef.class_index] == coefs[c]
        assert np.all(offsets[-1] == 0.0) and np.all(offsets[:, -1] == 0.0)


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
        with pytest.raises(DataError, match="no respondents"):
            design_for([[1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0]],
                       factor_levels=["a", "b"])


@st.composite
def factor_designs(draw):
    """J = 3 and one or two factors (u, v) of two or three levels: the
    observed level combinations (all but a drawn few), each a covariate set
    with at least one respondent, and R from 1 to 3. The terms are the
    factors' main effects, with one term drawn again, or one factor
    declaring a level (not its reference) that no respondent has, or
    neither. Returns the data, the terms, R, the columns of X over the sets,
    their labels, and the columns that change added."""
    names = ["u", "v"][:draw(st.integers(1, 2))]
    levels = [[f"{n}{i}" for i in range(draw(st.integers(2, 3)))] for n in names]
    combos = list(itertools.product(*levels))
    dropped = draw(st.lists(st.sampled_from(combos), unique=True,
                            max_size=len(combos) - 1))
    combos = [c for c in combos if c not in dropped]
    counts = np.array([draw(st.lists(st.integers(0, 3), min_size=6, max_size=6))
                       for _ in combos])
    counts[np.arange(len(combos)),
           draw(st.lists(st.integers(0, 5), min_size=len(combos),
                         max_size=len(combos)))] += 1
    terms, change = list(names), draw(st.sampled_from(["none", "duplicate", "unseen"]))
    if change == "duplicate":
        terms.append(draw(st.sampled_from(names)))
    elif change == "unseen":
        f = draw(st.integers(0, len(names) - 1))
        levels[f].insert(draw(st.integers(1, len(levels[f]))), f"{names[f]}_none")
    data = AggregatedData(
        space=shared_space(3),
        declarations=tuple(CovariateDecl(n, "factor", tuple(lv))
                           for n, lv in zip(names, levels)),
        covariate_sets=tuple(CovariateSet(k, c, ()) for k, c in enumerate(combos)),
        **table_cells(counts))
    columns, labels, changed = [np.ones(len(combos))], [""], []
    for i, term in enumerate(terms):
        f = names.index(term)
        for level in levels[f][1:]:
            if i == len(names) or level.endswith("_none"):
                changed.append(len(labels))
            columns.append(np.array([c[f] == level for c in combos], dtype=float))
            labels.append(f":{term}={level}")
    return (data, tuple(terms), draw(st.integers(1, 3)), np.column_stack(columns),
            labels, changed)


class TestAliasing:
    @given(factor_designs())
    def test_design_refuses_exactly_the_columns_that_add_no_rank(self, case):
        # a column adds no rank when the brute-force one-class Hessian at
        # zero effects over the columns up to it has the rank of the one
        # over the columns before it; Design refuses exactly those columns,
        # whatever R, and a full-rank design builds
        data, terms, n_classes, X, labels, changed = case
        counts = data.counts

        def loglik(theta):
            a = X @ theta.reshape(len(labels), 2)
            return oracles.mixture_loglik_direct(
                counts, {(k, 0): np.append(a[k], 0.0) for k in range(len(a))}, [1.0])

        hessian = oracles.numerical_hessian(loglik, np.zeros(2 * len(labels)))
        ranks = [0] + [int(np.sum(np.linalg.eigvalsh(hessian[:2 * q, :2 * q]) < -1e-3))
                       for q in range(1, len(labels) + 1)]
        aliased = [j for j in range(len(labels)) if ranks[j + 1] == ranks[j]]
        assert set(changed) <= set(aliased)
        spec = ModelSpec(("A", "B", "C"), terms, n_classes)
        if not aliased:
            assert Design(spec, data).n_coefficients == 2 * (len(labels) + n_classes - 1)
            return
        with pytest.raises(RankDeficientDesignError) as refused:
            Design(spec, data)
        assert refused.value.columns == [item + labels[j] for j in aliased
                                         for item in ("A", "B")]


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


class TestInformation:
    @pytest.mark.parametrize("n_classes", [1, 2, 3])
    def test_score_is_fishers_identity(self, n_classes):
        # the posterior mean of the complete-data score: over the
        # coefficients, the score of sum m log P at m = n w that the Newton
        # solve of the M step ascends; over the log-masses, the expected
        # class totals minus N q
        design, data = design_for(
            [[6, 3, 4, 1, 2, 1], [2, 5, 1, 3, 1, 4]],
            n_classes=n_classes,
            factor_levels=["a", "b"],
            terms=("g",),
        )
        rng = np.random.default_rng(60 + n_classes)
        params = Parameters(rng.normal(0, 0.7, design.n_coefficients),
                            rng.dirichlet(np.ones(n_classes)))
        score = _information(params, design)[0]
        p = design.n_coefficients
        assert score.shape == (p + n_classes - 1,)
        m = (design.cell_counts[:, None] * posterior_weights(params, design)).T
        m_plus, t = design.block_totals(m)
        mean = design.enumeration.moments(design.block_effects(params.coefficients))[1]
        newton = _coefficient_score(design.x, t, m_plus, mean)
        assert np.abs(score[:p] - newton).max() <= 1e-12 * np.abs(newton).max()
        shares = m.sum(axis=1)[:-1] - design.n_respondents * params.mixing[:-1]
        assert np.abs(score[p:] - shares).max(initial=0.0) <= (
            1e-12 * np.abs(shares).max(initial=1.0))


    def test_structural_information_of_many_classes_is_the_sum_of_its_nonzero_blocks(self):
        # 60 sets (a factor and a distinct continuous value each), J = 4,
        # R = 30: the information is sum_kr (X_kr X_kr') (x) m_plus Cov_kr over
        # the dense block rows X_kr = [x_k, e_r], and is formed within 2 MB,
        # as the class-by-class products of a block with a class are zero
        rng = np.random.default_rng(8)
        rows = [(rng.permutation(4) + 1, {"g": "ab"[i % 2], "x": float(i)})
                for i in range(60)]
        data = aggregate(shared_space(4), rows, [CovariateDecl("g", "factor"),
                                                 CovariateDecl("x", "continuous")])
        design = Design(ModelSpec(("A", "B", "C", "D"), ("g", "x"), 30), data)
        K, R = design.n_sets, design.n_classes
        assert K == 60
        coefficients = rng.normal(0.0, 0.3, (1, design.n_coefficients))
        cov = design.enumeration.moments(design.block_effects(coefficients))[2]
        m_plus = rng.uniform(0.0, 2.0, (1, K, R))
        tracemalloc.start()
        try:
            info = _structural_information(cov, m_plus, design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        X = np.concatenate([np.broadcast_to(design.x[:, None], (K, R, 3)),
                            np.broadcast_to(np.eye(R)[:, :-1], (K, R, R - 1))], axis=-1)
        W = m_plus[0, ..., None, None] * cov[0].reshape(K, R, 3, 3)
        dense = sum(np.einsum("kc,kd,kij->cidj", X[:, r], X[:, r], W[:, r])
                    for r in range(R)).reshape(info.shape[1:])
        assert np.abs(info[0] - dense).max() <= 1e-12 * np.abs(dense).max()


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
            **table_cells(counts),
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
