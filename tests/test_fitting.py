import dataclasses
import math
import warnings

import numpy as np
import pytest

import rankmix.fitting as fitting
from rankmix.data import CovariateDecl, DataError, aggregate
from rankmix.fitting import (
    FitConfig,
    FitError,
    IrlsDivergenceError,
    RankDeficientDesignError,
    chain_seeds,
    fit,
    init_start,
    run_chains,
    search_classes,
    compare_term_models,
    split_largest_class,
)
import rankmix.inference as inference
from rankmix.inference import StandardErrorError, corrected_se, standard_error_report
from rankmix.model import (
    Design,
    ModelSpec,
    _Enumeration,
    Parameters,
    _information,
    _information_stack,
    _unpack_theta,
    mixture_loglik,
    posterior_weights,
)
from rankmix.posthoc import assign_classes, class_summary, crosstab

from conftest import make_data, shared_space
import oracles

# posterior weights for a J=3, R=2, single-set instance with
# class effects (0.5, 0.2, 0) / (-0.3, 0.1, 0) and masses (0.6, 0.4),
# frozen from a literal Bayes-rule evaluation over the oracle
# ranking probabilities
BAYES_W = [
    (0.8735701268110044, 0.12642987318899554),
    (0.8497830649966346, 0.1502169350033654),
    (0.6301593802698096, 0.3698406197301904),
    (0.2559550924963281, 0.7440449075036719),
    (0.5331763368926742, 0.4668236631073257),
    (0.2197541941414193, 0.7802458058585806),
]


def small_design(n_classes=1, counts=(7, 3, 5, 2, 4, 1)):
    data = make_data(3, np.array(counts))
    spec = ModelSpec(("A", "B", "C"), (), n_classes)
    return Design(spec, data), data


def at_cells(design, x):
    """A dense (K, L, ...) array gathered at the design's observed cells."""
    return x[design.cell_set, design.cell_pattern]


def two_class_params():
    # reference class effects (-0.3, 0.1, 0); first-class offsets on top
    return Parameters(np.array([-0.3, 0.1, 0.8, 0.1]), np.array([0.6, 0.4]))


class TestFitConfig:
    @pytest.mark.parametrize("field, value", [
        ("n_starts", 0), ("n_starts", True), ("n_starts", 2.0), ("max_iter", -1),
        ("irls_max_iter", 0), ("seed", -1), ("seed", "1"), ("tol", 0.0),
        ("tol", math.inf), ("degenerate_mass", 1.0), ("degenerate_offset", 0),
        ("count_masses", 1),
    ])
    def test_bad_field_raises_naming_it(self, field, value):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{field: value})

    def test_integral_and_real_values_are_accepted(self):
        config = FitConfig(n_starts=np.int64(3), tol=1, degenerate_mass=0.0,
                           count_masses=True)
        assert config.n_starts == 3 and config.tol == 1


class TestInitStart:
    def test_single_class_has_unit_mass(self):
        design, _ = small_design(1)
        start = init_start(3, design)
        assert start.mixing.tolist() == [1.0]
        assert start.coefficients.size == 2

    def test_same_seed_identical(self):
        design, _ = small_design(3)
        a = init_start(42, design)
        b = init_start(42, design)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.mixing, b.mixing)

    def test_fifty_seeds_fifty_distinct_starts(self):
        design, _ = small_design(2)
        starts = [init_start(s, design) for s in chain_seeds(0, 50)]
        seen = {s.coefficients.tobytes() for s in starts}
        assert len(seen) == 50

    def test_scale_bounds_coefficients(self):
        design, _ = small_design(2)
        start = init_start(1, design, scale=0.25)
        assert np.abs(start.coefficients).max() <= 0.25
        assert start.mixing.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(start.mixing > 0)


class TestEStep:
    def test_single_class_all_ones(self):
        design, _ = small_design(1)
        params = Parameters(np.array([0.4, -0.2]), np.array([1.0]))
        w = posterior_weights(params, design)
        assert np.all(w == 1.0)

    def test_identical_classes_return_masses(self):
        design, _ = small_design(2)
        params = Parameters(np.array([0.4, -0.2, 0.0, 0.0]),
                            np.array([0.3, 0.7]))
        w = posterior_weights(params, design)
        assert np.abs(w[..., 0] - 0.3).max() < 1e-12
        assert np.abs(w[..., 1] - 0.7).max() < 1e-12

    def test_matches_bayes_rule_oracle(self):
        design, _ = small_design(2)
        w = posterior_weights(two_class_params(), design)
        assert w == pytest.approx(np.array(BAYES_W), abs=1e-12)

    def test_rows_normalize(self):
        design, _ = small_design(3)
        params = init_start(9, design)
        w = posterior_weights(params, design)
        assert np.abs(w.sum(axis=-1) - 1.0).max() < 1e-12


class TestMStep:
    def test_mass_update_weighted_average(self):
        # two items, two observed cells with counts 3 and 1
        data = make_data(2, np.array([3, 1]))
        spec = ModelSpec(("A", "B"), (), 2)
        design = Design(spec, data)
        w = np.zeros((2, 2))
        w[0] = (1.0, 0.0)
        w[1] = (0.0, 1.0)
        _, mixing, _ = fitting._mass_update(w.T[None], design, 0.0)
        assert mixing[0] == pytest.approx([0.75, 0.25])

    def test_single_class_matches_generic_optimizer(self):
        rng = np.random.default_rng(5)
        probs = oracles.ranking_probabilities([0.45, -0.2, 0.0])
        counts = rng.multinomial(400, probs)
        design, data = small_design(1, counts)
        start = Parameters(np.zeros(design.n_coefficients), np.array([1.0]))
        (chain,) = run_chains(design, data, [start], FitConfig(max_iter=1))
        params = chain.params

        theta_hat, loglik_hat = oracles.maximize_fixed_effects(
            data.counts,
            lambda t: {0: np.append(t, 0.0)},
            n_free=2,
        )
        assert params.coefficients == pytest.approx(theta_hat, abs=1e-6)
        loglik, _ = mixture_loglik(params, design, data)
        assert loglik == pytest.approx(loglik_hat, abs=1e-8)

    def test_fixed_point_of_converged_fit(self):
        rng = np.random.default_rng(14)
        p1 = oracles.ranking_probabilities([0.9, 0.3, 0.0])
        p2 = oracles.ranking_probabilities([-0.8, 0.2, 0.0])
        counts = rng.multinomial(800, 0.6 * p1 + 0.4 * p2)
        design, data = small_design(2, counts)
        config = FitConfig(n_starts=8, seed=2, tol=1e-10, max_iter=3000)
        result = fit(design.spec, data, config)
        assert result.converged
        (chain,) = run_chains(design, data, [result.params], FitConfig(max_iter=1))
        refreshed = chain.params
        assert refreshed.coefficients == pytest.approx(
            result.params.coefficients, abs=1e-6
        )
        assert refreshed.mixing == pytest.approx(result.params.mixing, abs=1e-6)

    def test_degenerate_mass_guard(self):
        design, data = small_design(2)
        start = Parameters(np.zeros(design.n_coefficients),
                           np.array([1.0 - 1e-9, 1e-9]))
        (chain,) = run_chains(design, data, [start],
                              FitConfig(max_iter=1, degenerate_mass=1e-6))
        assert chain.degenerate and "class mass fell" in chain.message


class TestFitStructural:
    def test_rank_deficient_design_names_columns(self, monkeypatch):
        data = make_data(3, np.array([[5, 2, 3, 1, 2, 1], [2, 4, 1, 3, 1, 2]]),
                         factor_levels=["a", "b"])
        spec = ModelSpec(("A", "B", "C"), ("g", "g"), 1)
        with pytest.raises(RankDeficientDesignError, match="A:g=b"):
            fit(spec, data)
        # damped Newton on a full-rank design: in a stack of
        # three, the chain whose information fails the Cholesky test fails
        # alone, naming no coefficient; the others finish as they do alone
        data = make_data(2, np.array([[5, 2], [2, 4]]), factor_levels=["a", "b"])
        design = Design(ModelSpec(("A", "B"), ("g",), 1), data)
        failures, calls = fitting._cholesky_failures, []

        def first_fails(a):
            calls.append(1)
            return sorted(set(failures(a)) | ({0} if len(calls) == 1 else set()))

        monkeypatch.setattr(fitting, "_cholesky_failures", first_fails)
        held = [0, 1, 0]
        starts = np.zeros((3, design.n_coefficients))
        stacked = fitting._damped_newton(design, starts, held, 20)
        assert isinstance(stacked[0], FitError)
        assert not isinstance(stacked[0], RankDeficientDesignError)
        assert "singular at damped Newton step 0" in str(stacked[0])
        for chain, i in zip(stacked[1:], held[1:]):
            (alone,) = fitting._damped_newton(design, starts[:1], [i], 20)
            assert chain[2] and alone[2]  # converged
            assert chain[1] == alone[1]
            assert np.array_equal(chain[0], alone[0]) and chain[0][i] == 0.0

    def test_divergence_error_when_steps_cannot_ascend(self, monkeypatch):
        design, data = small_design(1)

        def explode(matrix, rhs):
            return np.full_like(rhs, 1e30)

        monkeypatch.setattr(fitting.np.linalg, "solve", explode)
        with pytest.raises(IrlsDivergenceError):
            fit(design.spec, data)


class TestStructuralInformation:
    """The coefficient block of the complete-data information is minus the
    Hessian of the expected-count multinomial log-likelihood, with the
    expected counts m = n w held at the posterior weights w of the
    information's own parameters; the log-likelihood is summed literally
    over oracle ranking distributions and differentiated numerically."""

    @staticmethod
    def instance():
        # J=3, R=2, one factor term and one continuous term, at random
        # coefficients and masses
        rng = np.random.default_rng(17)
        space = shared_space(3)
        rows = [
            (rng.permutation(3) + 1,
             {"g": str(rng.choice(["a", "b"])), "x": float(rng.choice([-1.0, 0.5, 2.0]))})
            for _ in range(60)
        ]
        data = aggregate(space, rows, [CovariateDecl("g", "factor"),
                                       CovariateDecl("x", "continuous")])
        design = Design(ModelSpec(("A", "B", "C"), ("g", "x"), 2), data)
        params = Parameters(rng.normal(0, 0.6, design.n_coefficients),
                            rng.dirichlet(np.ones(2)))
        m = np.zeros(data.counts.shape + (2,))
        m[design.cell_set, design.cell_pattern] = (
            design.cell_counts[:, None] * posterior_weights(params, design))
        return design, m, params

    @staticmethod
    def expected_count_loglik(design, m, coefs):
        effects = design.item_effects(coefs)
        K, _, R = m.shape
        return sum(
            float(np.dot(m[k, :, r],
                         np.log(oracles.ranking_probabilities(effects[:, k, r]))))
            for k in range(K) for r in range(R)
        )

    def test_equals_minus_numerical_hessian(self):
        design, m, params = self.instance()
        hess = oracles.numerical_hessian(
            lambda c: self.expected_count_loglik(design, m, c), params.coefficients
        )
        p = design.n_coefficients
        complete = _information(params, design)[1][:p, :p]
        assert complete == pytest.approx(-hess, rel=1e-5, abs=1e-5)


def louis_by_cells(params, design):
    """Score and observed information of one chain summed cell by cell.

    At a cell, g_r = [X_kr (x) (s_l - E_kr[s]) over the free items,
    e_r - q~] is the gradient of log(q_r P_r), g = sum_r w_r g_r, the score
    is sum n g and the missing information sum n (sum_r w_r g_r g_r' - g g').
    """
    q = params.mixing[:-1]
    w = posterior_weights(params, design)  # (nnz, R)
    nnz, R = w.shape
    p = design.n_coefficients
    effects = design.block_effects(params.coefficients)
    mean = design.enumeration.moments(effects)[1]
    resid = (design.data.space.score_matrix()[design.cell_pattern][:, None, :]
             - mean[design.cell_set])[..., :-1]
    # the dense block rows X_kr = [x_k, e_r], e_R = 0, of each cell's set
    K, Q = design.x.shape
    X = np.concatenate([np.broadcast_to(design.x[:, None], (K, R, Q)),
                        np.broadcast_to(np.eye(R)[:, :-1], (K, R, R - 1))],
                       axis=-1)[design.cell_set]  # (nnz, R, Q + R - 1)
    g = np.concatenate([(X[..., :, None] * resid[..., None, :]).reshape(nnz, R, p),
                        np.broadcast_to(np.eye(R)[:, :-1] - q, (nnz, R, R - 1))],
                       axis=-1)
    g_mean = (w[..., None] * g).sum(axis=1)
    n = design.cell_counts
    missing = (np.einsum("c,cr,cri,crj->ij", n, w, g, g)
               - np.einsum("c,ci,cj->ij", n, g_mean, g_mean))
    complete = _information(params, design)[1]
    return n @ g_mean, complete - missing


class TestInformationStack:
    """The stacked information kernel against single calls and against the
    cell-by-cell sum of Louis's identity, at random points."""

    @staticmethod
    def criterion_7_design():
        rng = np.random.default_rng(42)

        def counts_for(shift):
            p1 = oracles.ranking_probabilities([0.15 + shift + 0.55, 0.25, 0.0])
            p2 = oracles.ranking_probabilities([0.15 + shift - 0.55, -0.15, 0.0])
            return rng.multinomial(6000, 0.55 * p1 + 0.45 * p2)

        data = make_data(3, np.vstack([counts_for(0.0), counts_for(0.3)]),
                         factor_levels=["a", "b"])
        return Design(ModelSpec(("A", "B", "C"), ("g",), 2), data)

    @staticmethod
    def continuous_design():
        # J=3, one continuous term with a value of its own for each of 12 sets
        rng = np.random.default_rng(31)
        rows = [(rng.permutation(3) + 1, {"x": float(i % 12) ** 1.5})
                for i in range(48)]
        data = aggregate(shared_space(3), rows, [CovariateDecl("x", "continuous")])
        return Design(ModelSpec(("A", "B", "C"), ("x",), 1), data)

    @pytest.mark.parametrize("which, n_classes", [
        ("observed_cells", 1), ("observed_cells", 2), ("observed_cells", 3),
        ("observed_cells", 5), ("criterion_7", 2), ("continuous", 1),
        ("continuous", 4),
    ])
    def test_stack_equals_single_calls_and_the_cell_sum(self, which, n_classes):
        design = {"criterion_7": self.criterion_7_design,
                  "continuous": self.continuous_design,
                  "observed_cells": lambda: TestObservedCells.instance()[0]}[which]()
        design = Design(design.spec.with_classes(n_classes), design.data)
        rng = np.random.default_rng(7 + n_classes)
        p = design.n_coefficients
        theta = np.hstack([rng.normal(0.0, 0.7, (4, p)),
                           rng.normal(0.0, 1.0, (4, n_classes - 1))])
        stack = _information_stack(*_unpack_theta(theta, design), design)
        for b in range(4):
            one = _information_stack(*_unpack_theta(theta[b:b + 1], design), design)
            for x, y in zip(stack, one):
                assert np.abs(x[b] - y[0]).max() <= 1e-10 * np.abs(y[0]).max()
            ratios = np.exp(np.append(theta[b, p:], 0.0))
            params = Parameters(theta[b, :p], ratios / ratios.sum())
            loglik = mixture_loglik(params, design, design.data)[0]
            assert stack[0][b] == pytest.approx(loglik, rel=1e-12)
            for x, y in zip(stack[1::2], louis_by_cells(params, design)):
                assert np.abs(x[b] - y).max() <= 1e-10 * np.abs(y).max()

    def test_parameters_pack_to_theta(self):
        design = self.criterion_7_design()
        params = Parameters(np.arange(design.n_coefficients) / 10.0,
                            np.array([0.3, 0.7]))
        theta = params.theta
        assert theta[-1] == pytest.approx(math.log(0.3 / 0.7), rel=1e-15)
        coefficients, log_mixing = _unpack_theta(theta[None], design)
        assert np.array_equal(coefficients[0], params.coefficients)
        assert np.exp(log_mixing[0]) == pytest.approx(params.mixing, rel=1e-15)


class TestObservedCells:
    """The EM loop works on the cells with a nonzero count; these checks use
    a table where most of the (set, pattern) cells are empty."""

    @staticmethod
    def instance():
        # J=4, R=2, one factor term and one continuous term: 40 respondents
        # over 6 sets x 24 patterns, so at most 40 of 144 cells are filled
        rng = np.random.default_rng(23)
        space = shared_space(4)
        rows = [
            (rng.permutation(4) + 1,
             {"g": str(rng.choice(["a", "b"])),
              "x": float(rng.choice([-1.0, 0.5, 2.0]))})
            for _ in range(40)
        ]
        data = aggregate(space, rows, [CovariateDecl("g", "factor"),
                                       CovariateDecl("x", "continuous")])
        design = Design(ModelSpec(("A", "B", "C", "D"), ("g", "x"), 2), data)
        assert np.count_nonzero(data.counts) < data.n_cells / 3
        return design, data

    def test_em_loglik_matches_oracle_each_iteration(self):
        design, data = self.instance()
        seen = []

        def record(iteration, params, w, loglik):
            seen.append((params.copy(), loglik))

        start = init_start(5, design, scale=1.0)
        run_chains(design, data, [start], FitConfig(max_iter=6, tol=1e-12),
                   callback=record)
        assert len(seen) == 6
        for params, loglik in seen:
            effects = design.item_effects(params.coefficients)
            table = {(k, r): effects[:, k, r]
                     for k in range(design.n_sets) for r in range(2)}
            direct = oracles.mixture_loglik_direct(data.counts, table,
                                                   params.mixing)
            assert loglik == pytest.approx(direct, abs=1e-9)

    def test_posteriors_are_the_dense_softmax_at_observed_cells(self):
        design, data = self.instance()
        params = init_start(8, design, scale=1.0)
        logp = design.log_pattern_probs(params.coefficients) + np.log(params.mixing)
        dense = np.exp(logp - logp.max(axis=-1, keepdims=True))
        dense /= dense.sum(axis=-1, keepdims=True)
        w = posterior_weights(params, design)
        assert w.shape == (design.cell_set.size, 2)
        assert np.abs(w - at_cells(design, dense)).max() < 1e-12

    def test_mismatched_weights_or_data_are_rejected(self):
        design, data = self.instance()
        _, other_data = small_design(2)
        with pytest.raises(DataError, match="count table"):
            run_chains(design, other_data, [init_start(8, design)], FitConfig())
        start = init_start(8, design).theta[None]
        with pytest.raises(ValueError, match="held coordinate"):
            fitting._damped_newton(design, start, [0], 5)

    def test_covariate_set_without_respondents_is_an_error(self):
        data = make_data(3, np.array([[4, 1, 2, 0, 3, 1], [0, 0, 0, 0, 0, 0]]),
                         factor_levels=["a", "b"])
        spec = ModelSpec(("A", "B", "C"), ("g",), 2)
        with pytest.raises(DataError, match="no respondents: \\[1\\]"):
            fit(spec, data, FitConfig(n_starts=2, seed=1))

    def test_em_loop_builds_no_dense_cell_array(self, monkeypatch):
        design, data = self.instance()
        calls = []
        dense = Design.log_pattern_probs

        def counted(self, coefficients):
            calls.append(1)
            return dense(self, coefficients)

        monkeypatch.setattr(Design, "log_pattern_probs", counted)
        start = init_start(5, design)
        config = FitConfig(max_iter=4, tol=1e-12)
        run_chains(design, data, [start], config)
        assert calls == []
        run_chains(design, data, [start], config, callback=lambda *args: None)
        assert len(calls) == 4
        # nor do the fit, the three SE procedures and the post-hoc tables
        calls.clear()
        result = fit(design.spec, data, FitConfig(n_starts=2))
        report = standard_error_report(result, data, methods=("all",))
        assert report.rows[0].se_raw is not None
        class_summary(result, data, se_report=report)
        assign_classes(result, data)
        for mode in ("expected", "hard"):
            crosstab(result, data, ["a", "b"] * 20, mode=mode)
        assert calls == []

    def test_one_softmax_per_em_iteration(self, monkeypatch):
        # the start's E step, then one per iteration: the softmax at the
        # accepted Newton trial gives the log-likelihood and the next weights
        design, data = self.instance()
        calls = []
        softmax = fitting._mixture

        def counted(logp, mixing):
            calls.append(logp.shape)
            return softmax(logp, mixing)

        monkeypatch.setattr(fitting, "_mixture", counted)
        (chain,) = run_chains(design, data, [init_start(5, design)],
                              FitConfig(max_iter=4, tol=1e-12))
        assert chain.n_iterations == 4 and not chain.converged
        assert calls == [(1, 2, design.cell_set.size)] * 5

    def test_stack_of_uniform_starts_with_several_classes(self):
        # the closed-form start serves any class count; a chain whose mass is
        # already below the bound leaves at the uniform model, and equal
        # classes from the uniform model stay equal, at the one-class fit
        design, data = self.instance()
        starts = [Parameters(np.zeros(design.n_coefficients), q)
                  for q in ([0.5, 0.5], [0.05, 0.95])]
        kept, emptied = run_chains(design, data, starts,
                                   FitConfig(degenerate_mass=0.1))
        assert (emptied.degenerate, emptied.n_iterations) == (True, 0)
        assert not emptied.params.coefficients.any()
        assert not kept.degenerate and kept.converged
        one_class = fit(design.spec.with_classes(1), data)
        assert kept.loglik == pytest.approx(one_class.loglik, abs=1e-8)

    @pytest.mark.parametrize("options", [
        {}, {"max_iter": 0},
        # every chain degenerates: one leaves at a low class mass, with its
        # last E step's parameters, the others at a class offset, with the
        # parameters of a Newton solve
        {"degenerate_mass": 0.2}, {"degenerate_offset": 2.0},
    ])
    def test_posteriors_are_the_best_chains_last_e_step(self, options):
        design, data = self.instance()
        result = fit(design.spec, data, FitConfig(n_starts=4, **options))
        want = posterior_weights(result.params, result.design)
        assert np.abs(result.posteriors - want).max() < 1e-12

    def test_each_normalizer_call_is_at_new_coefficients(self, monkeypatch):
        # one at the start, then one per Newton trial: no Newton solve
        # re-evaluates the accepted trial it starts from, and the fit's
        # posteriors need none
        design, data = self.instance()
        points, passes = set(), []
        block_effects, moments = Design.block_effects, _Enumeration.moments

        def effects_at(self, coefficients):
            points.add(np.asarray(coefficients).tobytes())
            return block_effects(self, coefficients)

        def counted(self, a):
            passes.append(1)
            return moments(self, a)

        monkeypatch.setattr(Design, "block_effects", effects_at)
        monkeypatch.setattr(_Enumeration, "moments", counted)
        result = fit(design.spec, data,
                     FitConfig(n_starts=1, max_iter=3, tol=1e-12))
        assert result.n_iterations == 3
        assert len(passes) == len(points) >= 1 + 3

    def test_negative_drop_raises_after_one_refit(self, monkeypatch):
        # a fit stopped short of its maximum, so that the refit of A:class1
        # climbs above it
        design, data = self.instance()
        result = fit(design.spec, data, FitConfig(n_starts=2, max_iter=3))
        assert not result.converged
        chains = []
        refit = inference._damped_newton

        def counted(design, starts, *args):
            chains.extend(starts)
            return refit(design, starts, *args)

        monkeypatch.setattr(inference, "_damped_newton", counted)
        with pytest.raises(StandardErrorError, match="not at its maximum"):
            corrected_se(result, data, "A:class1")
        assert len(chains) == 1

    @pytest.mark.parametrize("ratio", [700.0, -700.0, 1000.0, -1000.0])
    def test_a_wild_trial_is_rejected_without_a_warning(self, monkeypatch, ratio):
        # the first Newton step of a refit is replaced by one that sends the
        # mass log-ratio to +-700 or +-1000: the kernel evaluates that trial without
        # an overflow or a log of zero, the driver rejects it, and the refit
        # still finishes where it does undisturbed
        design, data = self.instance()
        result = fit(design.spec, data, FitConfig(n_starts=2))
        start = result.params.theta[None].copy()
        start[0, 0] = 0.0
        (calm,) = fitting._damped_newton(design, start, [0], 50)
        solve, calls, trials = np.linalg.solve, [], []

        def wild(a, b):
            calls.append(1)
            x = solve(a, b)
            if len(calls) == 2:  # the decrement's solve, then the first step's
                x[0, -1, 0] = ratio - start[0, -1]
            return x

        kernel = fitting._information_stack

        def recorded(coefficients, log_mixing, design):
            out = kernel(coefficients, log_mixing, design)
            trials.append((log_mixing.copy(), out[0].copy()))
            return out

        monkeypatch.setattr(fitting.np.linalg, "solve", wild)
        monkeypatch.setattr(fitting, "_information_stack", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (chain,) = fitting._damped_newton(design, start, [0], 50)
        log_mixing, loglik = trials[1]  # the start, then the wild trial
        assert np.abs(log_mixing).max() >= 699.0 and np.isfinite(loglik)
        assert loglik < calm[1]
        assert chain[2] and chain[1] == pytest.approx(calm[1], abs=1e-8)

    @pytest.mark.parametrize("stack, options", [
        (4, {}), (2, {}), (1, {}),
        # chains that leave the stack early: a class mass or a class
        # offset crosses its threshold, at a different iteration per chain
        (4, {"degenerate_mass": 0.2}), (4, {"degenerate_offset": 2.0}),
    ])
    def test_stacked_chains_match_chains_run_alone(self, monkeypatch, stack,
                                                   options):
        design, data = self.instance()
        config = FitConfig(n_starts=4, seed=0, **options)
        # a stack is budgeted by its chains' cell arrays
        cells = design.n_classes * design.cell_set.size
        monkeypatch.setattr(fitting, "_STACK_ENTRIES", stack * cells)
        stacks = []
        run_stack = fitting._run_stack

        def counted(design, starts, *args):
            stacks.append(len(starts))
            return run_stack(design, starts, *args)

        monkeypatch.setattr(fitting, "_run_stack", counted)
        result = fit(design.spec, data, config)
        assert stacks == [stack] * (4 // stack)
        seeds = chain_seeds(config.seed, config.n_starts)
        for seed, summary in zip(seeds, result.chain_summaries):
            (alone,) = run_chains(design, data, [init_start(seed, design)], config)
            assert summary["iterations"] == alone.n_iterations
            assert summary["converged"] == alone.converged
            assert summary["degenerate"] == alone.degenerate
            assert summary["message"] == alone.message
            assert -0.5 * summary["minus_two_loglik"] == pytest.approx(
                alone.loglik, abs=1e-9)

    @pytest.mark.parametrize("n_items, n_classes, seed", [
        (3, 2, 0), (3, 3, 1), (4, 2, 2), (4, 3, 3), (3, 2, 4), (4, 2, 5),
    ])
    def test_a_chains_bits_do_not_depend_on_its_stack(self, n_items, n_classes, seed):
        # five starts on a design of three sets, run as one stack and each
        # alone: every chain's log-likelihood, deviance and deviance trace
        # are the same floats, not merely close ones
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 8, size=(3, math.factorial(n_items)))
        data = make_data(n_items, counts, factor_levels=("a", "b", "c"))
        labels = ("A", "B", "C", "D")[:n_items]
        design = Design(ModelSpec(labels, ("g",), n_classes), data)
        config = FitConfig(n_starts=5, seed=seed, max_iter=60)
        starts = [init_start(s, design) for s in chain_seeds(config.seed, 5)]
        assert fitting._stack_size(design) >= len(starts)
        for start, chain in zip(starts, run_chains(design, data, starts, config)):
            (alone,) = run_chains(design, data, [start], config)
            assert chain.n_iterations == alone.n_iterations
            assert (chain.loglik, chain.deviance) == (alone.loglik, alone.deviance)
            assert chain.trace == alone.trace

    @pytest.mark.parametrize("n_items", [3, 4])
    def test_a_lone_blocks_bits_do_not_depend_on_its_stack(self, n_items):
        # a chain of a one-set, one-class design is one block row, which the
        # kernel takes as two when the chain runs alone: the moments of five
        # effect vectors, and five chains' log-likelihoods and traces, are
        # the same floats stacked and alone
        labels = ("A", "B", "C", "D")[:n_items]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            counts = rng.integers(0, 8, math.factorial(n_items))
            counts[0] += 1
            data = make_data(n_items, counts)
            design = Design(ModelSpec(labels, (), 1), data)
            a = rng.normal(0.0, 1.0, (5, 1, 1, n_items))
            stacked = design.enumeration.moments(a)
            for b in range(5):
                alone = design.enumeration.moments(a[b])
                assert all(x[b].tobytes() == y.tobytes()
                           for x, y in zip(stacked, alone))
            if seed >= 3:
                continue
            for n_classes in (1, 2):
                design = Design(ModelSpec(labels, (), n_classes), data)
                config = FitConfig(n_starts=5, seed=seed, max_iter=60)
                starts = [init_start(s, design) for s in chain_seeds(seed, 5)]
                for start, chain in zip(starts, run_chains(design, data, starts,
                                                           config)):
                    (alone,) = run_chains(design, data, [start], config)
                    assert (chain.loglik, chain.deviance) == (alone.loglik,
                                                              alone.deviance)
                    assert chain.trace == alone.trace

    @pytest.mark.parametrize("options", [
        {}, {"degenerate_mass": 0.2}, {"degenerate_mass": 0.3},
        {"degenerate_offset": 2.0}, {"max_iter": 7}, {"max_iter": 0},
    ])
    def test_stacked_chains_follow_the_em_recursion(self, options):
        # the EM loop written out from one-iteration chains and the public
        # likelihood: a chain whose next M step has too small a class mass
        # reports its last completed iteration, and one whose class offsets
        # ran away reports the iteration that ran away
        design, data = self.instance()
        config = FitConfig(n_starts=4, seed=0, **options)
        one = dataclasses.replace(config, max_iter=1)
        starts = [init_start(seed, design)
                  for seed in chain_seeds(config.seed, config.n_starts)]
        chains = fitting.run_chains(design, data, starts, config)
        for start, chain in zip(starts, chains):
            params = start
            loglik, dev = mixture_loglik(params, design, data)
            n_iter, converged, degenerate = 0, False, False
            for iteration in range(1, config.max_iter + 1):
                (step,) = run_chains(design, data, [params], one)
                params = step.params
                if step.degenerate:
                    degenerate = True
                    if step.n_iterations:  # the step ran away: it is the record
                        loglik, _ = mixture_loglik(params, design, data)
                        n_iter = iteration
                    break
                loglik, new_dev = mixture_loglik(params, design, data)
                n_iter = iteration
                converged = abs(new_dev - dev) < config.tol
                dev = new_dev
                if converged:
                    break
            assert (chain.n_iterations, chain.converged, chain.degenerate) == (
                n_iter, converged, degenerate)
            assert chain.loglik == pytest.approx(loglik, abs=1e-9)
            assert chain.params.coefficients == pytest.approx(
                params.coefficients, abs=1e-9)
            assert chain.params.mixing == pytest.approx(params.mixing, abs=1e-12)

    @pytest.mark.parametrize("options", [
        {}, {"degenerate_mass": 0.2}, {"degenerate_mass": 0.3},
        {"degenerate_offset": 2.0}, {"max_iter": 7}, {"max_iter": 0},
    ])
    def test_each_chain_record_is_one_iterations_state(self, options):
        # whatever stopped a chain, its parameters, log-likelihood,
        # deviance, trace and posteriors belong to one completed iteration
        design, data = self.instance()
        config = FitConfig(n_starts=4, seed=0, **options)
        starts = [init_start(seed, design)
                  for seed in chain_seeds(config.seed, config.n_starts)]
        for chain in run_chains(design, data, starts, config):
            loglik, _ = mixture_loglik(chain.params, design, data)
            assert chain.loglik == pytest.approx(loglik, abs=1e-9)
            assert chain.deviance == chain.trace[-1]
            assert len(chain.trace) == chain.n_iterations + 1
            want = posterior_weights(chain.params, design)
            assert np.abs(chain.posteriors - want).max() < 1e-12

    def test_a_failed_chain_leaves_the_fit_to_the_others(self, monkeypatch):
        # the second chain's first Newton solve fails: it is listed as
        # degenerate with its error, and the fit is the best of the others
        design, data = self.instance()
        config = FitConfig(n_starts=3, seed=0)
        seeds = chain_seeds(config.seed, config.n_starts)
        starts = [init_start(seed, design) for seed in seeds]
        others = run_chains(design, data, starts[::2], config,
                            labels=[f"seed:{seed}" for seed in seeds[::2]])
        failures, calls = fitting._cholesky_failures, []

        def second_fails(a):
            calls.append(1)
            return sorted(set(failures(a)) | ({1} if len(calls) == 1 else set()))

        monkeypatch.setattr(fitting, "_cholesky_failures", second_fails)
        chains = run_chains(design, data, starts, config)
        failed = chains[1]
        assert isinstance(failed.error, FitError)
        assert not isinstance(failed.error, RankDeficientDesignError)
        assert (failed.n_iterations, failed.converged, failed.degenerate) == (
            1, False, True)
        assert failed.message == str(failed.error)
        # a zero step: the coefficients of its start, with the masses and
        # likelihood of the iteration's E step
        assert np.array_equal(failed.params.coefficients, starts[1].coefficients)
        loglik, _ = mixture_loglik(failed.params, design, data)
        assert failed.loglik == pytest.approx(loglik, abs=1e-9)

        calls.clear()
        result = fit(design.spec, data, config)
        best = max(others, key=lambda c: c.loglik)
        assert result.best_start == best.label
        assert result.loglik == best.loglik
        assert np.array_equal(result.params.coefficients, best.params.coefficients)
        summary = result.chain_summaries[1]
        assert summary.keys() == result.chain_summaries[0].keys()
        assert (summary["converged"], summary["degenerate"]) == (False, True)
        assert summary["message"] == str(failed.error)
        assert result.n_degenerate == 1 + sum(c.degenerate for c in others)

    @classmethod
    def forged_fit(cls):
        """The seed-3 fit with C:x forged to exactly zero.

        Its refit is ruled out before the stack, and the forged fit lies
        below the constrained maxima of A:g=b, B:g=b and B:class1, whose
        refits end in negative drops.
        """
        design, data = cls.instance()
        result = fit(design.spec, data, FitConfig(n_starts=2, seed=3))
        params = result.params.copy()
        params.coefficients[design.name_to_index["C:x"]] = 0.0
        loglik, dev = mixture_loglik(params, design, data)
        return dataclasses.replace(
            result, params=params, posteriors=posterior_weights(params, design),
            loglik=loglik, deviance=dev, minus_two_loglik=-2.0 * loglik), data

    def test_report_refits_match_corrected_se_alone(self):
        # failed refits, one ruled out and some with a negative drop: the
        # other refits of the stack must finish regardless
        result, data = self.forged_fit()
        report = standard_error_report(result, data, methods=("all",))
        notes = 0
        for i, row in enumerate(report.rows):
            try:
                se, drop = corrected_se(result, data, i)
            except (FitError, ValueError) as exc:
                assert row.se_corrected is None and row.lr_drop is None
                assert row.note == str(exc)
                notes += 1
                continue
            assert row.note is None
            assert row.se_corrected == pytest.approx(se, rel=1e-8)
            assert row.lr_drop == pytest.approx(drop, rel=1e-8)
        assert notes >= 2

    def test_refit_at_the_cap_keeps_its_value_and_is_noted(self, monkeypatch):
        design, data = self.instance()
        result = fit(design.spec, data, FitConfig(n_starts=2))
        report = standard_error_report(result, data, methods=("corrected",))
        assert not any(row.note and "cap" in row.note for row in report.rows)
        monkeypatch.setattr(inference, "_MAX_REFIT_ITER", 2)
        capped = standard_error_report(result, data, methods=("corrected",))
        noted = [row for row in capped.rows
                 if row.note and "stopped at the 2-iteration cap" in row.note]
        assert noted
        for row in noted:
            assert "lower bound" in row.note
            assert row.se_corrected is not None and row.lr_drop > 0

    def test_failed_refit_lands_in_its_row_note(self):
        result, data = self.forged_fit()
        report = standard_error_report(result, data, methods=("all",))
        failed = [row for row in report.rows
                  if row.note and "already zero" in row.note]
        assert [row.name for row in failed] == ["C:x"]
        for row in report.rows:
            assert row.se_hessian is not None
            assert (row.se_corrected is None) == (row.note is not None)


class TestFit:
    def test_single_class_is_one_newton_solve(self):
        design, data = small_design(1)
        result = fit(design.spec, data, FitConfig(seed=1))
        assert result.converged
        assert result.n_iterations == 1
        assert len(result.deviance_trace) == 2
        assert result.n_starts == 1

    def test_single_class_pattern_passes(self, monkeypatch):
        # the uniform start needs no pass over the patterns: one pass per
        # Newton trial, and no others
        design, data = TestObservedCells.instance()
        design = Design(design.spec.with_classes(1), data)
        calls = []

        def counted(owner, name, tag):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(tag)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(Design, "block_effects", "trial")
        counted(_Enumeration, "moments", "pass")
        counted(fitting, "_structural_information", "iteration")
        result = fit(design.spec, data)
        assert result.converged and result.n_iterations == 1
        assert calls.index("iteration") < calls.index("pass")
        trials = calls.count("trial") - 1  # the first places the start
        assert calls.count("pass") == trials >= calls.count("iteration") >= 2
        # a solve stopped by its cap has not converged
        capped = fit(design.spec, data, FitConfig(irls_max_iter=1))
        assert (capped.converged, capped.n_iterations) == (False, 1)
        assert len(capped.deviance_trace) == 2
        # no iteration leaves the uniform model, in closed form
        calls.clear()
        start = fit(design.spec, data, FitConfig(max_iter=0))
        assert calls == ["trial"]
        assert (start.converged, start.n_iterations) == (False, 0)
        assert not start.params.coefficients.any()
        n = design.n_respondents  # over the 24 rankings of four items
        assert start.loglik == pytest.approx(-n * math.log(24), rel=1e-15)
        assert start.deviance_trace == [start.deviance]
        assert np.array_equal(start.posteriors, np.ones((data.cell_set.size, 1)))

    def test_matches_fixed_effect_oracle(self):
        rng = np.random.default_rng(11)
        probs = oracles.ranking_probabilities([0.3, 0.1, 0.0])
        counts = rng.multinomial(500, probs)
        design, data = small_design(1, counts)
        result = fit(design.spec, data, FitConfig(seed=7))
        theta_hat, loglik_hat = oracles.maximize_fixed_effects(
            data.counts, lambda t: {0: np.append(t, 0.0)}, n_free=2
        )
        assert result.params.coefficients == pytest.approx(theta_hat, abs=1e-6)
        assert result.loglik == pytest.approx(loglik_hat, abs=1e-8)

    def test_single_class_starts_at_the_uniform_model(self):
        # neither the seed nor the start count reaches a one-class fit
        rng = np.random.default_rng(12)
        counts = rng.multinomial(400, oracles.ranking_probabilities([0.4, -0.2, 0.0]))
        design, data = small_design(1, counts)
        a, b = (fit(design.spec, data, FitConfig(seed=seed, n_starts=n))
                for seed, n in ((3, 1), (11, 7)))
        assert a.best_start == b.best_start == "uniform"
        assert [c["label"] for c in a.chain_summaries] == ["uniform"]
        assert a.loglik == b.loglik
        assert np.array_equal(a.params.coefficients, b.params.coefficients)
        assert np.array_equal(a.posteriors, b.posteriors)
        assert a.deviance_trace == b.deviance_trace
        assert a.chain_summaries == b.chain_summaries
        # the trace starts at the uniform model, every ranking equally likely
        assert a.deviance_trace[0] == pytest.approx(
            2.0 * (design.saturated_loglik - 400 * math.log(1 / 6)), rel=1e-12)

    def test_trace_and_normalization_invariants(self):
        design, data = small_design(2, (26, 9, 15, 4, 12, 6))
        seen = []

        def check(iteration, params, w, loglik):
            assert np.abs(w.sum(axis=2) - 1.0).max() < 1e-12
            assert abs(params.mixing.sum() - 1.0) < 1e-12
            seen.append(loglik)

        result = fit(design.spec, data, FitConfig(n_starts=3, seed=4),
                     callback=check)
        assert seen, "callback never ran"
        trace = result.deviance_trace
        assert all(b <= a + 1e-8 for a, b in zip(trace, trace[1:]))

    def test_bit_identical_reruns(self):
        design, data = small_design(2, (26, 9, 15, 4, 12, 6))
        config = FitConfig(n_starts=5, seed=13)
        a = fit(design.spec, data, config)
        b = fit(design.spec, data, config)
        assert a.minus_two_loglik == b.minus_two_loglik
        assert np.array_equal(a.params.coefficients, b.params.coefficients)
        assert np.array_equal(a.params.mixing, b.params.mixing)
        assert a.deviance_trace == b.deviance_trace
        assert a.best_start == b.best_start

    def test_class_relabeling_leaves_loglik_unchanged(self):
        design, data = small_design(3, (26, 9, 15, 4, 12, 6))
        params = init_start(21, design)
        base, _ = mixture_loglik(params, design, data)
        # swap the two non-reference classes: offsets and masses move slots
        swapped = params.copy()
        idx = {c.name: i for i, c in enumerate(design.coefficients)}
        for item in ("A", "B"):
            i1, i2 = idx[f"{item}:class1"], idx[f"{item}:class2"]
            swapped.coefficients[[i1, i2]] = swapped.coefficients[[i2, i1]]
        swapped.mixing[[0, 1]] = swapped.mixing[[1, 0]]
        relabeled, _ = mixture_loglik(swapped, design, data)
        assert relabeled == base

    def test_best_chain_rule_on_forged_chains(self):
        def chain(label, loglik, converged=True, degenerate=False):
            return fitting._Chain(label=label, params=None, loglik=loglik,
                                  deviance=-2.0 * loglik, trace=[],
                                  converged=converged, degenerate=degenerate,
                                  n_iterations=1)

        best = fitting._best_chain
        # a degenerate chain is passed over even with the highest loglik
        assert best([chain("a", -10.0), chain("b", -1.0, degenerate=True),
                     chain("c", -5.0)]).label == "c"
        # a chain stopped by max_iter competes like a converged one
        assert best([chain("a", -10.0), chain("b", -2.0, converged=False)]
                    ).label == "b"
        # ties go to the earlier start
        assert best([chain("a", -3.0), chain("b", -3.0), chain("c", -4.0)]
                    ).label == "a"
        # with every chain degenerate, the best of them
        assert best([chain("a", -3.0, degenerate=True),
                     chain("b", -2.0, degenerate=True)]).label == "b"

    def test_bic_identity(self):
        design, data = small_design(2, (26, 9, 15, 4, 12, 6))
        result = fit(design.spec, data, FitConfig(n_starts=3, seed=4))
        expected = result.minus_two_loglik + result.n_params * math.log(data.n_cells)
        assert result.bic == pytest.approx(expected, abs=1e-12)


class TestSearch:
    def search_data(self):
        rng = np.random.default_rng(3)
        p1 = oracles.ranking_probabilities([0.9, 0.3, 0.0])
        p2 = oracles.ranking_probabilities([-0.8, 0.2, 0.0])
        counts = rng.multinomial(600, 0.6 * p1 + 0.4 * p2)
        return small_design(1, counts)[1]

    def test_sweep_shape_and_nested_deviance(self):
        data = self.search_data()
        spec = ModelSpec(("A", "B", "C"), (), 1)
        config = FitConfig(n_starts=4, seed=8)
        search = search_classes(spec, data, config, [1, 2, 3])
        assert [row.n_classes for row in search.rows] == [1, 2, 3]
        devs = [row.deviance for row in search.rows]
        assert all(b <= a + 1e-6 for a, b in zip(devs, devs[1:]))
        for row in search.rows:
            gap = row.bic - row.minus_two_loglik
            assert gap == pytest.approx(row.n_params * math.log(data.n_cells),
                                        abs=1e-10)

    def covariate_search_data(self):
        # the same two-class mixture with a factor g and a continuous x
        rng = np.random.default_rng(12)
        space = shared_space(3)
        probs = (0.6 * oracles.ranking_probabilities([0.9, 0.3, 0.0])
                 + 0.4 * oracles.ranking_probabilities([-0.8, 0.2, 0.0]))
        rows = [
            (space.rankings[rng.choice(space.size, p=probs)],
             {"g": str(rng.choice(["a", "b"])),
              "x": float(rng.choice([-1.0, 0.5, 2.0]))})
            for _ in range(400)
        ]
        return aggregate(space, rows, [CovariateDecl("g", "factor"),
                                       CovariateDecl("x", "continuous")])

    @pytest.mark.parametrize("terms", [(), ("g", "x")],
                             ids=["no_terms", "factor_and_continuous"])
    def test_split_warm_start_preserves_loglik(self, terms):
        # with terms, their columns sit between the item mains and the
        # class offsets
        data = self.covariate_search_data() if terms else self.search_data()
        spec = ModelSpec(("A", "B", "C"), terms, 2)
        result = fit(spec, data, FitConfig(n_starts=4, seed=8))
        new_design = Design(spec.with_classes(3), data)
        warm = split_largest_class(result)
        loglik, _ = mixture_loglik(warm, new_design, data)
        assert loglik == pytest.approx(result.loglik, abs=1e-9)
        # the jittered copy moves the 2 x 2 class offsets and nothing else
        jittered = split_largest_class(result, jitter=0.05)
        moved = np.nonzero(jittered.coefficients != warm.coefficients)[0]
        assert [new_design.coefficients[i].kind for i in moved] == ["class"] * 4

    def test_errors_do_not_abort_sweep(self, monkeypatch):
        data = self.search_data()
        spec = ModelSpec(("A", "B", "C"), (), 1)
        real_fit = fitting.fit

        def flaky(spec, data, config=None, **kwargs):
            if spec.n_classes == 2:
                raise FitError("synthetic failure")
            return real_fit(spec, data, config, **kwargs)

        monkeypatch.setattr(fitting, "fit", flaky)
        search = fitting.search_classes(spec, data, FitConfig(n_starts=2, seed=1),
                                        [1, 2, 3])
        assert search.rows[1].error == "synthetic failure"
        assert search.rows[0].bic is not None
        assert search.rows[2].bic is not None
        assert search.best_key in (1, 3)

    def test_rejects_bad_range(self):
        data = self.search_data()
        spec = ModelSpec(("A", "B", "C"), (), 1)
        with pytest.raises(ValueError):
            search_classes(spec, data, FitConfig(), [2, 2])

    def test_continuous_slope_recovery(self):
        # raw-scale slope 0.25 on item A over support {-1, 0, 1, 2}
        from rankmix.simulate import (
            ClassTruth,
            CovariateTruth,
            SyntheticTruth,
            generate_rows,
        )
        from conftest import shared_space

        truth = SyntheticTruth(
            item_labels=("A", "B", "C"),
            classes=(ClassTruth(1.0, (0.45, 0.35, 0.2)),),
            covariates=(
                CovariateTruth(
                    name="x", kind="continuous",
                    values=(-1.0, 0.0, 1.0, 2.0),
                    probs=(0.25, 0.25, 0.25, 0.25),
                    slopes=(0.25, 0.0, 0.0),
                ),
            ),
            n=8000,
            seed=31,
        )
        space = shared_space(3)
        data = aggregate(space, generate_rows(truth, space),
                         [CovariateDecl("x", "continuous")])
        assert data.n_sets == 4
        spec = ModelSpec(("A", "B", "C"), ("x",), 1)
        result = fit(spec, data, FitConfig(seed=6))
        idx = result.design.name_to_index["A:x"]
        _, scale = data.continuous_scale["x"]
        raw_slope = result.params.coefficients[idx] / scale
        assert raw_slope == pytest.approx(0.25, abs=0.04)

    def test_term_model_comparison(self):
        rng = np.random.default_rng(9)
        counts = np.vstack(
            [
                rng.multinomial(300, oracles.ranking_probabilities([0.5, 0.1, 0.0])),
                rng.multinomial(300, oracles.ranking_probabilities([0.1, 0.4, 0.0])),
            ]
        )
        data = make_data(3, counts, factor_levels=["a", "b"])
        comparison = compare_term_models(
            ("A", "B", "C"), data, FitConfig(seed=2),
            [("null", ()), ("g", ("g",))],
        )
        assert [row.label for row in comparison.rows] == ["null", "g"]
        assert comparison.best_key == "g"
        # the covariate model spends 2 extra parameters
        assert comparison.rows[1].n_params - comparison.rows[0].n_params == 2
