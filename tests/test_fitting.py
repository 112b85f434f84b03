import math

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
    e_step,
    fit,
    fit_structural,
    init_start,
    m_step,
    run_chain,
    search_classes,
    compare_term_models,
    split_largest_class,
    structural_information,
)
from rankmix.model import Design, ModelSpec, Parameters, mixture_loglik

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


def two_class_params():
    # reference class effects (-0.3, 0.1, 0); first-class offsets on top
    return Parameters(np.array([-0.3, 0.1, 0.8, 0.1]), np.array([0.6, 0.4]))


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
        w = e_step(params, design)
        assert np.all(w == 1.0)

    def test_identical_classes_return_masses(self):
        design, _ = small_design(2)
        params = Parameters(np.array([0.4, -0.2, 0.0, 0.0]),
                            np.array([0.3, 0.7]))
        w = e_step(params, design)
        assert np.abs(w[..., 0] - 0.3).max() < 1e-12
        assert np.abs(w[..., 1] - 0.7).max() < 1e-12

    def test_matches_bayes_rule_oracle(self):
        design, _ = small_design(2)
        w = e_step(two_class_params(), design)
        assert w[0] == pytest.approx(np.array(BAYES_W), abs=1e-12)

    def test_rows_normalize(self):
        design, _ = small_design(3)
        params = init_start(9, design)
        w = e_step(params, design)
        assert np.abs(w.sum(axis=2) - 1.0).max() < 1e-12


class TestMStep:
    def test_mass_update_weighted_average(self):
        # two items, two observed cells with counts 3 and 1
        data = make_data(2, np.array([3, 1]))
        spec = ModelSpec(("A", "B"), (), 2)
        design = Design(spec, data)
        w = np.zeros((1, 2, 2))
        w[0, 0] = (1.0, 0.0)
        w[0, 1] = (0.0, 1.0)
        params = m_step(w, design, data)
        assert params.mixing == pytest.approx([0.75, 0.25])

    def test_single_class_matches_generic_optimizer(self):
        rng = np.random.default_rng(5)
        probs = oracles.ranking_probabilities([0.45, -0.2, 0.0])
        counts = rng.multinomial(400, probs)
        design, data = small_design(1, counts)
        w = np.ones((1, 6, 1))
        params = m_step(w, design, data)

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
        w = e_step(result.params, design)
        refreshed = m_step(w, design, data, start=result.params, config=config)
        assert refreshed.coefficients == pytest.approx(
            result.params.coefficients, abs=1e-6
        )
        assert refreshed.mixing == pytest.approx(result.params.mixing, abs=1e-6)

    def test_degenerate_mass_guard(self):
        design, data = small_design(2)
        w = np.zeros((1, 6, 2))
        w[..., 0] = 1.0 - 1e-9
        w[..., 1] = 1e-9
        with pytest.raises(fitting.DegenerateClassError):
            m_step(w, design, data, min_mass=1e-6)


class TestFitStructural:
    def test_rank_deficient_design_names_columns(self):
        data = make_data(3, np.array([[5, 2, 3, 1, 2, 1], [2, 4, 1, 3, 1, 2]]),
                         factor_levels=["a", "b"])
        spec = ModelSpec(("A", "B", "C"), ("g", "g"), 1)
        design = Design(spec, data)
        w = np.ones((2, 6, 1))
        with pytest.raises(RankDeficientDesignError, match="A:g=b"):
            m_step(w, design, data)

    def test_divergence_error_when_steps_cannot_ascend(self, monkeypatch):
        design, data = small_design(1)
        m = data.counts[:, :, None].astype(float)

        def explode(factor, score):
            return np.full_like(score, 1e30)

        monkeypatch.setattr(fitting.scipy.linalg, "cho_solve", explode)
        with pytest.raises(IrlsDivergenceError):
            fit_structural(m, design)


class TestStructuralInformation:
    """The information is minus the Hessian of the expected-count multinomial
    log-likelihood, which here is summed literally over oracle ranking
    distributions and differentiated numerically."""

    @staticmethod
    def instance():
        # J=3, R=2, one factor term and one continuous term
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
        w = rng.dirichlet(np.ones(2), size=data.counts.shape)
        m = data.counts[:, :, None] * w
        coefs = rng.normal(0, 0.6, design.n_coefficients)
        return design, m, coefs

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
        design, m, coefs = self.instance()
        hess = oracles.numerical_hessian(
            lambda c: self.expected_count_loglik(design, m, c), coefs
        )
        info = structural_information(design, coefs, m)
        assert info == pytest.approx(-hess, rel=1e-5, abs=1e-5)

    def test_fixed_zero_drops_rows_and_columns(self):
        design, m, coefs = self.instance()
        fixed = design.name_to_index["A:x"]
        coefs[fixed] = 0.0
        free = np.delete(np.arange(design.n_coefficients), fixed)

        def loglik_free(v):
            c = np.zeros(design.n_coefficients)
            c[free] = v
            return self.expected_count_loglik(design, m, c)

        hess = oracles.numerical_hessian(loglik_free, coefs[free])
        info = structural_information(design, coefs, m, fixed_zero=(fixed,))
        assert info.shape == (free.size, free.size)
        assert info == pytest.approx(-hess, rel=1e-5, abs=1e-5)


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
        run_chain(design, data, start, FitConfig(max_iter=6, tol=1e-12),
                  callback=record)
        assert len(seen) == 6
        for params, loglik in seen:
            effects = design.item_effects(params.coefficients)
            table = {(k, r): effects[:, k, r]
                     for k in range(design.n_sets) for r in range(2)}
            direct = oracles.mixture_loglik_direct(data.counts, table,
                                                   params.mixing)
            assert loglik == pytest.approx(direct, abs=1e-9)

    def test_m_step_dense_and_cell_weights_bit_identical(self):
        design, data = self.instance()
        rng = np.random.default_rng(4)
        w = rng.dirichlet(np.ones(2), size=data.counts.shape)
        start = init_start(8, design)
        dense = m_step(w, design, data, start=start)
        cells = m_step(design.cell_values(w), design, data, start=start)
        assert np.array_equal(dense.coefficients, cells.coefficients)
        assert np.array_equal(dense.mixing, cells.mixing)

    def test_mismatched_weights_or_data_are_rejected(self):
        design, data = self.instance()
        with pytest.raises(ValueError, match="cell array"):
            m_step(np.ones((design.n_sets, 3, 2)), design, data)
        other, _ = small_design(2)
        w = np.full((other.cell_set.size, 2), 0.5)
        with pytest.raises(DataError, match="count table"):
            m_step(w, other, data)

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
        run_chain(design, data, start, config)
        assert calls == []
        run_chain(design, data, start, config, callback=lambda *args: None)
        assert len(calls) == 4


class TestFit:
    def test_single_class_two_iterations(self):
        design, data = small_design(1)
        result = fit(design.spec, data, FitConfig(seed=1))
        assert result.converged
        assert result.n_iterations <= 2
        assert result.n_starts == 1

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

    def test_split_warm_start_preserves_loglik(self):
        data = self.search_data()
        spec = ModelSpec(("A", "B", "C"), (), 2)
        result = fit(spec, data, FitConfig(n_starts=4, seed=8))
        new_design = Design(spec.with_classes(3), data)
        warm = split_largest_class(result, new_design)
        loglik, _ = mixture_loglik(warm, new_design, data)
        assert loglik == pytest.approx(result.loglik, abs=1e-9)

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
