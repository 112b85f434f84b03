import dataclasses
import math

import numpy as np
import pytest

from rankmix.data import CovariateDecl, DataError, aggregate
from rankmix.fitting import FitConfig, fit
from rankmix.model import ModelSpec
from rankmix.posthoc import (
    assign_classes,
    class_summary,
    crosstab,
    log_odds_ratio,
    odds_vs_reference,
    worth_table,
    CrossTab,
)
from rankmix.simulate import ClassTruth, CovariateTruth, SyntheticTruth, generate_rows

from conftest import make_data, shared_space


def fitted_mixture(n_classes=2, n=900, seed=5, with_factor=True):
    """A small fitted mixture with per-respondent rows available."""
    covariates = (
        CovariateTruth(name="g", kind="factor", values=("a", "b"),
                       probs=(0.5, 0.5), effects={"b": (0.3, 0.0, 0.0)}),
    ) if with_factor else ()
    truth = SyntheticTruth(
        item_labels=("A", "B", "C"),
        classes=(
            ClassTruth(prob=0.55, worths=(0.55, 0.3, 0.15)),
            ClassTruth(prob=0.45, worths=(0.15, 0.3, 0.55)),
        ),
        covariates=covariates,
        n=n,
        seed=seed,
    )
    space = shared_space(3)
    rows = generate_rows(truth, space)
    decls = [CovariateDecl("g", "factor")] if with_factor else []
    data = aggregate(space, rows, decls)
    terms = ("g",) if with_factor else ()
    spec = ModelSpec(("A", "B", "C"), terms, n_classes)
    result = fit(spec, data, FitConfig(n_starts=4, seed=2))
    return result, data, rows


@pytest.fixture(scope="module")
def mixture():
    return fitted_mixture()


class TestClassSummary:
    def test_single_class_is_all_ones(self):
        result, data, _ = fitted_mixture(n_classes=1, n=120, with_factor=False)
        summary = class_summary(result, data)
        assert summary.pattern_shares.tolist() == [1.0]
        assert summary.respondent_shares.tolist() == [1.0]

    def test_shares_sum_to_one(self, mixture):
        result, data, _ = mixture
        summary = class_summary(result, data)
        assert summary.pattern_shares.sum() == pytest.approx(1.0, abs=1e-10)
        assert summary.respondent_shares.sum() == pytest.approx(1.0, abs=1e-10)

    def test_respondent_shares_equal_masses_at_convergence(self, mixture):
        # equality is exact only in the EM limit; the gap shrinks with tol
        result, data, _ = mixture
        summary = class_summary(result, data)
        assert summary.respondent_shares == pytest.approx(result.params.mixing,
                                                          abs=1e-3)

    def test_equal_cell_counts_level_the_two_shares(self):
        data = make_data(3, np.full(6, 4))
        result = fit(ModelSpec(("A", "B", "C"), (), 2), data,
                     FitConfig(n_starts=2, seed=1, max_iter=20))
        summary = class_summary(result, data)
        assert summary.pattern_shares == pytest.approx(
            summary.respondent_shares, abs=1e-12
        )

    def test_offset_intervals_from_se_report(self, mixture):
        result, data, _ = mixture
        from rankmix.inference import standard_error_report

        report = standard_error_report(result, data, methods=("raw",))
        summary = class_summary(result, data, se_report=report)
        offsets = summary.offsets
        width = summary.offset_upper - summary.offset_lower
        for idx, coef in enumerate(result.design.coefficients):
            if coef.kind != "class":
                continue
            se = report.rows[idx].se_raw
            assert width[coef.item, coef.class_index] == pytest.approx(
                2 * 1.96 * se
            )
        # reference entries pinned at zero
        assert np.all(summary.offset_lower[:, -1] == 0.0)
        assert np.all(summary.offset_upper[-1, :] == 0.0)
        assert np.all(offsets[:, -1] == 0.0)


class TestAssignment:
    def test_single_class_assigns_everyone_to_one(self):
        result, data, rows = fitted_mixture(n_classes=1, n=50, with_factor=False)
        table = assign_classes(result, data)
        assert np.all(table.assigned == 1)
        assert table.assigned.size == 50

    def test_argmax_with_tie_break_to_lowest(self, mixture):
        result, data, _ = mixture
        w = result.posteriors.copy()
        w[:] = 0.0
        w[..., 0], w[..., 1] = 0.5, 0.5
        forged = dataclasses.replace(result, posteriors=w)
        table = assign_classes(forged, data)
        assert np.all(table.assigned == 1)

        w[..., 0], w[..., 1] = 0.3, 0.7
        forged = dataclasses.replace(result, posteriors=w)
        assert np.all(assign_classes(forged, data).assigned == 2)

    def test_invariant_to_monotone_posterior_transform(self, mixture):
        result, data, _ = mixture
        base = assign_classes(result, data)
        squashed = dataclasses.replace(
            result, posteriors=np.sqrt(result.posteriors)
        )
        assert np.array_equal(assign_classes(squashed, data).assigned,
                              base.assigned)

    def test_shared_cells_share_assignment(self, mixture):
        result, data, _ = mixture
        table = assign_classes(result, data)
        cells = {}
        for i in range(table.assigned.size):
            key = (table.set_index[i], table.pattern_index[i])
            cells.setdefault(key, set()).add(table.assigned[i])
        assert all(len(v) == 1 for v in cells.values())

    def test_requires_row_level_data(self):
        data = make_data(3, np.ones(6, dtype=int))
        result = fit(ModelSpec(("A", "B", "C"), (), 1), data, FitConfig(seed=0))
        with pytest.raises(DataError, match="per-respondent"):
            assign_classes(result, data)


class TestCrossTab:
    def test_expected_row_sums_match_category_sizes(self, mixture):
        result, data, rows = mixture
        categories = ["north" if i % 3 else "south" for i in range(len(rows))]
        tab = crosstab(result, data, categories, mode="expected")
        sizes = {lab: categories.count(lab) for lab in tab.row_labels}
        for i, lab in enumerate(tab.row_labels):
            assert tab.table[i].sum() == pytest.approx(sizes[lab], abs=1e-8)

    def test_hard_mode_totals_exact(self, mixture):
        result, data, rows = mixture
        categories = ["x" if i % 2 else "y" for i in range(len(rows))]
        tab = crosstab(result, data, categories, mode="hard")
        assert tab.table.sum() == len(rows)
        assert float(tab.table.sum()) == float(int(tab.table.sum()))

    def test_single_category_recovers_expected_class_totals(self, mixture):
        result, data, rows = mixture
        tab = crosstab(result, data, ["all"] * len(rows), mode="expected")
        expected = (result.design.cell_counts[:, None] * result.posteriors).sum(axis=0)
        assert tab.table[0] == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("mode", ["expected", "hard"])
    def test_integer_categories_sort_as_strings(self, mixture, mode):
        result, data, rows = mixture
        categories = [9 if i % 3 else 10 for i in range(len(rows))]
        tab = crosstab(result, data, categories, mode=mode)
        assert tab.row_labels == ["10", "9"]
        # reference: one respondent at a time
        design = result.design
        cell_row = {(k, l): i for i, (k, l) in
                    enumerate(zip(design.cell_set, design.cell_pattern))}
        assigned = assign_classes(result, data).assigned
        reference = np.zeros((2, design.n_classes))
        pairs = zip(data.cell_set[data.row_cells], data.cell_pattern[data.row_cells])
        for cat, (k, l), a in zip(categories, pairs, assigned):
            pos = tab.row_labels.index(str(cat))
            if mode == "expected":
                reference[pos] += result.posteriors[cell_row[(k, l)]]
            else:
                reference[pos, a - 1] += 1.0
        assert np.array_equal(tab.table, reference)

    def test_length_mismatch_is_an_error(self, mixture):
        result, data, rows = mixture
        with pytest.raises(DataError, match="respondents"):
            crosstab(result, data, ["a", "b"])


class TestLogOdds:
    def table(self, grid):
        return CrossTab(row_labels=["r0", "r1"], table=np.array(grid, float),
                        mode="hard")

    def test_independence_gives_zero(self):
        tab = self.table([[10, 10], [10, 10]])
        assert log_odds_ratio(tab, 0, 1, 0, 1) == pytest.approx(0.0)

    def test_arithmetic(self):
        tab = self.table([[20, 5], [5, 20]])
        assert log_odds_ratio(tab, 0, 1, 0, 1) == pytest.approx(math.log(16))

    def test_scale_invariance(self):
        tab = self.table([[20, 5], [5, 20]])
        doubled = self.table([[40, 10], [10, 40]])
        assert log_odds_ratio(tab, 0, 1, 0, 1) == pytest.approx(
            log_odds_ratio(doubled, 0, 1, 0, 1)
        )

    def test_antisymmetry_exact(self):
        tab = self.table([[17, 3], [8, 11]])
        assert log_odds_ratio(tab, 0, 1, 0, 1) == -log_odds_ratio(tab, 1, 0, 0, 1)

    def test_zero_cell_suggests_correction(self):
        tab = self.table([[0, 5], [5, 20]])
        with pytest.raises(DataError, match="continuity"):
            log_odds_ratio(tab, 0, 1, 0, 1)
        value = log_odds_ratio(tab, 0, 1, 0, 1, continuity=True)
        assert value == pytest.approx(math.log((0.5 * 20.5) / (5.5 * 5.5)))


class TestWorths:
    def test_zero_coefficients_give_uniform_worths(self):
        data = make_data(3, np.ones(6, dtype=int))
        result = fit(ModelSpec(("A", "B", "C"), (), 1), data, FitConfig(seed=0))
        rows = worth_table(result, data)
        for row in rows:
            assert row["worth"] == pytest.approx(1 / 3, abs=1e-9)

    def test_blocks_sum_to_one_and_positive(self, mixture):
        result, data, _ = mixture
        rows = worth_table(result, data)
        blocks = {}
        for row in rows:
            blocks.setdefault((row["set"], row["class"]), []).append(row["worth"])
        assert len(blocks) == data.n_sets * result.spec.n_classes
        for values in blocks.values():
            assert sum(values) == pytest.approx(1.0, abs=1e-10)
            assert all(v > 0 for v in values)

    def test_reference_class_worths_ignore_offsets(self, mixture):
        result, data, _ = mixture
        from rankmix.model import worths as worth_fn

        rows = worth_table(result, data)
        design = result.design
        R = design.n_classes
        structural = result.params.coefficients.copy()
        for idx, coef in enumerate(design.coefficients):
            if coef.kind == "class":
                structural[idx] = 0.0
        effects = design.item_effects(structural)
        for row in rows:
            if row["class"] != R:
                continue
            k = row["set"]
            j = list(result.spec.item_labels).index(row["item"])
            assert row["worth"] == pytest.approx(
                float(worth_fn(effects[:, k, 0])[j]), abs=1e-12
            )

    def test_offset_odds_formatter(self):
        assert round(odds_vs_reference(-0.84), 3) == 0.186
        assert odds_vs_reference(0.0) == 1.0
