import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankmix.data import (
    CovariateDecl,
    DataError,
    RankingValidationError,
    aggregate,
    read_ranking_csv,
)

from conftest import shared_space


def rows_of(rankings, covs_list=None):
    covs_list = covs_list or [{} for _ in rankings]
    return [(np.array(r), c) for r, c in zip(rankings, covs_list)]


class TestAggregate:
    def test_duplicate_rows_share_a_cell(self, space3):
        data = aggregate(space3, rows_of([[1, 2, 3], [1, 2, 3]]), [])
        assert data.counts.sum() == 2
        assert data.counts.max() == 2
        assert data.n_sets == 1

    def test_distinct_combinations_become_sets(self, space3):
        decls = [CovariateDecl("age", "factor"), CovariateDecl("sex", "factor")]
        covs = [
            {"age": "young", "sex": "m"},
            {"age": "young", "sex": "f"},
            {"age": "old", "sex": "m"},
            {"age": "young", "sex": "m"},
        ]
        data = aggregate(space3, rows_of([[1, 2, 3]] * 4, covs), decls)
        assert data.n_sets == 3
        assert data.n_total == 4

    def test_total_preserved_and_cells_nonnegative(self, space4):
        rng = np.random.default_rng(0)
        rankings = [rng.permutation(4) + 1 for _ in range(200)]
        data = aggregate(space4, rows_of(rankings), [])
        assert data.counts.sum() == 200
        assert data.counts.min() >= 0

    def test_bad_row_reports_row_number(self, space3):
        with pytest.raises(RankingValidationError, match="row 2"):
            aggregate(space3, rows_of([[1, 2, 3], [1, 1, 3]]), [])

    def test_missing_covariate_is_an_error(self, space3):
        with pytest.raises(DataError, match="age"):
            aggregate(
                space3,
                rows_of([[1, 2, 3]], [{"sex": "m"}]),
                [CovariateDecl("age", "factor")],
            )

    def test_set_order_is_sorted_and_stable(self, space3):
        decls = [CovariateDecl("g", "factor")]
        covs = [{"g": "b"}, {"g": "a"}, {"g": "c"}]
        data = aggregate(space3, rows_of([[1, 2, 3]] * 3, covs), decls)
        assert [s.factor_levels[0] for s in data.covariate_sets] == ["a", "b", "c"]

    def test_declared_levels_checked(self, space3):
        decls = [CovariateDecl("g", "factor", levels=("a", "b"))]
        with pytest.raises(DataError, match="level"):
            aggregate(space3, rows_of([[1, 2, 3]], [{"g": "z"}]), decls)

    def test_continuous_standardization(self, space3):
        decls = [CovariateDecl("x", "continuous")]
        covs = [{"x": 1.0}, {"x": 3.0}, {"x": 3.0}, {"x": 5.0}]
        data = aggregate(space3, rows_of([[1, 2, 3]] * 4, covs), decls)
        mean, scale = data.continuous_scale["x"]
        assert mean == pytest.approx(3.0)
        z = data.standardized_continuous("x")
        # respondent-weighted mean of z is zero, unit variance
        weights = data.counts.sum(axis=1)
        assert float(np.average(z, weights=weights)) == pytest.approx(0.0, abs=1e-12)
        assert float(np.average(z**2, weights=weights)) == pytest.approx(1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_continuous_covariate_cites_row(self, space3, value):
        decls = [CovariateDecl("x", "continuous")]
        covs = [{"x": 1.0}, {"x": value}]
        with pytest.raises(DataError, match="row 2"):
            aggregate(space3, rows_of([[1, 2, 3]] * 2, covs), decls)

    def test_short_row_and_fractional_rank_cite_row(self, space3):
        with pytest.raises(RankingValidationError,
                           match="^row 2: expected 3 ranks, got 2$"):
            aggregate(space3, rows_of([[1, 2, 3], [1, 2]]), [])
        with pytest.raises(RankingValidationError,
                           match="^row 1: ranks must be integers$"):
            aggregate(space3, rows_of([[1.5, 2, 3]]), [])

    @given(
        st.lists(
            st.tuples(
                st.permutations([1, 2, 3]),
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from(["u", "v"]),
                st.sampled_from([-1.5, 0.0, 2.0, 2.5, 7.0]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_row_by_row_reference(self, draws):
        space = shared_space(3)
        decls = [
            CovariateDecl("g", "factor", levels=("c", "a", "b")),
            CovariateDecl("x", "continuous"),
            CovariateDecl("h", "factor"),
        ]
        rows = [(np.array(r), {"g": g, "h": h, "x": x}) for r, g, h, x in draws]
        data = aggregate(space, rows, decls)

        # reference: one row at a time, keys (g, h, x) sorted as tuples
        keys = [(c["g"], c["h"], float(c["x"])) for _, c in rows]
        cells = [space.rankings.tolist().index(r.tolist()) for r, _ in rows]
        sets = sorted(set(keys))
        counts = np.zeros((len(sets), space.size), dtype=np.int64)
        row_cells = []
        for key, l in zip(keys, cells):
            counts[sets.index(key), l] += 1
            row_cells.append((sets.index(key), l))
        x = np.array([key[2] for key in keys])
        sd = float(x.std())

        assert np.array_equal(data.counts, counts)
        assert data.row_cells.tolist() == [list(c) for c in row_cells]
        assert [(s.index, s.factor_levels, s.continuous_values)
                for s in data.covariate_sets] == [
            (k, key[:2], key[2:]) for k, key in enumerate(sets)
        ]
        assert data.continuous_scale == {"x": (float(x.mean()), sd if sd > 0 else 1.0)}

    @given(st.lists(st.permutations([1, 2, 3]), min_size=1, max_size=40))
    def test_count_preservation_property(self, rankings):
        space = shared_space(3)
        data = aggregate(space, rows_of(rankings), [])
        assert data.counts.sum() == len(rankings)
        assert data.counts.min() >= 0


class TestCsvIngest:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_reads_and_aggregates(self, tmp_path, space3):
        path = self.write(
            tmp_path,
            "a,b,c,grp\n1,2,3,x\n1,2,3,y\n3,2,1,x\n",
        )
        res = read_ranking_csv(
            path, space3, ["a", "b", "c"], [CovariateDecl("grp", "factor")]
        )
        assert res.data.n_total == 3
        assert res.data.n_sets == 2
        assert res.n_rejected == 0

    def test_blank_cells_skip_row_with_count(self, tmp_path, space3):
        path = self.write(
            tmp_path,
            "a,b,c,grp\n1,2,3,x\n,2,3,x\n2,1,3,\n",
        )
        res = read_ranking_csv(
            path, space3, ["a", "b", "c"], [CovariateDecl("grp", "factor")]
        )
        assert res.data.n_total == 1
        assert res.n_rejected == 2
        assert res.data.n_rejected == 2

    def test_tied_ranks_error_cites_line(self, tmp_path, space3):
        path = self.write(tmp_path, "a,b,c\n1,2,3\n2,2,3\n")
        with pytest.raises(RankingValidationError, match="line 3"):
            read_ranking_csv(path, space3, ["a", "b", "c"], [])

    @pytest.mark.parametrize("cell", ["1.5", "inf", "-inf", "nan"])
    def test_non_integral_or_non_finite_rank_cell_cites_line(
        self, tmp_path, space3, cell
    ):
        path = self.write(tmp_path, f"a,b,c\n1,2,3\n{cell},2,3\n")
        with pytest.raises(RankingValidationError, match="line 3"):
            read_ranking_csv(path, space3, ["a", "b", "c"], [])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_continuous_covariate_cites_line(self, tmp_path, space3,
                                                        cell):
        path = self.write(tmp_path, f"a,b,c,x\n1,2,3,0.5\n2,1,3,{cell}\n")
        with pytest.raises(DataError, match="line 3"):
            read_ranking_csv(path, space3, ["a", "b", "c"],
                             [CovariateDecl("x", "continuous")])

    def test_undeclared_level_cites_its_line(self, tmp_path, space3):
        # line 2 is skipped as blank, so the bad value is the second accepted row
        path = self.write(tmp_path, "A,B,C,g\n,,,a\n1,2,3,a\n2,1,3,z\n")
        decls = [CovariateDecl("g", "factor", levels=("a", "b"))]
        with pytest.raises(
            DataError, match="^line 4: level 'z' not among declared levels of 'g'$"
        ):
            read_ranking_csv(path, space3, ["A", "B", "C"], decls)

    def test_first_bad_line_is_cited(self, tmp_path, space3):
        path = self.write(
            tmp_path, "a,b,c,x\n1,2,3,0.5\n1,2,3,nan\n2,1,3,1\n2,2,3,1\n"
        )
        with pytest.raises(DataError, match="^line 3: covariate 'x'"):
            read_ranking_csv(path, space3, ["a", "b", "c"],
                             [CovariateDecl("x", "continuous")])

    def test_rank_error_first_within_a_line(self, tmp_path, space3):
        path = self.write(tmp_path, "a,b,c,x\n1,2,3,0.5\n2,2,3,nan\n")
        with pytest.raises(RankingValidationError,
                           match=r"^line 3: ranks \[2, 2, 3\] are not a permutation"):
            read_ranking_csv(path, space3, ["a", "b", "c"],
                             [CovariateDecl("x", "continuous")])

    def test_order_format_declared_not_detected(self, tmp_path, space3):
        # same file read under both declarations gives inverse permutations
        path = self.write(tmp_path, "a,b,c\n2,3,1\n")
        as_ranks = read_ranking_csv(path, space3, ["a", "b", "c"], [],
                                    ranking_format="ranks")
        as_orders = read_ranking_csv(path, space3, ["a", "b", "c"], [],
                                     ranking_format="orders")
        l_ranks = np.argmax(as_ranks.data.counts[0])
        l_orders = np.argmax(as_orders.data.counts[0])
        assert space3.rankings[l_ranks].tolist() == [2, 3, 1]
        # order (2,3,1): item 1 most preferred, then 2, then 0
        assert space3.rankings[l_orders].tolist() == [3, 1, 2]
        with pytest.raises(DataError):
            read_ranking_csv(path, space3, ["a", "b", "c"], [],
                             ranking_format="guess")

    def test_missing_column_named(self, tmp_path, space3):
        path = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="'c'"):
            read_ranking_csv(path, space3, ["a", "b", "c"], [])

    def test_extra_columns_follow_accepted_rows(self, tmp_path, space3):
        path = self.write(
            tmp_path,
            "a,b,c,country\n1,2,3,AT\n,2,3,IT\n2,1,3,IT\n",
        )
        res = read_ranking_csv(
            path, space3, ["a", "b", "c"], [], extra_columns=("country",)
        )
        assert res.extra_columns["country"] == ["AT", "IT"]
