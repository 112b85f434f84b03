import csv
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rankmix.data
import rankmix.posthoc
from rankmix.data import (
    AggregatedData,
    CovariateDecl,
    CovariateSet,
    DataError,
    RankingValidationError,
    aggregate,
    read_ranking_csv,
)
from rankmix.rankings import order_to_ranks, validate_ranks

from conftest import make_data, shared_space


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
        assert list(zip(data.cell_set[data.row_cells].tolist(),
                        data.cell_pattern[data.row_cells].tolist())) == row_cells
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


class TestObservedCells:
    def cells(self, cell_set, cell_pattern, cell_counts):
        sets = (CovariateSet(0, ("a",), ()), CovariateSet(1, ("b",), ()))
        return AggregatedData(shared_space(3), (CovariateDecl("g", "factor"),), sets,
                              cell_set, cell_pattern, cell_counts)

    def test_counts_round_trip(self):
        counts = np.array([[0, 2, 0, 0, 1, 0], [3, 0, 0, 0, 0, 4]])
        data = make_data(3, counts, factor_levels=["a", "b"])
        assert data.cell_set.tolist() == [0, 0, 1, 1]
        assert data.cell_pattern.tolist() == [1, 4, 0, 5]
        assert data.cell_counts.tolist() == [2, 1, 3, 4]
        assert np.array_equal(data.counts, counts)
        assert (data.n_total, data.n_cells) == (10, 12)
        rebuilt = self.cells(data.cell_set, data.cell_pattern, data.cell_counts)
        assert np.array_equal(rebuilt.counts, counts)

    @pytest.mark.parametrize("cells, message", [
        (([0, 0, 1], [4, 1, 0], [1, 1, 1]), "sorted"),  # unsorted
        (([1, 0], [0, 3], [1, 1]), "sorted"),  # sets out of order
        (([0, 0, 1], [1, 1, 0], [1, 1, 1]), "distinct"),  # duplicate cell
        (([0, 2], [0, 0], [1, 1]), "outside"),  # set out of range
        (([0, 1], [0, 6], [1, 1]), "outside"),  # pattern out of range
        (([0, -1], [0, 0], [1, 1]), "outside"),
        (([0, 1], [0, 0], [1, 0]), "positive"),  # zero count
        (([0, 1], [0, 0], [1, -2]), "positive"),
        (([0, 1], [0, 0], [1]), "vectors"),
        (([[0, 1]], [[0, 0]], [[1, 1]]), "vectors"),
    ])
    def test_bad_cells_raise(self, cells, message):
        with pytest.raises(DataError, match=message):
            self.cells(*cells)

    def test_row_cells_index_the_cells(self, space3):
        rankings = [[3, 1, 2], [1, 2, 3], [3, 1, 2], [2, 1, 3]]
        data = aggregate(space3, rows_of(rankings), [])
        assert data.row_cells.shape == (4,)
        patterns = [space3.rankings.tolist().index(r) for r in rankings]
        assert data.cell_pattern[data.row_cells].tolist() == patterns
        assert np.array_equal(np.bincount(data.row_cells), data.cell_counts)


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

    def test_blank_lines_count_in_the_cited_line(self, tmp_path, space3):
        path = self.write(tmp_path, "a,b,c\n\n1,2,3\n2,2,3\n")
        with pytest.raises(RankingValidationError, match="^line 4: "):
            read_ranking_csv(path, space3, ["a", "b", "c"], [])

    def test_cited_line_is_where_the_record_starts(self, tmp_path, space3):
        # a quoted field spans lines 2-3, and the tied record starts on line 5
        path = self.write(tmp_path, 'a,b,c,note\n1,2,3,"two\nlines"\n\n'
                                    '2,2,3,"also\ntwo"\n')
        with pytest.raises(RankingValidationError, match="^line 5: "):
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

    def test_absent_extra_field_reads_as_empty(self, tmp_path, space3):
        # the second row is short: its country is absent, like the third's blank cell
        path = self.write(tmp_path, "a,b,c,country\n1,2,3,AT\n2,1,3\n3,2,1,\n")
        res = read_ranking_csv(
            path, space3, ["a", "b", "c"], [], extra_columns=("country",)
        )
        assert res.extra_columns["country"] == ["AT", "", ""]

    # Each distinct record is checked and coded once, and its rows are
    # mapped back to it: these fail on a mapping that cites, keys or counts
    # a record by anything but its own rows.

    @pytest.mark.parametrize("bad, error, where", [
        ("1,1,3,0.5", RankingValidationError, "^line 3: "),
        ("2,1,3,abc", DataError, "^line 3: covariate 'x'"),
    ])
    @pytest.mark.parametrize("before", [0, 2])
    def test_a_repeated_bad_record_cites_its_first_line(self, tmp_path, space3, bad,
                                                        error, where, before):
        # the bad record is on lines 3 and 7 (5 and 9 after two more rows of
        # the record on line 2), so its first row is not its record's index
        good = ["1,2,3,0.5"] * (1 + before) + [bad, "1,2,3,0.5", "3,2,1,1", "1,2,3,0.5",
                                               bad, "3,2,1,1"]
        path = self.write(tmp_path, "a,b,c,x\n" + "\n".join(good) + "\n")
        where = re.sub(r"\d+", lambda m: str(int(m[0]) + before), where)
        with pytest.raises(error, match=where):
            read_ranking_csv(path, space3, ["a", "b", "c"],
                             [CovariateDecl("x", "continuous")])

    @pytest.mark.parametrize("cells, want", [
        (["0", "-0", "1", "1.0"], [0.0, 1.0]), (["-0", "0", "1.0", "1"], [-0.0, 1.0]),
    ])
    def test_a_sets_continuous_value_is_its_first_rows(self, tmp_path, space3, cells,
                                                       want):
        # equal values read from different text are one set, reported as
        # the first row reads it: 0 and -0 print apart
        lines = [f"{r},{x}" for r, x in zip(["1,2,3", "2,1,3", "3,2,1", "1,3,2"], cells)]
        path = self.write(tmp_path, "a,b,c,x\n" + "\n".join(lines * 2) + "\n")
        data = read_ranking_csv(path, space3, ["a", "b", "c"],
                                [CovariateDecl("x", "continuous")]).data
        got = [s.continuous_values[0] for s in data.covariate_sets]
        assert got == want and [math.copysign(1, v) for v in got] == [
            math.copysign(1, v) for v in want]
        assert data.cell_counts.tolist() == [2, 2, 2, 2]

    def test_a_record_of_rejected_rows_only_makes_no_cell(self, tmp_path, space3):
        # the blank-cell records come first and repeat: the accepted rows'
        # records are renumbered, and no set, cell or category is left over
        path = self.write(tmp_path, "a,b,c,g,e\n2,1,3,,FR\n1,2,3,x,AT\n2,1,3,,FR\n"
                                    ",,,y,FR\n3,2,1,y,IT\n1,2,3,x,IT\n,,,y,FR\n")
        res = read_ranking_csv(path, space3, ["a", "b", "c"],
                               [CovariateDecl("g", "factor")], extra_columns=("e",))
        data = res.data
        assert [s.factor_levels for s in data.covariate_sets] == [("x",), ("y",)]
        assert data.cell_counts.tolist() == [2, 1]
        assert data.row_cells.tolist() == [0, 1, 0]
        assert res.n_rejected == data.n_rejected == 4
        assert res.extra_columns == {"e": ["AT", "IT", "IT"]}
        labels, codes = res._coded_columns["e"]
        want = rankmix.posthoc._category_codes(data, res.extra_columns["e"])
        assert labels.tolist() == want[0].tolist() == ["AT", "IT"]
        assert codes.tolist() == want[1].tolist()


# CSV text for the reader property: the header names the items a, b, c, the
# factors g (declared levels y, x) and h, the continuous x and the extra e;
# a repeated name is read from its last column, so the first one holds noise
CSV_HEADERS = [
    ("a", "b", "c", "g", "h", "x", "e"),
    ("e", "x", "c", "a", "h", "b", "g"),
    ("g", "a", "b", "c", "h", "x", "e", "g"),
    ("a", "b", "c", "z", "g", "h", "x", "e", "a"),
]
CSV_NOISE = ["", " ", "\t", "\u3000", "\x1c", "\x85", "\xa0", "\u200b", "\x00",
             "2.0", "2.5", "inf", "1e20", "-1", "nan", "abc", "q"]
CSV_DECLS = {"g": CovariateDecl("g", "factor", levels=("y", "x")),
             "h": CovariateDecl("h", "factor"), "x": CovariateDecl("x", "continuous")}


# quoted cells: a comma, a doubled quote and line breaks inside the quotes
CSV_QUOTED = ['"x,y"', '"say ""u"""', '"two\nlines"', '"two\r\nlines"', '"2"', '"u"']
# what may follow the last line ending: nothing, or an unterminated quote
CSV_TAILS = ["", "", "", '"', '"open', '2,1,"3', '3,2,1,"x\ny']


def _csv_record(draw, header):
    ranks = draw(st.permutations(["1", "2", "3"]))
    cells = dict(zip("abc", ranks), g=draw(st.sampled_from(["x", "y"])),
                 h=draw(st.sampled_from(["10", "9", "u"])),
                 x=draw(st.sampled_from(["0.5", "-1", " 2"])), e="AT", z="z")
    record = [cells[name] if name not in header[i + 1:] else "q"
              for i, name in enumerate(header)]
    for pos in draw(st.lists(st.integers(0, len(record) - 1), max_size=2)):
        record[pos] = draw(st.sampled_from(CSV_NOISE + CSV_QUOTED))
    n = len(record)
    return (record + ["7"])[:draw(st.sampled_from([n, n, n, n - 1, n + 1, 1]))]


@st.composite
def csv_texts(draw):
    header = draw(st.sampled_from(CSV_HEADERS))
    lines = ["" if draw(st.integers(0, 9)) == 0 else ",".join(_csv_record(draw, header))
             for _ in range(draw(st.integers(0, 12)))]
    if lines and draw(st.booleans()):
        # duplicate-heavy: rows with a blank item cell join the lines, and
        # each line repeats up to five times, shuffled among the others
        for _ in range(draw(st.integers(0, 3))):
            record = _csv_record(draw, header)
            pos = len(header) - 1 - header[::-1].index(draw(st.sampled_from("abc")))
            lines.append(",".join(record[:pos] + [""] + record[pos + 1:]))
        lines = draw(st.permutations([line for line in lines
                                      for _ in range(draw(st.integers(1, 5)))]))
    endings = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    return "".join(line + draw(endings) for line in [",".join(header), *lines]) + draw(
        st.sampled_from(CSV_TAILS))


def _csv_reference(path, space, items, decls, ranking_format, extra_columns):
    """``read_ranking_csv`` one record at a time, on ``csv.DictReader`` and
    ``aggregate``. A record's line is its first line in the file: DictReader
    stands on a record's last line once it has read it and skips blank lines,
    so that is the first line after the previous record's last that is not
    blank. An absent field reads as empty."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    reader = csv.DictReader(lines, restval="")
    reader.fieldnames  # reads the header
    end, records = reader.line_num, []
    for rec in reader:
        start = next(i for i in range(end, reader.line_num) if lines[i].strip("\r\n"))
        records.append((start + 1, rec))
        end = reader.line_num
    used = [*items, *(d.name for d in decls)]
    accepted = [(line, rec) for line, rec in records
                if all(rec[c].strip() for c in used)]
    rows, rank_error = [], None
    for line, rec in accepted:
        try:
            values = []
            for cell in (rec[c] for c in items):
                value = float(cell)
                if not (math.isfinite(value) and value.is_integer()
                        and abs(value) < 2.0**63):
                    raise ValueError(f"rank cell {cell.strip()!r} is not an integer rank")
                values.append(int(value))
            values = np.array(values, dtype=np.int64)
            ranks = order_to_ranks(values - 1) if ranking_format == "orders" else values
            validate_ranks(ranks, len(items))
        except ValueError as exc:
            rank_error = RankingValidationError(f"line {line}: {exc}")
            break
        rows.append((ranks, {d.name: rec[d.name] for d in decls}))
    if rows or rank_error is None:
        try:
            data = aggregate(space, rows, decls)
        except ValueError as exc:
            message = re.sub(r"^row (\d+)",
                             lambda m: f"line {accepted[int(m[1]) - 1][0]}", str(exc))
            raise type(exc)(message) from exc
    if rank_error is not None:
        raise rank_error
    extras = {name: [rec[name] for _, rec in accepted] for name in extra_columns}
    data.n_rejected = len(records) - len(accepted)
    return data, extras, data.n_rejected


def _outcome(call):
    """The call's (data, extra columns, n_rejected), or its error's type and message."""
    try:
        result = call()
    except (DataError, RankingValidationError) as exc:
        return type(exc), str(exc)
    if not isinstance(result, tuple):
        result = result.data, result.extra_columns, result.n_rejected
    data, extras, n_rejected = result
    return (data.cell_set.tolist(), data.cell_pattern.tolist(), data.cell_counts.tolist(),
            data.row_cells.tolist(), data.covariate_sets, data.continuous_scale,
            data.declarations, data.n_rejected, extras, n_rejected)


class TestCsvReaderProperty:
    @given(csv_texts(), st.lists(st.sampled_from(sorted(CSV_DECLS)), unique=True),
           st.sampled_from(["ranks", "orders"]),
           st.sampled_from([(), ("e",), ("e", "h")]))
    def test_matches_dict_reader_reference(self, text, names, ranking_format, extras):
        space, decls = shared_space(3), [CSV_DECLS[n] for n in names]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_text(text, encoding="utf-8")
            got = _outcome(lambda: read_ranking_csv(
                path, space, ["a", "b", "c"], decls, ranking_format=ranking_format,
                extra_columns=extras))
            want = _outcome(lambda: _csv_reference(
                path, space, ["a", "b", "c"], decls, ranking_format, extras))
        assert got == want

    def test_each_distinct_line_is_parsed_once(self, tmp_path, monkeypatch):
        space, decls = shared_space(3), [CSV_DECLS["g"], CSV_DECLS["x"]]
        distinct = ["1,2,3,x,0.5,AT\n", "3,1,2,y,-1,AT\n", "2,1,3,x,0.5,IT\n", "\n",
                    ",1,2,y,2,IT\n", "2,3,1,x,-1\n"]
        draws = np.random.default_rng(0).integers(len(distinct), size=600)
        lines = ["a,b,c,g,x,e\n", *(distinct[i] for i in draws)]
        path = tmp_path / "data.csv"
        path.write_text("".join(lines), encoding="utf-8")
        call = (path, space, ["a", "b", "c"], decls)
        want = _outcome(lambda: _csv_reference(*call, "ranks", ("e",)))

        parsed, reader = [], rankmix.data.csv.reader

        def spy(lines, *args, **kwargs):
            lines = list(lines)
            parsed.extend(lines)
            return reader(lines, *args, **kwargs)

        monkeypatch.setattr(rankmix.data.csv, "reader", spy)
        got = _outcome(lambda: read_ranking_csv(*call, extra_columns=("e",)))
        monkeypatch.undo()
        assert sorted(parsed) == sorted(set(lines))
        assert got == want
