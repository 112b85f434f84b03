"""Aggregation of raw ranking rows into the observed (set, pattern) cells.

Respondents sharing the same observed covariate combination form one
covariate set; the data enter the model as counts n[k, l] of respondents
per (covariate set k, pattern l) cell, stored only where nonzero, as a list
of cells sorted by (set, pattern) that no other module rebuilds.
Continuous covariates are centered and scaled here so downstream IRLS sees
standardized columns; the scale is kept so raw-scale coefficients can be
reported back. A CSV file is coded through its distinct lines (records,
where a quoted field holds a line break): each is parsed, checked, keyed
and given its cell once, and a column's cells are coded through their
fields, so values are checked, converted and sorted once per distinct
value. A row costs one dict lookup, which finds its record, and its place
in a few array gathers and one count. A failing record is rechecked alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import chain, repeat, zip_longest

import numpy as np

from .rankings import (PatternSpace, RankingValidationError, _lehmer_code,
                       order_to_ranks, validate_ranks)


class DataError(ValueError):
    """Input rows or table shapes are unusable."""


_MISSING = object()  # a declared covariate absent from an aggregate() row


def _float_or_nan(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _continuous_value(name: str, value) -> float:
    """A continuous covariate value as a finite float."""
    if not math.isfinite(number := _float_or_nan(value)):
        raise DataError(
            f"covariate {name!r}: {str(value).strip()!r} is not a finite number")
    return number


def _floats(values: np.ndarray) -> np.ndarray:
    """An object array as float64 by ``float()``; what it rejects reads as NaN."""
    try:
        return values.astype(np.float64)
    except (TypeError, ValueError):
        return np.vectorize(_float_or_nan, otypes=[np.float64])(values)


def _coded(cells, sort=False) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of ``cells`` as an object array, first seen first
    or sorted, and each entry's index into them: one dict pass over the entries,
    then one lookup per entry unless no entry repeats and the order is kept."""
    index = dict.fromkeys(cells)
    distinct = sorted(index) if sort else list(index)
    if len(distinct) == len(cells) and not sort:
        return np.fromiter(distinct, object, len(distinct)), np.arange(len(cells))
    index.update(zip(distinct, range(len(distinct))))
    return (np.fromiter(distinct, object, len(distinct)),
            np.fromiter(map(index.__getitem__, cells), np.intp, len(cells)))


@dataclass(frozen=True)
class CovariateDecl:
    """Declared respondent covariate: a factor or a continuous measurement.

    For factors, ``levels`` fixes the level order (first level is the
    reference); when omitted, levels are the sorted observed values.
    Declared levels are distinct strings, as the values they match are read.
    """

    name: str
    kind: str  # "factor" or "continuous"
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("factor", "continuous"):
            raise DataError(f"covariate {self.name!r}: unknown kind {self.kind!r}")
        for pos, level in enumerate(self.levels or ()):
            if not isinstance(level, str):
                raise DataError(f"covariate {self.name!r}: level {level!r} is not a string")
            if level in self.levels[:pos]:
                raise DataError(f"covariate {self.name!r}: level {level!r} is declared twice")


@dataclass(frozen=True)
class CovariateSet:
    """One distinct observed combination of covariate values."""

    index: int
    factor_levels: tuple[str, ...]  # one level per declared factor
    continuous_values: tuple[float, ...]  # raw scale, one per continuous covariate


def _of_kind(declarations, kind: str) -> list[CovariateDecl]:
    return [d for d in declarations if d.kind == kind]


@dataclass
class AggregatedData:
    """The observed (set, pattern, count) cells plus the set definitions.

    The cells are those with a nonzero count, sorted by (set, pattern).
    ``row_cells`` holds each accepted input row's index into them, so
    post-hoc per-respondent analyses stay possible after aggregation.
    """

    space: PatternSpace
    declarations: tuple[CovariateDecl, ...]
    covariate_sets: tuple[CovariateSet, ...]
    cell_set: np.ndarray  # (nnz,) ints, as are cell_pattern and cell_counts
    cell_pattern: np.ndarray
    cell_counts: np.ndarray
    continuous_scale: dict[str, tuple[float, float]] = field(default_factory=dict)
    row_cells: np.ndarray | None = None  # (N_rows,) cell index of each row
    n_rejected: int = 0

    def __post_init__(self):
        cells = [np.asarray(x, dtype=np.int64)
                 for x in (self.cell_set, self.cell_pattern, self.cell_counts)]
        self.cell_set, self.cell_pattern, self.cell_counts = cells
        if cells[0].ndim != 1 or len({c.shape for c in cells}) > 1:
            raise DataError("cell sets, patterns and counts must be equal-length vectors")
        K, L = self.n_sets, self.space.size
        if np.any((self.cell_set < 0) | (self.cell_set >= K)
                  | (self.cell_pattern < 0) | (self.cell_pattern >= L)):
            raise DataError(f"a cell lies outside {K} covariate sets x {L} patterns")
        if np.any(self.cell_counts <= 0):
            raise DataError("cell counts must be positive")
        if np.any(np.diff(self.cell_set * L + self.cell_pattern) <= 0):
            raise DataError("cells must be sorted by (set, pattern) and distinct")

    @property
    def counts(self) -> np.ndarray:
        """The dense (K, L) count table, built anew on each read."""
        table = np.zeros((self.n_sets, self.space.size), dtype=np.int64)
        table[self.cell_set, self.cell_pattern] = self.cell_counts
        return table

    @property
    def n_sets(self) -> int:
        return len(self.covariate_sets)

    @property
    def n_total(self) -> int:
        return int(self.cell_counts.sum())

    @property
    def n_cells(self) -> int:
        return self.n_sets * self.space.size

    def covariate_names(self, kind: str) -> list[str]:
        """Declared "factor" or "continuous" names, in the sets' value order."""
        return [d.name for d in _of_kind(self.declarations, kind)]

    def set_covariates(self) -> list[dict]:
        """Per set, {covariate: value}: factor levels, then raw continuous values."""
        names = self.covariate_names("factor") + self.covariate_names("continuous")
        return [dict(zip(names, s.factor_levels + s.continuous_values))
                for s in self.covariate_sets]

    def factor_level_order(self, name: str) -> tuple[str, ...]:
        for pos, decl in enumerate(_of_kind(self.declarations, "factor")):
            if decl.name == name:
                seen = {s.factor_levels[pos] for s in self.covariate_sets}
                return tuple(sorted(seen) if decl.levels is None else decl.levels)
        raise DataError(f"no factor covariate named {name!r}")

    def standardized_continuous(self, name: str) -> np.ndarray:
        """Centered and scaled values of a continuous covariate, one per set."""
        names = self.covariate_names("continuous")
        if name not in names:
            raise DataError(f"no continuous covariate named {name!r}")
        pos = names.index(name)
        raw = np.array([s.continuous_values[pos] for s in self.covariate_sets])
        mean, scale = self.continuous_scale[name]
        # in units of a power of two, as in _mean_std, so no difference overflows
        e = int(np.frexp(np.abs(raw).max())[1])
        return (np.ldexp(raw, -e) - np.ldexp(mean, -e)) / np.ldexp(scale, -e)


def aggregate(space: PatternSpace, rows, declarations) -> AggregatedData:
    """Aggregate (rank vector, covariate dict) rows into an AggregatedData.

    Covariate sets are the distinct observed combinations, sorted by their
    values so set indices are reproducible. The first row that is not a
    complete ranking, misses a declared covariate, or has a continuous
    value that is not a finite number raises, citing its row number.
    """
    rows, declarations = list(rows), tuple(declarations)
    rank_rows = [ranks for ranks, _ in rows]
    # each row is its own record: equal values may still print apart (1 and 1.0)
    covariates = {d.name: (np.fromiter((c.get(d.name, _MISSING) for _, c in rows), object),
                           np.arange(len(rows))) for d in declarations}
    return _aggregate(space, _floats(np.array(rank_rows, dtype=object)), covariates,
                      np.arange(len(rows)), declarations,
                      lambda r: validate_ranks(rank_rows[r], space.n_items),
                      lambda i: f"row {i + 1}")


def _aggregate(space, values, covariates, rows, declarations, recheck_ranks, where,
               orders=False, n_rejected=0) -> AggregatedData:
    """Aggregate respondent ``rows``, each given as the index of its record.

    A record is a float rank row of ``values`` (an order row with ``orders``)
    and, per covariate, a code into its distinct values: ``covariates[name]``
    is (distinct values, record codes). Every record is used by some row, and
    records come in the order of their first rows, so a set's values as read
    are those of its first row. Records are checked, keyed and coded once, and
    rows are counted into their records' cells. A failing record is rechecked
    by ``recheck_ranks(record)``, citing ``where(row)`` of its first row.
    """
    n, n_items = len(rows), space.n_items
    if n == 0:
        raise DataError("no usable rows to aggregate")
    bad = (~np.all(np.sort(values, axis=1) == np.arange(1, n_items + 1), axis=1)
           if values.shape[1:] == (n_items,) else np.ones(len(values), dtype=bool))
    # a record's key: factor levels, then continuous values, each coded by rank
    ordered = _of_kind(declarations, "factor") + _of_kind(declarations, "continuous")
    columns = []  # per covariate: each distinct value as read, its rank, record codes
    for decl in ordered:
        distinct, codes = covariates[decl.name]
        if decl.kind == "factor":
            read = [str(v) for v in distinct]
            rank = _coded(read, sort=True)[1]
            ok = np.array([v is not _MISSING and (decl.levels is None or level in decl.levels)
                           for v, level in zip(distinct, read)], dtype=bool)
        else:
            read = _floats(distinct)
            rank = np.unique(read, return_inverse=True)[1]
            ok = np.isfinite(read)  # a missing value reads as NaN
        bad |= ~ok[codes]
        columns.append((read, rank, codes))
    for r in np.flatnonzero(bad):  # raises at the first row that truly fails
        _recheck_record(r, where(int(np.argmax(rows == r))), recheck_ranks,
                        covariates, ordered)
    if bad.any():  # only if the array checks and the scalar checks disagree
        raise AssertionError(f"{where(int(np.argmax(bad[rows])))} fails the array checks only")

    # fold the key column by column: sets in lexicographic order, keys below len(values)
    set_index, first = np.zeros(len(values), dtype=np.intp), np.zeros(1, dtype=np.intp)
    for _, rank, codes in columns:
        _, first, set_index = np.unique(set_index * (int(rank.max()) + 1) + rank[codes],
                                        return_index=True, return_inverse=True)
    ranks = values.astype(np.int64)
    if orders:
        ranks = np.argsort(ranks, axis=1) + 1  # the inverse permutation, 1-based
    # a record's cell as one sortable number, set-major; only this module knows it
    flat = set_index * space.size + _lehmer_code(ranks)
    cells, record_cells = np.unique(flat, return_inverse=True)
    row_cells = record_cells[rows]
    cell_counts = np.bincount(row_cells, minlength=cells.size)
    cell_set, cell_pattern = np.divmod(cells, space.size)
    nf = len(_of_kind(declarations, "factor"))
    # in key order; each column's values at the sets' first records, zipped per set
    levels = [np.asarray(read, dtype=object)[codes[first]].tolist()  # lists of str
              for read, _, codes in columns[:nf]]
    numbers = [read[codes[first]].tolist() for read, _, codes in columns[nf:]]
    sets = tuple(map(CovariateSet, range(first.size),
                     zip(*levels) if levels else repeat(()),
                     zip(*numbers) if numbers else repeat(())))
    # standardize continuous covariates over respondents, not over sets
    scale = {d.name: _mean_std(read[codes[rows]])
             for d, (read, _, codes) in zip(ordered[nf:], columns[nf:])}
    return AggregatedData(space, declarations, sets, cell_set, cell_pattern, cell_counts,
                          continuous_scale=scale, n_rejected=n_rejected,
                          row_cells=row_cells)


def _mean_std(x: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation (1 in place of 0) of finite values, in units
    of a power of two near max |x|: exact, and no sum or square overflows."""
    e = int(np.frexp(np.abs(x).max())[1])
    y = np.ldexp(x, -e)
    return float(np.ldexp(y.mean(), e)), float(np.ldexp(y.std(), e)) or 1.0


def _recheck_record(r, place, recheck_ranks, covariates, ordered):
    """Record ``r``'s scalar checks in their original order; errors cite ``place``."""
    values = {name: distinct[codes[r]] for name, (distinct, codes) in covariates.items()}
    try:
        recheck_ranks(r)
        for name, value in values.items():
            if value is _MISSING:
                raise DataError(f"missing covariate {name!r}")
        for decl in ordered:  # factors, then continuous covariates
            value = values[decl.name]
            if decl.kind == "continuous":
                _continuous_value(decl.name, value)
            elif decl.levels is not None and str(value) not in decl.levels:
                raise DataError(
                    f"level {str(value)!r} not among declared levels of {decl.name!r}")
    except ValueError as exc:
        kind = DataError if isinstance(exc, DataError) else RankingValidationError
        raise kind(f"{place}: {exc}") from exc


@dataclass
class IngestResult:
    """What :func:`read_ranking_csv` read: the aggregated data, each extra
    column coded once, and the number of rejected rows."""

    data: AggregatedData
    _coded_columns: dict[str, tuple[np.ndarray, np.ndarray]]  # sorted labels, row codes
    n_rejected: int

    @property
    def extra_columns(self) -> dict[str, list[str]]:
        """Each extra column's cells, aligned with the accepted rows."""
        return {name: labels[codes].tolist()
                for name, (labels, codes) in self._coded_columns.items()}


def _rank_cell(text: str) -> int:
    """A rank or order cell as an int; "2" and "2.0" pass, "2.5" and "inf" do not."""
    value = float(text)
    if not (math.isfinite(value) and value.is_integer() and abs(value) < 2.0**63):
        raise ValueError(f"rank cell {text.strip()!r} is not an integer rank")
    return int(value)


def read_ranking_csv(
    path,
    space: PatternSpace,
    item_columns,
    declarations,
    covariate_columns=None,
    ranking_format: str = "ranks",
    extra_columns=(),
) -> IngestResult:
    """Read one-row-per-respondent CSV rankings and aggregate them.

    A record is one line of the file (lines end at \\n, \\r or \\r\\n),
    unless a quoted field holds a line break; then it spans the lines
    csv.reader reads for it. Blank lines are skipped, and a field absent
    from a short record reads as empty.

    ``item_columns`` lists the J rank columns in item order.
    ``ranking_format`` must be declared ("ranks" or "orders"); the two
    encodings are mutual inverses and are never auto-detected. Rows with
    blank cells in any used column are skipped and counted as rejected;
    rows with present but invalid values (ties, rank gaps, bad numbers,
    undeclared factor levels, continuous covariates that are not finite
    numbers) abort with the first offending line number.
    """
    if ranking_format not in ("ranks", "orders"):
        raise DataError(f"unknown ranking_format {ranking_format!r}")
    declarations = tuple(declarations)
    covariate_columns = dict(covariate_columns or {})
    for decl in declarations:
        covariate_columns.setdefault(decl.name, decl.name)

    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()  # split as file iteration splits: at \n, \r and \r\n only
    first_line = np.arange(1, len(lines) + 1)  # each record's first line
    try:  # csv.Error, e.g. a field past csv.field_size_limit() after an unclosed quote
        if '"' in "".join(lines):  # a quoted field may hold line breaks
            reader = csv.reader(lines)
            ends = [reader.line_num for _ in reader]
            first_line = np.array([0, *ends[:-1]], dtype=np.intp) + 1
            lines = ["".join(lines[a - 1:b]) for a, b in zip(first_line, ends)]
        header = next(csv.reader(lines[:1]), None)
        texts, codes = _coded(lines[1:])  # each row's distinct record, and each row's code
        records, first_line = list(csv.reader(texts)), first_line[1:]  # each is parsed once
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file, header row required")
    for col in [*item_columns, *covariate_columns.values(), *extra_columns]:
        if col not in header:
            raise DataError(f"{path}: column {col!r} not in header")
    used = [*item_columns, *(covariate_columns[d.name] for d in declarations)]
    if not all(records):  # blank lines are skipped, as by csv.DictReader
        row = np.fromiter(map(bool, records), bool, len(records))[codes]
        kept, codes = np.unique(codes[row], return_inverse=True)
        records, first_line = list(map(records.__getitem__, kept.tolist())), first_line[row]
    # name -> (distinct cells, each distinct record's field code), coded as each
    # column is transposed; absent fields read as empty, a repeated name keeps its last
    columns = chain(zip_longest(*records, fillvalue=""), repeat(("",) * len(records)))
    fields = {name: _coded(cells) for name, cells in zip(header, columns)
              if name in {*used, *extra_columns}}
    del lines, texts, records, columns  # the text, and the iterators that hold every record
    kept = ~np.any([np.array([not v.strip() for v in cells], dtype=bool)[field]
                    for cells, field in map(fields.get, used)], axis=0)
    accepted = kept[codes]  # a record with a blank used cell rejects its rows
    n_rejected = int(accepted.size - np.count_nonzero(accepted))
    # each accepted row's record among the kept ones, which keep their order
    rows, first_line = (np.cumsum(kept) - 1)[codes[accepted]], first_line[accepted]
    column = {name: (cells, field[kept]) for name, (cells, field) in fields.items()}
    items = [column[name] for name in item_columns]

    def recheck_ranks(r):
        values = np.array([_rank_cell(cells[codes[r]]) for cells, codes in items], np.int64)
        # order columns hold 1-based item positions by preference
        ranks = order_to_ranks(values - 1) if ranking_format == "orders" else values
        validate_ranks(ranks, space.n_items)

    data = _aggregate(
        space, np.column_stack([_floats(cells)[codes] for cells, codes in items]),
        {d.name: column[covariate_columns[d.name]] for d in declarations}, rows,
        declarations, recheck_ranks,
        lambda i: f"line {first_line[i]}",
        orders=ranking_format == "orders", n_rejected=n_rejected,
    )
    extras = {name: _sorted_codes(*column[name], rows) for name in extra_columns}
    return IngestResult(data, extras, n_rejected)


def _sorted_codes(cells, codes, rows):
    """The distinct ``cells`` that the records' ``codes`` use, sorted as
    :func:`posthoc.crosstab` sorts categories, and each row's index into them."""
    present = np.unique(codes)
    labels, rank = _coded(cells[present].tolist(), sort=True)
    index = np.zeros(len(cells), dtype=np.intp)
    index[present] = rank
    return labels, index[codes][rows]
