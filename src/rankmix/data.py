"""Aggregation of raw ranking rows into the (pattern x covariate set) table.

Respondents sharing the same observed covariate combination form one
covariate set; the data enter the model as counts n[k, l] of respondents
per (covariate set k, pattern l) cell. Continuous covariates are centered
and scaled here so downstream IRLS sees standardized columns; the scale
is kept so raw-scale coefficients can be reported back. All rows are checked
at once with array operations; a failing row is rechecked alone for its error.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class CovariateDecl:
    """Declared respondent covariate: a factor or a continuous measurement.

    For factors, ``levels`` fixes the level order (first level is the
    reference); when omitted, levels are the sorted observed values.
    """

    name: str
    kind: str  # "factor" or "continuous"
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("factor", "continuous"):
            raise DataError(f"covariate {self.name!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class CovariateSet:
    """One distinct observed combination of covariate values."""

    index: int
    factor_levels: tuple[str, ...]  # one level per declared factor
    continuous_values: tuple[float, ...]  # raw scale, one per continuous covariate


@dataclass
class AggregatedData:
    """Counts per (covariate set, pattern) plus the set definitions.

    ``row_cells`` retains the (set, pattern) cell of each accepted input
    row so post-hoc per-respondent analyses stay possible after
    aggregation.
    """

    space: PatternSpace
    declarations: tuple[CovariateDecl, ...]
    covariate_sets: tuple[CovariateSet, ...]
    counts: np.ndarray  # (K, L) nonnegative ints
    continuous_scale: dict[str, tuple[float, float]] = field(default_factory=dict)
    row_cells: np.ndarray | None = None  # (N_rows, 2) of (set index, pattern index)
    n_rejected: int = 0

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (len(self.covariate_sets), self.space.size):
            raise DataError(
                f"count table shape {self.counts.shape} does not match "
                f"{len(self.covariate_sets)} covariate sets x {self.space.size} patterns"
            )
        if np.any(self.counts < 0):
            raise DataError("negative cell count")

    @property
    def n_sets(self) -> int:
        return len(self.covariate_sets)

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())

    @property
    def n_cells(self) -> int:
        return self.counts.size

    def factor_level_order(self, name: str) -> tuple[str, ...]:
        for pos, decl in enumerate(d for d in self.declarations if d.kind == "factor"):
            if decl.name == name:
                seen = {s.factor_levels[pos] for s in self.covariate_sets}
                return tuple(sorted(seen) if decl.levels is None else decl.levels)
        raise DataError(f"no factor covariate named {name!r}")

    def standardized_continuous(self, name: str) -> np.ndarray:
        """Centered and scaled values of a continuous covariate, one per set."""
        names = [d.name for d in self.declarations if d.kind == "continuous"]
        if name not in names:
            raise DataError(f"no continuous covariate named {name!r}")
        pos = names.index(name)
        raw = np.array([s.continuous_values[pos] for s in self.covariate_sets])
        mean, scale = self.continuous_scale[name]
        return (raw - mean) / scale


def aggregate(space: PatternSpace, rows, declarations) -> AggregatedData:
    """Aggregate (rank vector, covariate dict) rows into an AggregatedData.

    Covariate sets are the distinct observed combinations, sorted by their
    values so set indices are reproducible. The first row that is not a
    complete ranking, misses a declared covariate, or has a continuous
    value that is not a finite number raises, citing its row number.
    """
    rows, declarations = list(rows), tuple(declarations)
    rank_rows = [ranks for ranks, _ in rows]
    covariates = {d.name: np.fromiter((c.get(d.name, _MISSING) for _, c in rows),
                                      dtype=object, count=len(rows)) for d in declarations}
    return _aggregate(space, np.array(rank_rows, dtype=object), covariates, declarations,
                      lambda i: validate_ranks(rank_rows[i], space.n_items),
                      lambda i: f"row {i + 1}")


def _aggregate(space, values, covariates, declarations, recheck_ranks, where,
               orders=False, n_rejected=0) -> AggregatedData:
    """Aggregate raw rank rows (order rows with ``orders``) and covariates, held
    in object arrays; failing rows are checked again in order until one raises."""
    n, n_items = len(values), space.n_items
    if n == 0:
        raise DataError("no usable rows to aggregate")
    values = _floats(values)  # rows of unequal length read as one NaN each
    bad = (~np.all(np.sort(values, axis=1) == np.arange(1, n_items + 1), axis=1)
           if values.shape[1:] == (n_items,) else np.ones(n, dtype=bool))
    # a row's key: factor levels, then continuous values, each coded by rank
    factor_decls = [d for d in declarations if d.kind == "factor"]
    cont_decls = [d for d in declarations if d.kind == "continuous"]
    columns, codes = [], []
    for decl in factor_decls + cont_decls:
        raw = covariates[decl.name]
        factor = decl.kind == "factor"
        column = np.fromiter(map(str, raw), object, n) if factor else _floats(raw)
        observed, code = np.unique(column, return_inverse=True)
        bad |= raw == _MISSING
        if not factor:
            bad |= ~np.isfinite(column)
        elif decl.levels is not None:
            bad |= ~np.array([lev in decl.levels for lev in observed], dtype=bool)[code]
        columns.append(column)
        codes.append(code)
    for i in np.flatnonzero(bad):  # raises at the first row that truly fails
        _recheck_row(i, where(i), recheck_ranks, covariates, factor_decls + cont_decls)
    if bad.any():  # only if the array checks and the scalar checks disagree
        raise AssertionError(f"{where(int(np.argmax(bad)))} fails the array checks only")

    keys = np.column_stack(codes) if codes else np.zeros((n, 0), dtype=np.int64)
    _, first, set_index = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    set_index = set_index.reshape(n)
    ranks = values.astype(np.int64)
    if orders:
        ranks = np.argsort(ranks, axis=1) + 1  # the inverse permutation, 1-based
    patterns = _lehmer_code(ranks)
    n_sets, n_patterns, nf = len(first), space.size, len(factor_decls)
    counts = np.bincount(set_index * n_patterns + patterns, minlength=n_sets * n_patterns)
    sets = tuple(  # in key order; values from the set's first row
        CovariateSet(k, tuple(c[i] for c in columns[:nf]),
                     tuple(float(c[i]) for c in columns[nf:]))
        for k, i in enumerate(first.tolist()))
    # standardize continuous covariates over respondents, not over sets
    scale = {d.name: (float(x.mean()), float(x.std()) or 1.0)
             for d, x in zip(cont_decls, columns[nf:])}
    return AggregatedData(space, declarations, sets, counts.reshape(n_sets, n_patterns),
                          continuous_scale=scale, n_rejected=n_rejected,
                          row_cells=np.column_stack((set_index, patterns)))


def _recheck_row(i, where, recheck_ranks, covariates, ordered):
    """Row ``i``'s scalar checks in their original order; errors cite ``where``."""
    try:
        recheck_ranks(i)
        for name, column in covariates.items():
            if column[i] is _MISSING:
                raise DataError(f"missing covariate {name!r}")
        for decl in ordered:  # factors, then continuous covariates
            value = covariates[decl.name][i]
            if decl.kind == "continuous":
                _continuous_value(decl.name, value)
            elif decl.levels is not None and str(value) not in decl.levels:
                raise DataError(
                    f"level {str(value)!r} not among declared levels of {decl.name!r}")
    except ValueError as exc:
        kind = DataError if isinstance(exc, DataError) else RankingValidationError
        raise kind(f"{where}: {exc}") from exc


@dataclass
class IngestResult:
    data: AggregatedData
    extra_columns: dict[str, list[str]]  # aligned with accepted rows
    n_rejected: int


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
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, header row required")
        for col in [*item_columns, *covariate_columns.values(), *extra_columns]:
            if col not in header:
                raise DataError(f"{path}: column {col!r} not in header")
        # the records of csv.DictReader: blank lines skipped, absent fields None
        records = (row + [None] * (len(header) - len(row)) for row in reader if row)
        table = np.array(list(zip(*records)) or [()] * len(header), dtype=object)
    column = {name: table[i] for i, name in enumerate(header)}  # a repeated name: its last
    used = np.array([column[c] for c in
                     [*item_columns, *(covariate_columns[d.name] for d in declarations)]])
    text = used.astype(str)  # drops trailing NULs: a cell that loses one is not blank
    blank = np.equal(used, None) | ((np.char.strip(text) == "") & (text == used))
    accepted = ~blank.any(axis=0)
    lines = np.flatnonzero(accepted) + 2  # the header is line 1
    texts = used[: len(item_columns), accepted].T
    del used, text  # only the accepted cells are needed from here on

    def recheck_ranks(i):
        values = np.array([_rank_cell(cell) for cell in texts[i]], dtype=np.int64)
        # order columns hold 1-based item positions by preference
        ranks = order_to_ranks(values - 1) if ranking_format == "orders" else values
        validate_ranks(ranks, space.n_items)

    n_rejected = table.shape[1] - len(lines)
    data = _aggregate(
        space, texts,
        {d.name: column[covariate_columns[d.name]][accepted] for d in declarations},
        declarations, recheck_ranks, lambda i: f"line {lines[i]}",
        orders=ranking_format == "orders", n_rejected=n_rejected,
    )
    extras = {name: column[name][accepted].tolist() for name in extra_columns}
    return IngestResult(data=data, extra_columns=extras, n_rejected=n_rejected)
