"""Aggregation of raw ranking rows into the (pattern x covariate set) table.

Respondents sharing the same observed covariate combination form one
covariate set; the data enter the model as counts n[k, l] of respondents
per (covariate set k, pattern l) cell. Continuous covariates are centered
and scaled here so downstream IRLS sees standardized columns; the scale
is kept so raw-scale coefficients can be reported back.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .rankings import (
    PatternSpace,
    RankingValidationError,
    order_to_ranks,
    validate_ranks,
)


class DataError(ValueError):
    """Input rows or table shapes are unusable."""


def _continuous_value(name: str, value) -> float:
    """A continuous covariate value as a finite float."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise DataError(
            f"covariate {name!r}: {str(value).strip()!r} is not a finite number"
        )
    return number


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
        for decl, levels in zip(self._factor_decls(), self._factor_levels_observed()):
            if decl.name == name:
                return levels
        raise DataError(f"no factor covariate named {name!r}")

    def _factor_decls(self) -> list[CovariateDecl]:
        return [d for d in self.declarations if d.kind == "factor"]

    def _continuous_decls(self) -> list[CovariateDecl]:
        return [d for d in self.declarations if d.kind == "continuous"]

    def _factor_levels_observed(self) -> list[tuple[str, ...]]:
        out = []
        for pos, decl in enumerate(self._factor_decls()):
            if decl.levels is not None:
                out.append(tuple(decl.levels))
            else:
                seen = {s.factor_levels[pos] for s in self.covariate_sets}
                out.append(tuple(sorted(seen)))
        return out

    def standardized_continuous(self, name: str) -> np.ndarray:
        """Centered and scaled values of a continuous covariate, one per set."""
        names = [d.name for d in self._continuous_decls()]
        if name not in names:
            raise DataError(f"no continuous covariate named {name!r}")
        pos = names.index(name)
        raw = np.array([s.continuous_values[pos] for s in self.covariate_sets])
        mean, scale = self.continuous_scale[name]
        return (raw - mean) / scale


def aggregate(
    space: PatternSpace,
    rows,
    declarations,
    n_rejected: int = 0,
) -> AggregatedData:
    """Aggregate (rank vector, covariate dict) rows into an AggregatedData.

    Covariate sets are the distinct observed combinations, sorted by their
    values so set indices are reproducible. Raises on rank rows that are
    not complete permutations (with the offending row number), on rows
    missing a declared covariate, and on continuous covariate values that
    are not finite numbers.
    """
    declarations = tuple(declarations)
    factor_decls = [d for d in declarations if d.kind == "factor"]
    cont_decls = [d for d in declarations if d.kind == "continuous"]

    keys = []
    cells = []
    for rownum, (ranks, covs) in enumerate(rows, start=1):
        try:
            cell = space.index_of_ranking(ranks)
        except RankingValidationError as exc:
            raise RankingValidationError(f"row {rownum}: {exc}") from exc
        for decl in declarations:
            if decl.name not in covs:
                raise DataError(f"row {rownum}: missing covariate {decl.name!r}")
        fkey = tuple(str(covs[d.name]) for d in factor_decls)
        for d, lev in zip(factor_decls, fkey):
            if d.levels is not None and lev not in d.levels:
                raise DataError(
                    f"row {rownum}: level {lev!r} not among declared levels of {d.name!r}"
                )
        try:
            ckey = tuple(_continuous_value(d.name, covs[d.name]) for d in cont_decls)
        except DataError as exc:
            raise DataError(f"row {rownum}: {exc}") from exc
        keys.append(fkey + ckey)
        cells.append(cell)
    if not keys:
        raise DataError("no usable rows to aggregate")

    unique_keys = sorted(set(keys))
    key_to_set = {key: k for k, key in enumerate(unique_keys)}
    nf = len(factor_decls)
    covariate_sets = tuple(
        CovariateSet(index=k, factor_levels=key[:nf], continuous_values=key[nf:])
        for k, key in enumerate(unique_keys)
    )

    counts = np.zeros((len(unique_keys), space.size), dtype=np.int64)
    row_cells = np.empty((len(keys), 2), dtype=np.int64)
    for i, (key, l) in enumerate(zip(keys, cells)):
        k = key_to_set[key]
        counts[k, l] += 1
        row_cells[i] = (k, l)

    # standardize continuous covariates over respondents, not over sets
    scale = {}
    for pos, decl in enumerate(cont_decls):
        values = np.array([key[nf + pos] for key in keys], dtype=np.float64)
        mean = float(values.mean())
        sd = float(values.std())
        scale[decl.name] = (mean, sd if sd > 0 else 1.0)

    return AggregatedData(
        space=space,
        declarations=declarations,
        covariate_sets=covariate_sets,
        counts=counts,
        continuous_scale=scale,
        row_cells=row_cells,
        n_rejected=n_rejected,
    )


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
    continuous covariates that are not finite numbers) abort with the
    offending line number.
    """
    if ranking_format not in ("ranks", "orders"):
        raise DataError(f"unknown ranking_format {ranking_format!r}")
    declarations = tuple(declarations)
    covariate_columns = dict(covariate_columns or {})
    for decl in declarations:
        covariate_columns.setdefault(decl.name, decl.name)

    rows = []
    extras: dict[str, list[str]] = {name: [] for name in extra_columns}
    n_rejected = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, header row required")
        needed = list(item_columns) + list(covariate_columns.values()) + list(extra_columns)
        for col in needed:
            if col not in reader.fieldnames:
                raise DataError(f"{path}: column {col!r} not in header")
        for lineno, rec in enumerate(reader, start=2):
            raw = [rec[c] for c in item_columns]
            used = raw + [rec[covariate_columns[d.name]] for d in declarations]
            if any(v is None or str(v).strip() == "" for v in used):
                n_rejected += 1
                continue
            try:
                values = np.array([_rank_cell(v) for v in raw], dtype=np.int64)
            except ValueError as exc:
                raise RankingValidationError(f"line {lineno}: {exc}") from exc
            try:
                if ranking_format == "orders":
                    # order columns hold 1-based item positions by preference
                    ranks = order_to_ranks(values - 1)
                else:
                    ranks = validate_ranks(values, space.n_items)
            except RankingValidationError as exc:
                raise RankingValidationError(f"line {lineno}: {exc}") from exc
            covs = {d.name: rec[covariate_columns[d.name]] for d in declarations}
            try:
                for d in declarations:
                    if d.kind == "continuous":
                        covs[d.name] = _continuous_value(d.name, covs[d.name])
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
            rows.append((ranks, covs))
            for name in extra_columns:
                extras[name].append(rec[name])

    data = aggregate(space, rows, declarations, n_rejected=n_rejected)
    return IngestResult(data=data, extra_columns=extras, n_rejected=n_rejected)
