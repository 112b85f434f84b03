"""Latent-class analytics computed after a fit.

Class shares, hard assignment of respondents to classes, cross-tabs of
class membership against external covariates (expected or hard counts),
observed log-odds ratios from those tables, and worth tables per
(covariate set, class) for plotting. The posteriors of a fit are held per
observed cell of the data; a per-respondent result picks each row's cell
through ``data.row_cells``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AggregatedData, DataError, _coded
from .fitting import FitResult
from .inference import StandardErrorReport
from .model import worths


@dataclass
class ClassSummary:
    """Class shares at both levels plus offsets and optional intervals.

    ``pattern_shares`` averages the posterior weights over observed cells
    (each distinct pattern-set combination counts once);
    ``respondent_shares`` weights by cell counts and equals the fitted
    mixing weights at convergence.
    """

    pattern_shares: np.ndarray
    respondent_shares: np.ndarray
    offsets: np.ndarray  # (J, R)
    offset_lower: np.ndarray | None = None
    offset_upper: np.ndarray | None = None


def class_summary(fit: FitResult, data: AggregatedData,
                  se_report: StandardErrorReport | None = None,
                  z_value: float = 1.96) -> ClassSummary:
    fit.design.check_data(data)
    w = fit.posteriors
    counts = fit.design.cell_counts
    pattern_shares = w.mean(axis=0)
    respondent_shares = counts @ w / counts.sum()
    offsets = fit.design.class_offsets(fit.params.coefficients)
    lower = upper = None
    if se_report is not None:
        se = np.array(  # a missing SE (None) becomes nan
            [row.se_corrected if row.se_corrected is not None else row.se_raw
             for row in se_report.rows],
            dtype=np.float64,
        )
        # reference entries get estimate 0 and SE 0, so their bounds are 0
        half_width = z_value * fit.design.class_offsets(se)
        lower, upper = offsets - half_width, offsets + half_width
    return ClassSummary(pattern_shares, respondent_shares, offsets, lower, upper)


@dataclass
class AssignmentTable:
    """Hard class assignment per respondent row.

    ``assigned`` holds 1-based class labels; argmax ties break to the
    lowest class index. Respondents sharing a (set, pattern) cell share
    an assignment by construction.
    """

    set_index: np.ndarray
    pattern_index: np.ndarray
    assigned: np.ndarray
    posterior: np.ndarray


def cell_assignments(fit: FitResult, data: AggregatedData):
    """The hard class (1-based, ties to the lowest) and its posterior per
    observed cell of ``data``: two (nnz,) vectors."""
    fit.design.check_data(data)
    return np.argmax(fit.posteriors, axis=1) + 1, np.max(fit.posteriors, axis=1)


def assign_classes(fit: FitResult, data: AggregatedData) -> AssignmentTable:
    if (rows := data.row_cells) is None:
        raise DataError("aggregated data has no per-respondent rows to assign")
    assigned, posterior = cell_assignments(fit, data)
    return AssignmentTable(data.cell_set[rows], data.cell_pattern[rows],
                           assigned[rows], posterior[rows])


@dataclass
class CrossTab:
    """Class membership by an external category; expected or hard counts."""

    row_labels: list[str]
    table: np.ndarray  # (n_categories, R)
    mode: str


def crosstab(fit: FitResult, data: AggregatedData, categories,
             mode: str = "expected") -> CrossTab:
    """Cross-classify class membership with an external covariate.

    ``categories`` must align with the accepted respondent rows. Expected
    mode sums posterior weights, so row totals match category sizes up to
    rounding; hard mode counts argmax assignments and matches exactly.
    """
    return _crosstab(fit, data, _category_codes(data, categories), mode)


def _category_codes(data: AggregatedData, categories):
    """The sorted distinct categories of the respondent rows, and each row's index."""
    if (rows := data.row_cells) is None:
        raise DataError("aggregated data has no per-respondent rows")
    categories = list(categories)
    if len(categories) != rows.size:
        raise DataError(
            f"external column has {len(categories)} values for "
            f"{rows.size} respondents"
        )
    # labels sort as strings, so category 10 comes before category 9
    return _coded(list(map(str, categories)), sort=True)


def _crosstab(fit: FitResult, data: AggregatedData, coded, mode: str) -> CrossTab:
    """:func:`crosstab` of the rows' coded categories, (labels, codes)."""
    if mode not in ("expected", "hard"):
        raise ValueError(f"unknown crosstab mode {mode!r}")
    labels, codes = coded
    R = fit.design.n_classes
    # np.bincount adds the rows in order
    if mode == "expected":
        fit.design.check_data(data)
        table = np.stack([np.bincount(codes, weights=w, minlength=labels.size)
                          for w in fit.posteriors.T[:, data.row_cells]], axis=1)
    else:
        assigned = cell_assignments(fit, data)[0][data.row_cells] - 1
        table = np.bincount(codes * R + assigned, minlength=labels.size * R)
        table = table.reshape(-1, R).astype(np.float64)
    return CrossTab(row_labels=labels.tolist(), table=table, mode=mode)


def log_odds_ratio(
    tab: CrossTab,
    class_a: int,
    class_b: int,
    row_a: int,
    row_b: int,
    continuity: bool = False,
) -> float:
    """Observed log-odds ratio of class_a vs class_b between two rows.

    Classes and rows are 0-based indices into the table. ``continuity``
    adds 0.5 to each referenced cell, which sparse hard-count tables may
    need; without it a zero cell raises.
    """
    cells = np.array([tab.table[row_a, class_a], tab.table[row_b, class_b],
                      tab.table[row_a, class_b], tab.table[row_b, class_a]],
                     dtype=np.float64)
    if continuity:
        cells = cells + 0.5
    if np.any(cells <= 0):
        raise DataError(
            "zero cell in log-odds ratio; rerun with the continuity correction"
        )
    return float(np.log(cells[0] * cells[1] / (cells[2] * cells[3])))


def odds_vs_reference(offset: float) -> float:
    """Pairwise odds multiplier against the reference implied by one offset.

    Effects act on the half-log-odds scale, so an offset d multiplies the
    odds of beating the reference item by exp(2 d) relative to the
    reference class.
    """
    return float(np.exp(2.0 * offset))


def worth_table(fit: FitResult, data: AggregatedData) -> list[dict]:
    """Long-format worths per (covariate set, class, item).

    Every (set, class) block is a full worth vector summing to one; the
    reference class reflects the covariate effects alone.
    """
    design = fit.design
    effects = design.item_effects(fit.params.coefficients)  # (J, K, R)
    rows = []
    for k, covs in enumerate(data.set_covariates()):
        for r in range(design.n_classes):
            pi = worths(effects[:, k, r])
            for j, label in enumerate(design.spec.item_labels):
                rows.append({"class": r + 1, "set": k, **covs, "item": label,
                             "worth": float(pi[j])})
    return rows
