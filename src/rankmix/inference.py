"""Standard errors for fitted coefficients.

EM itself understates uncertainty because the posterior class weights are
treated as known in the final scoring pass. Three quantities are offered;
raw and hessian are two readings of one information kernel,
``rankmix.model._information``, at the fit's parameters:

* raw: square roots of the inverse of the kernel's complete-data
  coefficient block, the Fisher information of the final weighted
  scoring pass (posterior weights held fixed);
* corrected: the likelihood-ratio-equating value |estimate| / sqrt(drop
  in 2 log L when the coefficient is constrained to zero), so the Wald
  statistic reproduces the LR test exactly; the constrained maxima come
  from damped Newton refits on the kernel's score and informations;
* hessian: from the kernel's observed information of the full mixture
  likelihood, computed exactly by Louis's identity as the complete-data
  information minus the missing information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AggregatedData
from .fitting import FitConfig, FitError, FitResult, _damped_newton
from .model import _information, _unpack_theta

# Newton steps allowed to each constrained refit
_MAX_REFIT_ITER = 200


class StandardErrorError(FitError):
    """A standard-error procedure could not produce a trustworthy value."""


@dataclass
class CoefficientSE:
    name: str
    estimate: float
    se_raw: float | None = None
    se_corrected: float | None = None
    se_hessian: float | None = None
    lr_drop: float | None = None
    note: str | None = None


@dataclass
class StandardErrorReport:
    rows: list[CoefficientSE]

    def by_name(self, name: str) -> CoefficientSE:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


def raw_em_standard_errors(fit: FitResult, data: AggregatedData) -> np.ndarray:
    """SEs from the final scoring pass with posterior weights held fixed."""
    fit.design.check_data(data)
    return _raw_errors(_information(fit.params, fit.design)[1], fit.design)


def _raw_errors(complete: np.ndarray, design) -> np.ndarray:
    """:func:`raw_em_standard_errors` from the complete-data information."""
    p = design.n_coefficients
    diag = np.diag(np.linalg.inv(complete[:p, :p]))
    if np.any(diag <= 0):
        raise StandardErrorError("final-pass information is not positive definite")
    return np.sqrt(diag)


def _constrained_refits(fit: FitResult, data: AggregatedData, coefficients,
                        config: FitConfig | None, complete: np.ndarray):
    """Corrected SEs of the listed coefficient indices, one refit each.

    Each refit holds its own coefficient at zero. It starts at the fit
    with that coefficient set to zero and the other coordinates moved by
    the conditional step in the complete-data information's metric,
    theta - (I_c^-1)[:, i] / (I_c^-1)[i, i] * beta_i, one matrix inverse
    for all refits (``complete`` is I_c at the fit), and climbs by damped
    Newton steps on its free coordinates; the refits run as one stack of
    :func:`rankmix.fitting._damped_newton`, with at most
    ``_MAX_REFIT_ITER`` steps each. Returns, per coefficient, either
    (se, drop in 2 log L, capped), where ``capped`` says the refit stopped
    at the step cap before the decrement fell below its threshold, or
    the exception that rules the coefficient out. A refit whose smallest
    mass falls below ``config.degenerate_mass`` or whose largest class
    offset passes ``config.degenerate_offset`` degenerated.
    """
    design = fit.design
    design.check_data(data)
    config = config or FitConfig()
    results: dict = {}
    refit = []
    for i in coefficients:
        if abs(fit.params.coefficients[i]) < 1e-12:
            results[i] = ValueError(
                f"coefficient {design.coefficients[i].name!r} is already zero")
            continue
        refit.append(i)
    theta = fit.params.theta
    starts = np.tile(theta, (len(refit), 1))
    if refit:
        cov = np.linalg.inv(complete)[:, refit]
        starts -= (cov / cov[refit, np.arange(len(refit))] * theta[refit]).T
        starts[np.arange(len(refit)), refit] = 0.0
    chains = _damped_newton(design, starts, refit, _MAX_REFIT_ITER,
                            config.degenerate_mass)
    for i, chain in zip(refit, chains):
        name = design.coefficients[i].name
        if isinstance(chain, FitError):
            results[i] = chain
            continue
        point, loglik, converged = chain
        coefficients_at, log_mixing = _unpack_theta(point[None], design)
        mass = float(np.exp(log_mixing.min()))
        offset = np.abs(design.class_offsets(coefficients_at[0])).max()
        if mass < config.degenerate_mass or offset > config.degenerate_offset:
            results[i] = StandardErrorError(
                f"constrained refit for {name!r} degenerated: class mass "
                f"{mass:.3g}, class offset {offset:.3g}")
            continue
        drop = 2.0 * (fit.loglik - loglik)
        if drop <= 0:
            results[i] = StandardErrorError(
                f"constrained refit for {name!r} did not lower the likelihood "
                f"(drop {drop:.3g}): the unconstrained fit is not at its maximum"
            )
            continue
        se = abs(float(fit.params.coefficients[i])) / np.sqrt(drop)
        results[i] = (se, drop, not converged)
    return [results[i] for i in coefficients]


def corrected_se(
    fit: FitResult,
    data: AggregatedData,
    coefficient: int | str,
    config: FitConfig | None = None,
) -> tuple[float, float]:
    """Likelihood-ratio-equating SE for one coefficient.

    Refits the model with the coefficient constrained to zero by damped
    Newton steps from the fit (see :func:`_constrained_refits`). Returns
    (se, drop in 2 log L). The constrained model is nested in the
    unconstrained one, so a drop at or below zero shows that the fit is
    not at its maximum; that, and a constrained refit that degenerates,
    raise ``StandardErrorError``.
    """
    if isinstance(coefficient, str):
        coefficient = fit.design.name_to_index[coefficient]
    (result,) = _constrained_refits(fit, data, [coefficient], config,
                                    _information(fit.params, fit.design)[1])
    if isinstance(result, Exception):
        raise result
    se, drop, _ = result
    return se, drop


def hessian_standard_errors(fit: FitResult, data: AggregatedData):
    """Observed-information SEs for all structural coefficients.

    The information is the observed information of the mixture
    likelihood over the coefficients and the R - 1 mass log-ratios
    log(q_r / q_R) at the fit's parameters, by Louis's identity (see
    :func:`rankmix.model._information`).

    Returns (per-coefficient SEs, information, covariance). Raises when
    the information is not positive definite, listing the flat or
    negative directions (label-switching symmetry usually shows up here).
    """
    fit.design.check_data(data)
    return _hessian_errors(_information(fit.params, fit.design)[2], fit.design)


def _hessian_errors(info: np.ndarray, design):
    """:func:`hessian_standard_errors` from the observed information."""
    eigvals, eigvecs = np.linalg.eigh(info)
    if eigvals.min() <= 0:
        names = [c.name for c in design.coefficients] + [
            f"mass{r + 1}" for r in range(design.n_classes - 1)]
        flat = []
        for idx in np.nonzero(eigvals <= 0)[0]:
            v = np.abs(eigvecs[:, idx])
            worst = ", ".join(names[i] for i in np.argsort(-v)[:3])
            flat.append(f"eigenvalue {eigvals[idx]:.3g} along [{worst}]")
        raise StandardErrorError(
            "observed information is not positive definite: " + "; ".join(flat)
        )
    cov = eigvecs @ np.diag(1.0 / eigvals) @ eigvecs.T
    return np.sqrt(np.diag(cov))[:design.n_coefficients], info, cov


def _add_note(row: CoefficientSE, note: str):
    row.note = ((row.note + "; ") if row.note else "") + note


def standard_error_report(
    fit: FitResult,
    data: AggregatedData,
    methods=("raw",),
    config: FitConfig | None = None,
) -> StandardErrorReport:
    """Assemble the per-coefficient SE table for the requested methods.

    Per-coefficient failures of the corrected procedure are recorded in
    the row note instead of aborting the whole report, and so is a
    constrained refit that stopped at its step cap: its drop is kept,
    but the refit had not reached the constrained maximum, so the drop is
    too large and the corrected SE a lower bound. The refits of all
    coefficients run as one stack. One information call at the fit's
    parameters serves all three methods.
    """
    design = fit.design
    methods = set(methods)
    if "all" in methods:
        methods = {"raw", "corrected", "hessian"}
    rows = [
        CoefficientSE(name=c.name, estimate=float(fit.params.coefficients[i]))
        for i, c in enumerate(design.coefficients)
    ]
    if methods:
        design.check_data(data)
        _, complete, observed = _information(fit.params, design)
    if "raw" in methods:
        raw = _raw_errors(complete, design)
        for i, row in enumerate(rows):
            row.se_raw = float(raw[i])
    if "hessian" in methods:
        try:
            hess, _, _ = _hessian_errors(observed, design)
            for i, row in enumerate(rows):
                row.se_hessian = float(hess[i])
        except StandardErrorError as exc:
            for row in rows:
                _add_note(row, f"hessian: {exc}")
    if "corrected" in methods:
        refits = _constrained_refits(fit, data, range(len(rows)), config, complete)
        for row, result in zip(rows, refits):
            if isinstance(result, Exception):
                _add_note(row, str(result))
                continue
            se, drop, capped = result
            row.se_corrected = float(se)
            row.lr_drop = float(drop)
            if capped:
                _add_note(row, f"constrained refit stopped at the {_MAX_REFIT_ITER}"
                               "-iteration cap without converging, so the "
                               "corrected SE is a lower bound")
    return StandardErrorReport(rows=rows)
