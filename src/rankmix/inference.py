"""Standard errors for fitted coefficients.

EM itself understates uncertainty because the posterior class weights are
treated as known in the final scoring pass. Three quantities are offered:

* raw: square roots of the inverse Fisher information of the final
  weighted scoring pass (posterior weights held fixed);
* corrected: the likelihood-ratio-equating value |estimate| / sqrt(drop
  in 2 log L when the coefficient is constrained to zero), so the Wald
  statistic reproduces the LR test exactly;
* hessian: from the observed information of the full mixture likelihood,
  approximated by central finite differences of the analytic score.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import AggregatedData
from .fitting import (
    FitConfig,
    FitError,
    FitResult,
    run_chain,
    structural_information,
)
from .model import Parameters, mixture_loglik, mixture_score


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
    design = fit.design
    design.check_data(data)
    m = design.cell_counts[:, None] * fit.posteriors
    info = structural_information(design, fit.params.coefficients, m)
    cov = np.linalg.inv(info)
    diag = np.diag(cov)
    if np.any(diag <= 0):
        raise StandardErrorError("final-pass information is not positive definite")
    return np.sqrt(diag)


def corrected_se(
    fit: FitResult,
    data: AggregatedData,
    coefficient: int | str,
    config: FitConfig | None = None,
    max_refit_iter: int = 200,
    ridge_strength: float = 1e8,
) -> tuple[float, float]:
    """Likelihood-ratio-equating SE for one coefficient.

    Refits the model with the coefficient constrained to zero, resuming
    from the converged posterior weights so the constrained chain cannot
    wander to a worse mode. Returns (se, drop in 2 log L). If the first
    refit lands above the unconstrained likelihood (label switching), one
    retry pins the coefficient with a heavy ridge instead of dropping the
    column; a second failure raises.
    """
    design = fit.design
    if isinstance(coefficient, str):
        coefficient = design.name_to_index[coefficient]
    estimate = float(fit.params.coefficients[coefficient])
    if abs(estimate) < 1e-12:
        raise ValueError(
            f"coefficient {design.coefficients[coefficient].name!r} is already zero"
        )
    config = replace(config or FitConfig(), max_iter=max_refit_iter)

    start = fit.params.copy()
    start.coefficients[coefficient] = 0.0
    chain = run_chain(
        design, data, start, config,
        label="constrained",
        fixed_zero=(coefficient,),
        initial_weights=fit.posteriors,
    )
    drop = 2.0 * (fit.loglik - chain.loglik)
    if drop <= 0 or chain.degenerate:
        ridge_chain = run_chain(
            design, data, start, config,
            label="constrained-ridge",
            penalty=(coefficient, ridge_strength),
            initial_weights=fit.posteriors,
        )
        pinned = ridge_chain.params.copy()
        pinned.coefficients[coefficient] = 0.0
        loglik0, _ = mixture_loglik(pinned, design, data)
        drop = 2.0 * (fit.loglik - loglik0)
        if drop <= 0:
            raise StandardErrorError(
                f"constrained refit for "
                f"{design.coefficients[coefficient].name!r} exceeded the "
                f"unconstrained likelihood (drop {drop:.3g}); rerun with more "
                f"constrained-fit iterations"
            )
    return abs(estimate) / np.sqrt(drop), drop


def observed_information(score_fn, point: np.ndarray, rel_step: float = 1e-5):
    """Observed information by central differences of an analytic score.

    Step sizes are relative to each parameter's magnitude. Returns the
    symmetrized information matrix together with the largest asymmetry
    found, which should be near zero for an exact score.
    """
    point = np.asarray(point, dtype=np.float64)
    n = point.size
    hess = np.empty((n, n))
    for c in range(n):
        h = rel_step * max(abs(point[c]), 1.0)
        hi = point.copy()
        lo = point.copy()
        hi[c] += h
        lo[c] -= h
        hess[:, c] = (score_fn(hi) - score_fn(lo)) / (2.0 * h)
    info = -0.5 * (hess + hess.T)
    asymmetry = float(np.abs(hess - hess.T).max())
    return info, asymmetry


def mass_log_ratios(mixing: np.ndarray) -> np.ndarray:
    """Free mass parameters: log of each mass against the last class."""
    return np.log(mixing[:-1]) - np.log(mixing[-1])


def params_from_free_vector(psi: np.ndarray, n_coefficients: int) -> Parameters:
    beta = psi[:n_coefficients]
    gamma = np.append(psi[n_coefficients:], 0.0)
    mixing = np.exp(gamma - gamma.max())
    return Parameters(beta, mixing / mixing.sum())


def hessian_standard_errors(
    fit: FitResult,
    data: AggregatedData,
    rel_step: float = 1e-5,
):
    """Observed-information SEs for all structural coefficients.

    The expansion point is the converged fit; masses enter through free
    log-ratios so the information is over an unconstrained vector. Returns
    (per-coefficient SEs, info matrix, asymmetry). Raises when the
    information is not positive definite, listing the flat or negative
    directions (label-switching symmetry usually shows up here).
    """
    design = fit.design
    p = design.n_coefficients
    psi = np.concatenate(
        [fit.params.coefficients, mass_log_ratios(fit.params.mixing)]
    )

    def score_fn(v):
        return mixture_score(params_from_free_vector(v, p), design, data)

    info, asymmetry = observed_information(score_fn, psi, rel_step)
    eigvals, eigvecs = np.linalg.eigh(info)
    if eigvals.min() <= 0:
        names = [c.name for c in design.coefficients] + [
            f"mass{r + 1}" for r in range(design.n_classes - 1)
        ]
        flat = []
        for idx in np.nonzero(eigvals <= 0)[0]:
            v = np.abs(eigvecs[:, idx])
            worst = ", ".join(names[i] for i in np.argsort(-v)[:3])
            flat.append(f"eigenvalue {eigvals[idx]:.3g} along [{worst}]")
        raise StandardErrorError(
            "observed information is not positive definite: " + "; ".join(flat)
        )
    cov = eigvecs @ np.diag(1.0 / eigvals) @ eigvecs.T
    return np.sqrt(np.diag(cov))[:p], info, asymmetry


def standard_error_report(
    fit: FitResult,
    data: AggregatedData,
    methods=("raw",),
    config: FitConfig | None = None,
) -> StandardErrorReport:
    """Assemble the per-coefficient SE table for the requested methods.

    Per-coefficient failures of the corrected procedure are recorded in
    the row note instead of aborting the whole report.
    """
    design = fit.design
    methods = set(methods)
    if "all" in methods:
        methods = {"raw", "corrected", "hessian"}
    rows = [
        CoefficientSE(name=c.name, estimate=float(fit.params.coefficients[i]))
        for i, c in enumerate(design.coefficients)
    ]
    if "raw" in methods:
        raw = raw_em_standard_errors(fit, data)
        for i, row in enumerate(rows):
            row.se_raw = float(raw[i])
    if "hessian" in methods:
        try:
            hess, _, _ = hessian_standard_errors(fit, data)
            for i, row in enumerate(rows):
                row.se_hessian = float(hess[i])
        except StandardErrorError as exc:
            for row in rows:
                row.note = (row.note or "") + f"hessian: {exc}"
    if "corrected" in methods:
        for i, row in enumerate(rows):
            try:
                se, drop = corrected_se(fit, data, i, config=config)
            except (StandardErrorError, ValueError) as exc:
                row.note = ((row.note + "; ") if row.note else "") + str(exc)
                continue
            row.se_corrected = float(se)
            row.lr_drop = float(drop)
    return StandardErrorReport(rows=rows)
