"""EM estimation of the mass-point mixture over ranking patterns.

Each EM iteration alternates the posterior class weights (E) with two
maximizations (M): the mixing weights update to the respondent-weighted
posterior shares, and the structural coefficients are refitted by Fisher
scoring on the expanded (pattern, covariate set, class) table with the
posterior-expected counts as response. That scoring loop is the IRLS of
the Poisson log-linear formulation with one nuisance total per
(set, class) block absorbed analytically, so the fitted block totals
always match the expected counts and the multinomial likelihood is
maximized exactly. Monotone log-likelihood ascent is enforced by step
halving inside the scoring loop.

Because the pattern model is log-linear in the net-win score vector s,
the data enter each fit only through the observed cells (the (set,
pattern) pairs with a nonzero count, listed once by ``Design``): the E
step, the log-likelihood and the expected counts are (nnz, R) arrays
there. The item effects of a (set, class) block are a = X B, with X
the block's row of the design matrix (see ``Design``), so each
coefficient is one (design column c, item i) pair. A block with expected
total n, observed score total t and pattern probabilities p contributes
X_c (t - n E[s])_i to the score, n X_c X_d Cov[s]_ij to the information
entry of (c, i) and (d, j), and t . a - n log Z to the expected-count
log-likelihood, with Cov[s] = E[s s'] - E[s] E[s]'. The pattern space
enters only through ``Design.log_normalizer``, which gives each block's
log Z and p: a step-halving trial needs log Z alone, and the accepted
trial's p gives E[s] by one matrix product with the score matrix and
E[s s'] by one with the per-pattern table of score products s_i s_j.
The posterior weights, here and in ``FitResult.posteriors``, are
(nnz, R) rows aligned with ``Design.cell_set`` / ``Design.cell_pattern``.
No (K, L, R) array is built unless a callback asks for the dense
posterior weights.

Several independent chains are run from random starts; the chain with the
best final likelihood wins. Chains that collapse a class (vanishing mass
or runaway offsets) are flagged degenerate and excluded from selection
while any healthy chain exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import AggregatedData
from .model import (
    Design,
    ModelSpec,
    Parameters,
    _coefficient_score,
    _observed_loglik,
    _posteriors,
    bic,
    count_parameters,
    mixture_loglik,  # unused here; perfbench/tracing.py patches this name
    posterior_weights,
)


class FitError(RuntimeError):
    """Estimation failed in a way that invalidates the result."""


class RankDeficientDesignError(FitError):
    """The structural design has aliased columns."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(
            "design is rank deficient; aliased columns: " + ", ".join(self.columns)
        )


class IrlsDivergenceError(FitError):
    """The scoring loop could not find an ascent step."""

    def __init__(self, iteration, deviance, trial_deviance):
        self.iteration = iteration
        self.deviance = deviance
        self.trial_deviance = trial_deviance
        super().__init__(
            f"inner IRLS diverged at iteration {iteration}: deviance "
            f"{deviance:.6g} -> {trial_deviance:.6g} despite step halving"
        )


class DegenerateClassError(FitError):
    """A class mass fell below the degeneracy threshold."""


@dataclass
class FitConfig:
    """Tuning knobs for the multi-start EM fit."""

    n_starts: int = 50
    max_iter: int = 500
    tol: float = 1e-3  # absolute change in deviance between EM iterations
    seed: int = 0
    start_scale: float = 0.5
    irls_tol: float = 1e-10  # relative deviance change in the scoring loop
    irls_max_iter: int = 100
    degenerate_mass: float = 1e-6
    degenerate_offset: float = 20.0
    count_masses: bool = False

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.tol <= 0 or self.irls_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class FitResult:
    """Converged parameters plus fit diagnostics for one model."""

    spec: ModelSpec
    design: Design
    params: Parameters
    posteriors: np.ndarray  # (nnz, R), rows at design.cell_set / cell_pattern
    loglik: float
    deviance: float
    minus_two_loglik: float
    n_params: int
    bic: float
    n_iterations: int
    n_starts: int
    best_start: str
    converged: bool
    deviance_trace: list[float]
    chain_summaries: list[dict] = field(default_factory=list)
    n_degenerate: int = 0


def init_start(seed, design: Design, scale: float = 0.5) -> Parameters:
    """Random EM starting point; identical seeds give identical starts.

    Coefficients are uniform on [-scale, scale]; masses start at the
    uniform vector averaged with a flat Dirichlet draw.
    """
    rng = np.random.default_rng(seed)
    coefs = rng.uniform(-scale, scale, design.n_coefficients)
    R = design.n_classes
    if R == 1:
        mixing = np.array([1.0])
    else:
        noise = rng.dirichlet(np.ones(R))
        mixing = (np.full(R, 1.0 / R) + noise) / 2.0
        mixing /= mixing.sum()
    return Parameters(coefs, mixing)


def _moments_information(p: np.ndarray, design: Design, m_plus: np.ndarray):
    """Per-block score means E[s] (K, R, J) and the full information matrix.

    ``p`` holds the pattern probabilities as one row per (set, class)
    block, (K * R, L), as :meth:`Design.log_normalizer` returns them. The
    entry for coefficients (c, i) and (d, j) is
    sum_kr m_plus[k, r] X_krc X_krd Cov_kr[s]_ij over the non-reference
    items, one matrix product of the weighted column products with the
    block covariances Cov[s] = E[s s'] - E[s] E[s]', whose second moments
    come from one product with the design's score-product table.
    """
    KR = p.shape[0]
    J1 = design.n_items - 1
    Q = design.X.shape[-1]
    mean = design.score_means(p)
    free_mean = mean[..., :-1].reshape(KR, J1)
    cov = p @ design.score_products
    cov -= (free_mean[:, :, None] * free_mean[:, None, :]).reshape(KR, -1)
    X = design.X.reshape(KR, Q)
    weights = (m_plus.reshape(KR, 1) * X)[:, :, None] * X[:, None, :]
    info = (weights.reshape(KR, -1).T @ cov).reshape(Q, Q, J1, J1)
    return mean, info.transpose(0, 2, 1, 3).reshape(Q * J1, Q * J1)


def _diagnose_rank(info: np.ndarray, names: list[str]):
    eigvals, eigvecs = np.linalg.eigh(info)
    bad = eigvals < max(eigvals.max(), 1.0) * 1e-12
    aliased = set()
    for idx in np.nonzero(bad)[0]:
        v = np.abs(eigvecs[:, idx])
        for c in np.nonzero(v >= 0.3 * v.max())[0]:
            aliased.add(names[c])
    raise RankDeficientDesignError(sorted(aliased))


def fit_structural(
    m: np.ndarray,
    design: Design,
    start: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 100,
    fixed_zero=(),
) -> np.ndarray:
    """Maximize sum m[cell, r] log P[cell, r] over the structural coefficients.

    ``m`` holds the (possibly fractional) expected counts at the design's
    observed cells, (nnz, R). ``fixed_zero`` names coefficient indices
    constrained to zero (their rows and columns leave the score and the
    information).

    Each Newton step forms the information from the per-block covariance
    of the net-win scores, Cov[s] = E[s s'] - E[s] E[s]', whose second
    moments come from the design's score-product table. The block totals,
    the observed score totals and the saturated part of the deviance
    depend on ``m`` alone and are computed once per call, so a
    step-halving trial needs only the block log-normalizers.
    """
    fixed = np.zeros(design.n_coefficients, dtype=bool)
    fixed[list(fixed_zero)] = True
    free = np.nonzero(~fixed)[0]
    free_block = np.ix_(free, free)
    names = [design.coefficients[i].name for i in free]

    beta = np.zeros(design.n_coefficients)
    if start is not None:
        beta = np.asarray(start, dtype=np.float64).copy()
        beta[fixed] = 0.0

    m = design.cell_values(m)
    m_plus, observed = design.block_totals(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        saturated = np.where(
            m > 0, m * np.log(m / m_plus[design.cell_set]), 0.0
        ).sum()

    def deviance(b):
        """Deviance at ``b`` and the block pattern probabilities there."""
        a = design.block_effects(b)
        log_z, p_b = design.log_normalizer(a)
        # sum m log P = sum_kr (t . a - m_plus log Z)
        loglik = float(np.vdot(observed, a) - np.vdot(m_plus, log_z))
        return 2.0 * (saturated - loglik), p_b

    dev, p = deviance(beta)

    for iteration in range(1, max_iter + 1):
        mean, info = _moments_information(p, design, m_plus)
        del p  # freed before the trials allocate theirs
        info = info[free_block]
        score = _coefficient_score(design.X, observed, m_plus, mean)[free]
        try:
            lower = np.linalg.cholesky(info)
        except np.linalg.LinAlgError:
            _diagnose_rank(info, names)
        direction = np.linalg.solve(lower.T, np.linalg.solve(lower, score))

        slack = 1e-10 * (abs(dev) + 1.0)
        step = 1.0
        accepted = False
        for _ in range(40):
            trial = beta.copy()
            trial[free] = beta[free] + step * direction
            dev_try, p = deviance(trial)
            if dev_try <= dev + slack:
                accepted = True
                break
            del p
            step *= 0.5
        if not accepted:
            raise IrlsDivergenceError(iteration, dev, dev_try)
        beta = trial
        change = dev - dev_try
        dev = dev_try
        if abs(change) <= tol * max(abs(dev), 1.0):
            break
    return beta


def structural_information(
    design: Design, coefficients: np.ndarray, m: np.ndarray, fixed_zero=()
) -> np.ndarray:
    """Fisher information of the expected-count multinomial at ``coefficients``.

    This is the information the final scoring pass sees with the posterior
    weights treated as known, with the per-(set, class) nuisance totals
    profiled out. ``m`` holds the expected counts at the observed cells,
    (nnz, R), as in :func:`fit_structural`.
    """
    fixed = np.zeros(design.n_coefficients, dtype=bool)
    fixed[list(fixed_zero)] = True
    free = np.nonzero(~fixed)[0]
    m_plus = design.set_sums(design.cell_values(m))
    _, p = design.log_normalizer(design.block_effects(coefficients))
    return _moments_information(p, design, m_plus)[1][np.ix_(free, free)]


def m_step(
    w: np.ndarray,
    design: Design,
    data: AggregatedData,
    start: Parameters | None = None,
    config: FitConfig | None = None,
    min_mass: float = 0.0,
    fixed_zero=(),
) -> Parameters:
    """One M step: update mixing weights, then refit the coefficients.

    ``w`` holds the posterior class weights at the design's observed
    cells, (nnz, R). The mixing update is the
    respondent-weighted posterior share sum_{l,k} n w / N, which maximizes
    the expected complete-data likelihood of the aggregated mixture.
    """
    config = config or FitConfig()
    design.check_data(data)
    m = design.cell_counts[:, None] * design.cell_values(w)
    mixing = m.sum(axis=0) / design.cell_counts.sum()
    mixing = mixing / mixing.sum()
    if min_mass > 0 and mixing.min() < min_mass:
        raise DegenerateClassError(
            f"class mass fell to {mixing.min():.3g} (< {min_mass:g})"
        )
    beta = fit_structural(
        m,
        design,
        start=None if start is None else start.coefficients,
        tol=config.irls_tol,
        max_iter=config.irls_max_iter,
        fixed_zero=fixed_zero,
    )
    return Parameters(beta, np.maximum(mixing, 1e-300))


@dataclass
class _Chain:
    label: str
    params: Parameters
    loglik: float
    deviance: float
    trace: list[float]
    converged: bool
    degenerate: bool
    n_iterations: int
    message: str | None = None


def run_chain(
    design: Design,
    data: AggregatedData,
    start: Parameters,
    config: FitConfig,
    label: str = "chain",
    callback: Callable | None = None,
    fixed_zero=(),
    initial_weights: np.ndarray | None = None,
) -> _Chain:
    """Run one EM chain to convergence (or the iteration cap).

    ``initial_weights`` (nnz, R) lets the first M step consume given
    posterior weights instead of an E step, which is how constrained
    refits resume from a converged fit. The chain works on the observed
    cells; ``callback(iteration, params, w, loglik)`` receives the dense
    (K, L, R) weights of the iteration's M step, built only for it, so a
    callback cannot be combined with ``initial_weights``.
    """
    design.check_data(data)
    if callback is not None and initial_weights is not None:
        raise ValueError("run_chain takes a callback or initial_weights, not both")
    params = start
    # one normalizer per parameter point: it gives the log-likelihood and
    # the next E step's posterior weights
    logp, _ = design.cell_log_probs(params.coefficients)
    loglik, dev = _observed_loglik(design, logp, params.mixing)
    trace = [dev]
    converged = degenerate = False
    message = None
    n_iter = 0
    for iteration in range(1, config.max_iter + 1):
        resume = iteration == 1 and initial_weights is not None
        w = initial_weights if resume else _posteriors(logp, params.mixing)
        if callback is not None:
            dense_w = _posteriors(design.log_pattern_probs(params.coefficients),
                                  params.mixing)
        try:
            params = m_step(
                w,
                design,
                data,
                start=params,
                config=config,
                min_mass=config.degenerate_mass,
                fixed_zero=fixed_zero,
            )
        except DegenerateClassError as exc:
            degenerate, message = True, str(exc)
            break
        offsets = design.class_offsets(params.coefficients)
        if np.abs(offsets).max() > config.degenerate_offset:
            degenerate = True
            message = f"class offset reached {np.abs(offsets).max():.3g}"
            break
        logp, _ = design.cell_log_probs(params.coefficients)
        loglik, dev_new = _observed_loglik(design, logp, params.mixing)
        n_iter = iteration
        trace.append(dev_new)
        if callback is not None:
            callback(iteration, params, dense_w, loglik)
        if abs(dev_new - dev) < config.tol:
            converged = True
            dev = dev_new
            break
        dev = dev_new
    return _Chain(
        label=label,
        params=params,
        loglik=loglik,
        deviance=dev,
        trace=trace,
        converged=converged,
        degenerate=degenerate,
        n_iterations=n_iter,
        message=message,
    )


def chain_seeds(base_seed: int, n_starts: int) -> list[int]:
    """Distinct per-chain seeds derived deterministically from the base seed."""
    return [base_seed + 1000003 * i for i in range(n_starts)]


def fit(
    spec: ModelSpec,
    data: AggregatedData,
    config: FitConfig | None = None,
    callback: Callable | None = None,
    extra_starts=(),
) -> FitResult:
    """Multi-start EM fit; returns the best chain by final log-likelihood.

    With a single class the likelihood is concave, so one chain suffices
    and the configured start count is ignored. ``extra_starts`` appends
    warm-start chains (used by the class-count search) after the random
    ones. Chains are compared in a fixed order, so results are
    reproducible for a given seed.
    """
    config = config or FitConfig()
    design = Design(spec, data)
    n_random = 1 if spec.n_classes == 1 else config.n_starts
    chains: list[_Chain] = []
    for seed in chain_seeds(config.seed, n_random):
        start = init_start(seed, design, config.start_scale)
        chains.append(
            run_chain(design, data, start, config, label=f"seed:{seed}",
                      callback=callback)
        )
    for i, start in enumerate(extra_starts):
        chains.append(
            run_chain(design, data, start, config, label=f"warm:{i}",
                      callback=callback)
        )

    eligible = [c for c in chains if not c.degenerate] or chains
    best = eligible[0]
    for c in eligible[1:]:
        if c.loglik > best.loglik:
            best = c

    n_params = count_parameters(design, config.count_masses)
    minus_two = -2.0 * best.loglik
    summaries = [
        {
            "label": c.label,
            "minus_two_loglik": -2.0 * c.loglik,
            "deviance": c.deviance,
            "iterations": c.n_iterations,
            "converged": c.converged,
            "degenerate": c.degenerate,
            "message": c.message,
        }
        for c in chains
    ]
    return FitResult(
        spec=spec,
        design=design,
        params=best.params,
        posteriors=posterior_weights(best.params, design),
        loglik=best.loglik,
        deviance=best.deviance,
        minus_two_loglik=minus_two,
        n_params=n_params,
        bic=bic(minus_two, n_params, data.n_cells),
        n_iterations=best.n_iterations,
        n_starts=len(chains),
        best_start=best.label,
        converged=best.converged,
        deviance_trace=best.trace,
        chain_summaries=summaries,
        n_degenerate=sum(c.degenerate for c in chains),
    )


def split_largest_class(result: FitResult, new_design: Design,
                        jitter: float = 0.0, seed: int = 0) -> Parameters:
    """Warm start for one more class: duplicate the heaviest class.

    The duplicate becomes the new reference class, so all offsets shift by
    the split class's offsets and the item mains absorb the shift. At the
    returned point the (R+1)-class likelihood equals the R-class optimum
    exactly, which guarantees the class-count sweep has non-increasing
    deviance. ``jitter`` adds noise to the class offsets so EM can leave
    the symmetric stationary point.
    """
    old_design = result.design
    if new_design.spec != old_design.spec.with_classes(old_design.n_classes + 1):
        raise ValueError("the new design must add one class to the fitted model")
    q = result.params.mixing
    c = int(np.argmax(q))
    n_cov = old_design.n_covariate_columns
    offsets = old_design.class_offsets(result.params.coefficients)[:-1].T  # (R, J-1)
    shift = offsets[c]
    beta = np.vstack([
        old_design.coefficient_matrix(result.params.coefficients)[:n_cov],
        offsets - shift,
    ])
    beta[0] += shift  # the intercept column holds the item mains
    if jitter > 0:
        rng = np.random.default_rng(seed)
        beta[n_cov:] += rng.normal(0.0, jitter, size=offsets.shape)

    new_q = np.append(q.copy(), q[c] / 2.0)
    new_q[c] /= 2.0
    return Parameters(beta.ravel(), new_q)


@dataclass
class SearchRow:
    label: str
    n_classes: int
    deviance: float | None
    minus_two_loglik: float | None
    n_params: int | None
    bic: float | None
    converged: bool | None
    error: str | None = None


@dataclass
class SearchResult:
    rows: list[SearchRow]
    fits: dict
    best_key: object | None  # class count or model label with the lowest BIC


def _sweep(data: AggregatedData, config: FitConfig, models) -> SearchResult:
    """Fit (label, key, spec) models in order and pick the lowest BIC.

    A model that is the previous fit's model with one more class
    warm-starts from it (exact duplicate split plus a jittered copy), which
    keeps the deviance non-increasing across a class sweep. A ``FitError``
    is recorded in the model's row and does not abort the rest.
    """
    rows: list[SearchRow] = []
    fits: dict = {}
    prev: FitResult | None = None
    for label, key, spec in models:
        extras = []
        if prev is not None and spec == prev.spec.with_classes(
                prev.spec.n_classes + 1):
            new_design = Design(spec, data)
            extras.append(split_largest_class(prev, new_design))
            extras.append(
                split_largest_class(prev, new_design, jitter=0.05,
                                    seed=config.seed + spec.n_classes)
            )
        try:
            res = fit(spec, data, config, extra_starts=extras)
        except FitError as exc:
            rows.append(SearchRow(label=label, n_classes=spec.n_classes,
                                  deviance=None, minus_two_loglik=None,
                                  n_params=None, bic=None, converged=None,
                                  error=str(exc)))
            continue
        fits[key] = prev = res
        rows.append(
            SearchRow(label=label, n_classes=spec.n_classes,
                      deviance=res.deviance,
                      minus_two_loglik=res.minus_two_loglik,
                      n_params=res.n_params, bic=res.bic,
                      converged=res.converged)
        )
    best = min(fits, key=lambda k: fits[k].bic) if fits else None
    return SearchResult(rows=rows, fits=fits, best_key=best)


def search_classes(
    spec: ModelSpec,
    data: AggregatedData,
    config: FitConfig | None = None,
    class_range=(1, 2, 3, 4),
) -> SearchResult:
    """Fit a sweep of class counts and pick the lowest BIC.

    Consecutive counts warm-start from the previous best fit (exact
    duplicate split plus a jittered copy), which keeps the deviance
    non-increasing across the sweep. Errors for one count are recorded
    and do not abort the rest of the sweep.
    """
    class_range = list(class_range)
    if not class_range or any(
        b <= a for a, b in zip(class_range, class_range[1:])
    ):
        raise ValueError("class_range must be nonempty and ascending")
    return _sweep(data, config or FitConfig(),
                  [(str(r), r, spec.with_classes(r)) for r in class_range])


def compare_term_models(
    item_labels,
    data: AggregatedData,
    config: FitConfig | None = None,
    term_sets=(),
    n_classes: int = 1,
) -> SearchResult:
    """Fit a list of (label, terms) fixed-effects models for BIC comparison."""
    models = [(label, label, ModelSpec(tuple(item_labels), tuple(terms), n_classes))
              for label, terms in term_sets]
    return _sweep(data, config or FitConfig(), models)
