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
there. A (set, class) block with expected total n, observed score total
t and pattern probabilities p contributes A' (t - n E[s]) to the score,
n A' Cov[s] A to the information, and t . a - n log Z to the
expected-count log-likelihood, with Cov[s] = E[s s'] - E[s] E[s]'. The
pattern space enters only through ``Design.log_normalizer``, which gives
each block's log Z and p: a step-halving trial needs log Z alone, and
the accepted trial's p gives E[s] by one matrix product with the score
matrix and E[s s'] by one with the per-pattern table of score products
s_i s_j. No (K, L, R) array is built inside the EM loop unless a
callback asks for the dense posterior weights.

Several independent chains are run from random starts; the chain with the
best final likelihood wins. Chains that collapse a class (vanishing mass
or runaway offsets) are flagged degenerate and excluded from selection
while any healthy chain exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

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
    posteriors: np.ndarray  # (K, L, R)
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


def e_step(params: Parameters, design: Design) -> np.ndarray:
    """Posterior class weights w[k, l, r], computed in log space."""
    return posterior_weights(params, design)


# contraction order for sum_kr m_plus A' Cov[s] A: weight each block's
# covariance by its total, contract one side with A, then the other
_INFO_PATH = ["einsum_path", (0, 2), (0, 2), (0, 1)]


def _moments_information(p: np.ndarray, design: Design, A: np.ndarray,
                         m_plus: np.ndarray):
    """Per-block score means E[s] (K, R, J) and the information over ``A``.

    ``p`` holds the pattern probabilities as one row per (set, class)
    block, (K * R, L), as :meth:`Design.log_normalizer` returns them. The
    information is sum_kr m_plus[k, r] A_kr' Cov_kr[s] A_kr, where the
    block covariance Cov[s] = E[s s'] - E[s] E[s]' takes its second moments
    from one product with the design's score-product table.
    """
    K, R = m_plus.shape
    J = design.n_items
    mean = design.score_means(p)
    cov = (p @ design.score_products).reshape(K, R, J, J)
    cov -= mean[:, :, :, None] * mean[:, :, None, :]
    info = np.einsum("kr,ikrc,krij,jkrd->cd", m_plus, A, cov, A,
                     optimize=_INFO_PATH)
    return mean, info


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
    penalty: tuple[int, float] | None = None,
) -> np.ndarray:
    """Maximize sum m[k,l,r] log P[k,l,r] over the structural coefficients.

    ``m`` holds the (possibly fractional) expected counts, either dense
    (K, L, R) or at the design's observed cells (nnz, R); a dense array
    is gathered at the observed cells, where the counts are. ``fixed_zero``
    names coefficient indices constrained to zero (their columns leave the
    design); ``penalty`` adds a quadratic ridge on one coefficient, used
    to pin it near zero without dropping the column.

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
    A = design.A[..., free]
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

    pen_pos = None
    strength = 0.0
    if penalty is not None:
        idx, strength = penalty
        if fixed[idx]:
            raise ValueError("cannot penalize a coefficient fixed at zero")
        pen_pos = int(np.nonzero(free == idx)[0][0])

    def penalized_deviance(b):
        """Deviance at ``b`` and the block pattern probabilities there."""
        a = design.block_effects(b)
        log_z, p_b = design.log_normalizer(a)
        # sum m log P = sum_kr (t . a - m_plus log Z)
        loglik = float(np.vdot(observed, a) - np.vdot(m_plus, log_z))
        d = 2.0 * (saturated - loglik)
        if pen_pos is not None:
            d += 2.0 * strength * b[free][pen_pos] ** 2
        return d, p_b

    dev, p = penalized_deviance(beta)

    for iteration in range(1, max_iter + 1):
        mean, info = _moments_information(p, design, A, m_plus)
        del p  # freed before the trials allocate theirs
        score = _coefficient_score(A, observed, m_plus, mean)
        if pen_pos is not None:
            score[pen_pos] -= 2.0 * strength * beta[free][pen_pos]
            info[pen_pos, pen_pos] += 2.0 * strength
        try:
            factor = scipy.linalg.cho_factor(info)
        except scipy.linalg.LinAlgError:
            _diagnose_rank(info, names)
        direction = scipy.linalg.cho_solve(factor, score)

        slack = 1e-10 * (abs(dev) + 1.0)
        step = 1.0
        accepted = False
        for _ in range(40):
            trial = beta.copy()
            trial[free] = beta[free] + step * direction
            dev_try, p = penalized_deviance(trial)
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
    profiled out. ``m`` is dense (K, L, R) or at the observed cells
    (nnz, R), as in :func:`fit_structural`.
    """
    fixed = np.zeros(design.n_coefficients, dtype=bool)
    fixed[list(fixed_zero)] = True
    free = np.nonzero(~fixed)[0]
    A = design.A[..., free]
    m_plus = design.set_sums(design.cell_values(m))
    _, p = design.log_normalizer(design.block_effects(coefficients))
    return _moments_information(p, design, A, m_plus)[1]


def m_step(
    w: np.ndarray,
    design: Design,
    data: AggregatedData,
    start: Parameters | None = None,
    config: FitConfig | None = None,
    min_mass: float = 0.0,
    fixed_zero=(),
    penalty=None,
) -> Parameters:
    """One M step: update mixing weights, then refit the coefficients.

    ``w`` holds the posterior class weights, dense (K, L, R) or at the
    design's observed cells (nnz, R). The mixing update is the
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
        penalty=penalty,
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
    penalty=None,
    initial_weights: np.ndarray | None = None,
) -> _Chain:
    """Run one EM chain to convergence (or the iteration cap).

    ``initial_weights`` (K, L, R) lets the first M step consume given
    posterior weights instead of an E step, which is how constrained
    refits resume from a converged fit. The chain works on the observed
    cells; ``callback(iteration, params, w, loglik)`` receives the dense
    (K, L, R) weights of the iteration's M step, built only for it.
    """
    design.check_data(data)
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
            dense_w = initial_weights if resume else posterior_weights(params, design)
        try:
            params = m_step(
                w,
                design,
                data,
                start=params,
                config=config,
                min_mass=config.degenerate_mass,
                fixed_zero=fixed_zero,
                penalty=penalty,
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
    coefs = result.params.coefficients
    q = result.params.mixing
    c = int(np.argmax(q))
    offsets = old_design.class_offsets(coefs)  # (J, R)
    shift = offsets[:, c]

    new_beta = np.zeros(new_design.n_coefficients)
    for idx, coef in enumerate(new_design.coefficients):
        if coef.kind == "class":
            new_beta[idx] = offsets[coef.item, coef.class_index] - shift[coef.item]
        elif coef.kind == "item":
            new_beta[idx] = coefs[old_design.name_to_index[coef.name]] + shift[coef.item]
        else:
            new_beta[idx] = coefs[old_design.name_to_index[coef.name]]
    if jitter > 0:
        rng = np.random.default_rng(seed)
        for idx, coef in enumerate(new_design.coefficients):
            if coef.kind == "class":
                new_beta[idx] += rng.normal(0.0, jitter)

    new_q = np.append(q.copy(), q[c] / 2.0)
    new_q[c] /= 2.0
    return Parameters(new_beta, new_q)


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
    config = config or FitConfig()
    class_range = list(class_range)
    if not class_range or any(
        b <= a for a, b in zip(class_range, class_range[1:])
    ):
        raise ValueError("class_range must be nonempty and ascending")
    rows: list[SearchRow] = []
    fits: dict[int, FitResult] = {}
    prev: FitResult | None = None
    for r in class_range:
        spec_r = spec.with_classes(r)
        extras = []
        if prev is not None and r == prev.spec.n_classes + 1:
            new_design = Design(spec_r, data)
            extras.append(split_largest_class(prev, new_design))
            extras.append(
                split_largest_class(prev, new_design, jitter=0.05,
                                    seed=config.seed + r)
            )
        try:
            res = fit(spec_r, data, config, extra_starts=extras)
        except FitError as exc:
            rows.append(SearchRow(label=str(r), n_classes=r, deviance=None,
                                  minus_two_loglik=None, n_params=None,
                                  bic=None, converged=None, error=str(exc)))
            continue
        fits[r] = res
        prev = res
        rows.append(
            SearchRow(label=str(r), n_classes=r, deviance=res.deviance,
                      minus_two_loglik=res.minus_two_loglik,
                      n_params=res.n_params, bic=res.bic,
                      converged=res.converged)
        )
    best = min(fits, key=lambda r: fits[r].bic) if fits else None
    return SearchResult(rows=rows, fits=fits, best_key=best)


def compare_term_models(
    item_labels,
    data: AggregatedData,
    config: FitConfig | None = None,
    term_sets=(),
    n_classes: int = 1,
) -> SearchResult:
    """Fit a list of (label, terms) fixed-effects models for BIC comparison."""
    config = config or FitConfig()
    rows: list[SearchRow] = []
    fits: dict[str, FitResult] = {}
    for label, terms in term_sets:
        spec = ModelSpec(tuple(item_labels), tuple(terms), n_classes)
        try:
            res = fit(spec, data, config)
        except FitError as exc:
            rows.append(SearchRow(label=label, n_classes=n_classes,
                                  deviance=None, minus_two_loglik=None,
                                  n_params=None, bic=None, converged=None,
                                  error=str(exc)))
            continue
        fits[label] = res
        rows.append(
            SearchRow(label=label, n_classes=n_classes, deviance=res.deviance,
                      minus_two_loglik=res.minus_two_loglik,
                      n_params=res.n_params, bic=res.bic,
                      converged=res.converged)
        )
    best = min(fits, key=lambda lbl: fits[lbl].bic) if fits else None
    return SearchResult(rows=rows, fits=fits, best_key=best)
