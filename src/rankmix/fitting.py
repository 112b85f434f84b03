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
halving inside the scoring loop, which stops once a step changes the
deviance by at most ``_IRLS_TOL`` relative to it.

Because the pattern model is log-linear in the net-win score vector s,
the data enter each fit only through the observed cells (the (set,
pattern) pairs with a nonzero count, as the data store them). The item
effects of a (set, class) block are a = X B, with X the block's row of
the design matrix (see ``Design``), so each coefficient is one (design
column c, item i) pair. A block with expected total n, observed score
total t and pattern probabilities p contributes X_c (t - n E[s])_i to
the score, n X_c X_d Cov[s]_ij to the information entry of (c, i) and
(d, j), and t . a - n log Z to the expected-count log-likelihood, with
Cov[s] = E[s s'] - E[s] E[s]'; the score and information kernels are
those of ``rankmix.model``. The pattern space enters only through the
design's enumeration kernel, ``design.enumeration`` (a
``model._Enumeration``): its ``log_normalizer`` gives each block's
log Z, its pattern weights (proportional to p) and log P at the cells in
one pass over the patterns; a step-halving trial needs log Z alone, the
accepted trial's weights give E[s] and Cov[s] (``score_moments``, one
product with the kernel's moment table [1 | s | s_i s_j]), and its log P
gives the E step, so no normalizer runs between M steps. In the loop,
log P, the posterior weights and the expected counts are class-major
(B, R, nnz) arrays:
sums over classes run over a short leading axis, sums over cells over
contiguous runs. Chains leave the stack with (nnz, R) rows aligned with
``Design.cell_set`` / ``Design.cell_pattern`` (``FitResult.posteriors``).
No (K, L, R) array is built unless a callback asks for the dense
posterior weights.

Several independent chains are run from random starts; the chain with the
best final likelihood wins. Chains that collapse a class (vanishing mass
or runaway offsets) are flagged degenerate and excluded from selection
while any healthy chain exists. A one-class likelihood is concave, so its
one chain starts at the uniform model (all coefficients zero).

Every EM iteration happens in one loop, ``_run_stack``, which runs
independent chains of one design, a fit's random and warm starts, as a
stack with a leading chain axis B. An iteration updates the masses, lets the
chains whose smallest mass fell below ``degenerate_mass`` leave, runs one
Newton solve (``_newton``) for the rest, and then one softmax over the
accepted Newton trial's log P at the cells gives both the log-likelihood
and the next iteration's posterior weights. Each kernel call (block
effects, the normalizer, the moments and information, the Cholesky test,
the Newton solve) serves the whole stack, while every chain keeps its own
Newton steps, step halving, convergence test and iteration count; a chain
leaves the stack when it converges, degenerates, hits ``max_iter`` or
fails, and the others go on, so each chain takes exactly the iterations
it takes alone. A stack holds as many chains as keep its pattern
weights and the information's column products within ``_STACK_ENTRIES``
entries. A stack whose starts are all the uniform model takes their
normalizer, and the first Newton iteration their moments, in closed form
(``_Enumeration.uniform``), with no pass over the patterns.

A one-class chain is the exception to the loop's stopping rule: with no
latent variable, the expected counts are the observed ones, so its first
M step already maximizes the likelihood. It stops after that one Newton
solve, with one iteration, converged if the solve met ``_IRLS_TOL`` and
not if it stopped at ``irls_max_iter``; ``tol`` does not reach it.

The constrained refits of the corrected standard errors do not run EM:
``_damped_newton`` climbs the mixture likelihood itself by damped Newton
steps on the score and the observed and complete-data informations of
``model._information_stack``, each chain holding one coordinate at zero,
in stacks of the same size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import AggregatedData
from .model import (
    Design,
    ModelSpec,
    Parameters,
    _STACK_ENTRIES,
    _coefficient_score,
    _column_products,
    _information_stack,
    _mixture,
    _structural_information,
    _theta_names,
    _unpack_theta,
    bic,
    count_parameters,
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


@dataclass
class FitConfig:
    """Tuning knobs for the multi-start EM fit; a bad field raises ``ValueError``.

    ``n_starts``, ``seed`` and ``tol`` set the random starts and the EM
    stopping rule of a fit with more than one class. A one-class fit reads
    none of them: it is one Newton solve from the uniform model, capped by
    ``irls_max_iter`` (``max_iter`` 0 returns the uniform model itself).
    """

    n_starts: int = 50
    max_iter: int = 500
    tol: float = 1e-3  # absolute change in deviance between EM iterations
    seed: int = 0
    irls_max_iter: int = 100
    degenerate_mass: float = 1e-6
    degenerate_offset: float = 20.0
    count_masses: bool = False

    def __post_init__(self):
        integer, real = numbers.Integral, numbers.Real
        for name, kind, ok, rule in (
            ("n_starts", integer, lambda v: v >= 1, "an integer >= 1"),
            ("max_iter", integer, lambda v: v >= 0, "an integer >= 0"),
            ("irls_max_iter", integer, lambda v: v >= 1, "an integer >= 1"),
            ("seed", integer, lambda v: v >= 0, "an integer >= 0"),
            ("tol", real, lambda v: v > 0, "a finite number > 0"),
            ("degenerate_mass", real, lambda v: 0 <= v < 1, "a number in [0, 1)"),
            ("degenerate_offset", real, lambda v: v > 0, "a finite number > 0"),
            ("count_masses", bool, lambda v: True, "true or false"),
        ):
            value = getattr(self, name)
            wrong_type = not isinstance(value, kind) or (
                isinstance(value, bool) and kind is not bool)
            if wrong_type or not math.isfinite(value) or not ok(value):
                raise ValueError(f"{name} must be {rule}, got {value!r}")


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


def _rank_deficiency(info: np.ndarray, names: list[str]) -> RankDeficientDesignError:
    """The error naming the coefficients along the flat directions of ``info``."""
    eigvals, eigvecs = np.linalg.eigh(info)
    bad = eigvals < max(eigvals.max(), 1.0) * 1e-12
    aliased = set()
    for idx in np.nonzero(bad)[0]:
        v = np.abs(eigvecs[:, idx])
        for c in np.nonzero(v >= 0.3 * v.max())[0]:
            aliased.add(names[c])
    return RankDeficientDesignError(sorted(aliased))


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each chain's row of ``x`` and ``y`` (B, ...), as (B,)."""
    n = len(x)
    return (x.reshape(n, 1, -1) @ y.reshape(n, -1, 1))[:, 0, 0]


def _cholesky_failures(a: np.ndarray) -> list[int]:
    """Indices of the matrices of a stack (B, D, D) that fail the Cholesky test."""
    try:
        np.linalg.cholesky(a)
        return []
    except np.linalg.LinAlgError:
        failures = []
        for j, x in enumerate(a):
            try:
                np.linalg.cholesky(x)
            except np.linalg.LinAlgError:
                failures.append(j)
        return failures


# A Newton solve stops once a step changes its deviance by at most this
# times the deviance (or times 1, if the deviance is smaller).
_IRLS_TOL = 1e-10


def _newton(m, design: Design, beta, start: list, tol: float, max_iter: int):
    """Maximize sum m[b, r, cell] log P over the coefficients of B chains.

    ``m`` (B, R, nnz) holds each chain's expected counts, class-major, and
    ``beta`` (B, P) its start. ``start`` is the list [a, log Z, pattern
    weights] of the kernel ``design.enumeration.log_normalizer`` at
    ``beta``, with None for the weights when ``beta`` is zero: the first
    iteration then takes the uniform model's moments in closed form. The
    list is emptied, so that the weights are freed by the first moment
    product, before the first trial allocates its own. Each chain takes
    its own Newton steps with its own step halving and stops by its own
    deviance change; the stack shrinks as chains stop. A chain whose
    information fails the Cholesky test takes a zero step (an identity
    system and a zero score) and leaves with its error.

    Returns the coefficients (B, P), and the normalizer's arrays there (the
    accepted trial's, so the caller needs no further normalizer): the item
    effects (B, K, R, J), log Z (B, K, R), the pattern weights
    (B, K * R, L) and the cells' log P (B, R, nnz); per chain None or the
    ``FitError`` that stopped it; and per chain whether its last step met
    ``tol``, which a chain stopped by ``max_iter`` has not.
    """
    a, log_z, w = start
    start.clear()
    n = len(beta)
    m_plus, observed = design.block_totals(m)
    # sum m log(m / m_plus) over the cells, where 0 log 0 = 0
    ratio = np.divide(m, np.take(m_plus.swapaxes(-1, -2), design.cell_set, axis=-1),
                      out=np.ones_like(m), where=m > 0)
    saturated = (m * np.log(ratio)).sum(axis=(1, 2))

    def deviance(a, log_z, observed, m_plus, saturated):
        # sum m log P = sum_kr (t . a - m_plus log Z)
        loglik = _row_dots(observed, a) - _row_dots(m_plus, log_z)
        return 2.0 * (saturated - loglik)

    def trial_at(b, observed, m_plus, saturated):
        """Deviances at coefficients ``b``, with the normalizer's arrays there."""
        a = design.block_effects(b)
        log_z, w, logp = design.enumeration.log_normalizer(a)
        return deviance(a, log_z, observed, m_plus, saturated), a, log_z, w, logp

    errors: list[FitError | None] = [None] * n
    met = np.zeros(n, dtype=bool)
    # the chains still stepping; every array below has one row per chain
    chains = np.arange(n)
    products = _column_products(design, m_plus)
    dev = deviance(a, log_z, observed, m_plus, saturated)
    out = None  # per chain, where it stopped, once a chain has stopped
    for iteration in range(1, max_iter + 1):
        mean, cov = (design.enumeration.uniform_moments(len(chains)) if w is None
                     else design.enumeration.score_moments(w))
        info = _structural_information(cov, design, products)
        del w, cov  # freed before the trials allocate theirs
        score = _coefficient_score(design.X, observed, m_plus, mean)
        # the failing chains take a zero step and leave
        failed = _cholesky_failures(info)
        if failed:
            for j in failed:
                errors[chains[j]] = _rank_deficiency(
                    info[j], [c.name for c in design.coefficients])
            info[failed] = np.eye(info.shape[-1])
            score[failed] = 0.0
        direction = np.linalg.solve(info, score[..., None])[..., 0]

        # every chain still rising after h halvings has step 2^-h
        bound = dev + 1e-10 * (np.abs(dev) + 1.0)
        trial = beta + direction
        dev_try, a, log_z, w, logp = trial_at(trial, observed, m_plus,
                                              saturated)
        rising = ~(dev_try <= bound)
        for halvings in range(1, 40):
            if not np.count_nonzero(rising):
                break
            j = np.nonzero(rising)[0]
            trial[j] = beta[j] + 0.5 ** halvings * direction[j]
            if len(j) == len(chains):
                del w  # every trial was rejected: free its weights first
                dev_try, a, log_z, w, logp = trial_at(trial, observed, m_plus,
                                                      saturated)
            else:
                dev_try[j], a[j], log_z[j], w[j], logp[j] = trial_at(
                    trial[j], observed[j], m_plus[j], saturated[j])
            rising[j] = ~(dev_try[j] <= bound[j])
        stop = np.abs(dev - dev_try) <= tol * np.maximum(np.abs(dev_try), 1.0)
        met[chains[stop]] = True
        for j in np.nonzero(rising)[0]:
            errors[chains[j]] = IrlsDivergenceError(iteration, dev[j], dev_try[j])
        stop |= rising
        stop[failed] = True
        if iteration == max_iter:
            stop[:] = True
        beta, dev = trial, dev_try
        stopped = np.count_nonzero(stop)
        if stopped == n:  # the whole stack stops at once: no copies
            return beta, a, log_z, w, logp, errors, met
        if stopped:
            state = (beta, a, log_z, w, logp)
            if out is None:
                out = [np.empty((n,) + x.shape[1:]) for x in state]
            done = chains[stop]
            for kept, new in zip(out, state):
                kept[done] = new[stop]
            if stopped == len(chains):
                break
            going = ~stop
            chains, beta, dev, w, m_plus, observed, saturated, products = (
                x[going] for x in (chains, beta, dev, w, m_plus, observed,
                                   saturated, products))
    return (*out, errors, met)


def _mass_update(w, design: Design, min_mass: float):
    """The mass half of the M step for B chains' posterior weights (B, R, nnz).

    Returns the expected counts m = n w (B, R, nnz), the new masses (B, R),
    which are the respondent-weighted posterior shares, and per chain None
    or the message that a class mass fell below ``min_mass``.
    """
    m = w * design.cell_counts
    mixing = m.sum(axis=-1) / design.n_respondents
    mixing /= mixing.sum(axis=1, keepdims=True)
    messages = [f"class mass fell to {x:.3g} (< {min_mass:g})" if x < min_mass
                else None for x in mixing.min(axis=1).tolist()]
    return m, np.maximum(mixing, 1e-300), messages


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
    posteriors: np.ndarray | None = None  # (nnz, R), at params


def _run_stack(design: Design, starts, config: FitConfig, labels, callback):
    """EM for a stack of chains; see :func:`run_chains`."""
    B = len(starts)

    def e_step(logp, q):
        """Log-likelihoods, deviances and posterior weights from the cells' log P."""
        log_mixture, w = _mixture(logp, np.log(q)[:, :, None])
        ll = log_mixture @ design.cell_counts
        return ll, 2.0 * (design.saturated_loglik - ll), w

    # the running chains' state, one row per chain: w holds the posterior
    # weights (B, R, nnz) for the next M step, at_b the item effects, log Z
    # and pattern weights at b, where the next Newton solve starts (and
    # frees the weights). Starts that are all the uniform model have their
    # normalizer in closed form, and no weights.
    chains = np.arange(B)
    b = np.array([s.coefficients for s in starts], dtype=np.float64)
    q = np.array([s.mixing for s in starts], dtype=np.float64)
    a = design.block_effects(b)
    if b.any():
        *at_b, logp = a, *design.enumeration.log_normalizer(a)
    else:
        log_z, logp = design.enumeration.uniform(B)
        at_b = [a, log_z, None]
    ll, d, w = e_step(logp, q)
    # per chain, the final state, written when the chain leaves the stack
    beta, mixing, loglik, dev = b.copy(), q.copy(), ll.copy(), d.copy()
    posteriors = w
    traces = [[float(x)] for x in d]
    n_iter = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    messages: list[str | None] = [None] * B  # why a chain degenerated
    failures: list[FitError | None] = [None] * B

    def leave(stop, iterations, *rows):
        """Write the stopping chains' state, drop them, keep the rest of ``rows``."""
        nonlocal chains, b, q, ll, d, w
        done = chains[stop]
        beta[done], mixing[done], loglik[done], dev[done], posteriors[done] = \
            b[stop], q[stop], ll[stop], d[stop], w[stop]
        n_iter[done] = iterations
        keep = ~stop
        chains, b, q, ll, d, w = (x[keep] for x in (chains, b, q, ll, d, w))
        return [None if x is None else x[keep] for x in rows]

    for iteration in range(1, config.max_iter + 1):
        if not chains.size:
            break
        if callback is not None:
            dense_w = _mixture(design.log_pattern_probs(b[0]).transpose(0, 2, 1),
                               np.log(q[0])[:, None])[1].transpose(0, 2, 1)
        # M step: the masses, then the coefficients of the chains whose
        # classes all kept their mass; the others keep their last parameters
        m, new_q, low_mass = _mass_update(w, design, config.degenerate_mass)
        sick = np.array([x is not None for x in low_mass])
        if sick.any():
            for j in np.nonzero(sick)[0]:
                messages[chains[j]] = low_mass[j]
            m, new_q, *at_b = leave(sick, iteration - 1, m, new_q, *at_b)
            if not chains.size:
                break
        b, *at_b, logp, errors, solved = _newton(m, design, b, at_b, _IRLS_TOL,
                                                 config.irls_max_iter)
        q = new_q
        # a chain whose Newton solve failed leaves with its error
        failed = np.array([e is not None for e in errors])
        if failed.any():
            for j in np.nonzero(failed)[0]:
                failures[chains[j]] = errors[j]
            logp, solved, *at_b = leave(failed, iteration - 1, logp, solved, *at_b)
            if not chains.size:
                break
        # E step: one softmax gives the log-likelihood and the next weights
        ll_new, dev_new, w = e_step(logp, q)
        # a chain whose class offsets ran away leaves with the new parameters
        offsets = np.abs(design.coefficient_matrix(b)[:, design.n_covariate_columns:])
        offsets = offsets.max(axis=(1, 2), initial=0.0)
        runaway = offsets > config.degenerate_offset
        if runaway.any():
            for j in np.nonzero(runaway)[0]:
                messages[chains[j]] = f"class offset reached {offsets[j]:.3g}"
            ll_new, dev_new, solved, *at_b = leave(runaway, iteration - 1, ll_new,
                                                   dev_new, solved, *at_b)
            if not chains.size:
                break
        for c, x in zip(chains.tolist(), dev_new.tolist()):
            traces[c].append(x)
        if callback is not None:
            callback(iteration, Parameters(b[0].copy(), q[0].copy()), dense_w,
                     float(ll_new[0]))
        # a one-class solve maximized the likelihood itself: its chain
        # stops, converged if the solve met its tolerance
        one_class = design.n_classes == 1
        stop = solved if one_class else np.abs(dev_new - d) < config.tol
        ll, d = ll_new, dev_new
        converged[chains[stop]] = True
        if iteration == config.max_iter or one_class:
            stop[:] = True
        if stop.any():
            at_b = leave(stop, iteration, *at_b)
    return [
        failures[c] or _Chain(
            label=labels[c],
            params=Parameters(beta[c].copy(), mixing[c].copy()),
            posteriors=posteriors[c].T.copy(),
            loglik=float(loglik[c]),
            deviance=float(dev[c]),
            trace=traces[c],
            converged=bool(converged[c]),
            degenerate=messages[c] is not None,
            n_iterations=int(n_iter[c]),
            message=messages[c],
        )
        for c in range(B)
    ]


def _stack_size(design: Design) -> int:
    """Chains per stack: their pattern weights, and the information's column
    products (see ``model._column_products``), keep within ``_STACK_ENTRIES``."""
    Q = design.X.shape[-1]
    block_entries = design.n_sets * design.n_classes * max(design.n_patterns, Q * Q)
    return max(1, _STACK_ENTRIES // block_entries)


def run_chains(
    design: Design,
    data: AggregatedData,
    starts,
    config: FitConfig,
    labels=None,
    callback: Callable | None = None,
) -> list:
    """Run independent EM chains of one design, stacked; one result per start.

    The chains advance together, one kernel call per step for the whole
    stack (see the module docstring), and each takes exactly the
    iterations it takes alone.

    ``labels`` names the chains (default ``chain``).
    ``callback(iteration, params, w, loglik)`` receives the dense (K, L, R)
    weights of each iteration's M step, built only for it; with a callback
    each chain runs alone, so the callback sees each chain's iterations in
    one run. Returns, in start order, each chain's ``_Chain`` or the
    ``FitError`` that stopped it.
    """
    design.check_data(data)
    n = len(starts)
    labels = ["chain"] * n if labels is None else list(labels)
    size = 1 if callback is not None else _stack_size(design)
    results = []
    for lo in range(0, n, size):
        hi = lo + size
        results += _run_stack(design, starts[lo:hi], config, labels[lo:hi],
                              callback)
    return results


# A damped Newton chain stops once its EM-metric decrement g' I_c^-1 g / 2
# over its free coordinates falls below this.
_DECREMENT = 1e-9
# The damping that a failed step starts from, and the one past which a
# chain that found no ascent step fails.
_MIN_DAMPING, _MAX_DAMPING = 1e-3, 1e12


def _damped_newton(design: Design, theta, held, max_iter: int,
                   min_mass: float = 0.0) -> list:
    """Maximize the mixture log-likelihood for B chains, each holding one coordinate.

    ``theta`` (B, P + R - 1) holds each chain's start over the coefficients
    and the mass log-ratios (see ``Parameters.theta``), and ``held`` (B,)
    the coordinate each chain holds at zero, which must be zero at its
    start. Every step of a chain is (I_obs + lambda I_c)^-1 g over its free
    coordinates, with the score g, the observed information I_obs and the
    complete-data information I_c of ``model._information_stack``
    (Jamshidian & Jennrich 1997, JRSS-B 59:569). lambda is 0 while
    that matrix is positive definite and the step ascends; otherwise it
    rises x4 (from ``_MIN_DAMPING``), and after an accepted step it falls
    /4, to 0 below ``_MIN_DAMPING``. A chain stops when its decrement
    g' I_c^-1 g / 2 falls below ``_DECREMENT``, or after ``max_iter``
    steps, accepted or not. A chain whose smallest class mass is below
    ``min_mass`` at an accepted point (its start included) has degenerated:
    it stops there, unconverged, before its information is tested. A
    chain fails alone when its free I_c block fails the Cholesky test
    (with the error naming the aliased coordinates) or when lambda passes
    ``_MAX_DAMPING``. The chains run in stacks of
    :func:`_stack_size`, one kernel call and one batched Cholesky test and
    solve per step for a stack.

    Returns, in start order, each chain's (theta, log-likelihood,
    converged) at its last accepted point, or the ``FitError`` that
    stopped it.
    """
    theta = np.array(theta, dtype=np.float64)
    held = np.asarray(held, dtype=np.intp)
    if np.any(theta[np.arange(len(theta)), held] != 0.0):
        raise ValueError("each chain's held coordinate must be zero at its start")
    size = _stack_size(design)
    return [chain for lo in range(0, len(theta), size)
            for chain in _damped_stack(design, theta[lo:lo + size],
                                       held[lo:lo + size], max_iter, min_mass)]


def _damped_stack(design: Design, theta, held, max_iter: int, min_mass: float) -> list:
    """:func:`_damped_newton` for one stack; ``theta`` is updated in place."""
    B, D = theta.shape
    names = _theta_names(design)
    results: list = [None] * B

    def at(theta, free):
        """The log-likelihood, and the score and informations over ``free``."""
        ll, g, complete, observed = _information_stack(
            *_unpack_theta(theta, design), design)
        rows = np.arange(len(free))[:, None]
        pairs = (rows[..., None], free[:, :, None], free[:, None, :])
        return ll, g[rows, free], complete[pairs], observed[pairs]

    # the running chains' state, one row per chain, over their free coordinates
    free = np.array([np.delete(np.arange(D), i) for i in held]).reshape(B, D - 1)
    state = [np.arange(B), theta, free, np.zeros(B), *at(theta, free)]
    for step in range(max_iter + 1):
        chains, theta, free, lam, ll, g, complete, observed = state
        # a chain whose class emptied stops unconverged; its information
        # may be flat there. The masses are compared as exp of the log
        # masses, so that min_mass 0 takes no log of 0.
        emptied = np.exp(_unpack_theta(theta, design)[1].min(axis=1)) < min_mass
        failed = [j for j in _cholesky_failures(complete) if not emptied[j]]
        for j in failed:
            results[chains[j]] = _rank_deficiency(complete[j],
                                                  [names[i] for i in free[j]])
        ok = ~emptied
        ok[failed] = False
        decrement = np.full(len(chains), np.inf)
        if ok.any():
            decrement[ok] = 0.5 * _row_dots(g[ok], np.linalg.solve(
                complete[ok], g[ok][..., None]))
        done = emptied | ok & ((decrement < _DECREMENT) | (step == max_iter))
        for j in np.nonzero(done)[0]:
            results[chains[j]] = (theta[j].copy(), float(ll[j]),
                                  bool(decrement[j] < _DECREMENT))
        state[:] = [x[ok & ~done] for x in state]
        chains, theta, free, lam, ll, g, complete, observed = state
        if not chains.size:
            break
        # the damping rises until the matrix is positive definite; a chain
        # whose matrix is not by _MAX_DAMPING takes no step
        matrix = observed + lam[:, None, None] * complete
        flat = _cholesky_failures(matrix)
        while flat and lam[flat].max() <= _MAX_DAMPING:
            lam[flat] = np.maximum(4.0 * lam[flat], _MIN_DAMPING)
            matrix[flat] = observed[flat] + lam[flat, None, None] * complete[flat]
            flat = [flat[i] for i in _cholesky_failures(matrix[flat])]
        matrix[flat] = np.eye(D - 1)
        direction = np.linalg.solve(matrix, g[..., None])[..., 0]
        direction[flat] = 0.0
        trial = theta.copy()
        trial[np.arange(len(chains))[:, None], free] += direction
        ll_try, *at_trial = at(trial, free)
        # a step ascends unless the log-likelihood falls (or is not a number)
        up = ll_try >= ll
        up[flat] = False
        for x, new in zip((theta, ll, g, complete, observed), (trial, ll_try, *at_trial)):
            x[up] = new[up]
        lam[up] /= 4.0
        lam[up & (lam < _MIN_DAMPING)] = 0.0
        lam[~up] = np.maximum(4.0 * lam[~up], _MIN_DAMPING)
        over = lam > _MAX_DAMPING
        for j in np.nonzero(over)[0]:
            results[chains[j]] = FitError(
                f"damped Newton found no ascent step in {step + 1} steps: the "
                f"damping passed {_MAX_DAMPING:g}")
        state[:] = [x[~over] for x in state]
    return results


def chain_seeds(base_seed: int, n_starts: int) -> list[int]:
    """Distinct per-chain seeds derived deterministically from the base seed."""
    return [base_seed + 1000003 * i for i in range(n_starts)]


def _best_chain(chains: list[_Chain]) -> _Chain:
    """The highest log-likelihood among the non-degenerate chains.

    Ties go to the earlier start. A chain stopped by ``max_iter`` competes
    like a converged one. Only when every chain degenerated is the best of
    the degenerate chains taken.
    """
    eligible = [c for c in chains if not c.degenerate] or chains
    best = eligible[0]
    for c in eligible[1:]:
        if c.loglik > best.loglik:
            best = c
    return best


def fit(
    spec: ModelSpec,
    data: AggregatedData,
    config: FitConfig | None = None,
    callback: Callable | None = None,
    extra_starts=(),
) -> FitResult:
    """Multi-start EM fit; returns the best chain by final log-likelihood.

    With a single class the likelihood is concave, so one Newton solve
    from the uniform model (zero coefficients, label ``uniform``)
    suffices, and neither the configured start count, the seed nor ``tol``
    is used.
    ``extra_starts`` appends warm-start chains (used by the class-count
    search) after the random ones. All chains run as stacks (see
    :func:`run_chains`); the first chain in start order that raises a
    ``FitError`` fails the fit.

    The best chain has the highest final log-likelihood among the chains
    that did not degenerate; ties go to the earlier start, and a chain
    that stopped at ``max_iter`` without converging can win. If every
    chain degenerated, the best of them is returned. Chains are compared
    in a fixed order, so results are reproducible for a given seed.
    """
    config = config or FitConfig()
    design = Design(spec, data)
    if spec.n_classes == 1:
        starts = [Parameters(np.zeros(design.n_coefficients), np.ones(1))]
        labels = ["uniform"]
    else:
        seeds = chain_seeds(config.seed, config.n_starts)
        starts = [init_start(seed, design) for seed in seeds]
        labels = [f"seed:{seed}" for seed in seeds]
    starts += list(extra_starts)
    labels += [f"warm:{i}" for i in range(len(extra_starts))]
    chains = run_chains(design, data, starts, config, labels=labels,
                        callback=callback)
    for chain in chains:
        if isinstance(chain, FitError):
            raise chain
    best = _best_chain(chains)

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
        posteriors=best.posteriors,
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


def split_largest_class(result: FitResult, jitter: float = 0.0,
                        seed: int = 0) -> Parameters:
    """Warm start for one more class: duplicate the heaviest class.

    The returned parameters belong to ``result.spec`` with one more class.
    The duplicate becomes the new reference class, so all offsets shift by
    the split class's offsets and the item mains absorb the shift. At the
    returned point the (R+1)-class likelihood equals the R-class optimum
    exactly, which guarantees the class-count sweep has non-increasing
    deviance. ``jitter`` adds noise to the class offsets so EM can leave
    the symmetric stationary point.
    """
    design = result.design
    q = result.params.mixing
    c = int(np.argmax(q))
    n_cov = design.n_covariate_columns
    offsets = design.class_offsets(result.params.coefficients)[:-1].T  # (R, J-1)
    shift = offsets[c]
    beta = np.vstack([
        design.coefficient_matrix(result.params.coefficients)[:n_cov],
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
            extras.append(split_largest_class(prev))
            extras.append(split_largest_class(prev, jitter=0.05,
                                              seed=config.seed + spec.n_classes))
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
