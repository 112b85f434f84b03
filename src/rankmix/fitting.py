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
effects of a (set k, class r) block are a = x_k B_x + o_r = X B, with
X = [x_k, e_r] the block's design row (see ``Design``), so each
coefficient is one (design column c, item i) pair. A block with
expected total n, observed score total t and pattern probabilities p
contributes X_c (t - n E[s])_i to the score, n X_c X_d Cov[s]_ij to the
information entry of (c, i) and (d, j), and t . a - n log Z to the
expected-count log-likelihood, with Cov[s] = E[s s'] - E[s] E[s]'; the
score and information kernels of ``rankmix.model`` sum these over the
nonzero entries of X alone. The pattern space enters only through the
design's enumeration kernel, ``design.enumeration.moments`` (a
``model._Enumeration``): one pass over the patterns gives each block's
log Z, E[s] and Cov[s] and log P at the cells, and no array over the
patterns outlives it. Each Newton trial is one such pass: its log Z gives
the trial's deviance, and, if the trial is accepted, its moments the next
Newton iteration and its log P the E step, so no pass runs between M
steps. In the loop, log P, the posterior weights and the expected counts
are class-major (B, R, nnz) arrays:
sums over classes run over a short leading axis, sums over cells over
contiguous runs. Chains leave the stack with (nnz, R) rows aligned with
``Design.cell_set`` / ``Design.cell_pattern`` (``FitResult.posteriors``).
No (K, L, R) array is built unless a callback asks for the dense
posterior weights.

Several independent chains are run from random starts; the chain with the
best final likelihood wins. Chains that collapse a class (vanishing mass
or runaway offsets) are flagged degenerate and excluded from selection
while any healthy chain exists; a chain whose Newton solve failed is
flagged too, and never selected; as ``Design`` refuses aliased columns,
a solve fails only where effects run off or a class empties.

Every EM iteration happens in one loop, ``_run_stack``, which runs
independent chains of one design, a fit's random and warm starts, as a
stack with a leading chain axis B. An iteration runs one Newton solve
(``_newton``); one softmax over the accepted Newton trial's log P at the
cells then gives the log-likelihood and the posterior weights, and these
the masses of the next M step (``_mass_update``). Right after that E step
is the loop's one exit, where a chain leaves as the record of that
completed iteration (the start is iteration 0): when its solve failed or
its class offsets ran away, when it converges or hits ``max_iter``, or
else when a class mass of its next M step fell below ``degenerate_mass``.
Each kernel call (block effects, the moments, the information, the
Cholesky test, the Newton solve) serves the whole stack, while every
chain keeps its own Newton steps, step halving, convergence test and
iteration count, so each chain takes exactly the iterations it takes
alone. A stack holds as many chains as keep their cell arrays within
``_STACK_ENTRIES`` entries. A stack whose starts are all the uniform
model takes their moments in closed form (``_Enumeration.uniform``),
with no pass over the patterns.

A one-class chain starts at the uniform model (all coefficients zero),
its likelihood being concave, and is the exception to the loop's
stopping rule: with no latent variable, the expected counts are the
observed ones, so its first M step already maximizes the likelihood. It
stops after that one Newton solve, with one iteration, converged if the
solve met ``_IRLS_TOL`` and not if it stopped at ``irls_max_iter``;
``tol`` does not reach it.

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
    FitError,
    ModelSpec,
    Parameters,
    RankDeficientDesignError,  # noqa: F401 (re-exported; Design raises it)
    _STACK_ENTRIES,
    _coefficient_score,
    _information_stack,
    _mixture,
    _structural_information,
    _unpack_theta,
    bic,
    count_parameters,
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


def _solve(a: np.ndarray, b: np.ndarray, failed: list[int]):
    """x with a x = b for a stack (B, D, D), (B, D), and the systems that fail.

    These are ``failed`` and those numpy's solve finds singular, as a matrix
    that passes the Cholesky test with eigenvalues near zero can be; their
    x is 0. ``a`` and ``b`` are left as they are.
    """
    failed = list(failed)
    if failed:  # an identity system with a zero right side
        a, b = a.copy(), b.copy()
        a[failed], b[failed] = np.eye(a.shape[-1]), 0.0
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], failed
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        for j in range(len(a)):
            try:
                x[j] = np.linalg.solve(a[j], b[j])
            except np.linalg.LinAlgError:
                failed.append(j)
        return x, sorted(failed)


# A Newton solve stops once a step changes its deviance by at most this
# times the deviance (or times 1, if the deviance is smaller).
_IRLS_TOL = 1e-10
_SINGULAR = ("the information went singular at {}: effects are running off, "
             "or a class is emptying")


def _newton(m, design: Design, beta, start, tol: float, max_iter: int):
    """Maximize sum m[b, r, cell] log P over the coefficients of B chains.

    ``m`` (B, R, nnz) holds each chain's expected counts, class-major, and
    ``beta`` (B, P) its start. ``start`` holds the item effects at ``beta``
    and the first three arrays of ``design.enumeration.moments`` there. Each
    trial is one pass of that kernel, whose moments serve the next iteration
    if the trial is accepted. Each chain takes its own Newton steps with its
    own step halving and stops by its own deviance change; the stack shrinks
    as chains stop. A chain whose information fails the Cholesky test, or
    whose solve numpy finds singular, takes a zero step and leaves with its
    error.

    Returns the coefficients (B, P) and, there, the item effects and the
    kernel's four arrays (the accepted trial's, so the caller needs no
    further pass); per chain None or the ``FitError`` that stopped it; and
    per chain whether its last step met ``tol``, which a chain stopped by
    ``max_iter`` has not.
    """
    a, log_z, mean, cov = start
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

    def trial_at(b, observed, m_plus, saturated):  # with the kernel's arrays
        a = design.block_effects(b)
        log_z, mean, cov, logp = design.enumeration.moments(a)
        return deviance(a, log_z, observed, m_plus, saturated), a, log_z, mean, cov, logp

    errors: list[FitError | None] = [None] * n
    met = np.zeros(n, dtype=bool)
    # the chains still stepping; every array below has one row per chain
    chains = np.arange(n)
    dev = deviance(a, log_z, observed, m_plus, saturated)
    out = None  # per chain, where it stopped, once a chain has stopped
    for iteration in range(1, max_iter + 1):
        info = _structural_information(cov, m_plus, design)
        score = _coefficient_score(design.x, observed, m_plus, mean)
        # the failing chains take a zero step and leave
        direction, failed = _solve(info, score, _cholesky_failures(info))
        for j in failed:
            errors[chains[j]] = FitError(_SINGULAR.format(f"Newton iteration {iteration}"))

        # every chain still rising after h halvings has step 2^-h
        bound = dev + 1e-10 * (np.abs(dev) + 1.0)
        trial = beta + direction
        dev_try, *state = trial_at(trial, observed, m_plus, saturated)
        rising = ~(dev_try <= bound)
        for halvings in range(1, 40):
            if not np.count_nonzero(rising):
                break
            j = np.nonzero(rising)[0]
            trial[j] = beta[j] + 0.5 ** halvings * direction[j]
            dev_try[j], *at_j = trial_at(trial[j], observed[j], m_plus[j], saturated[j])
            for x, new in zip(state, at_j):
                x[j] = new
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
            return beta, *state, errors, met
        mean, cov = state[2:4]
        if stopped:
            if out is None:
                out = [np.empty((n,) + x.shape[1:]) for x in (beta, *state)]
            done = chains[stop]
            for kept, new in zip(out, (beta, *state)):
                kept[done] = new[stop]
            if stopped == len(chains):
                break
            going = ~stop
            chains, beta, dev, mean, cov, m_plus, observed, saturated = (x[going] for x in (
                chains, beta, dev, mean, cov, m_plus, observed, saturated))
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
    error: FitError | None = None  # why its last Newton solve failed


def _run_stack(design: Design, starts, config: FitConfig, labels, callback):
    """EM for a stack of chains; see :func:`run_chains`."""
    B = len(starts)
    one_class = design.n_classes == 1
    results: list = [None] * B
    traces: list[list[float]] = [[] for _ in range(B)]
    b = np.array([s.coefficients for s in starts], dtype=np.float64)
    q = np.array([s.mixing for s in starts], dtype=np.float64)
    a = design.block_effects(b)
    *at_b, logp = a, *(design.enumeration.moments(a) if b.any()
                       else design.enumeration.uniform(B))
    # the running chains' state, one row per chain: the coefficients, the
    # expected counts and masses of the next M step, the deviance, and the
    # item effects, log Z, E[s] and Cov[s] where the next Newton solve starts
    # (in closed form, if every start is the uniform model)
    state = [np.arange(B), b, None, q, np.full(B, np.inf), *at_b]
    for iteration in range(config.max_iter + 1):
        chains, b, m, q, last, *at_b = state
        n = len(chains)
        errors, solved, offsets = [None] * n, np.zeros(n, dtype=bool), np.zeros(n)
        if iteration:  # M step: the coefficients, as q came with the E step
            b, *at_b, logp, errors, solved = _newton(m, design, b, at_b, _IRLS_TOL,
                                                     config.irls_max_iter)
            offsets = np.abs(design.class_offsets(b)).max(axis=(1, 2))
        # E step: one softmax gives the log-likelihood and the posterior
        # weights, and these the next M step's expected counts and masses
        log_mixture, w = _mixture(logp, np.log(q)[:, :, None])
        ll = (log_mixture[:, None] @ design.cell_counts[:, None])[:, 0, 0]  # per chain
        dev = 2.0 * (design.saturated_loglik - ll)
        m, next_q, low_mass = _mass_update(w, design, config.degenerate_mass)
        for c, x in zip(chains.tolist(), dev.tolist()):
            traces[c].append(x)
        if callback is not None and iteration:
            callback(iteration, Parameters(b[0].copy(), q[0].copy()), dense_w,
                     float(ll[0]))
        # The one exit. A chain leaves degenerate when its solve failed or its
        # class offsets ran away. Else it stops by tol, at max_iter or after
        # its one-class solve (converged if that met its tolerance), and only
        # a chain that does not stop leaves degenerate when a class mass of
        # its next M step fell below degenerate_mass.
        met = solved if one_class else np.abs(dev - last) < config.tol
        stop = met | (iteration == config.max_iter or one_class and iteration > 0)
        why = [str(e) if e is not None
               else f"class offset reached {x:.3g}" if x > config.degenerate_offset
               else None if s else low
               for e, x, s, low in zip(errors, offsets.tolist(), stop.tolist(), low_mass)]
        leave = stop | np.array([x is not None for x in why])
        for j in np.nonzero(leave)[0]:
            c = chains[j]
            results[c] = _Chain(
                label=labels[c], params=Parameters(b[j].copy(), q[j].copy()),
                loglik=float(ll[j]), deviance=float(dev[j]), trace=traces[c],
                converged=why[j] is None and bool(met[j]),
                degenerate=why[j] is not None, n_iterations=iteration,
                message=why[j], posteriors=w[j].T.copy(), error=errors[j])
        if leave.all():
            break
        state = [chains, b, m, next_q, dev, *at_b]
        if leave.any():
            state = [x[~leave] for x in state]
        if callback is not None:  # a lone chain: the weights of its next M step
            dense_w = _mixture(design.log_pattern_probs(b[0]).transpose(0, 2, 1),
                               np.log(q[0])[:, None])[1].transpose(0, 2, 1)
    return results


def _stack_size(design: Design) -> int:
    """Chains per stack: their cell arrays, B x R x nnz, within ``_STACK_ENTRIES``."""
    return max(1, _STACK_ENTRIES // (design.n_classes * design.cell_set.size))


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
    one run. Returns, in start order, each chain's ``_Chain``: the state of
    its last completed iteration. A chain whose Newton solve failed ends at
    the iteration of that solve (whose failing step is zero), degenerate,
    with its ``FitError`` as ``error`` and the error text as ``message``.
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
    chain fails alone when its free I_c block fails the Cholesky test or
    numpy's solve, or when lambda passes ``_MAX_DAMPING``. The chains run
    in stacks of :func:`_stack_size`, one kernel call and one batched
    Cholesky test and solve per step for a stack.

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
        # The one exit. A chain fails when its damping passed _MAX_DAMPING,
        # or its I_c block fails the Cholesky test or numpy's solve; one whose
        # class emptied stops unconverged (its information may be flat
        # there), its masses compared as exp of the log masses, so that
        # min_mass 0 takes no log of 0.
        over = lam > _MAX_DAMPING
        emptied = ~over & (np.exp(_unpack_theta(theta, design)[1].min(axis=1))
                           < min_mass)
        solution, singular = _solve(complete, g, _cholesky_failures(complete))
        ok = ~(over | emptied)
        failed = [j for j in singular if ok[j]]
        ok[singular] = False
        decrement = np.full(len(chains), np.inf)
        if ok.any():
            decrement[ok] = 0.5 * _row_dots(g[ok], solution[ok])
        done = emptied | ok & ((decrement < _DECREMENT) | (step == max_iter))
        for j in np.nonzero(over)[0]:
            results[chains[j]] = FitError(
                f"damped Newton found no ascent step in {step} steps: the "
                f"damping passed {_MAX_DAMPING:g}")
        for j in failed:
            results[chains[j]] = FitError(_SINGULAR.format(f"damped Newton step {step}"))
        for j in np.nonzero(done)[0]:
            results[chains[j]] = (theta[j].copy(), float(ll[j]),
                                  bool(decrement[j] < _DECREMENT))
        state[:] = [x[ok & ~done] for x in state]
        chains, theta, free, lam, ll, g, complete, observed = state
        if not chains.size:
            break
        # the damping rises until the matrix is positive definite; a chain
        # whose matrix is not by _MAX_DAMPING, or that numpy's solve finds
        # singular, takes no step
        matrix = observed + lam[:, None, None] * complete
        flat = _cholesky_failures(matrix)
        while flat and lam[flat].max() <= _MAX_DAMPING:
            lam[flat] = np.maximum(4.0 * lam[flat], _MIN_DAMPING)
            matrix[flat] = observed[flat] + lam[flat, None, None] * complete[flat]
            flat = [flat[i] for i in _cholesky_failures(matrix[flat])]
        direction, flat = _solve(matrix, g, flat)
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
    return results


def chain_seeds(base_seed: int, n_starts: int) -> list[int]:
    """Distinct per-chain seeds derived deterministically from the base seed."""
    return [base_seed + 1000003 * i for i in range(n_starts)]


def _best_chain(chains: list[_Chain]) -> _Chain:
    """The highest log-likelihood among the non-degenerate chains.

    Ties go to the earlier start. A chain stopped by ``max_iter`` competes
    like a converged one. A chain whose Newton solve failed never competes;
    only when every other chain degenerated is the best of the degenerate
    ones taken.
    """
    solved = [c for c in chains if c.error is None]
    return max([c for c in solved if not c.degenerate] or solved,
               key=lambda c: c.loglik)


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
    :func:`run_chains`), and :func:`_best_chain` picks the result in a fixed
    order, so results are reproducible for a given seed. A design that
    ``Design`` refuses raises before any chain runs. A chain whose Newton
    solve failed is listed in ``chain_summaries`` as degenerate, with the
    error as its message, and never wins; only when every chain failed
    does the fit raise, with the first chain's ``FitError``.
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
    if all(c.error is not None for c in chains):
        raise chains[0].error
    best = _best_chain(chains)

    n_params = count_parameters(design, config.count_masses)
    minus_two = -2.0 * best.loglik
    summaries = [{"label": c.label, "minus_two_loglik": -2.0 * c.loglik,
                  "deviance": c.deviance, "iterations": c.n_iterations,
                  "converged": c.converged, "degenerate": c.degenerate,
                  "message": c.message} for c in chains]
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
    beta = np.vstack([design.coefficient_matrix(result.params.coefficients)[:n_cov],
                      offsets - shift])
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
