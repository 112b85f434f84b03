"""Pattern-model structure: linear predictor, probabilities, likelihood.

The probability that item i beats item j is pi_i / (pi_i + pi_j) with
worths pi_i = exp(2 a_i); a_i is the item effect. A whole ranking pattern
l gets probability proportional to exp(eta_l) with

    eta_l = sum_{i<j} y_ij,l (a_i - a_j) = sum_i s_li a_i,

where s_li is net wins of item i in pattern l, and the normalization runs
over the transitive patterns only. Item effects expand over covariate
sets k and latent classes r as

    a_ikr = lambda_i + factor effects(k) + x_k * slope_i + offset_ir,

with the last item as reference (all its coefficients fixed at 0), the
first factor level as reference, and the last class as reference
(offset 0). In matrix form a_kr = X_kr B over the non-reference items:
row (k, r) of the block design matrix X holds the set's covariate
columns and the class indicators, and B holds one row of item
coefficients per column. Class r carries mixing weight q_r; the
observed-data likelihood multiplies sum_r q_r P_lkr over cells to the
power n_lk.

The fit works on the observed cells, the (set, pattern) pairs with a
nonzero count, which ``AggregatedData`` stores sorted by (set, pattern)
and ``Design`` takes as they are. At a cell,
log P_lkr = s_l . a_kr - log Z_kr, so the J! pattern space enters only
through each (set, class) block's log-normalizer log Z_kr and its score
moments. One class, ``_Enumeration`` (``Design.enumeration``), enumerates
the patterns and holds every array over them: its ``log_normalizer``
gives log Z, the pattern weights (unnormalized) and log P at the
observed cells from one product, one ``exp`` and one row sum, and its
``score_moments`` gives every block's E[s] and Cov[s] from one product
of those weights with its moment table. At zero effects, the uniform
model, ``uniform`` and ``uniform_moments`` give the same in closed form
without visiting the patterns. ``Design`` keeps the rest: the
block design matrix X and the coefficients, and the observed cells with
their counts, their rows [1 | s | s_i s_j] and each set's run of cells,
from which ``block_totals`` and the missing information read the
observed score totals. Inside the fit, log P, posterior weights and
expected counts are class-major (R, nnz) arrays, columns in
``Design.cell_set`` / ``Design.cell_pattern`` order; the public
functions give (nnz, R) rows. One softmax, ``_mixture``, gives the log
mixture log sum_r q_r P_r and the posterior weights to the EM loop,
``mixture_loglik``, ``posterior_weights`` and ``mixture_score``. Only
the dense ``Design.log_pattern_probs``, which reads the pattern space's
score matrix itself, gives every (K, L, R) cell.

The information kernels live here too: ``_structural_information`` for
the Newton solve, and ``_information_stack``, the log-likelihood, score,
complete-data and observed information of the mixture likelihood by
Louis's identity (Louis 1982, JRSS-B 44:226) for a stack of chains, at
per-block cost: its missing information comes from per-(set, class,
class) sums over each set's run of cells. It works on theta =
(coefficients, log(q_r / q_R)), ``Parameters.theta``; the damped Newton
refits read it over a stack, and the raw and Hessian SEs and
``mixture_score`` read it for one chain (``_information``).

The kernels of the fit (``block_effects``, ``log_normalizer``,
``score_moments``, ``set_sums``, ``block_totals``) also take a leading
stack of chains: coefficients (B, P) give item effects (B, K, R, J),
cell arrays are (B, R, nnz), and so on, so that several EM chains of one
design advance with one call per kernel.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import AggregatedData, DataError

# Chains of one design advance as one stack while their pattern weights,
# B x K x R x L doubles, and the information's column products,
# B x K x R x Q^2, stay within this many entries (8 MB); a design whose
# blocks alone exceed it runs one chain at a time. The missing
# information's temporaries keep within it too.
_STACK_ENTRIES = 1_000_000


@dataclass(frozen=True)
class ModelSpec:
    """Items, covariate terms, and number of latent classes.

    Terms name declared covariates; "A:B" is a factor-by-factor
    interaction. Every term acts item-wise (an item by covariate
    interaction in the underlying log-linear model).
    """

    item_labels: tuple[str, ...]
    terms: tuple[str, ...] = ()
    n_classes: int = 1

    def __post_init__(self):
        if len(self.item_labels) < 2:
            raise ValueError("need at least two items")
        if len(set(self.item_labels)) != len(self.item_labels):
            raise ValueError("item labels must be distinct")
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")

    @property
    def n_items(self) -> int:
        return len(self.item_labels)

    @property
    def reference_item(self) -> int:
        return self.n_items - 1

    def with_classes(self, n_classes: int) -> "ModelSpec":
        return replace(self, n_classes=n_classes)


@dataclass(frozen=True)
class Coefficient:
    """One free structural coefficient in the design."""

    name: str
    kind: str  # "item", "factor", "continuous", "class"
    item: int
    term: str | None = None
    levels: tuple[str, ...] | None = None
    class_index: int | None = None  # 0-based, < R-1


@dataclass
class Parameters:
    """Structural coefficients plus mixing weights.

    ``coefficients`` follows the design's coefficient order (item mains,
    covariate terms, class offsets); ``mixing`` holds all R weights.
    """

    coefficients: np.ndarray
    mixing: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        self.mixing = np.asarray(self.mixing, dtype=np.float64)
        if self.mixing.ndim != 1 or self.mixing.size < 1:
            raise ValueError("mixing must be a nonempty vector")
        if np.any(self.mixing <= 0) or abs(self.mixing.sum() - 1.0) > 1e-8:
            raise ValueError("mixing weights must be positive and sum to 1")

    @property
    def n_classes(self) -> int:
        return self.mixing.size

    def copy(self) -> "Parameters":
        return Parameters(self.coefficients.copy(), self.mixing.copy())

    @property
    def theta(self) -> np.ndarray:
        """The free parameters (coefficients, log(q_r / q_R) for r < R), (P + R - 1,).

        :func:`_unpack_theta` maps a stack of them back.
        """
        log_q = np.log(self.mixing)
        return np.append(self.coefficients, log_q[:-1] - log_q[-1])


def _moment_rows(s: np.ndarray) -> np.ndarray:
    """[1 | s | s_i s_j over the non-reference items] per score row s.

    ``s`` is (n, J); the result is (n, 1 + J + (J-1)^2).
    """
    free = s[:, :-1]
    return np.hstack([np.ones((len(s), 1)), s,
                      (free[:, :, None] * free[:, None, :]).reshape(len(s), -1)])


class _Enumeration:
    """The J! pattern space of a count table, enumerated for R classes.

    It holds every array with one entry per pattern: [S'; 1] over the
    patterns' net-win scores S (L, J), the moment table [1 | s | s_i s_j]
    (L, 1 + J + (J-1)^2), and the places of the observed cells among a
    stack's pattern weights. Two of its methods are the only computations
    of the fit that visit every pattern: the log-normalizer and the score
    moments of each (set, class) block. The other two give both at zero
    effects in closed form.
    """

    def __init__(self, data: AggregatedData, n_classes: int):
        scores = data.space.score_matrix()
        L, J = scores.shape
        self._blocks = (data.n_sets, n_classes)
        # [S' ; 1], (J + 1, L): [a, -shift] times it is s_l . a - shift
        self._shifted_scores = np.vstack([scores.T, np.ones(L)])
        # the largest s . a over all J! patterns pairs the sorted effects
        # with the sorted scores 1 - J, 3 - J, ..., J - 1
        self._score_ramp = np.arange(1.0 - J, J, 2.0)
        # one product with the pattern weights gives every block's total,
        # first and second score moments
        self._moment_table = _moment_rows(scores)
        # per class and observed cell, class-major (R, nnz): the cell's block
        # row in a chain's (K * R, L) pattern weights, and its entry there
        self._cell_blocks = data.cell_set * n_classes + np.arange(n_classes)[:, None]
        self._cell_entries = self._cell_blocks * L + data.cell_pattern

    def log_normalizer(self, a: np.ndarray):
        """Per-block log-normalizers, pattern weights, and log P at the cells.

        ``a`` holds the item effects (..., K, R, J). Returns log Z
        (..., K, R), with Z_kr = sum_l exp(s_l . a_kr); the pattern weights
        exp(s_l . a_kr - shift_kr), proportional to the pattern
        probabilities, as one row of L patterns per block, (..., K * R, L),
        in (set, class) order; and log P = s_l . a_kr - log Z_kr at the
        observed cells, class-major, (..., R, nnz). The shift is the largest
        s_l . a_kr: the space holds every ranking, so it is the sorted
        effects times the sorted scores. All blocks of all chains are rows
        of one product with the score matrix, which subtracts the shift
        too; the cells' log P is gathered from it before an ``exp`` in
        place (so it stays exact where the weights underflow) and one row
        sum.
        """
        K, R, J = a.shape[-3:]
        lead = a.shape[:-3]
        rows = np.empty((a.size // J, J + 1))
        rows[:, :J] = a.reshape(-1, J)
        shift = np.sort(rows[:, :J], axis=1) @ self._score_ramp
        rows[:, J] = -shift
        w = rows @ self._shifted_scores
        logp = np.take(w.reshape(-1, K * R * w.shape[1]), self._cell_entries,
                       axis=1)
        np.exp(w, out=w)
        log_total = np.log(w.sum(axis=1))
        logp -= np.take(log_total.reshape(-1, K * R), self._cell_blocks, axis=1)
        return ((log_total + shift).reshape(lead + (K, R)),
                w.reshape(lead + (K * R, -1)),
                logp.reshape(lead + logp.shape[1:]))

    def score_moments(self, w: np.ndarray):
        """Per-block score moments from the pattern weights (..., K * R, L).

        Returns E[s] (..., K, R, J) and Cov[s] over the non-reference
        items, one flattened row per block, (N, (J-1)^2) with N all blocks
        of all chains: one product of the weights of
        :meth:`log_normalizer` with the moment table, divided by its first
        column, the weights' total, gives E[s] and E[s s'], and
        Cov[s] = E[s s'] - E[s] E[s]'.
        """
        J = self._score_ramp.size
        sums = w.reshape(-1, w.shape[-1]) @ self._moment_table
        sums /= sums[:, :1]
        free = sums[:, 1:J]
        cov = sums[:, J + 1:] - (free[:, :, None] * free[:, None, :]).reshape(
            len(sums), -1)
        # a copy, so that the means do not keep the whole product alive
        return sums[:, 1:J + 1].reshape(w.shape[:-2] + self._blocks + (J,)).copy(), cov

    def uniform(self, n: int):
        """log Z (n, K, R) and log P at the cells (n, R, nnz) of n chains at zero effects.

        At a = 0 every block is the uniform model, so no pattern is visited:
        each of the J! patterns has probability 1 / J!, log Z = log J! and
        log P = -log J!.
        """
        log_z = math.log(math.factorial(self._score_ramp.size))
        return (np.full((n,) + self._blocks, log_z),
                np.full((n,) + self._cell_blocks.shape, -log_z))

    def uniform_moments(self, n: int):
        """:meth:`score_moments` of n chains at zero effects, without the product.

        E[s] = 0, as each item's net wins run uniformly over 1 - J, 3 - J,
        ..., J - 1, whose variance is (J^2 - 1) / 3; the scores sum to zero,
        so Cov[s]_ij = (J + 1) / 3 (J delta_ij - 1).
        """
        J = self._score_ramp.size
        cov = (J + 1) / 3.0 * (J * np.eye(J - 1) - 1.0)
        blocks = n * self._blocks[0] * self._blocks[1]
        return (np.zeros((n,) + self._blocks + (J,)),
                np.broadcast_to(cov.ravel(), (blocks, cov.size)))


class Design:
    """Resolved design linking a ModelSpec to an aggregated data set.

    The item effects of each (covariate set k, class r) block are
    a_kr = X_kr B: ``X`` is the (K, R, Q) block design matrix and B the
    (Q, J - 1) coefficient matrix, with the reference item's effect fixed
    at 0. The first ``n_covariate_columns`` columns of ``X`` are the
    covariate columns (the intercept, each continuous term's standardized
    values, each factor or interaction level's indicator); the last R - 1
    are the class indicators, whose rows of B are the class offsets. The
    coefficient vector is B in row-major order (design column outer, item
    inner).

    Also built: for the data's observed cells (sorted by set, then
    pattern), their counts as floats, their rows [1 | s | s_i s_j] and the
    start of each set's run of cells; and ``enumeration``, the
    :class:`_Enumeration` of the pattern space at those cells.
    """

    def __init__(self, spec: ModelSpec, data: AggregatedData):
        if spec.n_items != data.space.n_items:
            raise DataError(
                f"model has {spec.n_items} items but data has {data.space.n_items}"
            )
        self.spec = spec
        self.data = data
        # the cells are sorted by set, so each set's cells are one contiguous run
        self.cell_set, self.cell_pattern = data.cell_set, data.cell_pattern
        self.cell_counts = data.cell_counts.astype(np.float64)
        self.n_respondents = self.cell_counts.sum()
        self._observed_sets, self._set_starts = np.unique(
            self.cell_set, return_index=True
        )
        K, R, J = data.n_sets, spec.n_classes, spec.n_items
        self.enumeration = _Enumeration(data, R)
        # [1 | s | s_i s_j] per cell, from the cells' own rankings
        self._cell_moments = _moment_rows(
            (J + 1 - 2 * data.space.rankings[self.cell_pattern]).astype(np.float64))
        self.coefficients: list[Coefficient] = []
        columns: list[np.ndarray] = []  # each broadcasts to (K, R)

        def add_column(values: np.ndarray, kind: str, suffix: str, **fields):
            columns.append(values)
            self.coefficients.extend(
                Coefficient(name=label + suffix, kind=kind, item=j, **fields)
                for j, label in enumerate(spec.item_labels[:-1])
            )

        factor_names = data.covariate_names("factor")
        cont_names = data.covariate_names("continuous")

        add_column(np.ones((K, 1)), "item", "")
        for term in spec.terms:
            parts = term.split(":")
            kinds = []
            for part in parts:
                if part in factor_names:
                    kinds.append("factor")
                elif part in cont_names:
                    kinds.append("continuous")
                else:
                    raise DataError(f"term {term!r}: no covariate named {part!r}")
            if kinds == ["continuous"]:
                z = data.standardized_continuous(parts[0])
                add_column(z[:, None], "continuous", f":{parts[0]}", term=term)
            elif all(k == "factor" for k in kinds):
                level_orders = [data.factor_level_order(p) for p in parts]
                positions = [factor_names.index(p) for p in parts]
                for combo in itertools.product(*(lo[1:] for lo in level_orders)):
                    mask = np.array(
                        [all(s.factor_levels[pos] == lev
                             for pos, lev in zip(positions, combo))
                         for s in data.covariate_sets],
                        dtype=np.float64,
                    )
                    label = ":".join(
                        f"{p}={lev}" for p, lev in zip(parts, combo)
                    )
                    add_column(mask[:, None], "factor", f":{label}", term=term,
                               levels=combo)
            else:
                raise DataError(
                    f"term {term!r}: interactions may only combine factors"
                )
        self.n_covariate_columns = len(columns)
        for r in range(R - 1):
            add_column(np.eye(R)[r], "class", f":class{r + 1}", class_index=r)

        self.X = np.stack([np.broadcast_to(c, (K, R)) for c in columns], axis=-1)
        self.name_to_index = {c.name: i for i, c in enumerate(self.coefficients)}

    @property
    def n_coefficients(self) -> int:
        return len(self.coefficients)

    @property
    def n_items(self) -> int:
        return self.spec.n_items

    @property
    def n_sets(self) -> int:
        return self.data.n_sets

    @property
    def n_classes(self) -> int:
        return self.spec.n_classes

    @property
    def n_patterns(self) -> int:
        return self.data.space.size

    def coefficient_matrix(self, coefficients: np.ndarray) -> np.ndarray:
        """The coefficient vector as B, one row per design column, (..., Q, J - 1)."""
        coefficients = np.asarray(coefficients)
        return coefficients.reshape(
            coefficients.shape[:-1] + (self.X.shape[-1], self.n_items - 1)
        )

    def block_effects(self, coefficients: np.ndarray) -> np.ndarray:
        """Item effects a_kr = X_kr B per block, shaped (..., K, R, J)."""
        K, R, Q = self.X.shape
        B = self.coefficient_matrix(coefficients)
        lead = B.shape[:-2]
        a = np.zeros(lead + (K, R, self.n_items))
        a[..., :-1] = (self.X.reshape(K * R, Q) @ B).reshape(lead + (K, R, -1))
        return a

    def item_effects(self, coefficients: np.ndarray) -> np.ndarray:
        """Per-(item, covariate set, class) effects a_ikr, reference rows 0."""
        return self.block_effects(coefficients).transpose(2, 0, 1)

    def log_pattern_probs(self, coefficients: np.ndarray) -> np.ndarray:
        """log P_lkr, normalized over patterns within each (k, r); (K, L, R).

        s_l . a_kr for every pattern, less its log-sum-exp over patterns.
        """
        e = np.einsum("lj,jkr->klr", self.data.space.score_matrix(),
                      self.item_effects(coefficients))
        e -= _logsumexp(e, axis=1)
        return e

    def set_sums(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """Per-set sums of a cell array over its cell axis ``axis`` (length nnz).

        The result has K in place of nnz on that axis.
        """
        shape = list(x.shape)
        shape[axis] = self.n_sets
        out = np.zeros(shape)
        index = [slice(None)] * x.ndim
        index[axis] = self._observed_sets
        out[tuple(index)] = np.add.reduceat(x, self._set_starts, axis=axis)
        return out

    def block_totals(self, m: np.ndarray):
        """Block totals m_plus (..., K, R) and score totals t (..., K, R, J).

        ``m`` holds cell counts, class-major (..., R, nnz), and t[k, r] is
        the sum over the set's cells of m[r, cell] * s_l.
        """
        # [1; s'] per cell, (J + 1, nnz), contiguous so that the product is fast
        rows = np.ascontiguousarray(self._cell_moments[:, :self.n_items + 1].T)
        sums = self.set_sums(m[..., None, :] * rows, axis=-1)
        sums = sums.swapaxes(-1, -2).swapaxes(-2, -3)  # (..., K, R, J + 1)
        return sums[..., 0].copy(), sums[..., 1:].copy()

    @functools.cached_property
    def saturated_loglik(self) -> float:
        """Log-likelihood of the saturated multinomial (one probability per cell)."""
        totals = self.set_sums(self.cell_counts)
        if np.any(totals <= 0):
            empty = np.nonzero(totals <= 0)[0]
            raise DataError(f"covariate sets with no respondents: {empty.tolist()}")
        n = self.cell_counts
        return float(n @ np.log(n / totals[self.cell_set]))

    def check_data(self, data: AggregatedData):
        """Raise unless ``data`` holds the count table the design was built on."""
        if data is not self.data and not (
                (data.n_sets, data.space.size) == (self.n_sets, self.n_patterns)
                and all(np.array_equal(getattr(data, a), getattr(self.data, a))
                        for a in ("cell_set", "cell_pattern", "cell_counts"))):
            raise DataError("data do not match the count table of the design")

    def class_offsets(self, coefficients: np.ndarray) -> np.ndarray:
        """Offset matrix (J, R); reference item row and reference class column are 0.

        Any per-coefficient vector (estimates, standard errors) maps this
        way: the class rows of its coefficient matrix, transposed.
        """
        out = np.zeros((self.n_items, self.n_classes))
        out[:-1, :-1] = self.coefficient_matrix(coefficients)[
            self.n_covariate_columns:].T
        return out


def pairwise_win_prob(effect_i: float, effect_j: float) -> float:
    """Probability that the first item beats the second in one comparison."""
    if not (np.isfinite(effect_i) and np.isfinite(effect_j)):
        raise ValueError("item effects must be finite")
    hi = max(2.0 * effect_i, 2.0 * effect_j)
    num = np.exp(2.0 * effect_i - hi)
    return float(num / (num + np.exp(2.0 * effect_j - hi)))


def worths(item_effects) -> np.ndarray:
    """Normalized worths from item effects: exp(2a) scaled to sum to 1."""
    a = np.asarray(item_effects, dtype=np.float64)
    z = 2.0 * a - np.max(2.0 * a)
    w = np.exp(z)
    return w / w.sum()


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, which is kept with length 1.

    Shifting by the maximum keeps exp from overflowing. A slice whose
    maximum is not finite (all -inf, or holding inf or nan) is not shifted,
    so it gives -inf, inf or nan as the unshifted sum would.
    """
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    e = a - shift
    np.exp(e, out=e)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(e, axis=axis, keepdims=True)) + shift


def _mixture(logp: np.ndarray, log_mixing: np.ndarray):
    """log sum_r q_r P_r and the posterior class weights, from one softmax.

    ``logp`` holds log P class-major, (..., R, nnz), as
    :meth:`_Enumeration.log_normalizer` gives it; it is overwritten by the
    posterior weights. ``log_mixing`` holds log q and broadcasts against
    it: (R, 1) for one chain, (B, R, 1) for a stack. Returns the log
    mixture (..., nnz) and the weights (..., R, nnz): one shift, one
    ``exp`` and one sum over the classes give both.
    """
    logp += log_mixing
    shift = logp.max(axis=-2, keepdims=True)
    logp -= shift
    np.exp(logp, out=logp)
    total = logp.sum(axis=-2, keepdims=True)
    logp /= total
    return (np.log(total) + shift)[..., 0, :], logp


def _coefficient_score(X: np.ndarray, t: np.ndarray, m_plus: np.ndarray,
                       mean: np.ndarray) -> np.ndarray:
    """Score over all coefficients: sum_kr X_kr' (t_kr - m_plus_kr E_kr[s]).

    The (Q, J - 1) result of each chain keeps the non-reference items and
    is returned flat in coefficient order, (..., P).
    """
    resid = (t - m_plus[..., None] * mean)[..., :-1]
    lead = resid.shape[:-3]
    Q = X.shape[-1]
    score = X.reshape(-1, Q).T @ resid.reshape(lead + (-1, resid.shape[-1]))
    return score.reshape(lead + (-1,))


def _column_products(design: Design, m_plus: np.ndarray) -> np.ndarray:
    """The information's block weights m_plus[k, r] X_krc X_krd, (B, K * R, Q * Q)."""
    K, R, Q = design.X.shape
    X = design.X.reshape(K * R, Q)
    return ((m_plus.reshape(-1, K * R, 1) * X)[..., :, None]
            * X[:, None, :]).reshape(-1, K * R, Q * Q)


def _structural_information(cov: np.ndarray, design: Design, products: np.ndarray):
    """The information (B, P, P) over the coefficients of B chains.

    ``cov`` holds the block covariances as :meth:`_Enumeration.score_moments`
    returns them, and ``products`` the :func:`_column_products` of the
    block totals. The entry for coefficients (c, i) and (d, j) is
    sum_kr m_plus[k, r] X_krc X_krd Cov_kr[s]_ij over the non-reference
    items, one matrix product of the column products with the covariances.
    """
    J1 = design.n_items - 1
    Q = design.X.shape[-1]
    info = np.swapaxes(products, 1, 2) @ cov.reshape(products.shape[:2] + (-1,))
    info = info.reshape(-1, Q, Q, J1, J1).transpose(0, 1, 3, 2, 4)
    return info.reshape(-1, Q * J1, Q * J1)


def _unpack_theta(theta: np.ndarray, design: Design):
    """Coefficients (B, P) and log masses (B, R) of a stack of ``theta`` (B, P + R - 1).

    The log masses are the log-softmax of (log-ratios, 0), so a log-ratio
    of any size gives finite log masses, and no mass is taken a log of.
    """
    p = design.n_coefficients
    ratios = np.concatenate([theta[:, p:], np.zeros((len(theta), 1))], axis=1)
    return theta[:, :p], ratios - _logsumexp(ratios, axis=1)


def _theta_names(design: Design) -> list[str]:
    """Names of the coordinates of ``theta``: the coefficients, then mass1..mass(R-1)."""
    return [c.name for c in design.coefficients] + [
        f"mass{r + 1}" for r in range(design.n_classes - 1)]


def _information(params: Parameters, design: Design):
    """Score, complete-data and observed information at ``params``.

    The :func:`_information_stack` of one chain, with log q = log of the
    mixing weights.
    """
    _, score, complete, observed = _information_stack(
        params.coefficients[None], np.log(params.mixing)[None], design)
    return score[0], complete[0], observed[0]


def _information_stack(coefficients: np.ndarray, log_mixing: np.ndarray,
                       design: Design):
    """Log-likelihood, score, complete-data and observed information of B chains.

    ``coefficients`` is (B, P) and ``log_mixing`` (B, R). The score and
    informations are over theta = (coefficients, design column outer and
    item inner, then the R - 1 mass log-ratios log(q_r / q_R)), shaped
    (B, D) and (B, D, D) with D = P + R - 1, all from one normalizer call:
    its log P gives the log-likelihood and the posterior weights w, its
    pattern weights the structural information at the expected counts
    m = n w, to which the complete-data information adds the mass block
    N (diag(q~) - q~ q~'), q~ the first R - 1 masses. The score is the
    posterior mean of the complete-data score (Fisher's identity), and the
    observed information (Louis's identity) the complete-data information
    minus :func:`_missing_information`. The score totals and the missing
    information are formed for groups of chains whose temporaries keep
    within ``_STACK_ENTRIES`` entries; a chain whose own exceed it goes
    alone.
    """
    B, p = coefficients.shape
    R = design.n_classes
    n = design.cell_counts
    _, weights, logp = design.enumeration.log_normalizer(
        design.block_effects(coefficients))
    log_mixture, w = _mixture(logp, log_mixing[:, :, None])
    m = w * n
    m_plus = design.set_sums(m, axis=-1).swapaxes(1, 2)  # (B, K, R)
    mean, cov = design.enumeration.score_moments(weights)
    del weights
    structural = _structural_information(cov, design,
                                         _column_products(design, m_plus))
    q = np.exp(log_mixing[:, :-1])
    score = np.empty((B, p + R - 1))
    score[:, p:] = m.sum(axis=-1)[:, :-1] - design.n_respondents * q
    complete = np.zeros((B, p + R - 1, p + R - 1))
    complete[:, :p, :p] = structural
    complete[:, p:, p:] = design.n_respondents * (
        q[:, :, None] * np.eye(R - 1) - q[:, :, None] * q[:, None, :])
    observed = complete.copy()
    group = max(1, _STACK_ENTRIES // (R * R * m.shape[-1]
                                      * design._cell_moments.shape[1]))
    for lo in range(0, B, group):
        chains = slice(lo, lo + group)
        t = design.block_totals(m[chains])[1]
        score[chains, :p] = _coefficient_score(design.X, t, m_plus[chains],
                                               mean[chains])
        if R > 1:
            observed[chains] -= _missing_information(w[chains], mean[chains],
                                                     design)
    return (log_mixture @ n, score, complete,
            0.5 * (observed + observed.swapaxes(1, 2)))


def _missing_information(w: np.ndarray, mean: np.ndarray, design: Design):
    """The missing information of Louis's identity for B chains, (B, D, D).

    ``w`` holds the posterior weights (B, R, nnz), R > 1, and ``mean`` the
    block score means (B, K, R, J). At a cell, g_r = [X_kr (x) d_r,
    e_r - q~], d_r = s_l - E_kr[s] over the free items, is the gradient of
    log(q_r P_r), and the missing information is the sum over cells of
    sum_rr' C_rr' g_r g_r', C_rr' = n (w_r delta_rr' - w_r w_r'). Each of
    its blocks comes from per-(chain, set, r, r') sums of C_rr' [1, s, s s']
    over the set's run of cells: the coefficient block is
    sum_krr' (X_kr X_kr') (x) sum C_rr' d_r d_r', the coefficient-mass
    block sum_kr X_kr (x) sum C_rr' d_r in column r', and the mass block
    sum C_rr' over r, r' < R. The rows and the columns of C sum to zero,
    so only the sums over r, r' < R are formed, and the reference class's
    follow from them.
    """
    B, R, _ = w.shape
    K, _, Q = design.X.shape
    J1 = design.n_items - 1
    p = design.n_coefficients
    v = w[:, :-1] * design.cell_counts  # n w_r, r < R
    C = -v[:, :, None, :] * w[:, None, :-1, :]
    C[:, np.arange(R - 1), np.arange(R - 1)] += v
    # per-set sums of C [1, s, s s'], (B, R - 1, R - 1, K, 1 + J + J1^2),
    # then the reference class's column and row, (B, R, R, K, ...)
    A = design.set_sums(C[..., None] * design._cell_moments, axis=-2)
    A = np.concatenate([A, -A.sum(axis=2, keepdims=True)], axis=2)
    A = np.concatenate([A, -A.sum(axis=1, keepdims=True)], axis=1)
    mu = mean[..., :-1].transpose(0, 2, 1, 3)  # (B, R, K, J1)
    # sum C (s - mu_r), and sum C (s - mu_r)(s - mu_r')'
    E = A[..., 1:J1 + 1] - A[..., :1] * mu[:, :, None]
    D = (A[..., J1 + 2:].reshape(E.shape + (J1,))
         - mu[:, :, None, :, :, None] * A[..., None, 1:J1 + 1]
         - E[..., :, None] * mu[:, None, :, :, None, :])
    # the coefficient block sums the (class, class', set) products of the
    # design rows (R * R * K, Q * Q) times D, over runs of those rows whose
    # products keep within _STACK_ENTRIES entries
    X = design.X.transpose(1, 0, 2)  # (R, K, Q)
    D = D.reshape(B, -1, J1 * J1)
    rows = np.arange(D.shape[1])
    run = max(1, _STACK_ENTRIES // (Q * Q))

    def coefficient_block(lo):
        r, r2, k = np.unravel_index(rows[lo:lo + run], (R, R, K))
        pairs = (X[r, k, :, None] * X[r2, k, None, :]).reshape(-1, Q * Q)
        return pairs.T @ D[:, lo:lo + run]

    coef = sum(coefficient_block(lo) for lo in range(0, rows.size, run))
    missing = np.empty((B, p + R - 1, p + R - 1))
    missing[:, :p, :p] = coef.reshape(B, Q, Q, J1, J1).transpose(
        0, 1, 3, 2, 4).reshape(B, p, p)
    cross = np.einsum("krq,brskj->bqjs", design.X, E[:, :, :-1]).reshape(B, p, -1)
    missing[:, :p, p:] = cross
    missing[:, p:, :p] = cross.swapaxes(1, 2)
    missing[:, p:, p:] = A[:, :-1, :-1, :, 0].sum(axis=-1)
    return missing


def posterior_weights(params: Parameters, design: Design) -> np.ndarray:
    """Posterior class probabilities at the observed cells, shaped (nnz, R)."""
    logp = design.enumeration.log_normalizer(
        design.block_effects(params.coefficients))[2]
    return _mixture(logp, np.log(params.mixing)[:, None])[1].T.copy()


def mixture_loglik(
    params: Parameters, design: Design, data: AggregatedData
) -> tuple[float, float]:
    """Observed-data log-likelihood and saturated-relative deviance.

    With one class this is the plain fixed-effects multinomial pattern
    likelihood. The deviance matches the residual deviance of the
    equivalent Poisson log-linear fit, so differences between models are
    likelihood-ratio statistics.
    """
    design.check_data(data)
    logp = design.enumeration.log_normalizer(
        design.block_effects(params.coefficients))[2]
    loglik = float(_mixture(logp, np.log(params.mixing)[:, None])[0]
                   @ design.cell_counts)
    return loglik, 2.0 * (design.saturated_loglik - loglik)


def mixture_score(
    params: Parameters, design: Design, data: AggregatedData
) -> np.ndarray:
    """Analytic gradient of the mixture log-likelihood.

    Returns the score over (structural coefficients, free log-mass
    parameters), where the mass parameterization is q_r = softmax with the
    last class pinned at 0. The coefficient block is the posterior-weighted
    multinomial score, X' (t - m_plus E[s]) summed over (set, class)
    blocks; the mass block is N * (posterior share - q).
    """
    design.check_data(data)
    return _information(params, design)[0]


def count_parameters(design: Design, count_masses: bool = False) -> int:
    """Parameter count for BIC.

    Free structural coefficients (including class offsets) plus one
    nuisance total per covariate set. Mixing weights are excluded by
    default; ``count_masses`` adds R - 1 for them.
    """
    p = design.n_coefficients + design.n_sets
    if count_masses:
        p += design.n_classes - 1
    return p


def bic(minus_two_loglik: float, n_params: int, n_cells: int) -> float:
    """Bayesian information criterion with the pattern-by-set cell count."""
    if n_cells <= 0:
        raise ValueError("n_cells must be positive")
    return float(minus_two_loglik + n_params * np.log(n_cells))
