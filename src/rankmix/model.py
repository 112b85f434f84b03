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
(offset 0). Class r carries mixing weight q_r; the observed-data
likelihood multiplies sum_r q_r P_lkr over cells to the power n_lk.

The fit works on the observed cells, the (set, pattern) pairs with a
nonzero count, which ``Design`` lists once, sorted by set. At a cell,
log P_lkr = s_l . a_kr - log Z_kr, so the J! pattern space enters only
through each (set, class) block's log-normalizer log Z_kr and its score
moments, and ``Design.log_normalizer`` is the one kernel that enumerates
it. The dense (K, L, R) functions (``log_pattern_probs``,
``posterior_weights``) serve callers that want every cell.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .data import AggregatedData, DataError


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


class Design:
    """Resolved design linking a ModelSpec to an aggregated data set.

    Builds the coefficient list, the (J, K, R, p) tensor mapping the
    coefficient vector to per-(item, covariate set, class) effects, the
    per-pattern table of net-win score products, and the observed-cell
    layout: the set, pattern, count and score row of every cell with a
    nonzero count, sorted by set.
    """

    def __init__(self, spec: ModelSpec, data: AggregatedData):
        if spec.n_items != data.space.n_items:
            raise DataError(
                f"model has {spec.n_items} items but data has {data.space.n_items}"
            )
        self.spec = spec
        self.data = data
        self.S = data.space.score_matrix()  # (L, J)
        # s_li * s_lj per pattern, (L, J * J): one product with the pattern
        # probabilities gives every block's second score moments
        self.score_products = (self.S[:, :, None] * self.S[:, None, :]).reshape(
            self.S.shape[0], -1
        )
        # np.nonzero walks the table row by row, so the cells come sorted
        # by set and each set's cells are one contiguous run
        self.cell_set, self.cell_pattern = np.nonzero(data.counts)
        self.cell_counts = data.counts[self.cell_set, self.cell_pattern].astype(
            np.float64
        )
        self.cell_scores = self.S[self.cell_pattern]  # (nnz, J)
        self._observed_sets, self._set_starts = np.unique(
            self.cell_set, return_index=True
        )
        self.coefficients: list[Coefficient] = []
        J, K, R = spec.n_items, data.n_sets, spec.n_classes
        blocks: list[np.ndarray] = []

        factor_names = [d.name for d in data.declarations if d.kind == "factor"]
        cont_names = [d.name for d in data.declarations if d.kind == "continuous"]

        def item_block(set_profile: np.ndarray, class_profile: np.ndarray, item: int):
            b = np.zeros((J, K, R))
            b[item] = np.outer(set_profile, class_profile)
            return b

        ones_k = np.ones(K)
        ones_r = np.ones(R)
        for j in range(J - 1):
            self.coefficients.append(
                Coefficient(name=spec.item_labels[j], kind="item", item=j)
            )
            blocks.append(item_block(ones_k, ones_r, j))

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
                for j in range(J - 1):
                    self.coefficients.append(
                        Coefficient(
                            name=f"{spec.item_labels[j]}:{parts[0]}",
                            kind="continuous",
                            item=j,
                            term=term,
                        )
                    )
                    blocks.append(item_block(z, ones_r, j))
            elif all(k == "factor" for k in kinds):
                level_orders = [data.factor_level_order(p) for p in parts]
                positions = [factor_names.index(p) for p in parts]
                for combo in itertools.product(*(lo[1:] for lo in level_orders)):
                    mask = np.ones(K)
                    for pos, lev in zip(positions, combo):
                        mask *= np.array(
                            [1.0 if s.factor_levels[pos] == lev else 0.0
                             for s in data.covariate_sets]
                        )
                    label = ":".join(
                        f"{p}={lev}" for p, lev in zip(parts, combo)
                    )
                    for j in range(J - 1):
                        self.coefficients.append(
                            Coefficient(
                                name=f"{spec.item_labels[j]}:{label}",
                                kind="factor",
                                item=j,
                                term=term,
                                levels=combo,
                            )
                        )
                        blocks.append(item_block(mask, ones_r, j))
            else:
                raise DataError(
                    f"term {term!r}: interactions may only combine factors"
                )

        for r in range(R - 1):
            for j in range(J - 1):
                self.coefficients.append(
                    Coefficient(
                        name=f"{spec.item_labels[j]}:class{r + 1}",
                        kind="class",
                        item=j,
                        class_index=r,
                    )
                )
                blocks.append(item_block(ones_k, np.eye(R)[r], j))

        self.A = (
            np.stack(blocks, axis=-1)
            if blocks
            else np.zeros((J, K, R, 0))
        )
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

    def zero_parameters(self) -> Parameters:
        R = self.n_classes
        return Parameters(np.zeros(self.n_coefficients), np.full(R, 1.0 / R))

    def block_effects(self, coefficients: np.ndarray) -> np.ndarray:
        """Item effects per (covariate set, class) block, shaped (K, R, J)."""
        return np.einsum("jkrc,c->krj", self.A, coefficients)

    def item_effects(self, coefficients: np.ndarray) -> np.ndarray:
        """Per-(item, covariate set, class) effects a_ikr, reference rows 0."""
        return self.block_effects(coefficients).transpose(2, 0, 1)

    def eta(self, coefficients: np.ndarray) -> np.ndarray:
        """Linear predictors for all cells, shaped (K, L, R)."""
        a = self.item_effects(coefficients)
        return np.einsum("lj,jkr->klr", self.S, a)

    def linear_predictor(
        self, coefficients: np.ndarray, pattern: int, covariate_set: int, cls: int
    ) -> float:
        return float(self.eta(coefficients)[covariate_set, pattern, cls])

    def log_pattern_probs(self, coefficients: np.ndarray) -> np.ndarray:
        """log P_lkr, normalized over patterns within each (k, r); (K, L, R)."""
        e = self.eta(coefficients)
        e -= _logsumexp(e, axis=1)
        return e

    def log_normalizer(self, a: np.ndarray):
        """Per-block log-normalizers and pattern probabilities.

        ``a`` holds the item effects (K, R, J). Returns log Z (K, R), with
        Z_kr = sum_l exp(s_l . a_kr), and the pattern probabilities as one
        row of L patterns per block, (K * R, L), in (set, class) order.
        This is the only computation of the fit that visits every pattern.
        """
        K, R, J = a.shape
        p = a.reshape(K * R, J) @ self.S.T
        shift = p.max(axis=1, keepdims=True)
        p -= shift
        np.exp(p, out=p)
        z = p.sum(axis=1, keepdims=True)
        p /= z
        return (np.log(z) + shift).reshape(K, R), p

    def cell_log_probs(self, coefficients: np.ndarray):
        """log P at the observed cells, (nnz, R), and the block probabilities.

        The second value is the pattern-probability rows of
        :meth:`log_normalizer`.
        """
        a = self.block_effects(coefficients)
        log_z, p = self.log_normalizer(a)
        eta = np.einsum("nj,nrj->nr", self.cell_scores, a[self.cell_set])
        return eta - log_z[self.cell_set], p

    def score_means(self, p: np.ndarray) -> np.ndarray:
        """E[s] per block, (K, R, J), from the probability rows (K * R, L)."""
        return (p @ self.S).reshape(self.n_sets, self.n_classes, self.n_items)

    def cell_values(self, x) -> np.ndarray:
        """A per-cell, per-class array at the observed cells, shaped (nnz, R).

        A dense (K, L, R) array is gathered at the observed cells; entries
        at cells with a zero count are dropped. An (nnz, R) array passes
        through.
        """
        x = np.asarray(x, dtype=np.float64)
        dense = (self.n_sets, self.n_patterns, self.n_classes)
        if x.shape == dense:
            return x[self.cell_set, self.cell_pattern]
        if x.shape != (self.cell_set.size, self.n_classes):
            raise ValueError(
                f"cell array of shape {x.shape}: expected {dense} or "
                f"({self.cell_set.size}, {self.n_classes}) observed cells"
            )
        return x

    def set_sums(self, x: np.ndarray) -> np.ndarray:
        """Per-set sums of a cell array (nnz, ...), shaped (K, ...)."""
        out = np.zeros((self.n_sets,) + x.shape[1:])
        out[self._observed_sets] = np.add.reduceat(x, self._set_starts, axis=0)
        return out

    def block_totals(self, m: np.ndarray):
        """Block totals m_plus (K, R) and score totals t (K, R, J) of cell counts m.

        t[k, r] = sum over the set's cells of m[cell, r] * s_l.
        """
        m_plus = self.set_sums(m)
        t = self.set_sums(m[:, :, None] * self.cell_scores[:, None, :])
        return m_plus, t

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
        if data is not self.data and not np.array_equal(data.counts,
                                                        self.data.counts):
            raise DataError("data do not match the count table of the design")

    def pattern_probs(
        self, coefficients: np.ndarray, covariate_set: int, cls: int
    ) -> np.ndarray:
        return np.exp(self.log_pattern_probs(coefficients)[covariate_set, :, cls])

    def class_offsets(self, coefficients: np.ndarray) -> np.ndarray:
        """Offset matrix (J, R); reference item row and reference class column are 0."""
        out = np.zeros((self.n_items, self.n_classes))
        for idx, coef in enumerate(self.coefficients):
            if coef.kind == "class":
                out[coef.item, coef.class_index] = coefficients[idx]
        return out

    def structural_indices(self, kinds=("item", "factor", "continuous")) -> np.ndarray:
        return np.array(
            [i for i, c in enumerate(self.coefficients) if c.kind in kinds],
            dtype=np.int64,
        )


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


def _log_mixture(logp: np.ndarray, mixing: np.ndarray) -> np.ndarray:
    """log sum_r q_r P_r over the last (class) axis of ``logp``."""
    return _logsumexp(logp + np.log(mixing), axis=-1)[..., 0]


def _posteriors(logp: np.ndarray, mixing: np.ndarray) -> np.ndarray:
    """Posterior class probabilities over the last axis; overwrites ``logp``.

    A softmax in place: besides ``logp`` it allocates only arrays reduced
    over the class axis.
    """
    logp += np.log(mixing)
    logp -= logp.max(axis=-1, keepdims=True)
    np.exp(logp, out=logp)
    logp /= logp.sum(axis=-1, keepdims=True)
    return logp


def _observed_loglik(design: Design, logp: np.ndarray, mixing: np.ndarray):
    """Log-likelihood and deviance from log P at the observed cells (nnz, R)."""
    loglik = float(design.cell_counts @ _log_mixture(logp, mixing))
    return loglik, 2.0 * (design.saturated_loglik - loglik)


def _coefficient_score(A: np.ndarray, t: np.ndarray, m_plus: np.ndarray,
                       mean: np.ndarray) -> np.ndarray:
    """Score over the columns of ``A``: sum_kr A_kr' (t_kr - m_plus_kr E_kr[s])."""
    return np.einsum("krj,jkrc->c", t - m_plus[:, :, None] * mean, A)


def log_mixture_probs(params: Parameters, design: Design) -> np.ndarray:
    """log sum_r q_r P_lkr per cell, shaped (K, L)."""
    return _log_mixture(design.log_pattern_probs(params.coefficients), params.mixing)


def posterior_weights(params: Parameters, design: Design) -> np.ndarray:
    """Posterior class probabilities per cell, shaped (K, L, R)."""
    return _posteriors(design.log_pattern_probs(params.coefficients), params.mixing)


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
    logp, _ = design.cell_log_probs(params.coefficients)
    return _observed_loglik(design, logp, params.mixing)


def mixture_score(
    params: Parameters, design: Design, data: AggregatedData
) -> np.ndarray:
    """Analytic gradient of the mixture log-likelihood.

    Returns the score over (structural coefficients, free log-mass
    parameters), where the mass parameterization is q_r = softmax with the
    last class pinned at 0. The coefficient block is the posterior-weighted
    multinomial score, A' (t - m_plus E[s]) summed over (set, class)
    blocks; the mass block is N * (posterior share - q).
    """
    design.check_data(data)
    logp, p = design.cell_log_probs(params.coefficients)
    m = design.cell_counts[:, None] * _posteriors(logp, params.mixing)
    m_plus, t = design.block_totals(m)
    score_coef = _coefficient_score(design.A, t, m_plus, design.score_means(p))
    score_mass = m.sum(axis=0)[:-1] - design.cell_counts.sum() * params.mixing[:-1]
    return np.concatenate([score_coef, score_mass])


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
