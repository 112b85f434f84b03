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
(offset 0). In matrix form a_kr = x_k B_x + o_r = X_kr B over the
non-reference items: row k of the covariate matrix x holds set k's
intercept, continuous and factor columns, B one row of item coefficients
per column of x and then the class offsets o_r, o_R = 0, and the block
row X_kr = [x_k, e_r], e_R = 0, is never formed. Class r carries mixing
weight q_r; the observed-data likelihood multiplies sum_r q_r P_lkr over
cells to the power n_lk. ``Design`` refuses, once, a covariate set with
no respondents and each column of x that adds no rank to the columns
before it: with every Cov_kr[s] positive definite, the information
sum_kr m_kr (X_kr X_kr') (x) Cov_kr[s] is singular exactly when the
block rows fail to span the columns (Fienberg & Rinaldo 2012, Ann.
Statist. 40:996), which a class column never does.

The fit works on the observed cells, the (set, pattern) pairs with a
nonzero count, which ``AggregatedData`` stores sorted by (set, pattern)
and ``Design`` takes as they are. At a cell,
log P_lkr = s_l . a_kr - log Z_kr, so the J! pattern space enters only
through each (set, class) block's log-normalizer log Z_kr and its score
moments. One class, ``_Enumeration`` (``Design.enumeration``), enumerates
the patterns and holds every array over them, and its one kernel,
``moments``, gives every block's log Z, E[s] and Cov[s] and log P at the
observed cells from one pass over the patterns: chunk by chunk of block
rows, one product with the score matrix, one ``exp`` and one product
with its moment table; no array over the patterns outlives the call.
``uniform`` gives the same at zero effects, in closed form. ``Design``
keeps the rest: the covariate rows x and the coefficients, and the
observed cells with their counts, their rows [1 | s | s_i s_j] and each
set's run of cells, from which ``block_totals`` and the missing
information read the observed score totals. Inside the fit, log P,
posterior weights and expected counts are class-major (R, nnz) arrays, columns in
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
class) sums over each set's run of cells. Both informations are sums of
(X_kr X_kr') (x) weights, which ``_factored_information`` forms from
the nonzero blocks of X_kr X_kr'' alone. It works on theta =
(coefficients, log(q_r / q_R)), ``Parameters.theta``; the damped Newton
refits read it over a stack, and the raw and Hessian SEs and
``mixture_score`` read it for one chain (``_information``).

The kernels of the fit (``block_effects``, ``moments``, ``set_sums``,
``block_totals``) also take a leading stack of chains: coefficients
(B, P) give item effects (B, K, R, J), cell arrays are (B, R, nnz), and
so on, so that several EM chains of one design advance with one call per
kernel.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import AggregatedData, DataError


class FitError(RuntimeError):
    """Estimation failed in a way that invalidates the result."""


class RankDeficientDesignError(FitError):
    """The structural design has aliased columns."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(
            "design is rank deficient; aliased columns: " + ", ".join(self.columns)
        )


# Chains of one design advance as one stack while their cell arrays,
# B x R x nnz doubles, stay within this many entries (8 MB); their block
# arrays, B x K x R x (J-1)^2, are at most (J-1)^2 times that, as each set
# has a cell. A design whose cells alone exceed it runs one chain at a
# time. The missing information's temporaries keep within it too.
_STACK_ENTRIES = 1_000_000
# The moment kernel walks the block rows in chunks of at most this many
# pattern weights (220 KB): on a 2-vCPU Xeon with 2 MB L2 per core, 38-row
# chunks of 720 patterns ran in 0.72 of the two-pass time, one chunk in 0.84.
_CHUNK_ENTRIES = 28_000


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
    """[1 | s | s_i s_j for i <= j < J] per score row s, (n, J): one column
    per pair, as a product costs by its columns, and zero columns to a
    multiple of 8, with which BLAS gives a row of a product the same bits
    wherever it sits (with 11, say, it does not)."""
    i, j = np.triu_indices(s.shape[1] - 1)
    rows = np.hstack([np.ones((len(s), 1)), s, s[:, i] * s[:, j]])
    return np.pad(rows, ((0, 0), (0, -rows.shape[1] % 8)))


class _Enumeration:
    """The J! pattern space of a count table, enumerated for R classes.

    It holds every array with one entry per pattern: [S'; 1] over the
    patterns' net-win scores S (L, J), the moment table [1 | s | s_i s_j]
    (:func:`_moment_rows`), and the places of the observed cells among a
    chain's pattern weights. Its :meth:`moments` is the only computation of
    the fit that visits every pattern; :meth:`uniform` gives the same at zero
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
        # the moment table, and its column of each (i, j) of a flattened
        # (J-1, J-1) matrix
        self._moment_table = _moment_rows(scores)
        upper = np.triu_indices(J - 1)
        pairs = np.empty((J - 1, J - 1), dtype=np.intp)
        pairs[upper] = pairs.T[upper] = J + 1 + np.arange(upper[0].size)
        self._pair_columns = pairs.ravel()
        # per class and observed cell, class-major (R, nnz): the cell's block
        # row among a chain's K * R rows
        self._cell_blocks = data.cell_set * n_classes + np.arange(n_classes)[:, None]
        # A chain's K * R block rows are cut into parts within _CHUNK_ENTRIES
        # (a last part of one row joins the one before), the same whatever
        # its stack; a chunk is a part of one chain, or as many whole chains
        # as keep within it. Per part: its rows, the cells in them (flat
        # class-major indices; a slice, which writes without an index, when a
        # chain is one part) and their entries in its (rows, L) weights.
        blocks = data.n_sets * n_classes
        step = max(2, _CHUNK_ENTRIES // L)
        cuts = [*range(0, max(blocks - 1, 1), step), blocks]
        cell_blocks = self._cell_blocks.ravel()
        entries = cell_blocks * L + np.tile(data.cell_pattern, n_classes)
        self._parts = [(0, blocks, slice(None), entries)] if len(cuts) == 2 else [
            (lo, hi, cells, entries[cells] - lo * L)
            for lo, hi in zip(cuts, cuts[1:])
            for cells in [np.flatnonzero((cell_blocks >= lo) & (cell_blocks < hi))]]
        self._chains_per_chunk = max(1, step // blocks)
        self._chunk_rows = max(2, self._chains_per_chunk * max(np.diff(cuts)))

    def moments(self, a: np.ndarray):
        """log Z, E[s] and Cov[s] per block, and log P at the cells, from one pass.

        ``a`` holds the item effects (..., K, R, J). Returns log Z
        (..., K, R), with Z_kr = sum_l exp(s_l . a_kr); E[s] (..., K, R, J);
        Cov[s] over the non-reference items, one flattened row per block,
        (..., K, R, (J-1)^2); and log P = s_l . a_kr - log Z_kr at the
        observed cells, class-major, (..., R, nnz). The blocks of all chains
        are rows [a_kr, -shift_kr], the shift being the largest s_l . a_kr,
        the sorted effects times the sorted scores. Per chunk of rows, one
        product with [S'; 1] gives s_l . a_kr - shift_kr, the cells' log P is
        gathered from it before an ``exp`` in place (so it stays exact where
        the weights underflow), and one product of the weights with the
        moment table gives each block's total (its first column) and
        moments. A chunk of one row takes a spare row of zeros, so that every
        row goes through the same matrix kernel whatever the stack.
        """
        lead, (K, R, J) = a.shape[:-3], a.shape[-3:]
        n, L = a.size // J, self._shifted_scores.shape[1]
        rows = np.zeros((n + 1, J + 1))
        rows[:n, :J] = a.reshape(-1, J)
        shift = np.sort(rows[:, :J], axis=1) @ self._score_ramp
        rows[:, J] = -shift
        chains, step = n // (K * R), self._chains_per_chunk
        logp = np.empty((chains, self._cell_blocks.size))
        sums = np.empty((n + 1, self._moment_table.shape[1]))
        chunk = np.empty((min(self._chunk_rows, n + 1), L))
        for b in range(0, chains, step):
            c = min(chains - b, step)
            for first, last, cells, entries in self._parts:
                lo = b * K * R + first
                hi = max((b + c - 1) * K * R + last, lo + 2)
                w = np.matmul(rows[lo:hi], self._shifted_scores, out=chunk[:hi - lo])
                logp[b:b + c, cells] = np.take(w.reshape(c, -1), entries, axis=1)
                np.exp(w, out=w)
                np.matmul(w, self._moment_table, out=sums[lo:hi])
        sums = sums[:n]
        log_total = np.log(sums[:, 0])
        sums /= sums[:, :1]
        free = sums[:, 1:J, None]
        cov = sums[:, self._pair_columns] - (free * free.swapaxes(1, 2)).reshape(n, -1)
        logp = logp.reshape(lead + self._cell_blocks.shape)
        logp -= np.take(log_total.reshape(lead + (K * R,)), self._cell_blocks, axis=-1)
        return ((log_total + shift[:n]).reshape(lead + (K, R)),
                sums[:, 1:J + 1].reshape(lead + (K, R, J)),
                cov.reshape(lead + (K, R, -1)), logp)

    def uniform(self, n: int):
        """:meth:`moments` of n chains at zero effects, the uniform model.

        Each of the J! patterns has probability 1 / J!, so log Z = log J! and
        log P = -log J!. E[s] = 0, as each item's net wins run uniformly over
        1 - J, 3 - J, ..., J - 1, whose variance is (J^2 - 1) / 3; the scores
        sum to zero, so Cov[s]_ij = (J + 1) / 3 (J delta_ij - 1).
        """
        J = self._score_ramp.size
        log_z = math.log(math.factorial(J))
        cov = (J + 1) / 3.0 * (J * np.eye(J - 1) - 1.0)
        return (np.full((n,) + self._blocks, log_z),
                np.zeros((n,) + self._blocks + (J,)),
                np.broadcast_to(cov.ravel(), (n,) + self._blocks + (cov.size,)),
                np.full((n,) + self._cell_blocks.shape, -log_z))


class Design:
    """Resolved design linking a ModelSpec to an aggregated data set.

    The item effects of each (covariate set k, class r) block are
    a_kr = x_k B_x + o_r, with the reference item's effect fixed at 0.
    ``x`` is the (K, Q_c) covariate matrix, Q_c = ``n_covariate_columns``:
    the intercept, each continuous term's standardized values, each factor
    or interaction level's indicator. B is the (Q_c + R - 1, J - 1)
    coefficient matrix: its first Q_c rows are B_x, its last R - 1 the
    class offsets o_r, o_R = 0, so a_kr = X_kr B for the block row
    X_kr = [x_k, e_r]. The coefficient vector is B in row-major order
    (design column outer, item inner).

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
        K, R, J = data.n_sets, spec.n_classes, spec.n_items
        self.cell_set, self.cell_pattern = data.cell_set, data.cell_pattern
        self.cell_counts = data.cell_counts.astype(np.float64)
        self.n_respondents = self.cell_counts.sum()
        # each set's cells (positive counts, sorted by set) are one contiguous run
        runs = np.bincount(self.cell_set, minlength=K)
        if not runs.all():
            raise DataError("covariate sets with no respondents: "
                            f"{np.flatnonzero(runs == 0).tolist()}")
        self._set_starts = np.cumsum(runs) - runs
        self.enumeration = _Enumeration(data, R)
        # [1 | s | s_i s_j] per cell, from the cells' own rankings
        self._cell_moments = _moment_rows(
            (J + 1 - 2 * data.space.rankings[self.cell_pattern]).astype(np.float64))
        self.coefficients: list[Coefficient] = []
        columns: list[np.ndarray] = []  # the columns of x, each (K,)

        def add_column(values: np.ndarray | None, kind: str, suffix: str, **fields):
            columns.append(values)
            self.coefficients.extend(
                Coefficient(name=label + suffix, kind=kind, item=j, **fields)
                for j, label in enumerate(spec.item_labels[:-1])
            )

        factor_names = data.covariate_names("factor")
        cont_names = data.covariate_names("continuous")

        add_column(np.ones(K), "item", "")
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
                add_column(data.standardized_continuous(parts[0]), "continuous",
                           f":{parts[0]}", term=term)
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
                    add_column(mask, "factor", f":{label}", term=term, levels=combo)
            else:
                raise DataError(
                    f"term {term!r}: interactions may only combine factors"
                )
        self.x = np.column_stack(columns)
        self.n_covariate_columns = len(columns)
        # No class column is aliased: a combination of the columns of X_kr =
        # [x_k, e_r] that is 0 on every row has its x part 0 at r = R, e_R = 0.
        if aliased := _aliased_columns(self.x):
            raise RankDeficientDesignError(
                c.name for j in aliased
                for c in self.coefficients[j * (J - 1):(j + 1) * (J - 1)])
        for r in range(R - 1):  # the class offsets, B's last R - 1 rows
            add_column(None, "class", f":class{r + 1}", class_index=r)
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

    def coefficient_matrix(self, coefficients: np.ndarray) -> np.ndarray:
        """The coefficient vector as B, one row per column of x, then one per
        class offset, (..., Q_c + R - 1, J - 1)."""
        coefficients = np.asarray(coefficients)
        return coefficients.reshape(coefficients.shape[:-1] + (-1, self.n_items - 1))

    def block_effects(self, coefficients: np.ndarray) -> np.ndarray:
        """Item effects a_kr = x_k B_x + o_r per block, o_R = 0, shaped (..., K, R, J)."""
        B = self.coefficient_matrix(coefficients)
        Q = self.n_covariate_columns
        a = np.zeros(B.shape[:-2] + (self.n_sets, self.n_classes, self.n_items))
        a[..., :-1] = (self.x @ B[..., :Q, :])[..., None, :]
        a[..., :-1, :-1] += B[..., None, Q:, :]
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
        return np.add.reduceat(x, self._set_starts, axis=axis)

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
        n = self.cell_counts
        return float(n @ np.log(n / self.set_sums(n)[self.cell_set]))

    def check_data(self, data: AggregatedData):
        """Raise unless ``data`` holds the count table the design was built on."""
        if data is not self.data and not (
                (data.n_sets, data.space.size) == (self.n_sets, self.data.space.size)
                and all(np.array_equal(getattr(data, a), getattr(self.data, a))
                        for a in ("cell_set", "cell_pattern", "cell_counts"))):
            raise DataError("data do not match the count table of the design")

    def class_offsets(self, coefficients: np.ndarray) -> np.ndarray:
        """Offset matrix (..., J, R); reference item row and reference class column are 0.

        Any per-coefficient vector (estimates, standard errors), or a stack
        of them, maps this way: the class rows of its coefficient matrix,
        transposed.
        """
        B = self.coefficient_matrix(coefficients)
        out = np.zeros(B.shape[:-2] + (self.n_items, self.n_classes))
        out[..., :-1, :-1] = B[..., self.n_covariate_columns:, :].swapaxes(-1, -2)
        return out


def _aliased_columns(X: np.ndarray) -> list[int]:
    """The columns of ``X`` (n, Q) that add no rank to the columns before them.

    One Gram-Schmidt pass, a QR factorization that skips those columns:
    column j is aliased when its part orthogonal to the columns kept before
    it is at most sqrt(eps) of its norm, where X'X is singular in working
    precision. Each projection is taken twice, to keep the basis orthogonal.
    """
    basis, aliased = np.empty((len(X), 0)), []
    for j, x in enumerate(X.T):
        r = x - basis @ (basis.T @ x)
        r -= basis @ (basis.T @ r)
        if r @ r <= np.finfo(float).eps * (x @ x):
            aliased.append(j)
        else:
            basis = np.column_stack([basis, r / np.sqrt(r @ r)])
    return aliased


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
    :meth:`_Enumeration.moments` gives it; it is overwritten by the
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


def _coefficient_score(x: np.ndarray, t: np.ndarray, m_plus: np.ndarray,
                       mean: np.ndarray) -> np.ndarray:
    """Score over all coefficients: sum_kr X_kr' (t_kr - m_plus_kr E_kr[s]).

    As X_kr = [x_k, e_r], the rows of x take the sum over the classes, and
    each class offset the sum over the sets of its class. The (Q, J - 1)
    result of each chain is returned flat in coefficient order, (..., P).
    """
    resid = (t - m_plus[..., None] * mean)[..., :-1]  # (..., K, R, J - 1)
    score = np.concatenate([x.T @ resid.sum(axis=-2),
                            resid[..., :-1, :].sum(axis=-3)], axis=-2)
    return score.reshape(score.shape[:-2] + (-1,))


def _factored_information(x: np.ndarray, both: np.ndarray, column: np.ndarray,
                          classes: np.ndarray) -> np.ndarray:
    """sum_krr' (X_kr X_kr'') (x) G_krr' over the coefficients, (B, P, P).

    X_kr = [x_k, e_r] is block (k, r)'s design row, e_R = 0, and G_krr' a
    (J-1, J-1) weight, given summed over the class pair wherever the rows
    do not depend on it: ``both`` (B, K, (J-1)^2) over r and r' for the
    x x' block; ``column`` (B, K, R - 1, (J-1)^2) over r for the x e_r''
    block and its transpose; ``classes`` (B, R - 1, R - 1, (J-1)^2) over
    the sets for the e_r e_r'' block.
    """
    (B, K, R1, JJ), Q = column.shape, x.shape[1]
    J1 = math.isqrt(JJ)
    info = np.empty((B, Q + R1, J1, Q + R1, J1))  # (row c, i, column d, j)
    xx = (x[:, :, None] * x[:, None, :]).reshape(K, -1)
    info[:, :Q, :, :Q] = (xx.T @ both).reshape(B, Q, Q, J1, J1).swapaxes(2, 3)
    info[:, :Q, :, Q:] = (x.T @ column.reshape(B, K, -1)).reshape(
        B, Q, R1, J1, J1).swapaxes(2, 3)
    info[:, Q:, :, :Q] = info[:, :Q, :, Q:].transpose(0, 3, 4, 1, 2)
    info[:, Q:, :, Q:] = classes.reshape(B, R1, R1, J1, J1).swapaxes(2, 3)
    return info.reshape(B, (Q + R1) * J1, -1)


def _structural_information(cov: np.ndarray, m_plus: np.ndarray, design: Design):
    """The information (B, P, P) over the coefficients of B chains.

    ``cov`` holds the block covariances as :meth:`_Enumeration.moments`
    returns them and ``m_plus`` the block totals (B, K, R). The information
    is sum_kr (X_kr X_kr') (x) m_plus[k, r] Cov_kr[s] over the non-reference
    items, whose class block is block-diagonal (:func:`_factored_information`).
    """
    W = m_plus[..., None] * cov  # (B, K, R, (J-1)^2)
    B, _, R, JJ = W.shape
    classes = np.zeros((B, (R - 1) ** 2, JJ))
    classes[:, ::R] = W[:, :, :-1].sum(axis=1)  # the diagonal (r, r)
    return _factored_information(design.x, W.sum(axis=2), W[:, :, :-1], classes)


def _unpack_theta(theta: np.ndarray, design: Design):
    """Coefficients (B, P) and log masses (B, R) of a stack of ``theta`` (B, P + R - 1).

    The log masses are the log-softmax of (log-ratios, 0), so a log-ratio
    of any size gives finite log masses, and no mass is taken a log of.
    """
    p = design.n_coefficients
    ratios = np.concatenate([theta[:, p:], np.zeros((len(theta), 1))], axis=1)
    return theta[:, :p], ratios - _logsumexp(ratios, axis=1)


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
    informations are over theta = (coefficients, design column outer and item
    inner, then the R - 1 mass log-ratios log(q_r / q_R)), shaped (B, D) and
    (B, D, D) with D = P + R - 1, all from one :meth:`_Enumeration.moments`
    call: its log P gives the posterior weights w and the log-likelihood (one
    dot product per chain, which rounds as it does for the chain alone), its
    Cov[s] the structural information at the expected counts m = n w, to which the
    complete-data information adds the mass block N (diag(q~) - q~ q~'), q~
    the first R - 1 masses. The score is the posterior mean of the
    complete-data score (Fisher's identity), and the observed information
    (Louis's identity) the complete-data information minus
    :func:`_missing_information`. The score totals and the missing
    information are formed for groups of chains whose temporaries keep within
    ``_STACK_ENTRIES`` entries; a chain whose own exceed it goes alone.
    """
    B, p = coefficients.shape
    R = design.n_classes
    n = design.cell_counts
    _, mean, cov, logp = design.enumeration.moments(
        design.block_effects(coefficients))
    log_mixture, w = _mixture(logp, log_mixing[:, :, None])
    m = w * n
    m_plus = design.set_sums(m, axis=-1).swapaxes(1, 2)  # (B, K, R)
    structural = _structural_information(cov, m_plus, design)
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
        score[chains, :p] = _coefficient_score(design.x, t, m_plus[chains],
                                               mean[chains])
        if R > 1:
            observed[chains] -= _missing_information(w[chains], mean[chains],
                                                     design)
    return ((log_mixture[:, None] @ n[:, None])[:, 0, 0], score, complete,
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
    sum_krr' (X_kr X_kr') (x) D_krr', D_krr' = sum C_rr' d_r d_r'
    (:func:`_factored_information`), the coefficient-mass block
    sum_kr X_kr (x) sum C_rr' d_r in column r', whose rows of x take the sum
    over r and whose class rows their own r, and the mass block sum C_rr'
    over r, r' < R. The rows and the columns of C sum to zero, so only the
    sums over r, r' < R are formed, and the reference class's follow from
    them.
    """
    B, R, _ = w.shape
    K, Q = design.x.shape
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
    D = (A[..., design.enumeration._pair_columns].reshape(E.shape + (J1,))
         - mu[:, :, None, :, :, None] * A[..., None, 1:J1 + 1]
         - E[..., :, None] * mu[:, None, :, :, None, :]).reshape(B, R, R, K, -1)
    missing = np.empty((B, p + R - 1, p + R - 1))
    missing[:, :p, :p] = _factored_information(
        design.x, D.sum(axis=(1, 2)), D[:, :, :-1].sum(axis=1).swapaxes(1, 2),
        D[:, :-1, :-1].sum(axis=3))
    E = E[:, :, :-1].transpose(0, 3, 1, 4, 2)  # (B, K, R, J1, R - 1)
    missing[:, :Q * J1, p:] = (design.x.T @ E.sum(axis=2).reshape(B, K, -1)).reshape(
        B, Q * J1, R - 1)
    missing[:, Q * J1:p, p:] = E[:, :, :-1].sum(axis=1).reshape(B, -1, R - 1)
    missing[:, p:, :p] = missing[:, :p, p:].swapaxes(1, 2)
    missing[:, p:, p:] = A[:, :-1, :-1, :, 0].sum(axis=-1)
    return missing


def posterior_weights(params: Parameters, design: Design) -> np.ndarray:
    """Posterior class probabilities at the observed cells, shaped (nnz, R)."""
    logp = design.enumeration.moments(design.block_effects(params.coefficients))[3]
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
    logp = design.enumeration.moments(design.block_effects(params.coefficients))[3]
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
