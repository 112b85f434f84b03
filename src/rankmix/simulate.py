"""Synthetic ranking data with known generating parameters.

A truth document declares per-class worth vectors, mixing probabilities,
and optional covariates with per-level (or per-unit for continuous)
effects on the item scale. Sampling draws, per respondent, a covariate
combination, a latent class, then a whole ranking pattern from the exact
pattern distribution implied by the item effects. The generating
parameters are kept alongside the data so recovery tests can compare the
fit against the truth.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .data import DataError
from .model import _logsumexp, worths
from .rankings import PatternSpace, enumerate_transitive_patterns


@dataclass(frozen=True)
class ClassTruth:
    prob: float
    worths: tuple[float, ...]


@dataclass(frozen=True)
class CovariateTruth:
    """A generating covariate: either a factor or a discrete continuous mix.

    Factor effects map non-reference levels to per-item additive effects;
    continuous covariates carry per-item slopes applied to the raw value.
    Effects are normalized so the last (reference) item's entry is zero.
    """

    name: str
    kind: str  # "factor" or "continuous"
    values: tuple  # level labels, or numeric support points
    probs: tuple[float, ...]
    effects: dict = field(default_factory=dict)  # level -> per-item tuple
    slopes: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("factor", "continuous"):
            raise DataError(f"covariate {self.name!r}: unknown kind {self.kind!r}")
        if len(self.values) != len(self.probs):
            raise DataError(f"covariate {self.name!r}: values and probs differ")
        if abs(sum(self.probs) - 1.0) > 1e-8:
            raise DataError(f"covariate {self.name!r}: probs must sum to 1")


@dataclass(frozen=True)
class SyntheticTruth:
    item_labels: tuple[str, ...]
    classes: tuple[ClassTruth, ...]
    covariates: tuple[CovariateTruth, ...] = ()
    n: int = 0
    seed: int = 0

    def __post_init__(self):
        J = len(self.item_labels)
        if J < 2:
            raise DataError("need at least two items")
        for name in ("n", "seed"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
                    or value < 0):
                raise DataError(f"{name} must be an integer >= 0, got {value!r}")
        if not self.classes:
            raise DataError("need at least one class")
        if abs(sum(c.prob for c in self.classes) - 1.0) > 1e-8:
            raise DataError("class probabilities must sum to 1")
        for c in self.classes:
            if len(c.worths) != J or any(w <= 0 for w in c.worths):
                raise DataError("each class needs J positive worths")
        for cov in self.covariates:
            if cov.kind == "factor":
                for lev, eff in cov.effects.items():
                    if lev not in cov.values:
                        raise DataError(
                            f"covariate {cov.name!r}: effect for undeclared level {lev!r}"
                        )
                    if len(eff) != J:
                        raise DataError(
                            f"covariate {cov.name!r}: effect for {lev!r} needs J entries"
                        )
            elif cov.slopes is not None and len(cov.slopes) != J:
                raise DataError(f"covariate {cov.name!r}: slopes need J entries")

    @property
    def n_items(self) -> int:
        return len(self.item_labels)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def class_effect_matrix(truth: SyntheticTruth) -> tuple[np.ndarray, np.ndarray]:
    """Baseline item effects and per-class offsets implied by the worths.

    Returns (lam, offsets) where lam is the reference-class item effect
    vector (last item zero) and offsets is (J, R) with the last class and
    last item zero, so exp(2 (lam + offsets[:, r])) renormalizes to each
    class's worth vector.
    """
    J, R = truth.n_items, truth.n_classes
    half_log = np.empty((J, R))
    for r, cls in enumerate(truth.classes):
        w = np.asarray(cls.worths, dtype=np.float64)
        w = w / w.sum()
        half_log[:, r] = 0.5 * (np.log(w) - np.log(w[-1]))
    lam = half_log[:, R - 1]
    offsets = half_log - lam[:, None]
    return lam, offsets


def _normalized_effect(values, J) -> np.ndarray:
    eff = np.asarray(values, dtype=np.float64)
    return eff - eff[J - 1]


def covariate_combinations(truth: SyntheticTruth):
    """All covariate value combinations with their probabilities."""
    if not truth.covariates:
        return [((), 1.0)]
    pools = [list(zip(c.values, c.probs)) for c in truth.covariates]
    combos = []
    for picks in itertools.product(*pools):
        values = tuple(v for v, _ in picks)
        prob = float(np.prod([p for _, p in picks]))
        combos.append((values, prob))
    return combos


def item_effects_for(truth: SyntheticTruth, values, cls: int) -> np.ndarray:
    """Item effect vector for one covariate combination and class."""
    lam, offsets = class_effect_matrix(truth)
    a = lam + offsets[:, cls]
    for cov, value in zip(truth.covariates, values):
        if cov.kind == "factor":
            if value in cov.effects:
                a = a + _normalized_effect(cov.effects[value], truth.n_items)
        else:
            if cov.slopes is not None:
                a = a + float(value) * _normalized_effect(cov.slopes, truth.n_items)
    return a


def worth_map(truth: SyntheticTruth) -> list[dict]:
    """Per-(combination, class) worth vectors; each sums to one."""
    out = []
    for values, prob in covariate_combinations(truth):
        for r in range(truth.n_classes):
            out.append(
                {
                    "values": values,
                    "prob": prob,
                    "class": r + 1,
                    "worths": worths(item_effects_for(truth, values, r)).tolist(),
                }
            )
    return out


def generate_rows(truth: SyntheticTruth, space: PatternSpace | None = None):
    """Draw respondent rows: (rank vector, covariate dict) per respondent.

    Sampling is seeded by the truth and reproducible. Patterns are drawn
    from the exact normalized pattern distribution of each (combination,
    class) cell.
    """
    space = space or enumerate_transitive_patterns(truth.n_items)
    rng = np.random.default_rng(truth.seed)
    combos = covariate_combinations(truth)
    combo_probs = np.array([p for _, p in combos])
    class_probs = np.array([c.prob for c in truth.classes])

    n = truth.n
    if n == 0:
        return []
    combo_idx = rng.choice(len(combos), size=n, p=combo_probs)
    class_idx = rng.choice(truth.n_classes, size=n, p=class_probs)

    # exact pattern distributions per (combo, class)
    pattern_probs = {}
    for g, (values, _) in enumerate(combos):
        for r in range(truth.n_classes):
            eta = space.score_matrix() @ item_effects_for(truth, values, r)
            pattern_probs[(g, r)] = np.exp(eta - _logsumexp(eta, axis=0))

    pattern_idx = np.empty(n, dtype=np.int64)
    for (g, r), probs in sorted(pattern_probs.items()):
        mask = (combo_idx == g) & (class_idx == r)
        count = int(mask.sum())
        if count:
            pattern_idx[mask] = rng.choice(space.size, size=count, p=probs)

    names = [c.name for c in truth.covariates]
    rows = []
    for i in range(n):
        values = combos[combo_idx[i]][0]
        covs = dict(zip(names, values))
        rows.append((space.rankings[pattern_idx[i]].copy(), covs))
    return rows


def match_class_order(true_worths: np.ndarray, fitted_worths: np.ndarray):
    """Permutation aligning fitted classes to true classes.

    Inputs are (R, n_profiles * J) stacked worth profiles; the cost is the
    mean total-variation distance between profiles and the assignment
    minimizes total cost, found by one search over all R! orders, so R
    may be at most 8 (``ValueError`` otherwise). Returns perm with fitted
    class perm[r] matching true class r.
    """
    true_worths = np.asarray(true_worths, dtype=np.float64)
    fitted_worths = np.asarray(fitted_worths, dtype=np.float64)
    R = true_worths.shape[0]
    if R > 8:
        raise ValueError(f"cannot match {R} classes: at most 8")
    cost = 0.5 * np.abs(true_worths[:, None] - fitted_worths[None]).sum(axis=-1)
    perms = np.array(list(itertools.permutations(range(R))), dtype=np.int64)
    return perms[np.argmin(cost[np.arange(R), perms].sum(axis=1))]
