"""Seeded input generators for the benchmark workloads.

The samplers live here, not in ``rankmix.simulate``, so that a change to
the package's simulator cannot silently change a workload. The grouped
sampler repeats the draw order of ``rankmix.simulate.generate_rows``, so
``desk_search`` is the criterion-6 acceptance test's replication 0 draw
for draw.

Each workload draws one frozen sample from its own fixed seed. The
``--seed`` of a run only permutes the respondent rows: the program then
reads a different row sequence (and, for the CLI workload, a different
CSV file), while the aggregated count table, and with it the EM path and
the fitted log-likelihood, stays the same. EM cost depends strongly on the sample
(3 086 to 4 198 iterations over criterion-6 replications 0 to 5), so a
seed that redrew the sample would swamp every run-to-run comparison.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np


def pattern_rankings(n_items: int) -> np.ndarray:
    """(J!, J) rank vectors in the package's canonical pattern order.

    Canonical order is lexicographic over order vectors; rank 1 is the
    most preferred item.
    """
    out = np.empty((math.factorial(n_items), n_items), dtype=np.int64)
    for l, order in enumerate(itertools.permutations(range(n_items))):
        out[l, list(order)] = np.arange(1, n_items + 1)
    return out


def _pattern_probs(rankings: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Exact pattern distribution for item effects ``effects`` (last axis J)."""
    n_items = rankings.shape[1]
    eta = effects @ (n_items + 1 - 2 * rankings).T.astype(np.float64)
    eta = eta - eta.max(axis=-1, keepdims=True)
    p = np.exp(eta)
    return p / p.sum(axis=-1, keepdims=True)


def _class_effects(class_worths) -> np.ndarray:
    """(R, J) item effects per class, the last item and class as reference.

    The arithmetic follows ``rankmix.simulate.item_effects_for`` step by
    step, so equal worths give equal bits.
    """
    half_log = []
    for worths in class_worths:
        w = np.asarray(worths, dtype=np.float64)
        w = w / w.sum()
        half_log.append(0.5 * (np.log(w) - np.log(w[-1])))
    half_log = np.array(half_log)
    lam = half_log[-1]
    return lam + (half_log - lam)


def sample_grouped(spec: dict, seed: int):
    """Rows from factor covariates and latent classes.

    ``spec`` holds ``items``, ``classes`` (list of (prob, worths)) and
    ``factors`` (list of (name, levels, probs, {level: per-item effect})).
    Returns (rank matrix (N, J), {factor name: level array}).
    """
    n_items = len(spec["items"])
    rng = np.random.default_rng(seed)
    rankings = pattern_rankings(n_items)
    factors = spec["factors"]
    pools = [list(zip(levels, probs)) for _, levels, probs, _ in factors]
    combos = [
        (tuple(v for v, _ in picks), float(np.prod([p for _, p in picks])))
        for picks in itertools.product(*pools)
    ] if factors else [((), 1.0)]
    class_probs = np.array([p for p, _ in spec["classes"]])
    base = _class_effects([w for _, w in spec["classes"]])

    n = spec["n"]
    combo_idx = rng.choice(len(combos), size=n, p=[p for _, p in combos])
    class_idx = rng.choice(len(class_probs), size=n, p=class_probs)
    pattern_idx = np.empty(n, dtype=np.int64)
    for g, (values, _) in enumerate(combos):
        for r in range(len(class_probs)):
            mask = (combo_idx == g) & (class_idx == r)
            count = int(mask.sum())
            if count:
                a = base[r]
                for (_, _, _, effects), value in zip(factors, values):
                    if value in effects:
                        eff = np.asarray(effects[value], dtype=np.float64)
                        a = a + (eff - eff[-1])
                probs = _pattern_probs(rankings, a)
                pattern_idx[mask] = rng.choice(rankings.shape[0], size=count, p=probs)

    levels = {
        name: np.array([combos[g][0][pos] for g in combo_idx])
        for pos, (name, _, _, _) in enumerate(factors)
    }
    return rankings[pattern_idx], levels


def sample_continuous(spec: dict, seed: int):
    """Fixed-effects rows with one continuous covariate, distinct per respondent.

    Values are the symmetric grid +-k/512, k = 1..N/2, shuffled over
    respondents. Their mean is exactly 0 and every partial sum is exact in
    float64, so the package's standardization gives the same bits in any
    row order. Returns (rank matrix (N, J), {covariate name: values}).
    """
    n_items = len(spec["items"])
    rng = np.random.default_rng(seed)
    rankings = pattern_rankings(n_items)
    half = spec["n"] // 2
    grid = np.arange(1, half + 1, dtype=np.float64) / 512.0
    x = rng.permutation(np.concatenate([-grid, grid]))
    slope = np.asarray(spec["slopes"], dtype=np.float64)
    effects = _class_effects([spec["worths"]])[0] + x[:, None] * (slope - slope[-1])
    cdf = np.cumsum(_pattern_probs(rankings, effects), axis=1)
    u = rng.random(x.size) * cdf[:, -1]
    pattern_idx = (cdf < u[:, None]).sum(axis=1)
    return rankings[pattern_idx], {spec["covariate"]: x}


def permute(ranks: np.ndarray, covariates: dict, seed: int):
    """Reorder respondents by a permutation drawn from ``seed``."""
    order = np.random.default_rng(seed).permutation(ranks.shape[0])
    return ranks[order], {k: v[order] for k, v in covariates.items()}


def count_table_digest(ranks: np.ndarray, covariates: dict) -> str:
    """SHA-256 of the (covariate values, ranking) -> count table.

    Computed here, independent of the package's aggregation, and invariant
    under row order.
    """
    columns = [covariates[n].tolist() for n in sorted(covariates)]
    keys = np.array(
        [repr(tuple(col[i] for col in columns)) + repr(tuple(row))
         for i, row in enumerate(ranks.tolist())]
    )
    cells, counts = np.unique(keys, return_counts=True)
    h = hashlib.sha256()
    for cell, c in zip(cells.tolist(), counts.tolist()):
        h.update(f"{cell}={c}\n".encode())
    return h.hexdigest()


def observed_cells(ranks: np.ndarray, covariates: dict) -> int:
    """Number of distinct (covariate set, pattern) cells with a respondent."""
    cols = [ranks] + [np.unique(v, return_inverse=True)[1][:, None]
                      for v in covariates.values()]
    return int(np.unique(np.hstack(cols), axis=0).shape[0])
