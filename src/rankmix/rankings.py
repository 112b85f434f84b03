"""Rankings, derived paired comparisons, and the transitive pattern space.

A complete ranking of J items is stored either as a rank vector
(ranks[j] = rank position of item j, 1 = most preferred) or as an order
vector (items listed most preferred first). Every ranking induces one
paired-comparison pattern: a vector of +1/-1 over all item pairs in the
standard sequence (0,1),(0,2),...,(0,J-1),(1,2),...,(J-2,J-1), where +1
at pair (i,j) means item i beats item j. Only transitive patterns can
arise from rankings, so the pattern space has exactly J! members.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_ITEMS_DEFAULT = 8


class CapacityError(ValueError):
    """Pattern space would be too large to enumerate."""


class RankingValidationError(ValueError):
    """A rank or order vector is not a complete ranking."""


def pair_index(i: int, j: int, n_items: int) -> int:
    """Position of pair (i, j), i < j, in the standard pair sequence."""
    if not (0 <= i < j < n_items):
        raise ValueError(f"pair ({i}, {j}) is not ordered within {n_items} items")
    return i * n_items - i * (i + 1) // 2 + (j - i - 1)


def n_pairs(n_items: int) -> int:
    return n_items * (n_items - 1) // 2


def validate_ranks(ranks, n_items: int | None = None) -> np.ndarray:
    """Check that `ranks` is a permutation of 1..J and return it as an array."""
    arr = np.asarray(ranks)
    if arr.ndim != 1 or arr.size < 2:
        raise RankingValidationError("a ranking needs at least two items")
    if n_items is not None and arr.size != n_items:
        raise RankingValidationError(f"expected {n_items} ranks, got {arr.size}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.equal(np.mod(arr, 1), 0)):
            raise RankingValidationError("ranks must be integers")
        arr = arr.astype(np.int64)
    j = arr.size
    if sorted(arr.tolist()) != list(range(1, j + 1)):
        raise RankingValidationError(
            f"ranks {arr.tolist()} are not a permutation of 1..{j} (ties or gaps)"
        )
    return arr.astype(np.int64)


def ranks_to_order(ranks) -> np.ndarray:
    """Rank vector -> order vector (item indices, most preferred first)."""
    ranks = validate_ranks(ranks)
    return np.argsort(ranks, kind="stable").astype(np.int64)


def order_to_ranks(order) -> np.ndarray:
    """Order vector -> rank vector. Inverse of :func:`ranks_to_order`."""
    order = np.asarray(order, dtype=np.int64)
    j = order.size
    if sorted(order.tolist()) != list(range(j)):
        raise RankingValidationError(
            f"order {order.tolist()} is not a permutation of 0..{j - 1}"
        )
    ranks = np.empty(j, dtype=np.int64)
    ranks[order] = np.arange(1, j + 1)
    return ranks


def ranks_to_pattern(ranks) -> np.ndarray:
    """Derive the paired-comparison pattern implied by a complete ranking.

    Entry for pair (i, j) is +1 when item i outranks item j, else -1.
    The result is transitive by construction.
    """
    return _pair_signs(validate_ranks(ranks))


def _pair_signs(rankings: np.ndarray) -> np.ndarray:
    """The int8 patterns of :func:`ranks_to_pattern` along the last axis."""
    i, j = np.triu_indices(rankings.shape[-1], 1)  # the standard pair sequence
    return np.where(rankings[..., i] < rankings[..., j], 1, -1).astype(np.int8)


def is_transitive(pattern: np.ndarray, n_items: int) -> bool:
    """True when the pattern's tournament contains no preference cycle.

    A tournament is cycle-free exactly when its win counts are a
    permutation of 0..J-1.
    """
    pattern = np.asarray(pattern)
    if pattern.size != n_pairs(n_items):
        raise ValueError(
            f"pattern length {pattern.size} does not match {n_items} items"
        )
    i, j = np.triu_indices(n_items, 1)  # the standard pair sequence
    wins = np.bincount(np.where(pattern == 1, i, j), minlength=n_items)
    return sorted(wins.tolist()) == list(range(n_items))


def _lehmer_code(ranks: np.ndarray) -> np.ndarray:
    """Pattern indices of complete (..., J) rank vectors: the Lehmer code of
    the order vector, sum over items i of #{j < i: r_j > r_i} * (J - r_i)!."""
    j = ranks.shape[-1]
    factorials = np.array([math.factorial(k) for k in range(j)], dtype=np.int64)
    inversions = np.tril(ranks[..., :, None] < ranks[..., None, :], -1).sum(axis=-1)
    return (inversions * factorials[j - ranks]).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class PatternSpace:
    """All J! transitive paired-comparison patterns in canonical order.

    Canonical order is lexicographic over order vectors, so pattern 0 is
    the identity ordering, and the index of a ranking is the Lehmer code
    of its order vector: arithmetic, no table, stable across platforms.
    """

    n_items: int
    rankings: np.ndarray  # (L, J) rank vectors, one per pattern

    def __post_init__(self):
        self.rankings.setflags(write=False)

    @property
    def size(self) -> int:
        return self.rankings.shape[0]

    @functools.cached_property
    def patterns(self) -> np.ndarray:
        """(L, C(J,2)) +-1 paired-comparison patterns, built on first use.

        The fit never reads them; the net-win scores of
        :meth:`score_matrix` carry the same information.
        """
        patterns = _pair_signs(self.rankings)
        patterns.setflags(write=False)
        return patterns

    def index_of_ranking(self, ranks) -> int:
        """Canonical pattern index of a complete ranking: its Lehmer code.

        Raises :class:`RankingValidationError` when ``ranks`` is not a
        complete ranking of the space's items.
        """
        return int(_lehmer_code(validate_ranks(ranks, self.n_items)))

    def score_matrix(self) -> np.ndarray:
        """(L, J) matrix of net wins: wins minus losses per item.

        Row l gives, for each item, the coefficient of that item's effect
        in the pattern's linear predictor: sum_{i<j} y_ij (a_i - a_j)
        collapses to sum_i (wins_i - losses_i) a_i.
        """
        j = self.n_items
        return (j + 1 - 2 * self.rankings).astype(np.float64)


def enumerate_transitive_patterns(
    n_items: int, max_items: int = MAX_ITEMS_DEFAULT
) -> PatternSpace:
    """Enumerate all J! transitive patterns for ``n_items`` items.

    Raises :class:`CapacityError` beyond ``max_items``: the space grows
    factorially (8 items already give 40320 patterns).
    """
    if n_items < 2:
        raise ValueError("need at least two items to rank")
    if n_items > max_items:
        raise CapacityError(
            f"{n_items} items would give {math.factorial(n_items)} patterns; "
            f"the pattern space grows factorially and is capped at "
            f"{max_items} items (override with max_items)"
        )
    orders = np.array(list(itertools.permutations(range(n_items))), dtype=np.int64)
    # the rank vector of an order vector is its inverse permutation, plus one
    rankings = np.argsort(orders, axis=1) + 1
    return PatternSpace(n_items=n_items, rankings=rankings)
