import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankmix.rankings import (
    CapacityError,
    RankingValidationError,
    _lehmer_code,
    enumerate_transitive_patterns,
    is_transitive,
    n_pairs,
    order_to_ranks,
    pair_index,
    ranks_to_order,
    ranks_to_pattern,
)

from conftest import shared_space


def permutation_arrays(n_items):
    return st.permutations(list(range(1, n_items + 1))).map(np.array)


class TestPairIndex:
    def test_first_pair(self):
        assert pair_index(0, 1, 3) == 0

    def test_last_pair_of_three(self):
        assert pair_index(1, 2, 3) == 2

    def test_fifth_pair_of_six(self):
        assert pair_index(0, 5, 6) == 4

    @pytest.mark.parametrize("n_items", range(2, 9))
    def test_bijective(self, n_items):
        indices = [
            pair_index(i, j, n_items)
            for i in range(n_items)
            for j in range(i + 1, n_items)
        ]
        assert sorted(indices) == list(range(n_pairs(n_items)))

    @pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (0, 3)])
    def test_rejects_bad_pairs(self, i, j):
        with pytest.raises(ValueError):
            pair_index(i, j, 3)


class TestRanksToPattern:
    def test_four_item_example(self):
        # order (c, a, b, d) over items (a, b, c, d)
        ranks = order_to_ranks(np.array([2, 0, 1, 3]))
        assert ranks.tolist() == [2, 3, 1, 4]
        pattern = ranks_to_pattern(ranks)
        assert pattern.tolist() == [1, -1, 1, -1, 1, 1]

    @pytest.mark.parametrize("n_items", range(2, 7))
    def test_identity_ranking_all_wins(self, n_items):
        pattern = ranks_to_pattern(np.arange(1, n_items + 1))
        assert np.all(pattern == 1)

    def test_two_items_reversed(self):
        assert ranks_to_pattern(np.array([2, 1])).tolist() == [-1]

    @pytest.mark.parametrize("bad", [[1, 1, 2], [1, 2, 4], [0, 1, 2], [1]])
    def test_rejects_invalid_rankings(self, bad):
        with pytest.raises(RankingValidationError):
            ranks_to_pattern(np.array(bad))

    @given(permutation_arrays(5))
    def test_round_trip_ranks_order_ranks(self, ranks):
        assert order_to_ranks(ranks_to_order(ranks)).tolist() == ranks.tolist()

    @pytest.mark.parametrize("n_items", range(2, 7))
    def test_round_trip_exhaustive(self, n_items):
        for perm in itertools.permutations(range(1, n_items + 1)):
            ranks = np.array(perm)
            back = order_to_ranks(ranks_to_order(ranks))
            assert back.tolist() == list(perm)

    @pytest.mark.parametrize("n_items", range(2, 7))
    def test_injective_over_all_rankings(self, n_items):
        seen = {
            ranks_to_pattern(np.array(perm)).tobytes()
            for perm in itertools.permutations(range(1, n_items + 1))
        }
        assert len(seen) == math.factorial(n_items)


class TestEnumerate:
    @pytest.mark.parametrize("n_items,size", [(2, 2), (3, 6), (4, 24), (5, 120), (6, 720)])
    def test_sizes(self, n_items, size):
        assert shared_space(n_items).size == size

    def test_two_items(self):
        space = shared_space(2)
        assert {p.tolist()[0] for p in space.patterns} == {1, -1}

    def test_all_members_transitive_and_distinct(self):
        space = shared_space(4)
        seen = set()
        for pattern in space.patterns:
            assert is_transitive(pattern, 4)
            seen.add(pattern.tobytes())
        assert len(seen) == 24

    def test_matches_patterns_of_all_rankings(self):
        space = shared_space(4)
        expected = {
            ranks_to_pattern(np.array(p)).tobytes()
            for p in itertools.permutations(range(1, 5))
        }
        assert {p.tobytes() for p in space.patterns} == expected

    def test_canonical_order_is_lexicographic_over_orders(self):
        space = shared_space(3)
        orders = [ranks_to_order(r).tolist() for r in space.rankings]
        assert orders == sorted(orders)
        assert space.rankings[0].tolist() == [1, 2, 3]

    @pytest.mark.parametrize("n_items", [2, 3, 4, 5, 6, 7])
    def test_index_of_ranking_round_trip(self, n_items):
        space = shared_space(n_items)
        # the Lehmer code numbers the rankings in canonical order
        assert np.array_equal(_lehmer_code(space.rankings), np.arange(space.size))
        for l in range(0, space.size, max(1, space.size // 50)):
            assert space.index_of_ranking(space.rankings[l]) == l

    def test_capacity_error(self):
        with pytest.raises(CapacityError, match="factorial"):
            enumerate_transitive_patterns(9)
        # override lifts the cap
        assert enumerate_transitive_patterns(5, max_items=5).size == 120
        with pytest.raises(ValueError):
            enumerate_transitive_patterns(1)


class TestIsTransitive:
    def test_cycle_free_pattern(self):
        # 1>2, 2>3, 1>3
        assert is_transitive(np.array([1, 1, 1]), 3)

    def test_three_cycle(self):
        # 1>2, 2>3 but 3>1
        assert not is_transitive(np.array([1, -1, 1]), 3)

    def test_exactly_two_of_eight_intransitive(self):
        flags = [
            is_transitive(np.array(signs), 3)
            for signs in itertools.product((1, -1), repeat=3)
        ]
        assert sum(flags) == 6
        assert len(flags) - sum(flags) == 2

    @pytest.mark.parametrize("n_items", range(2, 6))
    def test_every_ranking_pattern_passes(self, n_items):
        for perm in itertools.permutations(range(1, n_items + 1)):
            assert is_transitive(ranks_to_pattern(np.array(perm)), n_items)


class TestScoreMatrix:
    def test_net_wins(self, space3):
        scores = space3.score_matrix()
        # identity ranking: item 0 beats both, item 2 loses both
        assert scores[0].tolist() == [2.0, 0.0, -2.0]
        # every row is a permutation of the same net-win values
        for row in scores:
            assert sorted(row.tolist()) == [-2.0, 0.0, 2.0]
