import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from rankmix.data import DataError
from rankmix.simulate import (
    ClassTruth,
    CovariateTruth,
    SyntheticTruth,
    class_effect_matrix,
    covariate_combinations,
    generate_rows,
    item_effects_for,
    match_class_order,
    worth_map,
)

from conftest import shared_space


def flat_truth(n=0, seed=0, n_items=3):
    J = n_items
    return SyntheticTruth(
        item_labels=tuple("ABCDEF"[:J]),
        classes=(ClassTruth(prob=1.0, worths=tuple([1.0 / J] * J)),),
        n=n,
        seed=seed,
    )


class TestTruthValidation:
    def test_class_probs_must_sum_to_one(self):
        with pytest.raises(DataError, match="sum to 1"):
            SyntheticTruth(("A", "B"), (ClassTruth(0.5, (0.5, 0.5)),))

    def test_worths_must_be_positive(self):
        with pytest.raises(DataError, match="positive"):
            SyntheticTruth(("A", "B"), (ClassTruth(1.0, (1.0, 0.0)),))

    def test_factor_effect_lengths_checked(self):
        cov = dict(name="g", kind="factor", values=("a", "b"), probs=(0.5, 0.5))
        with pytest.raises(DataError, match="J entries"):
            SyntheticTruth(
                ("A", "B", "C"),
                (ClassTruth(1.0, (0.3, 0.3, 0.4)),),
                (CovariateTruth(effects={"b": (0.1, 0.2)}, **cov),),
            )


class TestEffectConstruction:
    def test_reference_conventions(self):
        truth = SyntheticTruth(
            ("A", "B", "C"),
            (
                ClassTruth(0.5, (0.5, 0.3, 0.2)),
                ClassTruth(0.5, (0.2, 0.3, 0.5)),
            ),
        )
        lam, offsets = class_effect_matrix(truth)
        assert lam[-1] == 0.0
        assert np.all(offsets[:, -1] == 0.0)
        assert np.all(offsets[-1, :] == 0.0)

    def test_worth_map_round_trips_declared_worths(self):
        truth = SyntheticTruth(
            ("A", "B", "C", "D"),
            (
                ClassTruth(0.6, (0.4, 0.3, 0.2, 0.1)),
                ClassTruth(0.4, (0.1, 0.2, 0.3, 0.4)),
            ),
        )
        table = worth_map(truth)
        assert len(table) == 2
        for entry in table:
            declared = truth.classes[entry["class"] - 1].worths
            assert entry["worths"] == pytest.approx(declared, abs=1e-12)
            assert sum(entry["worths"]) == pytest.approx(1.0, abs=1e-12)

    def test_factor_effect_shifts_item_effects(self):
        truth = SyntheticTruth(
            ("A", "B", "C"),
            (ClassTruth(1.0, (0.5, 0.3, 0.2)),),
            (
                CovariateTruth(
                    name="g", kind="factor", values=("a", "b"),
                    probs=(0.5, 0.5), effects={"b": (0.25, 0.0, 0.0)},
                ),
            ),
        )
        base = item_effects_for(truth, ("a",), 0)
        shifted = item_effects_for(truth, ("b",), 0)
        assert shifted - base == pytest.approx([0.25, 0.0, 0.0])

    def test_continuous_slopes_scale_with_value(self):
        truth = SyntheticTruth(
            ("A", "B", "C"),
            (ClassTruth(1.0, (0.5, 0.3, 0.2)),),
            (
                CovariateTruth(
                    name="x", kind="continuous", values=(0.0, 2.0),
                    probs=(0.5, 0.5), slopes=(0.1, -0.05, 0.0),
                ),
            ),
        )
        base = item_effects_for(truth, (0.0,), 0)
        moved = item_effects_for(truth, (2.0,), 0)
        assert moved - base == pytest.approx([0.2, -0.1, 0.0])

    def test_combinations_enumerate_product(self):
        truth = SyntheticTruth(
            ("A", "B"),
            (ClassTruth(1.0, (0.5, 0.5)),),
            (
                CovariateTruth(name="g", kind="factor", values=("a", "b"),
                               probs=(0.3, 0.7)),
                CovariateTruth(name="x", kind="continuous", values=(1.0, 2.0),
                               probs=(0.5, 0.5)),
            ),
        )
        combos = covariate_combinations(truth)
        assert len(combos) == 4
        assert sum(p for _, p in combos) == pytest.approx(1.0)


class TestGeneration:
    def test_empty_for_zero_respondents(self):
        assert generate_rows(flat_truth(n=0)) == []

    def test_same_seed_reproduces_rows(self):
        truth = flat_truth(n=200, seed=12)
        rows_a = generate_rows(truth)
        rows_b = generate_rows(truth)
        assert len(rows_a) == 200
        for (ra, ca), (rb, cb) in zip(rows_a, rows_b):
            assert ra.tolist() == rb.tolist()
            assert ca == cb

    def test_flat_effects_sample_uniform_patterns(self):
        # all rankings equally likely: every count inside 4-sigma bands
        n = 60000
        rows = generate_rows(flat_truth(n=n, seed=3))
        space = shared_space(3)
        counts = np.zeros(space.size)
        for ranks, _ in rows:
            counts[space.index_of_ranking(ranks)] += 1
        p = 1.0 / space.size
        band = 4.0 * np.sqrt(n * p * (1 - p))
        assert np.abs(counts - n * p).max() <= band

    def test_modal_ranking_matches_worth_order(self):
        for worths in [(0.5, 0.27, 0.15, 0.08), (0.08, 0.15, 0.27, 0.5)]:
            truth = SyntheticTruth(
                ("A", "B", "C", "D"),
                (ClassTruth(1.0, worths),),
                n=4000,
                seed=9,
            )
            space = shared_space(4)
            counts = np.zeros(space.size)
            for ranks, _ in generate_rows(truth, space):
                counts[space.index_of_ranking(ranks)] += 1
            modal = space.rankings[int(np.argmax(counts))]
            # the most frequent ranking orders items by decreasing worth
            expected_ranks = np.argsort(np.argsort(-np.array(worths))) + 1
            assert modal.tolist() == expected_ranks.tolist()

    def test_two_disjoint_classes_produce_both_modes(self):
        truth = SyntheticTruth(
            ("A", "B", "C", "D"),
            (
                ClassTruth(0.5, (0.5, 0.27, 0.15, 0.08)),
                ClassTruth(0.5, (0.08, 0.15, 0.27, 0.5)),
            ),
            n=6000,
            seed=4,
        )
        space = shared_space(4)
        counts = np.zeros(space.size)
        for ranks, _ in generate_rows(truth, space):
            counts[space.index_of_ranking(ranks)] += 1
        top_two = set(np.argsort(-counts)[:2].tolist())
        assert top_two == {
            space.index_of_ranking(np.array([1, 2, 3, 4])),
            space.index_of_ranking(np.array([4, 3, 2, 1])),
        }

    def test_covariate_values_emitted(self):
        truth = SyntheticTruth(
            ("A", "B", "C"),
            (ClassTruth(1.0, (0.4, 0.35, 0.25)),),
            (
                CovariateTruth(name="g", kind="factor", values=("a", "b"),
                               probs=(0.5, 0.5)),
            ),
            n=100,
            seed=1,
        )
        rows = generate_rows(truth)
        values = {covs["g"] for _, covs in rows}
        assert values == {"a", "b"}


class TestClassMatching:
    def test_recovers_permutation(self):
        profiles = np.array(
            [[0.6, 0.3, 0.1], [0.1, 0.3, 0.6], [0.33, 0.34, 0.33]]
        )
        noisy = profiles[[2, 0, 1]] + 0.01
        perm = match_class_order(profiles, noisy)
        assert perm.tolist() == [1, 2, 0]

    def test_identity_when_aligned(self):
        profiles = np.array([[0.7, 0.2, 0.1], [0.2, 0.2, 0.6]])
        assert match_class_order(profiles, profiles).tolist() == [0, 1]

    @pytest.mark.parametrize("n_classes", range(1, 9))
    def test_matches_linear_sum_assignment(self, n_classes):
        # random worth profiles have one cheapest assignment, so the
        # exhaustive search and the Hungarian method agree on it
        rng = np.random.default_rng(n_classes)
        for _ in range(5):
            # two stacks of R profiles of three worth vectors over four items
            true, fitted = rng.dirichlet(np.ones(4), size=(2, n_classes, 3)).reshape(
                2, n_classes, -1)
            cost = 0.5 * np.abs(true[:, None] - fitted[None]).sum(axis=-1)
            rows, cols = linear_sum_assignment(cost)
            perm = match_class_order(true, fitted)
            assert perm.tolist() == cols[np.argsort(rows)].tolist()

    def test_more_than_eight_classes_rejected(self):
        profiles = np.full((9, 3), 1.0 / 3.0)
        with pytest.raises(ValueError, match="at most 8"):
            match_class_order(profiles, profiles)
