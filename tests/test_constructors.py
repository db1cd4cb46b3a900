"""Construction families and their completeness against brute force."""

import pytest

from circulant_colorings import (
    BudgetExceededError,
    DistanceSet,
    all_4n_colorings,
    all_matched_colorings,
    check_perfect,
    count_4n_colorings,
    enumerate_perfect_finite,
    is_bipartite_coloring,
    make_odd_distance_set,
    path_colorings,
)
from conftest import brute_perfect_words, scan_matched_colorings

D1 = DistanceSet((1,))
D2 = DistanceSet((1, 3))


class TestPathColorings:
    def test_template_words(self):
        assert [c.word for c in path_colorings(1)] == [(1,)]
        assert [c.word for c in path_colorings(2)] == [(1, 2), (1, 2, 2), (1, 1, 2, 2)]
        assert [c.word for c in path_colorings(3)] == [
            (1, 2, 3),
            (1, 2, 3, 2),
            (1, 2, 3, 3, 2),
            (1, 1, 2, 3, 3, 2),
        ]

    def test_periods_for_larger_k(self):
        # distinct templates have periods k, 2k-2, 2k-1, 2k
        for k in (3, 4, 5):
            periods = sorted(c.period for c in path_colorings(k))
            assert periods == [k, 2 * k - 2, 2 * k - 1, 2 * k]

    def test_all_perfect_on_every_odd_distance_set(self):
        for k in (1, 2, 3, 4, 5):
            for n in (1, 2, 3, 4):
                dset = make_odd_distance_set(n)
                for c in path_colorings(k):
                    assert check_perfect(c, dset).is_perfect, (k, n, c.word)

    def test_rejects_bad_k(self):
        for k in (0, 2.5, True):
            with pytest.raises(ValueError):
                path_colorings(k)


class TestConstruct4n:
    # worked examples of the K_{2n,2n} rule, found among the driver's output
    def test_interleaves_sides(self):
        # even part (1, 2) and odd part (2, 1)
        assert (1, 2, 2, 1) in {c.word for c in all_4n_colorings(1, 2)}

    def test_balanced_sides_are_perfect(self):
        # even part (1, 2, 2, 3) and odd part (2, 3, 1, 2)
        word = (1, 2, 2, 3, 2, 1, 3, 2)
        built = {c.word: c for c in all_4n_colorings(2, 3)}
        assert check_perfect(built[word], D2).is_perfect

    def test_disjoint_sides_are_perfect(self):
        built = {c.word: c for c in all_4n_colorings(2, 2)}
        v = check_perfect(built[(1, 2) * 4], D2)
        assert v.is_perfect
        assert v.matrix.rows == ((0, 4), (4, 0))

    def test_rejects_unbalanced_overlap(self):
        # color 1 on both sides with different multiplicities
        assert (1, 1, 1, 2) not in {c.word for c in all_4n_colorings(1, 2)}


class TestMatchedConstructions:
    # worked examples of the matching rule, found among the driver's output
    def test_removed_matching_bipartite_case(self):
        built = {c.word: c for c in all_matched_colorings(1, 6, 2)}
        assert check_perfect(built[(1, 2, 1, 2, 1, 2)], D1).is_perfect

    def test_removed_matching_monochrome_case(self):
        # edges 0 and 1 held by color 1, edges 2, 3 and 4 by color 2
        word = (1, 1, 2, 2, 2, 1, 1, 2, 2, 2)
        built = {c.word: c for c in all_matched_colorings(2, 10, 2)}
        assert check_perfect(built[word], D2).is_perfect
        # both endpoints of each matching edge share that edge's color
        for edge in range(5):
            assert word[edge] == word[edge + 5]

    def test_doubled_matching_swap_case(self):
        # three doubled edges: one held by color 3, two swapping 1 and 2
        built = {c.word: c for c in all_matched_colorings(2, 6, 3)}
        assert check_perfect(built[(3, 2, 2, 3, 1, 1)], D2).is_perfect


class TestDriverCompleteness:
    def test_balanced_driver_small(self):
        built = {c.word for c in all_4n_colorings(1, 2)}
        assert built == brute_perfect_words(4, (1,), 2)
        assert len(built) == 6

    def test_balanced_driver_even_order(self):
        built = {c.word for c in all_4n_colorings(2, 2)}
        assert built == brute_perfect_words(8, (1, 3), 2)
        assert len(built) == 70

    def test_balanced_driver_three_colors(self):
        built = {c.word for c in all_4n_colorings(2, 3)}
        assert built == brute_perfect_words(8, (1, 3), 3)

    def test_balanced_driver_budget(self):
        with pytest.raises(BudgetExceededError):
            all_4n_colorings(4, 3, budget=100)
        # the budget counts the k^(2n) part words plus the colorings built:
        # 2^2 + 6 at (1, 2)
        assert len(all_4n_colorings(1, 2, budget=10)) == len(all_4n_colorings(1, 2))
        with pytest.raises(BudgetExceededError):
            all_4n_colorings(1, 2, budget=9)
        # 4^8 part words and 57,097,848 colorings pass the default of 2^24 at once
        with pytest.raises(BudgetExceededError, match="spent 57163384 units"):
            all_4n_colorings(4, 4)
        for budget in (2.5, True, 0, -1, "x"):
            with pytest.raises(ValueError):
                all_4n_colorings(1, 2, budget=budget)
        for n, k in ((0, 2), (1, 0), (1, 2.0), (True, 2)):
            with pytest.raises(ValueError):
                all_4n_colorings(n, k)

    def test_matched_driver_budget(self):
        # the budget counts the k^(t/2) part words plus the colorings built:
        # 2^1 + 2 at (1, 2, 2)
        assert len(all_matched_colorings(1, 2, 2, budget=4)) == 2
        with pytest.raises(BudgetExceededError):
            all_matched_colorings(1, 2, 2, budget=3)
        # 5^11 part words pass the default of 2^24 at once
        with pytest.raises(BudgetExceededError, match="spent 48828125 units"):
            all_matched_colorings(5, 22, 5)
        for budget in (2.5, True, 0, -1, "x"):
            with pytest.raises(ValueError):
                all_matched_colorings(1, 2, 2, budget=budget)

    def test_matched_driver_doubled_edge(self):
        built = {c.word for c in all_matched_colorings(1, 2, 2)}
        assert built == brute_perfect_words(2, (1,), 2) == {(1, 2), (2, 1)}

    def test_matched_driver_removed_matching(self):
        for k in (2, 3):
            built = {c.word for c in all_matched_colorings(2, 10, k)}
            assert built == brute_perfect_words(10, (1, 3), k), k

    def test_matched_driver_doubled_matching(self):
        for k in (2, 3):
            built = {c.word for c in all_matched_colorings(2, 6, k)}
            assert built == brute_perfect_words(6, (1, 3), k), k

    def test_matched_driver_matches_split_scan(self):
        sizes = [(n, k) for n in (1, 2) for k in range(1, 7)] + [(3, k) for k in range(1, 5)]
        for n, k in sizes:
            for t in (4 * n - 2, 4 * n + 2):
                built = [c.word for c in all_matched_colorings(n, t, k)]
                assert built == scan_matched_colorings(t, k), (n, t, k)

    def test_matched_driver_matches_finite_search(self):
        # Ci_10(D_3) and Ci_14(D_3) are the doubled and removed matchings
        for t, size in ((10, 300), (14, 2982)):
            built = {c.word for c in all_matched_colorings(3, t, 3)}
            found = enumerate_perfect_finite(t, make_odd_distance_set(3), 3)
            assert len(built) == size
            assert built == found.words(), t

    def test_matched_driver_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            all_matched_colorings(2, 8, 2)
        with pytest.raises(ValueError):
            all_matched_colorings(0, 2, 3)
        for n in (True, 1.0):
            with pytest.raises(ValueError):
                all_matched_colorings(n, 2, 2)
        for n, t, k in ((1, 6, 0), (2, 10, -1), (1, 2, 2.0)):
            with pytest.raises(ValueError):
                all_matched_colorings(n, t, k)


class TestTwoColorCases:
    # the two-color case of the matched driver, split as the CLI reports it
    def test_counts(self):
        for t, monochrome in ((6, 6), (10, 30)):
            built = all_matched_colorings(2, t, 2)
            bipartite = sum(is_bipartite_coloring(c, D2) for c in built)
            assert (len(built) - bipartite, bipartite) == (monochrome, 2), t

    def test_equals_brute_force(self):
        for t in (6, 10):
            words = {c.word for c in all_matched_colorings(2, t, 2)}
            assert words == brute_perfect_words(t, (1, 3), 2), t

    def test_budget(self):
        # 2^3 part words plus 8 colorings built
        assert len(all_matched_colorings(2, 6, 2, budget=16)) == 8
        with pytest.raises(BudgetExceededError):
            all_matched_colorings(2, 6, 2, budget=15)

    def test_all_verify_perfect(self):
        for c in all_matched_colorings(2, 6, 2):
            assert check_perfect(c, D2).is_perfect


class TestCount4nColorings:
    def test_frozen_small_values(self):
        assert count_4n_colorings(1, 2) == 6
        assert count_4n_colorings(2, 2) == 70
        assert count_4n_colorings(3, 4) == 279384
        assert count_4n_colorings(4, 3) == 2120676

    def test_agrees_with_brute_force(self):
        for n, k in ((1, 3), (2, 2), (2, 3), (3, 2)):
            brute = brute_perfect_words(4 * n, tuple(range(1, 2 * n, 2)), k)
            assert count_4n_colorings(n, k) == len(brute), (n, k)

    def test_matches_driver(self):
        sizes = [(1, k) for k in range(1, 7)] + [(2, k) for k in range(1, 6)]
        for n, k in sizes + [(3, k) for k in range(1, 4)]:
            assert count_4n_colorings(n, k) == len(all_4n_colorings(n, k)), (n, k)

    def test_rejects_non_positive_int(self):
        for n, k in ((0, 2), (-1, 2), (True, 2), (1.0, 2), (1, 0), (1, -2), (1, True), (1, 2.0)):
            with pytest.raises(ValueError):
                count_4n_colorings(n, k)
