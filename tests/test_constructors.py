"""Construction families and their completeness against brute force."""

import pytest

from circulant_colorings import (
    BudgetExceededError,
    ColorSplit,
    DistanceSet,
    MatchingSplit,
    all_4n_colorings,
    all_matched_colorings,
    check_perfect,
    construct_4n,
    construct_matched,
    count_nonbipartite_4n,
    make_odd_distance_set,
    path_colorings,
    two_color_cases,
)
from conftest import brute_perfect_words

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
    def test_interleaves_sides(self):
        c = construct_4n(1, 2, (1, 2), (2, 1))
        assert c.word == (1, 2, 2, 1)

    def test_balanced_sides_are_perfect(self):
        c = construct_4n(2, 3, (1, 2, 2, 3), (2, 3, 1, 2))
        assert check_perfect(c, D2).is_perfect

    def test_disjoint_sides_are_perfect(self):
        c = construct_4n(2, 2, (1, 1, 1, 1), (2, 2, 2, 2))
        v = check_perfect(c, D2)
        assert v.is_perfect
        assert v.matrix.rows == ((0, 4), (4, 0))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            construct_4n(2, 2, (1, 2), (1, 2, 1, 2))
        for n in (True, 0, 1.0):
            with pytest.raises(ValueError):
                construct_4n(n, 2, (1, 2), (2, 1))

    def test_rejects_unbalanced_overlap(self):
        # color 1 on both sides with different multiplicities
        with pytest.raises(ValueError):
            construct_4n(1, 2, (1, 1), (1, 2))


class TestSplitTypes:
    def test_color_split_requires_full_cover(self):
        with pytest.raises(ValueError):
            ColorSplit(3, frozenset({1}), ((1, 2),), ())
        with pytest.raises(ValueError):
            ColorSplit(2, frozenset(), (), ((1, 1),))

    def test_color_split_bipartite_exclusive(self):
        with pytest.raises(ValueError):
            ColorSplit(3, frozenset({3}), (), ((1, 2),))

    def test_matching_split_no_mixed_kinds(self):
        with pytest.raises(ValueError):
            MatchingSplit(monochrome=((0, 1),), swaps=(), bipartite=((1, 1, 2),))

    def test_reused_edge_rejected_at_assembly(self):
        split = ColorSplit(2, frozenset({1, 2}), (), ())
        msplit = MatchingSplit(monochrome=((0, 1), (0, 2), (1, 1)))
        with pytest.raises(ValueError):
            construct_matched(1, 6, 2, split, msplit)


class TestMatchedConstructions:
    def test_removed_matching_bipartite_case(self):
        split = ColorSplit(2, frozenset(), (), ((1, 2),))
        msplit = MatchingSplit(bipartite=((0, 1, 2), (1, 1, 2), (2, 1, 2)))
        c = construct_matched(1, 6, 2, split, msplit)
        assert c.word == (1, 2, 1, 2, 1, 2)
        assert check_perfect(c, D1).is_perfect

    def test_removed_matching_monochrome_case(self):
        split = ColorSplit(2, frozenset({1, 2}), (), ())
        msplit = MatchingSplit(
            monochrome=((0, 1), (1, 1), (2, 2), (3, 2), (4, 2))
        )
        c = construct_matched(2, 10, 2, split, msplit)
        assert check_perfect(c, D2).is_perfect
        # both endpoints of each matching edge share that edge's color
        for edge, color in msplit.monochrome:
            assert c.word[edge] == c.word[edge + 5] == color

    def test_doubled_matching_swap_case(self):
        # three doubled edges: one held by color 3, two swapping 1 and 2
        split = ColorSplit(3, frozenset({3}), ((1, 2),), ())
        msplit = MatchingSplit(monochrome=((0, 3),), swaps=((1, 2, 1, 2),))
        c = construct_matched(2, 6, 3, split, msplit)
        assert c.word == (3, 2, 2, 3, 1, 1)
        assert check_perfect(c, D2).is_perfect

    def test_kind_mismatch_rejected(self):
        split = ColorSplit(2, frozenset({1, 2}), (), ())
        msplit = MatchingSplit(bipartite=((0, 1, 2), (1, 1, 2), (2, 1, 2)))
        with pytest.raises(ValueError):
            construct_matched(1, 6, 2, split, msplit)

    def test_edge_coverage_enforced(self):
        split = ColorSplit(2, frozenset({1, 2}), (), ())
        msplit = MatchingSplit(monochrome=((0, 1), (2, 2)))
        with pytest.raises(ValueError):
            construct_matched(2, 10, 2, split, msplit)


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
        # the budget counts the k^(4n) part-word pairs: 2^4 at (1, 2)
        assert len(all_4n_colorings(1, 2, budget=16)) == len(all_4n_colorings(1, 2))
        with pytest.raises(BudgetExceededError):
            all_4n_colorings(1, 2, budget=15)
        # 3^16 pairs pass the default of 2^24
        with pytest.raises(BudgetExceededError):
            all_4n_colorings(4, 3)
        for budget in (2.5, True, 0, -1, "x"):
            with pytest.raises(ValueError):
                all_4n_colorings(1, 2, budget=budget)
        for n, k in ((0, 2), (1, 0), (1, 2.0), (True, 2)):
            with pytest.raises(ValueError):
                all_4n_colorings(n, k)

    def test_matched_driver_budget(self):
        # the budget counts per-edge assignments, spent per color split:
        # 1 + 1 for the two bipartite splits of (1, 2, 2), 2 + 2 for the others
        assert len(all_matched_colorings(1, 2, 2, budget=6)) == 2
        with pytest.raises(BudgetExceededError):
            all_matched_colorings(1, 2, 2, budget=5)
        # 5^11 assignments for one split pass the default of 2^24 at once
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
        split = ColorSplit(2, frozenset({1, 2}), (), ())
        msplit = MatchingSplit(monochrome=((0, 1), (1, 1), (2, 2), (3, 2)))
        with pytest.raises(ValueError):
            construct_matched(2, 8, 2, split, msplit)


class TestTwoColorCases:
    def test_counts(self):
        cases = two_color_cases(2, 6)
        assert (len(cases.monochrome), len(cases.bipartite)) == (6, 2)
        cases = two_color_cases(2, 10)
        assert (len(cases.monochrome), len(cases.bipartite)) == (30, 2)

    def test_equals_brute_force(self):
        for t in (6, 10):
            words = {c.word for c in two_color_cases(2, t).all()}
            assert words == brute_perfect_words(t, (1, 3), 2), t

    def test_budget(self):
        # the budget counts the 2^m monochrome assignments over m = t/2 edges
        assert len(two_color_cases(2, 6, budget=8).all()) == 8
        with pytest.raises(BudgetExceededError):
            two_color_cases(2, 6, budget=7)
        for budget in (2.5, True, 0, -1, "x"):
            with pytest.raises(ValueError):
                two_color_cases(2, 6, budget=budget)

    def test_all_verify_perfect(self):
        for c in two_color_cases(2, 6).all():
            assert check_perfect(c, D2).is_perfect


class TestNonBipartiteCount:
    def test_frozen_small_values(self):
        assert count_nonbipartite_4n(1, 2, (1, 1)) == 4
        assert count_nonbipartite_4n(2, 2, (2, 2)) == 36

    def test_agrees_with_brute_force(self):
        # non-bipartite = both sides share at least one color
        for n, k, counts in ((2, 2, (2, 2)), (3, 2, (3, 3)), (2, 3, (2, 1, 1))):
            part = [c for c, m in enumerate(counts, start=1) for _ in range(m)]
            brute = brute_perfect_words(4 * n, tuple(range(1, 2 * n, 2)), k)
            shared = [
                w
                for w in brute
                if set(w[0::2]) & set(w[1::2])
                and sorted(w[0::2]) == part
                and sorted(w[1::2]) == part
            ]
            assert count_nonbipartite_4n(n, k, counts) == len(shared), (n, k, counts)

    def test_rejects_wrong_total(self):
        with pytest.raises(ValueError):
            count_nonbipartite_4n(2, 2, (1, 1))
        for n, k, counts in ((1, 2, (True, True)), (1, 2, (1.0, 1)), (True, 2, (1, 1)), (1, 2.0, (1, 1))):
            with pytest.raises(ValueError):
                count_nonbipartite_4n(n, k, counts)

    def test_rejects_single_color(self):
        with pytest.raises(ValueError):
            count_nonbipartite_4n(2, 2, (4, 0))
