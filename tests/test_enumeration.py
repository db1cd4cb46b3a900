"""Search engines: canonical forms, finite scan, window automaton."""

import itertools

import pytest

from circulant_colorings import (
    Automaton,
    BudgetExceededError,
    DistanceSet,
    EnumerationResult,
    ParameterMatrix,
    PeriodicColoring,
    candidate_matrices,
    canonical_form,
    check_perfect,
    consistent_windows,
    enumerate_perfect_finite,
    enumerate_periodic_perfect,
    step_window,
    surjective_word_count,
    window_is_consistent,
)
from conftest import brute_perfect_words

D1 = DistanceSet((1,))
D2 = DistanceSet((1, 3))


class TestCanonicalForm:
    def test_rotation_and_primitive_reduction(self):
        assert canonical_form((2, 1, 2)) == (1, 2, 2)
        assert canonical_form((1, 2, 1, 2)) == (1, 2)

    def test_reflection(self):
        assert canonical_form((1, 2, 2, 3)) == (1, 2, 2, 3)
        assert canonical_form((1, 2, 2, 3), reflection=True) == (1, 2, 2, 3)
        assert canonical_form((1, 3, 2, 2), reflection=True) == (1, 2, 2, 3)

    def test_color_folding(self):
        a = canonical_form((1, 1, 2), color_permutation=True)
        b = canonical_form((1, 2, 2), color_permutation=True)
        assert a == b == (1, 1, 2)

    def test_invariant_on_orbit(self):
        word = (1, 2, 2, 3, 1)
        rep = canonical_form(word, reflection=True, color_permutation=True)
        for i in range(len(word)):
            rotated = word[i:] + word[:i]
            assert canonical_form(rotated, reflection=True, color_permutation=True) == rep


class TestSurjectiveCount:
    def test_matches_direct_scan(self):
        for t, k in ((4, 2), (5, 2), (5, 3), (6, 3)):
            direct = sum(
                1
                for w in itertools.product(range(1, k + 1), repeat=t)
                if len(set(w)) == k
            )
            assert surjective_word_count(t, k) == direct

    def test_large_value(self):
        assert surjective_word_count(10, 7) == 29635200

    def test_impossible(self):
        assert surjective_word_count(2, 3) == 0


class TestEnumeratePerfectFinite:
    def test_matches_brute_force(self):
        for t, dists, k in ((6, (1, 3), 2), (8, (1, 3), 2), (4, (1,), 3), (10, (1, 3), 2)):
            result = enumerate_perfect_finite(t, DistanceSet(dists), k)
            assert result.words() == brute_perfect_words(t, dists, k), (t, dists, k)

    def test_matrices_attached(self):
        # Matrices are derived by relabeling, never re-checked: check_perfect
        # is the oracle here, for every combination of symmetry flags.
        for t, k in ((6, 2), (8, 3), (8, 4)):
            for flags in itertools.product((False, True), repeat=3):
                rotation, reflection, colors = flags
                result = enumerate_perfect_finite(
                    t, D2, k, rotation=rotation, reflection=reflection, color_permutation=colors
                )
                assert result.entries, (t, k, flags)
                for coloring, matrix in result.entries:
                    assert check_perfect(coloring, D2).matrix == matrix, (t, k, flags)

    def test_rotation_reduction(self):
        full = enumerate_perfect_finite(8, D2, 2)
        reduced = enumerate_perfect_finite(8, D2, 2, rotation=True)
        orbits = {min(w[i:] + w[:i] for i in range(len(w))) for w in full.words()}
        assert reduced.words() == orbits

    def test_color_reduction_on_swap(self):
        full = enumerate_perfect_finite(6, D2, 2)
        reduced = enumerate_perfect_finite(6, D2, 2, color_permutation=True)
        folded = {
            min(w, tuple(3 - c for c in w)) for w in full.words()
        }
        assert reduced.words() == folded

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            enumerate_perfect_finite(30, D1, 2, word_budget=1000)

    def test_deterministic_order(self):
        a = enumerate_perfect_finite(8, D2, 2).entries
        b = enumerate_perfect_finite(8, D2, 2).entries
        assert a == b
        assert [c.word for c, _ in a] == sorted(c.word for c, _ in a)


class TestCandidateMatrices:
    def test_two_color_counts(self):
        for n, expected in ((1, 4), (2, 10), (3, 16), (4, 22)):
            assert len(candidate_matrices(n, 2)) == expected

    def test_single_color(self):
        assert candidate_matrices(2, 1) == (ParameterMatrix(((4,),)),)

    def test_general_row_sums(self):
        mats = candidate_matrices(1, 3)
        assert len(mats) == 216
        assert all(m.row_sums() == (2, 2, 2) for m in mats)
        assert len(set(mats)) == 216

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            candidate_matrices(4, 4, matrix_budget=10)


class TestAutomaton:
    def test_geometry(self):
        auto = Automaton(2, 2, ParameterMatrix(((0, 4), (4, 0))))
        assert auto.window_length == 7
        assert auto.center == 3

    def test_rejects_wrong_row_sums(self):
        with pytest.raises(ValueError):
            Automaton(2, 2, ParameterMatrix(((0, 2), (2, 0))))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            Automaton(1, 3, ParameterMatrix(((0, 2), (2, 0))))

    def test_consistency_simple(self):
        auto = Automaton(1, 2, ParameterMatrix(((0, 2), (2, 0))))
        assert window_is_consistent(auto, (1, 2, 1))
        assert window_is_consistent(auto, (2, 1, 2))
        assert not window_is_consistent(auto, (1, 1, 2))
        assert consistent_windows(auto) == ((1, 2, 1), (2, 1, 2))

    def test_step_forces_unique_color(self):
        auto = Automaton(1, 2, ParameterMatrix(((0, 2), (2, 0))))
        assert step_window(auto, (1, 2, 1)) == 2
        assert step_window(auto, (2, 1, 2)) == 1

    def test_step_detects_dead_end(self):
        # centered vertex needs two color-2 neighbors but already sees color 1
        auto = Automaton(1, 2, ParameterMatrix(((0, 2), (2, 0))))
        assert step_window(auto, (2, 1, 1)) is None

    def test_step_rejects_wrong_length(self):
        auto = Automaton(1, 2, ParameterMatrix(((0, 2), (2, 0))))
        with pytest.raises(ValueError):
            step_window(auto, (1, 2, 1, 2))

    def test_window_reproduces_enumerated_colorings(self, periodic_k2):
        for n in (1, 2):
            for coloring, matrix in periodic_k2[n].entries:
                auto = Automaton(n, 2, matrix)
                length = 4 * n - 1
                window = tuple(coloring.color_at(i) for i in range(length))
                assert window_is_consistent(auto, window)
                forced = step_window(auto, window)
                assert forced == coloring.color_at(length)


class TestEnumeratePeriodicPerfect:
    def test_smallest_case_words(self):
        result = enumerate_periodic_perfect(1, 2)
        assert result.words() == {(1, 2), (1, 1, 2), (1, 2, 2), (1, 1, 2, 2)}

    def test_single_color(self):
        result = enumerate_periodic_perfect(2, 1)
        assert [c.word for c, _ in result.entries] == [(1,)]

    def test_all_enumerated_verify_perfect(self, periodic_k2):
        for n in (1, 2, 3):
            dset = DistanceSet(tuple(range(1, 2 * n, 2)))
            for coloring, matrix in periodic_k2[n].entries:
                verdict = check_perfect(coloring, dset)
                assert verdict.is_perfect
                assert verdict.matrix == matrix

    def test_short_periods_match_direct_scan(self):
        # independent check: every perfect word of period <= 8 and none extra
        result = enumerate_periodic_perfect(1, 3)
        direct = set()
        for length in range(1, 9):
            for w in itertools.product((1, 2, 3), repeat=length):
                if set(w) != {1, 2, 3}:
                    continue
                pc = PeriodicColoring(w, 3)
                if pc.word not in direct and check_perfect(pc, D1).is_perfect:
                    direct.add(pc.word)
        assert {w for w in result.words() if len(w) <= 8} == direct

    def test_count_for_three_colors_smallest(self):
        assert len(enumerate_periodic_perfect(1, 3).entries) == 14

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            enumerate_periodic_perfect(3, 3, state_budget=1000)

    def test_budget_caps_candidate_matrices(self):
        # 3^7 = 2187 windows fit, but the 15^3 = 3375 candidate matrices do not
        with pytest.raises(BudgetExceededError):
            enumerate_periodic_perfect(2, 3, state_budget=3000)

    def test_rejects_invalid_matrices(self):
        with pytest.raises(ValueError):
            enumerate_periodic_perfect(1, 2, matrices=(ParameterMatrix(((2, 0, 0),) * 3),))
        with pytest.raises(ValueError):
            enumerate_periodic_perfect(1, 2, matrices=(ParameterMatrix(((0, 4), (4, 0))),))

    def test_restricting_matrices_restricts_output(self, periodic_k2):
        bipartite = ParameterMatrix(((0, 4), (4, 0)))
        result = enumerate_periodic_perfect(2, 2, matrices=(bipartite,))
        assert result.words() == {(1, 2)}
        assert result.words() < periodic_k2[2].words()

    def test_deterministic(self):
        a = enumerate_periodic_perfect(2, 2)
        b = enumerate_periodic_perfect(2, 2)
        assert a.entries == b.entries


class TestEnumerationResult:
    def test_stats_ignored_in_equality(self):
        a = EnumerationResult((), {"states": 1})
        b = EnumerationResult((), {"states": 2})
        assert a == b

    def test_accessors(self):
        result = enumerate_periodic_perfect(1, 2)
        assert len(result.colorings()) == len(result.entries) == 4
        assert result.words() == {c.word for c in result.colorings()}
