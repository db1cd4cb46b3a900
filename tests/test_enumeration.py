"""Search engines: canonical forms, finite scan, window automaton."""

import itertools
import random

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
    check_conjecture,
    check_perfect,
    enumerate_perfect_finite,
    enumerate_periodic_perfect,
    make_odd_distance_set,
    step_window,
    window_is_consistent,
)
from circulant_colorings import enumeration
from circulant_colorings.core import WorkMeter, least_rotation, primitive_period
from circulant_colorings.enumeration import (
    _cycles,
    _has_parity_split,
    _is_balanced,
    _prenecklace_windows,
    _tap_table,
)
from conftest import (
    all_row_sum_matrices,
    brute_canonical_form,
    brute_perfect_words,
    closed_candidate_matrices,
    consistent_windows,
    is_prenecklace,
    least_conjugates,
    scan_perfect_finite,
    subset_parity_split,
    support_symmetric_rows,
    surjective_word_count,
    table_periodic_search,
    two_color_templates,
)

D1 = DistanceSet((1,))
D2 = DistanceSet((1, 3))

# Distance sets for the finite differential tests: odd and continuous, with
# even distances, and long enough that small orders get multiedges and loops.
FINITE_DISTANCES = ((1,), (1, 3), (1, 3, 5), (1, 2), (2, 5), (1, 4, 6), (1, 3, 5, 7))
FLAG_SETTINGS = tuple(itertools.product((False, True), repeat=3))
# Budgets that are not an int >= 1 (a float, a bool, zero, negative, a string).
BAD_BUDGETS = (2.5, True, 0, -1, "x")


def _finite_cases(max_onto=300_000):
    """(t, k) with t = 1..12, k = 1..4 and between 1 and max_onto onto colorings."""
    return [
        (t, k)
        for t in range(1, 13)
        for k in range(1, 5)
        if 0 < surjective_word_count(t, k) <= max_onto
    ]


class TestCanonicalForm:
    def test_rotation_and_primitive_reduction(self):
        assert canonical_form((2, 1, 2)) == (1, 2, 2)
        assert canonical_form((1, 2, 1, 2)) == (1, 2)

    def test_empty_word_rejected(self):
        for flags in ({}, {"reflection": True, "color_permutation": True}):
            with pytest.raises(ValueError):
                canonical_form((), **flags)

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

    def test_random_words_match_orbit_oracle(self):
        rng = random.Random(20261018)
        for _ in range(400):
            k = rng.randint(1, 4)
            word = tuple(rng.randint(1, k) for _ in range(rng.randint(1, 12)))
            if rng.random() < 0.5:  # a repeated word exercises the primitive reduction
                word = word[: rng.randint(1, 4)] * rng.randint(2, 3)
            for reflection, colors in itertools.product((False, True), repeat=2):
                flags = dict(reflection=reflection, color_permutation=colors)
                assert canonical_form(word, **flags) == brute_canonical_form(word, **flags)


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

    @pytest.mark.parametrize("dists", FINITE_DISTANCES)
    def test_matches_partition_scan(self, dists):
        # the pruned depth-first search against the unpruned scan, entries
        # and matrices, on every small order including multiedges and loops
        dset = DistanceSet(dists)
        for t, k in _finite_cases():
            result = enumerate_perfect_finite(t, dset, k)
            assert result.entries == scan_perfect_finite(t, dset, k).entries, (t, k)
            stats = result.stats
            assert stats["classes_examined"] == stats["perfect_classes"], (t, k)

    @pytest.mark.parametrize("dists", FINITE_DISTANCES)
    def test_order_14_matches_partition_scan(self, dists):
        # _finite_cases stops at t = 12; the search against the unpruned scan
        # at one larger order, for every distance set
        dset = DistanceSet(dists)
        result = enumerate_perfect_finite(14, dset, 2)
        assert result.entries == scan_perfect_finite(14, dset, 2).entries

    def test_random_cases_all_flags(self):
        rng = random.Random(20261018)
        cases = _finite_cases()
        for _ in range(12):
            t, k = rng.choice(cases)
            dists = tuple(sorted(rng.sample(range(1, 9), rng.randint(1, 4))))
            dset = DistanceSet(dists)
            for rotation, reflection, colors in FLAG_SETTINGS:
                flags = dict(rotation=rotation, reflection=reflection, color_permutation=colors)
                result = enumerate_perfect_finite(t, dset, k, **flags)
                oracle = scan_perfect_finite(t, dset, k, **flags)
                assert result.entries == oracle.entries, (t, dists, k, flags)

    @pytest.mark.parametrize(
        "t, k, settings",
        [(10, 5, FLAG_SETTINGS), (8, 7, tuple(f for f in FLAG_SETTINGS if f[0]))],
    )
    def test_five_and_seven_colors_match_partition_scan(self, t, k, settings):
        for rotation, reflection, colors in settings:
            flags = dict(rotation=rotation, reflection=reflection, color_permutation=colors)
            result = enumerate_perfect_finite(t, D2, k, **flags)
            assert result.entries == scan_perfect_finite(t, D2, k, **flags).entries, flags

    def test_each_symmetry_class_expanded_once(self, monkeypatch):
        # the 12 perfect partitions of (8, D_2, 7) fall into 2 rotation
        # classes: one least rotation per partition for the covered check,
        # then 7! per class, not 7! per partition
        calls = []

        def counting(word):
            calls.append(word)
            return least_rotation(word)

        monkeypatch.setattr(enumeration, "least_rotation", counting)
        result = enumerate_perfect_finite(8, D2, 7, rotation=True)
        assert result.stats["perfect_classes"] == 12
        assert len(calls) == 12 + 2 * 5040
        assert result.stats["colorings"] == len(result.entries) == 7560
        assert result.stats["units"] == 60_551
        monkeypatch.undo()
        flags = dict(rotation=True, reflection=True, color_permutation=True)
        result = enumerate_perfect_finite(12, make_odd_distance_set(3), 4, **flags)
        assert len(result.entries) == 594
        assert result.stats["units"] == 398_375

    def test_pruning_stats(self):
        result = enumerate_perfect_finite(14, make_odd_distance_set(3), 3)
        stats = result.stats
        assert set(stats) == {
            "classes_examined", "perfect_classes", "colorings",
            "nodes_visited", "pruned_closed", "pruned_bound", "units",
        }
        # the units spent are the least budget the search passes
        assert stats["units"] == 33_991
        # the scan checked all 788,970 partitions; the search reaches only
        # the 497 perfect ones, and both rules cut
        assert stats["classes_examined"] == stats["perfect_classes"] == 497
        assert stats["colorings"] == len(result.entries) == 2982
        assert stats["nodes_visited"] < 40_000
        assert stats["pruned_closed"] > 0 and stats["pruned_bound"] > 0
        assert enumerate_perfect_finite(8, D2, 2).stats["classes_examined"] > 0

    def test_matrices_attached(self):
        # Matrices are derived by relabeling, never re-checked: check_perfect
        # is the oracle here, for every combination of symmetry flags.
        for t, k in ((6, 2), (8, 3), (8, 4)):
            for flags in FLAG_SETTINGS:
                rotation, reflection, colors = flags
                result = enumerate_perfect_finite(
                    t, D2, k, rotation=rotation, reflection=reflection, color_permutation=colors
                )
                assert result.entries, (t, k, flags)
                for coloring, matrix in result.entries:
                    assert check_perfect(coloring, D2).matrix == matrix, (t, k, flags)

    def test_rotation_folded_words_have_least_primitive_periods(self):
        # build_induced_set takes a rotation-folded word's primitive period
        # as its canonical periodic word: u^m least among its rotations
        # makes u least among its own
        for t, dset, k in ((8, D2, 2), (12, D2, 2), (12, make_odd_distance_set(3), 3),
                           (10, D2, 3), (8, D2, 4), (6, D2, 3)):
            words = enumerate_perfect_finite(t, dset, k, rotation=True).words()
            assert any(len(primitive_period(w)) < t for w in words), (t, k)
            for word in words:
                assert word == least_rotation(word), (t, k, word)
                period = primitive_period(word)
                assert period == least_rotation(period), (t, k, word)

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
        # the budget counts vertices colored plus k! per perfect partition,
        # 31,009 + 3! * 497 at (14, D_3, 3): the search passes at that count
        # and stops one below it
        dset = make_odd_distance_set(3)
        assert len(enumerate_perfect_finite(14, dset, 3, budget=33_991).entries) == 2982
        with pytest.raises(BudgetExceededError, match="spent 33991 units"):
            enumerate_perfect_finite(14, dset, 3, budget=33_990)
        # 2**30 - 2 onto words, but 376 nodes + 2! * 4 perfect partitions
        assert len(enumerate_perfect_finite(30, D1, 2).entries) == 8
        with pytest.raises(BudgetExceededError):
            enumerate_perfect_finite(30, D1, 2, budget=383)
        for budget in BAD_BUDGETS:
            with pytest.raises(ValueError):
                enumerate_perfect_finite(4, D1, 2, budget=budget)
        # each error names its argument; a distance set must be a DistanceSet,
        # or (0,) would give 62 "perfect" colorings of Ci_6
        for t, dset, k, name in (
            (0, D1, 1, "t"), (3, D1, 0, "k"), (6.0, D2, 2, "t"), (True, D1, 1, "t"),
            (4, D1, True, "k"), (6, (0,), 2, "dset"), (6, (1, 1), 2, "dset"),
            (6, (3, 1), 2, "dset"), (6, (-1,), 2, "dset"), (6, [1, 3], 2, "dset"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must"):
                enumerate_perfect_finite(t, dset, k)

    def test_deterministic_order(self):
        a = enumerate_perfect_finite(8, D2, 2).entries
        b = enumerate_perfect_finite(8, D2, 2).entries
        assert a == b
        assert [c.word for c, _ in a] == sorted(c.word for c, _ in a)


class TestCandidateMatrices:
    def test_two_color_counts(self):
        for n, expected in ((1, 4), (2, 10), (3, 16), (4, 22)):
            assert len(closed_candidate_matrices(n, 2)) == expected
        # the pruning rules rediscover exactly the admissible 2-color templates,
        # and candidate_matrices returns one least conjugate per orbit of them
        for n in range(1, 8):
            templates = {m for ms in two_color_templates(n).values() for m in ms}
            assert set(closed_candidate_matrices(n, 2)) == templates, n
            assert [m.rows for m in candidate_matrices(n, 2)] == least_conjugates(
                sorted(templates, key=lambda m: m.rows)
            ), n

    def test_single_color(self):
        assert candidate_matrices(2, 1) == (ParameterMatrix(((4,),)),)

    def test_general_row_sums(self):
        raw = all_row_sum_matrices(1, 3)
        assert len(raw) == 216
        assert all(m.row_sums() == (2, 2, 2) for m in raw)
        assert len(set(raw)) == 216
        assert len(closed_candidate_matrices(1, 3)) == 13
        mats = candidate_matrices(1, 3)
        assert all(m.row_sums() == (2, 2, 2) for m in mats)
        assert len(set(mats)) == len(mats) == 4

    @pytest.mark.parametrize(
        "n, k",
        [(n, 2) for n in range(1, 9)]
        + [(n, 3) for n in range(1, 6)]
        + [(1, 4), (2, 4), (1, 5), (1, 6)],
    )
    def test_orbit_representatives_match_oracle(self, n, k):
        # every size where the oracle, which filters all support-symmetric
        # matrices, takes under 0.5 s: the tree's representatives are the
        # least conjugates of the oracle's closed set, one per orbit, sorted
        closed = closed_candidate_matrices(n, k)
        mats = candidate_matrices(n, k)
        assert [m.rows for m in mats] == least_conjugates(closed)
        assert all(type(m) is ParameterMatrix for m in mats)

    def test_pruning_stage_counts(self):
        # (n, k): support-symmetric, + balance, + parity, S_k orbits returned
        table = {
            (2, 3): (553, 320, 46, 13),
            (3, 3): (5104, 1839, 85, 23),
            (1, 4): (176, 51, 51, 4),
            (2, 4): (25329, 9714, 152, 14),
            (1, 5): (1438, 252, 252, 4),
        }
        for (n, k), expected in table.items():
            symmetric = list(support_symmetric_rows(n, k))
            balanced = [rows for rows in symmetric if _is_balanced(rows)]
            parity = [rows for rows in balanced if _has_parity_split(rows)]
            assert [m.rows for m in closed_candidate_matrices(n, k)] == parity, (n, k)
            perms = list(itertools.permutations(range(1, k + 1)))
            mats = candidate_matrices(n, k)
            counts = (len(symmetric), len(balanced), len(parity), len(mats))
            assert counts == expected, (n, k)
            pruned = set(parity)
            assert all(m.relabeled(p).rows in pruned for m in mats for p in perms), (n, k)
        for n, k in ((2, 3), (1, 4)):
            raw = {
                m.rows
                for m in all_row_sum_matrices(n, k)
                if all((m.rows[i][j] > 0) == (m.rows[j][i] > 0) for i in range(k) for j in range(k))
            }
            assert set(support_symmetric_rows(n, k)) == raw, (n, k)

    def test_parity_split_matches_subset_oracle(self):
        # every connected support, balanced or not, against all 2^k - 1 splits
        sizes = [(n, 2) for n in range(1, 7)] + [(n, 3) for n in range(1, 4)]
        checked = accepted = 0
        for n, k in sizes + [(1, 4), (1, 5), (1, 6)]:
            for rows in support_symmetric_rows(n, k):
                reached = [0]
                for i in reached:
                    reached += [j for j, count in enumerate(rows[i]) if count and j not in reached]
                if len(reached) == k:
                    verdict = _has_parity_split(rows)
                    assert verdict == subset_parity_split(rows), rows
                    checked += 1
                    accepted += verdict
        assert (checked, accepted) == (7679, 2579)

    @pytest.mark.parametrize(
        "rows, accepted",
        [
            # A = B = all colors: color 2 has a loop, rows a chain of unit transfers
            (((0, 0, 2), (0, 1, 1), (1, 1, 0)), True),
            # only the bipartition {1, 2} | {3}: row 3 is L1 4 from rows 1 and 2
            (((0, 0, 2), (0, 0, 2), (1, 1, 0)), True),
            # loops rule out a bipartition, and the two rows are L1 4 apart
            (((3, 1), (1, 3)), False),
            # bipartition {1, 2} | {3, 4}, and rows 1 and 2 are L1 4 apart
            (((0, 0, 0, 4), (0, 0, 2, 2), (0, 4, 0, 0), (1, 3, 0, 0)), False),
        ],
        ids=["all-colors", "bipartition", "not-bipartite", "side-not-connected"],
    )
    def test_parity_split_branches(self, rows, accepted):
        assert _is_balanced(rows)
        assert _has_parity_split(rows) is subset_parity_split(rows) is accepted

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            candidate_matrices(4, 4, budget=10)
        # the budget counts tree matrices generated: 22 at (1, 3)
        assert len(candidate_matrices(1, 3, budget=22)) == 4
        with pytest.raises(BudgetExceededError):
            candidate_matrices(1, 3, budget=21)
        for budget in BAD_BUDGETS:
            with pytest.raises(ValueError):
                candidate_matrices(1, 2, budget=budget)
        for n, k in ((True, 3), (1, 2.0), (0, 2), (1, 0)):
            with pytest.raises(ValueError):
                candidate_matrices(n, k)


class TestAutomaton:
    def test_geometry(self):
        auto = Automaton(2, 2, ParameterMatrix(((0, 4), (4, 0))))
        assert auto.window_length == 8
        assert auto.table == _tap_table(auto.matrix.rows)

    def test_rejects_wrong_row_sums(self):
        with pytest.raises(ValueError):
            Automaton(2, 2, ParameterMatrix(((0, 2), (2, 0))))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            Automaton(1, 3, ParameterMatrix(((0, 2), (2, 0))))
        for n, k, rows in ((True, 2, ((0, 2), (2, 0))), (1, True, ((2,),)), (1.0, 1, ((2,),))):
            with pytest.raises(ValueError):
                Automaton(n, k, ParameterMatrix(rows))

    def test_consistency_simple(self):
        auto = Automaton(1, 2, ParameterMatrix(((0, 2), (2, 0))))
        assert window_is_consistent(auto, (1, 2, 1, 2))
        assert window_is_consistent(auto, (2, 1, 2, 1))
        assert not window_is_consistent(auto, (1, 1, 2, 2))
        assert consistent_windows(auto) == ((1, 2, 1, 2), (2, 1, 2, 1))

    def test_step_forces_unique_color(self):
        auto = Automaton(1, 2, ParameterMatrix(((0, 2), (2, 0))))
        assert step_window(auto, (1, 2, 1, 2)) == 1
        assert step_window(auto, (2, 1, 2, 1)) == 2

    def test_step_detects_dead_end(self):
        # the vertex at offset 3 needs two color-2 neighbors but already sees color 1
        auto = Automaton(1, 2, ParameterMatrix(((1, 1), (0, 2))))
        assert window_is_consistent(auto, (2, 1, 1, 2))
        assert step_window(auto, (2, 1, 1, 2)) is None
        with pytest.raises(ValueError):
            step_window(Automaton(1, 2, ParameterMatrix(((0, 2), (2, 0)))), (1, 1, 2, 2))

    def test_step_rejects_wrong_length(self):
        auto = Automaton(1, 2, ParameterMatrix(((0, 2), (2, 0))))
        for window in ((1, 2, 1), (1, 2, 1, 2, 1)):
            with pytest.raises(ValueError):
                step_window(auto, window)
            with pytest.raises(ValueError):
                window_is_consistent(auto, window)

    def test_rejects_colors_outside_range(self):
        auto = Automaton(1, 2, ParameterMatrix(((0, 2), (2, 0))))
        for window in ((0, 2, 0, 2), (3, 2, 1, 2), (1, 2, 1, True), (1, 2, 1, 2.0)):
            with pytest.raises(ValueError):
                window_is_consistent(auto, window)
            with pytest.raises(ValueError):
                step_window(auto, window)

    def test_window_reproduces_enumerated_colorings(self, periodic_k2):
        cases = [(n, 2, periodic_k2[n]) for n in (1, 2)]
        cases += [(n, 3, enumerate_periodic_perfect(n, 3)) for n in (1, 2)]
        for n, k, result in cases:
            for coloring, matrix in result.entries:
                auto = Automaton(n, k, matrix)
                length = auto.window_length
                window = tuple(coloring.color_at(i) for i in range(length))
                assert window_is_consistent(auto, window)
                forced = step_window(auto, window)
                assert forced == coloring.color_at(length), (n, k, coloring.word)


def _decode(window, n, k):
    """Colors at offsets 0..4n-1 of an encoded 4n-window."""
    return tuple(window // k ** (4 * n - 1 - i) % k + 1 for i in range(4 * n))


def _extension_is_perfect(window, rows):
    """Whether the window's 4n-periodic extension sees its rows at every vertex."""
    length = len(window)
    for v, color in enumerate(window):
        counts = [0] * len(rows)
        for d in range(1, length // 2, 2):
            counts[window[(v + d) % length] - 1] += 1
            counts[window[(v - d) % length] - 1] += 1
        if tuple(counts) != rows[color - 1]:
            return False
    return True


def _survives_steps(auto, window, steps):
    """Whether the walk from window takes the given number of steps without dying."""
    for _ in range(steps):
        forced = step_window(auto, window)
        if forced is None:
            return False
        window = window[1:] + (forced,)
    return True


def _generated(auto):
    """(walked starts, {leaf start: period}) from _prenecklace_windows, decoded."""
    n, k = auto.n, auto.k
    meter = WorkMeter(None, "prenecklace windows", "window digits placed")
    stats = {"pruned_dead_tap": 0}
    walked, leaves = [], {}
    for start, period in _prenecklace_windows(auto, meter, stats):
        if period is None:
            walked.append(_decode(start, n, k))
        else:
            assert _decode(start, n, k) not in leaves
            leaves[_decode(start, n, k)] = tuple(d + 1 for d in period)
    return walked, leaves


class TestThreeTapEngine:
    def test_start_windows_are_the_consistent_prenecklaces(self):
        # By a scan of all k^(4n) windows: the walked starts, without
        # repeats, are exactly the consistent prenecklaces whose 4n-periodic
        # extension is not perfect (the other pairs than K pairs) and whose
        # first 2n-1 steps do not die; the leaf cycles are exactly the
        # consistent necklaces whose extension is perfect (the K pairs),
        # each with its primitive period.
        for n, k in ((1, 2), (2, 2), (1, 3), (2, 3), (1, 4)):
            windows = list(itertools.product(range(1, k + 1), repeat=4 * n))
            for matrix in closed_candidate_matrices(n, k):
                auto = Automaton(n, k, matrix)
                walked, leaves = _generated(auto)
                assert len(walked) == len(set(walked)), (n, k, matrix)
                consistent = [
                    w for w in windows if window_is_consistent(auto, w) and is_prenecklace(w)
                ]
                k_pair = {w for w in consistent if _extension_is_perfect(w, matrix.rows)}
                assert set(walked) == {
                    w for w in consistent
                    if w not in k_pair and _survives_steps(auto, w, 2 * n - 1)
                }, (n, k, matrix)
                necklaces = {w for w in k_pair if least_rotation(w) == w}
                assert leaves == {w: primitive_period(w) for w in necklaces}, (n, k, matrix)

    def test_k_pair_necklaces_return_after_their_period(self):
        # each leaf cycle is the walk's: step_window from the start forces
        # the period's digits and is back at the start after p steps
        for n, k in ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4), (2, 4)):
            for matrix in closed_candidate_matrices(n, k):
                auto = Automaton(n, k, matrix)
                _, leaves = _generated(auto)
                for start, period in leaves.items():
                    window, forced = start, []
                    for _ in period:
                        forced.append(step_window(auto, window))
                        window = window[1:] + (forced[-1],)
                    assert window == start, (n, k, matrix, start)
                    assert tuple(forced) == period, (n, k, matrix, start)

    def test_step_window_matches_neighbor_count(self):
        # on every consistent window, the probe at offset 2n+1 sees its
        # neighbors inside the window (all but the one at 4n); the forced
        # color is the one whose deficit from the probe's row is 1, none if
        # a deficit is negative, and it makes the next window consistent
        for n, k in ((1, 2), (2, 2), (1, 3), (2, 3), (1, 4)):
            probe = 2 * n + 1
            for matrix in closed_candidate_matrices(n, k):
                auto = Automaton(n, k, matrix)
                windows = consistent_windows(auto)
                assert windows, (n, k, matrix)
                for window in windows:
                    known = [0] * k
                    for d in range(1, 2 * n, 2):
                        for p in (probe - d, probe + d):
                            if p < len(window):
                                known[window[p] - 1] += 1
                    deficits = [r - c for r, c in zip(matrix.rows[window[probe] - 1], known)]
                    expected = None if min(deficits) < 0 else deficits.index(1) + 1
                    forced = step_window(auto, window)
                    assert forced == expected, (matrix, window)
                    successors = [
                        c for c in range(1, k + 1)
                        if window_is_consistent(auto, window[1:] + (c,))
                    ]
                    assert successors == ([] if forced is None else [forced]), (matrix, window)

    def test_taps_of_consistent_windows_read_a_neighbor_count(self):
        # _tap_table stores None without computing it where r_a[o] = 0: on a
        # consistent window the step's taps (a, b, o) = (c(2n-1), c(2n+1),
        # c(0)) always have r_a[o] > 0, as c(0) is a neighbor of the vertex
        # at 2n-1, so step_window never reads those entries
        for n, k in ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4)):
            middle = 2 * n
            for matrix in closed_candidate_matrices(n, k):
                auto = Automaton(n, k, matrix)
                windows = consistent_windows(auto)
                assert windows, (n, k, matrix)
                for window in windows:
                    a, o = window[middle - 1] - 1, window[0] - 1
                    assert matrix.rows[a][o] > 0, (matrix, window)

    def test_matches_table_oracle(self, periodic_k2):
        # entries with their matrices, against the per-matrix table walk over
        # the oracle's closed set of candidate matrices: the cross-check of the K-pair leaf cycles,
        # the dead-tap cuts and the orbit fold, none of which the oracle uses
        for n, k in ((1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5)):
            result = periodic_k2[n] if k == 2 else enumerate_periodic_perfect(n, k)
            oracle = table_periodic_search(n, k, closed_candidate_matrices(n, k))
            assert result.entries == oracle.entries, (n, k)


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
        # independent check: every perfect word of period <= max_period and none extra
        for n, k, max_period in ((1, 3, 8), (2, 2, 12), (1, 4, 6), (2, 3, 7)):
            dset = DistanceSet(tuple(range(1, 2 * n, 2)))
            colors = set(range(1, k + 1))
            result = enumerate_periodic_perfect(n, k)
            direct = set()
            for length in range(1, max_period + 1):
                for w in itertools.product(sorted(colors), repeat=length):
                    if set(w) != colors:
                        continue
                    pc = PeriodicColoring(w, k)
                    if pc.word not in direct and check_perfect(pc, dset).is_perfect:
                        direct.add(pc.word)
            short = {w for w in result.words() if len(w) <= max_period}
            assert short == direct, (n, k, max_period)

    def test_count_for_three_colors_smallest(self):
        assert len(enumerate_periodic_perfect(1, 3).entries) == 14

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            enumerate_periodic_perfect(3, 3, budget=1000)
        # (2, 2): 17 matrices generated; the search spends 330 units, 289
        # window digits placed plus 41 steps walked, over the 6 searched
        assert len(enumerate_periodic_perfect(2, 2, budget=330).entries) == 18
        with pytest.raises(BudgetExceededError, match="spent 330 units"):
            enumerate_periodic_perfect(2, 2, budget=329)
        for budget in BAD_BUDGETS:
            with pytest.raises(ValueError):
                enumerate_periodic_perfect(1, 2, budget=budget)

    def test_budget_caps_candidate_matrices(self):
        # the search of (1, 4) spends 97 units, but candidate_matrices
        # generates 110 tree matrices
        assert len(enumerate_periodic_perfect(1, 4, budget=110).entries) == 54
        with pytest.raises(BudgetExceededError, match="spent 110 units .tree matrices"):
            enumerate_periodic_perfect(1, 4, budget=109)
        assert enumerate_periodic_perfect(1, 4).stats["units"] == 97

    def test_stats_report_the_units_spent(self):
        # the units spent are the least budget the search passes
        assert enumerate_periodic_perfect(2, 2).stats["units"] == 330

    def test_stats_count_leaf_cycles_and_dead_tap_cuts(self):
        # (2, 2): 8 of the 12 cycles are K-pair necklaces recorded without a
        # walk, and 7 subtrees of the other starts are cut on a dead tap
        stats = enumerate_periodic_perfect(2, 2).stats
        assert stats["cycles_found"] == 12
        assert stats["k_pair_cycles"] == 8
        assert stats["pruned_dead_tap"] == 7
        assert stats["states_followed"] == 41

    def test_rejects_invalid_sizes(self):
        for n, k in ((True, 2), (1, 2.0), (0, 2)):
            with pytest.raises(ValueError):
                enumerate_periodic_perfect(n, k)
            with pytest.raises(ValueError):
                check_conjecture(n, k)

    def test_pruned_matrices_match_unpruned(self, periodic_k2):
        # soundness of the matrix rules and of the orbit fold: the table walk
        # over every row-sum-2n matrix, with no pruning rule, K-pair leaf or
        # orbit fold, finds exactly the entries of the search
        for n, k in ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4)):
            default = periodic_k2[n] if k == 2 else enumerate_periodic_perfect(n, k)
            unpruned = table_periodic_search(n, k, all_row_sum_matrices(n, k))
            assert unpruned.entries == default.entries, (n, k)

    def test_entries_do_not_depend_on_the_orbit_member_searched(self, monkeypatch):
        # each orbit searched at its greatest conjugate instead of its least;
        # a recoloring maps cycles onto cycles, so the words and their
        # matrices are the same
        expected = {size: enumerate_periodic_perfect(*size) for size in ((2, 2), (2, 3), (1, 4))}
        candidates = enumeration.candidate_matrices

        def greatest_conjugates(n, k, budget=None):
            perms = list(itertools.permutations(range(1, k + 1)))
            return tuple(max((m.relabeled(p) for p in perms), key=lambda c: c.rows)
                         for m in candidates(n, k))

        monkeypatch.setattr(enumeration, "candidate_matrices", greatest_conjugates)
        for size, result in expected.items():
            assert enumerate_periodic_perfect(*size).entries == result.entries, size

    @pytest.mark.parametrize(
        "n, k", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5)]
    )
    def test_symmetry_flags_match_canonical_form_fold(self, n, k, periodic_k2):
        # the fold inside the search against canonical_form over every
        # unflagged entry; the flags change nothing but the entries kept
        plain = periodic_k2[n] if k == 2 and n < 5 else enumerate_periodic_perfect(n, k)
        matrix_of = {c.word: m for c, m in plain.entries}
        for reflection, colors in itertools.product((False, True), repeat=2):
            flags = dict(reflection=reflection, color_permutation=colors)
            result = enumerate_periodic_perfect(n, k, **flags)
            kept = sorted({canonical_form(w, **flags) for w in matrix_of})
            assert [(c.word, m) for c, m in result.entries] == [(w, matrix_of[w]) for w in kept]
            assert all(c.k == k for c, _ in result.entries)
            assert result.stats["colorings"] == len(result.entries)
            # units, states_followed, cycles_found, k_pair_cycles,
            # pruned_dead_tap and matrices_tried do not depend on the flags
            assert {**result.stats, "colorings": 0} == {**plain.stats, "colorings": 0}

    @pytest.mark.parametrize("n, k", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (1, 4)])
    def test_cycles_come_out_least_rotated(self, n, k):
        # the search takes each cycle's least rotation from where it was
        # found (Lyndon prefix or rotated tail) and never calls
        # least_rotation on it, so a wrong word would only cost time
        stats = {"k_pair_cycles": 0, "states_followed": 0, "pruned_dead_tap": 0}
        yielded = 0
        for matrix in closed_candidate_matrices(n, k):
            automaton = Automaton(n, k, matrix)
            for least in _cycles(automaton, WorkMeter(None, "test", "units"), stats):
                yielded += 1
                assert least == least_rotation(least) == primitive_period(least), (matrix, least)
                # the word's periodic extension is a cycle of this matrix's step map
                length = 4 * n
                word = tuple(d + 1 for d in least) * (length // len(least) + 2)
                for i in range(len(least)):
                    window = word[i : i + length]
                    assert step_window(automaton, window) == word[i + length], (matrix, least)
        assert yielded >= stats["k_pair_cycles"] > 0

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
        assert len(result.words()) == len(result.entries) == 4
        assert result.words() == {c.word for c, _ in result.entries}
