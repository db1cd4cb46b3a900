"""Domain model: distance sets, graphs, colorings, matrices, JSON."""

import itertools
import math
import random

import pytest

import circulant_colorings
from circulant_colorings import (
    BudgetExceededError,
    DistanceSet,
    FiniteColoring,
    ParameterMatrix,
    PeriodicColoring,
    all_4n_colorings,
    all_matched_colorings,
    build_induced_set,
    candidate_matrices,
    coloring_from_json,
    coloring_to_json,
    enumerate_perfect_finite,
    enumerate_periodic_perfect,
    least_rotation,
    make_odd_distance_set,
    neighbor_offsets,
    primitive_period,
)
from conftest import edge_multiset_adjacency, neighbor_color_counts, oracle_counts


class TestDistanceSet:
    def test_accepts_increasing_positive(self):
        assert DistanceSet((1, 3, 5)).distances == (1, 3, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DistanceSet((0, 2))
        with pytest.raises(ValueError):
            DistanceSet((-1,))
        with pytest.raises(ValueError):
            DistanceSet((1.5,))
        with pytest.raises(ValueError):
            DistanceSet((True, 3))

    def test_rejects_unsorted_or_repeated(self):
        with pytest.raises(ValueError):
            DistanceSet((3, 1))
        with pytest.raises(ValueError):
            DistanceSet((1, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DistanceSet(())

    def test_make_odd_distance_set(self):
        assert make_odd_distance_set(1).distances == (1,)
        assert make_odd_distance_set(3).distances == (1, 3, 5)
        for n in (0, True, 2.0):
            with pytest.raises(ValueError):
                make_odd_distance_set(n)


class TestNeighborOffsets:
    def test_infinite_symmetric(self):
        assert neighbor_offsets(DistanceSet((1, 3))) == (-3, -1, 1, 3)

    def test_finite_collision_doubles(self):
        # 3 == -3 mod 6, so distance 3 contributes the offset twice
        assert neighbor_offsets(DistanceSet((1, 3)), 6) == (1, 3, 3, 5)

    def test_finite_no_collision(self):
        assert neighbor_offsets(DistanceSet((1, 3)), 8) == (1, 3, 5, 7)

    def test_loop_offset(self):
        # 2 == 0 mod 2: a loop at every vertex, counted twice
        assert neighbor_offsets(DistanceSet((2,)), 2) == (0, 0)

    def test_rejects_non_integer_order(self):
        for t in (0, 6.7, 6.0, True, math.inf):
            with pytest.raises(ValueError):
                neighbor_offsets(DistanceSet((1, 3)), t)

    def test_neighbors_match_edge_multiset(self):
        for t, dists in ((6, (1, 3)), (8, (1, 3)), (2, (1,)), (10, (1, 3, 5))):
            offsets = neighbor_offsets(DistanceSet(dists), t)
            adj = edge_multiset_adjacency(t, dists)
            for v in range(t):
                assert sorted((v + o) % t for o in offsets) == adj[v], (t, dists, v)


class TestColoringValidation:
    def test_colors_must_start_at_one(self):
        with pytest.raises(ValueError):
            FiniteColoring((0, 1), 2)

    def test_colors_must_be_onto(self):
        with pytest.raises(ValueError):
            FiniteColoring((1, 1, 1), 2)
        with pytest.raises(ValueError):
            PeriodicColoring((2, 2), 2)

    def test_colors_within_range(self):
        with pytest.raises(ValueError):
            FiniteColoring((1, 2, 3), 2)
        with pytest.raises(ValueError):
            FiniteColoring((True, 2), 2)
        with pytest.raises(ValueError):
            PeriodicColoring((1, 2.0), 2)
        with pytest.raises(ValueError):
            FiniteColoring((1,), True)

    def test_length_is_t(self):
        assert FiniteColoring((1, 2, 1, 2), 2).t == 4


class TestWordNormalization:
    def test_primitive_period(self):
        assert primitive_period((1, 2, 1, 2)) == (1, 2)
        assert primitive_period((1, 1, 1)) == (1,)
        assert primitive_period((1, 2, 3)) == (1, 2, 3)
        assert primitive_period((1, 2, 2, 1, 2, 2)) == (1, 2, 2)

    def test_empty_word_has_no_period(self):
        with pytest.raises(ValueError):
            primitive_period(())

    def test_least_rotation(self):
        assert least_rotation((2, 1, 2)) == (1, 2, 2)
        assert least_rotation((3, 1, 2)) == (1, 2, 3)
        assert least_rotation((1,)) == (1,)

    def test_least_rotation_matches_every_rotation(self):
        # only rotations starting at the least letter are compared; the
        # oracle compares them all
        rng = random.Random(20261019)
        for _ in range(500):
            k = rng.randint(1, 4)
            word = tuple(rng.randint(1, k) for _ in range(rng.randint(1, 12)))
            assert least_rotation(word) == min(word[i:] + word[:i] for i in range(len(word)))

    def test_periodic_coloring_canonicalizes(self):
        a = PeriodicColoring((2, 1, 2, 2, 1, 2), 2)
        assert a.word == (1, 2, 2)
        assert a.period == 3
        assert a == PeriodicColoring((1, 2, 2), 2)

    def test_color_at_wraps_both_directions(self):
        c = PeriodicColoring((1, 2, 2), 2)
        assert [c.color_at(i) for i in range(-3, 4)] == [1, 2, 2, 1, 2, 2, 1]


class TestNeighborColorCounts:
    def test_finite_matches_oracle(self):
        word = (1, 2, 1, 1, 3, 3, 2, 1)
        coloring = FiniteColoring(word, 3)
        dset = DistanceSet((1, 3))
        adj = edge_multiset_adjacency(8, (1, 3))
        for v in range(8):
            assert neighbor_color_counts(coloring, dset, v) == oracle_counts(word, adj, 3, v)

    def test_finite_collision_case(self):
        coloring = FiniteColoring((1, 2, 1, 2, 1, 2), 2)
        dset = DistanceSet((1, 3))
        adj = edge_multiset_adjacency(6, (1, 3))
        for v in range(6):
            assert neighbor_color_counts(coloring, dset, v) == oracle_counts(
                coloring.word, adj, 2, v
            )

    def test_periodic_counts(self):
        c = PeriodicColoring((1, 1, 2), 2)
        d = DistanceSet((1, 3))
        # vertex 0: neighbors at -3, -1, 1, 3 have colors 1, 2, 1, 1
        assert neighbor_color_counts(c, d, 0) == (3, 1)
        assert neighbor_color_counts(c, d, 2) == (2, 2)

    def test_periodic_invariant_under_period_shift(self):
        c = PeriodicColoring((1, 1, 2, 2, 2), 2)
        d = DistanceSet((1, 3))
        for v in range(5):
            assert neighbor_color_counts(c, d, v) == neighbor_color_counts(c, d, v + 5)


class TestParameterMatrix:
    def test_requires_square(self):
        with pytest.raises(ValueError):
            ParameterMatrix(((1, 2), (3,)))

    def test_requires_nonnegative(self):
        with pytest.raises(ValueError):
            ParameterMatrix(((1, -1), (0, 2)))
        with pytest.raises(ValueError):
            ParameterMatrix(((True, 1), (1, 1)))

    def test_row_sums(self):
        m = ParameterMatrix(((2, 1, 1), (2, 1, 1), (2, 1, 1)))
        assert m.row_sums() == (4, 4, 4)
        assert m.k == 3

    def test_relabeled_conjugates(self):
        m = ParameterMatrix(((3, 1), (2, 2)))
        swapped = m.relabeled((2, 1))
        assert swapped.rows == ((2, 2), (1, 3))

    def test_relabeled_matches_explicit_conjugation(self):
        # relabeled skips the constructor's validation; the oracle builds
        # each conjugate entry by entry through the validated constructor
        rng = random.Random(20261019)
        for k in (1, 2, 4):
            for _ in range(5):
                rows = tuple(tuple(rng.randint(0, 5) for _ in range(k)) for _ in range(k))
                matrix = ParameterMatrix(rows)
                for target in itertools.permutations(range(1, k + 1)):
                    out = [[0] * k for _ in range(k)]
                    for i, j in itertools.product(range(k), repeat=2):
                        out[target[i] - 1][target[j] - 1] = rows[i][j]
                    conjugate = matrix.relabeled(target)
                    assert conjugate == ParameterMatrix(out), (rows, target)
                    assert hash(conjugate) == hash(ParameterMatrix(out))
                    # row c of the conjugate is the row of the color sent to c
                    assert conjugate.row_sums() == tuple(
                        matrix.row_sums()[target.index(c)] for c in range(1, k + 1)
                    )

    def test_relabeled_rejects_non_permutations(self):
        matrix = ParameterMatrix(((1, 2), (3, 4)))
        for bad in ((1, 1), (1,), (1, 2, 3), (0, 1), (2, 3), (True, 2), (2.0, 1), ("a", 1)):
            with pytest.raises(ValueError):
                matrix.relabeled(bad)

    def test_to_lists(self):
        assert ParameterMatrix(((0, 2), (2, 0))).to_lists() == [[0, 2], [2, 0]]


class TestJsonRoundTrip:
    def test_finite(self):
        c = FiniteColoring((1, 2, 1, 1, 3, 3, 2, 1), 3)
        d = DistanceSet((1, 3))
        data = coloring_to_json(c, d)
        back, dset = coloring_from_json(data)
        assert back == c and dset == d

    def test_periodic(self):
        c = PeriodicColoring((1, 1, 2, 2), 2)
        d = DistanceSet((1,))
        data = coloring_to_json(c, d)
        back, dset = coloring_from_json(data)
        assert back == c and dset == d
        assert data["kind"] == "periodic"

    def test_rejects_bad_kind(self):
        c = FiniteColoring((1, 2), 2)
        data = coloring_to_json(c, DistanceSet((1,)))
        data["kind"] = "mystery"
        with pytest.raises(ValueError):
            coloring_from_json(data)

    def test_rejects_inconsistent_word(self):
        c = FiniteColoring((1, 2), 2)
        data = coloring_to_json(c, DistanceSet((1,)))
        data["word"] = [1, 0]
        with pytest.raises(ValueError):
            coloring_from_json(data)

    def test_rejects_missing_key_or_non_dict(self):
        data = coloring_to_json(FiniteColoring((1, 2), 2), DistanceSet((1,)))
        del data["k"]
        for record in (data, [1, 2], None):
            with pytest.raises(ValueError, match="malformed coloring record"):
                coloring_from_json(record)

    def test_rejects_length_other_than_word_length(self):
        data = coloring_to_json(FiniteColoring((1, 2), 2), DistanceSet((1,)))
        data["t_or_period"] = 3
        with pytest.raises(ValueError, match="does not match word length 2"):
            coloring_from_json(data)

    def test_rejects_empty_word(self):
        for kind in ("finite", "periodic"):
            data = {"kind": kind, "t_or_period": 0, "k": 1, "word": [], "distances": [1]}
            with pytest.raises(ValueError, match="must be nonempty"):
                coloring_from_json(data)

    def test_rejects_non_integer_length(self):
        # True == 1 and 2.0 == 2 would pass a bare length comparison
        for length, word in ((True, [1]), (2.0, [1, 2])):
            data = {"kind": "finite", "t_or_period": length, "k": max(word),
                    "word": word, "distances": [1]}
            with pytest.raises(ValueError):
                coloring_from_json(data)


@pytest.mark.parametrize(
    "search, search_name, unit, spent, budget",
    [
        (lambda b: enumerate_perfect_finite(30, DistanceSet((1,)), 2, budget=b),
         "finite search for t=30, k=2", "vertices colored plus k! per perfect partition", 384, 383),
        (lambda b: candidate_matrices(1, 3, budget=b),
         "matrix generation for n=1, k=3", "tree matrices generated", 22, 21),
        (lambda b: enumerate_periodic_perfect(2, 2, budget=b),
         "periodic search for n=2, k=2", "window digits placed plus steps walked", 330, 329),
        (lambda b: all_4n_colorings(1, 2, budget=b),
         "balanced driver for n=1, k=2", "part words plus colorings built", 10, 9),
        (lambda b: all_matched_colorings(1, 2, 2, budget=b),
         "matched driver for n=1, t=2, k=2", "part words plus colorings built", 4, 3),
    ],
)
def test_every_search_refuses_in_the_one_budget_format(search, search_name, unit, spent, budget):
    with pytest.raises(BudgetExceededError) as info:
        search(budget)
    assert str(info.value) == (
        f"{search_name} spent {spent} units ({unit}), passing the budget of {budget}"
    )


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        missing = [
            name for name in circulant_colorings.__all__
            if not hasattr(circulant_colorings, name)
        ]
        assert missing == []

    def test_per_coloring_values_have_no_instance_dict(self):
        # searches hold one of each per coloring found, so each is slotted
        entry = build_induced_set(1, 2).entries[0]
        values = (FiniteColoring((1, 2), 2), entry, entry.coloring, entry.matrix)
        assert [hasattr(v, "__dict__") for v in values] == [False] * 4
