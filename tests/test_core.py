"""Domain model: distance sets, graphs, colorings, matrices, JSON."""

import pytest

from circulant_colorings import (
    DistanceSet,
    FiniteCirculant,
    FiniteColoring,
    ParameterMatrix,
    PeriodicColoring,
    coloring_from_json,
    coloring_to_json,
    covering_reduction,
    least_rotation,
    make_odd_distance_set,
    neighbor_color_counts,
    neighbor_offsets,
    primitive_period,
    verify_covering,
)
from conftest import edge_multiset_adjacency, oracle_counts


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

    def test_odd_continuous(self):
        assert DistanceSet((1,)).is_odd_continuous()
        assert DistanceSet((1, 3, 5)).is_odd_continuous()
        assert not DistanceSet((1, 5)).is_odd_continuous()
        assert not DistanceSet((3,)).is_odd_continuous()
        assert not DistanceSet((1, 2)).is_odd_continuous()

    def test_make_odd_distance_set(self):
        assert make_odd_distance_set(1).distances == (1,)
        assert make_odd_distance_set(3).distances == (1, 3, 5)
        with pytest.raises(ValueError):
            make_odd_distance_set(0)


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


class TestFiniteCirculant:
    def test_degree_counts_multiplicity(self):
        g = FiniteCirculant(6, DistanceSet((1, 3)))
        assert g.degree == 4

    def test_neighbors_match_edge_multiset(self):
        for t, dists in ((6, (1, 3)), (8, (1, 3)), (2, (1,)), (10, (1, 3, 5))):
            g = FiniteCirculant(t, DistanceSet(dists))
            adj = edge_multiset_adjacency(t, dists)
            for v in range(t):
                assert sorted(g.neighbors(v)) == adj[v], (t, dists, v)

    def test_edge_count(self):
        g = FiniteCirculant(6, DistanceSet((1, 3)))
        assert len(g.edges()) == 12


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

    def test_least_rotation(self):
        assert least_rotation((2, 1, 2)) == (1, 2, 2)
        assert least_rotation((3, 1, 2)) == (1, 2, 3)
        assert least_rotation((1,)) == (1,)

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


class TestCovering:
    def test_reduction(self):
        assert covering_reduction(7, 6) == 1
        assert covering_reduction(-1, 6) == 5

    def test_reduction_preserves_adjacency_counts(self):
        for t in (2, 4, 6, 8, 10):
            assert verify_covering(DistanceSet((1, 3)), t)
        assert verify_covering(DistanceSet((1,)), 2)


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
