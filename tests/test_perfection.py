"""Perfection checking and the structure of perfect 2-colorings."""

import itertools
import random

import pytest

from circulant_colorings import (
    DistanceSet,
    FiniteColoring,
    ParameterMatrix,
    PerfectionVerdict,
    PeriodicColoring,
    check_perfect,
    is_bipartite_coloring,
    make_odd_distance_set,
)
from conftest import (
    k2_claims_broken,
    neighbor_color_counts,
    outer_degrees,
    parity_balanced,
    per_vertex_perfection,
    two_color_templates,
)

D2 = DistanceSet((1, 3))


class TestCheckPerfect:
    def test_three_color_example(self):
        v = check_perfect(FiniteColoring((1, 2, 1, 1, 3, 3, 2, 1), 3), D2)
        assert v.is_perfect
        assert v.matrix.rows == ((2, 1, 1), (2, 1, 1), (2, 1, 1))

    def test_four_color_example(self):
        v = check_perfect(FiniteColoring((1, 2, 3, 1, 4, 1, 2, 4, 1, 3), 4), D2)
        assert v.is_perfect
        assert v.matrix.rows == (
            (1, 1, 1, 1),
            (2, 0, 1, 1),
            (2, 1, 1, 0),
            (2, 1, 0, 1),
        )

    def test_doubled_edge_graph_examples(self):
        left = check_perfect(FiniteColoring((1, 2, 1, 1, 2, 1), 2), D2)
        right = check_perfect(FiniteColoring((1, 2, 1, 2, 1, 2), 2), D2)
        assert left.matrix.rows == ((3, 1), (2, 2))
        assert right.matrix.rows == ((0, 4), (4, 0))

    def test_witness_names_conflicting_pair(self):
        coloring = FiniteColoring((1, 1, 1, 2, 2, 2), 2)
        v = check_perfect(coloring, D2)
        assert not v.is_perfect
        u, w = v.witness
        assert coloring.word[u] == coloring.word[w]
        assert neighbor_color_counts(coloring, D2, u) != neighbor_color_counts(
            coloring, D2, w
        )

    def test_periodic_word(self):
        v = check_perfect(PeriodicColoring((1, 1, 2), 2), D2)
        assert v.is_perfect
        assert v.matrix.rows == ((3, 1), (2, 2))

    def test_periodic_not_perfect(self):
        v = check_perfect(PeriodicColoring((1, 2, 2, 2), 2), D2)
        assert not v.is_perfect

    def test_single_color(self):
        v = check_perfect(PeriodicColoring((1,), 1), D2)
        assert v.is_perfect
        assert v.matrix.rows == ((4,),)

    def test_verdict_is_truthy_iff_perfect(self):
        assert check_perfect(PeriodicColoring((1, 2), 2), D2)
        assert not check_perfect(PeriodicColoring((1, 2, 2, 2), 2), D2)

    @pytest.mark.parametrize("dset", [(0,), (1, 1), [1, 3]])
    def test_rejects_a_distance_set_that_is_not_a_distance_set(self, dset):
        # (0,) used to give a bogus "perfect" with matrix ((2, 0), (0, 2))
        for coloring in (FiniteColoring((1, 2, 1, 2, 1, 2), 2), PeriodicColoring((1, 2), 2)):
            with pytest.raises(ValueError, match="dset must be a DistanceSet"):
                check_perfect(coloring, dset)

    def test_matches_the_per_vertex_oracle(self):
        # (1, 2, 4) has loops (d = 0 mod t) at t = 1, 2, 4 and doubled edges
        # (d = -d mod t) at t = 2, 4, 8; 128 distances give 2|D| = 256, so the
        # kernel's color fields are two bytes wide.
        wide = DistanceSet(tuple(sorted(random.Random(0).sample(range(1, 1000), 128))))
        words = [
            (word, k)
            for k in (1, 2, 3)
            for t in range(1, 9)
            for word in itertools.product(range(1, k + 1), repeat=t)
            if len(set(word)) == k
        ]
        cases = [(DistanceSet((1, 2, 4)), words), (make_odd_distance_set(3), words)]
        # the wide set's oracle is 128 distances per vertex, so it gets k = 3 only to t = 5
        cases.append((wide, [(word, k) for word, k in words if k < 3 or len(word) <= 5]))
        for dset, some in cases:
            finite = [FiniteColoring(word, k) for word, k in some]
            periodic = {PeriodicColoring(word, k) for word, k in some}
            for coloring in itertools.chain(finite, periodic):
                verdict = check_perfect(coloring, dset)
                rows = verdict.matrix.rows if verdict.is_perfect else None
                got = (verdict.is_perfect, verdict.witness, rows)
                assert got == per_vertex_perfection(coloring, dset), (coloring, dset)


class TestVerdictType:
    def test_requires_matrix_xor_witness(self):
        m = ParameterMatrix(((0, 2), (2, 0)))
        with pytest.raises(ValueError):
            PerfectionVerdict(True, matrix=None, witness=None)
        with pytest.raises(ValueError):
            PerfectionVerdict(True, matrix=m, witness=(0, 1))
        with pytest.raises(ValueError):
            PerfectionVerdict(False, matrix=m, witness=None)

    def test_to_json(self):
        m = ParameterMatrix(((0, 2), (2, 0)))
        good = PerfectionVerdict(True, matrix=m).to_json()
        assert good == {"perfect": True, "matrix": [[0, 2], [2, 0]], "witness": None}
        bad = PerfectionVerdict(False, witness=(0, 3)).to_json()
        assert bad == {"perfect": False, "matrix": None, "witness": [0, 3]}


class TestBipartiteColoring:
    def test_side_disjoint_is_bipartite(self):
        assert is_bipartite_coloring(FiniteColoring((1, 2, 1, 2, 1, 2), 2), D2)
        assert is_bipartite_coloring(PeriodicColoring((1, 2), 2), DistanceSet((1,)))

    def test_shared_color_is_not(self):
        assert not is_bipartite_coloring(FiniteColoring((1, 2, 1, 1, 2, 1), 2), D2)
        assert not is_bipartite_coloring(PeriodicColoring((1, 1, 2, 2), 2), D2)

    def test_rejects_odd_order(self):
        with pytest.raises(ValueError):
            is_bipartite_coloring(FiniteColoring((1, 2, 2), 2), DistanceSet((1,)))

    def test_rejects_even_distance(self):
        # a raw tuple is refused as check_perfect refuses it, even distance or not
        for dset in (DistanceSet((2,)), (2,), (1, 3)):
            with pytest.raises(ValueError):
                is_bipartite_coloring(FiniteColoring((1, 2, 1, 2), 2), dset)


class TestEvenOddBalance:
    def test_disjoint_sides(self):
        assert parity_balanced(PeriodicColoring((1, 2), 2))

    def test_balanced_sides(self):
        assert parity_balanced(PeriodicColoring((1, 1, 2, 2), 2))

    def test_neither(self):
        assert not parity_balanced(FiniteColoring((1, 1, 1, 2), 2))

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            parity_balanced(PeriodicColoring((1, 1, 2), 2))


class TestOuterDegrees:
    def test_reads_off_diagonal(self):
        assert outer_degrees(ParameterMatrix(((3, 1), (2, 2)))) == (1, 2)

    def test_bipartite_matrix(self):
        assert outer_degrees(ParameterMatrix(((0, 4), (4, 0)))) == (4, 4)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            outer_degrees(ParameterMatrix(((2, 1, 1), (2, 1, 1), (2, 1, 1))))


class TestAdmissibleTemplates:
    def test_family_sums_and_counts(self):
        for n in (1, 2, 3, 4):
            templates = two_color_templates(n)
            assert list(templates) == [4 * n, 2 * n, 2 * n + 1, 2 * n - 1]
            assert sum(map(len, templates.values())) == 6 * n - 2
            for total, matrices in templates.items():
                for m in matrices:
                    assert m.row_sums() == (2 * n, 2 * n)
                    assert sum(outer_degrees(m)) == total

    def test_bipartite_family_is_single_matrix(self):
        assert two_color_templates(3)[12] == [ParameterMatrix(((0, 6), (6, 0)))]

    def test_smallest_case_has_empty_family(self):
        assert [len(ms) for ms in two_color_templates(1).values()] == [1, 1, 2, 0]

    def test_all_matrices_realized_distinct(self):
        seen = [m for ms in two_color_templates(2).values() for m in ms]
        assert len(seen) == len(set(seen)) == 10


def _broken(word, n):
    coloring = PeriodicColoring(word, len(set(word)))
    return k2_claims_broken(coloring, check_perfect(coloring, make_odd_distance_set(n)).matrix, n)


class TestLocalPatterns:
    def test_holds_on_exhaustive_enumeration(self, periodic_k2):
        for n in (1, 2, 3):
            for coloring, matrix in periodic_k2[n].entries:
                broken = k2_claims_broken(coloring, matrix, n)
                assert "local_patterns" not in broken, (n, coloring.word)

    def test_rejects_wrong_color_count(self):
        with pytest.raises(ValueError):
            _broken((1, 2, 3), 1)


class TestPeriodLengthClaim:
    def test_bipartite_sum_divides_two(self):
        assert "period_lengths" not in _broken((1, 2), 2)

    def test_equal_sum_divides_4n(self):
        # period 4 divides 4n = 8: divisibility, not equality
        assert "period_lengths" not in _broken((1, 1, 2, 2), 2)

    def test_odd_sums_divide_exactly(self):
        assert "period_lengths" not in _broken((1, 1, 2), 2)
        assert "period_lengths" not in _broken((1, 1, 2, 2, 2), 2)

    def test_holds_on_exhaustive_enumeration(self, periodic_k2):
        for n in (1, 2, 3):
            for coloring, matrix in periodic_k2[n].entries:
                broken = k2_claims_broken(coloring, matrix, n)
                assert "period_lengths" not in broken, (n, coloring.word)
