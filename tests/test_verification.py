"""Pullback along the covering map and completeness cross-checks."""

import pytest

from circulant_colorings import (
    DistanceSet,
    FiniteColoring,
    PeriodicColoring,
    build_induced_set,
    check_conjecture,
    check_perfect,
    check_theorem_k2,
    enumerate_perfect_finite,
    induce,
    make_odd_distance_set,
    structural_regression_suite,
)

D1 = DistanceSet((1,))
D2 = DistanceSet((1, 3))


class TestInduce:
    def test_preserves_word_and_matrix(self):
        finite = FiniteColoring((1, 2, 1, 1, 3, 3, 2, 1), 3)
        induced = induce(finite, D2)
        assert induced.word == (1, 1, 2, 1, 1, 3, 3, 2)  # rotation-normalized
        assert check_perfect(induced, D2).matrix == check_perfect(finite, D2).matrix

    def test_compresses_to_primitive_period(self):
        finite = FiniteColoring((1, 2, 1, 2, 1, 2), 2)
        assert induce(finite, D2).word == (1, 2)

    def test_rejects_non_perfect(self):
        with pytest.raises(ValueError):
            induce(FiniteColoring((1, 1, 1, 2, 2, 2), 2), D2)

    def test_every_perfect_finite_coloring_induces(self):
        for t in (2, 4, 6):
            for finite, matrix in enumerate_perfect_finite(t, D1, 2).entries:
                induced = induce(finite, D1)
                assert check_perfect(induced, D1).matrix == matrix


class TestBuildInducedSet:
    def test_smallest_case_words_and_tags(self):
        ind = build_induced_set(1, 2)
        by_word = {e.coloring.word: sorted(e.tags) for e in ind.entries}
        assert by_word == {
            (1, 2): ["from_4n", "from_4n+2", "from_4n-2", "from_path"],
            (1, 1, 2): ["from_4n+2", "from_path"],
            (1, 2, 2): ["from_4n+2", "from_path"],
            (1, 1, 2, 2): ["from_4n", "from_path"],
        }

    def test_path_family_closed_under_recoloring(self):
        ind = build_induced_set(1, 2)
        words = ind.words()
        # the recolored twin of each path word is present too
        assert (1, 1, 2) in words and (1, 2, 2) in words

    def test_entries_all_perfect_with_matrices(self):
        # Entry matrices come from the finite search and the path templates,
        # never from a re-check: check_perfect is the oracle here.
        for n, k in ((2, 2), (1, 3), (1, 4), (2, 3)):
            dset = make_odd_distance_set(n)
            for e in build_induced_set(n, k).entries:
                verdict = check_perfect(e.coloring, dset)
                assert verdict.is_perfect and verdict.matrix == e.matrix, (n, k, e)

    def test_entry_lookup(self):
        ind = build_induced_set(1, 2)
        assert ind.entry_for((1, 2)) is not None
        assert ind.entry_for((1, 2, 2, 2)) is None

    def test_tag_counts_sum(self):
        ind = build_induced_set(1, 2)
        counts = ind.tag_counts()
        assert counts["from_path"] == 4
        assert counts["from_4n"] == 2


class TestCompletenessChecks:
    def test_theorem_confirmed_smallest(self):
        report = check_theorem_k2(1)
        assert report.verdict == "confirmed" and report.confirmed
        assert report.missing == ()
        assert report.induced_not_enumerated == ()
        assert report.counts["enumerated"] == report.counts["induced"] == 4

    def test_theorem_confirmed_n2(self):
        report = check_theorem_k2(2)
        assert report.confirmed
        assert report.counts["enumerated"] == 18

    def test_conjecture_smallest_three_colors(self):
        report = check_conjecture(1, 3)
        assert report.verdict in ("confirmed", "counterexample")
        assert report.counts["enumerated"] == 14
        # every perfect coloring here comes from the path family
        assert report.counts["from_path"] == 14

    def test_report_json_shape(self):
        data = check_theorem_k2(1).to_json()
        assert set(data) == {"n", "k", "verdict", "missing", "induced_not_enumerated", "counts"}
        assert data["verdict"] == "confirmed"
        assert data["missing"] == []
        assert isinstance(data["counts"], dict)


class TestRegressionSuite:
    def test_all_checks_pass_small(self):
        report = structural_regression_suite(2)
        assert report.ok
        assert report.colorings_checked == 18
        assert set(report.checks) == {
            "outer_degree_sums",
            "local_patterns",
            "period_lengths",
            "parity_balance",
        }
        assert all(report.checks.values())
        assert all(ws == () for ws in report.witnesses.values())

    def test_json_shape(self):
        data = structural_regression_suite(1).to_json()
        assert data["n"] == 1
        assert data["colorings_checked"] == 4
        assert set(data["checks"]) == set(data["witnesses"])
