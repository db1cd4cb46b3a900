"""Pullback along the covering map and completeness cross-checks."""

import pytest

from circulant_colorings import (
    BudgetExceededError,
    DistanceSet,
    EnumerationResult,
    FiniteColoring,
    ParameterMatrix,
    PeriodicColoring,
    build_induced_set,
    check_conjecture,
    check_perfect,
    check_theorem_k2,
    enumerate_perfect_finite,
    enumerate_periodic_perfect,
    induce,
    make_odd_distance_set,
)
from circulant_colorings import cli, verification
from conftest import finite_route_report, k2_claims_broken

D1 = DistanceSet((1,))
D2 = DistanceSet((1, 3))

# (n, k) small enough for the three finite searches of the finite route
FINITE_ROUTE_SIZES = [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5)]


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

    @pytest.mark.parametrize("dset", [(0,), (1, 1), [1, 3]])
    def test_rejects_a_distance_set_that_is_not_a_distance_set(self, dset):
        with pytest.raises(ValueError, match="dset must be a DistanceSet"):
            induce(FiniteColoring((1, 2, 1, 2, 1, 2), 2), dset)

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

    def test_one_budget_reaches_every_search(self, monkeypatch):
        received = []

        def recording(search):
            def wrapper(*args, **kwargs):
                received.append((search.__name__, kwargs["budget"]))
                return search(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            verification, "enumerate_perfect_finite", recording(enumerate_perfect_finite)
        )
        monkeypatch.setattr(
            verification, "enumerate_periodic_perfect", recording(enumerate_periodic_perfect)
        )
        # the verdict path runs one periodic search and no finite search
        assert check_conjecture(1, 2, budget=1000).confirmed
        assert received == [("enumerate_periodic_perfect", 1000)]
        received.clear()
        assert check_theorem_k2(1, budget=1000).confirmed
        assert received == [("enumerate_periodic_perfect", 1000)]
        received.clear()
        # the finite route runs its three finite searches (t = 2, 4, 6)
        build_induced_set(1, 2, budget=1000)
        assert received == [("enumerate_perfect_finite", 1000)] * 3
        with pytest.raises(BudgetExceededError):
            check_conjecture(1, 2, budget=5)
        for budget in (2.5, True, 0, "x"):
            with pytest.raises(ValueError):
                check_conjecture(1, 2, budget=budget)

    @pytest.mark.parametrize("n, k", FINITE_ROUTE_SIZES)
    def test_matches_finite_route(self, n, k):
        assert check_conjecture(n, k).to_json() == finite_route_report(n, k).to_json()

    @pytest.mark.parametrize("n, k", FINITE_ROUTE_SIZES)
    def test_period_tags_match_induced_set(self, n, k):
        # the shared rule on the periodic entries gives build_induced_set's
        # words, matrices and tags
        dset = make_odd_distance_set(n)
        tagger = verification._tagger(n, verification._path_family(dset, k))
        tagged = []
        for coloring, matrix in enumerate_periodic_perfect(n, k).entries:
            tags = frozenset(tagger(coloring))
            if tags:
                tagged.append((coloring.word, matrix, tags))
        induced = [(e.coloring.word, e.matrix, e.tags) for e in build_induced_set(n, k).entries]
        assert tagged == induced

    def test_counterexample_reported(self, monkeypatch, capsys):
        search = enumerate_periodic_perfect
        # period 5 divides none of 2, 4, 6, and no path word has it at k = 2
        stray = PeriodicColoring((1, 1, 1, 2, 2), 2)

        def with_stray(n, k, budget=None):
            result = search(n, k, budget=budget)
            return EnumerationResult(result.entries + ((stray, result.entries[0][1]),))

        monkeypatch.setattr(verification, "enumerate_periodic_perfect", with_stray)
        report = check_conjecture(1, 2)
        assert report.verdict == "counterexample" and not report.confirmed
        assert report.missing == (stray.word,)
        assert report.induced_not_enumerated == ()
        assert (report.counts["enumerated"], report.counts["induced"]) == (5, 4)
        assert cli.main(["check", "--n", "1", "--k", "2"]) == 1
        assert '"verdict": "counterexample"' in capsys.readouterr().out

    def test_induced_not_enumerated_reported(self, monkeypatch):
        search = enumerate_periodic_perfect

        def without_112(n, k, budget=None):
            entries = search(n, k, budget=budget).entries
            return EnumerationResult(tuple(e for e in entries if e[0].word != (1, 1, 2)))

        monkeypatch.setattr(verification, "enumerate_periodic_perfect", without_112)
        report = check_conjecture(1, 2)
        assert report.induced_not_enumerated == ((1, 1, 2),)
        assert report.missing == () and report.confirmed
        assert (report.counts["enumerated"], report.counts["induced"]) == (3, 4)
        assert report.counts["from_path"] == 4

    def test_report_json_shape(self):
        data = check_theorem_k2(1).to_json()
        assert set(data) == {"n", "k", "verdict", "missing", "induced_not_enumerated", "counts"}
        assert data["verdict"] == "confirmed"
        assert data["missing"] == []
        assert isinstance(data["counts"], dict)


def _class_matrix_relabeled(coloring, dset):
    """The matrix of a coloring's class, relabeled to the coloring: the class
    is the partition of its word, labeled in order of first appearance."""
    first = list(dict.fromkeys(coloring.word))
    base = type(coloring)(tuple(first.index(c) + 1 for c in coloring.word), coloring.k)
    return check_perfect(base, dset).matrix.relabeled(tuple(first))


def _rows_shared(matrices) -> bool:
    rows = [row for matrix in matrices for row in matrix.rows]
    return len({id(row) for row in rows}) == len(set(rows))


class TestRelabelExpansion:
    def test_matrices_are_relabeled_class_matrices_with_shared_rows(self):
        finite = enumerate_perfect_finite(8, D2, 7, rotation=True)
        periodic = enumerate_periodic_perfect(1, 4)
        for result, dset, count in ((finite, D2, 7560), (periodic, D1, 54)):
            assert len(result.entries) == count
            for coloring, matrix in result.entries:
                assert matrix == _class_matrix_relabeled(coloring, dset), coloring.word
            assert _rows_shared(m for _, m in result.entries)

    def test_induced_set_matrices_are_relabeled_class_matrices(self):
        # each finite search and the path family keep one row table each, so
        # rows are shared within the matrices of each source: the first
        # order whose search returns the word, or the path family
        n, k = 2, 4
        dset = make_odd_distance_set(n)
        by_source = {}
        for e in build_induced_set(n, k).entries:
            assert e.matrix == _class_matrix_relabeled(e.coloring, dset), e.coloring.word
            orders = [t for t in (4 * n - 2, 4 * n, 4 * n + 2) if t % e.coloring.period == 0]
            by_source.setdefault(orders[0] if orders else 0, []).append(e.matrix)
        assert sorted(by_source) == [0, 6, 8, 10]
        assert all(_rows_shared(matrices) for matrices in by_source.values())

    def test_equal_tag_sets_are_one_frozenset(self):
        entries = build_induced_set(2, 4).entries
        assert len({id(e.tags) for e in entries}) == len({e.tags for e in entries}) == 5

    def test_path_matrices_built_only_where_kept(self, monkeypatch):
        built = []
        conjugator = verification._conjugator

        def counting(new_color_of, shared):
            conjugate = conjugator(new_color_of, shared)

            def counted(rows):
                built.append(new_color_of)
                return conjugate(rows)

            return counted

        monkeypatch.setattr(verification, "_conjugator", counting)
        assert check_conjecture(1, 5).confirmed
        assert built == []
        entries = build_induced_set(1, 4).entries
        path_only = [e for e in entries if e.tags == {"from_path"}]
        assert len(path_only) == len(built) == 36


class TestRegressionSuite:
    def test_all_checks_pass_small(self, periodic_k2):
        assert [len(periodic_k2[n].entries) for n in (1, 2)] == [4, 18]
        for coloring, matrix in periodic_k2[2].entries:
            assert k2_claims_broken(coloring, matrix, 2) == [], coloring.word
        # the check is not vacuous: a word and matrix no perfect coloring has
        fake = PeriodicColoring((1, 1, 1, 1, 1, 2), 2), ParameterMatrix(((0, 5), (0, 0)))
        assert k2_claims_broken(*fake, 1) == [
            "outer_degree_sums",
            "local_patterns",
            "period_lengths",
            "parity_balance",
        ]
