"""Acceptance gate: twelve end-to-end criteria.

Each criterion is one test that prints a single PASS or FAIL line (visible
with pytest -s).  Expected values are exact; runtime bounds are asserted
with time.perf_counter around the relevant calls only.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from circulant_colorings import (
    Automaton,
    DistanceSet,
    FiniteColoring,
    PeriodicColoring,
    admissible_matrix_templates,
    all_4n_colorings,
    all_matched_colorings,
    build_induced_set,
    canonical_form,
    check_conjecture,
    check_perfect,
    check_theorem_k2,
    enumerate_perfect_finite,
    enumerate_periodic_perfect,
    induce,
    structural_regression_suite,
    make_odd_distance_set,
    outer_degrees,
    path_colorings,
    step_window,
)
from conftest import surjective_word_count

GOLDEN = Path(__file__).parent / "golden"
D2 = DistanceSet((1, 3))


@contextmanager
def criterion(num, description):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"FAIL criterion {num:2d}: {description}")
        raise
    note = f" [{info['note']}]" if "note" in info else ""
    print(f"PASS criterion {num:2d}: {description}{note}")


@pytest.fixture(scope="module")
def induced_k7():
    return build_induced_set(2, 7)


@pytest.fixture(scope="module")
def finite_pools():
    """Perfect colorings of every finite cell with n <= 3 and k <= 3."""
    pools = []
    for n in (1, 2, 3):
        dset = make_odd_distance_set(n)
        for t in (4 * n - 2, 4 * n, 4 * n + 2):
            for k in (1, 2, 3):
                if surjective_word_count(t, k) == 0:
                    continue
                result = enumerate_perfect_finite(t, dset, k)
                pools.extend((c, m, dset) for c, m in result.entries)
    return pools


def test_criterion_01_reference_examples():
    examples = (
        ((1, 2, 1, 1, 3, 3, 2, 1), 3, ((2, 1, 1), (2, 1, 1), (2, 1, 1))),
        ((1, 2, 3, 1, 4, 1, 2, 4, 1, 3), 4,
         ((1, 1, 1, 1), (2, 0, 1, 1), (2, 1, 1, 0), (2, 1, 0, 1))),
        ((1, 2, 1, 1, 2, 1), 2, ((3, 1), (2, 2))),
        ((1, 2, 1, 2, 1, 2), 2, ((0, 4), (4, 0))),
    )
    with criterion(1, "reference example colorings verify perfect in under 1 ms each"):
        check_perfect(FiniteColoring((1, 2), 2), DistanceSet((1,)))  # warm-up
        for word, k, rows in examples:
            coloring = FiniteColoring(word, k)
            start = time.perf_counter()
            verdict = check_perfect(coloring, D2)
            elapsed = time.perf_counter() - start
            assert verdict.is_perfect, word
            assert verdict.matrix.rows == rows, word
            assert elapsed < 0.001, (word, elapsed)


def test_criterion_02_path_family_perfect_everywhere():
    with criterion(2, "path-derived periods verify perfect for k=1..5, n=1..4 in under 1 s"):
        start = time.perf_counter()
        for k in (1, 2, 3, 4, 5):
            colorings = path_colorings(k)
            assert len(colorings) == (4 if k >= 3 else (3 if k == 2 else 1))
            for n in (1, 2, 3, 4):
                dset = make_odd_distance_set(n)
                for c in colorings:
                    assert check_perfect(c, dset).is_perfect, (k, n, c.word)
        assert time.perf_counter() - start < 1.0


def test_criterion_03_outer_degree_sums():
    with criterion(3, "2-coloring outer degree sums land in {4n, 2n, 2n+1, 2n-1}, "
                      "all feasible sums realized, n=1..4") as info:
        start = time.perf_counter()
        for n in (1, 2, 3, 4):
            result = enumerate_periodic_perfect(n, 2)
            allowed = {4 * n, 2 * n, 2 * n + 1, 2 * n - 1}
            feasible = {f.bc_sum for f in admissible_matrix_templates(n) if f.matrices()}
            realized = set()
            for coloring, matrix in result.entries:
                degs = outer_degrees(matrix, n)
                assert degs.b + degs.c in allowed, (n, coloring.word)
                realized.add(degs.b + degs.c)
            assert realized == feasible, (n, realized, feasible)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        info["note"] = f"{elapsed:.2f}s"


def test_criterion_04_structural_regression_suite():
    with criterion(4, "structural regression suite passes with zero witnesses for n=1..4"):
        for n in (1, 2, 3, 4):
            report = structural_regression_suite(n)
            assert report.ok, (n, report.checks)
            assert all(ws == () for ws in report.witnesses.values()), (n, report.witnesses)


def test_criterion_05_two_color_completeness():
    with criterion(5, "exhaustive search equals induced candidates for k=2, n=1..3, "
                      "under 60 s") as info:
        start = time.perf_counter()
        counts = []
        for n in (1, 2, 3):
            report = check_theorem_k2(n)
            assert report.verdict == "confirmed", (n, report.missing)
            assert report.induced_not_enumerated == (), n
            counts.append(report.counts["enumerated"])
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        info["note"] = f"counts {counts}, {elapsed:.2f}s"


def test_criterion_06_smallest_case_ground_truth():
    with criterion(6, "smallest case yields exactly the three classes up to recoloring"):
        result = enumerate_periodic_perfect(1, 2)
        folded = {canonical_form(w, color_permutation=True) for w in result.words()}
        expected = {
            canonical_form(w, color_permutation=True)
            for w in ((1, 2), (2, 1, 2), (2, 1, 1, 2))
        }
        assert folded == expected
        assert len(expected) == 3


def test_criterion_07_golden_cross_check():
    with criterion(7, "two-color families on the order-6 and order-10 graphs match "
                      "frozen golden counts"):
        for name, t in (("two_color_ci6_d2.json", 6), ("two_color_ci10_d2.json", 10)):
            golden = json.loads((GOLDEN / name).read_text())
            assert golden["t"] == t and golden["k"] == 2
            golden_words = {tuple(w) for w in golden["words"]}
            assert len(golden_words) == golden["count"]
            enumerated = enumerate_perfect_finite(t, D2, 2).words()
            constructed = {c.word for c in all_matched_colorings(2, t, 2)}
            assert enumerated == golden_words, t
            assert constructed == golden_words, t


def test_criterion_08_constructor_completeness():
    with criterion(8, "construction drivers equal exhaustive search at n=2, k=2..3, "
                      "under 60 s") as info:
        start = time.perf_counter()
        for k in (2, 3):
            assert {c.word for c in all_4n_colorings(2, k)} == enumerate_perfect_finite(
                8, D2, k
            ).words(), ("t=8", k)
            for t in (6, 10):
                assert {
                    c.word for c in all_matched_colorings(2, t, k)
                } == enumerate_perfect_finite(t, D2, k).words(), (t, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        info["note"] = f"{elapsed:.2f}s"


def test_criterion_09_infinite_only_coloring(induced_k7):
    with criterion(9, "the 7-color rainbow period is perfect on the infinite graph but "
                      "induced by no finite quotient"):
        rainbow = PeriodicColoring(tuple(range(1, 8)), 7)
        assert check_perfect(rainbow, D2).is_perfect
        entry = {e.coloring.word: e for e in induced_k7.entries}.get(rainbow.word)
        assert entry is not None
        assert entry.tags == frozenset({"from_path"})
        finite_tagged = {
            e.coloring.word
            for e in induced_k7.entries
            if e.tags & {"from_4n-2", "from_4n", "from_4n+2"}
        }
        assert rainbow.word not in finite_tagged


def test_criterion_10_pullback_preserves_matrices(finite_pools):
    with criterion(10, "1000 sampled perfect finite colorings pull back with their "
                       "matrices unchanged") as info:
        rng = random.Random(20260819)
        assert finite_pools
        for _ in range(1000):
            coloring, matrix, dset = finite_pools[rng.randrange(len(finite_pools))]
            lifted = induce(coloring, dset)
            verdict = check_perfect(lifted, dset)
            assert verdict.is_perfect
            assert verdict.matrix == matrix, (coloring.word, dset.distances)
        info["note"] = f"pool size {len(finite_pools)}"


def test_criterion_11_window_determinism(periodic_k2):
    with criterion(11, "every window of every enumerated coloring replays it exactly "
                       "for three periods, n=1..3"):
        for n in (1, 2, 3):
            for coloring, matrix in periodic_k2[n].entries:
                automaton = Automaton(n, 2, matrix)
                length = automaton.window_length
                period = coloring.period
                for phase in range(period):
                    window = tuple(coloring.color_at(phase + i) for i in range(length))
                    for step in range(3 * period):
                        forced = step_window(automaton, window)
                        expected = coloring.color_at(phase + length + step)
                        assert forced == expected, (n, coloring.word, phase, step)
                        window = window[1:] + (forced,)


def test_criterion_12_three_color_exploration():
    with criterion(12, "three-color completeness check at n=2 finishes under default "
                       "budgets with a well-formed report") as info:
        report = check_conjecture(2, 3)
        data = report.to_json()
        assert set(data) == {"n", "k", "verdict", "missing", "induced_not_enumerated", "counts"}
        assert data["n"] == 2 and data["k"] == 3
        assert report.verdict in ("confirmed", "counterexample")
        assert report.counts["enumerated"] >= 0
        assert isinstance(report.missing, tuple)
        # the verdict is recorded, not asserted
        info["note"] = f"verdict: {report.verdict}, enumerated {report.counts['enumerated']}"
