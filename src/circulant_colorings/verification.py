"""Cross-checks between construction, induction, and exhaustive search.

A perfect coloring of the finite graph Ci_t(D) pulls back along the covering
map i -> i mod t to a perfect coloring of the infinite graph Ci(D) with the
same parameter matrix.  Running the known constructions on the three small
orders 4n-2, 4n, 4n+2, pulling everything back, and adding the diagonal-path
family yields a candidate list that exhaustive search over the infinite graph
can be compared against: the comparison confirms (or refutes, with explicit
missing colorings) that the candidate list is complete for given n and k.

No candidate is checked twice: a pullback keeps the matrix the finite search
attached to it, since the covering map preserves neighbor counts, and the
path family's matrices are the path templates' matrices relabeled.
"""

from dataclasses import dataclass
from itertools import permutations

from .core import (
    DistanceSet,
    FiniteColoring,
    ParameterMatrix,
    PeriodicColoring,
    make_odd_distance_set,
)
from .perfection import (
    check_even_odd_balance,
    check_local_patterns,
    check_perfect,
    check_period_length_claim,
    is_bipartite_coloring,
    outer_degrees,
)
from .constructors import path_colorings
from .enumeration import (
    EnumerationResult,
    enumerate_perfect_finite,
    enumerate_periodic_perfect,
)

TAG_PATH = "from_path"
TAG_4N_MINUS_2 = "from_4n-2"
TAG_4N = "from_4n"
TAG_4N_PLUS_2 = "from_4n+2"


def induce(coloring: FiniteColoring, dset: DistanceSet) -> PeriodicColoring:
    """Pull a perfect coloring of Ci_t(D) back to the infinite graph.

    The covering map preserves neighbor color counts vertex by vertex, so the
    result is perfect with the same matrix.  Raises ValueError when the given
    finite coloring is not perfect (there is nothing to pull back).
    """
    verdict = check_perfect(coloring, dset)
    if not verdict.is_perfect:
        raise ValueError(
            f"coloring is not perfect on distances {dset.distances}; "
            f"witness vertices {verdict.witness} disagree"
        )
    return PeriodicColoring(coloring.word, coloring.k)


@dataclass(frozen=True)
class InducedEntry:
    """One candidate periodic coloring with the finite orders that yield it."""

    coloring: PeriodicColoring
    matrix: ParameterMatrix
    tags: frozenset[str]


@dataclass(frozen=True)
class InducedSet:
    """Candidate perfect colorings of Ci(D_n) from constructions and pullback."""

    n: int
    k: int
    entries: tuple[InducedEntry, ...]

    def words(self) -> set[tuple[int, ...]]:
        return {e.coloring.word for e in self.entries}

    def entry_for(self, word: tuple[int, ...]) -> InducedEntry | None:
        for e in self.entries:
            if e.coloring.word == word:
                return e
        return None

    def tag_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.entries:
            for tag in sorted(e.tags):
                counts[tag] = counts.get(tag, 0) + 1
        return counts


def build_induced_set(n: int, k: int, word_budget: int | None = None) -> InducedSet:
    """Candidate colorings of Ci(D_n): pullbacks from orders 4n-2, 4n, 4n+2
    plus the diagonal-path family, deduplicated with source tags merged.

    The path family is every recoloring of the path templates, so it is a
    union of full color orbits.  Each entry's matrix is the one the finite
    search found for a pulled-back coloring, or a template's matrix
    conjugated by the recoloring; check_perfect runs once per template.
    """
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be >= 1, got n={n}, k={k}")
    dset = make_odd_distance_set(n)
    found: dict[tuple[int, ...], tuple[PeriodicColoring, ParameterMatrix, set[str]]] = {}

    def add(word: tuple[int, ...], matrix: ParameterMatrix, tag: str):
        coloring = PeriodicColoring(word, k)
        found.setdefault(coloring.word, (coloring, matrix, set()))[2].add(tag)

    for t, tag in (
        (4 * n - 2, TAG_4N_MINUS_2),
        (4 * n, TAG_4N),
        (4 * n + 2, TAG_4N_PLUS_2),
    ):
        result = enumerate_perfect_finite(t, dset, k, word_budget=word_budget)
        for finite, matrix in result.entries:
            add(finite.word, matrix, tag)
    for template in path_colorings(k):
        matrix = check_perfect(template, dset).matrix
        for target in permutations(range(1, k + 1)):
            word = tuple(target[c - 1] for c in template.word)
            add(word, matrix.relabeled(target), TAG_PATH)

    entries = tuple(
        InducedEntry(coloring, matrix, frozenset(tags))
        for _, (coloring, matrix, tags) in sorted(found.items())
    )
    return InducedSet(n, k, entries)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of comparing exhaustive search against the candidate list."""

    n: int
    k: int
    verdict: str
    missing: tuple[tuple[int, ...], ...]
    induced_not_enumerated: tuple[tuple[int, ...], ...]
    counts: dict

    @property
    def confirmed(self) -> bool:
        return self.verdict == "confirmed"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "verdict": self.verdict,
            "missing": [list(w) for w in self.missing],
            "induced_not_enumerated": [list(w) for w in self.induced_not_enumerated],
            "counts": dict(self.counts),
        }


def _compare(
    n: int,
    k: int,
    enumerated: EnumerationResult,
    induced: InducedSet,
) -> CheckReport:
    enumerated_words = enumerated.words()
    induced_words = induced.words()
    missing = tuple(sorted(enumerated_words - induced_words))
    extra = tuple(sorted(induced_words - enumerated_words))
    counts = {
        "enumerated": len(enumerated_words),
        "induced": len(induced_words),
        **induced.tag_counts(),
    }
    verdict = "confirmed" if not missing else "counterexample"
    return CheckReport(n, k, verdict, missing, extra, counts)


def check_theorem_k2(
    n: int,
    state_budget: int | None = None,
    word_budget: int | None = None,
) -> CheckReport:
    """Confirm that every perfect 2-coloring of Ci(D_n) is induced.

    Exhausts the infinite graph over the admissible 2 x 2 matrices and
    compares against the candidate list; verdict is "confirmed" when no
    enumerated coloring is missing from it.
    """
    return check_conjecture(n, 2, state_budget, word_budget)


def check_conjecture(
    n: int,
    k: int,
    state_budget: int | None = None,
    word_budget: int | None = None,
) -> CheckReport:
    """Test whether every perfect k-coloring of Ci(D_n) is induced.

    Same comparison as the 2-color check but over all row-sum-2n candidate
    matrices.  A "counterexample" verdict lists the colorings the candidate
    list fails to produce; it is reported, never asserted away.
    """
    enumerated = enumerate_periodic_perfect(n, k, state_budget=state_budget)
    induced = build_induced_set(n, k, word_budget=word_budget)
    return _compare(n, k, enumerated, induced)


@dataclass(frozen=True)
class RegressionReport:
    """Structural claims re-checked against a fresh exhaustive enumeration."""

    n: int
    colorings_checked: int
    checks: dict
    witnesses: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "colorings_checked": self.colorings_checked,
            "checks": dict(self.checks),
            "witnesses": {name: [list(w) for w in ws] for name, ws in self.witnesses.items()},
        }


def structural_regression_suite(n: int, state_budget: int | None = None) -> RegressionReport:
    """Re-derive the structural facts about perfect 2-colorings of Ci(D_n).

    Every claim is checked against every coloring found by exhaustive search,
    with matrices recomputed from scratch: outer degree sums land in
    {4n, 2n, 2n+1, 2n-1}; the two local propagation patterns hold; the stated
    period lengths divide the primitive period; and non-bipartite colorings
    of even period balance their colors across the two parities.
    """
    dset = make_odd_distance_set(n)
    result = enumerate_periodic_perfect(n, 2, state_budget=state_budget)
    allowed_sums = {4 * n, 2 * n, 2 * n + 1, 2 * n - 1}
    checks = {
        "outer_degree_sums": True,
        "local_patterns": True,
        "period_lengths": True,
        "parity_balance": True,
    }
    witnesses: dict[str, list[tuple[int, ...]]] = {name: [] for name in checks}

    def fail(name: str, word: tuple[int, ...]):
        checks[name] = False
        witnesses[name].append(word)

    for coloring, _ in result.entries:
        verdict = check_perfect(coloring, dset)
        if not verdict.is_perfect:
            raise RuntimeError(f"internal error: enumerated {coloring.word} is not perfect")
        degs = outer_degrees(verdict.matrix, n)
        if degs.b + degs.c not in allowed_sums:
            fail("outer_degree_sums", coloring.word)
        if not check_local_patterns(coloring, n):
            fail("local_patterns", coloring.word)
        if not check_period_length_claim(coloring, n):
            fail("period_lengths", coloring.word)
        if coloring.period % 2 == 0 and not is_bipartite_coloring(coloring, dset):
            if not check_even_odd_balance(coloring):
                fail("parity_balance", coloring.word)

    return RegressionReport(
        n,
        len(result.entries),
        checks,
        {name: tuple(ws) for name, ws in witnesses.items()},
    )
