"""Which perfect colorings of Ci(D_n) are induced, decided by their period.

Covering lemma: the map i -> i mod t keeps neighbor counts, multiedges
included, so a perfect coloring of Ci(D_n) with primitive period p is the
pullback of a perfect coloring of Ci_t(D_n), with the same matrix, exactly
when p divides t.  So "induced from Ci_{4n-2}, Ci_{4n} or Ci_{4n+2}" is a
divisibility test on the period, and "from the path family" is membership
among the recolorings of the path templates that check_perfect confirms.

check_conjecture tags each coloring of the one periodic search by that rule
and runs no finite search.  build_induced_set takes the finite route: it
searches the three orders and tags each pullback by the same rule, so it is
the independent oracle the verdict path is tested against.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import permutations

from .core import (
    DistanceSet,
    FiniteColoring,
    ParameterMatrix,
    PeriodicColoring,
    _built_coloring,
    least_rotation,
    make_odd_distance_set,
    primitive_period,
    require_positive_int,
)
from .perfection import (
    check_even_odd_balance,
    check_local_patterns,
    check_perfect,
    check_period_length_claim,
    outer_degrees,
)
from .constructors import path_colorings
from .enumeration import Entry, enumerate_perfect_finite, enumerate_periodic_perfect


def induce(coloring: FiniteColoring, dset: DistanceSet) -> PeriodicColoring:
    """Pull a perfect coloring of Ci_t(D) back to the infinite graph.

    The covering map preserves neighbor color counts vertex by vertex, so the
    result is perfect with the same matrix.  Raises ValueError when the given
    finite coloring is not perfect (there is nothing to pull back).
    """
    return _pull_back(coloring, dset)[0]


def _pull_back(
    coloring: FiniteColoring, dset: DistanceSet
) -> tuple[PeriodicColoring, ParameterMatrix]:
    """induce, with the matrix of its one check: the pullback's matrix.

    The covering map keeps neighbor counts, multiedges included, so the
    finite verdict's matrix needs no second check on the infinite graph.
    """
    verdict = check_perfect(coloring, dset)
    if not verdict.is_perfect:
        raise ValueError(
            f"coloring is not perfect on distances {dset.distances}; "
            f"witness vertices {verdict.witness} disagree"
        )
    return PeriodicColoring(coloring.word, coloring.k), verdict.matrix


def _finite_orders(n: int) -> tuple[tuple[int, str], ...]:
    return ((4 * n - 2, "from_4n-2"), (4 * n, "from_4n"), (4 * n + 2, "from_4n+2"))


def _path_family(dset: DistanceSet, k: int) -> dict[tuple[int, ...], Entry]:
    """Word -> (coloring, matrix) for each recoloring of every path template
    check_perfect confirms on dset: one check per template, then relabeled
    once per word.  A recolored template is a primitive period, so its
    least rotation is the word and the coloring is built without
    re-validation."""
    family: dict[tuple[int, ...], Entry] = {}
    for template in path_colorings(k):
        verdict = check_perfect(template, dset)
        if not verdict.is_perfect:
            continue
        for target in permutations(range(1, k + 1)):
            word = least_rotation(tuple(target[c - 1] for c in template.word))
            if word not in family:
                coloring = _built_coloring(PeriodicColoring, word, k)
                family[word] = (coloring, verdict.matrix.relabeled(target))
    return family


def _tags(n: int, coloring: PeriodicColoring, path_words) -> list[str]:
    """The sources a perfect coloring of Ci(D_n) is induced from, sorted:
    each finite order its period divides, and the path family."""
    tags = [tag for t, tag in _finite_orders(n) if t % coloring.period == 0]
    if coloring.word in path_words:
        tags.append("from_path")
    return sorted(tags)


@dataclass(frozen=True)
class InducedEntry:
    """One candidate periodic coloring with the sources that yield it."""

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


def build_induced_set(n: int, k: int, budget: int | None = None) -> InducedSet:
    """Candidate colorings of Ci(D_n) by the finite route: pullbacks of every
    perfect coloring of Ci_t(D_n) for t = 4n-2, 4n, 4n+2, plus the path family.

    Each is tagged by the shared rule (see the module docstring) and keeps
    the matrix its finite search or path template supplied.  The budget goes
    to each of the three finite searches, which count their own work
    against it; each search's pullbacks are reduced to their words before
    the next search runs.  The searches fold rotations: every rotation of a
    finite word pulls back to the same periodic coloring and matrix.  The
    finite words are valid already, so each pullback is built from its
    canonical word without re-validation.
    """
    require_positive_int("k", k)
    dset = make_odd_distance_set(n)
    found: dict[tuple[int, ...], Entry] = {}
    for t, _ in _finite_orders(n):
        result = enumerate_perfect_finite(t, dset, k, rotation=True, budget=budget)
        for finite, matrix in result.entries:
            word = least_rotation(primitive_period(finite.word))
            if word not in found:
                found[word] = (_built_coloring(PeriodicColoring, word, k), matrix)
    path = _path_family(dset, k)
    for word, entry in path.items():
        found.setdefault(word, entry)
    entries = tuple(
        InducedEntry(coloring, matrix, frozenset(_tags(n, coloring, path)))
        for _, (coloring, matrix) in sorted(found.items())
    )
    return InducedSet(n, k, entries)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of tagging every enumerated coloring by where it is induced from."""

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


def check_theorem_k2(n: int, budget: int | None = None) -> CheckReport:
    """Confirm that every perfect 2-coloring of Ci(D_n) is induced:
    check_conjecture at k = 2, one periodic search."""
    return check_conjecture(n, 2, budget)


def check_conjecture(n: int, k: int, budget: int | None = None) -> CheckReport:
    """Test whether every perfect k-coloring of Ci(D_n) is induced.

    Runs one search, enumerate_periodic_perfect(n, k), which gets the
    budget, and tags each coloring by the covering lemma (its period
    divides 4n-2, 4n or 4n+2) and the path family, keeping only per-tag
    counts; no finite search runs.  An untagged coloring goes to `missing`
    and makes the verdict "counterexample", reported, never asserted away;
    a confirmed path word the search did not return goes to
    `induced_not_enumerated`.
    """
    enumerated = enumerate_periodic_perfect(n, k, budget=budget)
    path = _path_family(make_odd_distance_set(n), k)
    unseen = set(path)
    missing = []
    tally: Counter[str] = Counter()
    for coloring, _ in enumerated.entries:
        unseen.discard(coloring.word)
        tags = _tags(n, coloring, path)
        tally.update(tags)
        if not tags:
            missing.append(coloring.word)
    extra = tuple(sorted(unseen))
    for word in extra:
        tally.update(_tags(n, path[word][0], path))
    induced = len(enumerated.entries) - len(missing) + len(extra)
    counts = {"enumerated": len(enumerated.entries), "induced": induced, **tally}
    verdict = "confirmed" if not missing else "counterexample"
    return CheckReport(n, k, verdict, tuple(missing), extra, counts)


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


def structural_regression_suite(n: int, budget: int | None = None) -> RegressionReport:
    """Re-derive the structural facts about perfect 2-colorings of Ci(D_n).

    Every claim is checked against every coloring found by exhaustive search,
    with matrices recomputed from scratch: outer degree sums land in
    {4n, 2n, 2n+1, 2n-1}; the two local propagation patterns hold; the stated
    period lengths divide the primitive period; and each coloring of even
    period is bipartite or balances its colors across the two parities.
    """
    dset = make_odd_distance_set(n)
    result = enumerate_periodic_perfect(n, 2, budget=budget)
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
        if coloring.period % 2 == 0 and not check_even_odd_balance(coloring):
            fail("parity_balance", coloring.word)

    return RegressionReport(
        n,
        len(result.entries),
        checks,
        {name: tuple(ws) for name, ws in witnesses.items()},
    )
