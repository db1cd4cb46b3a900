"""Domain model for circulant graphs and their colorings.

An infinite circulant with distance set D = {d_1 < ... < d_n} is the Cayley
graph of Z with connection set {+-d : d in D}.  Its finite counterpart on Z_t
keeps one edge per (vertex, distance) pair with endpoints reduced mod t, so
offsets that collide mod t produce multiedges and offsets congruent to 0
produce loops: finite circulants are pseudographs in general.  Reduction
mod t is a covering map from the infinite graph onto the finite one -- each
vertex's incidence multiset maps bijectively -- which is the fact that lets
perfect colorings transfer between the two graphs.

Colors are the integers 1..k and a coloring must use every one of them.
Distances, colors, color counts and matrix entries must have type int
exactly: a bool is an int subclass, but True is not accepted as 1.
Neighborhoods are always computed from offsets; an edge list is materialized
only for rendering.  Every type here is immutable and every function is pure.
"""

import math
from dataclasses import dataclass

Color = int
# Incidence counts per color; index = color - 1.
ColorCounts = tuple[int, ...]


class BudgetExceededError(RuntimeError):
    """A search space is larger than the configured budget allows."""


@dataclass(frozen=True)
class DistanceSet:
    """A strictly increasing tuple of positive distances along Z."""

    distances: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "distances", tuple(self.distances))
        d = self.distances
        if not d:
            raise ValueError("distance set must be nonempty")
        bad = any(type(x) is not int or x < 1 for x in d)
        if bad or any(b <= a for a, b in zip(d, d[1:])):
            raise ValueError(f"distances must be strictly increasing positive integers: {d!r}")

    def __len__(self) -> int:
        return len(self.distances)

    def __iter__(self):
        return iter(self.distances)

    def is_odd_continuous(self) -> bool:
        """True iff the set is exactly {1, 3, ..., 2n-1} where n is its size."""
        return self.distances == tuple(range(1, 2 * len(self.distances), 2))


def make_odd_distance_set(n: int) -> DistanceSet:
    """The continuous odd distance set {1, 3, ..., 2n-1}."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return DistanceSet(tuple(range(1, 2 * n, 2)))


def neighbor_offsets(dset: DistanceSet, t: int | None = None) -> tuple[int, ...]:
    """Offsets from a vertex to its neighbors, as a sorted multiset.

    With t = None (the infinite graph) these are the 2|D| distinct values +-d.
    Mod t the values may collide, giving repeated entries (multiedges) or
    zeros (loops); the multiset always has exactly 2|D| entries, so degree is
    2|D| in every graph of the family.
    """
    if t is None or t == math.inf:
        offs = [s * d for d in dset for s in (1, -1)]
    else:
        t = int(t)
        if t < 1:
            raise ValueError(f"order must be >= 1, got {t}")
        offs = [(s * d) % t for d in dset for s in (1, -1)]
    return tuple(sorted(offs))


@dataclass(frozen=True)
class FiniteCirculant:
    """Circulant pseudograph on Z_t: vertex i is adjacent to i +- d mod t."""

    order: int
    dset: DistanceSet

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")

    @property
    def degree(self) -> int:
        return 2 * len(self.dset)

    def offsets(self) -> tuple[int, ...]:
        return neighbor_offsets(self.dset, self.order)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbor multiset of v, sorted, loops included twice."""
        return tuple(sorted((v + o) % self.order for o in self.offsets()))

    def edges(self) -> list[tuple[int, int]]:
        """One (u, v) pair per (vertex, distance); repeats encode multiedges.

        For rendering only -- neighborhood computations use offsets().
        """
        return [(i, (i + d) % self.order) for i in range(self.order) for d in self.dset]


def _validate_word(word: tuple[int, ...], k: int) -> None:
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if not word:
        raise ValueError("coloring word must be nonempty")
    if any(type(c) is not int or not 1 <= c <= k for c in word):
        raise ValueError(f"colors must be integers in 1..{k}: {word!r}")
    if len(set(word)) != k:
        missing = sorted(set(range(1, k + 1)) - set(word))
        raise ValueError(f"coloring must use every color in 1..{k}; missing {missing}")


@dataclass(frozen=True)
class FiniteColoring:
    """Coloring of Ci_t(D) given as the word (color of 0, ..., color of t-1)."""

    word: tuple[Color, ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        _validate_word(self.word, self.k)

    @property
    def t(self) -> int:
        return len(self.word)

    def color_at(self, i: int) -> Color:
        return self.word[i % len(self.word)]


def primitive_period(word: tuple) -> tuple:
    """The shortest prefix whose repetition equals the word."""
    length = len(word)
    for p in range(1, length + 1):
        if length % p == 0 and word == word[:p] * (length // p):
            return word[:p]
    raise AssertionError("unreachable: the word is its own period")


def least_rotation(word: tuple) -> tuple:
    return min(word[i:] + word[:i] for i in range(len(word)))


@dataclass(frozen=True)
class PeriodicColoring:
    """Periodic coloring of Z, stored in canonical form.

    The stored word is its own primitive period and is the lexicographically
    least among its rotations, so value equality coincides with equality of
    colorings up to the starting phase.
    """

    word: tuple[Color, ...]
    k: int

    def __post_init__(self):
        word = tuple(self.word)
        _validate_word(word, self.k)
        object.__setattr__(self, "word", least_rotation(primitive_period(word)))

    @property
    def period(self) -> int:
        return len(self.word)

    def color_at(self, i: int) -> Color:
        return self.word[i % len(self.word)]


def neighbor_color_counts(
    coloring: FiniteColoring | PeriodicColoring, dset: DistanceSet, v: int
) -> ColorCounts:
    """How many neighbors of v carry each color, as a tuple indexed by color-1.

    Works unchanged for both coloring kinds: reducing v +- d modulo the word
    length is reduction mod t for a finite coloring and periodic lookup for a
    periodic one.  A loop (offset 0 mod t) contributes both of its incidences,
    so the counts always sum to 2|D|.
    """
    counts = [0] * coloring.k
    word = coloring.word
    length = len(word)
    for d in dset:
        counts[word[(v + d) % length] - 1] += 1
        counts[word[(v - d) % length] - 1] += 1
    return tuple(counts)


def covering_reduction(i: int, t: int) -> int:
    """Image of vertex i of the infinite graph in Ci_t, i.e. i mod t in 0..t-1."""
    if t < 1:
        raise ValueError(f"order must be >= 1, got {t}")
    return i % t


def verify_covering(dset: DistanceSet, t: int) -> bool:
    """Check that reduction mod t maps neighborhoods onto neighborhoods.

    For every vertex i of the infinite graph, the reduced multiset
    {(i + o) mod t : o in +-D} must equal the neighbor multiset of i mod t in
    Ci_t(D).  One period of lifts suffices since both sides shift with i.
    """
    infinite = neighbor_offsets(dset)
    graph = FiniteCirculant(t, dset)
    return all(
        tuple(sorted((i + o) % t for o in infinite)) == graph.neighbors(i % t)
        for i in range(t)
    )


@dataclass(frozen=True)
class ParameterMatrix:
    """k x k matrix whose row i counts the colors seen from any color-i vertex."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError(f"matrix must be square and nonempty: {rows!r}")
        if any(type(x) is not int or x < 0 for row in rows for x in row):
            raise ValueError(f"matrix entries must be nonnegative integers: {rows!r}")

    @property
    def k(self) -> int:
        return len(self.rows)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)

    def relabeled(self, new_color_of: tuple[int, ...]) -> "ParameterMatrix":
        """Conjugate by the color bijection old -> new_color_of[old-1]."""
        k = self.k
        out = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                out[new_color_of[i] - 1][new_color_of[j] - 1] = self.rows[i][j]
        return ParameterMatrix(tuple(tuple(row) for row in out))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def coloring_to_json(
    coloring: FiniteColoring | PeriodicColoring, dset: DistanceSet
) -> dict:
    """Plain-dict form of a coloring plus its graph's distances."""
    kind = "finite" if isinstance(coloring, FiniteColoring) else "periodic"
    return {
        "kind": kind,
        "t_or_period": len(coloring.word),
        "k": coloring.k,
        "word": list(coloring.word),
        "distances": list(dset.distances),
    }


def coloring_from_json(data: dict) -> tuple[FiniteColoring | PeriodicColoring, DistanceSet]:
    """Inverse of coloring_to_json; rejects malformed or inconsistent input."""
    try:
        kind = data["kind"]
        length = data["t_or_period"]
        k = data["k"]
        word = tuple(data["word"])
        dset = DistanceSet(tuple(data["distances"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coloring record: {exc}") from exc
    if kind not in ("finite", "periodic"):
        raise ValueError(f"unknown coloring kind {kind!r}")
    if length != len(word):
        raise ValueError(f"t_or_period {length} does not match word length {len(word)}")
    if kind == "finite":
        return FiniteColoring(word, k), dset
    return PeriodicColoring(word, k), dset
