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

from dataclasses import dataclass
from operator import itemgetter

Color = int


# The one work budget every search takes, counted through a WorkMeter.
DEFAULT_BUDGET = 1 << 24


class BudgetExceededError(RuntimeError):
    """A search did more work than its budget allows."""


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


def require_positive_int(name: str, value) -> None:
    """Raise ValueError unless value is an int >= 1 (True is not taken as 1)."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def require_distance_set(dset) -> None:
    """Raise ValueError unless dset is a DistanceSet, so its own checks have run."""
    if not isinstance(dset, DistanceSet):
        raise ValueError(f"dset must be a DistanceSet, got {dset!r}")


class WorkMeter:
    """One search's count of the work it has done, against its budget.

    The budget rule every search follows: it spends units of its own kind of
    work as it does that work, and BudgetExceededError is raised as soon as
    the count passes the budget.  None means DEFAULT_BUDGET; any other
    budget must be an int >= 1.
    """

    def __init__(self, budget: int | None, search: str, unit: str):
        budget = DEFAULT_BUDGET if budget is None else budget
        require_positive_int("budget", budget)
        self.budget, self.search, self.unit, self.spent = budget, search, unit, 0

    def spend(self, units: int = 1) -> None:
        self.spent += units
        if self.spent > self.budget:
            raise BudgetExceededError(
                f"{self.search} spent {self.spent} units ({self.unit}), "
                f"passing the budget of {self.budget}"
            )


def make_odd_distance_set(n: int) -> DistanceSet:
    """The continuous odd distance set {1, 3, ..., 2n-1}."""
    require_positive_int("n", n)
    return DistanceSet(tuple(range(1, 2 * n, 2)))


def neighbor_offsets(dset: DistanceSet, t: int | None = None) -> tuple[int, ...]:
    """Offsets from a vertex to its neighbors, as a sorted multiset.

    With t = None (the infinite graph) these are the 2|D| distinct values +-d.
    Mod t the values may collide, giving repeated entries (multiedges) or
    zeros (loops); the multiset always has exactly 2|D| entries, so degree is
    2|D| in every graph of the family.
    """
    if t is None:
        offs = [s * d for d in dset for s in (1, -1)]
    else:
        require_positive_int("order", t)
        offs = [(s * d) % t for d in dset for s in (1, -1)]
    return tuple(sorted(offs))


def _validate_word(word: tuple[int, ...], k: int) -> None:
    require_positive_int("k", k)
    if not word:
        raise ValueError("coloring word must be nonempty")
    if any(type(c) is not int or not 1 <= c <= k for c in word):
        raise ValueError(f"colors must be integers in 1..{k}: {word!r}")
    if len(set(word)) != k:
        missing = sorted(set(range(1, k + 1)) - set(word))
        raise ValueError(f"coloring must use every color in 1..{k}; missing {missing}")


def _built_coloring(cls, word: tuple[int, ...], k: int):
    """cls(word, k) without re-validating, for words valid by construction.

    word must be a tuple over 1..k that uses every color; for a
    PeriodicColoring it must also be a primitive period in least rotation,
    the form the constructor stores.  The public constructors keep
    validating; this skips the work for callers that already know the word
    is valid, as ParameterMatrix.relabeled does for matrices.
    """
    coloring = object.__new__(cls)
    object.__setattr__(coloring, "word", word)
    object.__setattr__(coloring, "k", k)
    return coloring


@dataclass(frozen=True, slots=True)
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
    """The shortest prefix whose repetition equals the nonempty word."""
    length = len(word)
    if not length:
        raise ValueError("a word must be nonempty to have a period")
    return next(
        word[:p] for p in range(1, length + 1) if length % p == 0 and word == word[:p] * (length // p)
    )


def least_rotation(word: tuple) -> tuple:
    """The lexicographically least rotation of a nonempty word.

    The least rotation begins with the word's least letter, and a rotation
    that begins with any other letter is greater than every rotation that
    begins with it, so only the rotations starting at an occurrence of the
    least letter are compared.
    """
    least = min(word)
    return min(word[i:] + word[:i] for i, c in enumerate(word) if c == least)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
        """The conjugate by old -> new_color_of[old-1], a permutation of 1..k (_conjugator)."""
        k = self.k
        if set(map(type, new_color_of)) != {int} or sorted(new_color_of) != list(range(1, k + 1)):
            raise ValueError(f"relabeling must be a permutation of 1..{k}: {new_color_of!r}")
        return _conjugator(new_color_of, {})(self.rows)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def _conjugator(new_color_of: tuple[int, ...], shared: dict):
    """The map from a matrix's rows to its conjugate by old -> new_color_of[old-1].

    Entry (new_color_of[i], new_color_of[j]) of the image is entry (i, j).
    Image rows go through shared, a caller-owned row -> row table, so equal rows are one tuple.
    Neither the image nor new_color_of, a permutation of 1..k, is validated.
    """
    old_of = [0] * len(new_color_of)
    for old, new in enumerate(new_color_of):
        old_of[new - 1] = old
    pick = itemgetter(*old_of) if len(old_of) > 1 else None  # one index returns no tuple

    def conjugate(rows: tuple[tuple[int, ...], ...]) -> ParameterMatrix:
        matrix = object.__new__(ParameterMatrix)
        picked = list(map(pick, pick(rows))) if pick else rows
        object.__setattr__(matrix, "rows", tuple(map(shared.setdefault, picked, picked)))
        return matrix

    return conjugate


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
    if type(length) is not int:
        raise ValueError(f"t_or_period must be an integer, got {length!r}")
    if length != len(word):
        raise ValueError(f"t_or_period {length} does not match word length {len(word)}")
    if kind == "finite":
        return FiniteColoring(word, k), dset
    return PeriodicColoring(word, k), dset
