"""Exhaustive search engines for perfect colorings.

Finite graphs are searched by color-class partition: perfection is invariant
under any bijective recoloring, so it is decided once per partition of the
vertices (enumerated as restricted growth strings with exactly k classes) and
the surviving classes are expanded through all k! labelings.  That keeps the
work near the number of partitions instead of k^t.  Each partition is checked
exactly once; a labeling's matrix is the class matrix conjugated by the
recoloring (ParameterMatrix.relabeled), and rotations and reflections are
graph automorphisms, so an orbit representative keeps the matrix of the
labeling it came from.

The infinite graphs Ci(D_n) are handled by a forced-extension automaton.  Any
perfect coloring is periodic, and a window of 4n-1 consecutive colors both
certifies its center vertex (whose whole neighborhood lies inside the window)
and forces the color one step beyond the window.  That step rule,
_forced_color, is the only one: the vertex just past the center sees all its
2n neighbors but the one at offset 4n-1, so its row (summing to 2n) minus the
known counts (summing to 2n-1) leaves deficits that sum to 1.  Either one is
negative and no extension is consistent, or exactly one is 1 and that color
is forced.  The rule depends only on (row, known), pairs that recur millions
of times in a search, so it is cached.  Perfect colorings are therefore
precisely the cycles of the transition map on consistent windows, enumerated
per candidate parameter matrix.
"""

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations, product
from math import comb

from .core import (
    BudgetExceededError,
    DistanceSet,
    FiniteColoring,
    ParameterMatrix,
    PeriodicColoring,
    primitive_period,
)
from .perfection import admissible_matrix_templates, check_perfect

DEFAULT_WORD_BUDGET = 1 << 27
DEFAULT_STATE_BUDGET = 1 << 24

# A window of 4n-1 consecutive colors, the automaton's state.
WindowState = tuple[int, ...]

Entry = tuple[FiniteColoring | PeriodicColoring, ParameterMatrix]


@dataclass(frozen=True)
class EnumerationResult:
    """Colorings found by a search, with their matrices and run statistics."""

    entries: tuple[Entry, ...]
    stats: dict = field(compare=False, default_factory=dict)

    def colorings(self) -> tuple:
        return tuple(c for c, _ in self.entries)

    def words(self) -> set[tuple[int, ...]]:
        return {c.word for c, _ in self.entries}


def _orbit_words(word: tuple, rotation: bool, reflection: bool, color_permutation: bool):
    rotations = [word[i:] + word[:i] for i in range(len(word))] if rotation else [word]
    if reflection:
        rotations += [w[::-1] for w in rotations]
    if not color_permutation:
        yield from rotations
        return
    colors = sorted(set(word))
    for target in permutations(colors):
        relabel = dict(zip(colors, target))
        for w in rotations:
            yield tuple(relabel[c] for c in w)


def canonical_form(
    word: tuple[int, ...],
    *,
    rotation: bool = True,
    reflection: bool = False,
    color_permutation: bool = False,
) -> tuple[int, ...]:
    """Canonical representative of a periodic word under the chosen symmetries.

    The word is first reduced to its primitive period, then the least image
    under the selected group is taken.  With rotation alone this matches the
    canonical form stored by PeriodicColoring.
    """
    word = primitive_period(tuple(word))
    return min(_orbit_words(word, rotation, reflection, color_permutation))


def _surjective_class_partitions(t: int, k: int):
    """Restricted growth strings of length t with exactly k classes."""
    word = [0] * t

    def extend(i: int, used: int):
        if k - used > t - i:
            return
        if i == t:
            yield tuple(word)
            return
        for c in range(min(used + 1, k)):
            word[i] = c
            if c == used:
                yield from extend(i + 1, used + 1)
            else:
                yield from extend(i + 1, used)

    yield from extend(0, 0)


def surjective_word_count(t: int, k: int) -> int:
    """Number of onto colorings of t vertices with k labeled colors."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** t for j in range(k + 1))


def enumerate_perfect_finite(
    t: int,
    dset: DistanceSet,
    k: int,
    *,
    rotation: bool = False,
    reflection: bool = False,
    color_permutation: bool = False,
    word_budget: int | None = None,
) -> EnumerationResult:
    """All perfect k-colorings of Ci_t(D), optionally reduced modulo symmetry.

    Exhaustive and definition-driven: every color-class partition of the
    vertices is tested once with check_perfect, and every coloring reported
    carries that class's matrix relabeled to its colors.  The budget bounds
    the number of labeled colorings the search could emit (k^t words in the
    worst case, of which only the onto ones are candidates).
    """
    budget = DEFAULT_WORD_BUDGET if word_budget is None else word_budget
    candidates = surjective_word_count(t, k)
    if candidates > budget:
        raise BudgetExceededError(
            f"search space k^t = {k}^{t} holds {candidates} onto colorings, "
            f"exceeding the budget of {budget}"
        )
    found: dict[tuple[int, ...], ParameterMatrix] = {}
    classes_examined = 0
    perfect_classes = 0
    for class_word in _surjective_class_partitions(t, k):
        classes_examined += 1
        base = tuple(c + 1 for c in class_word)
        verdict = check_perfect(FiniteColoring(base, k), dset)
        if not verdict.is_perfect:
            continue
        perfect_classes += 1
        # Least rotation/reflection image of each labeling (finite words keep
        # their length: no primitive reduction), with a recoloring producing it.
        images: dict[tuple[int, ...], tuple[int, ...]] = {}
        for target in permutations(range(1, k + 1)):
            relabeled = tuple(target[c - 1] for c in base)
            image = min(_orbit_words(relabeled, rotation, reflection, False))
            images.setdefault(image, target)
        if color_permutation:
            least = min(images)
            images = {least: images[least]}
        for image, target in images.items():
            if image not in found:
                found[image] = verdict.matrix.relabeled(target)
    entries = tuple(
        (FiniteColoring(word, k), found[word]) for word in sorted(found)
    )
    stats = {
        "classes_examined": classes_examined,
        "perfect_classes": perfect_classes,
        "colorings": len(entries),
    }
    return EnumerationResult(entries, stats)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def candidate_matrices(
    n: int, k: int, matrix_budget: int | None = None
) -> tuple[ParameterMatrix, ...]:
    """Parameter matrices worth searching for Ci(D_n) with k colors.

    For k = 2 the admissible template families (including the bipartite
    matrix) are complete, so only those are returned.  For other k no sound
    pruning is applied: every k x k nonnegative matrix with row sums 2n is a
    candidate.  The budget caps how many that is allowed to be.
    """
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be >= 1, got n={n}, k={k}")
    if k == 2:
        out = []
        for fam in admissible_matrix_templates(n):
            out.extend(fam.matrices())
        return tuple(out)
    budget = DEFAULT_STATE_BUDGET if matrix_budget is None else matrix_budget
    total = comb(2 * n + k - 1, k - 1) ** k
    if total > budget:
        raise BudgetExceededError(
            f"{total} candidate matrices for n={n}, k={k} exceed the budget of {budget}"
        )
    rows = tuple(_compositions(2 * n, k))
    return tuple(ParameterMatrix(combo) for combo in product(rows, repeat=k))


@dataclass(frozen=True)
class Automaton:
    """Forced-extension automaton for perfect colorings of Ci(D_n).

    States are windows of 4n-1 consecutive colors.  A state is consistent
    when its center vertex (offset 2n-1, whose neighborhood lies entirely
    inside the window) sees exactly its matrix row.
    """

    n: int
    k: int
    matrix: ParameterMatrix

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.matrix.k != self.k:
            raise ValueError(f"matrix is {self.matrix.k}x{self.matrix.k}, expected k={self.k}")
        if self.matrix.row_sums() != (2 * self.n,) * self.k:
            raise ValueError(f"row sums {self.matrix.row_sums()} must all equal {2 * self.n}")

    @property
    def window_length(self) -> int:
        return 4 * self.n - 1

    @property
    def center(self) -> int:
        return 2 * self.n - 1


def _window_counts(window: WindowState, positions: tuple[int, ...], k: int) -> tuple[int, ...]:
    counts = [0] * k
    for p in positions:
        counts[window[p] - 1] += 1
    return tuple(counts)


def _center_positions(n: int) -> tuple[int, ...]:
    center = 2 * n - 1
    return tuple(sorted([center - d for d in range(1, 2 * n, 2)] + [center + d for d in range(1, 2 * n, 2)]))


def _extension_positions(n: int) -> tuple[int, ...]:
    # Known neighbors of the vertex at offset 2n; only offset 4n-1 is outside.
    probe = 2 * n
    inside = [probe - d for d in range(1, 2 * n, 2)]
    inside += [probe + d for d in range(1, 2 * n, 2) if probe + d < 4 * n - 1]
    return tuple(sorted(inside))


def window_is_consistent(automaton: Automaton, window: WindowState) -> bool:
    """Whether the window's center vertex sees exactly its matrix row."""
    if len(window) != automaton.window_length:
        raise ValueError(f"window must have length {automaton.window_length}")
    counts = _window_counts(window, _center_positions(automaton.n), automaton.k)
    return counts == automaton.matrix.rows[window[automaton.center] - 1]


@cache
def _forced_color(row: tuple[int, ...], known: tuple[int, ...]) -> int | None:
    """The color whose deficit row - known is 1, or None if any deficit is negative."""
    deficits = [r - c for r, c in zip(row, known)]
    if min(deficits) < 0:
        return None
    return deficits.index(1) + 1


def step_window(automaton: Automaton, window: WindowState) -> int | None:
    """The forced color one step past the window, or None if none is consistent."""
    if len(window) != automaton.window_length:
        raise ValueError(f"window must have length {automaton.window_length}")
    known = _window_counts(window, _extension_positions(automaton.n), automaton.k)
    return _forced_color(automaton.matrix.rows[window[2 * automaton.n] - 1], known)


def enumerate_periodic_perfect(
    n: int,
    k: int,
    matrices: tuple[ParameterMatrix, ...] | None = None,
    state_budget: int | None = None,
) -> EnumerationResult:
    """All perfect k-colorings of Ci(D_n), as canonical periodic colorings.

    Per candidate matrix, every consistent window is followed through the
    forced-extension map; the cycles of that map are exactly the perfect
    colorings (every perfect coloring is periodic, so its windows close a
    cycle, and conversely a cycle certifies every vertex).  Visited states
    are marked globally per matrix so each cycle is collected once.  Windows
    are pregrouped by their center's (color, counts) key, making the
    consistent set of each matrix a dictionary lookup.  The state budget caps
    both the window space and the number of candidate matrices; matrices
    given by the caller must be k x k with every row summing to 2n.
    """
    budget = DEFAULT_STATE_BUDGET if state_budget is None else state_budget
    states = k ** (4 * n - 1)
    if states > budget:
        raise BudgetExceededError(
            f"window space k^(4n-1) = {k}^{4 * n - 1} = {states} exceeds the budget of {budget}"
        )
    if matrices is None:
        matrices = candidate_matrices(n, k, budget)
    else:
        for matrix in matrices:
            Automaton(n, k, matrix)  # raises ValueError on a wrong size or row sum

    window_length = 4 * n - 1
    center = 2 * n - 1
    center_pos = _center_positions(n)
    ext_pos = _extension_positions(n)
    colors = range(1, k + 1)

    groups: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}
    ext_info: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    for window in product(colors, repeat=window_length):
        key = (window[center], _window_counts(window, center_pos, k))
        groups.setdefault(key, []).append(window)
        ext_info[window] = (window[2 * n], _window_counts(window, ext_pos, k))

    found: dict[tuple[int, ...], Entry] = {}
    stats = {"matrices_tried": len(matrices), "states_followed": 0, "cycles_found": 0}
    all_colors = set(colors)

    for matrix in matrices:
        visited: set[tuple[int, ...]] = set()
        rows = matrix.rows
        # visited is shared across starts, so each reachable window is followed
        # once per matrix whatever the start order: the cycles found and
        # states_followed do not depend on it.
        starts = (w for color in colors for w in groups.get((color, rows[color - 1]), ()))
        for start in starts:
            if start in visited:
                continue
            path: list[tuple[int, ...]] = []
            position: dict[tuple[int, ...], int] = {}
            window = start
            while True:
                if window in visited:
                    break
                if window in position:
                    cycle = path[position[window]:]
                    stats["cycles_found"] += 1
                    word = tuple(w[0] for w in cycle)
                    if set(word) == all_colors:
                        coloring = PeriodicColoring(word, k)
                        found.setdefault(coloring.word, (coloring, matrix))
                    break
                position[window] = len(path)
                path.append(window)
                probe_color, known = ext_info[window]
                forced = _forced_color(rows[probe_color - 1], known)
                if forced is None:
                    break
                window = window[1:] + (forced,)
            visited.update(path)
            stats["states_followed"] += len(path)

    entries = tuple(found[w] for w in sorted(found))
    stats["colorings"] = len(entries)
    return EnumerationResult(entries, stats)
