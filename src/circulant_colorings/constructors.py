"""Explicit perfect colorings: path periods and the three finite families.

Ci_{4n}(D_n) is the complete bipartite graph K_{2n,2n}; a coloring is perfect
there iff the two parts use disjoint color sets or every color appears equally
often in both.  Ci_{4n+2}(D_n) is K_{2n+1,2n+1} minus the perfect matching
{(i, i+2n+1)}, and Ci_{4n-2}(D_n) is K_{2n-1,2n-1} with the matching
{(i, i+2n-1)} doubled.  In both matched cases a perfect coloring is built by
splitting the colors into a monochrome set C1 and a paired-up set C2, then
splitting the matching edges accordingly: a C1 edge repeats one color on both
endpoints, while C2 edges come in pairs (v_e,v_o),(u_e,u_o) colored x,y and
y,x so the even/odd color exchange stays consistent.  The bipartite variant
instead pairs disjoint even-side and odd-side color sets across every edge.

Matching edges are indexed by their smaller endpoint i; the endpoint of even
index is derived per edge, since i itself may be odd.
"""

from dataclasses import dataclass
from itertools import product
from math import factorial, prod

from .core import FiniteColoring, PeriodicColoring, WorkMeter, require_positive_int


def path_colorings(k: int) -> tuple[PeriodicColoring, ...]:
    """The four period templates that are perfect on every Ci(D_n).

    [1..k], [k..2 1 2..k-1], [k..2 1 2..k], and [k..2 1 1 2..k], i.e. one
    ascent, and the three zigzags with 0, 1 or 2 repeated turning points.
    Canonicalization may collapse templates (all four coincide at k = 1), so
    duplicates are removed.
    """
    require_positive_int("k", k)
    descent = tuple(range(k, 1, -1))
    ascent = tuple(range(2, k))
    words = (
        tuple(range(1, k + 1)),
        descent + (1,) + ascent,
        descent + (1,) + ascent + (k,),
        descent + (1, 1) + ascent + (k,),
    )
    out: list[PeriodicColoring] = []
    for word in words:
        coloring = PeriodicColoring(word, k)
        if coloring not in out:
            out.append(coloring)
    return tuple(out)


def _interleave(even_word: tuple[int, ...], odd_word: tuple[int, ...]) -> tuple[int, ...]:
    word = [0] * (2 * len(even_word))
    word[0::2] = even_word
    word[1::2] = odd_word
    return tuple(word)


def construct_4n(
    n: int, k: int, even_word: tuple[int, ...], odd_word: tuple[int, ...]
) -> FiniteColoring:
    """Perfect coloring of Ci_{4n}(D_n) from the two part words.

    even_word colors vertices 0, 2, ..., 4n-2 and odd_word the rest.  The
    parts must either use disjoint color sets or give every color the same
    count, which is exactly the perfection condition on K_{2n,2n}.
    """
    even_word, odd_word = tuple(even_word), tuple(odd_word)
    require_positive_int("n", n)
    if len(even_word) != 2 * n or len(odd_word) != 2 * n:
        raise ValueError(f"part words must have length {2 * n}")
    if any(not 1 <= c <= k for c in even_word + odd_word):
        raise ValueError(f"colors must lie in 1..{k}")
    disjoint = not (set(even_word) & set(odd_word))
    balanced = all(
        even_word.count(c) == odd_word.count(c) for c in range(1, k + 1)
    )
    if not (disjoint or balanced):
        raise ValueError("part words must use disjoint colors or equal per-color counts")
    return FiniteColoring(_interleave(even_word, odd_word), k)


@dataclass(frozen=True)
class ColorSplit:
    """Partition of the colors 1..k driving a matched construction.

    Non-bipartite form: monochrome holds C1 and swap_pairs is a perfect
    matching on C2.  Bipartite form: bipartite_pairs matches even-side colors
    to odd-side colors and the other two fields stay empty.
    """

    k: int
    monochrome: frozenset[int] = frozenset()
    swap_pairs: tuple[tuple[int, int], ...] = ()
    bipartite_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "monochrome", frozenset(self.monochrome))
        object.__setattr__(self, "swap_pairs", tuple(tuple(p) for p in self.swap_pairs))
        object.__setattr__(
            self, "bipartite_pairs", tuple(tuple(p) for p in self.bipartite_pairs)
        )
        everything = set(range(1, self.k + 1))
        if self.bipartite_pairs:
            if self.monochrome or self.swap_pairs:
                raise ValueError("bipartite split cannot carry monochrome or swap colors")
            flat = [c for pair in self.bipartite_pairs for c in pair]
            if sorted(flat) != sorted(everything):
                raise ValueError(f"bipartite pairs must cover 1..{self.k} exactly once")
        else:
            if any(len(pair) != 2 or pair[0] == pair[1] for pair in self.swap_pairs):
                raise ValueError("swap pairs must pair two distinct colors")
            flat = [c for pair in self.swap_pairs for c in pair]
            if sorted(list(self.monochrome) + flat) != sorted(everything):
                raise ValueError(f"split must cover 1..{self.k} exactly once")

    @property
    def bipartite(self) -> bool:
        return bool(self.bipartite_pairs)


@dataclass(frozen=True)
class MatchingSplit:
    """Per-edge color assignment for a matched construction.

    monochrome: (edge, color) with color in C1.
    swaps: (edge_a, edge_b, x, y) colors edge_a (x on its even endpoint,
    y on its odd one) and edge_b the other way around.
    bipartite: (edge, even_color, odd_color) rows, only with a bipartite split.
    """

    monochrome: tuple[tuple[int, int], ...] = ()
    swaps: tuple[tuple[int, int, int, int], ...] = ()
    bipartite: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "monochrome", tuple(tuple(e) for e in self.monochrome))
        object.__setattr__(self, "swaps", tuple(tuple(e) for e in self.swaps))
        object.__setattr__(self, "bipartite", tuple(tuple(e) for e in self.bipartite))
        if self.bipartite and (self.monochrome or self.swaps):
            raise ValueError("bipartite assignments cannot mix with matched ones")

    def edges_used(self) -> list[int]:
        edges = [e for e, _ in self.monochrome]
        edges += [e for a, b, _, _ in self.swaps for e in (a, b)]
        edges += [e for e, _, _ in self.bipartite]
        return edges


def _matched_graph(n: int, t: int) -> int:
    """Number of matching edges of Ci_t(D_n); t must be 4n-2 or 4n+2."""
    require_positive_int("n", n)
    if t not in (4 * n - 2, 4 * n + 2):
        raise ValueError(f"order {t} is not 4n-2 or 4n+2 for n={n}")
    return t // 2


def construct_matched(
    n: int, t: int, k: int, split: ColorSplit, msplit: MatchingSplit
) -> FiniteColoring:
    """Perfect coloring of Ci_t(D_n), t = 4n+-2, from a color and matching split.

    Edge i of the matching is {i, i + t/2}; its assignment colors both
    endpoints.
    """
    step = _matched_graph(n, t)
    if split.k != k:
        raise ValueError(f"split is for k={split.k}, expected {k}")
    edges = sorted(msplit.edges_used())
    if edges != list(range(step)):
        raise ValueError(f"matching split must cover edges 0..{step - 1} exactly once")
    if split.bipartite != bool(msplit.bipartite) and msplit.edges_used():
        raise ValueError("matching split kind must match the color split kind")

    # (even endpoint color, odd endpoint color) per edge index
    assignment: dict[int, tuple[int, int]] = {}
    if split.bipartite:
        allowed = set(split.bipartite_pairs)
        for edge, even_color, odd_color in msplit.bipartite:
            if (even_color, odd_color) not in allowed:
                raise ValueError(f"pair {(even_color, odd_color)} not in the color split")
            assignment[edge] = (even_color, odd_color)
    else:
        unordered = {frozenset(pair) for pair in split.swap_pairs}
        for edge, color in msplit.monochrome:
            if color not in split.monochrome:
                raise ValueError(f"color {color} is not a monochrome color")
            assignment[edge] = (color, color)
        for edge_a, edge_b, x, y in msplit.swaps:
            if frozenset((x, y)) not in unordered:
                raise ValueError(f"colors {(x, y)} are not a swap pair of the split")
            assignment[edge_a] = (x, y)
            assignment[edge_b] = (y, x)
    return FiniteColoring(_matched_word(t, [assignment[e] for e in range(step)]), k)


def _matched_word(t: int, pairs) -> tuple[int, ...]:
    """The word of Ci_t(D_n) whose matching edge i has colors pairs[i].

    pairs[i] is (even endpoint color, odd endpoint color) for edge
    {i, i + t/2}; t/2 is odd, so the two endpoints differ in parity.
    """
    step = t // 2
    word = [0] * t
    for u, (even_color, odd_color) in enumerate(pairs):
        even_end, odd_end = (u, u + step) if u % 2 == 0 else (u + step, u)
        word[even_end] = even_color
        word[odd_end] = odd_color
    return tuple(word)


def _pair_partitions(colors: tuple[int, ...]):
    """All partitions of the color tuple into unordered pairs."""
    if not colors:
        yield ()
        return
    first, rest = colors[0], colors[1:]
    for i, other in enumerate(rest):
        for tail in _pair_partitions(rest[:i] + rest[i + 1 :]):
            yield ((first, other),) + tail


def all_matched_colorings(
    n: int, t: int, k: int, budget: int | None = None
) -> tuple[FiniteColoring, ...]:
    """Every perfect k-coloring of Ci_t(D_n) for t = 4n+-2, via split drivers.

    Enumerates all color splits, each as its allowed (even end, odd end)
    pairs, then all per-edge assignments that use every pair and give the
    two orientations of each swap pair equally many edges (the pairing of C2
    edges).  Results are deduplicated as words.  The budget's unit is one
    per-edge assignment scanned, spent for each split before its scan.
    """
    n_edges = _matched_graph(n, t)
    require_positive_int("k", k)
    meter = WorkMeter(budget, f"matched driver for n={n}, t={t}, k={k}", "per-edge assignments")
    colors = tuple(range(1, k + 1))
    # Each split as (its allowed (even, odd) pairs, its swap pairs).
    splits = []
    # Bipartite splits need |C_e| = |C_o|, so k must be even.
    if k % 2 == 0:
        for partition in _pair_partitions(colors):
            for orientation in product((0, 1), repeat=len(partition)):
                pairs = tuple((p[o], p[1 - o]) for p, o in zip(partition, orientation))
                splits.append((pairs, ()))
    # Non-bipartite splits: C1 monochrome, C2 paired up.
    for mono_mask in product((False, True), repeat=k):
        mono = tuple(c for c, m in zip(colors, mono_mask) if m)
        paired = tuple(c for c, m in zip(colors, mono_mask) if not m)
        if len(paired) % 2 != 0:
            continue
        for partition in _pair_partitions(paired):
            pairs = tuple((c, c) for c in mono)
            pairs += tuple(p for x, y in partition for p in ((x, y), (y, x)))
            splits.append((pairs, partition))

    found: dict[tuple[int, ...], FiniteColoring] = {}
    for pairs, swaps in splits:
        meter.spend(len(pairs) ** n_edges)
        everything = set(pairs)
        for choice in product(pairs, repeat=n_edges):
            if set(choice) != everything or any(
                choice.count((x, y)) != choice.count((y, x)) for x, y in swaps
            ):
                continue
            word = _matched_word(t, choice)
            if word not in found:
                found[word] = FiniteColoring(word, k)
    return tuple(found[w] for w in sorted(found))


def all_4n_colorings(n: int, k: int, budget: int | None = None) -> tuple[FiniteColoring, ...]:
    """Every perfect k-coloring of Ci_{4n}(D_n), via all valid part-word pairs.

    The budget's unit is one part-word pair, all k^(4n) spent before the scan.
    """
    require_positive_int("n", n)
    require_positive_int("k", k)
    meter = WorkMeter(budget, f"balanced driver for n={n}, k={k}", "part-word pairs")
    meter.spend(k ** (4 * n))
    colors = range(1, k + 1)
    found: dict[tuple[int, ...], FiniteColoring] = {}
    for even_word in product(colors, repeat=2 * n):
        even_set = set(even_word)
        even_counts = tuple(even_word.count(c) for c in colors)
        for odd_word in product(colors, repeat=2 * n):
            disjoint = not (even_set & set(odd_word))
            if not disjoint and tuple(odd_word.count(c) for c in colors) != even_counts:
                continue
            if even_set | set(odd_word) != set(colors):
                continue
            coloring = construct_4n(n, k, even_word, odd_word)
            found.setdefault(coloring.word, coloring)
    return tuple(found[w] for w in sorted(found))


@dataclass(frozen=True)
class TwoColorCases:
    """The two families of perfect 2-colorings of a matched graph."""

    monochrome: tuple[FiniteColoring, ...]
    bipartite: tuple[FiniteColoring, ...]

    def all(self) -> tuple[FiniteColoring, ...]:
        return self.monochrome + self.bipartite


def two_color_cases(n: int, t: int, budget: int | None = None) -> TwoColorCases:
    """Perfect 2-colorings of Ci_t(D_n), t = 4n+-2, listed by family.

    Either every matching edge is monochrome and both colors occur (2^m - 2
    assignments over m edges), or the coloring is the bipartite one (2 ways
    to attach the colors to the parts).  The budget's unit is one monochrome
    assignment, all 2^m spent before the scan.
    """
    n_edges = _matched_graph(n, t)
    meter = WorkMeter(budget, f"two-color driver for n={n}, t={t}", "monochrome assignments")
    meter.spend(2**n_edges)
    mono = [
        FiniteColoring(_matched_word(t, [(c, c) for c in assignment]), 2)
        for assignment in product((1, 2), repeat=n_edges)
        if len(set(assignment)) == 2
    ]
    bip = [FiniteColoring(_matched_word(t, [pair] * n_edges), 2) for pair in ((1, 2), (2, 1))]
    return TwoColorCases(tuple(mono), tuple(bip))


def count_nonbipartite_4n(n: int, k: int, counts: tuple[int, ...]) -> int:
    """Count non-bipartite perfect colorings of Ci_{4n}(D_n) with the given
    per-part color counts.

    counts[j-1] is the number of vertices of color j in each part.  At least
    two colors must be present.  Both parts then use the same colors, so they
    are never disjoint, and equal counts make every pair of part words
    balanced, hence perfect: the count is multinomial(2n; counts) squared.
    """
    require_positive_int("n", n)
    require_positive_int("k", k)
    counts = tuple(counts)
    if len(counts) != k:
        raise ValueError(f"expected {k} counts, got {len(counts)}")
    if any(type(c) is not int or c < 0 for c in counts) or sum(counts) != 2 * n:
        raise ValueError(f"counts must be nonnegative integers summing to {2 * n}: {counts!r}")
    if sum(1 for c in counts if c > 0) < 2:
        raise ValueError("at least two colors must be present")
    return (factorial(2 * n) // prod(map(factorial, counts))) ** 2
