"""Explicit perfect colorings: path periods and the three finite families.

Each finite order has one exhaustive driver, which builds its perfect
colorings from the order's rule.  Ci_{4n}(D_n) is the complete bipartite
graph K_{2n,2n}; a coloring is perfect there iff the two parts use disjoint
color sets or every color appears equally often in both (all_4n_colorings).
Ci_{4n+2}(D_n) is K_{2n+1,2n+1} minus the perfect matching {(i, i+2n+1)},
and Ci_{4n-2}(D_n) is K_{2n-1,2n-1} with the matching {(i, i+2n-1)} doubled.
all_matched_colorings builds both from color splits: the colors fall into
a monochrome set C1 and a paired-up set C2, a C1 edge repeats one color on
both endpoints, and C2 edges come in pairs (v_e,v_o),(u_e,u_o) colored x,y
and y,x so the even/odd color exchange stays consistent.  A bipartite split
instead pairs disjoint even-side and odd-side color sets across every edge.

Matching edges are indexed by their smaller endpoint i; the endpoint of even
index is derived per edge, since i itself may be odd.
"""

from itertools import product
from math import comb

from .core import (
    FiniteColoring,
    PeriodicColoring,
    WorkMeter,
    _built_coloring,
    require_positive_int,
)


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


def _matched_graph(n: int, t: int) -> int:
    """Number of matching edges of Ci_t(D_n); t must be 4n-2 or 4n+2."""
    require_positive_int("n", n)
    if t not in (4 * n - 2, 4 * n + 2):
        raise ValueError(f"order {t} is not 4n-2 or 4n+2 for n={n}")
    return t // 2


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


def count_4n_colorings(n: int, k: int) -> int:
    """Number of perfect k-colorings of Ci_{4n}(D_n), in closed form.

    The disjoint ones put e colors on the even part, each part onto its own
    set: C(k, e) * surj(2n, e) * surj(2n, k - e) for e = 1..k-1.  The
    balanced ones give both parts the same counts c of all k colors:
    multinomial(2n; c)^2 summed over the compositions c of 2n into k
    positive parts.
    """
    require_positive_int("n", n)
    require_positive_int("k", k)
    m = 2 * n

    def surj(e: int) -> int:
        return sum((-1) ** i * comb(e, i) * (e - i) ** m for i in range(e + 1))

    # squares[s]: the sum of multinomial(s; c)^2 over compositions c of s
    # into the number of positive parts placed so far.
    squares = [1] + [0] * m
    for _ in range(k):
        squares = [
            sum(comb(s, c) ** 2 * squares[s - c] for c in range(1, s + 1)) for s in range(m + 1)
        ]
    return sum(comb(k, e) * surj(e) * surj(k - e) for e in range(1, k)) + squares[m]


def all_4n_colorings(n: int, k: int, budget: int | None = None) -> tuple[FiniteColoring, ...]:
    """Every perfect k-coloring of Ci_{4n}(D_n), built from the K_{2n,2n} rule.

    Each of the k^(2n) part words is made once: one using all k colors is
    bucketed by its color counts, any other by its color set.  An even word
    is paired with the odd words of its own count bucket (balanced) or of
    the complementary color set (disjoint).  The budget's unit is one part
    word or one coloring built, all k^(2n) + count_4n_colorings(n, k) spent
    before building.  Every word built uses all k colors (a balanced even
    word uses them all; a disjoint pair's color sets are complementary), so
    the colorings are built without re-validation.
    """
    require_positive_int("n", n)
    require_positive_int("k", k)
    meter = WorkMeter(
        budget, f"balanced driver for n={n}, k={k}", "part words plus colorings built"
    )
    meter.spend(k ** (2 * n))
    meter.spend(count_4n_colorings(n, k))
    colors = range(1, k + 1)
    everything = frozenset(colors)
    by_counts: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    by_set: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for word in product(colors, repeat=2 * n):
        used = frozenset(word)
        if used == everything:
            by_counts.setdefault(tuple(map(word.count, colors)), []).append(word)
        else:
            by_set.setdefault(used, []).append(word)
    words = [
        _interleave(even, odd) for part in by_counts.values() for even in part for odd in part
    ]
    words += [
        _interleave(even, odd)
        for used, evens in by_set.items()
        for even in evens
        for odd in by_set.get(everything - used, ())
    ]
    return tuple(_built_coloring(FiniteColoring, word, k) for word in sorted(words))
