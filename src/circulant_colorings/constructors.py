"""Explicit perfect colorings: path periods and the three finite families.

Each finite order has one exhaustive driver, which builds its perfect
colorings from the order's rule.  Both drivers make every part word (the
colors of one parity class, in order) once and bucket it, by its color
counts if it uses all k colors and by its color set otherwise
(_part_words).

Ci_{4n}(D_n) is the complete bipartite graph K_{2n,2n}; a coloring is
perfect there iff the two parts use disjoint color sets or every color
appears equally often in both (all_4n_colorings).

Ci_{4n+2}(D_n) is K_{2n+1,2n+1} minus the perfect matching {(i, i+2n+1)},
and Ci_{4n-2}(D_n) is K_{2n-1,2n-1} with the matching {(i, i+2n-1)} doubled
(all_matched_colorings).  Either way a vertex sees every vertex of the other
part, less or plus its matched vertex, so a coloring is perfect iff the
matching carries each color a of one part to one color sigma(a) of the
other, with sigma one of:
  * an involution of all k colors that keeps the color counts, both parts
    having the same counts: fixed colors are monochrome matching edges, and
    each 2-cycle {x, y} holds edges colored x,y and y,x;
  * a bijection from the even part's k/2 colors onto the odd part's other
    k/2 colors (bipartite).
Why: with E, O the parts' count vectors, a color a on both parts needs
O - E = +-(e_sigma(a) - e_sigma^-1(a)).  If that is nonzero, sigma's
injectivity leaves a the only shared color and forces m = 2, but m = t/2 is
odd; so O = E, every color is on both parts and sigma is an involution.
"""

from itertools import permutations, product
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


def _part_words(k: int, length: int):
    """Every part word over 1..k, made once and bucketed.

    Returns (by_counts, by_set): a word using all k colors goes into
    by_counts under its color counts, any other into by_set under its color
    set.
    """
    colors = range(1, k + 1)
    everything = frozenset(colors)
    by_counts: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    by_set: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for word in product(colors, repeat=length):
        used = frozenset(word)
        if used == everything:
            by_counts.setdefault(tuple(map(word.count, colors)), []).append(word)
        else:
            by_set.setdefault(used, []).append(word)
    return by_counts, by_set


def all_matched_colorings(
    n: int, t: int, k: int, budget: int | None = None
) -> tuple[FiniteColoring, ...]:
    """Every perfect k-coloring of Ci_t(D_n) for t = 4n+-2, built from its rule.

    With m = t/2, even vertex 2j is matched to odd vertex 2j+m, so the odd
    part word is sigma of the even part word rotated by (m-1)/2, for each
    sigma the rule allows: an involution of all k colors that keeps the
    even word's color counts, or a bijection from the even word's k/2
    colors onto the others (module docstring).  The budget's unit is one
    part word or one coloring built: the k^m part words are spent before
    bucketing, and the number of colorings, taken from the bucket sizes,
    before building.  Every word built uses all k colors, so the colorings
    are built without re-validation.
    """
    m = _matched_graph(n, t)
    require_positive_int("k", k)
    meter = WorkMeter(
        budget, f"matched driver for n={n}, t={t}, k={k}", "part words plus colorings built"
    )
    meter.spend(k**m)
    by_counts, by_set = _part_words(k, m)
    colors = tuple(range(1, k + 1))
    # Each bucket's even words with their sigmas; sigmas only for buckets that exist.
    involutions = [dict(zip(colors, p)) for p in permutations(colors)] if by_counts else []
    involutions = [s for s in involutions if all(s[s[c]] == c for c in colors)]
    plans = [
        (evens, [s for s in involutions if all(counts[s[c] - 1] == counts[c - 1] for c in colors)])
        for counts, evens in by_counts.items()
    ]
    plans += [
        (evens, [dict(zip(sorted(used), p)) for p in permutations(sorted(set(colors) - used))])
        for used, evens in by_set.items()
        if 2 * len(used) == k
    ]
    meter.spend(sum(len(evens) * len(sigmas) for evens, sigmas in plans))
    r = (m - 1) // 2
    words = [
        _interleave(even, tuple(map(sigma.__getitem__, even[-r:] + even[:-r])))
        for evens, sigmas in plans
        for even in evens
        for sigma in sigmas
    ]
    return tuple(_built_coloring(FiniteColoring, word, k) for word in sorted(words))


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
    by_counts, by_set = _part_words(k, 2 * n)
    everything = frozenset(range(1, k + 1))
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
