"""Perfection checking and the necessary conditions on 2-colorings.

A coloring is perfect when the multiset of colors in a vertex's neighborhood
depends only on the vertex's own color; the common counts form the parameter
matrix.  For 2-colorings of the odd-distance graphs Ci(D_n) the interesting
quantities are the outer degrees b and c -- how many neighbors of the other
color a color-1 (resp. color-2) vertex sees.  Only four values of b + c can
occur, namely 4n, 2n, 2n+1 and 2n-1, and each value forces a matrix shape,
local color patterns, and a period length.  Those conditions are exposed here
as predicates so the enumeration results can be audited against them.

check_perfect counts every vertex's neighbors at once, in a cyclic
convolution done as one integer product (Kronecker substitution).  With L
the word length, w the bytes that hold 2|D| and s = 8kw, vertex v owns the
s-bit slot v of X, holding 1 in byte w(c-1) for its color c, and
Y = sum over d in D of 2^(s(d mod L)) + 2^(s(-d mod L)).
  * No carry leaves a w-byte color field: before and after the fold, a field
    of slot j counts each of the 2|D| offsets at most once, and 2|D| < 256^w.
  * One fold is enough: X, Y < 2^(sL), so X*Y < 2^(2sL), and adding the
    high half (above bit sL) to the low half reduces slot indices mod L.
  * The convolution is the neighbor sum: slot j holds the colors at j - o
    over the offsets o = +-d mod L, a multiset closed under negation, so
    they are j's neighbors' colors, loops and multiedges included.
"""

from dataclasses import dataclass

from .core import (
    DistanceSet,
    FiniteColoring,
    ParameterMatrix,
    PeriodicColoring,
    make_odd_distance_set,
    require_distance_set,
    require_positive_int,
)

Coloring = FiniteColoring | PeriodicColoring


@dataclass(frozen=True)
class PerfectionVerdict:
    """Outcome of a perfection check.

    Exactly one of matrix / witness is present: the parameter matrix for a
    perfect coloring, or a pair of same-colored vertices with different
    neighborhood counts for an imperfect one.
    """

    is_perfect: bool
    matrix: ParameterMatrix | None = None
    witness: tuple[int, int] | None = None

    def __post_init__(self):
        if self.is_perfect != (self.matrix is not None) or self.is_perfect != (
            self.witness is None
        ):
            raise ValueError("verdict must carry a matrix xor a witness")

    def __bool__(self) -> bool:
        return self.is_perfect

    def to_json(self) -> dict:
        return {
            "perfect": self.is_perfect,
            "matrix": self.matrix.to_lists() if self.matrix else None,
            "witness": list(self.witness) if self.witness else None,
        }


def check_perfect(coloring: Coloring, dset: DistanceSet) -> PerfectionVerdict:
    """Decide perfection of a coloring on Ci_t(D) or Ci(D).

    For a periodic coloring the vertices 0..p-1 cover every translation class,
    so checking one period decides the whole of Z.  All counts come from one
    folded product (module docstring); an imperfect coloring's witness is its
    color's first vertex and the first vertex whose counts differ from it.
    """
    require_distance_set(dset)
    word, k, length = coloring.word, coloring.k, len(coloring.word)
    width = ((2 * len(dset)).bit_length() + 7) // 8
    slot, bits = k * width, 8 * k * width
    one_hot = {c: (1 << 8 * width * (c - 1)).to_bytes(slot, "little") for c in range(1, k + 1)}
    x = int.from_bytes(b"".join(map(one_hot.__getitem__, word)), "little")
    product = x * sum((1 << bits * (d % length)) + (1 << bits * (-d % length)) for d in dset)
    counts = (product & ((1 << bits * length) - 1)) + (product >> bits * length)
    got = counts.to_bytes(slot * length, "little")
    first_seen = {c: word.index(c) for c in range(1, k + 1)}
    rows = {c: got[v * slot : (v + 1) * slot] for c, v in first_seen.items()}
    expected = b"".join(map(rows.__getitem__, word))
    if got != expected:
        diff = counts ^ int.from_bytes(expected, "little")
        v = ((diff & -diff).bit_length() - 1) // bits
        return PerfectionVerdict(False, witness=(first_seen[word[v]], v))
    fields = range(0, slot, width)
    matrix = [[int.from_bytes(r[i : i + width], "little") for i in fields] for r in rows.values()]
    return PerfectionVerdict(True, matrix=ParameterMatrix(matrix))


def _parity_color_sets(coloring: Coloring) -> tuple[set[int], set[int]]:
    # Scan lcm(2, L) positions so both parities of Z meet every word position.
    length = len(coloring.word)
    span = length if length % 2 == 0 else 2 * length
    evens = {coloring.color_at(i) for i in range(0, span, 2)}
    odds = {coloring.color_at(i) for i in range(1, span, 2)}
    return evens, odds


def is_bipartite_coloring(coloring: Coloring, dset: DistanceSet) -> bool:
    """True iff even and odd vertices use disjoint color sets.

    Only meaningful on a bipartite graph, so every distance must be odd and a
    finite order must be even.
    """
    if any(d % 2 == 0 for d in dset):
        raise ValueError(f"graph is not bipartite: even distance in {dset.distances!r}")
    if isinstance(coloring, FiniteColoring) and coloring.t % 2 != 0:
        raise ValueError(f"graph is not bipartite: odd order {coloring.t}")
    evens, odds = _parity_color_sets(coloring)
    return not (evens & odds)


def check_even_odd_balance(coloring: Coloring) -> bool:
    """Bipartite-or-balanced test over one period (or one finite order).

    True iff the even and odd positions use disjoint color sets, or every
    color occurs equally often in both.  Needs an even word length, otherwise
    the parity classes of Z are not aligned with the word.
    """
    length = len(coloring.word)
    if length % 2 != 0:
        raise ValueError(f"word length must be even, got {length}")
    evens = [0] * coloring.k
    odds = [0] * coloring.k
    for i, color in enumerate(coloring.word):
        (evens if i % 2 == 0 else odds)[color - 1] += 1
    disjoint = all(e == 0 or o == 0 for e, o in zip(evens, odds))
    return disjoint or evens == odds


@dataclass(frozen=True)
class OuterDegrees:
    """Cross-color counts of a perfect 2-coloring on Ci(D_n).

    b is attached to color 1 and c to color 2; both are at least 1 whenever
    both colors actually occur, because the graphs are connected.
    """

    b: int
    c: int
    n: int


def outer_degrees(matrix: ParameterMatrix, n: int) -> OuterDegrees:
    """Extract (b, c) from a 2x2 parameter matrix with row sums 2n."""
    if matrix.k != 2:
        raise ValueError(f"outer degrees need a 2x2 matrix, got k={matrix.k}")
    if matrix.row_sums() != (2 * n, 2 * n):
        raise ValueError(f"row sums {matrix.row_sums()} do not match degree {2 * n}")
    return OuterDegrees(b=matrix.rows[0][1], c=matrix.rows[1][0], n=n)


@dataclass(frozen=True)
class MatrixTemplateFamily:
    """All admissible 2x2 matrices sharing one value of b + c.

    entries maps each valid b to its matrix; c = bc_sum - b is implied.  The
    range keeps both outer degrees positive, so a family can be empty (the
    b + c = 2n - 1 family at n = 1 has no positive decomposition).
    """

    bc_sum: int
    entries: tuple[tuple[int, ParameterMatrix], ...]

    def matrices(self) -> tuple[ParameterMatrix, ...]:
        return tuple(m for _, m in self.entries)


def admissible_matrix_templates(n: int) -> tuple[MatrixTemplateFamily, ...]:
    """The four matrix families a perfect 2-coloring of Ci(D_n) can have.

    Ordered by b + c = 4n, 2n, 2n+1, 2n-1.  The first is the bipartite
    matrix; in the other three, c determines the diagonal through the row-sum
    constraint, giving the shapes ((c,b),(c,b)), ((c-1,b),(c,b-1)) and
    ((c+1,b),(c,b+1)) respectively.
    """
    require_positive_int("n", n)
    two_n = 2 * n
    bipartite = MatrixTemplateFamily(
        4 * n, ((two_n, ParameterMatrix(((0, two_n), (two_n, 0)))),)
    )

    def family(bc_sum: int, build) -> MatrixTemplateFamily:
        entries = []
        for b in range(1, bc_sum):
            c = bc_sum - b
            rows = build(b, c)
            if all(x >= 0 for row in rows for x in row):
                entries.append((b, ParameterMatrix(rows)))
        return MatrixTemplateFamily(bc_sum, tuple(entries))

    equal_rows = family(two_n, lambda b, c: ((c, b), (c, b)))
    plus_one = family(two_n + 1, lambda b, c: ((c - 1, b), (c, b - 1)))
    minus_one = family(two_n - 1, lambda b, c: ((c + 1, b), (c, b + 1)))
    return (bipartite, equal_rows, plus_one, minus_one)


def _perfect_two_coloring_sum(coloring: PeriodicColoring, n: int) -> int:
    dset = make_odd_distance_set(n)
    verdict = check_perfect(coloring, dset)
    if coloring.k != 2 or not verdict.is_perfect:
        raise ValueError("coloring must be a perfect 2-coloring of Ci(D_n)")
    deg = outer_degrees(verdict.matrix, n)
    return deg.b + deg.c


def check_local_patterns(coloring: PeriodicColoring, n: int) -> bool:
    """Verify the forced local patterns of a perfect 2-coloring of Ci(D_n).

    For every vertex i (one period suffices):
      * phi(i) = phi(i+2) forces phi(i-2n+1) = phi(i+2n+1);
      * phi(i) != phi(i+2) with b+c = 2n+1 forces phi(i-2n+1) = phi(i+2)
        and phi(i+2n+1) = phi(i);
      * phi(i) != phi(i+2) with b+c = 2n-1 forces phi(i-2n+1) = phi(i)
        and phi(i+2n+1) = phi(i+2).
    """
    bc_sum = _perfect_two_coloring_sum(coloring, n)
    phi = coloring.color_at
    shift = 2 * n - 1
    for i in range(coloring.period):
        if phi(i) == phi(i + 2):
            if phi(i - shift) != phi(i + shift + 2):
                return False
        elif bc_sum == 2 * n + 1:
            if phi(i - shift) != phi(i + 2) or phi(i + shift + 2) != phi(i):
                return False
        elif bc_sum == 2 * n - 1:
            if phi(i - shift) != phi(i) or phi(i + shift + 2) != phi(i + 2):
                return False
    return True


def check_period_length_claim(coloring: PeriodicColoring, n: int) -> bool:
    """Verify that the period forced by b + c divides the coloring's period.

    The claimed lengths are 2 for the bipartite sum 4n, 4n for sum 2n, and
    2n+1 / 2n-1 for the matching sums.  Divisibility is what is claimed and
    tested; the primitive period may be a proper divisor.
    """
    bc_sum = _perfect_two_coloring_sum(coloring, n)
    lengths = {4 * n: 2, 2 * n: 4 * n, 2 * n + 1: 2 * n + 1, 2 * n - 1: 2 * n - 1}
    if bc_sum not in lengths:
        raise ValueError(f"unexpected outer degree sum {bc_sum} for n={n}")
    claimed = lengths[bc_sum]
    phi = coloring.color_at
    return all(phi(i) == phi(i + claimed) for i in range(coloring.period))
