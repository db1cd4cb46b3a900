"""Perfection checking.

A coloring is perfect when the multiset of colors in a vertex's neighborhood
depends only on the vertex's own color; the common counts form the parameter
matrix.  is_bipartite_coloring tells apart the colorings whose two parity
classes share no color.  The paper's structural claims about perfect
2-colorings of Ci(D_n) are properties of the search's output, so the test
suite checks them there (tests/conftest.py, k2_claims_broken).

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
    require_distance_set,
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


def is_bipartite_coloring(coloring: Coloring, dset: DistanceSet) -> bool:
    """True iff even and odd vertices use disjoint color sets.

    Only meaningful on a bipartite graph, so every distance must be odd and a
    finite order must be even.
    """
    require_distance_set(dset)
    if any(d % 2 == 0 for d in dset):
        raise ValueError(f"graph is not bipartite: even distance in {dset.distances!r}")
    if isinstance(coloring, FiniteColoring) and coloring.t % 2 != 0:
        raise ValueError(f"graph is not bipartite: odd order {coloring.t}")
    # Scan lcm(2, L) positions so both parities of Z meet every word position.
    word = coloring.word * (1 + len(coloring.word) % 2)
    return not set(word[::2]) & set(word[1::2])
