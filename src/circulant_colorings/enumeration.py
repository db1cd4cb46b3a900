"""Exhaustive search engines for perfect colorings.

Finite graphs are searched by color-class partition: perfection is invariant
under any bijective recoloring, so it is decided once per partition of the
vertices.  Rotations and reflections are automorphisms of Ci_t(D), so the
perfect partitions fall into symmetry classes whose members have one set of
reduced images; each class is expanded through the k! labelings once, and a
later partition whose image is already covered is skipped.  The
partitions (restricted growth strings with exactly k classes) are searched
depth first in a closing order, which next colors the uncolored rest of the
closed neighborhood with fewest left, and two rules prune a prefix as soon
as no completion can be perfect: a vertex whose closed neighborhood is
fully colored must see exactly the row its color's first closed vertex
fixed (closed rule), and a colored vertex may never see more of a color
than its fixed row allows, since counts only grow (bound rule).  Neither
rule depends on the order, and growth strings along any fixed order list
each partition once.
check_perfect runs once per partition that survives to a leaf and is the
verdict and the source of its matrix; a kept labeling's matrix is the
class matrix conjugated by the recoloring (core._conjugator, whose rows go
through one table per search), and rotations and reflections are graph
automorphisms, so an orbit representative keeps its labeling's matrix.

Every search spends its budget through one core.WorkMeter, in its own
unit: the finite search counts vertices colored plus k! per perfect
partition, candidate_matrices the tree matrices it generates, and the
periodic search the window digits it places while generating its starts
plus the steps it walks.

The infinite graphs Ci(D_n) are handled by a forced-extension recurrence.
In Ci(D_n) the neighborhood of v is {v-2n+1, v-2n+3, ..., v+2n-1}, so

    N(v+2) = N(v) - {v-2n+1} + {v+2n+1}.

In a perfect coloring c with rows r, counting colors on both sides gives
e_{c(v+2n+1)} = r_{c(v+2)} - r_{c(v)} + e_{c(v-2n+1)}: a recurrence of order
4n with three taps.  The state is a window of 4n consecutive colors whose
two middle vertices (offsets 2n-1 and 2n) see their rows; their
neighborhoods are exactly the even and the odd offsets of the window.  One
step forces the color at offset 4n from the taps (c(2n-1), c(2n+1), c(0)):
the vertex at 2n+1 sees r_{c(2n-1)} - e_{c(0)} inside the window and needs
r_{c(2n+1)}.  _forced_color(row, known) is the only step rule: row and
known sum to 2n and 2n-1, so the deficits row - known sum to 1, and either
one is negative (no extension is consistent) or exactly one is 1 and that
color is forced.  Per matrix the rule is tabulated once over its k^3 taps
(Automaton.table), so a step is one lookup: step_window takes it on one
window, and the search walks the same table.

Perfect colorings are precisely the cycles of this map on consistent
windows, and the map is injective there: the same identity recovers
e_{c(0)} = r_{c(2n-1)} - r_{c(2n+1)} + e_{c(4n)} from the next window, so
two consistent windows with one successor are equal.  A walk from a start
s therefore never enters a cycle it did not start on: it returns to s or
dies.  Each cycle is recorded from its least window only, and a walk stops
at the first window below s; no cycle is lost, because a walk that meets a
smaller window either dies or lies on a cycle whose least window is
smaller than s and records it.  A cycle's least window is a prenecklace,
so the starts are the consistent windows that are prenecklaces, generated
directly from the rows.  No visited set or path is kept, so memory is the
output.

Two rules keep the walks to the cycles Ci_{4n} = K_{2n,2n} does not
already give: a start whose middle colors form a K pair is recorded at the
generator's leaf without a walk, and a start prefix whose taps force no
color is cut while it is built.  _prenecklace_windows argues both.  Each
cycle comes out least-rotated (_cycles), so its recolorings' least
rotations are canonical words, each built once without re-validation.

Only the matrices of candidate_matrices are searched, one per S_k conjugacy
orbit, and its docstring argues that no onto coloring is lost; each onto
cycle found is expanded through the k! recolorings once and folded there.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import permutations, product
from math import factorial
from operator import gt, sub

from .core import (
    DistanceSet,
    FiniteColoring,
    ParameterMatrix,
    PeriodicColoring,
    WorkMeter,
    _built_coloring,
    _conjugator,
    least_rotation,
    neighbor_offsets,
    primitive_period,
    require_distance_set,
    require_positive_int,
)
from .perfection import check_perfect

# A window of 4n consecutive colors, the automaton's state.
WindowState = tuple[int, ...]

Entry = tuple[FiniteColoring | PeriodicColoring, ParameterMatrix]


@dataclass(frozen=True)
class EnumerationResult:
    """Colorings found by a search, with their matrices and run statistics."""

    entries: tuple[Entry, ...]
    stats: dict = field(compare=False, default_factory=dict)

    def words(self) -> set[tuple[int, ...]]:
        return {c.word for c, _ in self.entries}


def _images(word: tuple, reflection: bool, color_permutation: bool):
    """The word's reversed and recolored images, without rotations.

    Reversal and recoloring map rotations to rotations, so an orbit under
    rotation and these symmetries is the union of the images' rotation
    classes, and least_rotation is the only code that rotates.  A recoloring
    permutes the colors the word uses.
    """
    images = [word, word[::-1]] if reflection else [word]
    if not color_permutation:
        return images
    colors = sorted(set(word))
    relabels = (dict(zip(colors, target)) for target in permutations(colors))
    return [tuple(relabel[c] for c in w) for relabel in relabels for w in images]


def canonical_form(
    word: tuple[int, ...],
    *,
    reflection: bool = False,
    color_permutation: bool = False,
) -> tuple[int, ...]:
    """Canonical representative of a periodic word under the chosen symmetries.

    The least rotation of the primitive period's reversed and recolored
    images; with neither symmetry it is the word PeriodicColoring stores.
    """
    word = primitive_period(tuple(word))
    return min(map(least_rotation, _images(word, reflection, color_permutation)))


def _perfect_partitions(t: int, dset: DistanceSet, k: int, stats: dict, meter: WorkMeter):
    """Depth-first search for the color-class partitions that can be perfect.

    Vertices are colored in a closing order, built by repeating one step:
    the closed neighborhood {v} | N(v) with the fewest uncolored vertices
    (least v on ties) appends those vertices in increasing order, so
    neighborhoods close early, not when they wrap round to the last vertex.
    The search works on positions in that order (word[i], colors 0..k-1, is
    the color at position i), and a restricted growth string along any
    fixed order lists each partition exactly once.  counts[i] holds how many
    colored neighbors position i has of each color, over the multiset
    neighbor_offsets(dset, t), so multiedges and loops count as often as
    check_perfect counts them.  Coloring position i adds its color to the
    counts of every position whose neighborhood holds i; then two rules
    prune, and neither depends on the order:

    * Closed rule.  closing[i] lists the positions whose closed
      neighborhood has i as its last member.  Once i is colored, their
      colors and counts are final, and in a perfect coloring they are their
      colors' rows.  The first such vertex of a color fixes that row; every
      later one must equal it, or no completion is perfect.  The row is
      unset again on backtrack.
    * Bound rule.  Coloring more vertices only adds to counts, so a colored
      vertex whose color's row is fixed and whose partial count exceeds that
      row in some color has final counts that differ from the row in every
      completion.  The rule is applied to each count that grows, to the
      counts of a vertex when it is colored, and to every colored vertex of
      a color whose row has just been fixed.

    Both rules only discard prefixes with no perfect completion, so each
    leaf, yielded as its word in vertex order over colors 1..k, is a
    perfect partition.  stats gains nodes_visited (vertices colored),
    pruned_closed and pruned_bound (nodes each rule cut off).  The meter is
    spent one unit per vertex colored and k! per leaf, the labelings of its
    partition, so the count also bounds the colorings the caller keeps.
    """
    offsets = neighbor_offsets(dset, t)
    hoods = [{v, *((v + o) % t for o in offsets)} for v in range(t)]
    order: list[int] = []  # order[i]: the vertex colored at position i
    while len(order) < t:
        rest = (sorted(h.difference(order)) for h in hoods)
        order += min((r for r in rest if r), key=len)
    at = [order.index(v) for v in range(t)]  # at[v]: the position of vertex v
    # seen_by[i]: the positions whose neighborhood holds i, with multiplicity.
    seen_by = [tuple(at[(v - o) % t] for o in offsets) for v in order]
    closing: list[list[int]] = [[] for _ in range(t)]
    for v in range(t):
        closing[max(at[u] for u in hoods[v])].append(at[v])
    word = [0] * t
    counts = [[0] * k for _ in range(t)]
    rows: list[list[int] | None] = [None] * k
    nodes = pruned_closed = pruned_bound = 0
    labelings = factorial(k)
    spend = meter.spend

    def fits(i: int, color: int, fixed_here: list[int]) -> bool:
        """Whether both rules pass once position i has color; rows fixed go in fixed_here."""
        nonlocal pruned_closed, pruned_bound
        for v in closing[i]:
            row = rows[word[v]]
            if row is None:
                rows[word[v]] = counts[v][:]
                fixed_here.append(word[v])
            elif counts[v] != row:
                pruned_closed += 1
                return False
        row = rows[color]
        if row is not None and any(map(gt, counts[i], row)):
            pruned_bound += 1
            return False
        for u in seen_by[i]:
            row = rows[word[u]]
            if u < i and row is not None and counts[u][color] > row[color]:
                pruned_bound += 1
                return False
        for fixed in fixed_here:
            row = rows[fixed]
            for u in range(i):
                if word[u] == fixed and any(map(gt, counts[u], row)):
                    pruned_bound += 1
                    return False
        return True

    def extend(i: int, used: int):
        nonlocal nodes
        if i == t:
            spend(labelings)
            yield tuple(word[p] + 1 for p in at)
            return
        for color in range(min(used + 1, k)):
            now_used = used + (color == used)
            if k - now_used > t - i - 1:
                continue
            nodes += 1
            spend()
            word[i] = color
            for u in seen_by[i]:
                counts[u][color] += 1
            fixed_here: list[int] = []
            if fits(i, color, fixed_here):
                yield from extend(i + 1, now_used)
            for u in seen_by[i]:
                counts[u][color] -= 1
            for fixed in fixed_here:
                rows[fixed] = None

    yield from extend(0, 0)
    stats.update(nodes_visited=nodes, pruned_closed=pruned_closed, pruned_bound=pruned_bound)


def enumerate_perfect_finite(
    t: int,
    dset: DistanceSet,
    k: int,
    *,
    rotation: bool = False,
    reflection: bool = False,
    color_permutation: bool = False,
    budget: int | None = None,
) -> EnumerationResult:
    """All perfect k-colorings of Ci_t(D), optionally reduced modulo symmetry.

    The color-class partitions are searched depth first over restricted
    growth strings in _perfect_partitions' closing order, pruned by its
    closed and bound rules as neighborhoods close; each partition that survives
    to a leaf is checked once with check_perfect, whose verdict decides it
    and whose matrix, relabeled, every coloring reported carries.

    A labeling's image is its least word under the position symmetries the
    flags choose (rotations, the reversal, both or neither), and a perfect
    partition B's class is its images under those symmetries.  Each class
    is expanded once: the first partition of a class reduces all k! of its
    labelings, and a later perfect partition is skipped once the image of
    one of its labelings is already covered.  Soundness: rotations and
    reflections are automorphisms of Ci_t(D), so the set of perfect
    partitions is closed under them.  If sigma o g . B = g' . B' for a
    recoloring sigma and position symmetries g, g', then B' = g'^-1 g . B as
    a partition, so B' lies in the class of B and every labeling of B' is a
    position image of a labeling of B: the two have one set of images, and
    the skip loses none.  A perfect coloring's matrix is a function of its
    word and automorphisms keep it, so the relabeled class matrix of the
    first labeling reaching an image is that image's matrix.  With
    color_permutation only each class's least image is kept, and the covered
    images are held apart; otherwise the images found are the covered ones.

    The budget's unit is one vertex colored (nodes_visited) plus k! per perfect
    partition, whether its class is expanded or skipped, which is at least
    the number of labeled colorings kept, so it bounds memory too.

    stats:
      classes_examined -- leaves reached, one check_perfect each;
      perfect_classes -- leaves check_perfect found perfect;
      colorings -- entries returned;
      nodes_visited -- vertices colored during the search;
      pruned_closed -- nodes cut off because a closed neighborhood's counts
        differ from its color's row;
      pruned_bound -- nodes cut off because a partial count exceeds a row;
      units -- the budget units spent.
    """
    require_positive_int("t", t)
    require_positive_int("k", k)
    require_distance_set(dset)
    meter = WorkMeter(
        budget, f"finite search for t={t}, k={k}", "vertices colored plus k! per perfect partition"
    )
    labelings = tuple(permutations(range(1, k + 1)))
    shared: dict = {}  # the kept matrices' rows, so equal rows are one tuple
    conjugator = cache(lambda target: _conjugator(target, shared))  # built when first kept

    def least_image(word: tuple[int, ...]) -> tuple[int, ...]:
        # finite words keep their length: no primitive reduction
        images = _images(word, reflection, False)
        return min(map(least_rotation, images) if rotation else images)

    found: dict[tuple[int, ...], ParameterMatrix] = {}
    # The images of the classes expanded so far; found keeps only each
    # class's least image when colors fold, and every image otherwise.
    covered = set() if color_permutation else found
    stats = {"classes_examined": 0, "perfect_classes": 0}
    for base in _perfect_partitions(t, dset, k, stats, meter):
        stats["classes_examined"] += 1
        verdict = check_perfect(_built_coloring(FiniteColoring, base, k), dset)
        if not verdict.is_perfect:
            continue
        stats["perfect_classes"] += 1
        if least_image(base) in covered:
            continue  # its symmetry class is expanded already
        # Each image of the class, with a recoloring of base producing it.
        images: dict[tuple[int, ...], tuple[int, ...]] = {}
        for target in labelings:
            images.setdefault(least_image(tuple(target[c - 1] for c in base)), target)
        if color_permutation:
            covered.update(images)
            images = dict([min(images.items())])  # the class's least image
        for image, target in images.items():
            found[image] = conjugator(target)(verdict.matrix.rows)
    # every word labels a k-class partition or is a position image of one
    entries = tuple((_built_coloring(FiniteColoring, w, k), found[w]) for w in sorted(found))
    stats.update(colorings=len(entries), units=meter.spent)
    return EnumerationResult(entries, stats)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _is_balanced(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Whether densities p > 0 exist with p_i M_ij = p_j M_ji on a connected support.

    The support must already be symmetric.  A BFS from color 1 fixes
    p_j = p_i M_ij / M_ji exactly, as an integer fraction (num, den); the
    matrix fails if a color is unreached or an edge disagrees with the
    densities already set.
    """
    density: list[tuple[int, int] | None] = [None] * len(rows)
    density[0] = (1, 1)
    queue = [0]
    for i in queue:
        num, den = density[i]
        for j, count in enumerate(rows[i]):
            if j == i or not count:
                continue
            p = (num * count, den * rows[j][i])
            if density[j] is None:
                density[j] = p
                queue.append(j)
            elif density[j][0] * p[1] != p[0] * density[j][1]:
                return False
    return None not in density


def _has_parity_split(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Whether some split into even colors A and odd colors B is consistent.

    B is the union of the supports of the rows in A; the split needs
    A | B = all colors, supp(r_c) <= A for c in B, and A and B each connected
    when colors whose rows differ by at most one unit transfer (L1 <= 2) are
    joined.  The support must be symmetric and connected, as _is_balanced
    ensures, and then two splits are all there is to try.  A color c in
    A & B has supp(r_c) <= B, as c is in A, and supp(r_c) <= A, as c is in
    B; so A & B is closed under the support and is every color or none.  In
    the first case A = B = all colors, consistent exactly when all colors
    are connected.  In the second, A and B are disjoint and every support
    edge joins them, so they are the support's bipartition, unique up to a
    swap under which the conditions are symmetric, and consistent exactly
    when each side is connected.
    """

    def connected(group: list[tuple[int, ...]]) -> bool:
        """Whether the rows of group are joined by steps of L1 distance <= 2."""
        reached, rest = group[:1], group[1:]
        for row in reached:
            left = []
            for other in rest:
                (reached if sum(map(abs, map(sub, row, other))) <= 2 else left).append(other)
            rest = left
        return not rest

    if connected(list(rows)):
        return True
    # Two-color the support by BFS from color 0; an odd cycle rules out A & B = {}.
    side: list[int | None] = [0] + [None] * (len(rows) - 1)
    queue = [0]
    for i in queue:
        for j, count in enumerate(rows[i]):
            if count and side[j] is None:
                side[j] = 1 - side[i]
                queue.append(j)
            elif count and side[j] == side[i]:
                return False
    return all(connected([row for row, s in zip(rows, side) if s == half]) for half in (0, 1))


def candidate_matrices(
    n: int, k: int, budget: int | None = None
) -> tuple[ParameterMatrix, ...]:
    """Parameter matrices worth searching for Ci(D_n) with k colors, one per S_k orbit.

    Each k x k nonnegative matrix with row sums 2n that passes three rules
    is conjugate to one matrix returned, its orbit's least conjugate, sorted
    by rows.  Each rule removes only matrices no onto coloring has:

    * Balance.  A perfect coloring is periodic; over one period of P
      vertices, with N_i vertices of color i, counting the i-j edges from
      both ends gives N_i M_ij = N_j M_ji.  So the densities p_i = N_i / P are
      positive and p_i M_ij = p_j M_ji: the support is symmetric (enforced
      row by row during generation) and every cycle of the support agrees on
      p.  Ci(D_n) is connected (1 is in D_n) and every color is used, so the
      support is connected too.
    * Parity.  Ci(D_n) is bipartite between even and odd integers.  With A
      and B the colors on even and odd vertices, every odd vertex has an
      even neighbor, so B = union of supp(r_c) for c in A, A | B = [k] as the
      coloring is onto, and supp(r_c) <= A for c in B.  Consecutive
      same-parity vertices have rows equal or one unit transfer apart
      (N(v+2) = N(v) - {v-2n+1} + {v+2n+1}), so A and B are each connected
      under that relation.  _has_parity_split tries the only two splits.
    * Color symmetry.  A recoloring of a perfect coloring is perfect with
      the conjugated matrix, and both rules are invariant under conjugation.

    Rows are placed in turn under the support mask (M_ij > 0 for j < i
    exactly where M_ji > 0) along a unit-transfer tree: row 0 is free, and
    each later row is within one unit transfer (L1 <= 2, itself included) of
    an earlier row, but for at most one fresh root.  Each orbit the rules
    keep has such a member: order the colors of a kept matrix with split A, B
    as A breadth-first under that relation, then B - A breadth-first from
    A & B, or B from a fresh root when A & B is empty.  The first matrix of
    an orbit to pass _is_balanced and _has_parity_split puts its k!
    conjugates in a seen set and its least one in the result (isomorph
    rejection after generation; McKay, J. Algorithms 26, 1998).  The
    budget's unit is one tree matrix generated, the work the rules do.
    """
    require_positive_int("n", n)
    require_positive_int("k", k)
    meter = WorkMeter(budget, f"matrix generation for n={n}, k={k}", "tree matrices generated")
    compositions = tuple(_compositions(2 * n, k))
    # near[row]: row and the rows one unit transfer from it
    near = {row: {tuple(x - (c == j) + (c == i) for c, x in enumerate(row))
                  for j in range(k) if row[j] for i in range(k)} for row in compositions}
    # fitting[i][mask]: rows whose support among the columns j < i is mask.
    fitting: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in range(k)]
    for row in compositions:
        support = sum(1 << j for j, count in enumerate(row) if count)
        for i in range(k):
            fitting[i].setdefault(support & ((1 << i) - 1), []).append(row)
    shared: dict = {}  # seen's rows, so equal rows are one tuple
    conjugators = [_conjugator(p, shared) for p in permutations(range(1, k + 1))]
    seen, least = set(), []  # every conjugate of the orbits met; their least members

    def extend(prefix: tuple[tuple[int, ...], ...], close: set, roots: int):
        """Place row len(prefix); close holds the rows near the prefix's rows."""
        i = len(prefix)
        required = sum(1 << j for j, row in enumerate(prefix) if row[i])
        for row in fitting[i].get(required, ()):
            left = roots - (row not in close)
            if left < 0:
                continue
            matrix = prefix + (row,)
            if i < k - 1:
                extend(matrix, close | near[row], left)
                continue
            meter.spend()
            if _is_balanced(matrix) and matrix not in seen and _has_parity_split(matrix):
                images = {conjugate(matrix).rows for conjugate in conjugators}
                seen.update(images)
                least.append(min(images))

    extend((), set(), 2)  # row 0 and at most one fresh root
    return tuple(ParameterMatrix(rows) for rows in sorted(least))


@dataclass(frozen=True)
class Automaton:
    """Forced-extension automaton for perfect colorings of Ci(D_n).

    Its state is a window of 4n consecutive colors, the window the periodic
    search walks.  A window is consistent when its two middle vertices see
    exactly their matrix rows: the vertex at offset 2n-1 sees the even
    offsets and the vertex at 2n the odd ones.  table is the forced-color
    rule tabulated over the taps by _tap_table, built on first use.
    """

    n: int
    k: int
    matrix: ParameterMatrix

    def __post_init__(self):
        require_positive_int("n", self.n)
        require_positive_int("k", self.k)
        if self.matrix.k != self.k:
            raise ValueError(f"matrix is {self.matrix.k}x{self.matrix.k}, expected k={self.k}")
        if self.matrix.row_sums() != (2 * self.n,) * self.k:
            raise ValueError(f"row sums {self.matrix.row_sums()} must all equal {2 * self.n}")

    @property
    def window_length(self) -> int:
        return 4 * self.n

    @cached_property
    def table(self) -> list[int | None]:
        return _tap_table(self.matrix.rows)


def window_is_consistent(automaton: Automaton, window: WindowState) -> bool:
    """Whether the even offsets count r_c(2n-1) and the odd offsets count r_c(2n)."""
    k, middle = automaton.k, 2 * automaton.n
    if len(window) != automaton.window_length:
        raise ValueError(f"window must have length {automaton.window_length}")
    if any(type(c) is not int or not 1 <= c <= k for c in window):
        raise ValueError(f"window colors must be integers in 1..{k}: {window!r}")
    rows, colors = automaton.matrix.rows, range(1, k + 1)
    return (
        tuple(map(window[0::2].count, colors)) == rows[window[middle - 1] - 1]
        and tuple(map(window[1::2].count, colors)) == rows[window[middle] - 1]
    )


def step_window(automaton: Automaton, window: WindowState) -> int | None:
    """The color forced at offset 4n, or None if no extension is consistent.

    The window must be consistent; the step is one lookup of automaton.table
    on the taps (c(2n-1), c(2n+1), c(0)).
    """
    if not window_is_consistent(automaton, window):
        raise ValueError(f"window {window!r} is not consistent with the matrix")
    k, middle = automaton.k, 2 * automaton.n
    a, b, o = (window[i] - 1 for i in (middle - 1, middle + 1, 0))
    forced = automaton.table[(a * k + b) * k + o]
    return None if forced is None else forced + 1


def _forced_color(row: tuple[int, ...], known: tuple[int, ...]) -> int | None:
    """The color whose deficit row - known is 1, or None if any deficit is negative."""
    deficits = [r - c for r, c in zip(row, known)]
    if min(deficits) < 0:
        return None
    return deficits.index(1) + 1


# The engine encodes a 4n-window as the base-k integer whose digits, most
# significant first, are the colors minus 1 at offsets 0..4n-1, so integer
# order is lexicographic window order and a step is a shift.


def _minus(row: tuple[int, ...], digit: int) -> tuple[int, ...]:
    """row - e_(digit + 1): the counts with one vertex of that color removed."""
    return tuple(count - (c == digit) for c, count in enumerate(row))


def _tap_table(rows: tuple[tuple[int, ...], ...]) -> list[int | None]:
    """The forced digit for each tap triple (a, b, o) = digits at offsets (2n-1, 2n+1, 0).

    Entry (a * k + b) * k + o is _forced_color(r_b, r_a - e_o) - 1, or None
    for a dead end.  Entries with r_a[o] = 0 are None, not computed: in a
    consistent window c(0) is a neighbor of the vertex at 2n-1, so only a
    start prefix whose completions all die earlier reads one (dead taps).
    """
    table = []
    for a, b, o in product(range(len(rows)), repeat=3):
        forced = _forced_color(rows[b], _minus(rows[a], o)) if rows[a][o] else None
        table.append(None if forced is None else forced - 1)
    return table


def _is_k_pair(rows: tuple[tuple[int, ...], ...], a: int, b: int) -> bool:
    """Whether r_d = r_b for every d in supp(r_a) and r_d = r_a for every d in supp(r_b)."""
    return all(rows[d] == rows[b] for d, count in enumerate(rows[a]) if count) and all(
        rows[d] == rows[a] for d, count in enumerate(rows[b]) if count
    )


def _prenecklace_windows(automaton: Automaton, meter: WorkMeter, stats: dict):
    """The consistent 4n-windows of one matrix that are prenecklaces, encoded.

    Yields (start, period).  period is None for a start to walk; for a
    start that is a cycle's least window and whose cycle is known without a
    walk (a K-pair necklace, below), it is the cycle's digits, one primitive
    period.

    With a = c(2n-1) and b = c(2n), a consistent window holds r_a - e_b on
    the even offsets other than 2n and r_b - e_a on the odd offsets other
    than 2n-1.  Soundness: let W be the least window of a cycle.  If
    W[i:] < W[:4n-i] for some 0 < i < 4n, the window i steps later begins
    with W[i:] and is smaller than W.  So every suffix of W is at least the
    prefix of the same length: W is a prenecklace, and is generated.

    Digits are placed in Fredricksen-Kessler-Maiorana order restricted to
    that content (Ruskey, Savage and Wang, J. Algorithms 13, 1992; Sawada,
    TCS 301, 2003): with p the length of the longest Lyndon prefix, a
    prenecklace stays one exactly when the digit at offset i is >= w[i-p];
    an equal digit keeps p, a greater one sets p = i+1.  The prenecklace is
    a necklace exactly when p divides 4n, and then w[:p] is a Lyndon word.

    K pairs.  (a, b) is a K pair when r_d = r_b for every d in supp(r_a)
    and r_d = r_a for every d in supp(r_b).  Ci_{4n}(D_n) is K_{2n,2n}: the
    offsets +-1, ..., +-(2n-1) reach every residue of the other parity mod
    4n.  So in the 4n-periodic extension of a consistent window of a K
    pair, an even vertex sees the odd offsets, which count r_b, and its
    color d is in supp(r_a), so r_d = r_b; likewise at odd vertices.  The
    extension is perfect with this matrix, and the step rule, which has one
    consistent successor, reproduces it: the start lies on a cycle whose
    length is the start's primitive period, a divisor of 4n.  The start is
    that cycle's least window exactly when it is a necklace, and then its
    Lyndon prefix w[:p] is that period, so the cycle is yielded with no
    walk.  A K-pair prenecklace that is not a necklace lies on the cycle of
    its least rotation, a K-pair necklace, and is not yielded.
    Conversely, a perfect coloring whose period divides 4n is perfect on
    K_{2n,2n}, where every even vertex sees the odd part's counts and every
    odd vertex the even part's, so each of its windows has a K pair: the
    starts of other pairs give exactly the cycles whose period does not
    divide 4n.

    Dead taps.  For a start of any other pair, step j of its walk reads the
    taps (c(2n-1+j), c(2n+1+j), c(j)), all inside the start while
    j <= 2n-2.  Once the digit at offset i = 2n+1+j is placed, if the table
    forces no color on step j's taps, every completion of the prefix dies
    at step j or earlier and records nothing, so the subtree is cut
    (stats["pruned_dead_tap"] counts the cuts).  K-pair starts never die and
    are not checked.

    The meter is spent one unit per digit placed, cut digits included.
    """
    n, rows, table = automaton.n, automaton.matrix.rows, automaton.table
    k = len(rows)
    length = 4 * n
    word = [0] * length
    spend = meter.spend
    pruned = 0

    def extend(i: int, p: int, value: int):
        nonlocal pruned
        if i == length:
            if not k_pair:
                yield value, None
            elif length % p == 0:
                yield value, tuple(word[:p])
            return
        counts = pools[i]
        least = word[i - p] if i else 0
        # step i-2n-1's taps are complete once offset i is placed
        check_taps = not k_pair and i > 2 * n
        for d in range(least, k):
            if not counts[d]:
                continue
            spend()
            if check_taps and table[(word[i - 2] * k + d) * k + word[i - 2 * n - 1]] is None:
                pruned += 1
                continue
            word[i] = d
            counts[d] -= 1
            yield from extend(i + 1, p if d == least else i + 1, value * k + d)
            counts[d] += 1

    for a in range(k):
        for b in range(k):
            if rows[a][b] and rows[b][a]:
                k_pair = _is_k_pair(rows, a, b)
                even, odd = list(_minus(rows[a], b)), list(_minus(rows[b], a))
                # pools[i]: the digits still free for offset i
                pools = [odd if i % 2 else even for i in range(length)]
                pools[2 * n - 1] = [int(d == a) for d in range(k)]
                pools[2 * n] = [int(d == b) for d in range(k)]
                yield from extend(0, 1, 0)
    stats["pruned_dead_tap"] += pruned


def _cycles(automaton: Automaton, meter: WorkMeter, stats: dict):
    """Each cycle of one matrix's step map once, as its least rotation over digits 0..k-1.

    A K-pair necklace of _prenecklace_windows is its cycle, with a least
    Lyndon prefix; another start is walked through automaton.table and, if
    the walk returns, is its cycle's least window (module docstring).  For
    the cycle's coloring c, c[0:4n] = start, of period p, c[i:] and c[j:]
    for i, j apart mod p first differ within p digits and within 4n (equal
    windows have equal successors), so rotations compare as windows do:
    c[0:p] is least, and the forced tail c[4n:4n+p] is it rotated by 4n mod p.
    """
    n, k, step = automaton.n, automaton.k, automaton.table
    top = k ** (4 * n - 1)  # weight of offset 0
    weight_a = k ** (2 * n)  # offset 2n-1
    weight_b = k ** (2 * n - 2)  # offset 2n+1
    for start, period in _prenecklace_windows(automaton, meter, stats):
        if period is not None:
            stats["k_pair_cycles"] += 1
            yield period
            continue
        window = start
        tail: list[int] = []  # forced digits; once back at start, one period
        while True:
            taps = (window // weight_a % k * k + window // weight_b % k) * k + window // top
            forced = step[taps]
            if forced is None:
                break
            tail.append(forced)
            window = window % top * k + forced
            if window <= start:
                if window == start:
                    shift = -4 * n % len(tail)
                    yield tuple(tail[shift:] + tail[:shift])
                break
        stats["states_followed"] += len(tail)
        meter.spend(len(tail))


def enumerate_periodic_perfect(
    n: int, k: int, budget: int | None = None, *, reflection: bool = False,
    color_permutation: bool = False,
) -> EnumerationResult:
    """All perfect k-colorings of Ci(D_n), as canonical periodic colorings.

    Per searched matrix, _cycles yields each cycle as a least-rotated
    primitive period.  An onto cycle's class, its k! recolorings with the
    conjugated matrices, is recorded whole, so a cycle whose word is
    recorded already costs no rotation.

    Orbits.  candidate_matrices gives one matrix per S_k conjugacy orbit.
    Any member would do: a recoloring maps a matrix's cycles onto its
    conjugate's, with the conjugated matrix, so all give the same entries.

    Symmetry flags as in enumerate_perfect_finite (words are rotation
    classes already).  A group G, a class with color_permutation and a word
    otherwise, gives the entry min(G), with reflection only if min(G) <=
    min(least_rotation(w[::-1]) for w in G), so entries are canonical_form
    words.  Soundness: reversal is an automorphism of Ci(D_n) commuting with
    recoloring and rotation, so rev(G) is a group the exhaustive search also
    records.  Groups partition the words: G and rev(G) are equal, or
    disjoint with unequal minima and only the one with the least is kept.

    stats:
      matrices_tried -- orbit representatives searched;
      states_followed -- steps walked;
      cycles_found -- cycles recorded, onto or not;
      k_pair_cycles -- of those, the ones recorded at the generator's leaf;
      pruned_dead_tap -- start prefixes cut on a dead tap;
      colorings -- entries returned, the only stat the flags change;
      units -- the budget units spent.

    The budget's unit is one window digit placed while generating the
    starts, plus each walk's steps, spent when the walk ends.
    candidate_matrices counts the tree matrices it generates under the same
    budget.
    """
    require_positive_int("n", n)
    require_positive_int("k", k)
    meter = WorkMeter(
        budget, f"periodic search for n={n}, k={k}", "window digits placed plus steps walked"
    )
    shared: dict = {}  # one row table for every matrix's targets
    recolorings = [(p, _conjugator(p, shared)) for p in permutations(range(1, k + 1))]
    identity = recolorings[0][0].__getitem__  # its image of a least rotation is least
    found: dict[tuple[int, ...], Entry] = {}
    # The words of the classes recorded so far; found holds them all unless a flag folds.
    covered = set() if reflection or color_permutation else found
    stats = dict.fromkeys(
        ("matrices_tried", "states_followed", "cycles_found", "k_pair_cycles", "pruned_dead_tap"), 0
    )
    for matrix in candidate_matrices(n, k, budget):
        targets = [(p, conjugate(matrix.rows)) for p, conjugate in recolorings]
        stats["matrices_tried"] += 1
        for least in _cycles(Automaton(n, k, matrix), meter, stats):
            stats["cycles_found"] += 1
            if len(set(least)) < k or (word := tuple(map(identity, least))) in covered:
                continue
            # least is primitive, so each recoloring's least rotation is canonical
            images = {word: targets[0][1]}
            images |= {least_rotation(tuple(map(p.__getitem__, least))): m for p, m in targets[1:]}
            if covered is not found:
                covered.update(images)
            for group in [images] if color_permutation else [[w] for w in images]:
                first = min(group)
                if not reflection or first <= min(least_rotation(w[::-1]) for w in group):
                    found[first] = (_built_coloring(PeriodicColoring, first, k), images[first])

    entries = tuple(found[w] for w in sorted(found))
    stats.update(colorings=len(entries), units=meter.spent)
    return EnumerationResult(entries, stats)
