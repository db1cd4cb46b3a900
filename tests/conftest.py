"""Shared fixtures and independent oracles.

The oracles here recompute adjacency and perfection from first principles
(explicit edge lists, raw product-space scans), or run the unpruned scan a
pruned search replaces, so no search is validated by its own shortcuts.
"""

import functools
import itertools
import math
from collections import Counter

import pytest

from circulant_colorings import (
    CheckReport,
    EnumerationResult,
    FiniteColoring,
    ParameterMatrix,
    PeriodicColoring,
    check_perfect,
    enumerate_perfect_finite,
    enumerate_periodic_perfect,
    make_odd_distance_set,
    path_colorings,
    window_is_consistent,
)
from circulant_colorings.enumeration import _compositions, _has_parity_split, _is_balanced


def surjective_word_count(t, k):
    """Number of onto colorings of t vertices with k labeled colors."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** t for j in range(k + 1))


def edge_multiset_adjacency(t, distances):
    """Adjacency lists built edge by edge; collisions become multientries."""
    adj = {v: [] for v in range(t)}
    for i in range(t):
        for d in distances:
            j = (i + d) % t
            adj[i].append(j)
            adj[j].append(i)
    return {v: sorted(us) for v, us in adj.items()}


def neighbor_color_counts(coloring, dset, v):
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


def per_vertex_perfection(coloring, dset):
    """(is_perfect, witness, matrix rows) from one neighbor_color_counts per vertex.

    The witness is (first vertex of the color, first vertex whose counts
    differ from it); the rows are indexed by color-1.
    """
    rows, first_seen = {}, {}
    for v, color in enumerate(coloring.word):
        counts = neighbor_color_counts(coloring, dset, v)
        if color not in rows:
            rows[color], first_seen[color] = counts, v
        elif counts != rows[color]:
            return False, (first_seen[color], v), None
    return True, None, tuple(rows[c] for c in range(1, coloring.k + 1))


def oracle_counts(word, adj, k, v):
    counts = [0] * k
    for u in adj[v]:
        counts[word[u] - 1] += 1
    return tuple(counts)


def oracle_is_perfect(word, adj, k):
    rows = {}
    for v, color in enumerate(word):
        counts = oracle_counts(word, adj, k, v)
        if rows.setdefault(color, counts) != counts:
            return False
    return True


def brute_perfect_words(t, distances, k):
    """Every onto perfect coloring, by scanning all k^t words."""
    adj = edge_multiset_adjacency(t, distances)
    return {
        word
        for word in itertools.product(range(1, k + 1), repeat=t)
        if len(set(word)) == k and oracle_is_perfect(word, adj, k)
    }


def _matched_word(t, pairs):
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


def _pair_partitions(colors):
    """All partitions of the color tuple into unordered pairs."""
    if not colors:
        yield ()
        return
    first, rest = colors[0], colors[1:]
    for i, other in enumerate(rest):
        for tail in _pair_partitions(rest[:i] + rest[i + 1 :]):
            yield ((first, other),) + tail


def scan_matched_colorings(t, k):
    """Every perfect k-coloring word of Ci_t(D_n), t = 4n+-2, by color splits.

    The colors fall into a monochrome set C1 and a paired-up set C2: a C1
    matching edge repeats one color on both endpoints, and C2 edges come in
    pairs colored x,y and y,x.  A bipartite split instead pairs disjoint
    even-side and odd-side color sets across every edge.  Each split is
    scanned over all its per-edge assignments, keeping those that use every
    pair and give a swap pair's two orientations equally many edges.
    """
    colors = tuple(range(1, k + 1))
    # Each split as (its allowed (even, odd) pairs, its swap pairs).
    splits = []
    if k % 2 == 0:
        for partition in _pair_partitions(colors):
            for orientation in itertools.product((0, 1), repeat=len(partition)):
                pairs = tuple((p[o], p[1 - o]) for p, o in zip(partition, orientation))
                splits.append((pairs, ()))
    for mono_mask in itertools.product((False, True), repeat=k):
        mono = tuple(c for c, m in zip(colors, mono_mask) if m)
        paired = tuple(c for c, m in zip(colors, mono_mask) if not m)
        if len(paired) % 2 != 0:
            continue
        for partition in _pair_partitions(paired):
            pairs = tuple((c, c) for c in mono)
            pairs += tuple(p for x, y in partition for p in ((x, y), (y, x)))
            splits.append((pairs, partition))
    found = set()
    for pairs, swaps in splits:
        everything = set(pairs)
        for choice in itertools.product(pairs, repeat=t // 2):
            if set(choice) != everything or any(
                choice.count((x, y)) != choice.count((y, x)) for x, y in swaps
            ):
                continue
            found.add(_matched_word(t, choice))
    return sorted(found)


@functools.cache
def _scanned_perfect_classes(t, dset, k):
    """(class word, matrix) of every perfect color-class partition, by a full scan.

    Every restricted growth string of length t with exactly k classes (colors
    1..k in order of first use) gets one check_perfect, with no pruning.
    """

    def growth_strings(prefix, used):
        if k - used > t - len(prefix):
            return
        if len(prefix) == t:
            yield prefix
            return
        for c in range(1, min(used + 1, k) + 1):
            yield from growth_strings(prefix + (c,), max(used, c))

    classes = []
    for base in growth_strings((), 0):
        verdict = check_perfect(FiniteColoring(base, k), dset)
        if verdict.is_perfect:
            classes.append((base, verdict.matrix))
    return tuple(classes)


def scan_perfect_finite(
    t, dset, k, *, rotation=False, reflection=False, color_permutation=False
):
    """Perfect k-colorings of Ci_t(D) from the full partition scan.

    Each perfect class is expanded through the k! labelings, each reduced to
    its least rotation/reflection image (least over the whole class with
    color_permutation) and given the class matrix relabeled; the first
    labeling to reach an image keeps it.
    """

    def least_image(word):
        images = [word[i:] + word[:i] for i in range(len(word))] if rotation else [word]
        if reflection:
            images += [w[::-1] for w in images]
        return min(images)

    found = {}
    for base, matrix in _scanned_perfect_classes(t, dset, k):
        images = {}
        for target in itertools.permutations(range(1, k + 1)):
            image = least_image(tuple(target[c - 1] for c in base))
            images.setdefault(image, target)
        if color_permutation:
            least = min(images)
            images = {least: images[least]}
        for image, target in images.items():
            if image not in found:
                found[image] = matrix.relabeled(target)
    return EnumerationResult(tuple((FiniteColoring(w, k), found[w]) for w in sorted(found)))


def brute_canonical_form(word, *, reflection=False, color_permutation=False):
    """Least word in the orbit of the primitive period, by listing the orbit.

    Every rotation, optionally reversed, under every permutation of the
    colors the word uses (or only the identity) is built and compared.
    """
    word = tuple(word)
    period = next(
        p for p in range(1, len(word) + 1)
        if len(word) % p == 0 and all(word[i] == word[i % p] for i in range(len(word)))
    )
    word = word[:period]
    colors = sorted(set(word))
    targets = itertools.permutations(colors) if color_permutation else [colors]
    orbit = []
    for target in targets:
        relabel = dict(zip(colors, target))
        for shift in range(period):
            rotated = [relabel[word[(i + shift) % period]] for i in range(period)]
            orbit.append(tuple(rotated))
            if reflection:
                orbit.append(tuple(reversed(rotated)))
    return min(orbit)


def consistent_windows(automaton):
    """All consistent windows, by filtering the whole product space."""
    return tuple(
        w
        for w in itertools.product(range(1, automaton.k + 1), repeat=automaton.window_length)
        if window_is_consistent(automaton, w)
    )


def is_prenecklace(word):
    """Whether every suffix of the word is at least its prefix of the same length."""
    return all(word[i:] >= word[: len(word) - i] for i in range(1, len(word)))


def table_periodic_search(n, k, matrices):
    """Perfect colorings of Ci(D_n) by the window-table walk, one matrix at a time.

    Every one of the k^(4n-1) windows is tabulated once: its center's
    (color, counts) key, and the color and known counts of the vertex one
    past the center, counted from explicit neighbor offsets.  Each distinct
    matrix is searched on its own, with no color-orbit folding: its
    consistent windows are followed with a visited set, the next color being
    the one whose deficit row - known is 1 (none if a deficit is negative),
    and every onto cycle is kept with the first given matrix object of its
    rows.
    """
    length = 4 * n - 1
    center = 2 * n - 1

    def counts_at(window, positions):
        counts = [0] * k
        for p in positions:
            counts[window[p] - 1] += 1
        return tuple(counts)

    odd = [s * d for d in range(1, 2 * n, 2) for s in (1, -1)]
    center_offsets = [center + d for d in odd]
    probe_offsets = [center + 1 + d for d in odd if center + 1 + d < length]
    groups, ext_info = {}, {}
    for window in itertools.product(range(1, k + 1), repeat=length):
        groups.setdefault((window[center], counts_at(window, center_offsets)), []).append(window)
        ext_info[window] = (window[center + 1], counts_at(window, probe_offsets))

    given = {}
    for matrix in matrices:
        given.setdefault(matrix.rows, matrix)
    found = {}
    for matrix in given.values():
        rows = matrix.rows
        visited = set()
        starts = [w for c in range(1, k + 1) for w in groups.get((c, rows[c - 1]), ())]
        for start in starts:
            if start in visited:
                continue
            path, position, window = [], {}, start
            while window not in visited and window not in position:
                position[window] = len(path)
                path.append(window)
                probe, known = ext_info[window]
                deficits = [r - c for r, c in zip(rows[probe - 1], known)]
                if min(deficits) < 0:
                    break
                window = window[1:] + (deficits.index(1) + 1,)
            else:
                if window in position:
                    word = tuple(w[0] for w in path[position[window]:])
                    if len(set(word)) == k:
                        coloring = PeriodicColoring(word, k)
                        found.setdefault(coloring.word, (coloring, matrix))
            visited.update(path)
    return EnumerationResult(tuple(found[w] for w in sorted(found)))


def support_symmetric_rows(n, k):
    """Rows of every k x k matrix with row sums 2n and M_ij > 0 iff M_ji > 0.

    Built row by row in lexicographic order.  Row i may have M_ij > 0 for
    j < i exactly where the earlier row j has M_ji > 0, so the rows that fit
    a prefix are looked up by that support pattern and no asymmetric prefix
    grows.
    """
    compositions = tuple(_compositions(2 * n, k))
    # fitting[i][mask]: rows whose support among the columns j < i is mask.
    fitting = [{} for _ in range(k)]
    for row in compositions:
        support = sum(1 << j for j, count in enumerate(row) if count)
        for i in range(k):
            fitting[i].setdefault(support & ((1 << i) - 1), []).append(row)

    def extend(prefix):
        i = len(prefix)
        if i == k:
            yield prefix
            return
        required = sum(1 << j for j, row in enumerate(prefix) if row[i])
        for row in fitting[i].get(required, ()):
            yield from extend(prefix + (row,))

    yield from extend(())


@functools.cache
def closed_candidate_matrices(n, k):
    """Every support-symmetric matrix that passes the balance and parity rules.

    The set candidate_matrices picks one least conjugate per S_k orbit from,
    closed under recoloring and sorted by rows, by filtering every
    support-symmetric matrix rather than growing a unit-transfer tree.
    """
    return tuple(
        ParameterMatrix(rows)
        for rows in support_symmetric_rows(n, k)
        if _is_balanced(rows) and _has_parity_split(rows)
    )


def least_conjugates(matrices):
    """The rows of the least conjugate of each S_k orbit met among the matrices, sorted.

    Each orbit is listed whole, by ParameterMatrix.relabeled, from the first
    of its members met.
    """
    perms = list(itertools.permutations(range(1, matrices[0].k + 1)))
    seen, least = set(), []
    for matrix in matrices:
        if matrix.rows not in seen:
            orbit = {matrix.relabeled(p).rows for p in perms}
            seen |= orbit
            least.append(min(orbit))
    return sorted(least)


def all_row_sum_matrices(n, k):
    """Every k x k nonnegative matrix with row sums 2n, unpruned, rows in lex order."""
    rows = [r for r in itertools.product(range(2 * n + 1), repeat=k) if sum(r) == 2 * n]
    return tuple(ParameterMatrix(combo) for combo in itertools.product(rows, repeat=k))


def subset_parity_split(rows):
    """Whether some split into even colors A and odd colors B is consistent.

    B is the union of the supports of the rows in A; the split needs
    A | B = all colors, supp(r_c) <= A for c in B, and A and B each connected
    when colors whose rows differ by at most one unit transfer (L1 <= 2) are
    joined.  Every one of the 2^k - 1 nonempty color sets is tried as A.
    Color sets are bitmasks over the color indices.
    """
    k = len(rows)
    support = [sum(1 << j for j, count in enumerate(row) if count) for row in rows]
    near = [
        sum(1 << b for b in range(k) if sum(abs(x - y) for x, y in zip(rows[a], rows[b])) <= 2)
        for a in range(k)
    ]

    def connected(colors: int) -> bool:
        reached = colors & -colors
        while True:
            grown = reached
            for a in range(k):
                if reached >> a & 1:
                    grown |= near[a] & colors
            if grown == reached:
                return reached == colors
            reached = grown

    everything = (1 << k) - 1
    for even in range(1, everything + 1):
        odd = 0
        for c in range(k):
            if even >> c & 1:
                odd |= support[c]
        if (
            even | odd == everything
            and not any(odd >> c & 1 and support[c] & ~even for c in range(k))
            and connected(even)
            and connected(odd)
        ):
            return True
    return False


def finite_route_report(n, k):
    """The completeness report by the finite route, with no period rule.

    Each perfect coloring of Ci_t(D_n), t = 4n-2, 4n, 4n+2, is pulled back
    and tagged with the order whose search returned it; every recoloring of
    a path template is tagged from_path.  The periodic search's words are
    then compared against that candidate list, as check_conjecture did
    before it tagged by period.
    """
    dset = make_odd_distance_set(n)
    tags = {}
    for t, tag in ((4 * n - 2, "from_4n-2"), (4 * n, "from_4n"), (4 * n + 2, "from_4n+2")):
        for finite, _ in enumerate_perfect_finite(t, dset, k).entries:
            tags.setdefault(PeriodicColoring(finite.word, k).word, set()).add(tag)
    for template in path_colorings(k):
        for target in itertools.permutations(range(1, k + 1)):
            word = PeriodicColoring(tuple(target[c - 1] for c in template.word), k).word
            tags.setdefault(word, set()).add("from_path")
    enumerated = enumerate_periodic_perfect(n, k).words()
    counts = {"enumerated": len(enumerated), "induced": len(tags)}
    for word in sorted(tags):
        for tag in sorted(tags[word]):
            counts[tag] = counts.get(tag, 0) + 1
    missing = tuple(sorted(enumerated - set(tags)))
    extra = tuple(sorted(set(tags) - enumerated))
    verdict = "confirmed" if not missing else "counterexample"
    return CheckReport(n, k, verdict, missing, extra, counts)


def outer_degrees(matrix):
    """(b, c): color-2 neighbors of a color-1 vertex, and color-1 neighbors of
    a color-2 vertex.  Only a 2 x 2 matrix unpacks; others raise ValueError."""
    (_, b), (c, _) = matrix.rows
    return b, c


def two_color_templates(n):
    """b + c -> the matrices the paper admits for a perfect 2-coloring of Ci(D_n).

    The sums are 4n, 2n, 2n+1 and 2n-1, in that order.  4n is the bipartite
    matrix; in the others c fixes the diagonal through the row sums 2n,
    giving ((c,b),(c,b)), ((c-1,b),(c,b-1)) and ((c+1,b),(c,b+1)) for every
    b, c >= 1 that leaves no entry negative, so the 2n-1 family is empty at
    n = 1.
    """
    shapes = {
        2 * n: lambda b, c: ((c, b), (c, b)),
        2 * n + 1: lambda b, c: ((c - 1, b), (c, b - 1)),
        2 * n - 1: lambda b, c: ((c + 1, b), (c, b + 1)),
    }
    templates = {4 * n: [ParameterMatrix(((0, 2 * n), (2 * n, 0)))]}
    for total, shape in shapes.items():
        candidates = (shape(b, total - b) for b in range(1, total))
        templates[total] = [ParameterMatrix(rows) for rows in candidates if min(map(min, rows)) >= 0]
    return templates


def parity_balanced(coloring):
    """Whether the even and odd positions of the word share no color, or hold
    every color equally often.  An odd length has no aligned parity classes."""
    word = coloring.word
    if len(word) % 2:
        raise ValueError(f"word length must be even, got {len(word)}")
    evens, odds = Counter(word[::2]), Counter(word[1::2])
    return evens == odds or not evens.keys() & odds.keys()


def k2_claims_broken(coloring, matrix, n):
    """The paper's claims that a perfect 2-coloring of Ci(D_n) with this matrix breaks.

    * outer_degree_sums: b + c is 4n, 2n, 2n+1 or 2n-1;
    * local_patterns: at every vertex i, phi(i) = phi(i+2) forces
      phi(i-2n+1) = phi(i+2n+1); otherwise b + c = 2n+1 forces
      phi(i-2n+1) = phi(i+2) and phi(i+2n+1) = phi(i), and b + c = 2n-1
      forces phi(i-2n+1) = phi(i) and phi(i+2n+1) = phi(i+2);
    * period_lengths: the primitive period divides the length b + c forces,
      2 for 4n, 4n for 2n, and 2n+1 and 2n-1 for the matching sums;
    * parity_balance: an even period is parity_balanced.
    """
    b, c = outer_degrees(matrix)
    forced = {4 * n: 2, 2 * n: 4 * n, 2 * n + 1: 2 * n + 1, 2 * n - 1: 2 * n - 1}.get(b + c)
    phi, shift = coloring.color_at, 2 * n - 1

    def pattern_holds(i):
        here, ahead, left, right = phi(i), phi(i + 2), phi(i - shift), phi(i + shift + 2)
        if here == ahead:
            return left == right
        if b + c == 2 * n + 1:
            return (left, right) == (ahead, here)
        return b + c != 2 * n - 1 or (left, right) == (here, ahead)

    claims = {
        "outer_degree_sums": forced is not None,
        "local_patterns": all(map(pattern_holds, range(coloring.period))),
        "period_lengths": forced is not None and forced % coloring.period == 0,
        "parity_balance": coloring.period % 2 == 1 or parity_balanced(coloring),
    }
    return [claim for claim, holds in claims.items() if not holds]


@pytest.fixture(scope="session")
def periodic_k2():
    """Exhaustive 2-color enumerations for n = 1..4, shared across tests."""
    return {n: enumerate_periodic_perfect(n, 2) for n in (1, 2, 3, 4)}
