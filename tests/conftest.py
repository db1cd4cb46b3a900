"""Shared fixtures and independent oracles.

The oracles here recompute adjacency and perfection from first principles
(explicit edge lists, raw product-space scans) so the package's own counting
paths are never used to validate themselves.
"""

import itertools

import pytest

from circulant_colorings import ParameterMatrix, enumerate_periodic_perfect, window_is_consistent


def edge_multiset_adjacency(t, distances):
    """Adjacency lists built edge by edge; collisions become multientries."""
    adj = {v: [] for v in range(t)}
    for i in range(t):
        for d in distances:
            j = (i + d) % t
            adj[i].append(j)
            adj[j].append(i)
    return {v: sorted(us) for v, us in adj.items()}


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


def consistent_windows(automaton):
    """All consistent windows, by filtering the whole product space."""
    return tuple(
        w
        for w in itertools.product(range(1, automaton.k + 1), repeat=automaton.window_length)
        if window_is_consistent(automaton, w)
    )


def all_row_sum_matrices(n, k):
    """Every k x k nonnegative matrix with row sums 2n, unpruned, rows in lex order."""
    rows = [r for r in itertools.product(range(2 * n + 1), repeat=k) if sum(r) == 2 * n]
    return tuple(ParameterMatrix(combo) for combo in itertools.product(rows, repeat=k))


@pytest.fixture(scope="session")
def periodic_k2():
    """Exhaustive 2-color enumerations for n = 1..4, shared across tests."""
    return {n: enumerate_periodic_perfect(n, 2) for n in (1, 2, 3, 4)}
