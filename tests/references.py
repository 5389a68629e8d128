"""Independent references the tests hold the library to.

Each is a plain loop over ``Graph.adjacency`` or over a sequence's pairs:
none reads ``Graph.distances``, the table that certification and the
oracle read, so a check against them does not share that table's code.
The builtins' closed forms are written here as tuples, one sorted
neighbour tuple per vertex, apart from the numpy arrays that
``graph_from_name`` writes.
"""

from collections import deque
from fractions import Fraction
from itertools import chain

import numpy as np


def csr_of(adjacency):
    """The (indptr, indices) arrays of adjacency lists, for ``Graph(indptr, indices)``."""
    indptr = np.cumsum([0, *map(len, adjacency)])
    return indptr, np.array(list(chain.from_iterable(adjacency)), dtype=np.int64)


# name -> the tuple of each vertex's sorted neighbours, from the parameter
CLOSED_FORMS = {
    "complete": lambda n: tuple(tuple(u for u in range(n) if u != v) for v in range(n)),
    "cycle": lambda n: tuple(tuple(sorted({(v - 1) % n, (v + 1) % n})) for v in range(n)),
    "hypercube": lambda d: tuple(tuple(sorted(v ^ (1 << bit) for bit in range(d))) for v in range(1 << d)),
    "complete_bipartite": lambda n: tuple(
        tuple(range(n, 2 * n)) if v < n else tuple(range(n)) for v in range(2 * n)
    ),
    # the outer 5-cycle 0..4, spokes v ~ v + 5 and the inner pentagram 5..9
    "petersen": lambda: tuple(
        tuple(sorted(((v - 1) % 5, (v + 1) % 5, v + 5) if v < 5 else (v - 5, 5 + (v - 3) % 5, 5 + (v - 7) % 5)))
        for v in range(10)
    ),
}


def reference_bfs(adjacency, source):
    """Distances from source by a queue BFS over adjacency lists; -1 where unreachable."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def degree_k(g, v, k):
    """The number of vertices at distance k from v."""
    return reference_bfs(g.adjacency, v).count(k)


def isoscycle_count(g, v, k):
    """The number of edges with both ends at distance k from v."""
    dist = reference_bfs(g.adjacency, v)
    ordered = sum(1 for u, nbrs in enumerate(g.adjacency) if dist[u] == k for w in nbrs if dist[w] == k)
    assert ordered % 2 == 0, (v, k, ordered)  # each edge is counted from both ends
    return ordered // 2


def distance_poly_eval(seq, k, x):
    """p_k(x) as an exact Fraction, where p_k(A) = A_k, for k = 0..d and rational x.

    p_0 = 1, p_1 = x, and a_{m+1} p_{m+1} = (x - alpha_m) p_m - b_m p_{m-1},
    with alpha_m = degree - a_m - b_{m+1} written out from the pairs.
    """
    if not 0 <= k <= seq.d:
        raise ValueError(f"k must be in 0..{seq.d}")
    a, b, x = seq.a, seq.b, Fraction(x)
    values = [Fraction(1), x]
    for m in range(1, k):
        alpha = b[0] - a[m - 1] - b[m]
        values.append(((x - alpha) * values[m] - b[m - 1] * values[m - 1]) / a[m])
    return values[k]
