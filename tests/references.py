"""Independent references the tests hold the library to.

Each is a plain loop over ``Graph.adjacency`` or over a sequence's pairs:
none reads ``Graph.distances``, the table that certification and the
oracle read, so a check against them does not share that table's code.
"""

from collections import deque
from fractions import Fraction


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
