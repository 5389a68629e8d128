"""Simple connected graphs and their distance-k structure.

Vertices are dense 0-based indices. Construction eagerly verifies
simplicity (no loops, no parallel edges), symmetry of the adjacency
relation, and connectivity, so everything downstream may assume all
three. All distance data is read from one read-only all-pairs array,
``Graph.distances``, filled on first use by one BFS per vertex (never
by matrix powers, so entries are exact by construction) and shared by
every query here and by certification in ``intersection``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphError(Exception):
    """Base class for graph construction and query errors."""


class SelfLoopError(GraphError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"self-loop at vertex {vertex}")


class MalformedLineError(GraphError):
    def __init__(self, line_no: int, line: str):
        self.line_no = line_no
        self.line = line
        super().__init__(f"malformed edge list line {line_no}: {line!r}")


class NotConnectedError(GraphError):
    def __init__(self, component: tuple[int, ...]):
        self.component = component
        super().__init__(
            f"graph is not connected; one component is {list(component)}"
        )


class OddPairCountError(GraphError):
    """The ordered count of adjacent same-shell pairs must be even."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected undirected graph.

    ``adjacency[i]`` is the strictly increasing tuple of neighbors of
    vertex ``i``.
    """

    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.adjacency)
        if n < 2:
            raise GraphError("a graph needs at least two vertices")
        for i, nbrs in enumerate(self.adjacency):
            prev = -1
            for j in nbrs:
                if j == i:
                    raise SelfLoopError(i)
                if not 0 <= j < n:
                    raise GraphError(f"neighbor {j} of {i} out of range")
                if j <= prev:
                    raise GraphError(f"adjacency[{i}] not strictly increasing")
                prev = j
                if i not in self.adjacency[j]:
                    raise GraphError(f"asymmetric edge ({i}, {j})")
        seen = _bfs(self.adjacency, 0)
        if any(d < 0 for d in seen):
            component = tuple(v for v, d in enumerate(seen) if d >= 0)
            raise NotConnectedError(component)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def distances(self) -> np.ndarray:
        """Read-only n x n array of graph distances, filled on first use.

        Its dtype is the smallest signed integer type that holds n + 1.
        """
        n = self.vertex_count
        dtype = next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max > n)
        dist = np.empty((n, n), dtype=dtype)
        for v in range(n):
            dist[v] = _bfs(self.adjacency, v)
        dist.flags.writeable = False
        return dist

    def edges(self):
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def __repr__(self):
        return f"Graph(vertices={self.vertex_count}, edges={sum(1 for _ in self.edges())})"


@dataclass(frozen=True)
class DistanceKMatrix:
    """Symmetric 0/1 matrix with (i, j) = 1 iff dist(i, j) = k.

    Stored sparsely, one frozen column set per row. The k = 0 matrix is
    the identity; the matrix is zero for k above the diameter.
    """

    k: int
    rows: tuple[frozenset[int], ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return 1 if j in self.rows[i] else 0

    def row_sum(self, v: int) -> int:
        return len(self.rows[v])

    @property
    def is_zero(self) -> bool:
        return all(not r for r in self.rows)


def _bfs(adjacency, source: int) -> list[int]:
    """Distances from source; unreachable vertices get -1."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                queue.append(w)
    return dist


def graph_from_edges(edges, vertex_count: int | None = None) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs.

    Duplicate edges are merged. The vertex set is 0..max_index unless a
    larger ``vertex_count`` is given.
    """
    n = 0
    pairs = []
    for u, v in edges:
        if u == v:
            raise SelfLoopError(u)
        if u < 0 or v < 0:
            raise GraphError(f"negative vertex index in edge ({u}, {v})")
        pairs.append((u, v))
        n = max(n, u + 1, v + 1)
    if vertex_count is not None:
        if vertex_count < n:
            raise GraphError("vertex_count smaller than largest edge index + 1")
        n = vertex_count
    nbrs = [set() for _ in range(n)]
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(tuple(tuple(sorted(s)) for s in nbrs))


def parse_edge_list(text: str) -> Graph:
    """Parse an edge list, one "u v" pair of 0-based indices per line.

    Blank lines are ignored and lines starting with '#' are comments.
    Raises MalformedLineError (with the 1-based line number), SelfLoopError,
    or NotConnectedError.
    """
    edges = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLineError(line_no, raw)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(line_no, raw) from None
        if u < 0 or v < 0:
            raise MalformedLineError(line_no, raw)
        edges.append((u, v))
    return graph_from_edges(edges)


def _complete(n: int) -> Graph:
    return graph_from_edges((i, j) for i in range(n) for j in range(i + 1, n))


def _cycle(n: int) -> Graph:
    return graph_from_edges((i, (i + 1) % n) for i in range(n))


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(outer + spokes + inner)


def _hypercube(d: int) -> Graph:
    edges = []
    for v in range(1 << d):
        for bit in range(d):
            u = v ^ (1 << bit)
            if u > v:
                edges.append((v, u))
    return graph_from_edges(edges)


def _complete_bipartite(n: int) -> Graph:
    return graph_from_edges((i, n + j) for i in range(n) for j in range(n))


# Builtin generators: name -> (builder, smallest parameter). A None
# minimum marks a graph that takes no parameter.
BUILTIN_GRAPHS = {
    "petersen": (_petersen, None),
    "complete": (_complete, 2),
    "cycle": (_cycle, 3),
    "hypercube": (_hypercube, 1),
    "complete_bipartite": (_complete_bipartite, 1),
}


def is_builtin_name(name: str) -> bool:
    """True iff name has the form of a builtin: "petersen" or "<base>:<arg>"."""
    base, sep, _ = name.partition(":")
    spec = BUILTIN_GRAPHS.get(base)
    return spec is not None and bool(sep) == (spec[1] is not None)


def graph_from_name(name: str) -> Graph:
    """Build one of the named graphs.

    Supported: "complete:n" (n >= 2), "cycle:n" (n >= 3), "petersen",
    "hypercube:d" (d >= 1), "complete_bipartite:n" (n >= 1).
    """
    base, sep, arg = name.partition(":")
    if base not in BUILTIN_GRAPHS:
        raise GraphError(f"unknown builtin graph {name!r}")
    builder, minimum = BUILTIN_GRAPHS[base]
    if minimum is None:
        if sep:
            raise GraphError(f"{base} takes no parameter")
        return builder()
    if not sep:
        raise GraphError(f"{base} needs a parameter, e.g. {base}:4")
    try:
        k = int(arg)
    except ValueError:
        raise GraphError(f"bad parameter in {name!r}") from None
    if k < minimum:
        raise GraphError(f"{base} parameter must be >= {minimum}")
    return builder(k)


def bfs_distances(g: Graph, v: int) -> list[int]:
    """Graph distances from v to every vertex: row v of g.distances."""
    if not 0 <= v < g.vertex_count:
        raise GraphError(f"vertex {v} out of range")
    return g.distances[v].tolist()


def eccentricity(g: Graph, v: int) -> int:
    return max(bfs_distances(g, v))


def diameter(g: Graph) -> int:
    """Largest distance between any two vertices."""
    return int(g.distances.max())


def distance_k_matrix(g: Graph, k: int) -> DistanceKMatrix:
    """The 0/1 matrix of vertex pairs at distance exactly k."""
    if k < 0:
        raise GraphError("k must be nonnegative")
    rows = (frozenset(np.flatnonzero(row == k).tolist()) for row in g.distances)
    return DistanceKMatrix(k, tuple(rows))


def degree_k(g: Graph, v: int, k: int) -> int:
    """Number of vertices at distance exactly k from v."""
    return sum(1 for d in bfs_distances(g, v) if d == k)


def isoscycle_count(g: Graph, v: int, k: int) -> int:
    """Number of adjacent vertex pairs lying both at distance k from v.

    Counted as half the number of ordered such pairs; that count is even
    by symmetry, so an odd value signals a bug (OddPairCountError).
    """
    dist = bfs_distances(g, v)
    shell = {u for u, d in enumerate(dist) if d == k}
    ordered = sum(1 for u in shell for w in g.adjacency[u] if w in shell)
    if ordered % 2:
        raise OddPairCountError(
            f"odd ordered pair count {ordered} at vertex {v}, distance {k}"
        )
    return ordered // 2
