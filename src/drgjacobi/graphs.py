"""Simple connected graphs and their distance-k structure.

Vertices are dense 0-based indices. Construction eagerly verifies
simplicity (no loops, no parallel edges), symmetry of the adjacency
relation, and connectivity, so everything downstream may assume all
three; it also stores the adjacency once as int32 CSR arrays,
``Graph.csr``, which the array kernels here, in ``intersection`` and
in ``oracle`` read. Neighbour sums are products with
``Graph.adjacency_operator``, built on first use and cached like the
distances, in one of two forms that ``_dense_sums_pay`` picks by
density: on graphs with at least n^2 / DENSE_SUMS_DENSITY arcs, A_1 =
(distances == 1) as a dense float32 array, whose BLAS products are
exact while every sum stays below 2^24 (``_max_code``); on sparser
ones, the CSR arrays wrapped in one int32 scipy CSR array.
Certification and the recurrence check in ``intersection`` take one
such product per block of the table, which sums a code of each
neighbour's distance. All distance data is read from one read-only
all-pairs array, ``Graph.distances``, filled on first use by path
search, never by matrix powers, so entries are exact by construction.
It has three fills.
The bitset fill, ``_bitset_distances``, is one level-synchronous BFS
from every source at once on rows packed 64 columns to a machine word.
The two others search once per source: scipy's compiled
``csgraph.shortest_path`` in row blocks, a Dijkstra search from each
source (given ``indices``, its default method never switches to
Floyd-Warshall), or, below ``SCIPY_MIN_VERTICES`` vertices, one Python
BFS per vertex. ``_bitset_fill_pays`` takes the bitset fill when its
worst-case cost, at twice the eccentricity of vertex 0 in levels, is
below that of the search per source: graphs of small diameter take it,
long thin ones such as cycles and prisms keep their search. Below
``SCIPY_MIN_VERTICES`` vertices no scipy sparse code runs: the fill is
the Python BFS, and every connected graph of at most 30 vertices takes
the dense neighbour sums. The array is shared by every query here, by
certification and the recurrence check in ``intersection`` and by
``oracle``, which checks its entries and then proves it by the exact
distance recurrence.
The distance-k matrix A_k is the boolean array ``distances == k``.
"""

from __future__ import annotations

import math
import re
import struct
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

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
    def __init__(self, component):
        self.component = tuple(sorted(component))
        super().__init__(
            f"graph is not connected; one component is {list(self.component)}"
        )


class OddPairCountError(GraphError):
    """The ordered count of adjacent same-shell pairs must be even."""


# Entries per numpy work block: its temporaries stay far below the
# distance array, and every desk-scale graph fits in one block.
BLOCK_ENTRIES = 1 << 16

# Graphs with fewer vertices call no scipy sparse code in the fill: a table
# that the bitset fill does not take is filled by one Python BFS per row,
# not by scipy's Dijkstra search per source, as scipy's fixed cost per
# sparse matrix, tens of microseconds for building and validating it,
# exceeds the whole work there. Measured crossovers (numpy 2.4, scipy 1.17,
# 2-core x86 VM): near 24 vertices on cycles and cubes and near 18 on
# complete graphs, where at 40 vertices scipy is 2.4x (cycle) to 6x
# (complete) faster.
SCIPY_MIN_VERTICES = 24

# Neighbour sums are float32 BLAS products with a dense n x n operator on
# graphs with at least n^2 / DENSE_SUMS_DENSITY arcs, and sparse int32
# products otherwise (``_dense_sums_pay``). Fitted to both routes' times on
# 32 graphs of 31 to 2048 vertices and density 1/57 to 1 (numpy 2.4, scipy
# 1.17, one BLAS thread, 2-core x86 VM): 12 to 16 give the least total time,
# 0.1% above the faster route's on every graph, and only 16 sends every
# connected graph of at most 30 vertices, which has at least 2 (n - 1) arcs,
# the dense way. The crossover moves with n: the dense route wins down to
# density 1/40 at 256 vertices, but only above about 1/13 from 1024 up.
# The float32 sums are exact only while every sum stays below 2^24
# (``_max_code``): the dense route is refused above that, whatever the density.
DENSE_SUMS_DENSITY = 16

# Cost model of the three distance fills, in nanoseconds, that decides
# between the bitset fill and the search per source. Fitted by nonnegative
# least squares on relative error to the minimum of 25 timings of each
# fill (7 from 100 vertices, 3 from 600) on 213 graphs of 2 to 1024
# vertices: cycles, paths, prisms, grids and tori, binary trees, stars,
# complete and complete bipartite graphs, cubes, random regular and
# G(n, p) graphs, cliques with a path attached (numpy 2.4, scipy 1.17,
# 2-core x86 VM). With words = ceil(n / 64) and arcs the ordered adjacent
# pairs:
#   bitset: fixed + levels * (level + word * words * arcs + entry * n^2)
#   scipy and Python: fixed + n * (vertex * n + arc * arcs)
# The median error of each fit is 10-17%. With twice the eccentricity of
# vertex 0 for the levels, no graph of that set takes a fill more than 10%
# slower than its search per source.
BITSET_FILL_NS = (24_000, 11_600, 1.6, 0.55)  # fixed, level, word, entry
SCIPY_FILL_NS = (148_000, 37.5, 2.3)  # fixed, vertex, arc
PYTHON_FILL_NS = (8_500, 212, 30)

# Builtin graphs with more vertices or more edges are refused from their
# parameter, before any allocation: construction holds each edge twice as a
# Python int, then in int64 validation arrays, about 140 bytes per edge at its
# tracemalloc peak (complete:1024 near 71 MB). hypercube:12, cycle:4096,
# complete:1024 and complete_bipartite:724 are the largest admitted.
MAX_BUILTIN_VERTICES = 4096
MAX_BUILTIN_EDGES = 1 << 19
# Edge lists are admitted under the same two caps. An edge line of two
# labels below MAX_BUILTIN_VERTICES takes at most 11 bytes with its line
# end; the rest of this bound is room for comments and spacing.
MAX_EDGE_LIST_BYTES = 32 * MAX_BUILTIN_EDGES
# An edge list is split into lines a chunk of about this many characters at a
# time: a list of a whole file's lines takes about 8 bytes per line end.
LINE_CHUNK_CHARS = 1 << 16
# The line ends of str.splitlines, "\r\n" being one, as a pattern compiled on
# the first text longer than a chunk: compiling it takes about 0.7 ms.
LINE_END_PATTERN = "[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]"


def _row_blocks(n: int, width: int):
    """Consecutive row ranges [start, stop) of about BLOCK_ENTRIES / width rows."""
    step = max(1, BLOCK_ENTRIES // width)
    for start in range(0, n, step):
        yield start, min(n, start + step)


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected undirected graph.

    ``adjacency[i]`` is the strictly increasing tuple of neighbors of
    vertex ``i``. ``csr`` holds the same lists as read-only int32 arrays
    ``(indptr, indices)``: the neighbors of ``i`` are
    ``indices[indptr[i]:indptr[i + 1]]``. The connectivity check at
    construction searches from vertex 0 level by level and keeps its
    level sets, ``_levels[k]`` the set of vertices at distance k from 0.
    Their count less one is the eccentricity of vertex 0, which bounds
    the diameter for the choice of fill, and they give row 0 of the
    distances without the table (``_row0``).
    """

    adjacency: tuple[tuple[int, ...], ...]
    csr: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _levels: tuple[set[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.adjacency)
        if n < 2:
            raise GraphError("a graph needs at least two vertices")
        object.__setattr__(self, "csr", _checked_csr(self.adjacency))
        levels = _levels_of_zero(self.adjacency)
        if sum(map(len, levels)) < n:
            raise NotConnectedError(chain.from_iterable(levels))
        object.__setattr__(self, "_levels", levels)

    @property
    def _ecc0(self) -> int:
        """The eccentricity of vertex 0."""
        return len(self._levels) - 1

    def _row0(self) -> tuple[np.ndarray, np.ndarray]:
        """Row 0 of the distances, and the least vertex at each distance from 0.

        Both come from the level sets, so the table is not filled.
        """
        sizes = np.fromiter(map(len, self._levels), dtype=np.intp, count=len(self._levels))
        order = np.fromiter(chain.from_iterable(self._levels), dtype=np.intp, count=self.vertex_count)
        row0 = np.empty_like(order)
        row0[order] = np.repeat(np.arange(len(sizes)), sizes)
        return row0, np.minimum.reduceat(order, np.cumsum(sizes) - sizes)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def distances(self) -> np.ndarray:
        """Read-only n x n array of graph distances, filled on first use.

        Its dtype is the smallest signed integer type that holds n + 1.
        The bitset fill or a search per source fills it, as
        ``_bitset_fill_pays`` decides.
        """
        n = self.vertex_count
        dtype = np.int8 if n < 127 else np.int16 if n < 32767 else np.int32
        indptr, indices = self.csr
        if _bitset_fill_pays(n, len(indices), self._ecc0):
            dist = _bitset_distances(indptr, indices, dtype)
        elif n < SCIPY_MIN_VERTICES:
            dist = np.empty((n, n), dtype=dtype)
            for v in range(n):
                dist[v] = _bfs(self.adjacency, v)
        else:
            # Imported here: csgraph adds about 1 MB that small graphs never need.
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import shortest_path

            dist = np.empty((n, n), dtype=dtype)
            # float64 data with directed=True (exact, as the adjacency is
            # symmetric) is the form scipy validates without converting.
            adj = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
            for start, stop in _row_blocks(n, n):
                dist[start:stop] = shortest_path(adj, unweighted=True, indices=np.arange(start, stop))
        dist.flags.writeable = False
        return dist

    @cached_property
    def adjacency_operator(self):
        """The adjacency matrix for neighbour sums, built on first use.

        When ``_dense_sums_pay`` takes the dense route, A_1 read off
        ``distances`` (so the table is filled first) as a float32 numpy
        array, 4 n^2 bytes (64 MiB at 4096 vertices); otherwise an int32
        scipy CSR array sharing ``csr``'s index arrays. Its products sum
        the codes f(d(i, u)) of ``intersection`` over the neighbours u of
        j, exactly while ``_max_code`` bounds them within the dtype: below
        2^24, where float32 holds every integer, as ``_dense_sums_pay``
        enforces, and below 2^31 for int32, which holds up to 43 690
        vertices even when complete, whose table alone takes 3.8 GB.
        """
        indptr, indices = self.csr
        n = self.vertex_count
        if _dense_sums_pay(n, len(indices), int((indptr[1:] - indptr[:-1]).max())):
            return (self.distances == 1).astype(np.float32)
        from scipy.sparse import csr_array  # imported here, as in the fill

        return csr_array((np.ones(len(indices), dtype=np.int32), indices, indptr), shape=(n, n))

    def edges(self):
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def __repr__(self):
        return f"Graph(vertices={self.vertex_count}, edges={len(self.csr[1]) // 2})"


def _max_code(n: int, max_degree: int) -> int:
    """A bound on the neighbour sums of codes on a graph of n vertices.

    The code of a pair (i, j) sums f(d(i, u)) = (d(i, u) >> 1) +
    (max_degree + 1) (d(i, u) & 1) over the neighbours u of j. The first
    terms sum to at most deg(j) ecc(i) / 2 <= (n + 2)^2 / 8, as at most 3
    neighbours of j lie on a geodesic from i, so deg(j) + ecc(i) <= n + 2;
    the second to at most max_degree (max_degree + 1).
    """
    return (n + 2) ** 2 // 8 + max_degree * (max_degree + 1)


def _dense_sums_pay(n: int, arcs: int, max_degree: int) -> bool:
    """True iff neighbour sums take the dense float32 operator.

    They do when the graph has at least n^2 / DENSE_SUMS_DENSITY arcs and
    ``_max_code`` stays below 2^24, so that float32 sums are exact: on
    complete graphs, up to 3861 vertices.
    """
    return arcs * DENSE_SUMS_DENSITY >= n * n and _max_code(n, max_degree) < 1 << 24


def _checked_csr(adjacency) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency lists as read-only int32 CSR arrays, after validation."""
    n = len(adjacency)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, adjacency), dtype=np.int64, count=n), out=indptr[1:])
    try:  # struct reads each entry by its __index__, so floats and strings are refused
        packed = struct.pack(f"{indptr[-1]}q", *chain.from_iterable(adjacency))
    except struct.error:  # an entry that is not an integer, or is outside int64
        _raise_first_offence(adjacency)
    indices = np.frombuffer(packed, dtype=np.int64)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    codes = rows * n
    codes += indices
    # Valid lists give loop-free, in-range, strictly increasing codes,
    # and the reversed entries give the same codes in another order.
    valid = (
        ((indices >= 0) & (indices < n)).all()
        and (codes[1:] > codes[:-1]).all()
        and (indices != rows).all()
    )
    if valid:
        reversed_codes = indices * n
        reversed_codes += rows
        reversed_codes.sort()
        valid = np.array_equal(codes, reversed_codes)
    if not valid:
        _raise_first_offence(adjacency)
    csr = (indptr.astype(np.int32), indices.astype(np.int32))
    for a in csr:
        a.flags.writeable = False
    return csr


def _raise_first_offence(adjacency):
    """Raise for the first offending entry of invalid lists, in row-major order."""
    n = len(adjacency)
    entries = {(i, j) for i, nbrs in enumerate(adjacency) for j in nbrs if hasattr(j, "__index__")}
    for i, nbrs in enumerate(adjacency):
        prev = -1
        for j in nbrs:
            if not hasattr(j, "__index__"):  # what struct.pack refuses; bools pass
                raise GraphError(f"neighbor {j!r} of {i} is not an integer")
            if j == i:
                raise SelfLoopError(i)
            if not 0 <= j < n:
                raise GraphError(f"neighbor {j} of {i} out of range")
            if j <= prev:
                raise GraphError(f"adjacency[{i}] not strictly increasing")
            prev = j
            if (j, i) not in entries:
                raise GraphError(f"asymmetric edge ({i}, {j})")


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


def _bitset_fill_pays(n: int, arcs: int, ecc0: int) -> bool:
    """True iff the bitset fill's worst-case cost is below one search per source.

    The bitset fill runs at most 2 ecc0 levels, as no distance exceeds
    d(i, 0) + d(0, j); the search per source is scipy's or, below
    SCIPY_MIN_VERTICES vertices, the Python BFS. Costs are those of the
    model above.
    """
    fixed, level, word, entry = BITSET_FILL_NS
    bitset = fixed + 2 * ecc0 * (level + word * ((n + 63) >> 6) * arcs + entry * n * n)
    fixed, vertex, arc = SCIPY_FILL_NS if n >= SCIPY_MIN_VERTICES else PYTHON_FILL_NS
    return bitset < fixed + n * (vertex * n + arc * arcs)


def _bitset_distances(indptr: np.ndarray, indices: np.ndarray, dtype) -> np.ndarray:
    """All-pairs distances by one level-synchronous BFS from every source at once.

    Row i of ``ball`` is the ball of radius k about i as a bitset: column j
    is bit j % 64 of little-endian uint64 word j // 64, the layout of
    ``np.packbits(..., bitorder="little")``, and the padding columns from n
    up are set from the start. ball_{k+1}(i) is ball_k(i) or'd with
    ball_k(u) over the neighbours u of i, one ``bitwise_or.reduceat`` over
    the CSR lists per row block. d(i, j) counts the radii k whose ball
    misses j, so each level adds its unreached bits to the table, and the
    search stops at the first level whose balls are full.
    """
    n = len(indptr) - 1
    ball = _unit_balls(n)
    grown = np.empty_like(ball)
    dist = np.ones((n, n), dtype=dtype)
    np.fill_diagonal(dist, 0)
    width = max(ball.shape[1] * int((indptr[1:] - indptr[:-1]).max()), n)
    blocks = [
        (start, stop, indices[indptr[start] : indptr[stop]], indptr[start:stop] - indptr[start])
        for start, stop in _row_blocks(n, width)
    ]
    while True:
        done = True
        for start, stop, nbrs, offsets in blocks:
            block = grown[start:stop]
            np.bitwise_or.reduceat(np.take(ball, nbrs, axis=0), offsets, axis=0, out=block)
            block |= ball[start:stop]
            unreached = ~block
            if np.count_nonzero(unreached):
                done = False
                bits = np.unpackbits(unreached.view(np.uint8), axis=1, count=n, bitorder="little")
                dist[start:stop] += bits.view(np.int8)
        if done:
            return dist
        ball, grown = grown, ball


def _unit_balls(n: int) -> np.ndarray:
    """The n x ceil(n / 64) bitsets of the balls {i}, padding columns set."""
    v = np.arange(n)
    ball = np.empty((n, (n + 63) >> 6), dtype="<u8")
    ball[:] = np.packbits(np.arange(64 * ball.shape[1]) >= n, bitorder="little").view("<u8")
    ball.view(np.uint8)[v, v >> 3] |= (1 << (v & 7)).astype(np.uint8)
    return ball


def _levels_of_zero(nbrs) -> tuple[set[int], ...]:
    """The sets of vertices at distance 0, 1, ... from vertex 0, where
    nbrs[v] lists v's neighbours; their union is the component of 0.

    Searched level by level in set operations, in memory linear in the
    number of edges whatever the vertex count.
    """
    seen, frontier, levels = {0}, {0}, []
    while frontier:
        levels.append(frontier)
        frontier = set().union(*[nbrs[v] for v in frontier])
        frontier -= seen
        seen |= frontier
    return tuple(levels)


def graph_from_edges(edges) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs.

    Duplicate edges are merged. The vertex set is 0..max_index. A label
    that is not an integer raises GraphError, as in Graph. So do more
    than MAX_BUILTIN_EDGES pairs (duplicates counted), at the first pair
    past the cap, and more than MAX_BUILTIN_VERTICES vertices, after the
    refusal of a list too sparse to be connected and before anything is
    allocated per vertex.
    """
    n = 0
    pairs = []
    for u, v in edges:
        if len(pairs) == MAX_BUILTIN_EDGES:
            raise GraphError(f"an edge list may hold at most {MAX_BUILTIN_EDGES} edges")
        if not (hasattr(u, "__index__") and hasattr(v, "__index__")):  # floats, strings
            label = v if hasattr(u, "__index__") else u
            raise GraphError(f"vertex label {label!r} is not an integer")
        if u == v:
            raise SelfLoopError(u)
        if u < 0 or v < 0:
            raise GraphError(f"negative vertex index in edge ({u}, {v})")
        pairs.append((u, v))
        n = max(n, u + 1, v + 1)
    if n > len(pairs) + 1:  # cannot be connected; refused before allocating n sets
        lists = defaultdict(list)
        for u, v in pairs:
            lists[u].append(v)
            lists[v].append(u)
        raise NotConnectedError(chain.from_iterable(_levels_of_zero(lists)))
    if n > MAX_BUILTIN_VERTICES:
        raise GraphError(f"an edge list may name at most {MAX_BUILTIN_VERTICES} vertices, got {n}")
    nbrs = [set() for _ in range(n)]
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in nbrs)
    del nbrs, pairs  # freed before validation allocates its arrays
    return Graph(adjacency)


def parse_edge_list(text: str) -> Graph:
    """Parse an edge list, one "u v" pair of 0-based indices per line.

    Blank lines are ignored and lines starting with '#' are comments.
    Raises MalformedLineError (with the 1-based line number), SelfLoopError,
    NotConnectedError, or GraphError past graph_from_edges' caps; parsing
    stops at the first edge past MAX_BUILTIN_EDGES.
    """
    edges = []
    for line_no, raw in enumerate(_lines(text), 1):
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
        if len(edges) > MAX_BUILTIN_EDGES:
            break  # one edge past the cap, which graph_from_edges refuses
    return graph_from_edges(edges)


def _lines(text: str):
    """Yield the lines of text.splitlines(), splitting a chunk at a time.

    Each chunk ends just after the first line end at least LINE_CHUNK_CHARS
    characters past its start, and never between "\r" and "\n".
    """
    start = 0
    while start < len(text):
        bound = start + LINE_CHUNK_CHARS
        match = bound < len(text) and re.compile(LINE_END_PATTERN).search(text, bound)
        stop = match.end() if match else len(text)
        if text.startswith("\r\n", stop - 1):
            stop += 1
        yield from text[start:stop].splitlines()
        start = stop


def _closed_form(n: int, nbrs) -> Graph:
    """The graph on vertices 0..n-1 in which v has the neighbours nbrs(v)."""
    return Graph(tuple(tuple(sorted(nbrs(v))) for v in range(n)))


def _complete(n: int) -> Graph:
    return _closed_form(n, lambda v: chain(range(v), range(v + 1, n)))


def _cycle(n: int) -> Graph:
    return _closed_form(n, lambda v: ((v - 1) % n, (v + 1) % n))


def _petersen() -> Graph:
    # outer 5-cycle 0..4, spokes v ~ v + 5, inner pentagram 5..9
    return _closed_form(10, lambda v: (
        ((v - 1) % 5, (v + 1) % 5, v + 5) if v < 5 else (v - 5, 5 + (v - 7) % 5, 5 + (v - 3) % 5)
    ))


def _hypercube(d: int) -> Graph:
    return _closed_form(1 << d, lambda v: (v ^ (1 << bit) for bit in range(d)))


def _complete_bipartite(n: int) -> Graph:
    return _closed_form(2 * n, lambda v: range(n, 2 * n) if v < n else range(n))


# Builtin generators: name -> (builder, smallest parameter, largest
# parameter). The largest keeps the graph within MAX_BUILTIN_VERTICES
# and MAX_BUILTIN_EDGES: complete:n has n(n-1)/2 edges and
# complete_bipartite:n n^2, while cycles and cubes reach the vertex cap
# first. A None minimum marks a graph that takes no parameter.
BUILTIN_GRAPHS = {
    "petersen": (_petersen, None, None),
    "complete": (
        _complete, 2, min(MAX_BUILTIN_VERTICES, (1 + math.isqrt(1 + 8 * MAX_BUILTIN_EDGES)) // 2)
    ),
    "cycle": (_cycle, 3, MAX_BUILTIN_VERTICES),
    "hypercube": (_hypercube, 1, MAX_BUILTIN_VERTICES.bit_length() - 1),
    "complete_bipartite": (
        _complete_bipartite, 1, min(MAX_BUILTIN_VERTICES // 2, math.isqrt(MAX_BUILTIN_EDGES))
    ),
}


def is_builtin_name(name: str) -> bool:
    """True iff name has the form of a builtin: "petersen" or "<base>:<arg>"."""
    base, sep, _ = name.partition(":")
    spec = BUILTIN_GRAPHS.get(base)
    return spec is not None and bool(sep) == (spec[1] is not None)


def graph_from_name(name: str) -> Graph:
    """Build one of the named graphs.

    Supported: "complete:n" (n >= 2), "cycle:n" (n >= 3), "petersen",
    "hypercube:d" (d >= 1), "complete_bipartite:n" (n >= 1). A parameter
    giving more than MAX_BUILTIN_VERTICES vertices or MAX_BUILTIN_EDGES
    edges raises GraphError before anything is built.
    """
    base, sep, arg = name.partition(":")
    if base not in BUILTIN_GRAPHS:
        raise GraphError(f"unknown builtin graph {name!r}")
    builder, minimum, maximum = BUILTIN_GRAPHS[base]
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
    if k > maximum:
        raise GraphError(
            f"{base} parameter must be <= {maximum} (at most {MAX_BUILTIN_VERTICES} "
            f"vertices and {MAX_BUILTIN_EDGES} edges)"
        )
    return builder(k)


def bfs_distances(g: Graph, v: int) -> list[int]:
    """Graph distances from v to every vertex: row v of g.distances."""
    if not 0 <= v < g.vertex_count:
        raise GraphError(f"vertex {v} out of range")
    return g.distances[v].tolist()


def diameter(g: Graph) -> int:
    """Largest distance between any two vertices."""
    return int(g.distances.max())


def distance_k_matrix(g: Graph, k: int) -> np.ndarray:
    """A_k: the symmetric boolean n x n array, True where dist(i, j) = k.

    A_0 is the identity, and A_k is all False for k above the diameter.
    """
    if k < 0:
        raise GraphError("k must be nonnegative")
    return g.distances == k


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
