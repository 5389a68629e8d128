"""Simple connected graphs and their distance-k structure.

Vertices are dense 0-based indices. A ``Graph`` stores its adjacency
once, as read-only int32 CSR arrays ``Graph.csr``, which the array
kernels here, in ``intersection`` and in ``oracle`` read. Construction
takes those arrays and verifies them with numpy: entries in range, no
loops, rows strictly increasing (so no parallel edges) and the relation
symmetric. It then proves the graph connected by a breadth-first
search from vertex 0, so everything downstream may assume all of it.
That search, ``_bfs``, is the module's only one: it also fills the
tables of small graphs and names vertex 0's component when
``graph_from_edges`` refuses a list too sparse to be connected. It
stops as soon as every vertex is reached, and at construction it reads
a view of the CSR arrays that converts a row to a Python list only when
the search expands it, so on a complete graph it converts one row. Its
row of distances and the least vertex at each distance, the distance
classes of vertex 0 that certification reads first, are kept as
``Graph._row0``. The builtins write their closed forms straight into the two
arrays, and ``graph_from_edges`` builds them with one dedup of the arc
codes; ``parse_edge_list`` reads plain edge lists a chunk at a time with
numpy and leaves every other list, and every malformed-line error, to
its line loop. ``Graph.adjacency``, the neighbour lists as tuples, is a
view built on first use; nothing on the construction path builds it.
Neighbour sums are products with
``Graph.adjacency_operator``, built on first use and cached like the
distances, in one of two forms that ``_dense_sums_pay`` picks by
density: on graphs with at least n^2 / DENSE_SUMS_DENSITY arcs, A_1 =
(distances == 1) as a dense float32 array, whose BLAS products are
exact while every sum stays below 2^24 (``_max_code``); on sparser
ones, the CSR arrays wrapped in one int32 scipy CSR array.
Certification in ``intersection`` takes one such product per block of
the table, which sums a code of each neighbour's distance. All distance
data is read from one read-only all-pairs array, ``Graph.distances``,
filled on first use by path search, never by matrix powers, so entries
are exact by construction.
It has three fills.
The bitset fill, ``_bitset_distances``, is one level-synchronous BFS
from every source at once on rows packed 64 columns to a machine word.
The two others search once per source: scipy's compiled
``csgraph.shortest_path`` in row blocks, a Dijkstra search from each
source (given ``indices``, its default method never switches to
Floyd-Warshall), or, below ``SCIPY_MIN_VERTICES`` vertices, ``_bfs``
from each vertex but 0, whose row construction kept.
``_bitset_fill_pays`` takes the bitset fill when its worst-case cost,
at twice the eccentricity of vertex 0 in levels, is below that of the
search per source: graphs of small diameter take it, long thin ones
such as cycles and prisms keep their search. Below
``SCIPY_MIN_VERTICES`` vertices no scipy sparse code runs: the fill is
the Python BFS, and every connected graph of at most 30 vertices takes
the dense neighbour sums. The array is shared by certification in
``intersection`` and by ``oracle``, which checks its entries and then
proves it by the exact distance recurrence.
The distance-k matrix A_k is the boolean array ``distances == k``.
"""

from __future__ import annotations

import math
import re
from dataclasses import InitVar, dataclass, field
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
    def __init__(self, component):
        self.component = tuple(sorted(component))
        super().__init__(
            f"graph is not connected; one component is {list(self.component)}"
        )


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
# parameter, before any allocation: construction holds the closed form, the
# stored int32 copy and two int32 code arrays, one entry per arc each, about
# 34 bytes per edge at its tracemalloc peak (complete:1024 and
# complete_bipartite:724 near 18 MB). hypercube:12, cycle:4096,
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
LINE_ENDS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
LINE_END_PATTERN = f"[{LINE_ENDS}]"
# A plain line of an edge list (``_plain_labels``): blank, a comment, or two
# decimal labels with spaces and tabs around and between them, ended by
# "\n", "\r\n" or the end of the text. A label has at most 18 digits, so
# that it fits in int64. With re.MULTILINE, NOT_PLAIN_PATTERN matches at the
# start of a line that is not plain, and COMMENT_LINE_PATTERN a comment line.
PLAIN_LINE = f"[ \t]*(?:[0-9]{{1,18}}[ \t]+[0-9]{{1,18}}[ \t]*|#[^{LINE_ENDS}]*)?\r?$"
NOT_PLAIN_PATTERN = f"^(?!{PLAIN_LINE})"
COMMENT_LINE_PATTERN = f"^[ \t]*#[^{LINE_ENDS}]*"


def _row_blocks(n: int, width: int):
    """Consecutive row ranges [start, stop) of about BLOCK_ENTRIES / width rows."""
    step = max(1, BLOCK_ENTRIES // width)
    for start in range(0, n, step):
        yield start, min(n, start + step)


@dataclass(frozen=True, eq=False, repr=False)
class Graph:
    """Immutable simple connected undirected graph, stored as CSR arrays.

    ``Graph(indptr, indices)`` takes one-dimensional integer arrays: the
    neighbours of vertex i are ``indices[indptr[i]:indptr[i + 1]]``, in
    strictly increasing order, and every edge appears in the rows of
    both its ends. ``csr`` holds read-only int32 copies of the two
    arrays, and is the one form the graph stores; ``adjacency``, the
    same lists as tuples of ints, is a view built on first use.
    Construction checks the arrays with numpy and raises a GraphError
    naming the first offending entry in row-major order. It then runs
    ``_bfs`` from vertex 0 over ``_CsrRows``, which converts a row only
    when the search reads it, raises NotConnectedError naming vertex 0's
    component if a vertex is unreached, and keeps ``_row0``: row 0 of
    the distances and the least vertex at each distance from 0, read
    off that row. Its largest distance is the eccentricity of vertex 0,
    which bounds the diameter for the choice of fill. Graphs are equal
    when their arrays are.
    """

    indptr: InitVar[np.ndarray]
    indices: InitVar[np.ndarray]
    csr: tuple[np.ndarray, np.ndarray] = field(init=False)
    _row0: tuple[np.ndarray, np.ndarray] = field(init=False)

    def __post_init__(self, indptr, indices):
        csr = _checked_csr(indptr, indices)
        object.__setattr__(self, "csr", csr)
        row0 = np.array(_bfs(_CsrRows(*csr), 0), dtype=np.intp)
        if row0.min() < 0:
            raise NotConnectedError(np.flatnonzero(row0 >= 0).tolist())
        # the least vertex at each distance: its first occurrence in the row
        object.__setattr__(self, "_row0", (row0, np.unique(row0, return_index=True)[1]))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return all(map(np.array_equal, self.csr, other.csr))

    @property
    def _ecc0(self) -> int:
        """The eccentricity of vertex 0."""
        return len(self._row0[1]) - 1

    @property
    def vertex_count(self) -> int:
        return len(self.csr[0]) - 1

    def degree(self, v: int) -> int:
        indptr = self.csr[0]
        if not 0 <= v < len(indptr) - 1:
            raise GraphError(f"no vertex {v}: the vertices are 0..{len(indptr) - 2}")
        return int(indptr[v + 1] - indptr[v])

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The neighbour lists as tuples of ints, built from ``csr`` on first use."""
        return tuple(map(tuple, _neighbour_lists(*self.csr)))

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
            nbrs = _neighbour_lists(indptr, indices)
            dist = np.empty((n, n), dtype=dtype)
            dist[0] = self._row0[0]
            for v in range(1, n):
                dist[v] = _bfs(nbrs, v)
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


def _checked_csr(indptr, indices) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int32 copies of valid CSR arrays; a GraphError for invalid ones."""
    indptr, indices = np.asarray(indptr), np.asarray(indices)
    if indptr.ndim != 1 or indices.ndim != 1 or not {indptr.dtype.kind, indices.dtype.kind} <= {"i", "u"}:
        raise GraphError("indptr and indices must be one-dimensional integer arrays")
    n = len(indptr) - 1
    if n < 2:
        raise GraphError("a graph needs at least two vertices")
    indptr = indptr.astype(np.int64)
    degrees = indptr[1:] - indptr[:-1]
    if indptr[0] != 0 or indptr[-1] != len(indices) or degrees.min() < 0:
        raise GraphError(f"indptr must rise from 0 to len(indices) = {len(indices)}")
    # Codes i * n + j of the entries, and of the reversed ones: int32 while n^2 fits.
    code = np.int32 if n * n < 1 << 31 else np.int64
    rows = np.repeat(np.arange(n, dtype=code), degrees)
    cols = indices.astype(code)
    valid = not len(cols) or (indices.min() >= 0 and indices.max() < n)
    if valid and len(cols):
        reversed_codes = cols * n
        reversed_codes += rows
        codes = rows  # the rows are not read again
        codes *= n
        codes += cols
        # Valid rows give strictly increasing codes, none of them a loop's
        # i * (n + 1), and the reversed entries give the same codes in
        # another order.
        loops = np.arange(0, n * n, n + 1, dtype=code)
        valid = (codes[1:] > codes[:-1]).all() and not (
            codes.take(np.searchsorted(codes, loops), mode="clip") == loops
        ).any()
        if valid:
            reversed_codes.sort()
            valid = (codes == reversed_codes).all()
    if not valid:
        _raise_first_offence(indices, degrees)
    csr = (indptr.astype(np.int32), cols.astype(np.int32, copy=False))
    for a in csr:
        a.flags.writeable = False
    return csr


def _raise_first_offence(indices, degrees):
    """Raise for the first offending entry of invalid CSR rows, in row-major order.

    Entry (i, j) is checked for a loop, then its range, then its order
    after the entry before it in row i, then for the entry (j, i).
    """
    n = len(degrees)
    rows = np.repeat(np.arange(n), degrees)
    in_range = (indices >= 0) & (indices < n)
    cols = np.full(len(indices), -1, dtype=np.int64)
    cols[in_range] = indices[in_range]
    loop = cols == rows
    unordered = np.zeros_like(loop)
    unordered[1:] = (rows[1:] == rows[:-1]) & (cols[1:] <= cols[:-1])
    entries = (rows * n + cols)[in_range]
    asymmetric = in_range & ~np.isin(cols * n + rows, entries)
    first = np.flatnonzero(loop | ~in_range | unordered | asymmetric)[0]
    i, j = int(rows[first]), int(indices[first])
    if loop[first]:
        raise SelfLoopError(i)
    if not in_range[first]:
        raise GraphError(f"neighbor {j} of {i} out of range")
    if unordered[first]:
        raise GraphError(f"adjacency[{i}] not strictly increasing")
    raise GraphError(f"asymmetric edge ({i}, {j})")


def _neighbour_lists(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    """The rows of CSR arrays as Python lists of ints."""
    ptr, idx = indptr.tolist(), indices.tolist()
    return [idx[a:b] for a, b in zip(ptr, ptr[1:])]


class _CsrRows:
    """The rows of CSR arrays as lists of ints, each converted when it is read."""

    __slots__ = ("ptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.ptr = indptr.tolist()
        self.indices = memoryview(indices)

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, v: int) -> list[int]:
        return self.indices[self.ptr[v] : self.ptr[v + 1]].tolist()


def _bfs(nbrs, source: int) -> list[int]:
    """Distances from source, where nbrs[v] is a list of v's neighbours; unreachable vertices get -1.

    The list of reached vertices, in the order reached, is its own queue,
    and the search stops as soon as it holds every vertex, before it
    reads the rows of the vertices still queued: on a complete graph it
    reads one row.
    """
    n = len(nbrs)
    dist = [-1] * n
    dist[source] = 0
    queue = [source]
    for u in queue:  # the loop reaches the vertices appended during it
        if len(queue) == n:
            break
        du = dist[u] + 1
        for w in nbrs[u]:
            if dist[w] < 0:
                dist[w] = du
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


def graph_from_edges(edges) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs.

    Duplicate edges are merged. The vertex set is 0..max index. A label
    that is not an integer raises a GraphError naming it. So do more
    than MAX_BUILTIN_EDGES pairs (duplicates counted), at the first pair
    past the cap, and more than MAX_BUILTIN_VERTICES vertices, after the
    refusal of a list too sparse to be connected and before anything is
    allocated per vertex. An m x 2 integer array with no loop, no
    negative label and at most MAX_BUILTIN_EDGES rows skips the check
    per pair; any other array takes that check up to its first offence,
    which raises as it would on the same pairs given as tuples.
    """
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
        if len(edges) > MAX_BUILTIN_EDGES or edges.min(initial=0) < 0 or (edges[:, 0] == edges[:, 1]).any():
            bad = np.flatnonzero((edges[:, 0] == edges[:, 1]) | (edges < 0).any(axis=1))
            stop = min(bad[0] if bad.size else len(edges), MAX_BUILTIN_EDGES) + 1
            _checked_pairs(edges[:stop].tolist())  # raises at the pair at stop - 1
        pairs, n = edges, int(edges.max(initial=-1)) + 1
    else:
        pairs, n = _checked_pairs(edges)
    if n > len(pairs) + 1:  # cannot be connected; refused before allocating per vertex
        number = {0: 0}  # the labels that occur, numbered from 0 in order of appearance
        listed = pairs.tolist() if isinstance(pairs, np.ndarray) else pairs
        ends = [number.setdefault(w, len(number)) for pair in listed for w in pair]
        nbrs = [[] for _ in number]
        for u, v in zip(ends[::2], ends[1::2]):
            nbrs[u].append(v)
            nbrs[v].append(u)
        labels = list(number)
        raise NotConnectedError(labels[w] for w, d in enumerate(_bfs(nbrs, 0)) if d >= 0)
    if n > MAX_BUILTIN_VERTICES:
        raise GraphError(f"an edge list may name at most {MAX_BUILTIN_VERTICES} vertices, got {n}")
    # the arc codes u * n + v of both orientations, sorted and deduplicated
    arcs = np.asarray(pairs, dtype=np.int32).reshape(-1, 2)
    arcs = np.concatenate((arcs, arcs[:, ::-1]))
    codes = arcs[:, 0] * n
    codes += arcs[:, 1]
    del arcs, pairs  # freed before validation allocates its arrays
    codes.sort()
    first = np.ones(len(codes), dtype=bool)  # the first of each run of equal codes
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    codes = codes[first]
    rows, indices = np.divmod(codes, n)
    return Graph(np.searchsorted(rows, np.arange(n + 1)), indices)


def _checked_pairs(edges) -> tuple[list[tuple[int, int]], int]:
    """The pairs of edges as a list, after the check per pair, and max label + 1."""
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
    return pairs, n


def parse_edge_list(text: str) -> Graph:
    """Parse an edge list, one "u v" pair of 0-based indices per line.

    Blank lines are ignored and lines starting with '#' are comments.
    Raises MalformedLineError (with the 1-based line number), SelfLoopError,
    NotConnectedError, or GraphError past graph_from_edges' caps; parsing
    stops at the first edge past MAX_BUILTIN_EDGES. A text whose every
    chunk is plain (``_plain_labels``) is read by numpy; any other is
    read by the line loop, which raises every malformed-line error.
    """
    edges = _plain_edges(text)
    if edges is None:
        edges = _line_edges(text)
    return graph_from_edges(edges)


def _plain_edges(text: str) -> np.ndarray | None:
    """The edges of text as an m x 2 int64 array if every chunk is plain, else None.

    Chunks of whitespace and comments alone are plain and add nothing, so
    a text without a label is read without the line loop. Reading stops
    one edge past MAX_BUILTIN_EDGES, as the line loop does.
    """
    blocks, count = [], 0
    for chunk in _chunks(text):
        labels = _plain_labels(chunk)
        if labels is None:
            return None
        blocks.append(labels)
        count += len(labels) // 2
        if count > MAX_BUILTIN_EDGES:
            break
    return np.concatenate([np.empty(0, dtype=np.int64), *blocks]).reshape(-1, 2)[: MAX_BUILTIN_EDGES + 1]


def _plain_labels(chunk: str) -> np.ndarray | None:
    """The labels of a chunk of plain lines in order, as int64; None if a line is not plain.

    The line loop reads plain lines (PLAIN_LINE) to the same pairs, so the
    two readers agree wherever this one reads. Comment lines are blanked
    first, one regex search finds a line that is not plain, and numpy
    parses the rest.
    """
    if "#" in chunk:  # a comment line left blank is plain, as it was
        chunk = re.sub(COMMENT_LINE_PATTERN, "", chunk, flags=re.MULTILINE)
    if chunk.isspace():  # which np.fromstring would read as one 0
        return np.empty(0, dtype=np.int64)
    if re.search(NOT_PLAIN_PATTERN, chunk, re.MULTILINE):
        return None
    return np.fromstring(chunk, dtype=np.int64, sep=" ")


def _line_edges(text: str) -> list[tuple[int, int]]:
    """The edges of text by the line loop, which raises MalformedLineError."""
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
    return edges


def _chunks(text: str):
    """Yield text in consecutive chunks that end at line ends.

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
        yield text[start:stop]
        start = stop


def _lines(text: str):
    """Yield the lines of text.splitlines(), splitting a chunk at a time."""
    for chunk in _chunks(text):
        yield from chunk.splitlines()


def _regular(rows: np.ndarray) -> Graph:
    """The graph in which vertex v has the sorted neighbours rows[v], from an n x k array."""
    n, k = rows.shape
    return Graph(np.arange(0, n * k + 1, k), rows.ravel())


def _complete(n: int) -> Graph:
    j = np.arange(n - 1, dtype=np.int32)
    return _regular(j + (j >= np.arange(n, dtype=np.int32)[:, None]))


def _cycle(n: int) -> Graph:
    rows = np.arange(n)[:, None] + np.array([-1, 1])
    rows[0], rows[-1] = (1, n - 1), (0, n - 2)
    return _regular(rows)


def _petersen() -> Graph:
    # outer 5-cycle 0..4, spokes v ~ v + 5, inner pentagram 5..9
    return _regular(np.array([
        [1, 4, 5], [0, 2, 6], [1, 3, 7], [2, 4, 8], [0, 3, 9],
        [0, 7, 8], [1, 8, 9], [2, 5, 9], [3, 5, 6], [4, 6, 7],
    ]))


def _hypercube(d: int) -> Graph:
    v = np.arange(1 << d)
    return _regular(np.sort(v[:, None] ^ (1 << np.arange(d)), axis=1))


def _complete_bipartite(n: int) -> Graph:
    # the first n vertices are adjacent to the last n, and the last to the first
    return _regular(np.arange(n, dtype=np.int32) + np.repeat(np.array([n, 0], dtype=np.int32), n)[:, None])


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
