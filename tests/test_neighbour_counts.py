"""The neighbour counts that certification and the recurrence check share."""

import functools
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest

from drgjacobi import certify_distance_regular, graph_from_edges, graph_from_name
from drgjacobi import cli, graphs, intersection


def ring_of_triangles(rings: int) -> list[tuple[int, int]]:
    """C_rings[K_3]: triangles 3t..3t+2, each completely joined to the next."""
    edges = [(3 * t + x, 3 * t + y) for t in range(rings) for x in range(3) for y in range(x + 1, 3)]
    edges += [(3 * t + x, 3 * ((t + 1) % rings) + y) for t in range(rings) for x in range(3) for y in range(3)]
    return edges


def brute_force_counts(g):
    """counts[i][j] = (closer, level, farther) over the neighbours of j, by d(i, .)."""
    counts = []
    for i in range(g.vertex_count):
        dist = [-1] * g.vertex_count
        dist[i] = 0
        queue = deque([i])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        counts.append([
            tuple(sum(1 for u in g.adjacency[j] if dist[u] == dist[j] + s) for s in (-1, 0, 1))
            for j in range(g.vertex_count)
        ])
    return counts


@pytest.mark.parametrize(
    "density, block_entries",
    [(graphs.DENSE_SUMS_DENSITY, graphs.BLOCK_ENTRIES), (1, 1000), (1 << 30, 1000)],
)
@pytest.mark.parametrize("name", ["ring_of_triangles:42", "cycle:126"])
def test_counts_match_brute_force_on_int8_tables(name, density, block_entries, monkeypatch):
    # 126 vertices: the table is int8, while degree x diameter reaches 8 x 21 = 168
    # on the ring of triangles, so any sum taken in the table's own width wraps;
    # density 1 takes every sum by the sparse product, 1 << 30 by the dense one
    monkeypatch.setattr(graphs, "DENSE_SUMS_DENSITY", density)
    monkeypatch.setattr(graphs, "BLOCK_ENTRIES", block_entries)
    g = graph_from_edges(ring_of_triangles(42)) if name.startswith("ring") else graph_from_name(name)
    assert g.distances.dtype == np.int8
    if density != graphs.DENSE_SUMS_DENSITY:
        assert isinstance(g.adjacency_operator, np.ndarray) == (density > 1)
    degrees = np.diff(g.csr[0])
    if name.startswith("ring"):
        assert set(degrees.tolist()) == {8} and int(g.distances.max()) == 21
    assert counts_by_row(g) == brute_force_counts(g)


def counts_by_row(g):
    """brute_force_counts' layout, read from intersection._neighbour_counts."""
    got = [None] * g.vertex_count
    for start, stop, *counts in intersection._neighbour_counts(g):
        for i in range(start, stop):
            got[i] = [tuple(map(int, c)) for c in zip(*(a[i - start] for a in counts))]
    return got


@pytest.mark.parametrize("extra, dense", [(0, True), (1, False)])
def test_counts_match_brute_force_either_side_of_the_density_rule(extra, dense):
    # the circulant C_n(1, 2) has 4n arcs: n = 4c lies on the rule arcs >= n^2 / c,
    # and n = 4c + 1 just below it
    n = 4 * graphs.DENSE_SUMS_DENSITY + extra
    g = graph_from_edges([(v, (v + s) % n) for v in range(n) for s in (1, 2)])
    assert isinstance(g.adjacency_operator, np.ndarray) == dense
    assert counts_by_row(g) == brute_force_counts(g)


@pytest.mark.parametrize("name", ["complete_bipartite:724", "complete:1024"])
def test_dense_sums_equal_sparse_sums_at_the_caps(name, monkeypatch):
    # the largest graphs the builtin caps send down the dense route; their
    # blocks have the floor of 16 rows, and the counts are a function of these sums
    g = graph_from_name(name)
    dense = g.adjacency_operator
    monkeypatch.setattr(graphs, "DENSE_SUMS_DENSITY", 1)
    sparse = graphs.Graph.adjacency_operator.func(g)  # the sparse route's operator, uncached
    assert isinstance(dense, np.ndarray) and not isinstance(sparse, np.ndarray)
    blocks = [(start, stop) for start, stop, *_ in intersection._neighbour_counts(g)]
    assert {stop - start for start, stop in blocks[:-1]} == {16}
    for start, stop in (blocks[0], blocks[-1]):
        m = g.distances[start:stop]
        rows = np.concatenate((m, m & 1))
        assert np.array_equal(graphs._neighbour_sums(dense, rows), graphs._neighbour_sums(sparse, rows))


def test_dense_route_is_refused_above_the_float32_bound():
    # a Graph built directly is not held to MAX_BUILTIN_VERTICES; n^2 arcs pass any density
    n = graphs.DENSE_SUMS_MAX_VERTICES
    assert n == 8188 and ((n + 2) / 2) ** 2 < 2**24
    assert graphs._dense_sums_pay(n, n * n)
    assert not graphs._dense_sums_pay(n + 1, (n + 1) ** 2)


def certify_peak(g) -> int:
    g.distances, g.adjacency_operator  # cached first: the peak is certify's own working set
    tracemalloc.start()
    try:
        certify_distance_regular(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["complete:200", "hypercube:9"])
def test_certify_working_set_is_bounded_by_block_size(name):
    # n x degree is 39800 entries on complete:200 and 4608 on hypercube:9;
    # the bound does not grow with either
    assert certify_peak(graph_from_name(name)) < 16 * graphs.BLOCK_ENTRIES


def test_verify_builds_the_operator_once_per_input(monkeypatch, capsys):
    built = Counter()
    build = graphs.Graph.adjacency_operator.func

    @functools.wraps(build)
    def counting_build(g):
        built[g.vertex_count] += 1
        return build(g)

    prop = functools.cached_property(counting_build)
    prop.__set_name__(graphs.Graph, "adjacency_operator")
    monkeypatch.setattr(graphs.Graph, "adjacency_operator", prop)
    assert cli.main(["verify", "petersen", "cycle:30", "hypercube:5"]) == 0
    capsys.readouterr()
    # every input builds one, dense or sparse: no route sums without it
    assert built == {10: 1, 30: 1, 32: 1}
