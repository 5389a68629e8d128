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
    "crossover, block_entries",
    [(graphs.SCIPY_MIN_VERTICES, graphs.BLOCK_ENTRIES), (graphs.SCIPY_MIN_VERTICES, 1000), (127, 1000)],
)
@pytest.mark.parametrize("name", ["ring_of_triangles:42", "cycle:126"])
def test_counts_match_brute_force_on_int8_tables(name, crossover, block_entries, monkeypatch):
    # 126 vertices: the table is int8, while degree x diameter reaches 8 x 21 = 168
    # on the ring of triangles, so any sum taken in the table's own width wraps;
    # crossover 127 takes the sums by the numpy gather instead of scipy
    monkeypatch.setattr(graphs, "SCIPY_MIN_VERTICES", crossover)
    monkeypatch.setattr(graphs, "BLOCK_ENTRIES", block_entries)
    g = graph_from_edges(ring_of_triangles(42)) if name.startswith("ring") else graph_from_name(name)
    assert g.distances.dtype == np.int8
    degrees = np.diff(g.csr[0])
    if name.startswith("ring"):
        assert set(degrees.tolist()) == {8} and int(g.distances.max()) == 21
    got = [None] * g.vertex_count
    for start, stop, *counts in intersection._neighbour_counts(g):
        for i in range(start, stop):
            got[i] = [tuple(map(int, c)) for c in zip(*(a[i - start] for a in counts))]
    assert got == brute_force_counts(g)


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
    # petersen is below SCIPY_MIN_VERTICES: its sums are a numpy gather
    assert built == {30: 1, 32: 1}
