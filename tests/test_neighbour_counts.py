"""The neighbour codes that certification reads, and their counts."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from drgjacobi import certify_distance_regular, graph_from_edges, graph_from_name
from drgjacobi import cli, graphs, intersection
from references import csr_of, reference_bfs


def ring_of_triangles(rings: int) -> list[tuple[int, int]]:
    """C_rings[K_3]: triangles 3t..3t+2, each completely joined to the next."""
    edges = [(3 * t + x, 3 * t + y) for t in range(rings) for x in range(3) for y in range(x + 1, 3)]
    edges += [(3 * t + x, 3 * ((t + 1) % rings) + y) for t in range(rings) for x in range(3) for y in range(3)]
    return edges


def brute_force_counts(g):
    """counts[i][j] = (closer, level, farther) over the neighbours of j, by d(i, .)."""
    counts = []
    for i in range(g.vertex_count):
        dist = reference_bfs(g.adjacency, i)
        counts.append([
            tuple(sum(1 for u in g.adjacency[j] if dist[u] == dist[j] + s) for s in (-1, 0, 1))
            for j in range(g.vertex_count)
        ])
    return counts


@pytest.mark.parametrize(
    "density, block_entries",
    [(intersection.DENSE_SUMS_DENSITY, graphs.BLOCK_ENTRIES), (1, 1000), (1 << 30, 1000)],
)
@pytest.mark.parametrize("name", ["ring_of_triangles:42", "cycle:126"])
def test_counts_match_brute_force_on_int8_tables(name, density, block_entries, monkeypatch):
    # 126 vertices: the table is int8, while degree x diameter reaches 8 x 21 = 168
    # on the ring of triangles, so any sum taken in the table's own width wraps;
    # density 1 takes every sum by the gather, 1 << 30 by the dense product
    monkeypatch.setattr(intersection, "DENSE_SUMS_DENSITY", density)
    monkeypatch.setattr(graphs, "BLOCK_ENTRIES", block_entries)
    g = graph_from_edges(ring_of_triangles(42)) if name.startswith("ring") else graph_from_name(name)
    assert g.distances.dtype == np.int8
    if density != intersection.DENSE_SUMS_DENSITY:
        assert isinstance(intersection._adjacency_operator(g), np.ndarray) == (density > 1)
    degrees = np.diff(g.csr[0])
    if name.startswith("ring"):
        assert set(degrees.tolist()) == {8} and int(g.distances.max()) == 21
    assert counts_by_row(g) == brute_force_counts(g)


def counts_by_row(g):
    """brute_force_counts' layout, decoded from intersection._neighbour_codes; g is regular."""
    degree = g.degree(0)
    got = [None] * g.vertex_count
    op = intersection._adjacency_operator(g)
    for start, m, codes in intersection._neighbour_codes(g, op, degree):
        # codes[j, c] is the pair (start + c, j)'s code
        counts = intersection._counts(codes.astype(np.int64), m, degree)
        for c in range(m.shape[1]):
            got[start + c] = [tuple(map(int, t)) for t in zip(*(a[:, c] for a in counts))]
    return got


@pytest.mark.parametrize("deg", range(1, 6))
def test_codes_decode_to_their_counts(deg):
    # every split of the degree into closer, level and farther neighbours, at every distance
    step = deg + 1
    for m in range(7):
        splits = [
            (closer, level, deg - closer - level)
            for closer in range(deg + 1)
            for level in range(deg + 1 - closer)
            if m or (closer, level) == (0, 0)  # a pair at distance 0 has only farther ones
        ]
        f = [intersection._code(x, step) if x >= 0 else None for x in (m - 1, m, m + 1)]
        codes = [sum(c * v for c, v in zip(split, f) if c) for split in splits]
        assert len(set(codes)) == len(splits)
        for split, code in zip(splits, codes):
            assert tuple(map(int, intersection._counts(code, m, deg))) == split
        decoded = intersection._counts(np.array(codes), np.full(len(codes), m), deg)
        assert list(zip(*(a.tolist() for a in decoded))) == splits


@pytest.mark.parametrize("density, dense", [(1 << 30, True), (1, False)])
def test_an_irregular_graph_is_refused_before_any_neighbour_code(density, dense, monkeypatch):
    # degrees 1 to 9: the regularity check answers before the codes, which take one degree
    monkeypatch.setattr(intersection, "DENSE_SUMS_DENSITY", density)
    ring = [(u + 1, v + 1) for u, v in ring_of_triangles(5)]
    g = graph_from_edges(ring + [(1, 16), (16, 17), (17, 18), (18, 8), (18, 0)])
    assert isinstance(intersection._adjacency_operator(g), np.ndarray) == dense
    assert set(np.diff(g.csr[0]).tolist()) == {1, 2, 3, 8, 9}

    def refused(g, op, degree):
        raise AssertionError("neighbour codes on an irregular graph")

    monkeypatch.setattr(intersection, "_neighbour_codes", refused)
    witness = certify_distance_regular(g)
    assert witness.to_json() == {
        "kind": "NotRegular", "distance": 0, "count_type": "b",
        "first_pair": [0, 0], "first_count": 1, "second_pair": [1, 1], "second_count": 9,
    }


@pytest.mark.parametrize("extra, dense", [(0, True), (1, False)])
def test_counts_match_brute_force_either_side_of_the_density_rule(extra, dense):
    # the circulant C_n(1, 2) has 4n arcs: n = 4c lies on the rule arcs >= n^2 / c,
    # and n = 4c + 1 just below it
    n = 4 * intersection.DENSE_SUMS_DENSITY + extra
    g = graph_from_edges([(v, (v + s) % n) for v in range(n) for s in (1, 2)])
    assert isinstance(intersection._adjacency_operator(g), np.ndarray) == dense
    assert counts_by_row(g) == brute_force_counts(g)


@pytest.mark.parametrize("name", ["complete_bipartite:724", "complete:1024"])
def test_dense_codes_equal_gather_codes_at_the_caps(name, monkeypatch):
    # the largest graphs the builtin caps send down the dense route; their
    # blocks have 64 columns, and the certificate is a function of these codes
    g = graph_from_name(name)
    widths = []

    def first_and_last(n, width):  # of the blocks, as the gather is slow here
        widths.append(width)
        blocks = list(graphs._row_blocks(n, width))
        return blocks[0], blocks[-1]

    monkeypatch.setattr(intersection, "_row_blocks", first_and_last)
    degree = g.degree(0)
    dense = list(intersection._neighbour_codes(g, intersection._adjacency_operator(g), degree))
    monkeypatch.setattr(intersection, "DENSE_SUMS_DENSITY", 1)
    assert intersection._adjacency_operator(g) is None
    gather = list(intersection._neighbour_codes(g, None, degree))
    assert dense[0][2].dtype == np.float32 and gather[0][2].dtype == np.int32
    blocks = list(graphs._row_blocks(g.vertex_count, widths[0]))
    assert {stop - start for start, stop in blocks[:-1]} == {64}
    for (start, m, codes), (start_g, m_g, codes_g) in zip(dense, gather):
        assert start == start_g and np.array_equal(m, m_g) and np.array_equal(codes, codes_g)


def test_dense_route_holds_its_codes_below_2_to_24():
    # float32 holds every integer up to 2^24: complete graphs keep the dense
    # route up to 3861 vertices
    for n, exact in ((3861, True), (3862, False)):
        assert (intersection._max_code(n, n - 1) < 2**24) == exact
        assert intersection._dense_sums_pay(n, n * (n - 1), n - 1) == exact
    # int32, on the gather route, holds every code of up to 43 690 vertices
    assert intersection._max_code(43690, 43689) < 2**31 <= intersection._max_code(43691, 43690)


@pytest.mark.parametrize("n, dense", [(3861, True), (3862, False)])
def test_dense_route_refuses_an_irregular_graph_past_the_bound(n, dense, monkeypatch):
    # a star built directly, centred on its last vertex: the centre's degree
    # n - 1 alone decides the bound, as every density passes the rule here
    monkeypatch.setattr(intersection, "DENSE_SUMS_DENSITY", 1 << 30)
    g = graphs.Graph(*csr_of(((n - 1,),) * (n - 1) + ((*range(n - 1),),)))
    assert intersection._dense_sums_pay(n, len(g.csr[1]), int(np.diff(g.csr[0]).max())) == dense
    if not dense:  # the dense operator would take 60 MB and the table
        assert intersection._adjacency_operator(g) is None


def certify_peak(g) -> int:
    # a first call fills the table: the peak is certify's own working set, the
    # dense operator it builds or the gather's slots and temporaries included
    certify_distance_regular(g)
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


def test_verify_picks_the_route_once_per_input(monkeypatch, capsys):
    built, dense = Counter(), set()
    build = intersection._adjacency_operator

    def counting_build(g):
        built[g.vertex_count] += 1
        op = build(g)
        if op is not None:
            dense.add(g.vertex_count)
        return op

    monkeypatch.setattr(intersection, "_adjacency_operator", counting_build)
    assert cli.main(["verify", "petersen", "cycle:30", "hypercube:7"]) == 0
    capsys.readouterr()
    # every input picks its route once; the dense route builds A_1, the gather
    # (hypercube:7, with n^2 / 18.3 arcs) needs no operator
    assert built == {10: 1, 30: 1, 128: 1} and dense == {10, 30}
