"""The shared distance array, and the certifier and the oracle's recurrence pass that read it."""

import dataclasses
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from drgjacobi import (
    GraphError,
    certify_distance_regular,
    graph_from_edges,
    graph_from_name,
    sequence_from_pairs,
)
from drgjacobi import cli, graphs, intersection
from references import reference_bfs


def reference_certify(g):
    """The pure-Python certifier loop the array-based one replaced, as JSON."""
    n = g.vertex_count
    degree = g.degree(0)
    for v in range(1, n):
        if g.degree(v) != degree:
            return {
                "kind": "NotRegular", "distance": 0, "count_type": "b",
                "first_pair": [0, 0], "first_count": degree,
                "second_pair": [v, v], "second_count": g.degree(v),
            }
    a_ref, b_ref = {}, {}
    for i in range(n):
        dist = reference_bfs(g.adjacency, i)
        for j in range(n):
            k = dist[j]
            if k == 0:
                continue
            a_count = sum(1 for u in g.adjacency[j] if dist[u] == k - 1)
            b_count = sum(1 for u in g.adjacency[j] if dist[u] == k + 1)
            for count_type, count, ref in (("a", a_count, a_ref), ("b", b_count, b_ref)):
                prev = ref.get(k)
                if prev is None:
                    ref[k] = (count, (i, j))
                elif prev[0] != count:
                    return {
                        "kind": "NotDistanceRegular", "distance": k,
                        "count_type": count_type,
                        "first_pair": list(prev[1]), "first_count": prev[0],
                        "second_pair": [i, j], "second_count": count,
                    }
    d = max(a_ref)
    a = tuple(a_ref[k][0] for k in range(1, d + 1))
    b = (degree,) + tuple(b_ref[k][0] for k in range(1, d))
    return sequence_from_pairs(zip(a, b)).to_json()


def reference_recurrence(g, seq):
    """Dense integer products, first failing k, then first (i, j) row-major."""
    dist = np.array([reference_bfs(g.adjacency, v) for v in range(g.vertex_count)])
    mats = [(dist == k).astype(np.int64) for k in range(seq.d + 1)]
    alphas = seq.alphas
    for k in range(seq.d + 1):
        lhs = mats[1] @ mats[k]
        rhs = alphas[k] * mats[k]
        if k < seq.d:
            rhs = rhs + seq.a[k] * mats[k + 1]
        if k > 0:
            rhs = rhs + seq.b[k - 1] * mats[k - 1]
        if not np.array_equal(lhs, rhs):
            i, j = map(int, np.argwhere(lhs != rhs)[0])
            return (k, i, j, int(lhs[i, j]), int(rhs[i, j]))
    return None


def circulant(rng):
    n = rng.randint(4, 16)
    jumps = rng.sample(range(1, n // 2 + 1), rng.randint(1, min(3, n // 2)))
    return [(i, (i + s) % n) for i in range(n) for s in jumps]


def matchings(rng):
    n = 2 * rng.randint(2, 8)
    edges = []
    for _ in range(rng.randint(2, 4)):
        perm = rng.sample(range(n), n)
        edges += zip(perm[::2], perm[1::2])
    return edges


def random_graph(rng):
    n = rng.randint(3, 14)
    p = rng.uniform(0.2, 0.8)
    perm = rng.sample(range(n), n)
    edges = list(zip(perm, perm[1:]))  # a Hamiltonian path keeps it connected
    edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return edges


def random_graphs(count, seed):
    rng = random.Random(seed)
    kinds = (circulant, matchings, random_graph)
    out = []
    while len(out) < count:
        try:
            out.append(graph_from_edges(kinds[len(out) % 3](rng)))
        except GraphError:  # a disconnected union of matchings
            continue
    return out


RANDOM_GRAPHS = random_graphs(1050, seed=20261017)


def cubic_graphs(count, seed):
    """Connected simple 3-regular graphs on 10 vertices, by the pairing model."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        points = [v for v in range(10) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(pair)) for pair in zip(points[::2], points[1::2])}
        if len(edges) < 15:  # a repeated pair
            continue
        try:
            out.append(graph_from_edges(sorted(edges)))
        except GraphError:  # a loop, or a disconnected pairing
            continue
    return out


# Witnesses of the random corpus all lie in row 0; some of these lie beyond it.
CUBIC_GRAPHS = cubic_graphs(300, seed=20261019)


def test_random_corpus_covers_every_outcome():
    kinds = [reference_certify(g).get("kind", "certificate") for g in RANDOM_GRAPHS]
    for kind in ("NotRegular", "NotDistanceRegular", "certificate"):
        assert kinds.count(kind) >= 100, kind


@pytest.mark.parametrize("block_entries", [graphs.BLOCK_ENTRIES, 1, 40])
def test_certify_matches_reference_loop(block_entries, monkeypatch):
    # 1 and 40 split every graph into many row blocks
    monkeypatch.setattr(graphs, "BLOCK_ENTRIES", block_entries)
    beyond_row_0 = Counter()
    for g in RANDOM_GRAPHS + CUBIC_GRAPHS:
        outcome = certify_distance_regular(g).to_json()
        assert outcome == reference_certify(g)
        if outcome.get("kind") == "NotDistanceRegular":
            beyond_row_0[outcome["second_pair"][0] > 0] += 1
    # witnesses from the row-0 pass, and from the block loop over the table
    assert beyond_row_0[False] >= 100 and beyond_row_0[True] >= 1


@pytest.mark.parametrize("block_entries", [graphs.BLOCK_ENTRIES, 40])
def test_gather_path_matches_references(block_entries, monkeypatch):
    # every corpus graph is dense enough for the dense route, which the test
    # above takes; density 1 sends them through the gather over neighbour slots
    monkeypatch.setattr(intersection, "DENSE_SUMS_DENSITY", 1)
    monkeypatch.setattr(graphs, "BLOCK_ENTRIES", block_entries)
    certified = 0
    for g in (RANDOM_GRAPHS + CUBIC_GRAPHS)[::5]:
        outcome = certify_distance_regular(g)
        assert intersection._adjacency_operator(g) is None
        assert outcome.to_json() == reference_certify(g)
        certified += isinstance(outcome, intersection.IntersectionSequence)
    assert certified >= 50


def reference_basis_entry(g, seq, k):
    """BasisMismatchError arguments when equation k fails, in exact integers.

    The largest |P_{k+1}(A) sqrt(deg_{k+1}) - A_{k+1}| entry, first in row-major order.
    """
    dist = np.array([reference_bfs(g.adjacency, v) for v in range(g.vertex_count)])
    mats = [(dist == m).astype(np.int64) for m in range(k + 2)]
    rest = mats[1] @ mats[k] - seq.alphas[k] * mats[k] - (seq.b[k - 1] * mats[k - 1] if k else 0)
    miss = rest - seq.a[k] * mats[k + 1]  # a_{k+1} (P_{k+1}(A) sqrt(deg_{k+1}) - A_{k+1})
    i, j = map(int, np.unravel_index(int(np.abs(miss).argmax()), miss.shape))
    return k + 1, i, j, int(rest[i, j]) / seq.a[k], float(mats[k + 1][i, j])


@pytest.mark.parametrize("gather", [True, False], ids=["gather", "dense"])
def test_oracle_recurrence_pass_matches_dense_reference(gather, monkeypatch):
    from drgjacobi import oracle

    # either route, whatever the cost rule picks; a moved b_1 differs from the degree, and
    # the gather's base must exceed both
    monkeypatch.setattr(oracle, "_gather_pays", lambda g, d: gather)
    tried, below_d, at_d = 0, 0, 0
    for g in RANDOM_GRAPHS[:300] + CUBIC_GRAPHS:
        outcome = certify_distance_regular(g)
        if not isinstance(outcome, intersection.IntersectionSequence):
            continue
        pairs = list(zip(outcome.a, outcome.b))
        # one pair moved by up to 2 each way: a move of both a and b can fail two terms of one
        # equation by different amounts, so its first and its largest miss differ
        moved = [pairs[:m] + [(a + da, b + db)] + pairs[m + 1:] for m, (a, b) in enumerate(pairs)
                 for da in range(-2, 3) for db in range(-2, 3) if da or db]
        for variant in [pairs, pairs + [(pairs[-1][0], 1)], pairs[:-1] or pairs] + moved:
            try:
                seq = sequence_from_pairs(variant)
            except intersection.SequenceError:
                continue
            tried += 1
            mismatch, basis_error, residuals = oracle.recurrence_pass(g, seq, oracle.dense_adjacency(g))
            expected = reference_recurrence(g, seq)
            assert mismatch == expected
            if expected is not None and expected[0] < seq.d:
                below_d += 1
                reference = oracle.BasisMismatchError(*reference_basis_entry(g, seq, expected[0]))
                assert str(basis_error) == str(reference)
                assert residuals is None
            else:
                assert basis_error is None
                at_d += expected is not None
                assert (residuals == (0.0, 0.0)) == (expected is None)
    assert tried >= 400 and below_d >= 150 and at_d >= 150


def test_distances_are_read_only_and_computed_once():
    g = graph_from_name("petersen")
    dist = g.distances
    assert dist is g.distances
    assert dist.dtype == np.int8 and dist.shape == (10, 10)
    assert not dist.flags.writeable
    with pytest.raises(ValueError):
        dist[0, 1] = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.distances = np.zeros((10, 10), dtype=np.int8)
    assert dist.tolist() == [reference_bfs(g.adjacency, v) for v in range(10)]


@pytest.mark.parametrize("n, dtype", [(126, np.int8), (127, np.int16), (400, np.int16)])
def test_distance_dtype_holds_n_plus_one(n, dtype):
    assert graph_from_name(f"cycle:{n}").distances.dtype == dtype


@pytest.mark.parametrize(
    "crossover, block_entries",
    [(graphs.SCIPY_MIN_VERTICES, graphs.BLOCK_ENTRIES), (2, graphs.BLOCK_ENTRIES), (2, 40)],
)
def test_both_fill_paths_match_reference_bfs(crossover, block_entries, monkeypatch):
    # every corpus graph has at most 16 vertices, so only crossover 2
    # sends them through scipy; 40 entries split them into row blocks;
    # the bitset fill is off, so every table is searched per source
    monkeypatch.setattr(graphs, "_bitset_fill_pays", lambda *args: False)
    monkeypatch.setattr(graphs, "SCIPY_MIN_VERTICES", crossover)
    monkeypatch.setattr(graphs, "BLOCK_ENTRIES", block_entries)
    for g in RANDOM_GRAPHS:
        fresh = graphs.Graph(*g.csr)  # the shared graphs may hold a table already
        expected = [reference_bfs(g.adjacency, v) for v in range(g.vertex_count)]
        assert fresh.distances.tolist() == expected


def prism_edges(n):
    """C_n x K_2."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    return ring + [(u + n, v + n) for u, v in ring] + [(i, i + n) for i in range(n)]


@pytest.mark.parametrize("name", ["hypercube:9", "cycle:400", "complete:200", "prism:400"])
def test_every_fill_route_matches_reference_bfs_on_ladder(name, monkeypatch):
    g = graph_from_edges(prism_edges(400)) if name == "prism:400" else graph_from_name(name)
    expected = [reference_bfs(g.adjacency, v) for v in range(g.vertex_count)]
    routes = ((False, g.vertex_count + 1), (False, graphs.SCIPY_MIN_VERTICES), (True, graphs.SCIPY_MIN_VERTICES))
    for bitset, crossover in routes:  # Python BFS, scipy, the bitset fill
        monkeypatch.setattr(graphs, "_bitset_fill_pays", lambda *args: bitset)
        monkeypatch.setattr(graphs, "SCIPY_MIN_VERTICES", crossover)
        assert graphs.Graph(*g.csr).distances.tolist() == expected


def test_row_0_witness_leaves_the_table_unfilled():
    perm = random.Random(400).sample(range(800), 800)
    prism = [(perm[u], perm[v]) for u, v in prism_edges(400)]
    # the Möbius–Kantor graph, LCF [5, -5]^8
    mobius_kantor = [(i, (i + 1) % 16) for i in range(16)] + [(i, (i + 5) % 16) for i in range(0, 16, 2)]
    for edges in (prism, mobius_kantor):
        g = graph_from_edges(edges)
        witness = certify_distance_regular(g)
        assert witness.kind == "NotDistanceRegular"
        assert witness.first_pair[0] == witness.second_pair[0] == 0
        assert "distances" not in g.__dict__
        assert witness.recount(g) == (witness.first_count, witness.second_count)


def test_networkx_cubic_witness_beyond_row_0_fills_the_table():
    nx = pytest.importorskip("networkx")
    for seed in range(500):
        edges = list(nx.random_regular_graph(3, 10, seed=seed).edges())
        try:
            expected = reference_certify(graph_from_edges(edges))
        except GraphError:  # disconnected
            continue
        if expected.get("second_pair", [0])[0] > 0:
            break
    else:
        pytest.fail("no seeded cubic graph has its witness beyond row 0")
    g = graph_from_edges(edges)
    assert certify_distance_regular(g).to_json() == expected
    assert "distances" in g.__dict__


def test_verify_fills_each_table_once(monkeypatch, capsys):
    from scipy.sparse import csgraph

    bfs_rows, compiled_rows, bitset_rows = Counter(), Counter(), Counter()
    original_bfs, original_shortest_path = graphs._bfs, csgraph.shortest_path
    original_bitset = graphs._bitset_distances

    def counting_bfs(adjacency, source):
        bfs_rows[len(adjacency)] += 1
        return original_bfs(adjacency, source)

    def counting_shortest_path(adj, *args, indices, **kwargs):
        compiled_rows[adj.shape[0]] += len(indices)
        return original_shortest_path(adj, *args, indices=indices, **kwargs)

    def counting_bitset(indptr, indices, dtype):
        dist = original_bitset(indptr, indices, dtype)
        bitset_rows[len(dist)] += len(dist)
        return dist

    monkeypatch.setattr(graphs, "_bfs", counting_bfs)
    monkeypatch.setattr(csgraph, "shortest_path", counting_shortest_path)
    monkeypatch.setattr(graphs, "_bitset_distances", counting_bitset)
    assert cli.main(["verify", "petersen", "cycle:30", "hypercube:5"]) == 0
    capsys.readouterr()
    # per input: each row of the table once, by the route the rule picks:
    # Python BFS for petersen, scipy for the 30-cycle (eccentricity 15)
    # and the bitset fill for the 5-cube. Construction searches row 0 by
    # one BFS on every graph, which petersen's fill copies, searching the
    # other 9 rows; the oracle fills no table of its own
    assert bfs_rows == {10: 10, 30: 1, 32: 1}
    assert compiled_rows == {30: 30}
    assert bitset_rows == {32: 32}


def force_bitset_fill(monkeypatch):
    monkeypatch.setattr(graphs, "_bitset_fill_pays", lambda *args: True)


@pytest.mark.parametrize("block_entries", [graphs.BLOCK_ENTRIES, 40])
def test_bitset_fill_matches_reference_bfs(block_entries, monkeypatch):
    # 40 entries give blocks of one or two rows on every corpus graph
    force_bitset_fill(monkeypatch)
    monkeypatch.setattr(graphs, "BLOCK_ENTRIES", block_entries)
    for g in RANDOM_GRAPHS:
        fresh = graphs.Graph(*g.csr)
        expected = [reference_bfs(g.adjacency, v) for v in range(g.vertex_count)]
        assert fresh.distances.tolist() == expected


@pytest.mark.parametrize("n", [63, 64, 65, 126, 127, 128, 129])
def test_bitset_fill_at_word_and_dtype_edges(n, monkeypatch):
    # one word per row up to 64 vertices, and an int8 table up to 126
    force_bitset_fill(monkeypatch)
    rng = random.Random(n)
    perm = rng.sample(range(n), n)
    sparse = list(zip(perm, perm[1:])) + [tuple(rng.sample(range(n), 2)) for _ in range(n // 4)]
    for g in (graph_from_name(f"cycle:{n}"), graph_from_edges(sparse)):
        dist = g.distances
        assert dist.dtype == (np.int8 if n < 127 else np.int16)
        assert dist.tolist() == [reference_bfs(g.adjacency, v) for v in range(n)]


def test_bitset_layout_is_little_endian_words():
    # column j is bit j % 64 of word j // 64; columns from n up are set
    n = 130
    ball = graphs._unit_balls(n)
    expected = np.zeros((n, 3), dtype=np.uint64)
    for i in range(n):
        expected[i, i // 64] |= np.uint64(1) << np.uint64(i % 64)
    expected[:, 2] |= ~((np.uint64(1) << np.uint64(n - 128)) - np.uint64(1))
    assert ball.dtype == np.dtype("<u8")
    assert np.array_equal(ball, expected)
    assert ball[64, 0] == 0 and ball[64, 1] == np.uint64(1)
    bits = np.unpackbits(ball.view(np.uint8), axis=1, count=n, bitorder="little")
    assert np.array_equal(bits, np.eye(n, dtype=np.uint8))


def fill_peak(g) -> int:
    tracemalloc.start()
    try:
        g.distances
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["hypercube:10", "complete:1024"])
def test_bitset_fill_memory_is_a_few_tables(name):
    g = graph_from_name(name)
    n, indptr, indices = g.vertex_count, *g.csr
    assert graphs._bitset_fill_pays(n, len(indices), g._ecc0)
    peak = fill_peak(g)
    dist = g.distances
    assert peak < 2 * dist.nbytes  # the int16 table is 2 MB
    v = np.arange(n)
    if name.startswith("hypercube"):
        xor = v[:, None] ^ v[None, :]
        expected = sum((xor >> bit) & 1 for bit in range(10))
    else:
        expected = 1 - np.eye(n, dtype=int)
    assert np.array_equal(dist, expected)


@pytest.mark.parametrize("at_clique", [True, False])
def test_clique_with_a_long_path_keeps_the_search_per_source(at_clique, monkeypatch):
    from scipy.sparse import csgraph

    # K_30 with a 300-edge path from vertex 29: the bitset fill would
    # take 301 levels of or-ing 6 words per arc and unpacking the table
    clique = [(u, v) for u in range(30) for v in range(u + 1, 30)]
    edges = clique + [(29 + i, 30 + i) for i in range(300)]
    if not at_clique:  # vertex 0 at the far end of the path
        edges = [(329 - u, 329 - v) for u, v in edges]
    g = graph_from_edges(edges)
    assert g._ecc0 == 301
    assert not graphs._bitset_fill_pays(g.vertex_count, len(g.csr[1]), g._ecc0)
    searched = []
    original = csgraph.shortest_path
    monkeypatch.setattr(csgraph, "shortest_path", lambda *a, **k: searched.append(1) or original(*a, **k))
    assert g.distances.tolist() == [reference_bfs(g.adjacency, v) for v in range(g.vertex_count)]
    assert searched
