import random
import tracemalloc
from collections import Counter
from itertools import combinations, count

import numpy as np
import pytest

from drgjacobi import (
    Graph,
    GraphError,
    MalformedLineError,
    NotConnectedError,
    SelfLoopError,
    graph_from_edges,
    graph_from_name,
    parse_edge_list,
)
from drgjacobi.graphs import BUILTIN_GRAPHS, MAX_BUILTIN_EDGES, MAX_BUILTIN_VERTICES
from references import CLOSED_FORMS, csr_of, degree_k, isoscycle_count, reference_bfs


def kneser_petersen_text():
    """Independent Petersen construction: 2-subsets of {0..4}, disjointness."""
    subsets = list(combinations(range(5), 2))
    lines = []
    for i, s in enumerate(subsets):
        for j, t in enumerate(subsets):
            if i < j and not set(s) & set(t):
                lines.append(f"{i} {j}")
    return "\n".join(lines)


def test_parse_triangle():
    g = parse_edge_list("0 1\n1 2\n2 0")
    assert g.vertex_count == 3
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))


def test_parse_comments_blanks_and_duplicates():
    g = parse_edge_list("# a triangle\n\n0 1\n1 2\n 2 0 \n0 1\n")
    assert g.vertex_count == 3
    assert all(g.degree(v) == 2 for v in range(3))


@pytest.mark.parametrize("text,line_no", [("0 1\n2", 2), ("0 x", 1), ("0 1\n\n1 2 3", 3), ("0 -1", 1)])
def test_parse_malformed(text, line_no):
    with pytest.raises(MalformedLineError) as err:
        parse_edge_list(text)
    assert err.value.line_no == line_no


def test_parse_self_loop():
    with pytest.raises(SelfLoopError) as err:
        parse_edge_list("0 1\n1 1")
    assert err.value.vertex == 1


def test_parse_not_connected():
    with pytest.raises(NotConnectedError) as err:
        parse_edge_list("0 1\n2 3")
    assert err.value.component == (0, 1)


def test_not_connected_message_lists_the_sorted_component():
    for build in (lambda: Graph(*csr_of(((2,), (3,), (0,), (1,)))), lambda: graph_from_edges([(0, 2), (3, 1)])):
        with pytest.raises(NotConnectedError) as err:
            build()
        assert err.value.component == (0, 2)
        assert str(err.value) == "graph is not connected; one component is [0, 2]"


def test_parse_kneser_petersen():
    g = parse_edge_list(kneser_petersen_text())
    assert g.vertex_count == 10
    assert all(g.degree(v) == 3 for v in range(10))
    assert int(g.distances.max()) == 2


def reference_component_of_zero(adjacency):
    """Vertex 0's component by the reference BFS, sorted."""
    return tuple(v for v, d in enumerate(reference_bfs(adjacency, 0)) if d >= 0)


def assert_component_matches_reference(n, edges):
    """Check both callers' NotConnectedError on a graph of n vertices; False if it is connected."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in nbrs)
    expected = reference_component_of_zero(adjacency)
    if len(expected) == n:
        return False
    # both callers: Graph itself, and graph_from_edges, which refuses
    # sparse edge lists before building the adjacency; it reads the
    # vertex count off the edges, so it gets only lists that reach n - 1
    builds = [lambda: Graph(*csr_of(adjacency))]
    if any(n - 1 in edge for edge in edges):
        builds.append(lambda: graph_from_edges(edges))
    for build in builds:
        with pytest.raises(NotConnectedError) as err:
            build()
        assert err.value.component == expected
    return True


def test_not_connected_component_matches_reference_bfs():
    rng = random.Random(20261018)
    checked = 0
    while checked < 300:
        n = rng.randint(2, 40)
        p = rng.choice([0.02, 0.05, 0.1, 0.2])
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        checked += assert_component_matches_reference(n, edges)
    # dense ones: two disjoint cliques, and a clique beside K_{m,m}, with
    # vertex 0 in either part; the search reaches its part in one or two levels
    for n in (50, 101, 180, 300):
        k = rng.randint(n // 4, n // 2)
        m = (n - k) // 2
        clique = list(combinations(range(k), 2))
        shapes = [
            (n, clique + list(combinations(range(k, n), 2))),
            (k + 2 * m, clique + [(k + u, k + m + v) for u in range(m) for v in range(m)]),
        ]
        for size, edges in shapes:
            for shift in (0, k, rng.randrange(size)):  # vertex 0 is old vertex shift
                shifted = [((u - shift) % size, (v - shift) % size) for u, v in edges]
                assert assert_component_matches_reference(size, shifted)


def dense_random_edges(rng):
    """Edges of a relabelled dense graph: G(n, p) with p >= 0.3, or a clique with a path attached."""
    n = rng.randint(30, 300)
    if rng.random() < 0.5:
        p = rng.choice([0.3, 0.6, 0.9])
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    else:
        clique = rng.randint(20, n - 1)
        edges = list(combinations(range(clique), 2)) + [(v, v + 1) for v in range(clique - 1, n - 1)]
    perm = rng.sample(range(n), n)
    return [(perm[u], perm[v]) for u, v in edges]


def test_row_0_matches_reference_bfs(corpus):
    rng = random.Random(20261020)
    graphs = [g for _, g, _ in corpus] + [graph_from_edges(dense_random_edges(rng)) for _ in range(40)]
    for g in graphs:
        assert g._row0.tolist() == reference_bfs(g.adjacency, 0)


def test_isolated_vertex_rejected():
    with pytest.raises(NotConnectedError):
        Graph(*csr_of(((1,), (0,), ())))
    with pytest.raises(NotConnectedError):
        graph_from_edges([(0, 2)])  # vertex 1 is never named


@pytest.mark.parametrize(
    "indptr, indices, message",
    [
        ([0, 1, 2], [1.0, 0.0], "indptr and indices must be one-dimensional integer arrays"),
        ([0, 1, 2], ["1", "0"], "indptr and indices must be one-dimensional integer arrays"),
        ([0, 1, 2], [[1], [0]], "indptr and indices must be one-dimensional integer arrays"),
        ([[0, 1, 2]], [1, 0], "indptr and indices must be one-dimensional integer arrays"),
        ([0, 1, 2], [10**30, 0], "indptr and indices must be one-dimensional integer arrays"),
        ([0, 1], np.zeros(0, dtype=int), "a graph needs at least two vertices"),
        ([1, 1, 2], [1, 0], "indptr must rise from 0 to len(indices) = 2"),
        ([0, 2, 1], [1, 0], "indptr must rise from 0 to len(indices) = 2"),
        ([0, 1, 1], [1, 0], "indptr must rise from 0 to len(indices) = 2"),
        # past int64, and the first offence in row-major order
        ([0, 1, 2], np.array([2**63, 0], dtype=np.uint64), f"neighbor {2**63} of 0 out of range"),
        ([0, 2, 3, 4], [1, 2, 0, 5], "asymmetric edge (0, 2)"),
    ],
)
def test_malformed_arrays_are_graph_errors(indptr, indices, message):
    with pytest.raises(GraphError) as err:
        Graph(indptr, indices)
    assert type(err.value) is GraphError and str(err.value) == message


def test_integer_dtypes_are_accepted_and_copied():
    path = Graph([0, 1, 2], [1, 0])
    indices = np.array([1, 0], dtype=np.uint8)
    g = Graph(np.array([0, 1, 2], dtype=np.int16), indices)
    assert g == path and g != Graph([0, 1, 3, 4], [1, 0, 2, 1])
    indices[0] = 0  # the graph holds its own read-only int32 copies
    assert g == path and g.csr[1].dtype == np.int32 and not g.csr[1].flags.writeable


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1.0)], "vertex label 1.0 is not an integer"),
        ([(0, 1.5), (1.5, 2)], "vertex label 1.5 is not an integer"),
        ([("0", "1")], "vertex label '0' is not an integer"),
    ],
)
def test_non_integer_vertex_labels_are_graph_errors(edges, message):
    with pytest.raises(GraphError) as err:
        graph_from_edges(edges)
    assert type(err.value) is GraphError and str(err.value) == message


def test_single_vertex_rejected():
    with pytest.raises(GraphError):
        graph_from_edges([])


def test_builtin_generators():
    k4 = graph_from_name("complete:4")
    assert k4.vertex_count == 4 and all(k4.degree(v) == 3 for v in range(4))
    c6 = graph_from_name("cycle:6")
    assert c6.vertex_count == 6 and all(c6.degree(v) == 2 for v in range(6))
    q3 = graph_from_name("hypercube:3")
    assert q3.vertex_count == 8 and all(q3.degree(v) == 3 for v in range(8))
    assert int(q3.distances.max()) == 3
    k33 = graph_from_name("complete_bipartite:3")
    assert k33.vertex_count == 6 and all(k33.degree(v) == 3 for v in range(6))
    assert int(k33.distances.max()) == 2


def test_builtin_petersen_matches_kneser_construction():
    builtin = graph_from_name("petersen")
    kneser = parse_edge_list(kneser_petersen_text())
    for g in (builtin, kneser):
        assert g.vertex_count == 10
        assert sorted(g.degree(v) for v in range(10)) == [3] * 10
        assert int(g.distances.max()) == 2
        profile = sorted(g.distances[0].tolist())
        assert profile == [0] + [1] * 3 + [2] * 6


# Edge rules for the builtins: a reference, built through graph_from_edges,
# for the closed-form neighbour rules that graph_from_name uses.
EDGE_RULES = {
    "complete": lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)],
    "cycle": lambda n: [(i, (i + 1) % n) for i in range(n)],
    "hypercube": lambda d: [
        (v, v ^ (1 << bit)) for v in range(1 << d) for bit in range(d) if v ^ (1 << bit) > v
    ],
    "complete_bipartite": lambda n: [(i, n + j) for i in range(n) for j in range(n)],
}
PETERSEN_EDGES = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)


def test_builtins_match_their_edge_rules():
    ranges = {
        "cycle": range(3, 65),
        "complete": range(2, 65),
        "hypercube": range(1, 11),
        "complete_bipartite": range(1, 33),
    }
    for base, params in ranges.items():
        for k in params:
            expected = graph_from_edges(EDGE_RULES[base](k)).adjacency
            assert graph_from_name(f"{base}:{k}").adjacency == expected, (base, k)
    assert graph_from_name("petersen").adjacency == graph_from_edges(PETERSEN_EDGES).adjacency


# Each family's sizes: the first ten parameters, and the largest admitted.
BUILTIN_SIZES = {
    "complete": [*range(2, 12), 1024],
    "cycle": [*range(3, 13), 4096],
    "hypercube": [*range(1, 13)],
    "complete_bipartite": [*range(1, 11), 724],
}


def test_builtin_csr_arrays_equal_the_tuple_closed_forms():
    cases = [(f"{base}:{k}", CLOSED_FORMS[base](k)) for base, sizes in BUILTIN_SIZES.items() for k in sizes]
    for name, adjacency in cases + [("petersen", CLOSED_FORMS["petersen"]())]:
        indptr, indices = graph_from_name(name).csr
        expected_indptr, expected_indices = csr_of(adjacency)
        assert indptr.tolist() == expected_indptr.tolist(), name
        assert indices.tolist() == expected_indices.tolist(), name


@pytest.mark.parametrize(
    "name", ["complete:1", "cycle:2", "hypercube:0", "unknown:3", "petersen:5", "complete", "cycle:x"]
)
def test_builtin_bad_names(name):
    with pytest.raises(GraphError):
        graph_from_name(name)


def test_bfs_distances_k3_and_c6():
    assert graph_from_name("complete:3").distances[0].tolist() == [0, 1, 1]
    assert graph_from_name("cycle:6").distances[0].tolist() == [0, 1, 2, 3, 2, 1]


def test_bfs_distances_petersen_profile():
    g = graph_from_name("petersen")
    for v in range(10):
        assert sorted(g.distances[v].tolist()) == [0, 1, 1, 1, 2, 2, 2, 2, 2, 2]


def test_distance_matrix_zero_is_identity(corpus_entry):
    _, g, _ = corpus_entry
    m = g.distances == 0
    assert m.dtype == bool
    assert np.array_equal(m, np.eye(g.vertex_count, dtype=bool))


def test_distance_matrix_c6_antipodes():
    m = graph_from_name("cycle:6").distances == 3
    assert all(np.flatnonzero(m[v]).tolist() == [(v + 3) % 6] for v in range(6))


def test_distance_matrix_petersen_k2_row_sums():
    m = graph_from_name("petersen").distances == 2
    assert m.sum(axis=1).tolist() == [6] * 10


def test_distance_matrix_beyond_diameter_is_zero(corpus_entry):
    _, g, _ = corpus_entry
    m = g.distances == int(g.distances.max()) + 1
    assert m.shape == (g.vertex_count, g.vertex_count) and not m.any()


def test_distance_matrices_partition_all_pairs(corpus_entry):
    _, g, _ = corpus_entry
    n = g.vertex_count
    cover = np.stack([g.distances == k for k in range(int(g.distances.max()) + 1)])
    assert cover.shape[1:] == (n, n)
    assert (cover.sum(axis=0) == 1).all()  # each (i, j) in exactly one class
    for m in cover:
        assert np.array_equal(m, m.T)  # symmetry


def test_row_sums_equal_degree_k(corpus_entry):
    _, g, _ = corpus_entry
    for k in range(int(g.distances.max()) + 2):
        row_sums = (g.distances == k).sum(axis=1)
        for v in range(g.vertex_count):
            assert row_sums[v] == degree_k(g, v, k)


def test_degree_k_sums_to_vertex_count(corpus_entry):
    _, g, _ = corpus_entry
    d = int(g.distances.max())
    for v in range(g.vertex_count):
        assert sum(degree_k(g, v, k) for k in range(d + 1)) == g.vertex_count


def test_degree_k_examples():
    for n in (2, 5, 9):
        g = graph_from_name(f"complete:{n}")
        assert all(degree_k(g, v, 1) == n - 1 for v in range(n))
        assert all(degree_k(g, v, 0) == 1 for v in range(n))
    g = graph_from_name("petersen")
    assert all(degree_k(g, v, 2) == 6 for v in range(10))


def test_isoscycle_count_examples():
    k4 = graph_from_name("complete:4")
    assert all(isoscycle_count(k4, v, 1) == 3 for v in range(4))
    c6 = graph_from_name("cycle:6")
    assert all(isoscycle_count(c6, v, 1) == 0 for v in range(6))
    # trees carry no isoscycles at any distance
    path = parse_edge_list("0 1\n1 2\n2 3")
    star = parse_edge_list("0 1\n0 2\n0 3\n0 4")
    for tree in (path, star):
        for v in range(tree.vertex_count):
            for k in range(int(tree.distances.max()) + 2):
                assert isoscycle_count(tree, v, k) == 0


def test_isoscycle_count_integral_on_corpus(corpus_entry):
    _, g, _ = corpus_entry
    for v in range(g.vertex_count):
        for k in range(int(g.distances.max()) + 1):
            assert isoscycle_count(g, v, k) >= 0  # asserts that the pair count is even


def test_diameter_examples():
    assert int(graph_from_name("complete:7").distances.max()) == 1
    assert int(graph_from_name("cycle:6").distances.max()) == 3
    assert int(graph_from_name("petersen").distances.max()) == 2


def reference_structure_error(adjacency):
    """The per-entry validation loop the array check replaced: (type, message) or None."""
    n = len(adjacency)
    for i, nbrs in enumerate(adjacency):
        prev = -1
        for j in nbrs:
            if j == i:
                return SelfLoopError, f"self-loop at vertex {i}"
            if not 0 <= j < n:
                return GraphError, f"neighbor {j} of {i} out of range"
            if j <= prev:
                return GraphError, f"adjacency[{i}] not strictly increasing"
            prev = j
            if i not in adjacency[j]:
                return GraphError, f"asymmetric edge ({i}, {j})"
    return None


def test_validation_reports_the_first_offending_entry():
    rng = random.Random(20261018)
    raised = Counter()
    for _ in range(3000):
        n = rng.randint(2, 9)
        rows = [sorted(rng.sample(range(n), rng.randint(0, n - 1))) for _ in range(n)]
        for _ in range(rng.randint(0, 2)):  # a self-loop, a stray index, a swap or a repeat
            row = rows[rng.randrange(n)]
            kind = rng.randrange(4)
            if kind == 0:
                row.insert(rng.randint(0, len(row)), rows.index(row))
            elif kind == 1:
                row.insert(rng.randint(0, len(row)), rng.choice([-1, n, n + 5]))
            elif kind == 3 and row:
                k = rng.randrange(len(row))
                row.insert(k, row[k])
            elif len(row) > 1:
                k = rng.randrange(len(row) - 1)
                row[k], row[k + 1] = row[k + 1], row[k]
        adjacency = tuple(map(tuple, rows))
        expected = reference_structure_error(adjacency)
        try:
            Graph(*csr_of(adjacency))
        except NotConnectedError:
            assert expected is None
        except GraphError as exc:
            assert (type(exc), str(exc)) == expected
            raised[str(exc).split()[0]] += 1
        else:
            assert expected is None
    # loops, stray indices, unsorted or repeated entries and asymmetric edges
    assert {key.split("[")[0] for key in raised} == {"self-loop", "neighbor", "adjacency", "asymmetric"}
    assert sum(raised.values()) > 1000


def test_repr_counts_edges():
    assert repr(graph_from_name("petersen")) == "Graph(vertices=10, edges=15)"
    assert repr(graph_from_name("complete:6")) == "Graph(vertices=6, edges=15)"
    assert repr(graph_from_name("cycle:4")) == "Graph(vertices=4, edges=4)"


def test_degree_refuses_a_vertex_out_of_range():
    g = graph_from_name("petersen")
    assert [g.degree(v) for v in range(10)] == [3] * 10
    for v in (-1, -30, 10, 11):
        with pytest.raises(GraphError) as err:
            g.degree(v)
        assert type(err.value) is GraphError and str(err.value) == f"no vertex {v}: the vertices are 0..9"


def test_csr_matches_adjacency():
    g = graph_from_name("petersen")
    indptr, indices = g.csr
    assert indptr.dtype == indices.dtype == np.int32
    assert not indptr.flags.writeable and not indices.flags.writeable
    assert [tuple(indices[indptr[i] : indptr[i + 1]]) for i in range(10)] == list(g.adjacency)


@pytest.mark.parametrize(
    "kind, arg",
    [
        ("text", "0 1\n1 99999999\n"),
        ("edges", 10**9),
        ("name", "complete:100000"),
        ("name", "hypercube:40"),
        ("name", f"hypercube:{10**9}"),
        ("name", f"cycle:{MAX_BUILTIN_VERTICES + 1}"),
        ("name", f"complete_bipartite:{MAX_BUILTIN_VERTICES // 2 + 1}"),
        ("name", "hypercube:13"),
        ("name", "complete:1025"),
        ("name", "complete_bipartite:725"),
    ],
)
def test_oversized_input_fails_before_allocating(kind, arg):
    build = {
        "text": parse_edge_list,
        "edges": lambda count: graph_from_edges([(0, 1), (1, count - 1)]),
        "name": graph_from_name,
    }[kind]
    tracemalloc.start()
    try:
        with pytest.raises(GraphError) as err:
            build(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    if kind != "name":  # a path on 3 of the vertices
        assert err.value.component == ((0, 1, 99999999) if kind == "text" else (0, 1, arg - 1))


def path_text(n):
    return "".join(f"{v} {v + 1}\n" for v in range(n - 1))


def parse_peak(text):
    """tracemalloc peak of parse_edge_list(text), and the GraphError it raised, if any."""
    tracemalloc.start()
    try:
        parse_edge_list(text)
        error = None
    except GraphError as exc:
        error = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, error


def test_edge_lists_take_the_builtin_vertex_cap_before_allocating_per_vertex():
    admitted, error = parse_peak(path_text(MAX_BUILTIN_VERTICES))
    assert error is None
    refused, error = parse_peak(path_text(MAX_BUILTIN_VERTICES + 1))
    cap = MAX_BUILTIN_VERTICES
    assert str(error) == f"an edge list may name at most {cap} vertices, got {cap + 1}"
    # no n sets, adjacency tuples or validation arrays: those take most of the admitted peak
    assert refused < admitted / 2
    # 50,000 vertices would ask for a 10 GB int32 table
    assert str(parse_peak(path_text(50_000))[1]).endswith("got 50000")


def test_edge_lists_stop_at_the_first_edge_past_the_cap(monkeypatch):
    from drgjacobi import graphs

    monkeypatch.setattr(graphs, "MAX_BUILTIN_EDGES", 8)
    assert parse_edge_list(path_text(9)).vertex_count == 9
    message = "an edge list may hold at most 8 edges"
    # the malformed tenth line is never parsed
    with pytest.raises(GraphError, match=message):
        parse_edge_list(path_text(10) + "oops\n")
    consumed = []

    def endless_path():
        for v in count():
            consumed.append(v)
            yield v, v + 1

    with pytest.raises(GraphError, match=message):
        graph_from_edges(endless_path())
    assert len(consumed) == 9


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1), (2, 2), (1, -1)],
        [(0, 1), (1, -1), (2, 2)],
        [(v, v + 1) for v in range(9)],
        [(v, v + 1) for v in range(8)] + [(3, 3)],
    ],
)
def test_edge_arrays_raise_as_the_same_pairs_do(edges, monkeypatch):
    from drgjacobi import graphs

    monkeypatch.setattr(graphs, "MAX_BUILTIN_EDGES", 8)
    errors = []
    for given in (edges, np.array(edges)):
        with pytest.raises(GraphError) as err:
            graph_from_edges(given)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]


# The line ends of str.splitlines, and "\r\n".
LINE_ENDS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("end", LINE_ENDS, ids=repr)
def test_blank_edge_lists_are_split_in_bounded_memory(end):
    from drgjacobi import graphs

    text = end * ((2 << 20) // len(end))  # 2 Mi characters
    tracemalloc.start()
    try:
        assert sum(1 for _ in graphs._lines(text)) == len(text) // len(end)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20  # a list of all 2 Mi lines takes 16 MB
    if end == "\n":  # and the whole parse, which is 30x slower under tracemalloc
        peak, error = parse_peak(text)
        assert str(error) == "a graph needs at least two vertices"
        assert peak < 2 << 20


@pytest.mark.parametrize("line", [*LINE_ENDS, "  \t\r\n", "# a comment\n", "\t# ü\r\n"], ids=repr)
def test_edge_lists_without_a_label_are_refused_before_the_line_loop(line, monkeypatch):
    from drgjacobi import graphs

    def line_loop(text):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr(graphs, "_line_edges", line_loop)
    text = line * ((2 << 20) // len(line))  # 2 Mi characters
    with pytest.raises(GraphError) as err:
        parse_edge_list(text)
    assert type(err.value) is GraphError and str(err.value) == "a graph needs at least two vertices"


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_chunked_lines_match_splitlines(chunk, monkeypatch):
    from drgjacobi import graphs

    monkeypatch.setattr(graphs, "LINE_CHUNK_CHARS", chunk)
    rng = random.Random(chunk)
    for _ in range(500):
        # each line is one of these, so only "x" is malformed
        contents = (rng.choice(["0 1", "# 2 3", " ", "", "x"]) for _ in range(rng.randint(0, 20)))
        text = "".join(line + rng.choice(LINE_ENDS) for line in contents)
        if rng.random() < 0.5:  # no line end after the last line
            text = text.rstrip("".join(LINE_ENDS))
        lines = text.splitlines()
        assert list(graphs._lines(text)) == lines
        bad = next((i for i, line in enumerate(lines, 1) if line == "x"), None)
        if bad is not None:
            with pytest.raises(MalformedLineError) as err:
                parse_edge_list(text)
            assert (err.value.line_no, err.value.line) == (bad, "x")
    # the first chunk's search meets the "\r" of a "\r\n", whose "\n" ends the chunk
    text = "0 1\r\n1 2\r\nx\r\n"
    assert list(graphs._lines(text)) == ["0 1", "1 2", "x"]
    with pytest.raises(MalformedLineError, match="line 3"):
        parse_edge_list(text)


@pytest.mark.parametrize("name", ["complete:1024", "complete_bipartite:724"])
def test_builtin_construction_memory_at_the_edge_cap(name):
    # measured at 17.9 MB for both, about 34 bytes per edge; adjacency
    # tuples beside the arrays took 68 and 70 MB
    tracemalloc.start()
    try:
        graph_from_name(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20


def test_builtin_cap_admits_the_ladder():
    assert MAX_BUILTIN_VERTICES >= 4096
    assert BUILTIN_GRAPHS["hypercube"][2] == 12  # hypercube:12 has 4096 vertices
    assert BUILTIN_GRAPHS["cycle"][2] == 4096


def test_builtin_largest_parameters_follow_both_caps():
    # (vertices, edges) of each builtin, as closed forms: nothing is built
    sizes = {
        "complete": lambda n: (n, n * (n - 1) // 2),
        "cycle": lambda n: (n, n),
        "hypercube": lambda d: (1 << d, d << (d - 1)),
        "complete_bipartite": lambda n: (2 * n, n * n),
    }
    largest = {}
    for base, size in sizes.items():
        top = BUILTIN_GRAPHS[base][2]
        vertices, edges = size(top)
        assert vertices <= MAX_BUILTIN_VERTICES and edges <= MAX_BUILTIN_EDGES
        vertices, edges = size(top + 1)
        assert vertices > MAX_BUILTIN_VERTICES or edges > MAX_BUILTIN_EDGES
        largest[base] = top
    assert largest == {"complete": 1024, "cycle": 4096, "hypercube": 12, "complete_bipartite": 724}
