import json
import math

import numpy as np
import pytest

from drgjacobi import (
    graph_from_edges,
    graph_from_name,
    sequence_from_pairs,
    spectral_measure,
)
from drgjacobi import oracle
from drgjacobi.oracle import (
    BasisMismatchError,
    DenseSizeError,
    OracleError,
    checked_distances,
    dense_adjacency,
    dense_symmetric_eigen,
    matrix_poly_firstkind,
)
from references import distance_poly_eval, reference_bfs


def distance_matrices(g):
    """A_0 .. A_diam as 0/1 integer matrices, read off the checked table."""
    dist = checked_distances(g)
    return [(dist == k).astype(np.int64) for k in range(int(dist.max()) + 1)]


def test_dense_distance_matrices_k3():
    dist = checked_distances(graph_from_name("complete:3"))
    assert int(dist.max()) == 1
    assert np.array_equal(dist == 0, np.eye(3, dtype=bool))
    assert np.array_equal(dist == 1, ~np.eye(3, dtype=bool))


def test_dense_distance_matrices_row_sums():
    c6 = distance_matrices(graph_from_name("cycle:6"))
    assert [int(m.sum(axis=1)[0]) for m in c6] == [1, 2, 2, 1]
    petersen = distance_matrices(graph_from_name("petersen"))
    assert [int(m.sum(axis=1)[0]) for m in petersen] == [1, 3, 6]


def test_dense_distance_matrices_partition(corpus_entry):
    _, g, _ = corpus_entry
    mats = distance_matrices(g)
    assert np.array_equal(sum(mats), np.ones_like(mats[0]))
    for m in mats:
        assert np.array_equal(m, m.T)


def test_distance_rows_orthogonal(corpus_entry):
    _, g, _ = corpus_entry
    mats = distance_matrices(g)
    for k, mk in enumerate(mats):
        for r in range(k + 1, len(mats)):
            assert int((mk * mats[r]).sum()) == 0  # <A_k e_i, A_r e_i> = 0


def trace_bound(m):
    """dense_symmetric_eigen's bound on sum(theta) = tr M: 8 n eps max_i sum_j |M_ij|."""
    return 8 * len(m) * np.finfo(float).eps * np.abs(m).sum(axis=1).max()


def assert_matches_eigh(m):
    dec = dense_symmetric_eigen(m)
    assert np.abs(dec.eigenvalues - np.linalg.eigh(m)[0]).max() <= trace_bound(m)
    return dec


def test_dense_eigen_identity():
    dec = assert_matches_eigh(np.eye(3))
    assert dec.clusters == ((1.0, 3),)


def test_dense_adjacency_is_float64():
    g = graph_from_name("petersen")
    adj = dense_adjacency(g)
    assert adj.dtype == np.float64
    assert np.array_equal(adj, checked_distances(g) == 1)


def test_dense_eigen_petersen():
    dec = dense_symmetric_eigen(dense_adjacency(graph_from_name("petersen")).astype(float))
    assert [m for _, m in dec.clusters] == [4, 5, 1]
    assert [v for v, _ in dec.clusters] == pytest.approx([-2.0, 1.0, 3.0], abs=1e-10)


def test_dense_eigen_complete4():
    dec = dense_symmetric_eigen(dense_adjacency(graph_from_name("complete:4")).astype(float))
    assert dec.clusters[0][0] == pytest.approx(-1.0, abs=1e-12)
    assert dec.clusters[0][1] == 3
    assert dec.clusters[1][0] == pytest.approx(3.0, abs=1e-12)
    assert dec.clusters[1][1] == 1


def test_dense_eigen_matches_eigh(corpus_entry):
    _, g, _ = corpus_entry
    assert_matches_eigh(dense_adjacency(g))


@pytest.mark.parametrize("scale", [1e6, 1e-6])
def test_dense_eigen_scales_with_the_matrix(scale):
    # the bound scales with M, so large and small entries pass alike
    dec = assert_matches_eigh(dense_adjacency(graph_from_name("petersen")) * scale)
    assert [m for _, m in dec.clusters] == [4, 5, 1]
    assert [v for v, _ in dec.clusters] == pytest.approx([-2 * scale, scale, 3 * scale], rel=1e-12)


@pytest.mark.parametrize("name, clusters", [
    ("cycle:2000", 1001),
    ("hypercube:10", 11),
    ("complete:1000", 2),
])
def test_dense_eigen_trace_identities_hold_on_the_ladder(name, clusters):
    dec = dense_symmetric_eigen(dense_adjacency(graph_from_name(name)))
    assert len(dec.clusters) == clusters


# an infinite pair, a NaN on the diagonal, and a non-finite entry of an asymmetric matrix
NON_FINITE = [
    [[0.0, np.inf], [np.inf, 0.0]],
    [[np.nan, 1.0], [1.0, 0.0]],
    [[0.0, -np.inf], [1.0, 0.0]],
]


@pytest.mark.parametrize("m", NON_FINITE)
def test_dense_eigen_rejects_non_finite(m):
    with pytest.raises(OracleError, match="matrix entries must be finite"):
        dense_symmetric_eigen(np.array(m))


def test_dense_eigen_rejects_asymmetric():
    with pytest.raises(OracleError):
        dense_symmetric_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("skew", [1e-10, 1e-7])
def test_dense_eigen_rejects_any_asymmetry(skew):
    # within numpy's default rtol of 1e-5, and eigh would read the lower triangle alone
    with pytest.raises(OracleError, match="matrix must be symmetric"):
        dense_symmetric_eigen(np.array([[0.0, 1.0], [1.0 + skew, 0.0]]))


def test_dense_size_cap():
    with pytest.raises(DenseSizeError):
        dense_symmetric_eigen(np.zeros((2001, 2001)))


def test_oracle_agrees_with_spectral_measure(corpus_entry):
    _, g, seq = corpus_entry
    measure = spectral_measure(seq, vertex_count=g.vertex_count)
    dec = dense_symmetric_eigen(dense_adjacency(g).astype(float))
    assert len(dec.clusters) == len(measure.atoms)
    for (value, mult), atom in zip(dec.clusters, measure.atoms):
        assert abs(value - atom.eigenvalue) < 1e-7
        assert mult == atom.multiplicity


def test_matrix_poly_minimal_at_canonical(corpus_entry):
    _, g, seq = corpus_entry
    (result,) = matrix_poly_firstkind(g, seq, (float(seq.tau_star),))
    assert np.abs(result).max() < 1e-8


def test_matrix_poly_shifted_gives_normalized_top(corpus_entry):
    from drgjacobi import degree_sequence

    _, g, seq = corpus_entry
    top = (checked_distances(g) == seq.d) / math.sqrt(degree_sequence(seq)[-1])
    offsets = (1.0, -2.5)
    results = matrix_poly_firstkind(g, seq, [seq.tau_star + t for t in offsets])
    assert len(results) == len(offsets)
    for tau_offset, result in zip(offsets, results):
        assert np.abs(result - (-tau_offset) * top).max() < 1e-8


def test_matrix_poly_one_walk_equals_separate_walks(corpus_entry):
    _, g, seq = corpus_entry
    taus = (float(seq.tau_star), seq.tau_star + 1.0, -0.75)
    together = matrix_poly_firstkind(g, seq, taus)
    for tau, result in zip(taus, together):
        (alone,) = matrix_poly_firstkind(g, seq, (tau,))
        assert np.array_equal(result.view(np.int64), alone.view(np.int64))


def test_matrix_poly_petersen_tau0_magnitude():
    g = graph_from_name("petersen")
    seq = sequence_from_pairs([(1, 3), (1, 2)])
    (result,) = matrix_poly_firstkind(g, seq, (0.0,))
    assert np.abs(result).max() == pytest.approx(2 / math.sqrt(6), abs=1e-10)


def test_matrix_poly_k2_square():
    g = graph_from_name("complete:2")
    seq = sequence_from_pairs([(1, 1)])
    assert np.abs(matrix_poly_firstkind(g, seq, (0.0,))[0]).max() < 1e-12  # A^2 - I


def test_matrix_poly_basis_mismatch():
    # the first failing k and its largest |P_k(A) sqrt(deg_k) - A_k| entry, exact
    for name, pairs, entry in [
        ("petersen", [(1, 3), (2, 2)], "(0, 2) is 0.5, expected 1.0"),
        ("petersen", [(1, 3), (1, 1)], "(0, 1) is -1.0, expected 0.0"),
        ("hypercube:3", [(1, 3), (1, 2), (3, 1)], "(0, 3) is 2.0, expected 1.0"),
    ]:
        with pytest.raises(BasisMismatchError) as info:
            matrix_poly_firstkind(graph_from_name(name), sequence_from_pairs(pairs), (1.0,))
        assert str(info.value) == f"P_2(A) * sqrt(deg_2) entry {entry}"


def spectral_radius(m):
    """max |eigenvalue| of a symmetric matrix, straight from LAPACK."""
    return float(np.abs(np.linalg.eigvalsh(m.astype(float))).max())


def test_norm_bounded_by_degree(corpus_entry):
    from drgjacobi import degree_sequence

    _, g, seq = corpus_entry
    degs = degree_sequence(seq)
    for k, mat in enumerate(distance_matrices(g)):
        norm = spectral_radius(mat)
        assert norm <= degs[k] + 1e-8
        assert norm == pytest.approx(degs[k], abs=1e-8)  # equality on finite DRGs


def test_sturm_solver_agrees_with_rotation_solver(corpus_entry):
    # two unrelated algorithms, same matrices: agreement is evidence
    from drgjacobi import build_jacobi, eigenvalues

    _, _, seq = corpus_entry
    for tau in (-3.0, float(seq.tau_star), 1.7):
        J = build_jacobi(seq, tau)
        sturm = eigenvalues(J)
        dense = dense_symmetric_eigen(J.to_dense())
        assert dense.eigenvalues == pytest.approx(sturm, abs=1e-9)


def test_sturm_solver_agrees_on_tree_truncations():
    from drgjacobi import eigenvalues, tree_sequence, truncated_jacobi

    for n, m in ((2, 17), (3, 40), (4, 25)):
        J = truncated_jacobi(tree_sequence(n), m)
        sturm = eigenvalues(J)
        dense = dense_symmetric_eigen(J.to_dense())
        assert dense.eigenvalues == pytest.approx(sturm, abs=1e-8)


def test_oracle_distances_match_bfs(corpus_entry):
    _, g, _ = corpus_entry
    expected = np.array([reference_bfs(g.adjacency, v) for v in range(g.vertex_count)])
    assert np.array_equal(checked_distances(g), expected)


def tampered_tables(dist):
    """Each entry moved by +-1 (the diagonal included), and each pair of rows swapped."""
    n = len(dist)
    for i in range(n):
        for j in range(n):
            for delta in (-1, 1):
                table = dist.copy()
                table[i, j] += delta
                yield table
        for i2 in range(i + 1, n):
            table = dist.copy()
            table[[i, i2]] = table[[i2, i]]
            yield table


def assert_rejected(entry, table, monkeypatch):
    """The entry check refuses table, or the recurrence pass on it finds a mismatch."""
    g, seq, adj = entry
    monkeypatch.setitem(g.__dict__, "distances", table)
    try:
        checked_distances(g)
    except OracleError as exc:
        assert str(exc).startswith("distance table entry")
    else:
        assert oracle.recurrence_pass(g, seq, adj)[0] is not None


def test_recurrence_pass_rejects_tampered_tables(tamper_entry, monkeypatch):
    g = tamper_entry[0]
    count = 0
    for table in tampered_tables(np.array(g.distances)):
        assert_rejected(tamper_entry, table, monkeypatch)
        count += 1
    n = g.vertex_count
    assert count == 2 * n * n + n * (n - 1) // 2


def fuzzed_tables(dist, rng):
    """Tables with up to five entries set to arbitrary values, and with shifted columns.

    The values include the dtype's extremes, values near the true distances,
    and random ones. A column shifted by a constant keeps each entry one above
    its least neighbour's, so only D_jj = 0 rejects it.
    """
    n = len(dist)
    low, high = np.iinfo(dist.dtype).min, np.iinfo(dist.dtype).max
    for _ in range(400):
        table = dist.copy()
        count = int(rng.integers(1, min(5, n * n) + 1))
        pool = [low, high, low + 1, high - 1, -1, *range(int(dist.max()) + 3)]
        pool += rng.integers(low, high, size=4, endpoint=True).tolist()
        table.flat[rng.choice(n * n, size=count, replace=False)] = rng.choice(pool, size=count)
        yield table
    for j in range(n):
        for shift in (-2, -1, 1, 2):
            table = dist.copy()
            table[:, j] += shift
            yield table


def test_recurrence_pass_rejects_multi_entry_tampering(tamper_entry, monkeypatch):
    g, seq, adj = tamper_entry
    genuine = np.array(g.distances)
    rejected = 0
    for table in fuzzed_tables(genuine, np.random.default_rng(15)):
        if np.array_equal(table, genuine):
            continue
        assert_rejected(tamper_entry, table, monkeypatch)
        rejected += 1
    assert rejected >= 300 + 4 * g.vertex_count
    monkeypatch.setitem(g.__dict__, "distances", genuine)
    assert checked_distances(g) is genuine
    assert oracle.recurrence_pass(g, seq, adj)[:2] == (None, None)


def route_outcome(entry, table, gather, monkeypatch):
    """recurrence_pass on table by the route gather names, its error as text; or the entry check's."""
    g, seq, adj = entry
    monkeypatch.setitem(g.__dict__, "distances", table)
    monkeypatch.setattr(oracle, "_gather_pays", lambda g, d: gather)
    try:
        mismatch, basis_error, residuals = oracle.recurrence_pass(g, seq, adj)
    except OracleError as exc:
        return str(exc)
    return mismatch, basis_error and str(basis_error), residuals


def test_gather_and_dense_routes_agree_on_altered_tables(tamper_entry, monkeypatch):
    # the same verdict, mismatch, basis error and residuals, so the same verify report
    g, seq, _ = tamper_entry
    genuine = np.array(g.distances)
    tables = [*tampered_tables(genuine), *fuzzed_tables(genuine, np.random.default_rng(7))]
    failed_at = set()
    for table in tables:
        gather = route_outcome(tamper_entry, table, True, monkeypatch)
        assert gather == route_outcome(tamper_entry, table, False, monkeypatch)
        if not isinstance(gather, str) and gather[0] is not None:
            failed_at.add(gather[0][0])
    assert route_outcome(tamper_entry, genuine, True, monkeypatch) == (None, None, (0.0, 0.0))
    # a failure at every k below d, with its basis error; complete:2's tables all fail the entry check
    assert failed_at == (set(range(seq.d)) if g.vertex_count > 2 else set())


@pytest.mark.parametrize("name, gather", [
    ("complete:64", False),
    ("complete_bipartite:32", False),
    ("cycle:100", True),
    ("hypercube:7", True),
])
def test_recurrence_route_follows_the_cost_rule(name, gather):
    g = graph_from_name(name)
    assert oracle._gather_pays(g, int(g.distances.max())) is gather


def test_an_irregular_graph_takes_the_dense_route():
    # a path: far above the crossover, but the gather sums one degree's codes per pair
    path = graph_from_edges([(i, i + 1) for i in range(99)])
    assert 99 * 100**2 >= oracle.GATHER_MIN_RATIO * len(path.csr[1])
    assert not oracle._gather_pays(path, 99)


def counted_products(monkeypatch):
    """The k of every dense product A A_k the recurrence pass takes, in order."""
    products, original = [], oracle._equation

    def counting(dist, adj, seq, k):
        products.append(k)
        return original(dist, adj, seq, k)

    monkeypatch.setattr(oracle, "_equation", counting)
    return products


def test_passing_verify_makes_no_dense_product_on_the_gather_route(monkeypatch, capsys):
    from drgjacobi import cli

    products = counted_products(monkeypatch)
    assert cli.main(["verify", "cycle:300"]) == 0
    capsys.readouterr()
    assert products == []


def swap_labels_2_and_9(table):
    table[[2, 9]] = table[[9, 2]]
    table[:, [2, 9]] = table[:, [9, 2]]


def set_3_17_to_5(table):
    table[3, 17] = 5


@pytest.mark.parametrize("tamper, cut, k", [
    (swap_labels_2_and_9, 0, 0),  # a relabelled cycle's table: its A_1 is not A
    (set_3_17_to_5, 0, 4),  # no neighbour of 3 is at distance 4 from 17
    (None, 1, 14),  # the genuine table, one pair short: equation d fails, and only it
], ids=["swapped_labels", "moved_entry", "short_sequence"])
def test_verify_reports_a_failure_alike_on_both_routes(tamper, cut, k, monkeypatch, capsys):
    # one dense product, at the least failing k, on the gather route; k + 1 on the dense route
    from drgjacobi import certify_distance_regular, cli

    g = graph_from_name("cycle:30")
    seq = certify_distance_regular(g)
    seq = sequence_from_pairs(list(zip(seq.a, seq.b))[: seq.d - cut])
    table = np.array(g.distances)
    if tamper:
        tamper(table)
    monkeypatch.setitem(g.__dict__, "distances", table)
    monkeypatch.setattr(cli, "load_graph", lambda source: g)
    monkeypatch.setattr(cli, "certify_distance_regular", lambda g: seq)
    products = counted_products(monkeypatch)
    outs = []
    for gather in (True, False):
        monkeypatch.setattr(oracle, "_gather_pays", lambda g, d: gather)
        assert cli.main(["verify", "cycle:30"]) == 2
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert products == [k, *range(k + 1)]
    checks = {c["name"]: c for c in json.loads(outs[0])["payload"]["reports"][0]["checks"]}
    assert checks["recurrence"]["detail"]["mismatch"][0] == k
    assert checks["basis_identity"]["pass"] == (k == seq.d)


def test_entry_check_names_the_first_bad_entry(monkeypatch):
    g = graph_from_name("petersen")
    genuine, n = np.array(g.distances), g.vertex_count
    low, high = np.iinfo(genuine.dtype).min, np.iinfo(genuine.dtype).max
    cases = [((4, 4), v) for v in (1, -1, low, high)]
    cases += [((2, 5), v) for v in (0, -1, n, low, high)]
    for (i, j), value in cases:
        table = genuine.copy()
        table[i, j] = value
        table[7, 1] = n  # a later bad entry, in row-major order
        monkeypatch.setitem(g.__dict__, "distances", table)
        want = "0" if i == j else f"in 1..{n - 1}"
        with pytest.raises(OracleError) as info:
            checked_distances(g)
        assert str(info.value) == f"distance table entry ({i}, {j}) is {value}, not {want}"
    # in range off the diagonal: the entry check passes it on to the recurrence pass
    table = genuine.copy()
    table[2, 5] = n - 1
    monkeypatch.setitem(g.__dict__, "distances", table)
    assert checked_distances(g) is table


def tampered_petersen(monkeypatch, tamper):
    """Certify petersen genuinely, then fill its table with tamper applied to row 3."""
    from drgjacobi import certify_distance_regular, cli, graphs

    seq = certify_distance_regular(graph_from_name("petersen"))
    monkeypatch.setattr(cli, "certify_distance_regular", lambda g: seq)
    original = graphs._bfs

    def tampered(adjacency, source):
        dist = original(adjacency, source)
        if source == 3:
            tamper(dist)
        return dist

    monkeypatch.setattr(graphs, "_bfs", tampered)


def test_verify_reports_a_tampered_table_as_oracle_error(monkeypatch, capsys):
    import json

    from drgjacobi import cli

    def tamper(dist):
        dist[3] = 1

    tampered_petersen(monkeypatch, tamper)
    assert cli.main(["verify", "petersen"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["payload"]["error"] == "OracleError"
    assert out["payload"]["message"] == "distance table entry (3, 3) is 1, not 0"


def test_verify_reports_an_in_range_tampered_entry_as_a_recurrence_failure(monkeypatch, capsys):
    import json

    from drgjacobi import cli

    def tamper(dist):
        dist[7] += 1

    tampered_petersen(monkeypatch, tamper)
    assert cli.main(["verify", "petersen"]) == 2
    checks = json.loads(capsys.readouterr().out)["payload"]["reports"][0]["checks"]
    details = {c["name"]: c["detail"] for c in checks if not c["pass"]}
    assert details == {
        "recurrence": {"mismatch": [1, 3, 7, 1, 0]},
        "basis_identity": "P_2(A) * sqrt(deg_2) entry (3, 7) is 1.0, expected 0.0",
        "norm_bound": "needs basis_identity",
    }


def test_verify_refuses_an_over_cap_input_before_certifying(monkeypatch, capsys):
    import json

    from drgjacobi import cli

    def certify(g):
        raise AssertionError("verify certified an input the dense oracle refuses")

    monkeypatch.setattr(cli, "certify_distance_regular", certify)
    assert cli.main(["verify", "cycle:2001"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "error"
    assert out["payload"]["error"] == "DenseSizeError"


def test_verify_computes_distances_once_per_input(monkeypatch, capsys):
    from drgjacobi import cli, oracle

    checks, passes = [], []
    original_check, original_pass = oracle.checked_distances, oracle.recurrence_pass

    def counting_check(g):
        checks.append(g.vertex_count)
        return original_check(g)

    def counting_pass(g, seq, adj):
        passes.append(g.vertex_count)
        return original_pass(g, seq, adj)

    monkeypatch.setattr(oracle, "checked_distances", counting_check)
    monkeypatch.setattr(oracle, "recurrence_pass", counting_pass)
    assert cli.main(["verify", "petersen", "cycle:6", "hypercube:3"]) == 0
    capsys.readouterr()
    # one entry-checked table and one recurrence pass, for every check it serves, per input
    assert sorted(checks) == [6, 8, 10]
    assert sorted(passes) == [6, 8, 10]


def test_verify_makes_one_neighbour_count_pass_per_input(monkeypatch, capsys):
    from drgjacobi import cli, intersection

    passes = []
    original = intersection._neighbour_codes

    def counting(g, degree):
        passes.append(g.vertex_count)
        return original(g, degree)

    monkeypatch.setattr(intersection, "_neighbour_codes", counting)
    assert cli.main(["verify", "petersen", "cycle:30", "hypercube:5"]) == 0
    capsys.readouterr()
    # certification's; the recurrence check takes the oracle's dense products or its gather instead
    assert sorted(passes) == [10, 30, 32]


def verify_peak(name, monkeypatch, capsys):
    """tracemalloc peak of verify on one builtin, its distance table filled beforehand."""
    import tracemalloc

    from drgjacobi import cli

    g = graph_from_name(name)
    g.distances  # filled beforehand: the table is the graph's, not verify's
    monkeypatch.setattr(cli, "load_graph", lambda source: g)
    tracemalloc.start()
    try:
        assert cli.main(["verify", name]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    return peak


@pytest.mark.parametrize("n", [200, 300])
def test_verify_peak_memory_is_a_few_dense_matrices(n, monkeypatch, capsys):
    # no list of the d + 1 = n/2 + 1 distance matrices: a few n x n floats at a time
    assert verify_peak(f"cycle:{n}", monkeypatch, capsys) <= 16 * n * n * 8


def test_verify_peak_memory_does_not_grow_with_diameter(monkeypatch, capsys):
    # 256 vertices each, at diameter 128 and 8
    cycle = verify_peak("cycle:256", monkeypatch, capsys)
    cube = verify_peak("hypercube:8", monkeypatch, capsys)
    assert max(cycle, cube) <= 16 * 256 * 256 * 8
    assert cycle <= 1.25 * cube


def test_verify_makes_one_dense_eigensolve_per_input(monkeypatch, capsys):
    from drgjacobi import cli

    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, len(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    assert cli.main(["verify", "petersen", "cycle:6", "hypercube:3"]) == 0
    capsys.readouterr()
    # the spectrum of A serves oracle_spectrum and every norm(A_k) of norm_bound
    assert sorted(calls) == [("eigvalsh", 6), ("eigvalsh", 8), ("eigvalsh", 10)]


def mapped_norms(g, seq):
    """max |p_k| over the dense spectrum of A, k = 0..d, as verify reads norm(A_k)."""
    from drgjacobi.intersection import _distance_polys

    values = dense_symmetric_eigen(dense_adjacency(g).astype(float)).eigenvalues
    return [float(np.abs(p).max()) for p in _distance_polys(seq, values)]


def assert_mapped_norms_match_dense_norms(g, seq):
    dist = checked_distances(g)
    norms = mapped_norms(g, seq)
    assert len(norms) == seq.d + 1
    for k, norm in enumerate(norms):
        assert norm == pytest.approx(spectral_radius(dist == k), abs=1e-8)


def test_mapped_norms_match_dense_norms_on_corpus(corpus_entry):
    _, g, seq = corpus_entry
    assert_mapped_norms_match_dense_norms(g, seq)


@pytest.mark.parametrize("name", ["cycle:300", "hypercube:8"])
def test_mapped_norms_match_dense_norms_on_ladder(name):
    from drgjacobi import certify_distance_regular

    g = graph_from_name(name)
    assert_mapped_norms_match_dense_norms(g, certify_distance_regular(g))


def test_distance_poly_walk_matches_the_exact_reference(corpus_entry):
    from drgjacobi.intersection import _distance_polys

    _, g, seq = corpus_entry
    xs = np.array([-2.5, -1.0, 0.0, 0.3, 1.0, float(seq.degree), 7.25])
    walk = list(_distance_polys(seq, xs))
    assert len(walk) == seq.d + 1
    for k, values in enumerate(walk):
        # each float x is a rational, so the reference is p_k at exactly that point
        expected = np.array([float(distance_poly_eval(seq, k, x)) for x in xs.tolist()])
        # about 450 units of rounding at scale max(1, |x|)^k: the corpus walks are at most 4 steps
        scale = np.maximum(1.0, np.abs(xs)) ** k
        assert np.all(np.abs(np.broadcast_to(values, xs.shape) - expected) <= 1e-13 * scale), k


def test_norm_bound_fails_when_the_basis_identity_does(monkeypatch, capsys):
    import json

    from drgjacobi import cli

    from test_distance_layer import reference_recurrence

    # a feasible sequence that is not petersen's: a_2 = 2 in place of 1
    g, seq = graph_from_name("petersen"), sequence_from_pairs([(1, 3), (2, 2)])
    monkeypatch.setattr(cli, "certify_distance_regular", lambda g: seq)
    assert cli.main(["verify", "petersen"]) == 2
    report = json.loads(capsys.readouterr().out)["payload"]["reports"][0]
    checks = {c["name"]: c for c in report["checks"]}
    assert [c["name"] for c in report["checks"]] == [
        "certify", "recurrence", "basis_identity", "oracle_spectrum", "norm_bound",
    ]
    assert checks["recurrence"]["detail"] == {"mismatch": list(reference_recurrence(g, seq))}
    assert not checks["recurrence"]["pass"]
    assert checks["basis_identity"] == {
        "name": "basis_identity", "pass": False,
        "detail": "P_2(A) * sqrt(deg_2) entry (0, 2) is 0.5, expected 1.0",
    }
    assert not checks["oracle_spectrum"]["pass"]  # the battery goes on
    assert checks["norm_bound"] == {
        "name": "norm_bound", "pass": False, "detail": "needs basis_identity",
    }


def test_dense_eigen_hypercube8():
    dec = dense_symmetric_eigen(dense_adjacency(graph_from_name("hypercube:8")).astype(float))
    assert [m for _, m in dec.clusters] == [math.comb(8, k) for k in range(8, -1, -1)]
    expected = [8.0 - 2 * k for k in range(8, -1, -1)]
    assert [v for v, _ in dec.clusters] == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("moves, identity", [
    ({0: 1.0}, r"sum\(theta\^1\) = tr M"),
    ({9: -1.0}, r"sum\(theta\^1\) = tr M"),
    ({0: -1.0, 9: 1.0}, r"sum\(theta\^2\) = \|\|M\|\|_F\^2"),  # the sum still holds
], ids=["lowest", "highest", "both"])
def test_dense_eigen_moved_eigenvalue_is_oracle_error(monkeypatch, moves, identity):
    m = dense_adjacency(graph_from_name("petersen"))
    original = np.linalg.eigvalsh

    def moved(a):
        values = original(a)
        for i, sign in moves.items():
            values[i] += sign * 1e-6 * np.linalg.norm(m)
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", moved)
    with pytest.raises(OracleError, match=identity + " misses by"):
        dense_symmetric_eigen(m)


def test_dense_eigen_nan_eigenvalue_is_oracle_error(monkeypatch):
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: original(a) * np.nan)
    with pytest.raises(OracleError, match="misses by nan"):
        dense_symmetric_eigen(np.diag([1.0, 2.0, 3.0]))

