"""networkx as a third-party oracle for certification.

networkx computes intersection arrays with its own code, so agreement
here is a check by independent code. Skipped when networkx is absent.
"""

import pytest

from drgjacobi import (
    NonRegularityWitness,
    certify_distance_regular,
    graph_from_edges,
    graph_from_name,
)

nx = pytest.importorskip("networkx")

NAMED = {
    "heawood": nx.heawood_graph,
    "desargues": nx.desargues_graph,
    "dodecahedral": nx.dodecahedral_graph,
    "pappus": nx.pappus_graph,
    "petersen": nx.petersen_graph,
}

# Each builtin, as networkx builds it, with integer vertex labels.
BUILTINS = {
    "complete": nx.complete_graph,
    "cycle": nx.cycle_graph,
    "hypercube": lambda d: nx.convert_node_labels_to_integers(nx.hypercube_graph(d)),
    "complete_bipartite": lambda n: nx.complete_bipartite_graph(n, n),
}
# networkx gives up once the diameter exceeds 8 log2(n) / 3, a bound for
# valency 3 and up, so it calls cycles of 26 or more vertices not
# distance-regular: the cycles stop below that.
BUILTIN_SIZES = {
    "complete": (2, 3, 7, 16),
    "cycle": (3, 4, 9, 25),
    "hypercube": (1, 2, 4, 6),
    "complete_bipartite": (1, 2, 5, 12),
}


def nx_array(seq):
    """The sequence in networkx's (b_0..b_{d-1}, c_1..c_d) form."""
    return list(seq.b), list(seq.a)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_graphs_match_networkx(name):
    G = NAMED[name]()
    seq = certify_distance_regular(graph_from_edges(G.edges()))
    assert nx_array(seq) == nx.intersection_array(G)


@pytest.mark.parametrize(
    "base, k", [(base, k) for base, sizes in BUILTIN_SIZES.items() for k in sizes]
)
def test_builtins_match_networkx(base, k):
    G = BUILTINS[base](k)
    expected = nx.intersection_array(G)
    assert nx_array(certify_distance_regular(graph_from_edges(G.edges()))) == expected
    assert nx_array(certify_distance_regular(graph_from_name(f"{base}:{k}"))) == expected


def non_drg_candidates():
    yield pytest.param(nx.LCF_graph(16, [5, -5], 8), id="moebius_kantor")
    for seed in range(12):
        for degree, n in ((3, 12), (3, 20), (4, 14)):
            G = nx.random_regular_graph(degree, n, seed=seed)
            yield pytest.param(G, id=f"random_regular:{degree},{n},seed{seed}")


@pytest.mark.parametrize("G", non_drg_candidates())
def test_witness_exactly_when_networkx_says_not_distance_regular(G):
    if not nx.is_connected(G):
        pytest.skip("disconnected: refused at construction, not certified")
    g = graph_from_edges(G.edges())
    outcome = certify_distance_regular(g)
    is_witness = isinstance(outcome, NonRegularityWitness)
    assert is_witness == (not nx.is_distance_regular(G))
    if is_witness:
        assert outcome.recount(g) == (outcome.first_count, outcome.second_count)
    else:
        assert nx_array(outcome) == nx.intersection_array(G)


def random_regular_graphs():
    for seed, (degree, n) in enumerate((d, n) for d in (3, 4, 8) for n in (16, 24, 32, 48, 64, 96)):
        G = nx.random_regular_graph(degree, n, seed=seed)
        if nx.is_connected(G):
            yield G


def test_distances_match_networkx_on_both_sides_of_the_fill_rule(monkeypatch):
    from drgjacobi import graphs

    rule = graphs._bitset_fill_pays
    sides = set()
    for G in random_regular_graphs():
        n = G.number_of_nodes()
        expected = [[d for _, d in sorted(row.items())] for _, row in sorted(nx.all_pairs_shortest_path_length(G))]
        g = graph_from_edges(G.edges())
        sides.add(rule(n, len(g.csr[1]), g._ecc0))
        assert g.distances.tolist() == expected
        for taken in (True, False):  # and each graph by the other route too
            monkeypatch.setattr(graphs, "_bitset_fill_pays", lambda *args: taken)
            assert graphs.Graph(*g.csr).distances.tolist() == expected
        monkeypatch.setattr(graphs, "_bitset_fill_pays", rule)
    assert sides == {True, False}
