import pytest

from drgjacobi import certify_distance_regular, graph_from_name

# Every distance-regular graph the suite certifies and cross-checks.
CORPUS_NAMES = (
    [f"complete:{n}" for n in range(2, 9)]
    + [f"cycle:{n}" for n in range(4, 10)]
    + ["petersen", "hypercube:3", "complete_bipartite:3"]
)


@pytest.fixture(scope="session")
def corpus():
    """List of (name, graph, certified sequence) for all corpus DRGs."""
    out = []
    for name in CORPUS_NAMES:
        g = graph_from_name(name)
        out.append((name, g, certify_distance_regular(g)))
    return out


@pytest.fixture(params=CORPUS_NAMES)
def corpus_entry(request, corpus):
    for name, g, seq in corpus:
        if name == request.param:
            return name, g, seq
    raise AssertionError("unreachable")


@pytest.fixture(params=CORPUS_NAMES + ["hypercube:4", "cycle:12", "complete_bipartite:5"])
def tamper_entry(request):
    """(graph, certified sequence, dense adjacency) for the corpus and three larger graphs."""
    from drgjacobi.oracle import dense_adjacency

    g = graph_from_name(request.param)
    return g, certify_distance_regular(g), dense_adjacency(g)
