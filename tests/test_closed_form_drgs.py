"""Distance-regular graphs beyond 10 vertices, against closed forms.

Each graph is built here from its own edge rule through
graph_from_edges, and every expected value is written from a closed
form, never read off the certifier: the intersection arrays of the
Hamming, Johnson and odd graphs, and their eigenvalues with
multiplicities. numpy's dense eigvalsh checks each edge rule against
its closed-form spectrum first, so a wrong rule fails on its own.
"""

from collections import Counter
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from drgjacobi import (
    IntersectionSequence,
    NonRegularityWitness,
    certify_distance_regular,
    graph_from_edges,
    spectral_measure,
    verify_recurrence,
)


def rule_graph(vertices, adjacent):
    """graph_from_edges on vertices 0..len-1, joined where adjacent(u, v)."""
    vertices = list(vertices)
    return graph_from_edges(
        (i, j) for (i, u), (j, v) in combinations(enumerate(vertices), 2) if adjacent(u, v)
    )


def hamming(dim, q):
    return rule_graph(
        product(range(q), repeat=dim), lambda u, v: sum(x != y for x, y in zip(u, v)) == 1
    )


def johnson(n, k):
    return rule_graph(map(set, combinations(range(n), k)), lambda u, v: len(u & v) == k - 1)


def odd(k):
    """O_k: the (k-1)-subsets of a (2k-1)-set, adjacent when disjoint."""
    return rule_graph(map(set, combinations(range(2 * k - 1), k - 1)), lambda u, v: not u & v)


def desargues():
    """The 2- and 3-subsets of a 5-set, adjacent when one contains the other."""
    subsets = [set(s) for r in (2, 3) for s in combinations(range(5), r)]
    return rule_graph(subsets, lambda u, v: u < v or v < u)


def z4_squared(steps):
    """Cayley graph on Z4 x Z4 with the given symmetric step set."""
    return rule_graph(
        product(range(4), repeat=2),
        lambda u, v: ((v[0] - u[0]) % 4, (v[1] - u[1]) % 4) in steps,
    )


SHRIKHANDE_STEPS = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
ROOK_STEPS = {(i, 0) for i in (1, 2, 3)} | {(0, i) for i in (1, 2, 3)}  # H(2,4)


def hamming_array(dim, q):
    # a_k = k neighbours one step closer, b_k = (dim - k + 1)(q - 1) one step farther
    return tuple(range(1, dim + 1)), tuple((dim - k) * (q - 1) for k in range(dim))


def hamming_spectrum(dim, q):
    return {(q - 1) * dim - q * i: comb(dim, i) * (q - 1) ** i for i in range(dim + 1)}


def johnson_array(n, k):
    return tuple(i * i for i in range(1, k + 1)), tuple((k - i) * (n - k - i) for i in range(k))


def johnson_spectrum(n, k):
    return {
        (k - i) * (n - k - i) - i: comb(n, i) - (comb(n, i - 1) if i else 0)
        for i in range(k + 1)
    }


def odd_array(k):
    # O_k has diameter k - 1; a_i = ceil(i / 2), and b_i = k - ceil((i - 1) / 2)
    d = k - 1
    return tuple((i + 1) // 2 for i in range(1, d + 1)), tuple(k - (i + 1) // 2 for i in range(d))


def odd_spectrum(k):
    n = 2 * k - 1
    return {
        (-1) ** i * (k - i): comb(n, i) - (comb(n, i - 1) if i else 0) for i in range(k)
    }


PETERSEN_SPECTRUM = {3: 1, 1: 5, -2: 4}

CASES = {
    "H(3,3)": (lambda: hamming(3, 3), hamming_array(3, 3), hamming_spectrum(3, 3)),
    "J(6,3)": (lambda: johnson(6, 3), johnson_array(6, 3), johnson_spectrum(6, 3)),
    "J(7,3)": (lambda: johnson(7, 3), johnson_array(7, 3), johnson_spectrum(7, 3)),
    "O_4": (lambda: odd(4), odd_array(4), odd_spectrum(4)),
    # the bipartite double of Petersen: its spectrum is +-(Petersen's)
    "desargues": (
        desargues,
        ((1, 1, 2, 2, 3), (3, 2, 2, 1, 1)),
        {s * lam: m for lam, m in PETERSEN_SPECTRUM.items() for s in (1, -1)},
    ),
}


def test_closed_forms_match_the_hand_checked_values():
    assert hamming_array(3, 3) == ((1, 2, 3), (6, 4, 2))
    assert hamming_spectrum(3, 3) == {6: 1, 3: 6, 0: 12, -3: 8}
    assert johnson_array(6, 3) == ((1, 4, 9), (9, 4, 1))
    assert johnson_spectrum(6, 3) == {9: 1, 3: 5, -1: 9, -3: 5}
    assert johnson_array(7, 3) == ((1, 4, 9), (12, 6, 2))
    assert johnson_spectrum(7, 3) == {12: 1, 5: 6, 0: 14, -3: 14}
    assert odd_array(4) == ((1, 1, 2), (4, 3, 3))
    assert odd_spectrum(4) == {4: 1, 2: 14, -1: 14, -3: 6}


def integer_spectrum(values):
    """Counter of eigenvalues that must all lie within 1e-8 of integers."""
    rounded = np.rint(values)
    assert np.abs(values - rounded).max() < 1e-8
    return Counter(int(x) for x in rounded)


def adjacency_matrix(g):
    a = np.zeros((g.vertex_count, g.vertex_count))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1
    return a


@pytest.mark.parametrize("name", CASES)
def test_closed_form_drg_certifies_with_its_array_and_spectrum(name):
    build, (a, b), spectrum = CASES[name]
    g = build()
    assert g.vertex_count == sum(spectrum.values())
    assert integer_spectrum(np.linalg.eigvalsh(adjacency_matrix(g))) == spectrum  # the rule
    seq = certify_distance_regular(g)
    assert isinstance(seq, IntersectionSequence)
    assert (seq.a, seq.b) == (a, b)
    assert verify_recurrence(g, seq)
    atoms = spectral_measure(seq, vertex_count=g.vertex_count).atoms
    assert all(abs(x.eigenvalue - round(x.eigenvalue)) < 1e-8 for x in atoms)
    assert {round(x.eigenvalue): x.multiplicity for x in atoms} == spectrum


def neighbourhood_of_zero(g):
    """(edge count, triangle count) of the graph induced on vertex 0's neighbours."""
    nbrs = set(g.adjacency[0])
    edges = {(u, v) for u in nbrs for v in g.adjacency[u] if v in nbrs and u < v}
    triangles = sum(1 for x, y, z in combinations(sorted(nbrs), 3)
                    if {(x, y), (x, z), (y, z)} <= edges)
    return len(edges), triangles


def test_shrikhande_and_rook_share_array_and_spectrum_but_not_neighbourhoods():
    shrikhande, rook = z4_squared(SHRIKHANDE_STEPS), z4_squared(ROOK_STEPS)
    spectrum = {6: 1, 2: 6, -2: 9}
    for g in (shrikhande, rook):
        assert integer_spectrum(np.linalg.eigvalsh(adjacency_matrix(g))) == spectrum
        seq = certify_distance_regular(g)
        assert (seq.a, seq.b) == ((1, 2), (6, 3))
        atoms = spectral_measure(seq, vertex_count=16).atoms
        assert {round(x.eigenvalue): x.multiplicity for x in atoms} == spectrum
    # six edges each: a 6-cycle around vertex 0 in Shrikhande, two triangles in the rook's graph
    assert neighbourhood_of_zero(shrikhande) == (6, 0)
    assert neighbourhood_of_zero(rook) == (6, 2)


def test_mobius_kantor_is_a_near_miss_with_a_checkable_witness():
    # LCF [5, -5]^8: a 16-cycle with chords i ~ i + 5 for even i
    n = 16
    g = graph_from_edges(
        [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 5) % n) for i in range(0, n, 2)]
    )
    assert {len(nbrs) for nbrs in g.adjacency} == {3}
    witness = certify_distance_regular(g)
    assert isinstance(witness, NonRegularityWitness)
    assert witness.kind == "NotDistanceRegular"
    assert witness.recount(g) == (witness.first_count, witness.second_count)
    assert witness.first_count != witness.second_count
