from fractions import Fraction

import numpy as np
import pytest

from drgjacobi import (
    Graph,
    IntersectionSequence,
    NonIntegralDegreeError,
    NonRegularityWitness,
    SequenceError,
    certify_distance_regular,
    degree_sequence,
    graph_from_name,
    parse_edge_list,
    sequence_from_pairs,
)
from drgjacobi.intersection import _distance_polys
from drgjacobi.oracle import checked_distances, dense_adjacency, recurrence_pass
from references import csr_of, distance_poly_eval, isoscycle_count, reference_bfs

PRISM_TEXT = "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n1 4\n2 5"


def brute_force_counts(g, seq):
    """Recount every ordered pair's two intersection numbers from scratch."""
    for i in range(g.vertex_count):
        dist = reference_bfs(g.adjacency, i)
        for j in range(g.vertex_count):
            k = dist[j]
            if k == 0:
                continue
            closer = sum(1 for u in g.adjacency[j] if dist[u] == k - 1)
            farther = sum(1 for u in g.adjacency[j] if dist[u] == k + 1)
            assert closer == seq.a[k - 1]
            expected_far = seq.b[k] if k < seq.d else 0
            assert farther == expected_far


@pytest.mark.parametrize("n", range(2, 9))
def test_certify_complete(n):
    seq = certify_distance_regular(graph_from_name(f"complete:{n}"))
    assert isinstance(seq, IntersectionSequence)
    assert seq.d == 1 and seq.a == (1,) and seq.b == (n - 1,)


def test_certify_petersen_brute_forced():
    g = graph_from_name("petersen")
    seq = certify_distance_regular(g)
    assert seq.a == (1, 1) and seq.b == (3, 2)
    brute_force_counts(g, seq)


def test_certify_cycles():
    even = certify_distance_regular(graph_from_name("cycle:6"))
    assert even.a == (1, 1, 2) and even.b == (2, 1, 1)
    odd = certify_distance_regular(graph_from_name("cycle:5"))
    assert odd.a == (1, 1) and odd.b == (2, 1)


def test_certify_hypercube_and_bipartite():
    q3 = certify_distance_regular(graph_from_name("hypercube:3"))
    assert q3.a == (1, 2, 3) and q3.b == (3, 2, 1)
    k33 = certify_distance_regular(graph_from_name("complete_bipartite:3"))
    assert k33.a == (1, 3) and k33.b == (3, 2)


def test_certify_prism_witness():
    g = parse_edge_list(PRISM_TEXT)
    witness = certify_distance_regular(g)
    assert isinstance(witness, NonRegularityWitness)
    assert witness.kind == "NotDistanceRegular"
    assert witness.distance == 1 and witness.count_type == "b"
    assert {witness.first_count, witness.second_count} == {1, 2}
    assert witness.recount(g) == (witness.first_count, witness.second_count)


def test_certify_path_not_regular():
    witness = certify_distance_regular(parse_edge_list("0 1\n1 2"))
    assert isinstance(witness, NonRegularityWitness)
    assert witness.kind == "NotRegular"
    assert {witness.first_count, witness.second_count} == {1, 2}


def test_certify_corpus_round_trip(corpus_entry):
    name, g, seq = corpus_entry
    assert isinstance(seq, IntersectionSequence), name
    assert recurrence_pass(g, seq, dense_adjacency(g))[0] is None


def test_edge_flip_perturbations_yield_checkable_witnesses(corpus):
    from drgjacobi import NotConnectedError

    for name, g, _ in corpus:
        n = g.vertex_count
        edges = {(u, v) for u, nbrs in enumerate(g.adjacency) for v in nbrs if u < v}
        for i in range(n):
            for j in range(i + 1, n):
                nbrs = [[] for _ in range(n)]
                for u, v in edges ^ {(i, j)}:  # the flip of complete:2 leaves no edges
                    nbrs[u].append(v)
                    nbrs[v].append(u)
                try:
                    h = Graph(*csr_of(tuple(tuple(sorted(s)) for s in nbrs)))
                except NotConnectedError:
                    continue
                outcome = certify_distance_regular(h)
                assert isinstance(outcome, NonRegularityWitness), (name, i, j)
                first, second = outcome.recount(h)
                assert (first, second) == (outcome.first_count, outcome.second_count)
                assert first != second


def test_sequence_invariants_enforced():
    with pytest.raises(SequenceError):
        sequence_from_pairs([(2, 3)])  # a_1 must be 1
    with pytest.raises(SequenceError):
        sequence_from_pairs([(1, 3), (1, 3)])  # alpha_1 = -1
    with pytest.raises(SequenceError):
        sequence_from_pairs([])
    with pytest.raises(SequenceError):
        IntersectionSequence((1, 0), (3, 2))
    with pytest.raises(SequenceError):
        IntersectionSequence((1,), (2, 1))


@pytest.mark.parametrize(
    "a, b, message",
    [
        ((1, 1), (3,), "a and b must be equal-length nonempty lists"),
        ((), (), "a and b must be equal-length nonempty lists"),
        ((2, 0), (3, 2), "a entries must be positive integers"),  # before a_1
        ((1, 1.0), (3, 2), "a entries must be positive integers"),
        ((1, 1), (3, 0), "b entries must be positive integers"),
        ((2, 5), (3, 3), "a_1 must equal 1"),  # before alpha_1 < 0
        ((1, 5), (3, 3), "alpha_1 is negative"),  # before degree - a_d < 0
        ((1, 1, 1), (3, 2, 3), "alpha_2 is negative"),  # names the first failing k
        ((1, 4), (3, 2), "degree - a_d is negative"),  # before the non-integral 3 * 2/4
    ],
)
def test_sequence_refusals_keep_type_message_and_order(a, b, message):
    with pytest.raises(SequenceError) as err:
        IntersectionSequence(a, b)
    assert type(err.value) is SequenceError
    assert str(err.value) == message


@pytest.mark.parametrize(
    "a, b, k, value",
    [((1, 3), (4, 2), 2, Fraction(8, 3)), ((1, 1, 3), (4, 2, 1), 3, Fraction(8, 3))],
)
def test_non_integral_degree_names_k(a, b, k, value):
    with pytest.raises(NonIntegralDegreeError) as err:
        IntersectionSequence(a, b)
    assert (err.value.k, err.value.value) == (k, value)
    assert str(err.value) == f"distance-{k} degree {value} is not an integer"


def fraction_degrees(a, b):
    """deg(A_k) by a Fraction accumulator: the list, or (k, value) at the first non-integer."""
    degrees, acc = [1], Fraction(1)
    for k, (a_k, b_k) in enumerate(zip(a, b), 1):
        acc *= Fraction(b_k, a_k)
        if acc.denominator != 1:
            return k, acc
        degrees.append(int(acc))
    return degrees


def random_valid_pairs(rng):
    """A pair list that passes every check before the degrees; a_k divides
    the running product about half the time, so both outcomes occur."""
    degree = int(rng.integers(1, 13))
    a, b, deg = [1], [degree], degree
    while len(a) < 8 and a[-1] < degree:
        b.append(int(rng.integers(1, degree - a[-1] + 1)))
        divisors = [x for x in range(1, degree + 1) if deg * b[-1] % x == 0]
        a.append(int(rng.choice(divisors) if rng.random() < 0.5 else rng.integers(1, degree + 1)))
        deg = deg * b[-1] // a[-1]
        if rng.random() < 0.2:
            break
    return tuple(a), tuple(b)


def test_integer_degrees_match_a_fraction_reference():
    rng = np.random.default_rng(20261018)
    outcomes = {"integral": 0, "refused": 0}
    for _ in range(400):
        a, b = random_valid_pairs(rng)
        expected = fraction_degrees(a, b)
        if isinstance(expected, list):
            assert degree_sequence(IntersectionSequence(a, b)) == expected
            outcomes["integral"] += 1
        else:
            with pytest.raises(NonIntegralDegreeError) as err:
                IntersectionSequence(a, b)
            k, value = expected
            assert type(err.value) is NonIntegralDegreeError and type(err.value.value) is Fraction
            assert (err.value.k, err.value.value) == (k, value)
            assert str(err.value) == f"distance-{k} degree {value} is not an integer"
            outcomes["refused"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_derived_values_stay_out_of_equality_and_repr():
    seq = sequence_from_pairs([(1, 3), (1, 2)])
    twin = IntersectionSequence((1, 1), (3, 2))
    assert seq == twin and hash(seq) == hash(twin)
    assert repr(seq) == "IntersectionSequence(a=(1, 1), b=(3, 2))"
    degrees = degree_sequence(seq)
    degrees.append(0)  # a fresh list each call
    assert degree_sequence(seq) == [1, 3, 6]
    assert isinstance(seq.alphas, tuple) and isinstance(seq.tau_star, int)


def test_degree_sequence_examples():
    petersen = sequence_from_pairs([(1, 3), (1, 2)])
    assert degree_sequence(petersen) == [1, 3, 6]
    # finite stretch of the degree-3 tree sequence: n (n-1)^(k-1)
    tree3 = sequence_from_pairs([(1, 3), (1, 2), (1, 2), (1, 2)])
    assert degree_sequence(tree3) == [1, 3, 6, 12, 24]
    assert degree_sequence(sequence_from_pairs([(1, 5)])) == [1, 5]


def test_degree_sequence_non_integral():
    with pytest.raises(NonIntegralDegreeError):
        sequence_from_pairs([(1, 4), (3, 2)])  # 4 * 2/3


def isoscycle_closed_form(seq):
    """alpha_k deg_k / 2 for k = 0..d: the edges within level k seen from any vertex."""
    return [alpha * deg / 2 for alpha, deg in zip(seq.alphas, degree_sequence(seq))]


def test_isoscycle_numbers_examples():
    for n in (3, 4, 7):
        g = graph_from_name(f"complete:{n}")
        seq = sequence_from_pairs([(1, n - 1)])
        assert isoscycle_closed_form(seq) == [0, (n - 2) * (n - 1) // 2]
        assert [isoscycle_count(g, 0, k) for k in range(2)] == isoscycle_closed_form(seq)
    petersen = sequence_from_pairs([(1, 3), (1, 2)])
    assert isoscycle_closed_form(petersen) == [0, 0, 6]
    g = graph_from_name("petersen")
    assert [isoscycle_count(g, v, 2) for v in range(10)] == [6] * 10
    # interior values vanish along a tree-like stretch
    tree3 = sequence_from_pairs([(1, 3), (1, 2), (1, 2), (1, 2)])
    assert isoscycle_closed_form(tree3)[:-1] == [0, 0, 0, 0]
    k2 = sequence_from_pairs([(1, 1)])
    assert isoscycle_closed_form(k2) == [0, 0]


def test_isoscycle_numbers_non_integral():
    # a feasible array that no graph realises: the ordered count alpha_1 deg_1 of
    # edges within level 1 is odd, so the closed form gives a half edge
    seq = sequence_from_pairs([(1, 3), (1, 1)])
    assert seq.alphas[1] == 1 and degree_sequence(seq)[1] == 3
    assert isoscycle_closed_form(seq)[1] == 1.5


def test_verify_recurrence_k4_reduces_to_square():
    g = graph_from_name("complete:4")
    seq = certify_distance_regular(g)
    assert recurrence_pass(g, seq, dense_adjacency(g))[0] is None
    a = (checked_distances(g) == 1).astype(np.int64)
    assert np.array_equal(a @ a, 3 * np.eye(4, dtype=np.int64) + 2 * a)


def test_verify_recurrence_tampered_sequence_fails():
    g = graph_from_name("petersen")
    tampered = sequence_from_pairs([(1, 3), (2, 2)])  # feasible but wrong
    mismatch = recurrence_pass(g, tampered, dense_adjacency(g))[0]
    assert mismatch is not None
    k, i, j, lhs, rhs = mismatch
    assert lhs != rhs
    # the reported entry is recomputable from dense products
    dist = checked_distances(g)
    assert ((dist == 1).astype(np.int64) @ (dist == k).astype(np.int64))[i, j] == lhs


def test_alphas_and_tau_star():
    petersen = sequence_from_pairs([(1, 3), (1, 2)])
    assert petersen.alphas == (0, 0, 2)
    assert petersen.tau_star == 2
    c6 = sequence_from_pairs([(1, 2), (1, 1), (2, 1)])
    assert c6.alphas == (0, 0, 0, 0)
    assert c6.tau_star == 0


def test_distance_poly_eval_basics():
    seq = sequence_from_pairs([(1, 3), (1, 2)])
    for x in (0, 1, Fraction(7, 3)):
        assert distance_poly_eval(seq, 0, x) == 1
        assert distance_poly_eval(seq, 1, x) == x
    assert distance_poly_eval(seq, 2, 3) == 6
    with pytest.raises(ValueError):
        distance_poly_eval(seq, 3, 0)
    assert list(_distance_polys(seq, 3.0)) == [1.0, 3.0, 6.0]  # the walk verify's norm_bound reads


def test_distance_poly_at_degree_equals_deg_k(corpus_entry):
    _, _, seq = corpus_entry
    degs = degree_sequence(seq)
    for k in range(seq.d + 1):
        value = distance_poly_eval(seq, k, seq.degree)
        assert value == degs[k]  # exact rational evaluation
        assert isinstance(value, (int, Fraction))


def test_json_serialization():
    seq = sequence_from_pairs([(1, 3), (1, 2)])
    assert seq.to_json() == {
        "d": 2,
        "a": [1, 1],
        "b": [3, 2],
        "degree": 3,
        "alpha": [0, 0, 2],
        "deg_k": [1, 3, 6],
    }
