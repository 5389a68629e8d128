"""Property tests over random sequences, families and regular graphs.

Skipped when hypothesis is absent. Every test is derandomized, so a run
tests the same examples each time for a given hypothesis version.
"""

import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from drgjacobi import (  # noqa: E402
    Graph,
    IntersectionSequence,
    NonRegularityWitness,
    NotConnectedError,
    build_jacobi,
    certify_distance_regular,
    eigenvalues,
    family_from_name,
    moment_sequence,
    sequence_from_pairs,
    spectra_interlace,
    truncated_jacobi,
)
from drgjacobi.oracle import dense_adjacency, recurrence_pass  # noqa: E402

repeatable = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)


def divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


@st.composite
def pair_lists(draw):
    """Pairs that sequence_from_pairs accepts: every alpha_k >= 0, integral degrees.

    Each a_k is drawn from the divisors of deg_{k-1} * b_k, and each
    b_{k+1} leaves alpha_k = degree - a_k - b_{k+1} nonnegative.
    """
    degree = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    pairs, b, deg = [], degree, 1
    for k in range(1, d + 1):
        a = 1 if k == 1 else draw(st.sampled_from([x for x in divisors(deg * b) if x <= degree]))
        pairs.append((a, b))
        deg = deg * b // a
        if k < d:
            if a == degree:  # no room for b_{k+1}: the sequence ends here
                break
            b = draw(st.integers(1, degree - a))
    return pairs


@repeatable
@given(pairs=pair_lists(), taus=st.lists(st.integers(-8, 8), min_size=2, max_size=2, unique=True))
def test_distinct_taus_interlace(pairs, taus):
    seq = sequence_from_pairs(pairs)
    e1, e2 = (eigenvalues(build_jacobi(seq, float(tau))) for tau in taus)
    assert spectra_interlace(e1, e2)[0]


@st.composite
def custom_families(draw):
    """Text of a valid custom: family; no alpha_k, wrap-around included, is negative.

    The period is below the prefix length: a full-length period would
    repeat b_1 = degree after a_len, forcing alpha_len < 0.
    """
    degree = draw(st.integers(2, 5))
    size = draw(st.integers(2, 5))
    period = draw(st.integers(1, size - 1))
    pairs = [(1, degree)]
    for _ in range(2, size):
        b = draw(st.integers(1, degree - pairs[-1][0]))  # alpha_{k-1} >= 0
        pairs.append((draw(st.integers(1, degree - 1)), b))
    b = draw(st.integers(1, degree - pairs[-1][0]))
    wrap = b if period == 1 else pairs[size - period][1]  # b_{size+1}, the first repeat
    pairs.append((draw(st.integers(1, degree - wrap)), b))
    return "custom:" + ";".join(f"{a},{b}" for a, b in pairs) + f";period={period}"


@repeatable
@given(text=custom_families(), order=st.integers(0, 12), extra=st.integers(1, 4))
def test_moments_match_dense_powers_of_a_longer_corner(text, order, extra):
    gen = family_from_name(text)
    dense = truncated_jacobi(gen, (order + 1) // 2 + 1 + extra).to_dense()
    power = np.eye(len(dense))
    expected = []
    for _ in range(order + 1):
        expected.append(round(power[0, 0]))
        power = power @ dense
    assert moment_sequence(gen, order) == expected


@st.composite
def regular_graphs(draw):
    """A connected simple regular graph from the pairing model, retried until one comes out."""
    degree = draw(st.integers(3, 4))  # degree 2 gives cycles, all distance-regular
    n = draw(st.integers(4, 8)) * 2
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    for _ in range(200):
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = set(zip(stubs[::2], stubs[1::2]))
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        if all(len(s) == degree and v not in s for v, s in enumerate(nbrs)):
            try:
                return Graph(tuple(tuple(sorted(s)) for s in nbrs))
            except NotConnectedError:
                continue
    hypothesis.assume(False)


@repeatable
@given(g=regular_graphs())
def test_witness_recount_matches_its_counts(g):
    outcome = certify_distance_regular(g)
    if isinstance(outcome, NonRegularityWitness):
        assert outcome.kind == "NotDistanceRegular"  # g is regular
        assert outcome.recount(g) == (outcome.first_count, outcome.second_count)
        assert outcome.first_count != outcome.second_count
    else:
        assert isinstance(outcome, IntersectionSequence)
        assert recurrence_pass(g, outcome, dense_adjacency(g))[0] is None
