import math
import random
import tracemalloc

import numpy as np
import pytest

from drgjacobi import (
    QuadratureNotConvergedError,
    SequenceError,
    density_moment,
    density_moments,
    eigenvalues,
    family_from_name,
    kesten_mckay_density,
    moment,
    moment_sequence,
    spectral_radius_tree,
    tree_sequence,
    truncated_jacobi,
)
from drgjacobi import families
from drgjacobi.families import MAX_MOMENT_ORDER, MAX_TRUNCATION_SIZE


def test_tree_sequence_pairs():
    t2 = tree_sequence(2)
    assert t2.degree == 2
    assert [t2.pair(k) for k in range(1, 6)] == [(1, 2), (1, 1), (1, 1), (1, 1), (1, 1)]
    t3 = tree_sequence(3)
    assert t3.pair(1) == (1, 3) and t3.pair(7) == (1, 2)
    assert all(t3.alpha(k) == 0 for k in range(0, 10))
    with pytest.raises(SequenceError):
        tree_sequence(1)


def test_family_from_name():
    assert family_from_name("tree:4").pair(2) == (1, 3)
    gen = family_from_name("custom:1,3;1,2;period=1")
    assert gen.pair(1) == (1, 3)
    assert gen.pair(2) == gen.pair(9) == (1, 2)
    two = family_from_name("custom:1,5;1,3;2,2;period=2")
    assert [two.pair(k) for k in range(1, 7)] == [
        (1, 5), (1, 3), (2, 2), (1, 3), (2, 2), (1, 3),
    ]
    assert [two.alpha(k) for k in range(1, 7)] == [1, 2, 0, 2, 0, 2]


@pytest.mark.parametrize(
    "text", ["tree", "tree:x", "ring:3", "custom:1;period=1", "custom:1,3;period=5", "custom:2,3"]
)
def test_family_from_name_rejects(text):
    with pytest.raises(SequenceError):
        family_from_name(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("custom:1,3;1,3;period=1", "alpha_1 = -1 is negative"),
        ("custom:1,3;1,2;1,9;period=1", "alpha_2 = -7 is negative"),
        # alpha_3 reads b_4, the first repeated pair: 4 - (2 + 3)
        ("custom:1,4;1,3;2,2;period=2", "alpha_3 = -1 is negative"),
    ],
)
def test_family_alpha_validation_per_term(text, message):
    with pytest.raises(SequenceError, match=f"^{message}$"):
        family_from_name(text)


def test_truncated_jacobi_examples():
    t3 = truncated_jacobi(tree_sequence(3), 3)
    assert t3.diag == (0.0, 0.0, 0.0)
    assert t3.offdiag == (math.sqrt(3), math.sqrt(2))
    assert t3.tau is None
    one = truncated_jacobi(tree_sequence(5), 1)
    assert one.diag == (0.0,) and one.offdiag == ()
    assert eigenvalues(one) == [0.0]
    t2 = truncated_jacobi(tree_sequence(2), 4)
    assert t2.offdiag == (math.sqrt(2), 1.0, 1.0)


def test_moment_examples():
    for n in (2, 3, 4):
        gen = tree_sequence(n)
        assert moment(gen, 0) == 1
        assert moment(gen, 2) == n
        assert all(moment(gen, k) == 0 for k in (1, 3, 5, 7, 11))
    t2 = tree_sequence(2)
    # closed walks on the two-sided path are central binomials
    for k in range(0, 13, 2):
        assert moment(t2, k) == math.comb(k, k // 2)


def test_moment_matches_dense_matrix_power():
    # a family with nonzero diagonal: degree 4, alpha_k = 1 for k >= 1
    gen = family_from_name("custom:1,4;1,2;period=1")
    dense = truncated_jacobi(gen, 10).to_dense()
    power = np.eye(10)
    for k in range(13):
        assert moment(gen, k) == pytest.approx(power[0, 0], rel=1e-12)
        power = power @ dense


def test_moment_truncation_stability():
    # a longer corner cannot change the (0, 0) entry: compared by float matrix powers
    for n in (2, 3, 4):
        gen = tree_sequence(n)
        for k in range(13):
            longer = truncated_jacobi(gen, (k + 1) // 2 + 5).to_dense()
            assert moment(gen, k) == round(np.linalg.matrix_power(longer, k)[0, 0])


def _integer_power_moments(gen, order):
    """(T^k)_{0,0} by dense exact integer matrix powers of the rescaled corner."""
    size = order // 2 + 2
    t = np.zeros((size, size), dtype=object)
    for j in range(size):
        t[j, j] = gen.alpha(j)
        if j + 1 < size:
            a, b = gen.pair(j + 1)
            t[j, j + 1] = 1
            t[j + 1, j] = a * b
    power = np.identity(size, dtype=object)
    out = []
    for _ in range(order + 1):
        out.append(int(power[0, 0]))
        power = power.dot(t)
    return out


@pytest.mark.parametrize(
    "name", ["tree:2", "tree:3", "tree:4", "tree:5", "custom:1,4;1,2;2,1;period=2"]
)
def test_moment_sequence_matches_per_order_moment(name):
    gen = family_from_name(name)
    seq = moment_sequence(gen, 60)
    assert len(seq) == 61
    assert seq == [moment(gen, k) for k in range(61)]
    assert seq == _integer_power_moments(gen, 60)
    assert all(type(m) is int for m in seq)


def test_moment_sequence_rejects_negative_order():
    with pytest.raises(SequenceError):
        moment_sequence(tree_sequence(3), -1)


def test_caps_admit_the_ladder():
    # corners to m = 8000 and moments to order 400, with headroom
    assert MAX_TRUNCATION_SIZE >= 4 * 8000
    assert MAX_MOMENT_ORDER >= 4 * 400
    assert truncated_jacobi(tree_sequence(3), 8000).size == 8000


@pytest.mark.parametrize(
    "build",
    [
        lambda: truncated_jacobi(tree_sequence(3), 10**9),
        lambda: truncated_jacobi(tree_sequence(3), MAX_TRUNCATION_SIZE + 1),
        lambda: moment_sequence(tree_sequence(3), 10**9),
        lambda: moment_sequence(tree_sequence(3), MAX_MOMENT_ORDER + 1),
        lambda: moment(tree_sequence(3), 10**9),
        lambda: density_moments(3, 10**9),
    ],
    ids=["size-1e9", "size-cap+1", "order-1e9", "order-cap+1", "moment-1e9", "quadrature-1e9"],
)
def test_oversized_family_requests_fail_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(SequenceError, match="at most"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_kesten_mckay_density_values():
    assert kesten_mckay_density(2, 0.0) == pytest.approx(1 / (2 * math.pi), rel=1e-14)
    assert kesten_mckay_density(3, 0.0) == pytest.approx(math.sqrt(8) / (6 * math.pi), rel=1e-14)
    for n in (2, 3, 5):
        radius = 2 * math.sqrt(n - 1)
        assert kesten_mckay_density(n, radius + 1e-9) == 0.0
        assert kesten_mckay_density(n, -radius - 5.0) == 0.0
        x = 0.37 * radius
        assert kesten_mckay_density(n, x) == kesten_mckay_density(n, -x)
    assert kesten_mckay_density(3, 2 * math.sqrt(2)) == 0.0
    assert kesten_mckay_density(2, 2.0) == math.inf  # genuine endpoint singularity


def test_density_normalizes_and_matches_exact_moments():
    for n in (2, 3, 4):
        assert density_moment(n, 0) == pytest.approx(1.0, abs=1e-8)
        assert density_moment(n, 2) == pytest.approx(n, abs=1e-8)
        gen = tree_sequence(n)
        for k in range(13):
            assert abs(density_moment(n, k) - moment(gen, k)) < 1e-6
    assert density_moment(2, 4) == pytest.approx(6.0, abs=1e-8)


# tree:n's float64 tops: the highest Kesten-McKay moment order density_moment accepts
FLOAT64_TOPS = [
    (2, 997), (3, 663), (4, 554), (5, 496), (6, 459), (7, 432), (8, 412), (9, 396), (100, 228)
]


@pytest.mark.parametrize("n, top", FLOAT64_TOPS)
def test_density_moment_refuses_orders_beyond_float64(n, top):
    assert math.isfinite(density_moment(n, top))
    assert math.isfinite(density_moment(n, top - 1))
    with pytest.raises(SequenceError, match=f"at most {top}$"):
        density_moment(n, top + 1)


@pytest.mark.parametrize("n, top", FLOAT64_TOPS)
def test_density_moments_match_the_exact_walks(n, top):
    # the walk is exact, so errors are the rule's
    quadrature, exact = density_moments(n, top), moment_sequence(tree_sequence(n), top)
    assert len(quadrature) == top + 1 and all(type(q) is float for q in quadrature)
    assert quadrature[1::2] == [0.0] * (top // 2 + top % 2)  # symmetric pairs: exactly zero
    for k, (q, m) in enumerate(zip(quadrature, exact)):
        assert abs(q - m) <= (1e-12 if k <= 40 else 1e-9) * m, (k, q, m)
    assert density_moment(n, top) == quadrature[-1]


def test_density_moments_reject_a_negative_order():
    with pytest.raises(SequenceError, match="nonnegative"):
        density_moments(3, -1)


def test_density_moment_refuses_degrees_beyond_float64():
    with pytest.raises(SequenceError, match="at most -1$"):
        density_moment(10**200, 0)  # (n - 2)**2 alone leaves float64 here


def test_density_moment_unreachable_tolerance(monkeypatch):
    monkeypatch.setattr(families, "QUAD_TOL", 1e-20)
    with pytest.raises(QuadratureNotConvergedError):
        density_moment(3, 8)


def test_spectral_radius_values():
    assert spectral_radius_tree(2) == 2.0
    assert spectral_radius_tree(3) == pytest.approx(2.8284271, abs=1e-7)
    assert spectral_radius_tree(5) == 4.0


def test_truncated_radius_monotone_and_bounded():
    for n in (2, 3, 4):
        bound = spectral_radius_tree(n)
        gen = tree_sequence(n)
        previous = 0.0
        for m in (2, 5, 10, 25, 50, 100, 200):
            top = eigenvalues(truncated_jacobi(gen, m))[-1]
            assert top >= previous - 1e-12
            assert top <= bound + 1e-9
            previous = top
        assert previous > bound - 0.05  # the m = 200 truncation is already close


def test_strict_gap_to_degree():
    for n in range(3, 11):
        assert spectral_radius_tree(n) < n


def _per_level_corner(gen, m):
    """The corner built one level at a time through pair and alpha."""
    diag = tuple(float(gen.alpha(k)) for k in range(m))
    off = tuple(math.sqrt(a * b) for a, b in (gen.pair(k) for k in range(1, m)))
    return diag, off


def _full_width_moments(gen, order):
    """The integer walk over every level of the size ceil(order/2)+1 corner at every step."""
    size = (order + 1) // 2 + 1
    alphas = [gen.alpha(j) for j in range(size)]
    down = [0] + [a * b for a, b in (gen.pair(j) for j in range(1, size))]
    vec = [1] + [0] * (size - 1)
    moments = [1]
    for _ in range(order):
        nxt = [0] * size
        for j in range(size):
            value = alphas[j] * vec[j]
            if j + 1 < size:
                value += vec[j + 1]
            if j > 0:
                value += down[j] * vec[j - 1]
            nxt[j] = value
        vec = nxt
        moments.append(vec[0])
    return moments


def _random_families(count, seed=23):
    """Valid eventually periodic families, period 1..3, each prefix longer than its period."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        degree, period = rng.randint(2, 6), rng.randint(1, 3)
        pairs = [(1, degree)]
        for _ in range(period + rng.randint(0, 3)):
            pairs.append((rng.randint(1, degree - 1), rng.randint(1, degree - pairs[-1][0])))
        try:
            gen = families.FamilyGenerator(tuple(pairs), period, "random")
        except SequenceError:  # a wrap-around alpha is negative
            continue
        if gen not in found:
            found.append(gen)
    return found


@pytest.mark.parametrize("gen", _random_families(12), ids=lambda g: f"{g.prefix}/{g.period}")
def test_array_corners_and_banded_moments_match_per_level_code(gen):
    size = len(gen.prefix)
    for m in (1, size, size + 1, size + 3 * gen.period):
        corner = truncated_jacobi(gen, m)
        assert (corner.diag, corner.offdiag) == _per_level_corner(gen, m)
        assert all(type(x) is float for x in corner.diag + corner.offdiag)
    for order in range(81):
        moments = moment_sequence(gen, order)
        assert moments == _full_width_moments(gen, order)
        assert all(type(x) is int for x in moments)


def test_banded_walk_gives_central_binomials_at_the_cap():
    # custom:1,2;1,1 is the two-sided path; its closed walks are central binomials
    moments = moment_sequence(family_from_name("custom:1,2;1,1;period=1"), MAX_MOMENT_ORDER)
    assert moments[0::2] == [math.comb(2 * k, k) for k in range(MAX_MOMENT_ORDER // 2 + 1)]
    assert set(moments[1::2]) == {0}
