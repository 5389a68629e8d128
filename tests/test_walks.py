"""The two recurrence walks of jacobi: the pivot count and the first-kind rows.

The streamed first-kind walk must reproduce, bit for bit, the scalar
recurrence it replaced, which is kept below as the reference. The
reference is written for one point but runs unchanged on an array of
points: numpy's elementwise float64 arithmetic rounds exactly like
Python's, so one call covers every root of a matrix.
"""

import math
import tracemalloc

import numpy as np
import pytest

from drgjacobi import (
    IntersectionSequence,
    JacobiError,
    MultiplicityNotIntegralError,
    SpectralAtom,
    SpectralMeasure,
    WeightMismatchError,
    build_jacobi,
    canonical_tau,
    eigenvalues,
    sequence_from_pairs,
    spectral_measure,
)
from drgjacobi.jacobi import _first_kind_rows, _sign_change_counts


def hamming(dim):
    return sequence_from_pairs([(k, dim - k + 1) for k in range(1, dim + 1)])


def tree_prefix(m):
    return sequence_from_pairs([(1, 3)] + [(1, 2)] * (m - 1))


def taus(seq):
    """The canonical boundary value and two others."""
    star = float(canonical_tau(seq))
    return (star, star + 0.5, star - 1.0)


# ------------------------------------------------- reference scalar walk


def reference_first_kind(seq, tau, x):
    """Values and derivatives (P_0, ..., P_n, P_{n+1}^(tau)) at x."""
    off = [math.sqrt(a * b) for a, b in zip(seq.a, seq.b)]
    alphas = seq.alphas
    n = seq.d
    values = [1.0, x / off[0]]
    for k in range(1, n):
        values.append(((x - alphas[k]) * values[k] - off[k - 1] * values[k - 1]) / off[k])
    last = (x - tau) * values[n] - off[n - 1] * values[n - 1]
    derivs = [0.0, 1.0 / off[0]]
    for k in range(1, n):
        derivs.append(
            (values[k] + (x - alphas[k]) * derivs[k] - off[k - 1] * derivs[k - 1])
            / off[k]
        )
    dlast = values[n] + (x - tau) * derivs[n] - off[n - 1] * derivs[n - 1]
    return values + [last], derivs + [dlast]


def reference_weights(seq, tau, lams, rtol=1e-8):
    """Per-root weights, or the first root's WeightMismatchError message."""
    x = np.array(lams)
    values, derivs = reference_first_kind(seq, tau, x)
    direct = 0.0  # summed left to right, as sum() did before Python 3.12
    for v in values[:-1]:
        direct = direct + v * v
    via_derivative = values[-2] * derivs[-1]
    for d, v, lam in zip(direct, via_derivative, lams):
        if abs(d - v) > rtol * max(abs(d), abs(v)):
            return f"sum formula {float(d)!r} vs derivative formula {float(v)!r} at {lam!r}"
    return (1.0 / direct).tolist()


def measure_outcome(seq, tau):
    try:
        return [a.weight for a in spectral_measure(seq, tau=tau).atoms]
    except WeightMismatchError as exc:
        return str(exc)


def reference_outcome(seq, tau):
    lams = eigenvalues(build_jacobi(seq, tau))
    weights = reference_weights(seq, tau, lams)
    if isinstance(weights, list):  # the same measure validation as spectral_measure
        SpectralMeasure(tuple(SpectralAtom(lam, w) for lam, w in zip(lams, weights)))
    return weights


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# ------------------------------------------------- weights and values


def test_weights_match_reference_on_corpus(corpus_entry):
    _, _, seq = corpus_entry
    for tau in taus(seq):
        expected = reference_outcome(seq, tau)
        assert isinstance(expected, list)
        assert bits(measure_outcome(seq, tau)) == bits(expected)


@pytest.mark.parametrize("dim", range(2, 24))
def test_weights_match_reference_on_hamming(dim):
    seq = hamming(dim)
    for tau in taus(seq):
        new, ref = measure_outcome(seq, tau), reference_outcome(seq, tau)
        assert type(new) is type(ref)
        assert (new == ref) if isinstance(ref, str) else (bits(new) == bits(ref))


def test_weights_match_reference_on_tree_prefixes():
    # every prefix up to 64, then every 16th up to 400: all 400 take about 15 s
    for m in [*range(1, 64), *range(64, 401, 16)]:
        seq = tree_prefix(m)
        for tau in taus(seq):
            new, ref = measure_outcome(seq, tau), reference_outcome(seq, tau)
            assert type(new) is type(ref), (m, tau)
            assert (new == ref) if isinstance(ref, str) else (bits(new) == bits(ref)), (m, tau)


def test_eval_first_kind_matches_reference(corpus):
    extra = [hamming(5), hamming(23), tree_prefix(7), tree_prefix(400)]
    for s in extra + [entry[2] for entry in corpus]:
        for tau in taus(s):
            lams = eigenvalues(build_jacobi(s, tau))
            points = lams[:3] + lams[-3:] + [0.0, -1.25, 0.5 * (lams[0] + lams[-1])]
            J = build_jacobi(s, tau)
            for x in points:
                values, derivs = reference_first_kind(s, tau, x)
                rows = list(_first_kind_rows(J, np.array([x])))
                assert bits([p[0] for p, _ in rows]) == bits(values)
                assert bits([dp[0] for _, dp in rows]) == bits(derivs)


def test_weight_mismatch_message_uses_plain_floats():
    with pytest.raises(WeightMismatchError) as exc:
        spectral_measure(hamming(24))
    assert str(exc.value) == reference_outcome(hamming(24), 0.0)
    assert "np." not in str(exc.value)


def test_spectral_measure_tau_defaults_to_canonical(corpus_entry):
    _, _, seq = corpus_entry
    assert spectral_measure(seq) == spectral_measure(seq, tau=canonical_tau(seq))
    shifted = spectral_measure(seq, tau=canonical_tau(seq) + 0.5)
    assert [a.eigenvalue for a in shifted.atoms] == eigenvalues(
        build_jacobi(seq, canonical_tau(seq) + 0.5)
    )


def test_non_finite_weight_sums_are_mismatches():
    # at tau = -3 the smallest root of the m = 1000 tree prefix lies far
    # below the bulk, and both sides of its weight identity overflow to
    # nan; the pass must name that root rather than warn and go on
    seq = tree_prefix(1000)
    lams = eigenvalues(build_jacobi(seq, -3.0))
    with pytest.raises(WeightMismatchError) as exc:
        spectral_measure(seq, tau=-3.0)
    assert str(exc.value) == f"sum formula nan vs derivative formula nan at {lams[0]!r}"


@pytest.mark.parametrize(
    "direct, via_derivative",
    [
        ([1.0, np.inf, 2.0], [1.0, 5.0, 2.0]),
        ([1.0, 5.0, 2.0], [1.0, -np.inf, 2.0]),
        ([1.0, np.inf, 2.0], [1.0, np.inf, 2.0]),
        ([1.0, np.nan, 2.0], [1.0, 5.0, 2.0]),
    ],
)
def test_weight_gate_flags_either_side_non_finite(direct, via_derivative, monkeypatch):
    from drgjacobi import jacobi

    monkeypatch.setattr(
        jacobi, "_inverse_weights", lambda J, xs: (np.array(direct), np.array(via_derivative))
    )
    J = build_jacobi(tree_prefix(2), 0.0)
    with pytest.raises(WeightMismatchError, match=r"at 0\.5$"):
        jacobi._checked_weights(J, np.array([0.25, 0.5, 0.75]))


# ------------------------------------------------- pivot counts


def dense_counts(J, xs):
    eigs = np.linalg.eigvalsh(J.to_dense())
    return np.array([np.count_nonzero(eigs < x) for x in xs])


def sequences_for_counts(corpus):
    return [entry[2] for entry in corpus] + [hamming(d) for d in (2, 7, 23)] + [
        tree_prefix(m) for m in (1, 2, 30, 200)
    ]


def test_pivot_counts_match_dense_around_roots(corpus):
    for seq in sequences_for_counts(corpus):
        for tau in taus(seq):
            J = build_jacobi(seq, tau)
            lo, hi = min(J.diag) - 2 * max(J.offdiag), max(J.diag) + 2 * max(J.offdiag)
            tol = 1e-12 * max(hi - lo, 1.0)
            roots = np.array(eigenvalues(J))
            xs = np.concatenate([roots - tol / 2, roots + tol / 2])
            counts = _sign_change_counts(np.array(J.diag), np.array(J.offdiag), xs)
            assert counts.tolist() == dense_counts(J, xs).tolist()


def test_pivot_counts_at_exact_zero_pivots(corpus):
    checked = 0
    for seq in sequences_for_counts(corpus):
        for tau in taus(seq):
            J = build_jacobi(seq, tau)
            eigs = np.linalg.eigvalsh(J.to_dense())
            # x = diag_0 = 0 zeroes the first pivot; diagonal entries zero others
            xs = np.array(sorted({0.0, *J.diag}))
            xs = xs[np.abs(xs[:, None] - eigs[None, :]).min(axis=1) > 1e-9]
            counts = _sign_change_counts(np.array(J.diag), np.array(J.offdiag), xs)
            assert counts.tolist() == dense_counts(J, xs).tolist()
            checked += len(xs)
    assert checked > 50


def test_pivot_count_zero_pivot_by_hand():
    # J = [[0, 1], [1, 0]] at x = 0: pivots +0.0 then -inf, one eigenvalue (-1) below
    counts = _sign_change_counts(np.array([0.0, 0.0]), np.array([1.0]), np.array([0.0, -0.0]))
    assert counts.tolist() == [1, 1]


def test_hamming_2100_certifies_without_rescaling():
    # the unscaled first-kind chain of H(2100,2) overflows float64; the pivots do not
    dim = 2100
    lams = eigenvalues(build_jacobi(hamming(dim), 0.0))
    assert np.abs(np.array(lams) - np.arange(-dim, dim + 1, 2)).max() < 1e-9


def test_weight_pass_streams_rows():
    # a full (n+1) x n table of P_k at the roots would take 8 MB here
    seq = tree_prefix(1000)
    tracemalloc.start()
    try:
        spectral_measure(seq)
    except WeightMismatchError:
        pass  # the derivative identity is ill-conditioned at this size; the pass has run
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 1_000_000


# ------------------------------------------------- multiplicities


def test_multiplicity_bound_fails_for_large_vertex_counts():
    # K_1000000 has weights 999999/10^6 and 1/10^6; N * w = 1.4 is not an integer
    seq = IntersectionSequence((1,), (999_999,))
    with pytest.raises(MultiplicityNotIntegralError):
        spectral_measure(seq, vertex_count=1_400_000)
    atoms = spectral_measure(seq, vertex_count=1_000_000).atoms
    assert [a.multiplicity for a in atoms] == [999_999, 1]


def test_multiplicity_check_lives_in_the_measure():
    with pytest.raises(MultiplicityNotIntegralError):
        SpectralMeasure((SpectralAtom(0.0, 0.5, 1), SpectralAtom(1.0, 0.5, 3)))
    with pytest.raises(MultiplicityNotIntegralError):
        # within the bound of N * w, but a zero multiplicity
        SpectralMeasure((SpectralAtom(0.0, 1 - 1e-9, 10), SpectralAtom(1.0, 1e-9, 0)))
    assert issubclass(MultiplicityNotIntegralError, JacobiError)
