import math
from itertools import islice

import numpy as np
import pytest

from drgjacobi import (
    JacobiError,
    JacobiOperator,
    MultiplicityNotIntegralError,
    SpectralMeasure,
    SpectralAtom,
    ToleranceTooSmallError,
    WeightMismatchError,
    build_jacobi,
    canonical_tau,
    eigenvalues,
    sequence_from_pairs,
    spectra_interlace,
    spectral_measure,
    weight_formulas,
)
from drgjacobi import jacobi

PETERSEN = sequence_from_pairs([(1, 3), (1, 2)])


def complete_seq(n):
    return sequence_from_pairs([(1, n - 1)])


def first_kind(seq, tau, x):
    """(P_0(x), ..., P_d(x), P_{d+1}^(tau)(x)) and their derivatives, from the rows the weights walk."""
    rows = list(jacobi._first_kind_rows(build_jacobi(seq, tau), np.array([float(x)])))
    return [float(p[0]) for p, _ in rows], [float(dp[0]) for _, dp in rows]


def interlaced(seq, tau1, tau2):
    """The interlace command's test of the spectra of J_tau1 and J_tau2."""
    return spectra_interlace(eigenvalues(build_jacobi(seq, tau1)), eigenvalues(build_jacobi(seq, tau2)))[0]


def christoffel_darboux(seq, k, x, y):
    """Sum form sum_{j<=k} P_j(x) P_j(y) and ratio form of the kernel K_k(x, y), x != y.

    The ratio form is sqrt(a_{k+1} b_{k+1}) (P_k(y) P_{k+1}(x) - P_k(x) P_{k+1}(y)) / (x - y).
    """
    J = build_jacobi(seq, canonical_tau(seq))  # P_0 .. P_d do not involve tau
    rows = islice(jacobi._first_kind_rows(J, np.array([x, y], dtype=float)), k + 2)
    px, py = np.array([p for p, _ in rows]).T
    ratio = J.offdiag[k] * (py[k] * px[k + 1] - px[k] * py[k + 1]) / (x - y) if x != y else None
    return float(px[:-1] @ py[:-1]), ratio


def kn_closed_form(n, tau):
    """Quadratic roots of x(x - tau) - (n - 1), the 2x2 spectrum."""
    disc = math.sqrt(tau * tau + 4 * (n - 1))
    return [tau / 2 - disc / 2, tau / 2 + disc / 2]


def test_build_jacobi_shapes():
    for n in (2, 5, 9):
        J = build_jacobi(complete_seq(n), 1.5)
        assert J.diag == (0.0, 1.5)
        assert J.offdiag == (math.sqrt(n - 1),)
    J = build_jacobi(PETERSEN, 2.0)
    assert J.diag == (0.0, 0.0, 2.0)
    assert J.offdiag == (math.sqrt(3), math.sqrt(2))
    edge = build_jacobi(sequence_from_pairs([(1, 1)]), 0.0)
    assert edge.diag == (0.0, 0.0) and edge.offdiag == (1.0,)


def test_jacobi_operator_validation():
    with pytest.raises(JacobiError):
        JacobiOperator((0.0, 1.0), (0.0,))  # off-diagonal must be positive
    with pytest.raises(JacobiError):
        JacobiOperator((0.0, 1.0), (1.0, 2.0))
    with pytest.raises(JacobiError):
        JacobiOperator((0.5, 1.0), (1.0,))  # leading diagonal entry is fixed at 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_jacobi_operator_rejects_non_finite_entries(bad):
    with pytest.raises(JacobiError, match="finite"):
        JacobiOperator((0.0, bad), (1.0,))
    with pytest.raises(JacobiError, match="finite"):
        JacobiOperator((0.0, 1.0), (abs(bad),))


def test_canonical_tau():
    for n in (2, 5, 12):
        assert canonical_tau(complete_seq(n)) == n - 2
    assert canonical_tau(PETERSEN) == 2
    tree3 = sequence_from_pairs([(1, 3), (1, 2), (1, 2), (1, 2)])
    assert canonical_tau(tree3) == 2  # degree - a_d = 3 - 1


def test_eval_first_kind_basics():
    values, _ = first_kind(PETERSEN, 2.0, 0.0)
    assert values[0] == 1.0 and values[1] == 0.0
    # complete graph closed form for the terminal polynomial
    for n in (3, 6):
        for tau in (-1.0, 0.5, float(n - 2)):
            for x in (-2.0, 0.3, 4.0):
                values, _ = first_kind(complete_seq(n), tau, x)
                expected = x * (x - tau) / math.sqrt(n - 1) - math.sqrt(n - 1)
                assert values[-1] == pytest.approx(expected, rel=1e-12)


def test_eval_first_kind_petersen_at_one():
    values, _ = first_kind(PETERSEN, 2.0, 1.0)
    expected = (1.0, 1 / math.sqrt(3), -2 / math.sqrt(6), 0.0)
    assert values == pytest.approx(expected, abs=1e-12)


def test_first_kind_recurrence_residuals():
    rng = np.random.default_rng(7)
    seq = sequence_from_pairs([(1, 3), (2, 2), (3, 1)])  # hypercube Q_3
    off = [math.sqrt(a * b) for a, b in zip(seq.a, seq.b)]
    alphas = seq.alphas
    for x in rng.uniform(-4, 4, size=8):
        p, dp = first_kind(seq, 0.7, x)
        for k in range(1, seq.d):
            residual = off[k] * p[k + 1] - ((x - alphas[k]) * p[k] - off[k - 1] * p[k - 1])
            assert abs(residual) < 1e-12 * max(1.0, abs(p[k]), abs(p[k + 1]))
        fd = (first_kind(seq, 0.7, x + 1e-6)[0][-1] - first_kind(seq, 0.7, x - 1e-6)[0][-1]) / 2e-6
        assert dp[-1] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_eigenvalues_complete_canonical():
    for n in range(2, 13):
        lams = eigenvalues(build_jacobi(complete_seq(n), n - 2))
        assert lams == pytest.approx([-1.0, n - 1.0], abs=1e-10)


def test_eigenvalues_complete_general_tau():
    rng = np.random.default_rng(11)
    for n in (3, 8):
        for tau in rng.uniform(-5, 5, size=6):
            lams = eigenvalues(build_jacobi(complete_seq(n), tau))
            assert lams == pytest.approx(kn_closed_form(n, tau), abs=1e-9)


def test_eigenvalues_petersen():
    lams = eigenvalues(build_jacobi(PETERSEN, 2.0))
    assert lams == pytest.approx([-2.0, 1.0, 3.0], abs=1e-10)
    # cross-check: roots of the cubic (x-1)(x-3)(x+2) via numpy
    assert sorted(np.roots([1, -2, -5, 6]).real) == pytest.approx(lams, abs=1e-8)


def test_eigenvalues_count_and_order(corpus_entry):
    _, _, seq = corpus_entry
    J = build_jacobi(seq, float(canonical_tau(seq)))
    lams = eigenvalues(J)
    assert len(lams) == seq.d + 1
    assert all(y > x for x, y in zip(lams, lams[1:]))


def test_eigenvalues_tolerance_too_small():
    J = build_jacobi(complete_seq(4), 2.0)
    with pytest.raises(ToleranceTooSmallError):
        eigenvalues(J, tol=1e-30)


@pytest.mark.parametrize("tamper", ["shift", "swap"])
def test_sturm_certificate_rejects_tampered_roots(monkeypatch, tamper):
    tol = 1e-9
    J = build_jacobi(PETERSEN, 2.0)
    assert eigenvalues(J, tol) == pytest.approx([-2.0, 1.0, 3.0], abs=tol)
    original = jacobi._lapack_roots  # eigenvalues looks its solver up at each call

    def tampered(diag, off):
        roots = original(diag, off)
        if tamper == "shift":
            return roots + 10 * tol
        return roots[[1, 0, 2]]

    monkeypatch.setattr(jacobi, "_lapack_roots", tampered)
    with pytest.raises(ToleranceTooSmallError):
        eigenvalues(J, tol)


def _random_tridiagonals(seed):
    rng = np.random.default_rng(seed)
    for n in [1, 2, 3] + rng.integers(4, 300, size=60).tolist():
        diag = rng.normal(size=n) * rng.choice([1.0, 100.0])
        yield diag, np.abs(rng.normal(size=n - 1)) + 1e-3


def test_lapack_roots_are_scipys_default_roots_bit_for_bit():
    # eigenvalues solved by eigvalsh_tridiagonal's default driver before it called
    # dstevd itself: the roots, and so every printed eigenvalue, must not move
    from scipy.linalg import eigvalsh_tridiagonal, lapack

    if not hasattr(lapack, "dstevd"):
        pytest.skip("this scipy has no dstevd wrapper; eigvalsh_tridiagonal solves")
    for diag, off in _random_tridiagonals(24):
        roots = jacobi._lapack_roots(diag, off)
        assert np.array_equal(roots, eigvalsh_tridiagonal(diag, off)), len(diag)
        assert roots is not diag


def test_lapack_roots_without_the_dstevd_wrapper_solve_by_scipy(monkeypatch):
    import scipy.linalg
    from scipy.linalg import lapack

    solved = []

    def spy(diag, off):
        solved.append(len(diag))
        return eigvalsh_tridiagonal(diag, off)

    eigvalsh_tridiagonal = scipy.linalg.eigvalsh_tridiagonal
    monkeypatch.delattr(lapack, "dstevd", raising=False)
    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", spy)
    sizes = []  # size 1 needs no solver
    for diag, off in _random_tridiagonals(25):
        roots = jacobi._lapack_roots(diag, off)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        scale = max(np.abs(diag).max() + 2 * off.max(initial=0.0), 1.0)
        assert np.abs(roots - np.linalg.eigvalsh(dense)).max() <= 1e-12 * scale, len(diag)
        assert roots is not diag
        sizes.append(len(diag))
    assert solved == [n for n in sizes if n > 1] and sizes[0] == 1
    J = build_jacobi(PETERSEN, 2.0)
    assert eigenvalues(J) == pytest.approx([-2.0, 1.0, 3.0], abs=1e-12)
    assert solved[-1] == 3


def test_eigenvalues_hamming_near_closed_form():
    # H(60,2) spans [-60, 60]: the roots are within 1e-12 of D - 2k
    dim = 60
    seq = sequence_from_pairs([(k, dim - k + 1) for k in range(1, dim + 1)])
    lams = eigenvalues(build_jacobi(seq, float(canonical_tau(seq))))
    assert np.abs(np.array(lams) - np.arange(-dim, dim + 1, 2)).max() < 1e-12


def test_eigenvalue_residual_certificate(corpus_entry):
    _, _, seq = corpus_entry
    rng = np.random.default_rng(23)
    for tau in rng.uniform(-4, 4, size=3):
        J = build_jacobi(seq, tau)
        scale = max(map(abs, J.diag)) + 2 * max(J.offdiag)
        for lam in eigenvalues(J):
            values, _ = first_kind(seq, tau, lam)
            coeff_scale = max(1.0, max(abs(v) for v in values[:-1]))
            assert abs(values[-1]) < 1e-8 * coeff_scale * max(1.0, scale)
            # componentwise eigenvector identity J phi = lam phi
            phi = np.array(values[:-1])
            residual = J.to_dense() @ phi - lam * phi
            assert np.abs(residual).max() < 1e-8 * max(1.0, scale) * coeff_scale


def test_eigenfunction_coeffs_examples():
    # at an eigenvalue, P_{d+1}^(tau) vanishes and P_0 .. P_d are its eigenvector's coordinates
    for n in (2, 5, 9):
        values, _ = first_kind(complete_seq(n), float(n - 2), float(n - 1))
        assert values == pytest.approx([1.0, math.sqrt(n - 1), 0.0], abs=1e-9)
    values, _ = first_kind(PETERSEN, 2.0, 3.0)
    assert values == pytest.approx([1.0, math.sqrt(3), math.sqrt(6), 0.0], abs=1e-9)
    # an eigenvalue at zero forces the second coefficient to vanish
    c4 = sequence_from_pairs([(1, 2), (2, 1)])
    assert 0.0 == pytest.approx(eigenvalues(build_jacobi(c4, 0.0))[1], abs=1e-10)
    values, _ = first_kind(c4, 0.0, 0.0)
    assert values[0] == 1.0 and values[1] == 0.0


def test_eigenfunction_coeffs_rejects_non_eigenvalue():
    # away from the spectrum P_{d+1}^(tau) does not vanish: it is det(x - J_tau)
    # over the product of the off-diagonal entries
    J = build_jacobi(PETERSEN, 2.0)
    assert 2.5 not in eigenvalues(J)
    values, _ = first_kind(PETERSEN, 2.0, 2.5)
    expected = np.linalg.det(2.5 * np.eye(3) - J.to_dense()) / math.prod(J.offdiag)
    assert values[-1] == pytest.approx(expected, rel=1e-12)
    assert abs(values[-1]) > 0.5


def measure_atoms(seq, tau):
    """(eigenvalue, weight, eigenvalue, weight, ...) of the measure of J_tau."""
    return [x for a in spectral_measure(seq, tau=tau).atoms for x in (a.eigenvalue, a.weight)]


def test_measure_weight_examples():
    for n in (2, 4, 7):
        expected = [-1.0, (n - 1) / n, n - 1.0, 1 / n]
        assert measure_atoms(complete_seq(n), n - 2.0) == pytest.approx(expected, abs=1e-12)
    expected = [-2.0, 2 / 5, 1.0, 1 / 2, 3.0, 1 / 10]
    assert measure_atoms(PETERSEN, 2.0) == pytest.approx(expected, abs=1e-12)
    edge = sequence_from_pairs([(1, 1)])
    assert measure_atoms(edge, 0.0) == pytest.approx([-1.0, 0.5, 1.0, 0.5], abs=1e-12)


def test_weight_gate_rejects_off_spectrum_point():
    from drgjacobi import jacobi

    with pytest.raises(WeightMismatchError, match=r"at 2\.5$"):
        jacobi._checked_weights(build_jacobi(PETERSEN, 2.0), np.array([2.5]))


def test_weight_formulas_agree_at_roots(corpus_entry):
    _, _, seq = corpus_entry
    rng = np.random.default_rng(31)
    taus = [float(canonical_tau(seq))] + list(rng.uniform(-5, 5, size=5))
    for tau in taus:
        for lam in eigenvalues(build_jacobi(seq, tau)):
            direct, via_derivative = weight_formulas(seq, tau, lam)
            assert abs(direct - via_derivative) <= 1e-9 * max(direct, abs(via_derivative))


def test_spectral_measure_examples():
    for n in (2, 4, 6, 12):
        m = spectral_measure(complete_seq(n), vertex_count=n)
        assert [a.multiplicity for a in m.atoms] == [n - 1, 1]
        assert [a.eigenvalue for a in m.atoms] == pytest.approx([-1.0, n - 1.0], abs=1e-10)
    m = spectral_measure(PETERSEN, vertex_count=10)
    assert [a.multiplicity for a in m.atoms] == [4, 5, 1]
    assert [a.weight for a in m.atoms] == pytest.approx([0.4, 0.5, 0.1], abs=1e-10)


def test_spectral_measure_weights_sum_to_one(corpus_entry):
    _, g, seq = corpus_entry
    m = spectral_measure(seq, vertex_count=g.vertex_count)
    assert sum(a.weight for a in m.atoms) == pytest.approx(1.0, abs=1e-10)
    assert sum(a.multiplicity for a in m.atoms) == g.vertex_count


def test_spectral_measure_rejects_wrong_vertex_count():
    with pytest.raises(MultiplicityNotIntegralError):
        spectral_measure(PETERSEN, vertex_count=7)


def test_spectral_measure_validation():
    with pytest.raises(JacobiError):
        SpectralMeasure((SpectralAtom(0.0, 0.5), SpectralAtom(0.0, 0.5)))
    with pytest.raises(JacobiError):
        SpectralMeasure((SpectralAtom(0.0, 0.5), SpectralAtom(1.0, 0.2)))
    with pytest.raises(JacobiError):
        SpectralMeasure((SpectralAtom(0.0, 0.5, 1), SpectralAtom(1.0, 0.5, 3)))


def test_check_interlacing_k3():
    seq = complete_seq(3)
    assert interlaced(seq, 0.0, 1.0)
    e0 = eigenvalues(build_jacobi(seq, 0.0))
    e1 = eigenvalues(build_jacobi(seq, 1.0))
    assert e0 == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-10)
    assert e1 == pytest.approx([-1.0, 2.0], abs=1e-10)


def test_check_interlacing_requires_distinct_tau():
    # J_tau against itself: the merged order alternates, but every gap is 0
    spectrum = eigenvalues(build_jacobi(PETERSEN, 1.0))
    assert spectra_interlace(spectrum, spectrum) == (False, 0.0)
    assert not interlaced(PETERSEN, 1.0, 1.0)


def test_check_interlacing_random_taus(corpus_entry):
    _, _, seq = corpus_entry
    rng = np.random.default_rng(43)
    for _ in range(4):
        tau1, tau2 = rng.uniform(-5, 5, size=2)
        if tau1 == tau2:
            continue
        assert interlaced(seq, float(tau1), float(tau2))


def test_spectra_disjoint_across_tau(corpus_entry):
    _, _, seq = corpus_entry
    e1 = eigenvalues(build_jacobi(seq, 0.25))
    e2 = eigenvalues(build_jacobi(seq, 1.75))
    assert min(abs(x - y) for x in e1 for y in e2) > 1e-9


def test_cd_kernel_examples():
    assert christoffel_darboux(PETERSEN, 0, 1.3, -0.4)[0] == 1.0
    assert christoffel_darboux(PETERSEN, 1, 3.0, 1.0)[0] == pytest.approx(2.0, abs=1e-12)
    # confluent case equals the Christoffel function denominator
    values, _ = first_kind(PETERSEN, 2.0, 3.0)
    assert christoffel_darboux(PETERSEN, 1, 3.0, 3.0) == (
        pytest.approx(sum(v * v for v in values[:2]), abs=1e-12), None
    )


def test_cd_kernel_two_forms_agree(corpus_entry):
    _, _, seq = corpus_entry
    rng = np.random.default_rng(57)
    for _ in range(5):
        x, y = rng.uniform(-4, 4, size=2)
        for k in range(seq.d):
            total, ratio = christoffel_darboux(seq, k, float(x), float(y))
            assert abs(total - ratio) <= 1e-8 * max(1.0, abs(total), abs(ratio)), (k, x, y)


def test_jacobi_json_round_trip():
    J = build_jacobi(PETERSEN, 2.0)
    assert J.to_json() == {
        "size": 3,
        "diag": [0.0, 0.0, 2.0],
        "offdiag": [math.sqrt(3), math.sqrt(2)],
        "tau": 2.0,
    }
