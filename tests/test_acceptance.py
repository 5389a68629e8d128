"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass. Tolerances are fixed here, not tuned at runtime.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from drgjacobi import (
    build_jacobi,
    canonical_tau,
    certify_distance_regular,
    check_interlacing,
    degree_k,
    degree_sequence,
    density_moment,
    eigenvalues,
    graph_from_name,
    isoscycle_count,
    isoscycle_numbers,
    moment,
    spectral_measure,
    spectral_radius_tree,
    tree_sequence,
    truncated_jacobi,
    verify_recurrence,
    weight_formulas,
)
from drgjacobi.oracle import (
    checked_distances,
    dense_adjacency,
    dense_symmetric_eigen,
    matrix_poly_firstkind,
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {label}")
        raise
    else:
        print(f"criterion {num:2d}: PASS  {label}")


def test_criterion_1_complete_graph_canonical_spectra():
    with criterion(1, "K_n canonical spectra and weights (n = 2..12, 1e-10)"):
        start = time.perf_counter()
        for n in range(2, 13):
            seq = certify_distance_regular(graph_from_name(f"complete:{n}"))
            lams = eigenvalues(build_jacobi(seq, float(n - 2)))
            assert lams == pytest.approx([-1.0, float(n - 1)], abs=1e-10)
            measure = spectral_measure(seq, vertex_count=n)
            weights = [a.weight for a in measure.atoms]
            assert weights == pytest.approx([(n - 1) / n, 1 / n], abs=1e-10)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_complete_graph_general_tau_closed_form():
    with criterion(2, "K_n general-tau closed form (20 random tau, 1e-9)"):
        rng = np.random.default_rng(2024)
        for n in (2, 5, 9, 12):
            seq = certify_distance_regular(graph_from_name(f"complete:{n}"))
            for tau in rng.uniform(-5.0, 5.0, size=20):
                lams = eigenvalues(build_jacobi(seq, float(tau)))
                disc = math.sqrt(tau * tau + 4.0 * (n - 1))
                expected = [tau / 2 - disc / 2, tau / 2 + disc / 2]
                assert lams == pytest.approx(expected, abs=1e-9)


def test_criterion_3_petersen_end_to_end():
    with criterion(3, "Petersen end-to-end vs dense eigensolver (1e-7)"):
        start = time.perf_counter()
        g = graph_from_name("petersen")
        seq = certify_distance_regular(g)
        assert seq.a == (1, 1) and seq.b == (3, 2)
        assert canonical_tau(seq) == 2
        measure = spectral_measure(seq, vertex_count=10)
        assert [a.eigenvalue for a in measure.atoms] == pytest.approx(
            [-2.0, 1.0, 3.0], abs=1e-10
        )
        assert [a.multiplicity for a in measure.atoms] == [4, 5, 1]
        dense = dense_symmetric_eigen(dense_adjacency(g).astype(float))
        assert len(dense.clusters) == 3
        for (value, mult), atom in zip(dense.clusters, measure.atoms):
            assert abs(value - atom.eigenvalue) < 1e-7
            assert mult == atom.multiplicity
        assert time.perf_counter() - start < 1.0


def test_criterion_4_recurrence_exact(corpus):
    with criterion(4, "distance-matrix recurrence exact in integers (zero tolerance)"):
        for name, g, seq in corpus:
            check = verify_recurrence(g, seq)
            assert check.ok, (name, check.mismatch)


def test_criterion_5_minimal_polynomial(corpus):
    with criterion(5, "minimal polynomial at tau*; shifted tau gives the top basis matrix (1e-8)"):
        for name, g, seq in corpus:
            tau_star = float(canonical_tau(seq))
            at_star, shifted = matrix_poly_firstkind(g, seq, (tau_star, tau_star + 1.0))
            assert np.abs(at_star).max() < 1e-8, name
            # shifting tau by +1 must produce (tau* - tau) = -1 times A_d/sqrt(deg_d)
            top = (checked_distances(g) == seq.d) / math.sqrt(degree_sequence(seq)[-1])
            assert np.abs(shifted - (-1.0) * top).max() < 1e-8, name
            assert np.abs(shifted).max() > 1e-3, name  # genuinely nonzero


def test_criterion_6_weight_formula_consistency(corpus):
    with criterion(6, "sum vs derivative weight formulas (5 random tau, 1e-9 relative)"):
        rng = np.random.default_rng(66)
        for name, _, seq in corpus:
            taus = [float(canonical_tau(seq))] + [float(t) for t in rng.uniform(-5, 5, size=5)]
            for tau in taus:
                for lam in eigenvalues(build_jacobi(seq, tau)):
                    direct, via_derivative = weight_formulas(seq, tau, lam)
                    gap = abs(direct - via_derivative)
                    assert gap <= 1e-9 * max(abs(direct), abs(via_derivative)), (name, tau, lam)


def test_criterion_7_interlacing(corpus):
    with criterion(7, "random tau pairs: disjoint (gap > 1e-9) and strictly interlaced"):
        rng = np.random.default_rng(77)
        for name, _, seq in corpus:
            done = 0
            while done < 10:
                tau1, tau2 = (float(t) for t in rng.uniform(-5.0, 5.0, size=2))
                if tau1 == tau2:
                    continue
                assert check_interlacing(seq, tau1, tau2), (name, tau1, tau2)
                done += 1


def test_criterion_8_tree_moments():
    with criterion(8, "tree moments: exact vs Kesten-McKay quadrature (order <= 12, 1e-6)"):
        for n in (2, 3, 4):
            gen = tree_sequence(n)
            for k in range(13):
                exact = moment(gen, k)
                quadrature = density_moment(n, k)
                assert abs(exact - quadrature) <= 1e-6, (n, k)
                if n == 2:
                    expected = math.comb(k, k // 2) if k % 2 == 0 else 0
                    assert exact == expected


def test_criterion_9_truncated_spectral_radius():
    with criterion(9, "m = 200 truncation radius within [2 sqrt(n-1) - 0.05, +1e-9]"):
        start = time.perf_counter()
        for n in (2, 3, 4):
            limit = spectral_radius_tree(n)
            top = eigenvalues(truncated_jacobi(tree_sequence(n), 200))[-1]
            assert limit - 0.05 <= top <= limit + 1e-9, (n, top)
        assert time.perf_counter() - start < 1.0


def test_criterion_10_count_formulas(corpus):
    with criterion(10, "per-vertex BFS counts equal closed-form degrees and isoscycles"):
        for name, g, seq in corpus:
            degrees = degree_sequence(seq)
            isoscycles = isoscycle_numbers(seq)
            for v in range(g.vertex_count):
                for k in range(seq.d + 1):
                    assert degree_k(g, v, k) == degrees[k], (name, v, k)
                    assert isoscycle_count(g, v, k) == isoscycles[k], (name, v, k)
