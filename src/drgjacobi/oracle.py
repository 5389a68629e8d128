"""Brute-force dense reference implementations used for cross-checking.

Everything here is deliberately independent of the tridiagonal Sturm machinery and
of certification's neighbour counts. LAPACK (numpy.linalg.eigvalsh) finds the
eigenvalues alone of the adjacency matrix A, built from Graph.csr, held to two trace
identities. checked_distances checks the entries of the one table, Graph.distances:
0 on the diagonal, 1..n-1 off it. recurrence_pass checks on it, exactly, the distance
recurrence, with A_k = (dist == k) one k at a time, and so proves, by induction on k,
that the table is the distance matrix: A_0 = I, equation 0 reads A_1 = A, equation k
fixes A_{k+1} as a_{k+1} >= 1, and equation d leaves no pair beyond distance d. That
proof shares no code with the BFS that filled the table. Its equations below d are
A_k = p_k(A); verify then reads each norm(A_k) as max |p_k| over A's spectrum.
Dense paths are desk-scale only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .intersection import IntersectionSequence, degree_sequence

MAX_DENSE_VERTICES = 2000


class OracleError(Exception):
    pass


class DenseSizeError(OracleError):
    def __init__(self, n: int):
        super().__init__(
            f"dense oracle paths support at most {MAX_DENSE_VERTICES} vertices, got {n}"
        )


class BasisMismatchError(OracleError):
    def __init__(self, k: int, i: int, j: int, got: float, expected: float):
        self.k, self.i, self.j = k, i, j
        super().__init__(
            f"P_{k}(A) * sqrt(deg_{k}) entry ({i}, {j}) is {got!r}, expected {expected!r}"
        )


def _check_size(n: int):
    if n > MAX_DENSE_VERTICES:
        raise DenseSizeError(n)


def dense_adjacency(g: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix as float64, the dtype every solver reads, built from g.csr."""
    _check_size(g.vertex_count)
    n = g.vertex_count
    indptr, indices = g.csr
    adj = np.zeros((n, n))
    adj[np.repeat(np.arange(n), np.diff(indptr)), indices] = 1
    return adj


def checked_distances(g: Graph) -> np.ndarray:
    """g.distances, after the size check and an entry check: D_jj = 0 and 1 <= D_ij <= n - 1
    for i != j, so each entry indexes recurrence_pass's coefficients; that pass proves the
    table is g's distance matrix. OracleError names the first bad (i, j), row-major.
    """
    _check_size(g.vertex_count)
    dist = g.distances
    n = len(dist)
    ok = (dist >= 1) & (dist < n)
    np.fill_diagonal(ok, dist.diagonal() == 0)
    if not ok.all():
        i, j = map(int, np.argwhere(~ok)[0])
        want = "0" if i == j else f"in 1..{n - 1}"
        raise OracleError(f"distance table entry ({i}, {j}) is {dist[i, j]}, not {want}")
    return dist


def _symmetric(M: np.ndarray) -> np.ndarray:
    """Float copy of M after the squareness, finiteness, symmetry and size checks."""
    a = np.array(M, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise OracleError("matrix must be square")
    if not np.isfinite(a).all():
        raise OracleError("matrix entries must be finite")
    if not np.array_equal(a, a.T):  # exact: eigvalsh reads one triangle only
        raise OracleError("matrix must be symmetric")
    _check_size(n)
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Sorted eigenvalues and their clustered multiplicities."""

    eigenvalues: np.ndarray
    clusters: tuple[tuple[float, int], ...]


def dense_symmetric_eigen(M: np.ndarray) -> EigenDecomposition:
    """Eigenvalues of symmetric M by LAPACK (numpy.linalg.eigvalsh), checked and clustered.

    LAPACK's theta are exact for M + E, ||E||_2 <= p(n) eps ||M||_2, so sum(theta^k) misses tr M
    (k = 1) and ||M||_F^2 (k = 2) by about k n p(n) eps r^k at most, r = max row sum |M| >= ||M||_2.
    A miss beyond 8 n eps r^k (8 for 2 p(n); misses on the test corpus and dense ladder peak at
    1.6 n eps r^k), or NaN, raises OracleError. Multiplicities cluster at gap 1e-6 * max|theta|.
    """
    a = _symmetric(M)
    values = np.linalg.eigvalsh(a)
    unit, r = 8 * len(a) * np.finfo(float).eps, float(np.abs(a).sum(axis=1).max())
    for k, rhs, exact in ((1, "tr M", a.trace()), (2, "||M||_F^2", (a * a).sum())):
        miss, bound = abs(float((values**k).sum() - exact)), unit * r**k
        if not miss <= bound:  # a NaN fails too
            raise OracleError(f"sum(theta^{k}) = {rhs} misses by {miss:.3e} > {bound:.3e}")

    gap = 1e-6 * max(1.0, float(np.abs(values).max()))
    blocks = np.split(values, np.flatnonzero(np.diff(values) > gap) + 1)
    return EigenDecomposition(values, tuple((float(b.mean()), len(b)) for b in blocks))


def recurrence_pass(g: Graph, seq: IntersectionSequence, adj: np.ndarray):
    """Check A A_k = a_{k+1} A_{k+1} + alpha_k A_k + b_k A_{k-1} exactly, k = 0..d.

    verify_recurrence's equations, by code sharing nothing with it: A_k is T_k =
    (dist == k) on checked_distances(g), the left side its float64 product with adj =
    dense_adjacency(g), exact as its entries are counts below n.

    The pass proves the table. With E_m the distance-m matrix: T_0 = I by the entry
    check; equation 0 reads A = T_1, as a_1 = 1 and alpha_0 = b_0 = 0; given T_m = E_m
    for m <= k, equation k, as a_{k+1} >= 1, forces T_{k+1} = 1 where d(i, j) = k + 1,
    since (A E_k)_ij >= 1 there, and 0 where d(i, j) >= k + 2, since both sides are 0
    there. Equation d leaves no pair beyond distance d; g is connected, so the table is
    E. Likewise, equations 0..k hold iff A_m = p_m(A) for m <= k + 1.

    Returns (mismatch, basis_error, head): the first failing (k, i, j, lhs, rhs), by
    k then row-major, or None; when that k is below d, the pass stops there, head is
    None and basis_error is the identity's failure at k + 1, at the first largest
    |lhs - rhs|, its value rounded once. Otherwise head = A A_d - b_d A_{d-1}, and
    P^tau_{d+1}(A) sqrt(deg_d) = head - tau A_d.
    """
    dist = checked_distances(g)
    n, d = len(dist), seq.d
    lower, upper, mismatch = (0, *seq.b), (*seq.a, 0), None  # b_k and a_{k+1}, 0 beyond 1..d
    for k in range(d + 1):
        lhs = adj @ (dist == k) if k else adj  # A A_0 = A
        coef = np.zeros(max(n, d + 2) + 1)  # by distance, which stays below n; b_0 goes last
        coef[[k - 1, k, k + 1]] = lower[k], seq.alphas[k], upper[k]
        rhs = coef[dist]
        if (bad := lhs != rhs).any():
            i, j = divmod(int(np.flatnonzero(bad)[0]), n)
            mismatch = (k, i, j, int(lhs[i, j]), int(rhs[i, j]))
            if k < d:
                i, j = divmod(int(np.abs(lhs - rhs).argmax()), n)
                expected = int(dist[i, j] == k + 1)
                got = (int(lhs[i, j]) - int(rhs[i, j]) + upper[k] * expected) / upper[k]
                return mismatch, BasisMismatchError(k + 1, i, j, got, float(expected)), None
    return mismatch, None, lhs - lower[d] * (dist == d - 1)


def matrix_poly_firstkind(
    g: Graph, seq: IntersectionSequence, taus: Sequence[float]
) -> list[np.ndarray]:
    """Evaluate P_{n+1}^(tau) at the dense adjacency matrix, for each tau.

    Each result is recurrence_pass's (head - tau A_d) / sqrt(deg_d), bitwise the
    same whatever the other taus, and the pass's BasisMismatchError is raised.
    When equation d holds, a result is (degree - a_d - tau) A_d / sqrt(deg_d).
    """
    _, basis_error, head = recurrence_pass(g, seq, dense_adjacency(g))
    if (diam := int(g.distances.max())) != seq.d:
        raise OracleError(f"sequence diameter {seq.d} does not match graph diameter {diam}")
    if basis_error is not None:
        raise basis_error
    top = g.distances == seq.d
    return [(head - tau * top) / math.sqrt(degree_sequence(seq)[-1]) for tau in taus]
