"""Brute-force dense reference implementations used for cross-checking.

Everything here is deliberately independent of the tridiagonal Sturm machinery.
LAPACK (numpy.linalg.eigvalsh) finds the eigenvalues alone of the adjacency
matrix built from Graph.csr, held to two trace identities. Distances come from
one table, Graph.distances, returned by checked_distances only after a check
that shares no code with the BFS that filled it: the Bellman identity, which on
a connected graph holds for the distance matrix alone. Each A_k is read off it
as dist == k, one k at a time. Agreement with the main code paths is therefore
evidence, not tautology. verify solves A once: given the walk's A_k = p_k(A),
each norm(A_k) is max |p_k| over that spectrum; operator_norm is the tests'
per-matrix reference. Dense paths are desk-scale only (<= 2000 vertices).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _row_blocks
from .intersection import IntersectionSequence, degree_sequence

MAX_DENSE_VERTICES = 2000
# Largest accepted |P_k(A) sqrt(deg_k) - A_k| entry of the first-kind walk.
BASIS_TOL = 1e-10


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
    """g.distances, after the size check and a check that it is g's distance matrix.

    Checks D_jj = 0 and, for i != j, min_{u ~ i} D_uj = D_ij - 1 (the
    Bellman identity) by one minimum over the rows of dist at the
    neighbors of i, with D_ij - 1 in int64 so that no entry wraps. On a
    connected graph these fix D: by induction on d(i, j), a neighbor on
    a geodesic gives D_ij <= d(i, j); and stepping to a minimising
    neighbor lowers D by exactly one, so, as D is bounded, the steps
    reach j after D_ij of them, and d(i, j) <= D_ij. OracleError names
    the first failing (i, j) in row-major order.
    """
    _check_size(g.vertex_count)
    dist = g.distances
    n = g.vertex_count
    indptr, indices = g.csr
    for start, stop in _row_blocks(n, n * max(map(len, g.adjacency))):
        rows = dist[start:stop]
        lo = indptr[start]
        nearest = np.minimum.reduceat(dist[indices[lo : indptr[stop]]], indptr[start:stop] - lo)
        ok = nearest == np.subtract(rows, 1, dtype=np.int64)  # at i != j
        diagonal = (np.arange(stop - start), np.arange(start, stop))
        ok[diagonal] = rows[diagonal] == 0
        if not ok.all():
            i, j = map(int, np.argwhere(~ok)[0])
            raise OracleError(f"distance table fails the Bellman identity at ({start + i}, {j})")
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


def matrix_poly_firstkind(
    g: Graph, seq: IntersectionSequence, taus: Sequence[float]
) -> list[np.ndarray]:
    """Evaluate P_{n+1}^(tau) at the dense adjacency matrix, for each tau.

    One walk of the recurrence serves every tau: only its last step
    reads tau, so each result is bitwise what a walk for that tau alone
    gives. En route the walk asserts P_k(A) * sqrt(deg_k) = A_k
    entrywise from k = 2, with A_k read as dist == k from
    checked_distances(g) (within BASIS_TOL, BasisMismatchError
    otherwise): a checked table is the identity at k = 0 and, at k = 1,
    the adjacency of g.csr, which A is built from. A result is the zero
    matrix exactly when tau = degree - a_d; otherwise it is
    (degree - a_d - tau) times the normalized top distance matrix.
    """
    dist = checked_distances(g)
    diam = int(dist.max())
    if diam != seq.d:
        raise OracleError(f"sequence diameter {seq.d} does not match graph diameter {diam}")
    adj = dense_adjacency(g)
    off = [math.sqrt(a * b) for a, b in zip(seq.a, seq.b)]
    degrees = degree_sequence(seq)
    alphas = seq.alphas

    def check_basis(k: int, poly_of_a: np.ndarray):
        scale = math.sqrt(degrees[k])
        delta = poly_of_a * scale  # the one n x n float temporary per k
        np.subtract(delta, dist == k, out=delta)
        np.abs(delta, out=delta)
        if delta.max() > BASIS_TOL:
            i, j = map(int, np.unravel_index(int(delta.argmax()), delta.shape))
            got = float(poly_of_a[i, j] * scale)
            raise BasisMismatchError(k, i, j, got, float(dist[i, j] == k))

    p_prev = np.eye(g.vertex_count)
    p_cur = adj / off[0]
    for k in range(1, seq.d):
        p_next = (adj @ p_cur - alphas[k] * p_cur - off[k - 1] * p_prev) / off[k]
        p_prev, p_cur = p_cur, p_next
        check_basis(k + 1, p_cur)
    head = adj @ p_cur
    tail = off[seq.d - 1] * p_prev
    return [head - tau * p_cur - tail for tau in taus]


def operator_norm(M: np.ndarray) -> float:
    """Spectral radius of a symmetric matrix: max |eigenvalue| by LAPACK."""
    return float(np.abs(np.linalg.eigvalsh(_symmetric(M))).max())
