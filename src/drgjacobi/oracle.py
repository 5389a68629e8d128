"""Brute-force reference implementations used for cross-checking.

Everything here is deliberately independent of the tridiagonal Sturm machinery and
of certification's neighbour counts. LAPACK (numpy.linalg.eigvalsh) finds the
eigenvalues alone of the adjacency matrix A, built from Graph.csr, held to two trace
identities. checked_distances checks the entries of the one table, Graph.distances:
0 on the diagonal, 1..n-1 off it. recurrence_pass checks on it, exactly, the distance
recurrence A A_k = a_{k+1} A_{k+1} + alpha_k A_k + b_k A_{k-1}, A_k = (dist == k),
and so proves, by induction on k, that the table is the distance matrix: A_0 = I,
equation 0 reads A_1 = A, equation k fixes A_{k+1} as a_{k+1} >= 1, and equation d
leaves no pair beyond distance d. Entry (i, j) of equation k counts the neighbours u
of i with D_uj = k, so the pass takes one of two routes by cost (_gather_pays): one
exact gather of the table's rows at each vertex's neighbours, in O(n arcs), on
regular graphs with d n^2 / arcs >= GATHER_MIN_RATIO, such as cycles and
hypercubes; or d dense products with A, in O(d n^3), on denser ones such as
complete and complete bipartite graphs. Both check the same equations entry by
entry, so the induction holds on either, and a failure is reported from one dense
product at its least failing k. Neither shares code with the BFS that filled the
table. The equations below d are A_k = p_k(A); verify then reads each norm(A_k) as
max |p_k| over A's spectrum. Dense paths are capped at MAX_DENSE_VERTICES.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _row_blocks
from .intersection import IntersectionSequence, degree_sequence

MAX_DENSE_VERTICES = 2000
# recurrence_pass's crossover in d n^2 / arcs: at and above it, on regular graphs,
# the neighbour gather checks the recurrence in place of d dense products. On a
# 2-core VM with one BLAS thread, the dense products were faster up to 31 (H(2,30),
# 900 vertices) and the gather from 43 (H(3,6)) on; on graphs of 32 vertices or
# fewer, each took 0.03-0.2 ms at any ratio.
GATHER_MIN_RATIO = 32


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


def _gather_pays(g: Graph, d: int) -> bool:
    """True iff recurrence_pass checks by the neighbour gather, not by d dense products.

    It does on regular graphs with d n^2 >= GATHER_MIN_RATIO arcs: the dense pass
    takes d n^3 multiply-adds, the gather n arcs codes. A graph that is not regular
    fails equation 0 or 1, and takes the dense pass.
    """
    indptr, indices = g.csr
    n = g.vertex_count
    regular = bool((indptr[1:] - indptr[:-1] == indptr[1]).all())
    return regular and d * n * n >= GATHER_MIN_RATIO * len(indices)


def _least_failing_equation(dist: np.ndarray, g: Graph, seq: IntersectionSequence):
    """The least k whose equation fails at some entry, by one exact neighbour gather, or None.

    g is regular. Entry (i, j) of equation k counts the neighbours u of i with
    D_uj = k, and asks for a_{k+1}, alpha_k or b_k of them as D_ij is k + 1, k or
    k - 1, and for none otherwise. So, for a pair at table distance m, each
    neighbour u adds a code chosen by D_uj - m: 1 for -1, B for 0, B^2 for +1 and
    B^3 for a stray, with B one more than the degree and than b_1, which bounds
    every coefficient. Each count is below B, so the sum is a_m + alpha_m B +
    b_{m+1} B^2 (a_{d+1} = b_{d+1} = 0, and each digit 0 past that) iff the three
    counts match and no neighbour strays, and then every equation holds at (i, j).
    If every equation holds everywhere, the table is the distance matrix
    (recurrence_pass), so no neighbour strays and every sum matches: the gather
    fails iff the dense pass does. A failing sum's digits and strays name the
    equations that fail at its pair; the least up to d is the answer. Each block
    of rows gathers dist[indices] from g.csr: nothing here reads certification's
    neighbour codes or the adjacency operator.
    """
    n, d = len(dist), seq.d
    indptr, indices = g.csr
    degree = int(indptr[1])
    base = max(degree, seq.degree) + 1
    dtype = np.int32 if degree * base**3 < 2**31 else np.int64  # the largest sum: all strays
    # by D_uj - m + 2, clipped to 0..4
    codes = np.array([base**3, 1, base, base * base, base**3], dtype=dtype)
    digits = np.zeros((3, max(n, d + 2)), dtype=np.int64)  # a_m, alpha_m and b_{m+1}, by m
    digits[0, 1 : d + 1], digits[1, : d + 1], digits[2, :d] = seq.a, seq.alphas, seq.b
    expected = (digits * base ** np.arange(3)[:, None]).sum(axis=0).astype(dtype)
    least = d + 1
    # Blocks of BLOCK_ENTRIES / 2 distances keep a block's int32 codes within 128 KiB:
    # whole BLOCK_ENTRIES raised a verify-battery pass's peak RSS by about 0.3 MB, and
    # took about as long on hypercube:7..10 and cycle:100..2000.
    for start, stop in _row_blocks(n, 2 * degree * n):
        m = dist[start:stop]
        near = dist[indices[indptr[start] : indptr[stop]]].reshape(stop - start, degree, n)
        sums = codes.take(near - (m - 2)[:, None], mode="clip").sum(axis=1, dtype=dtype)
        bad = sums != expected.take(m)
        if bad.any():
            r, j = np.nonzero(bad)
            mm = m[r, j].astype(np.intp)
            ks = mm + np.arange(-1, 2)[:, None]  # the equation each digit counts for
            got = sums[r, j].astype(np.int64) // base ** np.arange(3)[:, None] % base
            at = near[r, :, j]  # the D_uj of the failing pairs
            strays = np.abs(at - mm[:, None]) > 1
            fails = got != digits[:, mm]
            least = min(least, int(ks[fails].min(initial=least)))
            least = min(least, int(at[strays].min(initial=least)))
    return least if least <= d else None  # there are no equations beyond d


def _equation(dist: np.ndarray, adj: np.ndarray, seq: IntersectionSequence, k: int):
    """Both sides of equation k: the float64 product A A_k, and the coefficients read at D."""
    lhs = adj @ (dist == k) if k else adj  # A A_0 = A
    coef = np.zeros(max(len(dist), seq.d + 2) + 1)  # by distance, below n; b_0 goes last
    coef[[k - 1, k, k + 1]] = (0, *seq.b)[k], seq.alphas[k], (*seq.a, 0)[k]
    return lhs, coef[dist]


def _dense_pass(dist: np.ndarray, adj: np.ndarray, seq: IntersectionSequence, ks):
    """Equations ks, in order, by dense products: (mismatch, basis_error, head).

    mismatch is the first failing (k, i, j, lhs, rhs), by k then row-major, or
    None; when that k is below d, the pass stops there, head is None and
    basis_error is the identity's failure at k + 1, at the first largest
    |lhs - rhs|, its value rounded once. Otherwise head = A A_d - b_d A_{d-1} from
    the last product, k = d, and P^tau_{d+1}(A) sqrt(deg_d) = head - tau A_d.
    """
    n, d, mismatch = len(dist), seq.d, None
    for k in ks:
        lhs, rhs = _equation(dist, adj, seq, k)
        if (bad := lhs != rhs).any():
            i, j = divmod(int(np.flatnonzero(bad)[0]), n)
            mismatch = (k, i, j, int(lhs[i, j]), int(rhs[i, j]))
            if k < d:
                a_next = seq.a[k]  # a_{k+1}
                i, j = divmod(int(np.abs(lhs - rhs).argmax()), n)
                expected = int(dist[i, j] == k + 1)
                got = (int(lhs[i, j]) - int(rhs[i, j]) + a_next * expected) / a_next
                return mismatch, BasisMismatchError(k + 1, i, j, got, float(expected)), None
    return mismatch, None, lhs - seq.b[d - 1] * (dist == d - 1)


def recurrence_pass(g: Graph, seq: IntersectionSequence, adj: np.ndarray):
    """Check A A_k = a_{k+1} A_{k+1} + alpha_k A_k + b_k A_{k-1} exactly, k = 0..d.

    The distance recurrence of a distance-regular graph, checked on
    checked_distances(g), A_k = (dist == k), by code that shares nothing with
    certification's neighbour counts. ``_gather_pays`` picks the route: one exact
    neighbour gather over g.csr (``_least_failing_equation``), in O(n arcs), or d
    dense float64 products with adj = dense_adjacency(g), exact as their entries
    are counts below n, in O(d n^3). Both check the same equations entry by entry.
    When the gather finds a failure, one dense product at its least failing k
    reports it, as the dense route does at that k.

    The pass proves the table. With E_m the distance-m matrix: T_0 = I by the entry
    check; equation 0 reads A = T_1, as a_1 = 1 and alpha_0 = b_0 = 0; given T_m = E_m
    for m <= k, equation k, as a_{k+1} >= 1, forces T_{k+1} = 1 where d(i, j) = k + 1,
    since (A E_k)_ij >= 1 there, and 0 where d(i, j) >= k + 2, since both sides are 0
    there. Equation d leaves no pair beyond distance d; g is connected, so the table is
    E. Likewise, equations 0..k hold iff A_m = p_m(A) for m <= k + 1.

    Returns (mismatch, basis_error, residuals), mismatch and basis_error as
    ``_dense_pass`` gives them. residuals is None when basis_error is not, and
    otherwise the largest |entry| of P^tau_{d+1}(A) at tau = degree - a_d, and of
    its difference from the predicted -A_d / sqrt(deg_d) at tau + 1: exactly 0.0
    both when equation d holds, with no n x n work on the gather route.
    """
    dist = checked_distances(g)
    ks = range(seq.d + 1)
    if _gather_pays(g, seq.d):
        if (k := _least_failing_equation(dist, g, seq)) is None:
            return None, None, (0.0, 0.0)
        ks = [k]
    mismatch, basis_error, head = _dense_pass(dist, adj, seq, ks)
    if basis_error is not None:
        return mismatch, basis_error, None
    top, scale = dist == seq.d, math.sqrt(degree_sequence(seq)[-1])
    residual = float(np.abs(head - seq.tau_star * top).max()) / scale
    shift_residual = float(np.abs(head - (seq.tau_star + 1) * top + top).max()) / scale
    return mismatch, None, (residual, shift_residual)


def matrix_poly_firstkind(
    g: Graph, seq: IntersectionSequence, taus: Sequence[float]
) -> list[np.ndarray]:
    """Evaluate P_{n+1}^(tau) at the dense adjacency matrix, for each tau.

    Each result is (head - tau A_d) / sqrt(deg_d), with head from the d + 1 dense
    products of ``_dense_pass``, bitwise the same whatever the other taus, and the
    pass's BasisMismatchError is raised.
    When equation d holds, a result is (degree - a_d - tau) A_d / sqrt(deg_d).
    """
    dist = checked_distances(g)
    _, basis_error, head = _dense_pass(dist, dense_adjacency(g), seq, range(seq.d + 1))
    if (diam := int(dist.max())) != seq.d:
        raise OracleError(f"sequence diameter {seq.d} does not match graph diameter {diam}")
    if basis_error is not None:
        raise basis_error
    top = dist == seq.d
    return [(head - tau * top) / math.sqrt(degree_sequence(seq)[-1]) for tau in taus]
