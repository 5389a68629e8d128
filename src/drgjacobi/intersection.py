"""Distance-regularity certification and intersection sequences.

A graph is distance-regular when, for every ordered pair (i, j) at
distance k, the number of neighbors of j one step closer to i and one
step farther from i depend only on k. Those counts form the
intersection sequence {(a_k, b_k)}, k = 1..d, with b_1 the common
degree. All counting here is exact integer arithmetic, the derived
degree values included, because certificates must not inherit float
drift. Certification reads one code per pair from one helper,
``_neighbour_codes``: the sum over the neighbours u of j of f(d(i, u))
(``_code``), which, given d(i, j), is a bijection of the pair's counts
(``_counts``). A block's codes sum a block of columns of
``Graph.distances``, mapped by f, over each vertex's neighbours: by one
float32 product with the dense adjacency matrix, built once per
certification (``_adjacency_operator``), or, on the sparser graphs that
``_dense_sums_pay`` picks, by a numpy gather over the neighbour slots of
``Graph.csr``. Certification compares each pair's code with that of its
distance's reference pair, and decodes only the codes it reports: the
sequence's and a witness's. It first checks the pairs (0, j) from row 0
alone, which construction's search from vertex 0 keeps, without the
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .graphs import Graph, _row_blocks

if TYPE_CHECKING:
    from fractions import Fraction

# Neighbour sums are float32 BLAS products with a dense n x n operator on
# graphs with at least n^2 / DENSE_SUMS_DENSITY arcs, and int32 gathers over
# the neighbour slots otherwise (``_dense_sums_pay``). Fitted against the
# scipy CSR products that the gather replaced, on 32 graphs of 31 to 2048
# vertices and density 1/57 to 1 (numpy 2.4, scipy 1.17, one BLAS thread,
# 2-core x86 VM): only 16 sends every connected graph of at most 30
# vertices, which has at least 2 (n - 1) arcs, the dense way.
DENSE_SUMS_DENSITY = 16


class SequenceError(Exception):
    """An (a, b) pair list violates an intersection sequence invariant."""


class NonIntegralDegreeError(SequenceError):
    def __init__(self, k: int, value: Fraction):
        self.k = k
        self.value = value
        super().__init__(f"distance-{k} degree {value} is not an integer")


@dataclass(frozen=True)
class IntersectionSequence:
    """The pairs {(a_k, b_k)}, k = 1..d, of a distance-regular graph.

    a[0] is a_1 (always 1), b[0] is b_1 (the degree). Validation derives,
    once, the diagonal values alpha_k = degree - (a_k + b_{k+1}), which
    must be nonnegative, with alpha_0 = 0 and the top value defined as
    degree - a_d; and the distance-k degrees, which must be integers
    (``degree_sequence``). Both are stored on the sequence, outside its
    equality and repr.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    alphas: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _degrees: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.a) != len(self.b) or not self.a:
            raise SequenceError("a and b must be equal-length nonempty lists")
        for name, seq in (("a", self.a), ("b", self.b)):
            for x in seq:
                if not isinstance(x, int) or x < 1:
                    raise SequenceError(f"{name} entries must be positive integers")
        if self.a[0] != 1:
            raise SequenceError("a_1 must equal 1")
        inner = [self.degree - (self.a[k - 1] + self.b[k]) for k in range(1, self.d)]
        for k, alpha in enumerate(inner, 1):
            if alpha < 0:
                raise SequenceError(f"alpha_{k} is negative")
        if self.tau_star < 0:
            raise SequenceError("degree - a_d is negative")
        object.__setattr__(self, "alphas", (0, *inner, self.tau_star))
        degrees = [1]
        for k, (a_k, b_k) in enumerate(zip(self.a, self.b), 1):
            deg_k, rem = divmod(degrees[-1] * b_k, a_k)
            if rem:
                import fractions  # only this error needs it; it loads decimal, 1.5-3 ms afresh

                raise NonIntegralDegreeError(k, fractions.Fraction(degrees[-1] * b_k, a_k))
            degrees.append(deg_k)
        object.__setattr__(self, "_degrees", tuple(degrees))

    @property
    def d(self) -> int:
        """Diameter."""
        return len(self.a)

    @property
    def degree(self) -> int:
        return self.b[0]

    @property
    def tau_star(self) -> int:
        """The boundary value degree - a_d."""
        return self.degree - self.a[-1]

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "a": list(self.a),
            "b": list(self.b),
            "degree": self.degree,
            "alpha": list(self.alphas),
            "deg_k": list(self._degrees),
        }


@dataclass(frozen=True)
class NonRegularityWitness:
    """Two ordered vertex pairs at equal distance with differing counts.

    kind is "NotRegular" (degree divergence, reported as the b-type count
    at distance 0) or "NotDistanceRegular". count_type says which count
    diverged: "a" (neighbors one step closer) or "b" (one step farther).
    """

    kind: str
    distance: int
    count_type: str
    first_pair: tuple[int, int]
    first_count: int
    second_pair: tuple[int, int]
    second_count: int

    def recount(self, g: Graph) -> tuple[int, int]:
        """Recompute both counts from scratch; checkable against the fields."""
        return (
            _pair_count(g, self.first_pair, self.distance, self.count_type),
            _pair_count(g, self.second_pair, self.distance, self.count_type),
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "distance": self.distance,
            "count_type": self.count_type,
            "first_pair": list(self.first_pair),
            "first_count": self.first_count,
            "second_pair": list(self.second_pair),
            "second_count": self.second_count,
        }


def _pair_count(g: Graph, pair: tuple[int, int], k: int, count_type: str) -> int:
    i, j = pair
    dist = g.distances[i]
    if dist[j] != k:
        raise ValueError(f"pair {pair} is at distance {dist[j]}, not {k}")
    target = k - 1 if count_type == "a" else k + 1
    indptr, indices = g.csr
    return int(np.count_nonzero(dist[indices[indptr[j] : indptr[j + 1]]] == target))


def _code(x, step):
    """f(x) = (x >> 1) + step (x & 1), summed over a pair's neighbour distances.

    step exceeds every degree. As d(i, u) is d(i, j) - 1, d(i, j) or
    d(i, j) + 1 for each neighbour u of j, the sum of f(d(i, u)) over them,
    the pair's code, determines its counts (``_counts``).
    """
    return (x >> 1) + step * (x & 1)


def _counts(code, m, degree):
    """The (closer, level, farther) counts of pairs (i, j) at distance m.

    code is the pair's code (``_code``) on a graph regular of the given
    degree, with step = degree + 1. With r = code - degree (m >> 1): for
    odd m, r = farther + step level, as only m is odd and (m + 1) >> 1 is
    one more than m >> 1; for even m, r = step (closer + farther) -
    closer, as m - 1 and m + 1 are odd and (m - 1) >> 1 is one less than
    m >> 1. Both are divmods by step, of r and -r, since farther and
    closer are below it. Elementwise on arrays.
    """
    odd, base = m & 1, degree * (m >> 1)
    hi, lo = np.divmod(np.where(odd, code - base, base - code), degree + 1)
    closer, level = np.where(odd, degree - hi - lo, lo), np.where(odd, hi, degree + hi)
    return closer, level, degree - closer - level


def _max_code(n: int, max_degree: int) -> int:
    """A bound on the codes (``_code``) of the pairs of a graph of n vertices.

    The code of a pair (i, j) sums f(d(i, u)) = (d(i, u) >> 1) +
    (max_degree + 1) (d(i, u) & 1) over the neighbours u of j. The first
    terms sum to at most deg(j) ecc(i) / 2 <= (n + 2)^2 / 8, as at most 3
    neighbours of j lie on a geodesic from i, so deg(j) + ecc(i) <= n + 2;
    the second to at most max_degree (max_degree + 1). Sums are exact
    below 2^24 in float32, on the dense route, and below 2^31 in int32,
    on the gather route: up to 43 690 vertices even when complete.
    """
    return (n + 2) ** 2 // 8 + max_degree * (max_degree + 1)


def _dense_sums_pay(n: int, arcs: int, max_degree: int) -> bool:
    """True iff neighbour sums take the dense float32 operator.

    They do when the graph has at least n^2 / DENSE_SUMS_DENSITY arcs and
    ``_max_code`` stays below 2^24, so that float32 sums are exact,
    whatever the density: on complete graphs, up to 3861 vertices.
    """
    return arcs * DENSE_SUMS_DENSITY >= n * n and _max_code(n, max_degree) < 1 << 24


def _adjacency_operator(g: Graph):
    """A_1 as a float32 array on the dense route (``_dense_sums_pay``), else None.

    A_1 is read off ``g.distances`` (so the table is filled first): 4 n^2
    bytes, 64 MiB at 4096 vertices. The gather route needs no operator.
    """
    indptr, indices = g.csr
    if _dense_sums_pay(g.vertex_count, len(indices), int((indptr[1:] - indptr[:-1]).max())):
        return (g.distances == 1).astype(np.float32)
    return None


def _neighbour_codes(g: Graph, op, degree: int):
    """Yield (start, m, codes) over the pairs (i, j) of blocks of rows i.

    g is regular of the given degree and op is its ``_adjacency_operator``.
    m[j, c] is d(i, j) with i = start + c, and codes[j, c] is the pair
    (i, j)'s code (``_code``) with step degree + 1: as the table is
    symmetric, m is a block of its columns. codes is op times f(m) in
    float32 on the dense route; otherwise the int32 sum of f(m)[slots[s]]
    over the slots s, where slots[s, j] is the s-th neighbour of j, with f
    mapped from the table's narrow block and dropped before m is widened,
    so that f, the codes and one take are the block's new working set.
    Neither array is transposed, and m is intp, as numpy gathers from an
    intp index about twice as fast as from a strided int8 or int16 one.
    Up to 512 vertices, blocks hold BLOCK_ENTRIES / 2 pairs, as each pair
    takes several temporaries; above, they keep the 64 columns that gives
    at 512, as each product reads the whole operator once. On
    complete:1024 and K_{724,724}, 64 columns took at most 5% longer than
    the fastest of 32, 64, 128 and 256; on cycle:4096 and hypercube:12, by
    the gather, at most 16% longer than the fastest of 16 to 256.
    """
    n, dist = g.vertex_count, g.distances
    fmap = _code(np.arange(n), degree + 1).astype(np.int32 if op is None else op.dtype)
    slots = g.csr[1].reshape(n, degree).T
    for start, stop in _row_blocks(n, 2 * min(n, 512)):
        block = dist[:, start:stop]
        if op is None:
            f = fmap.take(block)
            codes = f.take(slots[0], axis=0)
            for s in slots[1:]:
                codes += f.take(s, axis=0)
            del f
            yield start, block.astype(np.intp), codes
        else:
            m = block.astype(np.intp)
            yield start, m, op @ fmap.take(m)


def certify_distance_regular(g: Graph):
    """Certify distance-regularity of g.

    Returns the IntersectionSequence on success, else a recheckable
    NonRegularityWitness. Regularity (constant degree) is checked first;
    then, per distance class, constancy of both neighbor-intersection
    counts. The reference pair of distance k is its first occurrence in
    row-major order of the distance array; the witness is the first pair
    in that order whose a count, then b count, differs from the
    reference's.

    The counts of the pairs (0, j) read only row 0 of the distances,
    which construction's search from vertex 0 keeps (``Graph._row0``), so
    row 0 is checked first and the table is filled only when row 0 holds
    no witness. Every distance that occurs first occurs in row 0, so the
    reference pairs of row 0's distances lie in row 0, and row 0's first
    mismatch is the whole loop's witness. Vertex-transitive graphs that
    are not distance-regular, such as prisms, tori and circulants, always
    have it there. Otherwise the loop over the table's row blocks starts
    from row 0's reference pairs, and looks for first occurrences only in
    a block that meets a distance beyond the eccentricity of vertex 0.
    """
    n = g.vertex_count
    degrees = np.diff(g.csr[0])
    degree = int(degrees[0])
    irregular = np.flatnonzero(degrees != degree)
    if irregular.size:
        v = int(irregular[0])
        return NonRegularityWitness("NotRegular", 0, "b", (0, 0), degree, (v, v), int(degrees[v]))

    row0 = g._row0
    firsts = np.unique(row0, return_index=True)[1]  # the least vertex at each distance from 0
    code = _code(row0, degree + 1)[g.csr[1]].reshape(n, degree).sum(axis=1)  # of (0, j)
    ref = code[firsts]  # of the first pair at each distance from 0
    bad = np.flatnonzero(code != ref[row0])
    if bad.size:
        j = int(bad[0])
        k = int(row0[j])
        return _witness(degree, k, (0, int(firsts[k])), ref[k], (0, j), code[j])

    # Row 0 holds the reference pairs of distances 0..ecc(0); those of the
    # larger distances are the first occurrences in the block that meets them.
    d = len(firsts) - 1
    op = _adjacency_operator(g)
    ref = np.concatenate((ref, np.full(n - d, -1))).astype(np.int32 if op is None else op.dtype)
    ref_at = np.concatenate((firsts, np.zeros(n - d, dtype=firsts.dtype)))  # and its row-major index
    for start, m, codes in _neighbour_codes(g, op, degree):
        if (codes == ref.take(m)).all():
            continue
        k, code = m.T.ravel(), codes.T.ravel()  # in row-major order of the pairs
        bad = np.flatnonzero(code != ref[k])
        if ref[k[bad[0]]] < 0:  # a distance first met in this block
            ks, first = np.unique(k, return_index=True)
            fresh = ref[ks] < 0
            ref[ks[fresh]] = code[first[fresh]]
            ref_at[ks[fresh]] = first[fresh] + start * n
            d = int(ks[-1])
            bad = np.flatnonzero(code != ref[k])
        if bad.size:
            x = int(bad[0])
            kx = int(k[x])
            return _witness(degree, kx, divmod(int(ref_at[kx]), n), ref[kx], divmod(start * n + x, n), code[x])

    codes = ref[: d + 1].astype(np.int64)  # decoded only here and in a witness
    closer, _, farther = _counts(codes, np.arange(d + 1), degree)
    return IntersectionSequence(tuple(closer[1:].tolist()), tuple(farther[:-1].tolist()))


def _witness(degree, k, first_pair, first_code, second_pair, second_code) -> NonRegularityWitness:
    """The witness of two pairs at distance k whose codes differ, from the codes."""
    (a1, _, b1), (a2, _, b2) = (
        map(int, _counts(int(code), k, degree)) for code in (first_code, second_code)
    )
    col, c1, c2 = ("a", a1, a2) if a1 != a2 else ("b", b1, b2)
    return NonRegularityWitness("NotDistanceRegular", k, col, first_pair, c1, second_pair, c2)


def degree_sequence(seq: IntersectionSequence) -> list[int]:
    """Common distance-k degrees deg(A_k) = prod_{m<=k} b_m/a_m, k = 0..d.

    Computed once, in exact integer arithmetic, when seq is validated: a
    non-integer value raises NonIntegralDegreeError there, so every
    sequence has integral degrees.
    """
    return list(seq._degrees)


def parse_pairs(text: str, where: str) -> list[tuple[int, int]]:
    """Integer pairs from "a1,b1;a2,b2;...", blank chunks skipped; errors name ``where``."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a, b = map(int, chunk.split(","))
        except ValueError:  # not two fields, or not integers
            raise SequenceError(f"bad pair {chunk!r} in {where}") from None
        pairs.append((a, b))
    return pairs


def sequence_from_pairs(pairs) -> IntersectionSequence:
    """Build an IntersectionSequence from (a_k, b_k) pairs in order k = 1..d."""
    pairs = list(pairs)
    return IntersectionSequence(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))
