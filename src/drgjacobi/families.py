"""Intersection-sequence generators for unbounded-diameter families.

A FamilyGenerator supplies (a_k, b_k) for every k >= 1, here as an
eventually periodic list of pairs. Corner truncations of the associated
infinite tridiagonal matrix give finite Jacobi operators; the (0, 0)
entry of the k-th matrix power, an exact integer, is the k-th moment of
the spectral measure seen from any vertex. For the n-regular tree that
measure is the Kesten-McKay distribution, which gives an independent
quadrature route to the same moments: one Gauss-Chebyshev rule
(numpy's chebgauss nodes) yields every order up to the requested one
at once, checked against the same rule at half the nodes.

alpha_k and a_k b_k depend on k only through pair(k)'s index in the
prefix, so each is computed once per prefix pair and spread over the
levels by one index array. The moment walk updates only the band of
levels from which a walk can still return to level 0 by the last order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intersection import SequenceError, parse_pairs
from .jacobi import JacobiOperator

# Largest corner truncation, and largest moment order, that are built.
# Above them a request is refused before anything is allocated: a corner
# holds two float tuples of its size, and the banded moment walk takes
# about order^2/4 big-integer steps (order 2000 takes about 0.2 s on
# custom:1,3;1,2, 2-core Xeon VM). Both admit the size ladder (corners
# to 8000, moments to order 400) with headroom.
MAX_TRUNCATION_SIZE = 1 << 16
MAX_MOMENT_ORDER = 2000

# Quadrature tolerance of density_moments, relative to radius**k.
QUAD_TOL = 1e-8
# Largest node count of its Gauss-Chebyshev rule (128 KB of nodes), 16 times
# what tree:2 takes at its float64 top order.
_MAX_NODES = 1 << 14


class QuadratureNotConvergedError(Exception):
    def __init__(self, estimate: float, error: float, tol: float):
        self.estimate = estimate
        self.error = error
        super().__init__(
            f"quadrature error estimate {error:.3e} exceeds tolerance {tol:.3e}"
        )


@dataclass(frozen=True)
class FamilyGenerator:
    """Eventually periodic pair sequence: the last `period` pairs repeat."""

    prefix: tuple[tuple[int, int], ...]
    period: int
    description: str

    def __post_init__(self):
        if not self.prefix:
            raise SequenceError("family needs at least one (a, b) pair")
        if not 1 <= self.period <= len(self.prefix):
            raise SequenceError("period must be between 1 and the number of pairs")
        for a, b in self.prefix:
            if not (isinstance(a, int) and isinstance(b, int) and a >= 1 and b >= 1):
                raise SequenceError("pairs must be positive integers")
        if self.prefix[0][0] != 1:
            raise SequenceError("a_1 must equal 1")
        # alpha_k for k past the prefix repeats one of these, by periodicity
        for k in range(1, len(self.prefix) + 1):
            self.alpha(k)

    @property
    def degree(self) -> int:
        return self.prefix[0][1]

    def pair(self, k: int) -> tuple[int, int]:
        """(a_k, b_k) for k >= 1."""
        if k < 1:
            raise SequenceError("pair index starts at 1")
        size = len(self.prefix)
        if k <= size:
            return self.prefix[k - 1]
        return self.prefix[size - self.period + (k - size - 1) % self.period]

    def alpha(self, k: int) -> int:
        """Diagonal value degree - (a_k + b_{k+1}); alpha_0 = 0 by convention."""
        if k == 0:
            return 0
        a_k = self.pair(k)[0]
        b_next = self.pair(k + 1)[1]
        value = self.degree - (a_k + b_next)
        if value < 0:
            raise SequenceError(f"alpha_{k} = {value} is negative")
        return value


def tree_sequence(n: int) -> FamilyGenerator:
    """The n-regular tree: pairs (1, n), (1, n-1), (1, n-1), ..."""
    if n < 2:
        raise SequenceError("tree degree must be at least 2")
    return FamilyGenerator(((1, n), (1, n - 1)), 1, f"tree:{n}")


def family_from_name(text: str) -> FamilyGenerator:
    """Parse "tree:n" or "custom:a1,b1;a2,b2;...;period=p".

    For custom families the last p pairs repeat forever; period defaults
    to 1 when omitted.
    """
    base, sep, rest = text.partition(":")
    if not sep:
        raise SequenceError(f"bad family {text!r}; expected tree:n or custom:...")
    if base == "tree":
        try:
            n = int(rest)
        except ValueError:
            raise SequenceError(f"bad tree degree in {text!r}") from None
        return tree_sequence(n)
    if base != "custom":
        raise SequenceError(f"unknown family kind {base!r}")
    period = 1
    pairs = []
    for chunk in rest.split(";"):
        chunk = chunk.strip()
        if chunk.startswith("period="):
            try:
                period = int(chunk[len("period="):])
            except ValueError:
                raise SequenceError(f"bad period in {text!r}") from None
        else:
            pairs += parse_pairs(chunk, repr(text))
    return FamilyGenerator(tuple(pairs), period, text)


def _pair_index(gen: FamilyGenerator, m: int) -> tuple[np.ndarray, range]:
    """Index in gen.prefix of pair(k) for k = 1..m-1, by pair's rule over one array.

    Also the k < m within the prefix: a term evaluated at these k holds one
    value per prefix pair that the index reaches, at that pair's index.
    """
    size = len(gen.prefix)
    k = np.arange(1, m)
    index = np.where(k <= size, k - 1, size - gen.period + (k - size - 1) % gen.period)
    return index, range(1, min(m, size + 1))


def truncated_jacobi(gen: FamilyGenerator, m: int) -> JacobiOperator:
    """Top-left m x m corner of the family's infinite tridiagonal matrix.

    There is no boundary parameter: the last diagonal entry is simply
    alpha_{m-1}.
    """
    if m < 1:
        raise SequenceError("truncation size must be at least 1")
    if m > MAX_TRUNCATION_SIZE:
        raise SequenceError(f"truncation size must be at most {MAX_TRUNCATION_SIZE}")
    index, used = _pair_index(gen, m)
    try:
        diag = np.array([float(gen.alpha(k)) for k in used])[index].tolist()
        off = np.array([math.sqrt(a * b) for a, b in map(gen.pair, used)])[index].tolist()
    except OverflowError:
        raise SequenceError("an alpha_k or a_k b_k of the corner leaves float64") from None
    return JacobiOperator((0.0, *diag), tuple(off), tau=None)


def moment_sequence(gen: FamilyGenerator, order: int) -> list[int]:
    """Exact moments (J^k)_{0,0} for k = 0..order of the family's Jacobi matrix.

    One integer walk recursion, read off at level 0 after every step:
    stepping up from level j-1 to j carries weight a_j b_j, stepping down
    weight 1, staying at level j weight alpha_j (a diagonal rescaling of
    the matrix that leaves the (0, 0) corner of every power unchanged).
    After step t only the band of levels j <= min(t, order - t) is updated:
    a walk is never higher than its step count, and from a higher level it
    cannot return to 0 by step `order`. Levels are object arrays of exact ints.
    """
    if order < 0:
        raise SequenceError("moment order must be nonnegative")
    if order > MAX_MOMENT_ORDER:
        raise SequenceError(f"moment order must be at most {MAX_MOMENT_ORDER}")
    index, used = _pair_index(gen, order // 2 + 1)
    # alpha[j] = alpha_{j+1} and weight[j] = a_{j+1} b_{j+1}
    alpha = np.array([gen.alpha(k) for k in used], dtype=object)[index]
    weight = np.array([a * b for a, b in map(gen.pair, used)], dtype=object)[index]
    vec = np.zeros(order // 2 + 2, dtype=object)  # levels 0..order/2, and a zero above
    vec[0] = 1
    moments = [1]
    for t in range(1, order + 1):
        top = min(t, order - t)
        nxt = vec[1:top + 2].copy()  # alpha_0 = 0: level 0 only steps down from level 1
        nxt[1:] += alpha[:top] * vec[1:top + 1] + weight[:top] * vec[:top]
        vec[:top + 1] = nxt
        moments.append(vec[0])
    return moments


def kesten_mckay_density(n: int, x: float) -> float:
    """Spectral density of the n-regular tree at x.

    Supported on |x| <= 2 sqrt(n-1); evaluated in the cancellation-free
    form n sqrt(s) / (2 pi ((n-2)^2 + s)) with s = 4(n-1) - x^2. For
    n = 2 the endpoint singularity is genuine and returns inf.
    """
    if n < 2:
        raise SequenceError("tree degree must be at least 2")
    s = 4.0 * (n - 1) - float(x) * float(x)
    if s < 0.0:
        return 0.0
    shift = (n - 2) ** 2
    if s == 0.0:
        return 0.0 if shift else math.inf
    return n * math.sqrt(s) / (2.0 * math.pi * (shift + s))


def density_moments(n: int, order: int) -> list[float]:
    """Moments k = 0..order of the Kesten-McKay density, from one Gauss-Chebyshev rule.

    With x = R t and R = 2 sqrt(n-1), the k-th moment is R^k times the
    integral of t^k n R^2 (1-t^2) / (2 pi ((n-2)^2 + R^2 (1-t^2))) against
    the Chebyshev weight 1/sqrt(1-t^2), which numpy's chebgauss nodes
    integrate. The rule runs at N and 2N nodes, N doubling from about
    order/2 + 8 up to _MAX_NODES, and the 2N values are returned once
    |Q_2N - Q_N| <= 0.5 QUAD_TOL R^k for every k (R^k bounds |moment|);
    otherwise QuadratureNotConvergedError is raised. Symmetric node pairs
    are summed, so every odd moment is exactly 0.0, and powers are
    accumulated one order at a time. SequenceError refuses an order whose
    R^k would near the float64 range.
    """
    if n < 2:
        raise SequenceError("tree degree must be at least 2")
    if order < 0:
        raise SequenceError("moment order must be nonnegative")
    # orders keep n R^(k+2) below 2^1000, so every R^k and moment lies well inside float64
    top = math.floor((1000 - math.log2(n)) / (1 + math.log2(n - 1) / 2)) - 2
    if order > top:
        raise SequenceError(f"tree:{n} quadrature moment order must be at most {top}")
    nodes = 2 * (order // 4 + 4)  # even, near order/2 + 8
    fine = _even_moments_by_rule(n, order, nodes)
    while True:
        coarse, nodes = fine, 2 * nodes
        fine = _even_moments_by_rule(n, order, nodes)
        # a gap under one unit in the last place of Q_2N is rounding, not agreement
        gap = np.maximum(np.abs(fine - coarse), np.spacing(fine))
        if gap.max() <= 0.5 * QUAD_TOL or nodes >= _MAX_NODES:
            break
    # R^2j = (4(n-1))^j is an exact integer: one rounding per moment
    powers = [(4 * (n - 1)) ** j for j in range(order // 2 + 1)]
    j = int(np.argmax(gap))
    if gap[j] > 0.5 * QUAD_TOL:
        raise QuadratureNotConvergedError(
            float(fine[j]) * powers[j], float(gap[j]) * powers[j], 0.5 * QUAD_TOL * powers[j]
        )
    moments = [0.0] * (order + 1)
    moments[::2] = [q * r for q, r in zip(fine.tolist(), powers)]
    return moments


def _even_moments_by_rule(n: int, order: int, nodes: int) -> np.ndarray:
    """Entry j: the Gauss-Chebyshev rule at an even node count for moment 2j, over R^2j."""
    from numpy.polynomial.chebyshev import chebgauss  # here: numpy does not load numpy.polynomial

    t, w = chebgauss(nodes)
    t, w = t[:nodes // 2], w[:nodes // 2]  # the positive nodes, each standing for its pair
    c = 4.0 * (n - 1) * (1.0 - t) * (1.0 + t)
    term = n / math.pi * w * (c / (float((n - 2) ** 2) + c))  # twice the density
    t2 = t * t
    out = np.empty(order // 2 + 1)
    for j in range(len(out)):
        out[j] = term.sum()
        term *= t2
    return out


def spectral_radius_tree(n: int) -> float:
    """Largest spectral value of the n-regular tree, 2 sqrt(n-1)."""
    if n < 2:
        raise SequenceError("tree degree must be at least 2")
    return 2.0 * math.sqrt(n - 1.0)
