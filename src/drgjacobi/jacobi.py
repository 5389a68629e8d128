"""Tridiagonal (Jacobi) realizations of the adjacency operator.

For a certified intersection sequence with diameter d, the adjacency
operator acts on the span of the normalized distance operators as the
(d+1) x (d+1) symmetric tridiagonal matrix with diagonal
(0, alpha_1, ..., alpha_{d-1}, tau) and off-diagonal sqrt(a_k b_k).
Every boundary value tau gives a valid completion J_tau; the choice
tau = degree - a_d reproduces the adjacency spectrum.

Eigenvalues come from LAPACK's tridiagonal solver. The three-term
recurrence of J_tau is walked once per job, over all points at once.
The certificate counts the negative pivots of J - x (the Sturm chain
in ratio form, no rescaling) on both sides of every root, which proves
that each root lies within tol/2 of the eigenvalue of its rank. The
weights take one pass over all roots: atom weights of the spectral
measure are 1 / sum_k P_k^2, cross-checked against the
Christoffel-Darboux derivative identity
sum_k P_k^2 = P_n * (P_{n+1}^(tau))' at each root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, pairwise

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .intersection import IntersectionSequence


class JacobiError(Exception):
    """Base class for Jacobi operator and spectral-measure errors."""


class ToleranceTooSmallError(JacobiError):
    """The Sturm count does not place each root within tol/2 of its eigenvalue."""


class NotAnEigenvalueError(JacobiError):
    pass


class WeightMismatchError(JacobiError):
    """The two weight formulas disagree beyond tolerance."""


class MultiplicityNotIntegralError(JacobiError):
    """N * weight is not close to an integer; not a genuine graph spectrum."""


class KernelMismatchError(JacobiError):
    """Sum and ratio forms of the reproducing kernel disagree."""


@dataclass(frozen=True)
class JacobiOperator:
    """Symmetric tridiagonal matrix with strictly positive off-diagonal.

    tau is the boundary parameter for completions of a finite-diameter
    sequence; it is None for corner truncations of an infinite family
    (the last diagonal entry is then just the next alpha).
    """

    diag: tuple[float, ...]
    offdiag: tuple[float, ...]
    tau: float | None = None

    def __post_init__(self):
        if len(self.offdiag) != len(self.diag) - 1:
            raise JacobiError("offdiag must be one shorter than diag")
        if not all(math.isfinite(x) for x in self.diag + self.offdiag):
            raise JacobiError("diagonal and off-diagonal entries must be finite")
        if any(not b > 0 for b in self.offdiag):
            raise JacobiError("off-diagonal entries must be strictly positive")
        if self.diag[0] != 0.0:
            raise JacobiError("the first diagonal entry is always 0")

    @property
    def size(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        m = np.diag(np.asarray(self.diag, dtype=float))
        for i, b in enumerate(self.offdiag):
            m[i, i + 1] = m[i + 1, i] = b
        return m

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "diag": [float(x) for x in self.diag],
            "offdiag": [float(x) for x in self.offdiag],
            "tau": None if self.tau is None else float(self.tau),
        }


@dataclass(frozen=True)
class FirstKindEvaluation:
    """Values P_0(x), ..., P_n(x), P_{n+1}^(tau)(x) at one point.

    derivatives, when present, holds the x-derivatives of the same
    entries, propagated analytically through the recurrence.
    """

    values: tuple[float, ...]
    point: float
    tau: float
    derivatives: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SpectralAtom:
    eigenvalue: float
    weight: float
    multiplicity: int | None = None


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite atomic probability measure, atoms sorted by eigenvalue."""

    atoms: tuple[SpectralAtom, ...]

    def __post_init__(self):
        lams = [a.eigenvalue for a in self.atoms]
        if any(y <= x for x, y in zip(lams, lams[1:])):
            raise JacobiError("eigenvalues must be strictly increasing")
        total = sum(a.weight for a in self.atoms)
        if any(not 0 < a.weight <= 1 for a in self.atoms):
            raise JacobiError("weights must lie in (0, 1]")
        if abs(total - 1.0) > 1e-8:
            raise JacobiError(f"weights sum to {total}, not 1")
        mults = [a.multiplicity for a in self.atoms]
        if any(m is not None for m in mults):
            if any(m is None for m in mults):
                raise JacobiError("either all atoms carry a multiplicity or none")
            n = sum(mults)
            bound = min(1e-6 * n, 0.25)  # below 1/2, so only one integer can pass
            for a in self.atoms:
                if a.multiplicity < 1 or abs(n * a.weight - a.multiplicity) > bound:
                    raise MultiplicityNotIntegralError(
                        f"N*weight = {n * a.weight!r} at eigenvalue {a.eigenvalue!r}"
                    )

    def to_json(self) -> dict:
        atoms = []
        for a in self.atoms:
            entry = {"lambda": a.eigenvalue, "weight": a.weight}
            if a.multiplicity is not None:
                entry["multiplicity"] = a.multiplicity
            atoms.append(entry)
        return {"atoms": atoms}

    def plot_table(self) -> str:
        """Two-column text table 'lambda weight', one atom per line."""
        lines = ["# lambda weight"]
        lines += [f"{a.eigenvalue!r} {a.weight!r}" for a in self.atoms]
        return "\n".join(lines) + "\n"


def build_jacobi(seq: IntersectionSequence, tau: float) -> JacobiOperator:
    """The (d+1) x (d+1) completion J_tau of the sequence's tridiagonal."""
    alphas = seq.alphas
    diag = tuple(float(alphas[k]) for k in range(seq.d)) + (float(tau),)
    offdiag = tuple(math.sqrt(a * b) for a, b in zip(seq.a, seq.b))
    return JacobiOperator(diag, offdiag, tau=float(tau))


def canonical_tau(seq: IntersectionSequence) -> int:
    """The boundary value degree - a_d whose completion matches the graph."""
    return seq.tau_star


def _first_kind_rows(J: JacobiOperator, xs: np.ndarray):
    """Yield (P_k(xs), P_k'(xs)) for k = 0 .. n+1, each an array over xs.

    P_0 = 1 and off_k P_{k+1} = (x - diag_k) P_k - off_{k-1} P_{k-1};
    the last row P_{n+1}^(tau) is left undivided. The derivatives
    follow by differentiating the recurrence. Only the last two rows
    are kept, and nothing is rescaled: the weights need true values.
    """
    off = (1.0,) + J.offdiag + (1.0,)
    p_prev, p = np.zeros_like(xs), np.ones_like(xs)
    dp_prev, dp = np.zeros_like(xs), np.zeros_like(xs)
    yield p, dp
    for k, a in enumerate(J.diag):
        shift = xs - a
        p_next = (shift * p - off[k] * p_prev) / off[k + 1]
        dp_next = (p + shift * dp - off[k] * dp_prev) / off[k + 1]
        p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
        yield p, dp


def eval_first_kind(
    seq: IntersectionSequence, tau: float, x: float, derivatives: bool = False
) -> FirstKindEvaluation:
    """Evaluate the first-kind polynomials of J_tau at x.

    The returned values are (P_0, ..., P_n, P_{n+1}^(tau)) where n = d.
    With derivatives=True the recurrence is differentiated alongside, so
    derivative values carry no finite-difference noise.
    """
    rows = list(_first_kind_rows(build_jacobi(seq, tau), np.array([float(x)])))
    values = tuple(float(p[0]) for p, _ in rows)
    derivs = tuple(float(dp[0]) for _, dp in rows) if derivatives else None
    return FirstKindEvaluation(values, float(x), float(tau), derivs)


def _sign_change_counts(diag: np.ndarray, off: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each x: the negative pivots of J - x.

    The pivots u_0 = diag_0 - x, u_k = (diag_k - x) - off_{k-1}^2 / u_{k-1}
    are the ratios of consecutive entries of the Sturm chain, so they
    stay in range and need no rescaling. A zero pivot is counted by its
    sign bit and sends the next pivot to -/+inf (a tiny one may too, by
    overflow), so the pair counts once.
    """
    off2 = off * off
    with np.errstate(divide="ignore", over="ignore"):
        pivot = diag[0] - xs
        counts = np.signbit(pivot).astype(np.int64)
        for k in range(1, len(diag)):
            pivot = (diag[k] - xs) - off2[k - 1] / pivot
            counts += np.signbit(pivot)
    return counts


def gershgorin_interval(J: JacobiOperator) -> tuple[float, float]:
    """An interval certainly containing the whole spectrum."""
    width = 2.0 * max(J.offdiag) if J.offdiag else 0.0
    return min(J.diag) - width, max(J.diag) + width


def eigenvalues(J: JacobiOperator, tol: float | None = None) -> list[float]:
    """All eigenvalues of J, strictly increasing.

    LAPACK (scipy's eigvalsh_tridiagonal) solves; one Sturm count (the
    negative pivots of J - x) at roots -/+ tol/2 certifies. The counts
    must read exactly k below and k + 1 above the k-th root, which
    proves that each root lies within tol/2 of the k-th eigenvalue and
    that the roots are strictly increasing; otherwise
    ToleranceTooSmallError is raised. tol defaults to 1e-12 relative to
    the Gershgorin enclosure width.
    """
    n = J.size
    if tol is None:
        lo, hi = gershgorin_interval(J)
        tol = 1e-12 * max(hi - lo, 1.0)
    if not tol > 0:
        raise ValueError("tol must be positive")
    diag = np.asarray(J.diag, dtype=float)
    off = np.asarray(J.offdiag, dtype=float)
    roots = eigvalsh_tridiagonal(diag, off)
    counts = _sign_change_counts(diag, off, np.concatenate([roots - tol / 2, roots + tol / 2]))
    if not np.array_equal(counts, np.r_[0:n, 1:n + 1]):
        raise ToleranceTooSmallError(f"Sturm counts do not certify the roots within {tol / 2!r}")
    return [float(r) for r in roots]


def eigenfunction_coeffs(
    seq: IntersectionSequence, tau: float, lam: float, atol: float | None = None
) -> list[float]:
    """Coefficients (P_0(lam), ..., P_n(lam)) of the eigenvector of J_tau.

    lam must be an eigenvalue: the residual P_{n+1}^(tau)(lam) is
    checked against atol (default scales with the coefficient sizes and
    the spectral enclosure).
    """
    ev = eval_first_kind(seq, tau, lam)
    coeffs = list(ev.values[:-1])
    residual = abs(ev.values[-1])
    if atol is None:
        lo, hi = gershgorin_interval(build_jacobi(seq, tau))
        atol = 1e-7 * max(1.0, max(abs(c) for c in coeffs)) * max(1.0, hi - lo)
    if residual > atol:
        raise NotAnEigenvalueError(
            f"P_(n+1)({lam}) = {ev.values[-1]:.3e} exceeds tolerance {atol:.3e}"
        )
    return coeffs


def _inverse_weights(J: JacobiOperator, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_k P_k^2 and P_n * (P_{n+1}^(tau))' at every x, in one walk."""
    direct = np.zeros_like(xs)
    for (p, _), (_, dp_next) in pairwise(_first_kind_rows(J, xs)):
        direct += p * p
    return direct, p * dp_next


def _checked_weights(J: JacobiOperator, roots: np.ndarray, rtol: float) -> np.ndarray:
    """1 / sum_k P_k^2 at every root; WeightMismatchError at the first
    root where the derivative identity disagrees beyond rtol."""
    direct, via_derivative = _inverse_weights(J, roots)
    bad = np.abs(direct - via_derivative) > rtol * np.maximum(
        np.abs(direct), np.abs(via_derivative)
    )
    if bad.any():
        i = int(np.argmax(bad))
        raise WeightMismatchError(
            f"sum formula {float(direct[i])!r} vs derivative formula "
            f"{float(via_derivative[i])!r} at {float(roots[i])!r}"
        )
    return 1.0 / direct


def weight_formulas(seq: IntersectionSequence, tau: float, lam: float) -> tuple[float, float]:
    """Both inverse-weight values at lam: sum_k P_k^2 and P_n * (P_{n+1}^(tau))'."""
    direct, via_derivative = _inverse_weights(build_jacobi(seq, tau), np.array([float(lam)]))
    return float(direct[0]), float(via_derivative[0])


def atom_weight(
    seq: IntersectionSequence, tau: float, lam: float, rtol: float = 1e-8
) -> float:
    """Spectral-measure weight at eigenvalue lam: 1 / sum_k P_k(lam)^2.

    The sum is recomputed through the derivative identity
    sum_k P_k^2 = P_n * (P_{n+1}^(tau))' valid at roots; disagreement
    beyond rtol raises WeightMismatchError.
    """
    return float(_checked_weights(build_jacobi(seq, tau), np.array([float(lam)]), rtol)[0])


def spectral_measure(
    seq: IntersectionSequence,
    vertex_count: int | None = None,
    tol: float | None = None,
    tau: float | None = None,
) -> SpectralMeasure:
    """The spectral measure of J_tau; tau defaults to degree - a_d.

    At the default tau this is the adjacency spectral measure. Weights
    for all roots come from one pass of the recurrence. With
    vertex_count N, eigenvalue multiplicities round(N * weight) are
    attached; MultiplicityNotIntegralError is raised when they do not
    sum to N or, from SpectralMeasure, when N * weight is not close to
    an integer (the sequence is then not a genuine graph spectrum).
    """
    J = build_jacobi(seq, canonical_tau(seq) if tau is None else tau)
    lams = eigenvalues(J, tol)
    weights = _checked_weights(J, np.array(lams), 1e-8).tolist()
    mults: list[int | None] = [None] * len(lams)
    if vertex_count is not None:
        mults = [round(vertex_count * w) for w in weights]
        if sum(mults) != vertex_count:
            raise MultiplicityNotIntegralError(
                f"multiplicities sum to {sum(mults)}, expected {vertex_count}"
            )
    return SpectralMeasure(
        tuple(SpectralAtom(lam, w, m) for lam, w, m in zip(lams, weights, mults))
    )


def spectra_interlace(
    e1: list[float], e2: list[float], tol: float = 1e-9
) -> tuple[bool, float]:
    """(interlaced, min_gap) for two sorted spectra.

    min_gap is the smallest distance between an eigenvalue of e1 and
    one of e2. The spectra interlace when they are disjoint (min_gap
    exceeds tol) and each open interval between consecutive eigenvalues
    of one spectrum holds exactly one eigenvalue of the other, that is,
    when their merged order alternates between the two.
    """
    merged = np.concatenate([e1, e2])
    order = np.argsort(merged, kind="stable")
    alternates = (order[1:] >= len(e1)) != (order[:-1] >= len(e1))
    min_gap = float(np.diff(merged[order])[alternates].min())
    return bool(min_gap > tol and alternates.all()), min_gap


def check_interlacing(
    seq: IntersectionSequence, tau1: float, tau2: float, tol: float = 1e-9
) -> bool:
    """True iff the spectra of J_tau1 and J_tau2 are disjoint and interlaced.

    See spectra_interlace for the test applied to the two spectra.
    """
    if tau1 == tau2:
        raise ValueError("tau values must differ")
    e1 = eigenvalues(build_jacobi(seq, tau1))
    e2 = eigenvalues(build_jacobi(seq, tau2))
    return spectra_interlace(e1, e2, tol)[0]


def cd_kernel(
    seq: IntersectionSequence, k: int, x: float, y: float, rtol: float = 1e-8
) -> float:
    """Reproducing (Christoffel-Darboux) kernel K_k(x, y) for degree <= k.

    Returns sum_{j<=k} P_j(x) P_j(y). For x != y the ratio form
    sqrt(a_{k+1} b_{k+1}) (P_k(y) P_{k+1}(x) - P_k(x) P_{k+1}(y)) / (x - y)
    is evaluated as well and must agree within rtol
    (KernelMismatchError otherwise). The confluent case x = y returns
    the sum directly.
    """
    if not 0 <= k <= seq.d - 1:
        raise ValueError(f"k must be in 0..{seq.d - 1}")
    J = build_jacobi(seq, canonical_tau(seq))  # P_0 .. P_d do not involve tau
    rows = islice(_first_kind_rows(J, np.array([x, y], dtype=float)), k + 2)
    px, py = np.array([p for p, _ in rows]).T
    total = float(sum(px[:-1] * py[:-1]))
    if x != y:
        ratio = float(J.offdiag[k] * (py[k] * px[k + 1] - px[k] * py[k + 1]) / (x - y))
        if abs(total - ratio) > rtol * max(1.0, abs(total), abs(ratio)):
            raise KernelMismatchError(
                f"sum form {total!r} vs ratio form {ratio!r} at ({x!r}, {y!r})"
            )
    return total
