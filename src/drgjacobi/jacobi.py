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
from itertools import pairwise

import numpy as np

from .intersection import IntersectionSequence


class JacobiError(Exception):
    """Base class for Jacobi operator and spectral-measure errors."""


class ToleranceTooSmallError(JacobiError):
    """The Sturm count does not place each root within tol/2 of its eigenvalue."""


class WeightMismatchError(JacobiError):
    """The two weight formulas disagree beyond tolerance."""


class MultiplicityNotIntegralError(JacobiError):
    """N * weight is not close to an integer; not a genuine graph spectrum."""


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
        if not all(map(math.isfinite, self.diag + self.offdiag)):
            raise JacobiError("diagonal and off-diagonal entries must be finite")
        if min(self.offdiag, default=1.0) <= 0:  # all finite here: no NaN to skip
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
            "diag": list(map(float, self.diag)),
            "offdiag": list(map(float, self.offdiag)),
            "tau": None if self.tau is None else float(self.tau),
        }


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


def _lapack_roots(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Eigenvalues of the tridiagonal (diag, off), ascending, by LAPACK dstevd.

    dstevd is the routine scipy's eigvalsh_tridiagonal dispatches to; called
    directly it skips that function's argument checks, about nine tenths of
    its time at size 3. Size 1 and LAPACK's info are handled as scipy
    handles them. The wrapper came with that function's 'stevd' driver,
    after the scipy 1.10 floor in pyproject.toml: releases without it solve
    by eigvalsh_tridiagonal itself, so each scipy gives its default roots.
    """
    # Imported here: scipy.linalg nearly triples the command line's import time.
    from scipy.linalg import lapack

    if len(diag) == 1:  # dstevd takes an off-diagonal of length 1 at least
        return diag.copy()
    stevd = getattr(lapack, "dstevd", None)
    if stevd is None:
        from scipy.linalg import eigvalsh_tridiagonal

        return eigvalsh_tridiagonal(diag, off)
    roots, _, info = stevd(diag, off, compute_v=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal stevd")
    if info > 0:
        raise np.linalg.LinAlgError(f"stevd did not converge (LAPACK info={info})")
    return roots


def eigenvalues(J: JacobiOperator, tol: float | None = None) -> list[float]:
    """All eigenvalues of J, strictly increasing.

    LAPACK (dstevd, see _lapack_roots) solves; one Sturm count (the
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
    roots = _lapack_roots(diag, off)
    counts = _sign_change_counts(diag, off, np.concatenate([roots - tol / 2, roots + tol / 2]))
    if not np.array_equal(counts, np.r_[0:n, 1:n + 1]):
        raise ToleranceTooSmallError(f"Sturm counts do not certify the roots within {tol / 2!r}")
    return [float(r) for r in roots]


def _inverse_weights(J: JacobiOperator, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_k P_k^2 and P_n * (P_{n+1}^(tau))' at every x, in one walk."""
    direct = np.zeros_like(xs)
    for (p, _), (_, dp_next) in pairwise(_first_kind_rows(J, xs)):
        direct += p * p
    return direct, p * dp_next


def _checked_weights(J: JacobiOperator, roots: np.ndarray) -> np.ndarray:
    """1 / sum_k P_k^2 at every root; WeightMismatchError at the first
    root where the derivative identity disagrees beyond a relative 1e-8,
    or where either side overflowed to inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        direct, via_derivative = _inverse_weights(J, roots)
        gap = direct - via_derivative
        bad = ~np.isfinite(gap) | (
            np.abs(gap) > 1e-8 * np.maximum(np.abs(direct), np.abs(via_derivative))
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
    weights = _checked_weights(J, np.array(lams)).tolist()
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
