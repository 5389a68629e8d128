"""Tridiagonal (Jacobi) realizations of the adjacency operator.

For a certified intersection sequence with diameter d, the adjacency
operator acts on the span of the normalized distance operators as the
(d+1) x (d+1) symmetric tridiagonal matrix with diagonal
(0, alpha_1, ..., alpha_{d-1}, tau) and off-diagonal sqrt(a_k b_k).
Every boundary value tau gives a valid completion J_tau; the choice
tau = degree - a_d reproduces the adjacency spectrum.

Eigenvalues come from LAPACK's tridiagonal solver and are certified by
the sign-change count of the first-kind polynomial sequence P_0, ...,
P_n, P_{n+1}^(tau), which is exactly the Sturm chain of leading
principal characteristic polynomials: one count on both sides of every
root proves it lies within tol/2 of the eigenvalue of its rank, and
doubles as a direct test of the three-term recurrence. Atom weights of
the spectral measure are 1 / sum_k P_k^2, cross-checked against the
Christoffel-Darboux derivative identity
sum_k P_k^2 = P_n * (P_{n+1}^(tau))' at each root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .intersection import IntersectionSequence

RESCALE_LIMIT = 1e100  # sign-change counting is scale invariant


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
            for a in self.atoms:
                if abs(n * a.weight - a.multiplicity) > 1e-6 * n:
                    raise JacobiError(
                        f"weight {a.weight} inconsistent with multiplicity "
                        f"{a.multiplicity} out of {n}"
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
    return JacobiOperator(diag, tuple(_offdiags(seq)), tau=float(tau))


def canonical_tau(seq: IntersectionSequence) -> int:
    """The boundary value degree - a_d whose completion matches the graph."""
    return seq.tau_star


def _offdiags(seq: IntersectionSequence) -> list[float]:
    return [math.sqrt(a * b) for a, b in zip(seq.a, seq.b)]


def _poly_values(seq: IntersectionSequence, x: float) -> list[float]:
    """P_0(x) .. P_d(x); these do not involve the boundary parameter."""
    off = _offdiags(seq)
    alphas = seq.alphas
    values = [1.0, x / off[0]]
    for k in range(1, seq.d):
        values.append(((x - alphas[k]) * values[k] - off[k - 1] * values[k - 1]) / off[k])
    return values


def eval_first_kind(
    seq: IntersectionSequence, tau: float, x: float, derivatives: bool = False
) -> FirstKindEvaluation:
    """Evaluate the first-kind polynomials of J_tau at x.

    The returned values are (P_0, ..., P_n, P_{n+1}^(tau)) where n = d.
    With derivatives=True the recurrence is differentiated alongside, so
    derivative values carry no finite-difference noise.
    """
    off = _offdiags(seq)
    values = _poly_values(seq, x)
    n = seq.d
    last = (x - tau) * values[n] - off[n - 1] * values[n - 1]
    if not derivatives:
        return FirstKindEvaluation(tuple(values) + (last,), float(x), float(tau))
    alphas = seq.alphas
    derivs = [0.0, 1.0 / off[0]]
    for k in range(1, n):
        derivs.append(
            (values[k] + (x - alphas[k]) * derivs[k] - off[k - 1] * derivs[k - 1])
            / off[k]
        )
    dlast = values[n] + (x - tau) * derivs[n] - off[n - 1] * derivs[n - 1]
    return FirstKindEvaluation(
        tuple(values) + (last,), float(x), float(tau), tuple(derivs) + (dlast,)
    )


def _sign_change_counts(diag: np.ndarray, off: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each x, by Sturm sign changes.

    Evaluates the chain p_0..p_N at every x at once; zero entries are
    skipped (consecutive chain entries cannot both vanish). Running
    rescaling keeps magnitudes below RESCALE_LIMIT without affecting
    signs.
    """
    n = len(diag)
    changes = np.zeros(xs.shape, dtype=np.int64)
    last_sign = np.ones_like(xs)

    def absorb(p):
        nonlocal last_sign
        s = np.sign(p)
        nonzero = s != 0
        changes[nonzero & (s != last_sign)] += 1
        last_sign = np.where(nonzero, s, last_sign)

    p_prev = np.ones_like(xs)
    p = xs - diag[0]
    if n > 1:
        p = p / off[0]
    absorb(p)
    for k in range(1, n):
        q = (xs - diag[k]) * p - off[k - 1] * p_prev
        if k < n - 1:
            q = q / off[k]
        p_prev, p = p, q
        mag = np.abs(p)
        big = mag > RESCALE_LIMIT
        if big.any():
            scale = np.where(big, mag, 1.0)
            p = p / scale
            p_prev = p_prev / scale
        absorb(p)
    return n - changes


def gershgorin_interval(J: JacobiOperator) -> tuple[float, float]:
    """An interval certainly containing the whole spectrum."""
    width = 2.0 * max(J.offdiag) if J.offdiag else 0.0
    return min(J.diag) - width, max(J.diag) + width


def eigenvalues(J: JacobiOperator, tol: float | None = None) -> list[float]:
    """All eigenvalues of J, strictly increasing.

    LAPACK (scipy's eigvalsh_tridiagonal) solves; one Sturm sign-change
    count at roots -/+ tol/2 certifies. The counts must read exactly
    k below and k + 1 above the k-th root, which proves that each root
    lies within tol/2 of the k-th eigenvalue and that the roots are
    strictly increasing; otherwise ToleranceTooSmallError is raised.
    tol defaults to 1e-12 relative to the Gershgorin enclosure width.
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


def weight_formulas(seq: IntersectionSequence, tau: float, lam: float) -> tuple[float, float]:
    """Both inverse-weight values at lam: sum_k P_k^2 and P_n * (P_{n+1}^(tau))'."""
    ev = eval_first_kind(seq, tau, lam, derivatives=True)
    direct = sum(v * v for v in ev.values[:-1])
    via_derivative = ev.values[-2] * ev.derivatives[-1]
    return direct, via_derivative


def atom_weight(
    seq: IntersectionSequence, tau: float, lam: float, rtol: float = 1e-8
) -> float:
    """Spectral-measure weight at eigenvalue lam: 1 / sum_k P_k(lam)^2.

    The sum is recomputed through the derivative identity
    sum_k P_k^2 = P_n * (P_{n+1}^(tau))' valid at roots; disagreement
    beyond rtol raises WeightMismatchError.
    """
    direct, via_derivative = weight_formulas(seq, tau, lam)
    if abs(direct - via_derivative) > rtol * max(abs(direct), abs(via_derivative)):
        raise WeightMismatchError(
            f"sum formula {direct!r} vs derivative formula {via_derivative!r} at {lam!r}"
        )
    return 1.0 / direct


def spectral_measure(
    seq: IntersectionSequence,
    vertex_count: int | None = None,
    tol: float | None = None,
) -> SpectralMeasure:
    """The adjacency spectral measure reconstructed from J_{degree - a_d}.

    With vertex_count N, eigenvalue multiplicities round(N * weight) are
    attached; a rounding error beyond 1e-6 * N raises
    MultiplicityNotIntegralError (the sequence is then not a genuine
    graph spectrum).
    """
    tau = float(canonical_tau(seq))
    lams = eigenvalues(build_jacobi(seq, tau), tol)
    weights = [atom_weight(seq, tau, lam) for lam in lams]
    mults: list[int | None] = [None] * len(lams)
    if vertex_count is not None:
        total = 0
        for idx, w in enumerate(weights):
            m = round(vertex_count * w)
            if abs(vertex_count * w - m) >= 1e-6 * vertex_count or m < 1:
                raise MultiplicityNotIntegralError(
                    f"N*weight = {vertex_count * w!r} at eigenvalue {lams[idx]!r}"
                )
            mults[idx] = m
            total += m
        if total != vertex_count:
            raise MultiplicityNotIntegralError(
                f"multiplicities sum to {total}, expected {vertex_count}"
            )
    atoms = tuple(
        SpectralAtom(lam, w, m) for lam, w, m in zip(lams, weights, mults)
    )
    return SpectralMeasure(atoms)


def spectra_interlace(e1: list[float], e2: list[float], tol: float = 1e-9) -> bool:
    """True iff two sorted spectra are disjoint and interlaced.

    Disjoint means every pairwise gap exceeds tol; interlaced means each
    open interval between consecutive eigenvalues of one spectrum holds
    exactly one eigenvalue of the other.
    """
    min_gap = min(abs(x - y) for x in e1 for y in e2)
    if min_gap <= tol:
        return False
    for first, second in ((e1, e2), (e2, e1)):
        for lo, hi in zip(first, first[1:]):
            if sum(1 for lam in second if lo < lam < hi) != 1:
                return False
    return True


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
    return spectra_interlace(e1, e2, tol)


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
    px = _poly_values(seq, x)
    py = _poly_values(seq, y)
    total = sum(px[j] * py[j] for j in range(k + 1))
    if x != y:
        off = _offdiags(seq)
        ratio = off[k] * (py[k] * px[k + 1] - px[k] * py[k + 1]) / (x - y)
        if abs(total - ratio) > rtol * max(1.0, abs(total), abs(ratio)):
            raise KernelMismatchError(
                f"sum form {total!r} vs ratio form {ratio!r} at ({x!r}, {y!r})"
            )
    return total
