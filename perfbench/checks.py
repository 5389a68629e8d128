"""Closed-form expectations and payload checks for benchmark ops.

Nothing here imports drgjacobi: every expected value is computed from
the textbook closed forms (Brouwer, Cohen & Neumaier 1989) or from an
independent numeric reference (LAPACK through scipy), so a wrong answer
from the program cannot also be the benchmark's expectation.

Intersection pairs use the program's convention: (a_k, b_k), k = 1..d,
where a_k counts neighbours one step closer (c_k in BCN) and b_k is the
BCN b_{k-1}.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from workloads import hamming_pairs, tree_prefix_pairs

EIG_RTOL = 1e-8  # eigenvalue agreement, relative to max(1, spectral scale)
WEIGHT_ATOL = 1e-8
WEIGHT_RTOL = 1e-6
# Checks every verify report must carry and pass, in any order, among any others.
VERIFY_CHECKS = (
    "certify",
    "recurrence",
    "basis_identity",
    "minimal_polynomial",
    "minimal_polynomial_shifted",
    "oracle_spectrum",
    "norm_bound",
)


# ---------------------------------------------------------------- closed forms


def drg_pairs(name: str) -> list[tuple[int, int]]:
    """Intersection pairs of a builtin distance-regular graph."""
    if name == "petersen":
        return [(1, 3), (1, 2)]
    base, _, arg = name.partition(":")
    n = int(arg)
    if base == "complete":
        return [(1, n - 1)]
    if base == "cycle":
        d = n // 2
        pairs = [(1, 2)] + [(1, 1)] * (d - 1)
        if n % 2 == 0:
            pairs[-1] = (2, pairs[-1][1])
        return pairs
    if base == "hypercube":
        return hamming_pairs(n)
    if base == "complete_bipartite":
        return [(1, 1)] if n == 1 else [(1, n), (n, n - 1)]
    raise ValueError(f"no closed form for {name!r}")


def drg_spectrum(name: str) -> list[tuple[float, int]]:
    """Adjacency eigenvalues with multiplicities, ascending."""
    if name == "petersen":
        return [(-2.0, 4), (1.0, 5), (3.0, 1)]
    base, _, arg = name.partition(":")
    n = int(arg)
    if base == "complete":
        return [(-1.0, n - 1), (float(n - 1), 1)]
    if base == "cycle":
        spec = []
        for j in range(n // 2 + 1):
            mult = 1 if j == 0 or 2 * j == n else 2
            spec.append((2.0 * math.cos(2.0 * math.pi * j / n), mult))
        return spec[::-1]
    if base == "hypercube":
        return [(float(n - 2 * k), math.comb(n, k)) for k in range(n, -1, -1)]
    if base == "complete_bipartite":
        if n == 1:
            return [(-1.0, 1), (1.0, 1)]
        return [(-float(n), 1), (0.0, 2 * n - 2), (float(n), 1)]
    raise ValueError(f"no closed form for {name!r}")


def hamming_measure(dim: int) -> list[tuple[float, float]]:
    """Eigenvalues D - 2k of H(D,2) with weights C(D,k) / 2^D, ascending."""
    return [(float(dim - 2 * k), math.comb(dim, k) / 2.0**dim) for k in range(dim, -1, -1)]


def sequence_json(pairs) -> dict:
    """The certify payload for a sequence, derived from its pairs."""
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    degree = b[0]
    alpha = [0] + [degree - (a[k - 1] + b[k]) for k in range(1, len(a))] + [degree - a[-1]]
    deg_k = [1]
    acc = Fraction(1)
    for a_k, b_k in pairs:
        acc *= Fraction(b_k, a_k)
        deg_k.append(int(acc))
    return {"d": len(a), "a": a, "b": b, "degree": degree, "alpha": alpha, "deg_k": deg_k}


def jacobi_entries(pairs, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the completion J_tau of a pair list."""
    seq = sequence_json(pairs)
    diag = np.array([float(x) for x in seq["alpha"][:-1]] + [float(tau)])
    off = np.array([math.sqrt(a * b) for a, b in pairs])
    return diag, off


def tree_walks(n: int, order: int) -> list[int]:
    """Closed walks of length 0..order at the root of the n-regular tree.

    Counted directly: a walker at depth 0 has n ways down, at depth
    j > 0 one way up and n - 1 ways down.
    """
    at_depth = [1]
    counts = [1]
    for _ in range(order):
        nxt = [0] * (len(at_depth) + 1)
        for depth, ways in enumerate(at_depth):
            nxt[depth + 1] += ways * (n if depth == 0 else n - 1)
            if depth:
                nxt[depth - 1] += ways
        at_depth = nxt
        counts.append(at_depth[0])
    return counts


# ---------------------------------------------------------------- comparisons


def _close_values(got, expected, scale: float) -> bool:
    if len(got) != len(expected):
        return False
    tol = EIG_RTOL * max(1.0, scale)
    return all(abs(g - e) <= tol for g, e in zip(got, expected))


def _close_weights(got, expected) -> bool:
    if len(got) != len(expected):
        return False
    return all(abs(g - e) <= WEIGHT_ATOL + WEIGHT_RTOL * e for g, e in zip(got, expected))


def _check_graph_spectrum(lams, weights, mults, name: str) -> str | None:
    spec = drg_spectrum(name)
    total = sum(m for _, m in spec)
    scale = max(abs(lam) for lam, _ in spec)
    if not _close_values(lams, [lam for lam, _ in spec], scale):
        return f"eigenvalues differ from the closed form of {name}"
    if not _close_weights(weights, [m / total for _, m in spec]):
        return f"weights differ from multiplicity / N for {name}"
    if mults is not None and list(mults) != [m for _, m in spec]:
        return f"multiplicities {mults} differ from the closed form of {name}"
    return None


def _reference_measure(diag, off) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and Golub-Welsch weights (squared first eigenvector entries)."""
    lams, vecs = eigh_tridiagonal(diag, off)
    return lams, vecs[0, :] ** 2


def _check_walk_moments(lams, weights, tree_degree: int, max_order: int) -> str | None:
    """Moments sum_i w_i lam_i^k against closed-walk counts of the tree."""
    expected = tree_walks(tree_degree, max_order)
    for k in range(max_order + 1):
        got = math.fsum(w * lam**k for lam, w in zip(lams, weights))
        if abs(got - expected[k]) > 1e-7 * max(1, expected[k]):
            return f"moment {k} of the measure is {got!r}, tree count {expected[k]}"
    return None


def recount_witness(edges, payload: dict) -> str | None:
    """Recompute both counts of a NonRegularityWitness from the edge list."""
    adjacency: dict[int, list[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)

    def dist_from(source):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    try:
        k = payload["distance"]
        kind = payload["count_type"]
        counts = []
        for pair_key, count_key in (("first_pair", "first_count"), ("second_pair", "second_count")):
            i, j = payload[pair_key]
            dist = dist_from(i)
            if dist.get(j) != k:
                return f"{pair_key} {[i, j]} is not at distance {k}"
            target = k - 1 if kind == "a" else k + 1
            count = sum(1 for u in adjacency[j] if dist[u] == target)
            if count != payload[count_key]:
                return f"{count_key} is {payload[count_key]}, recount gives {count}"
            counts.append(count)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed witness: {exc!r}"
    if counts[0] == counts[1]:
        return "witness counts do not differ"
    return None


# ---------------------------------------------------------------- per command


def _check_certify(payload, expect, argv) -> str | None:
    want = sequence_json(drg_pairs(expect[1]))
    if payload != want:
        return f"certify payload {payload} differs from closed form {want}"
    return None


def _check_measure(payload, expect, argv) -> str | None:
    atoms = payload["atoms"]
    return _check_graph_spectrum(
        [a["lambda"] for a in atoms],
        [a["weight"] for a in atoms],
        [a["multiplicity"] for a in atoms],
        expect[1],
    )


def _check_spectrum(payload, expect, argv) -> str | None:
    kind, param = expect
    lams, weights = payload["eigenvalues"], payload["weights"]
    if abs(math.fsum(weights) - 1.0) > 1e-8:
        return f"weights sum to {math.fsum(weights)!r}"
    if kind == "drg":
        tau = float(sequence_json(drg_pairs(param))["alpha"][-1])
        if payload["tau"] != tau:
            return f"tau {payload['tau']} is not the canonical {tau}"
        return _check_graph_spectrum(lams, weights, payload.get("multiplicities"), param)
    if kind == "hamming":
        measure = hamming_measure(param)
        if payload["tau"] != 0.0:
            return f"tau {payload['tau']} is not the canonical 0"
        if not _close_values(lams, [lam for lam, _ in measure], float(param)):
            return f"eigenvalues differ from D - 2k for H({param},2)"
        if not _close_weights(weights, [w for _, w in measure]):
            return f"weights differ from C(D,k)/2^D for H({param},2)"
        return None
    if kind == "tree_prefix":
        pairs = tree_prefix_pairs(param)
        tau = float(sequence_json(pairs)["alpha"][-1])
        if payload["tau"] != tau:
            return f"tau {payload['tau']} is not the canonical {tau}"
        ref_lams, ref_weights = _reference_measure(*jacobi_entries(pairs, tau))
        if not _close_values(lams, list(ref_lams), float(np.abs(ref_lams).max())):
            return f"eigenvalues differ from LAPACK on the m={param} tree prefix"
        if not _close_weights(weights, list(ref_weights)):
            return f"weights differ from Golub-Welsch on the m={param} tree prefix"
        return _check_walk_moments(lams, weights, 3, min(2 * param, 8))
    raise ValueError(f"unknown spectrum expectation {expect!r}")


def _check_interlace(payload, expect, argv) -> str | None:
    kind, param = expect
    pairs = hamming_pairs(param) if kind == "hamming" else tree_prefix_pairs(param)
    taus = [float(argv[i + 1]) for i, a in enumerate(argv) if a == "--tau"]
    if [payload["tau1"], payload["tau2"]] != taus:
        return f"taus {payload['tau1']}, {payload['tau2']} differ from {taus}"
    spectra = []
    for tau, key in zip(taus, ("spectrum1", "spectrum2")):
        ref = eigvalsh_tridiagonal(*jacobi_entries(pairs, tau))
        if not _close_values(payload[key], list(ref), float(np.abs(ref).max())):
            return f"{key} differs from LAPACK at tau={tau}"
        spectra.append(ref)
    gap = float(np.abs(spectra[0][:, None] - spectra[1][None, :]).min())
    if abs(payload["min_gap"] - gap) > EIG_RTOL * max(1.0, float(np.abs(spectra[0]).max())):
        return f"min_gap {payload['min_gap']!r} differs from {gap!r}"
    if payload["interlaced"] is not True:  # distinct taus on an unreduced tridiagonal
        return "spectra of distinct boundary values must interlace"
    return None


def _check_jacobi(payload, expect, argv) -> str | None:
    n = expect[1]
    size = int(argv[argv.index("--size") + 1])
    want_off = [math.sqrt(n)] + [math.sqrt(n - 1)] * (size - 2)
    if payload["size"] != size or payload["tau"] is not None:
        return f"size/tau {payload['size']}/{payload['tau']} wrong for a size-{size} corner"
    if payload["diag"] != [0.0] * size:
        return "tree corner diagonal is not all zero"
    off = payload["offdiag"]
    if len(off) != size - 1 or any(abs(g - e) > 1e-15 * e for g, e in zip(off, want_off)):
        return "tree corner off-diagonal differs from sqrt(n), sqrt(n-1), ..."
    return None


def _check_moments(payload, expect, argv) -> str | None:
    n = expect[1]
    family = argv[argv.index("--family") + 1]
    order = int(argv[argv.index("--order") + 1])
    if payload["family"] != family or payload["order"] != order:
        return "family or order not echoed"
    want = tree_walks(n, order)
    if payload["moments"] != want:
        return f"exact moments differ from the tree's closed-walk counts"
    quadrature = payload.get("quadrature")
    if quadrature is not None and (
        len(quadrature) != order + 1
        or any(abs(q - m) > 1e-6 * max(1, m) for q, m in zip(quadrature, want))
    ):
        return "quadrature moments differ from the closed-walk counts"
    return None


def _check_verify(payload, expect, argv) -> str | None:
    reports = payload["reports"]
    if len(reports) != 1 or reports[0]["input"] != argv[1]:
        return "expected one report for the input"
    checks = {c["name"]: c for c in reports[0]["checks"]}
    missing = [name for name in VERIFY_CHECKS if name not in checks]
    if missing:
        return f"checks missing from the battery: {missing}"
    failing = [name for name, c in checks.items() if c["pass"] is not True]
    if failing:
        return f"checks failed: {failing}"
    name = expect[1]
    if checks["certify"]["detail"] != sequence_json(drg_pairs(name)):
        return "certify detail differs from the closed form"
    detail = checks["oracle_spectrum"]["detail"]
    spec = drg_spectrum(name)
    scale = max(abs(lam) for lam, _ in spec)
    for key in ("dense", "measure"):
        got = detail[key]
        if not _close_values([v for v, _ in got], [lam for lam, _ in spec], scale) or [
            m for _, m in got
        ] != [m for _, m in spec]:
            return f"oracle_spectrum {key} differs from the closed form of {name}"
    return None


_CHECKERS = {
    "certify": _check_certify,
    "measure": _check_measure,
    "spectrum": _check_spectrum,
    "interlace": _check_interlace,
    "jacobi": _check_jacobi,
    "moments": _check_moments,
    "verify": _check_verify,
}


def check_result(argv, expect, want_status: str, status: str, payload) -> str | None:
    """None if the envelope is the right answer for the op, else the reason."""
    if status != want_status:
        detail = payload.get("error", "") if isinstance(payload, dict) else ""
        return f"status {status} {detail}".strip() + f", expected {want_status}"
    try:
        if expect[0] == "witness":
            return recount_witness(expect[1], payload)
        return _CHECKERS[argv[0]](payload, expect, argv)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed payload: {exc!r}"
