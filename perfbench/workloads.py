"""Seeded op lists for the three benchmark workloads.

Each workload is a desk part (small inputs, interactive use) and a
ladder part (the largest inputs drgjacobi 0.1.0 handles in seconds). A
pass runs every op once, in an order shuffled from the seed and the
pass index, and no two ops of a pass share an input. Each pass runs in
its own interpreter, so no input repeats within a process. Edge-list
inputs are written afresh for every pass with a seeded vertex
relabelling.

The ladder stops well short of the ROADMAP's size ladder
(hypercube:6..11, cycle:50..2000, tree m up to 8000): in drgjacobi
0.1.0 `verify` on cycle:500 takes 51 s and `certify complete:400` 7.4 s,
so one pass would outlast a run. It grows once the distance layer and
the oracle are replaced.

KNOWN_DEFECTS lists the rungs that fail in drgjacobi 0.1.0, with the
error each raises today; a fix shows as a higher success_rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

KNOWN_DEFECTS = {
    "measure cycle:200": "WeightMismatchError",
    "spectrum tree-prefix:400": "WeightMismatchError",
    "spectrum hamming:16": "WeightMismatchError",
    "moments tree:3 order:16": "QuadratureNotConvergedError",
}


@dataclass(frozen=True)
class Op:
    """One CLI call with the closed form its answer must match.

    key names the logical op: with stable set, its stdout must be
    byte-identical in every pass. That includes the relabelled
    distance-regular files of certify, whose answers do not depend on
    the labels and whose file names are the same in every pass.
    expect is ("drg", name), ("witness", edges), ("hamming", D),
    ("tree_prefix", m) or ("tree", n).
    """

    key: str
    argv: tuple[str, ...]
    ladder: bool
    expect: tuple
    status: str = "ok"
    stable: bool = True

    @property
    def defect(self) -> str | None:
        return KNOWN_DEFECTS.get(self.key)


# ------------------------------------------------------------ graph inputs


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def complete_bipartite_edges(n: int) -> list[tuple[int, int]]:
    return [(u, n + v) for u in range(n) for v in range(n)]


def prism_edges(n: int) -> list[tuple[int, int]]:
    """C_n x K_2: regular, and not distance-regular for n >= 5."""
    ring = cycle_edges(n)
    return ring + [(u + n, v + n) for u, v in ring] + [(i, i + n) for i in range(n)]


def hypercube_edges(d: int) -> list[tuple[int, int]]:
    return [(v, v ^ (1 << bit)) for v in range(1 << d) for bit in range(d) if v < v ^ (1 << bit)]


def write_relabelled(edges, path: Path, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Write edges under a random vertex permutation; return the written edges."""
    n = 1 + max(max(e) for e in edges)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    path.write_text("".join(f"{u} {v}\n" for u, v in out))
    return tuple(out)


# ------------------------------------------------------------ array inputs


def hamming_pairs(dim: int) -> list[tuple[int, int]]:
    """H(D,2) (the D-cube): a_k = k, b_k = D - k + 1."""
    return [(k, dim - k + 1) for k in range(1, dim + 1)]


def tree_prefix_pairs(m: int, n: int = 3) -> list[tuple[int, int]]:
    """First m pairs of the n-regular tree: (1, n), (1, n-1), (1, n-1), ..."""
    return [(1, n)] + [(1, n - 1)] * (m - 1)


def array_text(pairs) -> str:
    """The --array syntax "a1,b1;a2,b2;..."."""
    return ";".join(f"{a},{b}" for a, b in pairs)


def tree_custom(n: int) -> str:
    """A custom: family with the n-regular tree's pairs (no quadrature route)."""
    return f"custom:1,{n};1,{n - 1};period=1"


# ------------------------------------------------------------ workloads


def _graph_ops(commands, name, ladder):
    return [Op(f"{cmd} {name}", (cmd, name), ladder, ("drg", name)) for cmd in commands]


def _file_ops(commands, label, edges, drg, ladder, workdir, rng):
    path = workdir / f"{label.replace(':', '_')}.txt"  # workdir "." gives a relative name
    written = write_relabelled(edges, path, rng)
    if drg:  # verify's dense spectrum depends on the vertex order in its last digits
        return [
            Op(f"{cmd} file:{label}", (cmd, str(path)), ladder, ("drg", label), stable=cmd != "verify")
            for cmd in commands
        ]
    return [
        Op(f"{cmd} file:{label}", (cmd, str(path)), ladder, ("witness", written), "witness", False)
        for cmd in commands
    ]


def finite_ladder(workdir: Path, rng: random.Random) -> list[Op]:
    desk_names = (
        [f"cycle:{n}" for n in range(3, 31)]
        + [f"complete:{n}" for n in range(2, 21)]
        + [f"hypercube:{d}" for d in range(1, 6)]
        + [f"complete_bipartite:{n}" for n in range(1, 13)]
        + ["petersen"]
    )
    commands = ("certify", "measure", "spectrum")
    ops = [op for name in desk_names for op in _graph_ops(commands, name, False)]
    for n in range(5, 15):
        ops += _file_ops(commands, f"prism:{n}", prism_edges(n), False, False, workdir, rng)
    ladder = [
        ("certify", "hypercube:9"),
        ("spectrum", "hypercube:8"),
        ("measure", "cycle:150"),
        ("measure", "cycle:200"),
        ("certify", "cycle:400"),
        ("certify", "complete:200"),
        ("measure", "complete_bipartite:100"),
    ]
    for cmd, name in ladder:
        ops += _graph_ops((cmd,), name, True)
    ops += _file_ops(("certify",), "hypercube:8", hypercube_edges(8), True, True, workdir, rng)
    ops += _file_ops(("certify",), "prism:400", prism_edges(400), False, True, workdir, rng)
    return ops


def verify_battery(workdir: Path, rng: random.Random) -> list[Op]:
    """Desk: 68 builtin names and 47 relabelled files of small DRGs (115 inputs)."""
    desk_names = (
        ["petersen"]
        + [f"complete:{n}" for n in range(3, 41)]
        + [f"cycle:{n}" for n in range(4, 21)]
        + [f"hypercube:{d}" for d in range(2, 5)]
        + [f"complete_bipartite:{n}" for n in range(2, 11)]
    )
    desk_files = (
        [(f"cycle:{n}", cycle_edges(n)) for n in range(4, 21)]
        + [(f"complete:{n}", complete_edges(n)) for n in range(3, 23)]
        + [(f"complete_bipartite:{n}", complete_bipartite_edges(n)) for n in range(2, 9)]
        + [(f"hypercube:{d}", hypercube_edges(d)) for d in range(2, 5)]
    )
    ladder_names = (
        "hypercube:6", "cycle:64", "complete:64", "complete_bipartite:32", "hypercube:7", "cycle:100",
    )
    ops = [op for name in desk_names for op in _graph_ops(("verify",), name, False)]
    for label, edges in desk_files:
        ops += _file_ops(("verify",), label, edges, True, False, workdir, rng)
    ops += [op for name in ladder_names for op in _graph_ops(("verify",), name, True)]
    return ops


def _array_ops(commands, kind, param, ladder):
    array = array_text(hamming_pairs(param) if kind == "hamming" else tree_prefix_pairs(param))
    label = f"{kind.replace('_', '-')}:{param}"
    extra = {"spectrum": (), "interlace": ("--tau", "0", "--tau", "1")}
    return [
        Op(f"{cmd} {label}", (cmd, "--array", array) + extra[cmd], ladder, (kind, param))
        for cmd in commands
    ]


def _moments_op(family, n, order, ladder):
    return Op(
        f"moments {family} order:{order}",
        ("moments", "--family", family, "--order", str(order)),
        ladder,
        ("tree", n),
    )


def _jacobi_op(n, size, ladder):
    family = f"tree:{n}"
    return Op(
        f"jacobi {family} size:{size}",
        ("jacobi", "--family", family, "--size", str(size)),
        ladder,
        ("tree", n),
    )


def family_spectra(workdir: Path, rng: random.Random) -> list[Op]:
    both = ("spectrum", "interlace")
    ops = []
    for dim in range(2, 14):
        ops += _array_ops(both, "hamming", dim, False)
    for m in range(1, 20):
        ops += _array_ops(both, "tree_prefix", m, False)
    for n in range(2, 10):
        ops += [_moments_op(f"tree:{n}", n, order, False) for order in (4, 8)]
        ops.append(_moments_op(tree_custom(n), n, 40, False))
        ops += [_jacobi_op(n, size, False) for size in (8, 16, 32, 64)]
    ops += _array_ops(("interlace",), "tree_prefix", 150, True)
    ops += _array_ops(("interlace",), "tree_prefix", 300, True)
    ops += _array_ops(("spectrum",), "tree_prefix", 400, True)
    ops += _array_ops(("spectrum",), "hamming", 16, True)
    ops.append(_jacobi_op(3, 4000, True))
    ops.append(_moments_op(tree_custom(3), 3, 300, True))
    ops.append(_moments_op("tree:3", 3, 16, True))
    return ops


_BUILDERS = {
    "finite-ladder": finite_ladder,
    "verify-battery": verify_battery,
    "family-spectra": family_spectra,
}
WORKLOADS = tuple(_BUILDERS)


def pass_ops(workload: str, seed: int, pass_index: int, workdir: Path) -> list[Op]:
    """The ops of one pass, in seeded order; edge-list files go into workdir."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    workdir.mkdir(parents=True, exist_ok=True)
    ops = _BUILDERS[workload](workdir, rng)
    rng.shuffle(ops)
    return ops
