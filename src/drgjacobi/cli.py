"""JSON-emitting command line front end.

Every subcommand prints one envelope {"status", "payload", "diagnostics"}
and exits 0 (ok), 2 (witness: a check or certification failed with a
recheckable witness) or 1 (error). Output is deterministic: fixed field
order, floats in shortest round-trip form (at most 17 significant
digits). --pretty renders a human-readable view instead.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import families, graphs, jacobi, oracle
from .graphs import Graph, GraphError
from .intersection import (
    IntersectionSequence,
    NonRegularityWitness,
    SequenceError,
    certify_distance_regular,
    degree_sequence,
    parse_pairs,
    sequence_from_pairs,
    verify_recurrence,
)
from .jacobi import JacobiError

EXIT_CODES = {"ok": 0, "witness": 2, "error": 1}


@dataclass(frozen=True)
class CommandResult:
    status: str
    payload: dict
    diagnostics: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "payload": self.payload,
            "diagnostics": list(self.diagnostics),
        }


class CliUsageError(Exception):
    pass


def load_graph(source: str) -> Graph:
    """Resolve a graph source: builtin generator name or edge-list file."""
    if graphs.is_builtin_name(source):
        return graphs.graph_from_name(source)
    path = Path(source)
    if not path.exists():
        raise CliUsageError(f"no such file or builtin graph: {source}")
    return graphs.parse_edge_list(path.read_text())


def parse_array(text: str) -> IntersectionSequence:
    """Parse an explicit sequence "a1,b1;a2,b2;..."."""
    try:
        pairs = parse_pairs(text, "--array")
    except SequenceError as exc:
        raise CliUsageError(str(exc)) from None
    if not pairs:
        raise CliUsageError("--array needs at least one pair")
    return sequence_from_pairs(pairs)


def _resolve_sequence(args) -> tuple[IntersectionSequence, int | None, NonRegularityWitness | None]:
    """Sequence plus vertex count (when a graph is the source)."""
    if getattr(args, "array", None):
        return parse_array(args.array), None, None
    if getattr(args, "input", None) is None:
        raise CliUsageError("give a graph source or --array")
    g = load_graph(args.input)
    outcome = certify_distance_regular(g)
    if isinstance(outcome, NonRegularityWitness):
        return None, None, outcome
    return outcome, g.vertex_count, None


def _resolve_tau(args, seq: IntersectionSequence) -> float:
    if getattr(args, "tau", None) is not None:
        return float(args.tau)
    return float(jacobi.canonical_tau(seq))


def cmd_certify(args) -> CommandResult:
    g = load_graph(args.input)
    outcome = certify_distance_regular(g)
    if isinstance(outcome, NonRegularityWitness):
        return CommandResult("witness", outcome.to_json(), ["not distance-regular"])
    return CommandResult("ok", outcome.to_json())


def cmd_spectrum(args) -> CommandResult:
    seq, n, witness = _resolve_sequence(args)
    if witness is not None:
        return CommandResult("witness", witness.to_json(), ["not distance-regular"])
    tau = _resolve_tau(args, seq)
    vertex_count = n if tau == float(jacobi.canonical_tau(seq)) else None
    atoms = jacobi.spectral_measure(seq, vertex_count, args.tol, tau).atoms
    payload = {
        "tau": tau,
        "eigenvalues": [a.eigenvalue for a in atoms],
        "weights": [a.weight for a in atoms],
    }
    if vertex_count is not None:
        payload["multiplicities"] = [a.multiplicity for a in atoms]
    return CommandResult("ok", payload)


def _verify_one(source: str) -> dict:
    g = load_graph(source)
    report = {"input": source, "checks": []}

    def check(name: str, passed: bool, detail):
        report["checks"].append({"name": name, "pass": passed, "detail": detail})

    seq = certify_distance_regular(g)
    witness = isinstance(seq, NonRegularityWitness)
    check("certify", not witness, seq.to_json())
    if witness:
        return report

    rec = verify_recurrence(g, seq)
    check("recurrence", rec.ok, "exact" if rec.ok else {"mismatch": list(rec.mismatch)})

    mats = oracle.dense_distance_matrices(g)
    tau_star = float(jacobi.canonical_tau(seq))
    try:
        residual = float(np.abs(oracle.matrix_poly_firstkind(g, seq, tau_star, mats)).max())
        check("basis_identity", True, "within 1e-10")
        check("minimal_polynomial", residual < 1e-8, {"max_entry": residual})
        shifted = oracle.matrix_poly_firstkind(g, seq, tau_star + 1.0, mats)
        top = mats[-1] / np.sqrt(degree_sequence(seq)[-1])
        shift_residual = float(np.abs(shifted + top).max())
        check("minimal_polynomial_shifted", shift_residual < 1e-8,
              {"max_entry_vs_predicted": shift_residual})
    except oracle.BasisMismatchError as exc:
        check("basis_identity", False, str(exc))

    try:
        measure = jacobi.spectral_measure(seq, vertex_count=g.vertex_count)
    except JacobiError as exc:
        check("oracle_spectrum", False, {"error": type(exc).__name__, "message": str(exc)})
    else:
        dense = oracle.dense_symmetric_eigen(oracle.dense_adjacency(g).astype(float))
        agree = len(dense.clusters) == len(measure.atoms) and all(
            abs(cv - atom.eigenvalue) < 1e-7 and cm == atom.multiplicity
            for (cv, cm), atom in zip(dense.clusters, measure.atoms)
        )
        check("oracle_spectrum", agree, {
            "dense": [[cv, cm] for cv, cm in dense.clusters],
            "measure": [[a.eigenvalue, a.multiplicity] for a in measure.atoms],
        })

    degs = degree_sequence(seq)
    norm_ok = True
    for k, mat in enumerate(mats):
        if oracle.operator_norm(mat.astype(float)) > degs[k] + 1e-8:
            norm_ok = False
            break
    check("norm_bound", norm_ok, "norm(A_k) <= deg(A_k)")
    return report


def cmd_verify(args) -> CommandResult:
    reports = [_verify_one(s) for s in args.inputs]
    all_pass = all(c["pass"] for r in reports for c in r["checks"])
    failing = [
        f"{r['input']}:{c['name']}" for r in reports for c in r["checks"] if not c["pass"]
    ]
    return CommandResult(
        "ok" if all_pass else "witness", {"reports": reports}, failing
    )


def cmd_moments(args) -> CommandResult:
    gen = families.family_from_name(args.family)
    if args.order < 0:
        raise CliUsageError("--order must be nonnegative")
    exact = families.moment_sequence(gen, args.order)
    payload = {"family": gen.description, "order": args.order, "moments": exact}
    if gen.description.startswith("tree:"):
        n = int(gen.description.split(":")[1])
        quadrature = [families.density_moment(n, k) for k in range(args.order + 1)]
        payload["quadrature"] = quadrature
        payload["abs_diff"] = [abs(q - m) for q, m in zip(quadrature, exact)]
    return CommandResult("ok", payload)


def cmd_measure(args) -> CommandResult:
    seq, n, witness = _resolve_sequence(args)
    if witness is not None:
        return CommandResult("witness", witness.to_json(), ["not distance-regular"])
    measure = jacobi.spectral_measure(seq, vertex_count=n)
    if args.plot_data:
        Path(args.plot_data).write_text(measure.plot_table())
    return CommandResult("ok", measure.to_json())


def cmd_interlace(args) -> CommandResult:
    seq, _, witness = _resolve_sequence(args)
    if witness is not None:
        return CommandResult("witness", witness.to_json(), ["not distance-regular"])
    if len(args.tau) != 2:
        raise CliUsageError("interlace needs exactly two --tau values")
    tau1, tau2 = float(args.tau[0]), float(args.tau[1])
    if tau1 == tau2:
        raise CliUsageError("interlace needs two different --tau values")
    e1 = jacobi.eigenvalues(jacobi.build_jacobi(seq, tau1), args.tol)
    e2 = jacobi.eigenvalues(jacobi.build_jacobi(seq, tau2), args.tol)
    # each root lies within tol/2 of its eigenvalue, so a gap above tol separates them
    interlaced, min_gap = jacobi.spectra_interlace(e1, e2, 1e-9 if args.tol is None else args.tol)
    payload = {
        "tau1": tau1,
        "tau2": tau2,
        "spectrum1": e1,
        "spectrum2": e2,
        "min_gap": min_gap,
        "interlaced": interlaced,
    }
    return CommandResult("ok", payload)


def cmd_jacobi(args) -> CommandResult:
    if args.family:
        gen = families.family_from_name(args.family)
        op = families.truncated_jacobi(gen, args.size)
        return CommandResult("ok", op.to_json())
    seq, _, witness = _resolve_sequence(args)
    if witness is not None:
        return CommandResult("witness", witness.to_json(), ["not distance-regular"])
    tau = _resolve_tau(args, seq)
    return CommandResult("ok", jacobi.build_jacobi(seq, tau).to_json())


def _pretty(result: CommandResult) -> str:
    lines = [f"status: {result.status}"]
    lines += _pretty_obj(result.payload, indent=0)
    for note in result.diagnostics:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _pretty_obj(obj, indent: int) -> list[str]:
    pad = "  " * indent
    out = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                out.append(f"{pad}{key}:")
                out += _pretty_obj(value, indent + 1)
            else:
                out.append(f"{pad}{key}: {_flat(value)}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                out.append(f"{pad}-")
                out += _pretty_obj(value, indent + 1)
            else:
                out.append(f"{pad}- {_flat(value)}")
    else:
        out.append(f"{pad}{_flat(obj)}")
    return out


def _is_flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return False


def _flat(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    return json.dumps(value)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for witnesses
        raise CliUsageError(message)


def positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, not {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="drgjacobi",
        description="Certify distance-regular graphs and analyze their Jacobi spectra.",
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tol", type=positive_float, default=None,
                       help="LAPACK solves; Sturm counts certify each root within tol/2")

    p = sub.add_parser("certify", help="intersection sequence or witness")
    p.add_argument("input", help="edge-list file or builtin name (petersen, complete:5, ...)")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("spectrum", help="eigenvalues and weights of J_tau")
    p.add_argument("input", nargs="?", help="graph source")
    p.add_argument("--array", help="explicit sequence a1,b1;a2,b2;...")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tau", type=float, default=None)
    group.add_argument("--canonical", action="store_true", help="tau = degree - a_d (default)")
    add_tol(p)
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("verify", help="full invariant battery per input")
    p.add_argument("inputs", nargs="+", help="graph sources")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("moments", help="exact truncated-matrix moments of a family")
    p.add_argument("--family", required=True, help="tree:n or custom:a1,b1;...;period=p")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(handler=cmd_moments)

    p = sub.add_parser("measure", help="spectral measure with multiplicities")
    p.add_argument("input", help="graph source")
    p.add_argument("--plot-data", help="write a two-column 'lambda weight' table here")
    p.set_defaults(handler=cmd_measure)

    p = sub.add_parser("interlace", help="compare spectra at two boundary values")
    p.add_argument("input", nargs="?", help="graph source")
    p.add_argument("--array", help="explicit sequence a1,b1;a2,b2;...")
    p.add_argument("--tau", type=float, action="append", default=[], help="give twice")
    add_tol(p)
    p.set_defaults(handler=cmd_interlace)

    p = sub.add_parser("jacobi", help="dump a Jacobi matrix")
    p.add_argument("input", nargs="?", help="graph source")
    p.add_argument("--array", help="explicit sequence a1,b1;a2,b2;...")
    p.add_argument("--family", help="tree:n or custom:... (corner truncation)")
    p.add_argument("--size", type=int, default=8, help="truncation size with --family")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tau", type=float, default=None)
    group.add_argument("--canonical", action="store_true")
    p.set_defaults(handler=cmd_jacobi)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except CliUsageError as exc:
        result = CommandResult("error", {"error": "usage", "message": str(exc)})
        print(json.dumps(result.to_json(), indent=2))
        return EXIT_CODES["error"]
    try:
        result = args.handler(args)
    except (
        CliUsageError,
        GraphError,
        SequenceError,
        JacobiError,
        families.QuadratureNotConvergedError,
        oracle.OracleError,
        OSError,
    ) as exc:
        name = "usage" if isinstance(exc, CliUsageError) else type(exc).__name__
        result = CommandResult("error", {"error": name, "message": str(exc)})
    if getattr(args, "pretty", False):
        print(_pretty(result))
    else:
        print(json.dumps(result.to_json(), indent=2))
    return EXIT_CODES[result.status]


if __name__ == "__main__":
    sys.exit(main())
