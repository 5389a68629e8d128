"""JSON-emitting command line front end.

Every subcommand prints one envelope {"status", "payload", "diagnostics"}
and exits 0 (ok), 2 (witness: a check or certification failed with a
recheckable witness) or 1 (error). Output is deterministic: fixed field
order, floats in shortest round-trip form (at most 17 significant
digits). The envelope is json.dumps(envelope, indent=2) byte for byte,
from one renderer, _render. --pretty renders a human-readable view
instead.

An argv that starts with a command name is parsed once, by that
command's own parser. Any other argv (a leading --pretty or -h, an
unknown or missing command) goes through the top-level parser, which
hands the command's tokens on to the same command parsers.
"""

from __future__ import annotations

import argparse
import json
import json.encoder
import math
import os
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
    _distance_polys,
    certify_distance_regular,
    degree_sequence,
    parse_pairs,
    sequence_from_pairs,
)
from .jacobi import JacobiError

EXIT_CODES = {"ok": 0, "witness": 2, "error": 1}
# Longer --array lists are refused after parsing, before the sequence is built.
# On the 8192-pair tree prefix, interlace takes about 3.6 s as a whole command
# (2-core x86 VM, one BLAS thread), 2.2 s of it LAPACK's two solves; it grows near m^2.
MAX_ARRAY_PAIRS = 8192


class _FloatLiteral:
    """argparse's negative-number matcher, with float() as the one float grammar."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True


_NEGATIVE_NUMBER = _FloatLiteral()


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


class _NotDistanceRegular(Exception):
    """Certification of the source graph found a witness; main renders it."""

    def __init__(self, witness: NonRegularityWitness):
        self.witness = witness


def load_graph(source: str) -> Graph:
    """Resolve a graph source: builtin generator name or edge-list file.

    A file of more than graphs.MAX_EDGE_LIST_BYTES bytes is refused
    before it is read.
    """
    if graphs.is_builtin_name(source):
        return graphs.graph_from_name(source)
    path = Path(source)
    if not path.exists():
        raise CliUsageError(f"no such file or builtin graph: {source}")
    size = path.stat().st_size
    if size > graphs.MAX_EDGE_LIST_BYTES:
        raise GraphError(
            f"edge-list file has {size} bytes, at most {graphs.MAX_EDGE_LIST_BYTES}"
        )
    return graphs.parse_edge_list(path.read_text())


def parse_array(text: str) -> IntersectionSequence:
    """Parse an explicit sequence "a1,b1;a2,b2;..."."""
    try:
        pairs = parse_pairs(text, "--array")
    except SequenceError as exc:
        raise CliUsageError(str(exc)) from None
    if not pairs:
        raise CliUsageError("--array needs at least one pair")
    if len(pairs) > MAX_ARRAY_PAIRS:
        raise CliUsageError(f"--array has {len(pairs)} pairs, at most {MAX_ARRAY_PAIRS}")
    return sequence_from_pairs(pairs)


def _resolve_sequence(args) -> tuple[IntersectionSequence, int | None]:
    """Sequence plus vertex count (when a graph is the source).

    Both sources or neither is a CliUsageError, raised before any load.
    A graph that fails certification raises _NotDistanceRegular.
    """
    array, source = getattr(args, "array", None), args.input
    if array is not None and source is not None:
        raise CliUsageError("give a graph source or --array, not both")
    if array is not None:
        return parse_array(array), None
    if source is None:
        raise CliUsageError("give a graph source or --array")
    g = load_graph(source)
    outcome = certify_distance_regular(g)
    if isinstance(outcome, NonRegularityWitness):
        raise _NotDistanceRegular(outcome)
    return outcome, g.vertex_count


def _resolve_tau(args, seq: IntersectionSequence) -> float:
    if getattr(args, "tau", None) is not None:
        return float(args.tau)
    return float(jacobi.canonical_tau(seq))


def cmd_certify(args) -> CommandResult:
    seq, _ = _resolve_sequence(args)
    return CommandResult("ok", seq.to_json())


def cmd_spectrum(args) -> CommandResult:
    seq, n = _resolve_sequence(args)
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
    if g.vertex_count > oracle.MAX_DENSE_VERTICES:  # refused before certification's work
        raise oracle.DenseSizeError(g.vertex_count)
    report = {"input": source, "checks": []}

    def check(name: str, passed: bool, detail):
        report["checks"].append({"name": name, "pass": passed, "detail": detail})

    seq = certify_distance_regular(g)
    witness = isinstance(seq, NonRegularityWitness)
    check("certify", not witness, seq.to_json())
    if witness:
        return report

    # One exact pass, apart from certification's counts, also proves the table: its equations
    # below d are the basis identity, and, given that, equation d gives both residuals.
    adj = oracle.dense_adjacency(g)
    mismatch, basis_error, residuals = oracle.recurrence_pass(g, seq, adj)
    check("recurrence", mismatch is None,
          "exact" if mismatch is None else {"mismatch": list(mismatch)})
    if basis_error is None:
        check("basis_identity", True, "exact")
        residual, shift_residual = residuals
        check("minimal_polynomial", residual == 0, {"max_entry": residual})
        check("minimal_polynomial_shifted", shift_residual == 0,
              {"max_entry_vs_predicted": shift_residual})
    else:
        check("basis_identity", False, str(basis_error))

    dense = oracle.dense_symmetric_eigen(adj)
    try:
        measure = jacobi.spectral_measure(seq, vertex_count=g.vertex_count)
    except JacobiError as exc:
        check("oracle_spectrum", False, {"error": type(exc).__name__, "message": str(exc)})
    else:
        agree = len(dense.clusters) == len(measure.atoms) and all(
            abs(cv - atom.eigenvalue) < 1e-7 and cm == atom.multiplicity
            for (cv, cm), atom in zip(dense.clusters, measure.atoms)
        )
        check("oracle_spectrum", agree, {
            "dense": [[cv, cm] for cv, cm in dense.clusters],
            "measure": [[a.eigenvalue, a.multiplicity] for a in measure.atoms],
        })

    # Given the basis identity A_k = p_k(A), spec(A_k) is p_k of the dense spectrum.
    polys = _distance_polys(seq, dense.eigenvalues)
    basis_ok = basis_error is None
    degs = degree_sequence(seq)
    norm_ok = basis_ok and all(np.abs(p).max() <= deg + 1e-8 for p, deg in zip(polys, degs))
    check("norm_bound", norm_ok, "norm(A_k) <= deg(A_k)" if basis_ok else "needs basis_identity")
    return report


def cmd_verify(args) -> CommandResult:
    reports = [_verify_one(s) for s in args.inputs]
    failing = [f"{r['input']}:{c['name']}" for r in reports for c in r["checks"] if not c["pass"]]
    return CommandResult("witness" if failing else "ok", {"reports": reports}, failing)


def cmd_moments(args) -> CommandResult:
    gen = families.family_from_name(args.family)
    if args.order < 0:
        raise CliUsageError("--order must be nonnegative")
    tree = gen.description.startswith("tree:")
    # both caps refuse before the walk; past the exact walk's, moment_sequence's message comes first
    if tree and args.order <= families.MAX_MOMENT_ORDER:
        quadrature = families.density_moments(gen.degree, args.order)  # refuses beyond float64
    exact = families.moment_sequence(gen, args.order)
    # Python refuses to write an int of more than `limit` digits (0: no cap, as before 3.10.7).
    # Moments are nonnegative, and one below 2^(3 limit) < 10^limit fits.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(exact).bit_length() > 3 * limit:
        bound = 10**limit
        for k, m in enumerate(exact):
            if m >= bound:
                raise SequenceError(f"moment {k} has more than {limit} digits, the most that "
                                    "Python converts to text (sys.get_int_max_str_digits)")
    payload = {"family": gen.description, "order": args.order, "moments": exact}
    if tree:
        payload["quadrature"] = quadrature
        payload["abs_diff"] = [abs(q - m) for q, m in zip(quadrature, exact)]
    return CommandResult("ok", payload)


def cmd_measure(args) -> CommandResult:
    seq, n = _resolve_sequence(args)
    measure = jacobi.spectral_measure(seq, vertex_count=n)
    if args.plot_data:
        Path(args.plot_data).write_text(measure.plot_table())
    return CommandResult("ok", measure.to_json())


def cmd_interlace(args) -> CommandResult:
    seq, _ = _resolve_sequence(args)
    if len(args.tau) != 2:
        raise CliUsageError("interlace needs exactly two --tau values")
    tau1, tau2 = float(args.tau[0]), float(args.tau[1])
    if tau1 == tau2:
        raise CliUsageError("interlace needs two different --tau values")
    (e1, e2), (tol1, tol2) = jacobi.completion_spectra(seq, (tau1, tau2), args.tol)
    # each root lies within its tol/2 of its eigenvalue, so a gap above the mean tol separates them
    interlaced, min_gap = jacobi.spectra_interlace(e1, e2, (tol1 + tol2) / 2)
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
    if args.family is not None:
        if args.canonical or any(v is not None for v in (args.input, args.array, args.tau)):
            raise CliUsageError("--family takes no graph source, --array, --tau or --canonical")
        gen = families.family_from_name(args.family)
        op = families.truncated_jacobi(gen, 8 if args.size is None else args.size)
        return CommandResult("ok", op.to_json())
    if args.size is not None:
        raise CliUsageError("--size needs --family")
    seq, _ = _resolve_sequence(args)
    tau = _resolve_tau(args, seq)
    return CommandResult("ok", jacobi.build_jacobi(seq, tau).to_json())


_ENCODE = json.JSONEncoder().encode  # without indent: json's C encoder, ", " between items
# Shorter number runs are joined from their items' text: below about 8 items that
# costs less than building the C encoder for one call (timeit, 2-core Xeon VM).
_SHORT_RUN = 8
_FLOAT_SPELLINGS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's, not repr's


def _render(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, for string keys.

    indent turns json's C encoder off, so each long run of numbers goes
    through it in one call instead, and its ", " becomes the newline and
    indent (no number's text holds ", "). Scalars are encoded here, as
    json's pure-Python encoder does; anything else reaches _ENCODE and
    its TypeError.
    """
    if isinstance(obj, str):
        return json.encoder.encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _FLOAT_SPELLINGS.get(text, text)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (json.encoder.encode_basestring_ascii(key) + ": " + _render(value, inner)
                 for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if len(obj) >= _SHORT_RUN and set(map(type, obj)) <= {int, float}:
            body = _ENCODE(obj)[1:-1].replace(", ", "," + inner)
        else:
            body = ("," + inner).join(_render(value, inner) for value in obj)
        return "[" + inner + body + pad + "]"
    return _ENCODE(obj)


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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-3" and "-inf" as options; take "-" and any float literal as a value
        self._negative_number_matcher = _NEGATIVE_NUMBER

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
    p.add_argument("--order", type=int, required=True,
                   help=f"highest moment, at most {families.MAX_MOMENT_ORDER}")
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
    p.add_argument("--size", type=int, default=None,
                   help=f"truncation size with --family, at most {families.MAX_TRUNCATION_SIZE}")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tau", type=float, default=None)
    group.add_argument("--canonical", action="store_true")
    p.set_defaults(handler=cmd_jacobi)

    return parser


_PARSER = build_parser()  # parse_args leaves the parser as it was, so every call shares it
# the command parsers by name, the choices of _PARSER's subparsers action
(_COMMANDS,) = [a.choices for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction)]


def _parse(argv) -> argparse.Namespace:
    """_PARSER.parse_args(argv), parsing a command's tokens once.

    The top-level parser hands every token after the command name to
    the command's parser (nargs PARSER), which reads them as a direct
    call does; _Parser's errors carry no prog prefix, so both report
    alike. The namespace starts with the two attributes the top-level
    parser sets, and argparse adds only those it does not have.
    """
    if argv is None:
        argv = sys.argv[1:]
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(pretty=False, command=argv[0]))


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except CliUsageError as exc:
        result = CommandResult("error", {"error": "usage", "message": str(exc)})
        _emit(_render(result.to_json()))
        return EXIT_CODES["error"]
    try:
        result = args.handler(args)
    except _NotDistanceRegular as exc:
        result = CommandResult("witness", exc.witness.to_json(), ["not distance-regular"])
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
    _emit(_pretty(result) if getattr(args, "pretty", False) else _render(result.to_json()))
    return EXIT_CODES[result.status]


def _emit(text: str) -> None:
    """Print text and flush it; a reader that has closed the pipe ends it quietly."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout is flushed again at exit: point it at os.devnull, so that flush succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
