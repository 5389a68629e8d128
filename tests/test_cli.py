import argparse
import contextlib
import io
import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from drgjacobi import cli, families, jacobi
from drgjacobi.cli import CliUsageError, _render, main
from drgjacobi.intersection import IntersectionSequence

GOLDEN_DIR = Path(__file__).parent / "golden"

PRISM_TEXT = "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n1 4\n2 5\n"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_certify_complete4(capsys):
    code, doc = run_json(capsys, ["certify", "complete:4"])
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"] == {
        "d": 1, "a": [1], "b": [3], "degree": 3, "alpha": [0, 2], "deg_k": [1, 3],
    }


def test_certify_path_file_witness(capsys, tmp_path):
    path = tmp_path / "path.edges"
    path.write_text("0 1\n1 2\n")
    code, doc = run_json(capsys, ["certify", str(path)])
    assert code == 2 and doc["status"] == "witness"
    assert doc["payload"]["kind"] == "NotRegular"


def test_certify_prism_witness_exit_code(capsys, tmp_path):
    path = tmp_path / "prism.edges"
    path.write_text(PRISM_TEXT)
    code, doc = run_json(capsys, ["certify", str(path)])
    assert code == 2
    assert doc["payload"]["kind"] == "NotDistanceRegular"


@pytest.mark.parametrize("pretty", [[], ["--pretty"]])
def test_every_graph_command_renders_the_same_witness(capsys, tmp_path, pretty):
    path = tmp_path / "prism.edges"
    path.write_text(PRISM_TEXT)
    code, expected = run(capsys, pretty + ["certify", str(path)])
    assert code == 2
    # interlace certifies before it checks its --tau count
    for argv in (["spectrum"], ["measure"], ["interlace"], ["interlace", "--tau", "1"], ["jacobi"]):
        assert run(capsys, pretty + argv + [str(path)]) == (2, expected)
    if not pretty:
        doc = json.loads(expected)
        assert doc["status"] == "witness" and doc["diagnostics"] == ["not distance-regular"]


def test_spectrum_complete6(capsys):
    code, doc = run_json(capsys, ["spectrum", "complete:6", "--canonical"])
    assert code == 0
    assert doc["payload"]["tau"] == 4.0
    assert doc["payload"]["eigenvalues"] == pytest.approx([-1.0, 5.0], abs=1e-10)
    assert doc["payload"]["multiplicities"] == [5, 1]


def test_spectrum_array_matches_graph(capsys):
    code1, doc1 = run_json(capsys, ["spectrum", "petersen"])
    code2, doc2 = run_json(capsys, ["spectrum", "--array", "1,3;1,2"])
    assert code1 == code2 == 0
    assert doc1["payload"]["eigenvalues"] == doc2["payload"]["eigenvalues"]
    assert doc1["payload"]["weights"] == doc2["payload"]["weights"]
    assert "multiplicities" in doc1["payload"]
    assert "multiplicities" not in doc2["payload"]  # no vertex count without a graph


def test_spectrum_tau_zero_disjoint_from_canonical(capsys):
    _, canonical = run_json(capsys, ["spectrum", "petersen"])
    _, shifted = run_json(capsys, ["spectrum", "petersen", "--tau", "0"])
    for x in canonical["payload"]["eigenvalues"]:
        for y in shifted["payload"]["eigenvalues"]:
            assert abs(x - y) > 1e-9


def test_verify_ok(capsys):
    code, doc = run_json(capsys, ["verify", "petersen", "complete:3"])
    assert code == 0 and doc["status"] == "ok"
    reports = doc["payload"]["reports"]
    assert [r["input"] for r in reports] == ["petersen", "complete:3"]
    for report in reports:
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "certify", "recurrence", "basis_identity", "minimal_polynomial",
            "minimal_polynomial_shifted", "oracle_spectrum", "norm_bound",
        ]
        assert all(c["pass"] for c in report["checks"])


def test_verify_witness_on_prism(capsys, tmp_path):
    path = tmp_path / "prism.edges"
    path.write_text(PRISM_TEXT)
    code, doc = run_json(capsys, ["verify", str(path)])
    assert code == 2 and doc["status"] == "witness"
    checks = doc["payload"]["reports"][0]["checks"]
    assert checks[0]["name"] == "certify" and not checks[0]["pass"]


def test_verify_keeps_going_after_a_spectral_error(capsys, monkeypatch):
    from drgjacobi import jacobi

    original = jacobi.spectral_measure

    def failing_on_cycle(seq, vertex_count=None, tol=None):
        if vertex_count == 12:
            raise jacobi.WeightMismatchError("sum formula vs derivative formula")
        return original(seq, vertex_count, tol)

    monkeypatch.setattr(jacobi, "spectral_measure", failing_on_cycle)
    code, doc = run_json(capsys, ["verify", "petersen", "cycle:12"])
    assert code == 2 and doc["status"] == "witness"
    petersen, cycle = doc["payload"]["reports"]
    assert len(petersen["checks"]) == 7 and all(c["pass"] for c in petersen["checks"])
    assert doc["diagnostics"] == ["cycle:12:oracle_spectrum"]
    spectrum = next(c for c in cycle["checks"] if c["name"] == "oracle_spectrum")
    assert spectrum["detail"]["error"] == "WeightMismatchError"
    assert spectrum["detail"]["message"]
    assert cycle["checks"][-1]["name"] == "norm_bound"


PAIR_LIST_ERRORS = [
    (["spectrum", "--array", "1,x"], "usage", "bad pair '1,x' in --array"),
    (["spectrum", "--array", "1,3,4"], "usage", "bad pair '1,3,4' in --array"),
    (["spectrum", "--array", ";"], "usage", "--array needs at least one pair"),
    (["moments", "--family", "custom:1,3;x", "--order", "2"],
     "SequenceError", "bad pair 'x' in 'custom:1,3;x'"),
    (["moments", "--family", "custom:1,3;1", "--order", "2"],
     "SequenceError", "bad pair '1' in 'custom:1,3;1'"),
    (["moments", "--family", "custom:1,3;period=x", "--order", "2"],
     "SequenceError", "bad period in 'custom:1,3;period=x'"),
    (["moments", "--family", "custom:1,x;period=y", "--order", "2"],
     "SequenceError", "bad pair '1,x' in 'custom:1,x;period=y'"),
]


@pytest.mark.parametrize("argv, error, message", PAIR_LIST_ERRORS)
def test_pair_list_error_envelopes(capsys, argv, error, message):
    code, doc = run_json(capsys, argv)
    assert code == 1
    assert doc == {"status": "error", "payload": {"error": error, "message": message},
                   "diagnostics": []}


def test_moments_tree2(capsys):
    code, doc = run_json(capsys, ["moments", "--family", "tree:2", "--order", "6"])
    assert code == 0
    assert doc["payload"]["moments"] == [1, 0, 2, 0, 6, 0, 20]
    assert all(d < 1e-6 for d in doc["payload"]["abs_diff"])


def test_moments_tree3_order2(capsys):
    code, doc = run_json(capsys, ["moments", "--family", "tree:3", "--order", "2"])
    assert code == 0
    assert doc["payload"]["moments"] == [1, 0, 3]


def test_moments_tree3_order12_quadrature_agreement(capsys):
    code, doc = run_json(capsys, ["moments", "--family", "tree:3", "--order", "12"])
    assert code == 0
    assert len(doc["payload"]["moments"]) == 13
    assert all(d < 1e-6 for d in doc["payload"]["abs_diff"])


def test_moments_custom_family_no_quadrature(capsys):
    code, doc = run_json(capsys, ["moments", "--family", "custom:1,3;1,2;period=1", "--order", "4"])
    assert code == 0
    assert doc["payload"]["moments"] == [1, 0, 3, 0, 15]
    assert "quadrature" not in doc["payload"]


def test_measure_complete4_and_plot_data(capsys, tmp_path):
    plot = tmp_path / "atoms.dat"
    code, doc = run_json(capsys, ["measure", "complete:4", "--plot-data", str(plot)])
    assert code == 0
    atoms = doc["payload"]["atoms"]
    assert [a["multiplicity"] for a in atoms] == [3, 1]
    assert atoms[0]["lambda"] == pytest.approx(-1.0, abs=1e-10)
    assert atoms[0]["weight"] == pytest.approx(0.75, abs=1e-10)
    assert atoms[1]["weight"] == pytest.approx(0.25, abs=1e-10)
    lines = plot.read_text().splitlines()
    assert lines[0] == "# lambda weight"
    assert len(lines) == 3
    lam, weight = map(float, lines[1].split())
    assert lam == pytest.approx(-1.0, abs=1e-10)
    assert weight == pytest.approx(0.75, abs=1e-10)


def test_measure_weights_sum_to_one(capsys):
    for source in ("petersen", "cycle:7", "hypercube:3"):
        _, doc = run_json(capsys, ["measure", source])
        total = sum(a["weight"] for a in doc["payload"]["atoms"])
        assert total == pytest.approx(1.0, abs=1e-10)


def test_interlace(capsys):
    code, doc = run_json(capsys, ["interlace", "petersen", "--tau", "2", "--tau", "0"])
    assert code == 0
    assert doc["payload"]["interlaced"] is True
    assert doc["payload"]["min_gap"] > 1e-9
    assert len(doc["payload"]["spectrum1"]) == 3


def test_interlace_tol_sets_the_gap(capsys):
    # roots certified within 5e-15 are disjoint at a gap of 6.7e-11
    argv = ["interlace", "petersen", "--tau", "2", "--tau", "2.000000001"]
    _, doc = run_json(capsys, argv + ["--tol", "1e-14"])
    assert doc["payload"]["min_gap"] == pytest.approx(6.7e-11, rel=0.01)
    assert doc["payload"]["interlaced"] is True
    _, doc = run_json(capsys, argv)  # without --tol the gap is the mean default tol, 8.9e-12
    assert doc["payload"]["interlaced"] is True
    _, doc = run_json(capsys, argv + ["--tol", "1e-10"])
    assert doc["payload"]["interlaced"] is False


def test_interlace_gap_default_is_the_mean_of_the_certificates_tols(capsys, monkeypatch):
    # each root is certified within its own default tol/2, from its own Gershgorin
    # width, so a gap above the mean of the two tols separates the spectra
    taus = (2.0, 2.000000001)
    petersen = IntersectionSequence((1, 1), (3, 2))
    tols = [jacobi._tolerance(jacobi.build_jacobi(petersen, tau), None) for tau in taus]
    gaps, spectra_interlace = [], jacobi.spectra_interlace

    def spy(e1, e2, tol):  # no default: the command always names its gap
        gaps.append(tol)
        return spectra_interlace(e1, e2, tol)

    monkeypatch.setattr(jacobi, "spectra_interlace", spy)
    argv = ["interlace", "petersen"] + [arg for tau in taus for arg in ("--tau", str(tau))]
    assert run_json(capsys, argv)[1]["payload"]["interlaced"] is True
    assert run_json(capsys, argv + ["--tol", "1e-10"])[1]["payload"]["interlaced"] is False
    assert gaps == [(tols[0] + tols[1]) / 2, 1e-10] and 8e-12 < gaps[0] < 1e-11


def test_interlace_needs_two_taus(capsys):
    code, doc = run_json(capsys, ["interlace", "petersen", "--tau", "2"])
    assert code == 1 and doc["status"] == "error"


def test_jacobi_graph_and_family(capsys):
    code, doc = run_json(capsys, ["jacobi", "petersen", "--canonical"])
    assert code == 0
    assert doc["payload"]["diag"] == [0.0, 0.0, 2.0]
    code, doc = run_json(capsys, ["jacobi", "--family", "tree:2", "--size", "4"])
    assert code == 0
    assert doc["payload"]["tau"] is None
    assert doc["payload"]["diag"] == [0.0, 0.0, 0.0, 0.0]
    code, doc = run_json(capsys, ["jacobi", "--array", "1,3;1,2", "--tau", "0.5"])
    assert code == 0
    assert doc["payload"]["diag"] == [0.0, 0.0, 0.5]


def test_spectrum_explicit_canonical_tau_keeps_multiplicities(capsys):
    _, doc = run_json(capsys, ["spectrum", "petersen", "--tau", "2"])
    assert doc["payload"]["multiplicities"] == [4, 5, 1]


def test_unknown_source_is_error(capsys):
    code, doc = run_json(capsys, ["certify", "no-such-graph"])
    assert code == 1 and doc["status"] == "error"


def test_malformed_file_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\noops\n")
    code, doc = run_json(capsys, ["certify", str(path)])
    assert code == 1
    assert "line 2" in doc["payload"]["message"]


@pytest.mark.parametrize(
    "source, error",
    [
        ("far.edges", "NotConnectedError"),
        ("path4097.edges", "GraphError"),
        ("complete:100000", "GraphError"),
        ("hypercube:40", "GraphError"),
        ("complete:1025", "GraphError"),
        ("complete_bipartite:725", "GraphError"),
    ],
)
def test_oversized_sources_are_error_envelopes(capsys, tmp_path, monkeypatch, source, error):
    monkeypatch.chdir(tmp_path)
    Path("far.edges").write_text("0 1\n1 99999999\n")
    Path("path4097.edges").write_text("".join(f"{v} {v + 1}\n" for v in range(4096)))
    code, doc = run_json(capsys, ["certify", source])
    assert code == 1 and doc["payload"]["error"] == error


def test_edge_list_files_past_the_byte_bound_are_refused_unread(capsys, tmp_path, monkeypatch):
    from drgjacobi import graphs

    path = tmp_path / "large.edges"
    with path.open("w") as f:
        f.truncate(graphs.MAX_EDGE_LIST_BYTES + 1)  # sparse: no data is written

    def unread(self, *args, **kwargs):
        raise AssertionError("read")

    monkeypatch.setattr(Path, "read_text", unread)
    code, doc = run_json(capsys, ["certify", str(path)])
    assert code == 1 and doc["payload"] == {
        "error": "GraphError",
        "message": f"edge-list file has {graphs.MAX_EDGE_LIST_BYTES + 1} bytes, "
                   f"at most {graphs.MAX_EDGE_LIST_BYTES}",
    }
    monkeypatch.undo()
    path.write_text("0 1\n")
    monkeypatch.setattr(graphs, "MAX_EDGE_LIST_BYTES", 4)
    assert run_json(capsys, ["certify", str(path)])[0] == 0
    monkeypatch.setattr(graphs, "MAX_EDGE_LIST_BYTES", 3)
    assert run_json(capsys, ["certify", str(path)])[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["jacobi", "--family", "tree:3", "--size", str(10**9)],
        ["moments", "--family", "tree:3", "--order", str(10**9)],
        ["moments", "--family", "custom:1,3;1,2", "--order", str(10**9)],
    ],
)
def test_oversized_family_requests_are_error_envelopes(capsys, argv):
    code, doc = run_json(capsys, argv)
    assert code == 1 and doc["payload"]["error"] == "SequenceError"
    assert "at most" in doc["payload"]["message"]


def test_missing_source_is_usage_error(capsys):
    code, doc = run_json(capsys, ["spectrum"])
    assert code == 1 and doc["payload"]["error"] == "usage"


def error_envelope(error, message):
    return (
        f'{{\n  "status": "error",\n  "payload": {{\n    "error": "{error}",\n'
        f'    "message": "{message}"\n  }},\n  "diagnostics": []\n}}\n'
    )


def usage_envelope(message):
    return error_envelope("usage", message)


@pytest.mark.parametrize(
    "argv, message",
    [
        # each stops before the bad alpha; the family is refused when parsed
        (["moments", "--family", "custom:1,3;1,3;period=1", "--order", "0"],
         "alpha_1 = -1 is negative"),
        (["jacobi", "--family", "custom:1,3;1,3;period=1", "--size", "1"],
         "alpha_1 = -1 is negative"),
        (["moments", "--family", "custom:1,3;1,2;1,9;period=1", "--order", "2"],
         "alpha_2 = -7 is negative"),
        (["moments", "--family", "custom:1,3;1,2;1,9;period=1", "--order", "6"],
         "alpha_2 = -7 is negative"),
    ],
)
def test_invalid_family_is_refused_at_every_order_and_size(capsys, argv, message):
    assert run(capsys, argv) == (1, error_envelope("SequenceError", message))


BOTH_SOURCES = "give a graph source or --array, not both"
FAMILY_ALONE = "--family takes no graph source, --array, --tau or --canonical"
SIZE_NEEDS_FAMILY = "--size needs --family"


CONFLICTING_SOURCES = [
    # "nosuch" is never opened: the conflict is refused first
    (["spectrum", "nosuch", "--array", "1,3"], BOTH_SOURCES),
    (["spectrum", "petersen", "--array", "1,3"], BOTH_SOURCES),
    (["interlace", "petersen", "--array", "1,3", "--tau", "0", "--tau", "1"], BOTH_SOURCES),
    (["jacobi", "petersen", "--array", "1,3"], BOTH_SOURCES),
    (["jacobi", "--family", "tree:3", "--array", "1,3", "--tau", "0.5"], FAMILY_ALONE),
    (["jacobi", "--family", "tree:3", "petersen"], FAMILY_ALONE),
    (["jacobi", "--family", "tree:3", "--array", "1,3"], FAMILY_ALONE),
    (["jacobi", "--family", "tree:3", "--tau", "0.5"], FAMILY_ALONE),
    (["jacobi", "--family", "tree:3", "--canonical"], FAMILY_ALONE),
    (["jacobi", "petersen", "--size", "4"], SIZE_NEEDS_FAMILY),
    (["jacobi", "nosuch", "--size", "4"], SIZE_NEEDS_FAMILY),
    (["jacobi", "--array", "1,3;1,2", "--size", "4"], SIZE_NEEDS_FAMILY),
]


@pytest.mark.parametrize("argv, message", CONFLICTING_SOURCES)
def test_conflicting_sources_are_usage_errors(capsys, argv, message):
    assert run(capsys, argv) == (1, usage_envelope(message))


def test_family_size_defaults_to_eight(capsys):
    code, doc = run_json(capsys, ["jacobi", "--family", "tree:3"])
    assert code == 0 and doc["payload"]["size"] == 8


def tree_prefix_array(m):
    return ";".join(["1,3"] + ["1,2"] * (m - 1))


@pytest.mark.parametrize(
    "command", [["spectrum"], ["interlace", "--tau", "0", "--tau", "1"], ["jacobi"]]
)
def test_array_beyond_the_cap_is_a_usage_error(capsys, command):
    from drgjacobi.cli import MAX_ARRAY_PAIRS

    argv = command + ["--array", tree_prefix_array(MAX_ARRAY_PAIRS + 1)]
    message = f"--array has {MAX_ARRAY_PAIRS + 1} pairs, at most {MAX_ARRAY_PAIRS}"
    assert run(capsys, argv) == (1, usage_envelope(message))


def test_array_cap_admits_the_tree_ladder_and_refuses_fast():
    import time
    import tracemalloc

    from drgjacobi.cli import MAX_ARRAY_PAIRS, CliUsageError, parse_array

    assert parse_array(tree_prefix_array(MAX_ARRAY_PAIRS)).d == MAX_ARRAY_PAIRS >= 8000
    text = tree_prefix_array(65536)  # uncapped, interlace ran past 200 s on it
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CliUsageError, match="at most"):
            parse_array(text)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 5.0 and peak < 32 * 2**20, (elapsed, peak)


def test_deterministic_output(capsys):
    first = run(capsys, ["measure", "petersen"])
    second = run(capsys, ["measure", "petersen"])
    assert first == second


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["certify", "petersen"], "certify_petersen.json"),
        (["measure", "complete:4"], "measure_complete4.json"),
        (["jacobi", "--family", "tree:3", "--size", "4"], "jacobi_tree3_m4.json"),
        (["moments", "--family", "tree:2", "--order", "6"], "moments_tree2_order6.json"),
    ],
)
def test_golden_outputs(capsys, argv, golden):
    code, out = run(capsys, argv)
    assert code == 0
    assert out == (GOLDEN_DIR / golden).read_text()


def test_pretty_output(capsys):
    code, out = run(capsys, ["--pretty", "certify", "petersen"])
    assert code == 0
    assert out.startswith("status: ok")
    assert "deg_k" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_interlace_rejects_equal_taus(capsys):
    code, doc = run_json(capsys, ["interlace", "petersen", "--tau", "1", "--tau", "1"])
    assert code == 1 and doc["payload"]["error"] == "usage"


@pytest.mark.parametrize(
    "argv, solves",
    [
        (["interlace", "petersen", "--tau", "2", "--tau", "0"], 2),
        (["spectrum", "petersen"], 1),
        (["spectrum", "petersen", "--tau", "0"], 1),
        (["spectrum", "--array", "1,3;1,2"], 1),
    ],
)
def test_each_command_solves_once_per_spectrum(capsys, monkeypatch, argv, solves):
    from drgjacobi import jacobi

    calls = []
    original = jacobi._lapack_roots  # every solve, certified by eigenvalues or with another tau

    def counting(diag, off):
        calls.append(diag[-1])
        return original(diag, off)

    monkeypatch.setattr(jacobi, "_lapack_roots", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == solves


@pytest.mark.parametrize("source", ["petersen:1", "complete", "hamming:3"])
def test_non_builtin_names_are_read_as_files(capsys, source):
    code, doc = run_json(capsys, ["certify", source])
    assert code == 1 and doc["payload"]["error"] == "usage"
    assert "no such file or builtin graph" in doc["payload"]["message"]


def _strict_json(out):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(out, parse_constant=reject)


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "petersen", "--tau={tau}"],
        ["interlace", "petersen", "--tau={tau}", "--tau", "0"],
        ["jacobi", "petersen", "--tau={tau}"],
        ["jacobi", "--array", "1,3;1,2", "--tau={tau}"],
    ],
)
def test_non_finite_tau_is_an_error_envelope(capsys, argv, tau):
    code, out = run(capsys, [arg.format(tau=tau) for arg in argv])
    doc = _strict_json(out)
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"] == {
        "error": "JacobiError",
        "message": "diagonal and off-diagonal entries must be finite",
    }


@pytest.mark.parametrize(
    "command",
    [["spectrum", "--array", "1,3;1,2"], ["jacobi", "petersen"], ["interlace", "petersen"]],
)
def test_negative_tau_in_every_float_form_is_a_value(capsys, command):
    def call(*tau):
        second = ["--tau", "1"] if command[0] == "interlace" else []
        return run(capsys, command + list(tau) + second)

    code, expected = call("--tau", "-0.001")
    assert code == 0
    for tau in ("-1e-3", "-1E-3", "-.1e-2", "-1.e-3"):
        assert call("--tau", tau) == (0, expected)
    code, out = call("--tau", "-inf")
    assert (code, out) == call("--tau=-inf")
    assert code == 1 and json.loads(out)["payload"]["error"] == "JacobiError"
    # float() is the one grammar: digit separators read, a dangling exponent does not
    code, out = call("--tau", "-1_0")
    assert code == 0 and (code, out) == call("--tau=-1_0") == call("--tau", "-10")
    assert call("--tau", "-1e") == (1, usage_envelope("argument --tau: expected one argument"))


def test_argparse_still_has_the_negative_number_matcher_cli_replaces():
    # cli sets this private argparse attribute; if a new Python renames it,
    # "--tau -1e-3" quietly reads as an option again on the Pythons that need the fix
    from drgjacobi import cli

    assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")
    (subparsers,) = [a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    for parser in [cli._PARSER, *subparsers.choices.values()]:
        assert parser._negative_number_matcher is cli._NEGATIVE_NUMBER


@pytest.mark.parametrize("n", [151, 200, 1000])
def test_measure_long_cycles_match_closed_form(capsys, n):
    # C_n: eigenvalues 2 cos(2 pi k / n), multiplicity 1 at +-2, else 2
    code, doc = run_json(capsys, ["measure", f"cycle:{n}"])
    assert code == 0
    atoms = doc["payload"]["atoms"]
    lams = sorted({round(2 * math.cos(2 * math.pi * k / n), 12) for k in range(n)})
    assert [a["lambda"] for a in atoms] == pytest.approx(lams, abs=1e-10)
    mults = [1 if abs(abs(lam) - 2) < 1e-9 else 2 for lam in lams]
    assert [a["multiplicity"] for a in atoms] == mults
    assert [a["weight"] for a in atoms] == pytest.approx([m / n for m in mults], rel=1e-9)


@pytest.mark.parametrize("dim", [14, 16])
def test_spectrum_hamming_array_matches_closed_form(capsys, dim):
    # H(D,2): a_k = k, b_k = D - k + 1; eigenvalues D - 2k with weights C(D,k) / 2^D
    array = ";".join(f"{k},{dim - k + 1}" for k in range(1, dim + 1))
    code, doc = run_json(capsys, ["spectrum", "--array", array])
    assert code == 0
    ks = range(dim, -1, -1)
    assert doc["payload"]["eigenvalues"] == pytest.approx([dim - 2 * k for k in ks], abs=1e-10)
    assert doc["payload"]["weights"] == pytest.approx(
        [math.comb(dim, k) / 2**dim for k in ks], rel=1e-8
    )


def test_spectrum_tree_prefix_matches_golub_welsch(capsys):
    # first 400 pairs of the 3-regular tree; J_tau's diagonal is zero up to tau = 2
    m = 400
    array = ";".join(["1,3"] + ["1,2"] * (m - 1))
    code, doc = run_json(capsys, ["spectrum", "--array", array])
    assert code == 0
    dense = np.diag(np.r_[np.zeros(m), 2.0])
    off = np.sqrt(np.r_[3.0, np.full(m - 1, 2.0)])
    dense += np.diag(off, 1) + np.diag(off, -1)
    lams, vecs = np.linalg.eigh(dense)
    assert doc["payload"]["tau"] == 2.0
    assert doc["payload"]["eigenvalues"] == pytest.approx(lams, abs=1e-10)
    assert doc["payload"]["weights"] == pytest.approx(vecs[0] ** 2, rel=1e-7, abs=1e-15)


@pytest.mark.parametrize("family, order", [("tree:3", 16), ("tree:8", 10)])
def test_moments_quadrature_converges_on_growing_moments(capsys, family, order):
    code, doc = run_json(capsys, ["moments", "--family", family, "--order", str(order)])
    assert code == 0
    exact = doc["payload"]["moments"]
    assert doc["payload"]["quadrature"] == pytest.approx(exact, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "command", [["spectrum", "petersen"], ["interlace", "petersen", "--tau", "0", "--tau", "1"]]
)
def test_tol_must_be_positive_and_finite(capsys, command, tol):
    code, doc = run_json(capsys, command + [f"--tol={tol}"])
    assert code == 1 and doc["payload"] == {
        "error": "usage",
        "message": f"argument --tol: must be positive and finite, not {tol}",
    }


def readme_command_lines():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_examples(line, capsys, tmp_path, monkeypatch):
    import shlex

    monkeypatch.chdir(tmp_path)  # --plot-data writes its file here
    program, *argv = shlex.split(line)
    assert program == "drgjacobi"
    code, out = run(capsys, argv)
    assert code == 0
    if "--pretty" in argv:
        assert out.startswith("status: ok\n")
    else:
        doc = json.loads(out)
        assert list(doc) == ["status", "payload", "diagnostics"]
        assert doc["status"] == "ok"
    if "--plot-data" in argv:
        assert (tmp_path / argv[argv.index("--plot-data") + 1]).read_text().startswith("# lambda")


@pytest.mark.parametrize("n, top", [(2, 997), (3, 663), (9, 396)])
def test_tree_quadrature_orders_stop_inside_float64(capsys, n, top):
    code, doc = run_json(capsys, ["moments", "--family", f"tree:{n}", "--order", str(top)])
    assert code == 0
    quadrature, exact = doc["payload"]["quadrature"], doc["payload"]["moments"]
    assert len(quadrature) == top + 1 and all(math.isfinite(q) for q in quadrature)
    assert quadrature == pytest.approx(exact, rel=1e-9, abs=1e-9)
    code, doc = run_json(capsys, ["moments", "--family", f"tree:{n}", "--order", str(top + 1)])
    assert code == 1
    assert doc["payload"] == {
        "error": "SequenceError",
        "message": f"tree:{n} quadrature moment order must be at most {top}",
    }


def test_import_leaves_quadrature_and_graph_search_unloaded():
    import os
    import subprocess
    import sys

    import drgjacobi

    src = str(Path(drgjacobi.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import contextlib, io, sys, drgjacobi.cli\n"
        "def loaded(*names): return [m for m in names if m in sys.modules]\n"
        "def main(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()): return drgjacobi.cli.main(argv)\n"
        "print(loaded('scipy.integrate', 'scipy.sparse.csgraph', 'scipy.linalg', 'fractions',"
        " 'decimal'))\n"
        # fractions, which loads decimal, only for a non-integral degree's error
        "print(main(['spectrum', '--array', '1,3;1,2']), loaded('fractions', 'decimal'))\n"
        # tree moments take their quadrature from numpy
        "print(main(['moments', '--family', 'tree:3', '--order', '16']), loaded('scipy.integrate'))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "0 []", "0 []"]


def test_family_entries_beyond_float64_give_an_envelope(capsys):
    huge = 10**400
    family = f"custom:1,{huge};1,1"
    code, doc = run_json(capsys, ["jacobi", "--family", family, "--size", "2"])
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["error"] == "SequenceError"
    assert "float64" in doc["payload"]["message"]
    code, doc = run_json(capsys, ["jacobi", "--family", family, "--size", "1"])
    assert code == 0 and doc["payload"]["diag"] == [0.0]
    # the exact walk needs no float: alpha_1 = huge - 2, a_1 b_1 = huge, a_2 b_2 = 1
    code, doc = run_json(capsys, ["moments", "--family", family, "--order", "4"])
    assert code == 0
    fourth = huge * ((huge - 2) ** 2 + huge + 1)
    assert doc["payload"]["moments"] == [1, 0, huge, huge * (huge - 2), fourth]


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, ["certify", "petersen"])[0] == 0
    assert run(capsys, ["spectrum", "--array", "1,3;1,2", "--tau", "-0.5"])[0] == 0
    assert run(capsys, ["spectrum"])[0] == 1
    assert run(capsys, ["nosuch"])[0] == 1
    assert built == []


def test_a_command_is_parsed_once(capsys, monkeypatch):
    parsed = []
    original = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        parsed.append(self.prog)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert run(capsys, ["spectrum", "--array", "1,3;1,2"])[0] == 0
    assert parsed == ["drgjacobi spectrum"]
    # a leading option goes through the top-level parser, which hands the command on
    code, out = run(capsys, ["--pretty", "certify", "petersen"])
    assert code == 0 and out.startswith("status: ok\n")
    assert parsed[1:] == ["drgjacobi", "drgjacobi certify"]


def parse_outcome(parse, argv):
    """The Namespace parse gives argv, or its usage message, or its exit code and output."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            return parse(list(argv))
        except CliUsageError as exc:
            return "usage", str(exc)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


PARSE_CORPUS = [
    *(shlex.split(line)[1:] for line in readme_command_lines()),
    *(argv for argv, _, _ in PAIR_LIST_ERRORS),
    *(argv for argv, _ in CONFLICTING_SOURCES),
    *(command + ["--array", tree_prefix_array(cli.MAX_ARRAY_PAIRS + 1)]
      for command in (["spectrum"], ["interlace", "--tau", "0", "--tau", "1"], ["jacobi"])),
    *(command + [f"--tol={tol}"] for tol in ("nan", "inf", "0", "-1") for command in (
        ["spectrum", "petersen"], ["interlace", "petersen", "--tau", "0", "--tau", "1"])),
    ["spectrum"],
    ["nosuch"],
    ["interlace", "petersen", "--tau", "2"],
    ["interlace", "petersen", "--tau", "1", "--tau", "1"],
    ["interlace", "petersen", "--tau", "-1e", "--tau", "1"],
    ["spectrum", "--array", "1,3;1,2", "--tau", "-1e-3"],
    ["jacobi", "petersen", "--tau=-inf"],
    # --pretty on either side of the command, abbreviations, "--", help, missing arguments
    [],
    ["--pretty"],
    ["--pretty", "certify", "petersen"],
    ["certify", "petersen", "--pretty"],
    ["--pre", "measure", "complete:4"],
    ["spectrum", "--arr", "1,3;1,2", "--can"],
    ["measure", "petersen", "--plot", "out.txt"],
    ["--", "certify", "petersen"],
    ["spectrum", "--", "petersen"],
    ["spectrum", "--array", "--", "1,3"],
    ["-h"],
    ["--pretty", "-h"],
    ["certify", "-h"],
    ["interlace", "--help"],
    ["certify"],
    ["verify"],
    ["moments", "--family", "tree:3"],
    ["moments", "--order", "2", "--family"],
    ["jacobi", "petersen", "--tau", "1", "--canonical"],
    ["certify", "petersen", "complete:4"],
    ["spectrum", "petersen", "-x"],
    ["jacobi", "--size", "x", "--family", "tree:3"],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS)
def test_a_command_parser_gives_what_the_top_level_parser_gives(argv):
    assert parse_outcome(cli._parse, argv) == parse_outcome(cli._PARSER.parse_args, argv)


def test_no_state_leaks_across_calls(capsys):
    two_taus = ["interlace", "petersen", "--tau", "0"]
    assert run(capsys, two_taus) == (1, usage_envelope("interlace needs exactly two --tau values"))
    assert run(capsys, two_taus + ["--tau", "1"])[0] == 0
    assert run(capsys, two_taus) == (1, usage_envelope("interlace needs exactly two --tau values"))

    corner = ["jacobi", "--family", "tree:3"]
    assert len(run_json(capsys, corner + ["--size", "4000"])[1]["payload"]["diag"]) == 4000
    assert len(run_json(capsys, corner)[1]["payload"]["diag"]) == 8

    close = ["interlace", "petersen", "--tau", "2", "--tau", "2.000000001"]
    plain = run(capsys, close)
    assert run(capsys, close + ["--tol", "1e-10"]) != plain  # not interlaced at this tol only
    assert run(capsys, close) == plain
    assert run(capsys, ["--pretty"] + close) != plain
    assert run(capsys, close) == plain


MIXED_CALLS = [
    ["certify", "petersen"],
    ["--pretty", "measure", "complete:4"],
    ["interlace", "--array", "1,3;1,2", "--tau", "-1e-3", "--tau", "1"],
    ["interlace", "petersen", "--tau", "0"],
    ["jacobi", "--family", "tree:3", "--size", "16"],
    ["jacobi", "--family", "tree:3"],
    ["interlace", "petersen", "--tau", "2", "--tau", "2.000000001", "--tol", "1e-14"],
    ["interlace", "petersen", "--tau", "2", "--tau", "2.000000001"],
    ["spectrum", "petersen", "--array", "1,3"],
    ["moments", "--family", "tree:2", "--order", "6"],
    ["verify", "complete:3"],
]


def test_repeated_call_sequence_gives_the_same_bytes(capsys):
    first = [run(capsys, argv) for argv in MIXED_CALLS]
    assert [run(capsys, argv) for argv in MIXED_CALLS] == first
    assert {code for code, _ in first} == {0, 1}


def test_in_process_calls_match_a_fresh_interpreter(capsys):
    import os
    import subprocess
    import sys

    import drgjacobi

    src = str(Path(drgjacobi.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run(capsys, MIXED_CALLS[0])  # the calls below are not the process's first
    for argv in (MIXED_CALLS[2], MIXED_CALLS[8]):
        fresh = subprocess.run([sys.executable, "-m", "drgjacobi.cli", *argv],
                               env=env, capture_output=True, text=True)
        assert fresh.stderr == ""
        assert run(capsys, argv) == (fresh.returncode, fresh.stdout)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "cycle:12"], 0),
        (["jacobi", "--family", "tree:3", "--size", "4000"], 0),  # 148 kB, beyond a pipe's buffer
        (["certify", "petersen", "--pretty"], 1),  # a usage error
    ],
)
def test_a_reader_that_closes_the_pipe_ends_the_output_quietly(argv, code):
    import os
    import subprocess
    import sys

    import drgjacobi

    src = str(Path(drgjacobi.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-m", "drgjacobi.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == code
    assert stderr == b""


def test_render_is_json_dumps_with_indent_2():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16])
    ints = st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
    text = st.text() | st.sampled_from(['", "', "1, 2", "é中😀", 'say "hi"', "\x00\x1f\n\t\\"])
    scalars = st.none() | st.booleans() | ints | floats | text
    trees = st.recursive(
        # runs of numbers take the one-call path; a run of strings may hold ", "
        scalars | st.lists(ints | floats) | st.lists(text),
        lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(text, kids),
        max_leaves=40,
    )

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(trees)
    def check(obj):
        assert _render(obj) == json.dumps(obj, indent=2)

    check()


@pytest.mark.parametrize("obj", [{"a": [1, object()]}, [1.5, np.int64(2)], {"s": {1}}, {"z": 1j}])
def test_render_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        _render(obj)


def test_moments_checks_both_caps_before_the_exact_walk(capsys, monkeypatch):
    def walk(*args):
        raise AssertionError("the exact walk ran before a refusal")

    def moments(order):
        return run(capsys, ["moments", "--family", "tree:3", "--order", str(order)])

    cap = families.MAX_MOMENT_ORDER
    with monkeypatch.context() as patch:
        patch.setattr(families, "moment_sequence", walk)
        for order in (664, cap):
            message = "tree:3 quadrature moment order must be at most 663"
            assert moments(order) == (1, error_envelope("SequenceError", message))
    for order in (cap + 1, 10**9):
        message = f"moment order must be at most {cap}"
        assert moments(order) == (1, error_envelope("SequenceError", message))


# The most digits Python turns an int into text with; 0 where it has no cap.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
no_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts ints of any size to text")


@contextlib.contextmanager
def digit_limit(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def digit_error(k, limit):
    message = (f"moment {k} has more than {limit} digits, the most that Python "
               "converts to text (sys.get_int_max_str_digits)")
    return error_envelope("SequenceError", message)


@no_digit_limit
def test_moments_beyond_the_int_to_text_limit_are_a_sequence_error(capsys):
    # once a traceback with no envelope: about 1.5 s of exact walk
    code, doc = run_json(capsys, ["moments", "--family", "custom:1,1000000;1,999999", "--order", "2000"])
    assert code == 1 and doc["payload"]["error"] == "SequenceError"
    assert doc["payload"]["message"].startswith("moment ")
    assert f" has more than {DIGIT_LIMIT} digits" in doc["payload"]["message"]


@no_digit_limit
def test_moments_refuse_exactly_the_moments_that_str_refuses(capsys):
    # moment k is the first with more than 640 digits, the least limit Python takes: at a
    # limit of `digits` every moment to k prints, and at `digits - 1` moment k is the first not
    family = "custom:1,10;1,9"
    moments = families.moment_sequence(families.family_from_name(family), 1000)
    k, digits = next((k, len(str(m))) for k, m in enumerate(moments) if len(str(m)) > 640)
    argv = ["moments", "--family", family, "--order", str(k)]
    with digit_limit(digits):
        code, doc = run_json(capsys, argv)
        assert code == 0 and doc["payload"]["moments"] == moments[:k + 1]
    with digit_limit(digits - 1):
        assert run(capsys, argv) == (1, digit_error(k, digits - 1))
        code, out = run(capsys, ["--pretty", *argv])
        assert code == 1 and '"SequenceError"' in out
