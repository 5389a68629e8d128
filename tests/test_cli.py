import json
import math
from pathlib import Path

import numpy as np
import pytest

from drgjacobi.cli import main

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


@pytest.mark.parametrize(
    "argv, error, message",
    [
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
    ],
)
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
    _, doc = run_json(capsys, argv)  # without --tol the gap must exceed 1e-9
    assert doc["payload"]["interlaced"] is False
    _, doc = run_json(capsys, argv + ["--tol", "1e-10"])
    assert doc["payload"]["interlaced"] is False


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


def test_missing_source_is_usage_error(capsys):
    code, doc = run_json(capsys, ["spectrum"])
    assert code == 1 and doc["payload"]["error"] == "usage"


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
    original = jacobi.eigenvalues

    def counting(J, tol=None):
        calls.append(J.tau)
        return original(J, tol)

    monkeypatch.setattr(jacobi, "eigenvalues", counting)
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
