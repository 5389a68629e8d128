"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import one_pass  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from drgjacobi import cli  # noqa: E402


def envelope(argv):
    stdout, _, raised = one_pass.run_op(cli, argv)
    assert raised is None
    result = json.loads(stdout)
    return result["status"], result["payload"]


def desk_sample(tmp_path, per_workload=12):
    ops = []
    for name in workloads.WORKLOADS:
        ops += [op for op in workloads.pass_ops(name, 7, 0, tmp_path / name) if not op.ladder][:per_workload]
    return ops


@pytest.mark.parametrize(
    "argv, expect, mutate",
    [
        (("certify", "petersen"), ("drg", "petersen"), lambda p: p["a"].__setitem__(1, 2)),
        (("measure", "cycle:7"), ("drg", "cycle:7"), lambda p: p["atoms"][0].__setitem__("multiplicity", 1)),
        (("spectrum", "hypercube:3"), ("drg", "hypercube:3"), lambda p: p["eigenvalues"].__setitem__(0, -2.9)),
        (
            ("spectrum", "--array", workloads.array_text(workloads.hamming_pairs(5))),
            ("hamming", 5),
            lambda p: p["weights"].__setitem__(0, p["weights"][0] + 1e-3),
        ),
        (
            ("interlace", "--array", workloads.array_text(workloads.tree_prefix_pairs(6)), "--tau", "0", "--tau", "1"),
            ("tree_prefix", 6),
            lambda p: p.__setitem__("min_gap", p["min_gap"] * 1.01),
        ),
        (
            ("moments", "--family", "tree:3", "--order", "8"),
            ("tree", 3),
            lambda p: p["moments"].__setitem__(4, 16),
        ),
        (
            ("jacobi", "--family", "tree:4", "--size", "8"),
            ("tree", 4),
            lambda p: p["offdiag"].__setitem__(3, 2.0),
        ),
        (("verify", "complete:5"), ("drg", "complete:5"), lambda p: p["reports"][0]["checks"].pop()),
    ],
)
def test_checker_rejects_mutated_payload(argv, expect, mutate):
    status, payload = envelope(argv)
    assert checks.check_result(argv, expect, "ok", status, payload) is None
    bad = copy.deepcopy(payload)
    mutate(bad)
    assert checks.check_result(argv, expect, "ok", status, bad) is not None


def test_checker_recounts_witness(tmp_path):
    import random

    path = tmp_path / "prism.txt"
    edges = workloads.write_relabelled(workloads.prism_edges(6), path, random.Random(3))
    argv = ("certify", str(path))
    status, payload = envelope(argv)
    assert checks.check_result(argv, ("witness", edges), "witness", status, payload) is None
    bad = dict(payload, second_count=payload["first_count"])
    assert checks.check_result(argv, ("witness", edges), "witness", status, bad) is not None
    assert checks.check_result(argv, ("drg", "cycle:12"), "ok", status, payload) is not None


def test_verify_check_accepts_any_order_and_extra_checks():
    argv = ("verify", "cycle:6")
    status, payload = envelope(argv)
    report = payload["reports"][0]
    report["checks"] = report["checks"][::-1] + [{"name": "later_check", "pass": True, "detail": None}]
    assert checks.check_result(argv, ("drg", "cycle:6"), "ok", status, payload) is None


def test_moments_check_reads_quadrature_only_when_present():
    argv = ("moments", "--family", "tree:3", "--order", "6")
    status, payload = envelope(argv)
    assert checks.check_result(argv, ("tree", 3), "ok", status, dict(payload, quadrature=None)) is None
    custom = ("moments", "--family", workloads.tree_custom(3), "--order", "6")
    status, payload = envelope(custom)
    bad = dict(payload, quadrature=[m + 1 for m in payload["moments"]])
    assert checks.check_result(custom, ("tree", 3), "ok", status, bad) is not None


def test_tree_walks_match_known_counts():
    assert checks.tree_walks(3, 6) == [1, 0, 3, 0, 15, 0, 87]
    assert checks.tree_walks(2, 6) == [1, 0, 2, 0, 6, 0, 20]  # central binomials on Z


def test_traced_and_untraced_stdout_identical(tmp_path):
    ops = desk_sample(tmp_path)
    plain = [one_pass.run_op(cli, op.argv)[0] for op in ops]
    with tracing.Tracer() as tracer:
        traced = [one_pass.run_op(cli, op.argv, tracer)[0] for op in ops]
    assert traced == plain
    assert tracer.spans, "no spans recorded"


def test_self_times_sum_to_traced_op_time(tmp_path):
    ops = desk_sample(tmp_path, per_workload=6)
    with tracing.Tracer() as tracer:
        for op in ops:
            one_pass.run_op(cli, op.argv, tracer)
    roots = [end - start for name, parent, start, end in tracer.spans if parent < 0]
    assert len(roots) == len(ops)
    assert all(name == tracing.ROOT for name, parent, _, _ in tracer.spans if parent < 0)
    totals = tracer.self_times()
    assert set(totals) == set(tracing.TIME_METRIC_NAMES)
    assert sum(totals.values()) == pytest.approx(sum(roots), rel=1e-9, abs=1e-12)
    assert all(v >= -1e-9 for v in totals.values())


def test_tracer_patches_every_importing_namespace_and_restores():
    import drgjacobi.intersection as intersection
    import drgjacobi.oracle as oracle

    original = intersection.certify_distance_regular
    with tracing.Tracer():
        assert cli.certify_distance_regular is not original
        assert cli.certify_distance_regular.__wrapped__ is original
        assert oracle.degree_sequence is intersection.degree_sequence
    assert cli.certify_distance_regular is original
    assert intersection.certify_distance_regular is original


def test_inputs_are_seeded_and_do_not_repeat_in_a_pass(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.pass_ops(name, 5, 0, tmp_path / "a")
        again = workloads.pass_ops(name, 5, 0, tmp_path / "b")
        later = workloads.pass_ops(name, 5, 1, tmp_path / "c")
        assert [op.key for op in first] == [op.key for op in again]
        assert [op.expect for op in first] == [op.expect for op in again]
        assert len({op.key for op in first}) == len(first)
        assert [op.key for op in first] != [op.key for op in later]
    relabelled = [
        {op.key: op.expect for op in workloads.pass_ops("finite-ladder", 5, index, tmp_path / "d")}
        for index in (0, 1)
    ]
    assert relabelled[0]["certify file:prism:9"] != relabelled[1]["certify file:prism:9"]


def report(seconds, digest, failed=False, stable=True):
    op = {"key": "certify cycle:5", "ladder": False, "seconds": seconds, "stable": stable,
          "digest": digest, "stdout_bytes": 10, "failed": failed, "reason": None}
    return {"setup_s": 0.5, "versions": {}, "probes": [0.006, 0.004, 0.004, 0.009], "ops": [op], "layers": {}}


def test_recorder_takes_op_minimum_and_compares_stdout_across_passes():
    rec = run.Recorder()
    rec.add_pass(report(0.003, "a"), traced=False)
    rec.add_pass(report(0.002, "a"), traced=True)
    rec.add_pass(report(0.004, "a"), traced=False)
    assert rec.pass_seconds() == 0.003
    assert rec.pass_seconds(traced=True) == 0.002
    assert rec.desk_ms() == [pytest.approx(3.0)]
    assert rec.speed_scale() == pytest.approx(run.PROBE_REF_S / 0.004)  # the fast probe times
    assert not rec.unexpected and rec.failed == 0
    rec.add_pass(report(0.003, "b"), traced=True)
    assert rec.failed == 1 and "differs" in rec.unexpected[0]
    rec.add_pass(report(0.003, "c", stable=False), traced=False)
    assert rec.failed == 1 and rec.attempted == 5


def test_pass_runs_in_its_own_interpreter_and_directory(tmp_path):
    args = run.parse_args(["--workload", "finite-ladder", "--seed", "3"])
    out = run.run_pass(args, tmp_path, 0, setup_only=True)
    assert out["setup_s"] > 0 and "ops" not in out
    assert not (tmp_path / "pass0").exists()


def test_known_defects_are_in_the_workloads(tmp_path):
    keys = {op.key for name in workloads.WORKLOADS for op in workloads.pass_ops(name, 1, 0, tmp_path)}
    assert set(workloads.KNOWN_DEFECTS) <= keys


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finite-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
