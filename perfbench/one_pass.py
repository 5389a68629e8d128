#!/usr/bin/env python3
"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/one_pass.py --workload verify-battery --seed 1 --pass-index 0 --trace 0

run.py starts one of these per pass, with the pass's own empty working
directory as cwd, so that no input repeats within a process and
in-process memoisation cannot make an op cheaper than a user's fresh
CLI call. It imports drgjacobi from src/ next to this directory, writes
the pass's edge-list files into cwd, calls drgjacobi.cli.main(argv)
once per op with stdout captured, and grades each answer (checks.py).
Its one stdout line is a JSON object: the set-up time, the library
versions, the speed-probe times, and per op its key, ladder flag,
seconds, stdout digest and size, and outcome; with --trace 1 also the
per-layer totals (tracing.py).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread: the workloads are single-user CLI calls

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE_EVERY_S = 0.25


def setup(workload: str, seed: int, pass_index: int):
    """Import drgjacobi and write the pass's inputs into cwd; return (cli, ops, seconds)."""
    start = time.perf_counter()
    from drgjacobi import cli

    ops = workloads.pass_ops(workload, seed, pass_index, Path("."))
    return cli, ops, time.perf_counter() - start


def run_op(cli, argv, tracer=None) -> tuple[str, float, str | None]:
    """One CLI call: (stdout, seconds, exception that escaped main or None)."""
    buf = io.StringIO()
    raised = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            if tracer is None:
                cli.main(list(argv))
            else:
                tracer.call(cli.main, list(argv))
        except Exception as exc:  # an escaped exception fails the op, not the run
            raised = f"{type(exc).__name__}: {exc}"
    return buf.getvalue(), time.perf_counter() - start, raised


def grade(op, stdout: str, raised: str | None) -> tuple[bool, str | None]:
    """(failed, reason). A failure with no reason is the op's known defect."""
    import checks  # after setup: it imports numpy and scipy, which setup_s times

    if raised is not None:
        return True, f"{op.key}: raised {raised}"
    try:
        envelope = json.loads(stdout)
        status, payload = envelope["status"], envelope["payload"]
    except (ValueError, KeyError, TypeError):
        return True, f"{op.key}: stdout is not a JSON envelope"
    reason = checks.check_result(op.argv, op.expect, op.status, status, payload)
    if reason is None:
        return False, None
    if op.defect is not None and status == "error" and payload.get("error") == op.defect:
        return True, None
    return True, f"{op.key}: {reason}"


def speed_probe() -> float:
    """Seconds of a fixed mix of interpreter and small-numpy work.

    The work never changes, so its time tracks the machine's speed at
    the moment: run.py scales the op latencies by it.
    """
    import numpy as np

    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(15000):
        table[i & 255] = table.get(i & 255, 0) + (i * i) % 7
    v = np.arange(64.0)
    for _ in range(200):
        v = np.sqrt(v * v + 1.0)
    return time.perf_counter() - start


def run_pass(cli, ops, probes: list[float], tracer=None) -> list[dict]:
    """Run and grade every op; between ops, probe the speed every PROBE_EVERY_S."""
    results = []
    last_probe = -PROBE_EVERY_S
    for op in ops:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(speed_probe())
            last_probe = time.perf_counter()
        stdout, seconds, raised = run_op(cli, op.argv, tracer)
        failed, reason = grade(op, stdout, raised)
        results.append({
            "key": op.key,
            "ladder": op.ladder,
            "seconds": seconds,
            "stable": op.stable,
            "digest": hashlib.sha256(stdout.encode()).hexdigest(),
            "stdout_bytes": len(stdout.encode()),
            "failed": failed,
            "reason": reason,
        })
    return results


def versions() -> dict[str, str]:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    cli, ops, setup_s = setup(args.workload, args.seed, args.pass_index)
    out = {"setup_s": setup_s}
    if not args.setup_only:
        out["probes"] = probes = []
        if args.trace:
            with tracing.Tracer() as tracer:
                out["ops"] = run_pass(cli, ops, probes, tracer)
            out["layers"] = {**tracer.self_times(), **tracer.counts}
        else:
            out["ops"] = run_pass(cli, ops, probes)
        probes.append(speed_probe())
        out["versions"] = versions()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
