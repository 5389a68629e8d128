#!/usr/bin/env python3
"""Benchmark of the drgjacobi command line.

    python3 perfbench/run.py --workload finite-ladder --seed 1 --seconds 36 --trace 0

Repeats passes over one of three workloads (see workloads.py and
README.md) until the time budget is spent. Each pass runs in a fresh
single-threaded interpreter (one_pass.py) that calls
drgjacobi.cli.main(argv) in-process with stdout captured and checks
every answer against closed forms (checks.py), so no input repeats
within a process. This process compares each op's stdout across the
passes and prints, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced passes
and reports the per-layer split (tracing.py). The line before it holds
the run metadata and each metric's sample count and quartiles.

Source is imported from the src/ directory next to this one; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 3  # each op's time is its minimum over the passes
SETUP_SAMPLES = 7  # setup_s is the median of this many fresh interpreters at least
MAX_PASSES = 64
PASS_TIMEOUT_S = 120
PROBE_REF_S = 0.0025  # one_pass.speed_probe's time at the speed op times are scaled to

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "ladder_s": "s",
    "desk_p50_ms": "ms",
    "desk_p90_ms": "ms",
    "success_rate": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in tracing.TIME_METRIC_NAMES}
    units.update({name: "count" for name in tracing.COUNT_METRIC_NAMES})
    units["cli.stdout_bytes"] = "bytes"
    units["trace.overhead_frac"] = "fraction"
    return units


def run_pass(args, workdir: Path, index: int, traced=False, setup_only=False) -> dict:
    """Run one_pass.py in its own empty directory; return its JSON report."""
    passdir = workdir / f"pass{index}"
    passdir.mkdir(parents=True)
    argv = [
        sys.executable, str(HERE / "one_pass.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--pass-index", str(index), "--trace", str(int(traced)),
    ]
    try:
        proc = subprocess.run(
            argv + ["--setup-only"] * setup_only,
            cwd=passdir,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(passdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Recorder:
    """Accumulates the op timings and outcomes of a run's passes.

    The machine's speed swings by up to half, both within seconds and
    over minutes. An op's time is its minimum over the passes, which
    keeps its cost near the fastest speed the run saw; a median would
    follow the share of slow periods in the run. speed_scale() then
    maps the run's speed to a fixed reference, using the speed probe
    that every pass times between its ops.
    """

    def __init__(self):
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.digests: dict[str, str] = {}  # key -> stdout digest of its first pass
        self.ladder_keys: set[str] = set()
        self.op_s: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}  # by traced
        self.layers: list[dict[str, float]] = []
        self.setup_s: list[float] = []
        self.versions: dict[str, str] = {}
        self.probes: list[float] = []

    def add_pass(self, report: dict, traced: bool):
        self.passes += 1
        self.setup_s.append(report["setup_s"])
        self.versions = report["versions"]
        self.probes += report["probes"]
        for op in report["ops"]:
            key = op["key"]
            failed = op["failed"]
            if op["reason"] is not None:
                self.unexpected.append(op["reason"])
            if op["stable"] and self.digests.setdefault(key, op["digest"]) != op["digest"]:
                self.unexpected.append(f"{key}: stdout differs from an earlier pass")
                failed = True
            self.attempted += 1
            self.failed += failed
            self.op_s[traced].setdefault(key, []).append(op["seconds"])
            if op["ladder"]:
                self.ladder_keys.add(key)
        if traced:
            layer = dict(report["layers"])
            layer["cli.stdout_bytes"] = sum(op["stdout_bytes"] for op in report["ops"])
            self.layers.append(layer)

    def speed_scale(self) -> float:
        """Factor from the run's speed to the reference speed.

        PROBE_REF_S over the lower quartile of the probe times: like
        the op minima, the probe's time at the run's faster moments.
        """
        return PROBE_REF_S / statistics.quantiles(self.probes, n=4, method="inclusive")[0]

    def pass_seconds(self, traced=False, ladder_only=False) -> float:
        """Sum over ops of the op's minimum seconds."""
        return sum(
            min(times)
            for key, times in self.op_s[traced].items()
            if not ladder_only or key in self.ladder_keys
        )

    def desk_ms(self) -> list[float]:
        """Each untraced desk op's minimum latency, in ms."""
        return [1e3 * min(t) for key, t in self.op_s[False].items() if key not in self.ladder_keys]

    def pass_sums(self, ladder_only=False) -> list[float]:
        """Whole-pass sums, for the run metadata."""
        series = [t for key, t in self.op_s[False].items() if not ladder_only or key in self.ladder_keys]
        return [sum(times) for times in zip(*series)] if series else []


def measure(args, workdir: Path) -> Recorder:
    """Run passes until the next one would overrun the budget.

    With trace, passes alternate untraced and traced, in whole pairs.
    Without it, extra set-up-only interpreters follow until setup_s
    has SETUP_SAMPLES samples.
    """
    rec = Recorder()
    start = time.perf_counter()
    walls = []
    for index in range(MAX_PASSES):
        traced = bool(args.trace and index % 2)
        pass_start = time.perf_counter()
        rec.add_pass(run_pass(args, workdir, index, traced), traced)
        walls.append(time.perf_counter() - pass_start)
        done = index + 1
        if args.trace and done % 2:
            continue
        if done < (2 if args.trace else MIN_PASSES):
            continue
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    if not args.trace:
        for index in range(done, done + SETUP_SAMPLES - len(rec.setup_s)):
            rec.setup_s.append(run_pass(args, workdir, index, setup_only=True)["setup_s"])
    return rec


def summary(values) -> dict:
    values = sorted(values)
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def peak_rss_mb() -> float:
    """Largest peak resident memory of any pass interpreter."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def end_to_end(rec: Recorder) -> tuple[dict, dict]:
    """Metrics with op times at the reference speed; samples with raw times.

    setup_s is not scaled: import time follows the probe too loosely,
    and scaling widened its spread between runs.
    """
    desk_ms = rec.desk_ms()
    raw = {
        "pass_s": rec.pass_seconds(),
        "ladder_s": rec.pass_seconds(ladder_only=True),
        "desk_p50_ms": statistics.median(desk_ms),
        "desk_p90_ms": p90(desk_ms),
    }
    scale = rec.speed_scale()
    values = {"setup_s": statistics.median(rec.setup_s)}
    values.update({name: scale * value for name, value in raw.items()})
    values["success_rate"] = 1.0 - rec.failed / rec.attempted
    values["peak_rss_mb"] = peak_rss_mb()
    samples = {
        "raw": raw,
        "speed_scale": scale,
        "probe_ms": summary([1e3 * t for t in rec.probes]),
        "setup_s": summary(rec.setup_s),
        "pass_sums_s": summary(rec.pass_sums()),
        "ladder_sums_s": summary(rec.pass_sums(ladder_only=True)),
        "desk_ms": summary(desk_ms),
        "desk_samples_above_p90": sum(1 for v in desk_ms if v > raw["desk_p90_ms"]),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, samples


def per_layer(rec: Recorder) -> tuple[dict, dict]:
    """Metrics with times at the reference speed; samples with raw values."""
    units = per_layer_units()
    scale = rec.speed_scale()
    metrics, samples = {}, {"speed_scale": scale}
    for name, unit in units.items():
        if name == "trace.overhead_frac":
            continue
        series = [layer.get(name, 0) for layer in rec.layers]
        value = statistics.median(series) * (scale if unit == "s" else 1)
        metrics[name] = {"value": value, "unit": unit}
        samples[name] = summary(series)
    traced, untraced = rec.pass_seconds(traced=True), rec.pass_seconds()
    metrics["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "unit": "fraction"}
    samples["traced_pass_s"] = traced
    samples["untraced_pass_s"] = untraced
    return metrics, samples


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


def run_metadata(args, rec: Recorder) -> dict:
    loc = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "drgjacobi").glob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": rec.passes,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **rec.versions,
        "src_lines": loc,
        "git_commit": git_commit(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "drgjacobi" / "__init__.py").is_file():
        print(f"perfbench: no drgjacobi sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"run{os.getpid()}"
    try:
        rec = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it
    metrics, samples = per_layer(rec) if args.trace else end_to_end(rec)
    for reason in rec.unexpected[:20]:
        print(f"perfbench: unexpected failure: {reason}", file=sys.stderr)
    print(json.dumps({"meta": run_metadata(args, rec), "samples": samples, "unexpected": rec.unexpected[:20]}))
    result = {
        "correct": not rec.unexpected,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
