"""Per-module span tracing from outside the program.

While a Tracer is installed, every public function of the drgjacobi
layer modules is replaced, in every drgjacobi module namespace that
holds it, by a wrapper that records a span (name, parent, start, end).
Replacing the name in each importing namespace matters: cli imports
certify_distance_regular, verify_recurrence and degree_sequence by
name, so patching intersection alone would miss those calls. Nothing
under src/ changes; uninstalling restores every original.

A span's self time is its duration minus the durations of its direct
children. The benchmark opens one root span per CLI call, so the
self times of all spans of an op sum to the op's traced wall time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from types import FunctionType

LAYERS = ("graphs", "intersection", "oracle", "jacobi", "families")
ROOT = "cli.main"

# Function -> per-layer time metric. Public functions not listed fall
# into "<module>.other_s"; the root span's self time is cli.self_s.
TIME_METRICS = {
    "graphs.graph_from_edges": "graphs.build_s",
    "graphs.graph_from_name": "graphs.build_s",
    "graphs.parse_edge_list": "graphs.build_s",
    "intersection.certify_distance_regular": "intersection.certify_s",
    "intersection.verify_recurrence": "intersection.recurrence_s",
    "oracle.dense_distance_matrices": "oracle.distances_s",
    "oracle.dense_symmetric_eigen": "oracle.eigen_s",
    "oracle.matrix_poly_firstkind": "oracle.matpoly_s",
    "oracle.operator_norm": "oracle.norm_s",
    "jacobi.build_jacobi": "jacobi.build_s",
    "jacobi.canonical_tau": "jacobi.build_s",
    "jacobi.eigenvalues": "jacobi.eigen_s",
    "jacobi.gershgorin_interval": "jacobi.eigen_s",
    "jacobi.atom_weight": "jacobi.weights_s",
    "jacobi.weight_formulas": "jacobi.weights_s",
    "jacobi.eval_first_kind": "jacobi.weights_s",
    "jacobi.eigenfunction_coeffs": "jacobi.weights_s",
    "jacobi.spectral_measure": "jacobi.measure_s",
    "jacobi.check_interlacing": "jacobi.interlace_s",
    "families.moment": "families.moment_s",
    "families.density_moment": "families.quadrature_s",
    "families.kesten_mckay_density": "families.quadrature_s",
    "families.truncated_jacobi": "families.truncate_s",
    ROOT: "cli.self_s",
}

# Function -> call-count metric.
CALL_METRICS = {
    "intersection.certify_distance_regular": "intersection.certify_calls",
    "oracle.dense_distance_matrices": "oracle.distances_calls",
    "oracle.operator_norm": "oracle.norm_calls",
    "jacobi.eigenvalues": "jacobi.eigen_calls",
    "jacobi.atom_weight": "jacobi.weight_calls",
    "families.moment": "families.moment_calls",
}

TIME_METRIC_NAMES = sorted(set(TIME_METRICS.values()) | {f"{m}.other_s" for m in LAYERS})
COUNT_METRIC_NAMES = sorted(
    set(CALL_METRICS.values()) | {"graphs.vertices", "graphs.edges", "jacobi.eigen_roots"}
)


def time_metric(name: str) -> str:
    return TIME_METRICS.get(name) or f"{name.partition('.')[0]}.other_s"


def _tally_result(name: str, result, counts: Counter):
    if name == "graphs.graph_from_edges":
        counts["graphs.vertices"] += len(result.adjacency)
        counts["graphs.edges"] += sum(len(nbrs) for nbrs in result.adjacency) // 2
    elif name == "jacobi.eigenvalues":
        counts["jacobi.eigen_roots"] += len(result)


class Tracer:
    """Records spans for calls into the drgjacobi layer modules.

    Use as a context manager around traced ops; spans and counts
    accumulate for the Tracer's lifetime.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, FunctionType]] = []

    def _wrap(self, name: str, fn: FunctionType):
        call_metric = CALL_METRICS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = time.perf_counter()
                stack.pop()
            if call_metric:
                self.counts[call_metric] += 1
            _tally_result(name, result, self.counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"drgjacobi.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    targets[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "drgjacobi" and not mod_name.startswith("drgjacobi."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, FunctionType) and obj in targets:
                    setattr(module, attr, targets[obj])
                    self._patched.append((module, attr, obj))
        return self

    def __exit__(self, *exc):
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched = []
        return False

    def call(self, fn, *args):
        """Run fn(*args) under the root span."""
        index = len(self.spans)
        self.spans.append([ROOT, -1, time.perf_counter(), 0.0])
        self._stack.append(index)
        try:
            return fn(*args)
        finally:
            self.spans[index][3] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Self time per metric over all recorded spans."""
        child_time = defaultdict(float)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = dict.fromkeys(TIME_METRIC_NAMES, 0.0)
        for index, (name, _, start, end) in enumerate(self.spans):
            totals[time_metric(name)] += (end - start) - child_time[index]
        return totals
