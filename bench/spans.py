"""Spans around the benchmark's calls into the library, and per-layer sums.

Every public call an op makes goes through ``Tracer.call(name, fn, ...)``,
where ``name`` is ``<module>.<function>``. With tracing off the call is made
directly. With tracing on, the tracer records a span (name, start, end,
parent span, op id) and the work counts that ``SPANS`` derives from the
call's inputs and result, never from inside the library, so counts repeat
exactly from run to run. Spans stay in memory until ``dump`` writes them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb
from time import perf_counter

KIND_SHORT = {"iid-uniform": "iid", "rotation": "rotation", "doubling": "doubling", "markov": "markov"}


def _parts(a, r):
    return {"intervals.parts_out": len(r.parts)}


def _subsets_bound(a, r):
    fam, upto, grid, max_k = a
    n = len(grid)
    top = min(max_k, n)
    last = r.dim if r.at_cap else min(r.dim + 1, top)
    return {
        "vc.dim.searches": 1,
        "vc.dim.subsets_bound": sum(comb(n, j) for j in range(1, last + 1)),
    }


def _generated(a, r):
    kind = KIND_SHORT[r.spec.kind]
    return {
        "processes.generate.calls": 1,
        "processes.generate.points": r.length,
        f"processes.generate.{kind}.points": r.length,
    }


def _row_parts(a, r):
    phi, probes = a
    rows = sum(len(p.source.parts) for p in phi.pieces)
    return {"isomorphism.preimage.row_parts": rows * sum(len(b.parts) for b in probes)}


# Span name -> (time bucket, counts(args, result) or None). The time bucket
# of a span receives its self time; ``layer_metrics`` turns the buckets and
# counts into the per-layer metrics listed in BENCHMARK.json.
SPANS = {
    "families.subset_indexed_sets": ("families.build", lambda a, r: {"families.members_built": len(r)}),
    "families.dyadic_class": ("families.build", None),
    "families.k_interval_class": ("families.build", None),
    "vc.union_family": ("families.build", None),
    "intervals.SetFamily.members": ("families.build", lambda a, r: {"families.members_built": len(r)}),
    "vc.join": ("vc.join", lambda a, r: {"vc.join.cells": len(r.cells)}),
    "vc.full_join_witness": ("vc.join", None),
    "vc.vc_dimension": ("vc.dim", _subsets_bound),
    "vc.shatter_coefficient": ("vc.shatter", None),
    "vc.sauer_bound": ("vc.shatter", None),
    "processes.generate": ("processes.generate", _generated),
    "processes.SamplePath.sorted_fixed": ("processes.sort", lambda a, r: {"processes.sort.points": len(r)}),
    "deviation.uniform_deviation": ("deviation.score", lambda a, r: {"deviation.members_scored": a[1]}),
    "deviation.ks_statistic": ("deviation.ks", lambda a, r: {"deviation.ks.points": a[1]}),
    "deviation.max_deviation_k_intervals": (
        "deviation.kdp",
        lambda a, r: {"deviation.kdp.cost": a[1] * a[2]},
    ),
    "intervals.normalize": ("intervals.algebra", _parts),
    "intervals.IntervalUnion.symmetric_difference": ("intervals.algebra", _parts),
    "isomorphism.build_map": ("isomorphism.build", lambda a, r: {"isomorphism.pieces": len(r.pieces)}),
    "isomorphism.measure_preservation_defect": ("isomorphism.preimage", _row_parts),
    "isomorphism.image_of_union": ("isomorphism.image", None),
    "isomorphism.doubling_map_deviation": (
        "isomorphism.apply",
        lambda a, r: {"isomorphism.apply.points": 1 << a[1]},
    ),
    "induced.induce": (
        "induced.induce",
        lambda a, r: {"induced.points_scanned": r.hits[-1], "induced.successes": 1},
    ),
    "induced.kac_ratio": ("induced.identity", None),
    "induced.mean_return_time": ("induced.identity", None),
    "induced.frequency_transfer_identity": ("induced.identity", None),
    "induced.induced_uniform_deviation": ("induced.deviation", None),
    "induced.deviation_transfer_bound": ("induced.deviation", None),
    "functions.random_piecewise_fn": ("functions.build", None),
    "functions.ramp_family": ("functions.build", None),
    "functions.discretize_major": ("functions.discretize", None),
    "functions.graph_lift": ("functions.lift", None),
    "functions.gamma_split": (
        "functions.split",
        lambda a, r: {"functions.split.member_points": len(a[0]) * a[2]},
    ),
}

# Per-layer metrics: name -> unit. Times are seconds per traced pass; counts
# are per pass; rates divide a time bucket by a count.
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "families.build_s": "s",
    "families.members_built": "count",
    "families.us_per_member": "us",
    "vc.join_s": "s",
    "vc.join.cells": "count",
    "vc.join.us_per_cell": "us",
    "vc.dim_s": "s",
    "vc.dim.searches": "count",
    "vc.dim.ms_per_search": "ms",
    "vc.dim.subsets_bound": "count",
    "vc.shatter_s": "s",
    "processes.generate_s": "s",
    "processes.generate.points": "count",
    "processes.generate.iid.ns_per_point": "ns",
    "processes.generate.rotation.ns_per_point": "ns",
    "processes.generate.doubling.ns_per_point": "ns",
    "processes.generate.markov.ns_per_point": "ns",
    "processes.generate.calls": "count",
    "processes.generate.us_per_call": "us",
    "processes.sort_s": "s",
    "processes.sort.points": "count",
    "processes.sort.ns_per_point": "ns",
    "deviation.score_s": "s",
    "deviation.members_scored": "count",
    "deviation.ns_per_member": "ns",
    "deviation.ks_s": "s",
    "deviation.ks.ns_per_point": "ns",
    "deviation.kdp_s": "s",
    "deviation.kdp.cost": "count",
    "deviation.kdp.ns_per_cost": "ns",
    "intervals.algebra_s": "s",
    "intervals.parts_out": "count",
    "isomorphism.build_s": "s",
    "isomorphism.pieces": "count",
    "isomorphism.preimage_s": "s",
    "isomorphism.preimage.row_parts": "count",
    "isomorphism.image_s": "s",
    "isomorphism.apply_s": "s",
    "isomorphism.apply.points": "count",
    "induced.induce_s": "s",
    "induced.points_scanned": "count",
    "induced.retries": "count",
    "induced.useful_ratio": "1",
    "induced.identity_s": "s",
    "induced.deviation_s": "s",
    "functions.build_s": "s",
    "functions.lift_s": "s",
    "functions.split_s": "s",
    "functions.split.member_points": "count",
    "functions.discretize_s": "s",
    "trace.op_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_ratio": "1",
}

# Rate metric -> (time bucket, count, scale to the metric's unit).
RATES = {
    "families.us_per_member": ("families.build", "families.members_built", 1e6),
    "vc.join.us_per_cell": ("vc.join", "vc.join.cells", 1e6),
    "vc.dim.ms_per_search": ("vc.dim", "vc.dim.searches", 1e3),
    "processes.generate.us_per_call": ("processes.generate", "processes.generate.calls", 1e6),
    "processes.sort.ns_per_point": ("processes.sort", "processes.sort.points", 1e9),
    "deviation.ns_per_member": ("deviation.score", "deviation.members_scored", 1e9),
    "deviation.ks.ns_per_point": ("deviation.ks", "deviation.ks.points", 1e9),
    "deviation.kdp.ns_per_cost": ("deviation.kdp", "deviation.kdp.cost", 1e9),
}
for _kind in ("iid", "rotation", "doubling", "markov"):
    RATES[f"processes.generate.{_kind}.ns_per_point"] = (
        f"processes.generate.{_kind}",
        f"processes.generate.{_kind}.points",
        1e9,
    )

TIME_BUCKETS = sorted({bucket for bucket, _ in SPANS.values()})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    counts: dict | None = None
    children_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


@dataclass
class Tracer:
    """Records spans while ``on``; a disabled tracer only forwards calls."""

    on: bool = False
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _op: str = ""

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.end - span.start

    def begin_op(self, op_id: str, kind: str) -> None:
        if self.on:
            self._op = op_id
            self._open(f"op.{kind}")

    def end_op(self) -> None:
        if self.on:
            self._close(self._stack[0])
            self._stack.clear()

    def call(self, name: str, fn, *args):
        if not self.on:
            return fn(*args)
        idx = self._open(name)
        try:
            result = fn(*args)
        finally:
            self._close(idx)
        counter = SPANS[name][1]
        if counter is not None:
            self.spans[idx].counts = counter(args, result)
        return result

    def count(self, name: str, value: int) -> None:
        """Record a count the op derives itself, such as a retried input."""
        if self.on and self._stack:
            span = self.spans[self._stack[0]]
            span.counts = span.counts or {}
            span.counts[name] = span.counts.get(name, 0) + value

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op": s.op,
                    "self_s": s.self_s,
                }
                if s.counts:
                    row["counts"] = s.counts
                fh.write(json.dumps(row) + "\n")


def layer_sums(spans) -> tuple[dict, dict]:
    """Self time per time bucket (and per process kind) and summed counts."""
    times = {bucket: 0.0 for bucket in TIME_BUCKETS}
    times.update({f"processes.generate.{k}": 0.0 for k in KIND_SHORT.values()})
    times["trace.op"] = 0.0
    times["trace.untraced"] = 0.0
    counts: dict = {}
    for s in spans:
        if s.parent is None:
            times["trace.op"] += s.end - s.start
            times["trace.untraced"] += s.self_s
        else:
            times[SPANS[s.name][0]] += s.self_s
        span_counts = s.counts or {}
        for key, value in span_counts.items():
            counts[key] = counts.get(key, 0) + value
        if s.name == "processes.generate":
            for kind in KIND_SHORT.values():
                if f"processes.generate.{kind}.points" in span_counts:
                    times[f"processes.generate.{kind}"] += s.self_s
    return times, counts


def layer_metrics(spans, passes: int, import_s: float, overhead_ratio: float) -> dict:
    """Per-layer metrics per traced pass, keyed as in PER_LAYER_UNITS."""
    times, counts = layer_sums(spans)
    out = {}
    for name in PER_LAYER_UNITS:
        if name.endswith("_s") and name[:-2] in times:
            out[name] = times[name[:-2]] / passes
        elif name in RATES:
            bucket, count, scale = RATES[name]
            n = counts.get(count, 0)
            out[name] = times[bucket] * scale / n if n else 0.0
        elif PER_LAYER_UNITS[name] == "count":
            out[name] = counts.get(name, 0) / passes
    attempts = counts.get("induced.successes", 0) + counts.get("induced.retries", 0)
    out["induced.useful_ratio"] = counts.get("induced.successes", 0) / attempts if attempts else 0.0
    out["setup.import_s"] = import_s
    out["trace.overhead_ratio"] = overhead_ratio
    return out
