"""Run a workload's op list in passes, verify every op and derive the metrics."""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import converge
import shatter
import transfer
from spans import PER_LAYER_UNITS, Tracer, layer_metrics  # noqa: F401 (re-exported)

WORKLOADS = {"shatter": shatter.build, "converge": converge.build, "transfer": transfer.build}
DEFAULT_SEED = 0
MIN_PASSES = 2
REFERENCE = Path(__file__).resolve().parent / "reference.json"

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "1",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(workload: str) -> dict:
    """Committed op digests of ``workload`` at DEFAULT_SEED (full size)."""
    return json.loads(REFERENCE.read_text())["workloads"][workload]


@dataclass
class RunResult:
    workload: str
    seed: int
    attempted: int = 0
    failures: list = field(default_factory=list)
    op_latencies: dict = field(default_factory=dict)
    walls: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    tracer: Tracer = field(default_factory=Tracer)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def latencies(self) -> list:
        """Every untraced op latency of the run."""
        return [dt for per_op in self.op_latencies.values() for dt in per_op]


def _verify(op, result, first: dict, reference: dict | None) -> str | None:
    """Why an op's result is wrong, or None.

    The first pass checks the invariants and, when ``reference`` holds the
    op, its committed digest; later passes must reproduce the first pass.
    """
    d = digest(op.record(result))
    if op.id in first:
        return None if d == first[op.id] else "digest differs from the first pass"
    first[op.id] = d
    problems = op.check(result)
    if problems:
        return "; ".join(problems)
    if reference is not None and op.id in reference and reference[op.id] != d:
        return f"digest {d} differs from reference {reference[op.id]}"
    return None


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    reference: dict | None = None,
) -> RunResult:
    """Run the op list in passes while another pass fits in ``seconds``.

    Runs make at least MIN_PASSES passes. Traced runs alternate untraced and
    traced passes, so they make at least one of each. ``reference`` maps op
    ids to committed digests of DEFAULT_SEED at full size; at other seeds
    and sizes only the ops that are not seeded are held to it. Failures are
    ops that raised or whose results failed ``_verify``.
    """
    ops = WORKLOADS[workload](seed, tiny)
    if reference is not None and (seed != DEFAULT_SEED or tiny):
        reference = {op.id: reference[op.id] for op in ops if not op.seeded and op.id in reference}
    res = RunResult(workload, seed)
    tracer = res.tracer
    start = perf_counter()
    passes = 0
    while passes < MIN_PASSES or perf_counter() - start + statistics.median(res.walls) <= seconds:
        tracer.on = trace and passes % 2 == 1
        pass_s = 0.0
        for op in ops:
            tracer.begin_op(op.id, op.kind)
            t0 = perf_counter()
            try:
                result = op.run(tracer)
            except Exception as exc:  # an op that raises is a failed op; keep going
                dt = perf_counter() - t0
                tracer.end_op()
                problem = f"raised {type(exc).__name__}: {exc}"
            else:
                dt = perf_counter() - t0
                tracer.end_op()
                problem = _verify(op, result, res.digests, reference)
            pass_s += dt
            res.attempted += 1
            if not tracer.on:
                res.op_latencies.setdefault(op.id, []).append(dt)
            if problem is not None:
                res.failures.append(f"{op.id}: {problem}")
        (res.traced_walls if tracer.on else res.walls).append(pass_s)
        passes += 1
        result = None  # so the collection below can free the last op's results
        gc.collect()
    tracer.on = False
    return res


def end_to_end(res: RunResult, setup_s: float) -> dict:
    """End-to-end metrics of the untraced passes.

    ``wall_s`` sums each op's median latency over the passes, so a slow
    spell of the machine during one pass moves it less than a pass total.
    """
    lat = sorted(res.latencies)
    return {
        "wall_s": sum(statistics.median(v) for v in res.op_latencies.values()),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (res.attempted - res.failed) / res.attempted,
    }


def per_layer(res: RunResult, import_s: float) -> dict:
    overhead = statistics.median(res.traced_walls) / statistics.median(res.walls) - 1
    return layer_metrics(res.tracer.spans, len(res.traced_walls), import_s, overhead)


def result_line(res: RunResult, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": res.failed == 0,
            "attempted": res.attempted,
            "failed": res.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    )

