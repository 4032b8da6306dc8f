"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload shatter --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Earlier lines give the machine facts and a readable summary. See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 9


def probe_setup(count: int) -> tuple[float, float]:
    """Median (process start -> library imported, in-process import time).

    Each probe is a fresh interpreter. One unrecorded probe runs first so
    that a fresh checkout's bytecode compilation is not counted.
    """
    starts, imports = [], []
    for i in range(count + 1):
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        out = subprocess.run(
            [sys.executable, str(BENCH / "probe.py")], capture_output=True, text=True, timeout=60, check=True
        )
        ready_ns, import_s = out.stdout.split()
        if i:
            starts.append((int(ready_ns) - t0) / 1e9)
            imports.append(float(import_s))
    return statistics.median(starts), statistics.median(imports)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    has_numpy = importlib.util.find_spec("numpy") is not None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "numpy_importable": has_numpy,
        "numpy_version": importlib.metadata.version("numpy") if has_numpy else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["shatter", "converge", "transfer"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="run the default seed once and store its op digests in bench/reference.json",
    )
    args = parser.parse_args(argv)

    if not (SRC / "ergodic_vc" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC}", file=sys.stderr)
        return 2
    setup_s, import_s = probe_setup(2 if args.tiny else SETUP_PROBES)

    sys.path.insert(0, str(SRC))
    import ergodic_vc  # noqa: F401
    import ergodic_vc.cli  # noqa: F401

    if not Path(ergodic_vc.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ergodic_vc from {ergodic_vc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.write_reference:
        return write_reference(harness, args.workload)

    reference = harness.load_reference(args.workload)
    res = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, reference)

    print("machine " + json.dumps(machine_facts()))
    for failure in res.failures[:20]:
        print("FAILED " + failure)
    print(
        f"{args.workload} seed={args.seed}: {len(res.walls) + len(res.traced_walls)} passes, "
        f"{len(res.latencies)} untraced op samples, {res.attempted} ops attempted, {res.failed} failed, "
        f"fail_ratio {res.failed / res.attempted:.6g}"
    )
    if args.trace:
        metrics = harness.per_layer(res, import_s)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        res.tracer.dump(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = harness.PER_LAYER_UNITS
    else:
        metrics = harness.end_to_end(res, setup_s)
        units = harness.END_TO_END_UNITS
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:>16.6g} {unit}")
    print(harness.result_line(res, metrics, units))
    return 0


def write_reference(harness, workload: str) -> int:
    res = harness.run_workload(workload, harness.DEFAULT_SEED, 0, False)
    if res.failed:
        print("\n".join(res.failures), file=sys.stderr)
        return 1
    data = json.loads(harness.REFERENCE.read_text()) if harness.REFERENCE.is_file() else {}
    data["seed"] = harness.DEFAULT_SEED
    data.setdefault("workloads", {})[workload] = res.digests
    harness.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(res.digests)} digests for {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
