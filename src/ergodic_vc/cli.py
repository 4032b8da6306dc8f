"""Command line harness: reproducible experiments over every module.

One JSON config file (schema-validated) plus overriding flags per run.
Exit codes: 0 success, 1 runtime error, 2 bad configuration (message carries
a JSON-pointer path), 3 resource cap exceeded. Tabular artifacts are CSV
with exact numerator/denominator columns next to any float column; summary
output is JSON on stdout. ERGODIC_VC_WORKERS sets the default worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import partial

from jsonschema import Draft202012Validator

from . import __version__
from .deviation import deviation_trace, uniform_deviation
from .errors import ResourceLimitError
from .families import dyadic_class, half_interval_class, k_interval_class, run_pattern_class, subset_indexed_sets
from .functions import PiecewiseFn, gamma_split, graph_lift, lm_bound, ramp_family
from .induced import frequency_transfer_identity, induce, kac_ratio, mean_return_time
from .intervals import Interval, IntervalUnion, SetFamily, iu
from .isomorphism import (
    build_map,
    doubling_map,
    doubling_map_deviation,
    measure_preservation_defect,
)
from .processes import (
    DOMAIN_IID,
    ProcessSpec,
    fixed_uniform,
    generate,
    golden_alpha_fixed,
    rotation_spec,
    trajectory_family,
)
from .suite import run_suite
from .vc import full_join_witness, join, sauer_bound, shatter_coefficient, vc_dimension

# Seeds key a 64-bit counter generator; larger seeds would alias smaller ones.
_SEED_MAX = (1 << 64) - 1

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "process": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["iid-uniform", "rotation", "doubling", "markov"]},
                "seed": {"type": "integer", "minimum": 0, "maximum": _SEED_MAX},
                "precision": {"type": "integer", "minimum": 64},
                "params": {"type": "object"},
            },
        },
        "family": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {
                    "enum": ["dyadic", "half", "intervals", "run-pattern", "trajectory"]
                },
                "order": {"type": "integer", "minimum": 1, "maximum": 16},
                "k": {"type": "integer", "minimum": 1},
                "window": {"type": "integer", "minimum": 1},
                "budget": {"type": "integer", "minimum": 0},
                "alpha_fixed": {"type": "string"},
                "x0_fixed": {"type": "string"},
                "precision": {"type": "integer", "minimum": 64},
            },
        },
        "m_grid": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "seeds": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0, "maximum": _SEED_MAX},
            "minItems": 1,
        },
        "precision": {"type": "integer", "minimum": 64},
        "budget": {"type": "integer", "minimum": 0},
        "grid_order": {"type": "integer", "minimum": 1, "maximum": 20},
        "workers": {"type": "integer", "minimum": 1},
        "output": {"type": "string"},
    },
}


def _validate_config(config) -> str | None:
    """First schema violation as 'pointer: message', or None when clean."""
    validator = Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        pointer = "/" + "/".join(str(p) for p in e.absolute_path)
        return f"{pointer}: {e.message}"
    grid = config.get("m_grid")
    if grid and any(a >= b for a, b in zip(grid, grid[1:])):
        return "/m_grid: values must be strictly ascending"
    return None


def _config_error(problem: str) -> int:
    print(f"config error at {problem}", file=sys.stderr)
    return 2


# -- family registry -------------------------------------------------------------


def _build_dyadic(params) -> SetFamily:
    return dyadic_class(int(params.get("order", 4)))


def _build_half(params) -> SetFamily:
    return half_interval_class()


def _build_intervals(params) -> SetFamily:
    return k_interval_class(int(params.get("k", 1)), int(params.get("order", 3)))


def _build_run_pattern(params) -> SetFamily:
    order = int(params.get("order", 4))
    pts = [Fraction(2 * i + 1, 1 << (order + 1)) for i in range(1 << order)]
    return run_pattern_class(int(params.get("k", 2)), pts)


def _build_trajectory(params) -> SetFamily:
    precision = int(params.get("precision", 128))
    alpha = params.get("alpha_fixed")
    alpha = golden_alpha_fixed(precision) if alpha is None else int(alpha)
    return trajectory_family(
        alpha, int(params.get("x0_fixed", 0)), precision, int(params.get("window", 1))
    )


FAMILY_BUILDERS = {
    "dyadic": _build_dyadic,
    "half": _build_half,
    "intervals": _build_intervals,
    "run-pattern": _build_run_pattern,
    "trajectory": _build_trajectory,
}

_DEFAULT_BUDGETS = {"half": 32, "trajectory": 16}


def _family_params(args, config) -> dict:
    params = dict(config.get("family", {}))
    for key in ("family", "order", "k", "window"):
        value = getattr(args, key, None)
        if value is not None:
            params["name" if key == "family" else key] = value
    params.setdefault("name", "dyadic")
    return params


def _family_budget(args, config, params, fam) -> int:
    for value in (getattr(args, "budget", None), params.get("budget"), config.get("budget")):
        if value is not None:
            return int(value)
    if fam.size is not None:
        return fam.size
    return _DEFAULT_BUDGETS.get(params["name"], 32)


def _effective_precision(args, config) -> int:
    if getattr(args, "precision", None):
        return args.precision
    return int(config.get("precision", config.get("process", {}).get("precision", 128)))


def _effective_seed(args, config) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(config.get("process", {}).get("seed", 0))


def _effective_workers(args, config) -> int:
    if getattr(args, "workers", None):
        return args.workers
    env = os.environ.get("ERGODIC_VC_WORKERS")
    if env:
        return max(1, int(env))
    return int(config.get("workers", 1))


def _process_spec(args, config) -> ProcessSpec:
    section = dict(config.get("process", {}))
    kind = getattr(args, "process", None) or section.get("kind", "iid-uniform")
    params = section.get("params", {})
    if kind == "markov" and not ("matrix" in params and "cells" in params):
        raise ValueError("markov process needs params.matrix and params.cells in the config")
    merged = {
        "kind": kind,
        "seed": _effective_seed(args, config),
        "precision": _effective_precision(args, config),
        "params": params,
    }
    return ProcessSpec.from_json(merged)


def _emit(text: str, args) -> None:
    output = getattr(args, "output", None) or None
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rat(v: Fraction) -> dict:
    return {"num": v.numerator, "den": v.denominator, "f64": float(v)}


def _report(args, command: str, body: dict, config: dict) -> None:
    report = {
        "command": command,
        "version": __version__,
        "config": config,
        **body,
    }
    print(json.dumps(report, indent=2, sort_keys=True, default=str))


# -- subcommands ------------------------------------------------------------------


def _probe_points(order: int) -> list[Fraction]:
    den = 1 << (order + 2)
    return [Fraction(2 * i + 1, den) for i in range(den // 2)]


def _cmd_shatter(args, config) -> int:
    t0 = time.time()
    params = _family_params(args, config)
    fam = FAMILY_BUILDERS[params["name"]](params)
    upto = _family_budget(args, config, params, fam)
    if args.points:
        points = [Fraction(tok) for tok in args.points.split(",")]
    else:
        points = _probe_points(int(params.get("order", 4)))
    s = shatter_coefficient(points, fam, upto)
    _report(
        args,
        "shatter",
        {
            "family": params["name"],
            "members": upto,
            "points": len(points),
            "shatter": s,
            "wall_time": round(time.time() - t0, 3),
        },
        config,
    )
    return 0


def _cmd_vcdim(args, config) -> int:
    t0 = time.time()
    params = _family_params(args, config)
    fam = FAMILY_BUILDERS[params["name"]](params)
    upto = _family_budget(args, config, params, fam)
    probe = _probe_points(int(params.get("order", 4)))
    res = vc_dimension(fam, upto, probe, max_k=args.max_k)
    body = {
        "family": params["name"],
        "members": upto,
        "dim": res.dim,
        "witness": [str(x) for x in res.witness],
        "at_cap": res.at_cap,
        "sauer_at_dim": sauer_bound(len(probe), res.dim).exact,
        "wall_time": round(time.time() - t0, 3),
    }
    _report(args, "vcdim", body, config)
    return 0


def _cmd_join_witness(args, config) -> int:
    t0 = time.time()
    if args.set:
        sets = [iu(text) for text in args.set]
        jp = join(sets)
        body = {
            "sets": len(sets),
            "cells": len(jp.cells),
            "full": jp.is_full,
        }
    else:
        sets = subset_indexed_sets(args.k)
        jp = join(sets)
        witness = full_join_witness(jp)
        fam = SetFamily.of("joined", sets)
        s = shatter_coefficient(witness, fam, len(sets))
        body = {
            "k": args.k,
            "sets": len(sets),
            "cells": len(jp.cells),
            "full": jp.is_full,
            "witness": [str(x) for x in witness],
            "shatter": s,
            "shattered": s == 1 << args.k,
        }
    body["wall_time"] = round(time.time() - t0, 3)
    _report(args, "join-witness", body, config)
    return 0


_CSV_HEADER = "seed,m,gamma_num,gamma_den,gamma_f64,argmax_member"


def _cmd_converge(args, config) -> int:
    t0 = time.time()
    m_grid = (
        [int(v) for v in args.m_grid.split(",")]
        if args.m_grid
        else config.get("m_grid", [100, 1000])
    )
    seeds = _parse_seed_list(args.seeds) if args.seeds else config.get("seeds", [0])
    problem = _validate_config({"m_grid": m_grid, "seeds": seeds})
    if problem is not None:
        return _config_error(problem)
    params = _family_params(args, config)
    builder = partial(FAMILY_BUILDERS[params["name"]], params)
    fam = builder()
    upto = _family_budget(args, config, params, fam)
    spec = _process_spec(args, config)
    workers = _effective_workers(args, config)
    bundle = deviation_trace(builder, upto, spec, m_grid, seeds, workers=workers)
    _emit("\n".join([_CSV_HEADER] + bundle.csv_rows()) + "\n", args)
    if getattr(args, "output", None):
        _report(
            args,
            "converge",
            {
                "family": params["name"],
                "members": upto,
                "process": spec.kind,
                "m_grid": list(m_grid),
                "seeds": len(seeds),
                "median_gamma": [_rat(v) for v in bundle.median_values],
                "rows": len(seeds) * len(m_grid),
                "wall_time": round(time.time() - t0, 3),
            },
            config,
        )
    return 0


def _cmd_counterexample(args, config) -> int:
    seed = _effective_seed(args, config)
    precision = _effective_precision(args, config)
    window = args.window
    m_max = args.m
    x0 = fixed_uniform(seed, DOMAIN_IID, 0, precision)
    spec = rotation_spec(seed=seed, x0_fixed=x0, precision=precision)
    path = generate(spec, m_max)
    fam = trajectory_family(
        spec.params["alpha_fixed"], path.fixed[0], precision, window
    )
    upto = max(2, -(-(m_max - 1) // window) if m_max > 1 else 1)
    grid = sorted({v for v in (1, 10, 100, 1000, 10_000) if v < m_max} | {m_max})
    rows = [_CSV_HEADER]
    constant_one = True
    for m in grid:
        res = uniform_deviation(fam, upto, path, m)
        constant_one &= res.value == 1
        arg = "" if res.argmax is None else res.argmax
        rows.append(
            f"{seed},{m},{res.value.numerator},{res.value.denominator},"
            f"{float(res.value)!r},{arg}"
        )
    _emit("\n".join(rows) + "\n", args)
    if not constant_one:
        print("warning: deviation left 1; expected the orbit-atom pin", file=sys.stderr)
    return 0


def _cmd_isomorphism(args, config) -> int:
    t0 = time.time()
    if args.set:
        sets = [iu(text) for text in args.set]
        phi = build_map(sets)
        body = {"stages": len(sets)}
    else:
        phi = doubling_map(args.stage)
        dev = doubling_map_deviation(args.stage, probe_order=args.probe_order)
        body = {
            "stages": args.stage,
            "doubling_sup": _rat(dev),
            "doubling_grid": 1 << args.probe_order,
        }
    probes = []
    for order in range(1, 7):
        den = 1 << order
        probes.extend(
            IntervalUnion((Interval(Fraction(j, den), Fraction(j + 1, den)),))
            for j in range(den)
        )
    defect = measure_preservation_defect(phi, probes)
    body.update(
        {
            "pieces": len(phi.pieces),
            "defect": _rat(defect),
            "probes": len(probes),
            "wall_time": round(time.time() - t0, 3),
        }
    )
    _report(args, "isomorphism", body, config)
    return 0


def _cmd_induced(args, config) -> int:
    t0 = time.time()
    seed = _effective_seed(args, config)
    precision = _effective_precision(args, config)
    region = iu(args.region)
    if region.is_empty:
        raise ValueError("region must have positive measure")
    kind = args.process or config.get("process", {}).get("kind", "rotation")
    count = args.count
    m = args.m or count
    need = max(1000, int(count / float(region.measure)) * 3)
    if kind == "rotation":
        x0 = fixed_uniform(seed, DOMAIN_IID, 0, precision)
        spec = rotation_spec(seed=seed, x0_fixed=x0, precision=precision)
    else:
        spec = _process_spec(args, config)
    path = generate(spec, need)
    ip = induce(path, region, count)
    member = iu(args.member)
    ident = frequency_transfer_identity(ip, member, m)
    body = {
        "process": spec.kind,
        "region": str(region),
        "returns": count,
        "m": m,
        "pacing": _rat(kac_ratio(ip, m)),
        "mean_return": _rat(mean_return_time(ip)),
        "kac_value": _rat(1 / region.measure),
        "identity_lhs": _rat(ident.lhs),
        "identity_rhs": _rat(ident.rhs),
        "identity_holds": ident.holds,
        "wall_time": round(time.time() - t0, 3),
    }
    _report(args, "induced", body, config)
    return 0


def _cmd_graph_lift(args, config) -> int:
    t0 = time.time()
    spec = _process_spec(args, config)
    m = args.m
    path = generate(spec, m)
    gs = graph_lift(path, yseed=args.yseed)
    identity = PiecewiseFn((0, 1), ((1, 0),), 1)
    fubini = gs.indicator_mean(identity, m)
    split = gamma_split(ramp_family(10), gs, m)
    bound = lm_bound(m, 2)
    body = {
        "m": m,
        "yseed": args.yseed,
        "identity_indicator_mean": _rat(fubini),
        "gamma": _rat(split.gamma),
        "gamma1": _rat(split.gamma1),
        "gamma2": _rat(split.gamma2),
        "triangle_ok": split.bound_ok,
        "rate_bound": bound,
        "gamma2_below_bound": float(split.gamma2) <= bound,
        "wall_time": round(time.time() - t0, 3),
    }
    _report(args, "graph-lift", body, config)
    return 0


def _cmd_suite(args, config) -> int:
    workers = _effective_workers(args, config)
    report = run_suite(workers=workers)
    print(report.table())
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(report.csv_text)
    return 0 if report.all_passed else 1


def _parse_seed_list(text: str) -> list[int]:
    seeds = []
    for token in text.split(","):
        token = token.strip()
        if "-" in token[1:]:
            lo, hi = token.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(token))
    return seeds


# -- parser -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON experiment config file")
    common.add_argument("--seed", type=int, help="process seed")
    common.add_argument("--precision", type=int, help="fixed-point bits (>= 64)")
    common.add_argument("--budget", type=int, help="family member budget")
    common.add_argument("--workers", type=int, help="worker process count")
    common.add_argument("--output", help="write the main artifact to this path")

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", choices=sorted(FAMILY_BUILDERS), help="family name")
    family.add_argument("--order", type=int, help="family grid order")
    family.add_argument("--k", type=int, help="family interval/run count")
    family.add_argument("--window", type=int, help="trajectory window size")

    parser = argparse.ArgumentParser(
        prog="ergodic-vc",
        description="exact experiments on interval families along sampled orbits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("shatter", parents=[common, family], help="shatter coefficient on a point grid")
    p.add_argument("--points", help="comma-separated rational points")
    p.set_defaults(handler=_cmd_shatter)

    p = sub.add_parser("vcdim", parents=[common, family], help="exhaustive dimension over a probe grid")
    p.add_argument("--max-k", type=int, default=6)
    p.set_defaults(handler=_cmd_vcdim)

    p = sub.add_parser("join-witness", parents=[common], help="full join and certified shattered points")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--set", action="append", help="interval union in DSL form; repeatable")
    p.set_defaults(handler=_cmd_join_witness)

    p = sub.add_parser("converge", parents=[common, family], help="seeded uniform-deviation traces (CSV)")
    p.add_argument("--process", choices=("iid-uniform", "rotation", "doubling", "markov"))
    p.add_argument("--m-grid", help="comma-separated ascending sample counts")
    p.add_argument("--seeds", help="comma or range list, e.g. 0-9,20")
    p.set_defaults(handler=_cmd_converge)

    p = sub.add_parser("counterexample", parents=[common], help="orbit-atom family pins deviation at 1 (CSV)")
    p.add_argument("--window", type=int, default=64)
    p.add_argument("--m", type=int, default=1000)
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser("isomorphism", parents=[common], help="straightening map diagnostics")
    p.add_argument("--stage", type=int, default=4)
    p.add_argument("--probe-order", type=int, default=10)
    p.add_argument("--set", action="append", help="interval union in DSL form; repeatable")
    p.set_defaults(handler=_cmd_isomorphism)

    p = sub.add_parser("induced", parents=[common], help="first-return sampling diagnostics")
    p.add_argument("--process", choices=("iid-uniform", "rotation", "doubling", "markov"))
    p.add_argument("--region", default="[0,1/3)")
    p.add_argument("--member", default="[0,1/6)")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--m", type=int)
    p.set_defaults(handler=_cmd_induced)

    p = sub.add_parser("graph-lift", parents=[common], help="auxiliary-uniform lift and deviation split")
    p.add_argument("--process", choices=("iid-uniform", "rotation", "doubling", "markov"))
    p.add_argument("--m", type=int, default=1000)
    p.add_argument("--yseed", type=int, default=1)
    p.set_defaults(handler=_cmd_graph_lift)

    p = sub.add_parser("suite", parents=[common], help="run every shipped acceptance experiment")
    p.set_defaults(handler=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            return _config_error(f"/: {e}")
    problem = _validate_config(config)
    if problem is not None:
        return _config_error(problem)
    try:
        return args.handler(args, config)
    except ResourceLimitError as e:
        print(f"resource cap exceeded: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
