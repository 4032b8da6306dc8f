"""Command line harness: reproducible experiments over every module.

Each run merges one config: a flag beats ERGODIC_VC_WORKERS (the ``workers``
key), which beats the JSON config file, which beats the built-in default.
The merged config passes one schema check before any work starts, so a bad
flag, environment value or file value alike exits 2 with a JSON pointer;
JSON reports echo the merged config, and its ``output`` key (or ``--output``)
redirects the main artifact to a file.
Exit codes: 0 success, 1 runtime error, 2 bad configuration (message carries
a JSON-pointer path), 3 resource cap exceeded. Tabular artifacts are CSV
with exact numerator/denominator columns next to any float column; summary
output is JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .deviation import deviation_trace, uniform_deviation
from .errors import ResourceLimitError
from .families import dyadic_class, half_interval_class, k_interval_class, run_pattern_class, subset_indexed_sets
from .functions import PiecewiseFn, gamma_split, graph_lift, lm_bound, ramp_family
from .induced import frequency_transfer_identity, induce, kac_ratio, mean_return_time
from .intervals import SetFamily, iu
from .isomorphism import (
    build_map,
    doubling_deviation,
    doubling_map,
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
from .vc import full_join_witness, join, sauer_bound, shatter_coefficient, vc_dimension

# Seeds key a 64-bit counter generator; larger seeds would alias smaller ones.
_SEED_MAX = (1 << 64) - 1
_PROCESS_KINDS = ["iid-uniform", "rotation", "doubling", "markov"]
_FAMILY_NAMES = ["dyadic", "half", "intervals", "run-pattern", "trajectory"]

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "process": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": _PROCESS_KINDS},
                "seed": {"type": "integer", "minimum": 0, "maximum": _SEED_MAX},
                "params": {"type": "object"},
            },
        },
        "family": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"enum": _FAMILY_NAMES},
                "order": {"type": "integer", "minimum": 1, "maximum": 16},
                "k": {"type": "integer", "minimum": 1},
                "window": {"type": "integer", "minimum": 1},
                "budget": {"type": "integer", "minimum": 0},
                "alpha_fixed": {"type": "string"},
                "x0_fixed": {"type": "string"},
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
        "workers": {"type": "integer", "minimum": 1},
        "output": {"type": "string"},
    },
}


class _Violation(Exception):
    """A schema violation: (JSON pointer, message)."""


def _checked(value, schema, pointer=""):
    """``value`` checked against ``schema`` (the keywords CONFIG_SCHEMA uses),
    with "integer" leaves cast to int and containers updated in place. Nodes
    come before children and keys go in sorted order, so the ``_Violation``
    raised is the first of a draft 2020-12 validator's errors sorted by path,
    message included: an integral float is an integer, a bool never is, and
    NaN or an infinity is a type error.
    """
    kind = schema.get("type")
    if kind == "integer":
        ok = isinstance(value, int) and not isinstance(value, bool)
        ok = ok or isinstance(value, float) and value.is_integer()
    else:
        ok = kind is None or isinstance(value, {"object": dict, "array": list, "string": str}[kind])
    if not ok:
        raise _Violation(pointer, f"{value!r} is not of type {kind!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise _Violation(pointer, f"{value!r} is not one of {schema['enum']!r}")
    if "minimum" in schema and value < schema["minimum"]:
        raise _Violation(pointer, f"{value!r} is less than the minimum of {schema['minimum']!r}")
    if "maximum" in schema and value > schema["maximum"]:
        raise _Violation(pointer, f"{value!r} is greater than the maximum of {schema['maximum']!r}")
    if kind == "object":
        props = schema.get("properties", {})
        extras = sorted(value.keys() - props, key=str)
        if extras and schema.get("additionalProperties") is False:
            names = ", ".join(map(repr, extras)) + (" was" if len(extras) == 1 else " were")
            raise _Violation(pointer, f"Additional properties are not allowed ({names} unexpected)")
        for key in sorted(value.keys() & props):
            value[key] = _checked(value[key], props[key], f"{pointer}/{key}")
    elif kind == "array":
        if len(value) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            raise _Violation(pointer, f"{value!r} {short}")
        value[:] = [_checked(v, schema["items"], f"{pointer}/{i}") for i, v in enumerate(value)]
    return int(value) if kind == "integer" else value


def _validate_config(config) -> str | None:
    """First violation as 'pointer: message', or None (integer leaves cast in place)."""
    try:
        _checked(config, CONFIG_SCHEMA)
    except _Violation as e:
        return f"{e.args[0] or '/'}: {e.args[1]}"
    grid = config.get("m_grid")
    if grid and any(a >= b for a, b in zip(grid, grid[1:])):
        return "/m_grid: values must be strictly ascending"
    family = _family_params(config)
    if family["name"] == "run-pattern" and family["order"] > 4:
        return "/family/order: run-pattern grids hold 2**order <= 20 points, so order <= 4"
    return None


def _config_error(problem: str) -> int:
    print(f"config error at {problem}", file=sys.stderr)
    return 2


# -- families -------------------------------------------------------------------


def _build_family(params, precision: int) -> SetFamily:
    """The named family; trajectory atoms use the run's fixed-point precision."""
    name = params["name"]
    if name == "dyadic":
        return dyadic_class(params["order"])
    if name == "half":
        return half_interval_class()
    if name == "intervals":
        return k_interval_class(params.get("k", 1), params["order"])
    if name == "run-pattern":
        order = params["order"]
        pts = [Fraction(2 * i + 1, 1 << (order + 1)) for i in range(1 << order)]
        return run_pattern_class(params.get("k", 2), pts)
    alpha = params.get("alpha_fixed")
    alpha = golden_alpha_fixed(precision) if alpha is None else int(alpha)
    return trajectory_family(alpha, int(params.get("x0_fixed", 0)), precision, params.get("window", 1))


_DEFAULT_BUDGETS = {"trajectory": 16}


def _family_params(config) -> dict:
    """Family section with its defaults: name dyadic, order 3 for intervals and 4 otherwise."""
    params = {"name": "dyadic", **config.get("family", {})}
    params.setdefault("order", 3 if params["name"] == "intervals" else 4)
    return params


def _family(config) -> tuple[dict, SetFamily, int]:
    """Family section with its defaults, the family and its budget."""
    params = _family_params(config)
    fam = _build_family(params, _seed_precision(config)[1])
    budget = params.get("budget")
    if budget is None:
        budget = fam.size if fam.size is not None else _DEFAULT_BUDGETS.get(params["name"], 32)
    return params, fam, budget


def _seed_precision(config) -> tuple[int, int]:
    """Process seed and fixed-point bits, each read from its one config key."""
    return config.get("process", {}).get("seed", 0), config.get("precision", 128)


def _process_spec(config) -> ProcessSpec:
    section = config.get("process", {})
    kind = section.get("kind", "iid-uniform")
    params = section.get("params", {})
    if kind == "markov" and not ("matrix" in params and "cells" in params):
        raise ValueError("markov process needs params.matrix and params.cells in the config")
    seed, precision = _seed_precision(config)
    return ProcessSpec.from_json(
        {"kind": kind, "seed": seed, "precision": precision, "params": params}
    )


def _emit(text: str, config) -> None:
    output = config.get("output")
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
        "wall_time": round(time.perf_counter() - args.started, 3),
        **body,
    }
    print(json.dumps(report, indent=2, sort_keys=True, default=str))


# -- subcommands ------------------------------------------------------------------


def _probe_points(order: int) -> list[Fraction]:
    den = 1 << (order + 2)
    return [Fraction(2 * i + 1, den) for i in range(den // 2)]


def _cmd_shatter(args, config) -> int:
    params, fam, upto = _family(config)
    if args.points:
        points = [Fraction(tok) for tok in args.points.split(",")]
    else:
        points = _probe_points(params["order"])
    s = shatter_coefficient(points, fam, upto)
    body = {"family": params["name"], "members": upto, "points": len(points), "shatter": s}
    _report(args, "shatter", body, config)
    return 0


def _cmd_vcdim(args, config) -> int:
    params, fam, upto = _family(config)
    probe = _probe_points(params["order"])
    res = vc_dimension(fam, upto, probe, max_k=args.max_k)
    body = {
        "family": params["name"],
        "members": upto,
        "dim": res.dim,
        "witness": [str(x) for x in res.witness],
        "at_cap": res.at_cap,
        "sauer_at_dim": sauer_bound(len(probe), res.dim).exact,
    }
    _report(args, "vcdim", body, config)
    return 0


def _cmd_join_witness(args, config) -> int:
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
    _report(args, "join-witness", body, config)
    return 0


_CSV_HEADER = "seed,m,gamma_num,gamma_den,gamma_f64,argmax_member"


def _cmd_converge(args, config) -> int:
    m_grid = config.get("m_grid", [100, 1000])
    params, fam, upto = _family(config)
    spec = _process_spec(config)
    seeds = config.get("seeds", [spec.seed])
    bundle = deviation_trace(fam, upto, spec, m_grid, seeds, workers=config.get("workers", 1))
    _emit("\n".join([_CSV_HEADER] + bundle.csv_rows()) + "\n", config)
    if config.get("output"):
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
            },
            config,
        )
    return 0


def _cmd_counterexample(args, config) -> int:
    seed, precision = _seed_precision(config)
    window = args.window
    m_max = args.m
    x0 = fixed_uniform(seed, DOMAIN_IID, 0, precision)
    spec = rotation_spec(seed=seed, x0_fixed=x0, precision=precision)
    alpha = spec.params["alpha_fixed"]
    # The orbit family starts at x_1; building it first rejects a bad
    # window before any point is generated.
    fam = trajectory_family(alpha, (x0 + alpha) % (1 << precision), precision, window)
    path = generate(spec, m_max)
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
    _emit("\n".join(rows) + "\n", config)
    if not constant_one:
        print("warning: deviation left 1; expected the orbit-atom pin", file=sys.stderr)
    return 0


def _cmd_isomorphism(args, config) -> int:
    if args.set:
        sets = [iu(text) for text in args.set]
        phi = build_map(sets)
        body = {"stages": len(sets)}
    else:
        phi = doubling_map(args.stage)
        dev = doubling_deviation(phi, args.probe_order)
        body = {
            "stages": args.stage,
            "doubling_sup": _rat(dev),
            "doubling_grid": 1 << args.probe_order,
        }
    probes = list(dyadic_class(6).members(126))
    defect = measure_preservation_defect(phi, probes)
    body.update({"pieces": len(phi.pieces), "defect": _rat(defect), "probes": len(probes)})
    _report(args, "isomorphism", body, config)
    return 0


def _cmd_induced(args, config) -> int:
    seed, precision = _seed_precision(config)
    region = iu(args.region)
    if region.is_empty:
        raise ValueError("region must have positive measure")
    count = args.count
    m = count if args.m is None else args.m
    need = max(1000, int(count / float(region.measure)) * 3)
    process = {"kind": "rotation", "params": {}, **config.get("process", {})}
    if process["kind"] == "rotation" and "x0_fixed" not in process["params"]:
        # An unset start point is a seeded uniform draw, not 0.
        x0 = fixed_uniform(seed, DOMAIN_IID, 0, precision)
        process["params"] = {**process["params"], "x0_fixed": x0}
    spec = _process_spec({**config, "process": process})
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
    }
    _report(args, "induced", body, config)
    return 0


def _cmd_graph_lift(args, config) -> int:
    spec = _process_spec(config)
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
    }
    _report(args, "graph-lift", body, config)
    return 0


def _cmd_suite(args, config) -> int:
    from .suite import run_suite

    report = run_suite(workers=config.get("workers", 1))
    print(report.table())
    if config.get("output"):
        with open(config["output"], "w") as fh:
            fh.write(report.csv_text)
    return 0 if report.all_passed else 1


def _int_or_text(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _int_list(text: str) -> list:
    """Comma list of ints; a token that is not an int stays text for the schema."""
    return [_int_or_text(token) for token in text.split(",")]


def _seed_list(text: str) -> list:
    """Comma list of ints and lo-hi ranges, e.g. '0-9,20'; bad tokens stay text."""
    seeds = []
    for token in map(str.strip, text.split(",")):
        try:
            if "-" in token[1:]:
                lo, hi = token.split("-", 1)
                seeds.extend(range(int(lo), int(hi) + 1))
            else:
                seeds.append(int(token))
        except ValueError:
            seeds.append(token)
    return seeds


# -- parser -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # A flag with a config key takes that key's path as its dest, so main can
    # merge it into the config before the one schema check.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON experiment config file")
    common.add_argument("--seed", dest="process.seed", type=int, help="process seed")
    common.add_argument("--precision", type=int, help="fixed-point bits (>= 64)")
    common.add_argument("--budget", dest="family.budget", type=int, help="family member budget")
    common.add_argument("--workers", type=int, help="worker process count")
    common.add_argument("--output", help="write the main artifact to this path")

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", dest="family.name", choices=_FAMILY_NAMES, help="family name")
    family.add_argument("--order", dest="family.order", type=int, help="family grid order")
    family.add_argument("--k", dest="family.k", type=int, help="family interval/run count")
    family.add_argument("--window", dest="family.window", type=int, help="trajectory window size")

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
    p.add_argument("--process", dest="process.kind", choices=_PROCESS_KINDS)
    p.add_argument("--m-grid", type=_int_list, help="comma-separated ascending sample counts")
    p.add_argument("--seeds", type=_seed_list, help="comma or range list, e.g. 0-9,20")
    p.set_defaults(handler=_cmd_converge)

    p = sub.add_parser("counterexample", parents=[common], help="orbit-atom family pins deviation at 1 (CSV)")
    p.add_argument("--window", type=int, default=64)
    p.add_argument("--m", type=int, default=1000)
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser("isomorphism", parents=[common], help="straightening map diagnostics")
    # The doubling work grows like 2**order; 20 is the join's set cap.
    p.add_argument("--stage", type=int, choices=range(1, 21), metavar="1..20", default=4)
    p.add_argument("--probe-order", type=int, choices=range(1, 21), metavar="1..20", default=10)
    p.add_argument("--set", action="append", help="interval union in DSL form; repeatable")
    p.set_defaults(handler=_cmd_isomorphism)

    p = sub.add_parser("induced", parents=[common], help="first-return sampling diagnostics")
    p.add_argument("--process", dest="process.kind", choices=_PROCESS_KINDS)
    p.add_argument("--region", default="[0,1/3)")
    p.add_argument("--member", default="[0,1/6)")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--m", type=int)
    p.set_defaults(handler=_cmd_induced)

    p = sub.add_parser("graph-lift", parents=[common], help="auxiliary-uniform lift and deviation split")
    p.add_argument("--process", dest="process.kind", choices=_PROCESS_KINDS)
    p.add_argument("--m", type=int, default=1000)
    p.add_argument("--yseed", type=int, default=1)
    p.set_defaults(handler=_cmd_graph_lift)

    p = sub.add_parser("suite", parents=[common], help="run every shipped acceptance experiment")
    p.set_defaults(handler=_cmd_suite)

    return parser


def _merge_overrides(config, args):
    """Layer ERGODIC_VC_WORKERS, then every given flag with a config path, onto config."""
    if not isinstance(config, dict):
        return config  # the schema reports it at "/"
    env = os.environ.get("ERGODIC_VC_WORKERS")
    overrides = [("workers", _int_or_text(env))] if env else []
    overrides += [
        (dest, value)
        for dest, value in vars(args).items()
        if value is not None and dest.split(".")[0] in CONFIG_SCHEMA["properties"]
    ]
    for path, value in overrides:
        head, _, leaf = path.partition(".")
        if not leaf:
            config[head] = value
        elif isinstance(config.setdefault(head, {}), dict):
            config[head][leaf] = value
    return config


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _build_parser().parse_args(argv)
    args.started = started
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            return _config_error(f"/: {e}")
    config = _merge_overrides(config, args)
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
