"""Command line harness: reproducible experiments over every module.

Each run merges one config: a flag beats ERGODIC_VC_WORKERS (the ``workers``
key), which beats the JSON config file, which beats the built-in default.
Each argument is declared once, in one table. Before any work starts the
merged config, then the subcommand's own arguments, pass one schema walk, so
a bad flag, config key or environment value exits 2 with empty stdout and
``config error at WHERE: MESSAGE`` on stderr; WHERE is the JSON pointer of a
config key (``/family/order``, also for its flag) or an own flag (``--window``,
``--set/1``). Exit 1 is a ``ValueError`` raised while the work runs; exit 3
is a resource cap (the join's 20 sets here, also the k-interval DP's
``cost_cap`` in the library). JSON reports echo the merged config; its
``output`` key (or ``--output``) redirects the main artifact to a file.
Artifacts are CSV with exact numerator/denominator columns next to any float
column; summaries are JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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
    doubling_spec,
    fixed_uniform,
    generate,
    golden_alpha_fixed,
    iid_spec,
    markov_spec,
    rotation_spec,
    stationary_distribution,
    trajectory_family,
)
from .vc import _distinct, full_join_witness, join, sauer_bound, shatter_coefficient, vc_dimension

# Seeds key a 64-bit counter generator; larger seeds would alias smaller ones.
_SEED = {"type": "integer", "minimum": 0, "maximum": (1 << 64) - 1}
_POSITIVE = {"type": "integer", "minimum": 1}
# A fixed-point numerator, in decimal digits (JSON numbers lose digits past 2**53).
_NUMERATOR = {"type": "string", "pattern": "^[0-9]+$"}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "process": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["iid-uniform", "rotation", "doubling", "markov"]},
                "seed": _SEED,
                "params": {"type": "object"},
            },
        },
        "family": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"enum": ["dyadic", "half", "intervals", "run-pattern", "trajectory"]},
                "order": {"type": "integer", "minimum": 1, "maximum": 16},
                "k": _POSITIVE,
                "window": _POSITIVE,
                "budget": {"type": "integer", "minimum": 0},
                "alpha_fixed": _NUMERATOR,
                "x0_fixed": _NUMERATOR,
            },
        },
        "m_grid": {"type": "array", "items": _POSITIVE, "minItems": 1, "description": "ascending, e.g. 10,100"},
        "seeds": {"type": "array", "items": _SEED, "minItems": 1, "description": "with ranges, e.g. 0-9,20"},
        "precision": {"type": "integer", "minimum": 64},
        "workers": _POSITIVE,
        "output": {"type": "string", "description": "write the main artifact to this path"},
    },
}
# The params each process kind reads; a Markov chain is checked by solving it.
_PARAMS = {
    kind: {"type": "object", "additionalProperties": False, "properties": reads}
    for kind, reads in {
        "iid-uniform": {},
        "doubling": {},
        "rotation": {"alpha_fixed": _NUMERATOR, "x0_fixed": _NUMERATOR},
        "markov": {"matrix": {}, "cells": {}},
    }.items()
}
# The process kind of a run whose config names none.
_DEFAULT_KIND = {"induced": "rotation"}


class _Violation(Exception):
    """A schema violation: (JSON pointer, message)."""


def _checked(value, schema, pointer=""):
    """``value`` checked against ``schema`` (the keywords CONFIG_SCHEMA uses),
    with "integer" leaves cast to int and containers updated in place. Nodes
    come before children and keys go in sorted order, so the ``_Violation``
    raised is the first of a draft 2020-12 validator's errors sorted by path,
    message included: an integral float is an integer, a bool never is, and
    NaN or an infinity is a type error. An argument's own fragment may add
    ``parse``, a reader from checked text to the value a handler takes.
    """
    kind = schema.get("type")
    if kind == "integer":
        ok = isinstance(value, int) and not isinstance(value, bool)
        ok = ok or isinstance(value, float) and value.is_integer()
    else:
        ok = kind is None or isinstance(value, {"object": dict, "array": list, "string": str}[kind])
    if not ok:
        raise _Violation(pointer, f"{value!r} is not of type {kind!r}")
    if "parse" in schema:
        try:
            value = schema["parse"](value)
        except (ValueError, ZeroDivisionError) as e:
            reason = "zero denominator" if isinstance(e, ZeroDivisionError) else e
            raise _Violation(pointer, f"{value!r} does not parse: {reason}") from None
    if "enum" in schema and value not in schema["enum"]:
        raise _Violation(pointer, f"{value!r} is not one of {schema['enum']!r}")
    if "minimum" in schema and value < schema["minimum"]:
        raise _Violation(pointer, f"{value!r} is less than the minimum of {schema['minimum']!r}")
    if "maximum" in schema and value > schema["maximum"]:
        raise _Violation(pointer, f"{value!r} is greater than the maximum of {schema['maximum']!r}")
    if "pattern" in schema and not re.search(schema["pattern"], value):
        raise _Violation(pointer, f"{value!r} does not match {schema['pattern']!r}")
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


def _validate_config(config, default_kind: str = "iid-uniform") -> str | None:
    """First violation as 'pointer: message', or None (integer leaves cast in place).

    ``process.params`` may hold only the keys its kind reads, the kind being
    ``default_kind`` when the config names none. The process and a trajectory
    family (an O(1) build) are built once here, so what their constructors
    refuse (a Markov chain without a unique stationary law, a whole turn) exits 2.
    """
    try:
        _checked(config, CONFIG_SCHEMA)
        process = config.get("process", {})
        _checked(process.get("params", {}), _PARAMS[process.get("kind", default_kind)], "/process/params")
    except _Violation as e:
        return f"{e.args[0] or '/'}: {e.args[1]}"
    grid = config.get("m_grid")
    if grid and any(a >= b for a, b in zip(grid, grid[1:])):
        return "/m_grid: values must be strictly ascending"
    family = _family_params(config)
    if family["name"] == "run-pattern" and family["order"] > 4:
        return "/family/order: run-pattern grids hold 2**order <= 20 points, so order <= 4"
    if family["name"] == "trajectory":
        try:
            _build_family(family, _seed_precision(config)[1])
        except ValueError as e:
            return f"/family/alpha_fixed: {e}"
    kind = config.get("process", {}).get("kind", default_kind)
    try:
        spec = _process_spec(config, default_kind)
        if kind == "markov":
            stationary_distribution(spec.params["matrix"])
    except (ValueError, TypeError, ArithmeticError) as e:
        return f"/process/params{'/alpha_fixed' if kind == 'rotation' else ''}: {e}"
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


def _family_params(config) -> dict:
    """Family section with its defaults: name dyadic, order 3 for intervals and 4 otherwise."""
    params = {"name": "dyadic", **config.get("family", {})}
    params.setdefault("order", 3 if params["name"] == "intervals" else 4)
    return params


def _family(config) -> tuple[dict, SetFamily, int]:
    """Family section with its defaults, the family and its budget."""
    params = _family_params(config)
    fam = _build_family(params, _seed_precision(config)[1])
    default = fam.size if fam.size is not None else 16 if params["name"] == "trajectory" else 32
    return params, fam, params.get("budget", default)


def _seed_precision(config) -> tuple[int, int]:
    """Process seed and fixed-point bits, each read from its one config key."""
    return config.get("process", {}).get("seed", 0), config.get("precision", 128)


def _process_spec(config, default_kind: str = "iid-uniform") -> ProcessSpec:
    """The checked ``process`` section's spec, built by its kind's constructor."""
    section = config.get("process", {})
    kind = section.get("kind", default_kind)
    params = section.get("params", {})
    seed, precision = _seed_precision(config)
    if kind == "rotation":
        alpha = params.get("alpha_fixed")
        alpha = None if alpha is None else int(alpha)
        return rotation_spec(seed, alpha, int(params.get("x0_fixed", 0)), precision)
    if kind == "markov":
        if not ("matrix" in params and "cells" in params):
            raise ValueError("markov process needs params.matrix and params.cells in the config")
        return markov_spec(params["matrix"], params["cells"], seed, precision)
    return (iid_spec if kind == "iid-uniform" else doubling_spec)(seed, precision)


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
    points = args.points or _probe_points(params["order"])
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
    sets = args.set or subset_indexed_sets(args.k)
    jp = join(sets)
    body = {"sets": len(sets), "cells": len(jp.cells), "full": jp.is_full}
    if not args.set:
        witness = full_join_witness(jp)
        s = shatter_coefficient(witness, SetFamily.of("joined", sets), len(sets))
        body.update(k=args.k, witness=[str(x) for x in witness], shatter=s, shattered=s == 1 << args.k)
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
        body = {
            "family": params["name"],
            "members": upto,
            "process": spec.kind,
            "m_grid": list(m_grid),
            "seeds": len(seeds),
            "median_gamma": [_rat(v) for v in bundle.median_values],
            "rows": len(seeds) * len(m_grid),
        }
        _report(args, "converge", body, config)
    return 0


def _cmd_counterexample(args, config) -> int:
    seed, precision = _seed_precision(config)
    window = args.window
    m_max = args.m
    x0 = fixed_uniform(seed, DOMAIN_IID, 0, precision)
    spec = rotation_spec(seed=seed, x0_fixed=x0, precision=precision)
    alpha = spec.params["alpha_fixed"]
    # The orbit family starts at x_1.
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
        rows.append(f"{seed},{m},{res.value.numerator},{res.value.denominator},{float(res.value)!r},{arg}")
    _emit("\n".join(rows) + "\n", config)
    if not constant_one:
        print("warning: deviation left 1; expected the orbit-atom pin", file=sys.stderr)
    return 0


def _cmd_isomorphism(args, config) -> int:
    if args.set:
        phi = build_map(args.set)
        body = {"stages": len(args.set)}
    else:
        phi = doubling_map(args.stage)
        dev = doubling_deviation(phi, args.probe_order)
        body = {"stages": args.stage, "doubling_sup": _rat(dev), "doubling_grid": 1 << args.probe_order}
    probes = list(dyadic_class(6).members(126))
    defect = measure_preservation_defect(phi, probes)
    body.update({"pieces": len(phi.pieces), "defect": _rat(defect), "probes": len(probes)})
    _report(args, "isomorphism", body, config)
    return 0


def _cmd_induced(args, config) -> int:
    seed, precision = _seed_precision(config)
    region = args.region
    count = args.count
    m = count if args.m is None else args.m
    need = max(1000, int(count / float(region.measure)) * 3)
    process = {"kind": _DEFAULT_KIND["induced"], "params": {}, **config.get("process", {})}
    if process["kind"] == "rotation" and "x0_fixed" not in process["params"]:
        # An unset start point is a seeded uniform draw, not 0.
        x0 = fixed_uniform(seed, DOMAIN_IID, 0, precision)
        process["params"] = {**process["params"], "x0_fixed": x0}
    spec = _process_spec({**config, "process": process})
    path = generate(spec, need)
    ip = induce(path, region, count)
    ident = frequency_transfer_identity(ip, args.member, m)
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


def _points(text: str) -> tuple:
    """Comma-separated distinct rationals, e.g. '1/8,3/8'."""
    return _distinct(map(Fraction, text.split(",")))


# -- arguments --------------------------------------------------------------------

# Each argument is declared once, as (flag, dest, schema fragment, default).
# A dest that is a config path takes its fragment from CONFIG_SCHEMA (the slot
# holds None) and main merges it into the config; any other dest is the
# subcommand's own argument, checked against its fragment right after the
# config. Argparse only splits tokens, so every value meets the one walk.
_COMMON = (
    ("--config", "config", {"type": "string", "description": "JSON experiment config file"}, None),
    ("--seed", "process.seed", None, None),
    ("--precision", "precision", None, None),
    ("--budget", "family.budget", None, None),
    ("--workers", "workers", None, None),
    ("--output", "output", None, None),
)
_FAMILY = (
    ("--family", "family.name", None, None),
    ("--order", "family.order", None, None),
    ("--k", "family.k", None, None),
    ("--window", "family.window", None, None),
)
_PROCESS = ("--process", "process.kind", None, None)
_M = ("--m", "m", _POSITIVE, 1000)
_UNION = {"type": "string", "parse": iu, "description": "interval union, e.g. '[0,1/4) u [1/2,1)'"}
_SETS = ("--set", "set", {"type": "array", "items": _UNION, "description": "an interval union; repeatable"}, None)
# The doubling work grows like 2**stage; 20 is the join's set cap.
_ORDER = {"type": "integer", "minimum": 1, "maximum": 20}
_SUBCOMMANDS = {  # name: (handler, help, rows after _COMMON)
    "shatter": (_cmd_shatter, "shatter coefficient on a point grid", [
        *_FAMILY,
        ("--points", "points", {"type": "string", "parse": _points, "description": "e.g. 1/8,3/8"}, None),
    ]),
    "vcdim": (_cmd_vcdim, "exhaustive dimension over a probe grid", [*_FAMILY, ("--max-k", "max_k", _POSITIVE, 6)]),
    # 2**k subset-indexed sets; k = 4 already joins to 65,536 cells.
    "join-witness": (_cmd_join_witness, "full join and certified shattered points",
                     [("--k", "k", {"type": "integer", "minimum": 1, "maximum": 4}, 2), _SETS]),
    "converge": (_cmd_converge, "seeded uniform-deviation traces (CSV)",
                 [*_FAMILY, _PROCESS, ("--m-grid", "m_grid", None, None), ("--seeds", "seeds", None, None)]),
    "counterexample": (_cmd_counterexample, "orbit-atom family pins deviation at 1 (CSV)",
                       [("--window", "window", _POSITIVE, 64), _M]),
    "isomorphism": (_cmd_isomorphism, "straightening map diagnostics",
                    [("--stage", "stage", _ORDER, 4), ("--probe-order", "probe_order", _ORDER, 10), _SETS]),
    "induced": (_cmd_induced, "first-return sampling diagnostics", [
        _PROCESS,
        ("--region", "region", _UNION, "[0,1/3)"),
        ("--member", "member", _UNION, "[0,1/6)"),
        ("--count", "count", _POSITIVE, 100),
        ("--m", "m", {**_POSITIVE, "description": "at most --count, its default"}, None),
    ]),
    "graph-lift": (_cmd_graph_lift, "auxiliary-uniform lift and deviation split",
                   [_PROCESS, _M, ("--yseed", "yseed", _SEED, 1)]),
    "suite": (_cmd_suite, "run every shipped acceptance experiment", []),
}
# Comma-list tokenizers (a token that is not an int stays text for the walk);
# any other array argument repeats its flag instead.
_LISTS = {"m_grid": lambda text: [_int_or_text(token) for token in text.split(",")], "seeds": _seed_list}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergodic-vc",
        description="exact experiments on interval families along sampled orbits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, text, rows) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        rows = (*_COMMON, *rows)
        for flag, dest, fragment, default in rows:
            head, _, leaf = dest.partition(".")
            schema = fragment or CONFIG_SCHEMA["properties"][head]
            schema = schema["properties"][leaf] if leaf else schema
            kind = schema.get("type")
            if dest in _LISTS or kind == "integer":
                tokens = {"type": _LISTS.get(dest, _int_or_text)}
            else:
                tokens = {"action": "append"} if kind == "array" else {}
            shown = [schema.get("description")]
            shown += [f"{key} {schema[key]}" for key in ("enum", "minimum", "maximum") if key in schema]
            shown += [None if default is None else f"default {default}"]
            p.add_argument(flag, dest=dest, default=default, help=", ".join(filter(None, shown)) or None, **tokens)
        p.set_defaults(handler=handler, rows=rows)
    return parser


def _validate_args(args) -> str | None:
    """First bad own argument as 'flag: message', or None (values read in place)."""
    try:
        for flag, dest, fragment, _ in args.rows:
            value = getattr(args, dest)
            if fragment is not None and value is not None:
                setattr(args, dest, _checked(value, fragment, flag))
    except _Violation as e:
        return f"{e.args[0]}: {e.args[1]}"
    if args.subcommand == "induced" and args.region.is_empty:
        return "--region: the region must have positive measure"
    if args.subcommand == "induced" and args.m is not None and args.m > args.count:
        return f"--m: {args.m} is greater than --count {args.count}"
    return None


def _merge_overrides(config, args):
    """Layer ERGODIC_VC_WORKERS, then every given flag of a config row, onto config."""
    if not isinstance(config, dict):
        return config  # the schema reports it at "/"
    env = os.environ.get("ERGODIC_VC_WORKERS")
    overrides = [("workers", _int_or_text(env))] if env else []
    given = [(dest, getattr(args, dest)) for _, dest, fragment, _ in args.rows if fragment is None]
    overrides += [(dest, value) for dest, value in given if value is not None]
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
    problem = _validate_config(config, _DEFAULT_KIND.get(args.subcommand, "iid-uniform")) or _validate_args(args)
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
