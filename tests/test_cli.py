"""Command line harness: exit codes, schemas, overrides, artifact formats."""

import ast
import copy
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ergodic_vc import cli
from ergodic_vc.cli import CONFIG_SCHEMA, _build_parser, _family, _validate_config, main

CSV_HEADER = "seed,m,gamma_num,gamma_den,gamma_f64,argmax_member"

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
README_EXAMPLES = [
    line.split(maxsplit=1)[1]
    for block in re.findall(r"```sh\n(.*?)```", README, re.S)
    for line in block.splitlines()
    if line.startswith("ergodic-vc ")
]


@pytest.fixture
def invoke(capsys, monkeypatch):
    def _invoke(argv, env=None):
        if env:
            for k, v in env.items():
                monkeypatch.setenv(k, v)
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    return _invoke


# -- exit code 0 paths ----------------------------------------------------------


def test_vcdim_dyadic_contract_example(invoke):
    code, out, err = invoke(["vcdim", "--family", "dyadic", "--order", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 2
    assert report["command"] == "vcdim"
    assert report["version"]


def test_shatter_reports_counts(invoke):
    code, out, _ = invoke(["shatter", "--family", "dyadic", "--order", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["shatter"] <= 2 ** report["points"]
    assert report["family"] == "dyadic"


def test_shatter_with_explicit_points(invoke):
    code, out, _ = invoke(
        ["shatter", "--family", "dyadic", "--order", "3", "--points", "1/8,5/8"]
    )
    assert code == 0
    assert json.loads(out)["points"] == 2


def test_join_witness_subset_mode(invoke):
    code, out, _ = invoke(["join-witness", "--k", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["full"] and report["shattered"]
    assert report["cells"] == 256
    assert len(report["witness"]) == 3


def test_join_witness_explicit_sets(invoke):
    code, out, _ = invoke(
        ["join-witness", "--set", "[0,1/2)", "--set", "[1/4,3/4)"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["cells"] == 4 and report["full"]


def test_counterexample_pins_deviation_at_one(invoke):
    code, out, err = invoke(["counterexample", "--window", "64", "--m", "1000"])
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    ms = []
    for line in lines[1:]:
        cols = line.split(",")
        ms.append(int(cols[1]))
        assert cols[2] == "1" and cols[3] == "1"
    assert ms == [1, 10, 100, 1000]


def test_converge_csv_schema(invoke):
    code, out, _ = invoke(
        ["converge", "--family", "dyadic", "--order", "3",
         "--m-grid", "10,100", "--seeds", "0-2"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 2
    for line in lines[1:]:
        seed, m, num, den, f64, arg = line.split(",")
        assert float(f64) == int(num) / int(den)


def test_converge_empty_family_all_zero(invoke):
    code, out, _ = invoke(
        ["converge", "--family", "dyadic", "--budget", "0",
         "--m-grid", "5,50", "--seeds", "3"]
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        seed, m, num, den, f64, arg = line.split(",")
        assert num == "0" and arg == ""


def test_converge_output_file_and_summary(invoke, tmp_path):
    target = tmp_path / "trace.csv"
    code, out, _ = invoke(
        ["converge", "--family", "dyadic", "--m-grid", "10",
         "--seeds", "0,1", "--output", str(target)]
    )
    assert code == 0
    assert target.read_text().startswith(CSV_HEADER)
    report = json.loads(out)
    assert report["command"] == "converge" and report["rows"] == 2


def test_converge_seed_is_the_default_seed_list(invoke):
    argv = ["converge", "--family", "dyadic", "--order", "3", "--m-grid", "10,100"]
    code, by_seed, _ = invoke(argv + ["--seed", "5"])
    assert code == 0
    _, by_seeds, _ = invoke(argv + ["--seeds", "5"])
    assert by_seed == by_seeds
    assert all(line.startswith("5,") for line in by_seed.strip().splitlines()[1:])


def test_trajectory_family_uses_the_run_precision(invoke):
    code, out, err = invoke(["converge", "--family", "trajectory", "--process", "rotation",
                             "--precision", "64", "--m-grid", "10,100"])
    assert code == 0, err
    assert len(out.strip().splitlines()) == 1 + 2
    _, fam, _ = _family({"precision": 64, "family": {"name": "trajectory"}})
    assert fam.member(0).precision == 64


def test_integral_float_seed_and_precision_read_as_integers(invoke, tmp_path):
    # The schema's "integer" admits 64.0; the trajectory atoms need an int.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"precision": 64.0, "process": {"seed": 2.0}}))
    code, out, err = invoke(["counterexample", "--config", str(cfg), "--m", "10"])
    assert code == 0, err
    code, out, err = invoke(["converge", "--config", str(cfg), "--family", "trajectory",
                             "--process", "rotation", "--m-grid", "10"])
    assert code == 0, err
    assert out.splitlines()[1].startswith("2,10,")


# One converge config per integer schema key, with that key set where a run reads it.
INTEGER_KEY_CONFIGS = {
    "process.seed": {"process": {"seed": 2.0}},
    "family.order": {"family": {"order": 3.0}},
    "family.k": {"family": {"name": "intervals", "k": 2.0, "order": 2}},
    "family.window": {"family": {"name": "trajectory", "window": 2.0}, "process": {"kind": "rotation"}},
    "family.budget": {"family": {"budget": 5.0}},
    "m_grid": {"m_grid": [10.0, 20.0]},
    "seeds": {"seeds": [1.0, 3.0]},
    "precision": {"precision": 64.0},
    "workers": {"workers": 1.0},
}


def test_integer_key_configs_cover_the_schema():
    def integer(node):
        return node.get("type") == "integer" or node.get("items", {}).get("type") == "integer"

    def leaf(path):
        node = CONFIG_SCHEMA
        for key in path.split("."):
            node = node["properties"][key]
        return node

    assert sorted(INTEGER_KEY_CONFIGS) == sorted(p for p in _schema_leaves(CONFIG_SCHEMA) if integer(leaf(p)))


@pytest.mark.parametrize("key", sorted(INTEGER_KEY_CONFIGS))
def test_integral_float_in_each_integer_key_runs_as_its_integer(invoke, tmp_path, key):
    doc = {"m_grid": [10, 20], **INTEGER_KEY_CONFIGS[key]}
    as_float, as_int = tmp_path / "float.json", tmp_path / "int.json"
    as_float.write_text(json.dumps(doc))
    as_int.write_text(json.dumps(json.loads(json.dumps(doc), parse_float=lambda t: int(float(t)))))
    assert "." in as_float.read_text() and "." not in as_int.read_text()
    code, out, err = invoke(["converge", "--config", str(as_float)])
    assert code == 0, err
    assert (code, out, err) == invoke(["converge", "--config", str(as_int)])


# The isomorphism reports as printed before the probe walk and the single map
# build, without the wall_time line.
FROZEN_ISOMORPHISM = {
    "--stage 8": """\
{
  "command": "isomorphism",
  "config": {},
  "defect": {
    "den": 1,
    "f64": 0.0,
    "num": 0
  },
  "doubling_grid": 1024,
  "doubling_sup": {
    "den": 512,
    "f64": 0.001953125,
    "num": 1
  },
  "pieces": 256,
  "probes": 126,
  "stages": 8,
  "version": "0.1.0",
}
""",
    "--stage 12": """\
{
  "command": "isomorphism",
  "config": {},
  "defect": {
    "den": 1,
    "f64": 0.0,
    "num": 0
  },
  "doubling_grid": 1024,
  "doubling_sup": {
    "den": 8192,
    "f64": 0.0001220703125,
    "num": 1
  },
  "pieces": 4096,
  "probes": 126,
  "stages": 12,
  "version": "0.1.0",
}
""",
    "--stage 4 --probe-order 16": """\
{
  "command": "isomorphism",
  "config": {},
  "defect": {
    "den": 1,
    "f64": 0.0,
    "num": 0
  },
  "doubling_grid": 65536,
  "doubling_sup": {
    "den": 32,
    "f64": 0.03125,
    "num": 1
  },
  "pieces": 16,
  "probes": 126,
  "stages": 4,
  "version": "0.1.0",
}
""",
}


@pytest.mark.parametrize("argv", sorted(FROZEN_ISOMORPHISM))
def test_isomorphism_report_bytes_frozen(invoke, argv):
    code, out, _ = invoke(["isomorphism"] + argv.split())
    assert code == 0
    assert re.sub(r'  "wall_time": [0-9.e-]+\n', "", out) == FROZEN_ISOMORPHISM[argv]


def test_isomorphism_doubling_report(invoke):
    code, out, _ = invoke(["isomorphism", "--stage", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["defect"]["num"] == 0
    assert report["doubling_sup"]["f64"] <= 2 ** -4


def test_induced_report(invoke):
    code, out, _ = invoke(["induced", "--count", "300"])
    assert code == 0
    report = json.loads(out)
    assert report["identity_holds"]
    assert 0.9 <= report["pacing"]["f64"] <= 1.1
    assert abs(report["mean_return"]["f64"] - 3) < 0.3


def test_induced_rotation_honours_process_params(invoke, tmp_path):
    # A quarter turn visits a 4-cycle, so [0,1/3) holds one or two of its points.
    cfg = tmp_path / "quarter.json"
    cfg.write_text(json.dumps({"process": {"params": {"alpha_fixed": str(1 << 126)}}}))
    code, out, _ = invoke(["induced", "--config", str(cfg), "--count", "101"])
    assert code == 0
    mean = json.loads(out)["mean_return"]
    assert (mean["num"], mean["den"]) in {(2, 1), (4, 1)}
    # From x0 = 1/2 the path is 3/4, 0, 1/4, 1/2, .., so tau_l = 4l - 2 in [0,1/8).
    params = {"alpha_fixed": str(1 << 126), "x0_fixed": str(1 << 127)}
    cfg.write_text(json.dumps({"process": {"kind": "rotation", "params": params}}))
    code, out, _ = invoke(["induced", "--config", str(cfg), "--region", "[0,1/8)",
                           "--member", "[0,1/16)", "--count", "101"])
    assert code == 0
    pacing = json.loads(out)["pacing"]
    assert (pacing["num"], pacing["den"]) == (199, 404)  # (1/8) * 398 / 101


def test_induced_m_out_of_range_exits_2(invoke):
    for m, message in [("0", "less than the minimum of 1"), ("-1", "less than the minimum of 1"),
                       ("301", "301 is greater than --count 300")]:
        code, out, err = invoke(["induced", "--count", "300", "--m", m])
        assert code == 2
        assert out == ""
        assert err.startswith("config error at --m: ")
        assert message in err


def test_graph_lift_report(invoke):
    code, out, _ = invoke(["graph-lift", "--m", "300", "--seed", "5", "--yseed", "6"])
    assert code == 0
    report = json.loads(out)
    assert report["triangle_ok"]
    assert 0.3 < report["identity_indicator_mean"]["f64"] < 0.7
    assert report["gamma"]["f64"] <= report["gamma1"]["f64"] + report["gamma2"]["f64"] + 1e-12


# -- config file handling ---------------------------------------------------------


def test_config_file_drives_converge(invoke, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "family": {"name": "dyadic", "order": 3},
        "m_grid": [10, 100],
        "seeds": [0, 1],
    }))
    code, out, _ = invoke(["converge", "--config", str(cfg)])
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_flags_override_config(invoke, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "family": {"name": "dyadic", "order": 3},
        "m_grid": [10, 100],
        "seeds": [0, 1],
    }))
    code, out, _ = invoke(["converge", "--config", str(cfg), "--seeds", "7"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("7,") for line in lines[1:])


def test_schema_violation_exits_2_with_pointer(invoke, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"family": {"name": "nope"}}))
    code, out, err = invoke(["converge", "--config", str(cfg)])
    assert code == 2
    assert "/family/name" in err


def test_descending_m_grid_exits_2(invoke, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"m_grid": [100, 10]}))
    code, _, err = invoke(["converge", "--config", str(cfg)])
    assert code == 2
    assert "/m_grid" in err


def test_seed_beyond_64_bits_exits_2(invoke, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"seeds": [1 << 64]}))
    code, _, err = invoke(["converge", "--config", str(cfg)])
    assert code == 2
    assert "/seeds/0" in err
    assert _validate_config({"process": {"kind": "iid-uniform", "seed": 1 << 64}}).startswith(
        "/process/seed"
    )


# An integer key holding each token, as config file text.
INTEGER_KEY_TEXTS = {
    "/precision": '{"precision": %s}',
    "/workers": '{"workers": %s}',
    "/process/seed": '{"process": {"seed": %s}}',
    "/m_grid/0": '{"m_grid": [%s]}',
}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "true"])
@pytest.mark.parametrize("pointer", sorted(INTEGER_KEY_TEXTS))
def test_non_integral_number_or_bool_in_an_integer_key_exits_2(invoke, tmp_path, pointer, token):
    # json reads NaN and the infinities as floats (1e400 overflows to inf):
    # each is a type error, never an int() crash.
    cfg = tmp_path / "bad.json"
    cfg.write_text(INTEGER_KEY_TEXTS[pointer] % token)
    code, out, err = invoke(["converge", "--config", str(cfg), "--family", "dyadic"])
    assert code == 2
    assert out == ""
    assert f"config error at {pointer}: " in err and "is not of type 'integer'" in err


_ODD = st.sampled_from(
    [True, False, None, math.nan, math.inf, -math.inf, json.loads("1e400"),
     1 << 64, (1 << 64) - 1, -1, 0, 10.0, 64.5, "x", [], {}, [1], {"a": 1}]
)


def _documents(schema):
    """Documents shaped like ``schema``, with an odd value at any node and
    unexpected keys that sort before, between and after the known ones."""
    if "properties" in schema:
        known = {k: _documents(v) for k, v in schema["properties"].items()}
        extra = {k: _ODD for k in ("a_extra", "m_extra", "zz_extra")}
        node = st.fixed_dictionaries({}, optional={**known, **extra})
    elif schema.get("type") == "array":
        node = st.lists(_documents(schema["items"]), max_size=3)
    elif "enum" in schema:
        node = st.sampled_from(schema["enum"])
    elif schema.get("type") == "integer":
        node = st.integers(-1, 1 << 65) | st.integers(-2, 70).map(float) | st.floats()
    elif schema.get("type") == "string":
        node = st.text(max_size=3)
    else:
        node = st.dictionaries(st.text(max_size=2), _ODD, max_size=2)
    return node | _ODD


@settings(max_examples=400, deadline=None)
@given(_documents(CONFIG_SCHEMA))
def test_schema_walk_reports_the_first_jsonschema_error(doc):
    """Pointer and message equal the first of jsonschema's errors sorted by path."""
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    expected = None
    if errors:
        expected = ("/" + "/".join(map(str, errors[0].absolute_path)), errors[0].message)
    try:
        cli._checked(copy.deepcopy(doc), CONFIG_SCHEMA)
        found = None
    except cli._Violation as e:
        found = (e.args[0] or "/", e.args[1])
    assert found == expected


@pytest.mark.parametrize(
    "flags, pointer",
    [
        (["--seeds", "5-3"], "/seeds"),
        (["--m-grid", "100,10"], "/m_grid"),
        (["--precision", "0"], "/precision"),
        (["--precision", "32"], "/precision"),
        (["--workers", "0"], "/workers"),
        (["--seed", "-1"], "/process/seed"),
        (["--budget", "-1"], "/family/budget"),
        (["--order", "0"], "/family/order"),
        (["--order", "17"], "/family/order"),
        (["--m-grid", "10,x"], "/m_grid/1"),
        (["--seeds", "a,1"], "/seeds/0"),
    ],
)
def test_converge_flags_follow_config_rules(invoke, flags, pointer):
    code, out, err = invoke(["converge", "--family", "dyadic"] + flags)
    assert code == 2
    assert out == ""
    assert f"config error at {pointer}" in err


@pytest.mark.parametrize(
    "flags", [["--probe-order", "0"], ["--probe-order", "26"], ["--stage", "0"], ["--stage", "22"]]
)
def test_isomorphism_orders_out_of_range_exit_2(invoke, flags):
    code, out, err = invoke(["isomorphism"] + flags)
    assert code == 2
    assert out == ""
    bound = "less than the minimum of 1" if flags[1] == "0" else "greater than the maximum of 20"
    assert err == f"config error at {flags[0]}: {flags[1]} is {bound}\n"


def test_run_pattern_order_beyond_grid_cap_exits_2(invoke, tmp_path):
    cfg = tmp_path / "run_pattern.json"
    cfg.write_text(json.dumps({"family": {"name": "run-pattern", "order": 5}}))
    for argv in (["vcdim", "--family", "run-pattern", "--order", "5"], ["vcdim", "--config", str(cfg)]):
        code, out, err = invoke(argv)
        assert code == 2
        assert out == ""
        assert "config error at /family/order" in err


def test_env_workers_follow_config_rules(invoke):
    code, out, err = invoke(["converge", "--family", "dyadic"], env={"ERGODIC_VC_WORKERS": "0"})
    assert code == 2
    assert out == ""
    assert "config error at /workers" in err


def test_config_output_key_writes_artifact(invoke, tmp_path):
    target = tmp_path / "trace.csv"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"output": str(target)}))
    code, out, _ = invoke(
        ["converge", "--config", str(cfg), "--family", "dyadic", "--m-grid", "10", "--seeds", "0"]
    )
    assert code == 0
    assert target.read_text().startswith(CSV_HEADER)
    assert json.loads(out)["config"]["output"] == str(target)


def test_family_section_without_name_uses_dyadic(invoke, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": {"order": 3}}))
    code, out, _ = invoke(["vcdim", "--config", str(cfg)])
    assert code == 0
    report = json.loads(out)
    assert report["family"] == "dyadic" and report["dim"] == 2


@pytest.mark.parametrize("command", ["vcdim", "shatter"])
def test_intervals_default_order_is_the_built_order(invoke, command):
    """The family and its probe grid read one default order: 3 for intervals."""
    reports = []
    for extra in ([], ["--order", "3"]):
        code, out, _ = invoke([command, "--family", "intervals", *extra])
        assert code == 0
        reports.append({k: v for k, v in json.loads(out).items() if k not in ("config", "wall_time")})
    assert reports[0] == reports[1]


def test_report_echoes_merged_config(invoke, monkeypatch):
    monkeypatch.delenv("ERGODIC_VC_WORKERS", raising=False)
    code, out, _ = invoke(["vcdim", "--family", "dyadic", "--order", "3"])
    assert code == 0
    assert json.loads(out)["config"] == {"family": {"name": "dyadic", "order": 3}}


def test_every_config_flag_dest_is_a_schema_path():
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    checked = set()
    for sub in subparsers.values():
        for action in sub._actions:
            head, _, leaf = action.dest.partition(".")
            if head not in CONFIG_SCHEMA["properties"]:
                continue
            node = CONFIG_SCHEMA["properties"][head]
            assert not leaf or leaf in node["properties"], action.dest
            checked.add(action.dest)
    assert {"process.seed", "family.budget", "m_grid", "seeds", "workers"} <= checked


def _schema_leaves(node, prefix=""):
    for key, sub in node["properties"].items():
        if "properties" in sub:
            yield from _schema_leaves(sub, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_every_config_key_is_read_by_the_cli():
    """Each schema leaf is read by a .get("key") or ["key"] in cli.py, so none lies dead."""
    read = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            key = node.args[0] if node.func.attr == "get" and node.args else None
        elif isinstance(node, ast.Subscript):
            key = node.slice
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            read.add(key.value)
    unread = [path for path in _schema_leaves(CONFIG_SCHEMA) if path.split(".")[-1] not in read]
    assert unread == []


def test_yseed_beyond_64_bits_exits_2(invoke):
    code, out, err = invoke(["graph-lift", "--m", "50", "--yseed", str((1 << 64) + 6)])
    assert code == 2
    assert out == ""
    assert err.startswith("config error at --yseed: ") and "greater than the maximum" in err


def test_unknown_top_level_key_exits_2(invoke, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mgrid": [10]}))
    code, _, err = invoke(["converge", "--config", str(cfg)])
    assert code == 2


def test_malformed_json_exits_2(invoke, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, err = invoke(["converge", "--config", str(cfg)])
    assert code == 2


def test_validate_config_accepts_full_document():
    doc = {
        "process": {"kind": "rotation", "seed": 3, "params": {}},
        "family": {"name": "intervals", "k": 2, "order": 3, "budget": 50},
        "m_grid": [10, 100, 1000],
        "seeds": [0, 1, 2],
        "precision": 128,
        "workers": 4,
    }
    assert _validate_config(doc) is None


@pytest.mark.parametrize(
    "doc, pointer, key",
    [
        ({"process": {"precision": 128}}, "/process", "precision"),
        ({"family": {"precision": 128}}, "/family", "precision"),
        ({"budget": 50}, "/", "budget"),
        ({"grid_order": 4}, "/", "grid_order"),
    ],
    ids=["process-precision", "family-precision", "top-level-budget", "grid-order"],
)
def test_second_keys_for_a_setting_exit_2(invoke, tmp_path, doc, pointer, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = invoke(["converge", "--config", str(cfg), "--m-grid", "10"])
    assert code == 2
    assert out == ""
    assert f"config error at {pointer}: " in err and f"'{key}' was unexpected" in err


# -- resource and runtime failures ---------------------------------------------------


def test_join_cap_exits_3(invoke):
    argv = ["join-witness"]
    for j in range(21):
        argv += ["--set", f"[{j}/64,{j + 1}/64)"]
    code, _, err = invoke(argv)
    assert code == 3
    assert "cap" in err


def test_runtime_value_error_exits_1(invoke, monkeypatch):
    def fails(sets):
        raise ValueError("stub failure")

    monkeypatch.setattr(cli, "join", fails)
    code, out, err = invoke(["join-witness", "--k", "2"])
    assert code == 1
    assert out == ""
    assert err == "error: stub failure\n"


def test_counterexample_window_is_checked_before_any_path(invoke, monkeypatch):
    def no_path(*args, **kwargs):
        raise AssertionError("a path was generated")

    monkeypatch.setattr(cli, "generate", no_path)
    code, out, err = invoke(["counterexample", "--window", "0", "--m", "1000"])
    assert code == 2
    assert out == ""
    assert err == "config error at --window: 0 is less than the minimum of 1\n"


def test_markov_without_params_exits_2(invoke):
    code, out, err = invoke(["converge", "--family", "dyadic", "--process", "markov",
                             "--m-grid", "10", "--seeds", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("config error at /process/params: ") and "matrix" in err


def test_invalid_markov_config_exits_2(invoke, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "generate", _no_path)
    cfg = tmp_path / "chain.json"
    overlapping = ["[0,3/4)", "[1/2,1)"]
    for matrix, message in [
        ([["1/2", "1/4"], ["1/4", "1/2"]], "rows must be nonnegative and sum to 1"),
        ([["1/2", "1/2"], ["1/2", "1/2"]], "cells must be disjoint"),
        ([["1", "0"], ["0", "1"]], "chain is reducible"),
    ]:
        params = {"matrix": matrix, "cells": overlapping if "disjoint" in message else ["[0,1/2)", "[1/2,1)"]}
        cfg.write_text(json.dumps({"process": {"kind": "markov", "params": params}}))
        code, out, err = invoke(["converge", "--config", str(cfg), "--m-grid", "10", "--seeds", "0"])
        assert code == 2
        assert out == ""
        assert err.startswith("config error at /process/params: ") and message in err


def _no_path(*args, **kwargs):
    raise AssertionError("a path was generated")


@pytest.mark.parametrize(
    "doc, pointer",
    [
        ({"process": {"kind": "rotation", "params": {"alpha_fixed": "x"}}}, "/process/params/alpha_fixed"),
        ({"process": {"kind": "rotation", "params": {"x0_fixed": "-5"}}}, "/process/params/x0_fixed"),
        ({"family": {"name": "trajectory", "alpha_fixed": "x"}}, "/family/alpha_fixed"),
        ({"family": {"name": "trajectory", "x0_fixed": "1/2"}}, "/family/x0_fixed"),
    ],
)
def test_non_digit_fixed_point_numerator_exits_2(invoke, tmp_path, monkeypatch, doc, pointer):
    monkeypatch.setattr(cli, "generate", _no_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = invoke(["converge", "--config", str(cfg), "--m-grid", "10"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error at {pointer}: ") and "does not match '^[0-9]+$'" in err


@pytest.mark.parametrize(
    "process, key",
    [
        ({"kind": "iid-uniform", "params": {"bogus": 1}}, "bogus"),
        ({"kind": "doubling", "params": {"x0_fixed": "1"}}, "x0_fixed"),
        ({"kind": "rotation", "params": {"alpha_fixed": "1", "cells": []}}, "cells"),
        ({"kind": "markov", "params": {"matrix": [["1"]], "cells": ["[0,1)"], "seed": 1}}, "seed"),
        ({"params": {"x0_fixed": "1"}}, "x0_fixed"),  # converge's default kind is iid-uniform
    ],
)
def test_process_params_a_kind_does_not_read_exit_2(invoke, tmp_path, monkeypatch, process, key):
    monkeypatch.setattr(cli, "generate", _no_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"process": process}))
    code, out, err = invoke(["converge", "--config", str(cfg), "--m-grid", "10"])
    assert code == 2
    assert out == ""
    assert err == f"config error at /process/params: Additional properties are not allowed ('{key}' was unexpected)\n"


def test_induced_reads_rotation_params_without_a_kind(invoke, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"process": {"params": {"bogus": "1"}}}))
    code, out, err = invoke(["induced", "--config", str(cfg), "--count", "10"])
    assert (code, out) == (2, "")
    assert "('bogus' was unexpected)" in err
    cfg.write_text(json.dumps({"process": {"params": {"x0_fixed": str(1 << 127)}}}))
    code, out, _ = invoke(["induced", "--config", str(cfg), "--count", "10"])
    assert code == 0
    assert json.loads(out)["config"]["process"]["params"] == {"x0_fixed": str(1 << 127)}


@pytest.mark.parametrize("alpha", ["0", str(1 << 128), str(3 << 128)])
@pytest.mark.parametrize("command", ["converge --m-grid 10", "induced --count 10"])
def test_rotation_by_a_whole_turn_exits_2(invoke, tmp_path, monkeypatch, alpha, command):
    """A rotation angle of 0 mod 2**precision gives a constant path: refused
    before any path, with or without a kind (induced's default is rotation)."""
    monkeypatch.setattr(cli, "generate", _no_path)
    cfg = tmp_path / "run.json"
    process = {"params": {"alpha_fixed": alpha}}
    if command.startswith("converge"):
        process["kind"] = "rotation"
    cfg.write_text(json.dumps({"process": process}))
    code, out, err = invoke([*command.split(), "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith("config error at /process/params/alpha_fixed: ") and "0 mod 2**128" in err


@pytest.mark.parametrize("alpha", ["0", str(1 << 128)])
@pytest.mark.parametrize("command", ["converge --m-grid 10", "shatter", "vcdim"])
def test_trajectory_family_by_a_whole_turn_exits_2(invoke, tmp_path, alpha, command):
    """Every member of an orbit family by a whole turn is the one atom {x0}: refused."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": {"name": "trajectory", "alpha_fixed": alpha}}))
    code, out, err = invoke([*command.split(), "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith("config error at /family/alpha_fixed: ") and "0 mod 2**128" in err


def test_rotation_whole_turn_follows_the_run_precision(invoke, tmp_path):
    """2**128 is a whole turn at precision 128 but a half turn at 129."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"process": {"kind": "rotation", "params": {"alpha_fixed": str(1 << 128)}}, "precision": 129}))
    code, out, _ = invoke(["converge", "--config", str(cfg), "--m-grid", "10"])
    assert code == 0 and out.startswith(CSV_HEADER)


# Each bad argument, with the flag or JSON pointer its message names.
BAD_ARGUMENTS = {
    "counterexample --window 0": "--window",
    "counterexample --m 0": "--m",
    "vcdim --max-k 0": "--max-k",
    "graph-lift --yseed -1": "--yseed",
    "graph-lift --m 0": "--m",
    "induced --count 0": "--count",
    "induced --m 0": "--m",
    "induced --count 300 --m 500": "--m",
    "induced --region [0,1/2": "--region",
    "induced --region [0,0)": "--region",
    "induced --member [1/2,1/4)": "--member",
    "join-witness --k 0": "--k",
    "join-witness --k 5": "--k",
    "join-witness --set [0,1/2) --set x": "--set/1",
    "isomorphism --stage 21": "--stage",
    "isomorphism --set [0,2)": "--set/0",
    "shatter --family bogus": "/family/name",
    "shatter --order x": "/family/order",
    "shatter --points 1/0": "--points",
    "shatter --points 1/2,x": "--points",
    "shatter --points 1/2,1/2": "--points",
}


@pytest.mark.parametrize("argv", sorted(BAD_ARGUMENTS))
def test_bad_argument_exits_2_before_any_work(invoke, monkeypatch, argv):
    for name in ("generate", "join", "doubling_map", "build_map", "_family"):
        monkeypatch.setattr(cli, name, _no_path)
    code, out, err = invoke(argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error at {BAD_ARGUMENTS[argv]}: ")


def test_every_flag_is_one_table_row_with_a_schema():
    """Each subparser's options are exactly its rows, and a row that is not a
    config path carries its own fragment, so no flag skips the walk."""
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    assert subparsers.keys() == cli._SUBCOMMANDS.keys()
    for name, sub in subparsers.items():
        rows = (*cli._COMMON, *cli._SUBCOMMANDS[name][2])
        options = [(a.option_strings, a.dest, a.default) for a in sub._actions if a.dest != "help"]
        assert options == [([flag], dest, default) for flag, dest, _, default in rows]
        for flag, dest, fragment, _ in rows:
            config_path = dest.split(".")[0] in CONFIG_SCHEMA["properties"]
            assert (fragment is None) == config_path, flag


# -- worker environment variable ------------------------------------------------------


def test_env_worker_count_used(invoke, monkeypatch):
    monkeypatch.setenv("ERGODIC_VC_WORKERS", "2")
    code, out, _ = invoke(
        ["converge", "--family", "dyadic", "--m-grid", "10", "--seeds", "0-3"]
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_flag_beats_env_workers(invoke, monkeypatch):
    monkeypatch.setenv("ERGODIC_VC_WORKERS", "definitely-not-a-number")
    code, _, err = invoke(
        ["converge", "--family", "dyadic", "--m-grid", "10",
         "--seeds", "0", "--workers", "1"]
    )
    assert code == 0


# -- README examples --------------------------------------------------------------------


# suite is left out: the acceptance gate already runs it.
@pytest.mark.parametrize("example", [e for e in README_EXAMPLES if not e.startswith("suite")])
def test_readme_cli_example_runs(invoke, tmp_path, monkeypatch, example):
    monkeypatch.delenv("ERGODIC_VC_WORKERS", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(re.search(r"```json\n(.*?)```", README, re.S).group(1))
    code, _, err = invoke(shlex.split(example))
    assert code == 0, err


def test_readme_examples_are_found():
    assert len(README_EXAMPLES) >= 9
    assert "converge --config run.json --workers 4" in README_EXAMPLES


# -- console entry point ---------------------------------------------------------------


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ergodic_vc.cli", "vcdim", "--family", "dyadic"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 2
