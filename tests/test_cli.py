"""Command line harness: exit codes, schemas, overrides, artifact formats."""

import json
import os
import subprocess
import sys

import pytest

from ergodic_vc.cli import CONFIG_SCHEMA, _validate_config, main

CSV_HEADER = "seed,m,gamma_num,gamma_den,gamma_f64,argmax_member"


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
        "process": {"kind": "rotation", "seed": 3, "precision": 128, "params": {}},
        "family": {"name": "intervals", "k": 2, "order": 3},
        "m_grid": [10, 100, 1000],
        "seeds": [0, 1, 2],
        "precision": 128,
        "budget": 50,
        "workers": 4,
    }
    assert _validate_config(doc) is None


# -- resource and runtime failures ---------------------------------------------------


def test_join_cap_exits_3(invoke):
    argv = ["join-witness"]
    for j in range(21):
        argv += ["--set", f"[{j}/64,{j + 1}/64)"]
    code, _, err = invoke(argv)
    assert code == 3
    assert "cap" in err


def test_runtime_value_error_exits_1(invoke):
    code, _, err = invoke(["join-witness", "--k", "9"])
    assert code == 1
    assert err


def test_markov_without_params_exits_1(invoke):
    code, _, err = invoke(["converge", "--family", "dyadic", "--process", "markov",
                           "--m-grid", "10", "--seeds", "0"])
    assert code == 1
    assert "matrix" in err


def test_invalid_markov_config_exits_1(invoke, tmp_path):
    cfg = tmp_path / "chain.json"
    params = {"matrix": [["1/2", "1/4"], ["1/4", "1/2"]], "cells": ["[0,3/4)", "[1/2,1)"]}
    cfg.write_text(json.dumps({"process": {"kind": "markov", "params": params}}))
    code, out, err = invoke(["converge", "--config", str(cfg), "--m-grid", "10", "--seeds", "0"])
    assert code == 1
    assert "rows must be nonnegative and sum to 1" in err
    assert out == ""


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


# -- console entry point ---------------------------------------------------------------


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ergodic_vc.cli", "vcdim", "--family", "dyadic"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 2
