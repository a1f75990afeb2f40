"""Tests of the benchmark itself: input determinism, the oracle, tracing and
the BENCHMARK.json contract.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import gen
import oracle
import run
import tracing

HERE = Path(__file__).resolve().parent


def _inputs(workload: str, seed: int, count: int) -> bytes:
    ops = itertools.islice(gen.stream(workload, seed), count)
    return json.dumps(list(ops), sort_keys=True).encode()


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    count = 3 * gen.round_size(workload)
    assert _inputs(workload, 7, count) == _inputs(workload, 7, count)
    assert _inputs(workload, 7, count) != _inputs(workload, 8, count)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generated_planar_bounded_bodies_are_maximal(workload):
    for op in itertools.islice(gen.stream(workload, 3), 4 * gen.round_size(workload)):
        body = oracle.parse_body(op["body"])
        if body.n != 2 or body.s_rows or op["family"] == "split":
            continue
        rows = [(a, 1 + oracle.dot(a, body.f)) for a in body.facets]
        assert gen.check_maximal_2d(rows) is not None, op["family"]


def test_oracle_golden_split_pi_star():
    split = oracle.parse_body({"f": ["1/2", "0"], "facets": [["2", "0"], ["-2", "0"]]})
    assert oracle.grid_sup(split, (Q(1, 4), Q(0)), 4) == Q(1, 2)


def test_oracle_golden_triangle_generic_covered_fraction():
    # catalog triangle_generic: kappa = tau = nu = 1/2, f = (1/4, 1/4)
    body = oracle.parse_body(
        {"f": ["1/4", "1/4"], "facets": [["8/5", "4/5"], ["-4/7", "8/7"], ["-4/3", "-8/3"]]}
    )
    assert oracle.covered_fraction(body) == Q(41, 56)


def _cli_report(op: dict, tmp_path: Path) -> tuple[object, str]:
    cli = run.import_liftgeo()
    _, code, text, _ = run.call_cli(cli, run.write_inputs(op, tmp_path))
    return code, text


@pytest.mark.parametrize("workload", ["cut_zn", "cut_general_s"])
def test_lowered_coefficient_is_caught(workload, tmp_path):
    op = next(gen.stream(workload, 1))
    code, text = _cli_report(op, tmp_path)
    problems, _ = oracle.check_cut(op["body"], op["tableau"], text, code)
    assert problems == []
    report = json.loads(text)
    for i, col in enumerate(report["columns"]):
        if col["kind"] != "integer":
            continue
        bad = json.loads(text)
        bad["columns"][i]["coefficient"] = str(Q(col["coefficient"]) - Q(1, 1000))
        problems, _ = oracle.check_cut(op["body"], op["tableau"], json.dumps(bad), code)
        assert any("below grid supremum" in p for p in problems), col


def test_cover_checks_catch_a_covered_witness_and_a_wrong_fraction(tmp_path):
    op = next(op for op in gen.stream("cover_2d", 1) if op["family"] == "triangle_integer_vertices")
    code, text = _cli_report(op, tmp_path)
    assert oracle.check_cover(op["body"], text, code) == []
    report = json.loads(text)
    body = oracle.parse_body(op["body"])
    x = oracle.lattice_points(body)[0]
    inside = [str(Q(c) - fc) for c, fc in zip(x, body.f)]  # x - f lies in R(x)
    forged = dict(report, verdict="not_unique", covered_fraction="1/2", uncovered_witness=inside,
                  violation={"p": inside, "xbar": inside, "lhs": "1/2"})
    problems = oracle.check_cover(op["body"], json.dumps(forged), 1)
    assert any("covered fraction 1/2, oracle 1" in p for p in problems)
    assert any("witness" in p and "is covered" in p for p in problems)


def test_regions_check_catches_a_shifted_piece(tmp_path):
    op = next(gen.stream("regions_3d", 1))
    code, text = _cli_report(op, tmp_path)
    rng_seed = "rays:test"
    assert oracle.check_regions(op["body"], text, code, random.Random(rng_seed)) == []
    report = json.loads(text)
    for piece in report["pieces"]:
        piece["rows"] = [[n, str(Q(b) + 1)] for n, b in piece["rows"]]
    problems = oracle.check_regions(op["body"], json.dumps(report), code, random.Random(rng_seed))
    assert problems


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    cli = run.import_liftgeo()
    import liftgeo.bodies
    import liftgeo.geom
    import liftgeo.lattice

    orig = liftgeo.geom.linear_max
    op = next(gen.stream("cut_zn", 2))
    argv = run.write_inputs(op, tmp_path)
    _, code, plain, _ = run.call_cli(cli, argv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert liftgeo.bodies.linear_max is not orig
        assert liftgeo.geom.linear_max is not orig
        _, traced_code, traced, _ = run.call_cli(cli, argv)
    finally:
        tracer.uninstall()
    assert liftgeo.bodies.linear_max is orig and liftgeo.geom.linear_max is orig
    assert (traced_code, traced) == (code, plain)
    m = tracer.metrics(1.0, 1.0, 1)
    assert tracer.missing == []
    assert m["cli.main.calls"] == 1
    assert m["geom.linear_max.calls"] > 0  # reached only through bodies' binding
    assert m["lattice.enumerate_lattice_points.points"] > 0
    assert 0 < sum(m[f"{mod}.self_s"] for mod in tracing.MODULES)
    assert set(m) == {s["name"] for s in tracing.metric_specs()}


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m["name"], m["unit"], m["better"]) for m in tracing.metric_specs()
    ]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_contract_line(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cut_general_s", "--seed", "5",
         "--seconds", "0.2", "--trace", trace],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
