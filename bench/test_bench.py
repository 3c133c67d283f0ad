"""Tests of the benchmark itself: its checks, its reference kernel, its
tracer and a tiny corpus of each workload.  They take a few seconds."""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fields
import refkernel
import run
from layertrace import LayerTracer

BENCH_DIR = Path(__file__).resolve().parent

# `polyabiquad biquad -1 2 --json --verify`, checked by hand: Q(i, sqrt 2)
# has class number one, so every Polya order is 1.
QI_SQRT2 = {
    "d1": -2, "d2": -1, "d3": 2, "delta1": -8, "delta2": -4, "delta3": 8,
    "s1": 1, "s2": 1, "s3": 1, "s_k": 1, "i2": 1, "e2": 4, "j2": 0, "q_k": 2,
    "mu_order": 8, "lambda1": 0, "lambda2": 0, "lambda3": -1, "nu_k": 0,
    "po1": 1, "po2": 1, "po3": 1, "ker": 1, "coker": 1, "po_k": 1,
    "h3_h0": 2, "h2_h1": 1, "h1_h0": 2, "h3_h2": 1, "verify_status": "ok",
}


def test_corpora_have_the_documented_sizes():
    assert len(fields.scan_corpus(20)) == 236
    assert len(fields.scan_corpus(30)) == 534
    assert [fields.expected_facts(fields.triple_of(a, b))["s_k"]
            for a, b in fields.MANYPRIME_PAIRS] == [6, 6, 6, 6, 5]


def test_checks_accept_a_correct_row():
    assert fields.check_row((-2, -1, 2), QI_SQRT2, "ok") == []


@pytest.mark.parametrize("change", [
    {"po_k": 3},                   # not a power of two
    {"ker": 6},                    # not a power of two
    {"s_k": 2, "h3_h0": 4},        # wrong s_K, chain kept consistent with it
    {"verify_status": "mismatch"},
    {"mu_order": 4},
    {"po_k": 2, "ker": 2},         # trivial Polya group expected
])
def test_checks_reject_a_corrupted_row(change):
    assert fields.check_row((-2, -1, 2), {**QI_SQRT2, **change}, "ok")


def test_checks_reject_a_missing_field():
    row = dict(QI_SQRT2)
    del row["ker"]
    assert fields.check_row((-2, -1, 2), row, "ok")


def test_checks_reject_a_row_for_another_field():
    assert fields.check_row((-3, -1, 3), QI_SQRT2, "ok")


def test_reference_kernel_imports_only_the_standard_library():
    tree = ast.parse((BENCH_DIR / "refkernel.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in the reference kernel"
            names.add(node.module.split(".")[0])
    assert names and names <= set(sys.stdlib_module_names)
    assert refkernel.time_kernel() > 0


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _ in run.PER_LAYER]


def _tiny(monkeypatch, tmp_path, count):
    """Shrink every workload to its `count` smallest fields."""
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    for name, (build, _, verify, spot, _) in list(run.WORKLOADS.items()):
        corpus = sorted(build(), key=lambda f: abs(f[0][0] * f[0][1] * f[0][2]))[:count]
        monkeypatch.setitem(run.WORKLOADS, name,
                            (lambda c=corpus: c, len(corpus), verify, min(spot, 1), 1))


def test_a_tiny_corpus_of_each_workload_completes(monkeypatch, tmp_path):
    _tiny(monkeypatch, tmp_path, 1)
    for name in run.WORKLOADS:
        res = run.run(name, seed=3, seconds=0, trace=False)
        assert res["correct"] and res["attempted"] == 1 and res["failed"] == 0, name
        assert all(m["value"] > 0 for m in res["metrics"].values()), name


def test_traced_counts_repeat_and_the_tracer_uninstalls(monkeypatch, tmp_path):
    _tiny(monkeypatch, tmp_path, 3)
    from polyabiquad import lattice, units
    original = units.integral_square_root
    a = run.run("b20_verify", seed=1, seconds=0, trace=True)
    b = run.run("b20_verify", seed=2, seconds=0, trace=True)
    assert a["correct"] and a["attempted"] == 6 and a["failed"] == 0
    assert set(a["metrics"]) == {m for m, _ in run.PER_LAYER}
    counts = {m for m, u in run.PER_LAYER if u in ("count", "ratio")} - {"trace.overhead_ratio"}
    assert {m: a["metrics"][m] for m in counts} == {m: b["metrics"][m] for m in counts}
    assert a["metrics"]["biquadratic.biquadratic_field.calls"]["value"] == 3
    assert units.integral_square_root is original
    assert lattice.integral_square_root is original


def test_tracer_sees_calls_between_modules():
    cli = run.load_cli()
    tracer = LayerTracer()
    tracer.install()
    try:
        rc, _, _ = run.ask(cli, (-1, 2), True)
        layers = tracer.take()
    finally:
        tracer.uninstall()
    assert rc == 0
    assert layers["cli.main"][0] == 1
    assert layers["units.integral_square_root"][0] > 0
    assert layers["lattice.principal_ideal_generator"][0] > 0
    assert layers["errors.Budget"] > 0
    calls, _, self_s, total_s = layers["cli.main"]
    assert 0 <= self_s <= total_s


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "b20_verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
