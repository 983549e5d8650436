"""Tests of the benchmark itself: its output checks catch tampered proof
objects, a seed repeats exactly, BENCHMARK.json matches the harness, and a
tree without the program's sources fails without printing a result.

Run from the repository root with `python -m pytest perfbench/tests -q`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import harness
import workloads
from conftest import BENCH, ROOT

from cstarlab.cli import main


def _run(op):
    rc, stdout, _, _ = harness.call(main, op)
    return rc, stdout


def _first(blocks, predicate):
    for op in (op for block in blocks for op in block):
        if predicate(op):
            return op
    raise AssertionError("the generated block has no such op")


def test_tampered_witness_is_caught(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = workloads.generate("short-ops", 3, "work", blocks=1)
    op = _first(blocks, lambda o: o.command == "hull witness" and o.expect == "member")
    rc, stdout = _run(op)
    assert checks.check_op(op, rc, stdout).ok

    with open(op.out) as fh:
        witness = json.load(fh)
    witness["blocks"][0]["entries"][0][0][0] += 1e-4
    with open(op.out, "w") as fh:
        json.dump(witness, fh)
    outcome = checks.check_op(op, rc, stdout)
    assert not outcome.ok
    assert "misses" in outcome.detail


def test_tampered_counterexample_is_caught(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = workloads.generate("short-ops", 3, "work", blocks=1)
    op = _first(blocks, lambda o: o.command == "jensen-tuple")
    rc, stdout = _run(op)
    assert checks.check_op(op, rc, stdout).ok

    with open(op.out) as fh:
        report = json.load(fh)
    (result,) = report["body"]["results"]
    result["counterexample"]["violation"] *= 10.0
    with open(op.out, "w") as fh:
        json.dump(report, fh)
    outcome = checks.check_op(op, rc, stdout)
    assert not outcome.ok
    assert "failed recheck" in outcome.detail


def test_wrong_hull_verdict_is_caught(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = workloads.generate("short-ops", 3, "work", blocks=1)
    op = _first(blocks, lambda o: o.command == "hull member" and o.expect == "non-member")
    rc, stdout = _run(op)
    assert checks.check_op(op, rc, stdout).ok
    assert not checks.check_op(op, 0, stdout).ok


def _pass_facts(workload, seed):
    blocks = workloads.generate(workload, seed, "work", blocks=1)
    inputs = []
    for op in (op for block in blocks for op in block):
        files = sorted(p for p in op.argv if p.startswith("work") and p not in (op.out, op.report))
        contents = []
        for path in files:
            with open(path, "rb") as fh:
                contents.append(fh.read())
        inputs.append((op.argv, op.expect, contents))
    result, tracer = harness.measure(blocks, 0.0, traced=True)
    assert not result.failures, result.failures
    outcomes = [result.outcomes[i] for i in range(result.pass_len)]
    return {
        "inputs": inputs,
        "digests": [o.digest for o in outcomes],
        "bytes": [o.out_bytes for o in outcomes],
        "samples_run": [o.samples_run for o in outcomes],
        "resamples": [o.resamples for o in outcomes],
        "counts": harness.per_op_counts(tracer, result),
        "combined": harness.combined_digest(result),
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_repeats_exactly(tmp_path, monkeypatch, workload):
    monkeypatch.chdir(tmp_path)
    first = _pass_facts(workload, 5)
    shutil.rmtree("work")
    second = _pass_facts(workload, 5)
    assert first == second
    assert any(sum(c.values()) for c in first["counts"])


def test_other_seed_gives_other_inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    a = workloads.generate("suites-clean", 1, "a", blocks=1)
    b = workloads.generate("suites-clean", 2, "a", blocks=1)
    argv = lambda blocks: [op.argv for block in blocks for op in block]
    assert argv(a) != argv(b)
    assert sorted(op.command for op in a[0]) == sorted(op.command for op in b[0])


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in harness.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in harness.per_layer_specs()
    ]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short-ops", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
