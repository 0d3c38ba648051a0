"""Tests of the benchmark itself: inputs, oracles, the gate and the trace.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import oracle
import run
import workloads

BENCH = Path(__file__).resolve().parent


@pytest.fixture
def workdir(request):
    path = BENCH / "_work" / ("test-%d-%s" % (os.getpid(), request.node.name))
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_inputs_repeat_byte_for_byte_for_a_seed(workdir):
    changed = 0
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 7, workdir / (name + "-a"))
        again = workloads.build(name, 7, workdir / (name + "-b"))
        other = workloads.build(name, 8, workdir / (name + "-c"))
        assert _files(workdir / (name + "-a")) == _files(workdir / (name + "-b"))
        assert [c.name for c in first] == [c.name for c in again]
        changed += _files(workdir / (name + "-a")) != _files(workdir / (name + "-c"))
        assert len(other) == len(first)
    assert changed == len(workloads.WORKLOADS)


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("name", workloads.BASIS_GROUPS)
def test_conjugator_is_integer_symplectic_and_dense(name):
    doc = workloads.spec(name)
    omega = workloads.omega_matrix(doc)
    n = len(omega)
    for seed in range(4):
        p = workloads.symplectic_conjugator(name, doc, random.Random(seed))
        p_inv = workloads.checked_inverse(p, omega)
        assert _mul(p, p_inv) == [[int(i == j) for j in range(n)] for i in range(n)]
        assert _mul(_mul([list(c) for c in zip(*p)], omega), p) == omega
        assert sum(1 for row in p for x in row if x) > n


def test_a_matrix_that_is_not_symplectic_is_refused():
    doc = workloads.spec("weyl_a3_doubled")
    p = [[int(i == j) for j in range(6)] for i in range(6)]
    p[0][1] = 1
    with pytest.raises(ValueError, match="not symplectic"):
        workloads.conjugated(doc, p)


# A product of four +-1 transvections under which two codim-4 orbits of
# doubled A3 trade places in the report.
ORBIT_ORDER_FLIP = [
    [2, 0, 0, 1, 2, 0],
    [2, 1, 0, 2, 4, 0],
    [-2, -1, 1, -2, -4, -1],
    [-1, 0, 0, 0, -2, 0],
    [2, 1, 0, 2, 5, 1],
    [0, 0, 0, 0, 0, 1],
]


def test_orbit_order_depends_on_the_basis_and_the_check_allows_it(workdir):
    name = "weyl_a3_doubled"
    reference = workloads.references()["strata"][name]
    doc = workloads.conjugated(workloads.spec(name), ORBIT_ORDER_FLIP)
    path = workloads._write(workdir, name + ".json", doc)
    case = workloads._analyze_case(name, path, True, workloads._basis_check(name, reference))
    failures = []
    [result] = run.run_cases([case], workdir, failures)
    assert failures == []
    assert result.stdout != reference


def test_oracle_table_agrees_with_the_catalog():
    layers.import_sympref(run.SRC)
    from sympref.catalog import CATALOG

    assert len(CATALOG) == len(workloads.specs()["catalog"])
    for entry in CATALOG:
        want = oracle.expected(entry.name)
        assert (want["order"], want["verdict"]) == (entry.expected_order, entry.expected_verdict)


def test_closed_forms():
    assert [oracle.bell(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]
    assert [oracle.partitions(n) for n in range(6)] == [1, 1, 2, 3, 5, 7]
    assert oracle.expected("imprimitive_4_1_3") == {
        "order": 384, "reflections": 21, "verdict": oracle.HOLDS,
    }
    assert oracle.expected("weyl_f4_doubled")["reflections"] == 24


def _small_case(workdir, reference=None):
    name = "sl2_cyclic_3"
    path = workloads._write(workdir, name + ".json", workloads.spec(name))
    if reference is None:
        reference = workloads.references()["analyze"][name]
    return workloads._analyze_case(name, path, False, workloads._report_check(name, reference))


def test_gate_counts_a_corrupted_reference_as_failed(workdir):
    good = _small_case(workdir)
    reference = workloads.references()["analyze"]["sl2_cyclic_3"]
    corrupted = _small_case(workdir, reference.replace("null", "nul1", 1))
    failures = []
    run.run_cases([good, corrupted], workdir, failures)
    assert len(failures) == 1 and "reference" in failures[0]


def test_gate_counts_a_wrong_exit_code_as_failed(workdir):
    case = _small_case(workdir)
    wrong = dataclasses.replace(case, exit_code=3)
    pkg = layers.import_sympref(run.SRC)
    failures = []
    layers.run_pass(pkg, [case, wrong], failures)
    assert len(failures) == 1 and "exit code 0, expected 3" in failures[0]


def test_traced_counts_repeat_exactly(workdir):
    cases = workloads.build("batch_small", 3, workdir)
    picked = [c for c in cases if ":" not in c.name][:2]
    picked += [c for c in cases if ":" in c.name][::2]
    pkg = layers.import_sympref(run.SRC)
    runs = []
    for k in range(2):
        metrics, attempted, failures = layers.traced_run(pkg, picked, workdir / ("spans%d" % k))
        assert failures == [] and attempted == 3 * len(picked)
        runs.append({n: v for n, (v, unit) in metrics.items() if unit in ("count", "ratio")
                     and n != "trace.overhead_ratio"})
    assert runs[0] == runs[1]
    assert runs[0]["cyclotomic.mul_calls"] > 0 and runs[0]["stratification.strata"] > 0


def test_refuses_to_run_without_the_program(workdir):
    shutil.copytree(BENCH, workdir / "perfbench", ignore=shutil.ignore_patterns("_work", "_out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_small", "--seed", "1"],
        cwd=workdir, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_metric_names_are_those_of_benchmark_json(workdir):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    cases = [_small_case(workdir)]
    metrics, raw, _, attempted, failures = run.end_to_end(cases, 0.1, workdir)
    assert failures == [] and attempted == 1
    assert list(metrics) == [m["name"] for m in declared["end_to_end"]]
    assert all(unit == m["unit"] for (_, unit), m in zip(metrics.values(), declared["end_to_end"]))
    assert list(raw) == ["wall_s", "case_p50_s"] and all(v > 0 for v, _ in metrics.values())
    metrics, _, _, attempted, failures = run.traced(cases, workdir / "spans.jsonl", workdir)
    assert failures == [] and attempted == 4
    assert {n: u for n, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in declared["per_layer"]
    }
