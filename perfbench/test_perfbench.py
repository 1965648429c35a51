"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def test_spec_generator_is_deterministic_in_its_seed():
    from frogz.sequences import SequenceSpec

    assert workloads.generate_specs(7) == workloads.generate_specs(7)
    assert workloads.generate_specs(7) != workloads.generate_specs(8)
    for spec in workloads.generate_specs(7).values():
        SequenceSpec.from_dict(spec)  # raises on an invalid spec


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, False),
        Span(1, "a", 1.0, 4.0, 0, False),
        Span(2, "b", 3.0, 6.0, 0, False),     # overlaps a: [1, 6] is covered once
        Span(3, "c", 8.0, 12.0, 0, True),     # clipped to the parent's end
        Span(4, "a.child", 2.0, 3.0, 1, False),
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({0: 10 - 5 - 2, 1: 3 - 1, 2: 3.0, 3: 4.0, 4: 1.0})


def _run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    printed = {ln.split()[0]: ln.split()[1:] for ln in lines[:-1]}
    for m in declared:
        value, unit = printed[m["name"]][:2]
        assert unit == m["unit"] and result["metrics"][m["name"]]["unit"] == m["unit"]
        assert float(value) == result["metrics"][m["name"]]["value"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["mc.passes_per_op"] == {
            "mc_extinct": 1.0, "mc_survive": 2.0}.get(workload, 0.0)
        if workload != "classify_sweep":
            assert metrics["sequences.L0_L1.calls"] == 0
    else:
        for name in ("fail_ratio", "op_tail_s", workloads.WORKLOADS[workload][1]):
            assert name in printed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("mc_extinct", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
