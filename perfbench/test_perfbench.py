"""Tiny runs of every workload, checked against BENCHMARK.json.

Each run uses ``--tiny`` inputs and a fraction of a second of measuring,
so the whole file takes seconds.
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
LAYERS = {"cli", "spectra", "groups", "twisted", "exactlin"}


def tiny_run(workload, trace, script=HERE / "run.py", cwd=ROOT):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "0.1",
            "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result, json.loads(lines[-2]), lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(workload):
    result, info, lines = last_json(tiny_run(workload, 0))
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {tuple(line.split()[::2]) for line in lines if len(line.split()) == 3}
    assert all((name, unit) in printed for name, unit in expected.items())
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # every failure must be one of the defects recorded in README.md
    assert info["failures"] == []
    assert set(info["known_defects"]) <= {"target-identity-tail", "hn-canonicalization-exhausted"}
    assert result["failed"] == sum(info["known_defects"].values())
    assert result["correct"]


def test_traced_runs_report_every_per_layer_metric_for_all_five_layers():
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    exercised = set()
    for workload in WORKLOADS:
        result, _, _ = last_json(tiny_run(workload, 1))
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        exercised |= {name.split(".")[0] for name, m in result["metrics"].items() if m["value"]}
    assert LAYERS <= exercised


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = tiny_run(WORKLOADS[0], 0, script=tmp_path / "perfbench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_known_defects_match_only_their_exact_inputs_and_answers():
    import workloads as W

    hn_input = (4, ((-2, 3), (-1, 2)), (-2, -1))
    req = W.Request("hn", "hn-matrix", hn_input)
    assert W.SpectraSweep.known_defect(req, None, ValueError(W.HN_EXHAUSTED_MESSAGE)) == W.HN_DEFECT
    assert W.SpectraSweep.known_defect(req, None, ValueError("some other error")) is None
    other = W.Request("hn", "hn-matrix", (4, ((-2, 3), (-1, 2)), (0, 0)))
    assert W.SpectraSweep.known_defect(other, None, ValueError(W.HN_EXHAUSTED_MESSAGE)) is None

    class Count:
        def __init__(self, value):
            self.value = value

        def to_json(self):
            return self.value

    target = W.Request("free-abelian", "target", (("free-abelian", 3), 5))
    assert W.RnumberWitness.known_defect(target, (None, None, Count("infinity"), None), None) == W.TARGET_DEFECT
    assert W.RnumberWitness.known_defect(target, (None, None, Count(7), None), None) is None
    rank2 = W.Request("free-abelian", "target", (("free-abelian", 2), 5))
    assert W.RnumberWitness.known_defect(rank2, (None, None, Count("infinity"), None), None) is None
