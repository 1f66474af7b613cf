"""Tests of the benchmark itself: tiny-size runs, the oracles, and the contract.

    python -m pytest -q bench/tests

Every run here uses ``--size tiny`` and a fraction of a second of
measurement, so the whole module takes well under a minute.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("numpy.svd.calls", "numpy.eigvalsh.calls", "linalg.svd_per_eigensolve",
          "homotopy.eigensolves_per_sample", "localizer.eig_dim_per_answer")


def bench(workload, seed, trace, root=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench(workload, 3, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in table} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_traced_counts_repeat_across_seeds():
    counts = []
    for seed in (4, 5):
        proc = bench("circle_winding", seed, 1)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({name: metrics[name]["value"] for name in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["numpy.svd.calls"] > 0


def _wrong(answer):
    if answer.label == "certify":  # a different starting element
        return workloads.sl.OperatorElement(-answer.expected.matrix, 1, answer.expected.dim)
    return answer.expected + 1  # m + 1, index + 1, or the zero sample moved


@pytest.mark.parametrize("workload", ["circle_winding", "region_index", "path_certify"])
def test_wrong_expected_answer_is_reported(workload, tmp_path):
    answers = workloads.WORKLOADS[workload](7, "tiny", tmp_path).round(0)
    right, wrong = run.Tally(), run.Tally()
    for answer in answers:
        right.answer(answer)
        wrong.answer(dataclasses.replace(answer, expected=_wrong(answer)))
    assert right.failures == []
    assert len(wrong.failures) == len(answers)


def test_wrong_cli_exit_code_is_reported(tmp_path):
    gap_check = workloads.WORKLOADS["cli_reports"](7, "tiny", tmp_path).warmup
    tally = run.Tally()
    tally.answer(gap_check)
    tally.answer(dataclasses.replace(gap_check, expected=not gap_check.expected))
    assert len(tally.failures) == 1 and "exit 0, expected 2" in tally.failures[0]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("circle_winding", 1, 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
