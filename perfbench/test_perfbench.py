"""The benchmark's own test.

    python3 -m pytest perfbench

Each workload runs at the tiny size, end to end and traced, and must emit
every metric BENCHMARK.json names, with its unit.  A command that exits
nonzero must show up as a failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A checkout root of its own, so the test's scratch files stay out of the repo."""
    root = tmp_path_factory.mktemp("checkout")
    (root / "src").symlink_to(ROOT / "src")
    return root


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(checkout, workload, trace, kind):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=checkout, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, proc.stdout


def test_failing_command_counts_as_failed(tmp_path, monkeypatch, capsys):
    # edge exits 2 on a spectrum that is supercritical under the given margin
    supercritical = workloads.Workload(
        "supercritical",
        lambda work, seed, size: [["edge", "--spectrum", "twopoint:a=1,b=2,w=0.5,M=50,N=50",
                                   "--margin-threshold", "0.9", "--out", "edge"]],
        lambda work, seed, size: [])
    monkeypatch.setitem(run.WORKLOADS, "supercritical", supercritical)
    monkeypatch.setattr(run, "SRC", ROOT / "src")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    assert run.main(["--workload", "supercritical", "--seed", "0", "--seconds", "1"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_missing_sources_exit_nonzero(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                           "mc_tw", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
