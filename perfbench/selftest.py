"""Tests of the benchmark itself (not of spanrep).

Run from the repository root:

    python3 -m pytest perfbench/selftest.py

The file is not named test_*.py so the library's own pytest run does not
collect it: test_every_layer_metric_is_measured runs a traced pass of
every workload and takes a few minutes.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spanrep.cli import main as spanrep_main  # noqa: E402
from workloads import check, judge, ordered_set_partitions  # noqa: E402

RECORDED = json.loads((HERE / "digests.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _brute_ordered_set_partitions(n: int, k: int) -> int:
    """Visit every ordered set partition of [n] into k blocks: choose the
    first block among the nonempty subsets of what remains, recursively."""
    def count(remaining: int, blocks: int) -> int:
        if blocks == 0:
            return int(remaining == 0)
        total, sub = 0, remaining
        while sub:
            total += count(remaining ^ sub, blocks - 1)
            sub = (sub - 1) & remaining
        return total
    return count((1 << n) - 1, k)


def test_ordered_set_partition_count():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert ordered_set_partitions(n, k) == _brute_ordered_set_partitions(n, k), (n, k)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_orders_the_same_requests(workload):
    first = workloads.requests(workload, random.Random(1))
    second = workloads.requests(workload, random.Random(2))
    assert sorted(r["id"] for r in first) == sorted(r["id"] for r in second)
    assert [r["id"] for r in first] != [r["id"] for r in second]
    assert all(r["id"] in RECORDED for r in first)


def _frobenius_outcome(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = spanrep_main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def test_corrupted_payload_is_counted_as_failed():
    req = workloads.cli_request(["frobenius", "3", "2", "--source", "both"])
    outcome = _frobenius_outcome(req["argv"])
    found, problems = check(req, outcome)
    assert judge(req["id"], found, problems, RECORDED) == []

    envelope = json.loads(outcome["stdout"])
    envelope["payload"]["sources"]["oracle"][0]["coeff"][0][1] = "2"
    corrupted = {"exit": 0, "stdout": json.dumps(envelope)}
    found, problems = check(req, corrupted)
    assert any("dimension" in p for p in problems)
    assert any("digest" in p for p in judge(req["id"], found, problems, RECORDED))

    # A change no invariant sees is still caught by the digest.
    envelope = json.loads(outcome["stdout"])
    envelope["payload"]["max_degree"] = 0
    found, problems = check(req, {"exit": 0, "stdout": json.dumps(envelope)})
    assert problems == []
    assert judge(req["id"], found, problems, RECORDED) != []


def test_worker_counts_a_digest_mismatch_as_failed(tmp_path):
    req = workloads.cli_request(["frobenius", "3", "2", "--source", "both"], "--cache-dir")
    wrong = {req["id"]: "0" * 64}
    passed = run.run_pass(ROOT, tmp_path / "ok", [req], RECORDED, False, None, time.monotonic() + 60)
    failed = run.run_pass(ROOT, tmp_path / "bad", [req], wrong, False, None, time.monotonic() + 60)
    assert passed["failures"] == [] and passed["completed"]
    assert [rid for rid, _ in failed["failures"]] == [req["id"]]
    result = run.summarize(SPEC, {"setups": [passed["setup_s"]], "plain": [failed], "traced": []},
                           trace=False)
    assert result["failed"] == 1 and result["correct"] is False


def test_refuses_a_directory_without_spanrep(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stability", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_layer_metric_is_measured():
    results = {workload: _traced(workload) for workload in workloads.WORKLOADS}
    names = [metric["name"] for metric in SPEC["per_layer"]]
    for workload, result in results.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert sorted(result["metrics"]) == sorted(names), workload
    silent = [name for name in names
              if not any(r["metrics"][name]["value"] for r in results.values())]
    assert silent == []

    cross = {name: m["value"] for name, m in results["crosscheck"]["metrics"].items()}
    self_times = {name: v for name, v in cross.items() if name.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "linalg.insert.self_s"
    assert cross["cache.hit_frac"] == 0.5
