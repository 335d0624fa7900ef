"""Tests of the end-to-end benchmark itself.

Named so that the repository's tier-1 ``pytest`` run does not collect
it (the smoke runs spawn processes and take about a minute); run it
explicitly from the repository root::

    python3 -m pytest e2ebench/check_e2ebench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from e2ebench import reference, run  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_named_metric_with_its_unit(workload, trace):
    out = run_cli("--workload", workload, "--seed", "5", "--seconds", "1.5",
                  "--trace", trace, "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    result = last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in declared}
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float))
        assert any(line.strip().startswith(f"{name} = ") and line.rstrip().endswith(entry["unit"])
                   for line in out.stdout.splitlines()), name


def test_summary_names_each_operation_with_its_sample_count():
    out = run_cli("--workload", "loans-serve", "--seed", "5", "--seconds", "2",
                  "--trace", "0", "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    for label in ("drift_explain_p50_ms", "warm_explain_p50_ms", "delta_apply_p50_ms", "failed_share"):
        assert label in out.stdout
    assert "(n=" in out.stdout


def _served_ops(name: str, steps: int = 2):
    workload = WORKLOADS[name](5, "tiny")
    workload.setup()
    stream = workload.steps()
    ops = [workload.execute(request) for _ in range(steps) for request in next(stream)]
    return workload, ops


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_fresh_reference_accepts_served_outputs(workload_name):
    workload, ops = _served_ops(workload_name, steps=7)
    reference.attach_expected(workload, ops)
    assert all(op.ok for op in ops), [op.error for op in ops if not op.ok]


def test_corrupted_fresh_reference_counts_as_failure(monkeypatch):
    workload, ops = _served_ops("loans-cold")
    genuine = workload.references

    def corrupted(requests, per_pair=False):
        expected = genuine(requests, per_pair)
        expected[requests[0].key()] = "0" * 64
        return expected

    monkeypatch.setattr(workload, "references", corrupted)
    reference.attach_expected(workload, ops)
    assert [op.ok for op in ops].count(False) >= 1


def test_corrupted_committed_digest_counts_as_failure(monkeypatch):
    workload, ops = _served_ops("university-search")
    bad = {reference.short_key(ops[0].request.key()): "0" * 64}
    monkeypatch.setattr(reference, "committed", lambda _workload: bad)
    reference.attach_expected(workload, ops)
    assert not ops[0].ok and not ops[1].ok  # the miss and its repeat share the key
    assert all(op.ok for op in ops[2:])


def test_failures_reach_the_result_line(monkeypatch, capsys):
    genuine = run.attach_expected

    def corrupting(workload, ops):
        genuine(workload, ops)
        ops[0].expected = "0" * 64

    monkeypatch.setattr(run, "attach_expected", corrupting)
    result = run.run_one("loans-cold", 5, 1.0, False, "tiny")
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED" in capsys.readouterr().out


def test_same_seed_same_requests():
    def keys(seed):
        workload = WORKLOADS["loans-serve"](seed, "tiny")
        workload.setup()
        stream = workload.steps()
        return [request.key() for _ in range(8) for request in next(stream)]

    assert keys(3) == keys(3)
    assert keys(3) != keys(4)


def test_drift_requests_are_unseen_and_deltas_undo_each_other():
    workload = WORKLOADS["loans-serve"](3, "tiny")
    workload.setup()
    stream = workload.steps()
    requests = [request for _ in range(20) for request in next(stream)]
    misses = [request.labeling.signature() for request in requests if request.kind == "miss"]
    assert len(misses) == len(set(misses))
    states = [request.state for request in requests if request.kind == "delta"]
    assert states[:4] == [1, 0, 2, 0]
    undone = workload.state_database(1)
    undone.apply_delta(workload.deltas[0].inverse())
    assert undone.fingerprint() == workload.state_database(0).fingerprint()


def test_operations_carry_the_host_probe_around_them():
    _workload, ops = _served_ops("loans-cold")
    assert all(op.host > 0 for op in ops)
    slow_host = iter([0.002, 0.004])
    workload, _ = _served_ops("loans-cold", steps=0)
    op = workload.execute(next(workload.steps())[0], probe=lambda: next(slow_host))
    assert op.host == pytest.approx(0.003)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run_cli("--workload", "loans-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
