"""Tests of the benchmark itself: determinism, trace accounting, contract.

    python3 -m pytest -q perfbench/selftest.py

Run from the root of an opkit checkout.  The file is not named ``test_*``
so that the repository's own test command does not collect it; the traced
runs below take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRACE_JOBS = 3


def inputs(name: str, seed: int, tmp_path) -> list:
    workload = WORKLOADS[name](seed, str(tmp_path))
    return [repr(workload.job(i).data) for i in range(4)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    first = inputs(name, 5, tmp_path)
    assert first == inputs(name, 5, tmp_path)
    other = inputs(name, 6, tmp_path)
    assert all(a != b for a, b in zip(first[1:], other[1:]))


def traced(name: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
         "--seed", str(seed), "--launched-ns", str(time.monotonic_ns()),
         "--jobs", str(TRACE_JOBS), "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(layers: dict) -> dict:
    """The metrics that are counts or ratios of counts, not times."""
    return {k: v for k, v in layers.items()
            if not k.endswith("_s") and k != "trace.self_sum_share"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_repeat_exactly(name):
    first, second = traced(name, 3), traced(name, 3)
    assert first["failed"] == second["failed"] == 0, first["problems"]
    assert first["digest"] == second["digest"]
    assert counts(first["layers"]) == counts(second["layers"])
    layers = first["layers"]
    assert layers["trace.self_sum_share"] == pytest.approx(1.0, abs=1e-9)
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s")
                   and k != "poly.kernel_self_s")
    assert self_sum == pytest.approx(layers["trace.job_s"], rel=1e-9)


def test_tail_has_ten_jobs_beyond_it():
    latencies = list(range(1, 101))
    value, percentile = tail(latencies)
    assert value == 90 and percentile == 90.0
    assert sum(1 for v in latencies if v > value) == 10


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-ideal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
