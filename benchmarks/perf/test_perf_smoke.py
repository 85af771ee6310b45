"""Smoke test of the perf benchmark. Not tier-1 (takes about two minutes)::

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Drives ``run.py --quick`` twice (1 timed pass, 20 jobs per client, 1 traced
pass) and checks the contract of BENCHMARK.json: every workload and metric
is emitted under its declared name, outputs and the exact counts repeat
for a fixed seed, and the counters' conservation laws hold.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Counts fixed by the inputs alone. The number of forwards, flush reasons
# and wake-ups depend on how requests happened to coalesce, so they are not
# in this list; sums of floats are compared to 1e-9 because the order of
# additions across threads is not fixed.
EXACT = (
    "db.fetch_metadata.calls",
    "db.fetch_values.calls",
    "db.round_trips",
    "db.charged_s",
    "db.cells_read",
    "features.encode.calls",
    "core.pipeline.dispatches",
    "core.latent_cache.get.calls",
    "sched.batcher.requests",
    "sched.forward.pad_ratio",
    "nn.forward.gflop",
    "serve.submit.calls",
    "serve.admitted",
)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def two_runs() -> list[dict]:
    runs = []
    for label in ("smoke-a", "smoke-b"):
        done = _run("--quick", "--label", label)
        assert done.returncode == 0, done.stdout[-2000:]
        record = json.loads((HERE / "out" / f"{label}.json").read_text())
        for key in ("commit", "seed", "env"):
            assert key in record
        for key in ("nproc", "python", "numpy", "blas"):
            assert record["env"][key]
        runs.append(record["runs"][0])
    return runs


def test_names_and_units_are_well_formed():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = WORKLOADS + [m["name"] for m in metrics]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(m["unit"] for m in metrics)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in BENCHMARK["end_to_end"])


def test_every_declared_metric_is_emitted(two_runs):
    for run in two_runs:
        assert sorted(run) == sorted(WORKLOADS)
        for result in run.values():
            assert result["correct"], result["errors"]
            assert result["fail_share"] == 0
            assert set(result["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
            assert set(result["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
            assert all(value > 0 for value in result["end_to_end"].values())


def test_outputs_and_exact_counts_repeat(two_runs):
    first, second = two_runs
    for workload in WORKLOADS:
        a, b = first[workload], second[workload]
        assert a["checks"]["pred_digest"] == b["checks"]["pred_digest"]
        assert a["checks"]["scanned_ratio"] == b["checks"]["scanned_ratio"]
        for name in EXACT:
            assert a["per_layer"][name] == pytest.approx(b["per_layer"][name], rel=1e-9), (
                workload, name,
            )


def test_conservation_laws_hold(two_runs):
    for run in two_runs:
        for workload, result in run.items():
            laws = result["conservation"]
            assert ("serve.admitted == jobs finished" in laws) == (workload == "serve_mix")
            for law, (left, right) in laws.items():
                assert left == right, (workload, law)


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_contract_line(trace):
    done = _run("--workload", "git_cpu", "--seed", "3", "--quick", "--trace", str(trace))
    assert done.returncode == 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
