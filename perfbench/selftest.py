"""Self-test of the benchmark, on small versions of its workloads.

Run from the root of a checkout: python3 -m pytest -q perfbench/selftest.py
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.prepare_environment()
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "battery": functools.partial(workloads.Battery, size=10),
    "ladder": functools.partial(workloads.Ladder, sizes=(2, 10)),
    "cli": functools.partial(workloads.Cli, partial_size=4),
}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    for name, factory in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, factory)


def run_once(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_emits_every_listed_metric_with_its_unit(small, capsys, workload, trace):
    result = run_once(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["battery", "ladder"])
def test_traced_call_counts_repeat(small, capsys, workload):
    def calls(result):
        return {
            name: m["value"] for name, m in result["metrics"].items() if name.endswith(".calls")
        }

    first = calls(run_once(capsys, workload, 1))
    assert first["synth.synthesize.calls"] == (10 if workload == "battery" else 2)
    assert first == calls(run_once(capsys, workload, 1))


def test_missing_function_records_zero_calls(small, capsys, monkeypatch):
    monkeypatch.setitem(tracer.TRACED, "synth", tracer.TRACED["synth"] + ("no_such_function",))
    monkeypatch.setattr(tracer, "SPAN_NAMES", tracer.SPAN_NAMES + ("synth.no_such_function",))
    metrics = run_once(capsys, "battery", 1)["metrics"]
    assert metrics["synth.no_such_function.calls"]["value"] == 0
    assert metrics["synth.no_such_function.s"]["value"] == 0
    assert metrics["synth.synthesize.calls"]["value"] == 10


def test_fails_without_the_package_sources():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
