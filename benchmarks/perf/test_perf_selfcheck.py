"""Self-check of the perf ladder (collected by the tier-1 command).

Pins the contract between ``BENCHMARK.json`` and what ``run.py`` emits:
every declared metric and workload is well-formed and actually produced on
every workload, the model cost is a function of the seed alone, and
``compare`` reads a spread wider than the bound as unresolved.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

# Two of the four workloads time the ``vec`` rung, which needs numpy; tier-1
# must also pass where only the stdlib is installed.
pytest.importorskip("numpy")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 11


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perf_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _quick(*extra: str) -> list:
    """Run the quick suite; the result objects in the order printed."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", str(SEED), *extra],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    return [json.loads(line) for line in done.stdout.splitlines() if line.startswith('{"correct"')]


@pytest.fixture(scope="module")
def quick_runs(contract) -> dict:
    names = [w["name"] for w in contract["workloads"]]
    with_trace = _quick("--trace")
    again = _quick()
    assert len(with_trace) == 2 * len(names) and len(again) == len(names)
    return {
        "first": dict(zip(names, with_trace[0::2])),
        "trace": dict(zip(names, with_trace[1::2])),
        "second": dict(zip(names, again)),
    }


def test_contract_is_well_formed(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["benchmarks/perf"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
        names.append(metric["name"])
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_every_declared_metric_is_emitted_on_every_workload(contract, quick_runs):
    end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for kind, declared in (("first", end_to_end), ("second", end_to_end), ("trace", per_layer)):
        for workload, result in quick_runs[kind].items():
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (kind, workload)
            assert result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == declared, (kind, workload)
    for workload, result in quick_runs["first"].items():
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (workload, name)  # end-to-end is never 0
    # Every per-layer metric is moved by at least one workload.
    reads_zero = {
        # counts of faults: 0 on a healthy program
        "net.transport.backpressure_drops", "check.violations",
        # kernel families run no Process logic on vec; non-zero here would
        # mean a kernel family fell back to the Python loop
        "core.gossip.vec_s", "core.checkpointing.vec_s", "core.flooding.vec_s",
    }
    for name in per_layer:
        if name in reads_zero:
            continue
        assert any(r["metrics"][name]["value"] != 0 for r in quick_runs["trace"].values()), name


def test_model_cost_is_a_function_of_the_seed(quick_runs):
    for workload, first in quick_runs["first"].items():
        second = quick_runs["second"][workload]
        for name in ("model_rounds", "model_msgs", "model_bits"):
            assert first["metrics"][name] == second["metrics"][name], (workload, name)


def test_traced_run_writes_a_chrome_trace(contract, quick_runs):
    for workload in (w["name"] for w in contract["workloads"]):
        with open(HERE / "out" / f"trace-{workload}.json", encoding="utf-8") as handle:
            trace = json.load(handle)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        ids = {e["args"]["id"] for e in spans}
        assert spans and all(
            e["args"]["parent"] is None or e["args"]["parent"] in ids for e in spans
        )


def test_compare_verdicts():
    run = _load_run_module()
    lower = {"name": "rung1_pass_s", "unit": "s", "better": "lower", "bound": 0.1}
    higher = {**lower, "better": "higher"}

    def side(*values, q1=None, q3=None):
        lines = [{"value": v} for v in values]
        if q1 is not None:
            lines[0].update(q1=q1, q3=q3)
        return run._side(lines)

    tight = dict(q1=0.99, q3=1.01)
    assert run.verdict(lower, side(1.0, **tight), side(1.05, q1=1.04, q3=1.06)) == "same"
    assert run.verdict(lower, side(1.0, **tight), side(1.2, q1=1.19, q3=1.21)) == "worse"
    assert run.verdict(lower, side(1.0, **tight), side(0.8, q1=0.79, q3=0.81)) == "better"
    assert run.verdict(higher, side(1.0, **tight), side(0.8, q1=0.79, q3=0.81)) == "worse"
    # Spread wider than the bound: unresolved, unless every run of B beats
    # every run of A.
    noisy = side(1.0, 1.3, 0.8, 1.1)
    assert run.verdict(lower, noisy, side(1.05, 1.4, 0.9, 1.0)) == "unresolved"
    assert run.verdict(lower, noisy, side(0.5, 0.7, 0.6, 0.55)) == "better"
    # One run a side: its passes' quartiles are its width.
    wide = side(1.0, q1=0.9, q3=1.2)
    assert run.verdict(lower, wide, side(0.99, q1=0.95, q3=1.0)) == "unresolved"
    assert run.verdict(lower, wide, side(0.8, q1=0.78, q3=0.85)) == "better"
    # Model counts of two sides that ran the same seeds are exact.
    count = {"name": "model_msgs", "unit": "count", "better": "lower", "bound": 0.05}
    assert run.verdict(count, side(1000), side(1001)) == "same"
    assert run.verdict(count, side(1000), side(1001), exact=True) == "worse"
    assert run.verdict(count, side(1000), side(1000), exact=True) == "same"


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: exit non-zero, print no result."""
    (tmp_path / "benchmarks").mkdir()
    target = tmp_path / "benchmarks" / "perf"
    target.mkdir()
    for path in HERE.glob("*.py"):
        (target / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "dense-flood",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
