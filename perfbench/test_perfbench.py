"""The benchmark's own tests: quick mode of every workload.

    python3 -m pytest perfbench -q

They check that outputs are correct, that every metric named in
``BENCHMARK.json`` is reported with its unit, and that simulated metrics
repeat exactly across runs and between traced and untraced passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.SIM)
    assert units("end_to_end") == dict(run.END_TO_END)
    assert units("per_layer") == dict(run.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_is_correct_and_complete(workload):
    res = run.measure(workload, 3, 1.0, trace=False, quick=True)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == units("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    res = run.measure(workload, 3, 1.0, trace=True, quick=True)
    assert res["correct"] and res["failed"] == 0
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == units("per_layer")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if workload == "live_serve":
        assert m["live.calls"] > 0 and m["live.self_s"] > 0
    else:
        assert m["sim.events"] > 0 and m["sim.processes"] > 0
        assert m["devices.requests"] > 0
    if workload == "full_stack_orgs":
        assert m["ionode.batches"] > 0 and m["qos.dispatches"] > 0
        assert m["resilience.retried_ops"] > 0
    if workload == "strided_slabs":
        assert m["collective.exchange_bytes"] > 0 and m["datatype.runs_per_plan"] > 0
        assert m["live.calls"] > 0


@pytest.mark.parametrize("workload", run.SIM)
def test_simulated_metrics_repeat_exactly(workload):
    first = run.sim_pass(workload, 5, quick=True, trace=False, setups=1)
    second = run.sim_pass(workload, 5, quick=True, trace=False, setups=1)
    assert first["digest"] == second["digest"]
    assert first["sim"] == second["sim"]
    other = run.sim_pass(workload, 6, quick=True, trace=False, setups=1)
    assert other["sim"] != first["sim"]  # the seed reaches the inputs


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "strided_slabs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
