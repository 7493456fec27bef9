"""Smoke test of the benchmark itself: tiny sizes, 1-2 iterations per path.

    python3 -m pytest foldbench -q

Checks that every named metric is emitted with its unit in both modes,
that a forced correctness failure is counted, that BENCHMARK.json names
the metrics the code emits, and that a directory without the library
sources is refused without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import END_TO_END, WORKLOAD_NAMES  # noqa: E402
from spans import LAYER_METRICS, TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAYER_UNITS = {name: spec[0] for name, spec in LAYER_METRICS.items()}


def bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def small_run(workload, trace, *extra):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--small", *extra)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out, result = small_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = LAYER_UNITS if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        assert f"  {name} " in out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_share" in out
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", ["helix15-vacuum", "rama8-water"])
def test_forced_failure_is_counted(workload):
    out, result = small_run(workload, 0, "--inject-failure")
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    assert "FAIL" in out


def test_vacuum_trace_has_no_solvation_work(tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    _, result = small_run("extended400-vacuum", 1, "--spans", str(spans_file))
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["solvation.sasa_pass_s"] == 0 and m["solvation.forces_s"] == 0
    assert m["chain.kinematic_state_s"] > 0 and m["kcm.joint_torques_s"] > 0
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    assert {s["name"] for s in spans} <= set(TARGETS)
    assert "kcm.fold" in {s["name"] for s in spans}
    assert all(s["start"] <= s["end"] for s in spans)


def test_all_workloads_in_one_command(tmp_path):
    out_file = tmp_path / "results.json"
    proc = bench("--workload", "all", "--seed", "1", "--seconds", "0", "--trace", "1",
                 "--small", "--out", str(out_file))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    table = proc.stdout.split("\nmetric")[-1]
    for name in list(END_TO_END) + ["failed_share"] + list(LAYER_UNITS):
        assert f"\n{name} " in table, name
    results = json.loads(out_file.read_text())["workloads"]
    assert list(results) == list(WORKLOAD_NAMES)
    for entry in results.values():
        assert entry["end_to_end"]["correct"] and entry["trace"]["correct"]
        assert entry["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert ({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
            == {name: s[:2] for name, s in LAYER_METRICS.items()})


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "helix15-vacuum", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("in_layer, fails", [(0.95, False), (0.5, True)])
def test_time_in_no_layer_fails_the_trace(in_layer, fails):
    from spans import Recorder, layer_metrics
    rec = Recorder()
    rec.spans = [["kcm.fold", -1, 0, 0.0, 1.0, 0.0],
                 ["chain.kinematic_state", 0, 0, 0.0, in_layer, 0.0]]
    m, failures = layer_metrics(rec, units=1, setups=1, solve_total=1.0,
                                overhead_ratio=1.0)
    assert m["trace.unattributed_ratio"] == pytest.approx(1.0 - in_layer)
    assert any("in no layer" in f for f in failures) == fails
