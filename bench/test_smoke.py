"""The benchmark's own test: smoke-sized runs of every workload.

    python3 -m pytest bench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import harness  # noqa: E402


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _check(proc, table):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(table)
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == table[name][0]
        assert printed[name] == (metric["value"], metric["unit"]), name
    assert "fail_frac 0.0 ratio" in lines
    return result, printed


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_untraced_prints_every_end_to_end_metric(workload):
    result, printed = _check(_run(workload, 0), harness.END_TO_END)
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_traced_prints_every_layer_metric_and_writes_spans():
    _, printed = _check(_run("counts", 1), harness.PER_LAYER)
    assert printed["nhlf.count_nhlf_s"][0] > 0
    assert printed["exact.count_determinant_s"][0] > 0
    assert printed["trace.spans"][0] > 0
    spans = json.loads((HERE / "out" / "trace_counts_seed3.json").read_text())
    assert spans["env"]["workload"] == "counts"
    assert {r[0] for r in spans["records"]} >= {
        "harness.batch", "harness.certify", "nhlf.count_nhlf",
        "tiling.build_region", "exact.count_determinant"}


def test_benchmark_json_matches_harness_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for key, table in (("end_to_end", harness.END_TO_END),
                       ("per_layer", harness.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == {k: v[:2] for k, v in table.items()}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("counts", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
