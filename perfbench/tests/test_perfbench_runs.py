"""BENCHMARK.json schema and a tiny run of every workload in both modes.

No assertion here depends on a measured time.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert len(names) >= 2 and set(names) <= set(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    seen = set()
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert NAME.match(m["name"]) and m["name"] not in seen
        seen.add(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("env ")
    env = json.loads(lines[0][4:])
    assert {"numpy", "blas_version", "blas_threads_set", "nproc", "cpu",
            "python"} <= set(env)
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run(spec, capsys, tmp_path, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], records=(320, 64),
                    workdir=str(tmp_path / "work"), out_dir=str(tmp_path))
    assert code == 0
    result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert not (tmp_path / "work").exists()
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.coverage_pct"]["value"] == pytest.approx(100.0)
        assert metrics["accounting.macs_per_image"]["value"] > 0
        with open(tmp_path / f"trace-{workload}-seed3.json") as f:
            out = json.load(f)
        assert out["env"]["blas_threads_set"] == 1
        kinds = {row["stem"] for row in out["layers"]}
        assert {"ops.bn", "ops.relu"} <= kinds
        for row in out["layers"]:
            if row["stem"] in ("ops.pointwise", "ops.conv"):
                assert row["macs_per_image"] > 0, row["layer"]


def test_refuses_to_run_without_the_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, exit non-zero."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work", "out"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "train-resnet20", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
