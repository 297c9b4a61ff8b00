"""Self-tests of the benchmark harness, on a handful of operations.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
OPS = {"survey": 12, "contract": 3, "highdim": 4}


def _run(workload, trace, **kwargs):
    lines = []
    result = run.run(workload, seed=5, seconds=60, trace=trace,
                     max_ops=OPS[workload], say=lines.append, **kwargs)
    return result, lines


@pytest.mark.parametrize("workload", sorted(OPS))
def test_untraced_run_is_correct_and_unwrapped(workload):
    result, _ = _run(workload, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == OPS[workload]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    core = sys.modules["gemkit.core"]
    assert not hasattr(core.residues, "__wrapped__")


@pytest.mark.parametrize("workload", sorted(OPS))
def test_traced_calls_repeat_exactly(workload):
    first, _ = _run(workload, trace=True)
    second, _ = _run(workload, trace=True)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    def calls(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if k.endswith(".calls") or k.endswith(".distinct_ratio")}

    assert calls(first) == calls(second)
    assert calls(first)["core.residues.calls"] > 0
    assert not hasattr(sys.modules["gemkit.core"].residues, "__wrapped__")


def test_wrong_oracle_value_fails_the_operation():
    real = oracle.load(run.ROOT)

    def skewed_f_vector(dimension, num_vertices, edges):
        fv = real.f_vector(dimension, num_vertices, edges)
        return (fv[0] + 1,) + fv[1:]

    wrong = SimpleNamespace(**vars(real))
    wrong.f_vector = skewed_f_vector
    result, lines = _run("survey", trace=False, bf=wrong)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("f-vector" in line for line in lines)


def test_refuses_a_directory_without_gemkit(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "survey",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
