"""Smoke test of the benchmark: every workload on its tiny config, untraced
and traced, must pass its output checks and print every metric that
BENCHMARK.json names, with that metric's unit. Takes a few seconds.

    python3 -m pytest -q segbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(root, trace):
    return subprocess.run(
        [sys.executable, str(root / "segbench" / "run.py"), "--tiny", "--seconds", "1",
         "--seed", "3", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)


def _check(trace, metrics):
    out = _run(ROOT, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in DEFINITION["workloads"] for m in DEFINITION[metrics]}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit, name
        assert isinstance(result["metrics"][name]["value"], (int, float)), name
    return result["metrics"]


def test_end_to_end_metrics_present():
    for name, m in _check(0, "end_to_end").items():
        assert m["value"] > 0, name


def test_per_layer_metrics_present():
    _check(1, "per_layer")


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for d in DEFINITION["paths"]:
            shutil.copytree(ROOT / d, bare / d)
        out = _run(bare, 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


if __name__ == "__main__":
    test_end_to_end_metrics_present()
    test_per_layer_metrics_present()
    test_fails_without_the_program()
    print("ok")
