"""Smoke test of the benchmark harness: one toy-scale `train` run must print
a result line with the schema that BENCHMARK.json declares.

The gate is the schema, not the `correct` flag: at toy scale the stacked
ensemble can be under-trained, which is a program defect, not a harness one.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_toy_train_run_prints_the_declared_result_schema():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--scale", "toy",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) >= {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] > 0 and result["failed"] >= 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0
