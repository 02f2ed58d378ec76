"""Toy-scale self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a recaudit checkout. Checks that BENCHMARK.json
declares exactly the metrics run.py reports; that every workload, untraced
and traced, prints a well-formed, correct result naming every declared
metric; that traced counts repeat exactly across iterations of one seed;
and that the benchmark refuses to run in a directory holding only
BENCHMARK.json and perfbench/. Takes about a minute; exits 0 when all pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SEED = 7


def _fail(problems: list[str], message: str) -> None:
    problems.append(message)
    print(f"FAIL {message}", flush=True)


def check_declaration(problems: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if spec["command"] != ["python3", "perfbench/run.py"] or spec["paths"] != ["perfbench"]:
        _fail(problems, "BENCHMARK.json command or paths changed")
    if not {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS):
        _fail(problems, "BENCHMARK.json declares a workload run.py does not have")
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != declared:
            _fail(problems, f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(declared.items()))}")


def run_bench(cwd: Path, workload: str, trace: int, seconds: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(problems: list[str], workload: str, trace: int) -> None:
    # A few seconds is enough for two traced toy iterations, so the count
    # repetition check inside run.py is exercised.
    proc = run_bench(run.ROOT, workload, trace, seconds=20.0 if trace else 1.0)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        _fail(problems, f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(last) != RESULT_KEYS:
        _fail(problems, f"{label}: result keys {sorted(last)}")
        return
    if not last["correct"] or last["failed"] != 0 or last["attempted"] < 1:
        _fail(problems, f"{label}: not correct: {last['attempted']} attempted, {last['failed']} failed; {proc.stderr[-2000:]}")
    declared = run.PER_LAYER if trace else run.END_TO_END
    if set(last["metrics"]) != set(declared):
        _fail(problems, f"{label}: metric names differ from the declaration")
    for name, entry in last["metrics"].items():
        value = entry["value"]
        if entry["unit"] != declared.get(name) or not isinstance(value, (int, float)) or not math.isfinite(value):
            _fail(problems, f"{label}: bad metric {name}: {entry}")
        elif not trace and value <= 0:
            _fail(problems, f"{label}: end-to-end metric {name} is not positive")
    record = json.loads((run.WORK_ROOT / "results" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    if trace:
        traced = [r for r in record["iterations"] if r.get("trace") == 1]
        if len(traced) < 2:
            _fail(problems, f"{label}: only {len(traced)} traced iteration(s); counts not compared")
        if record["metrics"]["trace.overhead_ratio"] <= 0:
            _fail(problems, f"{label}: no tracing overhead figure")
    if not all(r["host_speed"]["samples"] >= 2 for r in record["iterations"]):
        _fail(problems, f"{label}: an iteration lacks host-speed samples")
    env = record["iterations"][0]["environment"]
    for key in ("machine", "nproc", "python", "numpy", "blas", "blas_threads"):
        if key not in env:
            _fail(problems, f"{label}: environment lacks {key}")
    print(f"ok   {label}: {last['attempted']} operations", flush=True)


def check_bare_directory(problems: list[str]) -> None:
    bare = run.WORK_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "train", 0, seconds=1.0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        _fail(problems, f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print("ok   bare directory refused", flush=True)


def main() -> int:
    if not run._checkout_ok():
        print(f"selfcheck: {run.ROOT} holds no recaudit sources", file=sys.stderr)
        return 2
    problems: list[str] = []
    check_declaration(problems)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_workload(problems, workload, trace)
    check_bare_directory(problems)
    print("selfcheck:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
