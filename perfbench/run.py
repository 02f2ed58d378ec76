"""recaudit benchmark: times the audit pipeline end to end and layer by layer.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 60 --trace 0

Run from the root of a recaudit checkout; the program is imported from its
``src/``. Each iteration is a fresh child process (``child.py``) with a fresh
output directory, run one at a time: the benchmark is a closed loop with one
client. Iterations repeat, on the same seed-made inputs, until the next one
would end past ``--seconds``; at least one always runs.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics, as medians over the iterations. With ``--trace 1``
untraced and traced iterations alternate and the metrics are the per-layer
ones: medians of the traced iterations' self times, their counts (which must
repeat exactly), the tracing overhead against the untraced iterations, and
the untraced iterations' phase times and failure rate.

Everything the run writes goes under ``.perfbench/`` in the checkout:
``results/`` keeps each run's full record (environment, per-iteration
figures, output digests), ``logs/`` the last child's output, and the last
traced iteration's raw spans are kept as ``spans-<workload>.npz``.
See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench"

WORKLOADS = ("audit", "train", "longitudinal")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics reported with --trace 1, with their units. A layer that a
# workload does not run reports 0.
_LAYER_TIMES = (
    "sources.generate_platform", "sources.fetch", "crawler.snowball_channels",
    "crawler.daily_harvest", "community.cluster_channels", "community.modularity",
    "corpus.read_jsonl", "corpus.write_jsonl", "corpus.validate_corpus",
    "attributes.score_comment_attributes", "textmodel.tokenize", "textmodel.featurize",
    "textmodel.train_text_classifier", "textmodel.predict_proba",
    "ensemble.attribute_features", "ensemble.train_logistic", "ensemble.train_ensemble",
    "ensemble.classify_video", "metrics.frequencies", "metrics.filter_bubble_matrix",
    "metrics.calibration_curve", "topics.tfidf", "topics.nmf", "topics.topic_report",
    "store.sha256_file", "store.save_ensemble", "store.load_ensemble", "store.read_likelihoods",
)
_LAYER_CALLS = (
    "sources.fetch", "attributes.score_comment_attributes", "textmodel.tokenize",
    "textmodel.featurize", "textmodel.train_text_classifier", "textmodel.predict_proba",
    "ensemble.attribute_features", "ensemble.train_logistic", "ensemble.classify_video",
    "metrics.clopper_pearson", "store.sha256_file",
)
_LAYER_COUNTS = (
    "crawler.snowball.admitted", "crawler.harvest.edges", "crawler.harvest.channel_failures",
    "community.graph.nodes", "community.graph.edges", "corpus.read_jsonl.records",
    "corpus.read_jsonl.bytes", "corpus.write_jsonl.bytes", "textmodel.sgd_steps",
    "ensemble.unclassifiable", "topics.nmf.iterations", "store.sha256_file.bytes",
)
_LAYER_RATIOS = (
    "corpus.snapshot_decodes_per_file", "textmodel.featurize_per_text",
    "ensemble.attribute_features_per_video",
)
CLI_STAGES = ("simulate", "snowball", "harvest", "train", "score", "trends",
              "calibrate", "bubble", "topics", "validate")

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _LAYER_TIMES},
    **{f"{name}.calls": "count" for name in _LAYER_CALLS},
    **{name: "count" for name in _LAYER_COUNTS},
    **{name: "ratio" for name in _LAYER_RATIOS},
    **{f"cli.{stage}.total_s": "s" for stage in CLI_STAGES},
    "trace.overhead_ratio": "ratio",
    "collect_s": "s",
    "train_s": "s",
    "report_s": "s",
    "fail_rate": "ratio",
}
# Per-layer counts that must come out identical on every traced iteration.
REPEATING = tuple(
    name for name, unit in PER_LAYER.items() if unit == "count"
) + _LAYER_RATIOS

# Every run must end within 180 s; no iteration starts that is predicted to
# end past this point, and one that overruns it is killed.
HARD_LIMIT_S = 165.0


def _checkout_ok() -> bool:
    return (ROOT / "src" / "recaudit" / "cli.py").is_file()


def _child_env(seed: int) -> dict:
    # config.load_config reads RECAUDIT_* overrides; the program must see only
    # the generated config. A fixed hash seed makes every iteration of a run
    # the same process, down to dict and set layout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RECAUDIT_")}
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = str(seed)
    # One BLAS thread: the program's matrices are small, and a second thread
    # would spin on the other core, whose speed the host-speed probe in the
    # child does not see (hostspeed.py).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, trace: int, scale: str, index: int, budget_s: float) -> dict:
    """One iteration in a fresh process; returns its result plus set-up time and peak RSS."""
    work = WORK_ROOT / f"{workload}-{seed}-{trace}-{index}"
    result_path = WORK_ROOT / f"{workload}-{seed}-{trace}-{index}.json"
    log_path = WORK_ROOT / "logs" / f"{workload}-trace{trace}.log"
    shutil.rmtree(work, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--scale", scale, "--work", str(work), "--result", str(result_path),
    ]
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=_child_env(seed), cwd=ROOT)
        killer = threading.Timer(max(budget_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ended = time.monotonic()
    if (work / "cli.log").exists():
        shutil.copy(work / "cli.log", log_path.with_suffix(".cli.log"))
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not result_path.exists():
        return {"crashed": f"exit {proc.returncode}; see {log_path}", "elapsed_s": ended - spawned}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    # Set-up ran just before the timed region, so the host speed the child
    # measured there corrects it too (hostspeed.py).
    result["setup_raw_s"] = result["timed_start_monotonic"] - spawned
    result["setup_s"] = result["setup_raw_s"] * result["host_speed"]["factor"]
    result["peak_rss_mb"] = rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    result["elapsed_s"] = ended - spawned
    result["cpu_s"] = rusage.ru_utime + rusage.ru_stime
    return result


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(untraced: list[dict]) -> dict:
    return {
        "wall_s": _median([r["wall_s"] for r in untraced]),
        "setup_s": _median([r["setup_s"] for r in untraced]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics and the names of counts that did not repeat."""
    values: dict[str, float] = {}
    mismatched = []
    for name in PER_LAYER:
        seen = [r["per_layer"].get(name, 0) for r in traced]
        if name in REPEATING and len(set(seen)) > 1:
            mismatched.append(name)
        values[name] = _median(seen)
    values["trace.overhead_ratio"] = _median([r["wall_s"] for r in traced]) / _median([r["wall_s"] for r in untraced])
    for phase in ("collect", "train", "report"):
        values[f"{phase}_s"] = _median([r["phase_s"][phase] for r in untraced])
    values["fail_rate"] = sum(r["failed_ops"] for r in untraced) / sum(r["attempted"] for r in untraced)
    return values, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="input sizes; 'toy' is for selfcheck.py")
    args = parser.parse_args(argv)

    if not _checkout_ok():
        print(f"perfbench: {ROOT} holds no recaudit sources (src/recaudit/cli.py)", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    seed = args.seed % 2**32  # numpy and PYTHONHASHSEED take no negative seeds

    start = time.monotonic()
    iterations: list[dict] = []
    kinds = (0, 1) if args.trace else (0,)
    while True:
        kind = kinds[len(iterations) % len(kinds)]
        same = [r["elapsed_s"] for r in iterations if r.get("trace") == kind]
        predicted = _median(same)
        elapsed = time.monotonic() - start
        minimum_done = len(iterations) >= len(kinds)
        if minimum_done and (elapsed + predicted > args.seconds or elapsed + predicted > HARD_LIMIT_S):
            break
        result = run_child(args.workload, seed, kind, args.scale, len(iterations),
                           HARD_LIMIT_S - elapsed)
        result.setdefault("trace", kind)
        iterations.append(result)
        if "crashed" in result:
            break

    crashed = [r for r in iterations if "crashed" in r]
    untraced = [r for r in iterations if "crashed" not in r and r["trace"] == 0]
    traced = [r for r in iterations if "crashed" not in r and r["trace"] == 1]
    if crashed:
        print(f"perfbench: iteration failed: {crashed[0]['crashed']}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        return 1

    attempted = sum(r["attempted"] for r in untraced + traced) + len(crashed)
    failed = sum(r["unexpected_failures"] for r in untraced + traced) + len(crashed)
    if args.trace:
        metrics, mismatched = per_layer(untraced, traced)
        attempted += 1
        if mismatched:
            failed += 1
            print(f"perfbench: counts differ between traced iterations: {mismatched}", file=sys.stderr)
        units = PER_LAYER
    else:
        metrics, mismatched = end_to_end(untraced), []
        units = END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "metrics": metrics,
        "count_mismatches": mismatched, "iterations": iterations,
    }
    results = WORK_ROOT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    for r in untraced + traced:
        for problem in r["stage_failures"] + [name for name, ok in r["checks"].items() if not ok]:
            print(f"perfbench: {args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
