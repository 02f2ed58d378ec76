"""One iteration of one workload, in a fresh process.

    python3 perfbench/child.py --workload audit --seed 1 --trace 0 \
        --scale full --work <dir> --result <file.json>

Sets up the workload's inputs, runs its timed region, checks the outputs
and writes one JSON result. With ``--trace 1`` the timed region runs under
the tracer and the result carries the per-layer figures. The CLI's logs go
to ``<dir>/cli.log``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import logging
import os
import platform
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def _blas_info() -> dict:
    """numpy's BLAS and the thread count it will use."""
    import numpy as np

    info = {"numpy": np.__version__, "blas": "unknown", "blas_threads": None}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment() -> dict:
    info = {
        "machine": platform.machine(),
        "processor": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    info.update(_blas_info())
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def per_layer(tracer, factor: float) -> dict:
    """Per-layer figures of one traced iteration, named as in BENCHMARK.json;
    times are scaled to the nominal host speed by ``factor``."""
    selfs = tracer.self_times()
    totals = tracer.total_times()
    counts = tracer.counts
    out: dict[str, float] = {}
    for name in selfs:
        if not name.startswith("cli."):
            out[f"{name}.self_s"] = selfs[name] * factor
    for name, total in totals.items():
        if name.startswith("cli."):
            out[f"{name}.total_s"] = total * factor
    for key, value in counts.items():
        out[key] = value
    out["ensemble.unclassifiable"] = counts.get("ensemble.classify_video.raised.UnclassifiableVideoError", 0)
    distinct_texts = tracer.distinct_count("featurize")
    distinct_videos = tracer.distinct_count("attribute_features")
    out["textmodel.featurize_per_text"] = (
        counts.get("textmodel.featurize.calls", 0) / distinct_texts if distinct_texts else 0.0
    )
    out["ensemble.attribute_features_per_video"] = (
        counts.get("ensemble.attribute_features.calls", 0) / distinct_videos if distinct_videos else 0.0
    )
    out["corpus.snapshot_decodes_per_file"] = tracer.snapshot_decodes_per_file()
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=False)  # every iteration starts fresh
    logging.basicConfig(
        filename=work / "cli.log", level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import recaudit
    from hostspeed import HostSpeed
    from workloads import SIZES, WORKLOADS, Loop, Outcome

    if not Path(recaudit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"recaudit imported from {recaudit.__file__}, not from {SRC}")

    setup, run, check = WORKLOADS[args.workload]
    size = SIZES[args.workload][args.scale]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    outcome = Outcome()
    probe = HostSpeed()
    try:
        state = setup(work, args.seed, size)
        timed_start = monotonic()
        probe.start()
        t0 = perf_counter()
        run(state, Loop(state.get("out", work), state.get("config"), outcome, probe, tracer))
        wall = perf_counter() - t0
    finally:
        probe.stop()
        if tracer is not None:
            tracer.uninstall()
    factor = probe.factor()

    try:
        check(state, outcome, work)
    except Exception:  # a crashed oracle is a failed check, not a lost result
        traceback.print_exc()
        outcome.check("oracles ran to completion", False)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "timed_start_monotonic": timed_start,
        "wall_s": probe.corrected(wall),
        "wall_raw_s": wall,
        "host_speed": {"factor": factor, "samples": len(probe.samples), "probe_s": probe.spent_s,
                       "sample_s": probe.samples},
        "phase_s": {phase: t * factor for phase, t in outcome.phase_s.items()},
        "attempted": outcome.attempted,
        "failed_ops": outcome.failed_ops,
        "unexpected_failures": outcome.unexpected_failures,
        "stage_failures": outcome.stage_failures,
        "checks": outcome.checks,
        "digests": outcome.digests,
        "environment": environment(),
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, factor)
        tracer.save(work.parent / f"spans-{args.workload}.npz")
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
