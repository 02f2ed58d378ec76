"""The benchmark in ``perfbench/`` binds names of ``recaudit`` that the
program itself may not need: the functions its tracer wraps and those its
workloads call. A change that renames or deletes one fails here, rather than
in a benchmark run."""

import dataclasses
import datetime as dt
import importlib
import importlib.util
from pathlib import Path

import pytest

from recaudit import crawler
from recaudit.sources import PlatformSpec, generate_platform

ROOT = Path(__file__).resolve().parent.parent


_spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)
TRACED = _tracing.TRACED

# What perfbench/workloads.py's check of the `train` workload calls, beside
# the traced names.
WORKLOAD_NAMES = [
    ("ensemble", "classify_video"),
    ("ensemble", "precision_recall"),
    ("store", "save_ensemble"),
]


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in TRACED])
def test_every_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"recaudit.{module}")
    if "." in attr:  # the tracer patches a method in its class's own namespace
        cls_name, method = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__.get(method)), attr
    else:
        assert callable(getattr(owner, attr, None)), attr


@pytest.mark.parametrize("module, attr", WORKLOAD_NAMES)
def test_every_workload_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"recaudit.{module}"), attr, None)), attr


def test_the_workload_pins_a_trained_ensemble_field():
    from recaudit.ensemble import TrainedEnsemble

    assert "trained_date" in {field.name for field in dataclasses.fields(TrainedEnsemble)}


def test_the_traced_harvest_counts_the_snapshot_edges():
    # The tracer's harvest hook counts the snapshot's edges: 10 channels
    # whose last videos each get 20 recommendations.
    platform = generate_platform(PlatformSpec(n_channels=10, videos_per_channel=8, seed=3))
    tracer = _tracing.Tracer()
    tracer.install()
    try:
        result = crawler.daily_harvest(platform, platform.channel_ids(), dt.date(2019, 5, 1), k=20)
    finally:
        tracer.uninstall()
    assert tracer.counts["crawler.harvest.edges"] == len(result.snapshot.edges) == 200
