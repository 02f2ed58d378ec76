import argparse
import collections
import dataclasses
import datetime as dt
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import pytest

from recaudit import cli, corpus, ensemble, errors, parallel, store
from recaudit.cli import main
from recaudit.config import load_config
from recaudit.corpus import DailySnapshot
from recaudit.parallel import available_cpus
from conftest import edge_columns, edge_objects, from_bundle, make_edge, processes

CFG = """
sim.channels = 10
sim.videos_per_channel = 8
sim.base_rate = 0.4
sim.labeled_count = 40
sim.seed = 3
ensemble.repeats = 2
text.dim = 8
text.epochs = 15
harvest.retain = 40
topics.k = 2
calibration.bins = 5
out.dir = {out}
"""


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CFG.format(out=tmp_path / "out"))
    return tmp_path, cfg


def run(cfg, *argv):
    return main([*argv, "--config", str(cfg)])


class TestPipeline:
    def test_full_flow_and_artifacts(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        for day in ("2019-05-01", "2019-05-02", "2019-05-03"):
            assert run(cfg, "harvest", "--date", day) == 0
        assert run(cfg, "train") == 0
        assert run(cfg, "score") == 0
        assert run(cfg, "trends") == 0
        assert run(cfg, "calibrate") == 0
        assert run(cfg, "bubble") == 0
        assert run(cfg, "topics") == 0
        assert run(cfg, "validate") == 0

        lines = (out / "trends.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + one row per snapshot
        assert lines[0].endswith("raw_rolling,weighted_rolling")
        assert (out / "ensemble.bin").exists()
        assert (out / "likelihoods.jsonl").exists()
        assert (out / "topics.json").exists()
        weights = json.loads((out / "ensemble_weights.json").read_text())
        assert sum(weights.values()) == pytest.approx(100.0)

    def test_rerun_skips_when_outputs_current(self, workspace, capsys):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        capsys.readouterr()
        assert run(cfg, "simulate") == 0
        assert "skipping" in capsys.readouterr().out

    def test_overwrite_forces_rerun(self, workspace, capsys):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        capsys.readouterr()
        assert run(cfg, "simulate", "--overwrite") == 0
        assert "skipping" not in capsys.readouterr().out

    def test_changed_config_reruns(self, workspace, capsys):
        tmp, cfg = workspace
        for argv in (["simulate"], ["harvest", "--date", "2019-05-01"], ["train"], ["score"]):
            assert run(cfg, *argv) == 0
        assert run(cfg, "trends") == 0
        capsys.readouterr()
        assert run(cfg, "trends", "--threshold", "0.9") == 0
        assert "skipping" not in capsys.readouterr().out
        summary = json.loads((tmp / "out" / "trends_summary.json").read_text())
        assert summary["threshold"] == 0.9

    def test_changed_input_reruns(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        for argv in (["simulate"], ["harvest", "--date", "2019-05-01"], ["train"], ["score"]):
            assert run(cfg, *argv) == 0
        first = (out / "likelihoods.jsonl").read_bytes()
        assert run(cfg, "train", "--seed", "5", "--overwrite") == 0
        capsys.readouterr()
        assert run(cfg, "score") == 0
        assert "skipping" not in capsys.readouterr().out
        assert (out / "likelihoods.jsonl").read_bytes() != first


class TestInputSetStaleness:
    """A stage reruns when the set of files it would read differs from the
    set its manifest recorded, not only when a recorded file changed."""

    def test_score_reruns_after_a_new_harvest_day(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        for argv in (["simulate"], ["harvest", "--date", "2019-05-01"], ["train"], ["score"]):
            assert run(cfg, *argv) == 0
        assert run(cfg, "harvest", "--date", "2019-05-02") == 0
        capsys.readouterr()
        assert run(cfg, "score") == 0
        assert "skipping" not in capsys.readouterr().out
        new_day = corpus.read_jsonl(out / "snapshots" / "2019-05-02.jsonl", DailySnapshot)
        scored = {json.loads(line)["video_id"] for line in (out / "likelihoods.jsonl").read_text().splitlines()}
        assert {e.recommended_video_id for s in new_day for e in edge_objects(s.edges)} <= scored

    @pytest.mark.parametrize("stage", ["trends", "bubble", "topics", "validate"])
    def test_snapshot_readers_rerun_after_a_new_harvest_day(self, workspace, capsys, stage):
        tmp, cfg = workspace
        for argv in (["simulate"], ["harvest", "--date", "2019-05-01"], ["train"], ["score"], [stage]):
            assert run(cfg, *argv) == 0
        assert run(cfg, "harvest", "--date", "2019-05-02") == 0
        capsys.readouterr()
        assert run(cfg, stage) == 0
        assert "skipping" not in capsys.readouterr().out
        manifest = json.loads((tmp / "out" / "manifests" / f"{stage}.json").read_text())
        assert any(p.endswith("2019-05-02.jsonl") for p in manifest["inputs"])

    def test_harvest_is_stale_after_the_platform_is_resimulated(self, workspace, capsys):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        assert run(cfg, "simulate", "--seed", "99", "--overwrite") == 0
        capsys.readouterr()
        # The snapshot came from the old platform: not current, and not
        # replaced without --overwrite.
        assert run(cfg, "harvest", "--date", "2019-05-01") == 2
        assert "skipping" not in capsys.readouterr().out
        assert run(cfg, "harvest", "--date", "2019-05-01", "--overwrite") == 0

    def test_unchanged_inputs_still_skip(self, workspace, capsys):
        tmp, cfg = workspace
        for argv in (["simulate"], ["harvest", "--date", "2019-05-01"], ["train"], ["score"]):
            assert run(cfg, *argv) == 0
        capsys.readouterr()
        assert run(cfg, "score") == 0
        assert "skipping" in capsys.readouterr().out

    def test_calibrate_reruns_with_other_labels(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        for argv in (["simulate"], ["harvest", "--date", "2019-05-01"], ["train"], ["score"], ["calibrate"]):
            assert run(cfg, *argv) == 0
        first = (out / "calibration.csv").read_text()
        # Every label flipped: the curve must change.
        truth = [json.loads(line) for line in (out / "ground_truth.jsonl").read_text().splitlines()]
        other = tmp / "other.jsonl"
        other.write_text("".join(json.dumps({**d, "label": 1 - d["label"]}) + "\n" for d in truth))
        capsys.readouterr()
        assert run(cfg, "calibrate", "--labels", str(other)) == 0
        assert "skipping" not in capsys.readouterr().out
        assert (out / "calibration.csv").read_text() != first

    def test_snowball_reruns_after_the_manual_additions_change(self, workspace, monkeypatch, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        _configure_snowball(tmp, out, monkeypatch, ["UCextra1"])
        assert run(cfg, "snowball") == 0
        assert "UCextra1" in (out / "seeds.txt").read_text().splitlines()
        (tmp / "additions.txt").write_text("UCextra2\n")
        capsys.readouterr()
        assert run(cfg, "snowball") == 0
        assert "skipping" not in capsys.readouterr().out
        seeds = (out / "seeds.txt").read_text().splitlines()
        assert "UCextra2" in seeds and "UCextra1" not in seeds


def _configure_snowball(tmp, out, monkeypatch, additions):
    """Snowball from three simulated channels and pick the first one's
    cluster, plus the given manual additions."""
    initial = (out / "seeds.txt").read_text().splitlines()[:3]
    (tmp / "initial.txt").write_text("\n".join(initial) + "\n")
    (tmp / "additions.txt").write_text("".join(f"{c}\n" for c in additions))
    monkeypatch.setenv("RECAUDIT_SNOWBALL_SEEDS_PATH", str(tmp / "initial.txt"))
    monkeypatch.setenv("RECAUDIT_SNOWBALL_TARGET", "6")
    monkeypatch.setenv("RECAUDIT_SNOWBALL_K", "5")
    monkeypatch.setenv("RECAUDIT_CLUSTER_ANCHORS", initial[0])
    monkeypatch.setenv("RECAUDIT_MANUAL_ADDITIONS_PATH", str(tmp / "additions.txt"))


# Files opened for reading while a stage's command runs, or None between
# stages. An audit hook sees every open, whichever API the code uses.
_reading: Optional[list[str]] = None


def _record_reads(event, args):
    if event != "open" or _reading is None:
        return
    path, mode, flags = args
    read_only = ("r" in mode and "+" not in mode) if mode else flags & os.O_ACCMODE == os.O_RDONLY
    if read_only and not isinstance(path, int):
        _reading.append(os.path.abspath(os.fsdecode(path)))


sys.addaudithook(_record_reads)


class TestListedInputs:
    """The rerun skip trusts `cli._STAGES` to name every file a stage reads;
    a file read but not listed could change without making the stage stale."""

    def test_every_file_a_stage_reads_is_listed(self, workspace, monkeypatch):
        tmp, cfg = workspace
        out = tmp / "out"
        reads: dict[str, list[str]] = {}

        def recorded(name, command):
            def run_recorded(config, args, paths):
                global _reading
                _reading = reads.setdefault(name, [])
                try:
                    return command(config, args, paths)
                finally:
                    _reading = None

            return run_recorded

        for name, (command, inputs) in list(cli._STAGES.items()):
            monkeypatch.setitem(cli._STAGES, name, (recorded(name, command), inputs))

        labels = tmp / "labels.jsonl"
        stages = [
            ("simulate", ["simulate"]),
            ("harvest-2019-05-01", ["harvest", "--date", "2019-05-01"]),
            ("harvest-2019-05-02", ["harvest", "--date", "2019-05-02"]),
            ("train", ["train"]),
            ("score", ["score"]),
            ("calibrate", ["calibrate", "--labels", str(labels)]),
            ("trends", ["trends"]),
            ("bubble", ["bubble"]),
            ("topics", ["topics"]),
            ("validate", ["validate"]),
            ("snowball", ["snowball"]),
        ]
        for manifest_name, argv in stages:
            if argv[0] == "calibrate":
                labels.write_bytes((out / "ground_truth.jsonl").read_bytes())
            if argv[0] == "trends":
                monkeypatch.setenv("RECAUDIT_TRENDS_CALIBRATED", "true")
            if argv[0] == "snowball":
                _configure_snowball(tmp, out, monkeypatch, ["UCextra1"])
            assert run(cfg, *argv) == 0, argv
            opened = {p for p in reads.pop(argv[0]) if p.startswith(str(tmp))}
            manifest = json.loads((out / "manifests" / f"{manifest_name}.json").read_text())
            listed = {os.path.abspath(p) for p in manifest["inputs"]}
            # A column bundle is a cache of its JSONL file, which is listed.
            opened = {p for p in opened if not (p.endswith(".columns") and p[: -len(".columns")] + ".jsonl" in listed)}
            assert opened <= listed, (argv, sorted(opened - listed))
            assert opened or argv[0] == "simulate", argv


class TestStageTable:
    """Each input a stage declares has its files, and each input with files
    is read by some stage."""

    def test_declared_inputs_are_the_inputs_with_files(self, workspace):
        tmp, cfg = workspace
        files = cli._files(load_config(cfg), argparse.Namespace())
        declared = {name for _, names in cli._STAGES.values() for name in names}
        assert declared <= set(files), sorted(declared - set(files))
        assert set(files) <= declared, sorted(set(files) - declared)

    def test_no_input_or_manifest_names_a_column_bundle(self, workspace, monkeypatch):
        # A bundle is a cache that `store.read_records` rebuilds, so its state
        # must never decide a rerun.
        tmp, cfg = workspace
        out = tmp / "out"
        files = cli._files(load_config(cfg), argparse.Namespace(labels=str(tmp / "labels.jsonl")))
        assert not [path for paths in files.values() for path in paths if path.suffix == ".columns"]
        flow = [["simulate"], *(["harvest", "--date", day] for day in DAYS),
                ["train"], ["score"], ["calibrate"], ["trends"], ["bubble"], ["topics"], ["validate"]]
        for argv in flow:
            assert run(cfg, *argv) == 0, argv
        _configure_snowball(tmp, out, monkeypatch, [])
        assert run(cfg, "snowball") == 0
        manifests = sorted((out / "manifests").glob("*.json"))
        assert len(manifests) == len(flow) + 1
        assert list(out.rglob("*.columns"))
        for path in manifests:
            manifest = json.loads(path.read_text())
            assert not [p for p in [*manifest["inputs"], *manifest["outputs"]] if p.endswith(".columns")], path


# Every error type of the package, with the exit code its place in the
# hierarchy gives it, plus the bare ValueError of a bad option.
EXIT_CODES = [
    (
        cls,
        1 if cls in (errors.ConfigError, errors.OutputWriteError) else 3 if issubclass(cls, errors.FetchError) else 2,
    )
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.RecauditError)
] + [(ValueError, 1)]


class TestErrors:
    @pytest.mark.parametrize("error, code", EXIT_CODES, ids=[cls.__name__ for cls, _ in EXIT_CODES])
    def test_each_error_type_exits_with_its_code(self, workspace, monkeypatch, capsys, error, code):
        _, cfg = workspace

        def stage(config, args, paths):
            raise error("boom")

        monkeypatch.setitem(cli._STAGES, "validate", (stage, ()))
        assert run(cfg, "validate") == code
        assert capsys.readouterr().err == "error: boom\n"

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.txt")]) == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_harvest_without_date_is_usage_error(self, workspace):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest") == 1

    @pytest.mark.parametrize("value", ["2020-13-01", "yesterday"])
    def test_harvest_with_a_bad_date_names_the_option_and_value(self, workspace, capsys, value):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        capsys.readouterr()
        assert run(cfg, "harvest", "--date", value, "--json-errors") == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        assert "--date" in error["message"] and repr(value) in error["message"]
        assert not (tmp / "out" / "snapshots").exists()

    def test_harvest_same_date_skips_when_current_errors_when_stale(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        # Digest-valid outputs: the re-invocation is a resumption, not an error.
        capsys.readouterr()
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        assert "skipping" in capsys.readouterr().out
        # A snapshot that no longer matches its manifest must not be silently
        # replaced: that is the idempotency error.
        snap = out / "snapshots" / "2019-05-01.jsonl"
        snap.write_text(snap.read_text() + "\n")
        assert run(cfg, "harvest", "--date", "2019-05-01") == 2

    def test_harvest_overwrite_allows_redo(self, workspace):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01", "--overwrite") == 0

    def test_json_errors_flag_emits_machine_readable(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        run(cfg, "harvest", "--date", "2019-05-01")
        snap = out / "snapshots" / "2019-05-01.jsonl"
        snap.write_text(snap.read_text() + "\n")
        capsys.readouterr()
        code = run(cfg, "harvest", "--date", "2019-05-01", "--json-errors")
        assert code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "HarvestExistsError"

    @pytest.mark.parametrize("where", ["file", "env"])
    def test_a_value_that_does_not_parse_is_a_usage_error_naming_its_key(
        self, workspace, capsys, monkeypatch, where
    ):
        tmp, cfg = workspace
        if where == "file":
            cfg.write_text(cfg.read_text() + "harvest.k = ten\n")
            place = f"{cfg}:{len(cfg.read_text().splitlines())}"
        else:
            monkeypatch.setenv("RECAUDIT_HARVEST_K", "ten")
            place = "RECAUDIT_HARVEST_K"
        capsys.readouterr()
        assert run(cfg, "simulate") == 1
        assert f"error: {place}: harvest.k: cannot parse 'ten'" in capsys.readouterr().err

    def test_a_bad_bubble_period_is_a_usage_error_naming_key_and_value(self, workspace, capsys, monkeypatch):
        tmp, cfg = workspace
        monkeypatch.setenv("RECAUDIT_BUBBLE_PERIODS", "2019-13-01:2019-05-02")
        capsys.readouterr()
        assert run(cfg, "simulate") == 1  # refused at config load, before any stage runs
        err = capsys.readouterr().err
        assert err.startswith("error: bubble.periods must be ") and "'2019-13-01:2019-05-02'" in err
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize("damage", ["wrongly_typed", "not_utf8"])
    @pytest.mark.parametrize(
        "manifest, argv, code",
        [("simulate", ["simulate"], 0), ("harvest-2019-05-01", ["harvest", "--date", "2019-05-01"], 2)],
        ids=["simulate-reruns", "harvest-refuses-to-replace"],
    )
    def test_a_damaged_manifest_means_the_stage_reruns(self, workspace, capsys, manifest, argv, code, damage):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        path = tmp / "out" / "manifests" / f"{manifest}.json"
        doc = json.loads(path.read_text())
        if damage == "wrongly_typed":
            doc["outputs"] = list(doc["outputs"])
            path.write_text(json.dumps(doc))
        else:
            path.write_bytes(b"\xff" + json.dumps(doc).encode())
        capsys.readouterr()
        assert run(cfg, *argv) == code
        captured = capsys.readouterr()
        assert "skipping" not in captured.out
        if code == 2:  # the stage's own check of a snapshot it cannot show current
            assert "already exists" in captured.err

    def test_a_labeled_count_beyond_the_platform_names_its_key(self, workspace, capsys):
        tmp, cfg = workspace
        cfg.write_text(cfg.read_text() + "sim.labeled_count = 500\n")
        capsys.readouterr()
        assert run(cfg, "simulate", "--json-errors") == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        assert error["message"].startswith("sim.labeled_count = 500: cannot draw a balanced set of 500 ")
        assert not (tmp / "out" / "labeled.jsonl").exists()

    def test_score_before_train_is_usage_error(self, workspace):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        assert run(cfg, "score") == 1  # points at `train` as the missing step

    @pytest.mark.parametrize("argv", [["harvest", "--date", "2019-05-01"], ["snowball"]])
    def test_collecting_before_simulate_is_usage_error(self, workspace, capsys, argv):
        tmp, cfg = workspace
        assert run(cfg, *argv) == 1
        assert "run `simulate` first" in capsys.readouterr().err

    def test_a_missing_labels_file_is_named_without_the_simulate_hint(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        _write_likelihoods(out, 0.5)
        capsys.readouterr()
        assert run(cfg, "calibrate", "--labels", str(tmp / "no-such.jsonl")) == 1
        err = capsys.readouterr().err
        assert f"label file {tmp / 'no-such.jsonl'} does not exist" in err and "simulate" not in err
        # The default label file is simulate's output: its absence keeps the hint.
        (out / "ground_truth.jsonl").unlink()
        assert run(cfg, "calibrate") == 1
        assert "ground_truth.jsonl does not exist; run `simulate` first" in capsys.readouterr().err

    def test_topics_over_a_field_no_video_has_names_the_field(self, workspace, capsys):
        tmp, cfg = workspace
        with cfg.open("a") as fh:
            fh.write("topics.field = transcript\nsim.transcript_missing_rate = 1.0\n")
        for argv in (["simulate"], ["harvest", "--date", "2019-05-01"], ["train"], ["score"]):
            assert run(cfg, *argv) == 0
        capsys.readouterr()
        assert run(cfg, "topics") == 1
        err = capsys.readouterr().err
        assert "topics.field is 'transcript'" in err and "has transcript text" in err

    def test_validate_reports_violations_with_exit_2(self, workspace):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        bad = DailySnapshot(
            date=dt.date(2019, 5, 9),
            edges=edge_columns([make_edge("a", "b", rank=99, day=dt.date(2019, 5, 9))]),
            retained_video_ids=frozenset({"b"}),
        )
        corpus.write_jsonl(out / "snapshots" / "2019-05-09.jsonl", [bad])
        assert run(cfg, "validate") == 2
        report = json.loads((out / "validation.json").read_text())
        assert any("rank 99" in v["message"] for v in report)


class TestOneFilePerDay:
    """A snapshot day in two files would be counted twice, and a live
    harvest's video records are data that `validate` checks too."""

    @staticmethod
    def copy_a_day(tmp, cfg, *argv_after):
        out = tmp / "out"
        for argv in (["simulate"], ["harvest", "--date", "2019-05-01"],
                     ["harvest", "--date", "2019-05-02"], *argv_after):
            assert run(cfg, *argv) == 0
        original = out / "snapshots" / "2019-05-01.jsonl"
        copy = out / "snapshots" / "2019-05-01.bak.jsonl"
        copy.write_bytes(original.read_bytes())
        return original, copy

    def test_a_day_in_two_snapshot_files_is_a_data_error_naming_both(self, workspace, capsys):
        tmp, cfg = workspace
        original, copy = self.copy_a_day(tmp, cfg, ["train"], ["score"])
        for stage in ("score", "trends", "bubble", "topics"):
            capsys.readouterr()
            assert run(cfg, stage) == 2, stage
            err = capsys.readouterr().err
            assert str(original) in err and str(copy) in err, stage

    def test_validate_reports_a_day_in_two_snapshot_files(self, workspace):
        tmp, cfg = workspace
        self.copy_a_day(tmp, cfg)
        assert run(cfg, "validate") == 2
        report = json.loads((tmp / "out" / "validation.json").read_text())
        assert {"kind": "snapshot", "subject": "2019-05-01", "message": "duplicate snapshot date"} in report

    def test_validate_reads_every_harvest_day_video_file(self, workspace):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        assert run(cfg, "validate") == 0
        (snapshot,) = corpus.read_jsonl(out / "snapshots" / "2019-05-01.jsonl", DailySnapshot)
        source = min(e.source_video_id for e in edge_objects(snapshot.edges))
        record = next(v for v in corpus.read_jsonl(out / "videos.jsonl", corpus.VideoRecord)
                      if v.video_id == source)
        day_file = out / "videos" / "2019-05-01.jsonl"
        day_file.parent.mkdir()
        corpus.write_jsonl(day_file, [dataclasses.replace(record, view_count=-5)])
        assert run(cfg, "validate") == 2  # a new input: not skipped as current
        report = json.loads((out / "validation.json").read_text())
        assert {"kind": "video", "subject": source, "message": "view_count -5 < 0"} in report

        # Each day refetches the videos it recommends: an id may recur
        # across the day files, but not within one.
        corpus.write_jsonl(day_file, [record])
        corpus.write_jsonl(out / "videos" / "2019-05-02.jsonl", [record])
        assert run(cfg, "validate") == 0
        corpus.write_jsonl(out / "videos" / "2019-05-02.jsonl", [record, record])
        assert run(cfg, "validate") == 2
        report = json.loads((out / "validation.json").read_text())
        assert report == [{"kind": "video", "subject": source, "message": "duplicate video_id"}]


def _read_json_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestDaysThatDiffer:
    """Every simulated day has the same edges, so a reader that handed one
    day another day's edges would leave every golden unchanged. Here the
    three days differ, and each report is checked day by day against an
    oracle computed with plain JSON from the snapshot files."""

    def test_reports_follow_each_day_s_own_edges(self, workspace, monkeypatch):
        tmp, cfg = workspace
        out = tmp / "out"
        days = ("2019-05-01", "2019-05-02", "2019-05-03")
        assert run(cfg, "simulate") == 0
        for day in days:
            assert run(cfg, "harvest", "--date", day) == 0

        # Day 2 keeps every third of its edges. Day 3 holds other edges between
        # existing videos: the day's sources recommend only positive videos,
        # some of which no other day recommends.
        snaps = {day: out / "snapshots" / f"{day}.jsonl" for day in days}
        second = json.loads(snaps[days[1]].read_text())
        second["edges"] = second["edges"][::3]
        third = json.loads(snaps[days[2]].read_text())
        sources = sorted({e["source_video_id"] for e in third["edges"]})
        positives = [d["video_id"] for d in _read_json_lines(out / "ground_truth.jsonl") if d["label"] == 1]
        third["edges"] = [
            {"date": days[2], "rank": rank, "source_video_id": src, "recommended_video_id": vid}
            for i, src in enumerate(sources)
            for rank, vid in enumerate(positives[i::len(sources)][:5], 1)
        ]
        for day, doc in ((days[1], second), (days[2], third)):
            snaps[day].write_text(json.dumps(doc, sort_keys=True) + "\n")
        edges = {day: json.loads(snaps[day].read_text())["edges"] for day in days}
        assert len(edges[days[1]]) < len(edges[days[0]])

        assert run(cfg, "train") == 0
        assert run(cfg, "score") == 0
        likes = {d["video_id"]: d["likelihood"] for d in _read_json_lines(out / "likelihoods.jsonl")}
        assert set(likes) == {
            e[end] for day in days for e in edges[day] for end in ("source_video_id", "recommended_video_id")
        }
        # A threshold between the videos' likelihoods, so that the share of
        # recommendations above it differs from day to day.
        threshold = sorted(likes.values())[len(likes) // 2]
        assert run(cfg, "trends", "--threshold", repr(threshold)) == 0
        assert run(cfg, "bubble", "--threshold", repr(threshold)) == 0

        def raw(day_edges):
            scored = [likes[e["recommended_video_id"]] for e in day_edges
                      if likes.get(e["recommended_video_id"]) is not None]
            return sum(like for like in scored if like > threshold) / len(scored) if scored else None

        def coverage(day_edges):
            return sum(likes.get(e["recommended_video_id"]) is not None for e in day_edges) / len(day_edges)

        rows = [line.split(",") for line in (out / "trends.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == list(days)
        for row, day in zip(rows, days):
            assert float(row[1]) == pytest.approx(raw(edges[day])), day
            assert float(row[3]) == pytest.approx(coverage(edges[day])), day
        assert abs(float(rows[2][1]) - float(rows[0][1])) > 0.2  # the days really differ

        bins = load_config(cfg).bubble_bins
        expected = []
        for day in days:
            for b in range(bins):
                cell = [e for e in edges[day]
                        if likes.get(e["source_video_id"]) is not None
                        and likes.get(e["recommended_video_id"]) is not None
                        and min(int(likes[e["source_video_id"]] * bins), bins - 1) == b]
                expected.append((day, day, raw(cell) if cell else None, len(cell)))
        got = [
            (start, end, float(proportion) if proportion else None, int(count))
            for start, end, _, _, proportion, count in
            (line.split(",") for line in (out / "bubble.csv").read_text().splitlines()[1:])
        ]
        assert [row[:2] for row in got] == [row[:2] for row in expected]
        for g, e in zip(got, expected):
            assert g[3] == e[3] and g[2] == pytest.approx(e[2]), g

        # Each topic's share of the edges recommending a flagged video, with
        # the topic of each video taken from the model `topics` fits.
        models = []
        fit = cli.fit_topic_model

        def fit_and_keep(*args, **kwargs):
            models.append(fit(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(cli, "fit_topic_model", fit_and_keep)
        assert run(cfg, "topics", "--threshold", repr(threshold)) == 0
        topic_of = models[0].assignments()
        counts = [0] * load_config(cfg).topics_k
        for day in days:
            for e in edges[day]:
                if likes.get(e["recommended_video_id"]) is not None and likes[e["recommended_video_id"]] > threshold:
                    counts[topic_of[e["recommended_video_id"]]] += 1
        rows = json.loads((out / "topics.json").read_text())
        assert sorted(row["topic"] for row in rows) == list(range(len(counts)))
        for row in rows:
            assert row["pct_recommendations"] == pytest.approx(100 * counts[row["topic"]] / sum(counts)), row


def _write_likelihoods(out, second):
    """Write ``likelihoods.jsonl`` with 0.5 for each video the 2019-05-01
    snapshot recommends, but ``second`` on line 2, as plain JSON so that any
    value gets in. Returns its path."""
    (snapshot,) = corpus.read_jsonl(out / "snapshots" / "2019-05-01.jsonl", DailySnapshot)
    docs = [
        {"video_id": vid, "likelihood": 0.5}
        for vid in sorted({e.recommended_video_id for e in edge_objects(snapshot.edges)})
    ]
    docs[1]["likelihood"] = second
    path = out / "likelihoods.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    return path


_MISSING = object()


def _edit_line(path, number, field, value):
    """Set ``field`` of the JSON object on line ``number`` of ``path`` to
    ``value``, or delete it when ``value`` is ``_MISSING``."""
    lines = path.read_text().splitlines()
    doc = json.loads(lines[number - 1])
    if value is _MISSING:
        del doc[field]
    else:
        doc[field] = value
    lines[number - 1] = json.dumps(doc, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


class TestCorruptArtifacts:
    @pytest.mark.parametrize("damage", ["truncate", "drop_field"])
    def test_corrupt_snapshot_line_is_a_data_error_naming_the_file(self, workspace, capsys, damage):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        snap = tmp / "out" / "snapshots" / "2019-05-01.jsonl"
        line = snap.read_text().splitlines()[0]
        if damage == "truncate":
            line = line[: len(line) // 2]
        else:
            doc = json.loads(line)
            del doc["date"]
            line = json.dumps(doc)
        snap.write_text(line + "\n")
        for stage in ("validate", "trends"):
            capsys.readouterr()
            assert run(cfg, stage) == 2
            assert f"{snap}:1:" in capsys.readouterr().err


    @pytest.mark.parametrize("damage", ["not_an_object", "no_rank", "bad_date"])
    def test_a_bad_edge_is_a_data_error_naming_the_line(self, workspace, capsys, damage):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        _write_likelihoods(out, 0.5)
        snap = out / "snapshots" / "2019-05-01.jsonl"
        doc = json.loads(snap.read_text())
        edge = doc["edges"][3]
        if damage == "not_an_object":
            doc["edges"][3] = list(edge.values())
        elif damage == "no_rank":
            del edge["rank"]
        else:
            edge["date"] = "2019-05-32"
        snap.write_text(json.dumps(doc, sort_keys=True) + "\n")
        for stage in ("trends", "bubble", "validate"):
            capsys.readouterr()
            assert run(cfg, stage) == 2, stage
            assert f"{snap}:1:" in capsys.readouterr().err, stage

    def test_wrongly_typed_likelihood_is_a_data_error_naming_the_line(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        assert run(cfg, "train") == 0
        assert run(cfg, "score") == 0
        path = out / "likelihoods.jsonl"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["likelihood"] = "high"
        lines[1] = json.dumps(doc, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(cfg, "trends") == 2
        err = capsys.readouterr().err
        assert f"{path}:2:" in err and "likelihood" in err

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan"), float("inf")])
    def test_likelihood_outside_unit_interval_is_a_data_error_naming_the_line(
        self, workspace, capsys, bad
    ):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        path = _write_likelihoods(out, bad)
        for stage in ("calibrate", "trends", "bubble"):
            capsys.readouterr()
            assert run(cfg, stage) == 2
            assert f"{path}:2:" in capsys.readouterr().err

    def test_a_flagged_video_in_no_video_file_is_a_data_error_naming_it(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        path = _write_likelihoods(out, 0.5)
        with path.open("a") as fh:
            fh.write(json.dumps({"video_id": "vid9999x999", "likelihood": 0.9}) + "\n")
        capsys.readouterr()
        assert run(cfg, "topics") == 2
        err = capsys.readouterr().err
        assert f"error: {path}: " in err and "vid9999x999" in err

    def test_negative_view_count_in_trends_is_a_data_error(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        _write_likelihoods(out, 0.5)
        path = out / "videos.jsonl"
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        for doc in docs:
            doc["view_count"] = -1
        path.write_text("".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs))
        capsys.readouterr()
        assert run(cfg, "trends") == 2
        assert "negative view count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, field, value",
        [
            ("harvest", "video_id", _MISSING),
            ("harvest", "channel_id", 7),
            ("snowball", "channel_id", _MISSING),
            ("snowball", "video_id", None),
            ("trends", "view_count", "1000"),
        ],
        ids=["harvest-no-video_id", "harvest-int-channel_id", "snowball-no-channel_id",
             "snowball-null-video_id", "trends-string-view_count"],
    )
    def test_a_field_a_stage_reads_is_still_checked(self, workspace, monkeypatch, capsys, stage, field, value):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        _write_likelihoods(out, 0.5)
        _configure_snowball(tmp, out, monkeypatch, [])
        path = out / "videos.jsonl"
        _edit_line(path, 3, field, value)
        capsys.readouterr()
        argv = ["harvest", "--date", "2019-05-02"] if stage == "harvest" else [stage]
        assert run(cfg, *argv) == 2
        err = capsys.readouterr().err
        assert f"{path}:3:" in err and field in err

    def test_a_bad_comment_stops_the_stages_that_read_comments_only(self, workspace, capsys, deleted=False):
        # Collection decodes each video's id, channel and views alone, also
        # when it rebuilds their bundle; the comments are checked by score,
        # topics and validate, which read them.
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        assert run(cfg, "train") == 0
        assert run(cfg, "score") == 0
        path = out / "videos.jsonl"
        doc = json.loads(path.read_text().splitlines()[1])
        doc["comments"][0]["attribute_scores"][0] = 1.5
        _edit_line(path, 2, "comments", doc["comments"])
        if deleted:
            store.columns_path(path).unlink()
        assert run(cfg, "harvest", "--date", "2019-05-02") == 0
        assert run(cfg, "trends") == 0
        for stage in ("score", "topics", "validate"):
            capsys.readouterr()
            assert run(cfg, stage) == 2, stage
            err = capsys.readouterr().err
            assert f"{path}:2:" in err and "attribute scores outside [0, 1]" in err, stage

    def test_a_bad_comment_stops_the_same_stages_with_the_video_bundle_deleted(self, workspace, capsys):
        self.test_a_bad_comment_stops_the_stages_that_read_comments_only(workspace, capsys, deleted=True)

    @pytest.mark.parametrize(
        "state",
        [
            '{"video_dates": {"vid0000x000": "2020-13-45"}, "comments_disabled": []}',
            '{"comments_disabled": []}',
            '{"video_dates": {"vid0000x000": "20',
        ],
        ids=["bad_date", "no_video_dates", "truncated"],
    )
    def test_damaged_platform_state_is_a_data_error_naming_the_file(self, workspace, capsys, state):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        path = tmp / "out" / "platform_state.json"
        path.write_text(state)
        capsys.readouterr()
        assert run(cfg, "harvest", "--date", "2019-05-01") == 2
        assert f"{path}:" in capsys.readouterr().err

    def test_bytes_that_are_not_utf8_are_a_data_error_naming_the_line(self, workspace, capsys):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        assert run(cfg, "train") == 0
        path = tmp / "out" / "videos.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:3] + b"\xff" + lines[2][4:]
        path.write_bytes(b"".join(lines))
        for argv in (["harvest", "--date", "2019-05-02"], ["score"]):
            capsys.readouterr()
            assert run(cfg, *argv) == 2, argv
            assert f"error: {path}:3: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_a_seeds_file_that_is_not_utf8_is_a_data_error_naming_the_line(self, workspace, capsys):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        path = tmp / "out" / "seeds.txt"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"\xff" + lines[1]
        path.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert run(cfg, "harvest", "--date", "2019-05-01") == 2
        assert f"error: {path}:2: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, key", [("initial.txt", "snowball.seeds_path"), ("additions.txt", "manual.additions_path")]
    )
    def test_a_user_seed_list_that_is_not_utf8_is_a_usage_error_naming_its_key(
        self, workspace, monkeypatch, capsys, name, key
    ):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        _configure_snowball(tmp, out, monkeypatch, ["UCextra1"])
        path = tmp / name
        path.write_bytes(path.read_bytes() + b"UC\xffbad\n")
        line = len(path.read_bytes().splitlines())
        capsys.readouterr()
        assert run(cfg, "snowball") == 1
        assert f"error: {key}: {path}:{line}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_damaged_ensemble_header_is_a_data_error_naming_the_file(self, workspace, capsys):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        assert run(cfg, "train") == 0
        path = tmp / "out" / "ensemble.bin"
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        doc = json.loads(header)
        for damaged in (
            {k: v for k, v in doc.items() if k != "payload_size"},
            [1, 2],
            {**doc, "schema_version": "1"},
        ):
            path.write_bytes(magic + b"\n" + json.dumps(damaged).encode() + b"\n" + payload)
            capsys.readouterr()
            assert run(cfg, "score", "--overwrite") == 2, damaged
            assert f"error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), 1.5])
    def test_attribute_score_outside_unit_interval_is_a_data_error(self, workspace, capsys, score):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        assert run(cfg, "train") == 0
        path = out / "labeled.jsonl"
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        for doc in docs:
            doc["video"]["comments"][0]["attribute_scores"][0] = score
        path.write_text("".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs))
        capsys.readouterr()
        assert run(cfg, "train", "--overwrite") == 2
        err = capsys.readouterr().err
        assert f"{path}:1:" in err and "attribute scores" in err

    def test_non_binary_ground_truth_label_is_a_data_error_naming_the_line(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        assert run(cfg, "train") == 0
        assert run(cfg, "score") == 0
        path = out / "ground_truth.jsonl"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["label"] = 2
        lines[0] = json.dumps(doc, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(cfg, "calibrate") == 2
        err = capsys.readouterr().err
        assert f"{path}:1:" in err and "label 2" in err

    def test_non_binary_training_label_is_a_data_error_naming_the_label(self, workspace, capsys):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        path = out / "labeled.jsonl"
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        docs[0]["label"] = 2
        path.write_text("".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs))
        capsys.readouterr()
        assert run(cfg, "train") == 2
        assert "labels must be 0 or 1, got [2]" in capsys.readouterr().err
        # The record itself still loads, so that validate can report it.
        assert run(cfg, "validate") == 2
        report = json.loads((out / "validation.json").read_text())
        assert any(v["kind"] == "labeled" and "label 2" in v["message"] for v in report)


class TestCollectionDecodes:
    def test_collection_stages_build_no_comment(self, workspace, monkeypatch):
        # snowball, harvest and trends read a video's id, channel and views
        # only; a full VideoRecord decode would build every comment again.
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        built = []
        post_init = corpus.Comment.__post_init__

        def counted(comment):
            built.append(comment)
            post_init(comment)

        monkeypatch.setattr(corpus.Comment, "__post_init__", counted)
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        _write_likelihoods(out, 0.5)
        assert run(cfg, "trends") == 0
        _configure_snowball(tmp, out, monkeypatch, [])
        assert run(cfg, "snowball") == 0
        assert built == []
        next(corpus.read_jsonl(out / "videos.jsonl", corpus.VideoRecord))
        assert built, "the counter must see a full decode"


class TestEdgeObjects:
    """Edges are columns from harvest to report: no stage builds an object
    per edge. Only a bad edge is decoded as one, to name its fault."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        init = corpus.RecommendationEdge.__init__

        def counted(edge, *args, **kwargs):
            built.append(edge)
            init(edge, *args, **kwargs)

        monkeypatch.setattr(corpus.RecommendationEdge, "__init__", counted)
        return built

    def test_no_stage_builds_an_edge_object(self, workspace, built):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        for day in ("2019-05-01", "2019-05-02"):
            assert run(cfg, "harvest", "--date", day) == 0
        for stage in ("train", "score", "trends", "bubble", "topics", "validate"):
            assert run(cfg, stage) == 0, stage
        assert built == []

    def test_a_bad_edge_is_decoded_as_an_object(self, tmp_path, built):
        path = tmp_path / "2019-05-01.jsonl"
        good = '{"date": "2019-05-01", "rank": 1, "recommended_video_id": "v2", "source_video_id": "v1"}'
        path.write_text('{"date": "2019-05-01", "edges": [' + good + ", 7]}\n", encoding="utf-8")
        with pytest.raises(errors.ArtifactCorruptError, match=f"{path}:1: "):
            list(corpus.read_jsonl(path, DailySnapshot))
        assert len(built) == 1, "the counter must see the error path's object decode"


class TestDateOption:
    @pytest.mark.parametrize("command", sorted(set(cli._STAGES) - {"harvest"}))
    def test_only_harvest_accepts_date(self, workspace, capsys, command):
        tmp, cfg = workspace
        assert run(cfg, command, "--date", "2019-01-01") == 1
        assert "--date" in capsys.readouterr().err
        assert not (tmp / "out" / "manifests").exists()


class TestCrashSafety:
    def test_killed_train_leaves_no_helper_and_a_free_lock(self, workspace):
        """SIGKILL a `train` mid-fit: every process it started ends within
        2 s, so the flock they inherited is free and the next `train` runs."""
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        slow = tmp / "slow.txt"
        slow.write_text(cfg.read_text().replace("ensemble.repeats = 2", "ensemble.repeats = 1000"))
        lock = tmp / "out" / "manifests" / "train.json.lock"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "recaudit.cli", "train", "--config", str(slow)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,  # its process group then holds it and its helpers
        )
        try:
            def group():
                return {pid for pid, state, _, pgrp in processes() if pgrp == proc.pid and state != "Z"}

            deadline = time.monotonic() + 60
            want = 2 if available_cpus() > 1 else 1  # train and its helper
            while not (lock.exists() and len(group()) >= want):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            time.sleep(0.5)  # into the fit
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 2
            while group() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert group() == set()
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert lock.exists()  # left by the killed run, and taken over
        assert run(cfg, "train") == 0
        assert not lock.exists()


class TestDefaultConfig:
    def test_collection_runs_with_no_config(self, tmp_path, monkeypatch):
        for name in list(os.environ):
            if name.startswith("RECAUDIT_"):
                monkeypatch.delenv(name)
        assert main(["simulate", "--out", str(tmp_path)]) == 0
        assert main(["harvest", "--date", "2019-05-01", "--out", str(tmp_path)]) == 0
        assert main(["validate", "--out", str(tmp_path)]) == 0


class TestCalibratedTrends:
    def test_calibrated_mode_reuses_calibration_curve(self, workspace, monkeypatch):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        assert run(cfg, "train") == 0
        assert run(cfg, "score") == 0
        assert run(cfg, "calibrate") == 0
        monkeypatch.setenv("RECAUDIT_TRENDS_CALIBRATED", "true")
        assert run(cfg, "trends") == 0
        summary = json.loads((out / "trends_summary.json").read_text())
        assert summary["calibrated"] is True

    @pytest.mark.parametrize(
        "row",
        [
            "0.2,0.4,abc",
            "0.2,0.4,3,2,1.5,0.1,0.9",
            "0.2,0.4,3,2,nan,0.1,0.9",
            "0.2,0.4,3,2,0.6,-0.1,0.9",
            "0.2,0.4,3,2,0.6,0.1,inf",
            "0.2,0.4,3,2,0.6\udcff,0.1,0.9",
        ],
        ids=["short", "proportion-above-1", "proportion-nan", "ci-low-below-0", "ci-high-inf", "not-utf8"],
    )
    def test_malformed_calibration_row_is_a_data_error_naming_the_line(self, workspace, monkeypatch, capsys, row):
        tmp, cfg = workspace
        for argv in (["simulate"], ["harvest", "--date", "2019-05-01"], ["train"], ["score"], ["calibrate"]):
            assert run(cfg, *argv) == 0
        path = tmp / "out" / "calibration.csv"
        lines = path.read_text().splitlines()
        lines[2] = row
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        monkeypatch.setenv("RECAUDIT_TRENDS_CALIBRATED", "1")
        capsys.readouterr()
        assert run(cfg, "trends") == 2
        assert f"{path}:3: " in capsys.readouterr().err

    def test_calibrated_mode_requires_calibration_first(self, workspace, monkeypatch):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", "2019-05-01") == 0
        assert run(cfg, "train") == 0
        assert run(cfg, "score") == 0
        monkeypatch.setenv("RECAUDIT_TRENDS_CALIBRATED", "true")
        assert run(cfg, "trends") == 1


class TestSnowballCommand:
    def test_snowball_writes_channels_and_clusters(self, workspace, monkeypatch):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        # Snowball from the first three simulated channels.
        initial = (out / "seeds.txt").read_text().splitlines()[:3]
        seeds_file = tmp / "initial.txt"
        seeds_file.write_text("\n".join(initial) + "\n")
        monkeypatch.setenv("RECAUDIT_SNOWBALL_SEEDS_PATH", str(seeds_file))
        monkeypatch.setenv("RECAUDIT_SNOWBALL_TARGET", "6")
        monkeypatch.setenv("RECAUDIT_SNOWBALL_K", "5")
        assert run(cfg, "snowball") == 0
        channels = (out / "snowball" / "channels.txt").read_text().splitlines()
        assert len(channels) == 6
        assert channels[:3] == initial
        clusters = json.loads((out / "snowball" / "clusters.json").read_text())
        assert "communities" in clusters and "modularity" in clusters


# sha256 of what `simulate` writes under CFG. They move if the simulator draws
# anything differently, or if numpy's PCG64 `Generator` stream under it
# changes, even where tests/test_sources.py's per-call reference moves too.
SIMULATE_DIGESTS = {
    "channels.jsonl": "b067a76982a167967b2997e14dcd087ca2d16a9ec5da92fdfe9ba5b2f1dfaa5e",
    "videos.jsonl": "e980cb573b47d39c9951b22b1a0fc008c9f636bbb77e19f8f8214f5734aba40c",
    "ground_truth.jsonl": "13841a426b820c37d34417f2565e4bde3a33c7ad02e8a14a4f88408980399042",
    "labeled.jsonl": "131f94aac823fc42414440c5ed8e3d9ef1c6be59dc5b2ea4e9810e06d53eeade",
    "platform_state.json": "7ad420c820102a8200c1c2be9007e76de9d136434a8bef3088926e9c0845888d",
}


class TestSimulateOutput:
    def test_simulate_output_is_byte_stable(self, workspace):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        digests = {
            name: hashlib.sha256((tmp / "out" / name).read_bytes()).hexdigest()
            for name in SIMULATE_DIGESTS
        }
        assert digests == SIMULATE_DIGESTS, "simulate output for a fixed seed changed"

    def test_simulate_output_under_a_compensated_builtin_sum(self, workspace, compensated_builtin_sum):
        # CPython 3.12's float `sum` writes the same bytes.
        self.test_simulate_output_is_byte_stable(workspace)
        # The lexicon attribute scores alone are many float sums.
        assert compensated_builtin_sum.count(True) > 1000


    def test_disabled_comments_reach_the_records_and_the_ensemble(self, workspace):
        tmp, cfg = workspace
        out = tmp / "out"
        with cfg.open("a") as fh:
            fh.write("sim.comments_disabled_rate = 1.0\n")
        for argv in (["simulate"], ["harvest", "--date", "2019-05-01"], ["train"], ["score"]):
            assert run(cfg, *argv) == 0
        assert not any(video["comments"] for video in _read_json_lines(out / "videos.jsonl"))
        assert not any(example["video"]["comments"] for example in _read_json_lines(out / "labeled.jsonl"))
        weights = json.loads((out / "ensemble_weights.json").read_text())
        assert weights["comments"] == weights["attributes"] == 0.0


# sha256 of each snapshot that three harvests write after `simulate` under
# CFG: they pin the harvest's edges, retained set and coverage, and the
# snapshot writer's bytes.
HARVEST_DIGESTS = {
    "2019-05-01.jsonl": "7d5d883363db30f32bc4ab3a05201c4904f347b7151ac41bfde85ca0e9da380c",
    "2019-05-02.jsonl": "b8525dae799e1f12c711277f3c6676ec415ae8e897affa4624ec83bbed8159a0",
    "2019-05-03.jsonl": "92adafb6be2d128c3c36e72a86c69af529e033e192a964846c40a7c170064e53",
}


class TestHarvestOutput:
    def test_harvest_output_is_byte_stable(self, workspace):
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        for name in HARVEST_DIGESTS:
            assert run(cfg, "harvest", "--date", name.removesuffix(".jsonl")) == 0
        digests = {
            name: hashlib.sha256((tmp / "out" / "snapshots" / name).read_bytes()).hexdigest()
            for name in HARVEST_DIGESTS
        }
        assert digests == HARVEST_DIGESTS, "harvest output for a fixed seed changed"


SCORED_DIGESTS = {
    "likelihoods.jsonl": "b3ddbebcb7082f39cdf3faecae5a62567d017eb67a79a99d7eb7ff6023edbda3",
    "trends.csv": "62006a5f8b04be87dc07e9ad33a2979a767e79fb7a90dd309e3c9b08e6195119",
    "bubble.csv": "7ddd6a3dc725fa032661dbfed308661ccb1a062cc934f9d992139c657342eb23",
    "topics.json": "982919a4c82f7be14b0ff71159baae519e42f9c7cdea42376dd84caf9366e289",
}


class TestScoredOutput:
    def test_score_and_report_outputs_are_byte_stable(self, workspace):
        # The likelihoods pin the text models' scoring bit for bit; the
        # reports pin everything computed from them.
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        for day in ("2019-05-01", "2019-05-02", "2019-05-03"):
            assert run(cfg, "harvest", "--date", day) == 0
        for stage in ("train", "score", "trends", "bubble", "topics"):
            assert run(cfg, stage) == 0
        digests = {
            name: hashlib.sha256((tmp / "out" / name).read_bytes()).hexdigest()
            for name in SCORED_DIGESTS
        }
        assert digests == SCORED_DIGESTS, "scored output for a fixed seed changed"

    def test_scored_output_under_a_compensated_builtin_sum(self, workspace, compensated_builtin_sum):
        # CPython 3.12's float `sum` writes the same bytes.
        self.test_score_and_report_outputs_are_byte_stable(workspace)
        assert compensated_builtin_sum.count(True) > 1000

    def test_score_on_two_cpus_writes_the_same_bytes(self, workspace, monkeypatch):
        # Batches of 16 videos, so that `score` spreads its videos over a
        # helper process as well as this one.
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        for day in ("2019-05-01", "2019-05-02", "2019-05-03"):
            assert run(cfg, "harvest", "--date", day) == 0
        assert run(cfg, "train") == 0
        helpers, start = [], parallel._start_helper
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        monkeypatch.setattr(ensemble, "_VIDEO_BATCH", 16)
        monkeypatch.setattr(parallel, "_start_helper", lambda *args: helpers.append(args[1]) or start(*args))
        assert run(cfg, "score") == 0
        assert len(helpers) == 1 and helpers[0]  # one helper, with a share of batches
        for stage in ("trends", "bubble", "topics"):
            assert run(cfg, stage) == 0
        assert _digests(tmp / "out", SCORED_DIGESTS) == SCORED_DIGESTS


class TestSeedOverride:
    def test_seed_flag_reaches_simulator(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CFG.format(out=tmp_path / "a"))
        cfg2 = tmp_path / "cfg2.txt"
        cfg2.write_text(CFG.format(out=tmp_path / "b"))
        assert main(["simulate", "--config", str(cfg), "--seed", "99"]) == 0
        assert main(["simulate", "--config", str(cfg2), "--seed", "100"]) == 0
        a = (tmp_path / "a" / "videos.jsonl").read_text()
        b = (tmp_path / "b" / "videos.jsonl").read_text()
        assert a != b


DAYS = tuple(name.removesuffix(".jsonl") for name in HARVEST_DIGESTS)


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


class TestParsedOnce:
    """Each snapshot day and the simulator's video file is parsed once in the
    workspace flow: the stage that writes it writes its column bundle, later
    stages read the bundle, and `validate`, the one full check of every
    file, decodes every file."""

    @staticmethod
    def decodes(workspace, monkeypatch, deleted=()):
        """The flow's `corpus.read_jsonl` calls, counted by (stage, file,
        record type), with the ``deleted`` bundles removed as soon as they
        are written. The reports must keep their bytes."""
        tmp, cfg = workspace
        out = tmp / "out"
        stage = [None]
        seen = collections.Counter()
        read = corpus.read_jsonl

        def counted(path, cls, data=None):
            seen[stage[0], Path(path).relative_to(out).as_posix(), cls] += 1
            return read(path, cls, data)

        for module in (corpus, store):
            monkeypatch.setattr(module, "read_jsonl", counted)
        flow = [["simulate"], *(["harvest", "--date", day] for day in DAYS),
                ["train"], ["score"], ["trends"], ["bubble"], ["topics"], ["validate"]]
        for argv in flow:
            stage[0] = argv[0]
            assert run(cfg, *argv) == 0, argv
            for name in deleted:
                (out / name).unlink(missing_ok=True)
        assert _digests(out, SCORED_DIGESTS) == SCORED_DIGESTS
        stage[0] = "snowball"
        _configure_snowball(tmp, out, monkeypatch, [])
        assert run(cfg, "snowball") == 0
        return seen

    def test_only_validate_decodes_a_day_and_no_stage_decodes_video_keys_or_views(self, workspace, monkeypatch):
        seen = self.decodes(workspace, monkeypatch)
        days = {key: n for key, n in seen.items() if key[1].startswith("snapshots/")}
        assert days == {("validate", f"snapshots/{day}.jsonl", DailySnapshot): 1 for day in DAYS}
        assert not [key for key in seen if key[2] is corpus.VideoKey]

    def test_every_reader_decodes_a_file_whose_bundle_is_gone(self, workspace, monkeypatch):
        seen = self.decodes(workspace, monkeypatch, deleted=("videos.columns", f"snapshots/{DAYS[1]}.columns"))
        days = {key: n for key, n in seen.items() if key[1].startswith("snapshots/")}
        assert days == {
            (stage, f"snapshots/{day}.jsonl", DailySnapshot): 1
            for day in DAYS
            for stage in (("score", "trends", "bubble", "topics", "validate") if day == DAYS[1] else ("validate",))
        }
        projections = {key: n for key, n in seen.items() if key[2] is corpus.VideoKey}
        assert projections == {
            ("harvest", "videos.jsonl", corpus.VideoKey): len(DAYS),
            ("trends", "videos.jsonl", corpus.VideoKey): 1,
            ("snowball", "videos.jsonl", corpus.VideoKey): 1,
        }

    def test_no_harvest_or_snowball_decodes_a_label(self, workspace, monkeypatch):
        seen = self.decodes(workspace, monkeypatch)
        assert not [key for key in seen if key[1] == "ground_truth.jsonl"]

    def test_harvest_and_snowball_decode_the_labels_when_their_bundle_is_gone(self, workspace, monkeypatch):
        seen = self.decodes(workspace, monkeypatch, deleted=("ground_truth.columns",))
        labels = {key: n for key, n in seen.items() if key[1] == "ground_truth.jsonl"}
        assert labels == {("harvest", "ground_truth.jsonl", store._Label): len(DAYS),
                          ("snowball", "ground_truth.jsonl", store._Label): 1}


class TestHashedOnce:
    def test_score_hashes_each_file_once(self, workspace, monkeypatch):
        """A run of `score` hashes each file it reads or writes once, and so
        does the rerun that finds it current: its rerun check, the bundles'
        key checks and its manifest share each digest."""
        tmp, cfg = workspace
        assert run(cfg, "simulate") == 0
        for day in DAYS:
            assert run(cfg, "harvest", "--date", day) == 0
        assert run(cfg, "train") == 0
        hashed, real = collections.Counter(), store.sha256_file
        monkeypatch.setattr(store, "sha256_file", lambda path: hashed.update([str(path)]) or real(path))
        for _ in range(2):  # the run, then the rerun that skips
            hashed.clear()
            assert run(cfg, "score") == 0
            manifest = json.loads((tmp / "out" / "manifests" / "score.json").read_text())
            assert hashed == {path: 1 for path in [*manifest["inputs"], *manifest["outputs"]]}
        assert any(path.endswith(".jsonl") and "snapshots" in path for path in hashed)


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _flip_last_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01  # the payload's last byte
    path.write_bytes(bytes(data))


BUNDLE_DAMAGE = {
    "truncated": _truncate,
    "one payload byte flipped": _flip_last_byte,
    "another kind": lambda path: store.save_bundle(path, "ensemble", {}, {}),
    "missing, as in a workspace made before bundles": Path.unlink,
}


class TestColumnFallbacks:
    """A column bundle is a cache: a damaged or missing one costs one decode
    of its file, by the next stage that reads it, which rebuilds it; a
    damaged one is named in one warning. (A stale one, written for other
    bytes than its file holds, is covered by `TestDaysThatDiffer`, which
    rewrites days after their harvest.)"""

    @pytest.mark.parametrize("damage", BUNDLE_DAMAGE)
    def test_the_outputs_keep_their_bytes(self, workspace, caplog, damage):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        bundles = {out / "videos.columns": (out / "videos.columns").read_bytes()}
        BUNDLE_DAMAGE[damage](out / "videos.columns")
        for day in DAYS:
            assert run(cfg, "harvest", "--date", day) == 0
        for day in DAYS:
            bundle = out / "snapshots" / f"{day}.columns"
            bundles[bundle] = bundle.read_bytes()
            BUNDLE_DAMAGE[damage](bundle)
        for stage in ("train", "score", "trends", "bubble", "topics"):
            assert run(cfg, stage) == 0, stage
        assert _digests(out / "snapshots", HARVEST_DIGESTS) == HARVEST_DIGESTS
        assert _digests(out, SCORED_DIGESTS) == SCORED_DIGESTS
        assert {path: path.read_bytes() for path in bundles} == bundles
        warnings = [r.getMessage() for r in caplog.records if r.name == "recaudit.store"]
        if damage.startswith("missing"):
            assert warnings == []
        else:  # the first harvest for the videos, then `score` for each day
            assert {path: sum(str(path) in w for w in warnings) for path in bundles} == dict.fromkeys(bundles, 1)
            assert len(warnings) == len(bundles)

    def test_bytes_after_the_payload_are_named(self, workspace, caplog):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        bundle = out / "ground_truth.columns"
        written = bundle.read_bytes()
        bundle.write_bytes(written + b"x")
        caplog.clear()
        assert run(cfg, "harvest", "--date", DAYS[0]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.name == "recaudit.store"]
        assert warnings == [f"{bundle}: 1 byte(s) after its payload; rebuilding it from {out / 'ground_truth.jsonl'}"]
        assert bundle.read_bytes() == written

    def test_a_rebuild_that_cannot_be_written_is_a_warning(self, workspace, monkeypatch, caplog):
        # As for a snapshot archive kept read-only: the stage decodes the
        # day, warns that its bundle could not be written, and goes on.
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        for day in DAYS:
            assert run(cfg, "harvest", "--date", day) == 0
        assert run(cfg, "train") == 0
        bundles = [out / "snapshots" / f"{day}.columns" for day in DAYS]
        for bundle in bundles:
            bundle.unlink()

        def refuse(*args):
            raise PermissionError("read-only file system")

        monkeypatch.setattr(store, "save_columns", refuse)
        for stage in ("score", "trends", "bubble", "topics"):
            caplog.clear()
            assert run(cfg, stage) == 0, stage
            warnings = [r for r in caplog.records if r.name == "recaudit.store"]
            assert all(r.levelname == "WARNING" for r in warnings), stage
            messages = [r.getMessage() for r in warnings]
            assert [sum(str(bundle) in m for m in messages) for bundle in bundles] == [1] * len(DAYS), stage
            assert len(messages) == len(DAYS), stage
        assert _digests(out, SCORED_DIGESTS) == SCORED_DIGESTS
        assert not [bundle for bundle in bundles if bundle.exists()]


class TestCrashBetweenWrites:
    def test_a_day_whose_bundle_was_not_written_is_decoded(self, workspace, monkeypatch, caplog, capsys):
        # As for a disk that fills between the day's file and its bundle: the
        # bundle is a cache, so harvest warns, records the day and exits 0.
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        for day in DAYS[:-1]:
            assert run(cfg, "harvest", "--date", day) == 0

        def crash(*args, **kwargs):
            raise OSError("no space left for the bundle")

        snap = out / "snapshots" / f"{DAYS[-1]}.jsonl"
        caplog.clear()
        with monkeypatch.context() as patched:
            patched.setattr(store, "save_columns", crash)
            assert run(cfg, "harvest", "--date", DAYS[-1]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.name == "recaudit.store"]
        assert len(warnings) == 1
        assert str(store.columns_path(snap)) in warnings[0] and "no space left" in warnings[0]
        assert (out / "manifests" / f"harvest-{DAYS[-1]}.json").exists()
        assert _digests(out / "snapshots", HARVEST_DIGESTS) == HARVEST_DIGESTS
        assert not store.columns_path(snap).exists()
        assert not list(out.rglob("*.lock"))

        capsys.readouterr()
        assert run(cfg, "harvest", "--date", DAYS[-1]) == 0
        assert "outputs are current, skipping" in capsys.readouterr().out
        for stage in ("train", "score", "trends", "bubble", "topics"):
            assert run(cfg, stage) == 0, stage
        assert _digests(out, SCORED_DIGESTS) == SCORED_DIGESTS
        # The next reader rebuilt the bundle that harvest would have written.
        written = tmp / "written" / snap.name
        written.parent.mkdir()
        store.write_snapshots(written, list(corpus.read_jsonl(snap, DailySnapshot)))
        assert written.read_bytes() == snap.read_bytes()
        assert store.columns_path(snap).read_bytes() == store.columns_path(written).read_bytes()


class TestUnwritableOutput:
    """An output that cannot be written (here: its directory is a regular
    file, or the file is a directory) is a typed error naming the path, with
    exit 1, and leaves no lock; never an `OSError` traceback."""

    @pytest.mark.parametrize(
        "argv, before, blocker",
        [
            (["simulate"], [], "plain"),  # out.dir is below the regular file
            (["harvest", "--date", DAYS[0]], [["simulate"]], "out/snapshots"),
            (["score"], [["simulate"], ["harvest", "--date", DAYS[0]], ["train"]], "out/likelihoods.jsonl"),
        ],
        ids=["simulate", "harvest", "score"],
    )
    def test_is_a_typed_error_naming_the_path(self, workspace, capsys, argv, before, blocker):
        tmp, cfg = workspace
        for prior in before:
            assert run(cfg, *prior) == 0
        blocked = tmp / blocker
        if argv == ["simulate"]:
            blocked.write_text("a file, not a directory\n")
            cfg.write_text(CFG.format(out=blocked / "out"))
        elif argv == ["score"]:
            (blocked / "a directory").mkdir(parents=True)
        else:
            blocked.write_text("a file, not a directory\n")
        capsys.readouterr()
        assert run(cfg, *argv, "--json-errors") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OutputWriteError"
        assert str(blocked) in err["message"]
        assert not list(tmp.rglob("*.lock"))


class TestRebuiltBundle:
    """A column bundle is a cache of its JSONL file that no manifest records,
    so a missing or damaged one never makes a stage stale: a second `harvest`
    of a day is current, and never asks for `--overwrite`, which would crawl
    the day anew. The next stage that reads the file rebuilds the bundle,
    byte for byte."""

    @pytest.mark.parametrize("damage", BUNDLE_DAMAGE)
    def test_harvest_of_the_same_day_is_current_and_the_next_reader_rebuilds_its_bundle(
        self, workspace, capsys, damage
    ):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", DAYS[0]) == 0
        bundle = out / "snapshots" / f"{DAYS[0]}.columns"
        written = bundle.read_bytes()
        BUNDLE_DAMAGE[damage](bundle)
        capsys.readouterr()
        assert run(cfg, "harvest", "--date", DAYS[0]) == 0
        assert "outputs are current, skipping" in capsys.readouterr().out
        day = f"{DAYS[0]}.jsonl"
        assert _digests(out / "snapshots", [day]) == {day: HARVEST_DIGESTS[day]}
        _write_likelihoods(out, 0.5)
        assert run(cfg, "bubble") == 0
        assert bundle.read_bytes() == written

    @pytest.mark.parametrize("damage", BUNDLE_DAMAGE)
    @pytest.mark.parametrize("name", ["videos.columns", "ground_truth.columns"])
    def test_a_damaged_platform_bundle_leaves_simulate_and_harvest_current(self, workspace, capsys, name, damage):
        tmp, cfg = workspace
        out = tmp / "out"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", DAYS[0]) == 0
        written = (out / name).read_bytes()
        BUNDLE_DAMAGE[damage](out / name)
        for argv in (["harvest", "--date", DAYS[0]], ["simulate"]):
            capsys.readouterr()
            assert run(cfg, *argv) == 0, argv
            assert "outputs are current, skipping" in capsys.readouterr().out, argv
        assert run(cfg, "harvest", "--date", DAYS[1]) == 0  # the next reader of the platform
        assert (out / name).read_bytes() == written
        harvested = [f"{day}.jsonl" for day in DAYS[:2]]
        assert _digests(out / "snapshots", harvested) == {day: HARVEST_DIGESTS[day] for day in harvested}

    def test_a_day_whose_file_changed_is_not_rebuilt(self, workspace):
        tmp, cfg = workspace
        snap = tmp / "out" / "snapshots" / f"{DAYS[0]}.jsonl"
        assert run(cfg, "simulate") == 0
        assert run(cfg, "harvest", "--date", DAYS[0]) == 0
        store.columns_path(snap).unlink()
        snap.write_bytes(snap.read_bytes() + b"\n")
        assert run(cfg, "harvest", "--date", DAYS[0]) == 2  # the day exists and differs from its record
        assert not store.columns_path(snap).exists()


def test_importing_the_cli_does_not_load_the_http_stack():
    # Only `source = live` needs `requests`; `_source` imports the adapter then.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = "import sys, recaudit.cli; print(sorted({'recaudit.live', 'requests'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
