import dataclasses
import datetime as dt
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recaudit.corpus import DailySnapshot, EdgeColumns, VideoKey, VideoRecord, read_jsonl, write_jsonl
from recaudit.errors import ArtifactCorruptError, ArtifactVersionError, ConfigError, HarvestExistsError
from recaudit.ensemble import MODULE_NAMES, classify_video, classify_videos, train_ensemble
from recaudit.metrics import CalibrationBin, CalibrationCurve, Period, FilterBubbleMatrix, TrendPoint, TrendSeries
from recaudit.sources import PlatformSpec, generate_labeled_set, generate_platform
from recaudit import store
from recaudit.store import (
    build_manifest,
    columns_path,
    ensure_snapshot_writable,
    load_bundle,
    load_ensemble,
    output_lock,
    outputs_are_current,
    read_calibration_csv,
    read_ground_truth,
    read_likelihoods,
    read_records,
    read_seed_list,
    save_bundle,
    save_ensemble,
    write_calibration_csv,
    write_ground_truth,
    write_likelihoods,
    write_seed_list,
    write_trends_csv,
    write_bubble_csv,
    write_snapshots,
    write_videos,
)
from recaudit.textmodel import TextHyper

from conftest import from_bundle


@pytest.fixture(scope="module")
def small_ensemble():
    platform = generate_platform(
        PlatformSpec(n_channels=15, videos_per_channel=8, base_rate=0.5, seed=20)
    )
    labeled = generate_labeled_set(platform, 60, seed=3)
    hyper = TextHyper(dim=4, epochs=8, min_count=2, seed=0)
    return labeled, train_ensemble(labeled, repeats=1, split=0.6, seed=0, text_hyper=hyper)


class TestBundle:
    def test_round_trip_meta_and_arrays(self, tmp_path):
        path = tmp_path / "b.bin"
        arrays = {"a": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.array([1, 2], dtype=np.int64)}
        save_bundle(path, "demo", {"x": 1, "y": "z"}, arrays)
        meta, loaded = load_bundle(path, "demo")
        assert meta == {"x": 1, "y": "z"}
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])

    def test_truncated_payload_is_corruption(self, tmp_path):
        path = tmp_path / "b.bin"
        save_bundle(path, "demo", {}, {"a": np.ones(100)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])
        with pytest.raises(ArtifactCorruptError):
            load_bundle(path, "demo")

    def test_flipped_payload_byte_is_corruption(self, tmp_path):
        path = tmp_path / "b.bin"
        save_bundle(path, "demo", {}, {"a": np.ones(10)})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorruptError):
            load_bundle(path, "demo")

    def test_future_schema_version_refused(self, tmp_path):
        path = tmp_path / "b.bin"
        save_bundle(path, "demo", {}, {"a": np.ones(3)})
        lines = path.read_bytes().split(b"\n", 2)
        header = json.loads(lines[1])
        header["schema_version"] = 99
        path.write_bytes(lines[0] + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n" + lines[2])
        with pytest.raises(ArtifactVersionError):
            load_bundle(path, "demo")

    @pytest.mark.parametrize(
        "damage",
        [
            lambda h: {k: v for k, v in h.items() if k != "payload_size"},
            lambda h: {k: v for k, v in h.items() if k != "payload_sha256"},
            lambda h: {k: v for k, v in h.items() if k != "schema_version"},
            lambda h: {**h, "schema_version": "1"},
            lambda h: {**h, "payload_size": str(h["payload_size"])},
            lambda h: [1, 2],
            lambda h: None,
        ],
        ids=["no_size", "no_digest", "no_version", "string_version", "string_size", "list", "null"],
    )
    def test_damaged_header_is_corruption_naming_the_file(self, tmp_path, damage):
        path = tmp_path / "b.bin"
        save_bundle(path, "demo", {}, {"a": np.ones(3)})
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        header = json.dumps(damage(json.loads(header))).encode()
        path.write_bytes(magic + b"\n" + header + b"\n" + payload)
        with pytest.raises(ArtifactCorruptError, match=re.escape(str(path))):
            load_bundle(path, "demo")

    def test_wrong_kind_refused(self, tmp_path):
        path = tmp_path / "b.bin"
        save_bundle(path, "demo", {}, {})
        with pytest.raises(ArtifactCorruptError):
            load_bundle(path, "other")

    def test_not_a_bundle(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"hello world\n")
        with pytest.raises(ArtifactCorruptError):
            load_bundle(path, "demo")

    def test_save_is_byte_stable(self, tmp_path):
        arrays = {"a": np.linspace(0, 1, 7)}
        p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
        save_bundle(p1, "demo", {"n": 3}, arrays)
        save_bundle(p2, "demo", {"n": 3}, arrays)
        assert p1.read_bytes() == p2.read_bytes()


# Ids as a crawl may hold them: any text, some ending in a NUL, which a numpy
# unicode array would drop, and some in a character beyond the BMP.
_ids = st.one_of(
    st.text(max_size=5),
    st.text(max_size=4).map(lambda t: t + "\x00"),
    st.text(max_size=4).map(lambda t: t + "\U0001f9ea"),
)
_edges = st.lists(
    st.tuples(_ids, _ids, st.integers(-(2**63), 2**63 - 1), st.integers(1, dt.date.max.toordinal())),
    max_size=12,
)
_snapshots = st.lists(
    st.builds(
        lambda day, edges, retained, coverage: DailySnapshot(
            date=day,
            edges=EdgeColumns.from_lists(*([list(column) for column in zip(*edges)] or [[], [], [], []])),
            retained_video_ids=frozenset(retained),
            coverage=coverage,
        ),
        st.dates(),
        _edges,
        st.lists(_ids, max_size=4),
        st.one_of(st.floats(allow_nan=False), st.integers(0, 1)),
    ),
    max_size=3,
)
_videos = st.lists(
    st.builds(VideoRecord, video_id=_ids, channel_id=_ids, view_count=st.integers(-(2**70), 2**70)),
    max_size=8,
)


def _exactly(snapshot: DailySnapshot):
    """Every field of a snapshot, with each array's dtype and values and the
    coverage's type."""
    edges = snapshot.edges
    columns = (edges.source, edges.recommended, edges.rank, edges.date)
    return (
        snapshot.date,
        edges.ids,
        [(column.dtype.str, column.tolist()) for column in columns],
        snapshot.retained_video_ids,
        type(snapshot.coverage),
        snapshot.coverage,
    )


class TestColumnBundles:
    """A column bundle loads to exactly the records its file decodes to."""

    @settings(deadline=None)
    @given(_snapshots)
    def test_a_snapshot_bundle_holds_what_its_file_decodes_to(self, snapshots):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "2019-05-01.jsonl"
            write_snapshots(path, snapshots)
            loaded = from_bundle(path, DailySnapshot)
            assert list(map(_exactly, loaded)) == list(map(_exactly, read_jsonl(path, DailySnapshot)))
            for snapshot in loaded:
                edges = snapshot.edges
                assert not any(c.flags.writeable for c in (edges.source, edges.recommended, edges.rank, edges.date))

    @settings(deadline=None)
    @given(_videos)
    def test_a_video_bundle_holds_what_its_file_decodes_to(self, videos):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "videos.jsonl"
            write_videos(path, videos)
            assert from_bundle(path, VideoKey) == list(read_jsonl(path, VideoKey))

    def test_a_bundle_written_for_other_bytes_is_not_read(self, tmp_path):
        # It is rebuilt for the bytes the file holds now.
        path = tmp_path / "videos.jsonl"
        write_videos(path, [VideoRecord("v1", "c1", view_count=3)])
        write_jsonl(path, [VideoRecord("v1", "c1", view_count=4)])
        assert read_records(path, VideoKey) == [VideoKey("v1", "c1", 4)]
        assert from_bundle(path, VideoKey) == [VideoKey("v1", "c1", 4)]

    @pytest.mark.parametrize("damage", ["missing", "truncated"])
    def test_the_next_read_rebuilds_a_bundle_byte_for_byte(self, tmp_path, damage):
        path = tmp_path / "videos.jsonl"
        write_videos(path, [VideoRecord("v1", "c1", title="t", view_count=3), VideoRecord("v2", "c1")])
        written = columns_path(path).read_bytes()
        if damage == "missing":
            columns_path(path).unlink()
        else:
            columns_path(path).write_bytes(written[:-1])
        assert read_records(path, VideoKey) == [VideoKey("v1", "c1", 3), VideoKey("v2", "c1", 0)]
        assert columns_path(path).read_bytes() == written

    def test_the_rebuild_is_keyed_by_the_bytes_it_decoded(self, tmp_path, monkeypatch):
        # The file is replaced after the read that decodes it: the bundle
        # must name the decoded bytes, so the new ones find it stale.
        path = tmp_path / "videos.jsonl"
        write_jsonl(path, [VideoRecord("v1", "c1", view_count=3)])
        decoded = path.read_bytes()
        read = store.read_jsonl

        def then_replace(source, cls, data=None):
            yield from read(source, cls, data)
            write_jsonl(path, [VideoRecord("v1", "c1", view_count=4)])

        monkeypatch.setattr(store, "read_jsonl", then_replace)
        assert read_records(path, VideoKey) == [VideoKey("v1", "c1", 3)]
        meta, _ = load_bundle(columns_path(path), "video-columns")
        assert meta["source_sha256"] == hashlib.sha256(decoded).hexdigest()
        monkeypatch.undo()
        assert read_records(path, VideoKey) == [VideoKey("v1", "c1", 4)]

    def test_whole_records_are_always_decoded(self, tmp_path):
        path = tmp_path / "videos.jsonl"
        videos = [VideoRecord("v1", "c1", title="t", view_count=3)]
        write_videos(path, videos)
        assert read_records(path, VideoRecord) == videos


class TestEnsembleBundle:
    def test_round_trip_predictions_identical(self, tmp_path, small_ensemble):
        labeled, ensemble = small_ensemble
        path = tmp_path / "e.bin"
        save_ensemble(path, ensemble)
        loaded = load_ensemble(path)
        for ex in labeled[:15]:
            assert classify_video(loaded, ex.video) == classify_video(ensemble, ex.video)

    def test_save_load_save_is_byte_stable(self, tmp_path, small_ensemble):
        _, ensemble = small_ensemble
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_ensemble(p1, ensemble)
        save_ensemble(p2, load_ensemble(p1))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("m", range(len(MODULE_NAMES)), ids=MODULE_NAMES)
    def test_disabled_module_round_trips_and_scores_the_same(self, tmp_path, small_ensemble, m):
        labeled, ensemble = small_ensemble
        layer = ensemble.first_layer
        if m < len(layer.text_models):
            assert layer.text_models[m] is not None
            models = list(layer.text_models)
            models[m] = None
            layer = dataclasses.replace(layer, text_models=tuple(models))
        else:
            assert layer.attribute_head is not None
            layer = dataclasses.replace(layer, attribute_head=None)
        disabled = dataclasses.replace(ensemble, first_layer=layer)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_ensemble(p1, disabled)
        loaded = load_ensemble(p1)
        save_ensemble(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        videos = [ex.video for ex in labeled[:15]]
        assert np.isnan(loaded.first_layer.score(videos)[:, m]).all()
        assert classify_videos(loaded, videos) == classify_videos(disabled, videos)

    def test_bundle_with_epoch_losses_loads_and_scores_the_same(self, tmp_path, small_ensemble):
        # Bundles saved before the per-epoch loss was dropped carry an
        # "epoch_losses" list in each text model's meta; the loader ignores it.
        labeled, ensemble = small_ensemble
        new, old = tmp_path / "new.bin", tmp_path / "old.bin"
        save_ensemble(new, ensemble)
        meta, arrays = load_bundle(new, "ensemble")
        for key in ("transcript_model", "snippet_model", "comments_model"):
            if meta[key] is not None:
                meta[key]["epoch_losses"] = [0.69, 0.41]
        save_bundle(old, "ensemble", meta, arrays)
        loaded = load_ensemble(old)
        for ex in labeled[:15]:
            assert classify_video(loaded, ex.video) == classify_video(ensemble, ex.video)
        resaved = tmp_path / "resaved.bin"
        save_ensemble(resaved, loaded)
        assert resaved.read_bytes() == new.read_bytes()


class TestManifests:
    def test_outputs_current_after_write(self, tmp_path):
        out = tmp_path / "thing.txt"
        out.write_text("payload")
        manifest = build_manifest("demo", "cfg", 1, [], [out])
        mpath = tmp_path / "demo.json"
        manifest.write(mpath)
        assert outputs_are_current(mpath, "cfg", [])

    def test_stale_after_output_changes(self, tmp_path):
        out = tmp_path / "thing.txt"
        out.write_text("payload")
        manifest = build_manifest("demo", "cfg", 1, [], [out])
        mpath = tmp_path / "demo.json"
        manifest.write(mpath)
        out.write_text("tampered")
        assert not outputs_are_current(mpath, "cfg", [])

    def test_missing_manifest_or_outputs(self, tmp_path):
        assert not outputs_are_current(tmp_path / "nope.json", "cfg", [])
        out = tmp_path / "thing.txt"
        out.write_text("payload")
        manifest = build_manifest("demo", "cfg", None, [], [out])
        mpath = tmp_path / "demo.json"
        manifest.write(mpath)
        out.unlink()
        assert not outputs_are_current(mpath, "cfg", [])

    def test_stale_under_another_config(self, tmp_path):
        out = tmp_path / "thing.txt"
        out.write_text("payload")
        mpath = tmp_path / "demo.json"
        build_manifest("demo", "cfg", 1, [], [out]).write(mpath)
        assert not outputs_are_current(mpath, "other-cfg", [])

    def test_stale_after_input_changes(self, tmp_path):
        source, out = tmp_path / "in.txt", tmp_path / "thing.txt"
        source.write_text("input")
        out.write_text("payload")
        mpath = tmp_path / "demo.json"
        build_manifest("demo", "cfg", 1, [source], [out]).write(mpath)
        assert outputs_are_current(mpath, "cfg", [source])
        source.write_text("edited")
        assert not outputs_are_current(mpath, "cfg", [source])
        source.unlink()
        assert not outputs_are_current(mpath, "cfg", [source])

    def test_stale_when_the_input_set_differs(self, tmp_path):
        source, extra, out = tmp_path / "in.txt", tmp_path / "new.txt", tmp_path / "thing.txt"
        source.write_text("input")
        out.write_text("payload")
        mpath = tmp_path / "demo.json"
        build_manifest("demo", "cfg", 1, [source], [out]).write(mpath)
        # A listed file that does not exist is not read, so it is not missed.
        assert outputs_are_current(mpath, "cfg", [source, extra])
        extra.write_text("a new day")
        assert not outputs_are_current(mpath, "cfg", [source, extra])
        assert not outputs_are_current(mpath, "cfg", [])

    @pytest.mark.parametrize(
        "field, value",
        [("outputs", ["thing.txt"]), ("outputs", "thing.txt"), ("inputs", ["in.txt"]), ("inputs", None)],
    )
    def test_wrongly_typed_field_means_stale(self, tmp_path, field, value):
        out = tmp_path / "thing.txt"
        out.write_text("payload")
        mpath = tmp_path / "demo.json"
        build_manifest("demo", "cfg", 1, [], [out]).write(mpath)
        doc = json.loads(mpath.read_text())
        doc[field] = value
        mpath.write_text(json.dumps(doc))
        assert not outputs_are_current(mpath, "cfg", [])

    def test_a_list_or_a_string_as_the_manifest_means_stale(self, tmp_path):
        mpath = tmp_path / "demo.json"
        for doc in ([], "manifest"):
            mpath.write_text(json.dumps(doc))
            assert not outputs_are_current(mpath, "cfg", [])


class TestStageDigests:
    def test_a_stage_hashes_each_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "in.txt"
        path.write_text("payload")
        hashed, real = [], store.sha256_file
        monkeypatch.setattr(store, "sha256_file", lambda p: hashed.append(p) or real(p))
        with store.stage_digests():
            assert store.file_digest(path) == store.file_digest(path) == real(path)
        assert len(hashed) == 1
        store.file_digest(path)
        store.file_digest(path)
        assert len(hashed) == 3  # outside a stage, every call hashes

    def test_an_input_the_stage_rewrites_is_recorded_with_its_new_digest(self, tmp_path):
        path = tmp_path / "seeds.txt"
        write_seed_list(path, ["UCa"])
        with store.stage_digests():
            store.file_digest(path)
            write_seed_list(path, ["UCb"])
            manifest = build_manifest("demo", "cfg", 1, [path], [path])
            assert store.file_digest(path) == store.sha256_file(path)
        assert manifest.inputs == manifest.outputs == {str(path): store.sha256_file(path)}


class TestSidecars:
    def test_likelihoods_round_trip_with_nulls(self, tmp_path):
        path = tmp_path / "likes.jsonl"
        data = {"v1": 0.25, "v2": None, "v3": 1.0}
        write_likelihoods(path, data)
        assert read_likelihoods(path) == data

    def test_ground_truth_round_trip(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_ground_truth(path, {"v1": 1, "v2": 0})
        assert read_ground_truth(path) == {"v1": 1, "v2": 0}

    def test_a_label_bundle_holds_what_its_file_decodes_to(self, tmp_path):
        path = tmp_path / "ground_truth.jsonl"
        write_ground_truth(path, {"v2": 0, "v1": 1, "v\x00": 1})
        assert from_bundle(path, store._Label) == list(read_jsonl(path, store._Label))
        assert read_ground_truth(path) == {"v1": 1, "v2": 0, "v\x00": 1}

    @pytest.mark.parametrize("reader", [read_likelihoods, read_ground_truth])
    @pytest.mark.parametrize("bad", ['{"video_id": "v2", "lab', '{"video_id": "v2"}', '["v2", 1]'])
    def test_bad_line_is_corruption_naming_path_and_line(self, tmp_path, reader, bad):
        path = tmp_path / "sidecar.jsonl"
        path.write_text('{"video_id": "v1", "likelihood": 0.5, "label": 1}\n\n' + bad + "\n")
        with pytest.raises(ArtifactCorruptError, match=f"{path}:3: "):
            reader(path)

    @pytest.mark.parametrize("reader", [read_likelihoods, read_ground_truth])
    @pytest.mark.parametrize(
        "bad",
        [
            '{"video_id": 2, "likelihood": 0.5, "label": 1}',
            '{"video_id": "v2", "likelihood": "high", "label": "1"}',
            '{"video_id": "v2", "likelihood": [0.5], "label": true}',
        ],
    )
    def test_wrongly_typed_value_is_corruption(self, tmp_path, reader, bad):
        path = tmp_path / "sidecar.jsonl"
        path.write_text('{"video_id": "v1", "likelihood": 1, "label": 1}\n' + bad + "\n")
        with pytest.raises(ArtifactCorruptError, match=f"{path}:2: "):
            reader(path)

    def test_integer_likelihood_reads_as_a_number(self, tmp_path):
        path = tmp_path / "likes.jsonl"
        path.write_text('{"video_id": "v1", "likelihood": 1}\n{"video_id": "v2", "likelihood": null}\n')
        assert read_likelihoods(path) == {"v1": 1, "v2": None}

    def test_seed_list_round_trip(self, tmp_path):
        path = tmp_path / "seeds.txt"
        write_seed_list(path, ["chan2", "chan1"])
        assert read_seed_list(path) == ["chan2", "chan1"]

    def test_missing_seed_list_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            read_seed_list(tmp_path / "nope.txt")

    def test_snapshot_overwrite_guard(self, tmp_path):
        path = tmp_path / "2019-01-01.jsonl"
        path.write_text("{}")
        with pytest.raises(HarvestExistsError):
            ensure_snapshot_writable(path, overwrite=False)
        ensure_snapshot_writable(path, overwrite=True)


class TestCsvEmitters:
    def test_trends_csv_shape(self, tmp_path):
        day = dt.date(2019, 1, 1)
        points = tuple(
            TrendPoint(date=day + dt.timedelta(days=i), raw=0.1 * i, weighted=None, coverage=1.0)
            for i in range(3)
        )
        path = tmp_path / "trends.csv"
        write_trends_csv(path, TrendSeries(points=points), 7)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "date,raw_frequency,weighted_frequency,coverage,raw_rolling,weighted_rolling"
        assert len(lines) == 4
        assert lines[1].startswith("2019-01-01,0.0,,1.0,")

    def test_calibration_csv_undefined_rows_blank(self, tmp_path):
        curve = CalibrationCurve(
            bins=(
                CalibrationBin(0.0, 0.5, 2, 1, 0.5, 0.1, 0.9),
                CalibrationBin(0.5, 1.0, 0, 0, None, None, None),
            ),
        )
        path = tmp_path / "cal.csv"
        write_calibration_csv(path, curve)
        lines = path.read_text().strip().splitlines()
        assert lines[2] == "0.5,1.0,0,0,,,"

    def test_calibration_csv_round_trip(self, tmp_path):
        curve = CalibrationCurve(
            bins=(
                CalibrationBin(0.0, 0.5, 2, 1, 0.5, 0.1, 0.9),
                CalibrationBin(0.5, 1.0, 0, 0, None, None, None),
            ),
        )
        path = tmp_path / "cal.csv"
        write_calibration_csv(path, curve)
        assert read_calibration_csv(path) == curve

    @pytest.mark.parametrize(
        "bad",
        [
            "0.2,0.4,abc",  # too few fields
            "0.5,1.0,0,0,,,,",  # too many fields
            "0.5,1.0,two,0,,,",  # a count that is not an integer
            "0.5,1.0,2,1,half,0.1,0.9",  # a proportion that is not a number
        ],
    )
    def test_malformed_calibration_row_is_corruption_naming_path_and_line(self, tmp_path, bad):
        path = tmp_path / "cal.csv"
        write_calibration_csv(path, CalibrationCurve(
            bins=(CalibrationBin(0.0, 0.5, 2, 1, 0.5, 0.1, 0.9), CalibrationBin(0.5, 1.0, 0, 0, None, None, None)),
        ))
        lines = path.read_text().splitlines()
        lines[2] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactCorruptError, match=f"{path}:3: "):
            read_calibration_csv(path)

    def test_bubble_csv_rows(self, tmp_path):
        day = dt.date(2019, 1, 1)
        matrix = FilterBubbleMatrix(
            periods=(Period(day, day),),
            bin_count=2,
            cells=((0.25, None),),
            edge_counts=((4, 0),),
        )
        path = tmp_path / "bubble.csv"
        write_bubble_csv(path, matrix)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1] == "2019-01-01,2019-01-01,0.0,0.5,0.25,4"
        assert lines[2] == "2019-01-01,2019-01-01,0.5,1.0,,0"


class TestLock:
    def test_exclusive(self, tmp_path):
        target = tmp_path / "out.csv"
        with output_lock(target):
            with pytest.raises(ConfigError):
                with output_lock(target):
                    pass
        # Released after the context exits.
        with output_lock(target):
            pass

    def test_lock_of_exited_process_is_taken_over(self, tmp_path):
        target = tmp_path / "out.csv"
        lock = tmp_path / "out.csv.lock"
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        lock.write_text(str(dead.pid))
        with output_lock(target):
            assert lock.read_text() == str(os.getpid())
        assert not lock.exists()
