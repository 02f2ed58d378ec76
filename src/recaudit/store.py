"""Persistence: versioned binary bundles for models, run manifests, CSV and
JSONL emitters for measurements, column bundles that cache the JSONL files
later stages read, and single-writer lock files.

Bundle format, designed to be byte-stable and digest-checked:

    line 0: ``RECAUDIT-BUNDLE v1``
    line 1: JSON header (kind, schema_version, payload_sha256, payload_size)
    payload: 8-byte big-endian meta length, JSON meta (with an array
             directory), then the raw C-order array bytes in directory order.

A payload shorter or longer than its header says, or a digest mismatch,
loads as corruption, never as a partial object; a future schema_version is
refused outright.

A snapshot day and the simulator's ``videos.jsonl`` and
``ground_truth.jsonl`` each have a column bundle beside them
(``<name>.columns``): a cache of the records later stages decode from the
file, keyed by the sha256 of the file's bytes, that only this module knows
of. The stage that writes the file writes the bundle right after it, and a
bundle that cannot be written is only a warning. No manifest records a
bundle, so its state never decides a rerun.
``read_records`` takes the records from the bundle while its key is the
file's digest. Otherwise it decodes the file once and rebuilds the bundle,
keyed by the bytes it decoded. JSONL stays the interchange format and the
one source of truth, and a missing, stale or damaged bundle costs one
decode.

While a stage runs (:func:`stage_digests`), each file it reads is hashed
once: the rerun check, the column bundles' key check and the manifest share
one digest per file.
"""

from __future__ import annotations

import datetime as dt
import fcntl
import hashlib
import json
import logging
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .corpus import (
    CONSPIRATORIAL,
    NON_CONSPIRATORIAL,
    TEXT_FIELDS,
    DailySnapshot,
    EdgeColumns,
    VideoKey,
    VideoRecord,
    atomic_output,
    read_jsonl,
    write_jsonl,
)
from .ensemble import FirstLayer, StandardizationStats, TrainedEnsemble
from .errors import ArtifactCorruptError, ArtifactVersionError, ConfigError, HarvestExistsError, RecauditError
from .metrics import CalibrationBin, CalibrationCurve, FilterBubbleMatrix, TrendSeries, rolling_mean
from .textmodel import TextHyper, TextModel
from .topics import TopicReport

logger = logging.getLogger(__name__)

_MAGIC = b"RECAUDIT-BUNDLE v1"
SCHEMA_VERSION = 1


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# The digest of each file hashed so far in the running stage, by path: set
# only inside stage_digests, so nothing outside one stage's run sees it.
_stage_memo: ContextVar[Optional[dict[str, str]]] = ContextVar("stage_memo", default=None)


@contextmanager
def stage_digests():
    """Within the block, a stage's run, :func:`file_digest` hashes each file
    once. The stage's outputs are hashed again once it has written them
    (:func:`build_manifest`)."""
    token = _stage_memo.set({})
    try:
        yield
    finally:
        _stage_memo.reset(token)


def file_digest(path: str | Path) -> str:
    """The sha256 of the file at ``path``: hashed once per stage, or on
    every call outside one."""
    memo = _stage_memo.get()
    if memo is None:
        return sha256_file(path)
    key = str(path)
    if key not in memo:
        memo[key] = sha256_file(path)
    return memo[key]


def _has_digest(path: str | Path, digest: str) -> bool:
    return Path(path).exists() and file_digest(path) == digest


# ---------------------------------------------------------------------------
# Generic bundle save/load
# ---------------------------------------------------------------------------


def save_bundle(path: str | Path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    directory = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        raw = arr.tobytes()
        directory.append({"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape), "nbytes": len(raw)})
        blobs.append(raw)
    meta_json = json.dumps({"meta": meta, "arrays": directory}, sort_keys=True).encode("utf-8")
    payload = len(meta_json).to_bytes(8, "big") + meta_json + b"".join(blobs)
    header = json.dumps(
        {
            "kind": kind,
            "schema_version": SCHEMA_VERSION,
            "payload_sha256": sha256_bytes(payload),
            "payload_size": len(payload),
        },
        sort_keys=True,
    ).encode("utf-8")
    with atomic_output(path) as fh:
        fh.write(_MAGIC + b"\n" + header + b"\n" + payload)


def load_bundle(path: str | Path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != _MAGIC:
            raise ArtifactCorruptError(f"{path}: not a recaudit bundle")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactCorruptError(f"{path}: unreadable header") from exc
        if not isinstance(header, dict) or type(header.get("schema_version")) is not int:
            raise ArtifactCorruptError(f"{path}: header has no integer schema_version")
        if header["schema_version"] > SCHEMA_VERSION:
            raise ArtifactVersionError(
                f"{path}: schema_version {header['schema_version']} is newer than supported {SCHEMA_VERSION}"
            )
        if header.get("kind") != kind:
            raise ArtifactCorruptError(f"{path}: bundle holds {header.get('kind')!r}, expected {kind!r}")
        if type(header.get("payload_size")) is not int or type(header.get("payload_sha256")) is not str:
            raise ArtifactCorruptError(f"{path}: header has no integer payload_size or string payload_sha256")
        payload = fh.read()
    if len(payload) < header["payload_size"]:
        raise ArtifactCorruptError(f"{path}: truncated payload")
    if len(payload) > header["payload_size"]:
        raise ArtifactCorruptError(f"{path}: {len(payload) - header['payload_size']} byte(s) after its payload")
    if sha256_bytes(payload) != header["payload_sha256"]:
        raise ArtifactCorruptError(f"{path}: payload digest mismatch")
    meta_len = int.from_bytes(payload[:8], "big")
    doc = json.loads(payload[8 : 8 + meta_len].decode("utf-8"))
    arrays: dict[str, np.ndarray] = {}
    offset = 8 + meta_len
    for entry in doc["arrays"]:
        raw = payload[offset : offset + entry["nbytes"]]
        offset += entry["nbytes"]
        arrays[entry["name"]] = np.frombuffer(raw, dtype=entry["dtype"]).reshape(entry["shape"]).copy()
    return doc["meta"], arrays


# ---------------------------------------------------------------------------
# Column bundles: a cache of a JSONL file's records, decoded once, beside the
# file. Ids travel in the JSON meta, since a numpy unicode array drops a
# trailing NUL.
# ---------------------------------------------------------------------------

_EDGE_ARRAYS = ("source", "recommended", "rank", "date")  # EdgeColumns' fields after ids


def columns_path(source: str | Path) -> Path:
    """Where the column bundle of the JSONL file ``source`` lives."""
    return Path(source).with_suffix(".columns")


def save_columns(
    source: str | Path, source_sha256: str, kind: str, meta: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Write the column bundle of ``source``, keyed by ``source_sha256``, the
    sha256 of the bytes its records were taken from."""
    save_bundle(columns_path(source), kind, {**meta, "source_sha256": source_sha256}, arrays)


def _cache_columns(source: str | Path, source_sha256: str, kind: str, columns: tuple[dict, dict]) -> None:
    """:func:`save_columns`, for a cache: a bundle that cannot be written is
    logged as a warning naming it, and the next reader of ``source``
    decodes the file."""
    try:
        save_columns(source, source_sha256, kind, *columns)
    except OSError as exc:
        logger.warning("could not write %s for %s: %s", columns_path(source), source, exc)


def load_columns(source: str | Path, kind: str) -> Optional[tuple[dict, dict[str, np.ndarray]]]:
    """The meta and arrays of ``source``'s column bundle, or None when it
    does not exist, does not load (logged as a warning naming it) or was
    written for other bytes than ``source`` holds now."""
    path = columns_path(source)
    if not path.exists():
        return None
    try:
        meta, arrays = load_bundle(path, kind)
    except (RecauditError, OSError) as exc:
        logger.warning("%s; rebuilding it from %s", exc, source)
        return None
    if meta.get("source_sha256") != file_digest(source):
        return None
    return meta, arrays


def _snapshot_columns(snapshots: Sequence[DailySnapshot]) -> tuple[dict, dict[str, np.ndarray]]:
    meta = {
        "snapshots": [
            {
                "date": snap.date.isoformat(),
                "ids": list(snap.edges.ids),
                "retained_video_ids": sorted(snap.retained_video_ids),
                "coverage": snap.coverage,
            }
            for snap in snapshots
        ]
    }
    arrays = {
        f"{i}.{name}": getattr(snap.edges, name) for i, snap in enumerate(snapshots) for name in _EDGE_ARRAYS
    }
    return meta, arrays


def _snapshots(meta: dict, arrays: dict[str, np.ndarray]) -> list[DailySnapshot]:
    return [
        DailySnapshot(
            date=dt.date.fromisoformat(snap["date"]),
            edges=EdgeColumns(tuple(snap["ids"]), *(arrays[f"{i}.{name}"] for name in _EDGE_ARRAYS)),
            retained_video_ids=frozenset(snap["retained_video_ids"]),
            coverage=snap["coverage"],
        )
        for i, snap in enumerate(meta["snapshots"])
    ]


def _video_columns(videos: Sequence[VideoRecord | VideoKey]) -> tuple[dict, dict[str, np.ndarray]]:
    meta = {
        "video_ids": [v.video_id for v in videos],
        "channel_ids": [v.channel_id for v in videos],
        "view_counts": [v.view_count for v in videos],
    }
    return meta, {}


@dataclass(frozen=True)
class _Label:
    video_id: str
    label: int

    def __post_init__(self):
        if self.label not in (CONSPIRATORIAL, NON_CONSPIRATORIAL):
            raise ValueError(f"label {self.label} is not 0 or 1")


def _label_columns(labels: Sequence[_Label]) -> tuple[dict, dict[str, np.ndarray]]:
    return {"video_ids": [x.video_id for x in labels], "labels": [x.label for x in labels]}, {}


# Each record type a column bundle holds: the bundle's kind, its meta and
# arrays made from the records, and the records made from them.
_COLUMNS = {
    DailySnapshot: ("snapshot-columns", _snapshot_columns, _snapshots),
    VideoKey: (
        "video-columns",
        _video_columns,
        lambda meta, _: list(map(VideoKey, meta["video_ids"], meta["channel_ids"], meta["view_counts"])),
    ),
    _Label: ("label-columns", _label_columns, lambda meta, _: list(map(_Label, meta["video_ids"], meta["labels"]))),
}


def _write_with_columns(path: str | Path, records: Sequence, cls) -> None:
    """Write a JSONL file of ``records``, then its column bundle of ``cls``
    records (:func:`_cache_columns`)."""
    kind, to_columns, _ = _COLUMNS[cls]
    _cache_columns(path, write_jsonl(path, records), kind, to_columns(records))


def write_snapshots(path: str | Path, snapshots: Sequence[DailySnapshot]) -> None:
    """Write a snapshot file, then its column bundle."""
    _write_with_columns(path, snapshots, DailySnapshot)


def write_videos(path: str | Path, videos: Sequence[VideoRecord]) -> None:
    """Write a video file, then its column bundle of each video's id,
    channel and view count."""
    _write_with_columns(path, videos, VideoKey)


def read_records(path: str | Path, cls) -> list:
    """The ``cls`` records of the JSONL file ``path``, as
    :func:`corpus.read_jsonl` decodes them. Records a column bundle holds
    come from the bundle while it is current. Otherwise the file is decoded
    once and its bundle rebuilt (:func:`_cache_columns`), keyed by the
    sha256 of the bytes decoded."""
    if cls not in _COLUMNS:
        return list(read_jsonl(path, cls))
    kind, to_columns, from_columns = _COLUMNS[cls]
    columns = load_columns(path, kind)
    if columns is None:
        data = Path(path).read_bytes()
        columns = to_columns(list(read_jsonl(path, cls, data)))
        _cache_columns(path, sha256_bytes(data), kind, columns)
    return from_columns(*columns)


# ---------------------------------------------------------------------------
# Text model and ensemble codecs
# ---------------------------------------------------------------------------


def _text_model_parts(model: Optional[TextModel], prefix: str, meta: dict, arrays: dict) -> None:
    if model is None:
        meta[prefix] = None
        return
    meta[prefix] = {
        "words": list(model.vocab),
        "hyper": vars(model.hyper).copy(),
    }
    arrays[f"{prefix}.observed_ids"] = model.observed_ids
    arrays[f"{prefix}.embedding"] = model.embedding
    arrays[f"{prefix}.head"] = model.head
    arrays[f"{prefix}.bias"] = model.bias


def _text_model_from_parts(prefix: str, meta: dict, arrays: dict) -> Optional[TextModel]:
    info = meta[prefix]
    if info is None:
        return None
    return TextModel(
        vocab={w: i for i, w in enumerate(info["words"])},
        hyper=TextHyper(**info["hyper"]),
        observed_ids=arrays[f"{prefix}.observed_ids"],
        embedding=arrays[f"{prefix}.embedding"],
        head=arrays[f"{prefix}.head"],
        bias=arrays[f"{prefix}.bias"],
    )


def save_ensemble(path: str | Path, ensemble: TrainedEnsemble) -> None:
    meta: dict = {
        "seed": ensemble.seed,
        "repeats": ensemble.repeats,
        "split": ensemble.split,
        "trained_date": ensemble.trained_date.isoformat(),
        "n_examples": ensemble.n_examples,
        "stacking_bias": ensemble.stacking_bias,
        "stats": [list(s) if s is not None else None for s in ensemble.stats.stats],
        "has_attribute_head": ensemble.first_layer.attribute_head is not None,
    }
    arrays: dict[str, np.ndarray] = {"stacking_coef": ensemble.stacking_coef}
    layer = ensemble.first_layer
    for name, model in zip(TEXT_FIELDS, layer.text_models):
        _text_model_parts(model, f"{name}_model", meta, arrays)
    if layer.attribute_head is not None:
        coef, bias = layer.attribute_head
        arrays["attribute_head.coef"] = coef
        meta["attribute_head.bias"] = bias
    save_bundle(path, "ensemble", meta, arrays)


def load_ensemble(path: str | Path) -> TrainedEnsemble:
    meta, arrays = load_bundle(path, "ensemble")
    attribute_head = None
    if meta["has_attribute_head"]:
        attribute_head = (arrays["attribute_head.coef"], float(meta["attribute_head.bias"]))
    layer = FirstLayer(
        text_models=tuple(
            _text_model_from_parts(f"{name}_model", meta, arrays) for name in TEXT_FIELDS
        ),
        attribute_head=attribute_head,
    )
    stats = StandardizationStats(
        stats=tuple(tuple(s) if s is not None else None for s in meta["stats"])
    )
    return TrainedEnsemble(
        first_layer=layer,
        stats=stats,
        stacking_coef=arrays["stacking_coef"],
        stacking_bias=float(meta["stacking_bias"]),
        seed=meta["seed"],
        repeats=meta["repeats"],
        split=meta["split"],
        trained_date=dt.date.fromisoformat(meta["trained_date"]),
        n_examples=meta["n_examples"],
    )


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    command: str
    config_digest: str
    code_version: str
    seed: Optional[int]
    created_at: str
    inputs: dict[str, str]
    outputs: dict[str, str]

    def write(self, path: str | Path) -> None:
        write_json(path, vars(self))

    @staticmethod
    def read(path: str | Path) -> "RunManifest":
        return RunManifest(**json.loads(Path(path).read_text(encoding="utf-8")))


def build_manifest(
    command: str,
    config_digest: str,
    seed: Optional[int],
    inputs: list[str | Path],
    outputs: list[str | Path],
) -> RunManifest:
    """The manifest of a stage that read ``inputs`` and has just written
    ``outputs``. The outputs are hashed afresh, and an input the stage
    rewrote is recorded with its new digest."""
    written = {str(p): sha256_file(p) for p in outputs}
    memo = _stage_memo.get()
    if memo is not None:
        memo.update(written)
    return RunManifest(
        command=command,
        config_digest=config_digest,
        code_version=__version__,
        seed=seed,
        created_at=dt.datetime.now(dt.timezone.utc).isoformat(),
        inputs={str(p): file_digest(p) for p in inputs if Path(p).exists()},
        outputs=written,
    )


def _read_manifest(path: str | Path) -> Optional[RunManifest]:
    """The manifest at ``path``; None when it is missing or is no manifest."""
    try:
        manifest = RunManifest.read(path)
    except (OSError, ValueError, TypeError):  # unreadable, not UTF-8, not JSON, or not a manifest
        return None
    if not (isinstance(manifest.inputs, dict) and isinstance(manifest.outputs, dict)):
        return None
    return manifest


def outputs_are_current(manifest_path: str | Path, config_digest: str, inputs: list[str | Path]) -> bool:
    """True when a previous run under this config recorded outputs, every
    input and output it recorded still exists with the same digest, and the
    recorded inputs are exactly the existing files among ``inputs``, the
    files a new run would read."""
    manifest = _read_manifest(manifest_path)
    if manifest is None or manifest.config_digest != config_digest or not manifest.outputs:
        return False
    if set(manifest.inputs) != {str(p) for p in inputs if Path(p).exists()}:
        return False
    recorded = {**manifest.inputs, **manifest.outputs}
    return all(_has_digest(path, digest) for path, digest in recorded.items())


# ---------------------------------------------------------------------------
# Measurement emitters (CSV rows are plot-ready and byte-stable)
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str | Path, header: str, rows: Iterable[Sequence]) -> None:
    _write_lines(path, [header, *(",".join(map(_fmt, row)) for row in rows)])


def write_trends_csv(path: str | Path, series: TrendSeries, window_days: int) -> None:
    raw_rolled = rolling_mean([(p.date, p.raw) for p in series.points], window_days)
    weighted_rolled = rolling_mean([(p.date, p.weighted) for p in series.points], window_days)
    _write_csv(
        path,
        "date,raw_frequency,weighted_frequency,coverage,raw_rolling,weighted_rolling",
        (
            (point.date, point.raw, point.weighted, point.coverage, rr, wr)
            for point, (_, rr), (_, wr) in zip(series.points, raw_rolled, weighted_rolled)
        ),
    )


def write_calibration_csv(path: str | Path, curve: CalibrationCurve) -> None:
    _write_csv(
        path,
        "bin_lower,bin_upper,n,k,proportion,ci_low,ci_high",
        ((b.lower, b.upper, b.n, b.k, b.proportion, b.ci_low, b.ci_high) for b in curve.bins),
    )


def read_calibration_csv(path: str | Path) -> CalibrationCurve:
    """The curve ``write_calibration_csv`` wrote. A row that is not UTF-8, has
    not seven fields, has a field that does not parse, or has a proportion or
    interval bound outside [0, 1] raises :class:`ArtifactCorruptError`
    naming ``path:line``."""
    lines = Path(path).read_bytes().strip().splitlines()
    bins = []
    for number, line in enumerate(lines[1:], start=2):  # past the header row
        try:
            fields = line.decode("utf-8").split(",")
            if len(fields) != 7:
                raise ValueError(f"expected 7 fields, got {len(fields)}")
            lower, upper, n, k, proportion, ci_low, ci_high = fields
            bins.append(
                CalibrationBin(
                    lower=float(lower),
                    upper=float(upper),
                    n=int(n),
                    k=int(k),
                    proportion=float(proportion) if proportion else None,
                    ci_low=float(ci_low) if ci_low else None,
                    ci_high=float(ci_high) if ci_high else None,
                )
            )
        except ValueError as exc:
            raise ArtifactCorruptError(f"{path}:{number}: {exc}") from exc
    return CalibrationCurve(bins=tuple(bins))


def write_bubble_csv(path: str | Path, matrix: FilterBubbleMatrix) -> None:
    _write_csv(
        path,
        "period_start,period_end,bin_lower,bin_upper,proportion,edge_count",
        (
            (
                period.start,
                period.end,
                b / matrix.bin_count,
                (b + 1) / matrix.bin_count,
                matrix.cells[pi][b],
                matrix.edge_counts[pi][b],
            )
            for pi, period in enumerate(matrix.periods)
            for b in range(matrix.bin_count)
        ),
    )


def write_topics(json_path: str | Path, csv_path: str | Path, report: TopicReport) -> None:
    doc = [
        {
            "topic": row.topic,
            "pct_recommendations": row.pct_recommendations,
            "pct_videos": row.pct_videos,
            "top_words": list(row.top_words),
        }
        for row in report.rows
    ]
    write_json(json_path, doc)
    _write_csv(
        csv_path,
        "topic,pct_recommendations,pct_videos,top_words",
        (
            (row.topic, row.pct_recommendations, row.pct_videos, " ".join(row.top_words))
            for row in report.rows
        ),
    )


def _write_lines(path: str | Path, lines: list[str]) -> None:
    with atomic_output(path) as fh:
        fh.write("".join(line + "\n" for line in lines).encode("utf-8"))


def write_json(path: str | Path, doc) -> None:
    """``doc`` as indented JSON with sorted keys, the form of every JSON artifact."""
    _write_lines(path, [json.dumps(doc, indent=2, sort_keys=True)])


# ---------------------------------------------------------------------------
# Small JSONL sidecars (likelihoods, ground truth, seed lists)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Likelihood:
    video_id: str
    likelihood: Optional[float]

    def __post_init__(self):
        if self.likelihood is not None and not 0.0 <= self.likelihood <= 1.0:  # NaN fails too
            raise ValueError(f"likelihood {self.likelihood} outside [0, 1]")


def write_likelihoods(path: str | Path, likelihoods: dict[str, Optional[float]]) -> None:
    write_jsonl(path, (_Likelihood(vid, like) for vid, like in sorted(likelihoods.items())))


def read_likelihoods(path: str | Path) -> dict[str, Optional[float]]:
    return {line.video_id: line.likelihood for line in read_jsonl(path, _Likelihood)}


def write_ground_truth(path: str | Path, truth: dict[str, int]) -> None:
    """Write a label file, then its column bundle."""
    _write_with_columns(path, [_Label(vid, label) for vid, label in sorted(truth.items())], _Label)


def read_ground_truth(path: str | Path) -> dict[str, int]:
    """Each video's label, through the file's column bundle
    (:func:`read_records`)."""
    return {line.video_id: line.label for line in read_records(path, _Label)}


def write_seed_list(path: str | Path, channel_ids: list[str]) -> None:
    _write_lines(path, channel_ids)


def read_seed_list(path: str | Path) -> list[str]:
    """The stripped non-blank lines of a seed list. Bytes that are not
    UTF-8 raise :class:`ArtifactCorruptError` naming ``path:line``."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"seed list {path} does not exist")
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ArtifactCorruptError(f"{path}:{line}: {exc}") from None
    return [line.strip() for line in text.splitlines() if line.strip()]


def snapshot_path(out_dir: str | Path, day: dt.date) -> Path:
    return Path(out_dir) / "snapshots" / f"{day.isoformat()}.jsonl"


def ensure_snapshot_writable(path: Path, overwrite: bool) -> None:
    if path.exists() and not overwrite:
        raise HarvestExistsError(f"{path} already exists; pass --overwrite to replace it")


# ---------------------------------------------------------------------------
# One writer per output path
# ---------------------------------------------------------------------------


@contextmanager
def output_lock(path: str | Path):
    """Hold the single-writer lock on ``path`` for the duration of the block.

    The lock is an flock on ``<path>.lock``. The kernel drops it when its
    holder exits, so the file a killed run leaves behind, with that run's PID
    in it, is taken over by the next run rather than blocking it.
    """
    lock_path = Path(str(path) + ".lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        fd = os.open(lock_path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise ConfigError(f"{path} is locked by another writer ({lock_path})") from None
        if os.fstat(fd).st_nlink:
            break
        os.close(fd)  # the previous holder removed this file as we opened it
    try:
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode())
        yield
    finally:
        lock_path.unlink(missing_ok=True)
        os.close(fd)
