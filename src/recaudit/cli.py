"""Command-line surface for the audit pipeline.

Subcommands: simulate, snowball, harvest, train, score, trends, calibrate,
bubble, topics, validate. Every subcommand writes its artifacts under the
configured output directory plus a run manifest with config, input and
output digests; re-running a subcommand under the same config while those
inputs and outputs are still digest-valid is a no-op unless --overwrite is
passed. Exit codes: 0 success, 1 usage or config error, 2 data or invariant
error, 3 source fetch failure.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import __version__, corpus, store
from .attributes import LexiconAttributeScorer, score_comment_attributes
from .community import cluster_channels, modularity
from .config import PipelineConfig, load_config
from .crawler import daily_harvest, select_seed_cluster, snowball_channels
from .ensemble import classify_videos, train_ensemble
from .errors import (
    MALFORMED,
    ArtifactCorruptError,
    CommentsDisabledError,
    ConfigError,
    CorpusViolationError,
    FetchError,
    RecauditError,
)
from .live import LiveAdapter
from .metrics import (
    Period,
    TrendPoint,
    TrendSeries,
    apply_calibration,
    calibration_curve,
    daily_frequencies,
    filter_bubble_matrix,
)
from .sources import PlatformSpec, SimulatedPlatform, generate_labeled_set, generate_platform
from .textmodel import TextHyper
from .topics import fit_topic_model, topic_report

logger = logging.getLogger(__name__)


def _config_digest(config: PipelineConfig) -> str:
    canonical = json.dumps(vars(config), sort_keys=True, default=str)
    return store.sha256_bytes(canonical.encode("utf-8"))


def _out(config: PipelineConfig) -> Path:
    return Path(config.out_dir)


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise ConfigError(f"{path} does not exist; run `{hint}` first")
    return path


def _text_hyper(config: PipelineConfig, seed: int) -> TextHyper:
    return TextHyper(
        dim=config.text_dim,
        ngram=config.text_ngram,
        buckets=config.text_buckets,
        lr=config.text_lr,
        epochs=config.text_epochs,
        min_count=config.text_min_count,
        seed=seed,
    )


# The simulated platform on disk, in the order `_source` reads it; the state
# file is optional.
_PLATFORM_FILES = ("channels.jsonl", "videos.jsonl", "ground_truth.jsonl", "platform_state.json")

# The files of each input a stage declares in `_STAGES`, by name.
_Inputs = dict[str, list[Path]]


def _files(config: PipelineConfig, args) -> _Inputs:
    """The files behind every input name, listed before a stage runs. The
    manifest records the digests of the files its stage declares, and the
    rerun skip requires them to be the same files as the recorded ones, so
    a newly harvested day, another label file or a re-simulated platform
    makes a stage stale. No column bundle is among them: a bundle is a cache
    of its JSONL file that `store.read_records` rebuilds, so its state never
    decides a rerun."""
    out = _out(config)
    return {
        "platform": [] if config.source == "live" else [out / name for name in _PLATFORM_FILES],
        "seed_list": [Path(config.snowball_seeds_path)],
        "manual_additions": [Path(config.manual_additions_path)] if config.manual_additions_path else [],
        "seeds": [out / "seeds.txt"],
        "labeled": [out / "labeled.jsonl"],
        "ensemble": [out / "ensemble.bin"],
        "snapshots": sorted((out / "snapshots").glob("*.jsonl")),
        # The simulator's video file plus one file per live harvest day.
        "videos": [out / "videos.jsonl", *sorted((out / "videos").glob("*.jsonl"))],
        "likelihoods": [out / "likelihoods.jsonl"],
        "calibration": [out / "calibration.csv"] if config.trends_calibrated else [],
        "labels": [Path(args.labels) if getattr(args, "labels", None) else out / "ground_truth.jsonl"],
        "channels": [out / "channels.jsonl"],
    }


def _source(config: PipelineConfig, paths: _Inputs):
    if config.source == "live":
        return LiveAdapter.from_env()
    channels_path, videos_path, truth_path, state_path = paths["platform"]
    for path in (channels_path, videos_path, truth_path):
        _require(path, "simulate")
    channels = tuple(corpus.read_jsonl(channels_path, corpus.ChannelRecord))
    # A harvest or a snowball reads each video's id and channel only, and
    # the labels, through the files' column bundles.
    videos = tuple(store.read_records(videos_path, corpus.VideoKey))
    truth = store.read_ground_truth(truth_path)
    video_dates: dict[str, dt.date] = {}
    disabled: frozenset[str] = frozenset()
    if state_path.exists():
        try:
            state = json.loads(state_path.read_text(encoding="utf-8"))
            video_dates = {
                vid: dt.date.fromisoformat(day) for vid, day in state["video_dates"].items()
            }
            disabled = frozenset(state["comments_disabled"])
        except MALFORMED as exc:
            raise ArtifactCorruptError(f"{state_path}: {type(exc).__name__}: {exc}") from exc
    q = config.sim_homophily if config.sim_homophily is not None else config.sim_base_rate
    return SimulatedPlatform(
        channels=channels,
        videos=videos,
        ground_truth=truth,
        homophily=q,
        base_rate=config.sim_base_rate,
        seed=config.sim_seed,
        video_dates=video_dates,
        comments_disabled=disabled,
    )


def _records(files: list[Path], cls) -> tuple:
    """Every record in those of ``files`` that exist, decoded from the JSON."""
    return tuple(record for path in files if path.exists() for record in corpus.read_jsonl(path, cls))


def _read_snapshots(config: PipelineConfig, files: list[Path]) -> list[corpus.DailySnapshot]:
    """The snapshots in date order. A day found twice would be counted
    twice, so it raises :class:`CorpusViolationError` naming both files."""
    found = [(path, s) for path in files for s in store.read_records(path, corpus.DailySnapshot)]
    found.sort(key=lambda item: item[1].date)
    if not found:
        raise ConfigError(f"no snapshots under {_out(config) / 'snapshots'}; run `harvest` first")
    for (first, a), (second, b) in zip(found, found[1:]):
        if a.date == b.date:
            raise CorpusViolationError(f"snapshot day {a.date} is in both {first} and {second}")
    return [snap for _, snap in found]


def _read_videos(config: PipelineConfig, files: list[Path], cls=corpus.VideoRecord) -> dict:
    """Each video's ``cls`` record by id; a later file's record replaces an earlier one."""
    records = {
        video.video_id: video for path in files if path.exists() for video in store.read_records(path, cls)
    }
    if not records:
        raise ConfigError(f"no video records under {_out(config)}")
    return records


def _read_likelihoods(paths: _Inputs) -> dict[str, Optional[float]]:
    (path,) = paths["likelihoods"]
    return store.read_likelihoods(_require(path, "score"))


# ---------------------------------------------------------------------------
# Subcommand implementations. Each returns its outputs for the manifest.
# ---------------------------------------------------------------------------


def _cmd_simulate(config: PipelineConfig, args, paths: _Inputs) -> list[Path]:
    out = _out(config)
    spec = PlatformSpec(
        n_channels=config.sim_channels,
        videos_per_channel=config.sim_videos_per_channel,
        base_rate=config.sim_base_rate,
        homophily=config.sim_homophily,
        conspiratorial_share=config.sim_share,
        comments_per_video=config.sim_comments_per_video,
        comments_disabled_rate=config.sim_comments_disabled_rate,
        transcript_missing_rate=config.sim_transcript_missing_rate,
        seed=config.sim_seed,
    )
    platform = generate_platform(spec)
    try:
        labeled = generate_labeled_set(platform, config.sim_labeled_count, seed=config.sim_seed)
    except ValueError as exc:
        raise ConfigError(f"sim.labeled_count = {config.sim_labeled_count}: {exc}") from None
    corpus.write_jsonl(out / "channels.jsonl", platform.channels)
    store.write_videos(out / "videos.jsonl", platform.videos)
    store.write_ground_truth(out / "ground_truth.jsonl", platform.ground_truth)
    corpus.write_jsonl(out / "labeled.jsonl", labeled)
    store.write_seed_list(out / "seeds.txt", platform.channel_ids())
    state = {
        "video_dates": {vid: day.isoformat() for vid, day in sorted(platform.video_dates.items())},
        "comments_disabled": sorted(platform.comments_disabled),
    }
    store.write_json(out / "platform_state.json", state)
    outputs = [
        "channels.jsonl",
        "videos.jsonl",
        "ground_truth.jsonl",
        "labeled.jsonl",
        "seeds.txt",
        "platform_state.json",
    ]
    return [out / name for name in outputs]


def _read_user_seed_list(path: Path, key: str) -> list[str]:
    """A seed list the user supplies under config ``key``. Unlike an
    artifact's, its bytes that are not UTF-8 are a usage error naming the
    key."""
    try:
        return store.read_seed_list(path)
    except ArtifactCorruptError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _cmd_snowball(config: PipelineConfig, args, paths: _Inputs) -> list[Path]:
    out = _out(config)
    source = _source(config, paths)
    (seeds_path,) = paths["seed_list"]
    initial = _read_user_seed_list(seeds_path, "snowball.seeds_path")[: config.snowball_initial]
    result = snowball_channels(
        source,
        initial,
        config.snowball_target,
        k=config.snowball_k,
        binary_weights=config.snowball_binary_weights,
    )
    if result.under_target:
        logger.warning(
            "snowball exhausted the source at %d of %d channels",
            len(result.channels),
            config.snowball_target,
        )
    partition = cluster_channels(result.graph)
    q = modularity(result.graph, partition)

    store.write_seed_list(out / "snowball" / "channels.txt", list(result.channels))
    clusters_doc = {
        "modularity": q,
        "under_target": result.under_target,
        "dead_channels": list(result.dead_channels),
        "communities": {str(cid): members for cid, members in partition.communities().items()},
    }
    store.write_json(out / "snowball" / "clusters.json", clusters_doc)
    outputs = [out / "snowball" / "channels.txt", out / "snowball" / "clusters.json"]

    anchors = [a.strip() for a in config.cluster_anchors.split(",") if a.strip()]
    if config.cluster_id is not None or anchors:
        manual = [
            channel
            for path in paths["manual_additions"]
            for channel in _read_user_seed_list(path, "manual.additions_path")
        ]
        selected = select_seed_cluster(
            partition,
            manual_additions=manual,
            cluster_id=config.cluster_id,
            anchors=anchors,
        )
        store.write_seed_list(out / "seeds.txt", selected)
        outputs.append(out / "seeds.txt")
    return outputs


def _cmd_harvest(config: PipelineConfig, args, paths: _Inputs) -> list[Path]:
    if not args.date:
        raise ConfigError("harvest requires --date YYYY-MM-DD")
    try:
        day = dt.date.fromisoformat(args.date)
    except ValueError as exc:
        raise ConfigError(f"--date must be an ISO date YYYY-MM-DD, got {args.date!r} ({exc})") from None
    out = _out(config)
    source = _source(config, paths)
    (seeds_path,) = paths["seeds"]
    seeds = store.read_seed_list(seeds_path)
    snap_path = store.snapshot_path(out, day)
    store.ensure_snapshot_writable(snap_path, args.overwrite)

    result = daily_harvest(source, seeds, day, k=config.harvest_k, retain=config.harvest_retain)
    outputs = []
    if config.source == "live":
        # Persist the records behind this snapshot; the simulator's are already on disk.
        # The snapshot is written last, so an error here leaves none to block the rerun.
        scorer = LexiconAttributeScorer.bundled()
        edges = result.snapshot.edges
        wanted = sorted({edges.ids[i] for i in edges.source.tolist()} | result.snapshot.retained_video_ids)
        fetched = []
        for vid in wanted:
            try:
                fetched.append(_enrich_video(source, source.fetch_video(vid), config.comments_limit, scorer))
            except FetchError as exc:
                logger.warning("could not fetch video %s: %s", vid, exc)
        videos_path = out / "videos" / f"{day.isoformat()}.jsonl"
        corpus.write_jsonl(videos_path, fetched)
        outputs.append(videos_path)
    store.write_snapshots(snap_path, [result.snapshot])
    outputs.append(snap_path)

    if result.failures:
        logger.warning("harvest %s: %d channels failed", day, len(result.failures))
    return outputs


def _enrich_video(source, video: corpus.VideoRecord, limit: int, scorer) -> corpus.VideoRecord:
    comments = list(video.comments[:limit])
    if not comments:
        try:
            comments = source.fetch_comments(video.video_id, limit)
        except CommentsDisabledError:
            comments = []
    scored = tuple(
        c if c.attribute_scores is not None else score_comment_attributes(scorer, c) for c in comments
    )
    return replace(video, comments=scored)


def _cmd_train(config: PipelineConfig, args, paths: _Inputs) -> list[Path]:
    out = _out(config)
    (labeled_path,) = paths["labeled"]
    labeled = list(corpus.read_jsonl(_require(labeled_path, "simulate"), corpus.LabeledExample))
    ensemble = train_ensemble(
        labeled,
        repeats=config.ensemble_repeats,
        split=config.ensemble_split,
        seed=config.ensemble_seed,
        text_hyper=_text_hyper(config, config.ensemble_seed),
        l2=config.ensemble_l2,
    )
    model_path = out / "ensemble.bin"
    store.save_ensemble(model_path, ensemble)
    weights_path = out / "ensemble_weights.json"
    store.write_json(weights_path, ensemble.relative_weights())
    return [model_path, weights_path]


def _cmd_score(config: PipelineConfig, args, paths: _Inputs) -> list[Path]:
    out = _out(config)
    (model_path,) = paths["ensemble"]
    ensemble = store.load_ensemble(_require(model_path, "train"))
    snapshots = _read_snapshots(config, paths["snapshots"])
    videos = _read_videos(config, paths["videos"])
    wanted = sorted(set().union(*(s.edges.ids for s in snapshots)))
    found = [vid for vid in wanted if vid in videos]
    scored = dict(zip(found, classify_videos(ensemble, [videos[vid] for vid in found])))
    likelihoods = {vid: scored.get(vid) for vid in wanted}
    path = out / "likelihoods.jsonl"
    store.write_likelihoods(path, likelihoods)
    return [path]


def _trend_series(config: PipelineConfig, paths: _Inputs) -> TrendSeries:
    snapshots = _read_snapshots(config, paths["snapshots"])
    likelihoods = _read_likelihoods(paths)
    for path in paths["calibration"]:  # listed when trends.calibrated is set
        curve = store.read_calibration_csv(_require(path, "calibrate"))
        likelihoods = apply_calibration(likelihoods, curve)
    videos = _read_videos(config, paths["videos"], corpus.VideoKey)
    views = {vid: v.view_count for vid, v in videos.items()}
    try:
        frequencies = daily_frequencies([s.edges for s in snapshots], likelihoods, views, config.threshold)
    except ValueError as exc:  # a negative view count in the video records
        raise CorpusViolationError(str(exc)) from exc
    points = (
        TrendPoint(date=snap.date, raw=raw, weighted=weighted, coverage=share)
        for snap, (raw, weighted, share) in zip(snapshots, frequencies)
    )
    return TrendSeries(points=tuple(points))


def _cmd_trends(config: PipelineConfig, args, paths: _Inputs) -> list[Path]:
    out = _out(config)
    series = _trend_series(config, paths)
    csv_path = out / "trends.csv"
    store.write_trends_csv(csv_path, series, config.window_days)
    defined = [p.raw for p in series.points if p.raw is not None]
    summary = {
        "days": len(series.points),
        "window_days": config.window_days,
        "threshold": config.threshold,
        "calibrated": config.trends_calibrated,
        "mean_raw_frequency": sum(defined) / len(defined) if defined else None,
        "mean_coverage": sum(p.coverage for p in series.points) / len(series.points),
    }
    summary_path = out / "trends_summary.json"
    store.write_json(summary_path, summary)
    return [csv_path, summary_path]


def _cmd_calibrate(config: PipelineConfig, args, paths: _Inputs) -> list[Path]:
    out = _out(config)
    likelihoods = _read_likelihoods(paths)
    (labels_path,) = paths["labels"]
    if args.labels and not labels_path.exists():
        raise ConfigError(f"label file {labels_path} does not exist")
    truth = store.read_ground_truth(_require(labels_path, "simulate"))
    pairs = [
        (like, truth[vid])
        for vid, like in sorted(likelihoods.items())
        if like is not None and vid in truth
    ]
    if not pairs:
        raise ConfigError("no scored videos overlap the label file")
    curve = calibration_curve(
        [p for p, _ in pairs],
        [y for _, y in pairs],
        bin_count=config.calibration_bins,
        alpha=config.alpha,
    )
    csv_path = out / "calibration.csv"
    store.write_calibration_csv(csv_path, curve)
    summary = {
        "pairs": len(pairs),
        "bins": config.calibration_bins,
        "alpha": config.alpha,
        "populated_bins": sum(1 for b in curve.bins if b.n),
    }
    summary_path = out / "calibration_summary.json"
    store.write_json(summary_path, summary)
    return [csv_path, summary_path]


def _parse_periods(config: PipelineConfig, snapshots) -> list[Period]:
    periods = config.bubble_period_list()
    if periods:
        return periods
    first, last = snapshots[0].date, snapshots[-1].date
    total = (last - first).days + 1
    span = max(total // 3, 1)
    bounds = [first, first + dt.timedelta(days=span), first + dt.timedelta(days=2 * span)]
    ends = [bounds[1] - dt.timedelta(days=1), bounds[2] - dt.timedelta(days=1), last]
    return [Period(s, e) for s, e in zip(bounds, ends) if s <= e]


def _cmd_bubble(config: PipelineConfig, args, paths: _Inputs) -> list[Path]:
    out = _out(config)
    snapshots = _read_snapshots(config, paths["snapshots"])
    likelihoods = _read_likelihoods(paths)
    periods = _parse_periods(config, snapshots)
    edges = corpus.EdgeColumns.concat([s.edges for s in snapshots])
    matrix = filter_bubble_matrix(
        edges, likelihoods, periods, source_bins=config.bubble_bins, threshold=config.threshold
    )
    csv_path = out / "bubble.csv"
    store.write_bubble_csv(csv_path, matrix)
    summary = {
        "periods": [[p.start.isoformat(), p.end.isoformat()] for p in matrix.periods],
        "bins": matrix.bin_count,
        "threshold": config.threshold,
        "total_edges": sum(sum(row) for row in matrix.edge_counts),
    }
    summary_path = out / "bubble_summary.json"
    store.write_json(summary_path, summary)
    return [csv_path, summary_path]


def _cmd_topics(config: PipelineConfig, args, paths: _Inputs) -> list[Path]:
    out = _out(config)
    snapshots = _read_snapshots(config, paths["snapshots"])
    likelihoods = _read_likelihoods(paths)
    videos = _read_videos(config, paths["videos"])
    flagged = [
        vid for vid, like in sorted(likelihoods.items()) if like is not None and like > config.threshold
    ]
    missing = [vid for vid in flagged if vid not in videos]
    if missing:
        (path,) = paths["likelihoods"]
        raise CorpusViolationError(
            f"{path}: {len(missing)} conspiratorial videos are in no video file, the first {missing[0]}"
        )
    conspiratorial = [videos[vid] for vid in flagged]
    if len(conspiratorial) < 2:
        raise ConfigError("fewer than two conspiratorial videos; nothing to model")
    try:
        model = fit_topic_model(
            conspiratorial,
            k=config.topics_k,
            max_iter=config.topics_max_iter,
            tol=config.topics_tol,
            seed=config.topics_seed,
            field=config.topics_field,
            use_tfidf=config.topics_use_tfidf,
        )
    except ValueError as exc:  # every document is empty; the field itself is checked at config load
        raise ConfigError(
            f"topics.field is {config.topics_field!r}, but none of the {len(conspiratorial)} "
            f"conspiratorial videos has {config.topics_field} text; nothing to model"
        ) from exc
    edges = corpus.EdgeColumns.concat([s.edges for s in snapshots])
    report = topic_report(
        model,
        edges,
        likelihoods,
        threshold=config.threshold,
        top_words=config.topics_top_words,
        report_top=config.topics_report_top,
    )
    json_path = out / "topics.json"
    csv_path = out / "topics.csv"
    store.write_topics(json_path, csv_path, report)
    return [json_path, csv_path]


def _cmd_validate(config: PipelineConfig, args, paths: _Inputs) -> list[Path]:
    out = _out(config)
    bag = corpus.Corpus(
        channels=_records(paths["channels"], corpus.ChannelRecord),
        snapshots=tuple(sorted(_records(paths["snapshots"], corpus.DailySnapshot), key=lambda s: s.date)),
        labeled=_records(paths["labeled"], corpus.LabeledExample),
    )
    violations = corpus.validate_corpus(bag, max_rank=config.harvest_k)
    # Each video file alone: every harvest day refetches the videos it
    # recommends, so an id recurs across the day files but not within one.
    for path in paths["videos"]:
        violations += corpus.validate_corpus(corpus.Corpus(videos=_records([path], corpus.VideoRecord)))
    report_path = out / "validation.json"
    store.write_json(report_path, [vars(v) for v in violations])
    for v in violations:
        logger.error("%s", v)
    if violations:
        raise CorpusViolationError(f"{len(violations)} corpus violations; see {report_path}")
    return [report_path]


# Each subcommand's function and the names of the inputs it reads, keys of
# `_files`. `main` hands the function the files of those names only.
_STAGES = {
    "simulate": (_cmd_simulate, ()),
    "snowball": (_cmd_snowball, ("seed_list", "manual_additions", "platform")),
    "harvest": (_cmd_harvest, ("seeds", "platform")),
    "train": (_cmd_train, ("labeled",)),
    "score": (_cmd_score, ("ensemble", "snapshots", "videos")),
    "trends": (_cmd_trends, ("likelihoods", "calibration", "snapshots", "videos")),
    "calibrate": (_cmd_calibrate, ("likelihoods", "labels")),
    "bubble": (_cmd_bubble, ("likelihoods", "snapshots")),
    "topics": (_cmd_topics, ("likelihoods", "snapshots", "videos")),
    "validate": (_cmd_validate, ("channels", "videos", "labeled", "snapshots")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="recaudit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"recaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, _) in _STAGES.items():
        p = sub.add_parser(name, help=(fn.__doc__ or "").strip() or name)
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--threshold", type=float, default=None, help="decision threshold override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--overwrite", action="store_true", help="replace existing outputs")
        p.add_argument("--json-errors", action="store_true", help="emit machine-readable errors")
        if name == "harvest":
            p.add_argument("--date", default=None, help="day to crawl (YYYY-MM-DD)")
        if name == "calibrate":
            p.add_argument("--labels", default=None, help="human label JSONL (video_id, label)")
    return parser


def _effective_config(args) -> PipelineConfig:
    config = load_config(args.config)
    if args.out is not None:
        config.out_dir = args.out
    if args.threshold is not None:
        config.threshold = args.threshold
    if args.seed is not None:
        config.sim_seed = args.seed
        config.ensemble_seed = args.seed
        config.topics_seed = args.seed
    config.validate()
    return config


def _manifest_path(config: PipelineConfig, args) -> Path:
    date = getattr(args, "date", None)
    name = f"{args.command}-{date}" if date else args.command
    return _out(config) / "manifests" / f"{name}.json"


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage; keep the contract
        return 0 if exc.code == 0 else 1
    try:
        config = _effective_config(args)
        manifest_path = _manifest_path(config, args)
        config_digest = _config_digest(config)
        stage, names = _STAGES[args.command]
        files = _files(config, args)
        paths = {name: files[name] for name in names}
        inputs = [path for name in names for path in paths[name]]
        with store.stage_digests():
            if not args.overwrite and store.outputs_are_current(manifest_path, config_digest, inputs):
                print(f"{args.command}: outputs are current, skipping (see {manifest_path})")
                return 0
            with store.output_lock(manifest_path):
                outputs = stage(config, args, paths)
                manifest = store.build_manifest(
                    command=args.command,
                    config_digest=config_digest,
                    seed=args.seed,
                    inputs=inputs,
                    outputs=outputs,
                )
                manifest.write(manifest_path)
        for path in outputs:
            print(f"{args.command}: wrote {path}")
        return 0
    except RecauditError as exc:
        _report_error(args, exc)
        return exc.exit_code
    except ValueError as exc:
        # A bad option or config value that a library call rejects. Data
        # faults are typed; ROADMAP item 11 sweeps for any that still end
        # here, then deletes this branch.
        _report_error(args, exc)
        return 1


def _report_error(args, exc: Exception) -> None:
    if getattr(args, "json_errors", False):
        doc = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
