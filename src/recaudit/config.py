"""Pipeline configuration: a flat key-value file with environment overrides.

Keys use dotted sections (``harvest.k = 20``); the matching environment
variable is the key upper-cased with dots and dashes as underscores, prefixed
``RECAUDIT_`` (``RECAUDIT_HARVEST_K``). Defaults are the audited platform's
operating constants: 20 watch-next slots, top 1000 retained per day, 200 top
comments, 100 repetitions of a 60/40 training split, decision threshold 0.5,
7-day rolling window, 25 words per reported topic.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigError

ENV_PREFIX = "RECAUDIT_"


@dataclass
class PipelineConfig:
    # source
    source: str = "simulator"  # simulator | live

    # simulator
    sim_channels: int = 50
    sim_videos_per_channel: int = 20
    sim_base_rate: float = 0.2
    sim_homophily: Optional[float] = None  # defaults to the base rate
    sim_share: Optional[float] = None  # stock share of conspiratorial videos
    sim_comments_per_video: int = 6
    sim_comments_disabled_rate: float = 0.0
    sim_transcript_missing_rate: float = 0.1
    sim_seed: int = 0
    sim_labeled_count: int = 300

    # snowball
    snowball_seeds_path: str = "seeds.txt"
    snowball_target: int = 12000
    snowball_k: int = 20
    snowball_initial: int = 250
    snowball_binary_weights: bool = False  # flatten co-occurrence counts for clustering
    cluster_id: Optional[int] = None
    cluster_anchors: str = ""  # comma-separated channel ids
    manual_additions_path: str = ""

    # harvest
    harvest_k: int = 20
    harvest_retain: int = 1000
    comments_limit: int = 200

    # ensemble
    ensemble_repeats: int = 100
    ensemble_split: float = 0.6
    ensemble_seed: int = 0
    ensemble_l2: float = 1e-3
    threshold: float = 0.5
    text_dim: int = 16
    text_ngram: int = 2
    text_buckets: int = 2**20
    text_lr: float = 0.1
    text_epochs: int = 25
    text_min_count: int = 2

    # metrics
    window_days: int = 7
    alpha: float = 0.05
    calibration_bins: int = 10
    trends_calibrated: bool = False  # weight by calibrated proportion instead of raw likelihood
    bubble_bins: int = 10
    bubble_periods: str = ""  # "start:end,start:end" (inclusive); empty = 3 equal spans

    # topics
    topics_k: int = 8
    topics_max_iter: int = 500
    topics_tol: float = 1e-7
    topics_seed: int = 0
    topics_top_words: int = 25
    topics_report_top: int = 3
    topics_field: str = "comments"
    topics_use_tfidf: bool = True

    # paths
    out_dir: str = "out"

    def validate(self) -> None:
        counts = {
            "sim.channels": self.sim_channels,
            "sim.videos_per_channel": self.sim_videos_per_channel,
            "snowball.initial": self.snowball_initial,
            "snowball.target": self.snowball_target,
            "snowball.k": self.snowball_k,
            "harvest.k": self.harvest_k,
            "harvest.retain": self.harvest_retain,
            "comments.limit": self.comments_limit,
            "ensemble.repeats": self.ensemble_repeats,
            "metrics.window_days": self.window_days,
            "metrics.calibration_bins": self.calibration_bins,
            "metrics.bubble_bins": self.bubble_bins,
            "topics.k": self.topics_k,
            "topics.top_words": self.topics_top_words,
            "topics.report_top": self.topics_report_top,
            "topics.max_iter": self.topics_max_iter,
            "text.dim": self.text_dim,
            "text.epochs": self.text_epochs,
            "text.buckets": self.text_buckets,
        }
        for key, value in counts.items():
            if value < 1:
                raise ConfigError(f"{key} must be at least 1, got {value}")
        ratios = {
            "ensemble.split": self.ensemble_split,
            "metrics.alpha": self.alpha,
        }
        for key, value in ratios.items():
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{key} must lie in (0, 1), got {value}")
        for key, value in {
            "sim.base_rate": self.sim_base_rate,
            "sim.homophily": self.sim_homophily,
            "sim.share": self.sim_share,
            "sim.comments_disabled_rate": self.sim_comments_disabled_rate,
            "sim.transcript_missing_rate": self.sim_transcript_missing_rate,
            "threshold": self.threshold,
        }.items():
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigError(f"{key} must lie in [0, 1], got {value}")
        if self.source not in ("simulator", "live"):
            raise ConfigError(f"source must be 'simulator' or 'live', got {self.source!r}")
        if self.topics_field not in ("comments", "snippet", "transcript"):
            raise ConfigError(
                f"topics.field must be 'comments', 'snippet' or 'transcript', got {self.topics_field!r}"
            )


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def _key_to_attr(key: str) -> str:
    return key.strip().lower().replace(".", "_").replace("-", "_")


def _parse_value(attr: str, raw: str):
    f = _FIELD_TYPES[attr]
    raw = raw.strip()
    kind = f.type
    if kind in ("int", "Optional[int]"):
        if raw.lower() in ("", "none", "null") and "Optional" in kind:
            return None
        return int(raw)
    if kind in ("float", "Optional[float]"):
        if raw.lower() in ("", "none", "null") and "Optional" in kind:
            return None
        return float(raw)
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean {raw!r} for {attr}")
    return raw


def load_config(path: Optional[str | Path] = None, env: Optional[dict] = None) -> PipelineConfig:
    """Read the config file (if given), apply environment overrides, validate."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = line.split("=", 1)
            attr = _key_to_attr(key)
            if attr not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            values[attr] = _parse_value(attr, raw)

    env = os.environ if env is None else env
    for name, raw in env.items():
        if not name.startswith(ENV_PREFIX):
            continue
        attr = _key_to_attr(name[len(ENV_PREFIX) :])
        if attr in _FIELD_TYPES:
            values[attr] = _parse_value(attr, raw)

    config = PipelineConfig(**values)
    config.validate()
    return config
