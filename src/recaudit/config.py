"""Pipeline configuration: a flat key-value file with environment overrides.

Keys use dotted sections (``harvest.k = 20``); the matching environment
variable is the key upper-cased with dots and dashes as underscores, prefixed
``RECAUDIT_`` (``RECAUDIT_HARVEST_K``). A key names the field it spells with
underscores for dots, so an error names each field by a key that loads. A
prefixed variable that names no key is an error, as an unknown key in the
file is, except the live adapter's two.
Defaults are the audited platform's operating constants: 20 watch-next slots,
top 1000 retained per day, 200 top comments, 100 repetitions of a 60/40
training split, decision threshold 0.5, 7-day rolling window, 25 words per
reported topic.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .corpus import TEXT_FIELDS
from .errors import ConfigError
from .metrics import Period

ENV_PREFIX = "RECAUDIT_"
# The live adapter's endpoint and credential: environment variables under
# the same prefix that name no config key.
BASE_URL_ENV = ENV_PREFIX + "API_BASE"
API_KEY_ENV = ENV_PREFIX + "API_KEY"


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
        for attr in (
            "sim_channels", "sim_videos_per_channel",
            "snowball_initial", "snowball_target", "snowball_k",
            "harvest_k", "harvest_retain", "comments_limit", "ensemble_repeats",
            "window_days", "calibration_bins", "bubble_bins",
            "topics_k", "topics_top_words", "topics_report_top", "topics_max_iter",
            "text_dim", "text_epochs", "text_buckets",
        ):
            value = getattr(self, attr)
            if value < 1:
                raise ConfigError(f"{_key(attr)} must be at least 1, got {value}")
        for attr in ("ensemble_split", "alpha"):
            value = getattr(self, attr)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{_key(attr)} must lie in (0, 1), got {value}")
        for attr in (
            "sim_base_rate", "sim_homophily", "sim_share",
            "sim_comments_disabled_rate", "sim_transcript_missing_rate", "threshold",
        ):
            value = getattr(self, attr)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigError(f"{_key(attr)} must lie in [0, 1], got {value}")
        if self.source not in ("simulator", "live"):
            raise ConfigError(f"source must be 'simulator' or 'live', got {self.source!r}")
        if self.topics_field not in TEXT_FIELDS:
            raise ConfigError(f"topics.field must be one of {TEXT_FIELDS}, got {self.topics_field!r}")
        self.bubble_period_list()

    def bubble_period_list(self) -> list[Period]:
        """The periods ``bubble.periods`` lists, in order; none when it is
        empty. Raises :class:`ConfigError` naming the key and the value when
        a period is not ``start:end`` in ISO dates, or ends before it
        starts."""
        if not self.bubble_periods:
            return []
        periods = []
        for chunk in self.bubble_periods.split(","):
            start, _, end = chunk.strip().partition(":")
            try:
                if not end:
                    raise ValueError(f"{chunk.strip()!r} has no end")
                periods.append(Period(dt.date.fromisoformat(start), dt.date.fromisoformat(end)))
            except ValueError as exc:
                raise ConfigError(
                    f"bubble.periods must be start:end pairs of ISO dates, got {self.bubble_periods!r} ({exc})"
                ) from None
        return periods


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _key(attr: str) -> str:
    """The key of field ``attr``: its first underscore becomes a dot
    (``harvest_k`` is ``harvest.k``), which ``_key_to_attr`` turns back."""
    return attr.replace("_", ".", 1)


def _key_to_attr(key: str) -> str:
    return key.strip().lower().replace(".", "_").replace("-", "_")


def _parse_value(attr: str, raw: str, where: str):
    """``raw`` as the type of field ``attr``. A value that does not parse
    raises :class:`ConfigError` naming ``where`` (``path:line`` or the
    environment variable) and the key."""
    kind = _FIELD_TYPES[attr]
    raw = raw.strip()
    if kind.startswith("Optional[") and raw.lower() in ("", "none", "null"):
        return None
    try:
        if kind in ("int", "Optional[int]"):
            return int(raw)
        if kind in ("float", "Optional[float]"):
            return float(raw)
        if kind == "bool":
            return _BOOLS[raw.lower()]
    except (ValueError, KeyError):
        raise ConfigError(f"{where}: {_key(attr)}: cannot parse {raw!r} as {kind}") from None
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
            values[attr] = _parse_value(attr, raw, f"{path}:{lineno}")

    env = os.environ if env is None else env
    for name, raw in env.items():
        if not name.startswith(ENV_PREFIX) or name in (BASE_URL_ENV, API_KEY_ENV):
            continue
        attr = _key_to_attr(name[len(ENV_PREFIX) :])
        if attr not in _FIELD_TYPES:
            raise ConfigError(f"{name}: unknown key {_key(attr)!r}")
        values[attr] = _parse_value(attr, raw, name)

    config = PipelineConfig(**values)
    config.validate()
    return config
