"""Where platform data comes from: the source interface and the simulator.

The simulator is a fixed platform-state snapshot with known ground truth.
Every recommendation draw is a pure function of (seed, source video, rank,
attempt) through a counter-based hash, so regenerating with the same seed
reproduces identical edges and concurrent callers never contend on shared
state. The homophily parameter q sets the probability that a conspiratorial
source recommends conspiratorial content; non-conspiratorial sources use the
base rate p.
"""

from __future__ import annotations

import datetime as dt
import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

import numpy as np

from .attributes import LexiconAttributeScorer, score_comment_attributes
from .corpus import ChannelRecord, Comment, LabeledExample, VideoKey, VideoRecord
from .errors import (
    ChannelNotFoundError,
    ChannelStalledError,
    CommentsDisabledError,
    VideoNotFoundError,
)


class RecommendationSource(Protocol):
    """Uniform access to a platform's channels, videos and watch-next lists.

    A source raises a :class:`FetchError` for a channel or video it cannot
    serve; the crawls skip that one item and go on. Any other error, such as
    the :class:`ConfigError` of a rejected credential, aborts the crawl.
    """

    def fetch_last_video(self, channel_id: str) -> VideoRecord: ...

    def fetch_watch_next(self, video_id: str, k: int) -> list[str]: ...

    def fetch_comments(self, video_id: str, n: int) -> list[Comment]: ...

    def fetch_video(self, video_id: str) -> VideoRecord: ...


def _unit_draws(seed: int, video_id: str, rank: int, attempt: int) -> tuple[float, float]:
    """Two uniforms in [0, 1) from a keyed hash; the determinism kernel."""
    key = f"{seed}|{video_id}|{rank}|{attempt}".encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=16).digest()
    hi = int.from_bytes(digest[:8], "big")
    lo = int.from_bytes(digest[8:], "big")
    return hi / 2**64, lo / 2**64

_MAX_DRAW_ATTEMPTS = 64


@dataclass
class SimulatedPlatform:
    """The simulator as a recommendation source.

    ``videos`` holds full records when the platform is generated, or only
    (id, channel) keys when it is read back for a harvest or a snowball,
    which fetch no comments: ``fetch_comments`` needs the full records, and
    ``fetch_video`` returns whichever the platform holds.
    """

    channels: tuple[ChannelRecord, ...]
    videos: tuple[VideoRecord | VideoKey, ...]
    ground_truth: dict[str, int]  # video id -> 1 conspiratorial / 0 not
    homophily: float  # q
    base_rate: float  # p
    seed: int
    video_dates: dict[str, dt.date] = field(default_factory=dict)
    comments_disabled: frozenset[str] = frozenset()

    def __post_init__(self):
        if not 0.0 <= self.homophily <= 1.0:
            raise ValueError("homophily must lie in [0, 1]")
        if not 0.0 <= self.base_rate <= 1.0:
            raise ValueError("base rate must lie in [0, 1]")
        self._video_by_id = {v.video_id: v for v in self.videos}
        self._channel_by_id = {c.channel_id: c for c in self.channels}
        by_channel: dict[str, list[VideoRecord | VideoKey]] = {}
        for v in self.videos:
            by_channel.setdefault(v.channel_id, []).append(v)
        self._videos_by_channel = by_channel
        self._pools = {
            1: sorted(v.video_id for v in self.videos if self.ground_truth.get(v.video_id) == 1),
            0: sorted(v.video_id for v in self.videos if self.ground_truth.get(v.video_id) != 1),
        }

    # -- source interface ---------------------------------------------------

    def fetch_last_video(self, channel_id: str) -> VideoRecord | VideoKey:
        channel = self._channel_by_id.get(channel_id)
        if channel is None:
            raise ChannelNotFoundError(channel_id)
        videos = self._videos_by_channel.get(channel_id, [])
        if not videos:
            raise ChannelStalledError(channel_id)
        epoch = dt.date(1970, 1, 1)
        return max(videos, key=lambda v: (self.video_dates.get(v.video_id, epoch), v.video_id))

    def fetch_watch_next(self, video_id: str, k: int) -> list[str]:
        if k < 1:
            raise ValueError("k must be at least 1")
        if video_id not in self._video_by_id:
            raise VideoNotFoundError(video_id)
        source_label = self.ground_truth.get(video_id, 0)
        rate = self.homophily if source_label == 1 else self.base_rate
        candidates = len(self.videos) - 1
        chosen: list[str] = []
        used = {video_id}
        for rank in range(1, min(k, candidates) + 1):
            pick = self._draw_slot(video_id, rank, rate, used)
            chosen.append(pick)
            used.add(pick)
        return chosen

    def _draw_slot(self, video_id: str, rank: int, rate: float, used: set[str]) -> str:
        for attempt in range(_MAX_DRAW_ATTEMPTS):
            u_class, u_pick = _unit_draws(self.seed, video_id, rank, attempt)
            label = 1 if u_class < rate else 0
            pool = self._pools[label] or self._pools[1 - label]
            pick = pool[int(u_pick * len(pool))]
            if pick not in used:
                return pick
        # Deterministic fallback once rejection sampling has been unlucky:
        # the smallest unused id, preferring the last drawn class.
        u_class, _ = _unit_draws(self.seed, video_id, rank, _MAX_DRAW_ATTEMPTS)
        label = 1 if u_class < rate else 0
        for pool in (self._pools[label], self._pools[1 - label]):
            for pick in pool:
                if pick not in used:
                    return pick
        raise RuntimeError("no candidate videos left")  # guarded by min(k, candidates)

    def fetch_comments(self, video_id: str, n: int) -> list[Comment]:
        if n < 1:
            raise ValueError("n must be at least 1")
        video = self._video_by_id.get(video_id)
        if video is None:
            raise VideoNotFoundError(video_id)
        if video_id in self.comments_disabled:
            raise CommentsDisabledError(video_id)
        return list(video.comments[:n])

    def fetch_video(self, video_id: str) -> VideoRecord | VideoKey:
        video = self._video_by_id.get(video_id)
        if video is None:
            raise VideoNotFoundError(video_id)
        return video

    def channel_ids(self) -> list[str]:
        return sorted(self._channel_by_id)


# ---------------------------------------------------------------------------
# Synthetic platform generation with planted vocabulary separation
# ---------------------------------------------------------------------------

_CONSPIRACY_WORDS = (
    "hoax aliens illuminati coverup secret nasa pyramid pyramids prophecy truth "
    "deception chemtrails reptilian cabal elites agenda flat moon landing faked "
    "qanon wwg1wga awake hidden ancient giants nibiru autism suppressed lies "
    "control exposed nwo deepstate satanic ufo endtimes rapture patriots"
).split()

_NEUTRAL_WORDS = (
    "recipe cooking music guitar tutorial review unboxing travel vlog fitness "
    "workout game gaming highlights football basketball movie trailer math "
    "history lecture weather interview documentary nature animals cats dogs diy "
    "craft garden tech phone laptop camera baking piano chess running cycling"
).split()

_FILLER_WORDS = (
    "the a and of to in video today watch new best top this week episode full "
    "show live daily update channel please thanks great"
).split()

_CONSPIRACY_COMMENT_EXTRAS = "sheeple wake evil liars traitors shill puppet corrupt".split()
_NEUTRAL_COMMENT_EXTRAS = "nice cool lol thanks first subscribe haha".split()


@dataclass(frozen=True)
class PlatformSpec:
    """Knobs for the synthetic platform."""

    n_channels: int = 20
    videos_per_channel: int = 10
    base_rate: float = 0.2  # p, also the default stock share of conspiratorial videos
    homophily: Optional[float] = None  # q; defaults to p
    conspiratorial_share: Optional[float] = None  # stock share; defaults to p
    comments_per_video: int = 6
    comments_disabled_rate: float = 0.0
    transcript_missing_rate: float = 0.1
    seed: int = 0


class _PCG64Stream:
    """The scalar draws of ``np.random.default_rng(seed)``, replayed in plain
    Python from the generator's raw 64-bit PCG64 words.

    numpy's ``Generator`` turns each word into a draw by fixed rules, and
    these methods apply the same rules, so every value equals what the
    ``Generator`` method of the same name returns at the same point of the
    stream, without numpy's per-call overhead. ``tests/test_sources.py``
    checks them against ``Generator`` itself, so a numpy release that changes
    its rules fails there.
    """

    _BLOCK = 4096  # words fetched per ``random_raw`` call

    def __init__(self, seed: int):
        self._bits = np.random.default_rng(seed).bit_generator
        self._words: list[int] = []
        self._next = 0
        self._half: Optional[int] = None  # the unused high half of a split word

    def _word(self) -> int:
        if self._next == len(self._words):
            self._words = self._bits.random_raw(self._BLOCK).tolist()
            self._next = 0
        self._next += 1
        return self._words[self._next - 1]

    def _uint32(self) -> int:
        # A word splits into two uint32s, low half first; the high half waits
        # for the next bounded draw, whatever doubles are drawn meanwhile.
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def random(self) -> float:
        """``Generator.random()``: the word's top 53 bits, scaled to [0, 1)."""
        return (self._word() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)``: Lemire's bounded draw on uint32s
        (Lemire 2019, "Fast Random Integer Generation in an Interval")."""
        n = high - low
        if n == 1:
            return low  # numpy draws nothing for a one-value range
        if not 1 <= n < 2**32:
            raise ValueError(f"range of {n} values is outside [1, 2**32)")
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = 2**32 % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return low + (m >> 32)

    def choice(self, cdf: Sequence[float]) -> int:
        """``Generator.choice(len(p), p=p)``, given the normalized cumsum of ``p``."""
        return bisect_right(cdf, self.random())


# Word pools and the normalized cumsum of their weights.
_Pools = tuple[tuple[Sequence[str], ...], list[float]]


def _word_pools(*weighted: tuple[Sequence[str], float]) -> _Pools:
    """The pools, with the cdf ``Generator.choice(len(pools), p=weights)`` searches."""
    p = np.array([weight for _, weight in weighted], dtype=float)
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return tuple(words for words, _ in weighted), cdf.tolist()


_POOLS = {
    1: _word_pools((_CONSPIRACY_WORDS, 0.7), (_FILLER_WORDS, 0.3)),
    0: _word_pools((_NEUTRAL_WORDS, 0.7), (_FILLER_WORDS, 0.3)),
}
_COMMENT_EXTRAS = {1: _CONSPIRACY_COMMENT_EXTRAS, 0: _NEUTRAL_COMMENT_EXTRAS}


def _draw_words(rng: _PCG64Stream, pools: _Pools, n: int) -> list[str]:
    words, cdf = pools
    out = []
    for _ in range(n):
        pool = words[rng.choice(cdf)]
        out.append(pool[rng.integers(0, len(pool))])
    return out


def generate_platform(spec: PlatformSpec) -> SimulatedPlatform:
    """Build a platform whose two video classes use separated vocabularies.

    Conspiratorial videos draw their snippet, transcript and comments mostly
    from one word pool, the rest from another, with shared filler words in
    both. Comments also carry attribute scores from the bundled lexicon
    scorer, so the attribute modality is populated and mildly class-separable.
    A video drawn as comments-disabled has no comments, so both comment
    modalities are absent for it.

    Every draw comes from ``np.random.default_rng(spec.seed)``'s stream, in
    the order of the loops below, so one seed always gives the same platform.
    """
    rng = _PCG64Stream(spec.seed)
    scorer = LexiconAttributeScorer.bundled()
    share = spec.conspiratorial_share if spec.conspiratorial_share is not None else spec.base_rate
    q = spec.homophily if spec.homophily is not None else spec.base_rate

    channels = []
    videos = []
    ground_truth: dict[str, int] = {}
    video_dates: dict[str, dt.date] = {}
    disabled = set()
    day0 = dt.date(2019, 1, 1)

    for c in range(spec.n_channels):
        channel_id = f"chan{c:04d}"
        last_video_id = None
        for i in range(spec.videos_per_channel):
            video_id = f"vid{c:04d}x{i:03d}"
            label = 1 if rng.random() < share else 0
            pools = _POOLS[label]
            title = " ".join(_draw_words(rng, pools, 6))
            description = " ".join(_draw_words(rng, pools, 20))
            tags = tuple(_draw_words(rng, pools, 4))
            transcript = (
                None
                if rng.random() < spec.transcript_missing_rate
                else " ".join(_draw_words(rng, pools, 60))
            )
            comments = []
            for _ in range(rng.integers(max(1, spec.comments_per_video - 2), spec.comments_per_video + 3)):
                words = _draw_words(rng, pools, rng.integers(4, 12))
                if rng.random() < 0.5:
                    extras = _COMMENT_EXTRAS[label]
                    words.append(extras[rng.integers(0, len(extras))])
                comments.append(score_comment_attributes(scorer, Comment(text=" ".join(words))))
            view_count = rng.integers(100, 1_000_000)
            if rng.random() < spec.comments_disabled_rate:
                disabled.add(video_id)
                comments = []
            video = VideoRecord(
                video_id=video_id,
                channel_id=channel_id,
                title=title,
                description=description,
                tags=tags,
                transcript=transcript,
                view_count=view_count,
                comments=tuple(comments),
            )
            videos.append(video)
            ground_truth[video_id] = label
            video_dates[video_id] = day0 + dt.timedelta(days=i)
            last_video_id = video_id
        channels.append(
            ChannelRecord(
                channel_id=channel_id,
                title=f"Channel {c}",
                subscriber_count=rng.integers(1_000, 10_000_000),
                last_video_id=last_video_id,
            )
        )

    return SimulatedPlatform(
        channels=tuple(channels),
        videos=tuple(videos),
        ground_truth=ground_truth,
        homophily=q,
        base_rate=spec.base_rate,
        seed=spec.seed,
        video_dates=video_dates,
        comments_disabled=frozenset(disabled),
    )


def generate_labeled_set(platform: SimulatedPlatform, count: int, seed: int = 0) -> list[LabeledExample]:
    """Sample a balanced labeled set from the platform's ground truth: half
    the examples conspiratorial, the rest not."""
    rng = np.random.default_rng(seed)
    pos = [v for v in platform.videos if platform.ground_truth[v.video_id] == 1]
    neg = [v for v in platform.videos if platform.ground_truth[v.video_id] != 1]
    half = count // 2
    if len(pos) < half or len(neg) < count - half:
        raise ValueError(
            f"cannot draw a balanced set of {count} from {len(pos)} positive "
            f"and {len(neg)} negative videos"
        )
    picks = [(v, 1) for v in _sample(rng, pos, half)] + [
        (v, 0) for v in _sample(rng, neg, count - half)
    ]
    return [LabeledExample(video=v, label=lab, provenance="synthetic ground truth") for v, lab in picks]


def _sample(rng: np.random.Generator, items: list, n: int) -> list:
    idx = rng.choice(len(items), size=n, replace=False)
    return [items[i] for i in sorted(idx)]
