"""Where platform data comes from: the source interface and the simulator.

The simulator is a fixed platform-state snapshot with known ground truth.
Every recommendation draw is a pure function of (seed, source video, rank,
attempt) through a counter-based hash, so regenerating with the same seed
reproduces identical edges and concurrent callers never contend on shared
state. The homophily parameter q sets the probability that a conspiratorial
source recommends conspiratorial content; non-conspiratorial sources use the
base rate p.

The platform generator draws from ``np.random.default_rng(seed)``'s stream
without calling ``Generator``: it makes the control draws (labels, counts,
view counts) from the raw PCG64 words in plain Python, steps over each
text's words, and then computes every word in numpy passes over the raw
words. Both apply numpy's own rules, so the platform is the one the
per-call ``Generator`` code would build, byte for byte.
"""

from __future__ import annotations

import datetime as dt
import hashlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Protocol, Sequence

import numpy as np

from .attributes import LexiconAttributeScorer
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

    :meth:`skip_words` steps over the draws of a run of words without making
    them, and :meth:`drawn` gives back any stretch of raw words, from which
    :func:`_bulk_words` computes many skipped words at once.
    """

    _BLOCK = 4096  # words fetched per ``random_raw`` call

    def __init__(self, seed: int):
        self._bits = np.random.default_rng(seed).bit_generator
        self._origin = self._bits.state
        self._words: list[int] = []
        self._base = 0  # the raw words drawn before ``_words``
        self._next = 0
        self._half: Optional[int] = None  # the unused high half of a split word

    def _fetch(self) -> None:
        self._base += len(self._words)
        self._next -= len(self._words)
        self._words = self._bits.random_raw(self._BLOCK).tolist()

    def _word(self) -> int:
        if self._next == len(self._words):
            self._fetch()
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

    def skip_words(self, n: int) -> tuple[int, Optional[int]]:
        """Step over the draws of ``_draw_words(self, pools, n)``, a ``choice``
        and a bounded ``integers`` per word, assuming no bounded draw is
        rejected and every pool has at least two words.

        Returns the index in the raw stream of the first word's ``random()``
        and the uint32 half cached then (None if none is). With ``h0`` = 1
        when a half is cached, word ``j`` takes its ``random()`` from raw
        word ``start + j + (j + 1 - h0) // 2``; its ``integers()`` takes the
        low half of the next raw word when ``j + h0`` is even, else the half
        cached before it: the returned one for ``j`` = 0, or the high half
        of the raw word before its ``random()``'s.
        """
        start, half = self._base + self._next, self._half
        cached = half is not None
        self._next += n + (n + 1 - cached) // 2
        while self._next > len(self._words):
            self._fetch()
        if n:
            self._half = self._words[self._next - 1] >> 32 if (n + cached) % 2 else None
        return start, half

    def drawn(self, begin: int, end: int) -> np.ndarray:
        """Raw words ``begin`` to ``end`` (exclusive) of the stream, drawn
        again by a bit generator put in the stream's starting state."""
        bits = np.random.PCG64()
        bits.state = self._origin
        bits.advance(begin)
        return bits.random_raw(end - begin)


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


class _PoolTable(NamedTuple):
    """One label's pools as arrays: the cdf, each pool's size, Lemire's
    rejection threshold ``2**32 % size``, and its first word's place in
    ``_VOCABULARY``."""

    cdf: np.ndarray
    sizes: np.ndarray
    thresholds: np.ndarray
    offsets: np.ndarray


def _pool_tables() -> tuple[np.ndarray, dict[int, _PoolTable]]:
    vocabulary: list[str] = []
    tables = {}
    for label, (pools, cdf) in _POOLS.items():
        sizes = np.array([len(words) for words in pools], dtype=np.uint64)
        offsets = []
        for words in pools:
            offsets.append(len(vocabulary))
            vocabulary.extend(words)
        tables[label] = _PoolTable(np.array(cdf), sizes, 2**32 % sizes, np.array(offsets))
    return np.array(vocabulary, dtype=object), tables


_VOCABULARY, _POOL_TABLES = _pool_tables()


def _draw_words(rng: _PCG64Stream, pools: _Pools, n: int) -> list[str]:
    words, cdf = pools
    out = []
    for _ in range(n):
        pool = words[rng.choice(cdf)]
        out.append(pool[rng.integers(0, len(pool))])
    return out


def _bulk_words(
    rng: _PCG64Stream, table: _PoolTable, starts: Sequence[int], halves: Sequence[int], counts: Sequence[int]
) -> Optional[list[str]]:
    """The words of texts ``rng`` skipped (:meth:`_PCG64Stream.skip_words`),
    texts in order, all drawn from one label's pools. They are computed from
    the raw words by the rules ``skip_words`` gives; ``halves`` holds -1
    where no half was cached. None when a bounded draw would be rejected and
    redrawn, which moves every later draw."""
    counts = np.asarray(counts, dtype=np.int64)
    halves = np.asarray(halves, dtype=np.int64)
    text = np.repeat(np.arange(len(counts)), counts)
    if not len(text):
        return []
    first = np.cumsum(counts) - counts
    j = np.arange(len(text)) - first[text]
    cached = halves >= 0
    h0 = cached.astype(np.int64)[text]
    at = np.asarray(starts, dtype=np.int64)[text] + j + (j + 1 - h0) // 2  # each word's random()
    begin = max(int(at[0]) - 1, 0)
    raw = rng.drawn(begin, int(at[-1]) + 2)
    at -= begin
    pool = np.searchsorted(table.cdf, (raw[at] >> 11) * 2.0**-53, side="right")
    low = (j + h0) % 2 == 0
    split = raw[np.where(low, at + 1, at - 1)]
    u32 = np.where(low, split & 0xFFFFFFFF, split >> 32)
    opens_on_half = cached & (counts > 0)
    u32[first[opens_on_half]] = halves[opens_on_half]
    m = u32 * table.sizes[pool]
    if np.any(m & 0xFFFFFFFF < table.thresholds[pool]):
        return None
    return _VOCABULARY[table.offsets[pool] + (m >> 32).astype(np.int64)].tolist()


class _Words:
    """Each label's words in the order its texts were drawn, drawn one word
    at a time as each text comes up; :meth:`take` hands them out text by
    text in the same order."""

    def __init__(self, rng: _PCG64Stream):
        self.rng = rng
        self._words: dict[int, list[str]] = {label: [] for label in _POOLS}
        self._taken = dict.fromkeys(_POOLS, 0)

    def draw(self, label: int, n: int) -> None:
        self._words[label] += _draw_words(self.rng, _POOLS[label], n)

    def finish(self) -> bool:
        """Whether every drawn text's words are known."""
        return True

    def take(self, label: int, n: int) -> list[str]:
        """The words of the next text drawn for ``label``, of ``n`` words."""
        begin = self._taken[label]
        self._taken[label] = begin + n
        return self._words[label][begin : begin + n]


_TEXTS_PER_PASS = 1024  # texts per numpy pass, which bounds its arrays


class _BulkWords(_Words):
    """:class:`_Words` whose texts are skipped as they come up, and computed
    by :func:`_bulk_words` when the control draws are done."""

    def __init__(self, rng: _PCG64Stream):
        super().__init__(rng)
        # Each label's texts: their starts, halves and word counts.
        self._plans = {label: (array("q"), array("q"), array("q")) for label in _POOLS}

    def draw(self, label: int, n: int) -> None:
        start, half = self.rng.skip_words(n)
        starts, halves, counts = self._plans[label]
        starts.append(start)
        halves.append(-1 if half is None else half)
        counts.append(n)

    def finish(self) -> bool:
        """Compute the words; False when the stream needs the per-word path."""
        for label, (starts, halves, counts) in self._plans.items():
            for lo in range(0, len(counts), _TEXTS_PER_PASS):
                part = slice(lo, lo + _TEXTS_PER_PASS)
                words = _bulk_words(self.rng, _POOL_TABLES[label], starts[part], halves[part], counts[part])
                if words is None:
                    return False
                self._words[label] += words
        return True


def generate_platform(spec: PlatformSpec) -> SimulatedPlatform:
    """Build a platform whose two video classes use separated vocabularies.

    Conspiratorial videos draw their snippet, transcript and comments mostly
    from one word pool, the rest from another, with shared filler words in
    both. Comments also carry attribute scores from the bundled lexicon
    scorer, so the attribute modality is populated and mildly class-separable.
    A video drawn as comments-disabled has no comments, so both comment
    modalities are absent for it.

    Every draw comes from ``np.random.default_rng(spec.seed)``'s stream, in
    the order of the loops in :func:`_generate`, so one seed always gives the
    same platform. The control draws are made one by one and the words in
    numpy passes (:class:`_BulkWords`); if a pass meets a bounded draw that
    numpy would reject and redraw, the platform is drawn again one word at a
    time (:class:`_Words`), to the same values.
    """
    platform = _generate(spec, _BulkWords(_PCG64Stream(spec.seed)))
    if platform is None:
        platform = _generate(spec, _Words(_PCG64Stream(spec.seed)))
    return platform


def _generate(spec: PlatformSpec, texts: _Words) -> Optional[SimulatedPlatform]:
    """The platform, or None when ``texts`` cannot finish its words."""
    rng = texts.rng
    share = spec.conspiratorial_share if spec.conspiratorial_share is not None else spec.base_rate
    q = spec.homophily if spec.homophily is not None else spec.base_rate

    # Every draw, in stream order; the words are left to ``texts``.
    drawn = []
    subscriber_counts = []
    for c in range(spec.n_channels):
        for i in range(spec.videos_per_channel):
            label = 1 if rng.random() < share else 0
            for n in (6, 20, 4):  # title, description, tags
                texts.draw(label, n)
            has_transcript = rng.random() >= spec.transcript_missing_rate
            if has_transcript:
                texts.draw(label, 60)
            comments = []
            for _ in range(rng.integers(max(1, spec.comments_per_video - 2), spec.comments_per_video + 3)):
                n = rng.integers(4, 12)
                texts.draw(label, n)
                extra = []
                if rng.random() < 0.5:
                    extras = _COMMENT_EXTRAS[label]
                    extra.append(extras[rng.integers(0, len(extras))])
                comments.append((n, extra))
            view_count = rng.integers(100, 1_000_000)
            disabled = rng.random() < spec.comments_disabled_rate
            drawn.append((c, i, label, has_transcript, comments, view_count, disabled))
        subscriber_counts.append(rng.integers(1_000, 10_000_000))
    if not texts.finish():
        return None

    scorer = LexiconAttributeScorer.bundled()
    take = texts.take
    videos = []
    ground_truth: dict[str, int] = {}
    video_dates: dict[str, dt.date] = {}
    disabled_ids = set()
    day0 = dt.date(2019, 1, 1)
    for c, i, label, has_transcript, comments, view_count, disabled in drawn:
        video_id = f"vid{c:04d}x{i:03d}"
        title, description, tags = take(label, 6), take(label, 20), take(label, 4)
        transcript = " ".join(take(label, 60)) if has_transcript else None
        # Every pool word and comment extra is one token, so a comment's
        # words are its tokens.
        tokens = [take(label, n) + extra for n, extra in comments]
        if disabled:
            disabled_ids.add(video_id)
            tokens = []
        videos.append(
            VideoRecord(
                video_id=video_id,
                channel_id=f"chan{c:04d}",
                title=" ".join(title),
                description=" ".join(description),
                tags=tuple(tags),
                transcript=transcript,
                view_count=view_count,
                comments=tuple(
                    Comment(text=" ".join(words), attribute_scores=scorer.score_tokens(words)) for words in tokens
                ),
            )
        )
        ground_truth[video_id] = label
        video_dates[video_id] = day0 + dt.timedelta(days=i)
    channels = tuple(
        ChannelRecord(
            channel_id=f"chan{c:04d}",
            title=f"Channel {c}",
            subscriber_count=subscriber_counts[c],
            last_video_id=f"vid{c:04d}x{spec.videos_per_channel - 1:03d}" if spec.videos_per_channel else None,
        )
        for c in range(spec.n_channels)
    )

    return SimulatedPlatform(
        channels=channels,
        videos=tuple(videos),
        ground_truth=ground_truth,
        homophily=q,
        base_rate=spec.base_rate,
        seed=spec.seed,
        video_dates=video_dates,
        comments_disabled=frozenset(disabled_ids),
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
