import dataclasses
import datetime as dt

import numpy as np
import pytest

from recaudit import sources
from recaudit.attributes import LexiconAttributeScorer, score_comment_attributes
from recaudit.corpus import ATTRIBUTE_NAMES, ChannelRecord, Comment, VideoRecord
from recaudit.errors import (
    ChannelNotFoundError,
    ChannelStalledError,
    CommentsDisabledError,
    VideoNotFoundError,
)
from recaudit.sources import (
    PlatformSpec,
    SimulatedPlatform,
    generate_labeled_set,
    generate_platform,
)


class TestFetchLastVideo:
    def test_singleton_channel(self, hand_platform):
        assert hand_platform.fetch_last_video("alpha").video_id == "a2"

    def test_missing_channel(self, hand_platform):
        with pytest.raises(ChannelNotFoundError):
            hand_platform.fetch_last_video("nope")

    def test_max_by_date_oracle(self, hand_platform):
        # Channel beta has four dated videos; the latest date wins.
        dates = hand_platform.video_dates
        beta_videos = [v.video_id for v in hand_platform.videos if v.channel_id == "beta"]
        expected = max(beta_videos, key=lambda vid: (dates[vid], vid))
        assert hand_platform.fetch_last_video("beta").video_id == expected

    def test_stalled_channel(self):
        platform = SimulatedPlatform(
            channels=(ChannelRecord(channel_id="empty"),),
            videos=(),
            ground_truth={},
            homophily=0.5,
            base_rate=0.5,
            seed=0,
        )
        with pytest.raises(ChannelStalledError):
            platform.fetch_last_video("empty")

    def test_snippet_populated(self, hand_platform):
        video = hand_platform.fetch_last_video("alpha")
        assert isinstance(video.snippet(), str)


class TestWatchNext:
    def test_supply_limited(self, hand_platform):
        # Six videos total, so at most five candidates besides the source.
        out = hand_platform.fetch_watch_next("a1", 20)
        assert len(out) == 5

    def test_no_duplicates_and_excludes_source(self, hand_platform):
        out = hand_platform.fetch_watch_next("a1", 20)
        assert len(set(out)) == len(out)
        assert "a1" not in out

    def test_deterministic_across_calls(self, hand_platform):
        assert hand_platform.fetch_watch_next("b1", 4) == hand_platform.fetch_watch_next("b1", 4)

    def test_prefix_stability(self, hand_platform):
        # Rank slots are drawn independently, so asking for fewer slots
        # returns a prefix of the longer list.
        assert hand_platform.fetch_watch_next("b1", 2) == hand_platform.fetch_watch_next("b1", 4)[:2]

    def test_missing_video(self, hand_platform):
        with pytest.raises(VideoNotFoundError):
            hand_platform.fetch_watch_next("ghost", 5)

    def test_k_validation(self, hand_platform):
        with pytest.raises(ValueError):
            hand_platform.fetch_watch_next("a1", 0)

    def test_full_homophily_from_conspiratorial_source(self):
        platform = generate_platform(
            PlatformSpec(n_channels=10, videos_per_channel=10, base_rate=0.3, homophily=1.0, seed=5)
        )
        consp_sources = [vid for vid, lab in platform.ground_truth.items() if lab == 1][:10]
        for src in consp_sources:
            for rec in platform.fetch_watch_next(src, 10):
                assert platform.ground_truth[rec] == 1

    def test_regenerating_platform_reproduces_edges(self):
        spec = PlatformSpec(n_channels=8, videos_per_channel=6, base_rate=0.4, seed=123)
        a, b = generate_platform(spec), generate_platform(spec)
        for video in a.videos[:10]:
            assert a.fetch_watch_next(video.video_id, 8) == b.fetch_watch_next(video.video_id, 8)

    def test_marginal_matches_base_rate(self):
        # q = p, so every slot draws conspiratorial with probability p.
        platform = generate_platform(
            PlatformSpec(n_channels=25, videos_per_channel=20, base_rate=0.3, seed=17)
        )
        draws = 0
        hits = 0
        for video in platform.videos:
            for rec in platform.fetch_watch_next(video.video_id, 20):
                draws += 1
                hits += platform.ground_truth[rec]
        assert draws == 10_000
        assert hits / draws == pytest.approx(0.3, abs=0.02)


class TestComments:
    def test_all_comments_in_order(self, hand_platform):
        out = hand_platform.fetch_comments("a1", 200)
        assert [c.text for c in out] == ["first comment", "second comment", "third comment"]

    def test_disabled_is_an_error_not_empty(self, hand_platform):
        with pytest.raises(CommentsDisabledError):
            hand_platform.fetch_comments("b4", 10)

    def test_top_one_by_relevance_order(self, hand_platform):
        out = hand_platform.fetch_comments("a1", 1)
        assert [c.text for c in out] == ["first comment"]

    def test_n_validation(self, hand_platform):
        with pytest.raises(ValueError):
            hand_platform.fetch_comments("a1", 0)


class TestAttributeScorer:
    def test_empty_text_scores_zero(self):
        scorer = LexiconAttributeScorer.bundled()
        assert score_comment_attributes(scorer, Comment(text="")).attribute_scores == (0.0,) * 7

    def test_scores_in_unit_interval(self):
        scorer = LexiconAttributeScorer.bundled()
        scores = score_comment_attributes(
            scorer, Comment(text="you idiot morons spread lies kill hate damn damn damn")
        ).attribute_scores
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_single_lexicon_token_scores_its_weight(self):
        lexicons = {name: {} for name in ATTRIBUTE_NAMES}
        lexicons["profanity"] = {"zounds": 0.35}
        lexicons["toxicity"] = {"meanie": 0.2}
        scorer = LexiconAttributeScorer(lexicons)
        scores = score_comment_attributes(scorer, Comment(text="well zounds indeed")).attribute_scores
        expected = [0.0] * 7
        expected[ATTRIBUTE_NAMES.index("profanity")] = 0.35
        assert scores == tuple(expected)

    def test_sum_caps_at_one(self):
        lexicons = {name: {} for name in ATTRIBUTE_NAMES}
        lexicons["threat"] = {"boom": 0.6}
        scorer = LexiconAttributeScorer(lexicons)
        scores = score_comment_attributes(scorer, Comment(text="boom boom boom")).attribute_scores
        assert scores[ATTRIBUTE_NAMES.index("threat")] == 1.0

    def test_attribute_order_is_fixed(self):
        assert ATTRIBUTE_NAMES == (
            "toxicity",
            "spam",
            "unsubstantial",
            "threat",
            "incoherent",
            "profanity",
            "inflammatory",
        )

    def test_missing_lexicon_rejected(self):
        with pytest.raises(ValueError):
            LexiconAttributeScorer({"toxicity": {}})

    def test_range_contract_enforced_on_scorer_output(self):
        class Broken:
            def score(self, comment):
                return (2.0, 0, 0, 0, 0, 0, 0)

        with pytest.raises(ValueError):
            score_comment_attributes(Broken(), Comment(text="x"))


class TestGenerator:
    def test_stock_share_tracks_parameter(self):
        platform = generate_platform(
            PlatformSpec(n_channels=30, videos_per_channel=20, base_rate=0.1, conspiratorial_share=0.5, seed=3)
        )
        share = np.mean([platform.ground_truth[v.video_id] for v in platform.videos])
        assert share == pytest.approx(0.5, abs=0.06)

    def test_comments_carry_attribute_scores(self):
        platform = generate_platform(PlatformSpec(n_channels=4, videos_per_channel=3, seed=1))
        some_comment = platform.videos[0].comments[0]
        assert some_comment.attribute_scores is not None
        assert len(some_comment.attribute_scores) == 7

    def test_a_video_with_comments_disabled_has_none(self):
        # The disabled draw follows every other draw of a video, so the rate
        # changes nothing but which videos lose their comments.
        spec = PlatformSpec(n_channels=6, videos_per_channel=5, comments_disabled_rate=0.5, seed=2)
        platform = generate_platform(spec)
        enabled = generate_platform(dataclasses.replace(spec, comments_disabled_rate=0.0))
        assert 0 < len(platform.comments_disabled) < len(platform.videos)
        for video, reference in zip(platform.videos, enabled.videos, strict=True):
            disabled = video.video_id in platform.comments_disabled
            assert video == (dataclasses.replace(reference, comments=()) if disabled else reference)
        assert platform.channels == enabled.channels

    def test_labeled_set_is_balanced(self):
        platform = generate_platform(
            PlatformSpec(n_channels=20, videos_per_channel=20, base_rate=0.5, seed=2)
        )
        labeled = generate_labeled_set(platform, 100, seed=9)
        assert sum(ex.label for ex in labeled) == 50
        assert len(labeled) == 100

    def test_labeled_set_deterministic(self):
        platform = generate_platform(
            PlatformSpec(n_channels=20, videos_per_channel=20, base_rate=0.5, seed=2)
        )
        a = generate_labeled_set(platform, 60, seed=4)
        b = generate_labeled_set(platform, 60, seed=4)
        assert [ex.video.video_id for ex in a] == [ex.video.video_id for ex in b]


# ---------------------------------------------------------------------------
# generate_platform replays numpy's Generator draws from the raw PCG64 words.
# The per-call numpy code below is the reference it must match draw for draw.
# ---------------------------------------------------------------------------

NUMPY_CHANGED = "numpy's Generator internals changed: the PCG64 replay no longer matches"


def _reference_draw_words(rng, pools, n):
    probs = np.array([weight for _, weight in pools], dtype=float)
    probs /= probs.sum()
    out = []
    for _ in range(n):
        pool = pools[rng.choice(len(pools), p=probs)][0]
        out.append(pool[rng.integers(len(pool))])
    return out


def _reference_platform(spec):
    """generate_platform as one numpy Generator call per draw."""
    rng = np.random.default_rng(spec.seed)
    scorer = LexiconAttributeScorer.bundled()
    share = spec.conspiratorial_share if spec.conspiratorial_share is not None else spec.base_rate
    q = spec.homophily if spec.homophily is not None else spec.base_rate
    channels, videos = [], []
    ground_truth, video_dates, disabled = {}, {}, set()
    day0 = dt.date(2019, 1, 1)
    for c in range(spec.n_channels):
        channel_id = f"chan{c:04d}"
        last_video_id = None
        for i in range(spec.videos_per_channel):
            video_id = f"vid{c:04d}x{i:03d}"
            label = 1 if rng.random() < share else 0
            if label == 1:
                pools = [(sources._CONSPIRACY_WORDS, 0.7), (sources._FILLER_WORDS, 0.3)]
                extras = sources._CONSPIRACY_COMMENT_EXTRAS
            else:
                pools = [(sources._NEUTRAL_WORDS, 0.7), (sources._FILLER_WORDS, 0.3)]
                extras = sources._NEUTRAL_COMMENT_EXTRAS
            title = " ".join(_reference_draw_words(rng, pools, 6))
            description = " ".join(_reference_draw_words(rng, pools, 20))
            tags = tuple(_reference_draw_words(rng, pools, 4))
            transcript = (
                None
                if rng.random() < spec.transcript_missing_rate
                else " ".join(_reference_draw_words(rng, pools, 60))
            )
            comments = []
            for _ in range(int(rng.integers(max(1, spec.comments_per_video - 2), spec.comments_per_video + 3))):
                words = _reference_draw_words(rng, pools, int(rng.integers(4, 12)))
                if rng.random() < 0.5:
                    words.append(extras[rng.integers(len(extras))])
                comments.append(score_comment_attributes(scorer, Comment(text=" ".join(words))))
            view_count = int(rng.integers(100, 1_000_000))
            if rng.random() < spec.comments_disabled_rate:
                disabled.add(video_id)
                comments = []
            videos.append(
                VideoRecord(
                    video_id=video_id,
                    channel_id=channel_id,
                    title=title,
                    description=description,
                    tags=tags,
                    transcript=transcript,
                    view_count=view_count,
                    comments=tuple(comments),
                )
            )
            ground_truth[video_id] = label
            video_dates[video_id] = day0 + dt.timedelta(days=i)
            last_video_id = video_id
        channels.append(
            ChannelRecord(
                channel_id=channel_id,
                title=f"Channel {c}",
                subscriber_count=int(rng.integers(1_000, 10_000_000)),
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


@pytest.mark.parametrize(
    "spec",
    [
        PlatformSpec(n_channels=120, videos_per_channel=10, base_rate=0.3, seed=11),
        PlatformSpec(n_channels=50, videos_per_channel=10, base_rate=0.5, comments_per_video=4, seed=0),
        PlatformSpec(n_channels=15, videos_per_channel=6, base_rate=0.2, comments_disabled_rate=0.3, seed=5),
        PlatformSpec(n_channels=12, videos_per_channel=5, base_rate=0.6, comments_per_video=1, seed=99),
    ],
    ids=["audit", "train", "comments-disabled", "one-comment"],
)
def test_replay_matches_numpy_generator(spec):
    replayed, reference = generate_platform(spec), _reference_platform(spec)
    assert replayed.channels == reference.channels, NUMPY_CHANGED
    assert replayed.videos == reference.videos, NUMPY_CHANGED
    assert replayed.ground_truth == reference.ground_truth, NUMPY_CHANGED
    assert replayed.video_dates == reference.video_dates, NUMPY_CHANGED
    assert replayed.comments_disabled == reference.comments_disabled, NUMPY_CHANGED
    assert (replayed.homophily, replayed.base_rate, replayed.seed) == (
        reference.homophily,
        reference.base_rate,
        reference.seed,
    )


@pytest.mark.parametrize("n", [1, 2, 7, 999_899, 2**31 + 1, 2**32 - 1])
def test_stream_integers_match_generator(n):
    # Doubles drawn between bounded draws must leave the buffered uint32
    # half where numpy leaves it, so the two kinds are interleaved. With
    # n = 2**31 + 1 about half the bounded draws are rejected and redrawn.
    stream, rng = sources._PCG64Stream(7), np.random.default_rng(7)
    for i in range(2000):
        assert stream.integers(3, 3 + n) == rng.integers(3, 3 + n), NUMPY_CHANGED
        if i % 3 == 0:
            assert stream.random() == rng.random(), NUMPY_CHANGED
    assert stream.random() == rng.random(), NUMPY_CHANGED


def test_stream_choice_matches_generator():
    words, cdf = sources._POOLS[1]
    stream, rng = sources._PCG64Stream(3), np.random.default_rng(3)
    p = np.array([0.7, 0.3])
    for _ in range(2000):
        assert stream.choice(cdf) == rng.choice(len(words), p=p), NUMPY_CHANGED


@pytest.mark.parametrize("low, high", [(0, 2**32 + 1), (5, 5 + 2**32), (0, 0), (4, 3)])
def test_stream_rejects_ranges_it_cannot_replay(low, high):
    with pytest.raises(ValueError, match="outside"):
        sources._PCG64Stream(0).integers(low, high)
