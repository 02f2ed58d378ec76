import datetime as dt
from collections import Counter

import pytest

from recaudit import errors
from recaudit.community import ChannelGraph, Partition, cluster_channels
from recaudit.corpus import VideoRecord
from recaudit.crawler import daily_harvest, select_seed_cluster, snowball_channels
from recaudit.errors import ChannelStalledError, ConfigError, FetchError, RecauditError
from recaudit.sources import PlatformSpec, generate_platform

from conftest import edge_objects

DAY = dt.date(2019, 4, 2)

FETCH_ERRORS = [cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, FetchError)]


def scripted_platform(recs_by_channel):
    """A platform where channel X's last video recommends a scripted list of
    other channels' videos (one video per channel, id == 'v-<channel>')."""

    class Scripted:
        def __init__(self):
            self.channels = set(recs_by_channel)
            for recs in recs_by_channel.values():
                self.channels.update(recs)

        def fetch_last_video(self, channel_id):
            if channel_id not in self.channels:
                raise __import__("recaudit.errors", fromlist=["ChannelNotFoundError"]).ChannelNotFoundError(channel_id)
            return VideoRecord(video_id=f"v-{channel_id}", channel_id=channel_id)

        def fetch_watch_next(self, video_id, k):
            channel = video_id[2:]
            return [f"v-{rec}" for rec in recs_by_channel.get(channel, [])][:k]

        def fetch_comments(self, video_id, n):
            return []

        def fetch_video(self, video_id):
            return VideoRecord(video_id=video_id, channel_id=video_id[2:])

    return Scripted()


class _Failing:
    """A platform whose ``failing`` channels and videos raise ``error``."""

    def __init__(self, platform, failing, error=ChannelStalledError):
        self.platform, self.failing, self.error = platform, failing, error

    def fetch_last_video(self, channel_id):
        if channel_id in self.failing:
            raise self.error(channel_id)
        return self.platform.fetch_last_video(channel_id)

    def fetch_watch_next(self, video_id, k):
        return self.platform.fetch_watch_next(video_id, k)

    def fetch_video(self, video_id):
        if video_id in self.failing:
            raise self.error(video_id)
        return self.platform.fetch_video(video_id)


def _scan_snowball(source, initial, target, k):
    """Snowball admission by scanning every outsider's count each round:
    (channels, under_target, dead_channels)."""
    members, counts, dead = list(dict.fromkeys(initial)), Counter(), []

    def expand(channel):
        try:
            recs = source.fetch_watch_next(source.fetch_last_video(channel).video_id, k)
        except RecauditError:
            dead.append(channel)
            return
        for rec in recs:
            counts[source.fetch_video(rec).channel_id] += 1

    for channel in members:
        expand(channel)
    while len(members) < target:
        outsiders = [(ch, c) for ch, c in counts.items() if ch not in members]
        if not outsiders:
            return tuple(members), True, tuple(dead)
        members.append(min(outsiders, key=lambda item: (-item[1], item[0]))[0])
        expand(members[-1])
    return tuple(members), False, tuple(dead)


class TestSnowball:
    def test_zero_iterations_returns_seeds_unchanged(self):
        platform = scripted_platform({"s1": ["s2"], "s2": ["s1"]})
        result = snowball_channels(platform, ["s1", "s2"], target_count=2, k=5)
        assert result.channels == ("s1", "s2")
        assert not result.under_target

    def test_highest_occurrence_admitted_first(self):
        # X gets 10 hits across seeds, Y gets 3.
        recs = {
            f"s{i}": ["X"] * 2 + (["Y"] if i < 3 else []) for i in range(5)
        }
        platform = scripted_platform(recs)
        result = snowball_channels(platform, [f"s{i}" for i in range(5)], target_count=7, k=5)
        admitted = result.channels[5:]
        assert admitted == ("X", "Y")

    def test_counts_match_bruteforce_recount(self):
        platform = generate_platform(
            PlatformSpec(n_channels=30, videos_per_channel=5, base_rate=0.3, seed=21)
        )
        initial = platform.channel_ids()[:5]
        target = 12
        result = snowball_channels(platform, initial, target_count=target, k=10)

        # Brute-force recount: replay expansions in admission order and check
        # each admitted channel was the top outsider at its admission time.
        expanded = list(initial)
        counts: Counter = Counter()

        def recount(channel):
            video = platform.fetch_last_video(channel)
            for rec in platform.fetch_watch_next(video.video_id, 10):
                counts[platform.fetch_video(rec).channel_id] += 1

        for ch in initial:
            recount(ch)
        for admitted in result.channels[len(initial) :]:
            members = set(expanded)
            outsiders = {ch: c for ch, c in counts.items() if ch not in members}
            best = min(outsiders.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            assert admitted == best
            expanded.append(admitted)
            recount(admitted)

    def test_deterministic_admission_order(self):
        platform = generate_platform(
            PlatformSpec(n_channels=20, videos_per_channel=5, base_rate=0.3, seed=8)
        )
        initial = platform.channel_ids()[:4]
        a = snowball_channels(platform, initial, target_count=10, k=8)
        b = snowball_channels(platform, initial, target_count=10, k=8)
        assert a.channels == b.channels

    def test_exhaustion_sets_under_target_flag(self):
        platform = scripted_platform({"s1": ["s2"], "s2": ["s1"]})
        result = snowball_channels(platform, ["s1"], target_count=5, k=5)
        assert result.under_target
        assert result.channels == ("s1", "s2")

    def test_graph_counts_co_occurrences(self):
        platform = scripted_platform({"s1": ["X", "X", "Y"], "X": [], "Y": []})
        result = snowball_channels(platform, ["s1"], target_count=3, k=5)
        assert result.graph.neighbors("s1")["X"] == 2
        assert result.graph.neighbors("s1")["Y"] == 1

    def test_binary_weights_flag_flattens_counts(self):
        platform = scripted_platform({"s1": ["X", "X", "Y"], "X": [], "Y": []})
        result = snowball_channels(platform, ["s1"], target_count=3, k=5, binary_weights=True)
        assert result.graph.neighbors("s1")["X"] == 1
        assert result.graph.neighbors("s1")["Y"] == 1

    def test_dead_channels_skipped(self):
        platform = scripted_platform({"s1": ["gone"], "s2": ["s1"]})
        # "gone" has a video (scripted platform auto-creates), so emulate
        # deletion by removing it from the channel set after construction.
        platform.channels.discard("gone")
        result = snowball_channels(platform, ["s1", "s2"], target_count=3, k=5)
        # The channel is admitted on its recommendation count, found dead on
        # expansion, and recorded so callers can prune it.
        assert result.channels == ("s1", "s2", "gone")
        assert "gone" in result.dead_channels

    @pytest.mark.parametrize(
        "seed, target, dead",
        [(1, 25, 0), (2, 60, 0), (3, 30, 6), (4, 60, 6)],
        ids=["reaches-target", "under-target", "dead-channels", "dead-and-under-target"],
    )
    def test_admission_order_matches_a_full_outsider_scan(self, seed, target, dead):
        platform = generate_platform(
            PlatformSpec(n_channels=40, videos_per_channel=3, base_rate=0.3, seed=seed)
        )
        ids = platform.channel_ids()
        source = _Failing(platform, set(ids[-dead:]) if dead else set())
        initial = ids[:4]
        result = snowball_channels(source, initial, target_count=target, k=6)
        assert (result.channels, result.under_target, result.dead_channels) == _scan_snowball(
            source, initial, target, k=6
        )
        assert result.under_target == (target > len(ids))
        assert bool(result.dead_channels) == bool(dead)

    @pytest.mark.parametrize("error", FETCH_ERRORS, ids=lambda cls: cls.__name__)
    def test_each_fetch_error_is_skipped(self, error):
        # x fails on its last video once admitted; y's video fails, so y is never counted.
        platform = scripted_platform({"s1": ["x", "y"], "x": ["s1"], "y": ["s1"]})
        result = snowball_channels(_Failing(platform, {"x", "v-y"}, error), ["s1"], target_count=3, k=5)
        assert (result.channels, result.dead_channels, result.under_target) == (("s1", "x"), ("x",), True)

    @pytest.mark.parametrize("failing", ["x", "v-y"], ids=["last-video", "recommended-video"])
    @pytest.mark.parametrize("error", [ConfigError, RecauditError], ids=lambda cls: cls.__name__)
    def test_any_other_error_aborts(self, error, failing):
        platform = scripted_platform({"s1": ["x", "y"], "x": ["s1"], "y": ["s1"]})
        with pytest.raises(error):
            snowball_channels(_Failing(platform, {failing}, error), ["s1"], target_count=3, k=5)

    def test_argument_validation(self):
        platform = scripted_platform({"s1": []})
        with pytest.raises(ValueError):
            snowball_channels(platform, [], 3)
        with pytest.raises(ValueError):
            snowball_channels(platform, ["s1"], 0)
        with pytest.raises(ValueError):
            snowball_channels(platform, ["s1"], 1, k=0)


class TestSelectSeedCluster:
    def fixture(self):
        return Partition({"a1": 0, "a2": 0, "a3": 0, "b1": 1, "b2": 1})

    def test_members_exactly_without_additions(self):
        partition = self.fixture()
        assert select_seed_cluster(partition, cluster_id=0) == ["a1", "a2", "a3"]

    def test_manual_addition_already_present_not_duplicated(self):
        partition = self.fixture()
        out = select_seed_cluster(partition, manual_additions=["a1", "zz"], cluster_id=0)
        assert out == ["a1", "a2", "a3", "zz"]

    def test_anchor_designates_its_cluster(self):
        partition = self.fixture()
        assert select_seed_cluster(partition, anchors=["b2"]) == ["b1", "b2"]

    def test_unknown_anchor_is_config_error(self):
        partition = self.fixture()
        with pytest.raises(ConfigError):
            select_seed_cluster(partition, anchors=["nope"])

    def test_conflicting_anchors_rejected(self):
        partition = self.fixture()
        with pytest.raises(ConfigError):
            select_seed_cluster(partition, anchors=["a1", "b1"])

    def test_no_designation_rejected(self):
        partition = self.fixture()
        with pytest.raises(ConfigError):
            select_seed_cluster(partition)

    def test_cluster_pipeline_round_trip(self):
        # Louvain output feeds straight into selection.
        graph = ChannelGraph(
            [("a1", "a2", 5), ("a2", "a3", 5), ("a1", "a3", 5), ("z1", "z2", 5), ("a1", "z1", 1)]
        )
        partition = cluster_channels(graph)
        selected = select_seed_cluster(partition, anchors=["a2"])
        assert selected == ["a1", "a2", "a3"]


class TestDailyHarvest:
    def test_fewer_than_retain_keeps_all(self, hand_platform):
        result = daily_harvest(hand_platform, ["alpha", "beta"], DAY, k=3, retain=1000)
        recommended = {e.recommended_video_id for e in edge_objects(result.snapshot.edges)}
        assert result.snapshot.retained_video_ids == recommended
        assert result.snapshot.coverage == 1.0

    def test_retention_prefers_most_recommended(self):
        platform = generate_platform(
            PlatformSpec(n_channels=15, videos_per_channel=8, base_rate=0.3, seed=4)
        )
        result = daily_harvest(platform, platform.channel_ids(), DAY, k=10, retain=5)
        counts = Counter(e.recommended_video_id for e in edge_objects(result.snapshot.edges))
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        assert result.snapshot.retained_video_ids == {vid for vid, _ in ranked[:5]}

    def test_all_channels_failing_yields_empty_snapshot(self, hand_platform):
        result = daily_harvest(hand_platform, ["ghost1", "ghost2"], DAY, k=3, retain=10)
        assert len(result.snapshot.edges) == 0
        assert result.snapshot.coverage == 0.0
        assert len(result.failures) == 2

    def test_partial_failure_coverage(self, hand_platform):
        result = daily_harvest(hand_platform, ["alpha", "ghost"], DAY, k=3, retain=10)
        assert result.snapshot.coverage == 0.5

    @pytest.mark.parametrize("error", FETCH_ERRORS, ids=lambda cls: cls.__name__)
    def test_each_fetch_error_is_recorded_and_skipped(self, hand_platform, error):
        source = _Failing(hand_platform, {"beta"}, error)
        result = daily_harvest(source, ["alpha", "beta"], DAY, k=3, retain=10)
        assert result.snapshot.coverage == 0.5
        assert result.failures == (("beta", f"{error.__name__}: beta"),)

    @pytest.mark.parametrize("error", [ConfigError, RecauditError], ids=lambda cls: cls.__name__)
    def test_any_other_error_aborts(self, hand_platform, error):
        with pytest.raises(error):
            daily_harvest(_Failing(hand_platform, {"beta"}, error), ["alpha", "beta"], DAY, k=3, retain=10)

    def test_edge_multiset_invariant_under_seed_order(self, hand_platform):
        forward = daily_harvest(hand_platform, ["alpha", "beta"], DAY, k=4, retain=10)
        backward = daily_harvest(hand_platform, ["beta", "alpha"], DAY, k=4, retain=10)
        assert Counter(edge_objects(forward.snapshot.edges)) == Counter(edge_objects(backward.snapshot.edges))
        assert forward.snapshot.retained_video_ids == backward.snapshot.retained_video_ids

    def test_ranks_start_at_one_and_stay_dense(self, hand_platform):
        result = daily_harvest(hand_platform, ["alpha"], DAY, k=4, retain=10)
        ranks = sorted(e.rank for e in edge_objects(result.snapshot.edges))
        assert ranks == list(range(1, len(ranks) + 1))

    def test_duplicate_seed_entries_processed_once(self, hand_platform):
        once = daily_harvest(hand_platform, ["alpha"], DAY, k=3, retain=10)
        twice = daily_harvest(hand_platform, ["alpha", "alpha"], DAY, k=3, retain=10)
        assert Counter(edge_objects(once.snapshot.edges)) == Counter(edge_objects(twice.snapshot.edges))
