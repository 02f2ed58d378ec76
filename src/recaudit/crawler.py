"""Seed-channel discovery by snowballing the watch-next graph, cluster-based
seed selection, and the daily recommendation harvest.

Snowball bookkeeping is incremental: admitting a channel only fetches that
channel's own last-video recommendations, while occurrence counters carry
forward, which reaches the same counts as recounting everything each round,
and the next admission is read off a lazily pruned heap of those counts
rather than a scan of every outsider.
All tie-breaks are lexicographic on channel or video key so runs against the
same source state are identical.
"""

from __future__ import annotations

import datetime as dt
import heapq
import logging
from dataclasses import dataclass

from .community import ChannelGraph, Partition
from .corpus import DailySnapshot, EdgeColumns, top_recommended
from .errors import ConfigError, FetchError
from .sources import RecommendationSource

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SnowballResult:
    channels: tuple[str, ...]  # admission order, initial seeds first
    graph: ChannelGraph
    under_target: bool
    dead_channels: tuple[str, ...]


def snowball_channels(
    source: RecommendationSource,
    initial_seeds: list[str],
    target_count: int,
    k: int = 20,
    binary_weights: bool = False,
) -> SnowballResult:
    """Grow the seed set by repeatedly admitting the most-recommended outsider.

    Each round counts one occurrence per observed recommendation slot (so a
    channel recommended at several ranks of one video counts several times),
    admits the highest-count non-member, then expands only that channel.
    A channel or recommended video whose fetch raises a :class:`FetchError`
    is skipped; any other error aborts the snowball. If no outsider is ever
    recommended the result is returned short, flagged ``under_target``.

    The returned graph weights each channel pair by its co-occurrence count;
    ``binary_weights`` flattens that to presence/absence for clustering.
    """
    if not initial_seeds:
        raise ValueError("need at least one initial seed")
    if target_count < len(set(initial_seeds)):
        raise ValueError("target_count smaller than the initial seed set")
    if k < 1:
        raise ValueError("k must be at least 1")

    members: list[str] = []
    member_set: set[str] = set()
    for ch in initial_seeds:
        if ch not in member_set:
            members.append(ch)
            member_set.add(ch)

    counts: dict[str, int] = {}
    # (-count, channel) for every count a channel has reached. A channel's
    # latest entry sorts before its older ones, so once members' entries are
    # popped the smallest entry is the next admission, with its current count.
    ranked: list[tuple[int, str]] = []
    edge_weights: dict[tuple[str, str], int] = {}
    nodes: set[str] = set(members)
    dead: list[str] = []

    def expand(channel_id: str) -> None:
        try:
            video = source.fetch_last_video(channel_id)
            recommended = source.fetch_watch_next(video.video_id, k)
        except FetchError as exc:
            logger.warning("skipping channel %s: %s", channel_id, exc)
            dead.append(channel_id)
            return
        for rec_id in recommended:
            try:
                rec_channel = source.fetch_video(rec_id).channel_id
            except FetchError as exc:
                logger.warning("skipping recommended video %s: %s", rec_id, exc)
                continue
            count = counts[rec_channel] = counts.get(rec_channel, 0) + 1
            heapq.heappush(ranked, (-count, rec_channel))
            nodes.add(rec_channel)
            if rec_channel != channel_id:
                pair = (min(channel_id, rec_channel), max(channel_id, rec_channel))
                edge_weights[pair] = edge_weights.get(pair, 0) + 1

    for ch in members:
        expand(ch)

    under_target = False
    while len(members) < target_count:
        while ranked and ranked[0][1] in member_set:
            heapq.heappop(ranked)
        if not ranked:
            under_target = True
            break
        admitted = heapq.heappop(ranked)[1]
        members.append(admitted)
        member_set.add(admitted)
        expand(admitted)

    graph = ChannelGraph(
        edges=[
            (a, b, 1 if binary_weights else w) for (a, b), w in sorted(edge_weights.items())
        ],
        nodes=sorted(nodes),
    )
    return SnowballResult(
        channels=tuple(members),
        graph=graph,
        under_target=under_target,
        dead_channels=tuple(dead),
    )


def select_seed_cluster(
    partition: Partition,
    manual_additions: list[str] = (),
    cluster_id: int | None = None,
    anchors: list[str] = (),
) -> list[str]:
    """Members of the designated community, plus manual additions, deduplicated.

    The community is designated either directly by id or as the one containing
    every anchor channel.
    """
    communities = partition.communities()
    if cluster_id is None:
        if not anchors:
            raise ConfigError("designate the seed cluster by id or by anchor channels")
        anchor_clusters = set()
        for anchor in anchors:
            if anchor not in partition.assignment:
                raise ConfigError(f"anchor channel {anchor!r} is not in any cluster")
            anchor_clusters.add(partition.assignment[anchor])
        if len(anchor_clusters) > 1:
            raise ConfigError(f"anchor channels span clusters {sorted(anchor_clusters)}")
        cluster_id = anchor_clusters.pop()
    if cluster_id not in communities:
        raise ConfigError(f"no cluster with id {cluster_id}")
    return sorted(set(communities[cluster_id]) | set(manual_additions))


@dataclass(frozen=True)
class HarvestResult:
    snapshot: DailySnapshot
    failures: tuple[tuple[str, str], ...]  # (channel id, reason)


def daily_harvest(
    source: RecommendationSource,
    seeds: list[str],
    date: dt.date,
    k: int = 20,
    retain: int = 1000,
) -> HarvestResult:
    """One day's crawl: every seed channel's last video and its watch-next list.

    A channel whose fetch raises a :class:`FetchError` is recorded as a
    failure and skipped; the snapshot's coverage is the share of seed
    channels that answered. Any other error aborts the harvest: a
    :class:`ConfigError` such as a rejected API key would fail every channel
    alike. The retained set is the ``retain`` most recommended videos of the
    day. The edge multiset does not depend on seed processing order.
    """
    if k < 1 or retain < 1:
        raise ValueError("k and retain must be at least 1")
    seen: set[str] = set()
    channels = [ch for ch in seeds if not (ch in seen or seen.add(ch))]
    sources: list[str] = []
    recommended_ids: list[str] = []
    ranks: list[int] = []
    failures: list[tuple[str, str]] = []
    ok = 0
    for channel_id in channels:
        try:
            video = source.fetch_last_video(channel_id)
            recommended = source.fetch_watch_next(video.video_id, k)
        except FetchError as exc:
            failures.append((channel_id, f"{type(exc).__name__}: {exc}"))
            logger.warning("harvest %s: skipping channel %s (%s)", date, channel_id, exc)
            continue
        ok += 1
        sources += [video.video_id] * len(recommended)
        recommended_ids += recommended
        ranks += range(1, len(recommended) + 1)
    coverage = ok / len(channels) if channels else 0.0
    edges = EdgeColumns.from_lists(sources, recommended_ids, ranks, [date.toordinal()] * len(sources))
    snapshot = DailySnapshot(
        date=date,
        edges=edges,
        retained_video_ids=top_recommended(edges, retain),
        coverage=coverage,
    )
    return HarvestResult(snapshot=snapshot, failures=tuple(failures))
