"""The report stages read snapshot edges as columns and sum with
``np.bincount``. Here the per-edge loops they replaced are kept as the
reference, and every array form must give their results bit for bit.

The reference sums run left to right, as the built-in ``sum`` does on
CPython 3.11 (3.12 compensates it); ``np.bincount`` adds each group's values
in the order given, the edges' file order, on every Python version."""

import dataclasses
import datetime as dt
import math
from collections import Counter
from functools import reduce
from operator import add

import numpy as np
from hypothesis import given, settings, strategies as st

from recaudit.corpus import (
    Corpus,
    DailySnapshot,
    EdgeColumns,
    RecommendationEdge,
    Violation,
    decode_record,
    encode_record,
    validate_corpus,
)
from recaudit.metrics import (
    Period,
    coverage,
    daily_frequencies,
    filter_bubble_matrix,
    raw_frequency,
    weighted_frequency,
)
from recaudit.topics import NmfResult, TopicModel, topic_report

from conftest import edge_columns, make_edge

FIRST = dt.date(2019, 6, 1)
IDS = ("a", "b", "c", "d", "e", "f", "g", "h")


# ---------------------------------------------------------------------------
# The per-edge loops, as the report stages ran them before they read columns
# ---------------------------------------------------------------------------


def left_to_right_sum(values):
    return reduce(add, values, 0)


def reference_classifiable(edges, likelihoods):
    out = []
    for edge in edges:
        like = likelihoods.get(edge.recommended_video_id)
        if like is not None:
            out.append((edge, like))
    return out


def reference_raw_frequency(edges, likelihoods, threshold):
    scored = reference_classifiable(edges, likelihoods)
    if not scored:
        return None
    return left_to_right_sum(like for _, like in scored if like > threshold) / len(scored)


def reference_weighted_frequency(edges, likelihoods, source_views, threshold):
    if any(edge.source_video_id not in source_views for edge in edges):
        return None
    numerator = 0.0
    denominator = 0.0
    for edge, like in reference_classifiable(edges, likelihoods):
        views = source_views[edge.source_video_id]
        if views < 0:
            raise ValueError(f"negative view count for source video {edge.source_video_id}")
        denominator += views
        if like > threshold:
            numerator += views * like
    if denominator == 0.0:
        return None
    return numerator / denominator


def reference_coverage(edges, likelihoods):
    if not edges:
        return 0.0
    return len(reference_classifiable(edges, likelihoods)) / len(edges)


def reference_filter_bubble_matrix(edges, likelihoods, periods, source_bins, threshold):
    grouped = {}
    for edge in edges:
        src_like = likelihoods.get(edge.source_video_id)
        if src_like is None or likelihoods.get(edge.recommended_video_id) is None:
            continue
        b = min(int(src_like * source_bins), source_bins - 1)
        for pi, period in enumerate(periods):
            if edge.date in period:
                grouped.setdefault((pi, b), []).append(edge)
    cells, counts = [], []
    for pi in range(len(periods)):
        buckets = [grouped.get((pi, b), []) for b in range(source_bins)]
        cells.append(tuple(reference_raw_frequency(bucket, likelihoods, threshold) if bucket else None
                           for bucket in buckets))
        counts.append(tuple(len(bucket) for bucket in buckets))
    return tuple(periods), source_bins, tuple(cells), tuple(counts)


def reference_recommendation_shares(edges, likelihoods, assign, k, threshold):
    """``topic_report``'s share of the edges recommending each topic's videos."""
    consp = {vid for vid, like in likelihoods.items() if like is not None and like > threshold}
    rec_counts = [0] * k
    for edge in edges:
        if edge.recommended_video_id in consp:
            rec_counts[assign[edge.recommended_video_id]] += 1
    total = sum(rec_counts)
    return [100.0 * count / total if total else 0.0 for count in rec_counts]


def reference_validate_snapshot(snap, max_rank):
    out = []
    day = snap.date.isoformat()
    slots = set()
    for edge in snap.edges:
        subject = f"{day}:{edge.source_video_id}->{edge.recommended_video_id}"
        if not 1 <= edge.rank <= max_rank:
            out.append(Violation("edge", subject, f"rank {edge.rank} outside [1, {max_rank}]"))
        if edge.source_video_id == edge.recommended_video_id:
            out.append(Violation("edge", subject, "source equals recommended"))
        slot = (edge.date, edge.source_video_id, edge.rank)
        if slot in slots:
            out.append(Violation("edge", subject, f"duplicate rank {edge.rank} for this source and date"))
        slots.add(slot)
        if edge.date != snap.date:
            out.append(Violation("edge", subject, f"edge dated {edge.date} in snapshot {day}"))
    counts = Counter(e.recommended_video_id for e in snap.edges)
    stray = sorted(snap.retained_video_ids - counts.keys())
    for vid in stray:
        out.append(Violation("snapshot", day, f"retained video {vid} has no in-edge"))
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    top = frozenset(vid for vid, _ in ranked[: len(snap.retained_video_ids)])
    if not stray and top != snap.retained_video_ids:
        out.append(Violation("snapshot", day, "retained set is not the top videos by in-edge count"))
    if not 0.0 <= snap.coverage <= 1.0:
        out.append(Violation("snapshot", day, f"coverage {snap.coverage} outside [0, 1]"))
    return out


def reference_validate_snapshots(snapshots, max_rank):
    out, days = [], set()
    for snap in snapshots:
        if snap.date in days:
            out.append(Violation("snapshot", snap.date.isoformat(), "duplicate snapshot date"))
        days.add(snap.date)
        out.extend(reference_validate_snapshot(snap, max_rank))
    return out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def bits(value):
    """``value`` with every float as its hex form, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        return bits(dataclasses.astuple(value))
    return value


def outcome(fn, *args, **kwargs):
    """The bits of what ``fn`` returns, or the type and message of what it raises."""
    try:
        return bits(fn(*args, **kwargs))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@dataclasses.dataclass(frozen=True)
class ObjectSnapshot:
    """A day's snapshot with its edges as objects, as the loops above read it."""

    date: dt.date
    edges: tuple[RecommendationEdge, ...] = ()
    retained_video_ids: frozenset[str] = frozenset()
    coverage: float = 1.0


def as_columns(snapshot: ObjectSnapshot) -> DailySnapshot:
    """The snapshot's JSON record, its edges written as objects, decoded as
    the program reads it."""
    return decode_record(DailySnapshot, encode_record(snapshot))


# An edge: source, recommended, rank, and its date's offset from its day.
edge_specs = st.tuples(
    st.sampled_from(IDS), st.sampled_from(IDS), st.integers(0, 4), st.sampled_from([0, 0, 0, 1, -1])
)
# Likelihoods and view counts; an id may be left out of either map. Most
# likelihoods are inexact in binary, so that sums in another order round
# otherwise, and at most one is NaN.
_LEFT_OUT = object()
_inexact = st.integers(0, 10**6).map(lambda i: i / 1_000_003)


def _likelihood_map(values, nan_id):
    likes = {vid: value for vid, value in zip(IDS, values) if value is not _LEFT_OUT}
    if nan_id is not None:
        likes[nan_id] = math.nan
    return likes


likelihood_maps = st.builds(
    _likelihood_map,
    st.lists(
        st.one_of(_inexact, _inexact, st.floats(0, 1), st.none(), st.just(_LEFT_OUT)),
        min_size=len(IDS),
        max_size=len(IDS),
    ),
    st.one_of(st.none(), st.sampled_from(IDS)),
)
view_maps = st.dictionaries(st.sampled_from(IDS), st.one_of(st.integers(0, 10**6), st.sampled_from([0, -3])))
thresholds = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0, 1))


def snapshots_of(day_offsets, day_edges):
    return [
        ObjectSnapshot(
            date=FIRST + dt.timedelta(days=offset),
            edges=tuple(
                make_edge(src, rec, rank, FIRST + dt.timedelta(days=offset + shift))
                for src, rec, rank, shift in specs
            ),
        )
        for offset, specs in zip(day_offsets, day_edges)
    ]


# Days of a few edges (or none), and days of 12 to 40: numpy's pairwise
# np.sum adds 8 or more values in another order than left to right.
day_edges = st.one_of(st.lists(edge_specs, max_size=3), st.lists(edge_specs, min_size=12, max_size=40))
days = st.lists(day_edges, min_size=1, max_size=4).map(
    lambda day_edges: snapshots_of(range(len(day_edges)), day_edges)
)


class TestFrequencies:
    @settings(deadline=None)
    @given(days, likelihood_maps, view_maps, thresholds)
    def test_daily_frequencies_equal_the_per_edge_loops(self, snapshots, likes, views, threshold):
        expected = []
        try:
            for snap in snapshots:
                raw = reference_raw_frequency(snap.edges, likes, threshold)
                weighted = reference_weighted_frequency(snap.edges, likes, views, threshold)
                expected.append((raw, weighted, reference_coverage(snap.edges, likes)))
            expected = bits(expected)
        except ValueError as exc:  # the first day with a negative view count, as the trends stage met it
            expected = (ValueError, str(exc))
        columns = [as_columns(snap).edges for snap in snapshots]
        assert outcome(daily_frequencies, columns, likes, views, threshold) == expected

    @settings(deadline=None)
    @given(st.lists(edge_specs, max_size=12), likelihood_maps, view_maps, thresholds)
    def test_the_one_day_functions_equal_the_per_edge_loops(self, specs, likes, views, threshold):
        (snap,) = snapshots_of([0], [specs])
        edges, columns = list(snap.edges), as_columns(snap).edges
        assert outcome(raw_frequency, columns, likes, threshold) == outcome(
            reference_raw_frequency, edges, likes, threshold
        )
        assert outcome(weighted_frequency, columns, likes, views, threshold) == outcome(
            reference_weighted_frequency, edges, likes, views, threshold
        )
        assert outcome(coverage, columns, likes) == outcome(reference_coverage, edges, likes)

    def test_the_negative_view_error_names_the_first_classifiable_edge(self):
        snapshots = snapshots_of(
            [0, 1],
            [
                [("a", "b", 1, 0), ("gone", "b", 2, 0)],  # a has -1 views, but "gone" has none at all
                [("c", "x", 1, 0), ("d", "b", 1, 0), ("a", "b", 2, 0)],  # x cannot be classified
            ],
        )
        likes = {"b": 0.9}
        views = {"a": -1, "c": -2, "d": -3}
        columns = [as_columns(snap).edges for snap in snapshots]
        assert outcome(daily_frequencies, columns, likes, views) == (
            ValueError,
            "negative view count for source video d",
        )

    def test_sums_do_not_follow_the_builtin_sum(self, compensated_builtin_sum):
        # Ten likelihoods of 0.1 sum to 0.9999999999999999 left to right, and
        # to 1.0 with the compensation CPython 3.12's sum applies.
        (snap,) = snapshots_of([0], [[(f"s{i}", "r", 1, 0) for i in range(10)]])
        likes = {"r": 0.1}
        assert sum([0.1] * 10) == 1.0 != left_to_right_sum([0.1] * 10) == 0.9999999999999999
        views = {f"s{i}": 1 for i in range(10)}
        ((raw, weighted, _),) = daily_frequencies([as_columns(snap).edges], likes, views, 0.05)
        assert raw == weighted == reference_raw_frequency(snap.edges, likes, 0.05) == 0.9999999999999999 / 10


class TestFilterBubble:
    @settings(deadline=None)
    @given(
        days,
        likelihood_maps,
        st.lists(st.tuples(st.integers(-1, 4), st.integers(0, 3)), min_size=1, max_size=3),
        st.integers(1, 4),
        thresholds,
    )
    def test_cells_equal_the_per_edge_loop(self, snapshots, likes, spans, source_bins, threshold):
        # Periods may overlap, so that an edge counts in each one holding its own date.
        periods = [
            Period(FIRST + dt.timedelta(days=start), FIRST + dt.timedelta(days=start + length))
            for start, length in spans
        ]
        edges = [edge for snap in snapshots for edge in snap.edges]
        expected = outcome(reference_filter_bubble_matrix, edges, likes, periods, source_bins, threshold)
        columns = EdgeColumns.concat([as_columns(snap).edges for snap in snapshots])
        assert outcome(filter_bubble_matrix, columns, likes, periods, source_bins, threshold) == expected

    def test_a_nan_source_likelihood_raises_as_it_did(self):
        edges = [make_edge("s", "r")]
        likes = {"s": math.nan, "r": 0.7}
        periods = [Period(FIRST, FIRST)]
        assert outcome(filter_bubble_matrix, edge_columns(edges), likes, periods) == outcome(
            reference_filter_bubble_matrix, edges, likes, periods, 10, 0.5
        ) == (ValueError, "cannot convert float NaN to integer")


# Each id's topic.
topic_lists = st.lists(st.integers(0, 2), min_size=len(IDS), max_size=len(IDS))


class TestTopicShares:
    @settings(deadline=None)
    @given(days, likelihood_maps, topic_lists, thresholds)
    def test_recommendation_shares_equal_the_per_edge_loop(self, snapshots, likes, topics, threshold):
        k = 3
        W = np.eye(k)[topics]  # each id's row is one-hot on its topic
        model = TopicModel(NmfResult(W=W, H=np.ones((k, 2)), objectives=(1.0,)), ("t0", "t1"), IDS)
        assign = dict(zip(IDS, topics))
        edges = [edge for snap in snapshots for edge in snap.edges]
        expected = bits(reference_recommendation_shares(edges, likes, assign, k, threshold))
        columns = EdgeColumns.concat([as_columns(snap).edges for snap in snapshots])
        report = topic_report(model, columns, likes, threshold=threshold)
        by_topic = {row.topic: row.pct_recommendations for row in report.rows}
        assert bits([by_topic[t] for t in range(k)]) == expected


class TestValidateSnapshots:
    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # day offsets may repeat
                st.lists(edge_specs, max_size=8),
                st.frozensets(st.sampled_from(IDS + ("ghost",)), max_size=3),
                st.sampled_from([1.0, 0.5, 1.5]),
            ),
            max_size=4,
        )
    )
    def test_violations_equal_the_per_edge_loop(self, specs):
        snapshots = [
            dataclasses.replace(snap, retained_video_ids=retained, coverage=share)
            for snap, (_, _, retained, share) in zip(
                snapshots_of([s[0] for s in specs], [s[1] for s in specs]), specs
            )
        ]
        expected = reference_validate_snapshots(snapshots, max_rank=3)
        columns = tuple(as_columns(snap) for snap in snapshots)
        assert validate_corpus(Corpus(snapshots=columns), max_rank=3) == expected
