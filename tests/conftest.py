import builtins
import datetime as dt
import glob
import math
import os
from unittest import mock

import numpy as np
import pytest

from recaudit import store, textmodel
from recaudit.corpus import ChannelRecord, Comment, EdgeColumns, RecommendationEdge, VideoRecord
from recaudit.sources import SimulatedPlatform
from recaudit.textmodel import featurize


def processes() -> list[tuple[int, str, int, int]]:
    """(pid, state, parent pid, process group) of every process listed in
    /proc; empty where there is no /proc. State "Z" is a zombie: a process
    that has ended but that its parent has not yet reaped."""
    out = []
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        out.append((int(path.split("/")[2]), fields[0], int(fields[1]), int(fields[2])))
    return out


def _children() -> set[int]:
    return {pid for pid, _, ppid, _ in processes() if ppid == os.getpid()}


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves behind a child process it started, running or
    ended but not reaped, such as a training helper that was never stopped."""
    before = _children()
    yield
    leaked = _children() - before
    if leaked:
        pytest.fail(f"test left child processes behind: {sorted(leaked)}")


def make_video(video_id, channel_id="chan", comments=(), transcript=None, **kwargs):
    return VideoRecord(
        video_id=video_id,
        channel_id=channel_id,
        comments=tuple(Comment(text=c) if isinstance(c, str) else c for c in comments),
        transcript=transcript,
        **kwargs,
    )


def featurize_examples(examples, hyper):
    """(text, label) pairs as (TextFeatures, label) pairs, the texts
    featurized with ``hyper.ngram`` and ``hyper.buckets``."""
    texts = [text for text, _ in examples]
    return list(zip(featurize(texts, hyper.ngram, hyper.buckets), [label for _, label in examples]))


def forward_score(model, features):
    """The positive-class probability that the SGD step's forward pass,
    ``textmodel._forward``, gives one document alone."""
    rows, n_rows, n_ids = textmodel._rows(model, [features])
    dim = model.hyper.dim
    elem, tgt = textmodel._element_indices(rows, np.zeros(len(rows), np.int64), dim)
    sums = textmodel._sums(n_rows, n_ids, dim)
    params = np.concatenate([model.head, model.bias[:, None]], axis=1)[None]
    p = textmodel._forward(model.embedding.reshape(-1), elem, tgt, sums, params, np.zeros((1, 2, 1)))[1]
    return p[0, 1, 0]


def compensated_sum(iterable, /, start=0):
    """The built-in ``sum`` as CPython 3.12 computes it: ints are added
    exactly, then exact floats (and the ints among them) with Neumaier
    compensation, and from the first item of any other type on, plain
    ``+``."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            if type(item) in (int, bool):
                total += item
            else:
                total = total + item
                break
    if type(total) is float:
        compensation = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif type(item) in (int, bool):
                total += item
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                total, compensation = total + item, 0.0
                break
        if compensation and math.isfinite(compensation):
            total += compensation
    for item in items:
        total = total + item
    return total


@pytest.fixture
def compensated_builtin_sum(monkeypatch):
    """The built-in ``sum`` replaced by :func:`compensated_sum` for one test.
    Returns the list of its calls, each True where it summed at least three
    floats, the fewest that compensation can round differently."""
    calls = []

    def counted(iterable, /, start=0):
        items = list(iterable)
        calls.append(len([item for item in items if type(item) is float]) >= 3)
        return compensated_sum(items, start)

    monkeypatch.setattr(builtins, "sum", counted)
    return calls


def make_edge(src, rec, rank=1, day=dt.date(2019, 6, 1)):
    return RecommendationEdge(
        date=day, source_video_id=src, recommended_video_id=rec, rank=rank
    )


def edge_columns(edges) -> EdgeColumns:
    """Edge objects as the columns the program holds, in order."""
    edges = list(edges)
    return EdgeColumns.from_lists(
        [e.source_video_id for e in edges],
        [e.recommended_video_id for e in edges],
        [e.rank for e in edges],
        [e.date.toordinal() for e in edges],
    )


def from_bundle(path, cls) -> list:
    """The ``cls`` records of ``path`` that ``store.read_records`` returns
    without decoding the file: it fails if the column bundle is not used."""
    with mock.patch.object(store, "read_jsonl", side_effect=AssertionError(f"{path} was decoded")):
        return store.read_records(path, cls)


def edge_objects(columns: EdgeColumns) -> list[RecommendationEdge]:
    """The edges ``columns`` holds, as objects in order."""
    ids = columns.ids
    return [
        make_edge(ids[s], ids[r], rank, dt.date.fromordinal(day))
        for s, r, rank, day in zip(
            columns.source.tolist(), columns.recommended.tolist(), columns.rank.tolist(), columns.date.tolist()
        )
    ]


@pytest.fixture
def hand_platform():
    """Two channels, six videos with known labels and dates; q=1, p=0."""
    channels = (
        ChannelRecord(channel_id="alpha", title="Alpha", last_video_id="a2"),
        ChannelRecord(channel_id="beta", title="Beta", last_video_id="b3"),
    )
    videos = tuple(
        make_video(vid, channel_id=chan, comments=comments)
        for vid, chan, comments in [
            ("a1", "alpha", ["first comment", "second comment", "third comment"]),
            ("a2", "alpha", []),
            ("b1", "beta", ["hello"]),
            ("b2", "beta", ["one", "two"]),
            ("b3", "beta", ["x"]),
            ("b4", "beta", []),
        ]
    )
    truth = {"a1": 1, "a2": 1, "b1": 0, "b2": 0, "b3": 0, "b4": 0}
    dates = {
        "a1": dt.date(2019, 1, 1),
        "a2": dt.date(2019, 1, 5),
        "b1": dt.date(2019, 1, 1),
        "b2": dt.date(2019, 1, 2),
        "b3": dt.date(2019, 1, 9),
        "b4": dt.date(2019, 1, 3),
    }
    return SimulatedPlatform(
        channels=channels,
        videos=videos,
        ground_truth=truth,
        homophily=1.0,
        base_rate=0.0,
        seed=42,
        video_dates=dates,
        comments_disabled=frozenset({"b4"}),
    )
