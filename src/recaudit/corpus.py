"""Shared domain types for crawled platform objects, plus corpus validation.

Every other module speaks these types. All of them are frozen dataclasses
with tuple-valued collections, so instances are immutable after construction
and safe to share across concurrent readers. Text fields are normalized to
NFC at construction so that downstream tokenization is deterministic.

Range invariants (non-negative counts, rank bounds, retained-set consistency)
are deliberately NOT enforced in constructors: bad data must be representable
so that ``validate_corpus`` can report it. Shape invariants that would break
the representation itself (a 5-element attribute vector, say) do raise, and
so does an attribute score outside [0, 1] or not finite, which would
otherwise reach the classifier's features unnoticed. ``Comment`` is the one
place that rule is checked: every scored comment is built through it.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import functools
import hashlib
import io
import json
import operator
import os
import typing
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import MALFORMED, ArtifactCorruptError, OutputWriteError

ATTRIBUTE_NAMES = (
    "toxicity",
    "spam",
    "unsubstantial",
    "threat",
    "incoherent",
    "profanity",
    "inflammatory",
)

#: Conventional caps mirrored by the harvest defaults.
MAX_COMMENTS = 200
MAX_RANK = 20
MAX_RETAINED = 1000

#: A video's text fields, one text module of the classifier each.
TEXT_FIELDS = ("transcript", "snippet", "comments")

CONSPIRATORIAL = 1
NON_CONSPIRATORIAL = 0


def _nfc(value: str) -> str:
    return unicodedata.normalize("NFC", value)


@dataclass(frozen=True)
class ChannelRecord:
    channel_id: str
    title: str = ""
    subscriber_count: int = 0
    last_video_id: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "title", _nfc(self.title))


@dataclass(frozen=True)
class Comment:
    text: str
    attribute_scores: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "text", _nfc(self.text))
        if self.attribute_scores is not None:
            scores = tuple(float(s) for s in self.attribute_scores)
            if len(scores) != len(ATTRIBUTE_NAMES):
                raise ValueError(
                    f"attribute_scores must have {len(ATTRIBUTE_NAMES)} entries, got {len(scores)}"
                )
            bad = [s for s in scores if not 0.0 <= s <= 1.0]  # NaN fails too
            if bad:
                raise ValueError(f"attribute scores outside [0, 1]: {bad}")
            object.__setattr__(self, "attribute_scores", scores)


@dataclass(frozen=True)
class VideoRecord:
    video_id: str
    channel_id: str
    title: str = ""
    description: str = ""
    tags: tuple[str, ...] = ()
    transcript: Optional[str] = None
    view_count: int = 0
    comments: tuple[Comment, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "title", _nfc(self.title))
        object.__setattr__(self, "description", _nfc(self.description))
        object.__setattr__(self, "tags", tuple(_nfc(t) for t in self.tags))
        if self.transcript is not None:
            object.__setattr__(self, "transcript", _nfc(self.transcript))
        object.__setattr__(self, "comments", tuple(self.comments))

    def snippet(self) -> str:
        """Title, description and tags folded into one text field.

        Always defined, even when every part is empty. A missing transcript is
        a different state from an empty one; the snippet has no such split.
        """
        return "\n".join([self.title, self.description, " ".join(self.tags)])

    def texts(self) -> tuple[tuple[str, ...], ...]:
        """The video's texts for each of ``TEXT_FIELDS``: the transcript (none
        or one), the snippet (one) and one text per comment."""
        return (
            () if self.transcript is None else (self.transcript,),
            (self.snippet(),),
            tuple(c.text for c in self.comments),
        )


# The projection of a video file's lines: a stage that reads only these
# fields decodes them alone, through the same codec, so each field keeps its
# JSON type check and the rest of the line (comments included) goes unchecked.


@dataclass(frozen=True)
class VideoKey:
    """A video, its channel and its view count: what the simulated platform
    and ``trends`` read, and what the video file's column bundle holds."""

    video_id: str
    channel_id: str
    view_count: int = 0


@dataclass(frozen=True)
class RecommendationEdge:
    """The schema of one edge object in a snapshot line. The program holds
    edges as :class:`EdgeColumns`; a bad edge is decoded as this to name
    its fault."""

    date: dt.date
    source_video_id: str
    recommended_video_id: str
    rank: int


@dataclass(frozen=True, eq=False)
class EdgeColumns:
    """Recommendation edges in file order, held as columns.

    Each video id is in ``ids`` once, and ``source`` and ``recommended``
    hold positions in it, so two edges name the same video exactly when they
    hold the same position. ``rank`` holds each edge's rank and ``date`` its
    own date as a proleptic Gregorian ordinal (``datetime.date.toordinal``).
    Edges are held this way from harvest to report, with no object per edge.
    Construction makes the four arrays read-only, so a snapshot cannot be
    changed in place.
    """

    ids: tuple[str, ...]
    source: np.ndarray
    recommended: np.ndarray
    rank: np.ndarray
    date: np.ndarray

    def __post_init__(self):
        for column in (self.source, self.recommended, self.rank, self.date):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.source)

    def __eq__(self, other) -> bool:
        """Equal when both hold the same edges in the same order."""
        if not isinstance(other, EdgeColumns):
            return NotImplemented
        return _encode_edges(self) == _encode_edges(other)

    def __hash__(self) -> int:
        return len(self)  # equal columns hold as many edges

    @classmethod
    def from_lists(cls, sources: list, recommended: list, ranks: list, dates: list) -> EdgeColumns:
        """Columns from one list per field, the ids interned in order of first
        use. A rank that does not fit in 64 bits raises ValueError."""
        index = {vid: i for i, vid in enumerate(dict.fromkeys(sources + recommended))}
        n = len(sources)
        try:
            rank = np.array(ranks, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"a rank does not fit in 64 bits: {exc}") from None
        return cls(
            ids=tuple(index),
            source=np.fromiter(map(index.__getitem__, sources), np.int32, n),
            recommended=np.fromiter(map(index.__getitem__, recommended), np.int32, n),
            rank=rank,
            date=np.array(dates, dtype=np.int64),
        )

    @classmethod
    def concat(cls, parts: Sequence[EdgeColumns]) -> EdgeColumns:
        """The edges of every part, part after part, over one id table."""
        index: dict[str, int] = {}
        source, recommended = [_NO_POSITIONS], [_NO_POSITIONS]
        for part in parts:
            position = np.array([index.setdefault(vid, len(index)) for vid in part.ids], dtype=np.int32)
            source.append(position[part.source])
            recommended.append(position[part.recommended])
        return cls(
            ids=tuple(index),
            source=np.concatenate(source),
            recommended=np.concatenate(recommended),
            rank=np.concatenate([_NO_INTS, *(part.rank for part in parts)]),
            date=np.concatenate([_NO_INTS, *(part.date for part in parts)]),
        )


_NO_POSITIONS = np.zeros(0, dtype=np.int32)
_NO_INTS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class DailySnapshot:
    date: dt.date
    edges: EdgeColumns = EdgeColumns((), _NO_POSITIONS, _NO_POSITIONS, _NO_INTS, _NO_INTS)
    retained_video_ids: frozenset[str] = frozenset()
    coverage: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "retained_video_ids", frozenset(self.retained_video_ids))


@dataclass(frozen=True)
class LabeledExample:
    video: VideoRecord
    label: int
    provenance: str = ""


@dataclass(frozen=True)
class Corpus:
    """A bag of crawled objects, as loaded from disk or built by the simulator."""

    channels: tuple[ChannelRecord, ...] = ()
    videos: tuple[VideoRecord, ...] = ()
    snapshots: tuple[DailySnapshot, ...] = ()
    labeled: tuple[LabeledExample, ...] = ()


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}[{self.subject}]: {self.message}"


def top_recommended(edges: EdgeColumns, retain: int) -> frozenset[str]:
    """Video ids of the ``retain`` most recommended videos, by in-edge count.

    Ties break lexicographically on video id so every caller retains the same
    set for the same edges.
    """
    return _most_counted(_in_edge_counts(edges), retain)


def _in_edge_counts(edges: EdgeColumns) -> list[tuple[str, int]]:
    """(video id, in-edge count) of every recommended video."""
    counts = np.bincount(edges.recommended, minlength=len(edges.ids)).tolist()
    return [(vid, count) for vid, count in zip(edges.ids, counts) if count]


def _most_counted(counts: list[tuple[str, int]], retain: int) -> frozenset[str]:
    ranked = sorted(counts, key=lambda item: (-item[1], item[0]))
    return frozenset(vid for vid, _ in ranked[:retain])


def validate_corpus(corpus: Corpus, max_rank: int = MAX_RANK) -> list[Violation]:
    """Check every declared invariant; return violations (empty on success).

    Never mutates or raises on bad data: violations are data. The result is
    order-insensitive over edge lists and calling twice returns the same list.
    ``max_rank`` tracks the configured watch-next depth (20 by default).
    """
    out: list[Violation] = []

    seen_channels: set[str] = set()
    for ch in corpus.channels:
        if not ch.channel_id:
            out.append(Violation("channel", "<empty>", "channel_id is empty"))
        elif ch.channel_id in seen_channels:
            out.append(Violation("channel", ch.channel_id, "duplicate channel_id"))
        else:
            seen_channels.add(ch.channel_id)
        if ch.subscriber_count < 0:
            out.append(
                Violation("channel", ch.channel_id, f"subscriber_count {ch.subscriber_count} < 0")
            )

    seen_videos: set[str] = set()
    for v in corpus.videos:
        if not v.video_id:
            out.append(Violation("video", "<empty>", "video_id is empty"))
        elif v.video_id in seen_videos:
            out.append(Violation("video", v.video_id, "duplicate video_id"))
        else:
            seen_videos.add(v.video_id)
        if v.view_count < 0:
            out.append(Violation("video", v.video_id, f"view_count {v.view_count} < 0"))
        if len(v.comments) > MAX_COMMENTS:
            out.append(
                Violation("video", v.video_id, f"{len(v.comments)} comments > {MAX_COMMENTS}")
            )

    days: set[dt.date] = set()
    for snap in corpus.snapshots:
        if snap.date in days:
            out.append(Violation("snapshot", snap.date.isoformat(), "duplicate snapshot date"))
        days.add(snap.date)
        out.extend(_validate_snapshot(snap, max_rank))

    for ex in corpus.labeled:
        if ex.label not in (CONSPIRATORIAL, NON_CONSPIRATORIAL):
            out.append(Violation("labeled", ex.video.video_id, f"label {ex.label} not in {{0, 1}}"))

    return out


def _validate_snapshot(snap: DailySnapshot, max_rank: int) -> list[Violation]:
    out: list[Violation] = []
    day = snap.date.isoformat()
    edges = snap.edges

    # A slot (date, source, rank) repeats at each of its edges after the
    # first in file order: the sort is stable.
    order = np.lexsort((edges.rank, edges.source, edges.date))
    repeats = np.zeros(len(edges), dtype=bool)
    repeats[order[1:]] = (
        (np.diff(edges.date[order]) == 0)
        & (np.diff(edges.source[order]) == 0)
        & (np.diff(edges.rank[order]) == 0)
    )
    # One column per edge check; nonzero walks them edge by edge, in file order.
    failed = np.column_stack(
        [
            (edges.rank < 1) | (edges.rank > max_rank),
            edges.source == edges.recommended,
            repeats,
            edges.date != snap.date.toordinal(),
        ]
    )
    for i, check in zip(*np.nonzero(failed)):
        rank, date = int(edges.rank[i]), dt.date.fromordinal(int(edges.date[i]))
        subject = f"{day}:{edges.ids[edges.source[i]]}->{edges.ids[edges.recommended[i]]}"
        message = (
            f"rank {rank} outside [1, {max_rank}]",
            "source equals recommended",
            f"duplicate rank {rank} for this source and date",
            f"edge dated {date} in snapshot {day}",
        )[check]
        out.append(Violation("edge", subject, message))

    in_edges = _in_edge_counts(edges)
    recommended = {vid for vid, _ in in_edges}
    stray = sorted(snap.retained_video_ids - recommended)
    for vid in stray:
        out.append(Violation("snapshot", day, f"retained video {vid} has no in-edge"))
    if len(snap.retained_video_ids) > MAX_RETAINED:
        out.append(
            Violation("snapshot", day, f"{len(snap.retained_video_ids)} retained > {MAX_RETAINED}")
        )
    if not stray:
        expected = _most_counted(in_edges, len(snap.retained_video_ids))
        if expected != snap.retained_video_ids:
            out.append(
                Violation("snapshot", day, "retained set is not the top videos by in-edge count")
            )
    if not 0.0 <= snap.coverage <= 1.0:
        out.append(Violation("snapshot", day, f"coverage {snap.coverage} outside [0, 1]"))
    return out


# ---------------------------------------------------------------------------
# JSON Lines codec. One record per line, one file per type, snake_case field
# names exactly as the dataclass definitions. decode(encode(x)) == x.
# Each dataclass's fields and type hints are read once: dates travel as ISO
# strings, frozensets as sorted lists, tuples as lists, nested dataclasses as
# objects, edge columns as a list of edge objects and None as null. A
# missing key takes the field's default; unknown keys are ignored, since live
# API payloads carry extra fields. A value whose JSON type does not fit its
# field's hint raises TypeError: a float field takes an int, an Optional one
# takes null, a tuple or frozenset a list. The elements of a list are not
# checked; the record constructors convert or reject the ones they use.
# ---------------------------------------------------------------------------

# The JSON value types each hint accepts; a hint not listed accepts any.
_JSON_TYPES = {
    str: frozenset({str}),
    int: frozenset({int}),
    float: frozenset({float, int}),
    bool: frozenset({bool}),
    dt.date: frozenset({str}),
}
_ANY_JSON = frozenset({str, int, float, bool, list, dict, type(None)})


def _converters(hint) -> tuple[Optional[Callable], Optional[Callable], frozenset]:
    """(encode, decode) for the non-null values of one type hint, plus the
    JSON types its values may have; a None converter keeps values as is."""
    if hint is dt.date:
        return dt.date.isoformat, dt.date.fromisoformat, _JSON_TYPES[hint]
    if hint is EdgeColumns:
        return _encode_edges, _decode_edges, frozenset({list})
    if dataclasses.is_dataclass(hint):
        return (*_codec(hint), frozenset({dict}))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[T]
        enc, dec, types = _converters(next(a for a in args if a is not type(None)))
        return enc, dec, types | {type(None)}
    if origin is frozenset:
        return sorted, frozenset, frozenset({list})
    if origin is tuple:
        enc, dec, _ = _converters(args[0])
        if enc is None:
            return list, tuple, frozenset({list})
        return lambda v: list(map(enc, v)), lambda v: tuple(map(dec, v)), frozenset({list})
    return None, None, _JSON_TYPES.get(hint, _ANY_JSON)


_EDGE_FIELDS = ("source_video_id", "recommended_video_id", "rank", "date")


def _encode_edges(edges: EdgeColumns) -> list[dict]:
    """The edges as the objects of a snapshot line, one per edge in order."""
    ids = edges.ids
    days = {day: dt.date.fromordinal(day).isoformat() for day in set(edges.date.tolist())}
    return [
        {"source_video_id": ids[s], "recommended_video_id": ids[r], "rank": rank, "date": days[day]}
        for s, r, rank, day in zip(
            edges.source.tolist(), edges.recommended.tolist(), edges.rank.tolist(), edges.date.tolist()
        )
    ]


def _decode_edges(items: list) -> EdgeColumns:
    """A snapshot line's edge objects as columns, each edge checked as the
    ``RecommendationEdge`` decode checks it: an object holding the four
    fields, strings but for an int rank, the date in ISO form. Where an edge
    fails, the edges are decoded as objects, so that the first bad one raises
    the error it raises there."""
    try:
        sources, recommended, ranks, dates = (
            list(map(operator.itemgetter(name), items)) for name in _EDGE_FIELDS
        )
        ordinals = {day: dt.date.fromisoformat(day).toordinal() for day in set(dates)}
        columns = EdgeColumns.from_lists(sources, recommended, ranks, list(map(ordinals.__getitem__, dates)))
        if set(map(type, ranks)) - {int} or set(map(type, columns.ids)) - {str}:
            raise TypeError("an edge field has the wrong JSON type")
        return columns
    except MALFORMED:
        decode = _codec(RecommendationEdge)[1]
        for item in items:
            decode(item)
        raise


def _describe(hint) -> str:
    return hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")


@functools.cache
def _codec(cls) -> tuple[Callable, Callable]:
    """(encode, decode) for one dataclass, built once from its fields and type hints."""
    hints = typing.get_type_hints(cls)
    names = dict.fromkeys(f.name for f in dataclasses.fields(cls))  # ordered, with set-like keys
    triples = {name: _converters(hints[name]) for name in names}
    encoded = [(name, enc) for name, (enc, _, _) in triples.items() if enc is not None]
    decoded = [(name, dec) for name, (_, dec, _) in triples.items() if dec is not None]
    accepted = {name: types for name, (_, _, types) in triples.items()}

    def encode(obj) -> dict:
        doc = {name: getattr(obj, name) for name in names}
        for name, enc in encoded:
            doc[name] = None if doc[name] is None else enc(doc[name])
        return doc

    def decode(data: dict):
        kwargs = dict(data) if data.keys() <= names.keys() else {k: data[k] for k in names if k in data}
        for name, value in kwargs.items():
            if type(value) not in accepted[name]:
                raise TypeError(f"{name} is {type(value).__name__}, not {_describe(hints[name])}")
        for name, dec in decoded:
            if kwargs.get(name) is not None:
                kwargs[name] = dec(kwargs[name])
        return cls(**kwargs)

    return encode, decode


def encode_record(obj) -> dict:
    return _codec(type(obj))[0](obj)


def decode_record(cls, data: dict):
    return _codec(cls)[1](data)


@contextmanager
def atomic_output(path: str | Path) -> Iterator[BinaryIO]:
    """Open ``path`` for writing bytes; it changes all at once or not at all.

    The bytes go to a temporary file beside ``path`` that replaces it only
    when the block exits cleanly, so a crash or an exception midway leaves
    the previous file as it was and no temporary file behind. Every artifact
    is written through here.

    The write is crash-atomic but not durable across power loss: there is
    no ``fsync``, so a file replaced just before a power cut may come back
    empty or as it was. Every artifact but one is rebuilt by rerunning its
    stage, and the rerun check compares each output with its recorded
    digest, so a flush on every write would buy nothing for them. The one
    artifact that cannot be rebuilt is a live harvest's snapshot (with its
    video records); keeping those is left to a copy off the machine.

    An ``OSError`` from creating the directory, writing the bytes or
    replacing ``path`` is raised as :class:`OutputWriteError` naming
    ``path``; the block must only write to the file it is given.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "wb")
    except OSError as exc:
        raise OutputWriteError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputWriteError(f"cannot write {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def write_jsonl(path: str | Path, records: Iterable) -> str:
    """Write one record per line; returns the sha256 of the bytes written."""
    digest = hashlib.sha256()
    with atomic_output(path) as fh:
        for rec in records:
            line = json.dumps(encode_record(rec), ensure_ascii=False, sort_keys=True).encode("utf-8") + b"\n"
            digest.update(line)
            fh.write(line)
    return digest.hexdigest()


def read_jsonl(path: str | Path, cls, data: Optional[bytes] = None) -> Iterator:
    """The ``cls`` record on each non-blank line of ``path``, or of ``data``,
    its bytes already read. A line that is not UTF-8, does not parse or does
    not decode raises :class:`ArtifactCorruptError` naming ``path:line``."""
    decode = _codec(cls)[1]
    with open(path, "rb") if data is None else io.BytesIO(data) as fh:
        for number, line in enumerate(fh, start=1):
            if not line.isspace():
                try:
                    value = decode(json.loads(line.decode("utf-8")))
                except MALFORMED as exc:
                    raise ArtifactCorruptError(f"{path}:{number}: {exc}") from exc
                yield value
