import datetime as dt
import json

import pytest
from hypothesis import given, strategies as st

from recaudit.corpus import (
    TEXT_FIELDS,
    ChannelRecord,
    Comment,
    Corpus,
    DailySnapshot,
    EdgeColumns,
    LabeledExample,
    VideoRecord,
    decode_record,
    encode_record,
    read_jsonl,
    top_recommended,
    validate_corpus,
    write_jsonl,
)

from recaudit.errors import ArtifactCorruptError

from conftest import edge_columns, make_edge, make_video

DAY = dt.date(2019, 6, 1)


class TestTypes:
    def test_text_is_nfc_normalized(self):
        decomposed = "café"  # e + combining accent
        video = make_video("v1", title=decomposed, description=decomposed)
        assert video.title == "café"
        assert video.description == "café"

    def test_snippet_concatenates_title_description_tags(self):
        video = make_video("v1", title="t", description="d", tags=("x", "y"))
        assert video.snippet() == "t\nd\nx y"

    def test_snippet_present_when_everything_empty(self):
        assert make_video("v1").snippet() == "\n\n"

    @pytest.mark.parametrize("transcript, expected", [(None, ()), ("", ("",)), ("words", ("words",))])
    def test_texts_follow_the_text_fields(self, transcript, expected):
        video = make_video("v1", title="t", tags=("x",), transcript=transcript, comments=["a", "b"])
        assert TEXT_FIELDS == ("transcript", "snippet", "comments")
        assert video.texts() == (expected, ("t\n\nx",), ("a", "b"))

    def test_comment_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Comment(text="hi", attribute_scores=(0.1, 0.2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, 1.5])
    def test_comment_rejects_score_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            Comment(text="hi", attribute_scores=(0.0, 0.0, 0.0, bad, 0.0, 0.0, 1.0))

    def test_missing_transcript_distinct_from_empty(self):
        absent = make_video("v1", transcript=None)
        empty = make_video("v2", transcript="")
        assert absent.transcript is None
        assert empty.transcript == ""


class TestValidate:
    def test_empty_corpus_is_clean(self):
        assert validate_corpus(Corpus()) == []

    def test_rank_out_of_bounds_names_the_edge(self):
        snap = DailySnapshot(
            date=DAY, edges=edge_columns([make_edge("s", "r", rank=21)]), retained_video_ids=frozenset()
        )
        violations = validate_corpus(Corpus(snapshots=(snap,)))
        assert len(violations) == 1
        assert "rank 21" in violations[0].message
        assert "s->r" in violations[0].subject

    def test_retained_without_inedge_flagged(self):
        # Three edges; one retained id never appears as a recommendation.
        edges = (
            make_edge("s1", "r1", rank=1),
            make_edge("s1", "r2", rank=2),
            make_edge("s2", "r1", rank=1),
        )
        assert {e.recommended_video_id for e in edges} == {"r1", "r2"}
        snap = DailySnapshot(
            date=DAY, edges=edge_columns(edges), retained_video_ids=frozenset({"r1", "ghost"})
        )
        violations = validate_corpus(Corpus(snapshots=(snap,)))
        assert len(violations) == 1
        assert "ghost" in violations[0].message

    def test_retained_must_be_top_by_count(self):
        edges = (
            make_edge("s1", "r1", rank=1),
            make_edge("s2", "r1", rank=1),
            make_edge("s1", "r2", rank=2),
        )
        good = DailySnapshot(date=DAY, edges=edge_columns(edges), retained_video_ids=frozenset({"r1"}))
        assert validate_corpus(Corpus(snapshots=(good,))) == []
        bad = DailySnapshot(date=DAY, edges=edge_columns(edges), retained_video_ids=frozenset({"r2"}))
        violations = validate_corpus(Corpus(snapshots=(bad,)))
        assert any("top videos" in v.message for v in violations)

    def test_duplicate_rank_per_source_flagged(self):
        edges = (make_edge("s", "r1", rank=1), make_edge("s", "r2", rank=1))
        snap = DailySnapshot(date=DAY, edges=edge_columns(edges), retained_video_ids=frozenset())
        violations = validate_corpus(Corpus(snapshots=(snap,)))
        assert any("duplicate rank" in v.message for v in violations)

    def test_self_recommendation_flagged(self):
        snap = DailySnapshot(
            date=DAY, edges=edge_columns([make_edge("s", "s")]), retained_video_ids=frozenset()
        )
        assert any(
            "source equals recommended" in v.message
            for v in validate_corpus(Corpus(snapshots=(snap,)))
        )

    def test_duplicate_ids_and_negative_counts(self):
        bag = Corpus(
            channels=(
                ChannelRecord(channel_id="c", subscriber_count=-1),
                ChannelRecord(channel_id="c"),
            ),
            videos=(make_video("v"), make_video("v")),
        )
        messages = [v.message for v in validate_corpus(bag)]
        assert any("subscriber_count" in m for m in messages)
        assert any("duplicate channel_id" in m for m in messages)
        assert any("duplicate video_id" in m for m in messages)

    def test_idempotent_and_edge_order_insensitive(self):
        edges = [make_edge("s1", "r1", rank=1), make_edge("s1", "r1", rank=1)]
        snap = DailySnapshot(date=DAY, edges=edge_columns(edges), retained_video_ids=frozenset({"r1"}))
        flipped = DailySnapshot(
            date=DAY, edges=edge_columns(reversed(edges)), retained_video_ids=frozenset({"r1"})
        )
        first = validate_corpus(Corpus(snapshots=(snap,)))
        assert first == validate_corpus(Corpus(snapshots=(snap,)))
        assert sorted(str(v) for v in first) == sorted(
            str(v) for v in validate_corpus(Corpus(snapshots=(flipped,)))
        )

    def test_bad_label_flagged(self):
        bag = Corpus(labeled=(LabeledExample(video=make_video("v"), label=2),))
        assert any("label 2" in v.message for v in validate_corpus(bag))


class TestReadOnlyEdges:
    """A snapshot is immutable after construction: its edge columns too."""

    @pytest.mark.parametrize("column", ["source", "recommended", "rank", "date"])
    def test_a_snapshot_s_edges_cannot_be_changed_in_place(self, column):
        s = DailySnapshot(date=DAY, edges=EdgeColumns.from_lists(["a"], ["b"], [1], [DAY.toordinal()]))
        with pytest.raises(ValueError, match="read-only"):
            getattr(s.edges, column)[0] = 0
        assert s.edges.rank.tolist() == [1]

    @pytest.mark.parametrize("column", ["source", "recommended", "rank", "date"])
    def test_joined_columns_are_read_only(self, column):
        day = edge_columns([make_edge("a", "b")])
        joined = EdgeColumns.concat([day, day])
        with pytest.raises(ValueError, match="read-only"):
            getattr(joined, column)[0] = 0


class TestTopRecommended:
    def test_ties_break_lexicographically(self):
        edges = [make_edge("s1", "b"), make_edge("s2", "a", rank=2)]
        assert top_recommended(edge_columns(edges), 1) == frozenset({"a"})

    def test_counts_dominate(self):
        edges = [make_edge("s1", "b"), make_edge("s2", "b", rank=2), make_edge("s3", "a")]
        assert top_recommended(edge_columns(edges), 1) == frozenset({"b"})


def _sample_records():
    comment = Comment(text="très bien ✓", attribute_scores=(0.1, 0, 0.2, 0, 0, 0.5, 1.0))
    video = make_video(
        "v1",
        channel_id="c1",
        title="Title",
        description="Desc",
        tags=("a", "b"),
        transcript="hello world",
        view_count=123,
        comments=[comment, Comment(text="plain")],
    )
    untranscribed = make_video("v9", channel_id="c2", title="日本語のタイトル", transcript=None)
    return [
        ChannelRecord(channel_id="c1", title="Chaîne", subscriber_count=5, last_video_id="v1"),
        comment,
        video,
        make_edge("v1", "v2", rank=3),
        DailySnapshot(
            date=DAY,
            edges=edge_columns([make_edge("v1", "v3"), make_edge("v1", "v2", rank=2)]),
            retained_video_ids=frozenset(["v3", "v2"]),
            coverage=0.5,
        ),
        LabeledExample(video=untranscribed, label=1, provenance="curated"),
    ]


class TestCodec:
    @pytest.mark.parametrize("record", _sample_records(), ids=lambda r: type(r).__name__)
    def test_round_trip_field_for_field(self, record):
        assert decode_record(type(record), encode_record(record)) == record

    def test_jsonl_file_round_trip(self, tmp_path):
        videos = [make_video(f"v{i}", view_count=i) for i in range(5)]
        path = tmp_path / "videos.jsonl"
        write_jsonl(path, videos)
        assert list(read_jsonl(path, VideoRecord)) == videos

    @given(
        st.text(max_size=30),
        st.one_of(st.none(), st.tuples(*[st.floats(0, 1) for _ in range(7)])),
    )
    def test_comment_round_trip_property(self, text, scores):
        comment = Comment(text=text, attribute_scores=scores)
        assert decode_record(Comment, encode_record(comment)) == comment


# The exact JSONL line of each record in _sample_records(): keys sorted,
# non-ASCII text written as is, frozensets as sorted lists, dates as ISO.
GOLDEN_LINES = {
    "ChannelRecord": '{"channel_id": "c1", "last_video_id": "v1", "subscriber_count": 5, "title": "Chaîne"}',
    "Comment": '{"attribute_scores": [0.1, 0.0, 0.2, 0.0, 0.0, 0.5, 1.0], "text": "très bien ✓"}',
    "VideoRecord": (
        '{"channel_id": "c1", "comments": [{"attribute_scores": [0.1, 0.0, 0.2, 0.0, 0.0, 0.5, 1.0],'
        ' "text": "très bien ✓"}, {"attribute_scores": null, "text": "plain"}], "description": "Desc",'
        ' "tags": ["a", "b"], "title": "Title", "transcript": "hello world", "video_id": "v1",'
        ' "view_count": 123}'
    ),
    "RecommendationEdge": (
        '{"date": "2019-06-01", "rank": 3, "recommended_video_id": "v2", "source_video_id": "v1"}'
    ),
    "DailySnapshot": (
        '{"coverage": 0.5, "date": "2019-06-01", "edges": [{"date": "2019-06-01", "rank": 1,'
        ' "recommended_video_id": "v3", "source_video_id": "v1"}, {"date": "2019-06-01", "rank": 2,'
        ' "recommended_video_id": "v2", "source_video_id": "v1"}], "retained_video_ids": ["v2", "v3"]}'
    ),
    "LabeledExample": (
        '{"label": 1, "provenance": "curated", "video": {"channel_id": "c2", "comments": [],'
        ' "description": "", "tags": [], "title": "日本語のタイトル", "transcript": null, "video_id": "v9",'
        ' "view_count": 0}}'
    ),
}

# Lines with every defaulted key left out and one key no record type has.
SPARSE_LINES = [
    (ChannelRecord, '{"channel_id": "c1", "extra": 1}', ChannelRecord(channel_id="c1")),
    (Comment, '{"text": "hi", "extra": 1}', Comment(text="hi")),
    (
        VideoRecord,
        '{"video_id": "v1", "channel_id": "c1", "extra": 1}',
        VideoRecord(video_id="v1", channel_id="c1"),
    ),
    (
        DailySnapshot,
        '{"date": "2019-06-01", "extra": 1}',
        DailySnapshot(date=DAY, retained_video_ids=frozenset()),
    ),
    (
        LabeledExample,
        '{"video": {"video_id": "v1", "channel_id": "c1", "extra": 1}, "label": 0, "extra": 1}',
        LabeledExample(video=VideoRecord(video_id="v1", channel_id="c1"), label=0),
    ),
]


# Lines whose values have the wrong JSON type for their record's field.
WRONGLY_TYPED = [
    (DailySnapshot, '{"date": "2019-06-01", "coverage": "high"}'),
    (DailySnapshot, '{"date": 20190601}'),
    (DailySnapshot, '{"date": "2019-06-01", "retained_video_ids": "v2"}'),
    (DailySnapshot, '{"date": "2019-06-01", "edges": [{"date": "2019-06-01", "rank": "1",'
                    ' "recommended_video_id": "v2", "source_video_id": "v1"}]}'),
    (VideoRecord, '{"video_id": "v1", "channel_id": "c1", "tags": "a b"}'),
    (VideoRecord, '{"video_id": "v1", "channel_id": "c1", "view_count": 1.5}'),
    (VideoRecord, '{"video_id": "v1", "channel_id": null}'),
    (LabeledExample, '{"video": {"video_id": "v1", "channel_id": "c1"}, "label": true}'),
    (LabeledExample, '{"video": ["v1", "c1"], "label": 1}'),
]

# Snapshot lines with one bad edge after a good one: not an object, a key
# missing, a date that is no date, a null id, a bool rank.
_GOOD_EDGE = '{"date": "2019-06-01", "rank": 1, "recommended_video_id": "v2", "source_video_id": "v1"}'
BAD_EDGE_LINES = [
    '{"date": "2019-06-01", "edges": [' + _GOOD_EDGE + ", " + bad + "]}"
    for bad in (
        '["2019-06-01", 1, "v2", "v1"]',
        "7",
        '{"date": "2019-06-01", "recommended_video_id": "v2", "source_video_id": "v1"}',
        '{"date": "2019-06-31", "rank": 1, "recommended_video_id": "v2", "source_video_id": "v1"}',
        '{"date": "2019-06-01", "rank": 1, "recommended_video_id": null, "source_video_id": "v1"}',
        '{"date": "2019-06-01", "rank": true, "recommended_video_id": "v2", "source_video_id": "v1"}',
    )
]


class TestCodecBytes:
    @pytest.mark.parametrize("record", _sample_records(), ids=lambda r: type(r).__name__)
    def test_exact_jsonl_line(self, tmp_path, record):
        path = tmp_path / "one.jsonl"
        write_jsonl(path, [record])
        assert path.read_bytes() == (GOLDEN_LINES[type(record).__name__] + "\n").encode("utf-8")
        assert list(read_jsonl(path, type(record))) == [record]

    @pytest.mark.parametrize(
        "cls, line, expected", SPARSE_LINES, ids=[cls.__name__ for cls, _, _ in SPARSE_LINES]
    )
    def test_missing_keys_default_and_unknown_keys_ignored(self, tmp_path, cls, line, expected):
        path = tmp_path / "sparse.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        assert list(read_jsonl(path, cls)) == [expected]

    @pytest.mark.parametrize("bad", ['{"date": "2019-06', "{}", '{"date": "June"}', "[1, 2]"])
    def test_bad_line_is_corruption_naming_path_and_line(self, tmp_path, bad):
        path = tmp_path / "snap.jsonl"
        write_jsonl(path, [DailySnapshot(date=DAY)])
        path.write_text(path.read_text() + bad + "\n", encoding="utf-8")
        with pytest.raises(ArtifactCorruptError, match=f"{path}:2: "):
            list(read_jsonl(path, DailySnapshot))


    @pytest.mark.parametrize("cls, line", WRONGLY_TYPED)
    def test_wrongly_typed_value_is_corruption(self, tmp_path, cls, line):
        path = tmp_path / "typed.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ArtifactCorruptError, match=f"{path}:1: "):
            list(read_jsonl(path, cls))

    @pytest.mark.parametrize(
        "line, message",
        list(zip([line for cls, line in WRONGLY_TYPED if cls is DailySnapshot] + BAD_EDGE_LINES, [
            "coverage is str, not float",
            "date is int, not date",
            "retained_video_ids is str, not frozenset[str]",
            "rank is str, not int",
            "'list' object has no attribute 'keys'",
            "'int' object has no attribute 'keys'",
            "RecommendationEdge.__init__() missing 1 required positional argument: 'rank'",
            "day is out of range for month",
            "recommended_video_id is NoneType, not str",
            "rank is bool, not int",
        ], strict=True)),
    )
    def test_a_bad_snapshot_line_raises_its_own_message(self, tmp_path, line, message):
        path = tmp_path / "snap.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ArtifactCorruptError) as info:
            list(read_jsonl(path, DailySnapshot))
        assert str(info.value) == f"{path}:1: {message}"

    def test_a_rank_beyond_64_bits_is_corruption(self, tmp_path):
        # A rank column holds 64 bits.
        path = tmp_path / "snap.jsonl"
        edge = _GOOD_EDGE.replace('"rank": 1', f'"rank": {2**63}')
        path.write_text('{"date": "2019-06-01", "edges": [' + edge + "]}\n", encoding="utf-8")
        with pytest.raises(ArtifactCorruptError, match=f"{path}:1: a rank does not fit in 64 bits"):
            list(read_jsonl(path, DailySnapshot))

    def test_the_edge_decode_reads_every_field(self, tmp_path):
        # Every field of the golden line, plus a key no edge has and an edge
        # date in another ISO form.
        doc = json.loads(GOLDEN_LINES["DailySnapshot"])
        doc["edges"][0]["extra"] = 1
        doc["edges"][1]["date"] = "20190602"
        path = tmp_path / "snap.jsonl"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        (snap,) = read_jsonl(path, DailySnapshot)
        edges = snap.edges
        assert (snap.date, snap.retained_video_ids, snap.coverage) == (DAY, frozenset({"v2", "v3"}), 0.5)
        assert [
            (edges.ids[s], edges.ids[r], rank, dt.date.fromordinal(day))
            for s, r, rank, day in zip(
                edges.source.tolist(), edges.recommended.tolist(), edges.rank.tolist(), edges.date.tolist()
            )
        ] == [("v1", "v3", 1, DAY), ("v1", "v2", 2, dt.date(2019, 6, 2))]

    def test_float_takes_an_int_and_optional_takes_null(self, tmp_path):
        path = tmp_path / "typed.jsonl"
        path.write_text('{"date": "2019-06-01", "coverage": 1}\n', encoding="utf-8")
        assert list(read_jsonl(path, DailySnapshot)) == [DailySnapshot(date=DAY, coverage=1.0)]
        path.write_text('{"text": "hi", "attribute_scores": null}\n', encoding="utf-8")
        assert list(read_jsonl(path, Comment)) == [Comment(text="hi")]


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "videos.jsonl"
        write_jsonl(path, [make_video("v1")])
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_jsonl(path, [make_video("v2"), object()])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["videos.jsonl"]
