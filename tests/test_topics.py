import datetime as dt
import math

import numpy as np
import pytest

from recaudit.corpus import EdgeColumns
from recaudit.topics import (
    NmfResult,
    TopicModel,
    build_topic_documents,
    fit_topic_model,
    nmf,
    tfidf,
    topic_report,
)

from recaudit.textmodel import tokenize

from conftest import edge_columns, make_edge, make_video


class TestDocuments:
    VIDEOS = [
        make_video("v1", title="Moon hoax", transcript=None, comments=["first one", "Second"]),
        make_video("v2", tags=("nasa",), transcript="", comments=[]),
        make_video("v3", description="desc", transcript="the landing"),
    ]

    @pytest.mark.parametrize(
        "field, text",
        [
            ("comments", lambda v: "\n".join(c.text for c in v.comments)),
            ("snippet", lambda v: f"{v.title}\n{v.description}\n{' '.join(v.tags)}"),
            ("transcript", lambda v: v.transcript or ""),
        ],
    )
    def test_one_document_per_video_from_the_field(self, field, text):
        docs, ids = build_topic_documents(self.VIDEOS, field=field)
        assert ids == ["v1", "v2", "v3"]
        assert docs == [tokenize(text(v)) for v in self.VIDEOS]

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown document field 'title'"):
            build_topic_documents(self.VIDEOS, field="title")


class TestTfidf:
    def test_ubiquitous_term_weights_zero(self):
        fitted = tfidf([["common", "alpha"], ["common", "beta"]])
        col = fitted.terms.index("common")
        assert np.all(fitted.matrix[:, col] == 0.0)

    def test_hand_computed_weight(self):
        # Term "rare" fills half of doc 1 and is absent from doc 2.
        fitted = tfidf([["rare", "other"], ["other", "thing"]])
        col = fitted.terms.index("rare")
        assert fitted.matrix[0, col] == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_non_negative(self):
        fitted = tfidf([["a", "b", "a"], ["b", "c"], ["c", "c", "d"]])
        assert (fitted.matrix >= 0).all()

    def test_document_reordering_permutes_rows(self):
        docs = [["a", "b"], ["b", "c"], ["d"]]
        fitted = tfidf(docs)
        flipped = tfidf(docs[::-1])
        assert fitted.terms == flipped.terms
        np.testing.assert_array_equal(fitted.matrix, flipped.matrix[::-1])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            tfidf([])
        with pytest.raises(ValueError):
            tfidf([[], []])


class TestNmf:
    def test_rank_one_reconstruction(self):
        w = np.array([1.0, 2.0, 0.5])
        h = np.array([0.3, 1.2, 2.0, 0.7])
        V = np.outer(w, h)
        result = nmf(V, 1, max_iter=2000, tol=0.0, seed=0)
        assert result.objectives[-1] < 1e-6 * np.linalg.norm(V)

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(9)
        V = rng.random((6, 5))
        result = nmf(V, 3, max_iter=300, tol=0.0, seed=2)
        diffs = np.diff(result.objectives)
        assert (diffs <= 1e-12).all()

    def test_factors_stay_non_negative(self):
        rng = np.random.default_rng(4)
        V = rng.random((8, 6))
        result = nmf(V, 4, max_iter=200, seed=1)
        assert (result.W >= 0).all() and (result.H >= 0).all()

    def test_full_rank_positive_matrix_reconstructs(self):
        rng = np.random.default_rng(11)
        V = rng.random((4, 3)) + 0.5
        result = nmf(V, 3, max_iter=5000, tol=0.0, seed=0)
        assert result.objectives[-1] < 1e-4 * np.linalg.norm(V)

    def test_seed_fixes_the_result(self):
        V = np.random.default_rng(0).random((5, 4))
        a = nmf(V, 2, max_iter=50, seed=7)
        b = nmf(V, 2, max_iter=50, seed=7)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.H, b.H)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            nmf(np.array([[1.0, -0.1]]), 1)
        with pytest.raises(ValueError):
            nmf(np.ones((3, 3)), 4)
        with pytest.raises(ValueError):
            nmf(np.ones((3, 3)), 0)


def _model_from_w(W, video_ids, terms=("t0", "t1", "t2")):
    k = W.shape[1]
    H = np.arange(k * len(terms), dtype=float).reshape(k, len(terms)) + 1.0
    return TopicModel(
        result=NmfResult(W=W, H=H, objectives=(1.0,)),
        terms=tuple(terms),
        video_ids=tuple(video_ids),
    )


class TestTopicReport:
    def edges_for(self, vids, per_video):
        day = dt.date(2019, 3, 1)
        return edge_columns(
            make_edge(f"src{i}-{vid}", vid, day=day)
            for vid in vids
            for i in range(per_video)
        )

    def test_single_topic_gets_everything(self):
        W = np.ones((3, 1))
        model = _model_from_w(W, ["v1", "v2", "v3"])
        likes = {"v1": 0.9, "v2": 0.8, "v3": 0.7}
        report = topic_report(model, self.edges_for(["v1", "v2"], 2), likes)
        assert report.rows[0].pct_videos == 100.0
        assert report.rows[0].pct_recommendations == 100.0

    def test_three_one_video_split(self):
        W = np.array([[1, 0], [1, 0], [1, 0], [0, 1]], dtype=float)
        model = _model_from_w(W, ["v1", "v2", "v3", "v4"])
        likes = {v: 0.9 for v in ["v1", "v2", "v3", "v4"]}
        edges = self.edges_for(["v1", "v2", "v3", "v4"], 3)
        report = topic_report(model, edges, likes)
        by_topic = {row.topic: row for row in report.rows}
        assert by_topic[0].pct_videos == 75.0
        assert by_topic[1].pct_videos == 25.0
        assert by_topic[0].pct_recommendations == 75.0

    def test_word_count_per_topic(self):
        videos = [
            make_video(f"v{i}", comments=[f"word{j} filler common" for j in range(30)])
            for i in range(6)
        ]
        model = fit_topic_model(videos, k=2, max_iter=50, seed=0)
        likes = {v.video_id: 0.9 for v in videos}
        report = topic_report(model, self.edges_for([v.video_id for v in videos], 1), likes, top_words=25)
        for row in report.rows:
            assert len(row.top_words) == 25

    def test_rows_sorted_by_recommendation_share(self):
        W = np.array([[1, 0], [0, 1], [0, 1]], dtype=float)
        model = _model_from_w(W, ["v1", "v2", "v3"])
        likes = {"v1": 0.9, "v2": 0.9, "v3": 0.9}
        edges = EdgeColumns.concat([self.edges_for(["v2", "v3"], 5), self.edges_for(["v1"], 1)])
        report = topic_report(model, edges, likes)
        assert [r.topic for r in report.rows] == [1, 0]

    def test_shares_sum_to_hundred(self):
        W = np.array([[1, 0], [0, 1], [0, 1]], dtype=float)
        model = _model_from_w(W, ["v1", "v2", "v3"])
        likes = {"v1": 0.9, "v2": 0.9, "v3": 0.6}
        report = topic_report(model, self.edges_for(["v1", "v2", "v3"], 2), likes)
        assert sum(r.pct_videos for r in report.rows) == pytest.approx(100.0)
        assert sum(r.pct_recommendations for r in report.rows) == pytest.approx(100.0)

    def test_report_top_truncates(self):
        W = np.eye(3)
        model = _model_from_w(W, ["v1", "v2", "v3"])
        likes = {"v1": 0.9, "v2": 0.9, "v3": 0.9}
        report = topic_report(model, self.edges_for(["v1", "v2", "v3"], 1), likes, report_top=2)
        assert len(report.rows) == 2

    def test_uncovered_conspiratorial_video_rejected(self):
        W = np.ones((1, 1))
        model = _model_from_w(W, ["v1"])
        likes = {"v1": 0.9, "mystery": 0.95}
        with pytest.raises(ValueError):
            topic_report(model, [], likes)
