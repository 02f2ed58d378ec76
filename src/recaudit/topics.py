"""Topic-side analysis: TFIDF weighting and NMF topic modeling with
per-topic recommendation/video shares.

Matrices are dense numpy arrays; corpora here are desk scale (the documents
are the comment sections of videos flagged conspiratorial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import TEXT_FIELDS, EdgeColumns, VideoRecord
from .textmodel import tokenize


@dataclass(frozen=True)
class TfidfMatrix:
    matrix: np.ndarray  # (docs, terms), non-negative
    terms: tuple[str, ...]


def count_matrix(corpus: Sequence[Sequence[str]]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Raw term-count matrix over the sorted vocabulary of the corpus."""
    if not corpus:
        raise ValueError("empty corpus")
    terms = sorted({tok for doc in corpus for tok in doc})
    if not terms:
        raise ValueError("corpus has no non-empty document")
    index = {t: i for i, t in enumerate(terms)}
    counts = np.zeros((len(corpus), len(terms)))
    for d, doc in enumerate(corpus):
        for tok in doc:
            counts[d, index[tok]] += 1.0
    return counts, tuple(terms)


def tfidf(corpus: Sequence[Sequence[str]]) -> TfidfMatrix:
    """tf = count / document length, idf = ln(N / df), weight = tf * idf.

    A term present in every document gets idf 0 and therefore weight 0
    everywhere. Empty documents yield all-zero rows.
    """
    counts, terms = count_matrix(corpus)
    lengths = counts.sum(axis=1, keepdims=True)
    tf = np.divide(counts, lengths, out=np.zeros_like(counts), where=lengths > 0)
    df = (counts > 0).sum(axis=0)
    idf = np.log(len(corpus) / df)
    return TfidfMatrix(matrix=tf * idf, terms=terms)


@dataclass(frozen=True)
class NmfResult:
    W: np.ndarray  # (docs, k)
    H: np.ndarray  # (k, terms)
    objectives: tuple[float, ...]  # Frobenius error after each iteration


_NMF_EPS = 1e-9


def nmf(
    V: np.ndarray,
    k: int,
    max_iter: int = 500,
    tol: float = 1e-7,
    seed: int = 0,
) -> NmfResult:
    """Multiplicative-update factorization V ~= W H minimizing Frobenius error.

    W and H stay element-wise non-negative by construction and the recorded
    objective trace is non-increasing. Initialization draws uniform (0, 1]
    entries scaled by sqrt(mean(V) / k); a fixed seed fixes the result. Stops
    at ``max_iter`` or when the relative objective improvement drops below
    ``tol``.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise ValueError("V must be a matrix")
    if (V < 0).any():
        raise ValueError("V must be element-wise non-negative")
    if not 1 <= k <= min(V.shape):
        raise ValueError(f"k must lie in [1, {min(V.shape)}], got {k}")

    rng = np.random.default_rng(seed)
    scale = math.sqrt(max(V.mean(), _NMF_EPS) / k)
    W = scale * (1.0 - rng.random((V.shape[0], k)))  # uniform (0, 1]
    H = scale * (1.0 - rng.random((k, V.shape[1])))

    norm_v = np.linalg.norm(V)
    objectives: list[float] = []
    prev = None
    for _ in range(max_iter):
        H *= (W.T @ V) / (W.T @ W @ H + _NMF_EPS)
        W *= (V @ H.T) / (W @ H @ H.T + _NMF_EPS)
        err = float(np.linalg.norm(V - W @ H))
        objectives.append(err)
        if prev is not None and prev - err < tol * max(norm_v, 1.0):
            break
        prev = err
    return NmfResult(W=W, H=H, objectives=tuple(objectives))


# ---------------------------------------------------------------------------
# Table-shaped topic report over the conspiratorial slice of the corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopicModel:
    result: NmfResult
    terms: tuple[str, ...]
    video_ids: tuple[str, ...]  # aligns with rows of result.W

    def assignments(self) -> dict[str, int]:
        """Each video goes to the topic with the largest W entry."""
        return {
            vid: int(np.argmax(self.result.W[i])) for i, vid in enumerate(self.video_ids)
        }


@dataclass(frozen=True)
class TopicRow:
    topic: int
    top_words: tuple[str, ...]
    pct_recommendations: float
    pct_videos: float


@dataclass(frozen=True)
class TopicReport:
    rows: tuple[TopicRow, ...]


def build_topic_documents(
    videos: Iterable[VideoRecord], field: str = "comments"
) -> tuple[list[list[str]], list[str]]:
    """One token list per video: the texts of one of ``TEXT_FIELDS``, joined by newlines."""
    if field not in TEXT_FIELDS:
        raise ValueError(f"unknown document field {field!r}")
    index = TEXT_FIELDS.index(field)
    docs: list[list[str]] = []
    ids: list[str] = []
    for video in videos:
        docs.append(tokenize("\n".join(video.texts()[index])))
        ids.append(video.video_id)
    return docs, ids


def fit_topic_model(
    videos: Sequence[VideoRecord],
    k: int = 8,
    max_iter: int = 500,
    tol: float = 1e-7,
    seed: int = 0,
    field: str = "comments",
    use_tfidf: bool = True,
) -> TopicModel:
    docs, ids = build_topic_documents(videos, field=field)
    if use_tfidf:
        fitted = tfidf(docs)
        V, terms = fitted.matrix, fitted.terms
    else:
        V, terms = count_matrix(docs)
    k = min(k, min(V.shape))
    result = nmf(V, k, max_iter=max_iter, tol=tol, seed=seed)
    return TopicModel(result=result, terms=terms, video_ids=tuple(ids))


def topic_report(
    model: TopicModel,
    edges: EdgeColumns,
    likelihoods: Mapping[str, Optional[float]],
    threshold: float = 0.5,
    top_words: int = 25,
    report_top: Optional[int] = None,
) -> TopicReport:
    """Per-topic share of conspiratorial videos and recommendation edges.

    The model must cover every video whose likelihood exceeds the threshold.
    ``pct_videos`` is the topic's share of those videos; ``pct_recommendations``
    its share of edges recommending them. Rows come back sorted by
    recommendation share, optionally truncated to the ``report_top`` topics.
    """
    assign = model.assignments()
    consp = {
        vid
        for vid, like in likelihoods.items()
        if like is not None and like > threshold
    }
    unassigned = consp - set(model.video_ids)
    if unassigned:
        raise ValueError(
            f"{len(unassigned)} conspiratorial videos missing from the topic model"
        )
    k = model.result.W.shape[1]
    vid_counts = [0] * k
    for vid in consp:
        vid_counts[assign[vid]] += 1
    topic_of = np.array([assign[vid] if vid in consp else -1 for vid in edges.ids], dtype=np.int64)
    recommended = topic_of[edges.recommended]
    rec_counts = np.bincount(recommended[recommended >= 0], minlength=k).tolist()
    total_vids = sum(vid_counts)
    total_recs = sum(rec_counts)

    order = np.argsort(-model.result.H, axis=1, kind="stable")
    rows = []
    for t in range(k):
        words = tuple(model.terms[j] for j in order[t][:top_words])
        rows.append(
            TopicRow(
                topic=t,
                top_words=words,
                pct_recommendations=100.0 * rec_counts[t] / total_recs if total_recs else 0.0,
                pct_videos=100.0 * vid_counts[t] / total_vids if total_vids else 0.0,
            )
        )
    rows.sort(key=lambda r: (-r.pct_recommendations, r.topic))
    if report_top is not None:
        rows = rows[:report_top]
    return TopicReport(rows=tuple(rows))
