"""Supervised linear text classifier: bag-of-words + bag-of-n-grams,
embedding projection, softmax head, trained with plain SGD.

The conceptual feature space is ``|words| + B`` ids: dense word indices
followed by B hashed n-gram buckets. A document is the multiset of its
feature ids; its representation is the mean of the corresponding embedding
rows. Embedding rows start at zero and only rows actually touched during
training are materialized, which is exactly equivalent to the full
``(|words| + B) x d`` zero-initialized matrix while keeping memory
proportional to the corpus.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateTrainingError

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# FNV-1a 64: the offset basis, the prime, and the byte joining an n-gram's tokens.
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_NGRAM_SEP = np.uint64(0x1F)


def tokenize(text: str) -> list[str]:
    """Lowercased NFC tokens, split on non-alphanumeric runs. Digits kept."""
    text = unicodedata.normalize("NFC", text).lower()
    return _TOKEN_RE.findall(text)


@dataclass(frozen=True)
class TextHyper:
    dim: int = 16
    ngram: int = 2
    buckets: int = 2**20
    lr: float = 0.1
    epochs: int = 25
    min_count: int = 2
    seed: int = 0


def build_vocabulary(token_lists: list[list[str]], min_count: int) -> dict[str, int]:
    """Each word seen at least ``min_count`` times -> its index in sorted order."""
    counts = Counter(chain.from_iterable(token_lists))
    return {w: i for i, w in enumerate(sorted(w for w, c in counts.items() if c >= min_count))}


@dataclass(frozen=True)
class TextFeatures:
    """What a text contributes to any vocabulary: its tokens and the bucket of
    each of its n-grams (before the word-block offset). Neither depends on
    which texts a model is trained on, so a training run computes them once
    per text and every fit reuses them. The text itself is kept because it
    sets the canonical training order."""

    text: str
    tokens: tuple[str, ...]
    ngram_buckets: np.ndarray  # (n_ngrams,) int64, each in [0, buckets)


def featurize(texts: Sequence[str], ngram: int, buckets: int) -> list[TextFeatures]:
    """Tokenize texts and hash the n-grams of each into ``buckets``.

    An n-gram's bucket is the FNV-1a 64 hash of its tokens' UTF-8 bytes,
    joined by 0x1f, modulo ``buckets``. The n-grams of all the texts are
    hashed together, one numpy step per byte column of each n-gram position,
    on ``uint64`` arrays whose arithmetic wraps mod 2**64 as FNV's does.
    Each distinct token is encoded once. Tokens are interned, so features
    kept for many texts hold one copy of each word.
    """
    # Interned text by text, so each text's token copies are freed at once.
    token_lists = [list(map(sys.intern, tokenize(t))) for t in texts]
    flat = list(chain.from_iterable(token_lists))
    words = list(dict.fromkeys(flat))
    word_ids = np.fromiter(
        map(dict(zip(words, range(len(words)))).__getitem__, flat), np.int64, len(flat)
    )
    encoded = [w.encode("utf-8") for w in words]
    word_len = np.fromiter(map(len, encoded), np.int64, len(encoded))
    word_start = np.cumsum(word_len) - word_len
    data = np.frombuffer(b"".join(encoded), dtype=np.uint8).astype(np.uint64)

    lengths = np.fromiter(map(len, token_lists), np.int64, len(token_lists))
    ends = np.cumsum(lengths)
    n_ngrams = np.maximum(lengths - ngram + 1, 0) if ngram >= 2 else 0 * lengths
    ngram_ends = np.cumsum(n_ngrams)
    # The flat position of each n-gram's first token.
    starts = np.arange(n_ngrams.sum()) + np.repeat(
        ends - lengths - (ngram_ends - n_ngrams), n_ngrams
    )
    h = np.full(len(starts), _FNV_OFFSET, dtype=np.uint64)
    for k in range(ngram):
        if k:
            h ^= _NGRAM_SEP
            h *= _FNV_PRIME
        # Longest token first, so the n-grams still hashing byte column j
        # are a prefix of the order.
        token = word_ids[starts + k]
        order = np.argsort(-word_len[token], kind="stable")
        n_bytes = word_len[token][order]
        first_byte = word_start[token][order]
        hk = h[order]
        columns = n_bytes[0] if n_bytes.size else 0
        for j, active in enumerate(np.searchsorted(-n_bytes, -np.arange(columns)).tolist()):
            hk[:active] ^= data[first_byte[:active] + j]
            hk[:active] *= _FNV_PRIME
        h[order] = hk
    hashed = (h % np.uint64(buckets)).astype(np.int64)
    hashed.flags.writeable = False  # the texts' bucket arrays are views of it
    return [
        TextFeatures(text, tuple(flat[end - n : end]), hashed[ngram_end - k : ngram_end])
        for text, n, end, k, ngram_end in zip(
            texts, lengths.tolist(), ends.tolist(), n_ngrams.tolist(), ngram_ends.tolist()
        )
    ]


def feature_ids(
    features: Sequence[TextFeatures], vocab: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Each text's feature ids under a vocabulary, all in one array, text
    after text, and each text's number of ids. A text's ids are its
    in-vocabulary word indices, in token order, then its n-gram bucket ids
    offset past the word block. Out-of-vocabulary single words are dropped;
    n-grams count whether or not their words are known.
    """
    words = [[vocab[tok] for tok in f.tokens if tok in vocab] for f in features]
    n_words = np.fromiter(map(len, words), np.int64, len(words))
    n_ngrams = np.fromiter((f.ngram_buckets.size for f in features), np.int64, len(features))
    word_ids = np.fromiter(chain.from_iterable(words), np.int64)
    ngram_ids = np.concatenate([np.empty(0, np.int64), *(f.ngram_buckets for f in features)])
    ids = np.concatenate([word_ids, ngram_ids + len(vocab)])
    # All the word ids come first; a stable sort on the text puts each
    # text's words before its n-grams.
    text_of = np.arange(len(features))
    order = np.argsort(
        np.concatenate([np.repeat(text_of, n_words), np.repeat(text_of, n_ngrams)]), kind="stable"
    )
    return ids[order], n_words + n_ngrams


@dataclass
class TextModel:
    vocab: dict[str, int]  # word -> index, in sorted word order
    hyper: TextHyper
    # Compact embedding: row r of `embedding` belongs to feature id
    # observed_ids[r]; any other id is a zero row.
    observed_ids: np.ndarray  # (n_observed_ids,) int64, ascending
    embedding: np.ndarray  # (n_observed_ids, dim)
    head: np.ndarray  # (2, dim)
    bias: np.ndarray  # (2,)


class _Workspace:
    """The buffers :func:`_forward` and the SGD step write into, made once
    for up to ``size`` documents and the models ``params``
    ``(n, 2, dim + 1)``. ``at(k)`` gives the views for k documents: the
    buffers' first k rows, and the first k models, or the one model when n
    is 1 (it then takes every document). Each k's views are made once."""

    def __init__(self, params: np.ndarray, size: int):
        self.params = params
        dim = params.shape[2] - 1
        self.h = np.empty((size, dim + 1))
        self.z = np.empty((size, 2, 1))  # the logits, then p
        self.m = np.empty((size, 1, 1))
        self.s = np.empty((size, 1, 1))
        self.dz = np.empty((size, 2, 1))
        self.dh = np.empty((size, dim + 1, 1))
        self.g = np.empty((size, 2, dim + 1))
        self._views: dict[int, _Views] = {}

    def at(self, k: int) -> "_Views":
        views = self._views.get(k)
        if views is None:
            P = self.params if len(self.params) == 1 else self.params[:k]
            h, z, dh = self.h[:k], self.z[:k], self.dh[:k]
            views = self._views[k] = _Views(
                P, P[:, :, :-1], P[:, :, -1:], P.transpose(0, 2, 1),
                h, h[:, :-1, None], h[:, None], z, z[:, :1], z[:, 1:],
                self.m[:k], self.s[:k], self.dz[:k], dh, dh.reshape(-1), self.g[:k],
            )
        return views


class _Views(NamedTuple):
    P: np.ndarray  # (k or 1, 2, dim + 1): each document's model
    W: np.ndarray  # its head
    B: np.ndarray  # its bias column
    PT: np.ndarray  # P transposed, (k or 1, dim + 1, 2)
    h: np.ndarray  # (k, dim + 1)
    h_col: np.ndarray  # h without its last column, (k, dim, 1)
    h_row: np.ndarray  # (k, 1, dim + 1)
    z: np.ndarray  # (k, 2, 1)
    z0: np.ndarray  # z[:, :1]
    z1: np.ndarray  # z[:, 1:]
    m: np.ndarray  # (k, 1, 1)
    s: np.ndarray  # (k, 1, 1)
    dz: np.ndarray  # (k, 2, 1)
    dh: np.ndarray  # (k, dim + 1, 1)
    dh_flat: np.ndarray  # dh, flat
    g: np.ndarray  # (k, 2, dim + 1)


def _forward(embedding, elem, tgt, sums, params, onehot, work: Optional[_Workspace] = None):
    """k documents at once, each through its own model, for its own label.

    Each document's embedding rows are added to its row of ``sums``
    ``(k, dim + 1)`` one value at a time, in order: ``embedding[elem[i]]``
    (the embedding flat) goes to ``sums.flat[tgt[i]]``. A document's sums
    start at -0.0 if it has rows, so each sum has the bits of numpy's row
    sum (x + -0.0 == x), and at 0.0 if not, the zero vector. The last
    column holds its number of feature ids, at least 1: an id with no row
    adds nothing to the sum but counts in the mean. ``params``
    ``(k, 2, dim + 1)`` holds each document's model, the head with the bias
    as its last column (one model, ``(1, 2, dim + 1)``, takes every
    document), and ``onehot`` ``(k, 2, 1)`` its label.

    Returns the document vectors ``h`` ``(k, dim + 1)`` with a last column
    of ones, the class probabilities ``p`` ``(k, 2, 1)`` by the written-out
    two-way softmax, and the gradients ``dz = p - onehot`` with respect to
    the logits and ``dh = params.T @ dz`` ``(k, dim + 1, 1)`` with respect
    to ``h`` (its last entry, for the column of ones, goes unused);
    ``dz * h`` is the gradient with respect to ``params``. The SGD step,
    ``loss_and_grads`` and :func:`predict_proba` (in bounded chunks) all run
    this pass.

    The results are views of ``work``'s buffers, a :class:`_Workspace` made
    for ``params`` (its first k models, when it holds more), which the next
    call overwrites; without one, the call makes its own. Every operation
    writes into them (``out=``, or in place) with the operands, in the
    order, of the allocating expressions they stand for (``W @ h + B``,
    ``z - m``, ``e / s``), so every value has those expressions' bits.
    """
    np.add.at(sums.reshape(-1), tgt, embedding[elem])
    if work is None:
        work = _Workspace(params, len(sums))
    _, W, B, PT, h, h_col, _, z, z0, z1, m, s, dz, dh, _, _ = work.at(len(sums))
    np.divide(sums, sums[:, -1:], out=h)
    np.matmul(W, h_col, out=z)
    z += B
    np.maximum(z0, z1, out=m)
    z -= m
    np.exp(z, out=z)
    np.add(z0, z1, out=s)
    z /= s
    np.subtract(z, onehot, out=dz)
    np.matmul(PT, dz, out=dh)
    return h, z, dz, dh


def _element_indices(rows: np.ndarray, doc_of: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_forward`'s ``elem`` and ``tgt`` for embedding rows listed
    document after document, ``doc_of`` giving each row's document."""
    # Each row's first index, repeated once per column, plus the column.
    columns = np.tile(np.arange(dim, dtype=np.int32), len(rows))
    elem = np.repeat(rows.astype(np.intp) * dim, dim)
    elem += columns
    tgt = np.repeat(doc_of.astype(np.intp) * (dim + 1), dim)
    tgt += columns
    return elem, tgt


def _sums(n_rows: np.ndarray, n_ids: np.ndarray, dim: int) -> np.ndarray:
    """:func:`_forward`'s starting ``sums`` for documents of ``n_rows``
    embedding rows and ``n_ids`` feature ids."""
    sums = np.full((len(n_rows), dim + 1), -0.0)
    sums[n_rows == 0] = 0.0
    sums[:, -1] = np.maximum(n_ids, 1)
    return sums


def _rows(model: TextModel, features: Sequence[TextFeatures]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each text's embedding rows under a trained model, in feature-id order
    and all in one array, text after text; each text's number of rows; and
    each text's number of feature ids, which counts the ids without a row."""
    ids, n_ids = feature_ids(features, model.vocab)
    observed = model.observed_ids
    rows = np.searchsorted(observed, ids)
    known = rows < len(observed)
    known[known] = observed[rows[known]] == ids[known]
    text_of = np.repeat(np.arange(len(features)), n_ids)
    return rows[known], np.bincount(text_of[known], minlength=len(features)), n_ids


def _forward_args(model: TextModel, rows: np.ndarray, n_rows: np.ndarray, n_ids: np.ndarray):
    """:func:`_forward`'s first arguments for documents that one model
    takes, given their :func:`_rows`: the embedding flat, ``elem``,
    ``tgt`` and ``sums``."""
    dim = model.hyper.dim
    elem, tgt = _element_indices(rows, np.repeat(np.arange(len(n_rows)), n_rows), dim)
    return model.embedding.reshape(-1), elem, tgt, _sums(n_rows, n_ids, dim)


def _model_params(model: TextModel) -> np.ndarray:
    """:func:`_forward`'s ``params`` for documents that one model takes:
    its head with the bias as the last column, ``(1, 2, dim + 1)``, which
    broadcasts over the documents."""
    return np.concatenate([model.head, model.bias[:, None]], axis=1)[None]


# The most embedding values a chunk of predict_proba's documents or of
# train_text_classifiers' lockstep SGD steps indexes (see _chunks).
_STEP_ELEMENTS = 1 << 16


def _chunks(cost: np.ndarray) -> list[int]:
    """The bounds of consecutive runs of items, item i holding ``cost[i]``
    embedding values: each run takes, from the item after the last run, the
    most items whose values sum to at most ``_STEP_ELEMENTS``, and at least
    one (an item above the bound is a run of its own)."""
    ends = np.concatenate([[0], np.cumsum(cost)])
    bounds = [0]
    while bounds[-1] < len(cost):
        lo = bounds[-1]
        bounds.append(max(lo + 1, int(np.searchsorted(ends, ends[lo] + _STEP_ELEMENTS, side="right")) - 1))
    return bounds


def predict_proba(model: TextModel, features: Sequence[TextFeatures]) -> np.ndarray:
    """Probability that each text belongs to the positive class, the texts
    featurized with the model's ``ngram`` and ``buckets``.

    Class probabilities sum to one by softmax; an empty or all-unknown
    document scores from the bias alone.

    The documents run through :func:`_forward` in order, in the chunks of
    :func:`_chunks`, a document holding ``dim`` values per embedding row
    and at least one row.
    """
    rows, n_rows, n_ids = _rows(model, features)
    row_bounds = np.concatenate([[0], np.cumsum(n_rows)]).tolist()
    bounds = _chunks(model.hyper.dim * np.maximum(n_rows, 1))
    out = np.empty(len(n_rows))
    params, onehot = _model_params(model), np.zeros((1, 2, 1))
    work = _Workspace(params, int(np.diff(bounds).max(initial=0)))
    for lo, hi in zip(bounds, bounds[1:]):
        args = _forward_args(model, rows[row_bounds[lo] : row_bounds[hi]], n_rows[lo:hi], n_ids[lo:hi])
        out[lo:hi] = _forward(*args, params, onehot, work)[1][:, 1, 0]
    return out


def _training_order(examples: list[tuple[TextFeatures, int]]) -> list[tuple[TextFeatures, int]]:
    """The examples in canonical order, by text and then label. Raises
    :class:`DegenerateTrainingError` when they cannot train a classifier."""
    if not examples:
        raise DegenerateTrainingError("no training examples")
    labels = {label for _, label in examples}
    if labels - {0, 1}:
        raise DegenerateTrainingError(f"labels must be 0 or 1, got {sorted(labels)}")
    if len(labels) < 2:
        raise DegenerateTrainingError("need at least one example per class")
    return sorted(examples, key=lambda doc: (doc[0].text, doc[1]))


def train_text_classifier(
    examples: list[tuple[TextFeatures, int]],
    hyper: TextHyper = TextHyper(),
) -> TextModel:
    """Fit the classifier on ``examples``: :func:`train_text_classifiers`
    with one job. Raises :class:`DegenerateTrainingError` when the examples
    are empty or of one class."""
    _training_order(examples)
    (model,) = train_text_classifiers([(examples, hyper)])
    return model


def train_text_classifiers(
    jobs: Iterable[tuple[list[tuple[TextFeatures, int]], TextHyper]],
) -> list[Optional[TextModel]]:
    """Fit one classifier per ``(examples, hyper)`` job by SGD on
    cross-entropy, the texts featurized with the job's ``ngram`` and
    ``buckets``; None for a job whose examples are empty or of one class.
    The jobs share ``dim``.

    Each job is deterministic given its ``hyper.seed``: its examples are
    brought to a canonical order, so permuting them yields an identical
    model. A generator seeded with ``hyper.seed`` draws the head, then one
    shuffle of the examples per epoch and nothing else. The learning rate
    decays linearly to zero over the job's ``epochs × n`` steps. A caller
    fitting many models on overlapping texts featurizes each text once;
    only the ``min_count`` vocabulary is built per job.

    The jobs run in lockstep: global step s takes one SGD step of every job
    with more than s steps, one numpy call per operation for all of them
    (:func:`_forward`, then the updates), each writing into one
    :class:`_Workspace` made for the call. Each job's embedding rows are a
    block of one array, updated by one flat ``np.add.at``, which applies a
    row listed twice twice, in order. Every model has the bits it gets
    trained alone; the models' embeddings are views of that one array.

    Every job's shuffles are drawn before the first step, into one int32
    array, 4 bytes per job step. The steps' index arrays are built a chunk
    of global steps at a time, in the chunks of :func:`_chunks`, a step
    holding ``dim`` values per embedding row of each of its documents and
    at least one row per document.
    """
    models: list[Optional[TextModel]] = []
    fits = []  # (model index, vocab, hyper, observed ids, generator, head, first doc, docs)
    rows, n_rows, labels = [], [], []  # each fit's, its docs in canonical order
    n_observed = n_docs = 0
    for examples, hyper in jobs:
        models.append(None)
        try:
            docs = _training_order(examples)
        except DegenerateTrainingError:
            continue
        vocab = build_vocabulary([f.tokens for f, _ in docs], hyper.min_count)
        ids, n_ids = feature_ids([f for f, _ in docs], vocab)
        observed = np.unique(ids)
        # Every training id has a row, so a document's rows number its ids.
        rows.append((np.searchsorted(observed, ids) + n_observed).astype(np.int32))
        n_rows.append(n_ids)
        labels.append(np.array([label for _, label in docs]))
        rng = np.random.default_rng(hyper.seed)
        head = rng.normal(0.0, 1.0 / np.sqrt(hyper.dim), size=(2, hyper.dim))
        fits.append((len(models) - 1, vocab, hyper, observed, rng, head, n_docs, len(docs)))
        n_observed += len(observed)
        n_docs += len(docs)
    if not fits:
        return models
    dims = {hyper.dim for _, _, hyper, *_ in fits}
    if len(dims) > 1:
        raise ValueError(f"jobs must share dim, got {sorted(dims)}")
    (dim,) = dims

    # Slot j is the fit with the j-th most steps, so the jobs a step
    # advances are always the first slots.
    totals = np.array([hyper.epochs * n for _, _, hyper, *_, n in fits])
    slots = np.argsort(-totals, kind="stable").tolist()
    totals = totals[slots]
    first_step = np.cumsum(totals) - totals
    rates = np.array([fits[i][2].lr for i in slots])
    n_rows = np.concatenate(n_rows)
    first_row = np.cumsum(n_rows) - n_rows
    rows = np.concatenate(rows)
    labels = np.concatenate(labels)
    # Slot j's document at step s is orders[first_step[j] + s]. Each
    # generator has drawn only its head, so drawing the shuffles here, in
    # slot order and straight into the one array, gives the values a loop
    # over the job's steps draws. Each global step's values add up in cost.
    orders = np.empty(totals.sum(), np.int32)
    cost = np.zeros(totals[0], np.int64)
    values = dim * np.maximum(n_rows, 1)
    for j, i in enumerate(slots):
        _, _, _, _, rng, _, first, n = fits[i]
        own = orders[first_step[j] : first_step[j] + totals[j]]
        for at in range(0, totals[j], n):
            own[at : at + n] = rng.permutation(n) + first
            cost[at : at + n] += values[own[at : at + n]]
    # Each slot's head, with its bias as one more column (see _forward).
    params = np.zeros((len(fits), 2, dim + 1))
    params[:, :, :-1] = [fits[i][5] for i in slots]
    embedding = np.zeros((n_observed, dim))
    flat = embedding.reshape(-1)
    work = _Workspace(params, len(fits))

    bounds = _chunks(cost)
    for start, stop in zip(bounds, bounds[1:]):
        # The chunk's entries, step after step and each active slot in turn:
        # the document each takes, its embedding rows and its learning rate.
        steps = np.arange(start, stop)
        per_step = (totals[None, :] > steps[:, None]).sum(axis=1)
        entry_bounds = np.concatenate([[0], np.cumsum(per_step)])
        slot = np.arange(entry_bounds[-1]) - np.repeat(entry_bounds[:-1], per_step)
        step = np.repeat(steps, per_step)
        doc = orders[first_step[slot] + step]
        length = n_rows[doc]
        ends = np.cumsum(length)
        at = np.arange(ends[-1]) + np.repeat(first_row[doc] - (ends - length), length)
        elem, tgt = _element_indices(rows[at], np.repeat(slot, length), dim)
        sums = _sums(length, length, dim)
        onehot = np.zeros((len(doc), 2, 1))
        onehot[np.arange(len(doc)), labels[doc], 0] = 1.0
        lr = (rates[slot] * (1.0 - step / totals[slot]))[:, None, None]
        # -lr / rows.size: each document's embedding step per unit of dh.
        scale = -lr / np.maximum(length, 1)[:, None, None]
        element_bounds = (np.concatenate([[0], ends])[entry_bounds] * dim).tolist()
        entry_bounds = entry_bounds.tolist()
        for k, e0, e1, x0, x1 in zip(
            per_step.tolist(), entry_bounds, entry_bounds[1:], element_bounds, element_bounds[1:]
        ):
            step_elem, step_tgt = elem[x0:x1], tgt[x0:x1]
            _forward(flat, step_elem, step_tgt, sums[e0:e1], params, onehot[e0:e1], work)
            # The step's updates, written into the workspace as _forward is:
            # the params' gradient times lr, and dh times the embedding step.
            v = work.at(k)
            np.multiply(v.dz, v.h_row, out=v.g)
            np.multiply(v.g, lr[e0:e1], out=v.g)
            np.subtract(v.P, v.g, out=v.P)
            np.multiply(v.dh, scale[e0:e1], out=v.dh)
            np.add.at(flat, step_elem, v.dh_flat[step_tgt])

    slot_of = {i: j for j, i in enumerate(slots)}
    block = 0
    for i, (index, vocab, hyper, observed, *_) in enumerate(fits):
        models[index] = TextModel(
            vocab=vocab,
            hyper=hyper,
            observed_ids=observed,
            embedding=embedding[block : block + len(observed)],
            head=params[slot_of[i], :, :-1].copy(),
            bias=params[slot_of[i], :, -1].copy(),
        )
        block += len(observed)
    return models


def loss_and_grads(model: TextModel, examples: list[tuple[TextFeatures, int]]):
    """Mean cross-entropy over ``examples`` with analytic gradients.

    Returns ``(loss, d_embedding, d_head, d_bias)`` where ``d_embedding``
    aligns with ``model.embedding`` rows. The examples run the forward pass
    and gradients the SGD step uses (:func:`_forward`), so finite
    differences of this loss check the training gradients themselves.
    """
    n = len(examples)
    rows, n_rows, n_ids = _rows(model, [features for features, _ in examples])
    flat, elem, tgt, sums = _forward_args(model, rows, n_rows, n_ids)
    ys = np.array([y for _, y in examples])
    h, p, dz, dh = _forward(flat, elem, tgt, sums, _model_params(model), np.eye(2)[ys][:, :, None])
    loss = -np.log(np.maximum(p[np.arange(n), ys, 0], 1e-300))
    d_emb = np.zeros_like(model.embedding)
    np.add.at(d_emb.reshape(-1), elem, (dh / (np.maximum(n_ids, 1)[:, None, None] * n)).reshape(-1)[tgt])
    d_params = (dz * h[:, None] / n).sum(axis=0)
    return float(loss.mean()), d_emb, d_params[:, :-1], d_params[:, -1]
