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

import math
import re
import sys
import unicodedata
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

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
    counts: dict[str, int] = {}
    for tokens in token_lists:
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
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


def _softmax2(z: np.ndarray) -> np.ndarray:
    # The max and the sum of two entries, written out: the same values as
    # z.max() and e.sum() without a reduction call on every SGD step.
    z = z - max(z[0], z[1])
    e = np.exp(z)
    return e / (e[0] + e[1])


def _forward(model: TextModel, rows, n_ids: int, y: int):
    """One document through the model, for label ``y``.

    ``rows`` are the document's embedding rows in feature-id order and
    ``n_ids`` its number of feature ids; an id with no row is a zero row,
    which adds nothing to the sum but counts in the mean. Returns the
    document vector ``h``, the class probabilities ``p``, the cross-entropy
    of ``y``, and its gradients ``dz = p - onehot(y)`` with respect to the
    logits and ``dh = head.T @ dz`` with respect to ``h``. Training and
    ``loss_and_grads`` run this pass; :func:`predict_proba` runs it over many
    documents at once, with the same bits.
    """
    h = model.embedding[rows].sum(axis=0) / n_ids if len(rows) else np.zeros(model.hyper.dim)
    p = _softmax2(model.head @ h + model.bias)
    dz = p.copy()
    dz[y] -= 1.0
    return h, p, -math.log(max(p[y], 1e-300)), dz, model.head.T @ dz


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


# The most elements one step of predict_proba gathers: a batch of any size
# is scored in chunks of this many embedding values.
_GATHER_ELEMENTS = 1 << 18


def predict_proba(model: TextModel, features: Sequence[TextFeatures]) -> np.ndarray:
    """Probability that each text belongs to the positive class, the texts
    featurized with the model's ``ngram`` and ``buckets``.

    Class probabilities sum to one by softmax; an empty or all-unknown
    document scores from the bias alone.

    Every score has the bits :func:`_forward` gives the document alone. The
    documents are taken shortest first, in chunks of at most
    ``_GATHER_ELEMENTS`` gathered values (a document longer than that is a
    chunk of its own). A chunk's rows are padded to its
    longest document with -0.0, which leaves every sum bit for bit as it
    was (x + -0.0 == x), and summed on the same axis order as ``_forward``;
    the head is applied by a batched matrix-vector product, then the
    written-out two-way softmax.
    """
    rows, n_rows, n_ids = _rows(model, features)
    first = np.cumsum(n_rows) - n_rows
    order = np.argsort(n_rows, kind="stable")
    widths = (np.maximum(n_rows[order], 1) * model.embedding.shape[1]).tolist()
    out = np.empty(len(n_rows))
    lo = 0
    while lo < len(order):
        hi = lo + 1  # past the chunk's last document, the longest
        while hi < len(order) and (hi + 1 - lo) * widths[hi] <= _GATHER_ELEMENTS:
            hi += 1
        chunk = order[lo:hi]
        lengths = n_rows[chunk]
        at = first[chunk][:, None] + np.arange(lengths[-1])
        pad = at >= (first[chunk] + lengths)[:, None]
        gathered = model.embedding[rows[np.where(pad, 0, at)]]
        gathered[pad] = -0.0
        h = gathered.sum(axis=1) / np.maximum(n_ids[chunk], 1)[:, None]
        h[lengths == 0] = 0.0  # as _forward: no rows is the zero vector
        z = (model.head[None] @ h[:, :, None])[:, :, 0] + model.bias
        e = np.exp(z - np.maximum(z[:, 0], z[:, 1])[:, None])
        out[chunk] = e[:, 1] / (e[:, 0] + e[:, 1])
        lo = hi
    return out


def train_text_classifier(
    examples: list[tuple[TextFeatures, int]],
    hyper: TextHyper = TextHyper(),
) -> TextModel:
    """Fit the classifier by SGD on cross-entropy, the texts featurized with
    ``hyper.ngram`` and ``hyper.buckets``.

    Deterministic given ``hyper.seed``: examples are brought to a canonical
    order before the seed-derived per-epoch shuffle, so permuting the input
    yields an identical model. The learning rate decays linearly to zero over
    all steps. A caller fitting many models on overlapping texts featurizes
    each text once; only the ``min_count`` vocabulary is built per fit.
    """
    if not examples:
        raise DegenerateTrainingError("no training examples")
    labels = {label for _, label in examples}
    if labels - {0, 1}:
        raise DegenerateTrainingError(f"labels must be 0 or 1, got {sorted(labels)}")
    if len(labels) < 2:
        raise DegenerateTrainingError("need at least one example per class")

    docs = sorted(examples, key=lambda doc: (doc[0].text, doc[1]))
    vocab = build_vocabulary([f.tokens for f, _ in docs], hyper.min_count)
    ids, n_ids = feature_ids([f for f, _ in docs], vocab)
    ys = [label for _, label in docs]

    observed = np.unique(ids)
    # Every training id has a row, so a document's rows number its ids.
    id_rows = np.split(np.searchsorted(observed, ids), np.cumsum(n_ids)[:-1])

    rng = np.random.default_rng(hyper.seed)
    model = TextModel(
        vocab=vocab,
        hyper=hyper,
        observed_ids=observed,
        embedding=np.zeros((len(observed), hyper.dim)),
        head=rng.normal(0.0, 1.0 / np.sqrt(hyper.dim), size=(2, hyper.dim)),
        bias=np.zeros(2),
    )
    embedding, head, bias = model.embedding, model.head, model.bias  # updated in place

    n = len(docs)
    total_steps = hyper.epochs * n
    step = 0
    for _ in range(hyper.epochs):
        for i in rng.permutation(n).tolist():
            rows = id_rows[i]
            lr = hyper.lr * (1.0 - step / total_steps)
            step += 1
            h, _, _, dz, dh = _forward(model, rows, rows.size, ys[i])
            head -= lr * (dz[:, None] * h)
            bias -= lr * dz
            if rows.size:
                # A row listed twice is updated twice, in order; an indexed
                # += would apply only one of the updates.
                np.add.at(embedding, rows, -lr / rows.size * dh)
    return model


def loss_and_grads(model: TextModel, examples: list[tuple[TextFeatures, int]]):
    """Mean cross-entropy over ``examples`` with analytic gradients.

    Returns ``(loss, d_embedding, d_head, d_bias)`` where ``d_embedding``
    aligns with ``model.embedding`` rows. Each example runs the forward pass
    and gradients the SGD step uses, so finite differences of this loss
    check the training gradients themselves.
    """
    d_emb = np.zeros_like(model.embedding)
    d_head = np.zeros_like(model.head)
    d_bias = np.zeros_like(model.bias)
    total = 0.0
    n = len(examples)
    rows, n_rows, n_ids = _rows(model, [features for features, _ in examples])
    for doc_rows, doc_ids, (_, y) in zip(np.split(rows, np.cumsum(n_rows)[:-1]), n_ids.tolist(), examples):
        h, _, loss, dz, dh = _forward(model, doc_rows, doc_ids, y)
        total += loss
        d_head += dz[:, None] * h / n
        d_bias += dz / n
        if doc_rows.size:
            np.add.at(d_emb, doc_rows, dh / (doc_ids * n))
    return total / n, d_emb, d_head, d_bias
