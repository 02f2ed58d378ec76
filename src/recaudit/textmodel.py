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
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTrainingError

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_NGRAM_SEP = b"\x1f"


def tokenize(text: str) -> list[str]:
    """Lowercased NFC tokens, split on non-alphanumeric runs. Digits kept."""
    text = unicodedata.normalize("NFC", text).lower()
    return _TOKEN_RE.findall(text)


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass(frozen=True)
class TextHyper:
    dim: int = 16
    ngram: int = 2
    buckets: int = 2**20
    lr: float = 0.1
    epochs: int = 25
    min_count: int = 2
    seed: int = 0


@dataclass(frozen=True)
class Vocabulary:
    words: tuple[str, ...]
    index: dict[str, int] = field(compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "index", {w: i for i, w in enumerate(self.words)})


def build_vocabulary(token_lists: list[list[str]], min_count: int) -> Vocabulary:
    counts: dict[str, int] = {}
    for tokens in token_lists:
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
    return Vocabulary(tuple(sorted(w for w, c in counts.items() if c >= min_count)))


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


def featurize(text: str, ngram: int, buckets: int) -> TextFeatures:
    """Tokenize a text and hash its n-grams into ``buckets``. Tokens are
    interned, so features kept for many texts hold one copy of each word."""
    tokens = tuple(map(sys.intern, tokenize(text)))
    hashes = []
    if ngram >= 2:
        for i in range(len(tokens) - ngram + 1):
            key = _NGRAM_SEP.join(t.encode("utf-8") for t in tokens[i : i + ngram])
            hashes.append(fnv1a64(key) % buckets)
    return TextFeatures(text, tokens, np.array(hashes, dtype=np.int64))


def feature_ids(features: TextFeatures, vocab: Vocabulary) -> np.ndarray:
    """Feature ids under a vocabulary: in-vocabulary word indices plus the
    n-gram bucket ids offset past the word block. Out-of-vocabulary single
    words are dropped; n-grams count whether or not their words are known.
    """
    index = vocab.index
    words = np.array([index[tok] for tok in features.tokens if tok in index], dtype=np.int64)
    return np.concatenate([words, features.ngram_buckets + len(vocab.words)])


def _as_features(text: str | TextFeatures, hyper: TextHyper) -> TextFeatures:
    if isinstance(text, TextFeatures):
        return text
    return featurize(text, hyper.ngram, hyper.buckets)


@dataclass
class TextModel:
    vocab: Vocabulary
    hyper: TextHyper
    # Compact embedding: feature id -> row of `embedding`; untouched ids are zero rows.
    row_index: dict[int, int]
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
    logits and ``dh = head.T @ dz`` with respect to ``h``. Training,
    scoring and ``loss_and_grads`` all run this one pass.
    """
    h = model.embedding[rows].sum(axis=0) / n_ids if len(rows) else np.zeros(model.hyper.dim)
    p = _softmax2(model.head @ h + model.bias)
    dz = p.copy()
    dz[y] -= 1.0
    return h, p, -math.log(max(p[y], 1e-300)), dz, model.head.T @ dz


def _document(model: TextModel, text: str | TextFeatures) -> tuple[list[int], int]:
    """A text's embedding rows under a trained model, and its number of feature ids."""
    ids = feature_ids(_as_features(text, model.hyper), model.vocab).tolist()
    row_index = model.row_index
    return [row_index[fid] for fid in ids if fid in row_index], len(ids)


def predict_proba(model: TextModel, text: str | TextFeatures) -> float:
    """Probability that the text belongs to the positive class.

    Class probabilities sum to one by softmax; an empty or all-unknown
    document scores from the bias alone. The text may be given already
    featurized with the model's ``ngram`` and ``buckets``.
    """
    rows, n_ids = _document(model, text)
    return float(_forward(model, rows, n_ids, 1)[1][1])  # p does not depend on the label


def train_text_classifier(
    examples: list[tuple[str | TextFeatures, int]],
    hyper: TextHyper = TextHyper(),
) -> TextModel:
    """Fit the classifier by SGD on cross-entropy.

    Deterministic given ``hyper.seed``: examples are brought to a canonical
    order before the seed-derived per-epoch shuffle, so permuting the input
    yields an identical model. The learning rate decays linearly to zero over
    all steps. Texts may be given already featurized with ``hyper.ngram``
    and ``hyper.buckets``, so that a caller fitting many models on
    overlapping texts tokenizes and hashes each text only once; only the
    ``min_count`` vocabulary is built per fit.
    """
    if not examples:
        raise DegenerateTrainingError("no training examples")
    labels = {label for _, label in examples}
    if labels - {0, 1}:
        raise DegenerateTrainingError(f"labels must be 0 or 1, got {sorted(labels)}")
    if len(labels) < 2:
        raise DegenerateTrainingError("need at least one example per class")

    docs = sorted(
        ((_as_features(text, hyper), label) for text, label in examples),
        key=lambda doc: (doc[0].text, doc[1]),
    )
    vocab = build_vocabulary([f.tokens for f, _ in docs], hyper.min_count)
    featurized = [feature_ids(f, vocab) for f, _ in docs]
    ys = [label for _, label in docs]

    observed = np.unique(np.concatenate(featurized))
    # Every training id has a row, so a document's rows number its ids.
    id_rows = [np.searchsorted(observed, ids) for ids in featurized]

    rng = np.random.default_rng(hyper.seed)
    model = TextModel(
        vocab=vocab,
        hyper=hyper,
        row_index=dict(zip(observed.tolist(), range(len(observed)))),
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


def loss_and_grads(model: TextModel, examples: list[tuple[str | TextFeatures, int]]):
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
    for text, y in examples:
        rows, n_ids = _document(model, text)
        h, _, loss, dz, dh = _forward(model, rows, n_ids, y)
        total += loss
        d_head += dz[:, None] * h / n
        d_bias += dz / n
        if rows:
            np.add.at(d_emb, rows, dh / (n_ids * n))
    return total / n, d_emb, d_head, d_bias
