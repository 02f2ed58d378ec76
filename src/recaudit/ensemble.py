"""The video-level conspiracy classifier: four per-modality scoring modules
stacked under a logistic layer.

The modules form one table, ``MODULE_NAMES``. The first three, one per
``TEXT_FIELDS``, are the same text model fit on different texts of a video,
as ``VideoRecord.texts`` gives them: the transcript (none or one),
the snippet (title + description + tags; always one) and the comments (one
per comment). Each scores the median over its texts. The fourth scores a
35-D summary of the comment attribute vectors. Module scores are
standardized to zero mean and unit variance, so a missing modality
contributes exactly zero to the stacked logit.

Training repeats a 60/40 split: the 60% side fits the four modules, the 40%
side is scored, standardized and used to fit the stacking logistic; the
stacking coefficients reported are the element-wise mean over all
repetitions, and the shipped modules are refit on the full labeled set. The
refit and the repetitions are split into one share per available CPU,
planned by the predicted time of the lockstep loops each share runs. Each
process fits each text module for its share's repetitions in one lockstep
SGD loop (``textmodel.train_text_classifiers``), each model with the bits it
gets trained alone; a repetition's model scores its held-out side and is
dropped before the next module is fit. The refit's three text models train
in the loop of the module whose refit job has the most texts (the comments,
as a rule), the longest loop, so they add no global steps. A process holds
at most one module's repetition models at a time, besides the refit's. The
process then fits all its attribute heads in one gradient-descent loop and,
once they have scored, all its stacking layers in another
(``train_logistics``, again each fit with the bits it gets alone). The
attribute summaries of a batch of videos are computed together, grouped by
their count of scored comments. Scoring spreads its batches of videos over
every available CPU too.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import TEXT_FIELDS, LabeledExample, VideoRecord
from .errors import DegenerateTrainingError, UnclassifiableVideoError
from .parallel import run_shares
from .textmodel import (
    TextFeatures,
    TextHyper,
    TextModel,
    featurize,
    predict_proba,
    train_text_classifiers,
)

MODULE_NAMES = (*TEXT_FIELDS, "attributes")

_SPLIT_RETRIES = 1000

# Videos FirstLayer.score featurizes and scores together: enough to spread
# numpy's per-call cost thin, few enough that the features of a whole day's
# videos are never held at once.
_VIDEO_BATCH = 128


# ---------------------------------------------------------------------------
# Module-level scoring
# ---------------------------------------------------------------------------


def score_texts(model: TextModel, groups: Sequence[Sequence[TextFeatures]]) -> np.ndarray:
    """One text module's score for each group of texts (a video's texts for
    the module): the median of the model's scores over the group, or NaN
    for an empty group, where the modality is absent. The texts of all the
    groups are scored in one batch. Each median is ``np.median``'s: the
    middle score of an odd count, ``(a + b) / 2`` of the two middle scores
    of an even one."""
    counts = np.fromiter(map(len, groups), np.int64, len(groups))
    scores = predict_proba(model, [text for group in groups for text in group])
    group_of = np.repeat(np.arange(len(groups)), counts)
    ranked = scores[np.lexsort((scores, group_of))]  # each group's scores, ascending
    present = counts > 0
    first = (np.cumsum(counts) - counts)[present]
    n = counts[present]
    medians = np.full(len(groups), np.nan)
    # For an odd count both indices are the middle one, and (a + a) / 2 == a.
    medians[present] = (ranked[first + (n - 1) // 2] + ranked[first + n // 2]) / 2
    return medians


# Attribute index pairs (i < j) in row-major order, for the product medians.
_PAIR_I, _PAIR_J = np.triu_indices(7, k=1)


def attribute_features(vectors: Sequence[Optional[Sequence[float]]]) -> Optional[np.ndarray]:
    """35-D summary of per-comment attribute vectors.

    Layout: the 7 per-attribute medians, then the 7 population standard
    deviations, then the 21 medians of per-comment pairwise products in
    (i < j) attribute order. None when no comment was scored. One video's
    summary is a batch of one (:func:`_attribute_summaries`).
    """
    (summary,) = _attribute_summaries([vectors])
    return summary


def _attribute_summaries(
    videos: Sequence[Sequence[Optional[Sequence[float]]]],
) -> list[Optional[np.ndarray]]:
    """Each video's :func:`attribute_features`, from the attribute vectors
    of its comments (None for an unscored comment). Videos with the same
    count of scored comments are stacked as one ``(videos, comments, 7)``
    array and summarized together. numpy reduces each video's comments, along
    axis 1, in the order it reduces them along axis 0 of that video alone, so
    every summary has the bits it gets alone."""
    scored = [[v for v in vectors if v is not None] for vectors in videos]
    by_count: dict[int, list[int]] = {}
    for i, rows in enumerate(scored):
        if rows:
            by_count.setdefault(len(rows), []).append(i)
    summaries: list[Optional[np.ndarray]] = [None] * len(videos)
    for members in by_count.values():
        V = np.array([scored[i] for i in members], dtype=float)
        if V.shape[2:] != (7,):
            raise ValueError(f"attribute vectors must have 7 entries, got shape {V.shape[2:]}")
        products = V[:, :, _PAIR_I] * V[:, :, _PAIR_J]
        stacked = np.concatenate(
            [np.median(V, axis=1), np.std(V, axis=1), np.median(products, axis=1)], axis=1
        )
        for i, summary in zip(members, stacked):
            summaries[i] = summary
    return summaries


@dataclass(frozen=True)
class VideoFeatures:
    """What a video gives the first layer before any model is fit: the
    features of each text module's texts and the 35-D attribute summary. None
    of it depends on the split, so ``train_ensemble`` computes it once per
    video."""

    texts: tuple[tuple[TextFeatures, ...], ...]  # aligned with TEXT_FIELDS
    attributes: Optional[np.ndarray]


def video_features(videos: Sequence[VideoRecord], hyper: TextHyper) -> list[VideoFeatures]:
    """Featurize the videos' texts with ``hyper.ngram`` and ``hyper.buckets``,
    all in one batch, and summarize the videos' comment attribute vectors,
    all in one pass (:func:`_attribute_summaries`)."""
    texts = [video.texts() for video in videos]
    featurized = iter(
        featurize([t for modules in texts for group in modules for t in group], hyper.ngram, hyper.buckets)
    )
    summaries = _attribute_summaries([[c.attribute_scores for c in video.comments] for video in videos])
    return [
        VideoFeatures(
            texts=tuple(tuple(islice(featurized, len(group))) for group in modules),
            attributes=summary,
        )
        for modules, summary in zip(texts, summaries)
    ]


# ---------------------------------------------------------------------------
# Logistic regression (used by the attribute head and the stacking layer)
# ---------------------------------------------------------------------------


def logistic_loss_and_grad(w: np.ndarray, b, X: np.ndarray, y: np.ndarray, l2: float):
    """Mean logistic loss with an L2 penalty on the weights (not the bias),
    plus its analytic gradient. Labels are 0/1.

    One fit (``w`` of shape (d,), a float ``b``, ``X`` (n, d), ``y`` (n,))
    or a stack of k fits of one shape, each argument with a leading axis of
    k. Each fit of a stack gets the bits it gets alone: a stacked product
    ``(k, n, d) @ (k, d, 1)`` makes each fit's BLAS matrix-vector call, and
    so does the transposed view ``(k, d, n) @ (k, n, 1)``; a sum along rows
    adds each row as a 1-D sum does. Each mean is ``np.mean``'s arithmetic:
    the sum, divided by the count."""
    n = X.shape[-2]
    s = 2.0 * y - 1.0  # {-1, +1}
    z = (X @ w[..., None])[..., 0] + np.asarray(b)[..., None]
    penalty = 0.5 * l2 * (w[..., None, :] @ w[..., None])[..., 0, 0]
    loss = np.add.reduce(np.logaddexp(0.0, -s * z), axis=-1) / n + penalty
    r = -s / (1.0 + np.exp(s * z))  # d loss_i / d z_i
    gw = (X.swapaxes(-1, -2) @ r[..., None])[..., 0] / n + l2 * w
    gb = np.add.reduce(r, axis=-1) / n
    return loss, gw, gb


def train_logistics(
    problems: Sequence[tuple[Sequence[Sequence[float]], Sequence[int]]],
    l2: float = 1e-3,
    tol: float = 1e-6,
    max_iter: int = 200_000,
) -> list[Optional[tuple[np.ndarray, float]]]:
    """Fit L2-regularized logistic regression by gradient descent on each
    (features, labels) problem; None for a problem whose labels are of one
    class.

    Backtracking line search with step growth; each fit iterates until its
    gradient norm falls below ``tol``. Deterministic (zero start, no
    randomness). Problems of one shape are fit in one loop (:func:`_descend`),
    each with the bits it gets fit alone.
    """
    checked: list[Optional[tuple[np.ndarray, np.ndarray]]] = []
    for features, labels in problems:
        X = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=float)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("features must be a matrix aligned with labels")
        if not np.isfinite(X).all():
            raise ValueError("features must be finite")
        if set(np.unique(y)) - {0.0, 1.0}:
            raise ValueError("labels must be 0 or 1")
        checked.append((X, y) if len(set(y.tolist())) == 2 else None)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, problem in enumerate(checked):
        if problem is not None:
            by_shape.setdefault(problem[0].shape, []).append(i)
    fits: list[Optional[tuple[np.ndarray, float]]] = [None] * len(checked)
    for members in by_shape.values():
        X = np.stack([checked[i][0] for i in members])
        y = np.stack([checked[i][1] for i in members])
        for i, w, b in zip(members, *_descend(X, y, l2, tol, max_iter)):
            fits[i] = (w, float(b))
    return fits


def _descend(
    X: np.ndarray, y: np.ndarray, l2: float, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """The weights (k, d) and biases (k,) of k fits of one shape, features
    ``X`` (k, n, d) and labels ``y`` (k, n), by gradient descent in lockstep.
    Each round evaluates every unfinished fit at its trial point in one
    stacked :func:`logistic_loss_and_grad`; each fit then accepts its step
    and doubles it, or halves it, as it does alone, and stops on its own."""
    k, _, d = X.shape
    out_w, out_b = np.empty((k, d)), np.empty(k)
    fit = np.arange(k)  # the index of each unfinished fit
    w, b, step, steps = np.zeros((k, d)), np.zeros(k), np.ones(k), np.zeros(k, dtype=np.int64)
    loss, gw, gb = logistic_loss_and_grad(w, b, X, y, l2)
    moved = np.ones(k, dtype=bool)  # a fit is tested for convergence after each step it takes
    while True:
        if moved.any():
            if steps.max() >= max_iter:
                raise ArithmeticError(f"gradient descent did not reach tolerance {tol}")
            gnorm_sq = (gw[:, None, :] @ gw[:, :, None])[:, 0, 0] + gb * gb
            done = moved & (np.sqrt(gnorm_sq) < tol)
            if done.any():
                out_w[fit[done]], out_b[fit[done]] = w[done], b[done]
                if done.all():
                    return out_w, out_b
                left = ~done
                fit, X, y, w, b, step, steps, loss, gw, gb, gnorm_sq = (
                    a[left] for a in (fit, X, y, w, b, step, steps, loss, gw, gb, gnorm_sq)
                )
        w_new = w - step[:, None] * gw
        b_new = b - step * gb
        loss_new, gw_new, gb_new = logistic_loss_and_grad(w_new, b_new, X, y, l2)
        moved = loss_new <= loss - 1e-4 * step * gnorm_sq
        if moved.all():
            w, b, loss, gw, gb = w_new, b_new, loss_new, gw_new, gb_new
        elif moved.any():
            w, gw = np.where(moved[:, None], w_new, w), np.where(moved[:, None], gw_new, gw)
            b, gb = np.where(moved, b_new, b), np.where(moved, gb_new, gb)
            loss = np.where(moved, loss_new, loss)
        step = step * np.where(moved, 2.0, 0.5)  # exact: a power of two
        if step.min() < 1e-18:
            raise ArithmeticError("line search stalled before reaching tolerance")
        steps += moved


def train_logistic(
    features: Sequence[Sequence[float]],
    labels: Sequence[int],
    l2: float = 1e-3,
    tol: float = 1e-6,
    max_iter: int = 200_000,
) -> tuple[np.ndarray, float]:
    """One fit of :func:`train_logistics`. Raises
    :class:`DegenerateTrainingError` when the labels are of one class."""
    (fit,) = train_logistics([(features, labels)], l2, tol, max_iter)
    if fit is None:
        raise DegenerateTrainingError("need both classes to fit a logistic model")
    return fit


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function, never exponentiating a positive number."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _logistic(rows: Iterable[np.ndarray], coef: np.ndarray, bias: float) -> np.ndarray:
    """A logistic model's probability for each row, one dot product per row:
    a matrix product may round differently."""
    return _sigmoid(np.array([float(row @ coef) for row in rows]) + bias)


# ---------------------------------------------------------------------------
# First layer and the trained ensemble
# ---------------------------------------------------------------------------


@dataclass
class FirstLayer:
    """The fitted modules. A None entry is a disabled module: it scores NaN
    for every video, which standardizes to zero."""

    text_models: tuple[Optional[TextModel], ...]  # aligned with TEXT_FIELDS
    attribute_head: Optional[tuple[np.ndarray, float]]

    def score(self, videos: Sequence[VideoRecord]) -> np.ndarray:
        """The videos' module scores (see :meth:`score_features`), the
        videos featurized and scored ``_VIDEO_BATCH`` at a time. The batches
        are spread over every available CPU by :func:`parallel.run_shares`,
        each costed by its size; a video's scores do not depend on its
        batch, so they do not depend on the CPU count. A single batch is
        scored in this process."""
        # A layer's text models are fit with one TextHyper, so they share
        # the ngram and buckets the features depend on.
        hyper = next((m.hyper for m in self.text_models if m is not None), TextHyper())
        batches = [videos[start : start + _VIDEO_BATCH] for start in range(0, len(videos), _VIDEO_BATCH)]
        scored = run_shares(
            lambda share: [self.score_features(video_features(batches[b], hyper)) for b in share],
            [len(batch) for batch in batches],
        )
        return np.concatenate([np.empty((0, len(MODULE_NAMES))), *scored])

    def score_features(self, feats: Sequence[VideoFeatures]) -> np.ndarray:
        """The videos' module scores, one row per video and one column per
        module of MODULE_NAMES; NaN where the module is disabled or the video
        lacks its modality. Each text module scores all the videos in one
        batch."""
        scores = np.full((len(feats), len(MODULE_NAMES)), np.nan)
        for m, model in enumerate(self.text_models):
            if model is not None:
                scores[:, m] = score_texts(model, [f.texts[m] for f in feats])
        scores[:, -1] = _attribute_scores(self.attribute_head, feats)
        return scores


def _attribute_heads(
    trains: Sequence[Sequence[tuple[VideoFeatures, int]]],
) -> list[Optional[tuple[np.ndarray, float]]]:
    """The attribute module fit on each training side, all the fits in one
    call of :func:`train_logistics`; None, disabled, where no video of the
    side has scored comments or those videos are of one class."""
    sides = [[(f.attributes, y) for f, y in train if f.attributes is not None] for train in trains]
    fits = iter(train_logistics([(np.vstack([a for a, _ in s]), [y for _, y in s]) for s in sides if s]))
    return [next(fits) if side else None for side in sides]


def _attribute_scores(
    head: Optional[tuple[np.ndarray, float]], feats: Sequence[VideoFeatures]
) -> np.ndarray:
    """The attribute module's score for each video; NaN where the module is
    disabled or the video has no scored comments."""
    scores = np.full(len(feats), np.nan)
    if head is not None:
        coef, bias = head
        present = [i for i, f in enumerate(feats) if f.attributes is not None]
        scores[present] = _logistic([feats[i].attributes for i in present], coef, bias)
    return scores


@dataclass(frozen=True)
class StandardizationStats:
    """Per-module score mean and population standard deviation; None for a
    module that never produced scores during training."""

    stats: tuple[Optional[tuple[float, float]], ...]  # aligned with MODULE_NAMES

    def __post_init__(self):
        for entry in self.stats:
            if entry is not None and entry[1] <= 0:
                raise ValueError("standardization std must be positive")

    def standardize(self, scores: np.ndarray) -> np.ndarray:
        """Module scores, a row per video, standardized column by column. NaN
        (an absent score, or a module without stats) becomes 0: it adds nothing."""
        mean, std = np.array([s or (np.nan, np.nan) for s in self.stats]).T
        z = (scores - mean) / std
        return np.where(np.isnan(z), 0.0, z)


@dataclass
class TrainedEnsemble:
    first_layer: FirstLayer
    stats: StandardizationStats
    stacking_coef: np.ndarray  # (4,), aligned with MODULE_NAMES
    stacking_bias: float
    seed: int
    repeats: int
    split: float
    trained_date: dt.date
    n_examples: int

    def relative_weights(self) -> dict[str, float]:
        """Percent share of each module in the stacking layer, by absolute
        coefficient on the standardized features. Sums to 100."""
        total = float(np.abs(self.stacking_coef).sum())
        if total == 0:
            raise DegenerateTrainingError("all stacking coefficients are zero")
        return {
            name: 100.0 * abs(float(c)) / total
            for name, c in zip(MODULE_NAMES, self.stacking_coef)
        }


def classify_videos(ensemble: TrainedEnsemble, videos: Sequence[VideoRecord]) -> list[Optional[float]]:
    """Conspiracy likelihood in [0, 1] for each video, the videos scored in
    batches (:meth:`FirstLayer.score`).

    Missing modalities contribute exactly zero after standardization. A video
    with all four modalities absent cannot be classified at all: its entry is
    None.
    """
    scores = ensemble.first_layer.score(videos)
    standardized = ensemble.stats.standardize(scores)
    likelihoods = _logistic(standardized, ensemble.stacking_coef, ensemble.stacking_bias).tolist()
    return [None if absent else p for absent, p in zip(np.isnan(scores).all(axis=1), likelihoods)]


def classify_video(ensemble: TrainedEnsemble, video: VideoRecord) -> float:
    """Conspiracy likelihood in [0, 1] for one video: a batch of one.
    Raises :class:`UnclassifiableVideoError` when all four modalities are
    absent."""
    (likelihood,) = classify_videos(ensemble, [video])
    if likelihood is None:
        raise UnclassifiableVideoError(video.video_id)
    return likelihood


# ---------------------------------------------------------------------------
# The repeated-split training protocol
# ---------------------------------------------------------------------------


def _split_indices(
    rng: np.random.Generator, labels: np.ndarray, split: float
) -> tuple[np.ndarray, np.ndarray]:
    n = len(labels)
    n_train = int(round(split * n))
    if n_train < 1 or n_train >= n:
        raise DegenerateTrainingError(f"split {split} leaves an empty side for n={n}")
    for _ in range(_SPLIT_RETRIES):
        perm = rng.permutation(n)
        train, held = perm[:n_train], perm[n_train:]
        if len(set(labels[train].tolist())) == 2 and len(set(labels[held].tolist())) == 2:
            return train, held
    raise DegenerateTrainingError("could not draw a split with both classes on both sides")


def _text_counts(side: Sequence[tuple[VideoFeatures, int]]) -> list[int]:
    """The number of texts of each text module on a training side."""
    return [sum(len(f.texts[m]) for f, _ in side) for m in range(len(TEXT_FIELDS))]


def _standardization(held_scores: np.ndarray) -> StandardizationStats:
    """The standardization stats of a repetition's held-out module scores:
    each module's mean and population std over its non-NaN scores; None
    for a module with fewer than two scores, or with a std of 0."""
    rep_stats: list[Optional[tuple[float, float]]] = []
    for column in held_scores.T:
        values = column[~np.isnan(column)]
        std = float(np.std(values)) if len(values) >= 2 else 0.0
        rep_stats.append((float(np.mean(values)), std) if std > 0 else None)
    return StandardizationStats(stats=tuple(rep_stats))


def _module_loops(sides: Sequence[tuple[Sequence[int], bool]]) -> list[list[tuple[int, int]]]:
    """The jobs, as (module, side), of each text module's lockstep SGD loop,
    given each training side's size per text module (its texts, or its SGD
    steps) and whether it is the refit's. Module m's loop fits m on each
    repetition's side. The refit's three jobs join the loop of the module
    whose refit job is the largest, the longest loop, so they add no global
    steps."""
    loops: list[list[tuple[int, int]]] = [
        [(m, i) for i, (_, refit) in enumerate(sides) if not refit] for m in range(len(TEXT_FIELDS))
    ]
    for i, (sizes, refit) in enumerate(sides):
        if refit:
            longest = max(range(len(TEXT_FIELDS)), key=lambda m: sizes[m])
            loops[longest] += [(m, i) for m in range(len(TEXT_FIELDS))]
    return loops


# A lockstep SGD loop's time per global step and per job step, in µs: a
# linear fit to its time per global step with 1, 2, 4 and 8 jobs (25.3,
# 34.1, 51.3 and 73.0 µs). Only their ratio steers the plan.
_GLOBAL_STEP_US, _JOB_STEP_US = 20.6, 6.7


def _share_time(tasks: Sequence[tuple[Sequence[int], bool]]) -> float:
    """A share's predicted SGD time in µs, from each of its tasks' SGD steps
    per text module and whether it is the refit: over the share's module
    loops (:func:`_module_loops`), each loop's global steps, its longest
    job's, at ``_GLOBAL_STEP_US`` plus its jobs' steps at ``_JOB_STEP_US``."""
    time = 0.0
    for loop in filter(None, _module_loops(tasks)):
        steps = [tasks[i][0][m] for m, i in loop]
        time += max(steps) * _GLOBAL_STEP_US + sum(steps) * _JOB_STEP_US
    return time


def _fit_text_modules(
    sides: Sequence[tuple[Sequence[tuple[VideoFeatures, int]], int, Optional[list]]],
    hyper: TextHyper,
    held_scores: Sequence[Optional[np.ndarray]],
) -> tuple[Optional[TextModel], ...]:
    """Fit the text modules on every training side, one lockstep SGD loop
    (:func:`train_text_classifiers`) per module, as :func:`_module_loops`
    places the jobs; the refit is the side without a held-out side. A
    repetition's model scores its held-out side into column ``m`` of its
    ``held_scores`` and is dropped; the refit's models are returned. A
    single-class or empty training slice gives a disabled module."""
    calls = _module_loops([(_text_counts(train), held is None) for train, _, held in sides])
    refit: list[Optional[TextModel]] = [None] * len(TEXT_FIELDS)
    for call in filter(None, calls):
        models = train_text_classifiers(
            (
                [(text, y) for f, y in sides[i][0] for text in f.texts[m]],
                replace(hyper, seed=sides[i][1] * 4 + m),
            )
            for m, i in call
        )
        for (m, i), model in zip(call, models):
            held = sides[i][2]
            if held is None:
                # Its embedding is a block of one array with the others'; a
                # copy lets that array go.
                refit[m] = None if model is None else replace(model, embedding=model.embedding.copy())
            elif model is not None:
                held_scores[i][:, m] = score_texts(model, [f.texts[m] for f, _ in held])
        # The loop's models are views of one embedding array: let it go
        # before the next loop makes its own.
        del models, model
    return tuple(refit)


def _train_share(
    examples: Sequence[tuple[VideoFeatures, int]],
    splits: Sequence[tuple[np.ndarray, np.ndarray]],
    seed: int,
    repeats: int,
    text_hyper: TextHyper,
    l2: float,
    share: Sequence[int],
) -> list:
    """The results of one process's share of the protocol's tasks. Task 0
    is the refit of the four modules on the full labeled set; its result is
    that first layer. Task ``rep + 1`` is repetition ``rep``, whose training
    and held-out indices are ``splits[rep]``: the modules fit on its
    training side score its held-out side, which gives the repetition's
    standardization stats (:func:`_standardization`); its result is the
    stacking layer fit on the standardized scores, as ``(coefficients,
    bias, stats)``.

    Each text module is fit for the share's repetitions at once, and the
    refit's text modules in the longest of those loops
    (:func:`_fit_text_modules`), so each process runs one lockstep SGD loop
    per module. A repetition's text models are dropped once they have
    scored, so the share holds one module's models at a time besides the
    refit's. The share's attribute heads are then fit in one call of
    :func:`train_logistics`, and after they have scored, so are its
    stacking layers."""
    sides = []  # (training side, layer seed, held-out side or None)
    for task in share:
        if task == 0:
            sides.append((examples, seed * repeats + repeats, None))
            continue
        rep = task - 1
        train_idx, held_idx = splits[rep]
        held = [examples[i] for i in held_idx]
        sides.append(([examples[i] for i in train_idx], seed * repeats + rep, held))
    held_scores = [
        None if held is None else np.full((len(held), len(MODULE_NAMES)), np.nan) for _, _, held in sides
    ]
    refit_models = _fit_text_modules(sides, text_hyper, held_scores)
    heads = _attribute_heads([train for train, _, _ in sides])
    stacking = []  # (stats, standardized held-out scores, held-out labels) per repetition
    for (_, _, held), scores, head in zip(sides, held_scores, heads):
        if held is not None:
            scores[:, -1] = _attribute_scores(head, [f for f, _ in held])
            stats = _standardization(scores)
            stacking.append((stats, stats.standardize(scores), [y for _, y in held]))
    fits = train_logistics([(z, y) for _, z, y in stacking], l2=l2)
    layers = iter((coef, bias, stats.stats) for (stats, _, _), (coef, bias) in zip(stacking, fits))
    return [
        FirstLayer(text_models=refit_models, attribute_head=head) if held is None else next(layers)
        for (_, _, held), head in zip(sides, heads)
    ]


def train_ensemble(
    labeled: Sequence[LabeledExample],
    repeats: int = 100,
    split: float = 0.6,
    seed: int = 0,
    text_hyper: TextHyper = TextHyper(),
    l2: float = 1e-3,
) -> TrainedEnsemble:
    """Run the repeated-split protocol and average the stacking models.

    Each repetition fits a stacking logistic on its standardized held-out
    scores (:func:`_train_share`). The final stacking coefficients and
    standardization stats are means over repetitions; the shipped first
    layer is refit once on the full labeled set. Each video is featurized
    once, up front; the repetitions and the refit reuse those features.
    They are independent tasks, spread over every available CPU by
    :func:`parallel.run_shares` and summed in repetition order, so the
    ensemble does not depend on the CPU count. Each process fits each text
    module for its share in one lockstep loop (:func:`_train_share`), so
    the shares are planned by the time of those loops (:func:`_share_time`):
    a task's cost is its SGD steps per text module, ``epochs`` times the
    module's texts on its training side. The refit, the costliest, always
    runs in the calling process.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if not 0.0 < split < 1.0:
        raise ValueError("split must lie in (0, 1)")
    labels = np.array([ex.label for ex in labeled])
    non_binary = sorted(set(labels.tolist()) - {0, 1})
    if non_binary:
        raise DegenerateTrainingError(f"labels must be 0 or 1, got {non_binary}")
    if len(labeled) == 0 or min(
        int((labels == 0).sum()), int((labels == 1).sum())
    ) < 10:
        raise DegenerateTrainingError("need at least 10 examples per class")

    features = video_features([ex.video for ex in labeled], text_hyper)
    examples = [(f, ex.label) for f, ex in zip(features, labeled)]
    splits = [_split_indices(np.random.default_rng([seed, rep]), labels, split) for rep in range(repeats)]
    trains = [examples] + [[examples[i] for i in train_idx] for train_idx, _ in splits]
    costs = [
        ([text_hyper.epochs * n for n in _text_counts(train)], task == 0) for task, train in enumerate(trains)
    ]
    final_layer, *repeat_results = run_shares(
        partial(_train_share, examples, splits, seed, repeats, text_hyper, l2), costs, _share_time
    )

    coefs, biases, rep_stats = zip(*repeat_results)
    final_stats = []
    for m in range(len(MODULE_NAMES)):
        entries = [s[m] for s in rep_stats if s[m] is not None]
        if entries:
            means, stds = zip(*entries)
            final_stats.append((sum(means) / len(entries), sum(stds) / len(entries)))
        else:
            final_stats.append(None)
    return TrainedEnsemble(
        first_layer=final_layer,
        stats=StandardizationStats(stats=tuple(final_stats)),
        stacking_coef=sum(coefs) / repeats,
        stacking_bias=sum(biases) / repeats,
        seed=seed,
        repeats=repeats,
        split=split,
        trained_date=dt.date.today(),
        n_examples=len(labeled),
    )


# ---------------------------------------------------------------------------
# Accuracy reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrecisionRecall:
    precision: Optional[float]  # None when nothing was predicted positive
    recall: float
    f1: Optional[float]
    threshold: float
    tp: int
    fp: int
    fn: int
    tn: int


def precision_recall(
    predictions: Sequence[float], labels: Sequence[int], threshold: float = 0.5
) -> PrecisionRecall:
    """Precision, recall and F1 at a threshold. Precision is reported as
    undefined (None), not zero, when no prediction exceeds the threshold."""
    if len(predictions) != len(labels) or not predictions:
        raise ValueError("predictions and labels must be non-empty and aligned")
    if len(set(labels)) < 2:
        raise ValueError("both classes must be present")
    tp = fp = fn = tn = 0
    for p, y in zip(predictions, labels):
        positive = p > threshold
        if positive and y == 1:
            tp += 1
        elif positive and y == 0:
            fp += 1
        elif not positive and y == 1:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    recall = tp / (tp + fn)
    f1 = None
    if precision is not None and precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    return PrecisionRecall(
        precision=precision, recall=recall, f1=f1, threshold=threshold,
        tp=tp, fp=fp, fn=fn, tn=tn,
    )
