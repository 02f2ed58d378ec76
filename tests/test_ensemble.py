import dataclasses
import datetime as dt
import hashlib
import os

import numpy as np
import pytest

from recaudit import ensemble as ensemble_module, parallel, store
from recaudit.corpus import Comment
from recaudit.ensemble import (
    FirstLayer,
    MODULE_NAMES,
    StandardizationStats,
    attribute_features,
    classify_video,
    classify_videos,
    logistic_loss_and_grad,
    precision_recall,
    score_texts,
    train_ensemble,
    train_logistic,
    train_logistics,
    video_features,
    _split_indices,
)
from recaudit.errors import DegenerateTrainingError, UnclassifiableVideoError
from recaudit.sources import PlatformSpec, generate_labeled_set, generate_platform
from recaudit.textmodel import TextHyper, featurize, predict_proba, train_text_classifier

from conftest import compensated_sum, featurize_examples, forward_score, make_video

HYPER = TextHyper(dim=8, epochs=15, min_count=2, seed=0)


@pytest.fixture(scope="module")
def labeled_fixture():
    platform = generate_platform(
        PlatformSpec(n_channels=25, videos_per_channel=10, base_rate=0.5, seed=13)
    )
    return generate_labeled_set(platform, 200, seed=2)


@pytest.fixture(scope="module")
def trained(labeled_fixture):
    return train_ensemble(labeled_fixture, repeats=3, split=0.6, seed=1, text_hyper=HYPER)


def _comment_model():
    """A tiny real text model whose scores for the two training phrases land
    on predictable sides of 0.5."""
    hyper = TextHyper(dim=4, epochs=20, min_count=1, seed=0)
    examples = [("alarm alarm alarm", 1), ("calm calm calm", 0)] * 3
    return train_text_classifier(featurize_examples(examples, hyper), hyper)


def text_features(model, texts):
    return featurize(texts, model.hyper.ngram, model.hyper.buckets)


def median_score(model, texts):
    (median,) = score_texts(model, [text_features(model, texts)])
    return median


class TestScoreComments:
    def test_median_via_real_model(self):
        model = _comment_model()
        loud = "alarm alarm alarm"
        quiet = "calm calm calm"
        single = median_score(model, [loud])
        assert single > 0.5
        # Median of three: the middle value, which must equal the score of
        # the repeated middle comment.
        three = median_score(model, [loud, quiet, quiet])
        assert three == median_score(model, [quiet])

    def test_even_count_is_mean_of_middle_pair(self):
        model = _comment_model()
        a = median_score(model, ["alarm alarm alarm"])
        b = median_score(model, ["calm calm calm"])
        both = median_score(model, ["alarm alarm alarm", "calm calm calm"])
        assert both == pytest.approx((a + b) / 2, abs=1e-12)

    def test_one_text_scores_exactly_its_probability(self):
        # The transcript and snippet modules have one text each; taking the
        # median over it must not move the score by a bit.
        model = _comment_model()
        for text in ("alarm alarm alarm", "calm calm calm", "alarm calm", "unseen words"):
            assert median_score(model, [text]) == predict_proba(model, text_features(model, [text]))[0]

    def test_zero_comments_is_absent(self):
        assert np.isnan(median_score(_comment_model(), []))

    def test_permutation_invariant(self):
        model = _comment_model()
        comments = ["alarm alarm alarm", "calm calm calm", "alarm calm alarm"]
        assert median_score(model, comments) == median_score(model, comments[::-1])

    def test_single_outlier_bounded_influence(self):
        model = _comment_model()
        base = ["calm calm calm"] * 3
        spiked = base + ["alarm alarm alarm"]
        calm_score = median_score(model, base)
        assert abs(median_score(model, spiked) - calm_score) < 0.5
        # Median of 3 identical values ignores one outlier entirely.
        assert median_score(model, base[:2] + ["alarm alarm alarm"]) == calm_score


def one_hot(i, value=1.0):
    v = [0.0] * 7
    v[i] = value
    return tuple(v)


class TestAttributeFeatures:
    def test_dimension_is_35(self):
        out = attribute_features([one_hot(0), one_hot(3, 0.5)])
        assert out.shape == (35,)

    def test_constant_sample_identity(self):
        a = np.array([0.2, 0.4, 0.1, 0.9, 0.0, 0.6, 0.3])
        out = attribute_features([tuple(a)] * 4)
        np.testing.assert_array_equal(out[:7], a)
        np.testing.assert_array_equal(out[7:14], np.zeros(7))
        expected_products = [a[i] * a[j] for i in range(7) for j in range(i + 1, 7)]
        np.testing.assert_array_equal(out[14:], expected_products)

    def test_two_one_hot_comments(self):
        out = attribute_features([one_hot(0), one_hot(1)])
        assert out[0] == 0.5  # toxicity median over {1, 0}
        assert out[1] == 0.5  # spam median over {0, 1}
        # Products are taken per comment, then medianed: both comments have
        # toxicity * spam = 0, so the median is 0.
        assert out[14] == 0.0

    def test_no_scored_comments_is_absent(self):
        assert attribute_features([]) is None
        assert attribute_features([None]) is None
        assert attribute_features([None, None]) is None

    @staticmethod
    def per_pair_reference(vectors):
        """Reference: one np.median call per attribute pair."""
        V = np.vstack([np.asarray(v, dtype=float) for v in vectors if v is not None])
        products = [np.median(V[:, i] * V[:, j]) for i in range(7) for j in range(i + 1, 7)]
        return np.concatenate([np.median(V, axis=0), np.std(V, axis=0), np.array(products)])

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 10])
    def test_matches_per_pair_medians_bit_for_bit(self, count):
        rng = np.random.default_rng(count)
        vectors = [tuple(rng.random(7)) for _ in range(count)]
        # None vectors (unscored comments) are mixed in and must be skipped.
        mixed = [None] + vectors[: count // 2] + [None] + vectors[count // 2 :]
        for given in (vectors, mixed):
            got = attribute_features(given)
            assert got.tobytes() == self.per_pair_reference(given).tobytes()

    def test_population_std(self):
        out = attribute_features([one_hot(0, 0.0), one_hot(0, 1.0)])
        assert out[7] == pytest.approx(0.5)  # divisor n, not n-1


def per_video_summary(vectors):
    """Reference: one video's 35-D summary by numpy on that video's own
    (comments, 7) array, the reductions along axis 0."""
    rows = [np.asarray(v, dtype=float) for v in vectors if v is not None]
    if not rows:
        return None
    V = np.vstack(rows)
    i, j = np.triu_indices(7, k=1)
    return np.concatenate([np.median(V, axis=0), np.std(V, axis=0), np.median(V[:, i] * V[:, j], axis=0)])


class TestAttributeSummaries:
    """A batch's summaries, grouped by comment count, equal each video's
    summarized alone, bit for bit."""

    @staticmethod
    def assert_each_equals_its_video_alone(videos):
        batch = ensemble_module._attribute_summaries(videos)
        assert len(batch) == len(videos)
        for vectors, got in zip(videos, batch):
            alone, reference = attribute_features(vectors), per_video_summary(vectors)
            if reference is None:
                assert got is None and alone is None
            else:
                assert got.shape == (35,)
                assert got.tobytes() == alone.tobytes() == reference.tobytes()

    def test_counts_nones_and_zero_stds(self):
        rng = np.random.default_rng(21)
        a = tuple(rng.random(7))
        constant_column = [tuple(np.r_[0.25, rng.random(6)]) for _ in range(5)]
        videos = [
            [],  # no comments
            [None, None],  # none scored
            [tuple(rng.random(7))],  # one comment
            [a] * 4,  # every std 0
            [a, None, a, None, a],  # std 0, odd count, unscored comments mixed in
            constant_column,  # one attribute's std 0
            *([tuple(rng.random(7)) for _ in range(count)] for count in (2, 3, 4, 5, 6, 7, 12, 13)),
            [None, *(tuple(rng.random(7)) for _ in range(4)), None, tuple(rng.random(7))],
            [tuple(rng.random(7)) for _ in range(3)],  # a second video of count 3
            [tuple(np.round(rng.random(7), 1)) for _ in range(6)],  # ties in the medians
        ]
        summaries = ensemble_module._attribute_summaries(videos)
        assert np.all(summaries[3][7:14] == 0.0) and summaries[5][7] == 0.0
        self.assert_each_equals_its_video_alone(videos)

    def test_batch_of_one(self):
        rng = np.random.default_rng(22)
        for count in (1, 2, 9):
            self.assert_each_equals_its_video_alone([[tuple(rng.random(7)) for _ in range(count)]])
        self.assert_each_equals_its_video_alone([[None]])

    def test_random_batch(self):
        rng = np.random.default_rng(23)
        videos = [
            [None if rng.random() < 0.1 else tuple(rng.random(7)) for _ in range(rng.integers(0, 61))]
            for _ in range(600)
        ]
        self.assert_each_equals_its_video_alone(videos)

    def test_video_features_summarizes_each_video_as_alone(self):
        rng = np.random.default_rng(24)
        videos = [
            make_video(f"v{i}", comments=[Comment(text="words", attribute_scores=tuple(rng.random(7)))
                                          for _ in range(i % 6)])
            for i in range(20)
        ]
        for video, feats in zip(videos, video_features(videos, HYPER)):
            alone = attribute_features([c.attribute_scores for c in video.comments])
            if alone is None:
                assert feats.attributes is None
            else:
                assert feats.attributes.tobytes() == alone.tobytes()

    def test_vectors_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ensemble_module._attribute_summaries([[(0.5,) * 7], [(0.5,) * 6, (0.5,) * 6]])


class TestTrainLogistic:
    def test_separable_1d_gives_positive_slope(self):
        w, b = train_logistic([[-1.0], [1.0]], [0, 1])
        assert w[0] > 0

    def test_separable_2d_perfect_training_accuracy(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal([-2, 0], 0.3, (20, 2)), rng.normal([2, 0], 0.3, (20, 2))])
        y = np.array([0] * 20 + [1] * 20)
        w, b = train_logistic(X, y)
        predictions = (X @ w + b > 0).astype(int)
        assert (predictions == y).all()

    def test_gradient_norm_below_tolerance_at_exit(self):
        rng = np.random.default_rng(5)
        X = rng.random((30, 4))
        y = (X[:, 0] > 0.5).astype(int)
        w, b = train_logistic(X, y, tol=1e-6)
        _, gw, gb = logistic_loss_and_grad(w, b, X, y, 1e-3)
        assert np.sqrt(gw @ gw + gb * gb) < 1e-6

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(10, 3))
        y = (rng.random(10) > 0.5).astype(float)
        if len(set(y)) < 2:
            y[0] = 1 - y[0]
        w = rng.normal(size=3)
        b = 0.3
        _, gw, gb = logistic_loss_and_grad(w, b, X, y, 1e-3)
        eps = 1e-6
        for j in range(3):
            delta = np.zeros(3)
            delta[j] = eps
            up = logistic_loss_and_grad(w + delta, b, X, y, 1e-3)[0]
            down = logistic_loss_and_grad(w - delta, b, X, y, 1e-3)[0]
            numeric = (up - down) / (2 * eps)
            assert abs(gw[j] - numeric) / max(abs(numeric), 1e-8) < 1e-4
        up = logistic_loss_and_grad(w, b + eps, X, y, 1e-3)[0]
        down = logistic_loss_and_grad(w, b - eps, X, y, 1e-3)[0]
        numeric = (up - down) / (2 * eps)
        assert abs(gb - numeric) / max(abs(numeric), 1e-8) < 1e-4

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateTrainingError):
            train_logistic([[1.0], [2.0]], [1, 1])

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValueError):
            train_logistic([[np.nan], [1.0]], [0, 1])


def reference_loss_and_grad(w, b, X, y, l2=1e-3):
    """One fit's loss and gradient by numpy on its own 2-D arrays: the
    reference each fit of a stacked evaluation must equal bit for bit."""
    s = 2.0 * y - 1.0
    z = X @ w + b
    loss = float(np.mean(np.logaddexp(0.0, -s * z))) + 0.5 * l2 * float(w @ w)
    r = -s / (1.0 + np.exp(s * z))
    return loss, X.T @ r / len(y) + l2 * w, float(np.mean(r))


def reference_fit(X, y, l2=1e-3, tol=1e-6):
    """One fit by the one-fit gradient descent (zero start, backtracking
    line search with step growth) on :func:`reference_loss_and_grad`; its
    weights, bias and count of accepted steps."""
    w, b, step, steps = np.zeros(X.shape[1]), 0.0, 1.0, 0
    loss, gw, gb = reference_loss_and_grad(w, b, X, y, l2)
    while True:
        gnorm_sq = float(gw @ gw) + gb * gb
        if np.sqrt(gnorm_sq) < tol:
            return w, b, steps
        while True:
            w_new, b_new = w - step * gw, b - step * gb
            loss_new, gw_new, gb_new = reference_loss_and_grad(w_new, b_new, X, y, l2)
            if loss_new <= loss - 1e-4 * step * gnorm_sq:
                break
            step *= 0.5
        w, b, loss, gw, gb = w_new, b_new, loss_new, gw_new, gb_new
        step *= 2.0
        steps += 1


def logistic_problems(k, n, d, seed):
    """k fits of shape (n, d), with centered features whose scale cycles so
    that the fits stop after very different step counts."""
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(k):
        scale = (1.0, 3.0, 0.3, 0.1)[i % 4]
        X = rng.normal(size=(n, d)) * scale
        y = (X @ rng.normal(size=d) + 0.5 * scale * np.sqrt(d) * rng.normal(size=n) > 0).astype(int)
        problems.append((X, y))
    return problems


class TestLockstepLogistic:
    """Fits run in one lockstep loop each get the bits of the one-fit
    gradient descent, and of ``train_logistic`` run alone."""

    @pytest.mark.parametrize(
        "k, n, d", [(13, 160, 4), (6, 240, 35), (1, 400, 35), (2, 1000, 35), (3, 1000, 4)]
    )
    def test_each_fit_equals_the_fit_alone(self, k, n, d):
        problems = logistic_problems(k, n, d, seed=k * n + d)
        fits = train_logistics(problems)
        steps = []
        for (X, y), (w, b) in zip(problems, fits):
            ref_w, ref_b, ref_steps = reference_fit(X, y.astype(float))
            alone_w, alone_b = train_logistic(X, y)
            assert w.tobytes() == ref_w.tobytes() == alone_w.tobytes()
            assert b == ref_b == alone_b and type(b) is float
            steps.append(ref_steps)
        if k >= 4:
            assert max(steps) >= 5 * min(steps)  # the fits stop far apart

    def test_one_class_and_converged_at_zero_fits_among_others(self):
        problems = logistic_problems(5, 160, 4, seed=31)
        A = np.random.default_rng(32).normal(size=(80, 4))
        # Every row once with each label: the gradient at zero is within tol.
        balanced = (np.vstack([A, A]), [1] * 80 + [0] * 80)
        one_class = (problems[0][0], [1] * 160)
        fits = train_logistics([problems[0], one_class, problems[1], balanced, *problems[2:]])
        assert fits[1] is None
        w, b = fits[3]
        assert reference_fit(balanced[0], np.array(balanced[1], dtype=float))[2] == 0
        assert not w.any() and b == 0.0
        for (X, y), (w, b) in zip(problems, [fits[0], fits[2], *fits[4:]]):
            ref_w, ref_b, _ = reference_fit(X, y.astype(float))
            assert w.tobytes() == ref_w.tobytes() and b == ref_b

    def test_shapes_that_differ_are_fit_apart(self):
        problems = [*logistic_problems(2, 160, 4, seed=41), *logistic_problems(2, 240, 35, seed=42)]
        mixed = [problems[0], problems[2], problems[1], problems[3]]
        for (X, y), (w, b) in zip(mixed, train_logistics(mixed)):
            alone_w, alone_b = train_logistic(X, y)
            assert w.tobytes() == alone_w.tobytes() and b == alone_b

    @pytest.mark.parametrize("k, n, d", [(1, 160, 4), (5, 240, 35), (13, 1000, 4)])
    def test_stacked_evaluation_equals_each_fit_alone(self, k, n, d):
        rng = np.random.default_rng(k + n + d)
        X = rng.normal(size=(k, n, d))
        y = (rng.random((k, n)) > 0.5).astype(float)
        w, b = rng.normal(size=(k, d)), rng.normal(size=k)
        loss, gw, gb = logistic_loss_and_grad(w, b, X, y, 1e-3)
        assert loss.shape == gb.shape == (k,) and gw.shape == (k, d)
        for i in range(k):
            ref_loss, ref_gw, ref_gb = reference_loss_and_grad(w[i], float(b[i]), X[i], y[i])
            assert (loss[i], gb[i]) == (ref_loss, ref_gb)
            assert gw[i].tobytes() == ref_gw.tobytes()

    def test_a_fit_out_of_steps_raises_for_the_batch(self):
        with pytest.raises(ArithmeticError, match="did not reach tolerance"):
            train_logistics(logistic_problems(4, 160, 4, seed=51), max_iter=20)


def scalar_sigmoid(z: float) -> float:
    """The logistic function one value at a time, by two branches: the
    reference the array ``_sigmoid`` must equal bit for bit."""
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def test_sigmoid_equals_the_scalar_reference():
    z = np.concatenate([np.random.default_rng(4).normal(0.0, 12.0, 20_000), [0.0, -0.0, 700.0, -700.0]])
    reference = np.array([scalar_sigmoid(v) for v in z.tolist()])
    assert ensemble_module._sigmoid(z).tobytes() == reference.tobytes()


def _pairs(labeled, indices):
    features = video_features([labeled[i].video for i in indices], HYPER)
    return [(f, labeled[i].label) for f, i in zip(features, indices)]


def _first_layer_by_hand(pairs, seed):
    """The first layer of one training side, each text module fit alone by
    ``train_text_classifier`` and the attribute head by ``train_logistic``
    (the fixture's sides have both classes in every module)."""
    text_models = tuple(
        train_text_classifier(
            [(text, y) for f, y in pairs for text in f.texts[m]],
            dataclasses.replace(HYPER, seed=seed * 4 + m),
        )
        for m in range(len(MODULE_NAMES) - 1)
    )
    attributes = [(f.attributes, y) for f, y in pairs if f.attributes is not None]
    head = train_logistic(np.vstack([a for a, _ in attributes]), [y for _, y in attributes])
    return FirstLayer(text_models=text_models, attribute_head=head)


class TestTrainEnsemble:
    def test_repeats_one_equals_that_repetitions_model(self, labeled_fixture):
        ensemble = train_ensemble(labeled_fixture, repeats=1, split=0.6, seed=7, text_hyper=HYPER)
        # Replay the single repetition by hand with the same derived state.
        labels = np.array([ex.label for ex in labeled_fixture])
        rng = np.random.default_rng([7, 0])
        train_idx, held_idx = _split_indices(rng, labels, 0.6)
        layer = _first_layer_by_hand(_pairs(labeled_fixture, train_idx), seed=7 * 1 + 0)
        held_scores = layer.score([labeled_fixture[i].video for i in held_idx])
        rep_stats = []
        for m in range(4):
            values = [s[m] for s in held_scores if not np.isnan(s[m])]
            rep_stats.append((float(np.mean(values)), float(np.std(values))))
        stats = StandardizationStats(stats=tuple(rep_stats))
        Z = np.vstack([stats.standardize(s) for s in held_scores])
        coef, bias = train_logistic(Z, labels[held_idx])
        np.testing.assert_array_equal(ensemble.stacking_coef, coef)
        assert ensemble.stacking_bias == bias

    def test_relative_weights_sum_to_hundred(self, trained):
        weights = trained.relative_weights()
        assert set(weights) == set(MODULE_NAMES)
        assert sum(weights.values()) == pytest.approx(100.0, abs=1e-9)

    def test_comments_coefficient_positive_on_planted_fixture(self, trained):
        by_name = dict(zip(MODULE_NAMES, trained.stacking_coef))
        assert by_name["comments"] > 0

    def test_bit_reproducible(self, labeled_fixture, trained):
        again = train_ensemble(labeled_fixture, repeats=3, split=0.6, seed=1, text_hyper=HYPER)
        np.testing.assert_array_equal(trained.stacking_coef, again.stacking_coef)
        assert trained.stacking_bias == again.stacking_bias
        np.testing.assert_array_equal(
            trained.first_layer.text_models[1].embedding, again.first_layer.text_models[1].embedding
        )
        assert trained.stats == again.stats

    def test_too_few_examples_rejected(self, labeled_fixture):
        few = [ex for ex in labeled_fixture if ex.label == 1][:9] + [
            ex for ex in labeled_fixture if ex.label == 0
        ][:20]
        with pytest.raises(DegenerateTrainingError):
            train_ensemble(few, repeats=1, split=0.6, seed=0, text_hyper=HYPER)

    def test_standardization_invariant_on_producing_data(self, labeled_fixture):
        # With one repetition the persisted stats are exactly the held-out
        # side's; applying them back must give mean 0 and unit variance.
        labels = np.array([ex.label for ex in labeled_fixture])
        rng = np.random.default_rng([7, 0])
        train_idx, held_idx = _split_indices(rng, labels, 0.6)
        layer = _first_layer_by_hand(_pairs(labeled_fixture, train_idx), seed=7)
        held_scores = layer.score([labeled_fixture[i].video for i in held_idx])
        for m in range(4):
            values = np.array(
                [s[m] for s in held_scores if not np.isnan(s[m])]
            )
            if len(values) < 2 or values.std() == 0:
                continue
            z = (values - values.mean()) / values.std()
            assert abs(z.mean()) < 1e-9
            assert abs(z.var() - 1.0) < 1e-9


# sha256 of the bundle saved below. Any change to the training arithmetic,
# down to the order of two additions, changes it.
GOLDEN_BUNDLE_SHA256 = "1af297ef7097f2ed98c27b1e10ff5a6fe288868b2a0c9df331989328a1b32aa5"


def test_golden_ensemble_bundle(tmp_path):
    """The criterion-4 shape at 100 labels and 2 repeats, date pinned, saves
    to exactly the recorded bytes."""
    platform = generate_platform(
        PlatformSpec(n_channels=50, videos_per_channel=10, base_rate=0.5,
                     comments_per_video=4, seed=404)
    )
    labeled = generate_labeled_set(platform, 100, seed=11)
    ensemble = train_ensemble(
        labeled, repeats=2, split=0.6, seed=17, text_hyper=TextHyper(dim=8, epochs=8)
    )
    path = tmp_path / "ensemble.bin"
    store.save_ensemble(path, dataclasses.replace(ensemble, trained_date=dt.date(2000, 1, 1)))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_BUNDLE_SHA256


def test_compensated_sum_is_neumaiers():
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0 != sum([1e100, 1.0, -1e100])
    assert compensated_sum([0.1] * 10) == 1.0 != sum([0.1] * 10)
    assert compensated_sum([1, 2, 3]) == 6 and type(compensated_sum([1, 2])) is int
    assert compensated_sum([np.ones(2), np.ones(2)]).tolist() == [2.0, 2.0]
    assert compensated_sum([]) == 0


def test_golden_bundle_under_a_compensated_builtin_sum(tmp_path, compensated_builtin_sum):
    """CPython 3.12 adds floats in the built-in ``sum`` with compensation.
    With it, the golden bundle's platform, labels and ensemble (helper
    processes included) still give the golden bytes."""
    test_golden_ensemble_bundle(tmp_path)
    # The lexicon scores alone are many float sums.
    assert compensated_builtin_sum.count(True) > 1000


# ---------------------------------------------------------------------------
# The protocol's tasks on several processes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_labeled():
    platform = generate_platform(
        PlatformSpec(n_channels=12, videos_per_channel=10, base_rate=0.5,
                     comments_per_video=2, seed=5)
    )
    return generate_labeled_set(platform, 40, seed=6)


SMALL_HYPER = TextHyper(dim=4, epochs=3, min_count=1, seed=0)


def _bundle_bytes(ensemble, path):
    store.save_ensemble(path, dataclasses.replace(ensemble, trained_date=dt.date(2000, 1, 1)))
    return path.read_bytes()


def test_bundle_bytes_do_not_depend_on_the_cpu_count(small_labeled, tmp_path, monkeypatch):
    bundles = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        ensemble = train_ensemble(small_labeled, repeats=5, seed=3, text_hyper=SMALL_HYPER)
        bundles.append(_bundle_bytes(ensemble, tmp_path / f"{cpus}.bin"))
    assert bundles[0] == bundles[1] == bundles[2]


def test_helper_exception_surfaces_with_its_type(small_labeled, monkeypatch):
    main_pid = os.getpid()
    real = ensemble_module.train_logistics

    def failing_in_helpers(problems, **kwargs):
        stacking = any(np.shape(features)[1] == len(MODULE_NAMES) for features, _ in problems)
        if os.getpid() != main_pid and stacking:
            raise ArithmeticError("stacking fit failed")
        return real(problems, **kwargs)

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    monkeypatch.setattr(ensemble_module, "train_logistics", failing_in_helpers)
    with pytest.raises(ArithmeticError, match="stacking fit failed") as info:
        train_ensemble(small_labeled, repeats=3, seed=3, text_hyper=SMALL_HYPER)
    assert any("raised in helper process" in note for note in info.value.__notes__)


def test_exception_in_the_main_share_stops_the_helpers(small_labeled, monkeypatch):
    main_pid = os.getpid()
    real = ensemble_module._train_share

    def failing_in_main(*args):
        if os.getpid() == main_pid:
            raise ArithmeticError("refit failed")
        return real(*args)

    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    monkeypatch.setattr(ensemble_module, "_train_share", failing_in_main)
    with pytest.raises(ArithmeticError, match="refit failed"):
        train_ensemble(small_labeled, repeats=4, seed=3, text_hyper=SMALL_HYPER)
    # The autouse leak check then finds no helper left running.


class TestFixedAssignment:
    def test_costliest_first_to_the_least_loaded(self):
        # The refit (cost 10) and repetitions (cost 6) on two processes.
        assert parallel.assign([10] + [6] * 5, 2) == [[0, 3, 5], [1, 2, 4]]
        assert parallel.assign([10] + [6] * 4, 3) == [[0], [1, 3], [2, 4]]
        assert parallel.assign([6, 10, 6], 1) == [[1, 0, 2]]

    def test_results_in_task_order_with_the_first_share_in_this_process(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        results = parallel.run_shares(lambda share: [(i, os.getpid()) for i in share], [10, 6, 6, 6, 6])
        assert [i for i, _ in results] == list(range(5))
        pids = [pid for _, pid in results]
        assert pids[0] == pids[3] == os.getpid()
        assert pids[1] == pids[2] == pids[4] != os.getpid()

    def test_same_map_on_every_call_and_the_refit_stays_here(
        self, small_labeled, tmp_path, monkeypatch
    ):
        log = tmp_path / "tasks.log"
        real = ensemble_module._train_share

        def logged(*args):
            for index in args[-1]:  # the share's task indices; task 0 is the refit
                task = "refit" if index == 0 else f"fit{index}"
                with open(log, "a") as fh:
                    fh.write(f"{task} {os.getpid()}\n")
            return real(*args)

        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        monkeypatch.setattr(ensemble_module, "_train_share", logged)
        maps = []
        for _ in range(2):
            log.unlink(missing_ok=True)
            train_ensemble(small_labeled, repeats=4, seed=3, text_hyper=SMALL_HYPER)
            runs = dict(line.split() for line in log.read_text().splitlines())
            assert runs["refit"] == str(os.getpid())
            maps.append({task: pid == str(os.getpid()) for task, pid in runs.items()})
        assert maps[0] == maps[1]
        assert set(maps[0].values()) == {True, False}  # both processes did work


class TestSharePlan:
    """The protocol's tasks are planned by the time of the lockstep loops a
    share runs (``_share_time``), not by the sum of their sizes."""

    # Each task's SGD steps per text module (transcript, snippet, comments)
    # and whether it is the refit, as train_ensemble computes them for the
    # benchmark's inputs at seed 11, 8 epochs each: the `audit` workload's
    # 400 labels with 3 repetitions, and the `train` workload's with 12.
    AUDIT = [
        ([2896, 3200, 19416], True),
        ([1744, 1920, 11664], False),
        ([1720, 1920, 11560], False),
        ([1704, 1920, 11656], False),
    ]
    TRAIN = [
        ([2832, 3200, 13048], True),
        ([1680, 1920, 7776], False), ([1680, 1920, 7736], False), ([1728, 1920, 7936], False),
        ([1720, 1920, 7896], False), ([1736, 1920, 7848], False), ([1696, 1920, 8064], False),
        ([1720, 1920, 7760], False), ([1736, 1920, 7648], False), ([1696, 1920, 7664], False),
        ([1744, 1920, 7736], False), ([1704, 1920, 7784], False), ([1680, 1920, 7896], False),
    ]

    def test_the_audit_shape_runs_the_refit_alone_in_this_process(self):
        assert parallel.assign(self.AUDIT, 2, ensemble_module._share_time) == [[0], [1, 3, 2]]
        # By size alone, the refit would take a repetition along.
        assert parallel.assign([400] + [240] * 3, 2) == [[0, 3], [1, 2]]

    def test_the_train_shape_runs_the_refit_with_five_repetitions(self):
        shares = parallel.assign(self.TRAIN, 2, ensemble_module._share_time)
        assert shares == [[0, 5, 11, 10, 2, 9], [6, 3, 4, 12, 7, 1, 8]]

    def test_a_share_costs_its_loops(self):
        G, J = ensemble_module._GLOBAL_STEP_US, ensemble_module._JOB_STEP_US
        refit, rep = ([10, 20, 30], True), ([6, 12, 18], False)
        # The refit's three jobs run in the comments loop, its longest.
        assert ensemble_module._share_time([refit]) == pytest.approx(30 * G + 60 * J)
        assert ensemble_module._share_time([rep]) == pytest.approx(36 * G + 36 * J)
        # A repetition beside it adds the global steps of its other two
        # loops, and only job steps to the comments loop.
        together = (6 * G + 6 * J) + (12 * G + 12 * J) + (30 * G + 78 * J)
        assert ensemble_module._share_time([refit, rep]) == pytest.approx(together)
        assert ensemble_module._share_time([rep, refit]) == pytest.approx(together)

    def test_train_ensemble_costs_each_task_by_its_steps(self, small_labeled, monkeypatch):
        plans, assign = [], parallel.assign
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "assign", lambda *args: plans.append(args[::2]) or assign(*args))
        train_ensemble(small_labeled, repeats=3, seed=3, text_hyper=SMALL_HYPER)
        ((costs, cost),) = plans
        assert cost is ensemble_module._share_time
        labels = np.array([ex.label for ex in small_labeled])
        texts = np.array([[len(t) for t in ex.video.texts()] for ex in small_labeled])
        sides = [np.arange(len(labels))] + [
            _split_indices(np.random.default_rng([3, rep]), labels, 0.6)[0] for rep in range(3)
        ]
        assert costs == [
            ((SMALL_HYPER.epochs * texts[side].sum(axis=0)).tolist(), i == 0) for i, side in enumerate(sides)
        ]


class TestScoringShares:
    """``FirstLayer.score`` spreads its batches of videos over every CPU;
    a video's likelihood does not depend on its batch or its process."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_likelihoods_do_not_depend_on_the_cpu_count(self, trained, labeled_fixture, cpus, monkeypatch):
        videos = [ex.video for ex in labeled_fixture[:53]]  # three batches of 16, then one of 5
        helpers, start = [], parallel._start_helper
        monkeypatch.setattr(ensemble_module, "_VIDEO_BATCH", 16)
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        monkeypatch.setattr(parallel, "_start_helper", lambda *args: helpers.append(args[1]) or start(*args))
        likelihoods = classify_videos(trained, videos)
        assert len(helpers) == cpus - 1
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        assert likelihoods == classify_videos(trained, videos)
        assert likelihoods == [classify_video(trained, video) for video in videos]  # batches of one

    def test_a_single_batch_starts_no_helper(self, trained, labeled_fixture, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_start_helper", None)  # a fork would fail
        batch = [ex.video for ex in labeled_fixture[: ensemble_module._VIDEO_BATCH]]
        assert len(classify_videos(trained, batch)) == len(batch)
        assert 0.0 <= classify_video(trained, labeled_fixture[0].video) <= 1.0
        assert classify_videos(trained, []) == []


class TestShareLayout:
    """A share fits each text module's repetition jobs in one lockstep loop,
    and the refit's three jobs in the loop of the module whose refit job has
    the most texts; no loop holds repetition jobs of two modules."""

    REPEATS, SEED = 4, 3

    # The fixture's videos have 36 transcripts, 40 snippets and 93 comments;
    # without the comments, the snippets have the most texts.
    @pytest.fixture(scope="class", params=[2, 1], ids=["comments longest", "snippets longest"])
    def examples(self, request, small_labeled):
        features = video_features([ex.video for ex in small_labeled], SMALL_HYPER)
        if request.param == 1:
            features = [dataclasses.replace(f, texts=(*f.texts[:2], ())) for f in features]
        examples = [(f, ex.label) for f, ex in zip(features, small_labeled)]
        texts = [sum(len(f.texts[m]) for f, _ in examples) for m in range(3)]
        assert max(texts) == texts[request.param] > max(texts[:request.param] + texts[request.param + 1 :])
        return examples

    def run_share(self, examples, share, monkeypatch):
        """The share's results, and each train_text_classifiers call's jobs
        as (module, task, number of texts); task 0 is the refit."""
        calls, real = [], ensemble_module.train_text_classifiers

        def logged(jobs):
            jobs = list(jobs)
            calls.append([(h.seed % 4, h.seed // 4 - self.SEED * self.REPEATS + 1, len(ex)) for ex, h in jobs])
            return real(jobs)

        monkeypatch.setattr(ensemble_module, "train_text_classifiers", logged)
        labels = np.array([y for _, y in examples])
        splits = [_split_indices(np.random.default_rng([self.SEED, rep]), labels, 0.6) for rep in range(self.REPEATS)]
        results = ensemble_module._train_share(examples, splits, self.SEED, self.REPEATS, SMALL_HYPER, 1e-3, share)
        # The refit's layer seed is SEED * REPEATS + REPEATS: task REPEATS + 1 above.
        calls = [[(m, 0 if task == self.REPEATS + 1 else task, n) for m, task, n in call] for call in calls]
        return results, calls

    @pytest.mark.parametrize("share", [[0, 1, 3], [2, 4], [0]], ids=["refit and repetitions", "repetitions", "refit"])
    def test_the_refit_rides_in_the_longest_loop(self, examples, share, monkeypatch):
        _, calls = self.run_share(examples, share, monkeypatch)
        texts = [sum(len(f.texts[m]) for f, _ in examples) for m in range(3)]
        longest = texts.index(max(texts))
        reps = [task for task in share if task]
        for call in calls:
            modules = {m for m, task, _ in call if task}
            assert len(modules) <= 1  # no call holds two modules' repetition jobs
            assert sorted(task for m, task, _ in call if task) == sorted(reps) * bool(modules)
        assert sorted(m for call in calls for m, task, _ in call if task) == sorted(m for m in range(3) for _ in reps)
        refit_calls = [call for call in calls if any(task == 0 for _, task, _ in call)]
        if 0 in share:
            (call,) = refit_calls
            assert sorted((m, n) for m, task, n in call if task == 0) == list(enumerate(texts))
            assert all(m == longest for m, task, _ in call if task)
        else:
            assert refit_calls == []
        assert len(calls) == (3 if reps else 1)

    def test_results_do_not_depend_on_the_share(self, examples, monkeypatch):
        together, _ = self.run_share(examples, [0, 1, 3], monkeypatch)
        (refit,), _ = self.run_share(examples, [0], monkeypatch)
        alone, _ = self.run_share(examples, [1, 3], monkeypatch)
        for a, b in zip(together[0].text_models, refit.text_models):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.embedding.tobytes() == b.embedding.tobytes() and a.head.tobytes() == b.head.tobytes()
                assert a.bias.tobytes() == b.bias.tobytes()
        for (coef_a, bias_a, stats_a), (coef_b, bias_b, stats_b) in zip(together[1:], alone):
            assert coef_a.tobytes() == coef_b.tobytes() and bias_a == bias_b and stats_a == stats_b


class TestClassifyVideo:
    def test_output_in_unit_interval(self, trained, labeled_fixture):
        for ex in labeled_fixture[:20]:
            assert 0.0 <= classify_video(trained, ex.video) <= 1.0

    def test_planted_fixture_mostly_separated(self, trained, labeled_fixture):
        hits = 0
        for ex in labeled_fixture:
            like = classify_video(trained, ex.video)
            hits += (like > 0.5) == (ex.label == 1)
        assert hits / len(labeled_fixture) >= 0.9

    def test_absent_transcript_equals_mean_substitution(self, trained, labeled_fixture):
        video = next(ex.video for ex in labeled_fixture if ex.video.transcript is not None)
        stripped = make_video(
            video.video_id,
            channel_id=video.channel_id,
            title=video.title,
            description=video.description,
            tags=video.tags,
            transcript=None,
            comments=video.comments,
        )
        (scores,) = trained.first_layer.score([video])
        mean_t = trained.stats.stats[0][0]
        forced = np.array([mean_t, *scores[1:]])
        z = trained.stats.standardize(forced)
        expected = 1.0 / (
            1.0 + np.exp(-(z @ trained.stacking_coef + trained.stacking_bias))
        )
        assert classify_video(trained, stripped) == pytest.approx(expected, abs=1e-12)

    def test_all_modalities_absent_is_unclassifiable(self, trained):
        bare = make_video("empty", transcript=None, comments=[])
        # The snippet modality always exists, so force its model away.
        import dataclasses

        hollow_layer = dataclasses.replace(trained.first_layer, text_models=(None, None, None),
                                           attribute_head=None)
        hollow = dataclasses.replace(trained, first_layer=hollow_layer)
        with pytest.raises(UnclassifiableVideoError):
            classify_video(hollow, bare)

    def test_monotone_in_positively_weighted_scores(self, trained):
        base = np.array([0.5, 0.5, 0.5, 0.5])
        z0 = trained.stats.standardize(base)
        logit = float(z0 @ trained.stacking_coef + trained.stacking_bias)
        for m, name in enumerate(MODULE_NAMES):
            if trained.stacking_coef[m] <= 0:
                continue
            bumped = base.copy()
            bumped[m] += 0.05
            z1 = trained.stats.standardize(bumped)
            assert float(z1 @ trained.stacking_coef + trained.stacking_bias) > logit


def _forward_scores(layer, video):
    """One video's module scores, each text scored alone by the SGD step's
    forward pass (``forward_score``) and its median taken by ``np.median``."""
    (feats,) = video_features([video], HYPER)
    scores = []
    for model, texts in zip(layer.text_models, feats.texts):
        if model is None or not texts:
            scores.append(np.nan)
            continue
        scores.append(float(np.median([forward_score(model, f) for f in texts])))
    attributes = np.nan
    if layer.attribute_head is not None and feats.attributes is not None:
        coef, bias = layer.attribute_head
        attributes = scalar_sigmoid(float(feats.attributes @ coef) + bias)
    return (*scores, attributes)


def _stripped(video, **changes):
    fields = dict(channel_id=video.channel_id, title=video.title, description=video.description,
                  tags=video.tags, transcript=video.transcript, comments=video.comments)
    return make_video(video.video_id + "-stripped", **{**fields, **changes})


class TestBatchFirstLayer:
    """Scoring many videos in one batch gives each the bits the per-document
    pass gives it alone."""

    @pytest.fixture(scope="class")
    def videos(self, labeled_fixture):
        videos = [ex.video for ex in labeled_fixture]
        with_transcript = next(v for v in videos if v.transcript is not None)
        with_comments = next(v for v in videos if len(v.comments) >= 3)
        return videos + [
            _stripped(with_transcript, transcript=None),  # no transcript
            _stripped(with_comments, comments=()),  # comments disabled
            _stripped(with_comments, comments=with_comments.comments[:2]),  # even count
            make_video("bare", transcript=None, comments=[]),  # the snippet alone
        ]

    def test_module_scores_equal_the_per_document_pass(self, trained, videos):
        assert len({len(v.comments) % 2 for v in videos}) == 2  # odd and even medians
        assert len(videos) > ensemble_module._VIDEO_BATCH  # more than one batch
        batch = trained.first_layer.score(videos)
        reference = np.array([_forward_scores(trained.first_layer, v) for v in videos])
        assert batch.shape == (len(videos), len(MODULE_NAMES))
        assert batch.tobytes() == reference.tobytes()
        assert np.isnan(batch[-3][2]) and np.isnan(batch[-3][3])  # comments disabled
        assert np.isnan(batch[-4][0])

    def test_classify_videos_equals_one_video_at_a_time(self, trained, videos):
        assert classify_videos(trained, videos) == [classify_video(trained, v) for v in videos]

    def test_all_absent_video_is_none_in_a_batch_and_raises_alone(self, trained, videos):
        # Without text models only the attribute head scores, so a video
        # with no comments has every modality absent.
        hollow_layer = dataclasses.replace(trained.first_layer, text_models=(None, None, None))
        hollow = dataclasses.replace(trained, first_layer=hollow_layer)
        bare, with_comments = videos[-1], videos[0]
        assert with_comments.comments
        likelihoods = classify_videos(hollow, [with_comments, bare, with_comments])
        assert likelihoods[1] is None and likelihoods[0] == likelihoods[2] is not None
        with pytest.raises(UnclassifiableVideoError):
            classify_video(hollow, bare)

    def test_no_videos(self, trained):
        assert trained.first_layer.score([]).shape == (0, len(MODULE_NAMES))
        assert classify_videos(trained, []) == []


class TestPrecisionRecall:
    def test_all_correct(self):
        pr = precision_recall([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0], 0.5)
        assert (pr.precision, pr.recall, pr.f1) == (1.0, 1.0, 1.0)

    def test_hand_confusion_matrix(self):
        pr = precision_recall([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0], 0.5)
        assert pr.precision == 0.5
        assert pr.recall == 0.5
        assert pr.f1 == 0.5

    def test_reported_pair_gives_f1_near_082(self):
        # Harmonic-mean cross-check on a synthetic confusion matrix with
        # precision 0.78 and recall 0.86: tp=3354, fp=946, fn=546.
        tp, fp, fn = 3354, 946, 546
        preds = [0.9] * (tp + fp) + [0.1] * (fn + 100)
        labels = [1] * tp + [0] * fp + [1] * fn + [0] * 100
        pr = precision_recall(preds, labels, 0.5)
        assert pr.precision == pytest.approx(0.78, abs=1e-9)
        assert pr.recall == pytest.approx(0.86, abs=1e-9)
        assert pr.f1 == pytest.approx(0.818, abs=0.001)
        assert abs(pr.f1 - 0.82) <= 0.005

    def test_zero_predicted_positives_has_undefined_precision(self):
        pr = precision_recall([0.1, 0.2, 0.3], [1, 0, 1], 0.5)
        assert pr.precision is None
        assert pr.f1 is None
        assert pr.recall == 0.0

    def test_f1_harmonic_identity_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tp, fp, fn, tn = (int(x) for x in rng.integers(1, 40, size=4))
            preds = [0.9] * (tp + fp) + [0.1] * (fn + tn)
            labels = [1] * tp + [0] * fp + [1] * fn + [0] * tn
            pr = precision_recall(preds, labels, 0.5)
            expected = 2 * pr.precision * pr.recall / (pr.precision + pr.recall)
            assert pr.f1 == pytest.approx(expected, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            precision_recall([], [], 0.5)
        with pytest.raises(ValueError):
            precision_recall([0.5, 0.5], [1, 1], 0.5)
