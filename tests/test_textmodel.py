import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from recaudit import textmodel
from recaudit.errors import DegenerateTrainingError
from recaudit.textmodel import (
    TextHyper,
    build_vocabulary,
    feature_ids,
    featurize,
    loss_and_grads,
    predict_proba,
    tokenize,
    train_text_classifier,
)

from conftest import featurize_examples, forward_score

POS_DOCS = [f"hoax aliens illuminati secret {w}" for w in "one two three four five six seven eight nine ten".split()]
NEG_DOCS = [f"cooking recipe music travel {w}" for w in "one two three four five six seven eight nine ten".split()]
TOY = [(t, 1) for t in POS_DOCS] + [(t, 0) for t in NEG_DOCS]
HYPER = TextHyper(dim=8, epochs=15, min_count=1, seed=3)


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64 one byte at a time, on Python ints: the scalar reference
    the batched hashing in ``featurize`` must equal."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def featurize_one(text: str, ngram: int, buckets: int):
    """One text's tokens and n-gram buckets, hashed by the scalar reference."""
    tokens = tuple(tokenize(text))
    keys = [b"\x1f".join(t.encode("utf-8") for t in tokens[i : i + ngram])
            for i in range(len(tokens) - ngram + 1)] if ngram >= 2 else []
    return tokens, [fnv1a64(key) % buckets for key in keys]


def reference_train(examples, hyper):
    """The classifier fit alone, one SGD step per numpy pass: the
    per-model loop that ``train_text_classifiers`` must equal bit for bit."""
    docs = sorted(examples, key=lambda doc: (doc[0].text, doc[1]))
    vocab = build_vocabulary([f.tokens for f, _ in docs], hyper.min_count)
    ids, n_ids = feature_ids([f for f, _ in docs], vocab)
    ys = [label for _, label in docs]
    observed = np.unique(ids)
    id_rows = np.split(np.searchsorted(observed, ids), np.cumsum(n_ids)[:-1])
    rng = np.random.default_rng(hyper.seed)
    embedding = np.zeros((len(observed), hyper.dim))
    head = rng.normal(0.0, 1.0 / np.sqrt(hyper.dim), size=(2, hyper.dim))
    bias = np.zeros(2)
    total_steps = hyper.epochs * len(docs)
    step = 0
    for _ in range(hyper.epochs):
        for i in rng.permutation(len(docs)).tolist():
            rows = id_rows[i]
            lr = hyper.lr * (1.0 - step / total_steps)
            step += 1
            h = embedding[rows].sum(axis=0) / rows.size if rows.size else np.zeros(hyper.dim)
            z = head @ h + bias
            e = np.exp(z - max(z[0], z[1]))
            p = e / (e[0] + e[1])
            dz = p.copy()
            dz[ys[i]] -= 1.0
            dh = head.T @ dz
            head -= lr * (dz[:, None] * h)
            bias -= lr * dz
            if rows.size:
                # A row listed twice is updated twice, in order.
                np.add.at(embedding, rows, -lr / rows.size * dh)
    return textmodel.TextModel(vocab, hyper, observed, embedding, head, bias)


def train(examples, hyper):
    return train_text_classifier(featurize_examples(examples, hyper), hyper)


def text_loss_and_grads(model, examples):
    return loss_and_grads(model, featurize_examples(examples, model.hyper))


def predict(model, texts):
    return predict_proba(model, featurize(texts, model.hyper.ngram, model.hyper.buckets))


def score(model, text):
    return predict(model, [text])[0]


class TestTokenize:
    def test_lowercase_and_split_on_punctuation(self):
        assert tokenize("The Moon LANDING!") == ["the", "moon", "landing"]

    def test_empty(self):
        assert tokenize("") == []

    def test_digits_kept_and_unicode_punctuation_split(self):
        assert tokenize("wwg1wga… QAnon") == ["wwg1wga", "qanon"]

    def test_underscore_splits(self):
        assert tokenize("deep_state") == ["deep", "state"]


class TestFeaturize:
    def vocab(self, *words):
        return {w: i for i, w in enumerate(sorted(words))}

    def ids(self, text, vocab):
        ids, n_ids = feature_ids(featurize([text], 2, 64), vocab)
        assert n_ids.tolist() == [len(ids)]
        return ids.tolist()

    def test_empty_tokens(self):
        assert self.ids("", self.vocab("a")) == []

    def test_single_token_no_bigram(self):
        ids = self.ids("a", self.vocab("a", "b"))
        assert len(ids) == 1
        assert ids[0] < 2

    def test_three_tokens_three_words_two_bigrams(self):
        vocab = self.vocab("a", "b", "c")
        ids = self.ids("a b c", vocab)
        word_ids = [i for i in ids if i < 3]
        ngram_ids = [i for i in ids if i >= 3]
        assert len(word_ids) == 3 and len(ngram_ids) == 2
        assert all(3 <= i < 3 + 64 for i in ngram_ids)

    def test_oov_words_dropped_but_ngrams_hashed(self):
        vocab = self.vocab("a")
        ids = self.ids("a zzz", vocab)
        assert len(ids) == 2  # one word id, one bigram id

    def test_ngram_buckets_do_not_depend_on_the_vocabulary(self):
        (feats,) = featurize(["a b c"], 2, 64)
        assert feats.tokens == ("a", "b", "c")
        small = feature_ids([feats], self.vocab("a"))[0].tolist()
        large = feature_ids([feats], self.vocab("a", "b", "c"))[0].tolist()
        assert [i - 1 for i in small[1:]] == feats.ngram_buckets.tolist()
        assert [i - 3 for i in large[3:]] == feats.ngram_buckets.tolist()

    def test_batch_ids_are_each_texts_ids_in_turn(self):
        vocab = self.vocab("a", "b", "zzz")
        texts = ["a zzz b", "", "q", "b b a q a", "zzz"]
        ids, n_ids = feature_ids(featurize(texts, 2, 64), vocab)
        assert n_ids.tolist() == [len(self.ids(t, vocab)) for t in texts]
        assert ids.tolist() == [i for t in texts for i in self.ids(t, vocab)]

    def test_min_count_threshold(self):
        vocab = build_vocabulary([["a", "a", "b"]], min_count=2)
        assert vocab == {"a": 0}

    def test_fnv_reference_values(self):
        # FNV-1a 64-bit of empty input is the offset basis; the others are
        # the published test vectors.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8


class TestBatchFeaturize:
    TEXTS = [
        "",
        "solo",
        "the moon landing was staged",
        "café é 日本 日本 tokyo",  # multi-byte UTF-8
        "x" * 65 + " short " + "日" * 30 + " z",  # tokens longer than 64 bytes
        "a b a b a b",
        "Hoax HOAX hoax, the_deep_state!",
    ]

    @pytest.mark.parametrize("ngram", [1, 2, 3])
    @pytest.mark.parametrize("buckets", [64, 1000, 2**20])
    def test_batch_equals_the_scalar_reference(self, ngram, buckets):
        with warnings.catch_warnings():
            # A numpy overflow warning from scalar uint64 arithmetic fails.
            warnings.simplefilter("error")
            batch = featurize(self.TEXTS, ngram, buckets)
        assert [f.text for f in batch] == self.TEXTS
        for text, feats in zip(self.TEXTS, batch):
            tokens, buckets_ref = featurize_one(text, ngram, buckets)
            assert feats.tokens == tokens
            assert feats.ngram_buckets.dtype == np.int64
            assert feats.ngram_buckets.tolist() == buckets_ref

    def test_no_texts(self):
        assert featurize([], 2, 64) == []

    def test_a_token_is_interned_once(self):
        a, b = featurize(["shared word", "word shared"], 2, 64)
        assert a.tokens[0] is b.tokens[1] and a.tokens[1] is b.tokens[0]


class TestTraining:
    def test_separable_corpus_trains_to_full_accuracy(self):
        model = train(TOY, HYPER)
        predictions = [(p > 0.5) == (y == 1) for p, (_, y) in zip(predict(model, [t for t, _ in TOY]), TOY)]
        assert all(predictions)

    def test_positive_document_scores_high(self):
        model = train(TOY, HYPER)
        assert score(model, POS_DOCS[0]) > 0.9

    def test_training_lowers_the_loss_on_separable_data(self):
        # Untrained, the embedding rows and the bias are zero, so every
        # document scores 0.5 and the loss is ln 2. Each SGD run must end
        # below that, and a longer run lower still.
        losses = [
            text_loss_and_grads(train(TOY, replace(HYPER, epochs=epochs)), TOY)[0]
            for epochs in (1, 2, 4, 8, HYPER.epochs)
        ]
        assert losses[0] < math.log(2)
        for shorter, longer in zip(losses, losses[1:]):
            assert longer < shorter

    def test_single_class_raises(self):
        with pytest.raises(DegenerateTrainingError):
            train([("a doc", 1), ("other doc", 1)], HYPER)

    def test_empty_raises(self):
        with pytest.raises(DegenerateTrainingError):
            train_text_classifier([], HYPER)

    def test_input_order_does_not_change_the_model(self):
        forward = train(TOY, HYPER)
        backward = train(list(reversed(TOY)), HYPER)
        assert np.array_equal(forward.embedding, backward.embedding)
        assert np.array_equal(forward.head, backward.head)
        assert np.array_equal(forward.bias, backward.bias)

    def test_duplicated_corpus_has_identical_mean_gradients(self):
        model = train(TOY, HYPER)
        loss1, emb1, head1, bias1 = text_loss_and_grads(model, TOY)
        loss2, emb2, head2, bias2 = text_loss_and_grads(model, TOY + TOY)
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        np.testing.assert_allclose(emb1, emb2, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(head1, head2, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(bias1, bias2, rtol=1e-12, atol=1e-15)


class TestLockstep:
    """Many models fit in one lockstep loop each get the bits of the
    per-model reference loop."""

    JOBS = [
        # (examples, hyper): different example counts, epochs, learning
        # rates and seeds, so the jobs finish at different steps.
        (TOY + [("", 0), ("", 1), ("alarm alarm alarm hoax hoax", 1)], HYPER),
        (TOY[:4] + TOY[-3:], replace(HYPER, epochs=4, seed=8, lr=0.3)),
        ([("alarm", 1), ("calm", 0), ("calm calm", 0)], replace(HYPER, epochs=40, seed=1)),
        ([("a doc", 1), ("other doc", 1)], HYPER),  # one class: disabled
        (TOY[::2] + [("hoax hoax hoax hoax", 1)], replace(HYPER, epochs=1, min_count=2, seed=5)),
        ([("", 0), ("", 1)], HYPER),  # no feature id at all
        (TOY[:5] + TOY[-5:], replace(HYPER, epochs=0)),  # no step: the initial model
    ]

    def assert_models_equal(self, model, reference):
        assert model.vocab == reference.vocab and model.hyper == reference.hyper
        for name in ("observed_ids", "embedding", "head", "bias"):
            got, want = getattr(model, name), getattr(reference, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("step_elements", [1, 200, textmodel._STEP_ELEMENTS])
    def test_every_model_equals_its_reference_fit(self, monkeypatch, step_elements):
        # A bound of 1 runs every step as a chunk of its own.
        monkeypatch.setattr(textmodel, "_STEP_ELEMENTS", step_elements)
        jobs = [(featurize_examples(examples, hyper), hyper) for examples, hyper in self.JOBS]
        empty, repeated = featurize(["", "alarm alarm alarm hoax hoax"], HYPER.ngram, HYPER.buckets)
        assert feature_ids([empty], {})[0].size == 0  # a document with no feature id
        ids = feature_ids([repeated], {"alarm": 0, "hoax": 1})[0].tolist()
        assert len(set(ids)) < len(ids)  # a document that repeats ids
        models = textmodel.train_text_classifiers(jobs)
        assert len(models) == len(jobs)
        assert models[3] is None
        for model, (examples, hyper) in zip(models, jobs):
            if model is not None:
                self.assert_models_equal(model, reference_train(examples, hyper))

    def test_one_job_alone_equals_the_reference(self):
        examples = featurize_examples(TOY, HYPER)
        self.assert_models_equal(train_text_classifier(examples, HYPER), reference_train(examples, HYPER))

    def test_jobs_must_share_dim(self):
        jobs = [(featurize_examples(TOY, hyper), hyper) for hyper in (HYPER, replace(HYPER, dim=4))]
        with pytest.raises(ValueError, match="share dim"):
            textmodel.train_text_classifiers(jobs)

    def test_no_job_can_be_fit(self):
        assert textmodel.train_text_classifiers([([], HYPER)]) == [None]
        assert textmodel.train_text_classifiers([]) == []


class TestOneForwardPass:
    """Training, scoring and the loss all run ``_forward``, one call per
    lockstep step: the step's updates run no second forward pass."""

    @staticmethod
    def count_forward(monkeypatch):
        forward, calls = textmodel._forward, []

        def counted(*args):
            calls.append(len(args[3]))  # k, the documents of the call
            return forward(*args)

        monkeypatch.setattr(textmodel, "_forward", counted)
        return calls

    @pytest.mark.parametrize("step_elements", [1, 200, textmodel._STEP_ELEMENTS])
    def test_one_call_per_global_step(self, monkeypatch, step_elements):
        monkeypatch.setattr(textmodel, "_STEP_ELEMENTS", step_elements)
        jobs = [(featurize_examples(examples, hyper), hyper) for examples, hyper in TestLockstep.JOBS]
        calls = self.count_forward(monkeypatch)
        models = textmodel.train_text_classifiers(jobs)
        totals = np.array([hyper.epochs * len(ex) for model, (ex, hyper) in zip(models, jobs) if model is not None])
        # Step s takes every job with more than s steps, in one call.
        assert calls == [int((totals > s).sum()) for s in range(totals.max())]

    def test_loss_and_grads_runs_one_pass(self, monkeypatch):
        model = train(TOY, HYPER)
        calls = self.count_forward(monkeypatch)
        text_loss_and_grads(model, TOY)
        assert calls == [len(TOY)]


class TestChunks:
    """Scoring's documents and training's lockstep steps run in the chunks
    of one rule: consecutive runs of items, each as long as the bound on
    embedding values allows, or one item."""

    @staticmethod
    def assert_runs(costs, bounds, bound):
        assert bounds[0] == 0 and bounds[-1] == len(costs)
        runs = [costs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        for run, after in zip(runs, runs[1:] + [None]):
            assert run and (sum(run) <= bound or len(run) == 1)
            if after is not None:
                assert sum(run) + after[0] > bound  # the run is maximal

    @given(st.lists(st.integers(1, 300), max_size=60), st.integers(1, 1000))
    def test_runs_are_as_long_as_the_bound_allows(self, costs, bound):
        with mock.patch.object(textmodel, "_STEP_ELEMENTS", bound):
            bounds = textmodel._chunks(np.array(costs, np.int64))
        self.assert_runs(costs, bounds, bound)

    def test_lockstep_steps_follow_the_rule(self, monkeypatch):
        monkeypatch.setattr(textmodel, "_STEP_ELEMENTS", 200)
        chunks = []  # each chunk's index arrays' length, and its steps' values
        element_indices, forward = textmodel._element_indices, textmodel._forward

        def indices(*args):
            elem, tgt = element_indices(*args)
            chunks.append((len(elem), []))
            return elem, tgt

        def step(embedding, elem, tgt, sums, *rest):
            # dim values per embedding row of each document, at least one row.
            chunks[-1][1].append((sums.shape[1] - 1) * int(sums[:, -1].sum()))
            return forward(embedding, elem, tgt, sums, *rest)

        monkeypatch.setattr(textmodel, "_element_indices", indices)
        monkeypatch.setattr(textmodel, "_forward", step)
        textmodel.train_text_classifiers(
            [(featurize_examples(examples, hyper), hyper) for examples, hyper in TestLockstep.JOBS]
        )
        steps = [values for _, values in chunks]
        self.assert_runs(sum(steps, []), np.cumsum([0] + list(map(len, steps))).tolist(), 200)
        assert all(length <= 200 or len(values) == 1 for length, values in chunks)


class TestPredict:
    def test_class_probabilities_sum_to_one(self):
        # The positive probability is one softmax component; its complement
        # is the other class by construction, so it must sit inside [0, 1].
        model = train(TOY, HYPER)
        for text in ["hoax aliens", "cooking recipe", "unrelated words entirely", ""]:
            p = score(model, text)
            assert 0.0 <= p <= 1.0

    def test_empty_text_scores_from_bias_alone(self):
        model = train(TOY, HYPER)
        z = model.bias
        expected = float(np.exp(z[1] - z.max()) / np.exp(z - z.max()).sum())
        assert score(model, "") == pytest.approx(expected, abs=1e-15)

    def test_unseen_ids_count_in_the_denominator(self):
        model = train(TOY, HYPER)
        text = "hoax aliens cooking"  # the bigram "aliens cooking" never occurs in TOY
        ids = feature_ids(featurize([text], HYPER.ngram, HYPER.buckets), model.vocab)[0].tolist()
        observed = model.observed_ids.tolist()
        known = [observed.index(i) for i in ids if i in observed]
        assert 0 < len(known) < len(ids)
        known_sum = sum(model.embedding[row] for row in known)

        def positive(h):
            z = model.head @ h + model.bias
            return float(np.exp(z[1] - z.max()) / np.exp(z - z.max()).sum())

        assert score(model, text) == pytest.approx(positive(known_sum / len(ids)), rel=1e-12)
        assert score(model, text) != pytest.approx(positive(known_sum / len(known)), rel=1e-6)

    def test_token_order_invariance_with_unigrams(self):
        hyper = TextHyper(dim=8, epochs=10, ngram=1, min_count=1, seed=0)
        model = train(TOY, hyper)
        a, b = predict(model, ["hoax aliens cooking", "cooking hoax aliens"])
        assert a == pytest.approx(b, abs=1e-15)


class TestBatchPredict:
    """Scoring a batch gives every document the bits the SGD step's forward
    pass, ``_forward``, gives it alone, whatever the chunk bound. A bound of
    1 makes every document a chunk of its own."""

    @pytest.fixture(autouse=True, params=[1, 200, textmodel._STEP_ELEMENTS])
    def step_elements(self, request, monkeypatch):
        monkeypatch.setattr(textmodel, "_STEP_ELEMENTS", request.param)
        return request.param

    def assert_bitwise_equal_to_forward(self, model, texts):
        feats = featurize(texts, model.hyper.ngram, model.hyper.buckets)
        batch = predict_proba(model, feats)
        reference = np.array([forward_score(model, f) for f in feats])
        assert batch.dtype == np.float64 and batch.shape == (len(texts),)
        assert batch.tobytes() == reference.tobytes()

    def test_empty_and_unseen_documents(self):
        model = train(TOY, HYPER)
        unseen = "qwerty zxcvb plugh"  # unknown words: only its two bigrams count, and have no row
        (feats,) = featurize([unseen], HYPER.ngram, HYPER.buckets)
        rows, n_rows, n_ids = textmodel._rows(model, [feats])
        assert rows.size == 0 and n_rows.tolist() == [0] and n_ids.tolist() == [2]
        texts = ["", unseen, POS_DOCS[0], "hoax aliens cooking", NEG_DOCS[3] + " " + POS_DOCS[2]]
        self.assert_bitwise_equal_to_forward(model, texts)

    def test_one_document_alone_equals_its_place_in_a_batch(self):
        model = train(TOY, HYPER)
        texts = [t for t, _ in TOY] + ["", "hoax"]
        batch = predict(model, texts)
        alone = np.array([score(model, t) for t in texts])
        assert batch.tobytes() == alone.tobytes()

    def test_a_batch_spanning_several_chunks(self):
        model = train(TOY, replace(HYPER, dim=16))
        rng = np.random.default_rng(5)
        words = " ".join(t for t, _ in TOY).split() + ["unseen", "other"]
        texts = [" ".join(rng.choice(words, int(rng.integers(0, 60)))) for _ in range(1500)]
        texts += [" ".join(rng.choice(words, 400))] * 3
        rows = textmodel._rows(model, featurize(texts, 2, model.hyper.buckets))[0]
        assert rows.size * model.hyper.dim > 2 * textmodel._STEP_ELEMENTS
        self.assert_bitwise_equal_to_forward(model, texts)

    def test_chunk_edges(self, monkeypatch, step_elements):
        model = train(TOY, HYPER)
        unseen = "qwerty zxcvb plugh"
        longest = " ".join(["hoax"] * 9000)  # more rows than any bound holds
        texts = [longest, "", unseen, POS_DOCS[0], "", unseen, longest, NEG_DOCS[1], ""]
        feats = featurize(texts, HYPER.ngram, HYPER.buckets)
        n_rows = textmodel._rows(model, feats)[1]
        assert n_rows[0] * HYPER.dim > step_elements
        assert n_rows[[1, 2, 4, 5, 8]].tolist() == [0] * 5
        reference = np.array([forward_score(model, f) for f in feats])
        forward, chunks = textmodel._forward, []

        def counted(embedding, elem, tgt, sums, *rest):
            chunks.append((len(sums), elem.size))
            return forward(embedding, elem, tgt, sums, *rest)

        monkeypatch.setattr(textmodel, "_forward", counted)
        assert predict_proba(model, feats).tobytes() == reference.tobytes()
        assert all(k == 1 or size <= step_elements for k, size in chunks)
        starts = np.cumsum([0] + [k for k, _ in chunks]).tolist()
        assert starts[-1] == len(texts)
        # Each long document is a chunk of its own, and a document without
        # rows starts the next chunk.
        assert {0, 1, 6, 7} <= set(starts)
        if step_elements > 1:
            assert max(k for k, _ in chunks) > 1

    def test_no_documents(self):
        model = train(TOY, HYPER)
        assert predict_proba(model, []).shape == (0,)


class TestGradientCheck:
    def test_analytic_matches_central_differences(self):
        hyper = TextHyper(dim=4, epochs=2, min_count=1, seed=1)
        fixture = featurize_examples(TOY[:3] + TOY[-2:], hyper)  # 5 examples, both classes
        model = train_text_classifier(fixture, hyper)
        loss, d_emb, d_head, d_bias = loss_and_grads(model, fixture)
        eps = 1e-6

        def numeric(array, index):
            array[index] += eps
            up = loss_and_grads(model, fixture)[0]
            array[index] -= 2 * eps
            down = loss_and_grads(model, fixture)[0]
            array[index] += eps
            return (up - down) / (2 * eps)

        checks = []
        rows = min(3, model.embedding.shape[0])
        for r in range(rows):
            for c in range(model.embedding.shape[1]):
                checks.append((d_emb[r, c], numeric(model.embedding, (r, c))))
        for r in range(2):
            for c in range(model.head.shape[1]):
                checks.append((d_head[r, c], numeric(model.head, (r, c))))
        for i in range(2):
            checks.append((d_bias[i], numeric(model.bias, i)))

        for analytic, numeric_value in checks:
            scale = max(abs(numeric_value), 1e-8)
            assert abs(analytic - numeric_value) / scale < 1e-4
