"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Everything here is oracle- or property-based on the deterministic simulator;
no external data or network is touched.
"""

import datetime as dt
import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from recaudit.cli import main
from recaudit.community import ChannelGraph, Partition, cluster_channels, modularity
from recaudit.crawler import daily_harvest
from recaudit.ensemble import (
    attribute_features,
    classify_video,
    logistic_loss_and_grad,
    precision_recall,
    train_ensemble,
)
from recaudit.metrics import (
    Period,
    clopper_pearson,
    filter_bubble_matrix,
    raw_frequency,
    weighted_frequency,
)
from recaudit.sources import PlatformSpec, generate_labeled_set, generate_platform
from recaudit.textmodel import TextHyper, loss_and_grads, train_text_classifier
from recaudit.topics import nmf

from conftest import edge_columns, featurize_examples, make_edge


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. Ground-truth recovery
# ---------------------------------------------------------------------------


def test_criterion_1_ground_truth_recovery():
    started = time.monotonic()
    platform = generate_platform(
        PlatformSpec(
            n_channels=50,
            videos_per_channel=20,  # 1000 videos
            base_rate=0.2,  # q defaults to p: every slot is conspiratorial w.p. 0.2
            comments_per_video=5,
            seed=101,
        )
    )
    labeled = generate_labeled_set(platform, 300, seed=7)
    hyper = TextHyper(dim=8, epochs=10, min_count=2, seed=0)
    ensemble = train_ensemble(labeled, repeats=10, split=0.6, seed=3, text_hyper=hyper)

    likelihoods = {v.video_id: classify_video(ensemble, v) for v in platform.videos}
    seeds = platform.channel_ids()
    day0 = dt.date(2019, 8, 1)
    raw_values = []
    for i in range(10):
        snapshot = daily_harvest(platform, seeds, day0 + dt.timedelta(days=i), k=20, retain=1000).snapshot
        raw_values.append(raw_frequency(snapshot.edges, likelihoods, 0.5))
    estimate = sum(raw_values) / len(raw_values)

    # Analytic expectation of the per-edge contribution: a slot draws a
    # conspiratorial video with probability p and picks uniformly inside the
    # class, so E[raw] = p * mean_consp(L*1[L>t]) + (1-p) * mean_other(L*1[L>t]).
    def class_mean(label):
        values = [
            like if like > 0.5 else 0.0
            for vid, like in likelihoods.items()
            if platform.ground_truth[vid] == label
        ]
        return sum(values) / len(values)

    expected = 0.2 * class_mean(1) + 0.8 * class_mean(0)
    elapsed = time.monotonic() - started

    # Guard against a degenerate regime where the match is vacuous: the
    # classifier must actually separate the planted classes.
    consp_mean = np.mean([l for v, l in likelihoods.items() if platform.ground_truth[v] == 1])
    assert consp_mean > 0.8

    _report(
        "1 ground-truth recovery",
        abs(estimate - expected) <= 0.03 and elapsed < 300,
        f"estimate {estimate:.4f} vs analytic {expected:.4f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. Filter-bubble oracle
# ---------------------------------------------------------------------------


def test_criterion_2_filter_bubble_oracle():
    platform = generate_platform(
        PlatformSpec(
            n_channels=40,
            videos_per_channel=20,  # 800 videos
            base_rate=0.1,
            homophily=0.8,
            conspiratorial_share=0.5,  # stock split so both source pools are large
            comments_per_video=1,
            seed=202,
        )
    )
    truth_likelihoods = {vid: float(lab) for vid, lab in platform.ground_truth.items()}
    consp_sources = [v for v, lab in sorted(platform.ground_truth.items()) if lab == 1][:300]
    other_sources = [v for v, lab in sorted(platform.ground_truth.items()) if lab == 0][:300]

    day = dt.date(2019, 9, 1)
    edges = edge_columns(
        make_edge(src, rec, rank, day)
        for src in consp_sources + other_sources
        for rank, rec in enumerate(platform.fetch_watch_next(src, 20), start=1)
    )

    matrix = filter_bubble_matrix(
        edges, truth_likelihoods, [Period(day, day)], source_bins=10, threshold=0.5
    )
    cells = matrix.cells[0]
    counts = matrix.edge_counts[0]
    bottom, top = cells[0], cells[-1]
    populated = [c for c in cells if c is not None]

    assert counts[0] >= 5000 and counts[-1] >= 5000
    monotone = all(a <= b for a, b in zip(populated, populated[1:]))
    _report(
        "2 filter-bubble oracle",
        abs(top - 0.8) <= 0.05 and abs(bottom - 0.1) <= 0.05 and monotone,
        f"top bin {top:.3f} (target 0.8), bottom bin {bottom:.3f} (target 0.1)",
    )


# ---------------------------------------------------------------------------
# 3. Clopper-Pearson against an independent oracle; empirical coverage
# ---------------------------------------------------------------------------


def _oracle_interval(k: int, n: int, alpha: float) -> tuple[float, float]:
    """Bisection on exact binomial tail sums (the incomplete beta evaluated
    through its binomial identity), independent of the shipped continued
    fraction."""
    log_comb = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in range(n + 1)])
    idx = np.arange(n + 1)

    def tail_geq(j, p):  # P(X >= j)
        terms = log_comb[j:] + idx[j:] * math.log(p) + (n - idx[j:]) * math.log1p(-p)
        return float(np.exp(terms).sum())

    def bisect(fn, target):
        lo, hi = 0.0, 1.0
        for _ in range(45):
            mid = 0.5 * (lo + hi)
            if fn(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    low = 0.0 if k == 0 else bisect(lambda p: tail_geq(k, p), alpha / 2)
    high = 1.0 if k == n else bisect(lambda p: tail_geq(k + 1, p), 1 - alpha / 2)
    return low, high


def test_criterion_3_clopper_pearson():
    worst = 0.0
    for n in range(1, 101):
        for k in range(n + 1):
            low, high = clopper_pearson(k, n, 0.05)
            olow, ohigh = _oracle_interval(k, n, 0.05)
            worst = max(worst, abs(low - olow), abs(high - ohigh))
    oracle_ok = worst <= 1e-6

    rng = np.random.default_rng(33)
    draws = rng.binomial(50, 0.3, size=10_000)
    intervals = {k: clopper_pearson(int(k), 50, 0.05) for k in np.unique(draws)}
    hits = sum(1 for k in draws if intervals[int(k)][0] <= 0.3 <= intervals[int(k)][1])
    coverage_ok = hits / 10_000 >= 0.94

    _report(
        "3 Clopper-Pearson",
        oracle_ok and coverage_ok,
        f"max oracle gap {worst:.2e}, coverage {hits / 10_000:.4f}",
    )


# ---------------------------------------------------------------------------
# 4. Classifier protocol at the full 100-repeat scale
# ---------------------------------------------------------------------------


def test_criterion_4_classifier_protocol():
    platform = generate_platform(
        PlatformSpec(
            n_channels=50,
            videos_per_channel=10,
            base_rate=0.5,
            comments_per_video=4,
            seed=404,
        )
    )
    labeled = generate_labeled_set(platform, 400, seed=11)
    hyper = TextHyper(dim=8, epochs=8, min_count=2, seed=0)
    ensemble = train_ensemble(labeled, repeats=100, split=0.6, seed=17, text_hyper=hyper)

    predictions = [classify_video(ensemble, ex.video) for ex in labeled]
    labels = [ex.label for ex in labeled]
    pr = precision_recall(predictions, labels, 0.5)

    a = np.array([0.2, 0.4, 0.1, 0.9, 0.0, 0.6, 0.3])
    feats = attribute_features([tuple(a)] * 5)
    layout_ok = (
        feats.shape == (35,)
        and np.array_equal(feats[:7], a)
        and np.array_equal(feats[7:14], np.zeros(7))
        and np.array_equal(
            feats[14:], [a[i] * a[j] for i in range(7) for j in range(i + 1, 7)]
        )
    )

    _report(
        "4 classifier protocol",
        pr.precision is not None and pr.precision >= 0.9 and pr.recall >= 0.9 and layout_ok,
        f"precision {pr.precision:.3f}, recall {pr.recall:.3f}, 35-D layout exact: {layout_ok}",
    )


# ---------------------------------------------------------------------------
# 5. Numerical kernels
# ---------------------------------------------------------------------------


def test_criterion_5_numerical_kernels():
    # Logistic gradient vs central differences.
    rng = np.random.default_rng(55)
    X = rng.normal(size=(10, 3))
    y = np.array([0, 1] * 5, dtype=float)
    w, b = rng.normal(size=3), 0.2
    _, gw, gb = logistic_loss_and_grad(w, b, X, y, 1e-3)
    eps = 1e-6
    logistic_ok = True
    for j in range(3):
        d = np.zeros(3)
        d[j] = eps
        numeric = (
            logistic_loss_and_grad(w + d, b, X, y, 1e-3)[0]
            - logistic_loss_and_grad(w - d, b, X, y, 1e-3)[0]
        ) / (2 * eps)
        logistic_ok &= abs(gw[j] - numeric) / max(abs(numeric), 1e-8) < 1e-4
    numeric = (
        logistic_loss_and_grad(w, b + eps, X, y, 1e-3)[0]
        - logistic_loss_and_grad(w, b - eps, X, y, 1e-3)[0]
    ) / (2 * eps)
    logistic_ok &= abs(gb - numeric) / max(abs(numeric), 1e-8) < 1e-4

    # Text-classifier gradient vs central differences on a 5-example fixture.
    hyper = TextHyper(dim=4, epochs=2, min_count=1, seed=2)
    fixture = featurize_examples([("hoax aliens secret", 1), ("pyramids hoax", 1), ("cooking pasta", 0),
                                  ("travel vlog fun", 0), ("music guitar", 0)], hyper)
    model = train_text_classifier(fixture, hyper)
    _, d_emb, d_head, d_bias = loss_and_grads(model, fixture)
    text_ok = True
    for r in range(min(4, model.embedding.shape[0])):
        for c in range(model.embedding.shape[1]):
            model.embedding[r, c] += eps
            up = loss_and_grads(model, fixture)[0]
            model.embedding[r, c] -= 2 * eps
            down = loss_and_grads(model, fixture)[0]
            model.embedding[r, c] += eps
            numeric = (up - down) / (2 * eps)
            text_ok &= abs(d_emb[r, c] - numeric) / max(abs(numeric), 1e-8) < 1e-4

    # NMF: monotone objective and exact rank-1 recovery.
    V_rand = np.random.default_rng(56).random((6, 5))
    trace = nmf(V_rand, 3, max_iter=300, tol=0.0, seed=1).objectives
    V_rank1 = np.outer([1.0, 2.0, 0.5], [0.3, 1.2, 2.0, 0.7])
    rank1_err = nmf(V_rank1, 1, max_iter=2000, tol=0.0, seed=0).objectives[-1]
    nmf_ok = all(b <= a + 1e-12 for a, b in zip(trace, trace[1:])) and (
        rank1_err < 1e-6 * np.linalg.norm(V_rank1)
    )

    # Louvain: planted 2-block recovery and the exact two-triangle value.
    rng = np.random.default_rng(57)
    nodes = [f"n{i:02d}" for i in range(40)]
    block = {node: (0 if i < 20 else 1) for i, node in enumerate(nodes)}
    edges = []
    for i in range(40):
        for j in range(i + 1, 40):
            prob = 0.9 if block[nodes[i]] == block[nodes[j]] else 0.05
            if rng.random() < prob:
                edges.append((nodes[i], nodes[j], 1))
    found = cluster_channels(ChannelGraph(edges))
    communities = sorted(found.communities().values())
    planted = sorted([sorted(n for n in nodes if block[n] == 0), sorted(n for n in nodes if block[n] == 1)])
    louvain_ok = communities == planted

    tri = ChannelGraph(
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("x", "y", 1), ("y", "z", 1), ("x", "z", 1)]
    )
    q = modularity(tri, Partition({"a": 0, "b": 0, "c": 0, "x": 1, "y": 1, "z": 1}))
    louvain_ok &= q == 0.5

    _report(
        "5 numerical kernels",
        logistic_ok and text_ok and nmf_ok and louvain_ok,
        f"gradients {logistic_ok and text_ok}, nmf {nmf_ok}, louvain+modularity {louvain_ok}",
    )


# ---------------------------------------------------------------------------
# 6. Frequency formulas
# ---------------------------------------------------------------------------


def test_criterion_6_frequency_formulas():
    edges = edge_columns([make_edge(f"s{i}", f"r{i}") for i in range(4)])
    likes = {"r0": 0.9, "r1": 0.6, "r2": 0.4, "r3": 0.1}
    raw = raw_frequency(edges, likes, 0.5)

    w_edges = edge_columns([make_edge("s1", "w1"), make_edge("s2", "w2")])
    w_likes = {"w1": 0.9, "w2": 0.4}
    weighted = weighted_frequency(w_edges, w_likes, {"s1": 100, "s2": 300}, 0.5)

    uniform = weighted_frequency(edges, likes, {f"s{i}": 7 for i in range(4)}, 0.5)

    _report(
        "6 frequency formulas",
        raw == 0.375 and weighted == 0.225 and uniform == raw,
        f"raw {raw}, weighted {weighted}, uniform==raw {uniform == raw}",
    )


# ---------------------------------------------------------------------------
# 7. End-to-end determinism
# ---------------------------------------------------------------------------


def _run_pipeline(base: Path, tag: str) -> dict[str, str]:
    out = base / tag
    cfg = base / f"{tag}.cfg"
    cfg.write_text(
        "\n".join(
            [
                "sim.channels = 12",
                "sim.videos_per_channel = 8",
                "sim.base_rate = 0.4",
                "sim.labeled_count = 40",
                "ensemble.repeats = 2",
                "text.dim = 8",
                "text.epochs = 15",
                "harvest.retain = 40",
                "topics.k = 2",
                f"out.dir = {out}",
            ]
        )
    )
    argv = ["--config", str(cfg), "--seed", "123"]
    assert main(["simulate", *argv]) == 0
    for day in ("2019-05-01", "2019-05-02", "2019-05-03"):
        assert main(["harvest", "--date", day, *argv]) == 0
    for command in ("train", "score", "trends", "calibrate", "bubble", "topics"):
        assert main([command, *argv]) == 0
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and "manifests" not in path.parts:
            digests[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_criterion_7_determinism(tmp_path):
    first = _run_pipeline(tmp_path, "one")
    second = _run_pipeline(tmp_path, "two")
    same = first == second
    _report(
        "7 determinism",
        same and len(first) >= 10,
        f"{len(first)} artifacts compared",
    )


# ---------------------------------------------------------------------------
# 8. F1 consistency
# ---------------------------------------------------------------------------


def test_criterion_8_f1_consistency():
    rng = np.random.default_rng(88)
    identity_ok = True
    for _ in range(200):
        tp, fp, fn, tn = (int(x) for x in rng.integers(1, 60, size=4))
        preds = [0.9] * (tp + fp) + [0.1] * (fn + tn)
        labels = [1] * tp + [0] * fp + [1] * fn + [0] * tn
        pr = precision_recall(preds, labels, 0.5)
        expected = 2 * pr.precision * pr.recall / (pr.precision + pr.recall)
        identity_ok &= abs(pr.f1 - expected) <= 1e-15

    reported_f1 = 2 * 0.78 * 0.86 / (0.78 + 0.86)
    pair_ok = abs(reported_f1 - 0.82) <= 0.005

    _report(
        "8 F1 consistency",
        identity_ok and pair_ok,
        f"harmonic identity exact: {identity_ok}; 0.78/0.86 -> F1 {reported_f1:.4f}",
    )
