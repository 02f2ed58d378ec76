"""The three workloads: inputs made from a seed, the timed closed loop, and
oracles that check the program's outputs.

Every workload runs in a fresh child process and a fresh output directory.
One client starts each pipeline stage after the previous one returns. The
program only ever sees the configs and files written here.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# Sizes per workload and scale. "full" is what the benchmark measures; "toy"
# is the self-check's scale. NOTES.md gives the reasons for each size.
SIZES = {
    "audit": {
        "full": dict(channels=120, videos=10, base_rate=0.3, labels=400, repeats=3,
                     dim=8, epochs=8, topics_k=8, days=7, initial=30, dead=4),
        "toy": dict(channels=40, videos=10, base_rate=0.5, labels=100, repeats=2,
                    dim=8, epochs=8, topics_k=3, days=3, initial=10, dead=2),
    },
    "train": {
        "full": dict(channels=50, videos=10, base_rate=0.5, comments=4, labels=400,
                     dim=8, epochs=8, repeats=12),
        "toy": dict(channels=20, videos=10, base_rate=0.5, comments=4, labels=100,
                    dim=8, epochs=8, repeats=2),
    },
    "longitudinal": {
        "full": dict(channels=3000, videos=2, base_rate=0.3, initial=250, seeds=1000,
                     dead=4, days=7, unscored=0.05),
        "toy": dict(channels=120, videos=2, base_rate=0.3, initial=20, seeds=40,
                    dead=2, days=3, unscored=0.05),
    },
}

FIRST_DAY = dt.date(2020, 1, 1)
THRESHOLD = 0.5  # the config default the reports use
BUBBLE_BINS = 10


@dataclass
class Outcome:
    """What one iteration did: operation counts, phase times, checks, digests."""

    stages: int = 0
    stage_failures: list[str] = field(default_factory=list)
    fetches: int = 0
    fetch_failures: int = 0
    planted_failures: int = 0
    scored: int = 0
    unscored: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    phase_s: dict[str, float] = field(
        default_factory=lambda: {"collect": 0.0, "train": 0.0, "report": 0.0}
    )

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)

    @property
    def attempted(self) -> int:
        return self.stages + self.fetches + self.scored + len(self.checks)

    @property
    def failed_ops(self) -> int:
        """Every failed operation, the planted dead-seed fetches included."""
        failed_checks = sum(1 for ok in self.checks.values() if not ok)
        return len(self.stage_failures) + self.fetch_failures + self.unscored + failed_checks

    @property
    def unexpected_failures(self) -> int:
        """Failed operations other than fetches of the planted dead seeds."""
        return self.failed_ops - min(self.fetch_failures, self.planted_failures)


class Loop:
    """The closed-loop client: runs one CLI stage at a time, in-process."""

    def __init__(self, out: Path, config: Path, outcome: Outcome, probe, tracer=None):
        self.out = out
        self.config = config
        self.outcome = outcome
        self.probe = probe  # hostspeed.HostSpeed; its own time is left out of phase times
        self.tracer = tracer

    def cli(self, phase: str | None, stage: str, *extra: str) -> None:
        from recaudit import cli

        argv = [stage, "--config", str(self.config), *extra]
        label = " ".join([stage, *extra])
        stale_locks = list(self.out.rglob("*.lock"))
        buf = io.StringIO()
        probe_s0 = self.probe.spent_s
        t0 = perf_counter()
        with redirect_stdout(buf):
            if self.tracer is None:
                code = cli.main(argv)
            else:
                with self.tracer.span(f"cli.{stage}"):
                    code = cli.main(argv)
        elapsed = perf_counter() - t0 - (self.probe.spent_s - probe_s0)
        if phase is not None:
            self.outcome.phase_s[phase] += elapsed
        self.outcome.stages += 1
        if code != 0:
            self.outcome.stage_failures.append(f"{label}: exit {code}")
        elif "outputs are current, skipping" in buf.getvalue():
            self.outcome.stage_failures.append(f"{label}: skipped as current")
        elif stale_locks or list(self.out.rglob("*.lock")):
            self.outcome.stage_failures.append(f"{label}: lock file present")

    def call(self, phase: str, fn, *args, **kwargs):
        probe_s0 = self.probe.spent_s
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        self.outcome.phase_s[phase] += perf_counter() - t0 - (self.probe.spent_s - probe_s0)
        return result


# ---------------------------------------------------------------------------
# Helpers shared by the workloads
# ---------------------------------------------------------------------------


def _write_lines(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_config(path: Path, values: dict) -> None:
    _write_lines(path, [f"{key} = {value}" for key, value in values.items()])


def _days(n: int) -> list[str]:
    return [(FIRST_DAY + dt.timedelta(days=i)).isoformat() for i in range(n)]


def _dead_ids(n: int) -> list[str]:
    return [f"gone{i:04d}" for i in range(n)]


def _tree_digest(root: Path, exclude: tuple[str, ...] = ()) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel.split("/")[0] in exclude:
            continue
        h.update(rel.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def _count_harvest(out: Path, outcome: Outcome, days: list[str], planted_dead: int) -> None:
    """Harvest channel fetches and their failures, from snapshot coverage."""
    n_seeds = len(dict.fromkeys(l.strip() for l in (out / "seeds.txt").read_text().splitlines() if l.strip()))
    coverages = []
    for day in days:
        path = out / "snapshots" / f"{day}.jsonl"
        if not path.exists():
            coverages.append(None)
            continue
        coverages.append(json.loads(path.read_text(encoding="utf-8").splitlines()[0])["coverage"])
    for cov in coverages:
        outcome.fetches += n_seeds
        outcome.fetch_failures += n_seeds if cov is None else round((1.0 - cov) * n_seeds)
    outcome.planted_failures = planted_dead * len(days)
    expected = (n_seeds - planted_dead) / n_seeds
    outcome.check("harvest coverage equals the live-seed share",
                  all(cov is not None and abs(cov - expected) < 1e-12 for cov in coverages))


def _read_likelihoods(path: Path) -> dict[str, float | None]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            doc = json.loads(line)
            out[doc["video_id"]] = doc["likelihood"]
    return out


def _report_oracle(out: Path, outcome: Outcome, likelihoods: dict) -> None:
    """Recompute daily raw frequency, coverage and bubble counts with json and
    numpy, and compare them with trends.csv and bubble.csv."""
    snap_files = sorted((out / "snapshots").glob("*.jsonl"))
    days, pairs = [], []
    for path in snap_files:
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                doc = json.loads(line)
                days.append(dt.date.fromisoformat(doc["date"]))
                pairs.append([(e["source_video_id"], e["recommended_video_id"]) for e in doc["edges"]])

    def like_array(ids):
        vals = [likelihoods.get(v) for v in ids]
        return np.array([np.nan if v is None else v for v in vals], dtype=float)

    trends = [line.split(",") for line in (out / "trends.csv").read_text().splitlines()[1:]]
    ok = len(trends) == len(days)
    for row, day, day_pairs in zip(trends, days, pairs):
        rec = like_array([r for _, r in day_pairs])
        known = ~np.isnan(rec)
        n_known = int(known.sum())
        raw = float(np.where(rec[known] > THRESHOLD, rec[known], 0.0).sum()) / n_known if n_known else None
        cov = n_known / len(rec) if len(rec) else 0.0
        got_raw = float(row[1]) if row[1] else None
        ok &= row[0] == day.isoformat()
        ok &= (raw is None) == (got_raw is None) and (raw is None or math.isclose(raw, got_raw, rel_tol=1e-9, abs_tol=1e-12))
        ok &= math.isclose(cov, float(row[3]), rel_tol=1e-12, abs_tol=0.0)
    outcome.check("trends.csv raw frequency and coverage match a recomputation", ok)

    # Three equal calendar spans over the series, as the bubble default.
    first, last = min(days), max(days)
    span = max(((last - first).days + 1) // 3, 1)
    starts = [first + dt.timedelta(days=span * i) for i in range(3)]
    ends = [starts[1] - dt.timedelta(days=1), starts[2] - dt.timedelta(days=1), last]
    periods = [(s, e) for s, e in zip(starts, ends) if s <= e]
    counts = np.zeros((len(periods), BUBBLE_BINS), dtype=np.int64)
    hits = np.zeros((len(periods), BUBBLE_BINS))
    for day, day_pairs in zip(days, pairs):
        src = like_array([s for s, _ in day_pairs])
        rec = like_array([r for _, r in day_pairs])
        keep = ~np.isnan(src) & ~np.isnan(rec)
        bins = np.minimum((src[keep] * BUBBLE_BINS).astype(int), BUBBLE_BINS - 1)
        weights = np.where(rec[keep] > THRESHOLD, rec[keep], 0.0)
        for pi, (s, e) in enumerate(periods):
            if s <= day <= e:
                counts[pi] += np.bincount(bins, minlength=BUBBLE_BINS)
                hits[pi] += np.bincount(bins, weights=weights, minlength=BUBBLE_BINS)
    bubble = [line.split(",") for line in (out / "bubble.csv").read_text().splitlines()[1:]]
    ok = len(bubble) == counts.size
    for i, row in enumerate(bubble[: counts.size]):
        pi, b = divmod(i, BUBBLE_BINS)
        n = int(counts[pi, b])
        ok &= int(row[5]) == n
        ok &= (row[4] == "") if n == 0 else math.isclose(float(row[4]), hits[pi, b] / n, rel_tol=1e-9, abs_tol=1e-12)
    outcome.check("bubble.csv edge counts and proportions match a recomputation", ok)


def _reports_present(out: Path, outcome: Outcome) -> None:
    topics = json.loads((out / "topics.json").read_text()) if (out / "topics.json").exists() else []
    outcome.check("topics.json has rows", len(topics) > 0)
    cal = (out / "calibration.csv").read_text().splitlines() if (out / "calibration.csv").exists() else []
    outcome.check("calibration.csv has one row per bin", len(cal) == 1 + BUBBLE_BINS)
    for name in ("trends.csv", "bubble.csv", "calibration.csv", "topics.json", "topics.csv"):
        outcome.digests[name] = _file_digest(out / name)


# ---------------------------------------------------------------------------
# audit: the whole CLI path at desk scale
# ---------------------------------------------------------------------------


def setup_audit(work: Path, seed: int, size: dict) -> dict:
    out = work / "out"
    gen = work / "inputs"
    # simulate names channels chan0000, chan0001, ...; the snowball starts
    # from the first few and manual additions hold every channel plus ids
    # the platform does not have.
    channel_ids = [f"chan{c:04d}" for c in range(size["channels"])]
    _write_lines(gen / "initial.txt", channel_ids[: size["initial"]])
    _write_lines(gen / "manual.txt", channel_ids + _dead_ids(size["dead"]))
    config = gen / "audit.conf"
    _write_config(config, {
        "out.dir": out,
        "sim.channels": size["channels"],
        "sim.videos_per_channel": size["videos"],
        "sim.base_rate": size["base_rate"],
        "sim.labeled_count": size["labels"],
        "sim.seed": seed,
        "snowball.seeds_path": gen / "initial.txt",
        "snowball.initial": size["initial"],
        "snowball.target": size["channels"],
        "cluster.anchors": channel_ids[0],
        "manual.additions_path": gen / "manual.txt",
        "ensemble.repeats": size["repeats"],
        "ensemble.seed": seed,
        "text.dim": size["dim"],
        "text.epochs": size["epochs"],
        "topics.k": size["topics_k"],
        "topics.seed": seed,
    })
    return {"out": out, "config": config, "days": _days(size["days"]), "dead": size["dead"]}


def run_audit(state: dict, loop: Loop) -> None:
    loop.cli(None, "simulate")
    loop.cli("collect", "snowball")
    for day in state["days"]:
        loop.cli("collect", "harvest", "--date", day)
    loop.cli("train", "train")
    for stage in ("score", "trends", "calibrate", "bubble", "topics"):
        loop.cli("report", stage)
    loop.cli(None, "validate")


def check_audit(state: dict, outcome: Outcome, work: Path) -> None:
    out = state["out"]
    _count_harvest(out, outcome, state["days"], state["dead"])
    likelihoods = _read_likelihoods(out / "likelihoods.jsonl") if (out / "likelihoods.jsonl").exists() else {}
    outcome.scored = len(likelihoods)
    outcome.unscored = sum(1 for v in likelihoods.values() if v is None)
    outcome.check("every scored likelihood lies in [0, 1]",
                  bool(likelihoods) and all(v is None or 0.0 <= v <= 1.0 for v in likelihoods.values()))
    validation = out / "validation.json"
    outcome.check("validate found no violations",
                  validation.exists() and json.loads(validation.read_text()) == [])
    if (out / "trends.csv").exists() and (out / "bubble.csv").exists():
        _report_oracle(out, outcome, likelihoods)
    else:
        outcome.check("trends.csv and bubble.csv exist", False)
    _reports_present(out, outcome)
    outcome.digests["artifacts_without_manifests"] = _tree_digest(out, exclude=("manifests",))


# ---------------------------------------------------------------------------
# train: the repeated-split protocol at the criterion-4 shape, as a library
# ---------------------------------------------------------------------------


def setup_train(work: Path, seed: int, size: dict) -> dict:
    from recaudit import sources

    platform = sources.generate_platform(sources.PlatformSpec(
        n_channels=size["channels"],
        videos_per_channel=size["videos"],
        base_rate=size["base_rate"],
        comments_per_video=size["comments"],
        seed=seed,
    ))
    labeled = sources.generate_labeled_set(platform, size["labels"], seed=seed + 1)
    return {"labeled": labeled, "seed": seed, "size": size}


def run_train(state: dict, loop: Loop) -> None:
    from recaudit import ensemble, textmodel

    size = state["size"]
    hyper = textmodel.TextHyper(dim=size["dim"], epochs=size["epochs"], min_count=2, seed=0)
    state["ensemble"] = loop.call(
        "train", ensemble.train_ensemble, state["labeled"],
        repeats=size["repeats"], split=0.6, seed=state["seed"] + 2, text_hyper=hyper,
    )


def check_train(state: dict, outcome: Outcome, work: Path) -> None:
    from dataclasses import replace

    from recaudit import ensemble, store

    labeled = state["labeled"]
    model = state["ensemble"]
    predictions = [ensemble.classify_video(model, ex.video) for ex in labeled]
    outcome.scored = len(predictions)
    pr = ensemble.precision_recall(predictions, [ex.label for ex in labeled], THRESHOLD)
    outcome.check("precision >= 0.9 on the labeled set", pr.precision is not None and pr.precision >= 0.9)
    outcome.check("recall >= 0.9 on the labeled set", pr.recall >= 0.9)
    # train_ensemble stamps today's date into the bundle; pin it so the digest
    # depends only on the trained model.
    bundle = work / "ensemble.bin"
    store.save_ensemble(bundle, replace(model, trained_date=dt.date(2000, 1, 1)))
    outcome.digests["ensemble_without_trained_date"] = _file_digest(bundle)
    outcome.digests["precision_recall"] = f"{pr.precision:.6f}/{pr.recall:.6f}" if pr.precision is not None else "undefined"


# ---------------------------------------------------------------------------
# longitudinal: collection and reporting at the per-day scale, no text model
# ---------------------------------------------------------------------------

_TOPIC_WORDS = {
    1: "hoax coverup agenda elites secret truth hidden exposed control lies awake cabal".split(),
    0: "recipe guitar travel workout football trailer garden camera piano chess cycling baking".split(),
}
_SHARED_WORDS = "the this video great watch today new thanks".split()


def setup_longitudinal(work: Path, seed: int, size: dict) -> dict:
    rng = np.random.default_rng(seed)
    out = work / "out"
    gen = work / "inputs"
    n_ch, per = size["channels"], size["videos"]
    channel_ids = [f"ch{c:05d}" for c in range(n_ch)]
    channels, videos, truth, likes = [], [], [], []
    for c, ch in enumerate(channel_ids):
        last = None
        for i in range(per):
            vid = f"v{c:05d}x{i}"
            label = int(rng.random() < size["base_rate"])
            comments = []
            for _ in range(int(rng.integers(1, 4))):
                words = list(rng.choice(_TOPIC_WORDS[label], size=int(rng.integers(3, 7))))
                words.append(_SHARED_WORDS[int(rng.integers(len(_SHARED_WORDS)))])
                comments.append({"attribute_scores": None, "text": " ".join(words)})
            videos.append({"channel_id": ch, "comments": comments, "description": "",
                           "tags": [], "title": "", "transcript": None, "video_id": vid,
                           "view_count": int(rng.integers(100, 1_000_000))})
            truth.append({"label": label, "video_id": vid})
            # Planted likelihoods correlate with the ground truth; a few
            # videos stay unclassifiable.
            like = None if rng.random() < size["unscored"] else float(rng.beta(5, 2) if label else rng.beta(2, 5))
            likes.append({"likelihood": like, "video_id": vid})
            last = vid
        channels.append({"channel_id": ch, "last_video_id": last, "subscriber_count": int(rng.integers(1_000, 10_000_000)), "title": ""})

    def jsonl(path, docs):
        _write_lines(path, (json.dumps(d, sort_keys=True) for d in docs))

    jsonl(out / "channels.jsonl", channels)
    jsonl(out / "videos.jsonl", videos)
    jsonl(out / "ground_truth.jsonl", sorted(truth, key=lambda d: d["video_id"]))
    jsonl(out / "likelihoods.jsonl", sorted(likes, key=lambda d: d["video_id"]))
    picks = rng.permutation(n_ch)
    _write_lines(gen / "initial.txt", [channel_ids[i] for i in sorted(picks[: size["initial"]])])
    live = [channel_ids[i] for i in sorted(picks[: size["seeds"]])]
    _write_lines(out / "seeds.txt", live + _dead_ids(size["dead"]))
    config = gen / "longitudinal.conf"
    _write_config(config, {
        "out.dir": out,
        "sim.base_rate": size["base_rate"],
        "sim.homophily": 0.6,
        "sim.seed": seed,
        "snowball.seeds_path": gen / "initial.txt",
        "snowball.initial": size["initial"],
        "snowball.target": n_ch,
        "topics.seed": seed,
    })
    planted = {d["video_id"]: d["likelihood"] for d in likes}
    return {"out": out, "config": config, "days": _days(size["days"]), "dead": size["dead"],
            "likelihoods": planted, "target": n_ch}


def run_longitudinal(state: dict, loop: Loop) -> None:
    loop.cli("collect", "snowball")
    for day in state["days"]:
        loop.cli("collect", "harvest", "--date", day)
    for stage in ("trends", "calibrate", "bubble", "topics"):
        loop.cli("report", stage)


def check_longitudinal(state: dict, outcome: Outcome, work: Path) -> None:
    out = state["out"]
    _count_harvest(out, outcome, state["days"], state["dead"])
    admitted = out / "snowball" / "channels.txt"
    outcome.check("snowball reached its target",
                  admitted.exists() and len(admitted.read_text().split()) == state["target"])
    if (out / "trends.csv").exists() and (out / "bubble.csv").exists():
        _report_oracle(out, outcome, state["likelihoods"])
    else:
        outcome.check("trends.csv and bubble.csv exist", False)
    _reports_present(out, outcome)
    outcome.digests["snowball_channels"] = _file_digest(admitted)


# name -> (set-up, timed region, checks)
WORKLOADS = {
    "audit": (setup_audit, run_audit, check_audit),
    "train": (setup_train, run_train, check_train),
    "longitudinal": (setup_longitudinal, run_longitudinal, check_longitudinal),
}
