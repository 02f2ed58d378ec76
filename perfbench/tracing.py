"""Per-layer tracing from outside the program.

The tracer replaces public functions of the ``recaudit`` modules with
wrappers that record one span per call (name, start, end, parent) plus
counts, and restores the originals afterwards. A function is rebound
wherever it is looked up: in its defining module and in every module that
imported it by name (``recaudit.cli.train_ensemble``,
``recaudit.ensemble.predict_proba``), so calls through either binding are
seen. Generator functions get one span per resume, so a lazily consumed
reader is charged only for the time it actually runs.

Spans are kept in flat arrays while the program runs. Self time is derived
at the end: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = (
    "sources",
    "crawler",
    "community",
    "corpus",
    "attributes",
    "textmodel",
    "ensemble",
    "metrics",
    "topics",
    "store",
    "cli",
)

# (module, attribute, span name). Several attributes may share one span name;
# their calls and times are reported together.
TRACED = (
    ("sources", "generate_platform", "sources.generate_platform"),
    ("sources", "SimulatedPlatform.fetch_last_video", "sources.fetch"),
    ("sources", "SimulatedPlatform.fetch_watch_next", "sources.fetch"),
    ("sources", "SimulatedPlatform.fetch_video", "sources.fetch"),
    ("sources", "SimulatedPlatform.fetch_comments", "sources.fetch"),
    ("crawler", "snowball_channels", "crawler.snowball_channels"),
    ("crawler", "daily_harvest", "crawler.daily_harvest"),
    ("community", "cluster_channels", "community.cluster_channels"),
    ("community", "modularity", "community.modularity"),
    ("corpus", "read_jsonl", "corpus.read_jsonl"),
    ("corpus", "write_jsonl", "corpus.write_jsonl"),
    ("corpus", "validate_corpus", "corpus.validate_corpus"),
    ("attributes", "score_comment_attributes", "attributes.score_comment_attributes"),
    ("textmodel", "tokenize", "textmodel.tokenize"),
    ("textmodel", "featurize", "textmodel.featurize"),
    ("textmodel", "train_text_classifier", "textmodel.train_text_classifier"),
    ("textmodel", "predict_proba", "textmodel.predict_proba"),
    ("ensemble", "attribute_features", "ensemble.attribute_features"),
    ("ensemble", "train_logistic", "ensemble.train_logistic"),
    ("ensemble", "train_ensemble", "ensemble.train_ensemble"),
    ("ensemble", "classify_video", "ensemble.classify_video"),
    ("metrics", "raw_frequency", "metrics.frequencies"),
    ("metrics", "weighted_frequency", "metrics.frequencies"),
    ("metrics", "coverage", "metrics.frequencies"),
    ("metrics", "filter_bubble_matrix", "metrics.filter_bubble_matrix"),
    ("metrics", "calibration_curve", "metrics.calibration_curve"),
    ("metrics", "clopper_pearson", "metrics.clopper_pearson"),
    ("topics", "tfidf", "topics.tfidf"),
    ("topics", "nmf", "topics.nmf"),
    ("topics", "topic_report", "topics.topic_report"),
    ("store", "sha256_file", "store.sha256_file"),
    ("store", "save_ensemble", "store.save_ensemble"),
    ("store", "load_ensemble", "store.load_ensemble"),
    ("store", "read_likelihoods", "store.read_likelihoods"),
)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Spans and counts for one traced iteration."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._distinct: dict[str, set] = {}
        self._snapshot_reads: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent_of.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """One span recorded from the benchmark's own code."""
        idx = self.open(self._name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def distinct(self, key: str, item) -> None:
        self._distinct.setdefault(key, set()).add(item)

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every ``recaudit`` module."""
        modules = {name: importlib.import_module(f"recaudit.{name}") for name in MODULES}
        package = importlib.import_module("recaudit")
        for mod_name, attr, span_name in TRACED:
            owner = modules[mod_name]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, span_name, meth))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span_name, attr)
            for mod in (*modules.values(), package):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patched):
            setattr(obj, name, original)
        self._patched.clear()

    def _patch(self, obj, name: str, value) -> None:
        self._patched.append((obj, name, vars(obj)[name]))
        setattr(obj, name, value)

    def _wrap(self, fn, span_name: str, attr: str):
        nid = self._name_id(span_name)
        calls_key = span_name + ".calls"
        before = _BEFORE.get(attr)
        after = _AFTER.get(attr)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                tracer.count(calls_key)
                if before is not None:
                    before(tracer, args, kwargs)
                gen = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer.close(idx)
                        return
                    except BaseException:
                        tracer.close(idx)
                        raise
                    tracer.close(idx)
                    tracer.count(span_name + ".records")
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer.count(calls_key)
            if before is not None:
                before(tracer, args, kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                tracer.count(f"{span_name}.raised.{type(exc).__name__}")
                raise
            tracer.close(idx)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent_of, dtype=np.int32)
        name = np.frombuffer(self.name_of, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        per_name = np.bincount(name, weights=dur - covered, minlength=len(self.names))
        return {nm: float(per_name[i]) for i, nm in enumerate(self.names)}

    def total_times(self) -> dict[str, float]:
        """Seconds per span name, children included."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name_of, dtype=np.int32)
        per_name = np.bincount(name, weights=end - start, minlength=len(self.names))
        return {nm: float(per_name[i]) for i, nm in enumerate(self.names)}

    def distinct_count(self, key: str) -> int:
        return len(self._distinct.get(key, ()))

    def snapshot_decodes_per_file(self) -> float:
        reads = self._snapshot_reads
        return sum(reads.values()) / len(reads) if reads else 0.0

    def save(self, path) -> None:
        """Write the raw spans out, for inspection after the run."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# Count hooks, keyed by the traced attribute's name. A "before" hook sees the
# call's arguments; an "after" hook also sees its result. Both run outside
# the traced function's span.
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _before_read_jsonl(t: Tracer, args, kwargs) -> None:
    path = _arg(args, kwargs, 0, "path")
    t.count("corpus.read_jsonl.bytes", _file_size(path))
    if os.path.basename(os.path.dirname(os.fspath(path))) == "snapshots":
        key = os.fspath(path)
        t._snapshot_reads[key] = t._snapshot_reads.get(key, 0) + 1


def _after_write_jsonl(t: Tracer, result, args, kwargs) -> None:
    t.count("corpus.write_jsonl.bytes", _file_size(_arg(args, kwargs, 0, "path")))


def _before_featurize(t: Tracer, args, kwargs) -> None:
    t.distinct("featurize", tuple(_arg(args, kwargs, 0, "tokens")))


def _before_train_text(t: Tracer, args, kwargs) -> None:
    examples = _arg(args, kwargs, 0, "examples")
    hyper = args[1] if len(args) > 1 else kwargs.get("hyper")
    if hyper is None:
        hyper = importlib.import_module("recaudit.textmodel").TextHyper()
    t.count("textmodel.sgd_steps", hyper.epochs * len(examples))


def _before_attribute_features(t: Tracer, args, kwargs) -> None:
    vectors = _arg(args, kwargs, 0, "vectors")
    t.distinct("attribute_features", tuple(vectors))


def _after_snowball(t: Tracer, result, args, kwargs) -> None:
    initial = _arg(args, kwargs, 1, "initial_seeds")
    t.count("crawler.snowball.admitted", len(result.channels) - len(set(initial)))


def _after_harvest(t: Tracer, result, args, kwargs) -> None:
    t.count("crawler.harvest.edges", len(result.snapshot.edges))
    t.count("crawler.harvest.channel_failures", len(result.failures))


def _after_cluster(t: Tracer, result, args, kwargs) -> None:
    graph = _arg(args, kwargs, 0, "graph")
    nodes = graph.nodes
    t.count("community.graph.nodes", len(nodes))
    t.count("community.graph.edges", sum(len(graph.neighbors(n)) for n in nodes) // 2)


def _after_nmf(t: Tracer, result, args, kwargs) -> None:
    t.count("topics.nmf.iterations", len(result.objectives))


def _before_sha256(t: Tracer, args, kwargs) -> None:
    t.count("store.sha256_file.bytes", _file_size(_arg(args, kwargs, 0, "path")))


_BEFORE = {
    "read_jsonl": _before_read_jsonl,
    "featurize": _before_featurize,
    "train_text_classifier": _before_train_text,
    "attribute_features": _before_attribute_features,
    "sha256_file": _before_sha256,
}

_AFTER = {
    "write_jsonl": _after_write_jsonl,
    "snowball_channels": _after_snowball,
    "daily_harvest": _after_harvest,
    "cluster_channels": _after_cluster,
    "nmf": _after_nmf,
}
