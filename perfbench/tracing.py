"""Span tracing from outside the program.

The traced run replaces each listed function with a wrapper at the name
its callers look up (``stepalign.model.drop_dtw`` is the name the decoder
calls, not ``stepalign.alignment.drop_dtw``). Each wrapped call records a
span with its name, start, end and parent; spans stay in memory and are
written out when the run ends. A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class MissingBoundary(RuntimeError):
    """A listed boundary no longer exists, or the run never crossed it."""


# (span name, module the caller looks the name up in, attribute there).
# One function can sit behind several names; each is wrapped, and each
# records under the module that defines the function.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("synth.synth_corpus", "stepalign.synth", "synth_corpus"),
    ("corpus.Corpus.save", "stepalign.corpus", "Corpus.save"),
    ("corpus.Corpus.from_dir", "stepalign.corpus", "Corpus.from_dir"),
    ("data.load_corpus", "stepalign.corpus", "load_corpus"),
    ("features.read_features", "stepalign.corpus", "read_features"),
    ("splits.make_group_kfold", "stepalign.splits", "make_group_kfold"),
    ("model.train_alignment_fold", "stepalign.model", "train_alignment_fold"),
    ("model.evaluate_alignment_f1", "stepalign.model", "evaluate_alignment_f1"),
    ("model.forward_slots", "stepalign.model", "forward_slots"),
    ("model.select_slots", "stepalign.model", "select_slots"),
    ("model.batch_loss_and_grads", "stepalign.model", "batch_loss_and_grads"),
    ("model.align_video", "stepalign.model", "align_video"),
    ("alignment.drop_dtw", "stepalign.model", "drop_dtw"),
    ("alignment.percentile_drop_cost", "stepalign.model", "percentile_drop_cost"),
    ("alignment.decode_segments", "stepalign.model", "decode_segments"),
    ("optim.Adam.step", "stepalign.optim", "Adam.step"),
    ("classifier.train_classifier_fold", "stepalign.classifier",
     "train_classifier_fold"),
    ("classifier.detect_on_segments", "stepalign.classifier", "detect_on_segments"),
    ("classifier.detect_mistakes", "stepalign.classifier", "detect_mistakes"),
    ("classifier.classify", "stepalign.classifier", "classify"),
    ("checkpoint.save_checkpoint", "stepalign.model", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "stepalign.model", "load_checkpoint"),
    ("checkpoint.save_checkpoint", "stepalign.classifier", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "stepalign.classifier", "load_checkpoint"),
    ("metrics.frame_metrics", "stepalign.model", "frame_metrics"),
    ("metrics.frame_metrics", "stepalign.metrics", "frame_metrics"),
    ("metrics.map_at_tiou", "stepalign.classifier", "map_at_tiou"),
    ("metrics.map_at_tiou", "stepalign.metrics", "map_at_tiou"),
)


def _drop_dtw_cells(args, kwargs) -> dict[str, int]:
    cost = args[0] if args else kwargs["cost"]
    rows, cols = cost.shape
    return {"cells": rows * cols}


def _feature_file_bytes(args, kwargs) -> dict[str, int]:
    path = Path(args[0] if args else kwargs["path"])
    sidecar = path.with_name(path.name + ".json")
    try:
        return {"bytes": path.stat().st_size + sidecar.stat().st_size}
    except OSError:
        return {}   # the call itself reports the missing file


# per-call counters recorded at the same boundaries as the spans
COUNTERS = {"alignment.drop_dtw": _drop_dtw_cells,
            "features.read_features": _feature_file_bytes}


class Tracer:
    """Spans as ``[name, start, end, parent]`` lists; ``parent`` is the
    index of the enclosing span, or -1 at the root."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.site_calls: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn, site: tuple[str, str]):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.site_calls[site] += 1
            if count is not None:
                for key, value in count(args, kwargs).items():
                    self.counts[f"{name}.{key}"] += value
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced


def _resolve(module_name: str, attr: str):
    """The object that holds the last component of ``attr`` and that
    component's raw value (a classmethod stays a classmethod)."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise MissingBoundary(f"{module_name}.{attr}: no {part!r}")
        owner = getattr(owner, part)
    if leaf not in vars(owner):
        raise MissingBoundary(f"{module_name}.{attr} no longer exists")
    return owner, leaf, vars(owner)[leaf]


@contextmanager
def installed(tracer: Tracer, boundaries=BOUNDARIES):
    """Wrap every boundary for the duration of the block, then restore the
    originals. A boundary the program no longer has raises MissingBoundary
    before anything runs."""
    resolved = [(name, (module_name, attr), *_resolve(module_name, attr))
                for name, module_name, attr in boundaries]
    undo = []
    try:
        for name, site, owner, leaf, raw in resolved:
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(tracer.wrap(name, raw.__func__, site))
            elif callable(raw):
                wrapped = tracer.wrap(name, raw, site)
            else:
                raise MissingBoundary(f"{site[0]}.{site[1]} is not callable")
            setattr(owner, leaf, wrapped)
            undo.append((owner, leaf, raw))
        yield tracer
    finally:
        for owner, leaf, raw in reversed(undo):
            setattr(owner, leaf, raw)


def uncrossed_sites(tracer: Tracer, boundaries=BOUNDARIES) -> list[str]:
    """Listed boundaries that the traced run never called."""
    return [f"{module_name}.{attr}" for _, module_name, attr in boundaries
            if tracer.site_calls[(module_name, attr)] == 0]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _covered(children[i], start, end)
            for i, (_, start, end, _) in enumerate(spans)]


def roots(spans: list[list]) -> list[int]:
    """Index of each span's outermost ancestor (parents precede children)."""
    out: list[int] = []
    for i, (_, _, _, parent) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, dict[str, float]]]:
    """Per root span name, per span name: call count and total self time."""
    selfs = self_times(spans)
    root_of = roots(spans)
    out: dict[str, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"calls": 0, "self_s": 0.0}))
    for i, (name, _, _, _) in enumerate(spans):
        entry = out[spans[root_of[i]][0]][name]
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
    return out
