"""Tests of the benchmark's own code: span self time, the percentile rule,
the leak audit, boundary checks, and the metric names it reports."""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import protocol  # noqa: E402
import tracing  # noqa: E402
from stepalign.classifier import ClassifierTrainConfig  # noqa: E402
from stepalign.model import TrainConfig  # noqa: E402
from stepalign.synth import SynthConfig, synth_corpus  # noqa: E402
from workloads import WORKLOAD_NAMES, Workload, make_workload  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.span("outer"):
        clock.now += 1.0
        with tracer.span("mid"):
            clock.now += 2.0
            with tracer.span("leaf"):
                clock.now += 4.0
            clock.now += 0.5
        clock.now += 8.0
        with tracer.span("leaf"):
            clock.now += 16.0
    selfs = dict(zip((s[0] + str(i) for i, s in enumerate(tracer.spans)),
                     tracing.self_times(tracer.spans)))
    assert selfs == {"outer0": 9.0, "mid1": 2.5, "leaf2": 4.0, "leaf3": 16.0}
    summary = tracing.summarize(tracer.spans)
    assert summary["outer"]["leaf"] == {"calls": 2, "self_s": 20.0}
    assert sum(e["self_s"] for e in summary["outer"].values()) == 31.5


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 3.0, 7.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_wrapped_function_records_counts_and_restores():
    tracer = tracing.Tracer()
    import stepalign.model as model
    original = model.drop_dtw
    boundary = (("alignment.drop_dtw", "stepalign.model", "drop_dtw"),)
    with tracing.installed(tracer, boundary):
        assert model.drop_dtw is not original
        model.drop_dtw(np.zeros((3, 7)), 1.0)
    assert model.drop_dtw is original
    assert tracer.counts["alignment.drop_dtw.cells"] == 21
    assert [s[0] for s in tracer.spans] == ["alignment.drop_dtw"]
    assert tracing.uncrossed_sites(tracer, boundary) == []


def test_missing_boundary_fails_before_wrapping():
    import stepalign.model as model
    original = model.forward_slots
    boundaries = (("model.forward_slots", "stepalign.model", "forward_slots"),
                  ("model.renamed", "stepalign.model", "no_such_function"))
    with pytest.raises(tracing.MissingBoundary):
        with tracing.installed(tracing.Tracer(), boundaries):
            pass
    assert model.forward_slots is original


def test_every_listed_boundary_exists():
    with tracing.installed(tracing.Tracer()):
        pass


def test_percentile_rule_leaves_ten_samples_beyond():
    assert bench.min_samples(95.0) == 200
    assert bench.samples_beyond(200, 95.0) == 10
    assert bench.samples_beyond(199, 95.0) == 9
    values = [float(v) for v in range(1, 201)]
    assert bench.nearest_rank(values, 95.0) == 190.0
    assert bench.nearest_rank(values, 50.0) == 100.0
    assert sum(v > bench.nearest_rank(values, 95.0) for v in values) == 10


def test_leak_audit_trips_on_planted_test_read():
    corpus = synth_corpus(SynthConfig(tasks=1, videos_per_task=4, workers=2,
                                      steps_per_task=2, dim=8,
                                      frames_per_step=(2, 3))).corpus
    ids = [v.video_id for v in corpus.videos]
    train, test = ids[:2], ids[2:]
    corpus.set_phase(protocol.TRAIN_PHASES[0])
    for video_id in train:
        corpus.video_features(video_id)
    corpus.set_phase(protocol.TEST_PHASE)
    corpus.video_features(test[0])
    assert protocol.leak_audit(corpus.access_log, test) == []
    corpus.set_phase(protocol.TRAIN_PHASES[1])
    corpus.video_features(test[1])
    assert protocol.leak_audit(corpus.access_log, test) == [
        f"{test[1]} read under {protocol.TRAIN_PHASES[1]}"]


def test_inference_counts_a_failed_video_and_continues(monkeypatch):
    from stepalign import classifier, model
    from stepalign.errors import ValidationError
    corpus = synth_corpus(SynthConfig(tasks=1, videos_per_task=4, workers=2,
                                      steps_per_task=2, dim=8,
                                      frames_per_step=(2, 3))).corpus
    bad = corpus.videos[1].video_id

    def align_video(params, frames, step_feats, **kwargs):
        if frames is corpus.features[bad]:
            raise ValidationError("planted")
        return []

    monkeypatch.setattr(model, "align_video", align_video)
    monkeypatch.setattr(classifier, "detect_mistakes", lambda *args: [])
    checks = protocol.Checks()
    s = protocol.SetUp(corpus=corpus, fold=None, feature_bytes=0)
    inference = protocol.Inference(_tiny_workload(), checks, time.perf_counter)
    inference.run(s, None, None, until=8)
    assert (checks.attempted, checks.failed, len(inference.samples)) == (8, 2, 6)
    assert checks.errors[0] == f"{bad}: ValidationError: planted"
    assert checks.problems == []


def test_workload_inputs_follow_the_seed():
    assert set(WORKLOAD_NAMES) == {w["name"] for w in SPEC["workloads"]}
    a, b = make_workload("paper-fold", 7), make_workload("paper-fold", 7)
    assert a == b
    c = make_workload("paper-fold", 8)
    assert len({c.synth.seed, c.split_seed, c.align.seed, c.detect.seed}) == 4
    assert c.synth.seed != a.synth.seed and c.align.seed != a.align.seed


def _tiny_workload() -> Workload:
    return Workload(
        name="tiny",
        synth=SynthConfig(tasks=2, videos_per_task=10, steps_per_task=3, dim=16,
                          frames_per_step=(3, 5), p_exec_mistake=0.6, seed=3),
        split_seed=3,
        align=TrainConfig(epochs=2, working_dim=8, num_queries=4, seed=3),
        detect=ClassifierTrainConfig(epochs=20, hidden=8, seed=3),
        folds_per_run=2, setups_per_fold=2,
        claim=("bench.train_align", "model.batch_loss_and_grads"))


def test_reported_metric_names_match_benchmark_json(tmp_path):
    work = _tiny_workload()
    checks = protocol.Checks()
    plain, detail = bench.untraced(work, 0.0, tmp_path, checks, time.perf_counter)
    assert detail["infer_samples"] >= bench.min_samples(bench.P_TAIL)
    traced, _ = bench.traced(work, tmp_path, checks, time.perf_counter,
                             tmp_path / "trace.json")
    assert checks.problems == [] and checks.failed == 0
    assert list(plain) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(traced) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(spec["name"]), spec["name"]
        reported = (plain | traced)[spec["name"]]
        assert reported["unit"] == spec["unit"]
        assert isinstance(reported["value"], (int, float))
