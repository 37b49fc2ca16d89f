"""Fold 0 of the paper's protocol, driven through the public stepalign API:
set-up, alignment training, classifier training, test evaluation, and an
inference pass over the whole corpus. Every call into the library goes
through a module attribute, so the traced run sees it.

Each stage returns its outputs; the caller times the stages. Checks on
the outputs are collected in a ``Checks`` object rather than raised, so
a run always reports how many operations it attempted and which failed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stepalign import classifier, data, metrics, model, splits, synth
from stepalign import corpus as corpus_mod
from stepalign.errors import StepAlignError

from workloads import FOLD_ID, NUM_FOLDS, Workload

TRAIN_PHASES = (f"fold{FOLD_ID}:train-align", f"fold{FOLD_ID}:train-detect")
TEST_PHASE = f"fold{FOLD_ID}:test"
INFER_PHASE = "infer"


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def failure(self, video_id: str, exc: StepAlignError) -> None:
        self.failed += 1
        self.errors.append(f"{video_id}: {type(exc).__name__}: {exc}")


@dataclass
class SetUp:
    corpus: corpus_mod.Corpus
    fold: data.FoldSpec
    feature_bytes: int   # written by Corpus.save, read back by from_dir


def set_up(work: Workload, workdir: Path) -> SetUp:
    """Synthesize the corpus, round-trip it through disk, split it and
    round-trip the folds."""
    generated = synth.synth_corpus(work.synth)
    corpus_dir = workdir / "corpus"
    generated.corpus.save(corpus_dir)
    corpus = corpus_mod.Corpus.from_dir(corpus_dir)
    folds = splits.make_group_kfold(corpus.videos, NUM_FOLDS, work.split_seed)
    data.save_folds(workdir / "folds.json", folds)
    fold = data.load_folds(workdir / "folds.json")[FOLD_ID]
    feature_bytes = sum(entry.stat().st_size
                        for entry in os.scandir(corpus_dir / "features"))
    return SetUp(corpus=corpus, fold=fold, feature_bytes=feature_bytes)


def train_align(work: Workload, s: SetUp, workdir: Path):
    """Alignment training, then a checkpoint save and load as the CLI
    would do; later stages use the reloaded parameters."""
    training = model.train_alignment_fold(s.corpus, s.fold, work.align)
    path = workdir / "align.ckpt"
    model.save_model(path, training, work.align)
    params, _ = model.load_model(path)
    return params, training, path.stat().st_size


def train_detect(work: Workload, s: SetUp, workdir: Path):
    training = classifier.train_classifier_fold(s.corpus, s.fold, work.detect)
    path = workdir / "detect.ckpt"
    classifier.save_classifier(path, training, work.detect)
    params, _ = classifier.load_classifier(path)
    return params, training, path.stat().st_size


def check_segments(alignment, video, num_steps: int, checks: Checks) -> None:
    """Decoded segments lie inside their video, one at most per step."""
    steps = [step for step, _ in alignment]
    if len(set(steps)) != len(steps):
        checks.problem(f"{video.video_id}: a step has several segments")
    for step, seg in alignment:
        if not (1 <= step <= num_steps
                and 0 <= seg.start < seg.end <= video.num_frames):
            checks.problem(
                f"{video.video_id}: step {step} segment [{seg.start}, "
                f"{seg.end}) outside {num_steps} steps x {video.num_frames} frames")


def _video_inputs(s: SetUp, video_id: str):
    video = s.corpus.video_by_id(video_id)
    return (video, s.corpus.video_features(video_id),
            s.corpus.task_step_features(video.task))


def evaluate(work: Workload, s: SetUp, align_params, detect_params,
             checks: Checks) -> dict[str, float]:
    """Test-split quality: decoder and raw-feature frame F1, and mAP of
    classified aligned segments and of classified ground-truth segments."""
    s.corpus.set_phase(TEST_PHASE)
    f1, f1_raw = [], []
    aligned, oracle, truth = {}, {}, {}
    for video_id in s.fold.test:
        video, frames, step_feats = _video_inputs(s, video_id)
        checks.attempted += 1
        try:
            alignment = model.align_video(
                align_params, frames, step_feats, drop_pct=work.align.drop_pct,
                normalize_features=work.align.normalize_features)
            raw = model.align_frames_to_slots(step_feats, frames,
                                              work.align.drop_pct)
            aligned[video_id] = classifier.detect_mistakes(
                detect_params, alignment, frames, step_feats)
            oracle[video_id] = classifier.detect_on_segments(
                detect_params, s.corpus, video)
        except StepAlignError as exc:
            checks.failure(video_id, exc)
            continue
        num_steps = step_feats.shape[0]
        check_segments(alignment, video, num_steps, checks)
        check_segments(raw, video, num_steps, checks)
        gt = metrics.gt_frame_labels(video)
        f1.append(metrics.frame_metrics(
            metrics.rasterize(alignment, video.num_frames), gt)["f1"])
        f1_raw.append(metrics.frame_metrics(
            metrics.rasterize(raw, video.num_frames), gt)["f1"])
        truth[video_id] = metrics.gt_instances(video)
    quality = {
        "test_f1": float(np.mean(f1)) if f1 else 0.0,
        "test_f1_raw": float(np.mean(f1_raw)) if f1_raw else 0.0,
        "map_aligned": metrics.map_at_tiou(aligned, truth).average,
        "map_oracle": metrics.map_at_tiou(oracle, truth).average,
    }
    for name in ("map_aligned", "map_oracle"):
        if not 0.0 <= quality[name] <= 1.0:
            checks.problem(f"{name} = {quality[name]} outside [0, 1]")
    return quality


class Inference:
    """Aligns and classifies the corpus videos in a fixed cycle, one slice
    at a time, so that a run can spread its latency samples over its whole
    length. Every video's result must repeat its first result exactly."""

    def __init__(self, work: Workload, checks: Checks, clock):
        self.work = work
        self.checks = checks
        self.clock = clock
        self.samples: list[float] = []   # milliseconds, one per video
        self.done = 0                    # videos processed, failures too
        self._first: dict[str, list] = {}

    def run(self, s: SetUp, align_params, detect_params,
            seconds: float = 0.0, until: int = 0) -> None:
        """Go on until ``seconds`` have passed and ``until`` videos are
        done in total."""
        s.corpus.set_phase(INFER_PHASE)
        videos = s.corpus.videos
        start = self.clock()
        while self.clock() - start < seconds or self.done < until:
            video, frames, step_feats = _video_inputs(
                s, videos[self.done % len(videos)].video_id)
            self.done += 1
            self.checks.attempted += 1
            t0 = self.clock()
            try:
                alignment = model.align_video(
                    align_params, frames, step_feats,
                    drop_pct=self.work.align.drop_pct,
                    normalize_features=self.work.align.normalize_features)
                detections = classifier.detect_mistakes(
                    detect_params, alignment, frames, step_feats)
            except StepAlignError as exc:
                self.checks.failure(video.video_id, exc)
                continue
            self.samples.append((self.clock() - t0) * 1e3)
            result = [(d.step, d.segment.start, d.segment.end, int(d.label),
                       d.confidence) for d in detections]
            first = self._first.setdefault(video.video_id, result)
            if first is result:
                check_segments(alignment, video, step_feats.shape[0],
                               self.checks)
            elif first != result:
                self.checks.problem(
                    f"{video.video_id}: inference differs from its first run")


def leak_audit(access_log, test_ids) -> list[str]:
    """Test-split videos whose features were read while training."""
    test = set(test_ids)
    return sorted({f"{video_id} read under {phase}"
                   for phase, video_id in access_log
                   if phase in TRAIN_PHASES and video_id in test})
