"""Synthetic feature corpus with planted ground truth.

Each task gets unit-norm step prototypes sharing a common "activity"
anchor direction, so in-step frames correlate with every prototype while
background frames anti-correlate with all of them. That geometry keeps the
percentile drop cost between the match-cost mass and the background mass,
which is what makes the planted alignments recoverable.

Mistake-run videos are perturbed with the configured probabilities:
steps can be skipped, adjacent steps swapped, steps split into two
segments, and step executions replaced by mistakes. Wrong-object mistakes
emit another step's prototype (only the paired step text reveals them);
accident/how-to mistakes blend in a dedicated mistake direction; mispick,
correction and other mistakes appear as short extra segments with no step.
Correct-run videos are always clean. The annotations are the one record
of what was planted: they record exactly what was emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .data import (
    AnnotatedSegment, AnnotatedVideo, Intent, MistakeLabel, ProceduralText,
    Segment, TaskDomain,
)
from .errors import ValidationError, check_counts, check_numbers

# step directions are exactly orthogonal planes mixed with a shared anchor,
# so the pairwise prototype cosine equals the squared anchor weight: 0.45,
# under the 0.5 separation cap. Backgrounds point against the anchor, which
# parks their match costs far above the cross-step cost mass and lets the
# percentile drop cost separate the two cleanly.
_ANCHOR_WEIGHT = float(np.sqrt(0.45))
_BG_ANTI_WEIGHT = 0.5       # background weight against the anchor
_PROTO_MAX_COS = 0.5        # hard cap on pairwise prototype cosine
_BG_MAX_COS = 0.2           # backgrounds must stay below this against prototypes
_MAX_REJECT = 2000

_STEP_VERBS = ("attach", "mix", "pour", "place", "fold", "connect",
               "measure", "cut", "press", "check")

_DESCRIPTIONS = {
    MistakeLabel.OBJECT: "use wrong object in step {step}",
    MistakeLabel.MISPICK: "grasp unneeded object",
    MistakeLabel.CORRECTION: "correct error in step {step}",
    MistakeLabel.ACCIDENT: "unintended action in step {step}",
    MistakeLabel.HOWTO: "perform step {step} in the wrong way",
    MistakeLabel.OTHERS: "other deviation near step {step}",
}


@dataclass(frozen=True)
class SynthConfig:
    """Its rules run when it is built, and again in ``dataclasses.replace``."""
    tasks: int = 5
    videos_per_task: int = 10
    workers: int = 4
    steps_per_task: int = 8
    dim: int = 64
    # short gaps keep the background mass under the drop-cost percentile
    frames_per_step: tuple[int, int] = (14, 22)
    background_gap: tuple[int, int] = (1, 2)
    noise_sigma: float = 0.05
    p_skip: float = 0.05
    p_swap: float = 0.05
    p_split: float = 0.1
    p_exec_mistake: float = 0.2
    # one weight per MistakeLabel after CORRECT, in the enum's order
    exec_kind_weights: tuple[float, ...] = (3.0, 1.0, 3.0, 1.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        # types first, so that the rules below compare numbers only: a
        # count is an int, not 2.0, 14.5, True or "3"
        check_counts(self, ("tasks", "videos_per_task", "workers",
                            "steps_per_task", "dim", "frames_per_step"),
                     types_only=True)
        check_counts(self, ("background_gap",), minimum=0, types_only=True)
        check_counts(self, ("seed",), minimum=0)
        check_numbers(self, ("noise_sigma", "p_skip", "p_swap", "p_split",
                             "p_exec_mistake", "exec_kind_weights"))
        if not (1 <= self.tasks <= len(TaskDomain)):
            raise ValidationError(f"tasks must be 1..{len(TaskDomain)}")
        if self.videos_per_task < 1 or self.workers < 1:
            raise ValidationError("need at least one video and one worker")
        if self.steps_per_task < 1:
            raise ValidationError("steps_per_task must be >= 1")
        if self.dim < self.steps_per_task + 3:
            raise ValidationError(
                f"dim {self.dim} too small for {self.steps_per_task} steps "
                f"(need >= steps_per_task + 3)")
        for name, low in (("frames_per_step", 1), ("background_gap", 0)):
            pair = getattr(self, name)
            if not isinstance(pair, tuple) or len(pair) != 2 \
                    or pair[0] > pair[1] or pair[0] < low:
                raise ValidationError(f"{name} range {pair} is empty or invalid")
        for name, p in (("p_skip", self.p_skip), ("p_swap", self.p_swap),
                        ("p_split", self.p_split),
                        ("p_exec_mistake", self.p_exec_mistake)):
            if not (0.0 <= p <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1]")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be >= 0")
        if not np.isfinite(self.noise_sigma):
            raise ValidationError(
                f"noise_sigma must be finite, got {self.noise_sigma}")
        weights = self.exec_kind_weights
        if len(weights) != 6 or not all(0 <= w < np.inf for w in weights) \
                or sum(weights) <= 0:
            raise ValidationError(
                f"exec_kind_weights must be 6 nonnegative finite weights, "
                f"not all zero, got {weights}")


@dataclass
class TaskVectors:
    prototypes: np.ndarray   # K x dim, unit rows
    mistake_dir: np.ndarray  # unit vector for accident/mispick flavors
    correct_dir: np.ndarray  # unit vector for correction flavor
    anchor: np.ndarray       # shared activity direction


@dataclass
class SynthResult:
    corpus: Corpus


def _quantize(m: np.ndarray) -> np.ndarray:
    # float32 is the storage precision; quantizing up front makes the
    # in-memory corpus identical to a saved-and-reloaded one
    return m.astype(np.float32)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _orthogonal_unit(rng: np.random.Generator, anchor: np.ndarray) -> np.ndarray:
    g = rng.normal(size=anchor.shape[0])
    g -= np.dot(g, anchor) * anchor
    norm = np.linalg.norm(g)
    if norm < 1e-9:
        return _orthogonal_unit(rng, anchor)
    return g / norm


def _make_task_vectors(rng: np.random.Generator, k: int, dim: int) -> TaskVectors:
    """``k`` separated step prototypes plus the mistake/correction
    directions; ``SynthConfig`` ensures ``dim >= k + 3``."""
    anchor = _unit(rng.normal(size=dim))
    raw = rng.normal(size=(dim, k + 2))
    raw -= np.outer(anchor, anchor @ raw)
    planes, _ = np.linalg.qr(raw)
    coef = np.sqrt(1.0 - _ANCHOR_WEIGHT ** 2)
    protos = np.stack([coef * planes[:, i] + _ANCHOR_WEIGHT * anchor
                       for i in range(k)])
    sims = protos @ protos.T
    np.fill_diagonal(sims, 0.0)
    if k > 1 and sims.max() >= _PROTO_MAX_COS:
        raise ValidationError(
            f"prototype separation failed: max pairwise cosine {sims.max():.3f}")
    bg_coef = np.sqrt(1.0 - _BG_ANTI_WEIGHT ** 2)
    mistake_dir = _unit(bg_coef * planes[:, k] - _BG_ANTI_WEIGHT * anchor)
    correct_dir = _unit(bg_coef * planes[:, k + 1] - _BG_ANTI_WEIGHT * anchor)
    return TaskVectors(prototypes=protos, mistake_dir=mistake_dir,
                       correct_dir=correct_dir, anchor=anchor)


def _background_frame(rng: np.random.Generator, vectors: TaskVectors) -> np.ndarray:
    coef = np.sqrt(1.0 - _BG_ANTI_WEIGHT ** 2)
    for _ in range(_MAX_REJECT):
        g = _orthogonal_unit(rng, vectors.anchor)
        bg = coef * g - _BG_ANTI_WEIGHT * vectors.anchor
        if float(np.max(vectors.prototypes @ bg)) < _BG_MAX_COS:
            return bg
    raise ValidationError("background sampling kept colliding with prototypes")


@dataclass
class _Event:
    """A contiguous emission: its content direction plus its annotation."""

    content: np.ndarray
    step: int | None
    mistake: MistakeLabel
    length: int


def _plan_video(rng: np.random.Generator, cfg: SynthConfig, k: int,
                vectors: TaskVectors, mistake_run: bool) -> list[_Event]:
    f_lo, f_hi = cfg.frames_per_step
    protos = vectors.prototypes

    def step_len() -> int:
        return int(rng.integers(f_lo, f_hi + 1))

    def extra_len() -> int:
        return int(rng.integers(2, max(3, f_lo // 2) + 1))

    sequence = list(range(1, k + 1))
    if mistake_run:
        sequence = [step for step in sequence if rng.random() >= cfg.p_skip]
        i = 0
        while i < len(sequence) - 1:
            if rng.random() < cfg.p_swap:
                sequence[i], sequence[i + 1] = sequence[i + 1], sequence[i]
                i += 2
            else:
                i += 1

    kind_p = np.asarray(cfg.exec_kind_weights, dtype=np.float64)
    kind_p = kind_p / kind_p.sum()

    events: list[_Event] = []
    for step in sequence:
        proto = protos[step - 1]
        exec_kind: MistakeLabel | None = None
        if mistake_run and rng.random() < cfg.p_exec_mistake:
            exec_kind = tuple(MistakeLabel)[1:][int(rng.choice(6, p=kind_p))]

        if exec_kind == MistakeLabel.MISPICK:
            events.append(_Event(vectors.mistake_dir, None,
                                 MistakeLabel.MISPICK, extra_len()))

        if exec_kind == MistakeLabel.OBJECT and k > 1:
            wrong = int(rng.choice([s for s in range(1, k + 1) if s != step]))
            content, label = protos[wrong - 1], MistakeLabel.OBJECT
        elif exec_kind in (MistakeLabel.OBJECT, MistakeLabel.ACCIDENT,
                           MistakeLabel.HOWTO):
            # a single-step task's OBJECT has no other prototype to emit
            content, label = _unit(proto + vectors.mistake_dir), exec_kind
        else:
            content, label = proto, MistakeLabel.CORRECT

        length = step_len()
        if mistake_run and rng.random() < cfg.p_split and length >= 2:
            cut = int(rng.integers(1, length))
            events.append(_Event(content, step, label, cut))
            events.append(_Event(content, step, label, length - cut))
        else:
            events.append(_Event(content, step, label, length))

        if exec_kind == MistakeLabel.CORRECTION:
            events.append(_Event(vectors.correct_dir, None,
                                 MistakeLabel.CORRECTION, extra_len()))
        elif exec_kind == MistakeLabel.OTHERS:
            events.append(_Event(vectors.mistake_dir, None,
                                 MistakeLabel.OTHERS, extra_len()))

    return events


def _materialize(rng: np.random.Generator, cfg: SynthConfig,
                 vectors: TaskVectors, events: list[_Event]
                 ) -> tuple[np.ndarray, list[AnnotatedSegment]]:
    g_lo, g_hi = cfg.background_gap
    # whole float32 blocks, each background frame 1 x dim and each event
    # length x dim, joined once at the end: no float64 frames x dim matrix
    blocks: list[np.ndarray] = []
    num_frames = 0
    segments: list[AnnotatedSegment] = []

    def emit_background() -> None:
        nonlocal num_frames
        gap = int(rng.integers(g_lo, g_hi + 1))
        for _ in range(gap):
            blocks.append(_quantize(_background_frame(rng, vectors)[None]))
        num_frames += gap

    for event in events:
        emit_background()
        start = num_frames
        # one draw for the event: the same stream as one draw per frame
        block = np.broadcast_to(event.content, (event.length, cfg.dim))
        if cfg.noise_sigma > 0:
            block = block + rng.normal(0.0, cfg.noise_sigma,
                                       (event.length, cfg.dim))
        blocks.append(_quantize(block))
        num_frames += event.length
        description = None
        if event.mistake != MistakeLabel.CORRECT:
            near = event.step if event.step is not None else _nearest_step(segments)
            description = _DESCRIPTIONS[event.mistake].format(step=near)
        segments.append(AnnotatedSegment(
            segment=Segment(start, num_frames),
            step=event.step, mistake=event.mistake, description=description))
    emit_background()
    if not num_frames:
        blocks.append(_quantize(_background_frame(rng, vectors)[None]))
    return np.concatenate(blocks), segments


def _nearest_step(segments: list[AnnotatedSegment]) -> int:
    for seg in reversed(segments):
        if seg.step is not None:
            return seg.step
    return 1


def synth_corpus(cfg: SynthConfig) -> SynthResult:
    """Generate texts, annotated videos, per-video features and per-task
    step features; byte-identical for identical configs."""
    tasks = list(TaskDomain)[:cfg.tasks]
    k = cfg.steps_per_task

    texts: dict[TaskDomain, ProceduralText] = {}
    step_features: dict[TaskDomain, np.ndarray] = {}
    task_vectors: dict[TaskDomain, TaskVectors] = {}
    for t_idx, task in enumerate(tasks):
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(1, t_idx)))
        vectors = _make_task_vectors(rng, k, cfg.dim)
        task_vectors[task] = vectors
        step_features[task] = _quantize(vectors.prototypes)
        steps = tuple(
            f"step {s}: {_STEP_VERBS[(s * 7 + t_idx) % len(_STEP_VERBS)]} "
            f"part {s} of the {task.value.replace('_', ' ')}"
            for s in range(1, k + 1))
        texts[task] = ProceduralText(task=task, steps=steps)

    n_correct = (cfg.videos_per_task + 1) // 2
    videos: list[AnnotatedVideo] = []
    features: dict[str, np.ndarray] = {}
    for t_idx, task in enumerate(tasks):
        for v_idx in range(cfg.videos_per_task):
            correct_run = v_idx < n_correct
            group_idx = v_idx if correct_run else v_idx - n_correct
            intent = Intent.CORRECT_RUN if correct_run else Intent.MISTAKE_RUN
            video_id = f"{task.value}_{'c' if correct_run else 'm'}{group_idx:02d}"
            worker_id = f"w{group_idx % cfg.workers}"
            rng = np.random.default_rng(
                np.random.SeedSequence(cfg.seed, spawn_key=(2, t_idx, v_idx)))
            events = _plan_video(rng, cfg, k, task_vectors[task],
                                 mistake_run=not correct_run)
            matrix, segments = _materialize(rng, cfg, task_vectors[task], events)
            videos.append(AnnotatedVideo(
                video_id=video_id, worker_id=worker_id, task=task,
                intent=intent, num_frames=matrix.shape[0],
                segments=tuple(segments)))
            features[video_id] = matrix

    videos.sort(key=lambda v: v.video_id)
    corpus = Corpus(texts=texts, videos=videos, features=features,
                    step_features=step_features)
    return SynthResult(corpus=corpus)


__all__ = ["SynthConfig", "SynthResult", "synth_corpus"]
