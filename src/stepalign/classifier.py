"""Segment mistake classifier: mean-pooled segment features concatenated
with the step's text feature, a two-layer ReLU perceptron, and the
class-balanced cross-entropy loss

    weight(label) * -log softmax(z)[label],
    weight(label) = (1 - beta) / (1 - beta^count(label)),

which downweights frequent classes smoothly; a label seen once keeps
weight 1 for any beta. Training is teacher-forced on ground-truth
segments. Segments without a written step (and the whole text side in the
video-only ablation) use a zero text vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import Corpus
from .data import AnnotatedVideo, CoarseLabel, FoldSpec, Segment, coarse_label
from .errors import NumericalError, ValidationError
from .features import mean_pool
from .metrics import Detection, gt_instances, map_at_tiou
from .optim import Adam

_TENSOR_ORDER = ("w1", "b1", "w2", "b2")
NUM_CLASSES = len(CoarseLabel)


@dataclass
class ClassifierParams:
    w1: np.ndarray  # (2d) x h
    b1: np.ndarray  # h
    w2: np.ndarray  # h x 3
    b2: np.ndarray  # 3

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _TENSOR_ORDER}

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(**{k: v.copy() for k, v in self.as_dict().items()})

    @classmethod
    def init(cls, rng: np.random.Generator, input_dim: int,
             hidden: int = 256) -> "ClassifierParams":
        return cls(
            w1=rng.normal(scale=math.sqrt(2.0 / input_dim),
                          size=(input_dim, hidden)),
            b1=np.zeros(hidden),
            w2=rng.normal(scale=math.sqrt(2.0 / hidden),
                          size=(hidden, NUM_CLASSES)),
            b2=np.zeros(NUM_CLASSES),
        )


@dataclass(frozen=True)
class ClassBalanceConfig:
    beta: float
    counts: dict[CoarseLabel, int]

    def validate(self) -> None:
        if not (0.0 <= self.beta < 1.0):
            raise ValidationError(f"beta must be in [0, 1), got {self.beta}")
        for label, count in self.counts.items():
            if count < 1:
                raise ValidationError(f"class {label.name} has count {count}")


def cb_weight(cfg: ClassBalanceConfig, label: CoarseLabel) -> float:
    """Effective-number class weight (1 - beta) / (1 - beta^count)."""
    cfg.validate()
    if label not in cfg.counts:
        raise ValidationError(f"no training count recorded for {label.name}")
    r = cfg.counts[label]
    if cfg.beta == 0.0:
        return 1.0
    return (1.0 - cfg.beta) / (1.0 - cfg.beta ** r)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _forward(params: ClassifierParams, x: np.ndarray) -> np.ndarray:
    h = np.maximum(x @ params.w1 + params.b1, 0.0)
    return h @ params.w2 + params.b2


def classifier_input(video_feats: np.ndarray, seg: Segment,
                     step_feature: np.ndarray) -> np.ndarray:
    return np.concatenate([mean_pool(video_feats, seg), step_feature])


def _text_vector(step_feats: np.ndarray, step: int | None,
                 video_only: bool) -> np.ndarray:
    """The step's text feature; a zero vector for the video-only ablation
    and for segments without a written step."""
    if video_only or step is None:
        return np.zeros(step_feats.shape[1])
    return step_feats[step - 1]


def classify(params: ClassifierParams, video_feats: np.ndarray, seg: Segment,
             step_feature: np.ndarray) -> tuple[np.ndarray, CoarseLabel]:
    """Logits and argmax label; ties go to the lowest class index."""
    x = classifier_input(video_feats, seg, step_feature)
    if x.shape[0] != params.input_dim:
        raise ValidationError(
            f"classifier expects input dim {params.input_dim}, got {x.shape[0]}")
    z = _forward(params, x)
    return z, CoarseLabel(int(np.argmax(z)))


@dataclass(frozen=True)
class ClassifierTrainConfig:
    hidden: int = 256
    epochs: int = 1200
    learning_rate: float = 1e-3
    beta: float = 0.9999
    seed: int = 0
    val_every: int = 10
    video_only: bool = False


@dataclass
class ClassifierTraining:
    fold_id: int
    params: ClassifierParams
    best_epoch: int
    best_val_score: float
    class_counts: dict[CoarseLabel, int] = field(default_factory=dict)


def _gather_samples(corpus: Corpus, video_ids: tuple[str, ...],
                    video_only: bool) -> tuple[np.ndarray, np.ndarray]:
    """Teacher-forced design matrix: one row per annotated segment."""
    xs, ys = [], []
    for vid in video_ids:
        video = corpus.video_by_id(vid)
        feats = corpus.video_features(vid)
        step_feats = corpus.task_step_features(video.task)
        for seg in video.segments:
            text = _text_vector(step_feats, seg.step, video_only)
            xs.append(classifier_input(feats, seg.segment, text))
            ys.append(int(coarse_label(seg.mistake)))
    if not xs:
        raise ValidationError("no annotated segments to train on")
    return np.stack(xs), np.asarray(ys, dtype=np.int64)


def _batch_loss_and_grads(params: ClassifierParams, x: np.ndarray,
                          y: np.ndarray, weights: np.ndarray
                          ) -> tuple[float, dict[str, np.ndarray]]:
    n = x.shape[0]
    h_pre = x @ params.w1 + params.b1
    h = np.maximum(h_pre, 0.0)
    z = h @ params.w2 + params.b2
    log_probs = _log_softmax(z)
    losses = -log_probs[np.arange(n), y] * weights
    loss = float(np.mean(losses))
    probs = np.exp(log_probs)
    d_z = probs.copy()
    d_z[np.arange(n), y] -= 1.0
    d_z *= (weights / n)[:, None]
    grads = {
        "w2": h.T @ d_z,
        "b2": d_z.sum(axis=0),
    }
    d_h = d_z @ params.w2.T
    d_h[h_pre <= 0.0] = 0.0
    grads["w1"] = x.T @ d_h
    grads["b1"] = d_h.sum(axis=0)
    return loss, grads


def _val_score(params: ClassifierParams, corpus: Corpus,
               video_ids: tuple[str, ...], video_only: bool) -> float:
    """Checkpoint-selection score: average mAP of classified ground-truth
    segments; falls back to mean correctness when the val split carries no
    mistake ground truth at all."""
    detections: dict[str, list[Detection]] = {}
    ground_truth = {}
    hits, total = 0, 0
    for vid in video_ids:
        video = corpus.video_by_id(vid)
        dets = detect_on_segments(params, corpus, video, video_only=video_only)
        detections[vid] = dets
        ground_truth[vid] = gt_instances(video)
        for det, seg in zip(dets, video.segments):
            total += 1
            hits += det.label == coarse_label(seg.mistake)
    has_positives = any(ground_truth.values())
    if not has_positives:
        return hits / total if total else 0.0
    return map_at_tiou(detections, ground_truth).average


def detect_on_segments(params: ClassifierParams, corpus: Corpus,
                       video: AnnotatedVideo,
                       video_only: bool = False) -> list[Detection]:
    """Classify every annotated segment of a video (the oracle-segment
    evaluation arm and the validation scorer)."""
    feats = corpus.video_features(video.video_id)
    step_feats = corpus.task_step_features(video.task)
    out = []
    for seg in video.segments:
        text = _text_vector(step_feats, seg.step, video_only)
        z, label = classify(params, feats, seg.segment, text)
        probs = np.exp(_log_softmax(z))
        out.append(Detection(step=seg.step, segment=seg.segment, label=label,
                             confidence=float(probs[int(label)])))
    return out


def detect_mistakes(params: ClassifierParams,
                    alignment: list[tuple[int | None, Segment]],
                    video_feats: np.ndarray, step_feats: np.ndarray,
                    video_only: bool = False) -> list[Detection]:
    """Classify the segments proposed by the alignment model; confidence is
    the softmax probability of the predicted class. A step-``None``
    proposal gets the zero text vector."""
    out = []
    for step, seg in alignment:
        text = _text_vector(step_feats, step, video_only)
        z, label = classify(params, video_feats, seg, text)
        probs = np.exp(_log_softmax(z))
        out.append(Detection(step=step, segment=seg, label=label,
                             confidence=float(probs[int(label)])))
    return out


def train_classifier_fold(corpus: Corpus, fold: FoldSpec,
                          config: ClassifierTrainConfig) -> ClassifierTraining:
    """Full-batch Adam on the fold's teacher-forced segments; returns the
    checkpoint with the best validation score (earlier epoch wins ties)."""
    corpus.set_phase(f"fold{fold.fold_id}:train-detect")
    x, y = _gather_samples(corpus, fold.train, config.video_only)
    counts = {label: int(np.sum(y == int(label))) for label in CoarseLabel}
    missing = [label.name for label, c in counts.items() if c == 0]
    if missing:
        raise ValidationError(
            f"fold {fold.fold_id}: no training samples for {missing}; "
            "merge folds or regenerate the corpus with more mistakes")
    balance = ClassBalanceConfig(beta=config.beta, counts=counts)
    weights = np.array([cb_weight(balance, CoarseLabel(int(lbl))) for lbl in y])

    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(202, fold.fold_id,
                                                       int(config.video_only))))
    params = ClassifierParams.init(rng, input_dim=x.shape[1],
                                   hidden=config.hidden)
    opt = Adam(config.learning_rate)
    best = ClassifierTraining(fold_id=fold.fold_id, params=params.copy(),
                              best_epoch=-1, best_val_score=-1.0,
                              class_counts=counts)
    for epoch in range(config.epochs):
        loss, grads = _batch_loss_and_grads(params, x, y, weights)
        if not math.isfinite(loss):
            raise NumericalError(
                f"fold {fold.fold_id} epoch {epoch}: non-finite classifier loss")
        tensors = params.as_dict()
        opt.step(tensors, grads)
        if epoch % config.val_every == 0 or epoch == config.epochs - 1:
            score = _val_score(params, corpus, fold.val, config.video_only)
            if score > best.best_val_score:
                best.best_val_score = score
                best.best_epoch = epoch
                best.params = params.copy()
    return best


def save_classifier(path, training: ClassifierTraining,
                    config: ClassifierTrainConfig) -> None:
    meta = {
        "kind": "classifier",
        "input_dim": training.params.input_dim,
        "hidden": training.params.w1.shape[1],
        "seed": config.seed,
        "epoch": training.best_epoch,
        "val_score": training.best_val_score,
        "video_only": config.video_only,
        "fold_id": training.fold_id,
        "class_counts": {l.name.lower(): c
                         for l, c in training.class_counts.items()},
    }
    save_checkpoint(path, training.params.as_dict(), meta)


def load_classifier(path) -> tuple[ClassifierParams, dict]:
    tensors, meta = load_checkpoint(path)
    missing = [n for n in _TENSOR_ORDER if n not in tensors]
    if missing:
        raise ValidationError(f"{path}: checkpoint missing tensors {missing}")
    return ClassifierParams(**{n: tensors[n] for n in _TENSOR_ORDER}), meta


__all__ = [
    "NUM_CLASSES", "ClassifierParams", "ClassBalanceConfig", "cb_weight",
    "classify", "classifier_input",
    "ClassifierTrainConfig", "ClassifierTraining", "detect_on_segments",
    "detect_mistakes", "train_classifier_fold",
    "save_classifier", "load_classifier",
]
