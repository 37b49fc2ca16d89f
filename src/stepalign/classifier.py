"""Segment mistake classifier: mean-pooled segment features concatenated
with the step's text feature, a two-layer ReLU perceptron, and the
class-balanced cross-entropy loss

    weight(label) * -log softmax(z)[label],
    weight(label) = (1 - beta) / (1 - beta^count(label)),

which downweights frequent classes smoothly; a label seen once keeps
weight 1 for any beta. Training is teacher-forced on ground-truth
segments. Segments without a written step (and the whole text side in the
video-only ablation) use a zero text vector.

Every path from segments to labels is the same two calls:
``classifier_rows`` builds one input row per ``(step, segment)`` pair and
``classify`` labels a whole row matrix with one forward. Training rows,
validation rows and detections all come from them; a fold builds its
validation rows once and rescores them each validation round.
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
from .metrics import Detection, GroundTruthInstance, gt_instances, map_at_tiou
from .optim import Adam

_TENSOR_ORDER = ("w1", "b1", "w2", "b2")
NUM_CLASSES = len(CoarseLabel)
_Proposals = list[tuple[int | None, Segment]]    # (step, segment) pairs


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


def class_balanced_weights(beta: float, counts: list[int]) -> np.ndarray:
    """Effective-number weight (1 - beta) / (1 - beta^count) of each class,
    indexed by class; ``counts[k]`` is the number of training rows of
    class k."""
    if not (0.0 <= beta < 1.0):
        raise ValidationError(f"beta must be in [0, 1), got {beta}")
    for label, count in enumerate(counts):
        if count < 1:
            raise ValidationError(
                f"class {CoarseLabel(label).name} has count {count}")
    return np.array([(1.0 - beta) / (1.0 - beta ** count) for count in counts])


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _text_vector(step_feats: np.ndarray, step: int | None,
                 video_only: bool) -> np.ndarray:
    """The step's text feature; a zero vector for the video-only ablation
    and for segments without a written step."""
    if video_only or step is None:
        return np.zeros(step_feats.shape[1])
    return step_feats[step - 1]


def classifier_rows(video_feats: np.ndarray, proposals: _Proposals,
                    step_feats: np.ndarray, video_only: bool) -> np.ndarray:
    """One input row per ``(step, segment)`` proposal of a video: the
    segment's mean-pooled features, then the step's text vector."""
    width = video_feats.shape[1] + step_feats.shape[1]
    rows = [np.concatenate([mean_pool(video_feats, seg),
                            _text_vector(step_feats, step, video_only)])
            for step, seg in proposals]
    return np.stack(rows) if rows else np.empty((0, width))


def classify(params: ClassifierParams,
             x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logits and argmax class index of every row of ``x``; ties go to the
    lowest class index."""
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValidationError(
            f"classifier expects rows of width {params.input_dim}, "
            f"got shape {x.shape}")
    h = np.maximum(x @ params.w1 + params.b1, 0.0)
    z = h @ params.w2 + params.b2
    return z, np.argmax(z, axis=1)


def _detections(proposals: _Proposals, z: np.ndarray,
                labels: np.ndarray) -> list[Detection]:
    """Detections from the logits of the proposals' rows; confidence is the
    softmax probability of the predicted class."""
    probs = np.exp(_log_softmax(z))
    return [Detection(step=step, segment=seg, label=CoarseLabel(int(k)),
                      confidence=float(p[k]))
            for (step, seg), p, k in zip(proposals, probs, labels)]


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


def _segment_rows(corpus: Corpus, video_ids: tuple[str, ...], video_only: bool
                  ) -> tuple[np.ndarray, np.ndarray, dict[str, _Proposals]]:
    """A split's teacher-forced rows, one per annotated segment in video
    order; their true labels; and each video's ``(step, segment)`` pairs."""
    xs, ys, proposals = [], [], {}
    for vid in video_ids:
        video = corpus.video_by_id(vid)
        proposals[vid] = [(seg.step, seg.segment) for seg in video.segments]
        xs.append(classifier_rows(corpus.video_features(vid), proposals[vid],
                                  corpus.task_step_features(video.task),
                                  video_only))
        ys += [int(coarse_label(seg.mistake)) for seg in video.segments]
    x = np.concatenate(xs) if xs else np.empty((0, 0))
    return x, np.asarray(ys, dtype=np.int64), proposals


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


def _val_score(params: ClassifierParams, x: np.ndarray, y: np.ndarray,
               proposals: dict[str, _Proposals],
               truth: dict[str, list[GroundTruthInstance]]) -> float:
    """Checkpoint-selection score of the val rows: average mAP of their
    detections; falls back to mean correctness when the val split carries
    no mistake ground truth at all, and to 0.0 when it has no segments."""
    if not y.size:
        return 0.0
    z, labels = classify(params, x)
    if not any(truth.values()):
        return float(np.mean(labels == y))
    detections, start = {}, 0
    for vid, video_proposals in proposals.items():
        end = start + len(video_proposals)
        detections[vid] = _detections(video_proposals, z[start:end],
                                      labels[start:end])
        start = end
    return map_at_tiou(detections, truth).average


def detect_on_segments(params: ClassifierParams, corpus: Corpus,
                       video: AnnotatedVideo,
                       video_only: bool = False) -> list[Detection]:
    """Classify every annotated segment of a video (the oracle-segment
    evaluation arm)."""
    return detect_mistakes(
        params, [(seg.step, seg.segment) for seg in video.segments],
        corpus.video_features(video.video_id),
        corpus.task_step_features(video.task), video_only)


def detect_mistakes(params: ClassifierParams,
                    alignment: list[tuple[int | None, Segment]],
                    video_feats: np.ndarray, step_feats: np.ndarray,
                    video_only: bool = False) -> list[Detection]:
    """Classify the segments proposed by the alignment model; confidence is
    the softmax probability of the predicted class. A step-``None``
    proposal gets the zero text vector."""
    z, labels = classify(params, classifier_rows(video_feats, alignment,
                                                 step_feats, video_only))
    return _detections(alignment, z, labels)


def train_classifier_fold(corpus: Corpus, fold: FoldSpec,
                          config: ClassifierTrainConfig) -> ClassifierTraining:
    """Full-batch Adam on the fold's teacher-forced segments; returns the
    checkpoint with the best validation score (earlier epoch wins ties).
    The val rows are built once, before the first epoch."""
    corpus.check_fold(fold)
    corpus.set_phase(f"fold{fold.fold_id}:train-detect")
    x, y, _ = _segment_rows(corpus, fold.train, config.video_only)
    counts = {label: int(np.sum(y == int(label))) for label in CoarseLabel}
    missing = [label.name for label, c in counts.items() if c == 0]
    if missing:
        raise ValidationError(
            f"fold {fold.fold_id}: no training samples for {missing}; "
            "merge folds or regenerate the corpus with more mistakes")
    weights = class_balanced_weights(config.beta, list(counts.values()))[y]
    val = _segment_rows(corpus, fold.val, config.video_only)
    val_truth = {vid: gt_instances(corpus.video_by_id(vid)) for vid in fold.val}

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
            score = _val_score(params, *val, val_truth)
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
    "NUM_CLASSES", "ClassifierParams", "class_balanced_weights",
    "classifier_rows", "classify",
    "ClassifierTrainConfig", "ClassifierTraining", "detect_on_segments",
    "detect_mistakes", "train_classifier_fold",
    "save_classifier", "load_classifier",
]
