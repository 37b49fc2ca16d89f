"""Segment mistake classifier: mean-pooled segment features, followed by
the step's text feature unless the classifier is video-only, a two-layer
ReLU perceptron, and the class-balanced cross-entropy loss

    weight(label) * -log softmax(z)[label],
    weight(label) = (1 - beta) / (1 - beta^count(label)),

which downweights frequent classes smoothly; a label seen once keeps
weight 1 for any beta, and training takes beta = ``_BETA`` (0.9999).
Training is teacher-forced on ground-truth segments. Segments without a
written step use a zero text vector.

The first layer's width is the one record of the input layout: a
classifier exactly as wide as the video features is the video-only
ablation and reads no text, and detection works this out from the
weights rather than from an argument.

Every path from segments to labels is the same two calls:
``classifier_rows`` builds one input row per ``(step, segment)`` pair and
``classify`` labels a whole row matrix with one forward. Training rows,
validation rows and detections all come from them; a fold builds its
validation rows once and rescores them each validation round.

The names in ``__all__`` check what they are handed, once:
``detect_mistakes`` its frames, step texts, classifier width and
proposals; the trainer and ``detect_on_segments`` read matrices that a
``Corpus`` checked when it was built. The names outside it, ``mean_pool``,
``classifier_rows``, ``classify`` and ``class_balanced_weights`` among
them, take the checked values they pass on and check none of them.

Training hands ``optim.fit`` one full-batch step per epoch and the val
score, validated every ``_VAL_EVERY`` (10) epochs and at the last.
``fit`` runs Adam, at the learning rate ``optim._LEARNING_RATE`` (1e-3)
of both trainers, over the parameters' one flat buffer, keeps the
checkpoint with the best val score and stops at the first validation
round ``_PATIENCE`` (300) or more epochs after that checkpoint's epoch,
so a run of at most 300 epochs runs every epoch. A fold allocates its
hidden activations, the ReLU mask and the parameter gradients once, in a
workspace; the backward writes the activations' gradient over the
activations, which it no longer reads, and each epoch writes into them
in place, so it allocates no array of n x hidden size.

The classifier computes in the dtype of its features
(``optim.compute_dtype``), as the decoder does: ``classifier_rows``
pools in float64 and returns rows in that dtype, float32 for a corpus
and float64 for float64 arrays. ``classify`` and each epoch cast the
float64 master parameters once to the rows' dtype, and each product
lands in the float64 gradients, so Adam's moments, the best copy and
the gradient sums stay float64, as in mixed-precision training
(Micikevicius et al., "Mixed Precision Training", ICLR 2018).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import check_layout, load_checkpoint, save_checkpoint
from .corpus import Corpus
from .data import AnnotatedVideo, CoarseLabel, FoldSpec, Segment, coarse_label
from .errors import (
    ValidationError, check_counts, check_flags, check_type, check_video_inputs,
)
from .metrics import Detection, GroundTruthInstance, gt_instances, map_at_tiou
from .optim import FlatParams, Training, compute_dtype, fit

NUM_CLASSES = len(CoarseLabel)
_Proposals = list[tuple[int | None, Segment]]    # (step, segment) pairs


@dataclass
class ClassifierParams(FlatParams):
    w1: np.ndarray  # (d or 2d) x h: video features, then any text feature
    b1: np.ndarray  # h
    w2: np.ndarray  # h x 3
    b2: np.ndarray  # 3

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @classmethod
    def init(cls, rng: np.random.Generator, input_dim: int,
             hidden: int) -> "ClassifierParams":
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
    class k. It takes checked values: a beta in [0, 1) and counts of at
    least 1, as the trainer passes ``_BETA`` and the counts of the classes
    it has found in its training rows."""
    return np.array([(1.0 - beta) / (1.0 - beta ** count) for count in counts])


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def mean_pool(m: np.ndarray, seg: Segment) -> np.ndarray:
    """Arithmetic mean of the rows in [seg.start, seg.end), in float64; it
    takes a checked segment inside ``m``."""
    return m[seg.start:seg.end].mean(axis=0, dtype=np.float64)


def classifier_rows(video_feats: np.ndarray, proposals: _Proposals,
                    step_feats: np.ndarray | None) -> np.ndarray:
    """One input row per ``(step, segment)`` proposal of a video, in the
    dtype the video features compute in: the segment's features
    mean-pooled in float64, then, unless ``step_feats`` is None, the
    step's text feature (zeros for a step-``None`` proposal). It takes
    checked values: the proposals ``detect_mistakes`` checks, or a
    corpus's annotated segments."""
    dtype = compute_dtype(video_feats)
    pooled = np.array([mean_pool(video_feats, seg) for _, seg in proposals],
                      dtype=dtype)
    pooled = pooled.reshape(len(proposals), video_feats.shape[1])
    if step_feats is None:
        return pooled
    # row 0 is the zero text vector, row s the text of step s
    texts = np.vstack([np.zeros(step_feats.shape[1]), step_feats]
                      ).astype(dtype, copy=False)
    steps = [0 if step is None else step for step, _ in proposals]
    return np.hstack([pooled, texts[steps]])


def classify(params: ClassifierParams,
             x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logits and argmax class index of every row of ``x``, computed in the
    rows' dtype over parameters cast once; ties go to the lowest class
    index. It takes rows as wide as the classifier."""
    params = params.astype(compute_dtype(x))
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
    """Its rules run when it is built, and again in ``dataclasses.replace``."""
    hidden: int = 256
    epochs: int = 1200
    seed: int = 0
    video_only: bool = False

    def __post_init__(self) -> None:
        check_counts(self, ("hidden", "epochs"))
        check_counts(self, ("seed",), minimum=0)
        check_flags(self, ("video_only",))


@dataclass
class ClassifierTraining(Training):
    """A classifier's ``Training`` and its training rows' count per
    class."""
    class_counts: dict[CoarseLabel, int] = field(default_factory=dict)


def _segment_rows(corpus: Corpus, video_ids: tuple[str, ...],
                  video_only: bool
                  ) -> tuple[np.ndarray, np.ndarray, dict[str, _Proposals]]:
    """A split's teacher-forced rows, one per annotated segment in video
    order, without text when ``video_only``; their true labels; and each
    video's ``(step, segment)`` pairs."""
    xs, ys, proposals = [], [], {}
    for vid in video_ids:
        video = corpus.video_by_id(vid)
        proposals[vid] = [(seg.step, seg.segment) for seg in video.segments]
        xs.append(classifier_rows(
            corpus.video_features(vid), proposals[vid],
            None if video_only else corpus.task_step_features(video.task)))
        ys += [int(coarse_label(seg.mistake)) for seg in video.segments]
    x = np.concatenate(xs) if xs else np.empty((0, 0))
    return x, np.asarray(ys, dtype=np.int64), proposals


class _Workspace:
    """A fold's full-batch training rows and every buffer an epoch writes.

    The hidden activations ``h``, in the rows' dtype, the ReLU mask and
    the float64 parameter gradients are allocated here once per fold; an
    epoch writes into them with ``out=``, the activations' gradient over
    ``h``, and allocates only arrays of n x classes size and of the
    parameters' size.
    """

    def __init__(self, params: ClassifierParams, x: np.ndarray, y: np.ndarray,
                 weights: np.ndarray):
        n, hidden = x.shape[0], params.w1.shape[1]
        self.x, self.y, self.weights = x, y, weights
        self.rows = np.arange(n)
        self.row_scale = (weights / n)[:, None]
        self.h = np.empty((n, hidden), compute_dtype(x))
        self.live = np.empty((n, hidden), dtype=bool)
        self.grads = params.zeros_like()


def _batch_loss_and_grads(params: ClassifierParams, work: _Workspace) -> float:
    """Weighted mean loss of the workspace's rows at ``params``, computed in
    the rows' dtype over parameters cast once; the gradients land in the
    float64 ``work.grads``, and the hidden gradient over ``work.h``."""
    g, h = work.grads, work.h
    params = params.astype(h.dtype)
    np.matmul(work.x, params.w1, out=h)
    h += params.b1
    np.greater(h, 0.0, out=work.live)
    np.maximum(h, 0.0, out=h)
    z = h @ params.w2 + params.b2
    log_probs = _log_softmax(z)
    loss = float(np.mean(-log_probs[work.rows, work.y] * work.weights))
    d_z = np.exp(log_probs)
    d_z[work.rows, work.y] -= 1.0
    d_z *= work.row_scale
    np.matmul(h.T, d_z, out=g.w2)
    np.sum(d_z, axis=0, out=g.b2)
    # h is read for the last time above: the hidden gradient takes its place
    d_h = np.matmul(d_z, params.w2.T, out=h)
    # masking by a multiply is far cheaper than a boolean-index store; it
    # leaves -0.0 where a dead unit's d_h < 0, and adding +0.0 makes that
    # the +0.0 a store would have written
    d_h *= work.live
    d_h += 0.0
    np.matmul(work.x.T, d_h, out=g.w1)
    np.sum(d_h, axis=0, out=g.b1)
    return loss


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
                       video: AnnotatedVideo) -> list[Detection]:
    """Classify every annotated segment of a video (the oracle-segment
    evaluation arm), as ``detect_mistakes`` does past its matrix check."""
    return _detect(
        params, [(seg.step, seg.segment) for seg in video.segments],
        corpus.video_features(video.video_id),
        corpus.task_step_features(video.task))


def detect_mistakes(params: ClassifierParams,
                    alignment: list[tuple[int | None, Segment]],
                    frames: np.ndarray,
                    step_feats: np.ndarray) -> list[Detection]:
    """Classify the segments proposed by the alignment model, in the dtype
    the frames compute in; confidence is the softmax probability of the
    predicted class. A classifier as wide as the frames reads no text, and
    one twice as wide gives a step-``None`` proposal the zero text
    vector. Before any row is built, ValidationError is raised for frames
    and step texts that ``check_video_inputs`` rejects, read or not, for
    a classifier of another width, and for a proposal whose step is
    neither None nor an int in 1..k for the k step texts, or whose
    segment is not a Segment inside the frames."""
    check_video_inputs(frames, step_feats)
    return _detect(params, alignment, frames, step_feats)


def _detect(params, alignment, frames, step_feats) -> list[Detection]:
    """``detect_mistakes`` past its check of the matrices."""
    d, k = frames.shape[1], step_feats.shape[0]
    if params.input_dim not in (d, 2 * d):
        raise ValidationError(
            f"classifier input width must be {d} (frames) or {2 * d} "
            f"(frames and step texts), got {params.input_dim}")
    for step, seg in alignment:
        if step is not None:
            check_type(step, int, "proposal step")
            if not 1 <= step <= k:
                raise ValidationError(f"proposal step {step} outside 1..{k}")
        check_type(seg, Segment, "proposal segment")
        if seg.end > len(frames):
            raise ValidationError(f"proposal segment [{seg.start}, {seg.end}) "
                                  f"outside the {len(frames)} frames")
    texts = None if params.input_dim == d else step_feats
    z, labels = classify(params, classifier_rows(frames, alignment, texts))
    return _detections(alignment, z, labels)


# the class-balanced loss's beta (Cui et al., "Class-Balanced Loss Based
# on Effective Number of Samples", CVPR 2019)
_BETA = 0.9999
# epochs between validation rounds, which also validate the last epoch
_VAL_EVERY = 10
# epochs without a better val score after which training stops (Prechelt,
# "Early Stopping -- But When?", 1998); the best checkpoint usually comes
# before epoch 200 of 1200
_PATIENCE = 300


def train_classifier_fold(corpus: Corpus, fold: FoldSpec,
                          config: ClassifierTrainConfig) -> ClassifierTraining:
    """Full-batch Adam on the fold's teacher-forced segments; returns the
    checkpoint with the best validation score (earlier epoch wins ties),
    stopping at the first validation round ``_PATIENCE`` or more epochs
    after it. The val rows are built once, before the first epoch."""
    corpus.check_fold(fold)
    corpus.set_phase(f"fold{fold.fold_id}:train-detect")
    x, y, _ = _segment_rows(corpus, fold.train, config.video_only)
    counts = {label: int(np.sum(y == int(label))) for label in CoarseLabel}
    missing = [label.name for label, c in counts.items() if c == 0]
    if missing:
        raise ValidationError(
            f"fold {fold.fold_id}: no training samples for {missing}; "
            "merge folds or regenerate the corpus with more mistakes")
    weights = class_balanced_weights(_BETA, list(counts.values()))[y]
    val = _segment_rows(corpus, fold.val, config.video_only)
    val_truth = {vid: gt_instances(corpus.video_by_id(vid)) for vid in fold.val}

    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(202, fold.fold_id,
                                                       int(config.video_only))))
    params = ClassifierParams.init(rng, input_dim=x.shape[1],
                                   hidden=config.hidden)
    work = _Workspace(params, x, y, weights)

    def batches(epoch: int):
        yield _batch_loss_and_grads(params, work), work.grads.flat

    return fit(ClassifierTraining(fold.fold_id, params.copy(),
                                  class_counts=counts),
               params, batches, lambda: _val_score(params, *val, val_truth),
               config.epochs, _VAL_EVERY, _PATIENCE)


def save_classifier(path, training: ClassifierTraining,
                    config: ClassifierTrainConfig) -> None:
    meta = {
        "kind": "classifier",
        "seed": config.seed,
        "epoch": training.best_epoch,
        "epochs_run": training.epochs_run,
        "val_score": training.best_score,
        "video_only": config.video_only,
        "fold_id": training.fold_id,
        "class_counts": {l.name.lower(): c
                         for l, c in training.class_counts.items()},
    }
    save_checkpoint(path, training.params.as_dict(), meta)


def load_classifier(path) -> tuple[ClassifierParams, dict]:
    """Read a ``classifier`` checkpoint whose tensors agree with ``w1``."""
    tensors, meta = load_checkpoint(path)
    check_layout(path, "classifier", meta, tensors, {
        "w1": ("in", "h"), "b1": ("h",), "w2": ("h", NUM_CLASSES),
        "b2": (NUM_CLASSES,)})
    names = ClassifierParams.tensor_names()
    return ClassifierParams(**{n: tensors[n] for n in names}), meta


__all__ = [
    "NUM_CLASSES", "ClassifierParams",
    "ClassifierTrainConfig", "ClassifierTraining",
    "detect_on_segments", "detect_mistakes", "train_classifier_fold",
    "save_classifier", "load_classifier",
]
