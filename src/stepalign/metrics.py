"""Frame-level alignment metrics and step-matched detection mAP.

Frame precision/recall/F1 only count frames that carry a step label on
the relevant side; mean-over-frames (MoF) also credits background frames
predicted as background. Detection AP requires a detection to name the
same step as the ground-truth segment, overlap it at the tIoU threshold,
and carry the same coarse label; each ground-truth instance is matchable
at most once, and the correct class is never scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AnnotatedVideo, CoarseLabel, Segment, coarse_label
from .errors import ValidationError, check_type

BACKGROUND = 0
DEFAULT_TIOU_THRESHOLDS = (0.1, 0.2, 0.3)


@dataclass(frozen=True)
class Detection:
    """A classified segment proposal for one video."""

    step: int | None
    segment: Segment
    label: CoarseLabel
    confidence: float

    def __post_init__(self) -> None:
        if self.step is not None:
            check_type(self.step, int, "step")
        check_type(self.segment, Segment, "segment")
        check_type(self.label, CoarseLabel, "label")
        check_type(self.confidence, (int, float), "confidence")
        if not 0.0 <= self.confidence <= 1.0:   # NaN included
            raise ValidationError(
                f"confidence must be in [0, 1], got {self.confidence}")


GroundTruthInstance = tuple[int | None, Segment, CoarseLabel]


def rasterize(segments: list[tuple[int, Segment]], num_frames: int) -> np.ndarray:
    """Per-frame step labels; 0 is background.

    Segments may not overlap, annotated or predicted: an alignment gives
    each step frames of its own. A step may have several segments, and a
    step-``None`` segment, which no step owns, is rejected.
    """
    check_type(num_frames, int, "num_frames")
    if num_frames < 0:
        raise ValidationError(f"num_frames must be >= 0, got {num_frames}")
    labels = np.zeros(num_frames, dtype=np.int64)
    for step, seg in segments:
        if step is None:
            raise ValidationError(
                f"segment [{seg.start}, {seg.end}) has step None; only "
                f"step segments can be rasterized")
        check_type(step, int, "step index")
        if step <= 0:
            raise ValidationError(f"step index must be positive, got {step}")
        if seg.end > num_frames:
            raise ValidationError(
                f"segment [{seg.start}, {seg.end}) exceeds num_frames {num_frames}")
        window = labels[seg.start:seg.end]
        if np.any(window != BACKGROUND):
            raise ValidationError(f"segments overlap at step {step}")
        window[:] = step
    return labels


def gt_frame_labels(video: AnnotatedVideo) -> np.ndarray:
    """Rasterized ground truth; undefined-step segments stay background."""
    segs = [(s.step, s.segment) for s in video.segments if s.step is not None]
    return rasterize(segs, video.num_frames)


def frame_metrics(pred: np.ndarray, gt: np.ndarray) -> dict[str, float]:
    """Frame-wise precision, recall, F1 and MoF; 0/0 ratios score 0.
    Label arrays of other shapes, or with no frame, raise ValidationError."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValidationError(
            f"label arrays differ in length: {pred.shape} vs {gt.shape}")
    if pred.size == 0:
        raise ValidationError("label arrays have no frame")
    both_steps = (pred != BACKGROUND) & (gt != BACKGROUND)
    correct = int(np.count_nonzero(both_steps & (pred == gt)))
    n_pred = int(np.count_nonzero(pred != BACKGROUND))
    n_gt = int(np.count_nonzero(gt != BACKGROUND))
    precision = correct / n_pred if n_pred else 0.0
    recall = correct / n_gt if n_gt else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    mof = float(np.count_nonzero(pred == gt)) / pred.size
    return {"precision": precision, "recall": recall, "f1": f1, "mof": mof}


def _detection_order(item: tuple[str, Detection]):
    video_id, det = item
    return (-det.confidence, video_id,
            det.step is None, det.step if det.step is not None else -1,
            det.segment.start)


def _match_flags(ranked: list[tuple[str, Detection]],
                 gt_by_video: dict[str, list[GroundTruthInstance]],
                 label: CoarseLabel, threshold: float) -> np.ndarray:
    """Greedy one-to-one matching in confidence order; True marks a TP."""
    matched: dict[str, set[int]] = {vid: set() for vid in gt_by_video}
    flags = np.zeros(len(ranked), dtype=bool)
    for rank, (video_id, det) in enumerate(ranked):
        best_idx = -1
        best_tiou = 0.0
        for idx, (gt_step, gt_seg, gt_label) in enumerate(gt_by_video.get(video_id, [])):
            if gt_label != label or gt_step != det.step:
                continue
            if idx in matched[video_id]:
                continue
            tiou = det.segment.tiou(gt_seg)
            if tiou >= threshold and tiou > best_tiou:
                best_tiou = tiou
                best_idx = idx
        if best_idx >= 0:
            matched[video_id].add(best_idx)
            flags[rank] = True
    return flags


def average_precision(tp_flags: np.ndarray, n_gt: int) -> float:
    """All-point interpolated AP (precision envelope over the PR curve)."""
    if n_gt <= 0:
        raise ValidationError("AP needs at least one ground-truth instance")
    if len(tp_flags) == 0:
        return 0.0
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(~tp_flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # the envelope: each rank's best precision at that rank or later
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    return float(np.sum(np.diff(recall, prepend=0.0) * envelope))


@dataclass(frozen=True)
class MapResult:
    per_threshold: dict[float, float]
    average: float
    per_class: dict[str, dict[float, float]]


def map_at_tiou(detections: dict[str, list[Detection]],
                ground_truth: dict[str, list[GroundTruthInstance]]
                ) -> MapResult:
    """Mean AP over the mistake and correction classes at each threshold
    of ``DEFAULT_TIOU_THRESHOLDS``.

    Classes without any ground-truth instance are excluded from the mean;
    when neither class has ground truth the score is undefined and an
    error is raised.
    """
    classes = [CoarseLabel.MISTAKE, CoarseLabel.CORRECTION]
    n_gt = {
        label: sum(
            1 for insts in ground_truth.values()
            for (_, _, gl) in insts if gl == label)
        for label in classes
    }
    scored = [label for label in classes if n_gt[label] > 0]
    if not scored:
        raise ValidationError(
            "mAP undefined: no mistake or correction ground truth")

    per_threshold: dict[float, float] = {}
    per_class: dict[str, dict[float, float]] = {label.name.lower(): {}
                                                for label in scored}
    ranked = {label: sorted(((vid, det) for vid, dets in detections.items()
                             for det in dets if det.label == label),
                            key=_detection_order)
              for label in scored}
    for threshold in DEFAULT_TIOU_THRESHOLDS:
        aps = []
        for label in scored:
            flags = _match_flags(ranked[label], ground_truth, label, threshold)
            ap = average_precision(flags, n_gt[label])
            per_class[label.name.lower()][threshold] = ap
            aps.append(ap)
        per_threshold[threshold] = float(np.mean(aps))
    average = float(np.mean(list(per_threshold.values())))
    return MapResult(per_threshold=per_threshold, average=average,
                     per_class=per_class)


def gt_instances(video: AnnotatedVideo) -> list[GroundTruthInstance]:
    """Matchable mistake/correction instances of one annotated video."""
    out = []
    for seg in video.segments:
        label = coarse_label(seg.mistake)
        if label != CoarseLabel.CORRECT:
            out.append((seg.step, seg.segment, label))
    return out


__all__ = [
    "BACKGROUND", "DEFAULT_TIOU_THRESHOLDS", "Detection", "MapResult",
    "rasterize", "gt_frame_labels", "frame_metrics", "average_precision",
    "map_at_tiou", "gt_instances",
]
