"""In-memory corpus container with feature access logging.

The access log exists so experiments can prove that test videos were never
read during training or checkpoint selection: callers set ``phase`` before
each stage and every feature fetch is recorded against it. The log is the
set of ``(phase, video_id)`` pairs read so far, so reading a video again in
the same phase, as long inference does, leaves it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    AnnotatedVideo, FoldSpec, ProceduralText, TaskDomain, load_corpus,
    save_corpus,
)
from .errors import FormatError, ValidationError
from .features import read_features, write_features


@dataclass
class Corpus:
    texts: dict[TaskDomain, ProceduralText]
    videos: list[AnnotatedVideo]
    features: dict[str, np.ndarray]
    step_features: dict[TaskDomain, np.ndarray]
    phase: str = "init"
    access_log: set[tuple[str, str]] = field(default_factory=set)

    def __post_init__(self) -> None:
        self._by_id: dict[str, AnnotatedVideo] = {}
        for video in self.videos:
            if video.video_id in self._by_id:
                raise ValidationError(f"duplicate video_id {video.video_id}")
            self._by_id[video.video_id] = video

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def video_by_id(self, video_id: str) -> AnnotatedVideo:
        try:
            return self._by_id[video_id]
        except KeyError:
            raise ValidationError(f"unknown video_id {video_id!r}") from None

    def video_features(self, video_id: str) -> np.ndarray:
        self.access_log.add((self.phase, video_id))
        return self.features[video_id]

    def check_fold(self, fold: FoldSpec) -> None:
        """Reject a fold no trainer can use: an empty train split, an id
        this corpus lacks, or a video in more than one split."""
        if not fold.train:
            raise ValidationError(f"fold {fold.fold_id}: empty train split")
        split_of: dict[str, str] = {}
        for split, ids in (("train", fold.train), ("val", fold.val),
                           ("test", fold.test)):
            for vid in ids:
                if vid not in self._by_id:
                    raise ValidationError(
                        f"fold {fold.fold_id}: unknown video_id {vid!r} in {split}")
                if split_of.setdefault(vid, split) != split:
                    raise ValidationError(
                        f"fold {fold.fold_id}: {vid!r} is in both "
                        f"{split_of[vid]} and {split}")

    def task_step_features(self, task: TaskDomain) -> np.ndarray:
        return self.step_features[task]

    @property
    def feature_dim(self) -> int:
        return next(iter(self.features.values())).shape[1]

    def save(self, path: str | Path) -> None:
        root = Path(path)
        save_corpus(root, list(self.texts.values()), self.videos)
        feat_dir = root / "features"
        feat_dir.mkdir(parents=True, exist_ok=True)
        for video in self.videos:
            write_features(self.features[video.video_id],
                           feat_dir / f"{video.video_id}.fmtx",
                           video_id=video.video_id)
        for task, matrix in self.step_features.items():
            write_features(matrix, feat_dir / f"steps_{task.value}.fmtx",
                           video_id=f"steps_{task.value}")

    @classmethod
    def from_dir(cls, path: str | Path) -> "Corpus":
        """Load a saved corpus. Every feature file, video or step text,
        must have the width of the first video's, and its header must
        name the file's own id: the video id, or ``steps_<task>``."""
        root = Path(path)
        texts, videos = load_corpus(root)
        feat_dir = root / "features"
        width: tuple[Path, int] | None = None    # first file read, its width

        def read(file: Path, rows: int, what: str, unit: str) -> np.ndarray:
            nonlocal width
            if not file.exists():
                raise FormatError(f"{file}: missing {what} file")
            matrix, stored_id = read_features(file)
            if stored_id != file.stem:
                raise FormatError(
                    f"{file}: header names {stored_id!r}, not {file.stem!r}")
            if matrix.shape[0] != rows:
                raise FormatError(
                    f"{file}: {matrix.shape[0]} rows but {unit}")
            width = width or (file, matrix.shape[1])
            if matrix.shape[1] != width[1]:
                raise FormatError(
                    f"{file}: {matrix.shape[1]} feature columns but "
                    f"{width[0].name} has {width[1]}")
            return matrix

        features = {
            video.video_id: read(
                feat_dir / f"{video.video_id}.fmtx", video.num_frames,
                "feature", f"annotation says {video.num_frames} frames")
            for video in videos}
        step_features = {
            text.task: read(
                feat_dir / f"steps_{text.task.value}.fmtx", text.num_steps,
                "step-feature", f"text has {text.num_steps} steps")
            for text in texts}
        return cls(texts={t.task: t for t in texts}, videos=videos,
                   features=features, step_features=step_features)


__all__ = ["Corpus"]
