"""In-memory corpus container with feature access logging.

The access log exists so experiments can prove that test videos were never
read during training or checkpoint selection: callers set ``phase`` before
each stage and every feature fetch is recorded against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    AnnotatedVideo, ProceduralText, TaskDomain, load_corpus, save_corpus,
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
    access_log: list[tuple[str, str]] = field(default_factory=list)

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
        self.access_log.append((self.phase, video_id))
        return self.features[video_id]

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
        root = Path(path)
        texts, videos = load_corpus(root)
        feat_dir = root / "features"
        features: dict[str, np.ndarray] = {}
        for video in videos:
            file = feat_dir / f"{video.video_id}.fmtx"
            if not file.exists():
                raise FormatError(f"{file}: missing feature file")
            matrix, _ = read_features(file)
            if matrix.shape[0] != video.num_frames:
                raise FormatError(
                    f"{file}: {matrix.shape[0]} rows but annotation says "
                    f"{video.num_frames} frames")
            features[video.video_id] = matrix
        step_features: dict[TaskDomain, np.ndarray] = {}
        for text in texts:
            file = feat_dir / f"steps_{text.task.value}.fmtx"
            if not file.exists():
                raise FormatError(f"{file}: missing step-feature file")
            matrix, _ = read_features(file)
            if matrix.shape[0] != text.num_steps:
                raise FormatError(
                    f"{file}: {matrix.shape[0]} rows but text has "
                    f"{text.num_steps} steps")
            step_features[text.task] = matrix
        return cls(texts={t.task: t for t in texts}, videos=videos,
                   features=features, step_features=step_features)


__all__ = ["Corpus"]
