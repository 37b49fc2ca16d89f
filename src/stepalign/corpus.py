"""The corpus: its directory layout on disk, and the in-memory container
with feature access logging.

Corpus directory layout::

    <dir>/texts/<task>.json            one procedural text per task
    <dir>/annotations/<video_id>.json  one annotation record per video
    <dir>/features/<video_id>.fmtx     one frame-feature matrix per video
    <dir>/features/steps_<task>.fmtx   the step-text features of each task

Texts and annotations are the JSON records of data.py, each in the file
named after its task or its video id. A feature file is a checkpoint (see
checkpoint.py) of kind ``features`` holding one ``rows x dim`` tensor
named ``features``, float32 in memory and on disk; the decoder computes on
them in float32 (see model.py), and the rest of the library widens them
to float64 where it reads them. Its header's ``video_id`` names the file's
own id, the video id or ``steps_<task>``. A video's file has one row per
frame, a task's one row per step, and every feature file of a corpus has
the same width. A video id names two files, so it must be a file name;
every video's task must have a text, holding every step the video names
(see data.py).

A loaded corpus holds no feature matrix in memory. It validates each
feature file when it is loaded and holds its matrix as the
``checkpoint.StoredTensor`` the file's validation returned, so every fetch
(``video_features``, ``task_step_features``) reads the file's rows into a
fresh read-only array, and a matrix is resident only while a caller holds
it. Each file stays open through one descriptor until the corpus is
dropped, and saving a corpus over the directory it was loaded from keeps
the loaded values (see checkpoint.py).

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

from .checkpoint import (
    StoredTensor, check_layout, float32_tensors, open_checkpoint,
    write_checkpoint,
)
from .data import (
    AnnotatedVideo, FoldSpec, ProceduralText, TaskDomain, load_json,
    parse_text, parse_video, save_json, text_to_json, validate_video,
    video_to_json,
)
from .errors import FormatError, ParseError, ValidationError, check_type


def _check_file_name(file: Path, key: str, name: str) -> None:
    """A record's file is named after the record, so that saving the
    corpus writes each record back over its own file."""
    if file.stem != name:
        raise ValidationError(
            f"{file}: file is named {file.stem!r}, not its {key} {name!r}")


def load_corpus(path: str | Path) -> tuple[list[ProceduralText], list[AnnotatedVideo]]:
    """Read and fully validate a corpus directory's texts and annotations.

    Returns procedural texts sorted by task value and videos sorted by id.
    Raises ParseError for malformed files and ValidationError when a record
    breaks an invariant or its file is not named after its task or its
    video id.
    """
    root = Path(path)
    text_dir, anno_dir = root / "texts", root / "annotations"
    if not text_dir.is_dir() or not anno_dir.is_dir():
        raise ParseError(f"{root}: expected texts/ and annotations/ subdirectories")

    texts: dict[TaskDomain, ProceduralText] = {}
    for file in sorted(text_dir.glob("*.json")):
        text = parse_text(load_json(file), where=str(file))
        _check_file_name(file, "task", text.task.value)
        texts[text.task] = text

    videos: list[AnnotatedVideo] = []
    for file in sorted(anno_dir.glob("*.json")):
        video = parse_video(load_json(file), where=str(file))
        try:
            validate_video(video, texts)
        except ValidationError as exc:
            raise ValidationError(f"{file}: {exc}") from None
        _check_file_name(file, "video_id", video.video_id)
        videos.append(video)

    ordered_texts = [texts[t] for t in sorted(texts, key=lambda t: t.value)]
    videos.sort(key=lambda v: v.video_id)
    return ordered_texts, videos


def read_features(path: str | Path, rows: int, dim: int | str) -> StoredTensor:
    """Validate a feature file holding a ``rows x dim`` matrix and return
    the matrix left in the file; a ``dim`` given as a name takes any
    width. Another layout or shape, or a header that does not name the
    file's own id, raises FormatError naming the path."""
    path = Path(path)
    tensors, meta = open_checkpoint(path)
    check_layout(path, "features", meta, tensors, {"features": (rows, dim)})
    if meta.get("video_id") != path.stem:
        raise FormatError(f"{path}: header names "
                          f"{meta.get('video_id')!r}, not {path.stem!r}")
    return tensors["features"]


def _steps_id(task: TaskDomain) -> str:
    """The id of a task's step features: their file's name and header id."""
    return f"steps_{task.value}"


@dataclass
class Corpus:
    texts: dict[TaskDomain, ProceduralText]
    videos: list[AnnotatedVideo]
    features: dict[str, np.ndarray | StoredTensor]
    step_features: dict[TaskDomain, np.ndarray | StoredTensor]
    phase: str = "init"
    access_log: set[tuple[str, str]] = field(default_factory=set)

    def __post_init__(self) -> None:
        for task, text in self.texts.items():
            if text.task != task:
                raise ValidationError(f"the {text.task.value} text is held "
                                      f"under task {task.value}")
        self._by_id: dict[str, AnnotatedVideo] = {}
        step_files = {_steps_id(task)
                      for task in (*self.texts, *self.step_features)}
        for video in self.videos:
            if video.video_id in self._by_id:
                raise ValidationError(f"duplicate video_id {video.video_id}")
            if video.video_id in step_files:
                raise ValidationError(f"video_id {video.video_id} is the "
                                      f"name of a task's step features")
            validate_video(video, self.texts)
            self._by_id[video.video_id] = video
        self._dim = self._check_matrices()

    def _check_matrices(self) -> int | None:
        """Every video and every text has a 2-d float32 feature matrix
        with a row per frame or per step and at least one column, every
        matrix has a video or a text, and all have the first matrix's
        width, a video's when there is one. Returns that width, or None
        when there is no matrix. Reads shapes and dtypes only, so a
        loaded corpus's files are not read."""
        for video_id in self.features:
            if video_id not in self._by_id:
                raise ValidationError(f"{video_id}: feature matrix names "
                                      f"no video")
        for task in self.step_features:
            if task not in self.texts:
                raise ValidationError(f"{_steps_id(task)}: no procedural "
                                      f"text for task {task.value}")
        matrices = [(video.video_id, self.features.get(video.video_id),
                     video.num_frames, "frames") for video in self.videos]
        matrices += [(_steps_id(task), self.step_features.get(task),
                      text.num_steps, "steps")
                     for task, text in self.texts.items()]
        for name, matrix, rows, unit in matrices:
            if matrix is None:
                raise ValidationError(f"{name}: no feature matrix")
            if not isinstance(matrix, (np.ndarray, StoredTensor)):
                raise ValidationError(f"{name}: feature matrix must be a numpy "
                                      f"array or a StoredTensor, got "
                                      f"{type(matrix).__name__}")
            if matrix.dtype != np.float32:
                raise ValidationError(f"{name}: feature matrix must be "
                                      f"float32, got {matrix.dtype}")
            if matrix.ndim != 2:
                raise ValidationError(f"{name}: feature matrix must be 2-d, "
                                      f"got shape {matrix.shape}")
            if matrix.shape[1] == 0:
                raise ValidationError(f"{name}: feature matrix has no "
                                      f"columns, got shape {matrix.shape}")
            if matrix.shape[0] != rows:
                raise ValidationError(f"{name}: feature matrix has "
                                      f"{matrix.shape[0]} rows for {rows} "
                                      f"{unit}")
            first_name, first = matrices[0][:2]
            if matrix.shape[1] != first.shape[1]:
                raise ValidationError(f"{name}: feature matrix is "
                                      f"{matrix.shape[1]} wide, not "
                                      f"{first.shape[1]} as {first_name}")
        return matrices[0][1].shape[1] if matrices else None

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def video_by_id(self, video_id: str) -> AnnotatedVideo:
        try:
            return self._by_id[video_id]
        except KeyError:
            raise ValidationError(f"unknown video_id {video_id!r}") from None

    def video_features(self, video_id: str) -> np.ndarray:
        """The video's frame features, logged against the phase: the
        corpus's own array, or a loaded corpus's fresh read of its file."""
        self.video_by_id(video_id)
        self.access_log.add((self.phase, video_id))
        return np.asarray(self.features[video_id])

    def check_fold(self, fold: FoldSpec) -> None:
        """Reject a fold no trainer can use: an empty train split or an id
        this corpus lacks. FoldSpec rejects a video listed twice."""
        if not fold.train:
            raise ValidationError(f"fold {fold.fold_id}: empty train split")
        for split in ("train", "val", "test"):
            for vid in getattr(fold, split):
                if vid not in self._by_id:
                    raise ValidationError(
                        f"fold {fold.fold_id}: unknown video_id {vid!r} in {split}")

    def task_step_features(self, task: TaskDomain) -> np.ndarray:
        """The task's step features, held or read as ``video_features``; a
        task without a text raises ValidationError naming it."""
        check_type(task, TaskDomain, "task")
        if task not in self.texts:
            raise ValidationError(f"no procedural text for task {task.value}")
        return np.asarray(self.step_features[task])

    @property
    def feature_dim(self) -> int:
        """The width of every feature matrix; a corpus with none raises
        ValidationError."""
        if self._dim is None:
            raise ValidationError("corpus has no feature matrix")
        return self._dim

    def save(self, path: str | Path) -> None:
        """Write the corpus in the layout above. A feature matrix that is
        not 2-d, is empty or holds a value not finite at float32 raises
        ValidationError naming its file, and so does the first file under
        texts/, annotations/ or features/ that no record of this corpus
        owns, which a later load would read as part of this corpus; then
        no file is written. A ``*.tmp`` leftover of a failed write is not a
        record."""
        root = Path(path)
        feat_dir = root / "features"
        matrices = [(video.video_id, self.features[video.video_id])
                    for video in self.videos]
        matrices += [(_steps_id(task), matrix)
                     for task, matrix in self.step_features.items()]
        # every matrix is checked before the first file is written
        checked = []
        for name, matrix in matrices:
            file = feat_dir / f"{name}.fmtx"
            if matrix.ndim != 2 or 0 in matrix.shape:
                raise ValidationError(
                    f"{file}: feature matrix must be 2-d and nonempty, "
                    f"got {matrix.shape}")
            checked.append(
                (file, name, float32_tensors(file, {"features": matrix})))
        records = {root / "texts" / f"{task.value}.json": text_to_json(text)
                   for task, text in self.texts.items()}
        records |= {root / "annotations" / f"{video.video_id}.json":
                    video_to_json(video) for video in self.videos}
        owned = records.keys() | {file for file, _, _ in checked}
        subdirs = ("texts", "annotations", "features")
        stale = sorted(file for sub in subdirs for file in (root / sub).glob("*")
                       if file.suffix != ".tmp" and file not in owned)
        if stale:
            raise ValidationError(f"{stale[0]}: no record of this corpus "
                                  f"owns this file")
        for sub in subdirs:
            (root / sub).mkdir(parents=True, exist_ok=True)
        for file, record in records.items():
            save_json(file, record)
        for file, name, stored in checked:
            write_checkpoint(file, stored, {"kind": "features", "video_id": name})

    @classmethod
    def from_dir(cls, path: str | Path) -> "Corpus":
        """Load a saved corpus, its feature matrices left in their files
        and read at each fetch. Each feature file must have its video's
        frame count or its text's step count as rows, and the nonzero
        width of the first file read, a video's."""
        root = Path(path)
        texts, videos = load_corpus(root)
        feat_dir = root / "features"
        files = [(video.video_id, video.num_frames) for video in videos]
        files += [(_steps_id(text.task), text.num_steps) for text in texts]
        matrices: dict[str, StoredTensor] = {}
        dim: int | str = "dim"      # any width until the first file is read
        for name, rows in files:
            file = feat_dir / f"{name}.fmtx"
            matrices[name] = read_features(file, rows, dim)
            dim = matrices[name].shape[1]
            if dim == 0:
                raise FormatError(f"{file}: feature matrix has no columns")
        return cls(texts={t.task: t for t in texts}, videos=videos,
                   features={v.video_id: matrices[v.video_id] for v in videos},
                   step_features={t.task: matrices[_steps_id(t.task)]
                                  for t in texts})


__all__ = ["Corpus", "load_corpus", "read_features"]
