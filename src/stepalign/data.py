"""Annotation data model: tasks, procedural texts, segments, mistake labels.

This module is the single source of truth for label vocabularies, the
segment/video record types and their rules, which each record checks when
it is built (``validate_video`` adds those that need the task texts), the
JSON codecs of the text and annotation records, and the fold file. Where
those records sit in a corpus directory, next to the feature files, is
corpus.py's concern.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterable, Mapping

from .errors import ParseError, ValidationError, check_type


class TaskDomain(Enum):
    """The five recorded activity domains."""

    ELECTRICAL_CIRCUIT = "electrical_circuit"
    COLOR_MIXTURE = "color_mixture"
    IONIC_REACTION = "ionic_reaction"
    BUILDING_BLOCK = "building_block"
    CARDBOARD = "cardboard"


class Intent(Enum):
    """Whether the worker tried to follow the instructions or to err."""

    CORRECT_RUN = "correct_run"
    MISTAKE_RUN = "mistake_run"


class MistakeLabel(Enum):
    """Fine-grained execution-mistake taxonomy; CORRECT means no mistake.
    Each value is the label's code in an annotation record."""

    CORRECT = "correct"
    OBJECT = "object"          # worked with the wrong object
    MISPICK = "mispick"        # grasped a wrong object, released without use
    CORRECTION = "correction"  # fixed an earlier mistake
    ACCIDENT = "accident"      # unintended action
    HOWTO = "howto"            # performed the step in the wrong way
    OTHERS = "others"


class CoarseLabel(IntEnum):
    """Three-way classification target. Integer values fix the argmax
    tie-break order (CORRECT wins ties)."""

    CORRECT = 0
    MISTAKE = 1
    CORRECTION = 2


def coarse_label(mistake: MistakeLabel) -> CoarseLabel:
    """Collapse the fine taxonomy: corrections stay their own class, every
    other mistake kind becomes MISTAKE."""
    if mistake == MistakeLabel.CORRECT:
        return CoarseLabel.CORRECT
    if mistake == MistakeLabel.CORRECTION:
        return CoarseLabel.CORRECTION
    return CoarseLabel.MISTAKE


@dataclass(frozen=True, order=True)
class Segment:
    """Half-open frame interval [start, end) in feature-row units; both
    ends are ints."""

    start: int
    end: int

    def __post_init__(self) -> None:
        check_type(self.start, int, "segment start")
        check_type(self.end, int, "segment end")
        if not (0 <= self.start < self.end):
            raise ValidationError(
                f"segment empty or negative: [{self.start}, {self.end})"
            )

    @property
    def length(self) -> int:
        return self.end - self.start

    def intersection(self, other: "Segment") -> int:
        return max(0, min(self.end, other.end) - max(self.start, other.start))

    def union(self, other: "Segment") -> int:
        return self.length + other.length - self.intersection(other)

    def tiou(self, other: "Segment") -> float:
        return self.intersection(other) / self.union(other)


@dataclass(frozen=True)
class ProceduralText:
    """Ordered instruction steps for one task. Step indices are 1-based.
    A field of another type raises ValidationError naming the field,
    and no step or a blank step raises one naming the task."""

    task: TaskDomain
    steps: tuple[str, ...]

    def __post_init__(self) -> None:
        check_type(self.task, TaskDomain, "text task")
        name = self.task.value
        check_type(self.steps, tuple, f"{name}: steps")
        if len(self.steps) < 1:
            raise ValidationError(f"{name}: procedural text has no steps")
        for i, text in enumerate(self.steps, start=1):
            check_type(text, str, f"{name}: step {i}")
            if not text.strip():
                raise ValidationError(f"{name}: step {i} text is empty")

    @property
    def num_steps(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class AnnotatedSegment:
    """One labelled video span. ``step`` is a 1-based index into the task's
    procedural text, or None for spans not covered by any written step.
    A field of another type raises ValidationError naming the field."""

    segment: Segment
    step: int | None
    mistake: MistakeLabel
    description: str | None = None

    def __post_init__(self) -> None:
        check_type(self.segment, Segment, "segment span")
        if self.step is not None:
            check_type(self.step, int, "segment step")
        check_type(self.mistake, MistakeLabel, "segment mistake")
        if self.description is not None:
            check_type(self.description, str, "segment description")


@dataclass(frozen=True)
class AnnotatedVideo:
    """One annotated recording. Its id names its corpus files, so it is a
    file name: not ``.`` or ``..``, not empty, with no ``/``, ``\\`` or NUL.
    It has a frame, its segments lie in it sorted by start, its step
    segments do not overlap, and exactly its mistake segments have a
    description. A broken rule, or a field of another type, raises
    ValidationError naming the video."""

    video_id: str
    worker_id: str
    task: TaskDomain
    intent: Intent
    num_frames: int
    segments: tuple[AnnotatedSegment, ...]

    def __post_init__(self) -> None:
        vid = self.video_id
        check_type(vid, str, "video_id")
        if vid in ("", ".", "..") or any(c in vid for c in "/\\\0"):
            raise ValidationError(f"video_id {vid!r} is not a file name")
        for value, kind, name in ((self.worker_id, str, "worker_id"),
                                  (self.task, TaskDomain, "task"),
                                  (self.intent, Intent, "intent"),
                                  (self.num_frames, int, "num_frames"),
                                  (self.segments, tuple, "segments")):
            check_type(value, kind, f"{vid}: {name}")
        for seg in self.segments:
            check_type(seg, AnnotatedSegment, f"{vid}: each segment")
        if self.num_frames < 1:
            raise ValidationError(f"{vid}: num_frames must be >= 1")
        prev_start = -1
        step_end = 0        # end of the step-defined segments seen so far
        for seg in self.segments:
            span = seg.segment
            if span.end > self.num_frames:
                raise ValidationError(f"{vid}: segment [{span.start}, {span.end}) "
                                      f"exceeds num_frames {self.num_frames}")
            if span.start < prev_start:
                raise ValidationError(f"{vid}: segments not sorted by start")
            prev_start = span.start
            if seg.step is not None:
                if span.start < step_end:
                    raise ValidationError(
                        f"{vid}: step {seg.step} segment [{span.start}, {span.end}) "
                        f"overlaps a step segment ending at {step_end}")
                step_end = max(step_end, span.end)
            has_desc = seg.description is not None
            if seg.mistake == MistakeLabel.CORRECT and has_desc:
                raise ValidationError(f"{vid}: correct segment carries a description")
            if seg.mistake != MistakeLabel.CORRECT and not has_desc:
                raise ValidationError(
                    f"{vid}: {seg.mistake.value} segment lacks a description")


@dataclass(frozen=True)
class FoldSpec:
    """One fold's train, val and test video ids. A fold id not an int >= 0,
    a split not a tuple of strings, or an id listed twice, in two splits
    or in one, raises ValidationError naming the fold."""

    fold_id: int
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]

    def __post_init__(self) -> None:
        check_type(self.fold_id, int, f"fold {self.fold_id!r}: fold_id")
        if self.fold_id < 0:
            raise ValidationError(f"fold {self.fold_id}: fold_id must be >= 0")
        split_of: dict[str, str] = {}
        for split in ("train", "val", "test"):
            ids = getattr(self, split)
            check_type(ids, tuple, f"fold {self.fold_id}: {split}")
            for vid in ids:
                check_type(vid, str, f"fold {self.fold_id}: each {split} id")
                if vid in split_of:
                    raise ValidationError(f"fold {self.fold_id}: {vid!r} is in "
                                          f"{split_of[vid]} and again in {split}")
                split_of[vid] = split


def validate_video(video: AnnotatedVideo,
                   texts: Mapping[TaskDomain, ProceduralText]) -> None:
    """Check the rules of a video that need the task texts: its task has a
    text, and every step it names is one of that text's. Raises
    ValidationError naming the video and the rule."""
    text = texts.get(video.task)
    if text is None:
        raise ValidationError(f"{video.video_id}: no procedural text for "
                              f"task {video.task.value}")
    for seg in video.segments:
        if seg.step is not None and not 1 <= seg.step <= text.num_steps:
            raise ValidationError(f"{video.video_id}: unknown step {seg.step} "
                                  f"(text has {text.num_steps})")


# ---------------------------------------------------------------------------
# JSON (de)serialization


def segment_to_json(seg: AnnotatedSegment) -> dict:
    obj: dict = {
        "start": seg.segment.start,
        "end": seg.segment.end,
        "step": seg.step if seg.step is not None else "undefined",
        "mistake": seg.mistake.value,
    }
    if seg.description is not None:
        obj["description"] = seg.description
    return obj


def video_to_json(video: AnnotatedVideo) -> dict:
    return {
        "video_id": video.video_id,
        "worker_id": video.worker_id,
        "task": video.task.value,
        "intent": video.intent.value,
        "num_frames": video.num_frames,
        "segments": [segment_to_json(s) for s in video.segments],
    }


def text_to_json(text: ProceduralText) -> dict:
    return {"task": text.task.value, "steps": list(text.steps)}


def _parse_enum(cls, value, where: str):
    try:
        return cls(value)
    except ValueError:
        raise ParseError(f"{where}: unknown {cls.__name__} value {value!r}") from None


def _expect(value, kind: type, what: str, where: str):
    """Return ``value`` unchanged if it has JSON type ``kind``; nothing is
    coerced, and a bool is not an int."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"{where}: {what} must be {kind.__name__}, got {value!r}")
    return value


def _string_list(value, what: str, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{where}: {what} must be a list of strings, got {value!r}")
    return tuple(value)


def parse_segment(obj: dict, where: str) -> AnnotatedSegment:
    try:
        start, end = obj["start"], obj["end"]
        raw_step = obj["step"]
        code = obj["mistake"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{where}: malformed segment record: {exc}") from None
    if raw_step == "undefined":
        step = None
    else:
        step = _expect(raw_step, int, "segment step", where)
    mistake = _parse_enum(MistakeLabel, code, where)
    description = obj.get("description")
    if description is not None:
        _expect(description, str, "segment description", where)
    return AnnotatedSegment(
        segment=Segment(_expect(start, int, "segment start", where),
                        _expect(end, int, "segment end", where)),
        step=step,
        mistake=mistake,
        description=description,
    )


def parse_video(obj: dict, where: str = "<memory>") -> AnnotatedVideo:
    _expect(obj, dict, "annotation record", where)
    try:
        return AnnotatedVideo(
            video_id=_expect(obj["video_id"], str, "video_id", where),
            worker_id=_expect(obj["worker_id"], str, "worker_id", where),
            task=_parse_enum(TaskDomain, obj["task"], where),
            intent=_parse_enum(Intent, obj["intent"], where),
            num_frames=_expect(obj["num_frames"], int, "num_frames", where),
            segments=tuple(parse_segment(s, where)
                           for s in _expect(obj["segments"], list, "segments", where)),
        )
    except KeyError as exc:
        raise ParseError(f"{where}: missing annotation field {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def parse_text(obj: dict, where: str = "<memory>") -> ProceduralText:
    _expect(obj, dict, "procedural text", where)
    try:
        return ProceduralText(
            task=_parse_enum(TaskDomain, obj["task"], where),
            steps=_string_list(obj["steps"], "steps", where),
        )
    except KeyError as exc:
        raise ParseError(f"{where}: missing text field {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def load_json(path: Path) -> dict:
    """A JSON file's value; an unreadable file or malformed JSON raises
    ParseError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from None


def save_json(path: str | Path, value) -> None:
    """Write a JSON file as load_json reads it: indented by two, keys
    sorted, with a trailing newline."""
    text = json.dumps(value, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def save_folds(path: str | Path, folds: Iterable[FoldSpec]) -> None:
    save_json(path, [{"fold_id": f.fold_id, "train": list(f.train),
                      "val": list(f.val), "test": list(f.test)}
                     for f in folds])


def load_folds(path: str | Path) -> list[FoldSpec]:
    """Read a fold file. A malformed or wrongly typed record raises
    ParseError naming the path and the fold, and a fold that ``FoldSpec``
    rejects, or a fold id used twice, ValidationError naming the path."""
    folds = []
    for obj in _expect(load_json(Path(path)), list, "fold file", str(path)):
        _expect(obj, dict, "fold record", str(path))
        try:
            where = f"{path}: fold {obj['fold_id']!r}"
            folds.append(FoldSpec(_expect(obj["fold_id"], int, "fold_id", where),
                                  *(_string_list(obj[split], split, where)
                                    for split in ("train", "val", "test"))))
        except KeyError as exc:
            raise ParseError(f"{path}: missing fold field {exc}") from None
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        if folds[-1].fold_id in (f.fold_id for f in folds[:-1]):
            raise ValidationError(
                f"{path}: fold {folds[-1].fold_id} is listed twice")
    return folds


__all__ = [
    "TaskDomain", "Intent", "MistakeLabel", "CoarseLabel", "coarse_label",
    "Segment", "ProceduralText", "AnnotatedSegment", "AnnotatedVideo",
    "FoldSpec", "validate_video", "save_folds",
    "load_folds", "load_json", "save_json", "video_to_json", "text_to_json",
    "parse_video", "parse_text",
]
