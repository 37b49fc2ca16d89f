import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepalign.data import (
    AnnotatedSegment, AnnotatedVideo, CoarseLabel, Intent, MistakeLabel,
    ProceduralText, Segment, TaskDomain, coarse_label,
    load_folds, load_json, parse_text, parse_video, save_folds, save_json,
    validate_video, video_to_json,
)
from stepalign.data import FoldSpec
from stepalign.errors import ParseError, StepAlignError, ValidationError


def _text(task=TaskDomain.COLOR_MIXTURE, n=3):
    return ProceduralText(task=task, steps=tuple(f"do thing {i}" for i in range(1, n + 1)))


def _video(video_id="v0", task=TaskDomain.COLOR_MIXTURE, segments=None, num_frames=50):
    if segments is None:
        segments = (
            AnnotatedSegment(Segment(0, 10), step=1, mistake=MistakeLabel.CORRECT),
            AnnotatedSegment(Segment(12, 20), step=2, mistake=MistakeLabel.OBJECT,
                             description="used the blue one"),
            AnnotatedSegment(Segment(25, 30), step=None, mistake=MistakeLabel.MISPICK,
                             description="grabbed the wrong jar"),
        )
    return AnnotatedVideo(video_id=video_id, worker_id="w0", task=task,
                          intent=Intent.MISTAKE_RUN, num_frames=num_frames,
                          segments=segments)


class TestCoarseLabel:
    def test_correct_maps_to_correct(self):
        assert coarse_label(MistakeLabel.CORRECT) == CoarseLabel.CORRECT

    def test_correction_keeps_own_class(self):
        assert coarse_label(MistakeLabel.CORRECTION) == CoarseLabel.CORRECTION

    def test_other_kinds_collapse_to_mistake(self):
        assert coarse_label(MistakeLabel.HOWTO) == CoarseLabel.MISTAKE

    def test_total_and_surjective(self):
        images = {coarse_label(m) for m in MistakeLabel}
        assert images == set(CoarseLabel)


def _texts(*texts):
    """The texts keyed by their tasks, as a corpus holds them."""
    return {text.task: text for text in texts}


class TestValidation:
    def test_valid_video_passes(self):
        validate_video(_video(), _texts(_text()))

    def test_empty_segment_rejected(self):
        with pytest.raises(ValidationError, match="segment empty"):
            Segment(5, 5)

    def test_unknown_step_rejected(self):
        video = _video(segments=(
            AnnotatedSegment(Segment(0, 5), step=9, mistake=MistakeLabel.CORRECT),
        ))
        with pytest.raises(ValidationError, match="unknown step"):
            validate_video(video, _texts(_text(n=8)))

    def test_segment_beyond_frames_rejected(self):
        with pytest.raises(ValidationError, match="exceeds num_frames"):
            _video(num_frames=15)

    def test_unsorted_segments_rejected(self):
        with pytest.raises(ValidationError, match="not sorted"):
            _video(segments=(
                AnnotatedSegment(Segment(10, 20), step=1, mistake=MistakeLabel.CORRECT),
                AnnotatedSegment(Segment(0, 5), step=2, mistake=MistakeLabel.CORRECT),
            ))

    def test_description_required_for_mistakes(self):
        with pytest.raises(ValidationError, match="lacks a description"):
            _video(segments=(
                AnnotatedSegment(Segment(0, 5), step=1, mistake=MistakeLabel.ACCIDENT),
            ))

    def test_description_forbidden_for_correct(self):
        with pytest.raises(ValidationError, match="carries a description"):
            _video(segments=(
                AnnotatedSegment(Segment(0, 5), step=1, mistake=MistakeLabel.CORRECT,
                                 description="spurious"),
            ))

    def test_overlapping_step_segments_rejected(self):
        with pytest.raises(ValidationError, match=r"v0: step 2 segment \[5, 12\) overlaps"):
            _video(segments=(
                AnnotatedSegment(Segment(0, 10), step=1, mistake=MistakeLabel.CORRECT),
                AnnotatedSegment(Segment(5, 12), step=2, mistake=MistakeLabel.CORRECT),
            ))

    @pytest.mark.parametrize("build, rule", [
        (lambda: ProceduralText(TaskDomain.CARDBOARD, ()),
         "cardboard: procedural text has no steps"),
        (lambda: ProceduralText(TaskDomain.CARDBOARD, ("fold", " ")),
         "cardboard: step 2 text is empty"),
        (lambda: _video(num_frames=0, segments=()),
         "v0: num_frames must be >= 1"),
        (lambda: validate_video(_video(task=TaskDomain.CARDBOARD), _texts(_text())),
         "v0: no procedural text for task cardboard"),
        (lambda: _video("a/b"), "video_id 'a/b' is not a file name"),
        (lambda: FoldSpec(0, ("a", "a", "b"), ("c",), ("d",)),
         "fold 0: 'a' is in train and again in train"),
        # the seed of its training raised a bare ValueError
        (lambda: FoldSpec(-1, ("a",), ("c",), ("d",)),
         "fold -1: fold_id must be >= 0"),
    ], ids=["no-steps", "empty-step", "no-frames", "no-text", "path-id",
            "fold-repeats-id", "fold-id-negative"])
    def test_broken_record_invariant_names_record(self, build, rule):
        with pytest.raises(ValidationError, match=f"^{rule}$"):
            build()

    @pytest.mark.parametrize("build, rule", [
        (lambda: Segment(0.5, 2), "segment start must be int, got 0.5"),
        (lambda: Segment(True, 2), "segment start must be int, got True"),
        (lambda: Segment(0, np.int64(2)),
         r"segment end must be int, got np.int64\(2\)"),
        (lambda: AnnotatedSegment(Segment(0, 5), step=True,
                                  mistake=MistakeLabel.CORRECT),
         "segment step must be int, got True"),
        (lambda: AnnotatedSegment(Segment(0, 5), step=1, mistake="correct"),
         "segment mistake must be MistakeLabel, got 'correct'"),
        (lambda: AnnotatedSegment((0, 5), step=1,
                                  mistake=MistakeLabel.CORRECT),
         r"segment span must be Segment, got \(0, 5\)"),
        (lambda: AnnotatedSegment(Segment(0, 5), step=1,
                                  mistake=MistakeLabel.HOWTO, description=3),
         "segment description must be str, got 3"),
        (lambda: _video(num_frames="5", segments=()),
         "v0: num_frames must be int, got '5'"),
        (lambda: _video(num_frames=50.0, segments=()),
         "v0: num_frames must be int, got 50.0"),
        (lambda: _video(task="color_mixture"),
         "v0: task must be TaskDomain, got 'color_mixture'"),
        (lambda: _video(segments=[]), r"v0: segments must be tuple, got \[\]"),
        (lambda: _video(segments=((0, 5),)),
         r"v0: each segment must be AnnotatedSegment, got \(0, 5\)"),
        (lambda: _video(7), "video_id must be str, got 7"),
        # a fold id of True trained as fold 1, and the others raised a
        # bare TypeError from the seed of its training
        (lambda: FoldSpec(True, ("a",), ("c",), ("d",)),
         "fold True: fold_id must be int, got True"),
        (lambda: FoldSpec("x", ("a",), ("c",), ("d",)),
         "fold 'x': fold_id must be int, got 'x'"),
        (lambda: FoldSpec(1.5, ("a",), ("c",), ("d",)),
         r"fold 1\.5: fold_id must be int, got 1\.5"),
        (lambda: FoldSpec(0, ["a"], ("c",), ("d",)),
         r"fold 0: train must be tuple, got \['a'\]"),
        (lambda: FoldSpec(0, ("a",), ("c", 7), ("d",)),
         "fold 0: each val id must be str, got 7"),
        # the int step raised a bare AttributeError; "ab" was read as the
        # two steps "a" and "b"
        (lambda: ProceduralText(TaskDomain.CARDBOARD, ("a", 3)),
         "cardboard: step 2 must be str, got 3"),
        (lambda: ProceduralText(TaskDomain.CARDBOARD, "ab"),
         "cardboard: steps must be tuple, got 'ab'"),
        (lambda: ProceduralText(TaskDomain.CARDBOARD, ["fold"]),
         r"cardboard: steps must be tuple, got \['fold'\]"),
        (lambda: ProceduralText("cardboard", ("fold",)),
         "text task must be TaskDomain, got 'cardboard'"),
    ], ids=["float-start", "bool-start", "numpy-end", "bool-step",
            "string-mistake", "tuple-span", "int-description",
            "string-frames", "float-frames", "string-task", "list-segments",
            "tuple-segment", "int-id", "bool-fold-id", "string-fold-id",
            "float-fold-id", "list-split", "int-split-id", "int-text-step",
            "string-text-steps", "list-text-steps", "string-text-task"])
    def test_mistyped_field_names_field_and_video(self, build, rule):
        # each used to be accepted, or to raise a bare TypeError from a
        # comparison
        with pytest.raises(ValidationError, match=f"^{rule}$"):
            build()

    def test_undefined_segments_may_overlap(self):
        validate_video(_video(segments=(
            AnnotatedSegment(Segment(0, 10), step=1, mistake=MistakeLabel.CORRECT),
            AnnotatedSegment(Segment(5, 12), step=None, mistake=MistakeLabel.MISPICK,
                             description="grabbed the wrong jar"),
            AnnotatedSegment(Segment(10, 14), step=2, mistake=MistakeLabel.CORRECT),
        )), _texts(_text()))


class TestRecordIO:
    def test_every_mistake_label_is_its_code(self):
        assert [m.value for m in MistakeLabel] == [
            "correct", "object", "mispick", "correction", "accident", "howto",
            "others"]
        for label in MistakeLabel:
            seg = AnnotatedSegment(
                Segment(0, 2), step=1, mistake=label,
                description=None if label == MistakeLabel.CORRECT else "x")
            obj = video_to_json(_video(segments=(seg,)))
            assert obj["segments"][0]["mistake"] == label.value
            assert parse_video(obj).segments == (seg,)

    def test_save_json_bytes(self, tmp_path):
        value = {"b": [1, "\u00e9"], "a": None}
        save_json(tmp_path / "x.json", value)
        assert (tmp_path / "x.json").read_bytes() == \
            b'{\n  "a": null,\n  "b": [\n    1,\n    "\\u00e9"\n  ]\n}\n'
        assert load_json(tmp_path / "x.json") == value

    @pytest.mark.parametrize("parse, obj, rule", [
        (parse_video, {k: v for k, v in video_to_json(_video()).items()
                       if k != "worker_id"},
         "missing annotation field 'worker_id'"),
        (parse_video, {**video_to_json(_video()), "task": "cooking"},
         "unknown TaskDomain value 'cooking'"),
        (parse_video, {**video_to_json(_video()), "intent": "sloppy"},
         "unknown Intent value 'sloppy'"),
        (parse_video, {**video_to_json(_video()),
                       "segments": [{"start": 0, "end": 2, "step": 1}]},
         "malformed segment record: 'mistake'"),
        (parse_video, {**video_to_json(_video()), "segments": [7]},
         "malformed segment record: "),
        (parse_text, {"task": "cardboard"}, "missing text field 'steps'"),
        (parse_text, {"task": "cooking", "steps": ["fold"]},
         "unknown TaskDomain value 'cooking'"),
        (parse_video, {**video_to_json(_video()),
                       "segments": [{"start": 0, "end": 2, "step": 1,
                                     "mistake": 0}]},
         "unknown MistakeLabel value 0$"),
        (parse_video, {**video_to_json(_video()),
                       "segments": [{"start": 0, "end": 2, "step": 1,
                                     "mistake": ["object"]}]},
         r"unknown MistakeLabel value \['object'\]$"),
    ], ids=["video-missing-field", "video-unknown-task", "unknown-intent",
            "segment-missing-field", "segment-not-object", "text-missing-field",
            "text-unknown-task", "mistake-code-int", "mistake-code-list"])
    def test_malformed_record_names_file(self, parse, obj, rule):
        with pytest.raises(ParseError, match=f"^x\\.json: {rule}"):
            parse(obj, where="x.json")

    def test_unknown_mistake_code_rejected(self):
        obj = {"video_id": "v", "worker_id": "w", "task": "cardboard",
               "intent": "correct_run", "num_frames": 10,
               "segments": [{"start": 0, "end": 2, "step": 1, "mistake": "oops"}]}
        with pytest.raises(ParseError,
                           match=r"^<memory>: unknown MistakeLabel value 'oops'$"):
            parse_video(obj)

    def test_empty_span_names_file(self):
        obj = video_to_json(_video())
        obj["segments"][0].update(start=3, end=3)
        with pytest.raises(ValidationError, match=r"x\.json: segment empty"):
            parse_video(obj, where="x.json")

    def test_unreadable_fold_file_names_path(self, tmp_path):
        utf16 = tmp_path / "folds.json"
        utf16.write_bytes(b"\xff\xfe[\x00]\x00")
        with pytest.raises(ParseError, match=r"folds\.json: not UTF-8"):
            load_folds(utf16)
        with pytest.raises(ParseError, match=r"missing\.json: cannot read"):
            load_folds(tmp_path / "missing.json")

    def test_non_object_records_rejected(self):
        with pytest.raises(ParseError, match="x.json"):
            parse_video([], where="x.json")
        with pytest.raises(ParseError, match="x.json"):
            parse_text("steps", where="x.json")

    @pytest.mark.parametrize("fold, error, rule", [
        ({"fold_id": 3, "train": ["a", "b"], "val": ["a"], "test": ["c"]},
         ValidationError, r"fold 3: 'a' is in train and again in val$"),
        ({"fold_id": 3, "train": ["a"], "val": ["b"], "test": ["a"]},
         ValidationError, r"fold 3: 'a' is in train and again in test$"),
        ({"fold_id": 3, "train": ["a", "b"], "val": ["c", "c"], "test": ["d"]},
         ValidationError, r"fold 3: 'c' is in val and again in val$"),
        ({"fold_id": 3, "train": "abc", "val": ["d"], "test": ["e"]},
         ParseError, r"fold 3: train must be a list of strings, got 'abc'$"),
        ({"fold_id": 3, "train": ["a", 7], "val": ["d"], "test": ["e"]},
         ParseError, r"fold 3: train must be a list of strings"),
        ({"fold_id": "3", "train": ["a"], "val": ["d"], "test": ["e"]},
         ParseError, r"fold '3': fold_id must be int, got '3'$"),
        ({"fold_id": True, "train": ["a"], "val": ["d"], "test": ["e"]},
         ParseError, r"fold True: fold_id must be int, got True$"),
        ({"fold_id": -1, "train": ["a"], "val": ["d"], "test": ["e"]},
         ValidationError, r"fold -1: fold_id must be >= 0$"),
        ({"fold_id": 3, "train": ["a"], "test": ["e"]},
         ParseError, r"missing fold field 'val'$"),
        ({"train": ["a"], "val": ["d"], "test": ["e"]},
         ParseError, r"missing fold field 'fold_id'$"),
    ], ids=["train-val-leak", "train-test-leak", "repeated-in-val",
            "ids-string", "id-not-string",
            "fold-id-string", "fold-id-bool", "fold-id-negative", "no-val",
            "no-fold-id"])
    def test_leaking_or_mistyped_fold_rejected(self, tmp_path, fold, error,
                                               rule):
        path = tmp_path / "folds.json"
        path.write_text(json.dumps([fold]))
        with pytest.raises(error, match=rf"folds\.json: {rule}"):
            load_folds(path)

    @pytest.mark.parametrize("payload, rule", [
        ({"fold_id": 3}, r"fold file must be list"),
        ([[3]], r"fold record must be dict, got \[3\]$"),
    ], ids=["object", "record-list"])
    def test_fold_file_of_another_shape_names_path(self, tmp_path, payload,
                                                   rule):
        path = tmp_path / "folds.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=rf"folds\.json: {rule}"):
            load_folds(path)

    def test_repeated_fold_id_names_path(self, tmp_path):
        # the second fold 0 used to load beside the first
        path = tmp_path / "folds.json"
        save_folds(path, [FoldSpec(0, ("a", "b"), ("c",), ("d",)),
                          FoldSpec(0, ("c", "d"), ("a",), ("b",))])
        with pytest.raises(ValidationError,
                           match=r"folds\.json: fold 0 is listed twice$"):
            load_folds(path)

    def test_fold_round_trip(self, tmp_path):
        folds = [FoldSpec(0, ("a", "b"), ("c",), ("d",)),
                 FoldSpec(1, ("c", "d"), ("a",), ("b",))]
        save_folds(tmp_path / "folds.json", folds)
        assert load_folds(tmp_path / "folds.json") == folds


_NON_INT_BOUNDS = st.one_of(st.booleans(), st.floats(allow_nan=False),
                            st.text(max_size=3), st.none(),
                            st.lists(st.integers(), max_size=2))


@st.composite
def _bad_bounds(draw):
    """A (start, end) pair that no segment may carry: an empty or reversed
    span of ints, or at least one bound that is not a JSON int."""
    if draw(st.booleans()):
        end = draw(st.integers(-10**6, 10**6))
        return draw(st.integers(end, end + 10**6)), end
    good = st.integers(-10**6, 10**6)
    if draw(st.booleans()):
        return draw(_NON_INT_BOUNDS), draw(good | _NON_INT_BOUNDS)
    return draw(good), draw(_NON_INT_BOUNDS)


@settings(max_examples=200, deadline=None)
@given(_bad_bounds())
def test_bad_segment_bounds_raise_naming_file(bounds):
    obj = video_to_json(_video())
    obj["segments"][0]["start"], obj["segments"][0]["end"] = bounds
    with pytest.raises(StepAlignError, match=r"anno/v0\.json"):
        parse_video(obj, where="anno/v0.json")
