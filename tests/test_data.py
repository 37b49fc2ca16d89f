import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepalign.corpus import Corpus
from stepalign.data import (
    AnnotatedSegment, AnnotatedVideo, CoarseLabel, Intent, MistakeLabel,
    ProceduralText, Segment, TaskDomain, coarse_label, load_corpus,
    load_folds, parse_text, parse_video, save_corpus, save_folds, validate_video,
    video_to_json,
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


class TestValidation:
    def test_valid_video_passes(self):
        validate_video(_video(), _text())

    def test_empty_segment_rejected(self):
        with pytest.raises(ValidationError, match="segment empty"):
            Segment(5, 5)

    def test_unknown_step_rejected(self):
        video = _video(segments=(
            AnnotatedSegment(Segment(0, 5), step=9, mistake=MistakeLabel.CORRECT),
        ))
        with pytest.raises(ValidationError, match="unknown step"):
            validate_video(video, _text(n=8))

    def test_segment_beyond_frames_rejected(self):
        video = _video(num_frames=15)
        with pytest.raises(ValidationError, match="exceeds num_frames"):
            validate_video(video, _text())

    def test_unsorted_segments_rejected(self):
        video = _video(segments=(
            AnnotatedSegment(Segment(10, 20), step=1, mistake=MistakeLabel.CORRECT),
            AnnotatedSegment(Segment(0, 5), step=2, mistake=MistakeLabel.CORRECT),
        ))
        with pytest.raises(ValidationError, match="not sorted"):
            validate_video(video, _text())

    def test_description_required_for_mistakes(self):
        video = _video(segments=(
            AnnotatedSegment(Segment(0, 5), step=1, mistake=MistakeLabel.ACCIDENT),
        ))
        with pytest.raises(ValidationError, match="lacks a description"):
            validate_video(video, _text())

    def test_description_forbidden_for_correct(self):
        video = _video(segments=(
            AnnotatedSegment(Segment(0, 5), step=1, mistake=MistakeLabel.CORRECT,
                             description="spurious"),
        ))
        with pytest.raises(ValidationError, match="carries a description"):
            validate_video(video, _text())


    def test_overlapping_step_segments_rejected(self):
        video = _video(segments=(
            AnnotatedSegment(Segment(0, 10), step=1, mistake=MistakeLabel.CORRECT),
            AnnotatedSegment(Segment(5, 12), step=2, mistake=MistakeLabel.CORRECT),
        ))
        with pytest.raises(ValidationError, match=r"v0: step 2 segment \[5, 12\) overlaps"):
            validate_video(video, _text())

    def test_undefined_segments_may_overlap(self):
        validate_video(_video(segments=(
            AnnotatedSegment(Segment(0, 10), step=1, mistake=MistakeLabel.CORRECT),
            AnnotatedSegment(Segment(5, 12), step=None, mistake=MistakeLabel.MISPICK,
                             description="grabbed the wrong jar"),
            AnnotatedSegment(Segment(10, 14), step=2, mistake=MistakeLabel.CORRECT),
        )), _text())


class TestCorpusLookup:
    def test_video_by_id(self):
        corpus = Corpus(texts={}, videos=[_video("a"), _video("b")],
                        features={}, step_features={})
        assert corpus.video_by_id("b").video_id == "b"
        with pytest.raises(ValidationError, match="unknown video_id 'c'"):
            corpus.video_by_id("c")

    def test_duplicate_video_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate video_id a"):
            Corpus(texts={}, videos=[_video("a"), _video("a")],
                   features={}, step_features={})


class TestCorpusAccess:
    def test_repeated_read_in_one_phase_logged_once(self):
        corpus = Corpus(texts={}, videos=[_video("a")],
                        features={"a": np.zeros((50, 2))}, step_features={})
        corpus.set_phase("infer")
        corpus.video_features("a")
        corpus.video_features("a")
        assert corpus.access_log == {("infer", "a")}
        corpus.set_phase("test")
        corpus.video_features("a")
        assert corpus.access_log == {("infer", "a"), ("test", "a")}


class TestCorpusIO:
    def test_round_trip_is_identity(self, tmp_path):
        texts = [_text(TaskDomain.COLOR_MIXTURE), _text(TaskDomain.CARDBOARD, n=5)]
        videos = [_video("v0"), _video("v1", task=TaskDomain.CARDBOARD)]
        save_corpus(tmp_path, texts, videos)
        loaded_texts, loaded_videos = load_corpus(tmp_path)
        assert {t.task: t for t in loaded_texts} == {t.task: t for t in texts}
        assert loaded_videos == sorted(videos, key=lambda v: v.video_id)

    def test_two_video_corpus_loads(self, tmp_path):
        save_corpus(tmp_path, [_text()], [_video("a"), _video("b")])
        _, videos = load_corpus(tmp_path)
        assert [v.video_id for v in videos] == ["a", "b"]

    def test_malformed_json_names_file_and_line(self, tmp_path):
        save_corpus(tmp_path, [_text()], [_video()])
        bad = tmp_path / "annotations" / "v0.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(ParseError, match=r"v0\.json: line 2"):
            load_corpus(tmp_path)

    def test_invalid_video_names_rule(self, tmp_path):
        save_corpus(tmp_path, [_text()], [_video()])
        obj = json.loads((tmp_path / "annotations" / "v0.json").read_text())
        obj["segments"][0]["step"] = 9
        (tmp_path / "annotations" / "v0.json").write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="unknown step"):
            load_corpus(tmp_path)

    def test_overlapping_step_segments_name_file(self, tmp_path):
        save_corpus(tmp_path, [_text()], [_video(segments=(
            AnnotatedSegment(Segment(0, 10), step=1, mistake=MistakeLabel.CORRECT),
            AnnotatedSegment(Segment(5, 12), step=2, mistake=MistakeLabel.CORRECT),
        ))])
        with pytest.raises(ValidationError, match=r"v0\.json: v0: step 2 .* overlaps"):
            load_corpus(tmp_path)

    def test_video_without_text_names_file(self, tmp_path):
        save_corpus(tmp_path, [_text()], [_video(task=TaskDomain.CARDBOARD)])
        with pytest.raises(ValidationError, match=r"v0\.json: v0: no procedural text"):
            load_corpus(tmp_path)

    def test_unknown_mistake_code_rejected(self):
        obj = {"video_id": "v", "worker_id": "w", "task": "cardboard",
               "intent": "correct_run", "num_frames": 10,
               "segments": [{"start": 0, "end": 2, "step": 1, "mistake": "oops"}]}
        with pytest.raises(ParseError, match="unknown mistake code"):
            parse_video(obj)

    @pytest.mark.parametrize("field, value", [
        ("step", 1.7), ("step", True), ("step", "2"), ("start", 0.9),
        ("description", 42), ("num_frames", 10.0), ("num_frames", "10"),
        ("steps", "abc"), ("steps", ["ok", 3]),
    ])
    def test_no_silent_coercion(self, tmp_path, field, value):
        save_corpus(tmp_path, [_text()], [_video()])
        kind = "texts/color_mixture.json" if field == "steps" else "annotations/v0.json"
        file = tmp_path / kind
        obj = json.loads(file.read_text())
        if field in obj:
            obj[field] = value
        else:
            obj["segments"][1][field] = value
        file.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match=kind.split("/")[1]):
            load_corpus(tmp_path)

    def test_empty_span_names_file(self):
        obj = video_to_json(_video())
        obj["segments"][0].update(start=3, end=3)
        with pytest.raises(ValidationError, match=r"x\.json: segment empty"):
            parse_video(obj, where="x.json")

    def test_non_utf8_annotation_names_file(self, tmp_path):
        save_corpus(tmp_path, [_text()], [_video()])
        (tmp_path / "annotations" / "v0.json").write_bytes(b'{"video_id": "\xe9"}')
        with pytest.raises(ParseError, match=r"v0\.json: not UTF-8"):
            load_corpus(tmp_path)

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

    @pytest.mark.parametrize("fold", [
        {"fold_id": 3, "train": ["a", "b"], "val": ["a"], "test": ["c"]},
        {"fold_id": 3, "train": ["a"], "val": ["b"], "test": ["a"]},
        {"fold_id": 3, "train": "abc", "val": ["d"], "test": ["e"]},
        {"fold_id": 3, "train": ["a", 7], "val": ["d"], "test": ["e"]},
    ], ids=["train-val-leak", "train-test-leak", "ids-string", "id-not-string"])
    def test_leaking_or_mistyped_fold_rejected(self, tmp_path, fold):
        path = tmp_path / "folds.json"
        path.write_text(json.dumps([fold]))
        with pytest.raises(ValidationError, match=r"folds\.json: fold 3"):
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
