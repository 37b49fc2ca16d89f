"""The in-memory corpus, its directory layout and its feature files,
malformed ones included (corpus.py)."""

import dataclasses
import gc
import json
import os
import re
import shutil
import struct
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from stepalign.checkpoint import load_checkpoint, save_checkpoint
from stepalign.corpus import Corpus, load_corpus, read_features
from stepalign.data import (
    AnnotatedSegment, AnnotatedVideo, Intent, MistakeLabel, ProceduralText,
    Segment, TaskDomain, save_json, text_to_json, video_to_json,
)
from stepalign.errors import FormatError, ParseError, ValidationError
from stepalign.synth import SynthConfig, synth_corpus

from test_checkpoint import _pack
from test_data import _text, _video


_META = {"kind": "features", "video_id": "v"}


def _ones(*shape):
    """A float32 feature matrix of ones, as a corpus holds them."""
    return np.ones(shape, dtype=np.float32)


def _one_video_corpus(matrix):
    """A corpus whose one video, ``v``, has the given feature matrix."""
    text = ProceduralText(TaskDomain.CARDBOARD, ("fold the flaps",))
    video = AnnotatedVideo(video_id="v", worker_id="w", task=text.task,
                           intent=Intent.CORRECT_RUN, num_frames=len(matrix),
                           segments=())
    return Corpus(texts={text.task: text}, videos=[video],
                  features={"v": matrix},
                  step_features={text.task: _ones(1, matrix.shape[1])})


def _small_synth(tasks=1):
    """A synth corpus of four short 2-step videos per task."""
    return synth_corpus(SynthConfig(tasks=tasks, videos_per_task=4, workers=2,
                                    steps_per_task=2, dim=8,
                                    frames_per_step=(2, 3))).corpus


def _corpus(video_id="v", matrix=None):
    """A cardboard corpus whose one 5-frame video has the given id and
    feature matrix."""
    text = ProceduralText(TaskDomain.CARDBOARD, ("fold the flaps", "tape"))
    video = AnnotatedVideo(video_id=video_id, worker_id="w", task=text.task,
                           intent=Intent.CORRECT_RUN, num_frames=5,
                           segments=())
    return Corpus(texts={text.task: text}, videos=[video],
                  features={video_id: _ones(5, 3) if matrix is None
                            else matrix},
                  step_features={text.task: _ones(2, 3)})


def test_video_id_of_a_step_feature_file_rejected():
    # both matrices would be saved to features/steps_cardboard.fmtx
    with pytest.raises(ValidationError, match="^video_id steps_cardboard is "
                                              "the name of a task's step "
                                              "features$"):
        _corpus("steps_cardboard")


@pytest.mark.parametrize("video_id", [
    "../../escaped", "", ".", "..", "a/b", "a\\b", "a\0b",
], ids=["escaping", "empty", "dot", "dot-dot", "slash", "backslash", "nul"])
def test_video_id_not_a_file_name_rejected(video_id):
    # saved as annotations/<id>.json and features/<id>.fmtx, such an id
    # wrote its files outside the corpus directory; no such record exists
    with pytest.raises(ValidationError,
                       match=rf"^video_id {re.escape(repr(video_id))} is not "
                             rf"a file name$"):
        dataclasses.replace(_small_synth().videos[0], video_id=video_id)


def test_annotation_with_a_path_as_id_names_its_file(tmp_path):
    corpus = _small_synth()
    corpus.save(tmp_path)
    file = tmp_path / "annotations" / f"{corpus.videos[0].video_id}.json"
    record = json.loads(file.read_text())
    record["video_id"] = "../../escaped"
    file.write_text(json.dumps(record))
    with pytest.raises(ValidationError,
                       match=rf"^{re.escape(str(file))}: video_id "
                             rf"'\.\./\.\./escaped' is not a file name$"):
        Corpus.from_dir(tmp_path)


def test_video_without_text_rejected():
    # training and task_step_features raised a bare KeyError on such a video
    corpus = _small_synth(tasks=2)
    texts = dict(corpus.texts)
    step_features = dict(corpus.step_features)
    del texts[TaskDomain.COLOR_MIXTURE], step_features[TaskDomain.COLOR_MIXTURE]
    first = next(v.video_id for v in corpus.videos
                 if v.task == TaskDomain.COLOR_MIXTURE)
    with pytest.raises(ValidationError,
                       match=f"^{first}: no procedural text for task "
                             f"color_mixture$"):
        Corpus(texts=texts, videos=corpus.videos, features=corpus.features,
               step_features=step_features)


def test_step_beyond_its_text_rejected():
    # save wrote such a corpus, which from_dir then rejected
    text = ProceduralText(TaskDomain.CARDBOARD, ("fold the flaps", "tape"))
    video = AnnotatedVideo(
        video_id="v", worker_id="w", task=text.task, intent=Intent.CORRECT_RUN,
        num_frames=5, segments=(AnnotatedSegment(Segment(0, 5), step=9,
                                                 mistake=MistakeLabel.CORRECT),))
    with pytest.raises(ValidationError,
                       match=r"^v: unknown step 9 \(text has 2\)$"):
        Corpus(texts={text.task: text}, videos=[video],
               features={"v": _ones(5, 3)},
               step_features={text.task: _ones(2, 3)})


def test_text_held_under_another_task_rejected():
    # save wrote it as texts/color_mixture.json beside
    # features/steps_cardboard.fmtx, and from_dir then found no
    # steps_color_mixture.fmtx
    text = ProceduralText(TaskDomain.COLOR_MIXTURE, ("mix", "stir"))
    with pytest.raises(ValidationError, match="^the color_mixture text is "
                                              "held under task cardboard$"):
        Corpus(texts={TaskDomain.CARDBOARD: text}, videos=[], features={},
               step_features={TaskDomain.CARDBOARD: _ones(2, 3)})


def test_unknown_video_features_rejected_before_logging():
    corpus = _corpus()
    with pytest.raises(ValidationError, match="^unknown video_id 'nope'$"):
        corpus.video_features("nope")
    assert corpus.access_log == set()


@pytest.mark.parametrize("task, rule", [
    (TaskDomain.COLOR_MIXTURE, "no procedural text for task color_mixture"),
    ("cardboard", "task must be TaskDomain, got 'cardboard'"),
], ids=["task-without-text", "not-a-task"])
def test_step_features_of_task_without_text_rejected(task, rule):
    # a task without a text raised a bare KeyError
    with pytest.raises(ValidationError, match=f"^{rule}$"):
        _corpus().task_step_features(task)


@pytest.mark.parametrize("features, step_features, rule", [
    ({}, None, r"v: no feature matrix"),
    ({"v": _ones(5)}, None, r"v: feature matrix must be 2-d with at least "
                            r"one row, got shape \(5,\)"),
    # Corpus.save rejected these and a NaN once the constructor had taken
    # them, or a matrix swapped in after it
    ({"v": _ones(0, 3)}, None, r"v: feature matrix must be 2-d with at "
                               r"least one row, got shape \(0, 3\)"),
    ({"v": _ones(5, 3) * np.float32(np.nan)}, None,
     r"v: feature matrix must be finite, but row 0 is not"),
    (None, {TaskDomain.CARDBOARD: _ones(2, 3) * np.float32(np.inf)},
     r"steps_cardboard: feature matrix \(as wide as v\) must be finite, "
     r"but row 0 is not"),
    ({"v": _ones(4, 3)}, None, "v: feature matrix has 4 rows for 5 frames"),
    (None, {TaskDomain.CARDBOARD: _ones(3, 3)},
     "steps_cardboard: feature matrix has 3 rows for 2 steps"),
    (None, {TaskDomain.CARDBOARD: _ones(2, 4)},
     r"steps_cardboard: feature matrix \(as wide as v\) must be 2-d with "
     r"at least one row of 3 columns, got shape \(2, 4\)"),
    ({"v": _ones(5, 4)}, None,
     r"steps_cardboard: feature matrix \(as wide as v\) must be 2-d with "
     r"at least one row of 4 columns, got shape \(2, 3\)"),
    (None, {TaskDomain.CARDBOARD: _ones(2, 3),
            TaskDomain.COLOR_MIXTURE: _ones(2, 3)},
     "steps_color_mixture: no procedural text for task color_mixture"),
    (None, {}, "steps_cardboard: no feature matrix"),
    ({"v": _ones(5, 3), "stray": _ones(2, 2)}, None,
     "stray: feature matrix names no video"),
    ({"v": np.ones((5, 3))}, None,
     "v: feature matrix must be float32, got float64"),
    # a list failed bare at its missing dtype
    ({"v": _ones(5, 3).tolist()}, None,
     "v: feature matrix must be a numpy array, got list"),
    (None, {TaskDomain.CARDBOARD: np.ones((2, 3), dtype=np.float16)},
     "steps_cardboard: feature matrix must be float32, got float16"),
    # a zero-width corpus would report feature_dim 0, and training would
    # then fail on an "all-zero feature row"
    ({"v": _ones(5, 0)}, {TaskDomain.CARDBOARD: _ones(2, 0)},
     r"v: feature matrix has no columns, got shape \(5, 0\)"),
    (None, {TaskDomain.CARDBOARD: _ones(2, 0)},
     r"steps_cardboard: feature matrix \(as wide as v\) must be 2-d with "
     r"at least one row of 3 columns, got shape \(2, 0\)"),
], ids=["no-matrix", "1-d", "no-rows", "video-nan", "steps-inf",
        "frame-rows", "step-rows", "step-width",
        "video-width", "step-matrix-without-text", "text-without-step-matrix",
        "stray-matrix", "video-float64", "video-list", "steps-float16",
        "video-no-columns",
        "steps-no-columns"])
def test_constructor_rejects_matrix_not_fitting_its_record(features,
                                                           step_features,
                                                           rule):
    corpus = _corpus()
    with pytest.raises(ValidationError, match=f"^{rule}$"):
        Corpus(texts=corpus.texts, videos=corpus.videos,
               features=corpus.features if features is None else features,
               step_features=(corpus.step_features if step_features is None
                              else step_features))


@pytest.mark.parametrize("order", ["C", "F"])
def test_constructor_makes_the_callers_matrix_read_only(tmp_path, order):
    # the caller's array stayed writable: a NaN written into it after the
    # constructor checked it reached the trainers, and Corpus.save wrote
    # it; the corpus holds the array itself, in either order, uncopied
    matrix = np.ones((5, 3), dtype=np.float32, order=order)
    corpus = _corpus(matrix=matrix)
    assert corpus.features["v"] is matrix
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 0] = np.nan
    corpus.save(tmp_path)
    loaded = Corpus.from_dir(tmp_path)
    np.testing.assert_array_equal(loaded.video_features("v"), _ones(5, 3))


@pytest.mark.parametrize("view", ["rows", "strided"])
def test_view_of_a_writable_array_is_held_as_a_copy(tmp_path, view):
    # its base stays writable, so the corpus holds a read-only copy
    base = _ones(5, 3) if view == "rows" else _ones(10, 3)
    matrix = base[:] if view == "rows" else base[::2]
    corpus = _corpus(matrix=matrix)
    held = corpus.features["v"]
    assert not np.shares_memory(held, base) and not held.flags.writeable
    base[0, 0] = np.nan
    corpus.save(tmp_path)
    loaded = Corpus.from_dir(tmp_path)
    np.testing.assert_array_equal(loaded.video_features("v"), _ones(5, 3))


def test_view_of_a_read_only_array_is_held_uncopied():
    # as a corpus built from another corpus's matrices holds them
    view = _corpus().features["v"][:]
    assert not view.flags.writeable
    assert _corpus(matrix=view).features["v"] is view


def _built(tmp_path, source):
    """A small synth corpus as built in memory, or saved and loaded."""
    corpus = _small_synth()
    if source == "from_dir":
        corpus.save(tmp_path)
        corpus = Corpus.from_dir(tmp_path)
    return corpus


@pytest.mark.parametrize("source", ["synth", "from_dir"])
def test_held_matrices_and_mappings_cannot_be_written(tmp_path, source):
    # a matrix written or swapped in after the constructor checked it
    # reached the trainers and Corpus.save unchecked
    corpus = _built(tmp_path, source)
    video = corpus.videos[0]
    for matrix in (corpus.video_features(video.video_id),
                   corpus.task_step_features(video.task)):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 0.0
    for table, key in ((corpus.features, video.video_id),
                       (corpus.step_features, video.task)):
        with pytest.raises(TypeError):
            table[key] = _ones(*table[key].shape)
        with pytest.raises(TypeError):
            del table[key]


@pytest.mark.parametrize("source", ["synth", "from_dir"])
def test_held_texts_and_videos_cannot_be_changed(tmp_path, source):
    # a video appended to corpus.videos again, past the constructor's
    # duplicate check, was written by Corpus.save beside its one matrix
    corpus = _built(tmp_path, source)
    video, text = corpus.videos[0], corpus.texts[corpus.videos[0].task]
    with pytest.raises(AttributeError):
        corpus.videos.append(video)
    with pytest.raises(TypeError):
        corpus.texts[text.task] = text
    videos, texts = list(corpus.videos), dict(corpus.texts)
    rebuilt = Corpus(texts=texts, videos=videos, features=corpus.features,
                     step_features=corpus.step_features)
    videos.append(video)
    del texts[text.task]
    assert rebuilt.videos == corpus.videos and rebuilt.texts == corpus.texts


@pytest.mark.parametrize("field", ["texts", "videos", "features",
                                   "step_features"])
@pytest.mark.parametrize("source", ["synth", "from_dir"])
def test_built_corpus_fields_cannot_be_reassigned(tmp_path, source, field):
    # a dict holding a NaN matrix, assigned to features after the
    # constructor ran, reached Corpus.save unchecked
    corpus = _built(tmp_path, source)
    held = getattr(corpus, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(corpus, field, {})
    assert getattr(corpus, field) is held
    corpus.set_phase("infer")
    assert corpus.phase == "infer"


@pytest.mark.parametrize("name, shape, rule", [
    ("v", (4, 3), "v: feature matrix has 4 rows for 5 frames"),
    ("steps_cardboard", (2, 4), r"steps_cardboard: feature matrix \(as wide "
                                r"as v\) must be 2-d of 3 columns, got "
                                r"shape \(2, 4\)"),
], ids=["rows", "width"])
def test_constructor_checks_the_shape_of_a_stored_matrix(tmp_path, name,
                                                         shape, rule):
    # open_checkpoint scanned a stored matrix's values; the constructor
    # reads no file, but holds the matrix to its record and the corpus width
    file = tmp_path / f"{name}.fmtx"
    _write_features(file, _ones(*shape), name)
    stored = read_features(file, shape[0], "dim")
    corpus = _corpus()
    features, step_features = dict(corpus.features), dict(corpus.step_features)
    if name == "v":
        features["v"] = stored
    else:
        step_features[TaskDomain.CARDBOARD] = stored
    with pytest.raises(ValidationError, match=f"^{rule}$"):
        Corpus(texts=corpus.texts, videos=corpus.videos, features=features,
               step_features=step_features)


def test_feature_dim_is_the_first_matrix_width():
    text = ProceduralText(TaskDomain.CARDBOARD, ("fold the flaps", "tape"))
    steps_only = Corpus(texts={text.task: text}, videos=[], features={},
                        step_features={text.task: _ones(2, 3)})
    assert steps_only.feature_dim == 3
    assert _corpus().feature_dim == 3
    empty = Corpus(texts={}, videos=[], features={}, step_features={})
    with pytest.raises(ValidationError, match="^corpus has no feature matrix$"):
        empty.feature_dim


def test_step_file_name_of_another_task_allowed(tmp_path):
    _corpus("steps_color_mixture").save(tmp_path)
    assert Corpus.from_dir(tmp_path).video_by_id("steps_color_mixture")


def test_save_over_another_corpus_rejected_and_writes_no_file(tmp_path):
    # from_dir read the first corpus's two extra videos back with the second
    synth_corpus(SynthConfig(tasks=1, videos_per_task=6, workers=2,
                             steps_per_task=2, dim=8,
                             frames_per_step=(2, 3))).corpus.save(tmp_path)
    files = sorted(f for f in tmp_path.rglob("*") if f.is_file())
    before = {f: f.read_bytes() for f in files}
    second = synth_corpus(SynthConfig(tasks=1, videos_per_task=4, workers=2,
                                      steps_per_task=2, dim=8,
                                      frames_per_step=(2, 3), seed=1)).corpus
    owned = {f"{v.video_id}.json" for v in second.videos}
    stale = min(f for f in files if f.parent.name == "annotations"
                and f.name not in owned)
    with pytest.raises(ValidationError, match=rf"^{re.escape(str(stale))}: no "
                                              rf"record of this corpus owns "
                                              rf"this file$"):
        second.save(tmp_path)
    assert sorted(f for f in tmp_path.rglob("*") if f.is_file()) == files
    assert {f: f.read_bytes() for f in files} == before


def test_save_over_a_temporary_leftover(tmp_path):
    # a failed write's *.tmp file is not a record of another corpus
    corpus = _small_synth()
    corpus.save(tmp_path)
    leftover = tmp_path / "features" / "gone.fmtx.tmp"
    leftover.write_bytes(b"partial")
    corpus.save(tmp_path)
    assert leftover.read_bytes() == b"partial"
    assert len(Corpus.from_dir(tmp_path).videos) == len(corpus.videos)


class TestFeatureIO:
    def test_round_trip_float32_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(7, 5)).astype(np.float32)
        _one_video_corpus(m).save(tmp_path)
        loaded = read_features(tmp_path / "features" / "v.fmtx", 7, "dim")
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded, m)

    def test_loaded_features_are_read_only_and_as_saved(self, tmp_path):
        corpus = _corpus(matrix=np.arange(15, dtype=np.float32).reshape(5, 3))
        corpus.save(tmp_path)
        loaded = Corpus.from_dir(tmp_path)
        for fetch, saved in (
                (lambda: loaded.video_features("v"), corpus.features["v"]),
                (lambda: loaded.task_step_features(TaskDomain.CARDBOARD),
                 corpus.step_features[TaskDomain.CARDBOARD])):
            matrix = fetch()
            assert type(matrix) is np.ndarray and matrix.dtype == np.float32
            assert not matrix.flags.writeable
            np.testing.assert_array_equal(matrix, saved)
            assert fetch() is not matrix

    def test_corpus_keeps_no_fetched_matrix(self, tmp_path):
        _small_synth().save(tmp_path)
        loaded = Corpus.from_dir(tmp_path)
        video = loaded.videos[0]
        refs = [weakref.ref(loaded.video_features(video.video_id)),
                weakref.ref(loaded.task_step_features(video.task))]
        assert [ref() for ref in refs] == [None, None]

    def test_loaded_values_survive_a_save_over_their_directory(self, tmp_path):
        first = _small_synth()
        first.save(tmp_path)
        loaded = Corpus.from_dir(tmp_path)
        second = dataclasses.replace(
            first, features={vid: -m for vid, m in first.features.items()},
            step_features={t: -m for t, m in first.step_features.items()})
        second.save(tmp_path)
        for video in first.videos:
            np.testing.assert_array_equal(
                loaded.video_features(video.video_id),
                first.features[video.video_id])
            np.testing.assert_array_equal(
                Corpus.from_dir(tmp_path).video_features(video.video_id),
                second.features[video.video_id])
        for task, matrix in first.step_features.items():
            np.testing.assert_array_equal(loaded.task_step_features(task),
                                          matrix)

    def test_file_cut_short_after_loading_names_file(self, tmp_path):
        _small_synth().save(tmp_path)
        loaded = Corpus.from_dir(tmp_path)
        video_id = loaded.videos[0].video_id
        file = tmp_path / "features" / f"{video_id}.fmtx"
        with open(file, "r+b") as fh:
            fh.truncate(file.stat().st_size - 4)
        with pytest.raises(FormatError, match=rf"{video_id}\.fmtx: file shrank "
                                              rf"after it was opened$"):
            loaded.video_features(video_id)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors in /proc/self/fd")
    def test_one_descriptor_per_file_closed_when_dropped(self, tmp_path):
        _small_synth(tasks=2).save(tmp_path)
        files = len(os.listdir(tmp_path / "features"))
        gc.collect()    # earlier tests' garbage may hold descriptors
        before = len(os.listdir("/proc/self/fd"))
        loaded = Corpus.from_dir(tmp_path)
        loaded.video_features(loaded.videos[0].video_id)
        assert len(os.listdir("/proc/self/fd")) == before + files
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del loaded
            gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before
        assert caught == []

    def test_loaded_corpus_saves_back_into_its_own_directory(self, tmp_path):
        synth_corpus(SynthConfig(tasks=2, videos_per_task=2, workers=2,
                                 steps_per_task=2, dim=8,
                                 frames_per_step=(2, 3))).corpus.save(tmp_path)
        files = sorted(f for f in tmp_path.rglob("*") if f.is_file())
        before = {f: f.read_bytes() for f in files}
        loaded = Corpus.from_dir(tmp_path)
        loaded.save(tmp_path)
        assert sorted(f for f in tmp_path.rglob("*") if f.is_file()) == files
        assert {f: f.read_bytes() for f in files} == before
        again = Corpus.from_dir(tmp_path)
        for video_id, matrix in loaded.features.items():
            np.testing.assert_array_equal(again.features[video_id], matrix)

    def test_from_dir_copies_no_feature_matrix(self, tmp_path):
        # rows wide enough that a matrix outweighs the finiteness check's
        # read buffer and everything else from_dir allocates
        rng = np.random.default_rng(0)
        corpus = _small_synth(tasks=2)
        corpus = dataclasses.replace(corpus, features={
            v.video_id: rng.normal(size=(v.num_frames, 1 << 14)).astype("f4")
            for v in corpus.videos}, step_features={
            t.task: rng.normal(size=(t.num_steps, 1 << 14)).astype("f4")
            for t in corpus.texts.values()})
        corpus.save(tmp_path)
        smallest = min(m.nbytes for m in corpus.features.values())
        tracemalloc.start()
        try:
            loaded = Corpus.from_dir(tmp_path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < smallest and held < smallest
        for video_id, matrix in corpus.features.items():
            np.testing.assert_array_equal(loaded.video_features(video_id),
                                          matrix)

    def test_bytes_follow_the_checkpoint_layout(self, tmp_path):
        m = np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -4.0]], dtype=np.float32)
        _one_video_corpus(m).save(tmp_path)
        header = (b'{"kind":"features","tensors":[{"name":"features",'
                  b'"shape":[2,3]}],"video_id":"v"}')
        payload = struct.pack("<6f", 1.0, -2.0, 0.5, 3.0, 0.25, -4.0)
        assert (tmp_path / "features" / "v.fmtx").read_bytes() == \
            struct.pack("<I", len(header)) + header + payload

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "v.fmtx"
        save_checkpoint(path, {"features": np.ones((4, 4))}, _META)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError, match=r"v\.fmtx: truncated tensor features$"):
            read_features(path, 4, 4)

    def test_overwritten_header_length(self, tmp_path):
        path = tmp_path / "v.fmtx"
        save_checkpoint(path, {"features": np.ones((2, 2))}, _META)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError,
                           match=r"v\.fmtx: truncated checkpoint header$"):
            read_features(path, 2, 2)

    def test_non_finite_payload(self, tmp_path):
        # save_checkpoint writes no non-finite value, so the file is hand-made
        path = tmp_path / "v.fmtx"
        header = {**_META, "tensors": [{"name": "features", "shape": [1, 2]}]}
        path.write_bytes(_pack(header, np.array([1.0, np.nan], "<f4").tobytes()))
        with pytest.raises(FormatError,
                           match=r"v\.fmtx: tensor features has non-finite"):
            read_features(path, 1, 2)

    @pytest.mark.parametrize("tensors, meta, rule", [
        ({"features": np.ones((2, 3))}, {**_META, "kind": "classifier"},
         r"checkpoint kind 'classifier', not 'features'"),
        ({"features": np.ones(3)}, _META,
         r"tensor features has shape \(3,\), not \(2, 3\)$"),
        ({"features": np.ones((2, 3, 1))}, _META,
         r"tensor features has shape \(2, 3, 1\), not \(2, 3\)$"),
        ({"features": np.ones((2, 3)), "extra": np.ones(1)}, _META,
         r"tensors \['extra'\] are not in the features layout"),
        ({"features": np.ones((0, 3))}, _META,
         r"tensor features has shape \(0, 3\), not \(2, 3\)$"),
        ({"features": np.ones((2, 0))}, _META,
         r"tensor features has shape \(2, 0\), not \(2, 3\)$"),
        ({"features": np.ones((2, 3))}, {**_META, "video_id": 7},
         r"header names 7, not 'v'$"),
        ({"features": np.ones((2, 3))}, {"kind": "features"},
         r"header names None, not 'v'$"),
    ], ids=["other-kind", "1-d", "3-d", "stray-tensor", "zero-rows",
            "zero-dim", "int-id", "no-id"])
    def test_malformed_features_file_names_file_and_rule(self, tmp_path,
                                                         tensors, meta, rule):
        path = tmp_path / "v.fmtx"
        save_checkpoint(path, tensors, meta)
        with pytest.raises(FormatError, match=rf"v\.fmtx: {rule}"):
            read_features(path, 2, 3)


# the records' directory and the feature files of a saved corpus


def _save_records(root, texts, videos):
    """Write the texts and annotations of a corpus directory, in the
    layout ``load_corpus`` reads, without feature files."""
    for sub in ("texts", "annotations"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    for text in texts:
        save_json(root / "texts" / f"{text.task.value}.json", text_to_json(text))
    for video in videos:
        save_json(root / "annotations" / f"{video.video_id}.json",
                  video_to_json(video))


def _two_dim_corpus(*videos):
    """A color-mixture corpus of the given videos, every feature matrix
    two columns of zeros."""
    text = _text()
    return Corpus(texts={text.task: text}, videos=list(videos),
                  features={v.video_id: np.zeros((50, 2), np.float32)
                            for v in videos},
                  step_features={text.task: np.zeros((3, 2), np.float32)})


class TestCorpusLookup:
    def test_video_by_id(self):
        corpus = _two_dim_corpus(_video("a"), _video("b"))
        assert corpus.video_by_id("b").video_id == "b"
        with pytest.raises(ValidationError, match="unknown video_id 'c'"):
            corpus.video_by_id("c")

    def test_duplicate_video_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate video_id a"):
            _two_dim_corpus(_video("a"), _video("a"))


class TestCorpusAccess:
    def test_repeated_read_in_one_phase_logged_once(self):
        corpus = _two_dim_corpus(_video("a"))
        corpus.set_phase("infer")
        corpus.video_features("a")
        corpus.video_features("a")
        assert corpus.access_log == {("infer", "a")}
        corpus.set_phase("test")
        corpus.video_features("a")
        assert corpus.access_log == {("infer", "a"), ("test", "a")}


def _saved_corpus(tmp_path, widths, step_width):
    """A two-video corpus on disk whose feature files have the given
    widths, video by video, then the step texts'. A corpus holds one width,
    so a file of another width is written over the saved one by hand."""
    videos = [_video("a"), _video("b")]
    task = TaskDomain.COLOR_MIXTURE
    corpus = Corpus(texts={task: _text()}, videos=videos,
                    features={v.video_id: np.ones((50, widths[0]), np.float32)
                              for v in videos},
                    step_features={task: np.ones((3, widths[0]), np.float32)})
    corpus.save(tmp_path)
    rows = {"a": 50, "b": 50, f"steps_{task.value}": 3}
    for name, width in zip(rows, (*widths, step_width)):
        if width != widths[0]:
            _write_features(tmp_path / "features" / f"{name}.fmtx",
                            np.ones((rows[name], width)), name)


def _write_features(file, matrix, video_id):
    """Overwrite one feature file with a matrix and a header id of the
    test's choosing, as a hand-made file would have them."""
    save_checkpoint(file, {"features": matrix},
                    {"kind": "features", "video_id": video_id})


class TestCorpusFeatureWidths:
    def test_equal_widths_load(self, tmp_path):
        _saved_corpus(tmp_path, (8, 8), 8)
        assert Corpus.from_dir(tmp_path).feature_dim == 8

    def test_video_width_disagreeing_names_file(self, tmp_path):
        _saved_corpus(tmp_path, (8, 6), 8)
        with pytest.raises(FormatError, match=r"b\.fmtx: tensor features has "
                                              r"shape \(50, 6\), not \(50, 8\)$"):
            Corpus.from_dir(tmp_path)

    def test_step_width_disagreeing_names_file(self, tmp_path):
        _saved_corpus(tmp_path, (8, 8), 5)
        with pytest.raises(FormatError, match=r"steps_color_mixture\.fmtx: "
                                              r"tensor features has shape "
                                              r"\(3, 5\), not \(3, 8\)$"):
            Corpus.from_dir(tmp_path)

    def test_zero_width_names_file(self, tmp_path):
        # Corpus.save writes no empty matrix, so the file is hand-made
        _saved_corpus(tmp_path, (8, 8), 8)
        _write_features(tmp_path / "features" / "a.fmtx", np.ones((50, 0)), "a")
        with pytest.raises(FormatError,
                           match=r"a\.fmtx: feature matrix has no columns$"):
            Corpus.from_dir(tmp_path)


class TestCorpusHeaderIds:
    @pytest.mark.parametrize("name, other", [
        ("b", "a"), ("b", "steps_color_mixture"), ("steps_color_mixture", "b"),
        ("steps_color_mixture", "steps_cooking"),
    ])
    def test_header_naming_another_id_names_file_and_ids(self, tmp_path,
                                                         name, other):
        _saved_corpus(tmp_path, (8, 8), 8)
        file = tmp_path / "features" / f"{name}.fmtx"
        _write_features(file, load_checkpoint(file)[0]["features"], other)
        with pytest.raises(FormatError, match=rf"{name}\.fmtx: header names "
                                              rf"'{other}', not '{name}'"):
            Corpus.from_dir(tmp_path)


class TestCorpusFeatureRows:
    def test_row_count_disagreeing_names_file(self, tmp_path):
        _saved_corpus(tmp_path, (8, 8), 8)
        _write_features(tmp_path / "features" / "b.fmtx", np.ones((40, 8)), "b")
        with pytest.raises(FormatError, match=r"b\.fmtx: tensor features has "
                                              r"shape \(40, 8\), not \(50, 8\)$"):
            Corpus.from_dir(tmp_path)

    def test_step_count_disagreeing_names_file(self, tmp_path):
        _saved_corpus(tmp_path, (8, 8), 8)
        file = tmp_path / "features" / "steps_color_mixture.fmtx"
        _write_features(file, np.ones((4, 8)), "steps_color_mixture")
        with pytest.raises(FormatError, match=r"steps_color_mixture\.fmtx: "
                                              r"tensor features has shape "
                                              r"\(4, 8\), not \(3, 8\)$"):
            Corpus.from_dir(tmp_path)

    def test_missing_file_names_file(self, tmp_path):
        _saved_corpus(tmp_path, (8, 8), 8)
        (tmp_path / "features" / "a.fmtx").unlink()
        with pytest.raises(FormatError, match=r"a\.fmtx: cannot read: "):
            Corpus.from_dir(tmp_path)

    def test_one_file_per_matrix(self, tmp_path):
        _saved_corpus(tmp_path, (8, 8), 8)
        assert sorted(p.name for p in (tmp_path / "features").iterdir()) == \
            ["a.fmtx", "b.fmtx", "steps_color_mixture.fmtx"]


class TestCorpusIO:
    def test_round_trip_is_identity(self, tmp_path):
        texts = [_text(TaskDomain.COLOR_MIXTURE), _text(TaskDomain.CARDBOARD, n=5)]
        videos = [_video("v0"), _video("v1", task=TaskDomain.CARDBOARD)]
        _save_records(tmp_path, texts, videos)
        loaded_texts, loaded_videos = load_corpus(tmp_path)
        assert {t.task: t for t in loaded_texts} == {t.task: t for t in texts}
        assert loaded_videos == sorted(videos, key=lambda v: v.video_id)

    def test_two_video_corpus_loads(self, tmp_path):
        _save_records(tmp_path, [_text()], [_video("a"), _video("b")])
        _, videos = load_corpus(tmp_path)
        assert [v.video_id for v in videos] == ["a", "b"]

    def test_malformed_json_names_file_and_line(self, tmp_path):
        _save_records(tmp_path, [_text()], [_video()])
        bad = tmp_path / "annotations" / "v0.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(ParseError, match=r"v0\.json: line 2"):
            load_corpus(tmp_path)

    def test_invalid_video_names_rule(self, tmp_path):
        _save_records(tmp_path, [_text()], [_video()])
        obj = json.loads((tmp_path / "annotations" / "v0.json").read_text())
        obj["segments"][0]["step"] = 9
        (tmp_path / "annotations" / "v0.json").write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="unknown step"):
            load_corpus(tmp_path)

    def test_overlapping_step_segments_name_file(self, tmp_path):
        _save_records(tmp_path, [_text()], [_video()])
        file = tmp_path / "annotations" / "v0.json"
        obj = json.loads(file.read_text())
        obj["segments"][1]["start"] = 5
        file.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=r"v0\.json: v0: step 2 .* overlaps"):
            load_corpus(tmp_path)

    def test_video_without_text_names_file(self, tmp_path):
        _save_records(tmp_path, [_text()], [_video(task=TaskDomain.CARDBOARD)])
        with pytest.raises(ValidationError, match=r"v0\.json: v0: no procedural text"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("mutate, error, rule", [
        (lambda root: shutil.rmtree(root / "texts"), ParseError,
         "expected texts/ and annotations/ subdirectories"),
        (lambda root: shutil.rmtree(root / "annotations"), ParseError,
         "expected texts/ and annotations/ subdirectories"),
        (lambda root: shutil.copy(root / "texts" / "color_mixture.json",
                                  root / "texts" / "copy.json"),
         ValidationError,
         r"copy\.json: file is named 'copy', not its task 'color_mixture'$"),
        (lambda root: shutil.copy(root / "annotations" / "v0.json",
                                  root / "annotations" / "v1.json"),
         ValidationError,
         r"v1\.json: file is named 'v1', not its video_id 'v0'$"),
        (lambda root: (root / "texts" / "color_mixture.json").rename(
            root / "texts" / "renamed.json"),
         ValidationError,
         r"renamed\.json: file is named 'renamed', not its task "
         r"'color_mixture'$"),
        (lambda root: (root / "annotations" / "v0.json").rename(
            root / "annotations" / "renamed.json"),
         ValidationError,
         r"renamed\.json: file is named 'renamed', not its video_id 'v0'$"),
    ], ids=["no-texts", "no-annotations", "duplicate-text", "duplicate-video",
            "renamed-text", "renamed-video"])
    def test_broken_directory_names_path(self, tmp_path, mutate, error, rule):
        _save_records(tmp_path, [_text()], [_video()])
        mutate(tmp_path)
        with pytest.raises(error, match=rule):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("field, value", [
        ("step", 1.7), ("step", True), ("step", "2"), ("start", 0.9),
        ("description", 42), ("num_frames", 10.0), ("num_frames", "10"),
        ("steps", "abc"), ("steps", ["ok", 3]),
    ])
    def test_no_silent_coercion(self, tmp_path, field, value):
        _save_records(tmp_path, [_text()], [_video()])
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

    def test_non_utf8_annotation_names_file(self, tmp_path):
        _save_records(tmp_path, [_text()], [_video()])
        (tmp_path / "annotations" / "v0.json").write_bytes(b'{"video_id": "\xe9"}')
        with pytest.raises(ParseError, match=r"v0\.json: not UTF-8"):
            load_corpus(tmp_path)

    def test_invalid_text_names_file(self, tmp_path):
        # the message named the task and the step, but no file
        _save_records(tmp_path, [_text()], [_video()])
        file = tmp_path / "texts" / "color_mixture.json"
        obj = json.loads(file.read_text())
        obj["steps"][1] = " "
        file.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=(
                r"color_mixture\.json: color_mixture: step 2 text is "
                r"empty$")):
            load_corpus(tmp_path)
