"""The in-memory corpus, its directory layout and its feature files,
malformed ones included (corpus.py)."""

import dataclasses
import gc
import json
import os
import re
import struct
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from stepalign.checkpoint import save_checkpoint
from stepalign.corpus import Corpus, read_features
from stepalign.data import (
    AnnotatedSegment, AnnotatedVideo, Intent, MistakeLabel, ProceduralText,
    Segment, TaskDomain,
)
from stepalign.errors import FormatError, ValidationError
from stepalign.synth import SynthConfig, synth_corpus

from test_checkpoint import _pack


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
    ({"v": _ones(5)}, None, r"v: feature matrix must be 2-d, got shape \(5,\)"),
    ({"v": _ones(4, 3)}, None, "v: feature matrix has 4 rows for 5 frames"),
    (None, {TaskDomain.CARDBOARD: _ones(3, 3)},
     "steps_cardboard: feature matrix has 3 rows for 2 steps"),
    (None, {TaskDomain.CARDBOARD: _ones(2, 4)},
     "steps_cardboard: feature matrix is 4 wide, not 3 as v"),
    ({"v": _ones(5, 4)}, None,
     "steps_cardboard: feature matrix is 3 wide, not 4 as v"),
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
     "v: feature matrix must be a numpy array or a StoredTensor, got list"),
    (None, {TaskDomain.CARDBOARD: np.ones((2, 3), dtype=np.float16)},
     "steps_cardboard: feature matrix must be float32, got float16"),
    # a zero-width corpus would report feature_dim 0, and training would
    # then fail on an "all-zero feature row"
    ({"v": _ones(5, 0)}, {TaskDomain.CARDBOARD: _ones(2, 0)},
     r"v: feature matrix has no columns, got shape \(5, 0\)"),
    (None, {TaskDomain.CARDBOARD: _ones(2, 0)},
     r"steps_cardboard: feature matrix has no columns, got shape \(2, 0\)"),
], ids=["no-matrix", "1-d", "frame-rows", "step-rows", "step-width",
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


@pytest.mark.parametrize("matrix, shape", [
    (np.ones(5), r"\(5,\)"), (np.ones((0, 3)), r"\(0, 3\)"),
    (np.ones((5, 0)), r"\(5, 0\)"),
], ids=["1-d", "no-rows", "no-columns"])
def test_save_rejects_matrix_not_2d_or_empty(tmp_path, matrix, shape):
    # the constructor rejects these too, so the matrix is swapped in after
    corpus = _corpus()
    corpus.features["v"] = matrix
    with pytest.raises(ValidationError, match=rf"v\.fmtx: feature matrix must "
                                              rf"be 2-d and nonempty, got {shape}$"):
        corpus.save(tmp_path)
    assert not (tmp_path / "features" / "v.fmtx").exists()


def test_save_rejecting_a_matrix_writes_no_file(tmp_path):
    corpus = _small_synth()
    third = corpus.videos[2].video_id
    corpus.features[third][1, 0] = np.nan
    with pytest.raises(ValidationError,
                       match=rf"{third}\.fmtx: tensor features has values "
                             rf"not finite at float32$"):
        corpus.save(tmp_path)
    assert list(tmp_path.iterdir()) == []


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

    def test_write_rejects_nan(self, tmp_path):
        with pytest.raises(ValidationError,
                           match=r"v\.fmtx: tensor features has values not "
                                 r"finite at float32$"):
            _one_video_corpus(_ones(1, 1) * np.nan).save(tmp_path)
        assert not (tmp_path / "features" / "v.fmtx").exists()

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
