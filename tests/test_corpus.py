"""The in-memory corpus, its directory layout and its feature files,
malformed ones included (corpus.py)."""

import struct

import numpy as np
import pytest

from stepalign.checkpoint import save_checkpoint
from stepalign.corpus import Corpus, read_features
from stepalign.data import AnnotatedVideo, Intent, ProceduralText, TaskDomain
from stepalign.errors import FormatError, ValidationError
from stepalign.synth import SynthConfig, synth_corpus

from test_checkpoint import _pack


_META = {"kind": "features", "video_id": "v"}


def _one_video_corpus(matrix):
    """A corpus whose one video, ``v``, has the given feature matrix."""
    text = ProceduralText(TaskDomain.CARDBOARD, ("fold the flaps",))
    video = AnnotatedVideo(video_id="v", worker_id="w", task=text.task,
                           intent=Intent.CORRECT_RUN, num_frames=len(matrix),
                           segments=())
    return Corpus(texts={text.task: text}, videos=[video],
                  features={"v": matrix},
                  step_features={text.task: np.ones((1, matrix.shape[1]))})


def _corpus(video_id="v", matrix=None):
    """A cardboard corpus whose one 5-frame video has the given id and
    feature matrix."""
    text = ProceduralText(TaskDomain.CARDBOARD, ("fold the flaps", "tape"))
    video = AnnotatedVideo(video_id=video_id, worker_id="w", task=text.task,
                           intent=Intent.CORRECT_RUN, num_frames=5,
                           segments=())
    return Corpus(texts={text.task: text}, videos=[video],
                  features={video_id: np.ones((5, 3)) if matrix is None
                            else matrix},
                  step_features={text.task: np.ones((2, 3))})


def test_video_id_of_a_step_feature_file_rejected():
    # both matrices would be saved to features/steps_cardboard.fmtx
    with pytest.raises(ValidationError, match="^video_id steps_cardboard is "
                                              "the name of a task's step "
                                              "features$"):
        _corpus("steps_cardboard")


def test_step_file_name_of_another_task_allowed(tmp_path):
    _corpus("steps_color_mixture").save(tmp_path)
    assert Corpus.from_dir(tmp_path).video_by_id("steps_color_mixture")


@pytest.mark.parametrize("matrix, shape", [
    (np.ones(5), r"\(5,\)"), (np.ones((0, 3)), r"\(0, 3\)"),
    (np.ones((5, 0)), r"\(5, 0\)"),
], ids=["1-d", "no-rows", "no-columns"])
def test_save_rejects_matrix_not_2d_or_empty(tmp_path, matrix, shape):
    with pytest.raises(ValidationError, match=rf"v\.fmtx: feature matrix must "
                                              rf"be 2-d and nonempty, got {shape}$"):
        _corpus(matrix=matrix).save(tmp_path)
    assert not (tmp_path / "features" / "v.fmtx").exists()


def test_save_rejecting_a_matrix_writes_no_file(tmp_path):
    corpus = synth_corpus(SynthConfig(tasks=1, videos_per_task=4, workers=2,
                                      steps_per_task=2, dim=8,
                                      frames_per_step=(2, 3))).corpus
    third = corpus.videos[2].video_id
    corpus.features[third][1, 0] = np.nan
    with pytest.raises(ValidationError,
                       match=rf"{third}\.fmtx: tensor features has values "
                             rf"not finite at float32$"):
        corpus.save(tmp_path)
    assert list(tmp_path.iterdir()) == []


class TestFeatureIO:
    def test_round_trip_float32_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(7, 5)).astype(np.float32).astype(np.float64)
        _one_video_corpus(m).save(tmp_path)
        loaded = read_features(tmp_path / "features" / "v.fmtx", 7, "dim")
        assert loaded.dtype == np.float64
        np.testing.assert_array_equal(loaded, m)

    def test_bytes_follow_the_checkpoint_layout(self, tmp_path):
        m = np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -4.0]])
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
            _one_video_corpus(np.array([[np.nan]])).save(tmp_path)
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
