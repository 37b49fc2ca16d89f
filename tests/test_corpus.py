"""The in-memory corpus and its directory layout (corpus.py). Feature
files and their reader are tested in test_features.py."""

import numpy as np
import pytest

from stepalign.corpus import Corpus
from stepalign.data import AnnotatedVideo, Intent, ProceduralText, TaskDomain
from stepalign.errors import ValidationError
from stepalign.synth import SynthConfig, synth_corpus


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

