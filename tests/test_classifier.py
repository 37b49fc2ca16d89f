from dataclasses import replace

import numpy as np
import pytest

import stepalign.classifier
import stepalign.corpus
from stepalign.classifier import (
    ClassifierParams, ClassifierTrainConfig, _batch_loss_and_grads,
    class_balanced_weights, classifier_rows, classify, detect_mistakes,
    detect_on_segments, load_classifier, save_classifier, train_classifier_fold,
)
from stepalign.data import CoarseLabel, FoldSpec, Segment
from stepalign.errors import ValidationError
from stepalign.synth import SynthConfig, synth_corpus

from oracles import detect_per_segment


class TestCbWeight:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.9999])
    def test_label_seen_once_has_unit_weight(self, beta):
        assert class_balanced_weights(beta, [1, 5])[0] == 1.0

    def test_beta_zero_gives_unit_weight(self):
        assert class_balanced_weights(0.0, [3, 40, 7]).tolist() == [1.0] * 3

    def test_frequent_label_weighs_less(self):
        weights = class_balanced_weights(0.9, [40, 2])
        assert weights[0] < weights[1]

    @pytest.mark.parametrize("beta", [-0.1, 1.0, 1.5])
    def test_beta_outside_unit_interval_rejected(self, beta):
        with pytest.raises(ValidationError, match="beta"):
            class_balanced_weights(beta, [3])

    def test_empty_class_rejected(self):
        with pytest.raises(ValidationError, match="MISTAKE has count 0"):
            class_balanced_weights(0.9, [3, 0, 2])

    def test_table_is_the_effective_number_formula(self):
        beta, counts = 0.9999, [412, 9, 14]
        assert class_balanced_weights(beta, counts).tolist() == [
            (1.0 - beta) / (1.0 - beta ** n) for n in counts]


def test_batch_grads_match_central_differences():
    rng = np.random.default_rng(0)
    params = ClassifierParams.init(rng, input_dim=5, hidden=4)
    x = rng.normal(size=(7, 5))
    y = rng.integers(0, 3, size=7)
    weights = rng.uniform(0.5, 2.0, size=7)
    _, grads = _batch_loss_and_grads(params, x, y, weights)
    eps = 1e-6
    for name, tensor in params.as_dict().items():
        numeric = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            saved = tensor[idx]
            tensor[idx] = saved + eps
            up, _ = _batch_loss_and_grads(params, x, y, weights)
            tensor[idx] = saved - eps
            down, _ = _batch_loss_and_grads(params, x, y, weights)
            tensor[idx] = saved
            numeric[idx] = (up - down) / (2 * eps)
        np.testing.assert_allclose(grads[name], numeric, rtol=1e-5, atol=1e-8,
                                   err_msg=name)


def _small_fold():
    corpus = synth_corpus(SynthConfig(tasks=1, videos_per_task=8, workers=4,
                                      steps_per_task=3, dim=8,
                                      p_exec_mistake=0.6)).corpus
    ids = {v.video_id.rsplit("_", 1)[1]: v.video_id for v in corpus.videos}
    fold = FoldSpec(0, train=tuple(ids[k] for k in ("c00", "c01", "m00", "m01", "m03")),
                    val=(ids["c02"], ids["m02"]), test=(ids["c03"],))
    return corpus, fold, ClassifierTrainConfig(hidden=8, epochs=30, val_every=10)


def test_train_save_load_detect(tmp_path):
    corpus, fold, config = _small_fold()
    ids = {v.video_id.rsplit("_", 1)[1]: v.video_id for v in corpus.videos}
    training = train_classifier_fold(corpus, fold, config)
    assert training.best_epoch in (0, 10, 20, 29)
    assert set(training.class_counts) == set(CoarseLabel)

    save_classifier(tmp_path / "clf.ckpt", training, config)
    params, meta = load_classifier(tmp_path / "clf.ckpt")
    assert meta["epoch"] == training.best_epoch
    for name, tensor in training.params.as_dict().items():
        expected = tensor.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(getattr(params, name), expected, err_msg=name)

    video = corpus.video_by_id(ids["m00"])
    feats = corpus.video_features(video.video_id)
    step_feats = corpus.task_step_features(video.task)
    dets = detect_on_segments(params, corpus, video)
    proposals = [(s.step, s.segment) for s in video.segments]
    assert [d.segment for d in dets] == [s.segment for s in video.segments]
    assert any(step is None for step, _ in proposals)
    expected = detect_per_segment(params, proposals, feats, step_feats)
    assert [(d.step, d.label) for d in dets] == \
        [(d.step, d.label) for d in expected]
    for det, want in zip(dets, expected):
        assert det.confidence == pytest.approx(want.confidence, abs=1e-12)


def _random_proposals(rng, num_frames, num_steps, n):
    out = []
    for _ in range(n):
        start = int(rng.integers(0, num_frames - 1))
        end = int(rng.integers(start + 1, num_frames + 1))
        step = None if rng.random() < 0.3 else int(rng.integers(1, num_steps + 1))
        out.append((step, Segment(start, end)))
    return out


@pytest.mark.parametrize("video_only", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_detect_mistakes_matches_per_segment_oracle(seed, video_only):
    rng = np.random.default_rng(seed)
    params = ClassifierParams.init(rng, input_dim=10, hidden=16)
    params.b1 += rng.normal(size=16)
    params.b2 += rng.normal(size=3)
    feats = rng.normal(size=(40, 5))
    step_feats = rng.normal(size=(4, 5))
    proposals = _random_proposals(rng, 40, 4, 25)
    assert any(step is None for step, _ in proposals)
    dets = detect_mistakes(params, proposals, feats, step_feats, video_only)
    expected = detect_per_segment(params, proposals, feats, step_feats,
                                  video_only)
    assert [(d.step, d.segment, d.label) for d in dets] == \
        [(d.step, d.segment, d.label) for d in expected]
    np.testing.assert_allclose([d.confidence for d in dets],
                               [d.confidence for d in expected],
                               rtol=0, atol=1e-12)


def test_detect_mistakes_gives_unwritten_proposals_zero_text():
    rng = np.random.default_rng(1)
    params = ClassifierParams.init(rng, input_dim=8, hidden=6)
    feats = rng.normal(size=(12, 4))
    step_feats = rng.normal(size=(2, 4))
    proposals = [(2, Segment(0, 5)), (None, Segment(5, 9))]
    x = classifier_rows(feats, proposals, step_feats, video_only=False)
    np.testing.assert_array_equal(x[0, 4:], step_feats[1])
    np.testing.assert_array_equal(x[1, 4:], np.zeros(4))
    dets = detect_mistakes(params, proposals, feats, step_feats)
    assert [(d.step, d.segment) for d in dets] == proposals
    expected = detect_per_segment(params, proposals, feats, step_feats)
    for det, want in zip(dets, expected):
        assert det.label == want.label
        assert det.confidence == pytest.approx(want.confidence, abs=1e-12)


def test_empty_proposals_give_no_detections():
    rng = np.random.default_rng(2)
    params = ClassifierParams.init(rng, input_dim=8, hidden=6)
    assert detect_mistakes(params, [], rng.normal(size=(12, 4)),
                           rng.normal(size=(2, 4))) == []


@pytest.mark.parametrize("shape", [(3, 7), (3, 9), (8,), (1, 3, 8)])
def test_classify_rejects_wrong_width_or_rank(shape):
    params = ClassifierParams.init(np.random.default_rng(3), input_dim=8,
                                   hidden=6)
    with pytest.raises(ValidationError, match="width 8"):
        classify(params, np.zeros(shape))


def test_val_features_read_once_per_fold(monkeypatch):
    corpus, fold, config = _small_fold()
    reads = []
    read = stepalign.corpus.Corpus.video_features

    def counted(self, video_id):
        reads.append(video_id)
        return read(self, video_id)

    monkeypatch.setattr(stepalign.corpus.Corpus, "video_features", counted)
    train_classifier_fold(corpus, fold, config)
    assert sorted(reads) == sorted(fold.train + fold.val)


@pytest.mark.parametrize("strip", [False, True])
def test_val_split_without_segments_scores_zero(strip):
    corpus, fold, config = _small_fold()
    if strip:
        corpus = stepalign.corpus.Corpus(
            texts=corpus.texts, features=corpus.features,
            step_features=corpus.step_features,
            videos=[replace(v, segments=()) if v.video_id in fold.val else v
                    for v in corpus.videos])
    else:
        fold = replace(fold, val=())
    training = train_classifier_fold(corpus, fold, config)
    assert (training.best_epoch, training.best_val_score) == (0, 0.0)


@pytest.mark.parametrize("change, rule", [
    (lambda fold: replace(fold, test=fold.train[:1]), "both train and test"),
    (lambda fold: replace(fold, val=fold.test), "both val and test"),
    (lambda fold: replace(fold, test=("nope",)), "unknown video_id 'nope' in test"),
], ids=["train-test", "val-test", "unknown-test"])
def test_unusable_fold_rejected_before_training(monkeypatch, change, rule):
    corpus, fold, config = _small_fold()
    # with the loss unset, any training epoch fails with TypeError
    monkeypatch.setattr(stepalign.classifier, "_batch_loss_and_grads", None)
    with pytest.raises(ValidationError, match=f"fold 0: .*{rule}"):
        train_classifier_fold(corpus, change(fold), config)
