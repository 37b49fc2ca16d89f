import numpy as np
import pytest

from stepalign.classifier import (
    ClassBalanceConfig, ClassifierParams, ClassifierTrainConfig,
    _batch_loss_and_grads, cb_weight, classify, detect_mistakes,
    detect_on_segments, load_classifier, save_classifier, train_classifier_fold,
)
from stepalign.data import CoarseLabel, FoldSpec, Segment
from stepalign.errors import ValidationError
from stepalign.synth import SynthConfig, synth_corpus


class TestCbWeight:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.9999])
    def test_label_seen_once_has_unit_weight(self, beta):
        cfg = ClassBalanceConfig(beta=beta, counts={CoarseLabel.CORRECT: 1})
        assert cb_weight(cfg, CoarseLabel.CORRECT) == 1.0

    def test_beta_zero_gives_unit_weight(self):
        cfg = ClassBalanceConfig(beta=0.0, counts={CoarseLabel.MISTAKE: 40})
        assert cb_weight(cfg, CoarseLabel.MISTAKE) == 1.0

    def test_frequent_label_weighs_less(self):
        cfg = ClassBalanceConfig(beta=0.9, counts={CoarseLabel.CORRECT: 40,
                                                   CoarseLabel.MISTAKE: 2})
        assert cb_weight(cfg, CoarseLabel.CORRECT) < cb_weight(cfg, CoarseLabel.MISTAKE)

    @pytest.mark.parametrize("beta", [-0.1, 1.0, 1.5])
    def test_beta_outside_unit_interval_rejected(self, beta):
        cfg = ClassBalanceConfig(beta=beta, counts={CoarseLabel.CORRECT: 3})
        with pytest.raises(ValidationError, match="beta"):
            cb_weight(cfg, CoarseLabel.CORRECT)


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


def test_train_save_load_detect(tmp_path):
    corpus = synth_corpus(SynthConfig(tasks=1, videos_per_task=8, workers=4,
                                      steps_per_task=3, dim=8,
                                      p_exec_mistake=0.6)).corpus
    ids = {v.video_id.rsplit("_", 1)[1]: v.video_id for v in corpus.videos}
    fold = FoldSpec(0, train=tuple(ids[k] for k in ("c00", "c01", "m00", "m01", "m03")),
                    val=(ids["c02"], ids["m02"]), test=(ids["c03"],))
    config = ClassifierTrainConfig(hidden=8, epochs=30, val_every=10)
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
    assert [d.segment for d in dets] == [s.segment for s in video.segments]
    unwritten = [i for i, s in enumerate(video.segments) if s.step is None]
    assert unwritten
    for i in unwritten:
        seg = video.segments[i].segment
        z, label = classify(params, feats, seg, np.zeros(step_feats.shape[1]))
        probs = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        assert dets[i].step is None
        assert dets[i].label == label
        assert dets[i].confidence == pytest.approx(float(probs[int(label)]), abs=1e-12)
        z_step, _ = classify(params, feats, seg, step_feats[0])
        assert not np.allclose(z, z_step)


def test_detect_mistakes_gives_unwritten_proposals_zero_text():
    rng = np.random.default_rng(1)
    params = ClassifierParams.init(rng, input_dim=8, hidden=6)
    feats = rng.normal(size=(12, 4))
    step_feats = rng.normal(size=(2, 4))
    proposals = [(2, Segment(0, 5)), (None, Segment(5, 9))]
    dets = detect_mistakes(params, proposals, feats, step_feats)
    assert [(d.step, d.segment) for d in dets] == proposals
    for det, (_, seg), text in zip(dets, proposals, (step_feats[1], np.zeros(4))):
        z, label = classify(params, feats, seg, text)
        probs = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        assert det.label == label
        assert det.confidence == pytest.approx(float(probs[int(label)]), abs=1e-12)
