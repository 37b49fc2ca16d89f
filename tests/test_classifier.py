import hashlib
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stepalign.classifier
import stepalign.corpus
import stepalign.model
import stepalign.splits
from stepalign.classifier import (
    ClassifierParams, ClassifierTrainConfig, _batch_loss_and_grads, _Workspace,
    _val_score, class_balanced_weights, classifier_rows, detect_mistakes,
    detect_on_segments, load_classifier, mean_pool, save_classifier,
    train_classifier_fold,
)
from stepalign.data import CoarseLabel, FoldSpec, Segment
from stepalign.checkpoint import save_checkpoint
from stepalign.errors import FormatError, NumericalError, ValidationError
from stepalign.optim import Adam
from stepalign.synth import SynthConfig, synth_corpus

from oracles import (
    classifier_loss_and_grads, detect_per_segment, reordered_corpus,
    train_classifier_fold_per_tensor,
)


class TestCbWeight:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.9999])
    def test_label_seen_once_has_unit_weight(self, beta):
        assert class_balanced_weights(beta, [1, 5])[0] == 1.0

    def test_beta_zero_gives_unit_weight(self):
        assert class_balanced_weights(0.0, [3, 40, 7]).tolist() == [1.0] * 3

    def test_frequent_label_weighs_less(self):
        weights = class_balanced_weights(0.9, [40, 2])
        assert weights[0] < weights[1]

    def test_table_is_the_effective_number_formula(self):
        beta, counts = 0.9999, [412, 9, 14]
        assert class_balanced_weights(beta, counts).tolist() == [
            (1.0 - beta) / (1.0 - beta ** n) for n in counts]


def _grad_case(seed, dead_units=0):
    """A tiny batch; the first ``dead_units`` hidden units are dead on
    every row, and the last of them pushes a strictly negative gradient
    into its ReLU on every row (no row is of class 2)."""
    rng = np.random.default_rng(seed)
    params = ClassifierParams.init(rng, input_dim=5, hidden=4)
    params.b1[:dead_units] = -1e3
    if dead_units:
        params.w2[dead_units - 1] = [0.0, 0.0, -1.0]
    x = rng.normal(size=(7, 5))
    y = rng.integers(0, 2 if dead_units else 3, size=7)
    weights = rng.uniform(0.5, 2.0, size=7)
    return params, _Workspace(params, x, y, weights)


def _assert_central_differences(params, work):
    _batch_loss_and_grads(params, work)
    grads = work.grads.copy()
    eps = 1e-6
    for name, tensor in params.as_dict().items():
        numeric = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            saved = tensor[idx]
            tensor[idx] = saved + eps
            up = _batch_loss_and_grads(params, work)
            tensor[idx] = saved - eps
            down = _batch_loss_and_grads(params, work)
            tensor[idx] = saved
            numeric[idx] = (up - down) / (2 * eps)
        np.testing.assert_allclose(getattr(grads, name), numeric, rtol=1e-5,
                                   atol=1e-8, err_msg=name)


def test_batch_grads_match_central_differences():
    _assert_central_differences(*_grad_case(0))


def test_dead_relu_grads_match_central_differences():
    params, work = _grad_case(0, dead_units=2)
    _assert_central_differences(params, work)
    np.testing.assert_array_equal(work.grads.w1[:, :2], 0.0)


@pytest.mark.parametrize("dead_units", [0, 2], ids=["live", "dead-relu"])
def test_batch_grads_equal_allocating_oracle_bit_for_bit(dead_units):
    # a dead unit's back-propagated gradient is +0.0, as the boolean-mask
    # store gives it, also where the multiply that masks it leaves -0.0
    params, work = _grad_case(1, dead_units)
    loss = _batch_loss_and_grads(params, work)
    want_loss, want = classifier_loss_and_grads(params, work.x, work.y,
                                                work.weights)
    assert loss == want_loss
    for name, tensor in want.items():
        assert getattr(work.grads, name).tobytes() == tensor.tobytes(), name
    # the backward writes the hidden gradient over the activations
    assert not np.signbit(work.h[:, :dead_units]).any()


def test_epoch_allocates_less_than_one_hidden_array():
    rng = np.random.default_rng(4)
    n, hidden = 40, 256
    params = ClassifierParams.init(rng, input_dim=16, hidden=hidden)
    work = _Workspace(params, rng.normal(size=(n, 16)),
                      rng.integers(0, 3, size=n), rng.uniform(0.5, 2.0, size=n))
    opt = Adam(params.flat.size)

    def epoch():
        _batch_loss_and_grads(params, work)
        opt.step(params.flat, work.grads.flat)

    epoch()
    tracemalloc.start()
    try:
        epoch()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * hidden * 8


def _float32_case(seed, n=261):
    """Float32 rows of the paper's classifier shape, 128 inputs and 256
    hidden units, at parameters with nonzero biases."""
    rng = np.random.default_rng(seed)
    params = ClassifierParams.init(rng, input_dim=128, hidden=256)
    params.b1 += 0.1 * rng.normal(size=256)
    params.b2 += rng.normal(size=3)
    x = (0.2 * rng.normal(size=(n, 128))).astype(np.float32)
    return params, x, rng.integers(0, 3, size=n), rng.uniform(0.5, 2.0, size=n)


# each gradient passes through about 4 products, each summing at most
# n = 261 rows or 256 hidden units, whose rounding errors grow like
# sqrt(n) ~ 2^4 float32 eps: 2^6 eps relative to each tensor's largest
# entry (seeds 0-5 read at most 4.4 eps); the loss, a weighted mean of
# log-softmaxes, 2^4 eps
_GRAD_TOL = 2 ** 6 * np.finfo(np.float32).eps
_LOSS_TOL = 2 ** 4 * np.finfo(np.float32).eps


@pytest.mark.parametrize("seed", range(3))
def test_float32_epoch_matches_float64_epoch(seed):
    params, x, y, weights = _float32_case(seed)
    low = _Workspace(params, x, y, weights)
    high = _Workspace(params, x.astype(np.float64), y, weights)
    got = _batch_loss_and_grads(params, low)
    want = _batch_loss_and_grads(params, high)
    assert low.h.dtype == np.float32 and high.h.dtype == np.float64
    assert abs(got - want) <= _LOSS_TOL * abs(want)
    for name, grad in high.grads.as_dict().items():
        gap = np.max(np.abs(getattr(low.grads, name) - grad))
        assert gap <= _GRAD_TOL * np.max(np.abs(grad)), name


def test_float32_rows_give_float32_workspace_over_float64_masters(
        monkeypatch):
    # a corpus's features are float32, and so are its rows
    corpus, fold, config = _small_fold()
    seen = set()
    step = stepalign.classifier._batch_loss_and_grads

    def recorded(params, work):
        seen.add((work.x.dtype, work.h.dtype, work.grads.flat.dtype,
                  params.flat.dtype))
        return step(params, work)

    monkeypatch.setattr(stepalign.classifier, "_batch_loss_and_grads",
                        recorded)
    training = train_classifier_fold(corpus, fold, config)
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    assert seen == {(f32, f32, f64, f64)}
    assert training.params.flat.dtype == f64


def test_float32_epoch_allocates_less_than_one_hidden_array():
    # the parameters' float32 cast and a product's float32 result before
    # it lands in the float64 gradients, each 128 x 256 numbers at most,
    # and numpy's bounded iteration buffers stay below one 600 x 256
    # float32 array
    params, x, y, weights = _float32_case(5, n=600)
    work = _Workspace(params, x, y, weights)
    opt = Adam(params.flat.size)

    def epoch():
        _batch_loss_and_grads(params, work)
        opt.step(params.flat, work.grads.flat)

    epoch()
    tracemalloc.start()
    try:
        epoch()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 600 * 256 * 4


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
def test_workspace_holds_one_hidden_float_buffer(dtype):
    # the hidden gradient is written over the activations
    params, x, y, weights = _float32_case(6, n=40)
    work = _Workspace(params, x.astype(dtype), y, weights)
    hidden_floats = [name for name, value in vars(work).items()
                     if isinstance(value, np.ndarray)
                     and value.shape == (40, 256) and value.dtype.kind == "f"]
    assert hidden_floats == ["h"]
    assert work.h.dtype == dtype


def _small_fold():
    corpus = synth_corpus(SynthConfig(tasks=1, videos_per_task=8, workers=4,
                                      steps_per_task=3, dim=8,
                                      p_exec_mistake=0.6)).corpus
    ids = {v.video_id.rsplit("_", 1)[1]: v.video_id for v in corpus.videos}
    fold = FoldSpec(0, train=tuple(ids[k] for k in ("c00", "c01", "m00", "m01", "m03")),
                    val=(ids["c02"], ids["m02"]), test=(ids["c03"],))
    return corpus, fold, ClassifierTrainConfig(hidden=8, epochs=30)


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(8)), video_only=st.booleans())
def test_shuffled_videos_give_the_same_classifier_parameters_bit_for_bit(
        order, video_only):
    # training reads the fold's ids, never the corpus's video order
    corpus, fold, config = _small_fold()
    config = replace(config, video_only=video_only)
    want = train_classifier_fold(corpus, fold, config)
    got = train_classifier_fold(reordered_corpus(corpus, order), fold, config)
    assert got.params.flat.tobytes() == want.params.flat.tobytes()
    assert (got.log, got.class_counts) == (want.log, want.class_counts)


def _long_fold(**changes):
    """``_small_fold`` trained 120 epochs; its tests validate every 4."""
    corpus, fold, config = _small_fold()
    return corpus, fold, replace(config, **{"epochs": 120, **changes})


def _train(patience, **changes):
    """``_long_fold`` trained with ``patience`` epochs of patience,
    validating every 4."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stepalign.classifier, "_VAL_EVERY", 4)
        mp.setattr(stepalign.classifier, "_PATIENCE", patience)
        return train_classifier_fold(*_long_fold(**changes))


def _assert_training_matches_per_tensor_oracle(monkeypatch, **changes):
    monkeypatch.setattr(stepalign.classifier, "_VAL_EVERY", 4)
    corpus, fold, config = _long_fold(**changes)
    got = train_classifier_fold(corpus, fold, config)
    want = train_classifier_fold_per_tensor(corpus, fold, config)
    assert got.params.flat.tobytes() == want.params.flat.tobytes()
    assert (got.best_epoch, got.best_score, got.class_counts) == \
        (want.best_epoch, want.best_score, want.class_counts)
    assert got.log == want.log
    assert got.best_epoch > 0
    return got


def test_training_matches_per_tensor_oracle(monkeypatch):
    _assert_training_matches_per_tensor_oracle(monkeypatch)


def test_video_only_training_matches_per_tensor_oracle(monkeypatch):
    _assert_training_matches_per_tensor_oracle(monkeypatch, video_only=True)


def test_stopped_training_matches_per_tensor_oracle(monkeypatch):
    # video-only rows on this fold score best at epoch 16 and never better
    monkeypatch.setattr(stepalign.classifier, "_PATIENCE", 16)
    got = _assert_training_matches_per_tensor_oracle(monkeypatch,
                                                     video_only=True)
    assert (got.best_epoch, got.epochs_run) == (16, 33)


@pytest.mark.parametrize("video_only", [False, True])
def test_patience_of_epochs_runs_every_epoch(video_only):
    # no round is `epochs` or more epochs after the first, epoch 0
    full = _train(120, video_only=video_only)
    unbounded = _train(10**9, video_only=video_only)
    assert full.params.flat.tobytes() == unbounded.params.flat.tobytes()
    assert (full.best_epoch, full.best_score, full.log) == \
        (unbounded.best_epoch, unbounded.best_score, unbounded.log)
    assert [r.epoch for r in full.log] == [*range(0, 120, 4), 119]
    assert full.epochs_run == 120


@pytest.mark.parametrize("video_only, patience, stop", [
    (False, 8, 8), (True, 16, 32)])
def test_patience_stops_at_first_round_reaching_the_gap(tmp_path, video_only,
                                                        patience, stop):
    full = _train(120, video_only=video_only)
    stopped = _train(patience, video_only=video_only)
    # the full run's rounds up to the first one `patience` or more epochs
    # after the best before it; the earlier epoch wins ties
    best, rounds = None, 0
    for rounds, entry in enumerate(full.log, start=1):
        if best is None or entry.val_score > best.val_score:
            best = entry
        if entry.epoch - best.epoch >= patience:
            break
    assert full.log[rounds - 1].epoch == stop < 119
    assert stopped.log == full.log[:rounds]
    assert all(math.isfinite(r.loss) and r.loss > 0 for r in stopped.log)
    assert (stopped.best_epoch, stopped.best_score, stopped.epochs_run) == \
        (best.epoch, best.val_score, stop + 1)
    # a run that ends at the stop epoch validates there too, so its best
    # is the best of the same rounds
    prefix = _train(120, video_only=video_only, epochs=stop + 1)
    assert stopped.params.flat.tobytes() == prefix.params.flat.tobytes()
    assert stopped.log == prefix.log
    # the header records the epochs run next to the best epoch
    _, _, config = _long_fold(video_only=video_only)
    save_classifier(tmp_path / "clf.ckpt", stopped, config)
    _, meta = load_classifier(tmp_path / "clf.ckpt")
    assert (meta["epoch"], meta["epochs_run"]) == (best.epoch, stop + 1)


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("hidden", 0), ("epochs", 2.5), ("hidden", True),
    ("epochs", False), ("seed", -1), ("seed", 1.5), ("hidden", 2.5),
])
def test_bad_config_rejected_before_training(monkeypatch, field, value):
    # rejected before any row is built, so also before a fold's own errors
    corpus, fold, config = _small_fold()
    monkeypatch.setattr(stepalign.classifier, "_segment_rows", None)
    monkeypatch.setattr(stepalign.classifier, "_batch_loss_and_grads", None)
    with pytest.raises(ValidationError, match=f"^{field} .*got {value}$"):
        train_classifier_fold(corpus, fold, replace(config, **{field: value}))


@pytest.mark.parametrize("field, value, rule", [
    # these were taken for their truth value, and a string then failed
    # with a bare ValueError after the rows were built
    ("video_only", "no", "video_only must be a bool, got 'no'"),
    ("video_only", 1, "video_only must be a bool, got 1"),
    ("video_only", None, "video_only must be a bool, got None"),
])
def test_mistyped_config_rejected_before_training(monkeypatch, field, value,
                                                  rule):
    corpus, fold, config = _small_fold()
    monkeypatch.setattr(stepalign.classifier, "_segment_rows", None)
    with pytest.raises(ValidationError, match=f"^{rule}$"):
        train_classifier_fold(corpus, fold, replace(config, **{field: value}))


def test_config_holds_only_the_knobs_callers_vary():
    # the learning rate and the class-balanced beta are module constants
    assert [f.name for f in fields(ClassifierTrainConfig)] == [
        "hidden", "epochs", "seed", "video_only"]


def test_training_weights_classes_at_the_papers_beta(monkeypatch):
    corpus, fold, config = _small_fold()
    seen = []

    def weights(beta, counts):
        seen.append(beta)
        raise ValidationError("stop")

    monkeypatch.setattr(stepalign.classifier, "class_balanced_weights", weights)
    with pytest.raises(ValidationError, match="^stop$"):
        train_classifier_fold(corpus, fold, config)
    assert seen == [0.9999]


@pytest.mark.parametrize("name, shape", [
    ("b1", (5,)), ("w2", (8, 3)), ("w2", (4, 2)), ("b2", (4,)), ("w1", (12,)),
])
def test_load_rejects_shape_mismatch(tmp_path, name, shape):
    # input 10, hidden 4: every tensor must agree with w1's layout
    params = ClassifierParams.init(np.random.default_rng(0), input_dim=10,
                                   hidden=4)
    tensors = params.as_dict()
    tensors[name] = np.zeros(shape)
    save_checkpoint(tmp_path / "bad.ckpt", tensors, {"kind": "classifier"})
    with pytest.raises(FormatError, match=f"bad.ckpt: tensor {name} "):
        load_classifier(tmp_path / "bad.ckpt")


@pytest.mark.parametrize("kind, extra, match", [
    ("alignment", {}, "checkpoint kind 'alignment', not 'classifier'"),
    (None, {}, "checkpoint kind None, not 'classifier'"),
    ("classifier", {"stray": np.zeros(2)}, r"\['stray'\] are not in"),
], ids=["other-kind", "no-kind", "stray-tensor"])
def test_load_rejects_other_kind_and_stray_tensor(tmp_path, kind, extra,
                                                  match):
    params = ClassifierParams.init(np.random.default_rng(1), input_dim=10,
                                   hidden=4)
    meta = {} if kind is None else {"kind": kind}
    save_checkpoint(tmp_path / "bad.ckpt", {**params.as_dict(), **extra}, meta)
    with pytest.raises(FormatError, match=f"bad.ckpt: .*{match}"):
        load_classifier(tmp_path / "bad.ckpt")


def test_train_save_load_detect(tmp_path):
    corpus, fold, config = _small_fold()
    ids = {v.video_id.rsplit("_", 1)[1]: v.video_id for v in corpus.videos}
    training = train_classifier_fold(corpus, fold, config)
    assert training.best_epoch in (0, 10, 20, 29)
    assert set(training.class_counts) == set(CoarseLabel)

    save_classifier(tmp_path / "clf.ckpt", training, config)
    params, meta = load_classifier(tmp_path / "clf.ckpt")
    assert meta["epoch"] == training.best_epoch
    # shapes live in the tensors only; the header keeps the training record
    assert set(meta) == {"kind", "seed", "epoch", "epochs_run", "val_score",
                         "video_only", "fold_id", "class_counts"}
    assert meta["epochs_run"] == training.epochs_run == config.epochs
    for name, tensor in training.params.as_dict().items():
        expected = tensor.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(getattr(params, name), expected, err_msg=name)

    video = corpus.video_by_id(ids["m00"])
    assert any(seg.step is None for seg in video.segments)
    # widened to float64, rows and oracle agree to 1e-12
    _assert_detections_match_per_segment(params, corpus, video, np.float64,
                                         tol=1e-12)


def test_video_only_train_save_load_detect(tmp_path):
    corpus, fold, config = _small_fold()
    config = replace(config, video_only=True)
    ids = {v.video_id.rsplit("_", 1)[1]: v.video_id for v in corpus.videos}
    training = train_classifier_fold(corpus, fold, config)
    assert training.params.w1.shape == (corpus.feature_dim, config.hidden)

    save_classifier(tmp_path / "clf.ckpt", training, config)
    params, meta = load_classifier(tmp_path / "clf.ckpt")
    assert meta["video_only"] is True
    assert params.w1.shape == (corpus.feature_dim, config.hidden)

    video = corpus.video_by_id(ids["m00"])
    dets = _assert_detections_match_per_segment(
        params, corpus, video, np.float64, tol=1e-12, video_only=True)
    # the text is not read at all: other step features change nothing,
    # though they are checked as the frames' texts
    feats = corpus.video_features(video.video_id).astype(np.float64)
    step_feats = corpus.task_step_features(video.task)
    proposals = [(d.step, d.segment) for d in dets]
    other = np.random.default_rng(3).normal(size=step_feats.shape)
    assert detect_mistakes(params, proposals, feats, other) == dets
    with pytest.raises(ValidationError, match="^step_feats .* must be finite"):
        detect_mistakes(params, proposals, feats,
                        np.full_like(step_feats, np.nan))


# the rows' gemm and the oracle's per-segment gemv sum the same at most 16
# input and 8 hidden terms in other orders; on these folds the float32
# confidences were at most half an eps apart, and 16 eps bounds them
_FLOAT32_CONFIDENCE_TOL = 16 * float(np.finfo(np.float32).eps)


@pytest.mark.parametrize("video_only", [False, True],
                         ids=["video-text", "video-only"])
def test_float32_train_save_load_detect(tmp_path, video_only):
    # the corpus's float32 features, as detect_on_segments reads them
    corpus, fold, config = _small_fold()
    config = replace(config, video_only=video_only)
    training = train_classifier_fold(corpus, fold, config)
    save_classifier(tmp_path / "clf.ckpt", training, config)
    params, _ = load_classifier(tmp_path / "clf.ckpt")
    for video in corpus.videos:
        dets = _assert_detections_match_per_segment(
            params, corpus, video, np.float32, tol=_FLOAT32_CONFIDENCE_TOL,
            video_only=video_only)
        assert dets == detect_on_segments(params, corpus, video)
        # softmax probabilities computed in float32
        assert all(float(np.float32(d.confidence)) == d.confidence
                   for d in dets)


def _assert_detections_match_per_segment(params, corpus, video, dtype, tol,
                                         video_only=False):
    """``detect_mistakes`` on a video's annotated segments, with its
    features and texts in ``dtype``, against the per-segment oracle: the
    same steps, segments and labels, and confidences within ``tol``."""
    feats = corpus.video_features(video.video_id).astype(dtype)
    step_feats = corpus.task_step_features(video.task).astype(dtype)
    proposals = [(s.step, s.segment) for s in video.segments]
    dets = detect_mistakes(params, proposals, feats, step_feats)
    expected = detect_per_segment(params, proposals, feats, step_feats,
                                  video_only)
    assert [(d.step, d.segment, d.label) for d in dets] == \
        [(d.step, d.segment, d.label) for d in expected]
    for det, want in zip(dets, expected):
        assert det.confidence == pytest.approx(want.confidence, abs=tol)
    return dets


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
    # detect_mistakes works the layout out from the width; the oracle is told
    rng = np.random.default_rng(seed)
    params = ClassifierParams.init(rng, input_dim=5 if video_only else 10,
                                   hidden=16)
    params.b1 += rng.normal(size=16)
    params.b2 += rng.normal(size=3)
    feats = rng.normal(size=(40, 5))
    step_feats = rng.normal(size=(4, 5))
    proposals = _random_proposals(rng, 40, 4, 25)
    assert any(step is None for step, _ in proposals)
    dets = detect_mistakes(params, proposals, feats, step_feats)
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
    x = classifier_rows(feats, proposals, step_feats)
    np.testing.assert_array_equal(x[0, 4:], step_feats[1])
    np.testing.assert_array_equal(x[1, 4:], np.zeros(4))
    np.testing.assert_array_equal(classifier_rows(feats, proposals, None),
                                  x[:, :4])
    dets = detect_mistakes(params, proposals, feats, step_feats)
    assert [(d.step, d.segment) for d in dets] == proposals
    expected = detect_per_segment(params, proposals, feats, step_feats)
    for det, want in zip(dets, expected):
        assert det.label == want.label
        assert det.confidence == pytest.approx(want.confidence, abs=1e-12)


def test_val_score_is_accuracy_without_mistake_truth():
    # one input and one hidden unit: a row is called MISTAKE when its
    # feature exceeds 0.5, so two of four all-CORRECT rows are right
    params = ClassifierParams(w1=np.ones((1, 1)), b1=np.zeros(1),
                              w2=np.array([[0.0, 1.0, 0.0]]),
                              b2=np.array([0.5, 0.0, 0.0]))
    x = np.array([[0.0], [1.0], [2.0], [0.2]])
    y = np.zeros(4, dtype=np.int64)
    proposals = {"v": [(step, Segment(step - 1, step)) for step in (1, 2, 3, 4)]}
    assert _val_score(params, x, y, proposals, {"v": []}) == 0.5


_LAYOUTS = pytest.mark.parametrize("input_dim", [8, 4],
                                   ids=["video+text", "video-only"])


@_LAYOUTS
@pytest.mark.parametrize("step", [0, -1, 3])
def test_detect_mistakes_rejects_step_outside_text(step, input_dim):
    # a two-step text: None is the only "no step", 1 and 2 the only steps;
    # the video-only layout, which reads no text, took step 3
    rng = np.random.default_rng(4)
    params = ClassifierParams.init(rng, input_dim=input_dim, hidden=6)
    proposals = [(1, Segment(0, 5)), (step, Segment(5, 9))]
    with pytest.raises(ValidationError,
                       match=rf"proposal step {step} outside 1\.\.2$"):
        detect_mistakes(params, proposals, rng.normal(size=(12, 4)),
                        rng.normal(size=(2, 4)))


@_LAYOUTS
@pytest.mark.parametrize("step", [True, 1.0, "1"],
                         ids=["bool", "float", "str"])
def test_detect_mistakes_rejects_step_of_another_type(step, input_dim):
    # True and 1.0 passed the 1..k check and failed bare at the texts'
    # index, and a string failed bare at the check
    rng = np.random.default_rng(4)
    params = ClassifierParams.init(rng, input_dim=input_dim, hidden=6)
    proposals = [(1, Segment(0, 5)), (step, Segment(5, 9))]
    with pytest.raises(ValidationError,
                       match=rf"^proposal step must be int, got {step!r}$"):
        detect_mistakes(params, proposals, rng.normal(size=(12, 4)),
                        rng.normal(size=(2, 4)))


@_LAYOUTS
def test_detect_mistakes_rejects_segment_of_another_type(input_dim):
    # a (start, end) tuple failed bare in mean_pool in both row layouts
    rng = np.random.default_rng(4)
    params = ClassifierParams.init(rng, input_dim=input_dim, hidden=6)
    proposals = [(1, Segment(0, 5)), (2, (5, 9))]
    with pytest.raises(ValidationError, match=r"^proposal segment must be "
                                              r"Segment, got \(5, 9\)$"):
        detect_mistakes(params, proposals, rng.normal(size=(12, 4)),
                        rng.normal(size=(2, 4)))


@_LAYOUTS
def test_detect_mistakes_rejects_segment_outside_frames(input_dim):
    # 12 frames: a segment ending at 13 reads a row the video lacks
    rng = np.random.default_rng(4)
    params = ClassifierParams.init(rng, input_dim=input_dim, hidden=6)
    proposals = [(1, Segment(0, 5)), (2, Segment(5, 13))]
    with pytest.raises(ValidationError, match=r"^proposal segment \[5, 13\) "
                                              r"outside the 12 frames$"):
        detect_mistakes(params, proposals, rng.normal(size=(12, 4)),
                        rng.normal(size=(2, 4)))


def test_empty_proposals_give_no_detections():
    rng = np.random.default_rng(2)
    params = ClassifierParams.init(rng, input_dim=8, hidden=6)
    assert detect_mistakes(params, [], rng.normal(size=(12, 4)),
                           rng.normal(size=(2, 4))) == []


@pytest.mark.parametrize("argument", ["frames", "step_feats"])
@pytest.mark.parametrize("dtype", [bool, np.complex128, object, np.str_],
                         ids=["bool", "complex", "object", "string"])
def test_detect_mistakes_rejects_features_not_real_numbers(argument, dtype):
    # bools computed as numbers, complex numbers lost their imaginary part
    # with a warning, and strings failed bare in the pooling
    rng = np.random.default_rng(7)
    params = ClassifierParams.init(rng, input_dim=8, hidden=6)
    inputs = {"frames": rng.normal(size=(12, 4)),
              "step_feats": rng.normal(size=(2, 4))}
    inputs[argument] = (inputs[argument] > 0).astype(dtype)
    what = ("frames" if argument == "frames"
            else r"step_feats \(as wide as frames\)")
    with pytest.raises(ValidationError, match=(
            rf"^{what} must be ints or floats, got an array of "
            rf"{re.escape(str(inputs[argument].dtype))}$")):
        detect_mistakes(params, [(1, Segment(0, 5)), (None, Segment(5, 9))],
                        inputs["frames"], inputs["step_feats"])


@pytest.mark.parametrize("input_dim", [3, 6, 9, 16])
def test_detect_rejects_classifier_of_another_width(input_dim):
    # 4 video and 4 text columns: only widths 4 and 8 are layouts
    rng = np.random.default_rng(5)
    params = ClassifierParams.init(rng, input_dim=input_dim, hidden=6)
    with pytest.raises(ValidationError, match=(
            rf"^classifier input width must be 4 \(frames\) or 8 \(frames "
            rf"and step texts\), got {input_dim}$")):
        detect_mistakes(params, [(1, Segment(0, 5)), (None, Segment(5, 9))],
                        rng.normal(size=(12, 4)), rng.normal(size=(2, 4)))


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


def test_non_finite_loss_names_fold_and_epoch(monkeypatch):
    corpus, fold, config = _small_fold()
    step, calls = stepalign.classifier._batch_loss_and_grads, []

    def diverging(params, work):
        calls.append(1)
        loss = step(params, work)
        return math.nan if len(calls) == 3 else loss

    monkeypatch.setattr(stepalign.classifier, "_batch_loss_and_grads",
                        diverging)
    with pytest.raises(NumericalError,
                       match=r"^fold 0 epoch 2: non-finite training loss$"):
        train_classifier_fold(corpus, fold, config)


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
    assert (training.best_epoch, training.best_score) == (0, 0.0)


def test_class_missing_from_train_rejected(monkeypatch):
    corpus, fold, config = _small_fold()
    # correct-run videos hold only correct segments
    correct_runs = tuple(vid for vid in fold.train
                         if vid.rsplit("_", 1)[1].startswith("c"))
    monkeypatch.setattr(stepalign.classifier, "_batch_loss_and_grads", None)
    with pytest.raises(ValidationError, match=r"^fold 0: no training samples "
                                              r"for \['MISTAKE', 'CORRECTION'\]"):
        train_classifier_fold(corpus, replace(fold, train=correct_runs), config)


@pytest.mark.parametrize("change, rule", [
    (lambda fold: replace(fold, test=fold.train[:1]), "in train and again in test"),
    (lambda fold: replace(fold, val=fold.test), "in val and again in test"),
    (lambda fold: replace(fold, test=("nope",)), "unknown video_id 'nope' in test"),
], ids=["train-test", "val-test", "unknown-test"])
def test_unusable_fold_rejected_before_training(monkeypatch, change, rule):
    corpus, fold, config = _small_fold()
    # with the loss unset, any training epoch fails with TypeError
    monkeypatch.setattr(stepalign.classifier, "_batch_loss_and_grads", None)
    with pytest.raises(ValidationError, match=f"fold 0: .*{rule}"):
        train_classifier_fold(corpus, change(fold), config)


class TestMeanPool:
    def test_single_row_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(mean_pool(m, Segment(1, 2)), m[1])

    def test_symmetric_pair(self):
        m = np.array([[1.0, 1.0], [3.0, 3.0]])
        np.testing.assert_array_equal(mean_pool(m, Segment(0, 2)), [2.0, 2.0])

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(5, 3))
        seg = Segment(1, 4)
        # oracle: explicit accumulation loop
        acc = np.zeros(3)
        for row in range(seg.start, seg.end):
            acc += m[row]
        expected = acc / seg.length
        np.testing.assert_allclose(mean_pool(m, seg), expected, atol=1e-12)


def _pipeline_outputs():
    """The discrete outputs of a two-fold run of the whole pipeline: synth,
    split, both trainers' best epochs, and the segments and detections of
    each test video."""
    # 2 tasks x 8 videos of 3 steps at synth and split seed 0: both folds'
    # train splits hold correct, mistake and correction segments, which the
    # classifier needs; with both seeds at 1 to 6 a train split lacks a
    # class and training is refused
    corpus = synth_corpus(SynthConfig(tasks=2, videos_per_task=8,
                                      steps_per_task=3, dim=12)).corpus
    align_config = stepalign.model.TrainConfig(epochs=4, working_dim=8,
                                               num_queries=6)
    detect_config = ClassifierTrainConfig(epochs=60, hidden=16)
    best_epochs, videos = [], []
    for fold in stepalign.splits.make_group_kfold(corpus.videos, 2, seed=0):
        aligner = stepalign.model.train_alignment_fold(corpus, fold, align_config)
        detector = train_classifier_fold(corpus, fold, detect_config)
        best_epochs.append((aligner.best_epoch, detector.best_epoch))
        for vid in fold.test:
            frames = corpus.video_features(vid)
            steps = corpus.task_step_features(corpus.video_by_id(vid).task)
            segments = stepalign.model.align_video(
                aligner.params, frames, steps, align_config.drop_pct,
                align_config.normalize_features)
            detections = detect_mistakes(detector.params, segments, frames, steps)
            videos.append((vid, [(step, seg.start, seg.end)
                                 for step, seg in segments],
                           [(det.label.name, f"{det.confidence:.6f}")
                            for det in detections]))
    return best_epochs, videos


def test_pipeline_outputs_pinned():
    # discrete outputs and confidences rounded to 1e-6, not float bytes,
    # so that a BLAS rounding the last bits differently does not matter; a
    # change that moves results on purpose records the new digest
    best_epochs, videos = _pipeline_outputs()
    assert best_epochs == [(2, 0), (0, 30)]
    digest = hashlib.sha256(repr(videos).encode()).hexdigest()
    assert digest == (
        "c9ffd11ab06e359be6293c31fff03e0682af5da9f18540a2277c725cd6d5a3bd")
