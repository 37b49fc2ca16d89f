import numpy as np
import pytest

from stepalign import metrics
from stepalign.data import CoarseLabel, Segment
from stepalign.errors import ValidationError
from stepalign.metrics import (
    Detection, average_precision, frame_metrics, map_at_tiou, rasterize,
)
from oracles import average_precision_pointwise

BG = 0
M, K = CoarseLabel.MISTAKE, CoarseLabel.CORRECTION


class TestRasterize:
    def test_single_segment(self):
        out = rasterize([(1, Segment(2, 4))], num_frames=5)
        np.testing.assert_array_equal(out, [BG, BG, 1, 1, BG])

    def test_no_segments_all_background(self):
        np.testing.assert_array_equal(rasterize([], 4), [BG] * 4)

    def test_overlap_rejected_naming_the_later_segment(self):
        # segments are painted in the order given, not sorted by step
        with pytest.raises(ValidationError,
                           match="^segments overlap at step 1$"):
            rasterize([(2, Segment(2, 5)), (1, Segment(0, 3))], 5)

    def test_gt_overlap_rejected(self):
        with pytest.raises(ValidationError, match="overlap"):
            rasterize([(1, Segment(0, 3)), (2, Segment(2, 5))], 5)

    @pytest.mark.parametrize("step, seg, rule", [
        (0, Segment(0, 2), r"step index must be positive, got 0"),
        (1, Segment(3, 6), r"segment \[3, 6\) exceeds num_frames 5"),
        # this used to raise a bare TypeError from the comparison
        (None, Segment(1, 3), r"segment \[1, 3\) has step None; only step "
                              r"segments can be rasterized"),
        # these used to paint step 1, or raise a bare TypeError
        (1.5, Segment(0, 2), r"step index must be int, got 1\.5"),
        (True, Segment(0, 2), r"step index must be int, got True"),
        ("1", Segment(0, 2), r"step index must be int, got '1'"),
        # this used to raise a bare AttributeError
        (1, (0, 3), r"segment must be Segment, got \(0, 3\)"),
    ], ids=["step-0", "past-end", "step-none", "step-float", "step-bool",
            "step-str", "segment-tuple"])
    def test_bad_segment_rejected(self, step, seg, rule):
        with pytest.raises(ValidationError, match=f"^{rule}$"):
            rasterize([(step, seg)], 5)

    def test_negative_frame_count_rejected(self):
        # numpy raised a bare ValueError ("negative dimensions are not allowed")
        with pytest.raises(ValidationError,
                           match="^num_frames must be >= 0, got -1$"):
            rasterize([], -1)

    @pytest.mark.parametrize("num_frames", [2.5, True, "3"],
                             ids=["float", "bool", "str"])
    def test_frame_count_not_an_int_rejected(self, num_frames):
        # numpy raised a bare TypeError, and True made one frame
        with pytest.raises(ValidationError,
                           match=rf"^num_frames must be int, got "
                                 rf"{num_frames!r}$"):
            rasterize([], num_frames)

    def test_split_step_gt_allowed(self):
        out = rasterize([(1, Segment(0, 2)), (1, Segment(4, 6))], 6)
        np.testing.assert_array_equal(out, [1, 1, BG, BG, 1, 1])


class TestFrameMetrics:
    def test_identity(self):
        gt = np.array([1, 1, 2, BG])
        out = frame_metrics(gt, gt)
        assert out == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "mof": 1.0}

    def test_hand_counted_example(self):
        gt = np.array([1, 1, 2, 2, BG])
        pred = np.array([1, 1, 1, 2, 2])
        out = frame_metrics(pred, gt)
        assert out["precision"] == 0.6
        assert out["recall"] == 0.75
        assert abs(out["f1"] - 2 / 3) < 1e-12
        assert out["mof"] == 0.6

    def test_all_background_prediction(self):
        gt = np.array([1, 1, BG, BG])
        pred = np.array([BG, BG, BG, BG])
        out = frame_metrics(pred, gt)
        assert out["precision"] == 0.0
        assert out["recall"] == 0.0
        assert out["f1"] == 0.0
        assert out["mof"] == 0.5  # the two background frames

    def test_mof_is_plain_frame_agreement(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            pred = rng.integers(0, 4, n)
            gt = rng.integers(0, 4, n)
            out = frame_metrics(pred, gt)
            assert out["mof"] == pytest.approx(np.mean(pred == gt))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            frame_metrics(np.zeros(3), np.zeros(4))

    def test_no_frame_rejected(self):
        # MoF divided by the frame count, a bare ZeroDivisionError
        with pytest.raises(ValidationError, match="^label arrays have no frame$"):
            frame_metrics(np.array([]), np.array([]))


def _det(step, start, end, label, conf):
    return Detection(step=step, segment=Segment(start, end), label=label,
                     confidence=conf)


@pytest.mark.parametrize("confidence", [np.nan, 2.0, -0.25],
                         ids=["nan", "above-one", "negative"])
def test_confidence_outside_unit_interval_rejected(confidence):
    # map_at_tiou ranked a NaN confidence in no defined order
    with pytest.raises(ValidationError,
                       match=rf"^confidence must be in \[0, 1\], got "
                             rf"{confidence}$"):
        _det(1, 0, 2, M, confidence)


@pytest.mark.parametrize("field, value, rule", [
    ("step", "1", "step must be int, got '1'"),
    ("step", True, "step must be int, got True"),
    ("step", 1.0, r"step must be int, got 1\.0"),
    ("segment", (0, 2), r"segment must be Segment, got \(0, 2\)"),
    ("label", 1, "label must be CoarseLabel, got 1"),
    ("confidence", True, "confidence must be int or float, got True"),
    ("confidence", "0.5", r"confidence must be int or float, got '0\.5'"),
], ids=["step-str", "step-bool", "step-float", "segment-tuple", "label-int",
        "confidence-bool", "confidence-str"])
def test_field_of_another_type_rejected(field, value, rule):
    # each built, or raised a bare TypeError from the confidence's range
    fields = {"step": 1, "segment": Segment(0, 2), "label": M,
              "confidence": 0.5, field: value}
    with pytest.raises(ValidationError, match=f"^{rule}$"):
        Detection(**fields)


def test_confidence_bounds_accepted():
    assert [_det(1, 0, 2, M, c).confidence for c in (0.0, 1.0)] == [0.0, 1.0]


def test_average_precision_without_ground_truth_rejected():
    with pytest.raises(ValidationError,
                       match="^AP needs at least one ground-truth instance$"):
        average_precision(np.array([True]), 0)


@pytest.mark.parametrize("flags, got", [
    (np.array([1, 0, 1]), "a 1-d array of int64"),
    (np.array([[True, False]]), "a 2-d array of bool"),
    ([True, False, True], "list")],
    ids=["int", "2-d", "list"])
def test_average_precision_flags_not_a_bool_vector_rejected(flags, got):
    # int flags [1, 0, 1] over 2 instances scored AP -0.583, and a list
    # raised a bare TypeError
    with pytest.raises(ValidationError,
                       match=rf"^tp_flags must be a 1-d bool array, got {got}$"):
        average_precision(flags, 2)


@pytest.mark.parametrize("n_gt", [1.5, 2.0, True, "2"],
                         ids=["fraction", "float", "bool", "string"])
def test_average_precision_n_gt_not_an_int_rejected(n_gt):
    # n_gt = 1.5 was accepted
    with pytest.raises(ValidationError,
                       match=rf"^n_gt must be int, got {n_gt!r}$"):
        average_precision(np.array([True, False]), n_gt)


def test_average_precision_more_hits_than_instances_rejected():
    # three true positives over two instances scored AP 1.5
    with pytest.raises(ValidationError,
                       match="^tp_flags has 3 true positives but n_gt is 2$"):
        average_precision(np.array([True, True, True]), 2)


class TestMapAtTiou:
    def test_single_detection_threshold_sweep(self):
        # tIoU of [0,10) vs [6,16): 4 / 16 = 0.25
        gt = {"v": [(1, Segment(6, 16), M)]}
        dets = {"v": [_det(1, 0, 10, M, 0.9)]}
        assert Segment(0, 10).tiou(Segment(6, 16)) == 0.25
        result = map_at_tiou(dets, gt)
        assert result.per_threshold[0.1] == 1.0
        assert result.per_threshold[0.2] == 1.0
        assert result.per_threshold[0.3] == 0.0
        assert result.average == pytest.approx(2 / 3)

    def test_identity_detections(self):
        gt = {
            "a": [(1, Segment(0, 5), M), (None, Segment(10, 12), K)],
            "b": [(2, Segment(3, 9), M)],
        }
        dets = {
            vid: [_det(step, seg.start, seg.end, label, 0.8)
                  for step, seg, label in insts]
            for vid, insts in gt.items()
        }
        result = map_at_tiou(dets, gt)
        assert result.average == 1.0

    def test_step_mismatch_is_fp(self):
        gt = {"v": [(1, Segment(0, 10), M)]}
        dets = {"v": [_det(2, 0, 10, M, 0.9)]}
        result = map_at_tiou(dets, gt)
        assert result.average == 0.0

    def test_label_mismatch_scores_zero(self):
        gt = {"v": [(1, Segment(0, 10), M)]}
        dets = {"v": [_det(1, 0, 10, K, 0.9)]}
        result = map_at_tiou(dets, gt)
        assert result.average == 0.0

    def test_classes_without_gt_excluded(self):
        gt = {"v": [(1, Segment(0, 10), M)]}
        dets = {"v": [_det(1, 0, 10, M, 0.9)]}
        result = map_at_tiou(dets, gt)
        assert set(result.per_class) == {"mistake"}
        assert result.average == 1.0

    def test_empty_gt_rejected(self):
        with pytest.raises(ValidationError, match="undefined"):
            map_at_tiou({"v": []}, {"v": []})

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        gt, dets = _random_case(rng)
        base = map_at_tiou(dets, gt)
        for _ in range(5):
            shuffled = {
                vid: list(rng.permutation(len(items)))
                for vid, items in dets.items()
            }
            dets2 = {vid: [dets[vid][i] for i in order]
                     for vid, order in shuffled.items()}
            assert map_at_tiou(dets2, gt) == base

    def test_removing_fp_never_decreases_ap(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            gt, dets = _random_case(rng)
            base = map_at_tiou(dets, gt)
            flat = [(vid, i) for vid, items in dets.items() for i in range(len(items))]
            if not flat:
                continue
            vid, i = flat[int(rng.integers(len(flat)))]
            removed = dets[vid][i]
            trimmed = {v: [d for j, d in enumerate(items) if not (v == vid and j == i)]
                       for v, items in dets.items()}
            # only safe to assert when the removed detection was a miss
            gt_steps = {(s, lbl) for s, _, lbl in gt.get(vid, [])}
            if (removed.step, removed.label) not in gt_steps:
                after = map_at_tiou(trimmed, gt)
                assert after.average >= base.average - 1e-12

    def test_duplicate_of_matched_detection_never_increases_ap(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            gt, dets = _random_case(rng)
            flat = [(vid, d) for vid, items in dets.items() for d in items]
            if not flat:
                continue
            vid, det = flat[int(rng.integers(len(flat)))]
            base = map_at_tiou(dets, gt)
            dup = Detection(det.step, det.segment, det.label,
                            max(det.confidence - 0.05, 1e-6))
            extended = {v: list(items) for v, items in dets.items()}
            extended[vid] = extended[vid] + [dup]
            after = map_at_tiou(extended, gt)
            assert after.average <= base.average + 1e-12


def _random_case(rng, n_videos=3):
    gt = {}
    dets = {}
    for v in range(n_videos):
        vid = f"v{v}"
        gt_items = []
        cursor = 0
        for _ in range(int(rng.integers(1, 4))):
            start = cursor + int(rng.integers(0, 3))
            end = start + int(rng.integers(2, 6))
            label = M if rng.random() < 0.7 else K
            step = int(rng.integers(1, 4)) if rng.random() < 0.8 else None
            gt_items.append((step, Segment(start, end), label))
            cursor = end
        gt[vid] = gt_items
        det_items = []
        for _ in range(int(rng.integers(0, 5))):
            start = int(rng.integers(0, 15))
            end = start + int(rng.integers(2, 6))
            label = M if rng.random() < 0.7 else K
            step = int(rng.integers(1, 4)) if rng.random() < 0.8 else None
            det_items.append(_det(step, start, end, label,
                                  float(rng.uniform(0.05, 1.0))))
        dets[vid] = det_items
    if all(lbl not in (M, K) for items in gt.values() for _, _, lbl in items):
        gt["v0"].append((1, Segment(0, 3), M))
    return gt, dets


class TestApOracle:
    def test_envelope_equals_pointwise_on_random_flag_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(0, 12))
            flags = rng.random(n) < 0.4
            n_gt = max(int(flags.sum()), 1) + int(rng.integers(0, 3))
            fast = average_precision(flags, n_gt)
            slow = average_precision_pointwise(flags, n_gt)
            assert fast == pytest.approx(slow, abs=1e-9)

    def test_map_against_pointwise_oracle_on_random_cases(self, monkeypatch):
        rng = np.random.default_rng(13)
        for _ in range(100):
            gt, dets = _random_case(rng)
            fast = map_at_tiou(dets, gt)
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "average_precision",
                              average_precision_pointwise)
                slow = map_at_tiou(dets, gt)
            for t in fast.per_threshold:
                assert fast.per_threshold[t] == pytest.approx(
                    slow.per_threshold[t], abs=1e-9)
            assert fast.average == pytest.approx(slow.average, abs=1e-9)
