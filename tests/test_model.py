import hashlib
import math
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import stepalign.model
from stepalign.alignment import percentile_drop_cost
from stepalign.data import FoldSpec, Segment
from stepalign.checkpoint import save_checkpoint
from stepalign.corpus import Corpus
from stepalign.errors import FormatError, NumericalError, ValidationError
from stepalign.metrics import gt_frame_labels
from stepalign.model import (
    FoldVideo, ModelParams, TrainConfig, TrainWorkspace,
    align_frames_to_slots, align_video, batch_loss_and_grads, compute_selections,
    cosine_matrix, evaluate_alignment_f1, forward_slots, l2_normalize_rows, load_model, save_model, select_slots, train_alignment_fold,
)
from stepalign.optim import Training
from stepalign.synth import SynthConfig, synth_corpus
from oracles import (
    batch_loss_and_grads_kv, brute_force_align, cosine,
    evaluate_alignment_f1_per_video, forward_slots_kv, fresh_workspace,
    select_slots_per_video, train_alignment_fold_per_tensor,
)


def _params(rng, d=6, dp=5, u=4):
    return ModelParams.init(rng, feature_dim=d, working_dim=dp, num_queries=u)


def _slots(params, x):
    """The slot matrix of one video's decoder input."""
    [cache] = forward_slots(params, [x])
    return cache["slots"]


def _reference_forward(params, x):
    """Straight-line duplicate of the slot formula, kept deliberately
    naive as an independent oracle."""
    d_prime = params.w_q.shape[0]
    xp = x @ params.proj_v
    qp = params.queries @ params.w_q
    km = xp @ params.w_k
    vm = xp @ params.w_v
    z = qp @ km.T / np.sqrt(d_prime)
    a = np.exp(z - z.max(axis=1, keepdims=True))
    a = a / a.sum(axis=1, keepdims=True)
    return (a @ vm) @ params.w_o


# Naive value-only reference oracle for the decoder loss. The package
# defines the loss once, inside batch_loss_and_grads; this straight-line
# version is the independent check on its value and, through finite
# differences, on its gradients.

def _logsumexp(x):
    m = float(np.max(x))
    return m + math.log(float(np.sum(np.exp(x - m))))


def loss_supervised_indices(slot, frame_indices, frames, gamma):
    """Supervised alignment loss with an explicit positive-frame index set
    (split steps pass the union of their segments)."""
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    frame_indices = np.asarray(frame_indices, dtype=np.int64)
    if frame_indices.size == 0:
        raise ValidationError("empty positive frame set")
    v_hat = l2_normalize_rows(frames)
    s_hat = slot / np.linalg.norm(slot)
    logits = (v_hat @ s_hat) / gamma
    return _logsumexp(logits) - _logsumexp(logits[frame_indices])


def loss_supervised(slot, seg, frames, gamma):
    """Alignment loss for a single contiguous ground-truth segment."""
    if seg.end > frames.shape[0]:
        raise ValidationError(
            f"segment [{seg.start}, {seg.end}) outside video of {frames.shape[0]}")
    return loss_supervised_indices(slot, np.arange(seg.start, seg.end),
                                   frames, gamma)


def batch_loss(params, batch, selections, config):
    """Pure loss evaluation at a fixed slot selection (the finite-difference
    reference for the analytic gradients)."""
    sup_terms = []
    for video, chosen in zip(batch, selections):
        slots = _slots(params, video.x)
        xp = video.x @ params.proj_v
        sel = slots[chosen]
        steps = sorted(set(video.gt_labels.tolist()) - {0})
        if steps:
            per_step = [
                loss_supervised_indices(sel[step - 1],
                                        np.flatnonzero(video.gt_labels == step),
                                        xp, config.gamma)
                for step in steps
            ]
            sup_terms.append(float(np.mean(per_step)))
    return float(np.mean(sup_terms)) if sup_terms else 0.0


class TestCosine:
    def test_self_similarity(self):
        u = np.array([0.3, -2.0, 1.5])
        assert cosine(u, u) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_antipodal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == -1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError, match="zero vector"):
            cosine(np.zeros(3), np.ones(3))

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        got = cosine_matrix(a, b)
        for i in range(3):
            for j in range(5):
                assert got[i, j] == pytest.approx(cosine(a[i], b[j]), abs=1e-12)

    def test_normalize_rows(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 6))
        norms = np.linalg.norm(l2_normalize_rows(m), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


class TestForwardSlots:
    def test_shape_contract(self):
        rng = np.random.default_rng(0)
        params = ModelParams.init(rng, feature_dim=64, working_dim=64,
                                  num_queries=32)
        slots = _slots(params, rng.normal(size=(100, 64)))
        assert slots.shape == (32, 64)

    def test_single_frame_degenerate_softmax(self):
        rng = np.random.default_rng(1)
        params = _params(rng)
        x = rng.normal(size=(1, 6))
        [cache] = forward_slots(params, [x])
        slots = cache["slots"]
        np.testing.assert_array_equal(cache["attn"], np.ones((4, 1)))
        expected_row = ((x @ params.proj_v) @ params.w_v @ params.w_o)[0]
        for row in slots:
            np.testing.assert_allclose(row, expected_row, atol=1e-12)

    def test_matches_duplicate_formula_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            params = _params(rng)
            x = rng.normal(size=(9, 6))
            np.testing.assert_allclose(_slots(params, x),
                                       _reference_forward(params, x),
                                       atol=1e-10)

    def test_query_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        params = _params(rng)
        x = rng.normal(size=(7, 6))
        base = _slots(params, x)
        perm = rng.permutation(params.queries.shape[0])
        shuffled = ModelParams(**{**params.as_dict(),
                                  "queries": params.queries[perm]})
        np.testing.assert_allclose(_slots(shuffled, x), base[perm],
                                   atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        params = _params(rng, d=6)
        with pytest.raises(ValidationError, match="features"):
            forward_slots(params, [rng.normal(size=(5, 7))])


def test_l2_normalize_rejects_zero_row():
    with pytest.raises(ValidationError, match="^cannot l2-normalize a zero row$"):
        l2_normalize_rows(np.array([[1.0, 2.0], [0.0, 0.0]]))


@pytest.mark.parametrize("changes, rule", [
    ({"drop_pct": 0.0}, r"drop_pct must be in \(0, 100\]"),
    ({"drop_pct": 101.0}, r"drop_pct must be in \(0, 100\]"),
    # the strings used to raise a bare TypeError from a comparison, and
    # True passed as a learning rate of 1
    ({"gamma": "0.03"}, r"gamma must be an int or a float, got '0\.03'"),
    ({"drop_pct": "80"}, "drop_pct must be an int or a float, got '80'"),
    ({"learning_rate": True},
     "learning_rate must be an int or a float, got True"),
    # and this was taken for its truth value
    ({"normalize_features": "yes"},
     "normalize_features must be a bool, got 'yes'"),
], ids=["drop-pct-0", "drop-pct-101", "str-gamma", "str-drop-pct",
        "bool-learning-rate", "str-normalize"])
def test_config_rule_broken_rejected(changes, rule):
    with pytest.raises(ValidationError, match=f"^{rule}$"):
        replace(TrainConfig(), **changes).validate()


class TestSelectSlots:
    def test_diagonal_dominance_identity(self):
        rng = np.random.default_rng(5)
        k = 4
        slots = np.eye(k) + 0.01 * rng.normal(size=(k, k))
        steps = np.eye(k)
        [chosen] = select_slots([slots], [steps], drop_pct=80)
        assert chosen == list(range(k))

    def test_single_step_cost_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            slots = rng.normal(size=(6, 4))
            steps = rng.normal(size=(1, 4))
            cost = -cosine_matrix(steps, slots)
            delta = percentile_drop_cost(cost, 80)
            oracle, oracle_total = brute_force_align(cost, delta)
            [chosen] = select_slots([slots], [steps], drop_pct=80)
            oracle_slots = np.flatnonzero(oracle[0])
            # the same optimum value is achieved; the representative slot
            # must be one of the matched ones in some optimal assignment
            assert len(chosen) == 1
            got_cost = cost[oracle].sum() + delta * np.sum(~oracle[0])
            assert got_cost == pytest.approx(oracle_total, abs=1e-12)
            assert cost[0, chosen[0]] <= cost[0, oracle_slots].min() + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        slots = rng.normal(size=(8, 5))
        steps = rng.normal(size=(3, 5))
        assert select_slots([slots], [steps], 80) == select_slots([slots], [steps], 80)

    def test_monotone_selection(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            slots = rng.normal(size=(10, 6))
            steps = rng.normal(size=(4, 6))
            [chosen] = select_slots([slots], [steps], 80)
            assert all(b >= a for a, b in zip(chosen, chosen[1:]))

    @pytest.mark.parametrize("batch", [1, 6])
    def test_stack_matches_per_video_oracle(self, batch):
        # videos of 2 and 3 steps in one call; each gets the slots that
        # drop_dtw plus the cheapest matched slot give it alone
        rng = np.random.default_rng(batch)
        for _ in range(30):
            slots = [rng.normal(size=(8, 5)) for _ in range(batch)]
            for video_slots in slots[::2]:
                video_slots[3:6] = video_slots[2]   # exact cost ties
            steps = [rng.normal(size=(int(rng.integers(2, 4)), 5))
                     for _ in range(batch)]
            expected = [select_slots_per_video(u, t, 80)
                        for u, t in zip(slots, steps)]
            assert select_slots(slots, steps, 80) == expected

    def test_float32_batch_matches_per_video_oracle_bit_for_bit(
            self, monkeypatch):
        # float32 slots and texts, as training passes them: three videos of
        # one task share a text matrix, two of another share theirs, and a
        # lone video has its own (K, U)
        rng = np.random.default_rng(13)
        texts = {k: rng.normal(size=(k, 6)).astype(np.float32)
                 for k in (2, 3, 4)}
        layout = [(3, 8), (4, 8), (3, 8), (2, 7), (4, 8), (3, 8)]
        steps = [texts[k] for k, _ in layout]
        slots = [rng.normal(size=(u, 6)).astype(np.float32) for _, u in layout]
        slots[2][4:6] = slots[2][3]   # exact cost ties
        stacked, seen = stepalign.model.drop_dtw_stack, []

        def recorded(costs, drop_costs):
            seen.extend((cost.tobytes(), drop) for cost, drop
                        in zip(costs, drop_costs.tolist()))
            return stacked(costs, drop_costs)

        monkeypatch.setattr(stepalign.model, "drop_dtw_stack", recorded)
        got = select_slots(slots, steps, 80)
        assert got == [select_slots_per_video(u, t, 80)
                       for u, t in zip(slots, steps)]
        # each video's costs and drop cost are the bytes it gets alone
        alone = [-cosine_matrix(t, u) for u, t in zip(slots, steps)]
        assert sorted(seen) == sorted(
            (cost.tobytes(), percentile_drop_cost(cost, 80)) for cost in alone)

    def test_count_mismatch_rejected(self):
        # zip dropped the second video: one selection came back for two
        rng = np.random.default_rng(14)
        video_slots = rng.normal(size=(8, 5))
        with pytest.raises(ValidationError, match=(
                "^step_feats must hold one matrix per slot matrix, got 1 "
                "for 2$")):
            select_slots([video_slots, video_slots],
                         [rng.normal(size=(3, 5))], 80)

    def test_step_width_mismatch_rejected(self):
        # matmul raised a bare ValueError
        rng = np.random.default_rng(15)
        video_slots = rng.normal(size=(8, 5))
        with pytest.raises(ValidationError,
                           match=r"^step_feats\[1\] must be K x 5, got \(3, 4\)$"):
            select_slots([video_slots, video_slots],
                         [rng.normal(size=(3, 5)), rng.normal(size=(3, 4))], 80)

    def test_too_many_steps_rejected(self):
        # the kernel gives each step a slot of its own
        rng = np.random.default_rng(9)
        with pytest.raises(ValidationError,
                           match="^cost matrix has 3 rows but only 2 columns"):
            select_slots([rng.normal(size=(2, 4))], [rng.normal(size=(3, 4))], 80)


class TestLossSupervised:
    def test_full_segment_exactly_zero(self):
        rng = np.random.default_rng(10)
        frames = rng.normal(size=(12, 5))
        slot = rng.normal(size=5)
        loss = loss_supervised(slot, Segment(0, 12), frames, gamma=0.03)
        assert loss == 0.0

    def test_two_frames_equal_cosine_gives_log2(self):
        slot = np.array([1.0, 1.0, 0.0])
        frames = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        loss = loss_supervised(slot, Segment(0, 1), frames, gamma=0.03)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_separated_limit_vanishes(self):
        gamma = 0.03
        slot = np.array([1.0, 0.0])
        frames = np.array([[1.0, 0.0], [-1.0, 0.0]])
        loss = loss_supervised(slot, Segment(0, 1), frames, gamma=gamma)
        # closed form: log(1 + exp(-2 / gamma))
        assert loss == pytest.approx(math.log1p(math.exp(-2 / gamma)), abs=1e-15)
        assert loss < 1e-12

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            frames = rng.normal(size=(int(rng.integers(2, 15)), 4))
            slot = rng.normal(size=4)
            lo = int(rng.integers(0, frames.shape[0] - 1))
            hi = int(rng.integers(lo + 1, frames.shape[0] + 1))
            loss = loss_supervised(slot, Segment(lo, hi), frames, gamma=0.5)
            assert loss >= 0.0

    def test_segment_outside_video_rejected(self):
        with pytest.raises(ValidationError):
            loss_supervised(np.ones(3), Segment(0, 5), np.ones((4, 3)), 0.1)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValidationError):
            loss_supervised(np.ones(3), Segment(0, 1), np.ones((2, 3)), 0.0)


def _random_example(rng, d=6, k=2, length=7):
    frames = rng.normal(size=(length, d))
    step_feats = l2_normalize_rows(rng.normal(size=(k, d)))
    gt_labels = np.zeros(length, dtype=np.int64)
    cursor = 0
    for step in range(1, k + 1):
        seg_len = int(rng.integers(1, 3))
        gt_labels[cursor:cursor + seg_len] = step
        cursor += seg_len + 1
    return FoldVideo.from_frames(f"v{rng.integers(1e6)}", frames, step_feats,
                                 gt_labels, normalize_features=True)


def _grad_check(config, seed, selections=None, edit_batch=None):
    """Worst relative gap between the analytic gradients and central
    differences of the oracle ``batch_loss``. ``selections`` overrides the
    decoder's own slot choice; ``edit_batch`` may return other examples
    in place of the batch's."""
    rng = np.random.default_rng(seed)
    params = _params(rng, d=6, dp=5, u=4)
    batch = [_random_example(rng) for _ in range(2)]
    if edit_batch is not None:
        batch = edit_batch(batch)
    chosen, caches = compute_selections(params, batch, config,
                                        fresh_workspace(params, batch))
    if selections is None:
        selections = chosen
    loss, grads = batch_loss_and_grads(params, batch, selections, caches,
                                       config, fresh_workspace(params, batch))
    assert loss == pytest.approx(batch_loss(params, batch, selections, config),
                                 rel=1e-12)
    h = 1e-5
    worst = 0.0
    for name, tensor in params.as_dict().items():
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + h
            up = batch_loss(params, batch, selections, config)
            tensor[idx] = orig - h
            down = batch_loss(params, batch, selections, config)
            tensor[idx] = orig
            fd = (up - down) / (2 * h)
            an = getattr(grads, name)[idx]
            err = abs(an - fd)
            denom = max(abs(an), abs(fd))
            if err > 1e-8:  # absolute floor for dead entries
                worst = max(worst, err / denom if denom else math.inf)
    return worst


class TestSlotSpaceAttention:
    """The decoder against its key/value form at the paper's widths
    (d = d' = 64, U = 32) on six videos of about 1340 frames."""

    @staticmethod
    def _long_batch():
        rng = np.random.default_rng(21)
        params = ModelParams.init(rng, feature_dim=64, working_dim=64,
                                  num_queries=32)
        params.flat += 0.1 * rng.normal(size=params.flat.shape)
        batch = []
        for b in range(6):
            length, k = int(rng.integers(1300, 1381)), 12
            gt = np.zeros(length, dtype=int)
            edges = np.linspace(0, length, k + 1).astype(int)
            for step in range(1, k + 1):
                if (b, step) != (1, 5):      # one step without frames
                    gt[edges[step - 1] + 4:edges[step] - 4] = step
            batch.append(FoldVideo.from_frames(
                f"v{b}", rng.normal(size=(length, 64)),
                rng.normal(size=(k, 64)), gt, normalize_features=True))
        return params, batch

    def test_matches_key_value_oracle(self):
        params, batch = self._long_batch()
        config = TrainConfig()
        selections, caches = compute_selections(
            params, batch, config, fresh_workspace(params, batch))
        kv_caches = [forward_slots_kv(params, v.x)[1] for v in batch]
        kv_selections = select_slots(
            [c["slots"] for c in kv_caches],
            stepalign.model._text_input(params, [v.step_feats for v in batch]),
            config.drop_pct)
        assert selections == kv_selections

        def assert_close(got, expected, name):
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(got - expected)) <= 1e-12 * scale, name

        for cache, kv in zip(caches, kv_caches):
            assert_close(cache["slots"], kv["slots"], "slots")
        loss, grads = batch_loss_and_grads(
            params, batch, selections, caches, config,
            fresh_workspace(params, batch))
        kv_loss, kv_grads = batch_loss_and_grads_kv(
            params, batch, selections, kv_caches, config)
        assert abs(loss - kv_loss) <= 1e-12 * abs(kv_loss)
        for name, grad in grads.as_dict().items():
            assert_close(grad, getattr(kv_grads, name), name)

    def test_cache_holds_no_per_frame_keys_or_values(self):
        # nor the decoder input, which the fold video holds
        params, batch = self._long_batch()
        [cache] = forward_slots(params, [batch[0].x])
        length = batch[0].x.shape[0]
        per_frame = {name for name, value in cache.items()
                     if length in np.shape(value)}
        assert per_frame == {"xp", "attn"}


_GRAD_CONFIG = TrainConfig(gamma=0.5, batch_size=2, drop_pct=80)


class TestGradients:
    def test_combined_loss_matches_finite_differences(self):
        # the whole training loss of a batch, as train_alignment_fold uses it
        for seed in range(8):
            assert _grad_check(_GRAD_CONFIG, seed) < 1e-4

    def test_supervised_only_matches_finite_differences(self):
        # the supervised term alone, on a second range of seeds and with a
        # sharper gamma
        config = replace(_GRAD_CONFIG, gamma=0.2)
        for seed in range(100, 106):
            assert _grad_check(config, seed) < 1e-4

    def test_batch_is_the_mean_of_its_videos(self):
        # each video's loss and gradients are its own: a batch of two is
        # the mean of the two one-video batches
        rng = np.random.default_rng(500)
        params = _params(rng)
        batch = [_random_example(rng) for _ in range(2)]
        selections, caches = compute_selections(
            params, batch, _GRAD_CONFIG, fresh_workspace(params, batch))
        loss, grads = batch_loss_and_grads(params, batch, selections, caches,
                                           _GRAD_CONFIG,
                                           fresh_workspace(params, batch))
        singles = [batch_loss_and_grads(
            params, batch[i:i + 1], selections[i:i + 1], caches[i:i + 1],
            _GRAD_CONFIG, fresh_workspace(params, batch[i:i + 1]))
            for i in range(2)]
        assert loss == pytest.approx((singles[0][0] + singles[1][0]) / 2,
                                     rel=1e-12)
        for name, grad in grads.as_dict().items():
            np.testing.assert_allclose(
                grad, (getattr(singles[0][1], name)
                       + getattr(singles[1][1], name)) / 2,
                rtol=1e-10, atol=1e-14, err_msg=name)

    def test_shared_slot_gradients_accumulate(self):
        # two steps of one video select the same slot, so both supervised
        # terms must land on that slot
        for seed in range(300, 304):
            assert _grad_check(_GRAD_CONFIG, seed,
                               selections=[[1, 1], [0, 2]]) < 1e-4

    def test_steps_without_frames_match_finite_differences(self):
        # step 1 of the first video and every step of the second carry no
        # annotated frames; they add no supervised term
        def drop_annotations(batch):
            first, second = batch
            return [replace(first, gt_labels=np.where(first.gt_labels == 1, 0,
                                                      first.gt_labels)),
                    replace(second, gt_labels=np.zeros_like(second.gt_labels))]

        for seed in range(400, 404):
            assert _grad_check(_GRAD_CONFIG, seed,
                               edit_batch=drop_annotations) < 1e-4

    def test_outside_frame_gradient_vanishes_as_cosine_drops(self):
        gamma = 0.1
        slot = np.array([1.0, 0.0])
        h = 1e-6
        norms = []
        for opposite in (-0.9, -0.99, -0.999):
            base = np.array([[1.0, 0.0],
                             [opposite, math.sqrt(1 - opposite ** 2)]])
            grad = np.zeros(2)
            for axis in range(2):
                up = base.copy()
                up[1, axis] += h
                down = base.copy()
                down[1, axis] -= h
                grad[axis] = (
                    loss_supervised_indices(slot, np.array([0]), up, gamma)
                    - loss_supervised_indices(slot, np.array([0]), down, gamma)
                ) / (2 * h)
            norms.append(np.linalg.norm(grad))
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 1e-6


class TestOraclePlantAndRecover:
    def test_exact_recovery_with_prototype_slots(self):
        # three prototypes with pairwise negative cosine plus a background
        # direction that anti-correlates with all of them; drop_pct=50 puts
        # the drop cost exactly at the cross-prototype cost level
        mu = 0.5
        d = 8
        angles = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
        protos = []
        for ang in angles:
            v = np.zeros(d)
            v[0], v[1] = math.cos(ang), math.sin(ang)
            v[2] = -mu
            protos.append(v / np.linalg.norm(v))
        protos = np.stack(protos)
        bg = np.zeros(d)
        bg[2] = 1.0

        segments = [(1, Segment(2, 6)), (2, Segment(8, 12)), (3, Segment(14, 18))]
        frames = np.stack([bg] * 20)
        for step, seg in segments:
            frames[seg.start:seg.end] = protos[step - 1]

        recovered = align_frames_to_slots(protos, frames, drop_pct=50)
        assert recovered == segments

    def test_pure_background_keeps_contract(self):
        # one-sided alignment must still emit one segment per step; the
        # output stays structurally valid even with nothing to find
        rng = np.random.default_rng(31)
        slots = l2_normalize_rows(rng.normal(size=(3, 6)))
        frames = l2_normalize_rows(rng.normal(size=(15, 6)))
        out = align_frames_to_slots(slots, frames, drop_pct=80)
        steps = [s for s, _ in out]
        assert steps == sorted(set(steps))
        for _, seg in out:
            assert 0 <= seg.start < seg.end <= 15


class TestAlignVideos:
    def test_fewer_frames_than_steps_rejected(self):
        # each step is aligned to frames of its own
        rng = np.random.default_rng(43)
        params = _params(rng, d=6, dp=5, u=4)
        with pytest.raises(ValidationError,
                           match="^cost matrix has 3 rows but only 2 columns"):
            align_video(params, rng.normal(size=(2, 6)),
                        rng.normal(size=(3, 6)), 80.0, True)

    def test_step_width_mismatch_rejected(self):
        # inference and training selection share the one check
        rng = np.random.default_rng(42)
        params = _params(rng, d=6, dp=5, u=4)
        frames, steps = rng.normal(size=(9, 6)), rng.normal(size=(2, 7))
        rule = r"^step features must be K x 6, got \(2, 7\)$"
        with pytest.raises(ValidationError, match=rule):
            align_video(params, frames, steps, 80.0, True)
        video = FoldVideo.from_frames("v", frames, steps,
                                      np.zeros(9, dtype=np.int64), True)
        with pytest.raises(ValidationError, match=rule):
            compute_selections(params, [video], TrainConfig(),
                               fresh_workspace(params, [video]))

    @pytest.mark.parametrize("argument", ["frames", "step_feats"])
    @pytest.mark.parametrize("dtype", [bool, np.complex128, object, np.str_],
                             ids=["bool", "complex", "object", "string"])
    def test_features_not_real_numbers_rejected(self, argument, dtype):
        # bool frames computed as float32, and the others failed bare or
        # computed in complex
        rng = np.random.default_rng(45)
        params = _params(rng, d=6, dp=5, u=4)
        inputs = {"frames": rng.normal(size=(9, 6)),
                  "step_feats": rng.normal(size=(2, 6))}
        inputs[argument] = (inputs[argument] > 0).astype(dtype)
        what = "features" if argument == "frames" else "step features"
        with pytest.raises(ValidationError, match=(
                rf"^{what} must be ints or floats, got an array of "
                rf"{re.escape(str(inputs[argument].dtype))}$")):
            align_video(params, inputs["frames"], inputs["step_feats"],
                        80.0, True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_zero_feature_row_rejected_naming_the_frame(self, dtype,
                                                        normalize):
        # found before the decoder runs, so that in float32 it does not
        # turn into a NaN and then a NumericalError
        rng = np.random.default_rng(44)
        params = _params(rng, d=6, dp=5, u=4)
        frames = rng.normal(size=(9, 6)).astype(dtype)
        frames[4] = 0.0
        with pytest.raises(ValidationError, match=(
                r"^video has an all-zero feature row at frame 4; every frame "
                r"needs a nonzero row$")):
            align_video(params, frames, rng.normal(size=(2, 6)).astype(dtype),
                        80.0, normalize)


class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(50)
        params = _params(rng)
        quantized = ModelParams(**{
            k: v.astype(np.float32).astype(np.float64)
            for k, v in params.as_dict().items()})
        training = Training(fold_id=2, params=quantized, best_epoch=7,
                            best_score=0.83)
        path = tmp_path / "align_fold2.ckpt"
        save_model(path, training, TrainConfig(seed=9))
        loaded, meta = load_model(path)
        for name, tensor in quantized.as_dict().items():
            np.testing.assert_array_equal(getattr(loaded, name), tensor)
        assert meta["epoch"] == 7
        assert meta["seed"] == 9
        assert meta["val_f1"] == pytest.approx(0.83)
        # shapes live in the tensors only; the header keeps the training record
        assert set(meta) == {"kind", "seed", "epoch", "val_f1", "fold_id"}

    def test_byte_identical_rewrites(self, tmp_path):
        rng = np.random.default_rng(51)
        params = _params(rng)
        training = Training(fold_id=0, params=params, best_epoch=1,
                            best_score=0.5)
        save_model(tmp_path / "a.ckpt", training, TrainConfig())
        save_model(tmp_path / "b.ckpt", training, TrainConfig())
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize("name, shape", [
        ("w_q", (3, 3)), ("proj_t", (6, 4)), ("queries", (4, 3)),
        ("queries", (20,)), ("w_o", (5, 5, 1)),
    ])
    def test_shape_mismatch_rejected(self, tmp_path, name, shape):
        # d = 6, d' = 5, U = 4: every tensor must agree with that layout
        tensors = _params(np.random.default_rng(52)).as_dict()
        tensors[name] = np.zeros(shape)
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, tensors, {"kind": "alignment"})
        with pytest.raises(FormatError, match=f"bad.ckpt: tensor {name} "):
            load_model(path)

    def test_missing_tensor_rejected(self, tmp_path):
        tensors = _params(np.random.default_rng(53)).as_dict()
        del tensors["w_v"]
        save_checkpoint(tmp_path / "bad.ckpt", tensors, {"kind": "alignment"})
        with pytest.raises(FormatError, match="bad.ckpt: .* no tensor w_v"):
            load_model(tmp_path / "bad.ckpt")

    def test_other_kind_rejected(self, tmp_path):
        tensors = _params(np.random.default_rng(54)).as_dict()
        save_checkpoint(tmp_path / "bad.ckpt", tensors, {"kind": "classifier"})
        with pytest.raises(FormatError,
                           match="bad.ckpt: checkpoint kind 'classifier', "
                                 "not 'alignment'"):
            load_model(tmp_path / "bad.ckpt")

    def test_stray_tensor_rejected(self, tmp_path):
        tensors = _params(np.random.default_rng(55)).as_dict()
        tensors["stray"] = np.zeros(3)
        save_checkpoint(tmp_path / "bad.ckpt", tensors, {"kind": "alignment"})
        with pytest.raises(FormatError, match=r"bad.ckpt: .*\['stray'\]"):
            load_model(tmp_path / "bad.ckpt")


def _tiny_fold():
    corpus = synth_corpus(SynthConfig(tasks=2, videos_per_task=4, workers=2,
                                      steps_per_task=3, dim=8,
                                      frames_per_step=(3, 5))).corpus
    ids = [v.video_id for v in corpus.videos]
    fold = FoldSpec(0, train=tuple(ids[:5]), val=tuple(ids[5:7]),
                    test=(ids[7],))
    config = TrainConfig(epochs=3, batch_size=2, working_dim=6, num_queries=5)
    return corpus, fold, config


def _fold_video_arrays(rng, lengths, d, k, dtype=np.float32):
    """The id, frames, step texts and raster of fold videos of the given
    lengths, their features in ``dtype``, each with k steps of annotated
    frames, apart from the second video, which has none."""
    videos = []
    for i, length in enumerate(lengths):
        gt = np.zeros(length, dtype=np.int64)
        if i != 1:
            edges = np.linspace(0, length, k + 1).astype(int)
            for step in range(1, k + 1):
                gt[edges[step - 1] + 2:edges[step] - 2] = step
        videos.append((f"v{i}", rng.normal(size=(length, d)).astype(dtype),
                       rng.normal(size=(k, d)).astype(dtype), gt))
    return videos


def _fold_videos(rng, lengths, d, k, dtype=np.float32):
    """``_fold_video_arrays`` as normalized fold videos."""
    return [FoldVideo.from_frames(*arrays, normalize_features=True)
            for arrays in _fold_video_arrays(rng, lengths, d, k, dtype)]


def _training_step(params, batch, config, work):
    selections, caches = compute_selections(params, batch, config, work)
    loss, grads = batch_loss_and_grads(params, batch, selections, caches,
                                       config, work)
    return selections, caches, loss, grads


def _largest_line_allocation(fn) -> int:
    """The most memory tracemalloc sees allocated at once within any one
    executed line of ``fn`` or of what it calls, over what was allocated
    when that line began. A block allocated, and freed or kept, counts in
    the line that allocated it."""
    worst = start = 0

    def trace(frame, event, arg):
        nonlocal worst, start
        worst = max(worst, tracemalloc.get_traced_memory()[1] - start)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        return trace

    tracemalloc.start()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return worst


_LENGTHS = pytest.mark.parametrize(
    "lengths", [(41, 17, 29, 23), (17, 29, 23, 41)],
    ids=["longest-first", "longest-last"])


class TestTrainWorkspace:
    # each check runs on float32 features, as a corpus holds them, and on
    # float64 ones; a workspace is built from the parameters cast to the
    # dtype the decoder computes in, the dtype of the features
    @_LENGTHS
    def test_step_equals_allocating_step_bit_for_bit(self, lengths):
        self._step_equals_allocating_step(lengths, np.float32)

    @_LENGTHS
    def test_step_equals_allocating_step_bit_for_bit_in_float64(self, lengths):
        self._step_equals_allocating_step(lengths, np.float64)

    def test_selected_rows_equal_allocating_step_bit_for_bit(self):
        self._selected_rows_equal_allocating_step(np.float32)

    def test_selected_rows_equal_allocating_step_bit_for_bit_in_float64(self):
        self._selected_rows_equal_allocating_step(np.float64)

    def test_later_step_allocates_no_frame_sized_block(self):
        self._later_step_allocates_no_frame_sized_block(np.float32)

    def test_later_step_allocates_no_frame_sized_block_in_float64(self):
        self._later_step_allocates_no_frame_sized_block(np.float64)

    @staticmethod
    def _step_equals_allocating_step(lengths, dtype):
        rng = np.random.default_rng(60)
        params = _params(rng, d=6, dp=5, u=4)
        params.flat += 0.1 * rng.normal(size=params.flat.shape)
        batch = _fold_videos(rng, lengths, d=6, k=2, dtype=dtype)
        config = TrainConfig(gamma=0.5, batch_size=4)
        want = _training_step(params, batch, config,
                              fresh_workspace(params, batch))
        work = TrainWorkspace(params.astype(dtype), batch_size=4,
                              max_frames=max(lengths), max_steps=2)
        # the second step runs over buffers the first one filled
        for _ in range(2):
            got = _training_step(params, batch, config, work)
            assert got[0] == want[0]
            assert got[2] == want[2]
            assert got[3].flat.tobytes() == want[3].flat.tobytes()
            for cache, expected in zip(got[1], want[1]):
                for name in ("xp", "attn", "slots"):
                    assert cache[name].dtype == dtype
                    assert cache[name].tobytes() == expected[name].tobytes()

    @staticmethod
    def _selected_rows_equal_allocating_step(dtype):
        # 3, 0, 3 and 2 annotated steps, so the steps x frames buffers are
        # read at several sizes, and two steps of the first video share a
        # slot; the video without annotated frames selects slots 0, 2 and
        # 3, which no other video selects
        rng = np.random.default_rng(66)
        params = _params(rng, d=6, dp=5, u=6)
        params.flat += 0.1 * rng.normal(size=params.flat.shape)
        batch = [*_fold_videos(rng, (23, 31, 19), d=6, k=3, dtype=dtype),
                 *_fold_videos(rng, (27,), d=6, k=2, dtype=dtype)]
        assert [v.steps.size for v in batch] == [3, 0, 3, 2]
        selections = [[1, 1, 4], [0, 2, 3], [1, 4, 5], [5, 1]]
        config = TrainConfig(gamma=0.5, batch_size=4)
        _, caches = compute_selections(params, batch, config,
                                       fresh_workspace(params, batch))
        loss, grads = batch_loss_and_grads(
            params, batch, selections, caches, config,
            fresh_workspace(params, batch))
        work = TrainWorkspace(params.astype(dtype), batch_size=4,
                              max_frames=31, max_steps=3)
        for _ in range(2):
            _, work_caches = compute_selections(params, batch, config, work)
            got = batch_loss_and_grads(params, batch, selections, work_caches,
                                       config, work)
            assert got[0] == loss
            assert got[1].flat.tobytes() == grads.flat.tobytes()
        assert np.all(grads.queries[[0, 2, 3]] == 0.0)
        assert np.all(np.any(grads.queries[[1, 4, 5]] != 0.0, axis=1))

    @pytest.mark.parametrize("work_dtype, frames_dtype", [
        (np.float32, np.float64), (np.float64, np.float32)],
        ids=["float32-workspace", "float64-workspace"])
    def test_workspace_of_another_dtype_rejected(self, work_dtype,
                                                 frames_dtype):
        # a float32 workspace cached float32 activations of float64 frames,
        # and a float64 one computed float32 frames in float64
        rng = np.random.default_rng(63)
        params = _params(rng, d=6, dp=5, u=4)
        batch = _fold_videos(rng, (17, 29), d=6, k=2, dtype=frames_dtype)
        config = TrainConfig()
        work = TrainWorkspace(params.astype(work_dtype), batch_size=2,
                              max_frames=29, max_steps=2)
        rule = (f"^a {np.dtype(work_dtype)} workspace cannot hold the "
                f"activations of {np.dtype(frames_dtype)} features$")
        with pytest.raises(ValidationError, match=rule):
            compute_selections(params, batch, config, work)
        selections, caches = compute_selections(
            params, batch, config, fresh_workspace(params, batch))
        with pytest.raises(ValidationError, match=rule):
            batch_loss_and_grads(params, batch, selections, caches, config,
                                 work)
        with pytest.raises(ValidationError, match=rule):
            evaluate_alignment_f1(params, batch, config, work)

    def test_cache_arrays_live_in_the_workspace(self):
        rng = np.random.default_rng(61)
        params = _params(rng, d=6, dp=5, u=4)
        batch = _fold_videos(rng, (17, 29, 23), d=6, k=2)
        work = TrainWorkspace(params.astype(np.float32), batch_size=3,
                              max_frames=29, max_steps=2)
        _, caches = compute_selections(params, batch, TrainConfig(), work)
        for b, (cache, video) in enumerate(zip(caches, batch)):
            slot = work.slot(b, video.x.shape[0])
            for name in ("xp", "attn"):
                assert np.shares_memory(cache[name], slot[name]), (b, name)
                for other in caches[:b]:
                    assert not np.shares_memory(cache[name], other[name])

    @staticmethod
    def _later_step_allocates_no_frame_sized_block(dtype):
        # long videos for their two steps, so that a steps x frames array
        # and numpy's bounded iteration buffers stay far below the
        # smallest frame-sized array, min(L) x 32 numbers of the dtype
        rng = np.random.default_rng(62)
        lengths = (1100, 1000, 1050)
        params = ModelParams.init(rng, feature_dim=32, working_dim=32,
                                  num_queries=32)
        batch = _fold_videos(rng, lengths, d=32, k=2, dtype=dtype)
        config = TrainConfig(batch_size=3)
        frame_block = min(lengths) * 32 * np.dtype(dtype).itemsize
        params = params.astype(dtype)
        work = TrainWorkspace(params, batch_size=3, max_frames=max(lengths),
                              max_steps=2)
        _training_step(params, batch, config, work)
        assert _largest_line_allocation(
            lambda: _training_step(params, batch, config, work)) < frame_block
        # and the measure sees the blocks of a step over new buffers
        assert _largest_line_allocation(
            lambda: _training_step(params, batch, config,
                                   fresh_workspace(params, batch))
        ) >= frame_block


class TestFloat32:
    """The decoder computes in the dtype of its features, float32 for a
    corpus, over float64 master parameters."""

    # a float32 gradient passes through about 8 products and a softmax,
    # each summing at most L ~ 1340 terms, whose rounding errors grow like
    # sqrt(L) ~ 2^5 float32 eps: 8 * 2^5 = 2^8 eps, relative to each
    # tensor's largest entry; the loss is a mean of log-sum-exps, 2^4 eps
    GRAD_TOL = 2 ** 8 * np.finfo(np.float32).eps
    LOSS_TOL = 2 ** 4 * np.finfo(np.float32).eps

    @pytest.mark.parametrize("seed", range(3))
    def test_float32_loss_and_grads_match_float64(self, seed):
        rng = np.random.default_rng(70 + seed)
        params = ModelParams.init(rng, feature_dim=64, working_dim=64,
                                  num_queries=32)
        params.flat += 0.05 * rng.normal(size=params.flat.shape)
        arrays = _fold_video_arrays(rng, (160, 240, 1340, 200), d=64, k=12)
        low = [FoldVideo.from_frames(*video, normalize_features=True)
               for video in arrays]
        high = [FoldVideo.from_frames(vid, frames.astype(np.float64),
                                      steps.astype(np.float64), gt, True)
                for vid, frames, steps, gt in arrays]
        config = TrainConfig()
        selections, high_caches = compute_selections(
            params, high, config, fresh_workspace(params, high))
        _, low_caches = compute_selections(params, low, config,
                                           fresh_workspace(params, low))
        assert {c["xp"].dtype for c in low_caches} == {np.dtype(np.float32)}
        want, want_grads = batch_loss_and_grads(
            params, high, selections, high_caches, config,
            fresh_workspace(params, high))
        got, got_grads = batch_loss_and_grads(params, low, selections,
                                              low_caches, config,
                                              fresh_workspace(params, low))
        assert got_grads.flat.dtype == np.float64
        assert abs(got - want) <= self.LOSS_TOL * abs(want)
        for name, grad in want_grads.as_dict().items():
            gap = np.max(np.abs(getattr(got_grads, name) - grad))
            assert gap <= self.GRAD_TOL * np.max(np.abs(grad)), name

    @pytest.mark.parametrize("shape", [
        dict(seed=0), dict(seed=1),
        dict(seed=0, steps_per_task=12, frames_per_step=(90, 130))],
        ids=["paper-0", "paper-1", "long-0"])
    def test_float32_align_video_segments_equal_float64(self, shape):
        # on parameters trained for two epochs on the same corpus
        corpus = synth_corpus(SynthConfig(**shape)).corpus
        ids = [v.video_id for v in corpus.videos]
        params = train_alignment_fold(
            corpus, FoldSpec(0, tuple(ids[:30]), tuple(ids[30:36]), ()),
            TrainConfig(epochs=2)).params
        for video in corpus.videos:
            frames = corpus.video_features(video.video_id)
            steps = corpus.task_step_features(video.task)
            assert frames.dtype == np.float32
            assert align_video(params, frames, steps, 80.0, True) == \
                align_video(params, frames.astype(np.float64),
                            steps.astype(np.float64), 80.0, True)

    def test_float32_corpus_trains_in_float32_over_float64_masters(
            self, monkeypatch):
        corpus, fold, config = _tiny_fold()
        seen = set()
        forward = stepalign.model.forward_slots

        def recorded(params, videos, outs=None):
            seen.update((params.flat.dtype, video.dtype) for video in videos)
            return forward(params, videos, outs)

        monkeypatch.setattr(stepalign.model, "forward_slots", recorded)
        training = train_alignment_fold(corpus, fold, config)
        assert seen == {(np.dtype(np.float32), np.dtype(np.float32))}
        assert training.params.flat.dtype == np.float64

    def test_float32_workspace_takes_half_the_bytes(self):
        params = ModelParams.init(np.random.default_rng(71), feature_dim=64,
                                  working_dim=64, num_queries=32)

        def nbytes(work):
            return sum(buffer.nbytes for buffers in (*work._slots,
                                                     work._scratch)
                       for buffer in buffers.values())

        sizes = [nbytes(TrainWorkspace(params.astype(dtype), batch_size=6,
                                       max_frames=1340, max_steps=12))
                 for dtype in (np.float32, np.float64)]
        assert 2 * sizes[0] == sizes[1]


def _two_step_count_fold():
    """A fold over color-mixture videos of 2 steps and electrical-circuit
    videos of 3: the 3 shortest videos train, and the other 7, among them
    the longest, validate."""
    parts = [synth_corpus(SynthConfig(tasks=2, videos_per_task=5, workers=2,
                                      steps_per_task=k, dim=8,
                                      frames_per_step=(3, 5), seed=k)).corpus
             for k in (2, 3)]
    texts, videos, features, step_features = {}, [], {}, {}
    for corpus, task in zip(parts, sorted(parts[0].texts,
                                          key=lambda t: t.value)):
        texts[task] = corpus.texts[task]
        step_features[task] = corpus.step_features[task]
        for video in corpus.videos:
            if video.task == task:
                videos.append(video)
                features[video.video_id] = corpus.features[video.video_id]
    corpus = Corpus(texts, videos, features, step_features)
    ids = [v.video_id for v in sorted(videos, key=lambda v: v.num_frames)]
    fold = FoldSpec(0, train=tuple(ids[:3]), val=tuple(ids[3:]), test=())
    config = TrainConfig(epochs=3, batch_size=2, working_dim=6, num_queries=5)
    return corpus, fold, config


class TestEvaluateAlignmentF1:
    # the allocation check runs on float32 features, as a corpus holds
    # them, and on float64 ones
    def test_chunks_match_per_video_oracle(self):
        corpus, fold, config = _two_step_count_fold()
        train, val = ([FoldVideo.from_corpus(corpus, vid, True) for vid in ids]
                      for ids in (fold.train, fold.val))
        lengths = [v.x.shape[0] for v in (*train, *val)]
        assert len(val) > config.batch_size
        assert {v.step_feats.shape[0] for v in val} == {2, 3}
        assert max(v.x.shape[0] for v in val) > \
            max(v.x.shape[0] for v in train)
        rng = np.random.default_rng(64)
        params = _params(rng, d=8, dp=6, u=5)
        params.flat += 0.1 * rng.normal(size=params.flat.shape)
        want = evaluate_alignment_f1_per_video(params, corpus, fold.val, config)
        assert 0.0 < want < 1.0
        work = TrainWorkspace(params.astype(np.float32), config.batch_size,
                              max(lengths), max(v.steps.size for v in train))
        # validation runs over buffers a training step filled
        _training_step(params, train[:2], config, work)
        assert evaluate_alignment_f1(params, val, config, work) == want
        assert evaluate_alignment_f1(params, val, config,
                                     fresh_workspace(params, val)) == want

    def test_empty_split_scores_zero(self):
        params = _params(np.random.default_rng(41))
        work = TrainWorkspace(params, batch_size=2, max_frames=9, max_steps=0)
        assert evaluate_alignment_f1(params, [], TrainConfig(), work) == 0.0
        assert evaluate_alignment_f1(params, [], TrainConfig(),
                                     fresh_workspace(params, [])) == 0.0

    def test_later_round_allocates_no_frame_sized_block(self):
        self._later_round_allocates_no_frame_sized_block(np.float32)

    def test_later_round_allocates_no_frame_sized_block_in_float64(self):
        self._later_round_allocates_no_frame_sized_block(np.float64)

    @staticmethod
    def _later_round_allocates_no_frame_sized_block(dtype):
        # as for a training step: min(L) x 32 numbers of the dtype is the
        # smallest frame-sized array, and 2 steps keep steps x frames
        # arrays small
        rng = np.random.default_rng(65)
        lengths = (1100, 1000, 1050, 1080)
        params = ModelParams.init(rng, feature_dim=32, working_dim=32,
                                  num_queries=32)
        val = _fold_videos(rng, lengths, d=32, k=2, dtype=dtype)
        config = TrainConfig(batch_size=3)
        frame_block = min(lengths) * 32 * np.dtype(dtype).itemsize
        params = params.astype(dtype)
        work = TrainWorkspace(params, batch_size=3, max_frames=max(lengths),
                              max_steps=0)
        evaluate_alignment_f1(params, val, config, work)
        assert _largest_line_allocation(
            lambda: evaluate_alignment_f1(params, val, config, work)) < frame_block
        assert _largest_line_allocation(
            lambda: evaluate_alignment_f1(params, val, config,
                                          fresh_workspace(params, val))
        ) >= frame_block


class TestFoldVideo:
    def test_holds_decoder_input_and_raster(self):
        # the decoder input is a new array, and no field keeps the frames
        corpus, fold, _ = _tiny_fold()
        vid = fold.train[0]
        frames = corpus.features[vid]
        video = FoldVideo.from_corpus(corpus, vid, True)
        assert not hasattr(video, "frames")
        for name, value in vars(video).items():
            assert not np.shares_memory(value, frames), name
        np.testing.assert_array_equal(
            video.gt_labels, gt_frame_labels(corpus.video_by_id(vid)))

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_equals_decoder_input_bit_for_bit(self, dtype, normalize):
        rng = np.random.default_rng(67)
        frames = rng.normal(size=(11, 4)).astype(dtype)
        norms = stepalign.model._row_norms(frames)
        video = FoldVideo.from_frames("v", frames, rng.normal(size=(2, 4)),
                                      np.zeros(11, dtype=np.int64), normalize)
        want = stepalign.model._decoder_input(frames, norms, normalize)
        assert video.x.dtype == want.dtype == dtype
        assert video.x.tobytes() == want.tobytes()
        # the frames over their float64 norms cast to the dtype, or the
        # frames themselves
        if normalize:
            want = frames / np.linalg.norm(frames.astype(np.float64), axis=1,
                                           keepdims=True).astype(dtype)
        assert video.x.tobytes() == want.tobytes()

    def test_frames_left_writable_when_not_normalized(self):
        # the input is then the frames, through a read-only view
        rng = np.random.default_rng(68)
        frames = rng.normal(size=(5, 4))
        video = FoldVideo.from_frames("v", frames, rng.normal(size=(2, 4)),
                                      np.zeros(5, dtype=np.int64), False)
        assert np.shares_memory(video.x, frames)
        assert frames.flags.writeable and not video.x.flags.writeable

    @pytest.mark.parametrize("normalize", [True, False])
    def test_zero_row_rejected_before_any_divide(self, normalize):
        # filterwarnings = error turns a divide's warning into a failure
        rng = np.random.default_rng(69)
        frames = rng.normal(size=(6, 4)).astype(np.float32)
        frames[4] = 0.0
        with pytest.raises(ValidationError, match=(
                "^video 'v' has an all-zero feature row at frame 4; every "
                "frame needs a nonzero row$")):
            FoldVideo.from_frames("v", frames, rng.normal(size=(2, 4)),
                                  np.zeros(6, dtype=np.int64), normalize)

    def test_constants_follow_the_raster(self):
        rng = np.random.default_rng(66)
        frames = rng.normal(size=(9, 4)).astype(np.float32)
        gt = np.array([0, 3, 3, 0, 1, 1, 0, 3, 0])
        video = FoldVideo.from_frames("v", frames, rng.normal(size=(3, 4)), gt,
                                      True)
        np.testing.assert_array_equal(video.steps, [1, 3])
        np.testing.assert_array_equal(video.positive, [gt == 1, gt == 3])
        # the raster is a copy: the caller's array stays writable
        gt[0] = 2
        assert video.gt_labels[0] == 0

    @pytest.mark.parametrize("name", ["gt_labels", "x", "steps", "positive"])
    def test_raster_and_constants_are_read_only(self, name):
        corpus, fold, _ = _tiny_fold()
        video = FoldVideo.from_corpus(corpus, fold.train[0], True)
        with pytest.raises(ValueError, match="read-only"):
            getattr(video, name)[0] = 0


class TestTrainAlignmentFold:
    def test_repeatable_with_one_forward_per_video_and_epoch(self, monkeypatch):
        corpus, fold, config = _tiny_fold()
        first = train_alignment_fold(corpus, fold, config)
        calls = []
        forward = stepalign.model.forward_slots

        def counted(params, videos, outs=None):
            calls.append(len(videos))
            return forward(params, videos, outs)

        monkeypatch.setattr(stepalign.model, "forward_slots", counted)
        second = train_alignment_fold(corpus, fold, config)
        # one forward per training video (selection and loss share it)
        # and one per validation video, every epoch, in one call per
        # batch and per validation chunk
        assert sum(calls) == config.epochs * (len(fold.train) + len(fold.val))
        batches = sum(-(-len(ids) // config.batch_size)
                      for ids in (fold.train, fold.val))
        assert len(calls) == config.epochs * batches
        assert second.log == first.log
        assert (second.best_epoch, second.best_score) == \
            (first.best_epoch, first.best_score)
        for name, tensor in first.params.as_dict().items():
            np.testing.assert_array_equal(getattr(second.params, name), tensor,
                                          err_msg=name)

    def test_matches_per_tensor_oracle(self):
        # flat Adam and the stacked validation against per-tensor Adam and
        # one align_video per validation video
        corpus, fold, config = _tiny_fold()
        config = replace(config, epochs=6, learning_rate=1e-2)
        got = train_alignment_fold(corpus, fold, config)
        want = train_alignment_fold_per_tensor(corpus, fold, config)
        assert got.params.flat.tobytes() == want.params.flat.tobytes()
        assert (got.best_epoch, got.best_score) == \
            (want.best_epoch, want.best_score)
        assert got.log == want.log
        assert got.best_epoch > 0

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", 2.5), ("epochs", True),
        ("batch_size", 2.5), ("working_dim", 4.5), ("working_dim", True),
        ("num_queries", -3), ("num_queries", 6.0), ("learning_rate", 0.0),
        ("learning_rate", -1e-3),
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("gamma", math.inf), ("seed", -1), ("seed", 1.5), ("seed", True),
    ])
    def test_bad_config_rejected_before_training(self, monkeypatch, field,
                                                 value):
        corpus, fold, config = _tiny_fold()
        monkeypatch.setattr(stepalign.model, "forward_slots", None)
        with pytest.raises(ValidationError, match=f"^{field} .*got {value}$"):
            train_alignment_fold(corpus, fold, replace(config, **{field: value}))

    @pytest.mark.parametrize("changes, field", [
        ({"batch_size": 0}, "batch_size"),
        ({"working_dim": 0}, "working_dim"),
        ({"gamma": math.nan}, "gamma"),
        ({"gamma": 0.0}, "gamma"),
    ], ids=["batch-size-0", "working-dim-0", "gamma-nan", "gamma-0"])
    def test_config_failing_later_rejected_before_training(
            self, monkeypatch, changes, field):
        # each of these used to pass validate() and fail in training with
        # a ValueError, a ZeroDivisionError or a NumericalError
        corpus, fold, config = _tiny_fold()
        monkeypatch.setattr(stepalign.model, "forward_slots", None)
        value = changes[field]
        with pytest.raises(ValidationError, match=f"^{field} .*got {value}$"):
            train_alignment_fold(corpus, fold, replace(config, **changes))

    def test_numerical_error_in_a_training_forward_names_fold_and_epoch(
            self, monkeypatch):
        # epoch 0 runs a forward per training and validation video; the
        # next forward is epoch 1's first, in its first batch's selection
        corpus, fold, config = _tiny_fold()
        forward, calls = stepalign.model.forward_slots, []

        def failing(*args, **kwargs):
            calls.extend(args[1])   # the videos of the call
            if len(calls) > len(fold.train) + len(fold.val):
                raise NumericalError("slot matrix contains non-finite values")
            return forward(*args, **kwargs)

        monkeypatch.setattr(stepalign.model, "forward_slots", failing)
        with pytest.raises(NumericalError,
                           match=r"^fold 0 epoch 1: slot matrix contains "
                                 r"non-finite values$"):
            train_alignment_fold(corpus, fold, config)

    def test_batch_of_one_trains(self):
        corpus, fold, config = _tiny_fold()
        config = replace(config, batch_size=1)
        config.validate()
        got = train_alignment_fold(corpus, fold, config)
        assert [entry.epoch for entry in got.log] == list(range(config.epochs))
        assert all(math.isfinite(entry.loss) for entry in got.log)
        assert got.best_epoch >= 0

    def test_too_few_slots_rejected_before_training(self, monkeypatch):
        corpus, fold, config = _tiny_fold()
        # with the decoder unset, any training step fails with TypeError
        monkeypatch.setattr(stepalign.model, "forward_slots", None)
        with pytest.raises(ValidationError, match="num_queries 2 .* 3 steps"):
            train_alignment_fold(corpus, fold, replace(config, num_queries=2))

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_video_shorter_than_its_steps_rejected_before_training(
            self, monkeypatch, split):
        # each of the 3 steps needs a frame of its own at alignment
        corpus, fold, config = _tiny_fold()
        vid = getattr(fold, split)[0]
        videos = [replace(v, num_frames=2, segments=()) if v.video_id == vid
                  else v for v in corpus.videos]
        features = {**corpus.features, vid: corpus.features[vid][:2]}
        corpus = Corpus(corpus.texts, videos, features, corpus.step_features)
        monkeypatch.setattr(stepalign.model, "forward_slots", None)
        with pytest.raises(ValidationError, match=(
                f"^fold 0: video '{vid}' has 2 frames, fewer than the 3 "
                f"steps of its task$")):
            train_alignment_fold(corpus, fold, config)

    def test_long_val_split_matches_per_tensor_oracle(self):
        # validation chunks, two step counts and a val video longer than
        # every training video, in the fold's one workspace
        corpus, fold, config = _two_step_count_fold()
        got = train_alignment_fold(corpus, fold, config)
        want = train_alignment_fold_per_tensor(corpus, fold, config)
        assert got.params.flat.tobytes() == want.params.flat.tobytes()
        assert got.log == want.log

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_zero_feature_row_rejected_before_training(self, monkeypatch,
                                                       split):
        corpus, fold, config = _tiny_fold()
        vid = getattr(fold, split)[0]
        matrix = corpus.features[vid].copy()
        matrix[3] = 0.0
        corpus = Corpus(corpus.texts, corpus.videos,
                        {**corpus.features, vid: matrix}, corpus.step_features)
        monkeypatch.setattr(stepalign.model, "forward_slots", None)
        # normalized or not, the row has no cosine with any slot
        for normalize in (True, False):
            with pytest.raises(ValidationError, match=(
                    f"^fold 0: video '{vid}' has an all-zero feature row at "
                    f"frame 3; every frame needs a nonzero row$")):
                train_alignment_fold(corpus, fold, replace(
                    config, normalize_features=normalize))

    def test_empty_train_split_rejected(self):
        corpus, fold, config = _tiny_fold()
        with pytest.raises(ValidationError, match="empty train split"):
            train_alignment_fold(corpus, replace(fold, train=()), config)

    def test_unknown_val_id_rejected_before_training(self, monkeypatch):
        corpus, fold, config = _tiny_fold()
        monkeypatch.setattr(stepalign.model, "forward_slots", None)
        with pytest.raises(ValidationError, match="'nope'"):
            train_alignment_fold(corpus, replace(fold, val=(*fold.val, "nope")),
                                 config)

    def test_overlapping_splits_rejected_before_training(self, monkeypatch):
        corpus, fold, config = _tiny_fold()
        monkeypatch.setattr(stepalign.model, "forward_slots", None)
        with pytest.raises(ValidationError, match="fold 0: .* in train and again in test"):
            train_alignment_fold(corpus, replace(fold, test=fold.train[:1]),
                                 config)

    def test_unknown_test_id_rejected_before_training(self, monkeypatch):
        corpus, fold, config = _tiny_fold()
        monkeypatch.setattr(stepalign.model, "forward_slots", None)
        with pytest.raises(ValidationError, match="fold 0: unknown .*'nope' in test"):
            train_alignment_fold(corpus, replace(fold, test=("nope",)), config)


def test_raw_alignment_pinned():
    # the raw arm behind the benchmark's test_f1_raw, step texts aligned to
    # frames with no parameters, on a small paper-shaped corpus (8 steps,
    # ~160 frames) and a small long-video-shaped one (12 steps, ~1400
    # frames): a change to the kernel's ties or to the normalization that
    # moves a segment changes a digest
    digests = []
    for shape in (dict(tasks=2, videos_per_task=3, workers=2),
                  dict(tasks=1, videos_per_task=2, workers=2, steps_per_task=12,
                       frames_per_step=(90, 130))):
        corpus = synth_corpus(SynthConfig(**shape)).corpus
        videos = []
        for video in corpus.videos:
            segments = align_frames_to_slots(
                corpus.task_step_features(video.task),
                corpus.video_features(video.video_id), 80.0)
            videos.append((video.video_id, [(step, seg.start, seg.end)
                                            for step, seg in segments]))
        digests.append(hashlib.sha256(repr(videos).encode()).hexdigest())
    assert digests == [
        "8a329b8932802cbacc9cf2d9792da0f4e345a0cd91efe0b6474fce32e1e82eca",
        "9a8d30939a5ae425211a72f456c778b99f4715ca511a2f5f25d3ceda5de7ffb9"]
