import math
from dataclasses import replace

import numpy as np
import pytest

import stepalign.model
from stepalign.alignment import percentile_drop_cost
from stepalign.data import FoldSpec, Segment
from stepalign.checkpoint import save_checkpoint
from stepalign.corpus import Corpus
from stepalign.errors import FormatError, ValidationError
from stepalign.metrics import gt_frame_labels
from stepalign.model import (
    FoldVideo, ModelParams, TrainConfig, align_frames_to_slots,
    align_video, align_videos, batch_loss_and_grads, compute_selections,
    cosine_matrix, forward_slots, l2_normalize_rows, load_model, save_model, select_slots, train_alignment_fold,
    FoldTraining,
)
from stepalign.synth import SynthConfig, synth_corpus
from oracles import (
    batch_loss_and_grads_kv, brute_force_align, cosine, forward_slots_kv,
    select_slots_per_video, train_alignment_fold_per_tensor,
)


def _params(rng, d=6, dp=5, u=4):
    return ModelParams.init(rng, feature_dim=d, working_dim=dp, num_queries=u)


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


# Naive value-only reference oracles for the two decoder losses. The
# package defines the losses once, inside batch_loss_and_grads; these
# straight-line versions are the independent check on its values and,
# through finite differences, on its gradients.

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


def loss_global(pooled_pairs, gamma):
    """Symmetric batch-contrastive loss over pooled (slots, step-text)
    representations; each video is its own positive, the rest negatives."""
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    n = len(pooled_pairs)
    if n < 2:
        raise ValidationError("batch-contrastive loss needs at least 2 videos")
    a = l2_normalize_rows(np.stack([np.mean(s, axis=0) for s, _ in pooled_pairs]))
    b = l2_normalize_rows(np.stack([np.mean(t, axis=0) for _, t in pooled_pairs]))
    logits = (a @ b.T) / gamma
    total = 0.0
    for i in range(n):
        total += _logsumexp(logits[i]) - logits[i, i]
        total += _logsumexp(logits[:, i]) - logits[i, i]
    return total / (2 * n)


def batch_loss(params, batch, selections, config):
    """Pure loss evaluation at a fixed slot selection (the finite-difference
    reference for the analytic gradients)."""
    loss = 0.0
    sup_terms = []
    pooled = []
    for video, chosen in zip(batch, selections):
        frames = video.frames
        if config.normalize_features:
            frames = l2_normalize_rows(frames)
        slots = forward_slots(params, frames)[0]
        xp = frames @ params.proj_v
        tp = video.step_feats @ params.proj_t
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
        pooled.append((sel, tp))
    if config.w_sup > 0 and sup_terms:
        loss += config.w_sup * float(np.mean(sup_terms))
    if config.w_global > 0 and len(batch) >= 2:
        loss += config.w_global * loss_global(pooled, config.gamma)
    return loss


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
        slots = forward_slots(params, rng.normal(size=(100, 64)))[0]
        assert slots.shape == (32, 64)

    def test_single_frame_degenerate_softmax(self):
        rng = np.random.default_rng(1)
        params = _params(rng)
        x = rng.normal(size=(1, 6))
        slots, cache = forward_slots(params, x)
        np.testing.assert_array_equal(cache["attn"], np.ones((4, 1)))
        expected_row = ((x @ params.proj_v) @ params.w_v @ params.w_o)[0]
        for row in slots:
            np.testing.assert_allclose(row, expected_row, atol=1e-12)

    def test_matches_duplicate_formula_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            params = _params(rng)
            x = rng.normal(size=(9, 6))
            np.testing.assert_allclose(forward_slots(params, x)[0],
                                       _reference_forward(params, x),
                                       atol=1e-10)

    def test_query_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        params = _params(rng)
        x = rng.normal(size=(7, 6))
        base = forward_slots(params, x)[0]
        perm = rng.permutation(params.queries.shape[0])
        shuffled = ModelParams(**{**params.as_dict(),
                                  "queries": params.queries[perm]})
        np.testing.assert_allclose(forward_slots(shuffled, x)[0], base[perm],
                                   atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        params = _params(rng, d=6)
        with pytest.raises(ValidationError, match="features"):
            forward_slots(params, rng.normal(size=(5, 7)))


def test_l2_normalize_rejects_zero_row():
    with pytest.raises(ValidationError, match="^cannot l2-normalize a zero row$"):
        l2_normalize_rows(np.array([[1.0, 2.0], [0.0, 0.0]]))


@pytest.mark.parametrize("changes, rule", [
    ({"batch_size": 1},
     "batch_size must be >= 2 for the batch-contrastive loss"),
    ({"drop_pct": 0.0}, r"drop_pct must be in \(0, 100\]"),
    ({"drop_pct": 101.0}, r"drop_pct must be in \(0, 100\]"),
], ids=["batch-size-1", "drop-pct-0", "drop-pct-101"])
def test_config_rule_broken_rejected(changes, rule):
    # a batch of one is fine without the batch-contrastive loss
    replace(TrainConfig(), batch_size=1, w_global=0.0).validate()
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


class TestLossGlobal:
    def test_identical_pooled_pairs_give_log2(self):
        s = np.array([[1.0, 0.0], [1.0, 0.0]])
        t = np.array([[1.0, 0.0]])
        loss = loss_global([(s, t), (s, t)], gamma=0.03)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_separated_batch_vanishes(self):
        a = (np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        b = (np.array([[-1.0, 0.0]]), np.array([[-1.0, 0.0]]))
        loss = loss_global([a, b], gamma=0.03)
        assert loss < 1e-12

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(12)
        pairs = [(rng.normal(size=(3, 4)), rng.normal(size=(2, 4)))
                 for _ in range(4)]
        base = loss_global(pairs, gamma=0.4)
        shuffled = [pairs[i] for i in (2, 0, 3, 1)]
        assert loss_global(shuffled, gamma=0.4) == pytest.approx(base, abs=1e-12)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValidationError, match="2 videos"):
            loss_global([(np.ones((2, 3)), np.ones((2, 3)))], gamma=0.1)


def _random_example(rng, d=6, k=2, length=7):
    frames = rng.normal(size=(length, d))
    step_feats = l2_normalize_rows(rng.normal(size=(k, d)))
    gt_labels = np.zeros(length, dtype=np.int64)
    cursor = 0
    for step in range(1, k + 1):
        seg_len = int(rng.integers(1, 3))
        gt_labels[cursor:cursor + seg_len] = step
        cursor += seg_len + 1
    return FoldVideo(video_id=f"v{rng.integers(1e6)}", frames=frames,
                     step_feats=step_feats, gt_labels=gt_labels)


def _grad_check(config, seed, selections=None, edit_batch=None):
    """Worst relative gap between the analytic gradients and central
    differences of the oracle ``batch_loss``. ``selections`` overrides the
    decoder's own slot choice; ``edit_batch`` may rewrite the examples."""
    rng = np.random.default_rng(seed)
    params = _params(rng, d=6, dp=5, u=4)
    batch = [_random_example(rng) for _ in range(2)]
    if edit_batch is not None:
        edit_batch(batch)
    chosen, caches = compute_selections(params, batch, config)
    if selections is None:
        selections = chosen
    loss, grads = batch_loss_and_grads(params, batch, selections, caches, config)
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
            batch.append(FoldVideo(video_id=f"v{b}",
                                   frames=rng.normal(size=(length, 64)),
                                   step_feats=rng.normal(size=(k, 64)),
                                   gt_labels=gt))
        return params, batch

    def test_matches_key_value_oracle(self):
        params, batch = self._long_batch()
        config = TrainConfig()
        selections, caches = compute_selections(params, batch, config)
        kv_caches = [forward_slots_kv(params, stepalign.model._decoder_input(
            v.frames, config.normalize_features))[1] for v in batch]
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
        loss, grads = batch_loss_and_grads(params, batch, selections, caches,
                                           config)
        kv_loss, kv_grads = batch_loss_and_grads_kv(
            params, batch, selections, kv_caches, config)
        assert abs(loss - kv_loss) <= 1e-12 * abs(kv_loss)
        for name, grad in grads.as_dict().items():
            assert_close(grad, getattr(kv_grads, name), name)

    def test_cache_holds_no_per_frame_keys_or_values(self):
        params, batch = self._long_batch()
        _, cache = forward_slots(params, batch[0].frames)
        length = batch[0].frames.shape[0]
        per_frame = {name for name, value in cache.items()
                     if length in np.shape(value)}
        assert per_frame == {"x", "xp", "attn"}


class TestGradients:
    def test_combined_loss_matches_finite_differences(self):
        config = TrainConfig(gamma=0.5, w_sup=1.0, w_global=0.7,
                             batch_size=2, drop_pct=80)
        for seed in range(8):
            assert _grad_check(config, seed) < 1e-4

    def test_supervised_only_matches_finite_differences(self):
        config = TrainConfig(gamma=0.5, w_sup=1.0, w_global=0.0,
                             batch_size=2, drop_pct=80)
        for seed in range(100, 106):
            assert _grad_check(config, seed) < 1e-4

    def test_global_only_matches_finite_differences(self):
        config = TrainConfig(gamma=0.5, w_sup=0.0, w_global=1.0,
                             batch_size=2, drop_pct=80)
        for seed in range(200, 206):
            assert _grad_check(config, seed) < 1e-4

    def test_shared_slot_gradients_accumulate(self):
        # two steps of one video select the same slot, so both supervised
        # terms and both contrastive shares must land on that slot
        config = TrainConfig(gamma=0.5, w_sup=1.0, w_global=0.7,
                             batch_size=2, drop_pct=80)
        for seed in range(300, 304):
            assert _grad_check(config, seed, selections=[[1, 1], [0, 2]]) < 1e-4

    def test_steps_without_frames_match_finite_differences(self):
        # step 1 of the first video and every step of the second carry no
        # annotated frames; they add no supervised term
        def drop_annotations(batch):
            batch[0].gt_labels[batch[0].gt_labels == 1] = 0
            batch[1].gt_labels[:] = 0

        config = TrainConfig(gamma=0.5, w_sup=1.0, w_global=0.7,
                             batch_size=2, drop_pct=80)
        for seed in range(400, 404):
            assert _grad_check(config, seed, edit_batch=drop_annotations) < 1e-4

    def test_zero_weights_zero_gradients(self):
        rng = np.random.default_rng(42)
        params = _params(rng)
        batch = [_random_example(rng) for _ in range(2)]
        config = TrainConfig(gamma=0.5, w_sup=0.0, w_global=0.0, batch_size=2)
        selections, caches = compute_selections(params, batch, config)
        loss, grads = batch_loss_and_grads(params, batch, selections, caches,
                                           config)
        assert loss == 0.0
        np.testing.assert_array_equal(grads.flat, 0.0)

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
    def test_mixed_videos_match_align_video(self):
        # frame counts and step counts differ within one call; each video
        # gets what align_video gives it alone
        rng = np.random.default_rng(40)
        params = _params(rng, d=6, dp=5, u=6)
        frames = [rng.normal(size=(n, 6)) for n in (9, 23, 14, 23, 5)]
        steps = [rng.normal(size=(k, 6)) for k in (2, 4, 3, 2, 4)]
        for normalize in (True, False):
            got = align_videos(params, frames, steps, 80.0, normalize)
            assert got == [align_video(params, f, t, 80.0, normalize)
                           for f, t in zip(frames, steps)]
            assert [len(segments) for segments in got] == [2, 4, 3, 2, 4]

    def test_empty_call(self):
        params = _params(np.random.default_rng(41))
        assert align_videos(params, [], [], 80.0, True) == []

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
        video = FoldVideo("v", frames, steps, np.zeros(9, dtype=np.int64))
        with pytest.raises(ValidationError, match=rule):
            compute_selections(params, [video], TrainConfig())


class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(50)
        params = _params(rng)
        quantized = ModelParams(**{
            k: v.astype(np.float32).astype(np.float64)
            for k, v in params.as_dict().items()})
        training = FoldTraining(fold_id=2, params=quantized, best_epoch=7,
                                best_val_f1=0.83)
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
        training = FoldTraining(fold_id=0, params=params, best_epoch=1,
                                best_val_f1=0.5)
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


class TestFoldVideo:
    def test_holds_corpus_array_and_raster(self):
        corpus, fold, _ = _tiny_fold()
        vid = fold.train[0]
        video = FoldVideo.from_corpus(corpus, vid)
        assert video.frames is corpus.features[vid]
        np.testing.assert_array_equal(
            video.gt_labels, gt_frame_labels(corpus.video_by_id(vid)))


class TestTrainAlignmentFold:
    def test_repeatable_with_one_forward_per_video_and_epoch(self, monkeypatch):
        corpus, fold, config = _tiny_fold()
        first = train_alignment_fold(corpus, fold, config)
        calls = []
        forward = stepalign.model.forward_slots

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(stepalign.model, "forward_slots", counted)
        second = train_alignment_fold(corpus, fold, config)
        # one forward per training video (selection and loss share it)
        # and one per validation video, every epoch
        assert len(calls) == config.epochs * (len(fold.train) + len(fold.val))
        assert second.log == first.log
        assert (second.best_epoch, second.best_val_f1) == \
            (first.best_epoch, first.best_val_f1)
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
        assert (got.best_epoch, got.best_val_f1) == \
            (want.best_epoch, want.best_val_f1)
        assert got.log == want.log
        assert got.best_epoch > 0

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("learning_rate", 0.0), ("learning_rate", -1e-3),
        ("learning_rate", math.nan), ("w_sup", -1.0), ("w_sup", math.nan),
        ("w_sup", math.inf), ("w_global", -1.0), ("w_global", math.nan),
        ("w_global", math.inf),
    ])
    def test_bad_config_rejected_before_training(self, monkeypatch, field,
                                                 value):
        corpus, fold, config = _tiny_fold()
        monkeypatch.setattr(stepalign.model, "forward_slots", None)
        with pytest.raises(ValidationError, match=f"^{field} .*got {value}$"):
            train_alignment_fold(corpus, fold, replace(config, **{field: value}))

    @pytest.mark.parametrize("changes, field", [
        ({"batch_size": 0, "w_global": 0.0}, "batch_size"),
        ({"working_dim": 0}, "working_dim"),
        ({"gamma": math.nan}, "gamma"),
        ({"gamma": 0.0}, "gamma"),
        ({"w_global": math.nan, "batch_size": 1}, "w_global"),
        ({"w_global": math.inf, "batch_size": 1}, "w_global"),
    ], ids=["batch-size-0", "working-dim-0", "gamma-nan", "gamma-0",
            "w-global-nan-batch-size-1", "w-global-inf-batch-size-1"])
    def test_config_failing_later_rejected_before_training(
            self, monkeypatch, changes, field):
        # each of these used to pass validate() and fail in training with
        # a ValueError, a ZeroDivisionError or a NumericalError, or switch
        # a loss off; a bad weight is named before the batch-size rule
        corpus, fold, config = _tiny_fold()
        monkeypatch.setattr(stepalign.model, "forward_slots", None)
        value = changes[field]
        with pytest.raises(ValidationError, match=f"^{field} .*got {value}$"):
            train_alignment_fold(corpus, fold, replace(config, **changes))

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
        with pytest.raises(ValidationError, match="fold 0: .* both train and test"):
            train_alignment_fold(corpus, replace(fold, test=fold.train[:1]),
                                 config)

    def test_unknown_test_id_rejected_before_training(self, monkeypatch):
        corpus, fold, config = _tiny_fold()
        monkeypatch.setattr(stepalign.model, "forward_slots", None)
        with pytest.raises(ValidationError, match="fold 0: unknown .*'nope' in test"):
            train_alignment_fold(corpus, replace(fold, test=("nope",)), config)
