"""Step-slot decoder: learnable queries, one cross-attention layer, slot
selection against step texts, and the alignment losses with hand-derived
gradients.

The decoder computes S = softmax(Q' K^T / sqrt(d')) V' W_o with Q' = Q W_q,
K = (X P_v) W_k, V' = (X P_v) W_v for video features X. Slots are matched
to the task's step texts by droppable DTW over negative cosines (steps may
not drop, slots may), and the matched slot of each step is trained to land
on its annotated frames.

The supervised loss per step is
    -log( sum_{j in segment} exp(cos(s_k, v_j) / gamma)
        / sum_{all j}       exp(cos(s_k, v_j) / gamma) )
with l2-normalized slot and frame vectors; the temperature divides the
cosine inside the exponent, so small gamma sharpens the frame softmax. The
batch-level contrastive loss pulls each video's pooled slots toward its
own pooled step text against the other videos in the batch, symmetrically
in both directions.

Slot selection is recomputed every step but treated as a constant mapping
inside the losses, so no gradient flows through the discrete alignment.
A training step runs the decoder once per video: ``compute_selections``
keeps each forward's activations, selects slots for the whole batch with
one stacked Drop-DTW per step count, and ``batch_loss_and_grads``
backpropagates through the same activations.

Both losses and their gradients are written once, in
``batch_loss_and_grads``; the naive value-only reference oracles used for
finite-difference checks live in ``tests/test_model.py``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .alignment import (
    decode_segments, drop_dtw, drop_dtw_stack, percentile_drop_cost,
    percentile_drop_costs,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import Corpus
from .data import FoldSpec, Segment
from .errors import NumericalError, ValidationError
from .features import cosine_matrix, l2_normalize_rows
from .metrics import frame_metrics, gt_frame_labels, rasterize
from .optim import Adam

_TENSOR_ORDER = ("proj_v", "proj_t", "queries", "w_q", "w_k", "w_v", "w_o")


@dataclass
class ModelParams:
    proj_v: np.ndarray   # d x d'
    proj_t: np.ndarray   # d x d'
    queries: np.ndarray  # U x d'
    w_q: np.ndarray      # d' x d'
    w_k: np.ndarray      # d' x d'
    w_v: np.ndarray      # d' x d'
    w_o: np.ndarray      # d' x d'

    @property
    def feature_dim(self) -> int:
        return self.proj_v.shape[0]

    @property
    def working_dim(self) -> int:
        return self.proj_v.shape[1]

    @property
    def num_queries(self) -> int:
        return self.queries.shape[0]

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _TENSOR_ORDER}

    def copy(self) -> "ModelParams":
        return ModelParams(**{k: v.copy() for k, v in self.as_dict().items()})

    @classmethod
    def init(cls, rng: np.random.Generator, feature_dim: int,
             working_dim: int = 64, num_queries: int = 32) -> "ModelParams":
        """Near-identity projections keep raw feature geometry readable at
        step zero; random unit queries break slot symmetry."""
        def near_eye(rows, cols):
            return np.eye(rows, cols) + 0.01 * rng.normal(size=(rows, cols))

        queries = rng.normal(size=(num_queries, working_dim))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        return cls(
            proj_v=near_eye(feature_dim, working_dim),
            proj_t=near_eye(feature_dim, working_dim),
            queries=queries,
            w_q=near_eye(working_dim, working_dim),
            w_k=near_eye(working_dim, working_dim),
            w_v=near_eye(working_dim, working_dim),
            w_o=near_eye(working_dim, working_dim),
        )


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.03
    batch_size: int = 6
    learning_rate: float = 1e-3
    epochs: int = 40
    seed: int = 0
    w_sup: float = 1.0
    w_global: float = 1.0
    drop_pct: float = 80.0
    working_dim: int = 64
    num_queries: int = 32
    normalize_features: bool = True

    def validate(self) -> None:
        if self.gamma <= 0:
            raise ValidationError("gamma must be positive")
        if self.batch_size < 2 and self.w_global > 0:
            raise ValidationError(
                "batch_size must be >= 2 for the batch-contrastive loss")
        if not (0 < self.drop_pct <= 100):
            raise ValidationError("drop_pct must be in (0, 100]")


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _logsumexp(z: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-D array."""
    m = np.max(z, axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(z - m), axis=1, keepdims=True)))[:, 0]


def _unit_rows_backward(d_hat: np.ndarray, hat: np.ndarray,
                        norms: np.ndarray) -> np.ndarray:
    """Gradient through row normalization hat = x / |x| (norms as a
    column): (d_hat - hat * <d_hat, hat>) / |x|."""
    return (d_hat - hat * np.sum(d_hat * hat, axis=1, keepdims=True)) / norms


def forward_slots(params: ModelParams, video: np.ndarray,
                  with_cache: bool = False):
    """Run the decoder over one video's features; returns the U x d' slot
    matrix, plus the intermediate activations when requested."""
    video = np.asarray(video, dtype=np.float64)
    if video.ndim != 2 or video.shape[1] != params.feature_dim:
        raise ValidationError(
            f"video features must be L x {params.feature_dim}, got {video.shape}")
    xp = video @ params.proj_v
    qp = params.queries @ params.w_q
    km = xp @ params.w_k
    vm = xp @ params.w_v
    scale = 1.0 / math.sqrt(params.working_dim)
    z = (qp @ km.T) * scale
    attn = _softmax_rows(z)
    ctx = attn @ vm
    slots = ctx @ params.w_o
    if not np.all(np.isfinite(slots)):
        raise NumericalError("slot matrix contains non-finite values")
    if not with_cache:
        return slots
    cache = {"x": video, "xp": xp, "qp": qp, "km": km, "vm": vm,
             "attn": attn, "ctx": ctx, "slots": slots, "scale": scale}
    return slots, cache


def select_slots(slots: Sequence[np.ndarray], step_feats: Sequence[np.ndarray],
                 drop_pct: float = 80.0) -> list[list[int]]:
    """Assign one slot to every step of every video by droppable DTW on
    negative cosine.

    ``slots[b]`` is video b's U x d' slot matrix and ``step_feats[b]`` its
    K_b x d' step texts. Steps cannot drop; surplus slots drop at each
    video's percentile cost. Videos with equal step and slot counts are
    aligned as one stack. When a step's alignment run covers several
    slots, the cheapest one represents it (ties go to the lower slot
    index). Returns each video's K_b selected slot indices in step order.
    """
    costs = []
    for video_slots, steps in zip(slots, step_feats):
        if steps.shape[0] > video_slots.shape[0]:
            raise ValidationError(
                f"{steps.shape[0]} steps but only {video_slots.shape[0]} slots")
        costs.append(-cosine_matrix(steps, video_slots))
    groups: dict[tuple[int, ...], list[int]] = {}
    for b, cost in enumerate(costs):
        groups.setdefault(cost.shape, []).append(b)
    chosen: list[list[int]] = [[] for _ in costs]
    for members in groups.values():
        stack = np.stack([costs[b] for b in members])
        visited, _ = drop_dtw_stack(stack, percentile_drop_costs(stack, drop_pct))
        # argmin takes the first minimum: the lower slot index on ties
        best = np.where(visited, stack, np.inf).argmin(axis=2)
        for b, row in zip(members, best.tolist()):
            chosen[b] = row
    return chosen


@dataclass
class TrainExample:
    """One video prepared for training: features, step texts, and the
    ground-truth frame set of every annotated step."""

    video_id: str
    frames: np.ndarray                       # L x d
    step_feats: np.ndarray                   # K x d
    step_frames: dict[int, np.ndarray] = field(default_factory=dict)


def make_train_example(corpus: Corpus, video_id: str,
                       normalize_features: bool = True) -> TrainExample:
    video = corpus.video_by_id(video_id)
    frames = corpus.video_features(video_id)
    if normalize_features:
        frames = l2_normalize_rows(frames)
    step_frames: dict[int, np.ndarray] = {}
    for step in sorted(video.defined_steps()):
        parts = [
            np.arange(s.segment.start, s.segment.end)
            for s in video.segments if s.step == step
        ]
        step_frames[step] = np.concatenate(parts)
    return TrainExample(video_id=video_id, frames=frames,
                        step_feats=corpus.task_step_features(video.task),
                        step_frames=step_frames)


def compute_selections(params: ModelParams, batch: list[TrainExample],
                       drop_pct: float) -> tuple[list[list[int]], list[dict]]:
    """One decoder forward per video and the slot each step selects.

    Returns the selections and the forward caches, which
    ``batch_loss_and_grads`` takes so that it need not run the decoder
    again.
    """
    caches = [forward_slots(params, ex.frames, with_cache=True)[1]
              for ex in batch]
    selections = select_slots([cache["slots"] for cache in caches],
                              [ex.step_feats @ params.proj_t for ex in batch],
                              drop_pct)
    return selections, caches


def _zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(t) for name, t in params.as_dict().items()}


def batch_loss_and_grads(params: ModelParams, batch: list[TrainExample],
                         selections: list[list[int]], caches: list[dict],
                         config: TrainConfig
                         ) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus exact analytic gradients for every parameter tensor.

    ``caches`` are the batch's ``forward_slots(..., with_cache=True)``
    activations at ``params``. Slot selection is a constant: gradients
    flow through the decoder and both losses but not through the discrete
    assignment. Each video's supervised terms come from one frames x steps
    cosine matrix; the contrastive terms are computed for the whole batch
    at once.
    """
    grads = _zero_grads(params)
    gamma = config.gamma
    n = len(batch)

    # batch-contrastive loss over pooled slots m_i and pooled step texts t_i
    d_m = np.zeros((n, params.working_dim))
    global_loss = 0.0
    if config.w_global > 0 and n >= 2:
        mean_steps = np.stack([ex.step_feats.mean(axis=0) for ex in batch])
        m_rows = np.stack([c["slots"][chosen].mean(axis=0)
                           for c, chosen in zip(caches, selections)])
        t_rows = mean_steps @ params.proj_t
        m_norms = np.linalg.norm(m_rows, axis=1, keepdims=True)
        t_norms = np.linalg.norm(t_rows, axis=1, keepdims=True)
        a = m_rows / m_norms
        b = t_rows / t_norms
        logits = (a @ b.T) / gamma
        row_lse = _logsumexp(logits)
        col_lse = _logsumexp(logits.T)
        per = float(np.sum(row_lse + col_lse - 2 * np.diag(logits)))
        global_loss = config.w_global * per / (2 * n)
        row_sm = np.exp(logits - row_lse[:, None])
        col_sm = np.exp(logits - col_lse[None, :])
        d_sim = config.w_global * (row_sm + col_sm - 2 * np.eye(n)) / (2 * n * gamma)
        d_m = _unit_rows_backward(d_sim @ b, a, m_norms)
        grads["proj_t"] += mean_steps.T @ _unit_rows_backward(d_sim.T @ a, b, t_norms)

    # supervised loss: mean over steps within a video, then over videos
    n_sup = sum(1 for ex in batch if ex.step_frames)
    sup_losses = []
    for i, (ex, chosen, cache) in enumerate(zip(batch, selections, caches)):
        d_slots = np.zeros_like(cache["slots"])
        d_xp_sup = 0.0
        if config.w_sup > 0 and ex.step_frames:
            v_hat = l2_normalize_rows(cache["xp"])
            xp_norms = np.linalg.norm(cache["xp"], axis=1, keepdims=True)
            rows = [chosen[step - 1] for step in ex.step_frames]
            u = cache["slots"][rows]
            u_norms = np.linalg.norm(u, axis=1, keepdims=True)
            u_hat = u / u_norms
            # K' x L cosine logits, one row per annotated step
            logits = (u_hat @ v_hat.T) / gamma
            positive = np.zeros(logits.shape, dtype=bool)
            for row, idx in enumerate(ex.step_frames.values()):
                positive[row, idx] = True
            lse_all = _logsumexp(logits)
            lse_pos = _logsumexp(np.where(positive, logits, -np.inf))
            sup_losses.append(float(np.mean(lse_all - lse_pos)))
            p = np.exp(logits - lse_all[:, None])
            q = np.exp(np.where(positive, logits - lse_pos[:, None], -np.inf))
            # g_cos = dL/dcos with cos = u_hat v_hat^T; two steps may share
            # a slot, so the slot gradients accumulate with add.at
            g_cos = (p - q) * (config.w_sup / (len(rows) * n_sup) / gamma)
            np.add.at(d_slots, rows, _unit_rows_backward(g_cos @ v_hat, u_hat, u_norms))
            d_xp_sup = _unit_rows_backward(g_cos.T @ u_hat, v_hat, xp_norms)
        np.add.at(d_slots, chosen, d_m[i] / len(chosen))

        # backpropagate through the decoder
        d_ctx = d_slots @ params.w_o.T
        grads["w_o"] += cache["ctx"].T @ d_slots
        d_attn = d_ctx @ cache["vm"].T
        d_vm = cache["attn"].T @ d_ctx
        attn = cache["attn"]
        d_z = attn * (d_attn - np.sum(attn * d_attn, axis=1, keepdims=True))
        d_z *= cache["scale"]
        d_qp = d_z @ cache["km"]
        d_km = d_z.T @ cache["qp"]
        grads["queries"] += d_qp @ params.w_q.T
        grads["w_q"] += params.queries.T @ d_qp
        d_xp = d_km @ params.w_k.T + d_vm @ params.w_v.T + d_xp_sup
        grads["w_k"] += cache["xp"].T @ d_km
        grads["w_v"] += cache["xp"].T @ d_vm
        grads["proj_v"] += cache["x"].T @ d_xp

    total_loss = global_loss
    if sup_losses:
        total_loss += config.w_sup * float(np.mean(sup_losses))
    if not math.isfinite(total_loss):
        raise NumericalError("non-finite training loss")
    return total_loss, grads


def align_frames_to_slots(selected: np.ndarray, frame_embed: np.ndarray,
                          drop_pct: float = 80.0) -> list[tuple[int, Segment]]:
    """Inference tail: align the per-step slot sequence to frames with
    droppable DTW (slots must match, frames may drop at the percentile
    cost) and decode one segment per step."""
    cost = -cosine_matrix(selected, frame_embed)
    delta = percentile_drop_cost(cost, drop_pct)
    path = drop_dtw(cost, delta)
    slot_to_step = {row: row + 1 for row in range(selected.shape[0])}
    return decode_segments(path, slot_to_step, num_frames=frame_embed.shape[0])


def align_video(params: ModelParams, frames: np.ndarray,
                step_feats: np.ndarray, drop_pct: float = 80.0,
                normalize_features: bool = True) -> list[tuple[int, Segment]]:
    """Full inference for one video: decode slots, pick one per step, then
    align the selected slots to frames and read off the per-step segments."""
    if normalize_features:
        frames = l2_normalize_rows(frames)
    slots, cache = forward_slots(params, frames, with_cache=True)
    chosen = select_slots([slots], [step_feats @ params.proj_t], drop_pct)[0]
    return align_frames_to_slots(slots[chosen], cache["xp"], drop_pct)


@dataclass
class EpochLog:
    epoch: int
    loss: float
    val_f1: float


@dataclass
class FoldTraining:
    fold_id: int
    params: ModelParams
    best_epoch: int
    best_val_f1: float
    log: list[EpochLog] = field(default_factory=list)


def evaluate_alignment_f1(params: ModelParams, corpus: Corpus,
                          video_ids: tuple[str, ...],
                          config: TrainConfig) -> float:
    """Mean frame-F1 of predicted vs annotated alignments over videos."""
    scores = []
    for vid in video_ids:
        video = corpus.video_by_id(vid)
        frames = corpus.video_features(vid)
        predicted = align_video(params, frames,
                                corpus.task_step_features(video.task),
                                drop_pct=config.drop_pct,
                                normalize_features=config.normalize_features)
        pred = rasterize(predicted, video.num_frames)
        gt = gt_frame_labels(video)
        scores.append(frame_metrics(pred, gt)["f1"])
    return float(np.mean(scores)) if scores else 0.0


def _check_fold(corpus: Corpus, fold: FoldSpec, config: TrainConfig) -> None:
    """Reject, before any training, a fold with a task that has more steps
    than the decoder has slots (its test videos are aligned by the same
    slots later)."""
    tasks = {corpus.video_by_id(vid).task
             for vid in (*fold.train, *fold.val, *fold.test)}
    most_steps = max(corpus.task_step_features(task).shape[0] for task in tasks)
    if config.num_queries < most_steps:
        raise ValidationError(
            f"fold {fold.fold_id}: num_queries {config.num_queries} is below "
            f"the {most_steps} steps of its longest task")


def train_alignment_fold(corpus: Corpus, fold: FoldSpec,
                         config: TrainConfig) -> FoldTraining:
    """Mini-batch training on one fold; returns the checkpoint with the
    best validation frame-F1 (earlier epoch wins ties)."""
    config.validate()
    corpus.check_fold(fold)
    _check_fold(corpus, fold, config)
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(101, fold.fold_id)))
    corpus.set_phase(f"fold{fold.fold_id}:train-align")
    examples = [make_train_example(corpus, vid, config.normalize_features)
                for vid in fold.train]
    params = ModelParams.init(rng, feature_dim=corpus.feature_dim,
                              working_dim=config.working_dim,
                              num_queries=config.num_queries)
    opt = Adam(config.learning_rate)
    best = FoldTraining(fold_id=fold.fold_id, params=params.copy(),
                        best_epoch=-1, best_val_f1=-1.0)
    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        epoch_losses = []
        for lo in range(0, len(order), config.batch_size):
            batch = [examples[i] for i in order[lo:lo + config.batch_size]]
            selections, caches = compute_selections(params, batch,
                                                    config.drop_pct)
            try:
                loss, grads = batch_loss_and_grads(params, batch, selections,
                                                   caches, config)
            except NumericalError as exc:
                raise NumericalError(
                    f"fold {fold.fold_id} epoch {epoch}: {exc}") from None
            # free this step's activations before the next step's forwards
            del caches
            tensors = params.as_dict()
            opt.step(tensors, grads)
            epoch_losses.append(loss)
        val_f1 = evaluate_alignment_f1(params, corpus, fold.val, config)
        best.log.append(EpochLog(epoch=epoch, loss=float(np.mean(epoch_losses)),
                                 val_f1=val_f1))
        if val_f1 > best.best_val_f1:
            best.best_val_f1 = val_f1
            best.best_epoch = epoch
            best.params = params.copy()
    return best


def save_model(path, training: FoldTraining, config: TrainConfig) -> None:
    params = training.params
    meta = {
        "kind": "alignment",
        "U": params.num_queries,
        "d": params.feature_dim,
        "d_prime": params.working_dim,
        "seed": config.seed,
        "epoch": training.best_epoch,
        "val_f1": training.best_val_f1,
        "fold_id": training.fold_id,
    }
    save_checkpoint(path, params.as_dict(), meta)


def load_model(path) -> tuple[ModelParams, dict]:
    tensors, meta = load_checkpoint(path)
    missing = [n for n in _TENSOR_ORDER if n not in tensors]
    if missing:
        raise ValidationError(f"{path}: checkpoint missing tensors {missing}")
    return ModelParams(**{n: tensors[n] for n in _TENSOR_ORDER}), meta


__all__ = [
    "ModelParams", "TrainConfig", "TrainExample", "EpochLog", "FoldTraining",
    "forward_slots", "select_slots", "make_train_example",
    "compute_selections", "batch_loss_and_grads",
    "align_frames_to_slots", "align_video", "evaluate_alignment_f1",
    "train_alignment_fold", "save_model", "load_model",
]
