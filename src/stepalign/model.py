"""Step-slot decoder: learnable queries, one cross-attention layer, slot
selection against step texts, and the alignment losses with hand-derived
gradients.

The decoder computes S = softmax(Q' K^T / sqrt(d')) V' W_o with Q' = Q W_q,
K = (X P_v) W_k, V' = (X P_v) W_v for video features X. It evaluates
them in slot space and never forms a key or a value per frame: with
X' = X P_v it computes Q' W_k^T, then the logits (Q' W_k^T) X'^T / sqrt(d'),
their softmax A, then A X', then ((A X') W_v) W_o. The backward runs the
same order in reverse. For L frames, U queries and d = d', the forward
costs L d'^2 + 2 U L d' multiply-adds and the backward L d'^2 + 4 U L d',
where per-frame keys and values would cost 3 L d'^2 + 2 U L d' and
5 L d'^2 + 4 U L d'; the few U d'^2 products the slot-space order adds
do not grow with L. At d' = 64 and U = 32 that is about 20k against 45k
multiply-adds per frame.

Slots are matched to the task's step texts by droppable DTW over negative
cosines (steps may not drop, slots may, and no two steps share one), and
the matched slot of each step is trained to land on its annotated frames.

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
A fold reads each of its training and validation videos once, into a
``FoldVideo``: the corpus's feature array, the task's step texts and the
rasterized ground truth. Features are normalized where the decoder reads
them, by ``_decoder_input``. A training step runs the decoder once per
video: ``compute_selections`` keeps each forward's activations, selects
slots for the whole batch with one stacked Drop-DTW per step count, and
``batch_loss_and_grads`` backpropagates through the same activations,
taking each step's positive frames from the raster. Inference, and
validation once per epoch, run ``align_videos``: one forward per video
and one stacked selection, then each video's segments from the Drop-DTW
of its selected slots against its frames.

Both losses and their gradients are written once, in
``batch_loss_and_grads``; the naive value-only reference oracles used for
finite-difference checks live in ``tests/test_model.py``, and the
key/value form of the forward and backward in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .alignment import (
    decode_segments, drop_dtw, drop_dtw_stack, percentile_drop_cost,
)
from .checkpoint import check_layout, load_checkpoint, save_checkpoint
from .corpus import Corpus
from .data import FoldSpec, Segment
from .errors import NumericalError, ValidationError
from .metrics import frame_metrics, gt_frame_labels, rasterize
from .optim import Adam, FlatParams


@dataclass
class ModelParams(FlatParams):
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

    @classmethod
    def init(cls, rng: np.random.Generator, feature_dim: int,
             working_dim: int, num_queries: int) -> "ModelParams":
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
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ValidationError(
                f"learning_rate must be positive, got {self.learning_rate}")
        if not self.gamma > 0:
            raise ValidationError(f"gamma must be positive, got {self.gamma}")
        for name, weight in (("w_sup", self.w_sup), ("w_global", self.w_global)):
            if not 0 <= weight < math.inf:
                raise ValidationError(
                    f"{name} must be nonnegative and finite, got {weight}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.batch_size < 2 and self.w_global > 0:
            raise ValidationError(
                "batch_size must be >= 2 for the batch-contrastive loss")
        if not (0 < self.drop_pct <= 100):
            raise ValidationError("drop_pct must be in (0, 100]")
        if self.working_dim < 1:
            raise ValidationError(
                f"working_dim must be >= 1, got {self.working_dim}")


def _unit_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit norm, and the norms as a column; zero rows are
    rejected."""
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValidationError("cannot l2-normalize a zero row")
    return m / norms, norms


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; zero rows are rejected."""
    return _unit_rows(np.asarray(m, dtype=np.float64))[0]


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities between rows of a and rows of b."""
    return l2_normalize_rows(a) @ l2_normalize_rows(b).T


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


def forward_slots(params: ModelParams, video: np.ndarray
                  ) -> tuple[np.ndarray, dict]:
    """Run the decoder over one video's features; returns the U x d' slot
    matrix and the intermediate activations."""
    video = np.asarray(video, dtype=np.float64)
    if video.ndim != 2 or video.shape[1] != params.feature_dim:
        raise ValidationError(
            f"video features must be L x {params.feature_dim}, got {video.shape}")
    xp = video @ params.proj_v
    qp = params.queries @ params.w_q
    qk = qp @ params.w_k.T
    scale = 1.0 / math.sqrt(params.working_dim)
    z = (qk @ xp.T) * scale
    attn = _softmax_rows(z)
    ax = attn @ xp
    ctx = ax @ params.w_v
    slots = ctx @ params.w_o
    if not np.all(np.isfinite(slots)):
        raise NumericalError("slot matrix contains non-finite values")
    cache = {"x": video, "xp": xp, "qp": qp, "qk": qk, "attn": attn,
             "ax": ax, "ctx": ctx, "slots": slots, "scale": scale}
    return slots, cache


def select_slots(slots: Sequence[np.ndarray], step_feats: Sequence[np.ndarray],
                 drop_pct: float) -> list[list[int]]:
    """Assign one slot to every step of every video by droppable DTW on
    negative cosine.

    ``slots[b]`` is video b's U x d' slot matrix and ``step_feats[b]`` its
    K_b x d' step texts. Steps cannot drop; surplus slots drop at each
    video's percentile cost. Videos with equal step and slot counts are
    aligned as one stack. When a step's alignment run covers several
    slots, the cheapest one represents it (ties go to the lower slot
    index). Returns each video's K_b distinct slot indices in step order.
    """
    costs = [-cosine_matrix(steps, video_slots)
             for video_slots, steps in zip(slots, step_feats)]
    groups: dict[tuple[int, ...], list[int]] = {}
    for b, cost in enumerate(costs):
        groups.setdefault(cost.shape, []).append(b)
    chosen: list[list[int]] = [[] for _ in costs]
    for members in groups.values():
        stack = np.stack([costs[b] for b in members])
        drops = np.array([percentile_drop_cost(cost, drop_pct) for cost in stack])
        visited, _ = drop_dtw_stack(stack, drops)
        # argmin takes the first minimum: the lower slot index on ties
        best = np.where(visited, stack, np.inf).argmin(axis=2)
        for b, row in zip(members, best.tolist()):
            chosen[b] = row
    return chosen


@dataclass(frozen=True)
class FoldVideo:
    """One fold video as decoder training and validation read it: the
    corpus's own feature array, the task's step texts and the
    ground-truth raster."""

    video_id: str
    frames: np.ndarray                       # L x d, not normalized
    step_feats: np.ndarray                   # K x d
    gt_labels: np.ndarray                    # per-frame step, 0 background

    @classmethod
    def from_corpus(cls, corpus: Corpus, video_id: str) -> "FoldVideo":
        video = corpus.video_by_id(video_id)
        return cls(video_id=video_id, frames=corpus.video_features(video_id),
                   step_feats=corpus.task_step_features(video.task),
                   gt_labels=gt_frame_labels(video))


def _decoder_input(frames: np.ndarray, normalize_features: bool) -> np.ndarray:
    """The features the decoder reads: unit rows, or the raw rows when
    normalization is off."""
    return l2_normalize_rows(frames) if normalize_features else frames


def _text_input(params: ModelParams, step_feats: Sequence[np.ndarray]
                ) -> list[np.ndarray]:
    """Each video's K x d step texts projected into the working space; a
    matrix of another width raises ValidationError."""
    for steps in step_feats:
        if steps.ndim != 2 or steps.shape[1] != params.feature_dim:
            raise ValidationError(
                f"step features must be K x {params.feature_dim}, "
                f"got {steps.shape}")
    return [steps @ params.proj_t for steps in step_feats]


def compute_selections(params: ModelParams, batch: Sequence[FoldVideo],
                       config: TrainConfig
                       ) -> tuple[list[list[int]], list[dict]]:
    """One decoder forward per video and the slot each step selects.

    Returns the selections and the forward caches, which
    ``batch_loss_and_grads`` takes so that it need not run the decoder
    again.
    """
    caches = [forward_slots(params,
                            _decoder_input(v.frames, config.normalize_features))[1]
              for v in batch]
    selections = select_slots([cache["slots"] for cache in caches],
                              _text_input(params, [v.step_feats for v in batch]),
                              config.drop_pct)
    return selections, caches


def batch_loss_and_grads(params: ModelParams, batch: Sequence[FoldVideo],
                         selections: list[list[int]], caches: list[dict],
                         config: TrainConfig) -> tuple[float, ModelParams]:
    """Loss plus exact analytic gradients for every parameter tensor.

    ``caches`` are the batch's ``forward_slots`` activations at
    ``params``. Slot selection is a constant: gradients flow through the
    decoder and both losses but not through the discrete assignment.
    Each video's supervised terms come from one steps x frames cosine
    matrix, a row for each step its raster labels; the contrastive terms
    are computed for the whole batch at once. The gradients share the
    parameters' flat layout; every write accumulates into them.
    """
    grads = params.zeros_like()
    gamma = config.gamma
    n = len(batch)

    # batch-contrastive loss over pooled slots m_i and pooled step texts t_i
    d_m = np.zeros((n, params.working_dim))
    global_loss = 0.0
    if config.w_global > 0 and n >= 2:
        mean_steps = np.stack([v.step_feats.mean(axis=0) for v in batch])
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
        grads.proj_t += mean_steps.T @ _unit_rows_backward(d_sim.T @ a, b, t_norms)

    # supervised loss: mean over steps within a video, then over videos
    n_sup = sum(1 for v in batch if v.gt_labels.any())
    sup_losses = []
    for i, (v, chosen, cache) in enumerate(zip(batch, selections, caches)):
        d_slots = np.zeros_like(cache["slots"])
        d_xp_sup = 0.0
        gt = v.gt_labels
        if config.w_sup > 0 and gt.any():
            steps = np.unique(gt[gt > 0])
            v_hat, xp_norms = _unit_rows(cache["xp"])
            rows = [chosen[step - 1] for step in steps]
            u = cache["slots"][rows]
            u_norms = np.linalg.norm(u, axis=1, keepdims=True)
            u_hat = u / u_norms
            # K' x L cosines and logits, one row per annotated step
            cos = u_hat @ v_hat.T
            logits = cos / gamma
            positive = gt == steps[:, None]
            lse_all = _logsumexp(logits)
            lse_pos = _logsumexp(np.where(positive, logits, -np.inf))
            sup_losses.append(float(np.mean(lse_all - lse_pos)))
            p = np.exp(logits - lse_all[:, None])
            q = np.exp(np.where(positive, logits - lse_pos[:, None], -np.inf))
            # g_cos = dL/dcos with cos = u_hat v_hat^T; add.at sums the slot
            # gradients of any selection, one that repeats a slot too
            g_cos = (p - q) * (config.w_sup / (len(rows) * n_sup) / gamma)
            np.add.at(d_slots, rows, _unit_rows_backward(g_cos @ v_hat, u_hat, u_norms))
            # the frame side's <d_hat, v_hat> per frame is sum_k g_cos cos
            d_xp_sup = (g_cos.T @ u_hat
                        - v_hat * np.sum(g_cos * cos, axis=0)[:, None]) / xp_norms
        np.add.at(d_slots, chosen, d_m[i] / len(chosen))

        # backpropagate through the decoder, in slot space
        xp, attn = cache["xp"], cache["attn"]
        d_ctx = d_slots @ params.w_o.T
        grads.w_o += cache["ctx"].T @ d_slots
        d_ax = d_ctx @ params.w_v.T
        grads.w_v += cache["ax"].T @ d_ctx
        d_attn = d_ax @ xp.T
        d_z = attn * (d_attn - np.sum(attn * d_attn, axis=1, keepdims=True))
        d_z *= cache["scale"]
        d_qk = d_z @ xp
        grads.w_k += d_qk.T @ cache["qp"]
        d_qp = d_qk @ params.w_k
        grads.queries += d_qp @ params.w_q.T
        grads.w_q += params.queries.T @ d_qp
        d_xp = attn.T @ d_ax + d_z.T @ cache["qk"] + d_xp_sup
        grads.proj_v += cache["x"].T @ d_xp

    total_loss = global_loss
    if sup_losses:
        total_loss += config.w_sup * float(np.mean(sup_losses))
    if not math.isfinite(total_loss):
        raise NumericalError("non-finite training loss")
    return total_loss, grads


def align_frames_to_slots(selected: np.ndarray, frame_embed: np.ndarray,
                          drop_pct: float) -> list[tuple[int, Segment]]:
    """Inference tail: align the per-step slot sequence to frames with
    droppable DTW (slots must match, frames may drop at the percentile
    cost) and decode one segment per step, no two overlapping."""
    cost = -cosine_matrix(selected, frame_embed)
    visited, _ = drop_dtw(cost, percentile_drop_cost(cost, drop_pct))
    return decode_segments(visited)


def align_videos(params: ModelParams, frames: Sequence[np.ndarray],
                 step_feats: Sequence[np.ndarray], drop_pct: float,
                 normalize_features: bool) -> list[list[tuple[int, Segment]]]:
    """Full inference: decode each video's slots, pick one per step in one
    stacked selection, then align the selected slots to the video's frames
    and read off one segment per step. Only each video's slots and
    projected frames are kept until the selection."""
    slots, frame_embeds = [], []
    for video in frames:
        video_slots, cache = forward_slots(
            params, _decoder_input(video, normalize_features))
        slots.append(video_slots)
        frame_embeds.append(cache["xp"])
        del cache
    chosen = select_slots(slots, _text_input(params, step_feats), drop_pct)
    return [align_frames_to_slots(u[rows], xp, drop_pct)
            for u, xp, rows in zip(slots, frame_embeds, chosen)]


def align_video(params: ModelParams, frames: np.ndarray,
                step_feats: np.ndarray, drop_pct: float,
                normalize_features: bool) -> list[tuple[int, Segment]]:
    """``align_videos`` for one video."""
    return align_videos(params, [frames], [step_feats], drop_pct,
                        normalize_features)[0]


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


def evaluate_alignment_f1(params: ModelParams, videos: Sequence[FoldVideo],
                          config: TrainConfig) -> float:
    """Mean frame-F1 of the videos' ``align_videos`` segments."""
    predicted = align_videos(params, [v.frames for v in videos],
                             [v.step_feats for v in videos], config.drop_pct,
                             config.normalize_features)
    scores = [frame_metrics(rasterize(segments, v.gt_labels.shape[0]),
                            v.gt_labels)["f1"]
              for segments, v in zip(predicted, videos)]
    return float(np.mean(scores)) if scores else 0.0


def _check_fold(corpus: Corpus, fold: FoldSpec, config: TrainConfig) -> None:
    """Reject, before any training, a fold whose tasks have more steps than
    the decoder has slots, or whose val or test videos have fewer frames
    than steps: each step needs slots, and at inference frames, of its own."""
    steps = {vid: corpus.task_step_features(corpus.video_by_id(vid).task).shape[0]
             for vid in (*fold.train, *fold.val, *fold.test)}
    if config.num_queries < max(steps.values()):
        raise ValidationError(
            f"fold {fold.fold_id}: num_queries {config.num_queries} is below "
            f"the {max(steps.values())} steps of its longest task")
    for vid in (*fold.val, *fold.test):
        frames = corpus.video_by_id(vid).num_frames
        if frames < steps[vid]:
            raise ValidationError(
                f"fold {fold.fold_id}: video {vid!r} has {frames} frames, "
                f"fewer than the {steps[vid]} steps of its task")


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
    train = [FoldVideo.from_corpus(corpus, vid) for vid in fold.train]
    val = [FoldVideo.from_corpus(corpus, vid) for vid in fold.val]
    params = ModelParams.init(rng, feature_dim=corpus.feature_dim,
                              working_dim=config.working_dim,
                              num_queries=config.num_queries)
    opt = Adam(params.flat.size, config.learning_rate)
    best = FoldTraining(fold_id=fold.fold_id, params=params.copy(),
                        best_epoch=-1, best_val_f1=-1.0)
    for epoch in range(config.epochs):
        order = rng.permutation(len(train))
        epoch_losses = []
        for lo in range(0, len(order), config.batch_size):
            batch = [train[i] for i in order[lo:lo + config.batch_size]]
            selections, caches = compute_selections(params, batch, config)
            try:
                loss, grads = batch_loss_and_grads(params, batch, selections,
                                                   caches, config)
            except NumericalError as exc:
                raise NumericalError(
                    f"fold {fold.fold_id} epoch {epoch}: {exc}") from None
            # free this step's activations before the next step's forwards
            del caches
            opt.step(params.flat, grads.flat)
            epoch_losses.append(loss)
        val_f1 = evaluate_alignment_f1(params, val, config)
        best.log.append(EpochLog(epoch=epoch, loss=float(np.mean(epoch_losses)),
                                 val_f1=val_f1))
        if val_f1 > best.best_val_f1:
            best.best_val_f1 = val_f1
            best.best_epoch = epoch
            best.params.flat[:] = params.flat
    return best


def save_model(path, training: FoldTraining, config: TrainConfig) -> None:
    meta = {
        "kind": "alignment",
        "seed": config.seed,
        "epoch": training.best_epoch,
        "val_f1": training.best_val_f1,
        "fold_id": training.fold_id,
    }
    save_checkpoint(path, training.params.as_dict(), meta)


def load_model(path) -> tuple[ModelParams, dict]:
    """Read an ``alignment`` checkpoint whose tensors agree in d, d' and
    U."""
    tensors, meta = load_checkpoint(path)
    square = ("k", "k")
    check_layout(path, "alignment", meta, tensors, {
        "proj_v": ("d", "k"), "proj_t": ("d", "k"), "queries": ("U", "k"),
        "w_q": square, "w_k": square, "w_v": square, "w_o": square})
    names = ModelParams.tensor_names()
    return ModelParams(**{n: tensors[n] for n in names}), meta


__all__ = [
    "l2_normalize_rows", "cosine_matrix", "ModelParams", "TrainConfig",
    "FoldVideo", "EpochLog", "FoldTraining", "forward_slots", "select_slots",
    "compute_selections", "batch_loss_and_grads", "align_frames_to_slots",
    "align_videos", "align_video", "evaluate_alignment_f1",
    "train_alignment_fold", "save_model", "load_model",
]
