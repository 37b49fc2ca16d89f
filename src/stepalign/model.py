"""Step-slot decoder: learnable queries, one cross-attention layer, slot
selection against step texts, and the alignment loss with hand-derived
gradients.

The decoder computes S = softmax(Q' K^T / sqrt(d')) V' W_o with Q' = Q W_q,
K = (X P_v) W_k, V' = (X P_v) W_v for video features X. It evaluates
them in slot space and never forms a key or a value per frame: with
X' = X P_v it computes Q' W_k^T, then the logits (Q' W_k^T) X'^T / sqrt(d'),
their softmax A, then A X', then ((A X') W_v) W_o. The backward runs the
same order in reverse, through the selected slots only. For L frames,
U queries and d = d', the forward costs L d'^2 + 2 U L d' multiply-adds,
where per-frame keys and values would cost 3 L d'^2 + 2 U L d'; the few
U d'^2 products the slot-space order adds do not grow with L. The loss
reads only the K' <= U slots that a video's K' annotated steps select,
and the other slots get no gradient, so the backward gathers those rows
and runs on them alone. With the loss's own frame gradient folded into
its one frame-side product, it costs L d'^2 + 5 K' L d', where all U
slots cost L d'^2 + (4 U + K') L d' and per-frame keys and values
5 L d'^2 + (4 U + K') L d'. At d' = 64, U = 32 and K' = 12 that is about
8k against 13k and 29k multiply-adds per frame.

Slots are matched to the task's step texts by droppable DTW over negative
cosines (steps may not drop, slots may, and no two steps share one), and
the matched slot of each step is trained to land on its annotated frames.

The decoder trains on one supervised loss. Per step it is
    -log( sum_{j in segment} exp(cos(s_k, v_j) / gamma)
        / sum_{all j}       exp(cos(s_k, v_j) / gamma) )
with l2-normalized slot and frame vectors; the temperature gamma,
``_GAMMA`` (0.03), divides the cosine inside the exponent, so a small
gamma sharpens the frame softmax. A
video's loss is the mean over its annotated steps, and a batch's loss the
mean over its videos with annotated steps. The step texts enter only
through slot selection, so the text projection ``proj_t`` gets no
gradient and keeps its initialization.

Slot selection is recomputed every step but treated as a constant mapping
inside the loss, so no gradient flows through the discrete alignment.
A fold reads each of its training and validation videos once, into a
``FoldVideo``: the decoder input, the task's step texts and the
rasterized ground truth, with what every step reads of the raster
computed once: the annotated steps and each step's frames. The decoder
input, the frames over their row norms, is one divide by
``_decoder_input``, taken once per fold after its check for all-zero
rows; nothing keeps the raw frames. ``train_alignment_fold`` hands
``optim.fit`` its mini-batches of ``_BATCH_SIZE`` (6) videos, drawn each
epoch from a new permutation of the training videos, and its validation
frame-F1; ``fit`` runs Adam, validates after every epoch and keeps the
best epoch's parameters. A training step runs the decoder once over its
videos: ``compute_selections`` passes them to one ``forward_slots``
call, which computes the query products once and keeps each video's
activations, then selects slots for the whole batch with one stacked
selection per (steps, slots) shape, and ``batch_loss_and_grads``
backpropagates through the same activations and reads the held decoder
input for the input projection's gradient. Validation runs
``compute_selections`` on chunks of at most ``_BATCH_SIZE`` (6) videos,
then aligns each video's selected slots to its projected frames. A fold
allocates the frame-sized arrays of training and validation once, in a
``TrainWorkspace`` with ``min(_BATCH_SIZE, max(len(train), len(val)))``
slots sized to its longest training or validation video, and a scratch
sized also to the most annotated steps of a training video; every step
writes into it with ``out=``. Inference, ``align_video``, runs one
forward, the selection and the alignment for one video.

The decoder computes in the dtype of the features it is given,
``optim.compute_dtype``, as in mixed-precision training (Micikevicius et
al., "Mixed Precision Training", ICLR 2018): a corpus holds float32
frames, so training and inference run in float32, and float64 frames
run the same code in float64. Entry points run ``check_features`` on
each feature matrix once. The master parameters, Adam's moments and
the gradient sums stay float64 (see optim.py). The step functions and
``align_video`` are handed the master parameters and cast them once per
call; nothing holds a cast. A step function given a workspace of another
dtype than its batch's raises ValidationError. Each product's terms then
accumulate into the float64 gradients. Frame norms, slot-selection
costs, the Drop-DTW kernel and the alignment's normalization stay
float64 whatever the dtype: the kernel's tie tolerance is in float64
eps, and the parameter-free alignment of step texts to frames, which
shares the alignment, stays exact in float64.

The loss and its gradients are written once, in
``batch_loss_and_grads``; the naive value-only reference oracle used for
finite-difference checks lives in ``tests/test_model.py``, and the
key/value form of the forward and backward in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .alignment import (
    decode_segments, drop_dtw, drop_dtw_stack, percentile_drop_cost,
    percentile_drop_cost_stack,
)
from .checkpoint import check_layout, load_checkpoint, save_checkpoint
from .corpus import Corpus
from .data import FoldSpec, Segment
from .errors import (
    NumericalError, ValidationError, check_counts, check_features, check_flags,
    check_numbers,
)
from .metrics import frame_metrics, gt_frame_labels, rasterize
from .optim import FlatParams, Training, compute_dtype, fit


@dataclass
class ModelParams(FlatParams):
    proj_v: np.ndarray   # d x d'
    proj_t: np.ndarray   # d x d', read by slot selection only: no gradient
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


# the loss's temperature, and the videos of a training step and of a
# validation chunk
_GAMMA = 0.03
_BATCH_SIZE = 6


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    seed: int = 0
    drop_pct: float = 80.0
    working_dim: int = 64
    num_queries: int = 32
    normalize_features: bool = True

    def validate(self) -> None:
        check_counts(self, ("epochs", "working_dim", "num_queries"))
        check_counts(self, ("seed",), minimum=0)
        check_numbers(self, ("drop_pct",))
        check_flags(self, ("normalize_features",))
        if not (0 < self.drop_pct <= 100):
            raise ValidationError("drop_pct must be in (0, 100]")


def _row_norms(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The norms of ``m``'s rows as a column, in float64, or in the dtype
    of ``out`` when it is given. The rows' squares are summed in ``out``,
    as ``np.linalg.norm`` sums them."""
    dtype = np.float64 if out is None else out.dtype
    return np.sqrt(np.add.reduce(np.square(m, dtype=dtype, out=out),
                                 axis=-1, keepdims=True))


def _unit_rows(m: np.ndarray, out: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit norm in float64, or in the dtype of ``out``
    and written into it when it is given, and the norms as a column; zero
    rows are rejected. The rows are cast into ``out`` before the divide,
    so that a widening divide needs no iteration buffers."""
    scaled = np.empty(np.shape(m)) if out is None else out
    norms = _row_norms(m, scaled)
    if np.any(norms == 0.0):
        raise ValidationError("cannot l2-normalize a zero row")
    np.copyto(scaled, m)
    scaled /= norms
    return scaled, norms


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm, in float64; zero rows are rejected."""
    return _unit_rows(np.asarray(m))[0]


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row softmax of ``z``, computed in place; returns ``z``."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _unit_rows_backward(d_hat: np.ndarray, hat: np.ndarray,
                        norms: np.ndarray) -> np.ndarray:
    """Gradient through row normalization hat = x / |x| (norms as a
    column): (d_hat - hat * <d_hat, hat>) / |x|."""
    return (d_hat - hat * np.sum(d_hat * hat, axis=1, keepdims=True)) / norms


def forward_slots(params: ModelParams, videos: Sequence[np.ndarray],
                  outs: Sequence[dict[str, np.ndarray]] | None = None
                  ) -> list[dict]:
    """Run the decoder over each video's features; returns, per video, the
    intermediate activations, which do not include the features, with
    its U x d' slot matrix under ``"slots"``. The query products
    ``qp = Q W_q`` and ``qk = qp W_k^T`` are computed once and every
    video's activations hold them. Video b's L x d' projected frames and
    U x L attention are written into ``outs[b]["xp"]`` and
    ``outs[b]["attn"]`` when ``outs`` is given, one per video. It computes
    in the videos' dtype. The videos are the checked decoder inputs that
    ``FoldVideo`` holds or ``align_video`` builds."""
    if outs is not None and len(outs) != len(videos):
        raise ValidationError(f"outs must hold one dict per video, got "
                              f"{len(outs)} for {len(videos)}")
    params = params.astype(compute_dtype(*videos))
    qp = params.queries @ params.w_q
    qk = qp @ params.w_k.T
    scale = 1.0 / math.sqrt(params.working_dim)
    caches = []
    for video, out in zip(videos, outs or [{}] * len(videos)):
        xp = np.matmul(video, params.proj_v, out=out.get("xp"))
        # the logits, then their row softmax in place
        attn = np.matmul(qk, xp.T, out=out.get("attn"))
        attn *= scale
        _softmax_rows(attn)
        ax = attn @ xp
        ctx = ax @ params.w_v
        slots = ctx @ params.w_o
        if not np.all(np.isfinite(slots)):
            raise NumericalError("slot matrix contains non-finite values")
        caches.append({"xp": xp, "qp": qp, "qk": qk, "attn": attn,
                       "ax": ax, "ctx": ctx, "slots": slots, "scale": scale})
    return caches


def select_slots(slots: Sequence[np.ndarray], step_feats: Sequence[np.ndarray],
                 drop_pct: float) -> list[list[int]]:
    """Assign one slot to every step of every video by droppable DTW on
    negative cosine.

    ``slots[b]`` is video b's U x d' slot matrix and ``step_feats[b]`` its
    K_b x d' step texts; a count that does not match, or a matrix that
    ``check_features`` rejects at the slots' width, raises ValidationError
    naming the argument. Steps cannot drop; surplus slots drop at each
    video's percentile cost. The videos of each (steps, slots) shape are
    taken as one stack: one l2 normalization of their slots and one of
    their texts, one float64 product for the costs, one partition for the
    drop costs and one stacked Drop-DTW. When a step's alignment run
    covers several slots, the cheapest one represents it (ties go to the
    lower slot index). Returns each video's K_b distinct slot indices in
    step order.
    """
    if len(step_feats) != len(slots):
        raise ValidationError(
            f"step_feats must hold one matrix per slot matrix, got "
            f"{len(step_feats)} for {len(slots)}")
    groups: dict[tuple[int, ...], list[int]] = {}
    for b, (video_slots, steps) in enumerate(zip(slots, step_feats)):
        check_features(video_slots, f"slots[{b}]")
        check_features(steps, f"step_feats[{b}] (as wide as slots[{b}])",
                       video_slots.shape[1])
        groups.setdefault((*steps.shape, len(video_slots)), []).append(b)
    chosen: list[list[int]] = [[] for _ in slots]
    for members in groups.values():
        unit_slots = _unit_rows(np.array([slots[b] for b in members]))[0]
        unit_steps = _unit_rows(np.array([step_feats[b] for b in members]))[0]
        stack = np.matmul(unit_steps, unit_slots.transpose(0, 2, 1))
        np.negative(stack, out=stack)
        visited, _ = drop_dtw_stack(
            stack, percentile_drop_cost_stack(stack, drop_pct))
        # argmin takes the first minimum: the lower slot index on ties
        best = np.where(visited, stack, np.inf).argmin(axis=2)
        for b, row in zip(members, best.tolist()):
            chosen[b] = row
    return chosen


@dataclass(frozen=True)
class FoldVideo:
    """One fold video as decoder training and validation read it: the
    decoder input, the task's step texts and the ground-truth raster, and
    the constants every step reads of the raster, computed once: the
    annotated steps in ascending order and, per annotated step, the mask
    of its frames. ``from_frames`` builds the input from the video's
    frames, and keeps nothing else of them. The input, the raster, a
    copy, and the constants are read-only."""

    video_id: str
    x: np.ndarray                            # L x d decoder input
    step_feats: np.ndarray                   # K x d
    gt_labels: np.ndarray                    # per-frame step, 0 background
    steps: np.ndarray = field(init=False, repr=False)     # K'
    positive: np.ndarray = field(init=False, repr=False)  # K' x L

    def __post_init__(self):
        gt = np.array(self.gt_labels)
        steps = np.unique(gt[gt > 0])
        # a view, so that the read-only flag is not set on a caller's array
        derived = {"x": np.asarray(self.x)[...], "gt_labels": gt,
                   "steps": steps, "positive": gt == steps[:, None]}
        for name, value in derived.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def from_frames(cls, video_id: str, frames: np.ndarray,
                    step_feats: np.ndarray, gt_labels: np.ndarray,
                    normalize_features: bool) -> "FoldVideo":
        """The fold video whose decoder input is ``_decoder_input`` of
        ``frames``. A zero frame row, or frames or texts ``check_features``
        rejects at one width, raise ValidationError naming the video."""
        where = f"video {video_id!r}"
        check_features(frames, f"{where} frames")
        check_features(step_feats, f"{where} step_feats (as wide as frames)",
                       frames.shape[1])
        return cls(video_id, _decoder_input(frames, normalize_features, where),
                   step_feats, gt_labels)

    @classmethod
    def from_corpus(cls, corpus: Corpus, video_id: str,
                    normalize_features: bool) -> "FoldVideo":
        video = corpus.video_by_id(video_id)
        return cls.from_frames(video_id, corpus.video_features(video_id),
                               corpus.task_step_features(video.task),
                               gt_frame_labels(video), normalize_features)


def _decoder_input(frames: np.ndarray, normalize_features: bool,
                   where: str) -> np.ndarray:
    """The features the decoder reads, in their compute dtype: the frames
    over their float64 row norms cast to that dtype, or the frames
    themselves when normalization is off. The first all-zero row raises
    ValidationError naming ``where`` and the frame, before any divide:
    without normalization the row projects to a frame without a cosine."""
    norms = _row_norms(frames)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValidationError(
            f"{where} has an all-zero feature row at frame {zero[0]}; every "
            f"frame needs a nonzero row")
    dtype = compute_dtype(frames)
    if not normalize_features:
        return frames.astype(dtype, copy=False)
    return np.divide(frames, norms.astype(dtype, copy=False))


class TrainWorkspace:
    """The frame-sized arrays of decoder training and validation,
    allocated once per fold for its longest training or validation video
    and for the most annotated steps of a training video, in the dtype of
    the parameters it is built from, which the decoder computes in. Each
    batch slot has the projected frames ``xp`` and the attention
    ``attn``, which its forward cache holds until the backward or the
    alignment. The scratch is shared by the batch's videos: the
    backward's frame-sized temporaries, the unit frames ``v_hat`` and the
    frame gradient ``d_xp``, the steps x frames ``cos`` and the three
    steps x frames blocks of ``stack``. The alignment's
    float64 unit frames, ``unit``, reuse the bytes of ``v_hat`` and
    ``d_xp``, which no alignment reads. ``slot`` and ``scratch`` return,
    for a video of some length and number of annotated steps, contiguous
    arrays of that video's shapes over the start of each buffer. The
    fold trainer builds the one workspace of a fold, and each step
    function writes into the one it is given."""

    def __init__(self, params: ModelParams, batch_size: int, max_frames: int,
                 max_steps: int):
        self.dtype = params.flat.dtype
        self._dims = (params.feature_dim, params.working_dim,
                      params.queries.shape[0])
        self._slots = [self._buffers(self._slot_shapes(max_frames))
                       for _ in range(batch_size)]
        self._scratch = self._buffers(self._scratch_shapes(max_frames,
                                                           max_steps))

    def _slot_shapes(self, frames: int) -> dict[str, tuple[int, int]]:
        _, k, u = self._dims
        return {"xp": (frames, k), "attn": (u, frames)}

    def _scratch_shapes(self, frames: int, steps: int
                        ) -> dict[str, tuple[int, int]]:
        _, k, _ = self._dims
        # v_hat over d_xp, which the unit frames view as float64
        return {"frame_rows": (2, frames, k),
                "cos": (steps, frames), "stack": (3 * steps, frames)}

    def _buffers(self, shapes: dict[str, tuple[int, ...]]
                 ) -> dict[str, np.ndarray]:
        return {name: np.empty(math.prod(shape), self.dtype)
                for name, shape in shapes.items()}

    @staticmethod
    def _views(buffers: dict[str, np.ndarray],
               shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
        return {name: buffers[name][:math.prod(shape)].reshape(shape)
                for name, shape in shapes.items()}

    def slot(self, index: int, frames: int) -> dict[str, np.ndarray]:
        return self._views(self._slots[index], self._slot_shapes(frames))

    def scratch(self, frames: int, steps: int = 0) -> dict[str, np.ndarray]:
        views = self._views(self._scratch, self._scratch_shapes(frames, steps))
        rows = views.pop("frame_rows")
        views["v_hat"], views["d_xp"] = rows
        views["unit"] = rows.reshape(-1).view(np.float64)[
            :rows[0].size].reshape(rows[0].shape)
        return views


def _batch_params(params: ModelParams, batch: Sequence[FoldVideo],
                  work: TrainWorkspace) -> ModelParams:
    """``params`` cast to the dtype the batch's features compute in, which
    must be the workspace's: its buffers take the batch's activations,
    and a write into another dtype would cast them silently."""
    dtype = compute_dtype(*(v.x for v in batch))
    if work.dtype != dtype:
        raise ValidationError(f"a {work.dtype} workspace cannot hold the "
                              f"activations of {dtype} features")
    return params.astype(dtype)


def compute_selections(params: ModelParams, batch: Sequence[FoldVideo],
                       config: TrainConfig, work: TrainWorkspace
                       ) -> tuple[list[list[int]], list[dict]]:
    """One decoder forward per video and the slot each step selects.

    Returns the selections and the forward caches, which
    ``batch_loss_and_grads`` takes so that it need not run the decoder
    again. One ``forward_slots`` call runs the batch's videos over their
    held decoder inputs, and one ``select_slots`` call selects for all of
    them. The decoder computes in the dtype of the batch's features,
    which must be the workspace's. Video b's frame-sized activations are
    written into slot b of the workspace.
    """
    params = _batch_params(params, batch, work)
    caches = forward_slots(params, [v.x for v in batch],
                           [work.slot(b, v.x.shape[0])
                            for b, v in enumerate(batch)])
    selections = select_slots([cache["slots"] for cache in caches],
                              [v.step_feats @ params.proj_t for v in batch],
                              config.drop_pct)
    return selections, caches


def batch_loss_and_grads(params: ModelParams, batch: Sequence[FoldVideo],
                         selections: list[list[int]], caches: list[dict],
                         work: TrainWorkspace) -> tuple[float, ModelParams]:
    """The supervised loss plus exact analytic gradients for every
    parameter tensor.

    ``caches`` are the batch's ``forward_slots`` activations at
    ``params``. Slot selection is a constant: gradients flow through the
    decoder but not through the discrete assignment, so ``proj_t``, which
    only selection reads, gets a zero gradient. Each video's terms come
    from one steps x frames cosine matrix, a row for each annotated step
    of the video, and the batch's loss is the mean of its annotated
    videos' losses. The loss takes two exponentials per cosine, one for
    each log-sum-exp, each shifted by its own maximum. Only the slots the
    annotated steps select get a gradient, so the backward gathers their
    rows of the activations (a slot two steps share is gathered twice and
    its terms add up) and runs the slot-space and softmax backward on
    those steps x frames rows; the frame gradient is then one product of
    the selected attention rows, their logit gradient and the cosine
    gradient with three steps x d' matrices. The decoder computes in the
    dtype of the batch's features, which must be the workspace's, and
    each term accumulates into the float64 gradients, which share the
    parameters' flat layout. The input projection's gradient reads each
    video's held decoder input. Each video's frame-sized and steps x
    frames arrays are written into the workspace's scratch. ``selections``
    and ``caches`` hold one entry per video.
    """
    for name, items in (("selections", selections), ("caches", caches)):
        if len(items) != len(batch):
            raise ValidationError(f"{name} must hold one entry per video, "
                                  f"got {len(items)} for {len(batch)}")
    params = _batch_params(params, batch, work)
    grads = params.zeros_like()
    # mean over steps within a video, then over the annotated videos
    n_sup = sum(1 for v in batch if v.steps.size)
    sup_losses = []
    for v, chosen, cache in zip(batch, selections, caches):
        k = v.steps.size
        if not k:
            continue
        xp, attn = cache["xp"], cache["attn"]
        length = xp.shape[0]
        scratch = work.scratch(length, k)
        v_hat, xp_norms = _unit_rows(xp, scratch["v_hat"])
        rows = [chosen[step - 1] for step in v.steps]
        u = cache["slots"][rows]
        u_norms = np.linalg.norm(u, axis=1, keepdims=True)
        u_hat = u / u_norms
        # K' x L cosines, one row per annotated step, and three K' x L
        # blocks that the frame gradient reads as one product: the
        # selected attention rows, their logit gradient d_z and g_cos,
        # the cosine gradient, over the frames' norms; until then the
        # first and last hold the loss's exponentials
        cos = np.matmul(u_hat, v_hat.T, out=scratch["cos"])
        stack = scratch["stack"]
        attn_sel, d_z, g_cos = stack[:k], stack[k:2 * k], stack[2 * k:]
        # the loss is the log-sum-exp of the logits over all frames less
        # that over the step's frames, each shifted by its own max; the
        # step's max leaves every exponent of its frames <= 0, and the
        # other frames' exponents are clipped to 0, then zeroed
        positive = v.positive
        logits = np.divide(cos, _GAMMA, out=g_cos)
        top_all = logits.max(axis=1, keepdims=True)
        top_pos = logits.max(axis=1, keepdims=True, where=positive,
                             initial=-np.inf)
        e_all = np.exp(np.subtract(logits, top_all, out=attn_sel),
                       out=attn_sel)
        logits -= top_pos
        e_pos = np.exp(np.minimum(logits, 0.0, out=logits), out=logits)
        e_pos *= positive
        sum_all = e_all.sum(axis=1, keepdims=True)
        sum_pos = e_pos.sum(axis=1, keepdims=True)
        sup_losses.append(float(np.mean(
            (top_all + np.log(sum_all)) - (top_pos + np.log(sum_pos)))))
        # g_cos = dL/dcos = (p - q) / gamma with cos = u_hat v_hat^T, where
        # p = e_all / sum_all and q = e_pos / sum_pos
        weight = 1 / (k * n_sup) / _GAMMA
        e_all *= weight / sum_all
        e_pos *= weight / sum_pos
        np.subtract(e_all, e_pos, out=g_cos)
        d_slots = _unit_rows_backward(g_cos @ v_hat, u_hat, u_norms)
        # the frame side's <d_hat, v_hat> per frame is sum_k g_cos cos;
        # cos is not read again, and v_hat only scaled by it, so both
        # take it in place
        cos *= g_cos
        frame_dot = np.add.reduce(cos, axis=0)
        frame_dot /= xp_norms[:, 0]
        v_hat *= frame_dot[:, None]
        g_cos /= xp_norms.T

        # backpropagate through the decoder, in slot space and through the
        # selected slots only: the others get no gradient
        d_ctx = d_slots @ params.w_o.T
        grads.w_o += cache["ctx"][rows].T @ d_slots
        d_ax = d_ctx @ params.w_v.T
        ax = cache["ax"][rows]
        grads.w_v += ax.T @ d_ctx
        # rows indexes attn's rows (slots[rows] above), so "clip" never
        # applies; unlike "raise" it writes into attn_sel unbuffered
        np.take(attn, rows, axis=0, out=attn_sel, mode="clip")
        # the softmax backward, d_z = attn (d_attn - <attn, d_attn>) scale
        # with d_attn = d_ax xp^T, where <attn, d_attn> = <ax, d_ax>
        np.matmul(d_ax, xp.T, out=d_z)
        d_z -= np.sum(ax * d_ax, axis=1, keepdims=True)
        d_z *= attn_sel
        d_z *= cache["scale"]
        d_qk = d_z @ xp
        grads.w_k += d_qk.T @ cache["qp"][rows]
        d_qp = d_qk @ params.w_k
        # add.at sums the query gradients of a selection that repeats a
        # slot, where a fancy-index += keeps only one of them. The values
        # are widened first: add.at casting them one by one is the same
        # sum, several times slower
        np.add.at(grads.queries, rows,
                  (d_qp @ params.w_q.T).astype(grads.queries.dtype, copy=False))
        grads.w_q += params.queries[rows].T @ d_qp
        # d_xp = attn^T d_ax + d_z^T qk + g_cos^T u_hat - v_hat frame_dot
        d_xp = np.matmul(stack.T,
                         np.concatenate((d_ax, cache["qk"][rows], u_hat)),
                         out=scratch["d_xp"])
        d_xp -= v_hat
        grads.proj_v += v.x.T @ d_xp

    return float(np.mean(sup_losses)) if sup_losses else 0.0, grads


def _align_tail(selected: np.ndarray, frame_embed: np.ndarray, drop_pct: float,
                out: np.ndarray | None = None) -> list[tuple[int, Segment]]:
    """``align_frames_to_slots`` past its check; the frames' unit rows are
    written into ``out``, a float64 array, when it is given."""
    cost = -(l2_normalize_rows(selected) @ _unit_rows(frame_embed, out)[0].T)
    visited, _ = drop_dtw(cost, percentile_drop_cost(cost, drop_pct))
    return decode_segments(visited)


def align_frames_to_slots(selected: np.ndarray, frame_embed: np.ndarray,
                          drop_pct: float) -> list[tuple[int, Segment]]:
    """Inference tail: align the per-step slot sequence to frames with
    droppable DTW (slots must match, frames may drop at the percentile
    cost) and decode one segment per step, no two overlapping. Both sides
    pass ``check_features`` at one width and are normalized in float64,
    whatever their dtype."""
    check_features(selected, "selected")
    check_features(frame_embed, "frame_embed (as wide as selected)",
                   selected.shape[1])
    return _align_tail(selected, frame_embed, drop_pct)


def align_video(params: ModelParams, frames: np.ndarray,
                step_feats: np.ndarray, drop_pct: float,
                normalize_features: bool) -> list[tuple[int, Segment]]:
    """Full inference: decode the video's slots, pick one per step, then
    align the selected slots to the video's frames and read off one
    segment per step. The decoder computes in the frames' dtype, over
    parameters cast once; frames or step texts that ``check_features``
    rejects at ``params.feature_dim`` raise ValidationError, and so does
    an all-zero frame row, naming the frame. Only the slots and the
    projected frames are kept after the forward."""
    check_features(frames, "frames", params.feature_dim)
    check_features(step_feats, "step_feats", params.feature_dim)
    params = params.astype(compute_dtype(frames))
    [cache] = forward_slots(
        params, [_decoder_input(frames, normalize_features, "video")])
    slots, xp = cache["slots"], cache["xp"]
    del cache
    rows = select_slots([slots], [step_feats @ params.proj_t], drop_pct)[0]
    return _align_tail(slots[rows], xp, drop_pct)


def evaluate_alignment_f1(params: ModelParams, videos: Sequence[FoldVideo],
                          config: TrainConfig, work: TrainWorkspace) -> float:
    """Mean frame-F1 of the videos' alignments: ``compute_selections`` on
    chunks of at most ``_BATCH_SIZE`` videos, then each video's selected
    slots aligned to its projected frames. The frame-sized arrays, the
    alignment's unit frames among them, are written into the workspace,
    which needs a slot per video of a chunk."""
    scores = []
    for lo in range(0, len(videos), _BATCH_SIZE):
        chunk = videos[lo:lo + _BATCH_SIZE]
        selections, caches = compute_selections(params, chunk, config, work)
        for v, rows, cache in zip(chunk, selections, caches):
            segments = _align_tail(
                cache["slots"][rows], cache["xp"], config.drop_pct,
                work.scratch(v.x.shape[0])["unit"])
            scores.append(frame_metrics(
                rasterize(segments, v.gt_labels.shape[0]), v.gt_labels)["f1"])
    return float(np.mean(scores)) if scores else 0.0


def _check_fold(corpus: Corpus, fold: FoldSpec, config: TrainConfig) -> None:
    """Reject, before any training, a fold whose tasks have more steps than
    the decoder has slots, or whose val or test videos have fewer frames
    than steps: each step needs slots, and at inference frames, of its own."""
    steps = {vid: corpus.texts[corpus.video_by_id(vid).task].num_steps
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


def _fold_videos(corpus: Corpus, fold: FoldSpec, video_ids: Sequence[str],
                 normalize_features: bool) -> list[FoldVideo]:
    """The fold's ``FoldVideo`` of each id; a video they reject raises
    ValidationError naming the fold."""
    try:
        return [FoldVideo.from_corpus(corpus, vid, normalize_features)
                for vid in video_ids]
    except ValidationError as exc:
        raise ValidationError(f"fold {fold.fold_id}: {exc}") from None


def train_alignment_fold(corpus: Corpus, fold: FoldSpec,
                         config: TrainConfig) -> Training:
    """Mini-batch training on one fold, the batches of each epoch drawn
    from a fresh permutation; returns the checkpoint with the best
    validation frame-F1 (earlier epoch wins ties)."""
    config.validate()
    corpus.check_fold(fold)
    _check_fold(corpus, fold, config)
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(101, fold.fold_id)))
    corpus.set_phase(f"fold{fold.fold_id}:train-align")
    train = _fold_videos(corpus, fold, fold.train, config.normalize_features)
    val = _fold_videos(corpus, fold, fold.val, config.normalize_features)
    params = ModelParams.init(rng, feature_dim=corpus.feature_dim,
                              working_dim=config.working_dim,
                              num_queries=config.num_queries)
    work = TrainWorkspace(
        params.astype(compute_dtype(*(v.x for v in (*train, *val)))),
        min(_BATCH_SIZE, max(len(train), len(val))),
        max(v.x.shape[0] for v in (*train, *val)),
        max(v.steps.size for v in train))

    def batches(epoch: int):
        order = rng.permutation(len(train))
        for lo in range(0, len(order), _BATCH_SIZE):
            batch = [train[i] for i in order[lo:lo + _BATCH_SIZE]]
            selections, caches = compute_selections(params, batch, config,
                                                    work)
            loss, grads = batch_loss_and_grads(params, batch, selections,
                                               caches, work)
            yield loss, grads.flat

    return fit(Training(fold.fold_id, params.copy()), params, batches,
               lambda: evaluate_alignment_f1(params, val, config, work),
               config.epochs)


def save_model(path, training: Training, config: TrainConfig) -> None:
    meta = {
        "kind": "alignment",
        "seed": config.seed,
        "epoch": training.best_epoch,
        "val_f1": training.best_score,
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
    "l2_normalize_rows", "ModelParams", "TrainConfig",
    "FoldVideo", "TrainWorkspace",
    "forward_slots", "select_slots",
    "compute_selections", "batch_loss_and_grads", "align_frames_to_slots",
    "align_video", "evaluate_alignment_f1",
    "train_alignment_fold", "save_model", "load_model",
]
