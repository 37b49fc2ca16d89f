"""Reference implementations that the shipped kernels are tested against.

``drop_dtw_loop`` is the cell-by-cell Drop-DTW recurrence that
``stepalign.alignment.drop_dtw`` replaced with a row scan, and
``brute_force_align`` enumerates the same alignment space exhaustively;
both return what ``drop_dtw`` does, the visited mask and the total.
``select_slots_per_video`` is the one-video slot choice that
``stepalign.model.select_slots`` replaced with a masked argmin over a
stack of videos. ``average_precision_pointwise`` computes AP without the
precision envelope that ``stepalign.metrics.average_precision`` uses.
``cosine_matrix`` is the pairwise cosine of two matrices' rows, which
the one-video oracle and the kernel tests build costs from, and
``cosine`` the scalar similarity it is checked against.
``detect_per_segment`` classifies one segment at a time, as
``stepalign.classifier.detect_mistakes`` did before it classified a
whole row matrix at once.

``DictAdam`` is Adam over a dictionary of separate tensors, the update
that ``stepalign.optim.Adam`` runs over one flat buffer.
``classifier_loss_and_grads`` is the classifier epoch that allocates its
activations and gradients afresh and masks the ReLU by boolean indexing;
``train_classifier_fold_per_tensor`` trains with it and ``DictAdam``.
Like the classifier, both classifier oracles compute in the dtype of
the rows or features they are given, over the float64 parameters cast
to it, and the epoch widens each gradient to float64 before Adam.
``forward_slots_kv`` and ``batch_loss_and_grads_kv`` are the decoder's
forward and backward in key/value form, with a key and a value for every
frame, that ``stepalign.model`` replaced with attention in slot space;
like the decoder, they compute in the dtype of the features they are
given.
The trainer oracles and ``batch_loss_and_grads_kv`` read the learning
rate, the decoder's batch size and temperature and the classifier's
beta from the library's module constants when they are called, so a test
that patches a constant drives both sides.
``evaluate_alignment_f1_per_video`` runs ``align_video`` once per
validation video, and ``train_alignment_fold_per_tensor`` trains the
decoder with it and ``DictAdam``. The two trainers are the reference the
allocation-free trainers must match bit for bit. ``fresh_workspace``
allocates a ``TrainWorkspace`` sized for one batch, so that a step
function given one runs over new buffers, the reference that a step over
a reused workspace must match bit for bit. ``reordered_corpus`` holds a
corpus's videos and their feature matrices in another order, the input
of the order-invariance tests.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from stepalign import classifier, model, optim
from stepalign.alignment import (
    _INF, _check_cost, drop_dtw, percentile_drop_cost,
)
from stepalign.classifier import (
    ClassifierParams, ClassifierTraining, _log_softmax, _segment_rows,
    _val_score, class_balanced_weights,
)
from stepalign.corpus import Corpus
from stepalign.data import CoarseLabel, Segment
from stepalign.errors import NumericalError, ValidationError
from stepalign.metrics import (
    Detection, frame_metrics, gt_frame_labels, gt_instances, rasterize,
)
from stepalign.model import (
    FoldVideo, ModelParams, TrainWorkspace, _softmax_rows,
    _unit_rows_backward, align_video, batch_loss_and_grads,
    compute_selections, l2_normalize_rows,
)
from stepalign.optim import EpochLog, Training, compute_dtype

# transition codes for the match table
_T_DIAG, _T_ROW, _T_START = 0, 1, 2


def _mask(shape: tuple[int, int], cells: list[tuple[int, int]]) -> np.ndarray:
    visited = np.zeros(shape, dtype=bool)
    for i, j in cells:
        visited[i, j] = True
    return visited


def drop_dtw_loop(cost: np.ndarray, drop_item_cost: float
                  ) -> tuple[np.ndarray, float]:
    """Minimum-cost monotone alignment with droppable items.

    Every slot must be matched; every dropped item costs
    ``drop_item_cost``. The drop cost must be finite: price drops out with
    a large finite value rather than an infinity sentinel.
    """
    cost = _check_cost(cost)
    if not math.isfinite(drop_item_cost):
        raise ValidationError("drop_item_cost must be finite")
    n, m = cost.shape
    c = cost.tolist()
    di = float(drop_item_cost)

    # M[i][j]: best alignment prefix whose last visited cell is (i, j).
    # RD[i][j]: M[i][j'] for some j' <= j plus drops for items j'+1..j.
    M = [[_INF] * m for _ in range(n)]
    RD = [[_INF] * m for _ in range(n)]
    bp_m = [[_T_START] * m for _ in range(n)]
    bp_rd = [[0] * m for _ in range(n)]          # 0: at M, 1: from left

    for i in range(n):
        row_m, row_rd = M[i], RD[i]
        row_c = c[i]
        for j in range(m):
            # transition sources for matching at (i, j)
            best = _INF
            which = _T_START
            if i > 0 and j > 0 and RD[i - 1][j - 1] < best:
                best, which = RD[i - 1][j - 1], _T_DIAG
            if j > 0 and row_rd[j - 1] < best:
                best, which = row_rd[j - 1], _T_ROW
            if i == 0:
                start = j * di
                if start < best:
                    best, which = start, _T_START
            row_m[j] = row_c[j] + best
            bp_m[i][j] = which

            # row extension: keep the match, or drop item j
            row_rd[j] = row_m[j]
            bp_rd[i][j] = 0
            if j > 0 and row_rd[j - 1] + di < row_rd[j]:
                row_rd[j] = row_rd[j - 1] + di
                bp_rd[i][j] = 1

    matches: list[tuple[int, int]] = []
    i, j = n - 1, m - 1
    while bp_rd[i][j] == 1:
        j -= 1

    while True:
        matches.append((i, j))
        which = bp_m[i][j]
        if which == _T_START:
            break
        if which == _T_DIAG:
            i -= 1
        j -= 1
        while bp_rd[i][j] == 1:
            j -= 1

    return _mask((n, m), matches), RD[n - 1][m - 1]


_BRUTE_MAX_SLOTS = 4
_BRUTE_MAX_ITEMS = 7


def brute_force_align(cost: np.ndarray, drop_item_cost: float
                      ) -> tuple[np.ndarray, float]:
    """Exhaustive search over the drop_dtw alignment space. Test oracle
    only; sizes are capped because enumeration is exponential."""
    cost = _check_cost(cost)
    n, m = cost.shape
    if n > _BRUTE_MAX_SLOTS or m > _BRUTE_MAX_ITEMS:
        raise ValidationError(
            f"brute force capped at {_BRUTE_MAX_SLOTS}x{_BRUTE_MAX_ITEMS}, "
            f"got {n}x{m}")
    if not math.isfinite(drop_item_cost):
        raise ValidationError("drop_item_cost must be finite")
    c = cost.tolist()
    di = float(drop_item_cost)

    best_cost = _INF
    best_matches: list[tuple[int, int]] | None = None
    stack: list[tuple[int, int]] = []

    def finish(i: int, j: int, acc: float) -> None:
        nonlocal best_cost, best_matches
        if i != n - 1:
            return
        total = acc + (m - 1 - j) * di
        if total < best_cost:
            best_cost = total
            best_matches = list(stack)

    def extend(i: int, j: int, acc: float) -> None:
        stack.append((i, j))
        acc += c[i][j]
        finish(i, j, acc)
        for i2 in range(i, min(i + 2, n)):
            for j2 in range(j + 1, m):
                extend(i2, j2, acc + (j2 - j - 1) * di)
        stack.pop()

    for j0 in range(m):
        extend(0, j0, j0 * di)

    assert best_matches is not None
    return _mask((n, m), best_matches), best_cost


def select_slots_per_video(slots: np.ndarray, step_feats: np.ndarray,
                           drop_pct: float) -> list[int]:
    """One video's slot per step: Drop-DTW of its steps against its slots,
    then each step's cheapest matched slot, the lower index on ties."""
    cost = -cosine_matrix(step_feats, slots)
    visited, _ = drop_dtw(cost, percentile_drop_cost(cost, drop_pct))
    chosen: list[int] = []
    for step_row in range(step_feats.shape[0]):
        slot_cols = np.flatnonzero(visited[step_row]).tolist()
        chosen.append(min(slot_cols, key=lambda j: (cost[step_row, j], j)))
    return chosen


def average_precision_pointwise(tp_flags: np.ndarray, n_gt: int) -> float:
    """Independent AP oracle: walk every true positive and scan the whole
    suffix for its interpolated precision, no envelope precomputation."""
    if n_gt <= 0:
        raise ValidationError("AP needs at least one ground-truth instance")
    tp_flags = np.asarray(tp_flags, dtype=bool)
    total = 0.0
    n = len(tp_flags)
    for rank in range(n):
        if not tp_flags[rank]:
            continue
        best = 0.0
        for later in range(rank, n):
            prec = np.count_nonzero(tp_flags[:later + 1]) / (later + 1)
            best = max(best, prec)
        total += best
    return total / n_gt


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities between rows of a and rows of b."""
    return l2_normalize_rows(a) @ l2_normalize_rows(b).T


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; rejects zero vectors rather than fudging with an
    epsilon."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValidationError("cosine of a zero vector is undefined")
    return float(np.dot(u, v) / (nu * nv))


def detect_per_segment(params: ClassifierParams,
                       proposals: list[tuple[int | None, Segment]],
                       video_feats: np.ndarray, step_feats: np.ndarray,
                       video_only: bool = False) -> list[Detection]:
    """One forward per proposal: the segment's features mean-pooled in
    float64, followed, unless ``video_only``, by its step's text vector
    (zero for a step-``None`` proposal) as one input vector in the video
    features' dtype, then a softmax."""
    dtype = compute_dtype(video_feats)
    params = params.astype(dtype)
    out = []
    for step, seg in proposals:
        x = video_feats[seg.start:seg.end].mean(axis=0, dtype=np.float64)
        if not video_only:
            text = (np.zeros(step_feats.shape[1]) if step is None
                    else step_feats[step - 1])
            x = np.concatenate([x, text])
        x = x.astype(dtype)
        h = np.maximum(x @ params.w1 + params.b1, 0.0)
        z = h @ params.w2 + params.b2
        probs = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        label = int(np.argmax(z))
        out.append(Detection(step=step, segment=seg, label=CoarseLabel(label),
                             confidence=float(probs[label])))
    return out


class DictAdam:
    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        """Update parameters in place."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            m = self._m.setdefault(name, np.zeros_like(g))
            v = self._v.setdefault(name, np.zeros_like(g))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def classifier_loss_and_grads(params: ClassifierParams, x: np.ndarray,
                              y: np.ndarray, weights: np.ndarray
                              ) -> tuple[float, dict[str, np.ndarray]]:
    n = x.shape[0]
    params = params.astype(x.dtype)
    h_pre = x @ params.w1 + params.b1
    h = np.maximum(h_pre, 0.0)
    z = h @ params.w2 + params.b2
    log_probs = _log_softmax(z)
    losses = -log_probs[np.arange(n), y] * weights
    loss = float(np.mean(losses))
    probs = np.exp(log_probs)
    d_z = probs.copy()
    d_z[np.arange(n), y] -= 1.0
    d_z *= (weights / n)[:, None]
    # the products round in the rows' dtype and are then widened; the
    # sums accumulate in float64
    grads = {
        "w2": (h.T @ d_z).astype(np.float64),
        "b2": d_z.sum(axis=0, dtype=np.float64),
    }
    d_h = d_z @ params.w2.T
    d_h[h_pre <= 0.0] = 0.0
    grads["w1"] = (x.T @ d_h).astype(np.float64)
    grads["b1"] = d_h.sum(axis=0, dtype=np.float64)
    return loss, grads


def train_classifier_fold_per_tensor(corpus, fold, config) -> ClassifierTraining:
    x, y, _ = _segment_rows(corpus, fold.train, config.video_only)
    counts = {label: int(np.sum(y == int(label))) for label in CoarseLabel}
    weights = class_balanced_weights(classifier._BETA,
                                     list(counts.values()))[y]
    val = _segment_rows(corpus, fold.val, config.video_only)
    val_truth = {vid: gt_instances(corpus.video_by_id(vid)) for vid in fold.val}
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(202, fold.fold_id,
                                                       int(config.video_only))))
    params = ClassifierParams.init(rng, input_dim=x.shape[1],
                                   hidden=config.hidden)
    opt = DictAdam(optim._LEARNING_RATE)
    best = ClassifierTraining(fold_id=fold.fold_id, params=params.copy(),
                              best_epoch=-1, best_score=-1.0,
                              class_counts=counts)
    for epoch in range(config.epochs):
        loss, grads = classifier_loss_and_grads(params, x, y, weights)
        if not math.isfinite(loss):
            raise NumericalError(
                f"fold {fold.fold_id} epoch {epoch}: non-finite classifier loss")
        tensors = params.as_dict()
        opt.step(tensors, grads)
        if epoch % classifier._VAL_EVERY == 0 or epoch == config.epochs - 1:
            score = _val_score(params, *val, val_truth)
            best.log.append(EpochLog(epoch, loss, score))
            if score > best.best_score:
                best.best_score = score
                best.best_epoch = epoch
                best.params = params.copy()
            elif epoch >= best.best_epoch + classifier._PATIENCE:
                # both constants are read at call time, so a test's cadence
                # and patience apply here too; the patience is >= 1, so a
                # round that just improved never stops
                break
    return best


def evaluate_alignment_f1_per_video(params: ModelParams, corpus, video_ids,
                                    config) -> float:
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


def fresh_workspace(params: ModelParams, batch: Sequence[FoldVideo]
                    ) -> TrainWorkspace:
    """A new workspace for this one batch: a slot per video and a scratch
    for its longest video and most annotated steps, in the dtype the
    decoder computes in for the batch's features."""
    return TrainWorkspace(
        params.astype(compute_dtype(*(v.x for v in batch))), len(batch),
        max((v.x.shape[0] for v in batch), default=0),
        max((v.steps.size for v in batch), default=0))


def train_alignment_fold_per_tensor(corpus, fold, config) -> Training:
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(101, fold.fold_id)))
    examples = [FoldVideo.from_corpus(corpus, vid, config.normalize_features)
                for vid in fold.train]
    params = ModelParams.init(rng, feature_dim=corpus.feature_dim,
                              working_dim=config.working_dim,
                              num_queries=config.num_queries)
    opt = DictAdam(optim._LEARNING_RATE)
    best = Training(fold_id=fold.fold_id, params=params.copy(),
                    best_epoch=-1, best_score=-1.0)
    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        epoch_losses = []
        for lo in range(0, len(order), model._BATCH_SIZE):
            batch = [examples[i] for i in order[lo:lo + model._BATCH_SIZE]]
            selections, caches = compute_selections(
                params, batch, config, fresh_workspace(params, batch))
            loss, grads = batch_loss_and_grads(
                params, batch, selections, caches,
                fresh_workspace(params, batch))
            del caches
            tensors = params.as_dict()
            opt.step(tensors, grads.as_dict())
            epoch_losses.append(loss)
        val_f1 = evaluate_alignment_f1_per_video(params, corpus, fold.val,
                                                 config)
        best.log.append(EpochLog(epoch=epoch, loss=float(np.mean(epoch_losses)),
                                 val_score=val_f1))
        if val_f1 > best.best_score:
            best.best_score = val_f1
            best.best_epoch = epoch
            best.params = params.copy()
    return best


def forward_slots_kv(params: ModelParams, video: np.ndarray
                     ) -> tuple[np.ndarray, dict]:
    """``forward_slots`` in its first form: every frame is projected to a
    key and a value, and the cache holds both."""
    video = np.asarray(video)
    if video.ndim != 2 or video.shape[1] != params.feature_dim:
        raise ValidationError(
            f"video features must be L x {params.feature_dim}, got {video.shape}")
    params = params.astype(compute_dtype(video))
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
    cache = {"x": video, "xp": xp, "qp": qp, "km": km, "vm": vm,
             "attn": attn, "ctx": ctx, "slots": slots, "scale": scale}
    return slots, cache


def _logsumexp(z: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-D array."""
    m = np.max(z, axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(z - m), axis=1, keepdims=True)))[:, 0]


def batch_loss_and_grads_kv(params: ModelParams, batch: Sequence[FoldVideo],
                            selections: list[list[int]], caches: list[dict]
                            ) -> tuple[float, ModelParams]:
    """``batch_loss_and_grads`` in its first form, over the caches of
    ``forward_slots_kv``: the decoder backward runs through the per-frame
    keys and values."""
    params = params.astype(compute_dtype(*(v.x for v in batch)))
    grads = params.zeros_like()
    gamma = model._GAMMA
    # mean over steps within a video, then over the annotated videos
    n_sup = sum(1 for v in batch if v.gt_labels.any())
    sup_losses = []
    for v, chosen, cache in zip(batch, selections, caches):
        gt = v.gt_labels
        if not gt.any():
            continue
        steps = np.unique(gt[gt > 0])
        xp_norms = np.linalg.norm(cache["xp"], axis=1, keepdims=True)
        v_hat = cache["xp"] / xp_norms
        rows = [chosen[step - 1] for step in steps]
        u = cache["slots"][rows]
        u_norms = np.linalg.norm(u, axis=1, keepdims=True)
        u_hat = u / u_norms
        # K' x L cosine logits, one row per annotated step
        logits = (u_hat @ v_hat.T) / gamma
        positive = gt == steps[:, None]
        lse_all = _logsumexp(logits)
        lse_pos = _logsumexp(np.where(positive, logits, -np.inf))
        sup_losses.append(float(np.mean(lse_all - lse_pos)))
        p = np.exp(logits - lse_all[:, None])
        q = np.exp(np.where(positive, logits - lse_pos[:, None], -np.inf))
        # g_cos = dL/dcos with cos = u_hat v_hat^T; a selection may
        # repeat a slot, so the slot gradients accumulate with add.at
        g_cos = (p - q) * (1 / (len(rows) * n_sup) / gamma)
        d_slots = np.zeros_like(cache["slots"])
        np.add.at(d_slots, rows, _unit_rows_backward(g_cos @ v_hat, u_hat, u_norms))
        d_xp_sup = _unit_rows_backward(g_cos.T @ u_hat, v_hat, xp_norms)

        # backpropagate through the decoder
        d_ctx = d_slots @ params.w_o.T
        grads.w_o += cache["ctx"].T @ d_slots
        d_attn = d_ctx @ cache["vm"].T
        d_vm = cache["attn"].T @ d_ctx
        attn = cache["attn"]
        d_z = attn * (d_attn - np.sum(attn * d_attn, axis=1, keepdims=True))
        d_z *= cache["scale"]
        d_qp = d_z @ cache["km"]
        d_km = d_z.T @ cache["qp"]
        grads.queries += d_qp @ params.w_q.T
        grads.w_q += params.queries.T @ d_qp
        d_xp = d_km @ params.w_k.T + d_vm @ params.w_v.T + d_xp_sup
        grads.w_k += cache["xp"].T @ d_km
        grads.w_v += cache["xp"].T @ d_vm
        grads.proj_v += cache["x"].T @ d_xp

    total_loss = float(np.mean(sup_losses)) if sup_losses else 0.0
    if not math.isfinite(total_loss):
        raise NumericalError("non-finite training loss")
    return total_loss, grads


def reordered_corpus(corpus: Corpus, order: Sequence[int]) -> Corpus:
    """``corpus`` with ``videos``, and the features dict with them, in
    ``order``, a permutation of the video indices."""
    videos = [corpus.videos[i] for i in order]
    return Corpus(texts=corpus.texts, videos=videos,
                  features={v.video_id: corpus.features[v.video_id]
                            for v in videos},
                  step_features=corpus.step_features)
