"""Reference implementations that the shipped kernels are tested against.

``drop_dtw_loop`` is the cell-by-cell Drop-DTW recurrence that
``stepalign.alignment.drop_dtw`` replaced with a row scan, and
``brute_force_align`` enumerates the same alignment space exhaustively.
``select_slots_per_video`` is the one-video slot choice that
``stepalign.model.select_slots`` replaced with a masked argmin over a
stack of videos. ``average_precision_pointwise`` computes AP without the
precision envelope that ``stepalign.metrics.average_precision`` uses.
"""

from __future__ import annotations

import math

import numpy as np

from stepalign.alignment import (
    _INF, AlignmentPath, _check_cost, drop_dtw, percentile_drop_cost,
)
from stepalign.errors import ValidationError
from stepalign.features import cosine_matrix

# transition codes for the match table
_T_DIAG, _T_ROW, _T_COL, _T_START = 0, 1, 2, 3


def drop_dtw_loop(cost: np.ndarray, drop_item_cost: float) -> AlignmentPath:
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
            if i > 0 and M[i - 1][j] < best:
                best, which = M[i - 1][j], _T_COL
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

    dropped_items: list[int] = []
    matches_rev: list[tuple[int, int]] = []
    i, j = n - 1, m - 1
    while bp_rd[i][j] == 1:
        dropped_items.append(j)
        j -= 1

    while True:
        matches_rev.append((i, j))
        which = bp_m[i][j]
        if which == _T_START:
            dropped_items.extend(range(j - 1, -1, -1))
            break
        if which == _T_COL:
            i -= 1
            continue
        if which == _T_DIAG:
            i -= 1
        j -= 1
        while bp_rd[i][j] == 1:
            dropped_items.append(j)
            j -= 1

    return AlignmentPath(
        matches=matches_rev[::-1],
        dropped_items=sorted(dropped_items),
        total_cost=RD[n - 1][m - 1],
    )


_BRUTE_MAX_SLOTS = 4
_BRUTE_MAX_ITEMS = 7


def brute_force_align(cost: np.ndarray, drop_item_cost: float) -> AlignmentPath:
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
            j_lo = j if i2 > i else j + 1
            for j2 in range(j_lo, m):
                item_gap = 0.0 if j2 == j else (j2 - j - 1) * di
                extend(i2, j2, acc + item_gap)
        stack.pop()

    for j0 in range(m):
        extend(0, j0, j0 * di)

    assert best_matches is not None
    matched_items = {j for _, j in best_matches}
    return AlignmentPath(
        matches=best_matches,
        dropped_items=[j for j in range(m) if j not in matched_items],
        total_cost=best_cost,
    )


def select_slots_per_video(slots: np.ndarray, step_feats: np.ndarray,
                           drop_pct: float) -> list[int]:
    """One video's slot per step: Drop-DTW of its steps against its slots,
    then each step's cheapest matched slot, the lower index on ties."""
    cost = -cosine_matrix(step_feats, slots)
    path = drop_dtw(cost, percentile_drop_cost(cost, drop_pct))
    chosen: list[int] = []
    for step_row in range(step_feats.shape[0]):
        slot_cols = [j for i, j in path.matches if i == step_row]
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
