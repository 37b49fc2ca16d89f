"""Monotone sequence alignment with droppable items (Drop-DTW).

The alignment space: every slot (row) is matched and any subset of items
(columns) may be dropped. The kept items are visited by a monotone
staircase that starts on the first slot and ends on the last one, using
diagonal and right moves, so each row owns items that no other row
visits and a matrix needs at least as many columns as rows; every
visited cell is a match and every dropped item pays the drop cost.

One kernel serves a stack of cost matrices of one shape, each with its
own drop cost; ``drop_dtw`` is its one-matrix case and
``drop_dtw_stack`` aligns a batch, as slot selection does for the videos
of a training step. The drop costs' nearest-rank percentile is likewise
written once, for a stack in ``percentile_drop_cost_stack`` and for
one matrix in ``percentile_drop_cost``; as with the kernel, the stack
form takes only 3-d costs and the one-matrix form only 2-d ones. Both
kernel forms return the mask of the cells the path visits and the
total; ``decode_segments`` reads one segment per row off the mask. The
kernel runs one numpy prefix scan per slot row, over that row
of every matrix at once: the row's best costs with trailing drops are W
plus the running minimum of (cost + best entry from the row above - W),
where W is the running sum of min(cost, drop cost). The transition
decisions are then taken for every cell of the stack at once. The
backtrace is a scalar loop per matrix that steps once per row, since
within a row the path visits every kept item between the cell where it
enters the row and the cell where it leaves. It finds those cells by
``bytes.rfind`` over the row's bytes of the kept and entry masks, each
taken as bytes once: the last kept item of the row above before the
entry, and the last entry of the row before a row move. Every such
search finds an item, because cell (i, i) of every row i is kept and is
an entry, since no path reaches it from the left.

Ties are resolved deterministically: matching is preferred over dropping,
and transition sources are tried diagonal, then row, then fresh start.
The scan sums in another order than a cell-by-cell evaluation, so values
within a rounding bound of each other count as tied; exact ties
therefore resolve as they would cell by cell. The bound scales with each
matrix's own values, so a matrix's path does not depend on the other
matrices in its stack. That cell-by-cell loop and an exhaustive
enumeration of the same space are the test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Segment
from .errors import ValidationError, check_real, check_type

_INF = float("inf")
_EPS = float(np.finfo(np.float64).eps)


def _nearest_rank(costs: np.ndarray, pct: float, ndim: int) -> np.ndarray:
    """Nearest-rank percentile over the entries of each matrix of the
    ``ndim``-d array ``costs``, a stack of matrices or one matrix, in
    float64; an array of another rank raises ValidationError naming its
    shape.

    The 1-based rank is ceil(pct * n / 100) for the n entries of a matrix;
    the product is taken before the division so that exact ranks like 80%
    of 5 do not drift in float. ``np.partition`` puts the element of that
    rank of every matrix in place without sorting the rest.
    """
    if isinstance(pct, bool) or not isinstance(pct, (int, float)):
        raise ValidationError(f"pct must be an int or a float, got {pct!r}")
    costs = np.asarray(costs)
    check_real(costs, "cost matrix")
    if costs.ndim != ndim:
        raise ValidationError(
            f"percentile needs a {ndim}-d cost array, got shape {costs.shape}")
    if costs.size == 0:
        raise ValidationError("percentile of an empty cost matrix")
    if not (0.0 < pct <= 100.0):
        raise ValidationError(f"percentile must be in (0, 100], got {pct}")
    flat = costs.astype(np.float64, copy=False).reshape(
        -1, costs.shape[-2] * costs.shape[-1])
    kth = max(1, math.ceil(pct * flat.shape[1] / 100.0)) - 1
    return np.partition(flat, kth, axis=1)[:, kth]


def percentile_drop_cost_stack(costs: np.ndarray, pct: float) -> np.ndarray:
    """The nearest-rank percentile over the entries of each matrix of the
    B x n x m stack ``costs``: the B values for the matrices ``costs[b]``,
    in float64."""
    return _nearest_rank(costs, pct, ndim=3)


def percentile_drop_cost(cost: np.ndarray, pct: float) -> float:
    """``percentile_drop_cost_stack`` of the one n x m matrix ``cost``: the
    nearest-rank percentile over all its entries."""
    return float(_nearest_rank(cost, pct, ndim=2)[0])


def _check_cost(cost: np.ndarray, ndim: int = 2) -> np.ndarray:
    """``cost`` in float64 once its rules hold: ints or floats, ``ndim``
    axes, nonempty, no more rows than columns and finite."""
    cost = np.asarray(cost)
    check_real(cost, "cost matrix")
    cost = cost.astype(np.float64, copy=False)
    if cost.ndim != ndim or 0 in cost.shape:
        raise ValidationError(
            f"cost matrix must be {ndim}-d and nonempty, got {cost.shape}")
    if cost.shape[-2] > cost.shape[-1]:
        raise ValidationError(f"cost matrix has {cost.shape[-2]} rows but "
                              f"only {cost.shape[-1]} columns")
    if not np.all(np.isfinite(cost)):
        raise ValidationError("cost matrix contains non-finite entries")
    return cost


def _scan_rows(cost: np.ndarray, di: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel on an n x B x m stack laid out slot row first, so that
    one step of the scan handles row i of every matrix; ``di`` holds the B
    drop costs. Returns the n x B x m visited mask and the B totals."""
    n, b, m = cost.shape
    di = di[:, None]                            # broadcasts over items

    # M[i, j]: best alignment prefix whose last visited cell is (i, j).
    # RD[i, j]: M[i, j'] for some j' <= j plus drops for items j'+1..j.
    # ext[i, j] is RD[i-1, j-1], the way in from the row above (infinite
    # for j < i), or on row 0 the fresh start after j drops. Then
    #   M[j] = c[j] + min(ext[j], RD[j-1]),  RD[j] = min(M[j], RD[j-1] + di)
    # unrolls to the prefix scan RD = W + cummin(c + ext - W) with
    # W = cumsum(min(c, di)); M follows from RD once the scan is done.
    # ``padded`` holds the fresh starts above RD and an infinite column
    # left of it, so that ext = padded[:-1, :, :-1] and rd_left[i, :, j]
    # = RD[i, :, j-1] are both views of it.
    W = np.cumsum(np.minimum(cost, di), axis=2)
    padded = np.empty((n + 1, b, m + 1))
    padded[..., 0] = _INF
    start = np.arange(m) * di
    padded[0, :, :-1] = start
    RD, rd_left = padded[1:, :, 1:], padded[1:, :, :-1]
    ext = padded[:-1, :, :-1]
    for ext_row, cw_row, w_row, rd_row in zip(ext, cost - W, W, RD):
        np.add(ext_row, cw_row, out=rd_row)
        np.minimum.accumulate(rd_row, axis=1, out=rd_row)
        np.add(w_row, rd_row, out=rd_row)
    M = np.minimum(ext, rd_left)
    M += cost

    # Decisions for every cell at once. The scan sums in another order
    # than a cell-by-cell evaluation, so values that one makes exactly
    # equal can differ here in the last bits (by at most a tenth of
    # ``tol`` on negative-cosine costs up to 12x1340); values within
    # ``tol`` count as tied. ``tol`` scales with each matrix's own values
    # over its finite cells, so no matrix's path depends on the others in
    # its stack. Ties keep the earlier source: diagonal before row; on row
    # 0 the row before a fresh start; matching an item before dropping it.
    finite_m = np.where(np.isfinite(M), np.abs(M), 0.0)
    scale = np.maximum(np.abs(W).max(axis=(0, 2)), finite_m.max(axis=(0, 2)))
    tol = ((n + m) * _EPS * scale)[:, None]
    row_move = np.empty((n, b, m), dtype=bool)
    row_move[0] = start >= rd_left[0] - tol
    row_move[1:] = rd_left[:-1] > rd_left[1:] + tol     # diagonal > row
    dropped = rd_left + di < M - tol

    # Backtrace, one row at a time for each matrix. The path leaves a row
    # at a kept item and, by row moves, visits every kept item back to the
    # one where it entered the row: the last entry, a kept item not reached
    # by a row move, before it. It entered from the row above, which it
    # left at the last kept item of that row before the entry. Each such
    # search is a bytes.rfind over that row of a mask taken as bytes once,
    # in C order, so cell (i, k, j) is byte (i * b + k) * m + j, and the
    # row's visited cells are copied from the kept mask's bytes. Every
    # search finds an item: in every row i the cell (i, i) is kept and is
    # an entry, since rd_left is infinite there, and each search of row i
    # runs over items 0..j-1 with j > i.
    kept = (~dropped).tobytes()
    entry = (~(dropped | row_move)).tobytes()
    moved = row_move.tobytes()
    visited = bytearray(n * b * m)
    stride = b * m
    for k in range(b):
        base = (n - 1) * stride + k * m
        p = kept.rfind(b"\x01", base, base + m)
        for i in range(n - 1, -1, -1):
            leave = p + 1
            if moved[p]:
                p = entry.rfind(b"\x01", base, p)
            visited[p:leave] = kept[p:leave]
            if i:
                base -= stride
                p = kept.rfind(b"\x01", base, p - stride)
    visited = np.frombuffer(visited, dtype=bool).reshape(n, b, m)
    return visited, RD[n - 1, :, m - 1]


def drop_dtw(cost: np.ndarray, drop_item_cost: float
             ) -> tuple[np.ndarray, float]:
    """Minimum-cost monotone alignment with droppable items.

    Every slot must be matched to items of its own (so the matrix has no
    more rows than columns); every dropped item costs ``drop_item_cost``.
    The drop cost must be a finite int or float: price drops out with a
    large finite value rather than an infinity sentinel. Returns the n x m
    mask of the cells the path visits, whose unvisited columns are the
    dropped items, and the total cost.
    """
    cost = _check_cost(cost)
    check_type(drop_item_cost, (int, float), "drop_item_cost")
    if not math.isfinite(drop_item_cost):
        raise ValidationError("drop_item_cost must be finite")
    visited, total = _scan_rows(cost[:, None], np.array([float(drop_item_cost)]))
    return visited[:, 0], float(total[0])


def drop_dtw_stack(costs: np.ndarray, drop_item_costs: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``drop_dtw`` on each matrix of a B x n x m stack, matrix b with drop
    cost ``drop_item_costs[b]``.

    Returns the B x n x m mask of the cells each optimal path visits and
    the B total costs. Each matrix gets the path and total that
    ``drop_dtw`` gives it alone.
    """
    costs = _check_cost(costs, ndim=3)
    drop_item_costs = np.asarray(drop_item_costs)
    check_real(drop_item_costs, "drop_item_cost")
    drop_item_costs = drop_item_costs.astype(np.float64, copy=False)
    if drop_item_costs.shape != costs.shape[:1]:
        raise ValidationError(
            f"need one drop cost per matrix, got {drop_item_costs.shape} "
            f"for {costs.shape[0]} matrices")
    if not np.all(np.isfinite(drop_item_costs)):
        raise ValidationError("drop_item_cost must be finite")
    visited, total = _scan_rows(costs.transpose(1, 0, 2), drop_item_costs)
    return visited.transpose(1, 0, 2), total


def decode_segments(visited: np.ndarray) -> list[tuple[int, Segment]]:
    """One segment per step from a ``drop_dtw`` visited mask: row i is
    step i + 1, and its segment spans from the row's first to its last
    visited column. A mask the kernel cannot produce, one that is not a
    2-d bool array or has a row that visits no item, raises
    ValidationError."""
    visited = np.asarray(visited)
    if visited.dtype != bool:
        raise ValidationError(
            f"visited mask must be bool, got an array of {visited.dtype}")
    if visited.ndim != 2:
        raise ValidationError(
            f"visited mask must be 2-d, got shape {visited.shape}")
    empty = np.flatnonzero(~visited.any(axis=1))
    if empty.size:
        raise ValidationError(
            f"visited mask row {empty[0]} (step {empty[0] + 1}) visits no item")
    first = visited.argmax(axis=1)
    last = visited.shape[1] - 1 - visited[:, ::-1].argmax(axis=1)
    return [(row + 1, Segment(lo, hi + 1))
            for row, (lo, hi) in enumerate(zip(first.tolist(), last.tolist()))]


__all__ = [
    "percentile_drop_cost", "percentile_drop_cost_stack",
    "drop_dtw", "drop_dtw_stack", "decode_segments",
]
