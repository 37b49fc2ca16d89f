"""Monotone sequence alignment with droppable items (Drop-DTW).

The alignment space: every slot (row) is matched and any subset of items
(columns) may be dropped. The kept items are visited by a monotone
staircase that starts on the first slot and ends on the last one, using
diagonal, right, and down moves; every visited cell is a match and every
dropped item pays the drop cost. With drops priced out of reach the space
reduces exactly to classic DTW.

``drop_dtw`` runs one numpy prefix scan per slot row: the row's best
costs with trailing drops are W plus the running minimum of (cost + best
entry from the row above - W), where W is the running sum of
min(cost, drop cost). The transition decisions are then taken for every
cell at once, and the backtrace steps once per row, since within a row
the path visits every kept item between the cell where it enters the row
and the cell where it leaves.

Ties are resolved deterministically: matching is preferred over dropping,
and transition sources are tried diagonal, then row, then column, then
fresh start. The scan sums in another order than a cell-by-cell
evaluation, so values within a rounding bound of each other count as
tied; exact ties therefore resolve as they would cell by cell. That
cell-by-cell loop and an exhaustive enumeration of the same space are the
test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Segment
from .errors import ValidationError

_INF = float("inf")
_EPS = float(np.finfo(np.float64).eps)


@dataclass
class AlignmentPath:
    """Matches plus the dropped items.

    ``matches`` is ordered along the staircase and monotone in both
    coordinates; an item shared by consecutive slots (or vice versa)
    appears in several matches.
    """

    matches: list[tuple[int, int]]
    dropped_items: list[int]
    total_cost: float

    def validate(self, n_slots: int, n_items: int) -> None:
        """Structural sanity: every slot matched, items partitioned into
        matched and dropped, matches monotone."""
        matched_slots = {i for i, _ in self.matches}
        matched_items = {j for _, j in self.matches}
        if matched_slots != set(range(n_slots)):
            raise ValidationError("not every slot is matched")
        if matched_items & set(self.dropped_items):
            raise ValidationError("an item is both matched and dropped")
        if matched_items | set(self.dropped_items) != set(range(n_items)):
            raise ValidationError("items are not partitioned into matched/dropped")
        for (i0, j0), (i1, j1) in zip(self.matches, self.matches[1:]):
            if i1 < i0 or j1 < j0:
                raise ValidationError("matches are not monotone")


def percentile_drop_cost(cost: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile over all matrix entries.

    The 1-based rank is ceil(pct * n / 100); the product is taken before
    the division so that exact ranks like 80% of 5 do not drift in float.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        raise ValidationError("percentile of an empty cost matrix")
    if not (0.0 < pct <= 100.0):
        raise ValidationError(f"percentile must be in (0, 100], got {pct}")
    flat = np.sort(cost, axis=None)
    rank = max(1, math.ceil(pct * flat.size / 100.0))
    return float(flat[rank - 1])


def _check_cost(cost: np.ndarray) -> np.ndarray:
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] < 1 or cost.shape[1] < 1:
        raise ValidationError(f"cost matrix must be 2-d and nonempty, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValidationError("cost matrix contains non-finite entries")
    return cost


def drop_dtw(cost: np.ndarray, drop_item_cost: float) -> AlignmentPath:
    """Minimum-cost monotone alignment with droppable items.

    Every slot must be matched; every dropped item costs
    ``drop_item_cost``. The drop cost must be finite: price drops out with
    a large finite value rather than an infinity sentinel.
    """
    cost = _check_cost(cost)
    if not math.isfinite(drop_item_cost):
        raise ValidationError("drop_item_cost must be finite")
    n, m = cost.shape
    di = float(drop_item_cost)

    # M[i, j]: best alignment prefix whose last visited cell is (i, j).
    # RD[i, j]: M[i, j'] for some j' <= j plus drops for items j'+1..j.
    # ext[j] is the cheaper way into (i, j) from the row above, or the
    # fresh start after j drops on row 0. Then
    #   M[j] = c[j] + min(ext[j], RD[j-1]),  RD[j] = min(M[j], RD[j-1] + di)
    # unrolls to the prefix scan RD = W + cummin(c + ext - W) with
    # W = cumsum(min(c, di)).
    W = np.cumsum(np.minimum(cost, di), axis=1)
    M = np.empty((n, m))
    padded = np.empty((n, m + 1))
    padded[:, 0] = _INF
    RD, rd_left = padded[:, 1:], padded[:, :-1]     # rd_left[i, j] = RD[i, j-1]
    start = np.arange(m) * di
    ext, above = start, None
    for c_row, w_row, cw_row, rd_row, left_row, m_row in zip(
            cost, W, cost - W, RD, rd_left, M):
        if above is not None:
            ext = np.minimum(*above)
        np.add(w_row, np.minimum.accumulate(ext + cw_row), out=rd_row)
        np.add(c_row, np.minimum(ext, left_row), out=m_row)
        above = m_row, left_row

    # Decisions for every cell at once. The scan sums in another order
    # than a cell-by-cell evaluation, so values that one makes exactly
    # equal can differ here in the last bits (by at most a tenth of
    # ``tol`` on negative-cosine costs up to 12x1340); values within
    # ``tol`` count as tied. Ties keep the earlier source: diagonal, then
    # row, then column; on row 0 the row before a fresh start; matching
    # an item before dropping it.
    tol = (n + m) * _EPS * max(np.abs(W).max(), np.abs(M).max())
    diag, row, col = rd_left[:-1], rd_left[1:], M[:-1]      # into rows 1..n-1
    near_best = np.minimum(np.minimum(diag, row), col) + tol
    diag_move = diag <= near_best
    row_move = np.empty((n, m), dtype=bool)
    row_move[0] = start >= rd_left[0] - tol
    row_move[1:] = (row <= near_best) & ~diag_move
    dropped = rd_left + di < M - tol

    # Backtrace, one row at a time. The path leaves row i at item
    # leave[i] and, by row moves, visits every kept item back to
    # enter[i], the last kept item before it not reached by a row move.
    items = np.arange(m)
    last_kept = np.maximum.accumulate(np.where(dropped, -1, items), axis=1)
    last_entry = np.maximum.accumulate(
        np.where(dropped | row_move, -1, items), axis=1)
    enter = [0] * n
    leave = [0] * n
    j = int(last_kept[n - 1, m - 1])
    for i in range(n - 1, -1, -1):
        leave[i] = j
        if row_move[i, j]:
            j = int(last_entry[i, j - 1])
        enter[i] = j
        if i and diag_move[i - 1, j]:
            j = int(last_kept[i - 1, j - 1])

    visited = ~dropped & (items >= np.array(enter)[:, None]) \
        & (items < np.array(leave)[:, None])
    visited[np.arange(n), leave] = True
    rows, cols = np.nonzero(visited)            # row-major is path order
    matched = np.zeros(m, dtype=bool)
    matched[cols] = True
    return AlignmentPath(
        matches=list(zip(rows.tolist(), cols.tolist())),
        dropped_items=np.flatnonzero(~matched).tolist(),
        total_cost=float(RD[n - 1, m - 1]),
    )


def decode_segments(path: AlignmentPath, slot_to_step: dict[int, int],
                    num_frames: int) -> list[tuple[int, Segment]]:
    """Turn a slot-to-frame alignment into one segment per step.

    Each step's segment spans from its first to its last matched frame;
    steps whose slots were never matched are simply absent. The matches
    must be monotone, as ``drop_dtw`` returns them.
    """
    first_frame = dict(reversed(path.matches))
    last_frame = dict(path.matches)
    bounds: dict[int, tuple[int, int]] = {}
    for slot, hi in last_frame.items():
        if slot not in slot_to_step:
            raise ValidationError(f"matched slot {slot} has no step mapping")
        step = slot_to_step[slot]
        lo = first_frame[slot]
        if step in bounds:
            lo, hi = min(lo, bounds[step][0]), max(hi, bounds[step][1])
        bounds[step] = (lo, hi)
    out = []
    for step in sorted(bounds):
        lo, hi = bounds[step]
        if hi + 1 > num_frames:
            raise ValidationError(
                f"decoded segment for step {step} exceeds num_frames {num_frames}")
        out.append((step, Segment(lo, hi + 1)))
    return out


__all__ = [
    "AlignmentPath", "percentile_drop_cost", "drop_dtw", "decode_segments",
]
