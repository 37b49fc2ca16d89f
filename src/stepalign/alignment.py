"""Monotone sequence alignment with droppable items (Drop-DTW).

The alignment space: every slot (row) is matched and any subset of items
(columns) may be dropped. The kept items are visited by a monotone
staircase that starts on the first slot and ends on the last one, using
diagonal, right, and down moves; every visited cell is a match and every
dropped item pays the drop cost. With drops priced out of reach the space
reduces exactly to classic DTW.

Ties are resolved deterministically: matching is preferred over dropping,
and transition sources are tried diagonal, then row, then column, then
fresh start. ``brute_force_align`` enumerates the same space exhaustively
and is the test oracle that pins the recurrence down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Segment
from .errors import ValidationError

_INF = float("inf")


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


# transition codes for the match table
_T_DIAG, _T_ROW, _T_COL, _T_START = 0, 1, 2, 3


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


def decode_segments(path: AlignmentPath, slot_to_step: dict[int, int],
                    num_frames: int) -> list[tuple[int, Segment]]:
    """Turn a slot-to-frame alignment into one segment per step.

    Each step's segment spans from its first to its last matched frame;
    steps whose slots were never matched are simply absent.
    """
    bounds: dict[int, tuple[int, int]] = {}
    for slot, frame in path.matches:
        if slot not in slot_to_step:
            raise ValidationError(f"matched slot {slot} has no step mapping")
        step = slot_to_step[slot]
        lo, hi = bounds.get(step, (frame, frame))
        bounds[step] = (min(lo, frame), max(hi, frame))
    out = []
    for step in sorted(bounds):
        lo, hi = bounds[step]
        if hi + 1 > num_frames:
            raise ValidationError(
                f"decoded segment for step {step} exceeds num_frames {num_frames}")
        out.append((step, Segment(lo, hi + 1)))
    return out


__all__ = [
    "AlignmentPath", "percentile_drop_cost", "drop_dtw",
    "brute_force_align", "decode_segments",
]
