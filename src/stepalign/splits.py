"""Grouped k-fold construction with per-task intent balance.

Every fold's validation and test sets each contain exactly one correct-run
and one mistake-run video per task, and the evaluation half of a fold
(val plus test) is a union of whole worker groups so that no worker's
videos appear on both sides of the train/eval boundary. Val and test may
share a worker only when the corpus leaves no alternative.

One search, `_exact_groups`, finds both kinds of worker group. Over all
workers it finds the eval sets, which hold exactly two videos of each
(task, intent); over an eval set's workers it finds the val/test sides,
which hold exactly one. A side is taken in the orientation that holds the
eval set's first worker, the rest of the eval set is the other side, and
the seed picks the side and which half is val. The seeded permutation of
the eval sets indexes them in the search's include-first depth-first
order, so that order is part of every fold.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from types import SimpleNamespace

import numpy as np

from .data import AnnotatedVideo, FoldSpec, Intent, TaskDomain
from .errors import InfeasibleSplitError, check_counts

_MAX_WORKERS_FOR_SEARCH = 24


def _exact_groups(workers: tuple[str, ...], worker_videos: dict[str, dict],
                  keys: list[tuple[TaskDomain, Intent]],
                  per_key: int) -> list[tuple[str, ...]]:
    """Every subset of workers holding exactly per_key videos of each
    (task, intent), in include-first depth-first order over workers."""
    found: list[tuple[str, ...]] = []

    def extend(idx: int, chosen: list[str], counts: dict) -> None:
        if all(counts[key] == per_key for key in keys):
            found.append(tuple(chosen))
            # a proper superset would overshoot some count, so stop here
            return
        if idx == len(workers):
            return
        worker = workers[idx]
        grown = {key: counts[key] + len(worker_videos[worker].get(key, ()))
                 for key in keys}
        if all(grown[key] <= per_key for key in keys):
            chosen.append(worker)
            extend(idx + 1, chosen, grown)
            chosen.pop()
        extend(idx + 1, chosen, counts)

    extend(0, [], dict.fromkeys(keys, 0))
    return found


def make_group_kfold(videos: list[AnnotatedVideo], k: int, seed: int) -> list[FoldSpec]:
    """Build k folds over the corpus; deterministic given the seed.

    Raises InfeasibleSplitError when the corpus cannot satisfy the
    constraints instead of silently relaxing them.
    """
    args = SimpleNamespace(k=k, seed=seed)
    check_counts(args, ("k",), minimum=2, types_only=True)
    if k < 2:
        raise InfeasibleSplitError(f"k must be >= 2, got {k}")
    check_counts(args, ("seed",), minimum=0)
    if not videos:
        raise InfeasibleSplitError("empty corpus")

    tasks = sorted({v.task for v in videos}, key=lambda t: t.value)
    keys = [(t, i) for t in tasks for i in (Intent.CORRECT_RUN, Intent.MISTAKE_RUN)]

    have = Counter((v.task, v.intent) for v in videos)
    for task, intent in keys:
        if have[(task, intent)] < k:
            raise InfeasibleSplitError(
                f"task {task.value} has {have[(task, intent)]} {intent.value} "
                f"videos, need at least {k}")

    workers = tuple(sorted({v.worker_id for v in videos}))
    if len(workers) > _MAX_WORKERS_FOR_SEARCH:
        raise InfeasibleSplitError(
            f"{len(workers)} workers exceed the subset-search bound "
            f"{_MAX_WORKERS_FOR_SEARCH}")
    worker_videos: dict[str, dict] = {w: defaultdict(list) for w in workers}
    for v in sorted(videos, key=lambda v: v.video_id):
        worker_videos[v.worker_id][(v.task, v.intent)].append(v.video_id)

    all_ids = sorted(v.video_id for v in videos)
    # every eval set holds 2 videos per key; it must leave some to train on
    subsets = (_exact_groups(workers, worker_videos, keys, 2)
               if 2 * len(keys) < len(all_ids) else [])
    if not subsets:
        raise InfeasibleSplitError(
            "no union of whole worker groups yields exactly one correct and "
            "one mistake video per task for both val and test")

    rng = np.random.default_rng(seed)
    order = list(rng.permutation(len(subsets)))
    folds: list[FoldSpec] = []
    for fold_id in range(k):
        subset = subsets[order[fold_id % len(subsets)]]
        reuse_round = fold_id // len(subsets)
        # each side holding the eval set's first worker, in the order of
        # its bitmask over the eval set, which the seeded pick indexes
        sides = sorted(
            (side for side in _exact_groups(subset, worker_videos, keys, 1)
             if side[0] == subset[0]),
            key=lambda side: sum(1 << subset.index(w) for w in side))
        val_ids: list[str] = []
        test_ids: list[str] = []
        if sides:
            side_a = sides[int(rng.integers(len(sides)))]
            side_b = tuple(w for w in subset if w not in side_a)
            flip = bool(rng.integers(2)) ^ bool(reuse_round % 2)
            val_side, test_side = (side_b, side_a) if flip else (side_a, side_b)
            val_ids = [vid for w in val_side for key in keys
                       for vid in worker_videos[w].get(key, [])]
            test_ids = [vid for w in test_side for key in keys
                        for vid in worker_videos[w].get(key, [])]
        else:
            # single-worker (or otherwise unsplittable) eval set: the two
            # videos per (task, intent) are divided directly
            for key in keys:
                pair = sorted(
                    vid for w in subset for vid in worker_videos[w].get(key, []))
                if not bool(rng.integers(2)) ^ bool(reuse_round % 2):
                    pair.reverse()
                val_ids.append(pair[0])
                test_ids.append(pair[1])
        eval_set = set(val_ids) | set(test_ids)
        train_ids = [vid for vid in all_ids if vid not in eval_set]
        folds.append(FoldSpec(
            fold_id=fold_id,
            train=tuple(sorted(train_ids)),
            val=tuple(sorted(val_ids)),
            test=tuple(sorted(test_ids)),
        ))
    return folds


__all__ = ["make_group_kfold"]
