import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stepalign.data import (
    AnnotatedSegment, AnnotatedVideo, Intent, MistakeLabel, Segment, TaskDomain,
)
from stepalign.errors import InfeasibleSplitError, ValidationError
from stepalign.splits import make_group_kfold
from stepalign.synth import SynthConfig, synth_corpus

ALL_TASKS = list(TaskDomain)


def _video(video_id, worker_id, task, intent):
    return AnnotatedVideo(
        video_id=video_id, worker_id=worker_id, task=task, intent=intent,
        num_frames=10,
        segments=(AnnotatedSegment(Segment(0, 5), step=1,
                                   mistake=MistakeLabel.CORRECT),),
    )


def paper_shaped_corpus(workers=4, per_task=10):
    """5 tasks x per_task videos, intents split in half, workers assigned
    round-robin inside each (task, intent) group."""
    videos = []
    for task in ALL_TASKS:
        for intent in (Intent.CORRECT_RUN, Intent.MISTAKE_RUN):
            for i in range(per_task // 2):
                worker = f"w{i % workers}"
                vid = f"{task.value}_{intent.value}_{i}"
                videos.append(_video(vid, worker, task, intent))
    return videos


def two_bipartition_corpus():
    """Six workers over two tasks. The eval set {a, b, c, d, e} holds two
    videos per (task, intent) and splits into one video each in two ways:
    {a, c} | {b, d, e} and {a, b, d} | {c, e}."""
    t1, t2 = TaskDomain.CARDBOARD, TaskDomain.COLOR_MIXTURE
    c1, m1 = (t1, Intent.CORRECT_RUN), (t1, Intent.MISTAKE_RUN)
    c2, m2 = (t2, Intent.CORRECT_RUN), (t2, Intent.MISTAKE_RUN)
    holdings = {"a": (c1,), "b": (m1,), "c": (m1, c2, m2), "d": (c2, m2),
                "e": (c1,), "f": (c1, m1, c2, m2)}
    return [_video(f"{worker}_{n}", worker, task, intent)
            for worker, keys in holdings.items()
            for n, (task, intent) in enumerate(keys)]


def _assert_fold_invariants(fold, videos, k_expected_sizes=None):
    by_id = {v.video_id: v for v in videos}
    train, val, test = set(fold.train), set(fold.val), set(fold.test)
    assert train | val | test == set(by_id)
    assert not (train & val) and not (train & test) and not (val & test)
    for part in (fold.val, fold.test):
        counts = Counter((by_id[v].task, by_id[v].intent) for v in part)
        for task in {by_id[v].task for v in by_id}:
            assert counts[(task, Intent.CORRECT_RUN)] == 1
            assert counts[(task, Intent.MISTAKE_RUN)] == 1
    # worker grouping: no worker on both sides of the train/eval boundary
    train_workers = {by_id[v].worker_id for v in fold.train}
    eval_workers = {by_id[v].worker_id for v in fold.val} | \
                   {by_id[v].worker_id for v in fold.test}
    assert not (train_workers & eval_workers)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), seed=st.integers(0, 3))
def test_shuffled_videos_give_the_same_folds_bit_for_bit(data, seed):
    # the splitter sorts workers, keys and ids, never reading list order
    for videos, k in ((paper_shaped_corpus(), 5),
                      (two_bipartition_corpus(), 3)):
        shuffled = data.draw(st.permutations(videos))
        assert make_group_kfold(shuffled, k, seed) == \
            make_group_kfold(videos, k, seed)


class TestGroupKFold:
    def test_paper_shaped_corpus_30_10_10(self):
        videos = paper_shaped_corpus()
        folds = make_group_kfold(videos, k=5, seed=0)
        assert len(folds) == 5
        for fold in folds:
            assert (len(fold.train), len(fold.val), len(fold.test)) == (30, 10, 10)
            _assert_fold_invariants(fold, videos)

    def test_deterministic_given_seed(self):
        videos = paper_shaped_corpus()
        assert make_group_kfold(videos, 5, seed=42) == make_group_kfold(videos, 5, seed=42)

    def test_different_seeds_allowed_to_differ(self):
        videos = paper_shaped_corpus()
        a = make_group_kfold(videos, 5, seed=1)
        b = make_group_kfold(videos, 5, seed=2)
        assert len(a) == len(b) == 5  # both valid; contents may differ

    def test_infeasible_when_too_few_mistake_videos(self):
        videos = paper_shaped_corpus()
        drop_task = TaskDomain.CARDBOARD
        thinned = [
            v for v in videos
            if not (v.task == drop_task and v.intent == Intent.MISTAKE_RUN
                    and v.video_id.endswith(("_3", "_4")))
        ]
        with pytest.raises(InfeasibleSplitError, match="cardboard"):
            make_group_kfold(thinned, k=5, seed=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InfeasibleSplitError, match="^empty corpus$"):
            make_group_kfold([], k=5, seed=0)

    def test_too_many_workers_rejected(self):
        # every worker owns one video; the count is checked before any search
        videos = [_video(f"v{i}", f"w{i}", TaskDomain.CARDBOARD,
                         (Intent.CORRECT_RUN, Intent.MISTAKE_RUN)[i % 2])
                  for i in range(25)]
        with pytest.raises(InfeasibleSplitError,
                           match="^25 workers exceed the subset-search bound 24$"):
            make_group_kfold(videos, k=2, seed=0)

    def test_k_below_two_rejected(self):
        with pytest.raises(InfeasibleSplitError):
            make_group_kfold(paper_shaped_corpus(), k=1, seed=0)

    @pytest.mark.parametrize("k, seed, rule", [
        (2.5, 0, r"^k must be an int >= 2, got 2\.5$"),
        (5, -1, "^seed must be an int >= 0, got -1$"),
        (5, 1.5, r"^seed must be an int >= 0, got 1\.5$"),
        # k's type is checked before its value is compared
        ("3", 0, "^k must be an int >= 2, got '3'$"),
        (None, 0, "^k must be an int >= 2, got None$"),
        (True, 0, "^k must be an int >= 2, got True$"),
    ], ids=["float-k", "negative-seed", "float-seed", "str-k", "none-k",
            "bool-k"])
    def test_k_and_seed_must_be_ints(self, k, seed, rule):
        # these used to raise a bare TypeError or ValueError, or for True
        # an InfeasibleSplitError that took it for 1
        with pytest.raises(ValidationError, match=rule):
            make_group_kfold(paper_shaped_corpus(), k=k, seed=seed)

    def test_more_workers_than_needed(self):
        videos = paper_shaped_corpus(workers=5)
        folds = make_group_kfold(videos, k=5, seed=3)
        for fold in folds:
            _assert_fold_invariants(fold, videos)

    def test_no_worker_union_possible(self):
        # one worker owns everything: eval would have to swallow the corpus
        videos = [
            _video(f"{t.value}_{i}_{j}", "w0", t, intent)
            for t in ALL_TASKS
            for j, intent in enumerate((Intent.CORRECT_RUN, Intent.MISTAKE_RUN))
            for i in range(5)
        ]
        with pytest.raises(InfeasibleSplitError, match="worker"):
            make_group_kfold(videos, k=2, seed=0)

    def test_eval_set_with_two_balanced_bipartitions(self):
        videos = two_bipartition_corpus()
        worker = {v.video_id: v.worker_id for v in videos}
        splits = set()
        for k in (2, 3):
            for seed in range(8):
                for fold in make_group_kfold(videos, k, seed):
                    _assert_fold_invariants(fold, videos)
                    sides = frozenset(
                        frozenset(worker[v] for v in part)
                        for part in (fold.val, fold.test))
                    if set().union(*sides) == set("abcde"):
                        splits.add(sides)
        assert splits == {frozenset({frozenset("ac"), frozenset("bde")}),
                          frozenset({frozenset("abd"), frozenset("ce")})}


def _split_pin_cases():
    """Paper-shaped corpora of 2-6 workers and 8-14 videos per task, two
    default synth corpora and the two-bipartition corpus, each split with
    k in {2, 3, 5} and seeds 0-5."""
    corpora = [paper_shaped_corpus(workers, per_task)
               for workers in range(2, 7) for per_task in (8, 10, 12, 14)]
    corpora += [synth_corpus(SynthConfig(seed=seed)).corpus.videos
                for seed in (0, 1)]
    corpora.append(two_bipartition_corpus())
    for videos in corpora:
        for k in (2, 3, 5):
            for seed in range(6):
                try:
                    yield repr(make_group_kfold(videos, k, seed))
                except InfeasibleSplitError as err:
                    yield f"InfeasibleSplitError({err})"


def test_folds_pinned():
    # every fold, and every refusal, of the splitter over fixed corpora:
    # a change to the search order or to any rng draw changes the digest
    digest = hashlib.sha256()
    for case in _split_pin_cases():
        digest.update(case.encode())
    assert digest.hexdigest() == (
        "5ebe536466c293c691a8d5863fa302f25b0a03f689162877f384476c5a21dca8")
