import hashlib
import json
from typing import NamedTuple

import numpy as np
import pytest

from stepalign.data import Intent, MistakeLabel, validate_video, video_to_json
from stepalign.errors import ValidationError
from stepalign.synth import SynthConfig, synth_corpus


def small_config(**overrides):
    base = dict(tasks=2, videos_per_task=4, workers=2, steps_per_task=4,
                dim=32, frames_per_step=(5, 8), background_gap=(2, 3),
                noise_sigma=0.05, seed=9)
    base.update(overrides)
    return SynthConfig(**base)


# seed 1 plants every mistake kind, a split, a swap and a skip, and an
# event right at a video's start
_EVERY_KIND = {"background_gap": (0, 2), "p_exec_mistake": 0.6,
               "p_split": 0.3, "seed": 1}
# a mistake run with every step skipped and no gap has no frame of its own
_SKIP_ALL_NO_GAP = {"p_skip": 1.0, "background_gap": (0, 0)}

# the mistakes that replace a step's execution and keep its step index
_STEP_MISTAKES = (MistakeLabel.OBJECT, MistakeLabel.ACCIDENT,
                  MistakeLabel.HOWTO)


class Planted(NamedTuple):
    """What the generator planted in one mistake run: each kind's trial
    count and its hits, by step."""

    skip_ops: int
    skipped: tuple[int, ...]
    swap_ops: int
    swaps: tuple[tuple[int, int], ...]      # (earlier, later) in the text
    split_ops: int
    splits: tuple[int, ...]
    exec_ops: int
    execs: tuple[tuple[int, MistakeLabel], ...]


def recount(video, k: int) -> Planted:
    """Recount a mistake run's plants from its annotation alone. Every
    kept step is one skip, split and exec trial; the swap walk steps over
    a swapped pair, so it reads as a descent of the annotated step order.
    A mispick precedes its step's segment, and a correction or other
    mistake follows it."""
    order = list(dict.fromkeys(s.step for s in video.segments
                               if s.step is not None))
    swaps = []
    swap_ops = i = 0
    while i < len(order) - 1:
        swap_ops += 1
        if order[i] > order[i + 1]:
            swaps.append((order[i + 1], order[i]))
            i += 2
        else:
            i += 1
    execs = []
    last = None         # the step of the latest step segment
    mispick = False
    for seg in video.segments:
        if seg.step is None and seg.mistake == MistakeLabel.MISPICK:
            mispick = True
        elif seg.step is None:
            execs.append((last, seg.mistake))
        elif seg.step != last:
            if mispick:
                execs.append((seg.step, MistakeLabel.MISPICK))
            elif seg.mistake in _STEP_MISTAKES:
                execs.append((seg.step, seg.mistake))
            mispick = False
            last = seg.step
    steps = [s.step for s in video.segments if s.step is not None]
    return Planted(
        skip_ops=k,
        skipped=tuple(s for s in range(1, k + 1) if s not in order),
        swap_ops=swap_ops, swaps=tuple(swaps),
        split_ops=len(order),
        splits=tuple(s for s in order if steps.count(s) > 1),
        exec_ops=len(order), execs=tuple(execs))


class TestSynthBasics:
    def test_all_videos_validate(self):
        result = synth_corpus(small_config())
        corpus = result.corpus
        assert len(corpus.videos) == 8
        for video in corpus.videos:
            validate_video(video, corpus.texts)
            feats = corpus.features[video.video_id]
            assert feats.shape == (video.num_frames, 32)
            assert np.all(np.isfinite(feats))

    def test_step_features_shapes(self):
        result = synth_corpus(small_config())
        for task, matrix in result.corpus.step_features.items():
            assert matrix.shape == (4, 32)
            norms = np.linalg.norm(matrix, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_prototype_separation(self):
        # the step features are the quantized step prototypes
        result = synth_corpus(small_config())
        for matrix in result.corpus.step_features.values():
            protos = matrix.astype(np.float64)
            sims = protos @ protos.T
            np.fill_diagonal(sims, 0.0)
            assert sims.max() < 0.5

    def test_deterministic_given_seed(self):
        a = synth_corpus(small_config())
        b = synth_corpus(small_config())
        assert a.corpus.videos == b.corpus.videos
        for vid in a.corpus.features:
            np.testing.assert_array_equal(
                a.corpus.features[vid], b.corpus.features[vid])

    @pytest.mark.parametrize("changes, expected", [
        ({}, "1f72dd988690290584ecffde13b975d9d0f61e3b6fc5fc3bcbd880efc57ba9f4"),
        (_EVERY_KIND,
         "558ea9c394fe5d134d7523b184c377054bdc1526aa1c397a9a6a9d4faf328fbb"),
        ({"noise_sigma": 0.0},
         "99533d909d498a0d49a98c5db36cb0e8d53a5dbe0d15f02619e37d723ad16e5e"),
        (_SKIP_ALL_NO_GAP,
         "b642957031cea52fd6c5edbd00f74e9a147da8bad61ebaf9896e4ecc5f36ec75"),
    ], ids=["default", "every-kind", "no-noise", "skip-all-no-gap"])
    def test_bytes_pinned(self, changes, expected):
        # any change to the random stream or to how frames are built moves
        # this digest of every annotation and feature matrix; the matrices
        # are hashed widened to float64, as they were recorded
        corpus = synth_corpus(small_config(**changes)).corpus
        digest = hashlib.sha256()
        for video in corpus.videos:
            digest.update(json.dumps(video_to_json(video), sort_keys=True).encode())
            digest.update(
                corpus.features[video.video_id].astype(np.float64).tobytes())
        assert digest.hexdigest() == expected

    def test_every_kind_pin_plants_every_kind_and_a_split(self):
        result = synth_corpus(small_config(**_EVERY_KIND))
        segments = [s for v in result.corpus.videos for s in v.segments]
        assert {s.mistake for s in segments} == set(MistakeLabel)
        assert any(recount(v, 4).splits for v in result.corpus.videos
                   if v.intent == Intent.MISTAKE_RUN)
        # a gap range starting at 0 lets an event open the video
        assert any(s.segment.start == 0 for s in segments)

    def test_skip_all_pin_leaves_one_background_frame(self):
        result = synth_corpus(small_config(**_SKIP_ALL_NO_GAP))
        mistake_runs = [v for v in result.corpus.videos
                        if v.intent == Intent.MISTAKE_RUN]
        assert mistake_runs
        for video in mistake_runs:
            assert video.segments == () and video.num_frames == 1

    def test_different_seed_differs(self):
        a = synth_corpus(small_config(seed=1))
        b = synth_corpus(small_config(seed=2))
        assert a.corpus.videos != b.corpus.videos


@pytest.mark.parametrize("changes, rule", [
    ({"tasks": 0}, r"tasks must be 1\.\.5$"),
    ({"tasks": 6}, r"tasks must be 1\.\.5$"),
    ({"videos_per_task": 0}, "need at least one video and one worker$"),
    ({"workers": 0}, "need at least one video and one worker$"),
    ({"steps_per_task": 0}, "steps_per_task must be >= 1$"),
    ({"dim": 6}, r"dim 6 too small for 4 steps \(need >= steps_per_task \+ 3\)$"),
    ({"frames_per_step": (0, 3)}, r"frames_per_step range \(0, 3\) is empty"),
    ({"background_gap": (3, 2)}, r"background_gap range \(3, 2\) is empty"),
    ({"background_gap": (-1, 2)}, r"background_gap range \(-1, 2\) is empty"),
    ({"p_swap": 1.5}, r"p_swap must be in \[0, 1\]$"),
    ({"p_exec_mistake": -0.1}, r"p_exec_mistake must be in \[0, 1\]$"),
    ({"noise_sigma": -0.1}, "noise_sigma must be >= 0$"),
    ({"noise_sigma": float("inf")}, "noise_sigma must be finite, got inf$"),
    ({"noise_sigma": float("nan")}, "noise_sigma must be finite, got nan$"),
    ({"exec_kind_weights": (1.0,) * 5}, "exec_kind_weights must be 6 "),
    ({"exec_kind_weights": (1.0, -1.0, 1.0, 1.0, 1.0, 1.0)},
     "exec_kind_weights must be 6 "),
    ({"exec_kind_weights": (0.0,) * 6}, "exec_kind_weights must be 6 "),
    # each of these used to raise a bare TypeError or ValueError, or was
    # taken as given
    ({"exec_kind_weights": (1.0, float("nan"), 1.0, 1.0, 1.0, 1.0)},
     "exec_kind_weights must be 6 "),
    ({"exec_kind_weights": (1.0, float("inf"), 1.0, 1.0, 1.0, 1.0)},
     "exec_kind_weights must be 6 "),
    ({"tasks": 2.0}, r"^tasks must be an int >= 1, got 2\.0$"),
    ({"videos_per_task": 2.5},
     r"^videos_per_task must be an int >= 1, got 2\.5$"),
    ({"workers": 1.5}, r"^workers must be an int >= 1, got 1\.5$"),
    ({"steps_per_task": True},
     "^steps_per_task must be an int >= 1, got True$"),
    ({"dim": 20.0}, r"^dim must be an int >= 1, got 20\.0$"),
    ({"frames_per_step": (14.5, 22)},
     r"^frames_per_step must be an int >= 1, got \(14\.5, 22\)$"),
    ({"frames_per_step": (3, 4, 5)},
     r"^frames_per_step range \(3, 4, 5\) is empty or invalid$"),
    ({"background_gap": (1, 2.5)},
     r"^background_gap must be an int >= 0, got \(1, 2\.5\)$"),
    ({"seed": -1}, "^seed must be an int >= 0, got -1$"),
    ({"seed": 1.5}, r"^seed must be an int >= 0, got 1\.5$"),
    # the strings and the int pair used to raise a bare TypeError, and True
    # passed as a probability of 1
    ({"tasks": "3"}, "^tasks must be an int >= 1, got '3'$"),
    ({"background_gap": ("1", 2)},
     r"^background_gap must be an int >= 0, got \('1', 2\)$"),
    ({"noise_sigma": "0.1"},
     r"^noise_sigma must be an int or a float, got '0\.1'$"),
    ({"frames_per_step": 14},
     "^frames_per_step range 14 is empty or invalid$"),
    ({"p_skip": "0.1"}, r"^p_skip must be an int or a float, got '0\.1'$"),
    ({"p_split": True}, "^p_split must be an int or a float, got True$"),
    ({"exec_kind_weights": (1.0, "1", 1.0, 1.0, 1.0, 1.0)},
     r"^exec_kind_weights must be an int or a float, got \(1\.0, '1', "),
], ids=["no-tasks", "too-many-tasks", "no-videos", "no-workers", "no-steps",
        "narrow-dim", "zero-frames", "reversed-gap", "negative-gap",
        "p-above-1", "p-below-0", "negative-noise", "infinite-noise",
        "nan-noise", "five-weights",
        "negative-weight", "zero-weights", "nan-weight", "infinite-weight",
        "float-tasks", "float-videos", "float-workers", "bool-steps",
        "float-dim", "float-frames", "three-frame-bounds", "float-gap",
        "negative-seed", "float-seed", "str-tasks", "str-gap", "str-noise",
        "int-frames",
        "str-p", "bool-p", "str-weight"])
def test_invalid_config_rejected_before_generation(changes, rule):
    with pytest.raises(ValidationError, match=rule):
        synth_corpus(small_config(**changes))


class TestDegenerateConfig:
    def test_no_mistakes_no_noise(self):
        cfg = small_config(noise_sigma=0.0, p_skip=0.0, p_swap=0.0,
                           p_split=0.0, p_exec_mistake=0.0)
        result = synth_corpus(cfg)
        for video in result.corpus.videos:
            steps = [s.step for s in video.segments]
            assert steps == list(range(1, 5))  # all steps, in order
            assert all(s.mistake == MistakeLabel.CORRECT for s in video.segments)
            feats = result.corpus.features[video.video_id]
            protos = result.corpus.step_features[video.task]
            for seg in video.segments:
                block = feats[seg.segment.start:seg.segment.end]
                np.testing.assert_array_equal(
                    block, np.broadcast_to(protos[seg.step - 1], block.shape))

    def test_nearest_prototype_recovers_steps(self):
        cfg = small_config(noise_sigma=0.0, p_skip=0.0, p_swap=0.0,
                           p_split=0.0, p_exec_mistake=0.0)
        result = synth_corpus(cfg)
        for video in result.corpus.videos:
            feats = result.corpus.features[video.video_id]
            protos = result.corpus.step_features[video.task]
            for seg in video.segments:
                block = feats[seg.segment.start:seg.segment.end]
                nearest = np.argmax(block @ protos.T, axis=1) + 1
                assert np.all(nearest == seg.step)


class TestMistakeInjection:
    def test_correct_runs_stay_clean(self):
        result = synth_corpus(small_config(p_skip=0.5, p_exec_mistake=0.5))
        for video in result.corpus.videos:
            if video.intent == Intent.CORRECT_RUN:
                assert all(s.mistake == MistakeLabel.CORRECT for s in video.segments)
                assert {s.step for s in video.segments} == {1, 2, 3, 4}

    def test_skip_everything(self):
        cfg = small_config(tasks=1, steps_per_task=3, p_skip=1.0,
                           p_swap=0.0, p_split=0.0, p_exec_mistake=0.0)
        result = synth_corpus(cfg)
        for video in result.corpus.videos:
            if video.intent == Intent.MISTAKE_RUN:
                assert recount(video, 3).skipped == (1, 2, 3)
                assert video.segments == ()
            else:
                assert {s.step for s in video.segments} == {1, 2, 3}

    def test_annotations_match_emitted_frames(self):
        # without noise each segment's frames are one emitted direction:
        # a step's own prototype when it was executed correctly, another
        # step's for a wrong object, and no prototype for the rest
        result = synth_corpus(small_config(**_EVERY_KIND, noise_sigma=0.0))
        kinds = set()
        for video in result.corpus.videos:
            if video.intent == Intent.CORRECT_RUN:
                continue
            feats = result.corpus.features[video.video_id]
            protos = result.corpus.step_features[video.task]
            for seg in video.segments:
                block = feats[seg.segment.start:seg.segment.end]
                emitted = [step for step, proto in enumerate(protos, start=1)
                           if np.array_equal(block, np.broadcast_to(
                               proto, block.shape))]
                if seg.mistake == MistakeLabel.CORRECT:
                    assert emitted == [seg.step]
                elif seg.mistake == MistakeLabel.OBJECT:
                    assert len(emitted) == 1 and emitted != [seg.step]
                else:
                    assert emitted == []
                kinds.add(seg.mistake)
        assert kinds == set(MistakeLabel)

    def test_frequencies_converge_3_sigma(self):
        cfg = SynthConfig(tasks=4, videos_per_task=100, workers=4,
                          steps_per_task=6, dim=16, frames_per_step=(2, 3),
                          background_gap=(1, 2), noise_sigma=0.0,
                          p_skip=0.15, p_swap=0.2, p_split=0.25,
                          p_exec_mistake=0.3, seed=77)
        result = synth_corpus(cfg)
        mistake_logs = [
            recount(v, cfg.steps_per_task) for v in result.corpus.videos
            if v.intent == Intent.MISTAKE_RUN
        ]
        assert len(mistake_logs) >= 200
        for rate, total_key, hits in (
            (cfg.p_skip, "skip_ops", lambda lg: len(lg.skipped)),
            (cfg.p_swap, "swap_ops", lambda lg: len(lg.swaps)),
            (cfg.p_split, "split_ops", lambda lg: len(lg.splits)),
            (cfg.p_exec_mistake, "exec_ops", lambda lg: len(lg.execs)),
        ):
            n = sum(getattr(lg, total_key) for lg in mistake_logs)
            observed = sum(hits(lg) for lg in mistake_logs)
            sigma = np.sqrt(n * rate * (1 - rate))
            assert abs(observed - n * rate) <= 3 * sigma, (
                f"{total_key}: {observed} of {n} at target {rate}")

    def test_undefined_segments_for_mispick_and_correction(self):
        result = synth_corpus(small_config(
            videos_per_task=20, p_exec_mistake=0.9,
            exec_kind_weights=(0, 1, 1, 0, 0, 1)))
        kinds = set()
        for video in result.corpus.videos:
            for seg in video.segments:
                if seg.mistake in (MistakeLabel.MISPICK, MistakeLabel.CORRECTION,
                                   MistakeLabel.OTHERS):
                    assert seg.step is None
                    assert seg.description
                    kinds.add(seg.mistake)
        assert kinds == {MistakeLabel.MISPICK, MistakeLabel.CORRECTION,
                         MistakeLabel.OTHERS}

    def test_object_mistake_emits_other_prototype(self):
        cfg = small_config(noise_sigma=0.0, p_skip=0.0, p_swap=0.0,
                           p_split=0.0, p_exec_mistake=1.0,
                           exec_kind_weights=(1, 0, 0, 0, 0, 0))
        result = synth_corpus(cfg)
        for video in result.corpus.videos:
            if video.intent == Intent.CORRECT_RUN:
                continue
            protos = result.corpus.step_features[video.task]
            feats = result.corpus.features[video.video_id]
            for seg in video.segments:
                assert seg.mistake == MistakeLabel.OBJECT
                block = feats[seg.segment.start:seg.segment.end]
                emitted = np.argmax(block @ protos.T, axis=1) + 1
                assert np.all(emitted == emitted[0])
                assert emitted[0] != seg.step


class TestRoundTrip:
    def test_corpus_save_load_identity(self, tmp_path):
        result = synth_corpus(small_config())
        result.corpus.save(tmp_path)
        from stepalign.corpus import Corpus
        loaded = Corpus.from_dir(tmp_path)
        assert loaded.videos == result.corpus.videos
        assert loaded.texts == result.corpus.texts
        for vid in result.corpus.features:
            np.testing.assert_array_equal(
                loaded.features[vid], result.corpus.features[vid])
        for task in result.corpus.step_features:
            np.testing.assert_array_equal(
                loaded.step_features[task], result.corpus.step_features[task])
