"""The error classes and the exit-code contract in errors.py: each class
maps to exactly one exit code through the class it derives from; and the
rules of the inputs at every public entry point that takes them:
``check_features``, the rule of a feature matrix, at the inference entry
points and at the ``Corpus`` constructor, where the matrices the
trainers read enter, the scalar arguments of inference, and the configs'
rules, which run when a config is built."""

import inspect
import re
from dataclasses import replace

import numpy as np
import pytest

from stepalign import classifier, corpus as corpus_module, errors, model
from stepalign.classifier import (
    ClassifierParams, ClassifierTrainConfig, detect_mistakes,
    detect_on_segments, train_classifier_fold,
)
from stepalign.corpus import Corpus
from stepalign.data import (
    AnnotatedVideo, FoldSpec, Intent, ProceduralText, Segment, TaskDomain,
)
from stepalign.errors import (
    FormatError, InfeasibleSplitError, NumericalError, ParseError,
    StepAlignError, ValidationError,
)
from stepalign.model import (
    ModelParams, TrainConfig, align_frames_to_slots, align_video,
    train_alignment_fold,
)
from stepalign.synth import SynthConfig, synth_corpus

# the roots a command-line interface maps to exit codes
_EXIT_CODES = {ValidationError: 1, ParseError: 2, FormatError: 2,
               NumericalError: 3}


def _exit_code(cls):
    codes = {code for root, code in _EXIT_CODES.items() if issubclass(cls, root)}
    assert len(codes) == 1, f"{cls.__name__} maps to exit codes {codes}"
    return codes.pop()


@pytest.mark.parametrize("cls, code", [
    (ValidationError, 1), (InfeasibleSplitError, 1), (ParseError, 2),
    (FormatError, 2), (NumericalError, 3),
])
def test_error_class_has_one_exit_code(cls, code):
    assert issubclass(cls, StepAlignError)
    assert _exit_code(cls) == code


def test_every_error_class_is_covered():
    classes = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes == {StepAlignError, *_EXIT_CODES, InfeasibleSplitError}
    assert not issubclass(StepAlignError, tuple(_EXIT_CODES))


# check_features at every entry point that takes a feature matrix, for
# each of its two matrix arguments and each way a matrix can be
# malformed. An entry is (call, what the message names for its first
# argument, for its second). A pair checked at one width reports a width
# mismatch on its second argument, whose message names the first. The
# Corpus constructor is the entry point of the matrices both trainers
# read: a video's frames, then its task's step texts, each named by its
# id.
_D = 4


def _align_video(frames, step_feats):
    params = ModelParams.init(np.random.default_rng(0), feature_dim=_D,
                              working_dim=5, num_queries=6)
    return align_video(params, frames, step_feats, 80.0, True)


def _detect(input_dim):
    params = ClassifierParams.init(np.random.default_rng(0), input_dim, 5)
    proposals = [(1, Segment(0, 5)), (None, Segment(5, 9))]
    return lambda frames, step_feats: detect_mistakes(params, proposals,
                                                      frames, step_feats)


def _corpus(frames, step_feats):
    """A corpus of one 9-frame video, ``clip``, and its 2-step text."""
    text = ProceduralText(TaskDomain.CARDBOARD, ("fold the flaps", "tape"))
    video = AnnotatedVideo(video_id="clip", worker_id="w", task=text.task,
                           intent=Intent.CORRECT_RUN, num_frames=9,
                           segments=())
    return Corpus(texts={text.task: text}, videos=[video],
                  features={"clip": frames},
                  step_features={text.task: step_feats})


_ENTRIES = {
    "align_video": (_align_video, "frames", "step_feats"),
    "align_frames_to_slots": (
        lambda selected, frame_embed: align_frames_to_slots(
            selected, frame_embed, 80.0),
        "selected", "frame_embed (as wide as selected)"),
    "detect_mistakes-video-text": (_detect(2 * _D), "frames",
                                   "step_feats (as wide as frames)"),
    "detect_mistakes-video-only": (_detect(_D), "frames",
                                   "step_feats (as wide as frames)"),
    "Corpus": (_corpus, "clip: feature matrix",
               "steps_cardboard: feature matrix (as wide as clip)"),
}


def _with(value, row, col):
    def malformed(x):
        x = x.copy()
        x[row, col] = value
        return x
    return malformed


# each malformed form of a valid matrix and the rule its message states
_MALFORMED = {
    "nan": (_with(np.nan, 1, 2), r"must be finite, but row 1 is not$"),
    "inf": (_with(-np.inf, 1, 2), r"must be finite, but row 1 is not$"),
    "1-d": (lambda x: x[0], r"must be 2-d with at least one row"),
    "3-d": (lambda x: x[None], r"must be 2-d with at least one row"),
    "no-rows": (lambda x: x[:0], r"must be 2-d with at least one row"),
    "bool": (lambda x: x > 0, r"must be ints or floats, got an array of bool$"),
    "string": (lambda x: x.astype(str),
               r"must be ints or floats, got an array of <U\d+$"),
    "complex": (lambda x: x.astype(complex),
                r"must be ints or floats, got an array of complex128$"),
    "object": (lambda x: x.astype(object),
               r"must be ints or floats, got an array of object$"),
    "list": (lambda x: x.tolist(), r"must be a numpy array, got list$"),
    "other-width": (lambda x: np.hstack([x, x[:, :1]]),
                    r"must be 2-d with at least one row of \d+ columns, got "
                    r"shape \(\d+, \d+\)$"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
@pytest.mark.parametrize("argument", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_malformed_feature_matrix_rejected_naming_the_argument(
        entry, argument, case):
    call, *whats = _ENTRIES[entry]
    rng = np.random.default_rng(1)
    # 9 frames, then 2 step texts, all _D wide, float32 as a corpus holds
    inputs = [rng.normal(size=(9, _D)).astype(np.float32),
              rng.normal(size=(2, _D)).astype(np.float32)]
    malform, rule = _MALFORMED[case]
    inputs[argument] = malform(inputs[argument])
    what = whats[argument]
    if case == "other-width" and entry != "align_video":
        what = whats[1]      # the pair's one width is the first argument's
    # frames, step_feats, or a corpus matrix's id
    name = whats[argument].split(" (")[0].split(":")[0]
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(what)} {rule}") as caught:
        call(*inputs)
    assert name in str(caught.value)


# the functions of the pipeline's API that take one of these matrices
_MATRIX_ARGUMENTS = {"frames", "step_feats", "selected", "frame_embed"}


def test_every_public_function_taking_a_matrix_has_an_entry():
    # a function that joins __all__ with a matrix argument joins the
    # malformed-matrix test above, beside the Corpus constructor
    public = {name for module in (model, classifier) for name in module.__all__
              if inspect.isfunction(getattr(module, name))
              and _MATRIX_ARGUMENTS & set(inspect.signature(
                  getattr(module, name)).parameters)}
    assert public | {"Corpus"} == {entry.split("-")[0] for entry in _ENTRIES}


def _fold():
    """One task of 3 steps over 8 videos; the fold's train split holds
    every class the classifier needs."""
    corpus = synth_corpus(SynthConfig(tasks=1, videos_per_task=8, workers=4,
                                      steps_per_task=3, dim=8,
                                      p_exec_mistake=0.6)).corpus
    ids = {v.video_id.rsplit("_", 1)[1]: v.video_id for v in corpus.videos}
    fold = FoldSpec(0, train=tuple(ids[k] for k in ("c00", "c01", "m00",
                                                    "m01", "m03")),
                    val=(ids["c02"], ids["m02"]), test=(ids["c03"],))
    return corpus, fold


def _spy_on_check_features(monkeypatch):
    """The ``what`` of every ``check_features`` call from here on, in each
    module that calls it (``check_video_inputs`` included)."""
    seen, check = [], errors.check_features

    def spy(array, what, width=None):
        seen.append(what)
        check(array, what, width)
    for module in (errors, corpus_module, model):
        monkeypatch.setattr(module, "check_features", spy)
    return seen


@pytest.mark.parametrize("source", ["synth", "from_dir"])
def test_constructor_checks_each_in_memory_matrix_once(monkeypatch, tmp_path,
                                                       source):
    # a loaded corpus's matrices were scanned by open_checkpoint instead
    corpus, _ = _fold()
    corpus.save(tmp_path)
    seen = _spy_on_check_features(monkeypatch)
    if source == "synth":
        Corpus(texts=corpus.texts, videos=corpus.videos,
               features=corpus.features, step_features=corpus.step_features)
        names = [*(v.video_id for v in corpus.videos),
                 *(f"steps_{task.value}" for task in corpus.texts)]
    else:
        Corpus.from_dir(tmp_path)
        names = []
    assert [what.split(":")[0] for what in seen] == names


_READERS = {
    "align": lambda corpus, fold, path: train_alignment_fold(
        corpus, fold, TrainConfig(epochs=1, working_dim=4, num_queries=4)),
    "detect": lambda corpus, fold, path: train_classifier_fold(
        corpus, fold, ClassifierTrainConfig(hidden=4, epochs=10)),
    "detect_on_segments": lambda corpus, fold, path: [
        detect_on_segments(ClassifierParams.init(
            np.random.default_rng(0), 2 * corpus.feature_dim, 4),
            corpus, corpus.video_by_id(vid)) for vid in fold.test],
    "save": lambda corpus, fold, path: corpus.save(path),
}


@pytest.mark.parametrize("reader", list(_READERS))
def test_no_matrix_read_from_a_corpus_is_checked_again(monkeypatch, tmp_path,
                                                       reader):
    # each trainer checked every video it read, and Corpus.save every
    # matrix it wrote, after the constructor had checked them all
    corpus, fold = _fold()
    seen = _spy_on_check_features(monkeypatch)
    _READERS[reader](corpus, fold, tmp_path)
    assert seen == []


# a scalar argument of inference that breaks the rule of the TrainConfig
# field of its name, and that rule's message
_SCALARS = {
    "drop_pct-zero": ({"drop_pct": 0.0}, r"drop_pct must be in \(0, 100\]"),
    "drop_pct-above-100": ({"drop_pct": 101},
                           r"drop_pct must be in \(0, 100\]"),
    "drop_pct-nan": ({"drop_pct": np.nan}, r"drop_pct must be in \(0, 100\]"),
    "drop_pct-str": ({"drop_pct": "80"},
                     "drop_pct must be an int or a float, got '80'"),
    "drop_pct-bool": ({"drop_pct": True},
                      "drop_pct must be an int or a float, got True"),
    "normalize-str": ({"normalize_features": "no"},
                      "normalize_features must be a bool, got 'no'"),
    "normalize-none": ({"normalize_features": None},
                       "normalize_features must be a bool, got None"),
    "normalize-int": ({"normalize_features": 1},
                      "normalize_features must be a bool, got 1"),
}


@pytest.mark.parametrize("entry, case", [
    *(("align_video", case) for case in _SCALARS),
    # it has no normalize_features: it normalizes its inputs always
    *(("align_frames_to_slots", case) for case in _SCALARS
      if case.startswith("drop_pct"))])
def test_malformed_scalar_argument_rejected_before_the_decoder(
        monkeypatch, entry, case):
    # a bad drop_pct was named "pct" once the decoder had run, and a
    # normalize_features of "no" or None was taken for its truth value
    changes, rule = _SCALARS[case]
    monkeypatch.setattr(model, "forward_slots", None)
    rng = np.random.default_rng(2)
    frames, step_feats = rng.normal(size=(9, _D)), rng.normal(size=(2, _D))
    args = {"drop_pct": 80.0, "normalize_features": True, **changes}
    with pytest.raises(ValidationError, match=f"^{rule}$"):
        if entry == "align_video":
            params = ModelParams.init(rng, feature_dim=_D, working_dim=5,
                                      num_queries=6)
            align_video(params, frames, step_feats, **args)
        else:
            align_frames_to_slots(step_feats, frames, args["drop_pct"])


@pytest.mark.parametrize("build, rule", [
    (lambda: replace(ClassifierTrainConfig(), epochs=0),
     "epochs must be an int >= 1, got 0"),
    (lambda: SynthConfig(tasks=0), r"tasks must be 1\.\.5"),
], ids=["detect", "synth"])
def test_config_breaking_a_rule_rejected_when_built(build, rule):
    # a config that exists is valid, and replace builds one anew;
    # test_model.py's test_config_rule_broken_rejected builds TrainConfigs
    with pytest.raises(ValidationError, match=f"^{rule}$"):
        build()
