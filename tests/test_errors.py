"""The error classes and the exit-code contract in errors.py: each class
maps to exactly one exit code through the class it derives from; and
``check_features``, the rule of a feature matrix, at every entry point
that runs it."""

import re

import numpy as np
import pytest

from stepalign import errors
from stepalign.classifier import ClassifierParams, detect_mistakes
from stepalign.data import Segment
from stepalign.errors import (
    FormatError, InfeasibleSplitError, NumericalError, ParseError,
    StepAlignError, ValidationError,
)
from stepalign.model import (
    FoldVideo, ModelParams, align_frames_to_slots, align_video, select_slots,
)

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
# mismatch on its second argument, whose message names the first.
_D = 4


def _align_video(frames, step_feats):
    params = ModelParams.init(np.random.default_rng(0), feature_dim=_D,
                              working_dim=5, num_queries=6)
    return align_video(params, frames, step_feats, 80.0, True)


def _from_frames(frames, step_feats):
    return FoldVideo.from_frames("v", frames, step_feats,
                                 np.zeros(9, dtype=np.int64), True)


def _detect(input_dim):
    params = ClassifierParams.init(np.random.default_rng(0), input_dim, 5)
    proposals = [(1, Segment(0, 5)), (None, Segment(5, 9))]
    return lambda frames, step_feats: detect_mistakes(params, proposals,
                                                      frames, step_feats)


_ENTRIES = {
    "align_video": (_align_video, "frames", "step_feats"),
    "align_frames_to_slots": (
        lambda selected, frame_embed: align_frames_to_slots(
            selected, frame_embed, 80.0),
        "selected", "frame_embed (as wide as selected)"),
    "FoldVideo.from_frames": (_from_frames, "video 'v' frames",
                              "video 'v' step_feats (as wide as frames)"),
    "select_slots": (lambda slots, steps: select_slots([slots], [steps], 80.0),
                     "slots[0]", "step_feats[0] (as wide as slots[0])"),
    "detect_mistakes-video-text": (_detect(2 * _D), "frames",
                                   "step_feats (as wide as frames)"),
    "detect_mistakes-video-only": (_detect(_D), "frames",
                                   "step_feats (as wide as frames)"),
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
    # 9 frames, or 6 slots, then 2 step texts, all _D wide
    inputs = [rng.normal(size=(9 if entry != "select_slots" else 6, _D)),
              rng.normal(size=(2, _D))]
    malform, rule = _MALFORMED[case]
    inputs[argument] = malform(inputs[argument])
    what = whats[argument]
    if case == "other-width" and entry != "align_video":
        what = whats[1]      # the pair's one width is the first argument's
    name = whats[argument].split(" (")[0].split()[-1]   # frames, slots[0]
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(what)} {rule}") as caught:
        call(*inputs)
    assert name in str(caught.value)
