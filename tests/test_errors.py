"""The error classes and the exit-code contract in errors.py: each class
maps to exactly one exit code through the class it derives from."""

import pytest

from stepalign import errors
from stepalign.errors import (
    FormatError, InfeasibleSplitError, NumericalError, ParseError,
    StepAlignError, ValidationError,
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
