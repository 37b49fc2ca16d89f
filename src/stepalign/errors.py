"""Exception types shared across the package, and the one check of a
config's count fields.

The exit-code contract for a command-line interface (none exists yet):
``ValidationError`` and its subclasses exit 1, ``ParseError`` and
``FormatError`` exit 2, ``NumericalError`` exits 3.
"""


class StepAlignError(Exception):
    """Base class for all package errors."""


class ValidationError(StepAlignError):
    """An invariant on domain data was violated."""


class InfeasibleSplitError(ValidationError):
    """The corpus cannot satisfy the requested fold constraints."""


class ParseError(StepAlignError):
    """A corpus or config file could not be parsed."""


class FormatError(StepAlignError):
    """A binary file does not follow its declared layout."""


class NumericalError(StepAlignError):
    """Training or evaluation produced non-finite numbers."""


def check_counts(config, names, minimum: int = 1) -> None:
    """Raise ValidationError naming the first of ``config``'s fields
    ``names`` that is not an int of at least ``minimum``, or, for a tuple
    field, does not hold only such ints; nothing is coerced, and a bool is
    not an int."""
    for name in names:
        value = getattr(config, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, bool) or not isinstance(item, int) \
                    or item < minimum:
                raise ValidationError(
                    f"{name} must be an int >= {minimum}, got {value!r}")
