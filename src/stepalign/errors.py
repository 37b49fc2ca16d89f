"""Exception types shared across the package, and the type checks of a
value and of a config's count, number and flag fields.

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


def _items(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def check_type(value, kind, what: str) -> None:
    """Raise ValidationError naming ``what`` unless ``value`` is a ``kind``,
    a type or a tuple of types; nothing is coerced, and a bool is not an
    int."""
    if isinstance(value, bool) or not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in _items(kind))
        raise ValidationError(f"{what} must be {names}, got {value!r}")


def check_counts(config, names, minimum: int = 1, *,
                 types_only: bool = False) -> None:
    """Raise ValidationError naming the first of ``config``'s fields
    ``names`` that is not an int of at least ``minimum``, or, for a tuple
    field, does not hold only such ints; nothing is coerced, and a bool is
    not an int. With ``types_only`` the minimum is left to the config's
    own range rules, which then compare ints only."""
    for name in names:
        value = getattr(config, name)
        for item in _items(value):
            if isinstance(item, bool) or not isinstance(item, int) \
                    or (not types_only and item < minimum):
                raise ValidationError(
                    f"{name} must be an int >= {minimum}, got {value!r}")


def check_numbers(config, names) -> None:
    """Raise ValidationError naming the first of ``config``'s fields
    ``names`` that is not an int or a float, or, for a tuple field, does
    not hold only ints and floats; nothing is coerced, and neither a bool
    nor a str is a number. A config runs it before any rule that compares
    these fields."""
    for name in names:
        value = getattr(config, name)
        for item in _items(value):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ValidationError(
                    f"{name} must be an int or a float, got {value!r}")


def check_flags(config, names) -> None:
    """Raise ValidationError naming the first of ``config``'s fields
    ``names`` that is not a bool; nothing is taken for its truth value."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, bool):
            raise ValidationError(f"{name} must be a bool, got {value!r}")
