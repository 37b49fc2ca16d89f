"""Exception types shared across the package.

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
