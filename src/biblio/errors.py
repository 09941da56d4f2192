"""Exception types shared across the engine.

The CLI maps these onto exit codes: :class:`LoadError` (and usage errors)
exit 2, :class:`ComputationError` subclasses exit 3.
"""


class BiblioError(Exception):
    """Base class for all engine errors."""


class LoadError(BiblioError):
    """An input row violates the corpus contract (raised in strict mode)."""


class ComputationError(BiblioError):
    """A computation cannot proceed on the given corpus or arguments."""


class ZeroBaselineError(ComputationError):
    """A cited paper sits in a cell whose expected citation rate is zero."""


class MissingDateError(ComputationError):
    """A tie-break needs date information the corpus does not carry."""


class EmptyInputError(ComputationError):
    """An operation was invoked on an empty category, cell, or paper set."""
