"""Exceptions of the curvlike package.

Every invalid input raises :class:`ValidationError`, whose message names the
field, argument or check that failed; the CLI maps every
:class:`CurvlikeError` to exit code 2 and prints the message.
"""


class CurvlikeError(Exception):
    """Base class for all curvlike errors."""


class ValidationError(CurvlikeError):
    """Input violates a schema or invariant; the message names the field."""
