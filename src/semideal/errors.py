"""Error types shared across the library.

Every error carries a stable ``name`` used by the CLI when mapping failures
to exit codes and messages. ``InvalidInput`` is also a ``ValueError``.
"""


class SemidealError(Exception):
    name = "InternalError"

    def __init__(self, message=""):
        super().__init__(message or self.name)


class InstanceMismatch(SemidealError):
    name = "InstanceMismatch"


class OutOfSupport(SemidealError):
    name = "OutOfSupport"


class ZeroDivisorIdeal(SemidealError):
    name = "ZeroDivisorIdeal"


class EmptyIdeal(SemidealError):
    name = "EmptyIdeal"


class NotAMember(SemidealError):
    name = "NotAMember"


class NotMaximal(SemidealError):
    name = "NotMaximal"


class NotPrime(SemidealError):
    name = "NotPrime"


class UnknownLaw(SemidealError):
    name = "UnknownLaw"


class UnknownPrime(SemidealError):
    name = "UnknownPrime"


class NotFractional(SemidealError):
    name = "NotFractional"


class Unsupported(SemidealError):
    name = "Unsupported"


class ParseError(SemidealError):
    """Syntax error with a 1-based column and the token set that was legal."""

    name = "ParseError"

    def __init__(self, message, column, expected=()):
        super().__init__(message)
        self.column = column
        self.expected = tuple(expected)


class DMCapExceeded(SemidealError):
    name = "DMCapExceeded"


class TooLarge(SemidealError):
    name = "TooLarge"


class InternalError(SemidealError):
    name = "InternalError"


class InvalidInput(SemidealError, ValueError):
    """A value from outside the library that is not valid: an instance id, a
    natural element, a number to factor. The CLI reports it as a usage error;
    any other ``ValueError`` that reaches it is a fault of the library."""

    name = "InvalidInput"
