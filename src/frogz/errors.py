"""Shared exception types."""


class FrogzError(Exception):
    pass


class OutOfRangeError(FrogzError, ValueError):
    """An index or argument fell outside its legal range."""


class MalformedConfigError(FrogzError, ValueError):
    """A config object is structurally invalid (bad schema, missing keys)."""


class InvalidSpecError(FrogzError, ValueError):
    """A sequence spec produced a value outside (0,1) or failed a structural check."""


class TooLargeError(FrogzError, ValueError):
    """A work guard refused a request before any of its work was done."""


class BoundViolationError(FrogzError, AssertionError):
    """A mathematically guaranteed inequality failed; signals an implementation bug."""
