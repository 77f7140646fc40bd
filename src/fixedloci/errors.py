"""Exception types shared across the library, one per CLI exit code."""


class FixedLociError(Exception):
    """Base class for all library errors."""


class ValidationError(FixedLociError):
    """Bad input or an unmet hypothesis, such as a non-free action or an
    empty stable locus: exit 2."""


class TooLarge(FixedLociError):
    """A brute-force guard was exceeded: exit 3."""
