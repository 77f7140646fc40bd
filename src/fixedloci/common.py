"""Small shared value types and combinatorial helpers."""

from __future__ import annotations

import enum
import functools


class Status(enum.Enum):
    """Certification status of a fixed-point component."""

    NONEMPTY_VERIFIED = "NonemptyVerified"
    EMPTY_VERIFIED = "EmptyVerified"


@functools.cache
def positive_compositions(n, k):
    """Ordered k-tuples of positive integers summing to n, as a tuple.

    Memoised on (n, k): cover enumeration asks for the same few pairs once
    per support.
    """
    if k == 0:
        return ((),) if n == 0 else ()
    if k == 1:
        return ((n,),)
    return tuple((first,) + rest for first in range(1, n - k + 2)
                 for rest in positive_compositions(n - first, k - 1))
