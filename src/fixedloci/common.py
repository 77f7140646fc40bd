"""Small shared value types and combinatorial helpers."""

from __future__ import annotations

import enum


class Status(enum.Enum):
    """Certification status of a fixed-point component."""

    NONEMPTY_VERIFIED = "NonemptyVerified"
    EMPTY_VERIFIED = "EmptyVerified"


def positive_compositions(n, k):
    """Ordered k-tuples of positive integers summing to n."""
    if k == 0:
        return [()] if n == 0 else []
    if k == 1:
        return [(n,)]
    out = []
    for first in range(1, n - k + 2):
        for rest in positive_compositions(n - first, k - 1):
            out.append((first,) + rest)
    return out
