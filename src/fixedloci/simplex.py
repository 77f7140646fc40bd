"""Exact rational LP feasibility: does A x = b admit x >= 0?

b lies in the cone on A's columns exactly when `cones.nnls`, the package's
one exact cone-membership solver, puts its nearest point there at b.  This
module is only the LP entry point that the benchmark's `simplex.lp` trace
group and the tests name; ROADMAP item 5 deletes it once the benchmark is
re-based (item 4).
"""

from __future__ import annotations

from fractions import Fraction

from .cones import nnls
from .linalg import clear_denominators


def solve_nonneg(A, b):
    """Return some x >= 0 with A x = b (as a tuple of Fractions), or None.

    A is a sequence of m rows of length n; b has length m.
    """
    m = len(b)
    if m == 0:
        return ()
    n = len(A[0]) if len(A) else 0
    # A and b over one denominator, then A's columns as the generators
    flat, _ = clear_denominators([a for row in A[:m] for a in row] + list(b))
    rhs = flat[m * n:]
    cols = [flat[j:m * n:n] for j in range(n)]
    passive, X, d = nnls(cols, rhs)
    if any(sum(c * cols[j][i] for c, j in zip(X, passive)) != d * bi for i, bi in enumerate(rhs)):
        return None
    x = [Fraction(0)] * n
    for c, j in zip(X, passive):
        x[j] = Fraction(c, d)
    return tuple(x)


def feasible_nonneg(A, b):
    """Exact feasibility of {x >= 0 : A x = b}."""
    return solve_nonneg(A, b) is not None
