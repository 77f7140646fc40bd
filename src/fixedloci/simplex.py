"""Exact rational LP feasibility (phase-1 simplex with Bland's rule).

Only the feasibility form needed by the support-stability certificates is
provided: does A x = b admit x >= 0?  The tableau is kept fraction-free:
one common denominator makes it integral, and each pivot is the Bareiss
step of `linalg._pivot` (Edmonds' integer Gauss-Jordan), so every row is
the current basis determinant times the rational tableau.  The answer is
exact; Bland's rule guarantees termination.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import _pivot, clear_denominators


def solve_nonneg(A, b):
    """Return some x >= 0 with A x = b (as a tuple of Fractions), or None.

    A is a sequence of m rows of length n; b has length m.
    """
    m = len(b)
    n = len(A[0]) if m and len(A) else 0
    if m == 0:
        return ()
    if n == 0:
        return () if all(x == 0 for x in b) else None

    # rows [A | I | b] over one denominator, negated where b_i < 0 (identity
    # kept), then the phase-1 cost row: minus their sum, 0 on the artificials
    flat, _ = clear_denominators([a for row in A[:m] for a in row] + list(b))
    rhs = flat[m * n:]
    T = [[a if rhs[i] >= 0 else -a for a in flat[i * n:(i + 1) * n]]
         + [int(i == j) for j in range(m)] + [abs(rhs[i])] for i in range(m)]
    T.append([-sum(col) for col in zip(*T)])
    T[m][n:n + m] = [0] * m
    basis = [n + i for i in range(m)]
    prev = 1

    while True:
        enter = next((j for j in range(n + m) if T[m][j] < 0), None)
        if enter is None:
            break
        # least ratio T[i][-1] / T[i][enter], ties to the lower basis index;
        # the denominators T[i][enter] are positive, so cross-multiply
        r = None
        for i in range(m):
            if T[i][enter] > 0 and (r is None or (T[i][-1] * T[r][enter], basis[i])
                                    < (T[r][-1] * T[i][enter], basis[r])):
                r = i
        if r is None:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise ArithmeticError("unbounded phase-1 simplex")
        prev = _pivot(T, r, enter, prev, [i for i in range(m + 1) if i != r])
        basis[r] = enter

    if T[m][-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(T[i][-1], prev)
    return tuple(x)


def feasible_nonneg(A, b):
    """Exact feasibility of {x >= 0 : A x = b}."""
    return solve_nonneg(A, b) is not None
