"""Exact integer and rational linear algebra.

Hermite and Smith normal forms with unimodular transforms, integer kernels,
cokernels with a chosen section, and fraction-free (Bareiss) elimination for
determinants, ranks and exact solves.  All arithmetic uses
arbitrary-precision ints and fractions.Fraction; there is no floating point
anywhere in this package.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import ValidationError


# ---------------------------------------------------------------------------
# vectors (plain tuples)

def dot(u, v):
    if len(u) != len(v):
        raise ValidationError("vector dims %d vs %d" % (len(u), len(v)))
    return sum(a * b for a, b in zip(u, v))


def vec_neg(u):
    return tuple(-a for a in u)


def primitive(v):
    """Scale an integer vector down so the gcd of its entries is 1.

    The zero vector is returned unchanged and the direction is preserved.
    """
    g = 0
    for a in v:
        g = math.gcd(g, a)
    if g <= 1:
        return tuple(int(a) for a in v)
    return tuple(int(a) // g for a in v)


def clear_denominators(v):
    """(den * v, den) for the least den > 0 that makes a rational vector integral."""
    v = [Fraction(a) for a in v]
    den = math.lcm(*(a.denominator for a in v))
    return tuple(a.numerator * (den // a.denominator) for a in v), den


def is_zero_vec(v):
    return all(a == 0 for a in v)


# ---------------------------------------------------------------------------
# integer matrices: tuples of integer rows; a function that needs the column
# count takes it explicitly, since a matrix may have no rows

def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(A, B, ncols):
    """The product A * B, with B having ncols columns."""
    cols = list(zip(*B)) if B else [()] * ncols
    return tuple(tuple(sum(map(operator.mul, r, c)) for c in cols) for r in A)


# ---------------------------------------------------------------------------
# normal forms

def hnf(A, n):
    """Row Hermite normal form of A, with n columns.

    Returns (H, U) with U*A = H, U unimodular, H in row echelon form with
    positive pivots and the entries above each pivot reduced into [0, pivot).
    """
    m = len(A)
    H = [list(r) for r in A]
    U = [list(r) for r in identity(m)]

    def row_sub(i, j, q):
        H[i] = [a - q * b for a, b in zip(H[i], H[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    r = 0
    for c in range(n):
        if r >= m:
            break
        while True:
            nz = [i for i in range(r, m) if H[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(H[i][c]), i))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            clean = True
            for i in range(r + 1, m):
                if H[i][c]:
                    q = H[i][c] // H[r][c]
                    row_sub(i, r, q)
                    if H[i][c]:
                        clean = False
            if clean:
                break
        if r < m and H[r][c] != 0:
            if H[r][c] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                q = H[i][c] // H[r][c]
                if q:
                    row_sub(i, r, q)
            r += 1
    return tuple(map(tuple, H)), tuple(map(tuple, U))


def smith(A, n):
    """Smith normal form of A, with n columns, with transforms: returns
    (D, U, V), U*A*V = D.

    D is diagonal with nonnegative entries d_1 | d_2 | ...; U and V are
    unimodular.
    """
    m = len(A)
    H = [list(r) for r in A]
    U = [list(r) for r in identity(m)]
    V = [list(r) for r in identity(n)]

    def row_sub(i, j, q):
        H[i] = [a - q * b for a, b in zip(H[i], H[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_sub(i, j, q):
        for row in H:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def block_pivots(t):
        return [(abs(H[i][j]), i, j) for i in range(t, m) for j in range(t, n) if H[i][j] != 0]

    for t in range(min(m, n)):
        piv = block_pivots(t)
        if not piv:
            break
        while True:
            _, pi, pj = min(piv)
            if pi != t:
                H[t], H[pi] = H[pi], H[t]
                U[t], U[pi] = U[pi], U[t]
            if pj != t:
                for row in H:
                    row[t], row[pj] = row[pj], row[t]
                for row in V:
                    row[t], row[pj] = row[pj], row[t]
            clean = True
            for i in range(t + 1, m):
                if H[i][t]:
                    row_sub(i, t, H[i][t] // H[t][t])
                    if H[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if H[t][j]:
                    col_sub(j, t, H[t][j] // H[t][t])
                    if H[t][j]:
                        clean = False
            if clean:
                bad = None
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if H[i][j] % H[t][t] != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                row_sub(t, bad, -1)
            piv = block_pivots(t)
        if H[t][t] < 0:
            H[t] = [-a for a in H[t]]
            U[t] = [-a for a in U[t]]
    return tuple(map(tuple, H)), tuple(map(tuple, U)), tuple(map(tuple, V))


def rank(A):
    return len(_eliminate(A)[1])


def kernel_basis(A, n):
    """Basis of the integer kernel {x : A x = 0} of A, with n columns, as
    rows (saturated lattice)."""
    H, U = hnf(tuple(tuple(r[j] for r in A) for j in range(n)), len(A))
    return tuple(u for h, u in zip(H, U) if is_zero_vec(h))


# ---------------------------------------------------------------------------
# fraction-free elimination

def _eliminate(rows):
    """Fraction-free (Bareiss) forward elimination of an integer matrix.

    Returns (M, pivots, sign): M in row echelon form with its pivots in the
    columns listed by pivots, and sign the parity of the row swaps.  After k
    pivot steps every entry below row k is a (k+1)-minor of the row-permuted
    input, so each division by the previous pivot is exact, and the last
    pivot of a nonsingular square matrix is sign * determinant.
    """
    M = [list(r) for r in rows]
    m = len(M)
    pivots = []
    sign = prev = 1
    for c in range(len(M[0]) if m else 0):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if M[i][c]), None)
        if p is None:
            continue
        if p != r:
            M[r], M[p] = M[p], M[r]
            sign = -sign
        top = M[r]
        piv = top[c]
        for i in range(r + 1, m):
            a = M[i][c]
            M[i] = [(piv * x - a * y) // prev for x, y in zip(M[i], top)]
        prev = piv
        pivots.append(c)
    return M, pivots, sign


def _solve_augmented(rows, rhs_rows):
    """Integer X and d > 0 with rows * X = d * rhs_rows, free variables 0.

    Returns (X, d, pivots), or None when some column of rhs_rows is not in
    the column span.  Back-substitution is fraction-free: d is the last
    pivot, so by Cramer's rule every d * x_i is an integer and each division
    below is exact.
    """
    n = len(rows[0]) if rows else 0
    M, pivots, _ = _eliminate([tuple(a) + tuple(b) for a, b in zip(rows, rhs_rows)])
    if pivots and pivots[-1] >= n:
        return None
    k = len(M[0]) - n if M else 0
    d = abs(M[len(pivots) - 1][pivots[-1]]) if pivots else 1
    X = [[0] * k for _ in range(n)]
    for i in reversed(range(len(pivots))):
        row = M[i]
        later = [(row[c], X[c]) for c in pivots[i + 1:]]
        X[pivots[i]] = [(d * row[n + j] - sum(u * x[j] for u, x in later)) // row[pivots[i]]
                        for j in range(k)]
    return X, d, pivots


def det(rows):
    """Exact determinant of a square integer matrix (1 for the 0x0 matrix)."""
    M, pivots, sign = _eliminate(rows)
    if len(pivots) < len(rows):
        return 0
    return sign * M[-1][-1] if rows else 1


def solve(rows, rhs):
    """One solution of (rows) x = rhs over Q as (X, d): integers X and d > 0
    with rows * X = d * rhs, free variables 0; None if inconsistent."""
    out = _solve_augmented(rows, [(b,) for b in rhs])
    if out is None:
        return None
    X, d, _ = out
    return tuple(x[0] for x in X), d


def solve_integral(rows, rhs_rows):
    """The integer matrix X with rows * X = rhs_rows for a square matrix rows,
    or None when rows is singular or the solution is not integral."""
    out = _solve_augmented(rows, rhs_rows)
    if out is None or len(out[2]) < len(rows):
        return None
    X, d, _ = out
    if any(x % d for r in X for x in r):
        return None
    return tuple(tuple(x // d for x in r) for r in X)


def unimodular_inverse(U):
    inv = solve_integral(U, identity(len(U)))
    if inv is None:
        raise ValidationError("matrix is not unimodular")
    return inv


# ---------------------------------------------------------------------------
# cokernel of an injective lattice map, with section

def cokernel_with_section(a, r):
    """Cokernel projection and section for an injective lattice map.

    a is an m x r integer matrix, the map Z^r -> Z^m.  Returns (pi, c) where
    pi is (m-r) x m with pi*a = 0 and pi surjective (as a lattice map), and
    c is m x (m-r) with pi*c = identity.

    Raises ValidationError when a has a kernel or the quotient lattice has
    torsion (the free-action setup then fails).
    """
    m = len(a)
    D, U, _ = smith(a, r)
    diag = [D[i][i] for i in range(min(m, r))]
    rk = sum(1 for d in diag if d != 0)
    if rk < r:
        raise ValidationError("lattice map has rank %d < %d" % (rk, r))
    if any(d != 1 for d in diag[:r]):
        raise ValidationError("cokernel has invariant factors %s" % (diag,))
    return U[r:], tuple(row[r:] for row in unimodular_inverse(U))
