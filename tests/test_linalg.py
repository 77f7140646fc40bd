import random
from fractions import Fraction

import pytest

from fixedloci.errors import ValidationError
from fixedloci.linalg import (
    cokernel_with_section,
    det,
    dot,
    hnf,
    identity,
    is_zero_vec,
    kernel_basis,
    matmul,
    rank,
    smith,
    solve,
    solve_integral,
    unimodular_inverse,
)


def is_row_echelon_hnf(H):
    pivots = []
    for row in H:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            pivots.append(None)
            continue
        assert row[nz[0]] > 0
        pivots.append(nz[0])
    real = [p for p in pivots if p is not None]
    assert real == sorted(real) and len(set(real)) == len(real)
    # nothing after a zero row
    seen_zero = False
    for p in pivots:
        if p is None:
            seen_zero = True
        else:
            assert not seen_zero
    # entries above a pivot are reduced mod the pivot
    for i, p in enumerate(pivots):
        if p is None:
            continue
        for k in range(i):
            assert 0 <= H[k][p] < H[i][p]


def test_hnf_example():
    A = ((2, 4), (1, 1))
    H, U = hnf(A, 2)
    assert H == ((1, 1), (0, 2))
    assert abs(det(U)) == 1
    assert matmul(U, A, 2) == H


def test_hnf_identity_and_zero():
    I3 = identity(3)
    H, U = hnf(I3, 3)
    assert H == I3 and U == I3
    Z = ((0, 0, 0), (0, 0, 0))
    H, _ = hnf(Z, 3)
    assert H == Z


def test_hnf_random_properties():
    rng = random.Random(11)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m))
        H, U = hnf(A, n)
        assert matmul(U, A, n) == H
        assert abs(det(U)) == 1
        is_row_echelon_hnf(H)
        # idempotence
        H2, _ = hnf(H, n)
        assert H2 == H


def test_smith_random_properties():
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m))
        D, U, V = smith(A, n)
        assert matmul(matmul(U, A, n), V, n) == D
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        nz = [d for d in diag if d != 0]
        assert all(d > 0 for d in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def test_kernel_basis():
    A = ((1, 2, 3),)
    K = kernel_basis(A, 3)
    assert len(K) == 2
    for row in K:
        assert dot(A[0], row) == 0
    # saturated: (1,1,-1) = solution of x+2y+3z=0, must be generated
    assert rank(K + ((1, 1, -1),)) == 2


def test_cokernel_hirzebruch():
    d = 2
    a = ((1, 0), (1, 0), (0, 1), (d, 1))
    pi, c = cokernel_with_section(a, 2)
    assert matmul(pi, a, 2) == ((0, 0), (0, 0))
    assert matmul(pi, c, 2) == identity(2)
    # the rows of pi span the same lattice as the reference cokernel map
    # (z1 z2^-1, z3 z2^d z4^-1): compare via HNF of the row lattices
    ref = ((1, -1, 0, 0), (0, d, 1, -1))
    H1, _ = hnf(pi, 4)
    H2, _ = hnf(ref, 4)
    assert H1 == H2
    # pi is surjective as a lattice map: all Smith invariants are 1
    D, _, _ = smith(pi, 4)
    assert [D[i][i] for i in range(2)] == [1, 1]


def test_cokernel_identity_gives_no_rows():
    pi, c = cokernel_with_section(identity(3), 3)
    assert pi == ()
    assert c == ((), (), ())


def test_cokernel_torsion():
    with pytest.raises(ValidationError, match=r"^cokernel has invariant factors \[2\]$"):
        cokernel_with_section(((2,),), 1)


def test_cokernel_not_injective():
    with pytest.raises(ValidationError, match="^lattice map has rank 1 < 2$"):
        cokernel_with_section(((1, 1), (2, 2), (0, 0)), 2)


def test_cokernel_random_properties():
    rng = random.Random(17)
    produced = 0
    while produced < 40:
        m = rng.randint(1, 5)
        r = rng.randint(0, m)
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(m))
        try:
            pi, c = cokernel_with_section(a, r)
        except ValidationError as exc:
            # only the two refusals of a map that is not a split inclusion
            if not str(exc).startswith(("lattice map has rank ", "cokernel has invariant factors ")):
                raise
            continue
        produced += 1
        assert matmul(pi, a, r) == ((0,) * r,) * (m - r)
        assert matmul(pi, c, m - r) == identity(m - r)
        if pi:
            D, _, _ = smith(pi, m)
            assert all(D[i][i] == 1 for i in range(len(pi)))


def test_unimodular_inverse():
    U = ((1, 2), (0, 1))
    V = unimodular_inverse(U)
    assert matmul(U, V, 2) == identity(2)
    with pytest.raises(ValidationError, match="^matrix is not unimodular$"):
        unimodular_inverse(((2, 0), (0, 1)))


def test_matmul_keeps_the_width_of_a_product_with_no_rows():
    # an r x 0 matrix times the 0 x n one is the r x n zero matrix, as for
    # rho at g_rank 0
    assert matmul(((), ()), (), 3) == ((0, 0, 0), (0, 0, 0))
    assert matmul((), ((1, 2),), 2) == ()
    assert identity(0) == ()
    assert matmul(((1, 2), (3, 4)), identity(2), 2) == ((1, 2), (3, 4))


# ---------------------------------------------------------------------------
# the rational Gauss-Jordan eliminations the Bareiss kernel replaced, kept as
# reference implementations

def solve_rational(rows, b):
    """One exact solution of (rows) x = b over Q, or None if inconsistent.

    rows: sequence of coefficient rows, b: right-hand side.  Free variables
    are set to 0.
    """
    m = len(rows)
    n = len(rows[0]) if m else len(b) * 0
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(b[i])] for i in range(m)]
    piv_cols = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [a * inv for a in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * bb for a, bb in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        x[c] = aug[i][n]
    return tuple(x)


def rational_inverse(rows):
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [a * inv for a in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * bb for a, bb in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def det_rational(rows):
    """Exact determinant of a square rational matrix."""
    n = len(rows)
    M = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if M[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for i in range(c + 1, n):
            if M[i][c] != 0:
                f = M[i][c] * inv
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return det


def _random_system(rng):
    """An integer system (rows, rhs) with 1-6 rows and columns, entries in
    [-4, 4], often rank deficient, with zero rows or an inconsistent rhs."""
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    kind = rng.randrange(4)
    if kind == 1 and m > 1:  # a row that combines two others
        i, j, k = (rng.randrange(m) for _ in range(3))
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    elif kind == 2:
        rows[rng.randrange(m)] = [0] * n
    rhs = [rng.randint(-4, 4) for _ in range(m)]
    if kind == 3:  # consistent, or nudged off the column span
        x = [rng.randint(-3, 3) for _ in range(n)]
        rhs = [sum(a * b for a, b in zip(r, x)) for r in rows]
        if m > 1:
            rows[-1] = list(rows[0])
            rhs[-1] = rhs[0] + rng.randint(0, 1)
    return rows, rhs


def test_bareiss_matches_rational_oracles():
    rng = random.Random(23)
    assert det([]) == det_rational([]) == 1
    seen = {"singular": 0, "inconsistent": 0, "integral": 0, "fractional": 0}
    for _ in range(2500):
        rows, rhs = _random_system(rng)
        m, n = len(rows), len(rows[0])
        k = min(m, n)
        square = [r[:k] for r in rows[:k]]
        assert det(square) == det_rational(square)
        H, _ = hnf(rows, n)
        assert rank(rows) == sum(1 for r in H if not is_zero_vec(r))

        got, want = solve(rows, rhs), solve_rational(rows, rhs)
        assert (got is None) == (want is None)
        if got is None:
            seen["inconsistent"] += 1
        else:
            X, d = got
            assert d > 0 and all(type(x) is int for x in X)
            assert tuple(Fraction(x, d) for x in X) == want

        B = [r[k:] + [b] for r, b in zip(rows[:k], rhs)]
        inv = rational_inverse(square)
        if inv is None:
            expected = None
            seen["singular"] += 1
        else:
            prod = [[sum(inv[i][t] * B[t][j] for t in range(k)) for j in range(len(B[0]))]
                    for i in range(k)]
            integral = all(x.denominator == 1 for r in prod for x in r)
            expected = tuple(tuple(int(x) for x in r) for r in prod) if integral else None
            seen["integral" if integral else "fractional"] += 1
        assert solve_integral(square, B) == expected
    assert min(seen.values()) > 100, seen


def test_solve_edge_cases():
    assert solve([], []) == ((), 1)
    assert solve([[0, 0]], [1]) is None
    assert solve([[0, 0]], [0]) == ((0, 0), 1)
    X, d = solve([[2, 4], [1, 2]], [2, 1])  # free variable x_1 = 0
    assert X == (d, 0)
    X, d = solve([[2, 0], [0, -3]], [1, 1])
    assert (Fraction(X[0], d), Fraction(X[1], d)) == (Fraction(1, 2), Fraction(-1, 3))
    assert solve_integral([], []) == ()
    assert solve_integral([[2]], [[3]]) is None
    assert solve_integral([[1, 1], [1, 1]], [[2], [2]]) is None
    assert det([[0, 1], [1, 0]]) == -1
    assert rank([]) == 0
