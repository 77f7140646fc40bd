import random
from fractions import Fraction

import pytest

from fixedloci.errors import NotInjective, TorsionCokernel
from fixedloci.linalg import (
    IntMatrix,
    cokernel_with_section,
    det,
    hnf,
    is_zero_vec,
    kernel_basis,
    rank,
    smith,
    solve,
    solve_integral,
    unimodular_inverse,
)


def is_row_echelon_hnf(H):
    pivots = []
    for row in H.entries:
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
            assert 0 <= H.entries[k][p] < H.entries[i][p]


def test_hnf_example():
    A = IntMatrix.from_rows([[2, 4], [1, 1]])
    H, U = hnf(A)
    assert H.entries == ((1, 1), (0, 2))
    assert abs(det(U.entries)) == 1
    assert U.mul(A) == H


def test_hnf_identity_and_zero():
    I3 = IntMatrix.identity(3)
    H, U = hnf(I3)
    assert H == I3 and U == I3
    Z = IntMatrix.zero(2, 3)
    H, _ = hnf(Z)
    assert H == Z


def test_hnf_random_properties():
    rng = random.Random(11)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        )
        H, U = hnf(A)
        assert U.mul(A) == H
        assert abs(det(U.entries)) == 1
        is_row_echelon_hnf(H)
        # idempotence
        H2, _ = hnf(H)
        assert H2 == H


def test_smith_random_properties():
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        )
        D, U, V = smith(A)
        assert U.mul(A).mul(V) == D
        assert abs(det(U.entries)) == 1
        assert abs(det(V.entries)) == 1
        diag = [D.entries[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D.entries[i][j] == 0
        nz = [d for d in diag if d != 0]
        assert all(d > 0 for d in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def test_kernel_basis():
    A = IntMatrix.from_rows([[1, 2, 3]])
    K = kernel_basis(A)
    assert K.nrows == 2
    for row in K.entries:
        assert A.apply(row) == (0,)
    # saturated: (1,1,-1) = solution of x+2y+3z=0, must be generated
    assert rank(IntMatrix.from_rows(list(K.entries) + [(1, 1, -1)], 3)) == 2


def test_cokernel_hirzebruch():
    d = 2
    a = IntMatrix.from_rows([[1, 0], [1, 0], [0, 1], [d, 1]])
    pi, c = cokernel_with_section(a)
    assert pi.mul(a).is_zero()
    assert pi.mul(c) == IntMatrix.identity(2)
    # the rows of pi span the same lattice as the reference cokernel map
    # (z1 z2^-1, z3 z2^d z4^-1): compare via HNF of the row lattices
    ref = IntMatrix.from_rows([[1, -1, 0, 0], [0, d, 1, -1]])
    H1, _ = hnf(pi)
    H2, _ = hnf(ref)
    assert H1 == H2
    # pi is surjective as a lattice map: all Smith invariants are 1
    D, _, _ = smith(pi)
    assert [D.entries[i][i] for i in range(2)] == [1, 1]


def test_cokernel_identity_gives_no_rows():
    a = IntMatrix.identity(3)
    pi, c = cokernel_with_section(a)
    assert pi.nrows == 0 and pi.ncols == 3
    assert c.nrows == 3 and c.ncols == 0


def test_cokernel_torsion():
    a = IntMatrix.from_rows([[2]])
    with pytest.raises(TorsionCokernel):
        cokernel_with_section(a)


def test_cokernel_not_injective():
    a = IntMatrix.from_rows([[1, 1], [2, 2], [0, 0]])
    with pytest.raises(NotInjective):
        cokernel_with_section(a)


def test_cokernel_random_properties():
    rng = random.Random(17)
    produced = 0
    while produced < 40:
        m = rng.randint(1, 5)
        r = rng.randint(0, m)
        a = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)], r
        )
        try:
            pi, c = cokernel_with_section(a)
        except (NotInjective, TorsionCokernel):
            continue
        produced += 1
        assert pi.mul(a).is_zero()
        assert pi.mul(c) == IntMatrix.identity(m - r)
        if pi.nrows:
            D, _, _ = smith(pi)
            assert all(D.entries[i][i] == 1 for i in range(pi.nrows))


def test_unimodular_inverse():
    U = IntMatrix.from_rows([[1, 2], [0, 1]])
    V = unimodular_inverse(U)
    assert U.mul(V) == IntMatrix.identity(2)
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))


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
        H, _ = hnf(IntMatrix.from_rows(rows))
        assert rank(IntMatrix.from_rows(rows)) == sum(1 for r in H.entries if not is_zero_vec(r))

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
    assert rank(IntMatrix.from_rows([], 3)) == 0
