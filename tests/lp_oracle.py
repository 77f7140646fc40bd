"""The Fraction-tableau simplex, kept as the reference for the LP tests.

`solve_nonneg` is the phase-1 simplex with Bland's rule that
`fixedloci.simplex` ran before its tableau became fraction-free, kept
verbatim: every pivot divides over Fractions.  `is_semistable_support`
decides support semistability with it, as the reference the Kempf sign is
held to.
"""

from fractions import Fraction


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

    # tableau rows: n structural columns, m artificial columns, rhs
    T = []
    for i in range(m):
        neg = Fraction(b[i]) < 0
        row = [(-Fraction(x) if neg else Fraction(x)) for x in A[i]]
        row += [Fraction(int(i == j)) for j in range(m)]
        row.append(-Fraction(b[i]) if neg else Fraction(b[i]))
        T.append(row)
    basis = [n + i for i in range(m)]

    # phase-1 objective: minimize the sum of artificials
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= T[i][j]
    for j in range(n, n + m):
        cost[j] += 1

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                key = (ratio, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise ArithmeticError("unbounded phase-1 simplex")
        r = best[1]
        piv = T[r][enter]
        T[r] = [a / piv for a in T[r]]
        for i in range(m):
            if i != r and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * bb for a, bb in zip(T[i], T[r])]
        f = cost[enter]
        cost = [a - f * bb for a, bb in zip(cost, T[r])]
        basis[r] = enter

    if -cost[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    return tuple(x)


def is_semistable_support(action, support):
    """True iff the limit cone of the support pairs nonnegatively with theta.

    By Farkas' lemma this says theta lies in the cone of the support weights,
    so the certificate is one LP: some lambda >= 0 with
    sum_s lambda_s chi_s = theta.
    """
    chis = sorted({action.chi_of(i) for i in support})
    rows = [[chi[i] for chi in chis] for i in range(action.g_rank)]
    return solve_nonneg(rows, action.theta) is not None
