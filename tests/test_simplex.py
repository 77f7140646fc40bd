import collections
import random
from fractions import Fraction

from fixedloci.simplex import solve_nonneg
from lp_oracle import solve_nonneg as oracle_solve_nonneg


def _system(rng):
    """A seeded (A, b, tags): small, often degenerate, sometimes infeasible."""
    m, n = rng.randint(0, 5), rng.randint(0, 6)
    A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.2:
        A = [[Fraction(a, rng.choice((1, 2, 3))) for a in row] for row in A]
    if rng.random() < 0.5:  # b = A x0 for some x0 >= 0, often with zeros
        x0 = [rng.choice((0, 0, 1, 2, Fraction(1, 2))) for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = [rng.randint(-4, 4) for _ in range(m)]
    if rng.random() < 0.3:
        b = [Fraction(x, rng.choice((1, 2, 3, 4))) for x in b]
    tags = set()
    if m >= 2 and rng.random() < 0.25:
        i, k = rng.sample(range(m), 2)
        A[k], b[k] = list(A[i]), b[i]
        tags.add("duplicated row")
    tags.add("m = 0" if m == 0 else "n = 0" if n == 0 else "m, n > 0")
    if any(x < 0 for x in b):
        tags.add("negative rhs")
    if any(type(x) is Fraction and x.denominator > 1 for x in b):
        tags.add("fraction rhs")
    return A, b, tags


def test_simplex_matches_fraction_oracle():
    # same x (or both None) as the Fraction-tableau simplex, pivot for pivot
    rng = random.Random(4101)
    seen = collections.Counter()
    for _ in range(20000):
        A, b, tags = _system(rng)
        x = solve_nonneg(A, b)
        assert x == oracle_solve_nonneg(A, b), (A, b)
        if x is None:
            seen["infeasible"] += 1
        else:
            assert all(type(v) is Fraction and v >= 0 for v in x)
            assert all(sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(A, b))
            seen["feasible"] += 1
        seen.update(tags)
    assert min(seen.values()) > 500, seen
    assert len(seen) == 8, seen
