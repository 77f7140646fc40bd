"""Cone algebra and brute-force oracles for the cone tests.

A cone is the tuple of canonical generators `dual_cone` returns, so two
cones are equal when their tuples are.  `canonical`, `contains` and
`intersection` are the cone algebra over that one double description.

`project` runs `project_onto_cone` at a rational point.  The oracle
`project_by_subset_scan` is the nearest-point projection `cones` ran
before the active-set method, kept verbatim: it tries every generator
subset of size at most the dimension, in order of size and then of
position, solves the normal equations on each, and returns the first
solution with nonnegative coefficients that passes the optimality test.
Its cost grows as the sum of C(n, k) over k <= dim.
"""

import itertools
from fractions import Fraction

from fixedloci.cones import check_inner_product, dot_q, dual_cone, project_onto_cone
from fixedloci.linalg import clear_denominators, dot, solve


def canonical(gens, dim):
    """The canonical generators of the cone on gens: the dual of its dual."""
    return dual_cone(dual_cone(gens, dim), dim)


def contains(gens, x):
    """x lies in the cone on gens: it pairs nonnegatively with every dual generator."""
    return all(dot(h, x) >= 0 for h in dual_cone(gens, len(x)))


def intersection(a, b, dim):
    """The canonical generators of the intersection: the dual of the joined duals."""
    return dual_cone(dual_cone(a, dim) + dual_cone(b, dim), dim)


def project(gens, x, Q=None):
    """project_onto_cone at the rational point x, as a tuple of Fractions."""
    xs, den = clear_denominators(x)
    P, D = project_onto_cone(gens, xs, Q)
    return tuple(Fraction(a, D * den) for a in P)


def project_by_subset_scan(gens, x, Q=None):
    """The unique nearest point of the cone on the canonical generators gens
    to x in the Q-norm, exactly rational.

    Characterized by p in C and <x - p, c - p>_Q <= 0 for all c in C; found
    by scanning linearly independent generator subsets and solving the normal
    equations on each.
    """
    dim = len(x)
    if Q is None:
        Q = [[int(i == j) for j in range(dim)] for i in range(dim)]
    else:
        Q = check_inner_product(Q, dim)
    if not gens:
        return tuple(Fraction(0) for _ in range(dim))
    # work with the integer vector den * x; p is then (sum_g c_g g) / (d * den)
    xs, den = clear_denominators(x)

    def try_subset(subset):
        gram = [[dot_q(a, b, Q) for b in subset] for a in subset]
        coeffs, d = solve(gram, [dot_q(xs, g, Q) for g in subset])
        if any(c < 0 for c in coeffs):
            return None
        p = [sum(c * g[i] for c, g in zip(coeffs, subset)) for i in range(dim)]
        diff = [d * a - b for a, b in zip(xs, p)]
        if all(dot_q(diff, g, Q) <= 0 for g in gens):
            return tuple(Fraction(a, d * den) for a in p)
        return None

    max_k = min(len(gens), dim)
    for k in range(max_k + 1):
        for subset in itertools.combinations(gens, k):
            p = try_subset(list(subset))
            if p is not None:
                return p
    raise AssertionError("projection onto cone not found; this is a bug")
