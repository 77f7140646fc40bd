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

The oracle `dual_cone_by_kernels` is the double description `dual_cone`
ran before it read its basis of the row span W off one elimination, kept
verbatim: it takes the saturated kernel K of the halfspace rows and a basis
of W as the kernel of K, and emits the HNF rows of K as lineality, whether
or not the halfspaces span the whole space.
"""

import itertools
from fractions import Fraction

from fixedloci.cones import check_inner_product, dot_q, dual_cone, project_onto_cone
from fixedloci.linalg import (
    clear_denominators,
    dot,
    hnf,
    is_zero_vec,
    kernel_basis,
    primitive,
    rank,
    solve,
    vec_neg,
)


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


def dual_cone_by_kernels(halfspaces, dim):
    """Canonical generators of {y : <h, y> >= 0 for every h}, exactly.

    The lineality space is the saturated integer kernel of the halfspace
    rows, emitted as +/- its HNF rows.  The pointed part is found by double
    description inside their row span W = L^perp (Fukuda-Prodon 1996),
    starting from a basis of W as lineality: a halfspace nonzero on the
    current lineality cuts it with one pivot; otherwise a positive and a
    negative ray are combined only when adjacent, i.e. when the processed
    halfspaces tight at both have rank dim W - dim lineality - 2.  Every ray
    stays in W, so the rays found are the primitive extreme rays of the
    cone intersected with L^perp.
    """
    hs = sorted({primitive(h) for h in halfspaces if not is_zero_vec(h)})
    K = kernel_basis(hs, dim)
    lin = [primitive(b) for b in kernel_basis(K, dim)]  # a basis of W
    dim_w = len(lin)
    rays = []  # (ray, bitmask of the processed halfspaces tight at it)
    for k, h in enumerate(hs):
        vals = [dot(h, b) for b in lin]
        j = next((i for i, v in enumerate(vals) if v), None)
        if j is not None:
            b, hb = lin.pop(j), vals.pop(j)
            if hb < 0:
                b, hb = vec_neg(b), -hb
            lin = [_combine(hb, c, v, b) for c, v in zip(lin, vals)]
            rays = [(_combine(hb, r, dot(h, r), b), z | 1 << k) for r, z in rays]
            rays.append((b, (1 << k) - 1))
            continue
        pos, neg, new = [], [], []
        for r, z in rays:
            v = dot(h, r)
            if v > 0:
                pos.append((r, z, v))
                new.append((r, z))
            elif v < 0:
                neg.append((r, z, v))
            else:
                new.append((r, z | 1 << k))
        need = dim_w - len(lin) - 2
        for u, zu, hu in pos:
            for w, zw, hw in neg:
                common = zu & zw
                if common.bit_count() < need or rank(
                        [hs[i] for i in range(k) if common >> i & 1]) != need:
                    continue
                new.append((_combine(hu, w, hw, u), common | 1 << k))
        rays = new
    out = {r for r, _ in rays}
    for row in hnf(K, dim)[0]:
        out.add(row)
        out.add(vec_neg(row))
    return tuple(sorted(out))


def _combine(a, u, b, w):
    """The primitive vector on a * u - b * w."""
    return primitive(tuple(a * x - b * y for x, y in zip(u, w)))
