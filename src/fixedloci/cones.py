"""Rational polyhedral cones, exact throughout.

A cone is a tuple of canonical generators: primitive vectors,
lexicographically sorted, with redundant generators removed.  For a cone
with lineality L the canonical list consists of the +/- rows of the HNF basis
of the lineality lattice together with the extreme rays of C intersected
with L^perp, which makes the list unique for the cone as a set.

`dual_cone` is one exact double description whose adjacency tests are
integer ranks, run inside the span of the halfspaces from a basis that one
fraction-free elimination gives; a saturated kernel and its HNF are built
only for a nontrivial lineality.  It gives the limit cones of the Kempf
queries, and the dual of a dual is a canonical form.  `nnls`, exact
non-negative least squares in an integral inner product, is the package's
one cone-membership solver: `project_onto_cone` and `simplex.solve_nonneg`
read their answers off it.  Fine for desk-scale dimensions (<= ~8).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError
from .linalg import (
    _eliminate,
    det,
    dot,
    hnf,
    is_zero_vec,
    kernel_basis,
    primitive,
    rank,
    solve,
    vec_neg,
)


def dual_cone(halfspaces, dim):
    """Canonical generators of {y : <h, y> >= 0 for every h}, exactly.

    The nonzero rows of one fraction-free elimination of the halfspace rows
    are a basis of their row span W.  The pointed part is found by double
    description inside W (Fukuda-Prodon 1996), starting from that basis as
    lineality: a halfspace nonzero on the current lineality cuts it with one
    pivot; otherwise a positive and a negative ray are combined only when
    adjacent, i.e. when the processed halfspaces tight at both have rank
    dim W - dim lineality - 2.  Every ray stays in W, so the rays found are
    the primitive extreme rays of the cone intersected with W = L^perp.
    Only when W is not all of Q^dim is the lineality space L nontrivial: it
    is the saturated integer kernel of the halfspace rows, emitted as +/-
    its HNF rows.
    """
    hs = sorted({primitive(h) for h in halfspaces if not is_zero_vec(h)})
    M, pivots, _ = _eliminate(hs)
    lin = [primitive(row) for row in M[:len(pivots)]]  # a basis of W
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
    if dim_w < dim:
        for row in hnf(kernel_basis(hs, dim), dim)[0]:
            out.add(row)
            out.add(vec_neg(row))
    return tuple(sorted(out))


def _combine(a, u, b, w):
    """The primitive vector on a * u - b * w."""
    return primitive([a * x - b * y for x, y in zip(u, w)])


# ---------------------------------------------------------------------------
# non-negative least squares in an integral inner product

def check_inner_product(Q, dim):
    """Validate an integral symmetric positive definite Gram matrix."""
    if len(Q) != dim or any(len(r) != dim for r in Q):
        raise ValidationError("inner product must be %dx%d" % (dim, dim))
    rows = [tuple(int(x) for x in r) for r in Q]
    for i in range(dim):
        for j in range(dim):
            if rows[i][j] != rows[j][i]:
                raise ValidationError("inner product not symmetric")
    for k in range(1, dim + 1):
        minor = [r[:k] for r in rows[:k]]
        if det(minor) <= 0:
            raise ValidationError("inner product not positive definite")
    return rows


def dot_q(u, v, Q):
    """<u, v>_Q, the standard inner product when Q is None."""
    if Q is None:
        return dot(u, v)
    return sum(u[i] * sum(Q[i][j] * v[j] for j in range(len(v))) for i in range(len(u)))


def nnls(gens, x, Q=None):
    """Exact non-negative least squares on integer vectors: (passive, X, d)
    with the point sum_k X_k * gens[passive_k] / d of the cone on gens
    nearest to x in the Q-norm, every X_k > 0, d > 0, and the passive
    generators linearly independent.

    Q is an integral symmetric positive definite Gram matrix as
    check_inner_product returns it, the identity when None; it is not
    checked again here.  This is Lawson-Hanson's active-set method (Solving
    Least Squares Problems, 1974, ch. 23) in exact arithmetic.  Each pass
    adds to the passive set the generator with the largest positive
    residual pairing <x - p, g>_Q, the lowest index on ties, and solves the
    normal equations on the passive set; while a coefficient is not
    positive it steps back to feasibility by the exact ratio and drops the
    generators whose coefficients reach 0.  It stops when no pairing is
    positive: with c >= 0 this says <x - p, c - p>_Q <= 0 for every c in
    the cone.  So x lies in the cone exactly when p = x.
    """
    qgens = gens if Q is None else [[dot(row, g) for row in Q] for g in gens]
    rhs = [dot(x, qg) for qg in qgens]
    gram = {}  # the Gram row of each generator that has entered the passive set
    passive, X, d = [], (), 1
    # A passive set stays linearly independent (a generator in its span
    # pairs to 0 with the residual), and each pass ends on a new one at a
    # smaller distance, so the passes are bounded by the independent sets.
    for _ in range(sum(math.comb(len(gens), k) for k in range(len(x) + 1))):
        # d * <x - p, g>_Q for every generator g
        w = [d * b - sum(c * gram[i][j] for c, i in zip(X, passive))
             for j, b in enumerate(rhs)]
        j = max(range(len(gens)), key=w.__getitem__, default=None)
        if j is None or w[j] <= 0:
            break
        if j not in gram:
            gram[j] = [dot(gens[j], qg) for qg in qgens]
        passive.append(j)
        coeffs = [Fraction(c, d) for c in X] + [Fraction(0)]
        while True:
            X, d = solve([[gram[i][k] for k in passive] for i in passive],
                         [rhs[i] for i in passive])
            if all(z > 0 for z in X):
                break
            zs = [Fraction(z, d) for z in X]
            step = min(Fraction(c, c - z) for c, z in zip(coeffs, zs) if z <= 0)
            coeffs = [c + step * (z - c) for c, z in zip(coeffs, zs)]
            passive = [i for i, c in zip(passive, coeffs) if c]
            coeffs = [c for c in coeffs if c]
    else:
        raise AssertionError("active-set projection did not converge; this is a bug")
    assert all(c > 0 for c in X) and all(v <= 0 for v in w), \
        "projection fails its optimality conditions; this is a bug"
    return tuple(passive), X, d


def project_onto_cone(gens, x, Q=None):
    """The point of `nnls` as (P, D): integers P and D > 0 with the point
    P / D.  The projection is positively homogeneous, so the nearest point
    to x / d is P / (d * D)."""
    passive, X, d = nnls(gens, x, Q)
    return tuple(sum(c * gens[i][k] for c, i in zip(X, passive)) for k in range(len(x))), d
