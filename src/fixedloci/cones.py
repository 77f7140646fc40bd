"""Rational polyhedral cone arithmetic, exact throughout.

Cones are stored by a canonical generator list: primitive vectors,
lexicographically sorted, with redundant generators removed.  For a cone
with lineality L the canonical list consists of the +/- rows of the HNF basis
of the lineality lattice together with the extreme rays of C intersected
with L^perp, which makes the list unique for the cone as a set.

Duals, intersections, canonical forms and membership all come from one
exact double description whose adjacency tests are integer ranks: a cone
is canonicalised as the dual of its dual, and a point lies in it when it
pairs nonnegatively with every dual generator.  No LP runs here.  Fine for
desk-scale dimensions (<= ~8).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import DimMismatch, ValidationError
from .linalg import (
    IntMatrix,
    clear_denominators,
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


def _dd(halfspaces, dim):
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
    K = kernel_basis(IntMatrix.from_rows(hs, dim))
    lin = [primitive(b) for b in kernel_basis(K).entries]  # a basis of W
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
                if common.bit_count() < need or rank(IntMatrix.from_rows(
                        [hs[i] for i in range(k) if common >> i & 1], dim)) != need:
                    continue
                new.append((_combine(hu, w, hw, u), common | 1 << k))
        rays = new
    out = {r for r, _ in rays}
    for row in hnf(K)[0].entries:
        out.add(row)
        out.add(vec_neg(row))
    return tuple(sorted(out))


def _combine(a, u, b, w):
    """The primitive vector on a * u - b * w."""
    return primitive(tuple(a * x - b * y for x, y in zip(u, w)))


class RationalCone:
    """A rational polyhedral cone in Z^d, canonical generator description."""

    __slots__ = ("generators", "ambient_dim", "_dual")

    def __init__(self, generators, ambient_dim=None, _canonical=False):
        generators = [tuple(int(x) for x in g) for g in generators]
        if ambient_dim is None:
            if not generators:
                raise ValueError("ambient_dim required for a cone with no generators")
            ambient_dim = len(generators[0])
        if any(len(g) != ambient_dim for g in generators):
            raise DimMismatch("generator length does not match ambient_dim")
        if not _canonical:
            generators = _dd(_dd(generators, ambient_dim), ambient_dim)  # C = C**
        self.generators = tuple(generators)
        self.ambient_dim = ambient_dim
        self._dual = None

    @staticmethod
    def from_halfspaces(halfspaces, dim):
        """The cone {y : <h, y> >= 0 for every h}."""
        return RationalCone(_dd(halfspaces, dim), dim, _canonical=True)

    @staticmethod
    def zero(dim):
        return RationalCone((), dim, _canonical=True)

    @staticmethod
    def full(dim):
        return RationalCone.from_halfspaces((), dim)

    def __repr__(self):
        return "RationalCone(%r, dim=%d)" % (list(self.generators), self.ambient_dim)

    def __eq__(self, other):
        return (
            isinstance(other, RationalCone)
            and self.ambient_dim == other.ambient_dim
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.generators))

    def contains(self, x):
        if len(x) != self.ambient_dim:
            raise DimMismatch("point has wrong dimension")
        return all(dot(h, x) >= 0 for h in self.dual().generators)  # C = C**

    def dual(self):
        if self._dual is None:
            self._dual = RationalCone.from_halfspaces(self.generators, self.ambient_dim)
        return self._dual

    def intersection(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimMismatch("ambient dims differ")
        return RationalCone.from_halfspaces(
            self.dual().generators + other.dual().generators, self.ambient_dim)


# ---------------------------------------------------------------------------
# nearest-point projection in a rational inner product

def check_inner_product(Q, dim):
    """Validate an integral symmetric positive definite Gram matrix."""
    if len(Q) != dim or any(len(r) != dim for r in Q):
        raise DimMismatch("inner product must be %dx%d" % (dim, dim))
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
    return sum(u[i] * sum(Q[i][j] * v[j] for j in range(len(v))) for i in range(len(u)))


def project_onto_cone(C: RationalCone, x, Q=None):
    """The unique nearest point of C to x in the Q-norm, exactly rational.

    Characterized by p in C and <x - p, c - p>_Q <= 0 for all c in C; found
    by scanning linearly independent generator subsets and solving the normal
    equations on each.
    """
    dim = C.ambient_dim
    if Q is None:
        Q = [[int(i == j) for j in range(dim)] for i in range(dim)]
    else:
        Q = check_inner_product(Q, dim)
    gens = C.generators
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
