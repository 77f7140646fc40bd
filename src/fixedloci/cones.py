"""Rational polyhedral cone arithmetic, exact throughout.

Cones are stored by a canonical generator list: primitive vectors,
lexicographically sorted, with redundant generators removed.  For a cone
with lineality the canonical list consists of the +/- rows of the HNF basis
of the lineality lattice together with the extreme rays of the pointed part,
which makes the list unique for the cone as a set.

Duals are computed by stepwise Fourier-Motzkin / double description with
redundancy elimination after each halfspace; membership questions reduce to
exact LP feasibility.  Fine for desk-scale dimensions (<= ~8).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import DimMismatch, ValidationError
from .linalg import (
    clear_denominators,
    det,
    dot,
    is_zero_vec,
    primitive,
    saturated_lattice_basis,
    solve,
    vec_neg,
)
from .simplex import feasible_nonneg


def _in_cone_raw(gens, x):
    """Membership of x in cone(gens) via nonnegative-combination feasibility."""
    if not gens:
        return all(a == 0 for a in x)
    dim = len(x)
    rows = [[g[i] for g in gens] for i in range(dim)]
    return feasible_nonneg(rows, list(x))


def _prune_redundant(gens):
    """Remove generators that are nonnegative combinations of the others.

    Single ordered pass; each test is against the currently remaining set, so
    the generated cone never changes and no survivor is redundant.
    """
    current = list(gens)
    i = 0
    while i < len(current):
        rest = current[:i] + current[i + 1:]
        if _in_cone_raw(rest, current[i]):
            current.pop(i)
        else:
            i += 1
    return current


def _orthogonal_component(v, basis_rows):
    """A positive integer multiple of v minus its (standard) orthogonal
    projection onto the span of the independent basis_rows."""
    gram = [[dot(a, b) for b in basis_rows] for a in basis_rows]
    coeffs, d = solve(gram, [dot(a, v) for a in basis_rows])
    return tuple(d * a - sum(c * row[i] for c, row in zip(coeffs, basis_rows))
                 for i, a in enumerate(v))


def _canonical_generators(gens, dim):
    gens = sorted({primitive(g) for g in gens if not is_zero_vec(g)})
    if not gens:
        return ()
    lin = [g for g in gens if _in_cone_raw(gens, vec_neg(g))]
    if not lin:
        return tuple(sorted(_prune_redundant(gens)))
    L = saturated_lattice_basis(lin, dim)
    pointed = []
    for g in gens:
        w = _orthogonal_component(g, L.entries)
        if any(w):
            pointed.append(primitive(w))
    pointed = _prune_redundant(sorted(set(pointed)))
    out = set(pointed)
    for row in L.entries:
        out.add(tuple(row))
        out.add(vec_neg(row))
    return tuple(sorted(out))


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
            generators = _canonical_generators(generators, ambient_dim)
        self.generators = tuple(generators)
        self.ambient_dim = ambient_dim
        self._dual = None

    @staticmethod
    def zero(dim):
        return RationalCone((), dim, _canonical=True)

    @staticmethod
    def full(dim):
        gens = []
        for i in range(dim):
            e = tuple(int(i == j) for j in range(dim))
            gens += [e, vec_neg(e)]
        return RationalCone(gens, dim)

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
        return _in_cone_raw(self.generators, tuple(x))

    def dual(self):
        if self._dual is None:
            gens = _dual_generators(self.generators, self.ambient_dim)
            self._dual = RationalCone(gens, self.ambient_dim)
        return self._dual

    def intersection(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimMismatch("ambient dims differ")
        halfspaces = list(self.dual().generators) + list(other.dual().generators)
        return RationalCone(_dual_generators(tuple(halfspaces), self.ambient_dim), self.ambient_dim)

    def contains_cone(self, other):
        return all(self.contains(g) for g in other.generators)

    def same_cone(self, other):
        """Set equality, tested by mutual generator containment."""
        return self.contains_cone(other) and other.contains_cone(self)


def _dual_generators(halfspaces, dim):
    """Generators of {y : <h, y> >= 0 for all h} by double description."""
    gens = []
    for i in range(dim):
        e = tuple(int(i == j) for j in range(dim))
        gens += [e, vec_neg(e)]
    for h in sorted({primitive(h) for h in halfspaces if not is_zero_vec(h)}):
        pos = [g for g in gens if dot(h, g) > 0]
        zero = [g for g in gens if dot(h, g) == 0]
        neg = [g for g in gens if dot(h, g) < 0]
        new = pos + zero
        for u in pos:
            hu = dot(h, u)
            for w in neg:
                hw = dot(h, w)
                comb = tuple(hu * wj - hw * uj for uj, wj in zip(u, w))
                if not is_zero_vec(comb):
                    new.append(primitive(comb))
        gens = _prune_redundant(sorted(set(new)))
    return gens


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
