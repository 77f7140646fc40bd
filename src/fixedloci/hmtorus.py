"""Hilbert-Mumford and Kempf computations for a torus acting with weights.

A WeightedAction packages the weight data of a rank-r torus acting on a
vector space (with an optional commuting auxiliary torus recorded through
the w fields) together with the stability character theta.  Where only a
yes/no answer is needed, stability of a coordinate support set is decided
by one exact LP certificate on the raw support weights.  The Kempf minimum
and the optimal destabilizing one-parameter subgroup come from a
nearest-point projection onto the limit cone in a user-chosen integral
inner product; the sign of that minimum gives the same two answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .cones import check_inner_product, dot_q, dual_cone, project_onto_cone
from .errors import ValidationError
from .linalg import dot, primitive, rank, solve, vec_neg
from .simplex import feasible_nonneg


@dataclass(frozen=True)
class WeightItem:
    """One weight of the action: chi in Z^r, auxiliary weight w in Z^aux."""

    chi: tuple
    w: tuple = ()
    mult: int = 1

    def __post_init__(self):
        object.__setattr__(self, "chi", tuple(int(x) for x in self.chi))
        object.__setattr__(self, "w", tuple(int(x) for x in self.w))
        if self.mult < 1:
            raise ValidationError("mult must be >= 1")


@dataclass(frozen=True)
class WeightedAction:
    g_rank: int
    aux_rank: int
    items: tuple
    theta: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "theta", tuple(int(x) for x in self.theta))
        if len(self.theta) != self.g_rank:
            raise ValidationError("theta must live in Z^%d" % self.g_rank)
        for it in self.items:
            if len(it.chi) != self.g_rank:
                raise ValidationError("weight %r has wrong rank" % (it.chi,))
            if len(it.w) != self.aux_rank:
                raise ValidationError("auxiliary weight %r has wrong rank" % (it.w,))

    def indices(self):
        """The index set I of (item, copy) pairs, in flat order."""
        out = []
        for s, it in enumerate(self.items):
            for k in range(it.mult):
                out.append((s, k))
        return tuple(out)

    @cached_property
    def flat(self):
        """Each (item, copy) index's position in flat order, built once."""
        return {idx: n for n, idx in enumerate(self.indices())}

    @property
    def total_dim(self):
        return sum(it.mult for it in self.items)

    def chi_of(self, idx):
        return self.items[idx[0]].chi


def _normalize_support(action, support):
    support = frozenset(tuple(p) for p in support)
    items = action.items
    for p in support:
        # read off the multiplicities, so no index set is built for the check
        if not (len(p) == 2 and 0 <= p[0] < len(items) and 0 <= p[1] < items[p[0]].mult):
            raise ValidationError("support index %r not in the action's index set" % (p,))
    return support


def _support_chis(action, support):
    """The distinct weights meeting the support, sorted."""
    support = _normalize_support(action, support)
    return sorted({action.items[s].chi for (s, k) in support})


def limit_cone(action: WeightedAction, support):
    """One-parameter subgroups eta such that every support coordinate has
    a limit: the canonical generators of {eta : <chi_s, eta> >= 0 for all s
    meeting the support}, the dual of the support weights' cone, built from
    the raw weights."""
    return dual_cone(_support_chis(action, support), action.g_rank)


def is_stable_support(action: WeightedAction, support) -> bool:
    """True iff every nonzero limit-admitting 1-PS pairs positively with theta.

    Equivalent to: the support weights have rank r and theta lies in the
    interior of their cone, i.e. is a strictly positive combination of all
    of them.  The certificate is one LP after the rank check: some
    lambda >= 0 and t >= 0 with sum_s (lambda_s + 1) chi_s = t theta.  For
    t > 0 this writes theta with coefficients (lambda_s + 1)/t > 0; for t = 0
    the cone contains a strictly positive relation, so it is a linear space,
    all of Q^r by the rank condition.
    """
    chis = _support_chis(action, support)
    r = action.g_rank
    if rank(chis) != r:
        return False
    rows = [[chi[i] for chi in chis] + [-action.theta[i]] for i in range(r)]
    return feasible_nonneg(rows, [-sum(chi[i] for chi in chis) for i in range(r)])


@dataclass(frozen=True)
class MValue:
    """Sign and squared magnitude of the Kempf minimum over the limit cone.

    The minimum itself is generally irrational; sign in {-1, 0, +1} is the
    sign of the minimum and m_squared its square as an exact rational.
    m_squared is None when no nonzero 1-PS admits a limit (the minimum is
    vacuously +infinity, sign +1).
    """

    sign: int
    m_squared: Fraction | None = field(default=None)


def kempf_data(action: WeightedAction, support, Q=None):
    """The Kempf minimum, the adapted primitive ray (None unless m < 0) and
    the limit cone's generators, from one nearest-point projection of
    -Q^-1 theta = -X / d, taken at the integer point -X."""
    cone = limit_cone(action, support)
    if Q is not None:  # None is the standard inner product, kept implicit
        Q = check_inner_product(Q, action.g_rank)
    if not cone:
        return MValue(1, None), None, cone
    theta = action.theta
    X, d = (theta, 1) if Q is None else solve(Q, theta)
    P, D = project_onto_cone(cone, vec_neg(X), Q)
    if any(P):
        return MValue(-1, Fraction(dot_q(P, P, Q), (d * D) ** 2)), primitive(P), cone
    vals = []
    for g in cone:
        num = dot(theta, g)
        assert num >= 0, "projection vanished but a generator pairs negatively"
        vals.append(Fraction(num * num, dot_q(g, g, Q)))
    msq = min(vals)
    return MValue(0 if msq == 0 else 1, msq), None, cone
