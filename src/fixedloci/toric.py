"""Toric quotient pipeline for a torus acting on a vector space.

Given the weight data of a rank-r subtorus of the diagonal torus T acting on
C^m with stability character theta, this module checks the action once
(toric_context), then computes the toric fan of the quotient and the
residual-torus fixed points, and the bijection between fixed points and
morphisms rho from the residual torus back into the acting torus.

The fixed points are the stable bases: the r-subsets B of the weights with
det B != 0 and B^-1 theta > 0, which are exactly the stable supports of size
r.  toric_context finds them once, with one det and one solve per r-subset
of the distinct weights.  For generic theta, on no hyperplane spanned by r-1
weights, the stable bases are the minimally stable supports, and the fan's
cones are the faces of their complements (Cox-Little-Schenck, Toric
Varieties, section 14).  For theta on a wall the fan falls back to testing
every support through a memo keyed by the weight items a support meets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

from .common import Status
from .errors import (
    EmptyStableLocus,
    FreeActionViolated,
    TooLarge,
)
from .hmtorus import WeightedAction, is_stable_support
from .linalg import (
    IntMatrix,
    cokernel_with_section,
    det,
    primitive,
    rank,
    solve,
    solve_integral,
)

MAX_ENUM_DIM = 16  # cap on |I| for the 2^|I| scan; only non-generic theta needs it
# Past MAX_ENUM_DIM a generic theta is admitted under two caps, set by
# measurement to about the work admitted within it.  The basis scan makes one
# det and one solve for each of the C(d, r) r-subsets of the d distinct
# weights, and C(16, 8) is the most an input within MAX_ENUM_DIM can meet.
# The fan lists bases * 2^(m-r) faces before dropping repeats; at 2^18 with
# no repeat (r = 0, m = 18) that is a 58 MB report.
MAX_BASIS_SUBSETS = math.comb(MAX_ENUM_DIM, MAX_ENUM_DIM // 2)
MAX_FAN_FACES = 1 << 18


@dataclass(frozen=True)
class RhoMap:
    """A morphism of tori on cocharacter lattices: r rows, aux_rank columns."""

    matrix: IntMatrix

    def pullback_weight(self, chi):
        """The induced character of the source torus: chi composed with rho."""
        return tuple(
            sum(chi[i] * self.matrix.entries[i][j] for i in range(self.matrix.nrows))
            for j in range(self.matrix.ncols)
        )


@dataclass(frozen=True)
class ToricFan:
    lattice_rank: int
    rays: tuple
    cones: tuple  # sorted tuples of ray indices, every face listed
    tops: tuple | None = field(default=None, compare=False, repr=False)  # maximal cones, if known

    @property
    def maximal_cones(self):
        """The cones that are no facet of another cone.  Every face is
        listed, so a cone inside a larger one is a facet of some cone."""
        if self.tops is not None:
            return self.tops
        facets = {c[:k] + c[k + 1:] for c in self.cones for k in range(len(c))}
        return tuple(c for c in self.cones if c not in facets)


@dataclass(frozen=True)
class FixedComponent:
    rho: RhoMap
    support: tuple  # sorted (item, copy) pairs carrying the weights of V_rho
    g_descriptor: str
    dimension: int
    status: Status


@dataclass(frozen=True)
class ToricContext:
    """A checked action with its cokernel projection pi, the section c in
    use, `stable`, the support stability test memoised by item set,
    `bases`, the sorted stable index bases, and whether theta is generic."""

    action: WeightedAction
    pi: IntMatrix
    section: IntMatrix
    stable: Callable
    bases: tuple
    generic: bool


def _stable_bases(action: WeightedAction, copies):
    """The stable bases among the distinct weights, and whether theta is generic.

    copies maps each distinct weight to its (item, copy) indices.  Each
    r-subset B of the distinct weights with det B != 0 gets one solve for
    lambda = B^-1 theta, and lambda > 0 makes B a stable basis.  Some
    lambda_j = 0 puts theta on the wall spanned by the rest of B; once the
    weights have rank r every independent (r-1)-set extends to a basis, so
    the scan sees every wall.
    """
    r = action.g_rank
    out, generic = [], True
    for B in itertools.combinations(copies, r):
        cols = [[chi[i] for chi in B] for i in range(r)]
        if det(cols) == 0:
            continue
        lam, _ = solve(cols, action.theta)
        if 0 in lam:
            generic = False
        elif all(x > 0 for x in lam):
            out.append(B)
    return out, generic


def toric_context(action: WeightedAction, section: IntMatrix | None = None) -> ToricContext:
    """The one entry point of the toric scans, after their checks.

    The checks run in order: the full support must be stable
    (EmptyStableLocus); past MAX_ENUM_DIM coordinates theta must be generic
    and the basis scan and the fan's faces within their caps (TooLarge); the
    weight inclusion must have a free cokernel (NotInjective,
    TorsionCokernel), and a supplied section must split it
    (FreeActionViolated).

    pi is (m-r) x m on cocharacter lattices; c is m x (m-r) with pi*c = id.
    A user-supplied section fixes the identification of the cokernel: its
    columns must complete the weight columns to a lattice basis, and pi is
    then the unique projection annihilating the weights and splitting c.
    Stability depends only on the weights a support meets, so `stable`
    decides each set of weight items once for the fan when theta is not
    generic.
    """
    memo = {}

    def stable(support):
        key = frozenset(s for (s, k) in support)
        if key not in memo:
            memo[key] = is_stable_support(action, support)
        return memo[key]

    idx = action.indices()
    m, r = len(idx), action.g_rank
    if not stable(idx):
        raise EmptyStableLocus("the stable locus is empty")
    copies = {}
    for i in idx:
        copies.setdefault(action.chi_of(i), []).append(i)
    if m > MAX_ENUM_DIM and math.comb(len(copies), r) > MAX_BASIS_SUBSETS:
        raise TooLarge("basis scan over C(%d, %d) weight subsets refused" % (len(copies), r))
    weight_bases, generic = _stable_bases(action, copies)
    if m > MAX_ENUM_DIM:
        if not generic:
            raise TooLarge("fan enumeration over 2^%d subsets refused" % m)
        n_bases = sum(math.prod(len(copies[chi]) for chi in B) for B in weight_bases)
        if n_bases << (m - r) > MAX_FAN_FACES:
            raise TooLarge("fan of %d stable bases with 2^%d faces each refused" % (n_bases, m - r))
    # one index basis per choice of copies; sorted, they come in the order
    # of itertools.combinations(idx, r)
    bases = tuple(sorted(tuple(sorted(p)) for B in weight_bases
                         for p in itertools.product(*(copies[chi] for chi in B))))
    a = IntMatrix.from_rows([action.chi_of(i) for i in idx], r)
    pi, c = cokernel_with_section(a)
    if section is not None:
        if (section.nrows, section.ncols) != (c.nrows, c.ncols):
            raise FreeActionViolated("section must be %dx%d" % (c.nrows, c.ncols))
        completed = IntMatrix.from_rows(
            [tuple(a.entries[i]) + tuple(section.entries[i]) for i in range(m)], m
        )
        inv = solve_integral(completed.entries, IntMatrix.identity(m).entries)
        if inv is None:
            raise FreeActionViolated("supplied section does not split the cokernel")
        pi = IntMatrix.from_rows(inv[r:], m)
        c = section
    return ToricContext(action, pi, c, stable, bases, generic)


def quotient_fan(ctx: ToricContext) -> ToricFan:
    """The toric fan of the stable quotient.

    Rays are the primitive images of the coordinate 1-PS basis under the
    cokernel projection; a subset spans a cone precisely when its complement
    is a stable support.  For generic theta the maximal cones are the
    complements of the stable bases, one rank test each (a face of an
    independent set is independent), and the cones are all their faces;
    the fan keeps them as its maximal cones.  Otherwise every subset of I
    is tested, with one rank test per cone.
    """
    action = ctx.action
    idx = action.indices()
    n_rank = ctx.pi.nrows
    ray_of = {i: primitive(ctx.pi.col(action.flat_index(i))) for i in idx}
    all_idx = frozenset(idx)

    def independent(vecs):
        if vecs and rank(IntMatrix.from_rows(vecs, n_rank)) != len(vecs):
            raise AssertionError("fan cone is not simplicial; this is a bug")
        return vecs

    if ctx.generic:
        comps = [independent([ray_of[i] for i in idx if i not in b]) for b in ctx.bases]
        rays = tuple(sorted({v for comp in comps for v in comp}))
        lookup = {v: i for i, v in enumerate(rays)}
        tops = tuple(sorted({tuple(sorted(lookup[v] for v in comp)) for comp in comps}))
        cones = {face for top in tops for k in range(len(top) + 1)
                 for face in itertools.combinations(top, k)}
        return ToricFan(n_rank, rays, tuple(sorted(cones)), tops)
    cone_sets = set()
    for size in range(len(idx) + 1):
        for comb in itertools.combinations(idx, size):
            if ctx.stable(all_idx.difference(comb)):
                cone_sets.add(frozenset(independent([ray_of[i] for i in comb])))
    rays = tuple(sorted(set().union(*cone_sets)))
    lookup = {v: i for i, v in enumerate(rays)}
    cones = tuple(sorted(tuple(sorted(lookup[v] for v in c)) for c in cone_sets))
    return ToricFan(n_rank, rays, cones)


def rho_from_stable_subset(action: WeightedAction, support, section: IntMatrix) -> RhoMap:
    """Invert the weight map on a minimally stable support against the section.

    The map g -> (chi_s(g)) over the support must be invertible over Z; the
    free-action hypothesis forces this, so failure raises FreeActionViolated.
    """
    sup = sorted(support)
    r = action.g_rank
    a_s = IntMatrix.from_rows([action.chi_of(i) for i in sup], r)
    if a_s.nrows != r:
        raise FreeActionViolated("support has size %d, expected %d" % (a_s.nrows, r))
    d = det(a_s.entries)
    if abs(d) != 1:
        raise FreeActionViolated("support weight matrix has determinant %s" % d)
    c_s = [section.entries[action.flat_index(i)] for i in sup]
    return RhoMap(IntMatrix.from_rows(solve_integral(a_s.entries, c_s), section.ncols))


def s_rho(action: WeightedAction, rho: RhoMap, section: IntMatrix):
    """Indices whose section character equals the weight pulled back by rho."""
    out, flat = [], 0
    for s, it in enumerate(action.items):
        pulled = rho.pullback_weight(it.chi)
        out.extend((s, k) for k in range(it.mult) if tuple(section.entries[flat + k]) == pulled)
        flat += it.mult
    return frozenset(out)


def fixed_points_toric(ctx: ToricContext):
    """One zero-dimensional fixed component per stable basis, for any theta.

    A point is fixed when its T-orbit has the dimension r of its G-orbit,
    so its support has size r; a stable support of size r is a stable
    basis.  The context lists them in sorted order.
    """
    action, c = ctx.action, ctx.section
    components = []
    for comb in ctx.bases:
        sup = frozenset(comb)
        rho = rho_from_stable_subset(action, sup, c)
        derived = s_rho(action, rho, c)
        assert derived == sup, "support of rho does not recover the stable subset"
        components.append(
            FixedComponent(
                rho=rho,
                support=comb,
                g_descriptor="torus",
                dimension=0,
                status=Status.NONEMPTY_VERIFIED,
            )
        )
    return components
