"""Toric quotient pipeline for a torus acting on a vector space.

Given the weight data of a rank-r subtorus of the diagonal torus T acting on
C^m with stability character theta, this module checks the action once
(toric_context), then computes the toric fan of the quotient and the
residual-torus fixed points from one memo of stable supports, and the
bijection between fixed points and morphisms rho from the residual torus
back into the acting torus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
    solve_integral,
)

MAX_ENUM_DIM = 16  # cap on |I| for the 2^|I| fan enumeration


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

    @property
    def maximal_cones(self):
        sets = [frozenset(c) for c in self.cones]
        out = []
        for i, c in enumerate(sets):
            if not any(c < d for d in sets):
                out.append(self.cones[i])
        return tuple(out)


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
    use, and `stable`, the support stability test memoised by item set."""

    action: WeightedAction
    pi: IntMatrix
    section: IntMatrix
    stable: Callable


def toric_context(action: WeightedAction, section: IntMatrix | None = None) -> ToricContext:
    """The one entry point of the toric scans, after their checks.

    The checks run in order: the full support must be stable
    (EmptyStableLocus), |I| must be at most MAX_ENUM_DIM (TooLarge), the
    weight inclusion must have a free cokernel (NotInjective,
    TorsionCokernel), and a supplied section must split it
    (FreeActionViolated).

    pi is (m-r) x m on cocharacter lattices; c is m x (m-r) with pi*c = id.
    A user-supplied section fixes the identification of the cokernel: its
    columns must complete the weight columns to a lattice basis, and pi is
    then the unique projection annihilating the weights and splitting c.
    Stability depends only on the weights a support meets, so `stable`
    decides each set of weight items once for both scans.
    """
    memo = {}

    def stable(support):
        key = frozenset(s for (s, k) in support)
        if key not in memo:
            memo[key] = is_stable_support(action, support)
        return memo[key]

    idx = action.indices()
    if not stable(idx):
        raise EmptyStableLocus("the stable locus is empty")
    if len(idx) > MAX_ENUM_DIM:
        raise TooLarge("fan enumeration over 2^%d subsets refused" % len(idx))
    a = IntMatrix.from_rows([action.chi_of(i) for i in idx], action.g_rank)
    pi, c = cokernel_with_section(a)
    if section is not None:
        if (section.nrows, section.ncols) != (c.nrows, c.ncols):
            raise FreeActionViolated("section must be %dx%d" % (c.nrows, c.ncols))
        m, r = a.nrows, a.ncols
        completed = IntMatrix.from_rows(
            [tuple(a.entries[i]) + tuple(section.entries[i]) for i in range(m)], m
        )
        inv = solve_integral(completed.entries, IntMatrix.identity(m).entries)
        if inv is None:
            raise FreeActionViolated("supplied section does not split the cokernel")
        pi = IntMatrix.from_rows(inv[r:], m)
        c = section
    return ToricContext(action, pi, c, stable)


def quotient_fan(ctx: ToricContext) -> ToricFan:
    """The toric fan of the stable quotient.

    Rays are the primitive images of the coordinate 1-PS basis under the
    cokernel projection; a subset spans a cone precisely when its complement
    is a stable support.
    """
    action = ctx.action
    idx = action.indices()
    n_rank = ctx.pi.nrows
    ray_of = {i: primitive(ctx.pi.col(action.flat_index(i))) for i in idx}
    all_idx = frozenset(idx)
    cone_sets = set()
    for size in range(len(idx) + 1):
        for comb in itertools.combinations(idx, size):
            if not ctx.stable(all_idx.difference(comb)):
                continue
            vecs = [ray_of[i] for i in comb]
            if vecs and rank(IntMatrix.from_rows(vecs, n_rank)) != len(vecs):
                raise AssertionError("fan cone is not simplicial; this is a bug")
            cone_sets.add(frozenset(vecs))
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
    out = []
    for idx in action.indices():
        c_row = section.entries[action.flat_index(idx)]
        if tuple(c_row) == rho.pullback_weight(action.chi_of(idx)):
            out.append(idx)
    return frozenset(out)


def fixed_points_toric(ctx: ToricContext):
    """One zero-dimensional fixed component per stable r-subset of I.

    A stable support of size r is minimally stable, its weights a basis, so
    the scan runs over the size-r subsets only instead of all of 2^|I|.  I
    is sorted, so the subsets, and the components, come in sorted order.
    """
    action, c = ctx.action, ctx.section
    components = []
    for comb in itertools.combinations(action.indices(), action.g_rank):
        if not ctx.stable(comb):
            continue
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
