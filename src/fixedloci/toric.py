"""Toric quotient pipeline for a torus acting on a vector space.

Given the weight data of a rank-r subtorus of the diagonal torus T acting on
C^m with stability character theta, this module computes the stable support
sets, the toric fan of the quotient, the residual-torus fixed points, and
the bijection between fixed points and morphisms rho from the residual torus
back into the acting torus.  It also contains the finite enumeration of
lattice maps determined by a finite coincidence set, which powers the
candidate-rho search for general abelian weight data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .common import Status
from .cones import RationalCone
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

    def cone_geometry(self, cone) -> RationalCone:
        gens = [self.rays[i] for i in cone]
        return RationalCone(gens, self.lattice_rank)


@dataclass(frozen=True)
class FixedComponent:
    rho: RhoMap
    support: tuple  # sorted (item, copy) pairs carrying the weights of V_rho
    g_descriptor: str
    dimension: int
    status: Status


def weight_matrix(action: WeightedAction) -> IntMatrix:
    """The m x r matrix whose rows are the weights, one row per index in I."""
    rows = [action.chi_of(idx) for idx in action.indices()]
    return IntMatrix.from_rows(rows, action.g_rank)


def toric_context(action: WeightedAction, section: IntMatrix | None = None):
    """Cokernel projection pi and section c for the weight inclusion.

    pi is (m-r) x m on cocharacter lattices; c is m x (m-r) with pi*c = id.
    A user-supplied section fixes the identification of the cokernel: its
    columns must complete the weight columns to a lattice basis, and pi is
    then the unique projection annihilating the weights and splitting c.
    """
    a = weight_matrix(action)
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
    return pi, c


def _stable_prset_memo(action):
    memo = {}

    def stable(support):
        key = frozenset(s for (s, k) in support)
        if key not in memo:
            memo[key] = is_stable_support(action, support)
        return memo[key]

    return stable


def stable_subsets(action: WeightedAction):
    """All stable support subsets of I, in canonical sorted order."""
    idx = action.indices()
    if len(idx) > MAX_ENUM_DIM:
        raise TooLarge("support enumeration over 2^%d subsets refused" % len(idx))
    stable = _stable_prset_memo(action)
    out = []
    for size in range(len(idx) + 1):
        for comb in itertools.combinations(idx, size):
            if stable(comb):
                out.append(frozenset(comb))
    return out


def minimally_stable_subsets(action: WeightedAction):
    """Stable subsets of size exactly r whose weights form a basis.

    Minimality lets the enumeration run over size-r subsets only instead of
    all of 2^|I|.
    """
    r = action.g_rank
    idx = action.indices()
    out = []
    for comb in itertools.combinations(idx, r):
        if is_stable_support(action, comb):
            out.append(frozenset(comb))
    return out


def check_fan_enumerable(action: WeightedAction):
    """The index set, after the checks quotient_fan makes before its 2^|I|
    scan: EmptyStableLocus, then TooLarge."""
    idx = action.indices()
    if not is_stable_support(action, idx):
        raise EmptyStableLocus("the stable locus is empty")
    if len(idx) > MAX_ENUM_DIM:
        raise TooLarge("fan enumeration over 2^%d subsets refused" % len(idx))
    return idx


def quotient_fan(action: WeightedAction, section: IntMatrix | None = None,
                 context=None) -> ToricFan:
    """The toric fan of the stable quotient.

    Rays are the images of the coordinate 1-PS basis under the cokernel
    projection; a subset spans a cone precisely when its complement is a
    stable support.  A caller that has already run check_fan_enumerable may
    pass toric_context(action, section) as context; both are then skipped.
    """
    if context is None:
        check_fan_enumerable(action)
        context = toric_context(action, section)
    idx = action.indices()
    pi, _ = context
    n_rank = pi.nrows
    ray_vectors = [pi.col(action.flat_index(i)) for i in idx]

    stable = _stable_prset_memo(action)
    all_idx = set(idx)
    ray_index = {}
    ordered_rays = []
    cone_sets = set()
    for size in range(len(idx) + 1):
        for comb in itertools.combinations(idx, size):
            complement = all_idx - set(comb)
            if not stable(frozenset(complement)):
                continue
            vecs = [primitive(ray_vectors[action.flat_index(i)]) for i in comb]
            if vecs and rank(IntMatrix.from_rows(vecs, n_rank)) != len(vecs):
                raise AssertionError("fan cone is not simplicial; this is a bug")
            ids = []
            for v in vecs:
                if v not in ray_index:
                    ray_index[v] = None
                    ordered_rays.append(v)
                ids.append(v)
            cone_sets.add(tuple(sorted(set(ids))))
    rays = tuple(sorted(ordered_rays))
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


def necessary_condition(action: WeightedAction, rho: RhoMap, section: IntMatrix) -> bool:
    """Weights of the rho-compatible subspace must span full character space."""
    sup = s_rho(action, rho, section)
    if not sup:
        return action.g_rank == 0
    chis = [action.chi_of(i) for i in sup]
    return rank(IntMatrix.from_rows(chis, action.g_rank)) == action.g_rank


def fixed_points_toric(action: WeightedAction, section: IntMatrix | None = None,
                       context=None):
    """One zero-dimensional fixed component per minimally stable support.

    A caller that has already checked the stable locus may pass
    toric_context(action, section) as context; both are then skipped.
    """
    if context is None:
        if not is_stable_support(action, action.indices()):
            raise EmptyStableLocus("the stable locus is empty")
        context = toric_context(action, section)
    _, c = context
    components = []
    for sup in sorted(minimally_stable_subsets(action), key=sorted):
        rho = rho_from_stable_subset(action, sup, c)
        derived = s_rho(action, rho, c)
        assert derived == sup, "support of rho does not recover the stable subset"
        components.append(
            FixedComponent(
                rho=rho,
                support=tuple(sorted(sup)),
                g_descriptor="torus",
                dimension=0,
                status=Status.NONEMPTY_VERIFIED,
            )
        )
    return components


# ---------------------------------------------------------------------------
# finite enumeration of lattice maps pinned down by a coincidence set

def enumerate_linear_maps(pairs, dim_x: int, dim_y: int):
    """All integer matrices f with {x : (x, f x) in E} spanning Q^dim_x.

    pairs is the finite set E of (x, y) tuples.  Any valid f is determined by
    its values on a basis contained in its coincidence set, so scanning basis
    subsets of E is exhaustive.  Returns IntMatrix objects (dim_y x dim_x),
    deduplicated and sorted.
    """
    pairs = [(tuple(int(a) for a in x), tuple(int(b) for b in y)) for x, y in pairs]
    for x, y in pairs:
        if len(x) != dim_x or len(y) != dim_y:
            raise ValueError("pair (%r, %r) has wrong dimensions" % (x, y))
    if dim_x == 0:
        return [IntMatrix.from_rows([() for _ in range(dim_y)], 0)]
    found = {}
    for comb in itertools.combinations(range(len(pairs)), dim_x):
        # f maps each x to its y: F X = Y with columns x, i.e. X^T F^T = Y^T
        Ft = solve_integral([pairs[i][0] for i in comb], [pairs[i][1] for i in comb])
        if Ft is None:
            continue
        F = IntMatrix.from_rows(Ft, dim_y).transpose()
        key = F.entries
        if key in found:
            continue
        matched = [x for x, y in pairs if F.apply(x) == y]
        if matched and rank(IntMatrix.from_rows(matched, dim_x)) == dim_x:
            found[key] = F
    return [found[k] for k in sorted(found)]


def candidate_rhos(action: WeightedAction):
    """All rho whose compatible subspace can span: the finite candidate list.

    The coincidence set is the weight list (chi, w); a candidate's character
    map is an integer matrix agreeing with w on a spanning set of chis.
    """
    pairs = [(action.chi_of(i), action.w_of(i)) for i in action.indices()]
    maps = enumerate_linear_maps(pairs, action.g_rank, action.aux_rank)
    return [RhoMap(F.transpose()) for F in maps]


# ---------------------------------------------------------------------------
# fan utilities (checks and comparisons used by reports and tests)

def fan_is_simplicial(fan: ToricFan) -> bool:
    for cone in fan.cones:
        vecs = [fan.rays[i] for i in cone]
        if vecs and rank(IntMatrix.from_rows(vecs, fan.lattice_rank)) != len(vecs):
            return False
    return True


def fan_is_face_closed(fan: ToricFan) -> bool:
    cone_set = set(fan.cones)
    for cone in fan.cones:
        for size in range(len(cone)):
            for face in itertools.combinations(cone, size):
                if tuple(face) not in cone_set:
                    return False
    return True


def fan_intersections_ok(fan: ToricFan, pairs=None) -> bool:
    """Exact check that cone intersections are the cones of index intersections."""
    cones = fan.cones
    if pairs is None:
        pairs = itertools.combinations(range(len(cones)), 2)
    for i, j in pairs:
        a, b = cones[i], cones[j]
        inter = fan.cone_geometry(a).intersection(fan.cone_geometry(b))
        expected = fan.cone_geometry(tuple(sorted(set(a) & set(b))))
        if inter != expected:
            return False
    return True


def fans_unimodularly_equivalent(f1: ToricFan, f2: ToricFan) -> bool:
    """Search for a lattice automorphism carrying one fan onto the other."""
    if f1.lattice_rank != f2.lattice_rank:
        return False
    d = f1.lattice_rank
    if len(f1.rays) != len(f2.rays) or sorted(map(len, f1.cones)) != sorted(map(len, f2.cones)):
        return False
    full1 = [c for c in f1.maximal_cones if len(c) == d]
    full2 = [c for c in f2.maximal_cones if len(c) == d]
    if not full1:
        return f1.cones == f2.cones and sorted(f1.rays) == sorted(f2.rays)
    base = [f1.rays[i] for i in full1[0]]
    cones1 = set(tuple(sorted(c)) for c in f1.cones)
    for target in full2:
        for perm in itertools.permutations(target):
            # U carries the base rays onto perm: U V1 = V2, i.e. V1^T U^T = V2^T
            Ut = solve_integral(base, [f2.rays[i] for i in perm])
            if Ut is None or abs(det(Ut)) != 1:
                continue
            U = IntMatrix.from_rows(Ut, d).transpose()
            mapped = {}
            good = True
            for i, ray in enumerate(f1.rays):
                img = primitive(U.apply(ray))
                if img not in f2.rays:
                    good = False
                    break
                mapped[i] = f2.rays.index(img)
            if not good or len(set(mapped.values())) != len(f2.rays):
                continue
            image_cones = set(tuple(sorted(mapped[i] for i in c)) for c in cones1)
            if image_cones == set(tuple(sorted(c)) for c in f2.cones):
                return True
    return False
