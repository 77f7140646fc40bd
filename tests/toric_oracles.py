"""Brute-force oracles and fan checks for the toric tests.

`stable_subsets` tests every subset of I on its own, `rho_from_stable_subset`
solves for each fixed point's morphism on its own, and `maximal_cones`
checks every pair of cones; the checks and the comparison below judge a
finished fan from its rays and cones alone.
"""

import itertools

from fixedloci.cones import RationalCone
from fixedloci.errors import FreeActionViolated
from fixedloci.hmtorus import WeightedAction, is_stable_support
from fixedloci.linalg import IntMatrix, det, primitive, rank, solve_integral
from fixedloci.toric import RhoMap, ToricFan, s_rho


def stable_subsets(action: WeightedAction):
    """All stable support subsets of I, in canonical sorted order.

    Stability is decided once per set of distinct weights met, the key
    `is_stable_support` itself reduces a support to.
    """
    memo = {}
    out = []
    idx = action.indices()
    for size in range(len(idx) + 1):
        for comb in itertools.combinations(idx, size):
            key = frozenset(action.chi_of(i) for i in comb)
            if key not in memo:
                memo[key] = is_stable_support(action, comb)
            if memo[key]:
                out.append(frozenset(comb))
    return out


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
    c_s = [section.entries[action.flat[i]] for i in sup]
    return RhoMap(IntMatrix.from_rows(solve_integral(a_s.entries, c_s), section.ncols))


def necessary_condition(action: WeightedAction, rho: RhoMap, section: IntMatrix) -> bool:
    """Weights of the rho-compatible subspace must span full character space."""
    sup = s_rho(action, rho, section)
    if not sup:
        return action.g_rank == 0
    chis = [action.chi_of(i) for i in sup]
    return rank(IntMatrix.from_rows(chis, action.g_rank)) == action.g_rank


def cone_geometry(fan: ToricFan, cone) -> RationalCone:
    gens = [fan.rays[i] for i in cone]
    return RationalCone(gens, fan.lattice_rank)


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


def maximal_cones(fan: ToricFan):
    """The cones strictly inside no other cone, by testing every pair."""
    sets = [frozenset(c) for c in fan.cones]
    out = []
    for i, c in enumerate(sets):
        if not any(c < d for d in sets):
            out.append(fan.cones[i])
    return tuple(out)


def fan_intersections_ok(fan: ToricFan, pairs=None) -> bool:
    """Exact check that cone intersections are the cones of index intersections."""
    cones = fan.cones
    if pairs is None:
        pairs = itertools.combinations(range(len(cones)), 2)
    for i, j in pairs:
        a, b = cones[i], cones[j]
        inter = cone_geometry(fan, a).intersection(cone_geometry(fan, b))
        expected = cone_geometry(fan, tuple(sorted(set(a) & set(b))))
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
