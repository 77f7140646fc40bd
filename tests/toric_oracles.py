"""Brute-force oracles and fan checks for the toric tests.

`stable_subsets` tests every subset of I on its own, `rho_from_stable_subset`
solves for each fixed point's morphism on its own, `all_faces` lists every
face of every maximal cone, repeats included, and sorts the set of them,
and `maximal_cones` checks every pair of cones; the checks and the
comparison below judge a finished fan from its rays and cones alone.
"""

import itertools

from cone_oracles import canonical, intersection
from fixedloci.errors import ValidationError
from fixedloci.hmtorus import WeightedAction, is_stable_support
from fixedloci.linalg import det, matmul, primitive, rank, solve_integral
from fixedloci.toric import ToricFan, s_rho


def is_refused_context(exc: ValidationError) -> bool:
    """Whether `toric_context` refused a random action for its input: an
    empty stable locus, or a weight map that is not a split inclusion."""
    msg = str(exc)
    return msg == "the stable locus is empty" or msg.startswith(
        ("lattice map has rank ", "cokernel has invariant factors "))


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


def rho_from_stable_subset(action: WeightedAction, support, section):
    """Invert the weight map on a minimally stable support against the section.

    The map g -> (chi_s(g)) over the support must be invertible over Z; the
    free-action hypothesis forces this, so failure raises ValidationError.
    """
    sup = sorted(support)
    r = action.g_rank
    a_s = [action.chi_of(i) for i in sup]
    if len(a_s) != r:
        raise ValidationError("support has size %d, expected %d" % (len(a_s), r))
    d = det(a_s)
    if abs(d) != 1:
        raise ValidationError("support weight matrix has determinant %s" % d)
    return solve_integral(a_s, [section[action.flat[i]] for i in sup])


def necessary_condition(action: WeightedAction, rho, section) -> bool:
    """Weights of the rho-compatible subspace must span full character space."""
    sup = s_rho(action, rho, section)
    if not sup:
        return action.g_rank == 0
    chis = [action.chi_of(i) for i in sup]
    return rank(chis) == action.g_rank


def all_faces(fan: ToricFan):
    """Every face of a maximal cone, sorted, from the set of the faces of
    each maximal cone taken on its own."""
    return tuple(sorted({face for top in fan.maximal_cones for k in range(len(top) + 1)
                         for face in itertools.combinations(top, k)}))


def cone_geometry(fan: ToricFan, cone):
    """The canonical generators of the cone on the rays of an index cone."""
    return canonical([fan.rays[i] for i in cone], fan.lattice_rank)


def fan_is_simplicial(fan: ToricFan) -> bool:
    for cone in fan.cones:
        vecs = [fan.rays[i] for i in cone]
        if vecs and rank(vecs) != len(vecs):
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
        inter = intersection(cone_geometry(fan, a), cone_geometry(fan, b), fan.lattice_rank)
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
            mapped = {}
            good = True
            for i, ray in enumerate(f1.rays):
                img = primitive(matmul((ray,), Ut, d)[0])
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
