import itertools
import random
from fractions import Fraction

import pytest

from fixedloci import simplex
from fixedloci.cones import RationalCone, dot_q, project_onto_cone
from fixedloci.errors import DimMismatch
from fixedloci.linalg import IntMatrix, dot, hnf, is_zero_vec, kernel_basis, primitive, solve, vec_neg
from fixedloci.simplex import feasible_nonneg, solve_nonneg


# The LP-pruned double description that canonicalised and dualised cones
# before the exact rank tests, and the LP membership test that decided
# RationalCone.contains before the dual did, kept verbatim as oracles.

def _in_cone_raw(gens, x):
    """Membership of x in cone(gens) via nonnegative-combination feasibility."""
    if not gens:
        return all(a == 0 for a in x)
    dim = len(x)
    rows = [[g[i] for g in gens] for i in range(dim)]
    return feasible_nonneg(rows, list(x))


def saturated_lattice_basis(vectors, dim) -> IntMatrix:
    """Canonical basis of span_Q(vectors) intersected with Z^dim, as HNF rows."""
    vecs = [v for v in vectors if not is_zero_vec(v)]
    if not vecs:
        return IntMatrix.from_rows([], dim)
    M = IntMatrix.from_rows(vecs, dim)
    orth = kernel_basis(M)
    sat = kernel_basis(orth) if orth.nrows else IntMatrix.identity(dim)
    H, _ = hnf(sat)
    rows = [r for r in H.entries if not is_zero_vec(r)]
    return IntMatrix.from_rows(rows, dim)


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


def _oracle_cases():
    """Seeded generator lists: d = 0-5, with zero, repeated and antipodal
    generators mixed in, then the empty cone and the full space."""
    rng = random.Random(41)
    for _ in range(1500):
        d = rng.choice((0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 5))
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(0, 7))]
        extra = []
        for g in gens:
            roll = rng.random()
            if roll < 0.12:
                extra.append(vec_neg(g))
            elif roll < 0.2:
                extra.append(tuple(2 * a for a in g))
        if rng.random() < 0.1:
            extra.append((0,) * d)
        gens += extra
        rng.shuffle(gens)
        yield gens, d
    for d in range(6):
        yield [], d
        yield [e for i in range(d) for e in (tuple(int(i == j) for j in range(d)),
                                             tuple(-int(i == j) for j in range(d)))], d


def test_exact_dd_matches_lp_pruned_oracle():
    seen = dict.fromkeys(["lineality", "pointed", "zero", "repeat", "antipodal",
                          "empty", "full"], 0)
    for gens, d in _oracle_cases():  # about 7 s, nearly all in the oracle
        canon = _canonical_generators(gens, d)
        C = RationalCone(gens, d)
        assert C.generators == canon, (gens, d)
        assert C.dual().generators == _canonical_generators(_dual_generators(canon, d), d)
        prims = [primitive(g) for g in gens]
        seen["lineality"] += any(vec_neg(g) in canon for g in canon)
        seen["pointed"] += bool(canon) and not any(vec_neg(g) in canon for g in canon)
        seen["zero"] += any(is_zero_vec(g) for g in gens) and d > 0
        seen["repeat"] += len(set(prims)) < len(prims)
        seen["antipodal"] += any(vec_neg(g) in prims for g in prims if any(g))
        seen["empty"] += not canon
        seen["full"] += len(canon) == 2 * d > 0 and not C.dual().generators
    assert seen["lineality"] >= 500 and min(seen.values()) >= 10, seen


def test_no_lp_in_canonical_form_dual_or_intersection(monkeypatch):
    def no_lp(*args):
        raise AssertionError("an LP ran")

    # every LP, feasible_nonneg included, runs through solve_nonneg
    monkeypatch.setattr(simplex, "solve_nonneg", no_lp)
    rng = random.Random(43)
    for _ in range(200):
        d = rng.randint(0, 4)
        A = RationalCone([tuple(rng.randint(-2, 2) for _ in range(d))
                          for _ in range(rng.randint(0, 5))], d)
        B = RationalCone([tuple(rng.randint(-2, 2) for _ in range(d))
                          for _ in range(rng.randint(0, 5))], d)
        I = A.intersection(B)
        assert I.dual().dual().generators == I.generators
        assert all(A.contains(g) and B.contains(g) for g in I.generators)
        assert all(A.contains(g) for g in A.generators)
    assert RationalCone.full(3).dual() == RationalCone.zero(3)
    assert RationalCone([(1, 0)], 2).contains((1, 0))
    assert not RationalCone([(1, 0)], 2).contains((1, 1))


def test_contains_and_equality_match_lp_oracle():
    # contains reads the dual's halfspaces and == compares canonical
    # generators; the LP decides both from the raw generators
    rng = random.Random(47)
    seen = dict.fromkeys(["lineality", "inside", "outside", "equal", "unequal"], 0)
    for _ in range(400):
        d = rng.randint(1, 4)
        gens = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(0, 5))]
        gens += [vec_neg(g) for g in gens if rng.random() < 0.2]
        if rng.random() < 0.5 and gens:  # the same cone from other generators
            other = gens + [tuple(a + b for a, b in zip(*rng.sample(gens * 2, 2)))]
            rng.shuffle(other)
        else:
            other = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(0, 5))]
        A, B = RationalCone(gens, d), RationalCone(other, d)
        points = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(8)]
        points += [tuple(a + b for a, b in zip(g, h)) for g, h in zip(gens, other)]
        for x in points:
            inside = _in_cone_raw(gens, x)
            assert A.contains(x) == inside, (gens, x)
            seen["inside" if inside else "outside"] += 1
        mutual = (all(_in_cone_raw(gens, g) for g in other)
                  and all(_in_cone_raw(other, g) for g in gens))
        assert (A == B) == mutual and (A != B) == (not mutual), (gens, other)
        seen["equal" if mutual else "unequal"] += 1
        seen["lineality"] += any(vec_neg(g) in A.generators for g in A.generators)
    assert min(seen.values()) > 100, seen


def test_simplex_basics():
    # x + y = 1, x - y = 0 -> x = y = 1/2
    x = solve_nonneg([[1, 1], [1, -1]], [1, 0])
    assert x == (Fraction(1, 2), Fraction(1, 2))
    # x + y = -1 infeasible for x,y >= 0
    assert not feasible_nonneg([[1, 1]], [-1])
    assert feasible_nonneg([[1, -1]], [0])
    assert feasible_nonneg([], [])


def test_dual_quadrant_self_dual():
    C = RationalCone([(1, 0), (0, 1)])
    assert C.dual().generators == ((0, 1), (1, 0))


def test_dual_halfline_is_halfspace():
    C = RationalCone([(1, 0)], 2)
    D = C.dual()
    assert D.generators == ((0, -1), (0, 1), (1, 0))
    # oracle: lattice points in a box agree with the direct pairing test
    for x in itertools.product(range(-3, 4), repeat=2):
        assert D.contains(x) == (dot((1, 0), x) >= 0)


def test_dual_full_space_is_origin():
    assert RationalCone.full(2).dual().generators == ()


def test_membership_examples():
    quad = RationalCone([(1, 0), (0, 1)])
    assert quad.contains((1, 1))
    assert quad.contains((1, 0))
    C = RationalCone([(1, 0), (1, 2)])
    assert not C.contains((1, 3))


def test_membership_dim_mismatch():
    with pytest.raises(DimMismatch):
        RationalCone([(1, 0)], 2).contains((1, 0, 0))


def test_double_dual_random():
    rng = random.Random(23)
    for _ in range(150):
        d = rng.randint(1, 4)
        k = rng.randint(0, 6)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        C = RationalCone(gens, d)
        DD = C.dual().dual()
        assert DD == C  # canonical form is unique, even with lineality


def test_contains_agrees_with_pairing_oracle():
    # x in C iff x is a nonnegative combination of the raw generators (one LP)
    rng = random.Random(29)
    for _ in range(80):
        d = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        C = RationalCone(gens, d)
        for _ in range(12):
            x = tuple(rng.randint(-4, 4) for _ in range(d))
            assert C.contains(x) == _in_cone_raw(gens, x)


def test_projection_examples():
    half = RationalCone([(1, 0), (0, 1), (0, -1)])  # {x >= 0}
    assert project_onto_cone(half, (-1, -1)) == (0, -1)
    quad = RationalCone([(1, 0), (0, 1)])
    assert project_onto_cone(quad, (2, 3)) == (2, 3)
    assert project_onto_cone(RationalCone.zero(3), (5, -1, 2)) == (0, 0, 0)


def test_projection_variational_inequality():
    rng = random.Random(31)
    eye2 = [[1, 0], [0, 1]]
    cases = 0
    while cases < 25:
        d = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        C = RationalCone(gens, d)
        if not C.generators:
            continue
        cases += 1
        Q = [[int(i == j) * rng.choice([1, 1, 2]) for j in range(d)] for i in range(d)]
        x = tuple(Fraction(rng.randint(-5, 5)) for _ in range(d))
        p = project_onto_cone(C, x, Q)
        assert C.contains(p)
        diff = tuple(a - b for a, b in zip(x, p))
        for _ in range(100):
            coeffs = [rng.randint(0, 3) for _ in C.generators]
            c = tuple(sum(co * g[i] for co, g in zip(coeffs, C.generators)) for i in range(d))
            gap = dot_q(diff, tuple(a - b for a, b in zip(c, p)), Q)
            assert gap <= 0


def test_generators_satisfy_facet_inequalities():
    rng = random.Random(37)
    for _ in range(40):
        d = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        C = RationalCone(gens, d)
        for g in C.generators:
            assert all(dot(n, g) >= 0 for n in C.dual().generators)


def test_intersection():
    A = RationalCone([(1, 0), (1, 1)])
    B = RationalCone([(1, 1), (0, 1)])
    I = A.intersection(B)
    assert I == RationalCone([(1, 1)], 2)
    quad = RationalCone([(1, 0), (0, 1)])
    assert quad.intersection(quad) == quad
