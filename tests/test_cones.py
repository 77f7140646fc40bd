import itertools
import random
from fractions import Fraction

from cone_oracles import (
    canonical,
    contains,
    dual_cone_by_kernels,
    intersection,
    project,
    project_by_subset_scan,
)
from conftest import no_lp
from fixedloci import cones, linalg, simplex
from fixedloci.cones import dot_q, dual_cone, project_onto_cone
from fixedloci.hmtorus import WeightItem, WeightedAction, limit_cone
from fixedloci.linalg import (
    clear_denominators,
    dot,
    hnf,
    identity,
    is_zero_vec,
    kernel_basis,
    primitive,
    rank,
    solve,
    vec_neg,
)
from fixedloci.simplex import feasible_nonneg, solve_nonneg


# The LP-pruned double description that canonicalised and dualised cones
# before the exact rank tests, and the LP membership test that decided
# membership before the dual did, kept verbatim as oracles.

def _in_cone_raw(gens, x):
    """Membership of x in cone(gens) via nonnegative-combination feasibility."""
    if not gens:
        return all(a == 0 for a in x)
    dim = len(x)
    rows = [[g[i] for g in gens] for i in range(dim)]
    return feasible_nonneg(rows, list(x))


def saturated_lattice_basis(vectors, dim):
    """Canonical basis of span_Q(vectors) intersected with Z^dim, as HNF rows."""
    vecs = [v for v in vectors if not is_zero_vec(v)]
    if not vecs:
        return ()
    orth = kernel_basis(vecs, dim)
    sat = kernel_basis(orth, dim) if orth else identity(dim)
    H, _ = hnf(sat, dim)
    return tuple(r for r in H if not is_zero_vec(r))


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
        w = _orthogonal_component(g, L)
        if any(w):
            pointed.append(primitive(w))
    pointed = _prune_redundant(sorted(set(pointed)))
    out = set(pointed)
    for row in L:
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
        C = canonical(gens, d)
        assert C == canon, (gens, d)
        assert dual_cone(C, d) == _canonical_generators(_dual_generators(canon, d), d)
        prims = [primitive(g) for g in gens]
        seen["lineality"] += any(vec_neg(g) in canon for g in canon)
        seen["pointed"] += bool(canon) and not any(vec_neg(g) in canon for g in canon)
        seen["zero"] += any(is_zero_vec(g) for g in gens) and d > 0
        seen["repeat"] += len(set(prims)) < len(prims)
        seen["antipodal"] += any(vec_neg(g) in prims for g in prims if any(g))
        seen["empty"] += not canon
        seen["full"] += len(canon) == 2 * d > 0 and not dual_cone(C, d)
    assert seen["lineality"] >= 500 and min(seen.values()) >= 10, seen


def _halfspace_sets():
    """Seeded halfspace sets of dimension 1-8 with entries mostly 0 and +-1,
    drawn in turn to span, to fall short (trailing coordinates zeroed, or
    rows that combine or repeat fewer than dim others), to be empty and to
    be all zero."""
    rng = random.Random(53)

    def row(dim):
        return tuple(rng.choice((-2, -1, -1, 0, 0, 0, 1, 1, 2)) for _ in range(dim))

    for i in range(2400):
        dim, kind = rng.randint(1, 8), i % 4
        if kind == 0:
            rows = [row(dim) for _ in range(rng.randint(dim, dim + 2))]
        elif kind == 1:
            rows = [row(dim) for _ in range(rng.randint(1, max(1, dim - 1)))]
            if rng.random() < 0.5:
                t = rng.randint(1, dim)
                rows = [h[:dim - t] + (0,) * t for h in rows + [row(dim)]]
            else:
                for _ in range(rng.randint(1, 3)):
                    u, w = rng.choice(rows), rng.choice(rows)
                    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                    rows.append(tuple(a * x + b * y for x, y in zip(u, w)))
        elif kind == 2:
            rows = []
        else:
            rows = [(0,) * dim] * rng.randint(1, 3)
        rng.shuffle(rows)
        yield dim, rows


def test_dual_cone_matches_two_kernel_oracle():
    # the W basis read off one elimination, and the kernel and HNF only for a
    # lineality, give the tuple of the two-kernel double description exactly
    seen = dict.fromkeys(["spanning", "rank-deficient", "empty", "all-zero"], 0)
    for dim, rows in _halfspace_sets():
        nonzero = [h for h in rows if not is_zero_vec(h)]
        kind = ("empty" if not rows else "all-zero" if not nonzero
                else "spanning" if rank(nonzero) == dim else "rank-deficient")
        seen[kind] += 1
        assert dual_cone(rows, dim) == dual_cone_by_kernels(rows, dim), (dim, rows)
    assert sum(seen.values()) >= 2000 and min(seen.values()) >= 100, seen


def test_dual_cone_builds_the_kernel_only_for_a_lineality(monkeypatch):
    def refuse(*args):
        raise AssertionError("the lineality was computed for a spanning support")

    monkeypatch.setattr(cones, "kernel_basis", refuse)
    monkeypatch.setattr(cones, "hnf", refuse)
    plane = WeightedAction(2, 0, (WeightItem((1, 0)), WeightItem((0, 1))), (1, 1))
    assert limit_cone(plane, [(0, 0), (1, 0)]) == ((0, 1), (1, 0))

    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cones, "kernel_basis", counted(linalg.kernel_basis))
    monkeypatch.setattr(cones, "hnf", counted(linalg.hnf))
    line = WeightedAction(3, 0, (WeightItem((1, 0, 0)), WeightItem((-1, 0, 0)),
                                 WeightItem((1, 2, 0))), (1, 1, 1))
    assert limit_cone(line, [(0, 0), (1, 0)]) == ((0, -1, 0), (0, 0, -1), (0, 0, 1), (0, 1, 0))
    assert sorted(calls) == ["hnf", "kernel_basis"]


def test_no_lp_in_canonical_form_dual_or_intersection(monkeypatch):
    # every LP, feasible_nonneg included, runs through solve_nonneg
    monkeypatch.setattr(simplex, "solve_nonneg", no_lp)
    rng = random.Random(43)
    for _ in range(200):
        d = rng.randint(0, 4)
        A = canonical([tuple(rng.randint(-2, 2) for _ in range(d))
                       for _ in range(rng.randint(0, 5))], d)
        B = canonical([tuple(rng.randint(-2, 2) for _ in range(d))
                       for _ in range(rng.randint(0, 5))], d)
        I = intersection(A, B, d)
        assert canonical(I, d) == I
        assert all(contains(A, g) and contains(B, g) for g in I)
        assert all(contains(A, g) for g in A)
    assert dual_cone(dual_cone((), 3), 3) == ()
    assert contains([(1, 0)], (1, 0))
    assert not contains([(1, 0)], (1, 1))


def test_contains_and_equality_match_lp_oracle():
    # contains reads the dual's halfspaces and == compares canonical
    # generator tuples; the LP decides both from the raw generators
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
        A, B = canonical(gens, d), canonical(other, d)
        points = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(8)]
        points += [tuple(a + b for a, b in zip(g, h)) for g, h in zip(gens, other)]
        for x in points:
            inside = _in_cone_raw(gens, x)
            assert contains(A, x) == inside, (gens, x)
            seen["inside" if inside else "outside"] += 1
        mutual = (all(_in_cone_raw(gens, g) for g in other)
                  and all(_in_cone_raw(other, g) for g in gens))
        assert (A == B) == mutual and (A != B) == (not mutual), (gens, other)
        seen["equal" if mutual else "unequal"] += 1
        seen["lineality"] += any(vec_neg(g) in A for g in A)
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
    C = canonical([(1, 0), (0, 1)], 2)
    assert dual_cone(C, 2) == ((0, 1), (1, 0))


def test_dual_halfline_is_halfspace():
    C = canonical([(1, 0)], 2)
    D = dual_cone(C, 2)
    assert D == ((0, -1), (0, 1), (1, 0))
    # oracle: lattice points in a box agree with the direct pairing test
    for x in itertools.product(range(-3, 4), repeat=2):
        assert contains(D, x) == (dot((1, 0), x) >= 0)


def test_dual_full_space_is_origin():
    assert dual_cone(dual_cone((), 2), 2) == ()


def test_membership_examples():
    quad = canonical([(1, 0), (0, 1)], 2)
    assert contains(quad, (1, 1))
    assert contains(quad, (1, 0))
    C = canonical([(1, 0), (1, 2)], 2)
    assert not contains(C, (1, 3))


def test_double_dual_random():
    rng = random.Random(23)
    for _ in range(150):
        d = rng.randint(1, 4)
        k = rng.randint(0, 6)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        C = canonical(gens, d)
        DD = dual_cone(dual_cone(C, d), d)
        assert DD == C  # canonical form is unique, even with lineality


def test_contains_agrees_with_pairing_oracle():
    # x in C iff x is a nonnegative combination of the raw generators (one LP)
    rng = random.Random(29)
    for _ in range(80):
        d = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        C = canonical(gens, d)
        for _ in range(12):
            x = tuple(rng.randint(-4, 4) for _ in range(d))
            assert contains(C, x) == _in_cone_raw(gens, x)


def test_projection_examples():
    half = canonical([(1, 0), (0, 1), (0, -1)], 2)  # {x >= 0}
    assert project(half, (-1, -1)) == (0, -1)
    quad = canonical([(1, 0), (0, 1)], 2)
    assert project(quad, (2, 3)) == (2, 3)
    assert project((), (5, -1, 2)) == (0, 0, 0)


def test_projection_variational_inequality():
    rng = random.Random(31)
    eye2 = [[1, 0], [0, 1]]
    cases = 0
    while cases < 25:
        d = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        C = canonical(gens, d)
        if not C:
            continue
        cases += 1
        Q = [[int(i == j) * rng.choice([1, 1, 2]) for j in range(d)] for i in range(d)]
        x = tuple(Fraction(rng.randint(-5, 5)) for _ in range(d))
        p = project(C, x, Q)
        assert contains(C, p)
        diff = tuple(a - b for a, b in zip(x, p))
        for _ in range(100):
            coeffs = [rng.randint(0, 3) for _ in C]
            c = tuple(sum(co * g[i] for co, g in zip(coeffs, C)) for i in range(d))
            gap = dot_q(diff, tuple(a - b for a, b in zip(c, p)), Q)
            assert gap <= 0


def _gram_matrix(rng, r):
    """None (the identity), a diagonal or a random positive definite Gram matrix."""
    kind = rng.choice(("identity", "diagonal", "random"))
    if kind == "identity":
        return kind, None
    if kind == "diagonal":
        return kind, [[rng.randint(1, 3) * (i == j) for j in range(r)] for i in range(r)]
    B = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
    return kind, [[sum(b[i] * b[j] for b in B) + (i == j) for j in range(r)] for i in range(r)]


def _combination(rng, vectors, k):
    """A random nonnegative integer combination of k of the vectors."""
    terms = [(rng.randint(0, 3), v) for v in rng.sample(vectors, min(k, len(vectors)))]
    return [sum(c * v[i] for c, v in terms) for i in range(len(vectors[0]))]


def _projection_cases():
    """Seeded (cone, x, Q, x kind) in dimension 1-6.

    Cones come from random generators, with antipodal pairs mixed in, from
    random halfspaces, or from halfspaces that pair positively with one
    direction, which gives up to about 60 generators.  x is a combination
    of generators (inside), minus Q^-1 of a combination of dual generators
    (polar: the projection is 0), a point p of a facet minus Q^-1 of the
    facet normal (facet: the projection is p), or random.  The oracle's
    cost grows as C(n, k) in the size k of the subset it stops at, so cones
    with more than 9 generators get only x whose answer needs few of them.
    """
    rng = random.Random(59)
    for _ in range(2000):
        r = rng.randint(1, 6)
        shape = rng.random()
        if shape < 0.15 and r >= 4:
            v = [rng.randint(-2, 2) for _ in range(r)]
            hs = []
            while len(hs) < r + rng.randint(2, 9):
                h = tuple(rng.randint(-2, 2) for _ in range(r))
                if dot(h, v) > 0:
                    hs.append(h)
            C = dual_cone(hs, r)
        elif shape < 0.55:
            gens = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(rng.randint(1, 8))]
            gens += [vec_neg(g) for g in gens if rng.random() < 0.15]
            C = canonical(gens, r)
        else:
            C = dual_cone(
                [tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(rng.randint(1, r + 3))], r)
        kind, Q = _gram_matrix(rng, r)
        eye = [[int(i == j) for j in range(r)] for i in range(r)]
        roll, den = rng.random(), rng.randint(1, 5)
        gens, dual = C, dual_cone(C, r)
        big = len(gens) > 9
        if roll < 0.2 and gens:
            x = [Fraction(a, den) for a in _combination(rng, gens, 2 if big else 3)]
        elif roll < 0.35 and dual:
            X, d = solve(Q or eye, _combination(rng, dual, 2))
            x = [Fraction(-a, d * den) for a in X]
        elif (roll < 0.55 or big) and dual:
            h = rng.choice(dual)
            face = [g for g in gens if dot(h, g) == 0] or [(0,) * r]
            X, d = solve(Q or eye, h)
            p, t = _combination(rng, face, 2), rng.randint(1, 3)
            x = [Fraction(d * a - t * b, d * den) for a, b in zip(p, X)]
        else:
            x = [Fraction(rng.randint(-6, 6), den) for _ in range(r)]
        yield C, tuple(x), Q, kind


def test_projection_matches_subset_scan_oracle():
    seen = dict.fromkeys(["r%d" % r for r in range(1, 7)] + [
        "identity", "diagonal", "random", "lineality", "40 generators", "x in C", "zero"], 0)
    for C, x, Q, kind in _projection_cases():  # about 10 s, nearly all in the oracle
        xs, den = clear_denominators(x)
        P, D = project_onto_cone(C, xs, Q)
        p = tuple(Fraction(a, D * den) for a in P)
        assert p == project_by_subset_scan(C, x, Q), (C, x, Q)
        assert all(type(a) is int for a in P + (D,))
        seen["r%d" % len(x)] += 1
        seen[kind] += 1
        seen["lineality"] += any(vec_neg(g) in C for g in C)
        seen["40 generators"] += len(C) >= 40
        seen["x in C"] += p == x
        seen["zero"] += not any(p)
    assert min(seen.values()) >= 3 and seen["lineality"] >= 500, seen


# The limit cone and -Q^-1 theta of a rank 6 kempf problem: twelve weights,
# all in the support.  The nearest point is a combination of 5 of its 47
# generators, so the subset scan first tries all 195,709 subsets of at most
# 4; it makes 332,488 solves in all and takes about 100 s.
WORK_WEIGHTS = ((0, -1, 2, -1, 1, -1), (1, -2, 0, 0, 1, -1), (-1, 2, -1, 2, -2, -2),
                (2, 1, 2, 1, 1, -1), (2, 2, 0, -2, 0, -1), (2, 0, 2, -2, -1, 0),
                (2, 1, -2, 0, 0, -1), (2, -2, 0, 0, -1, -1), (0, 0, 2, 2, 0, 0),
                (2, 1, 0, 2, 2, -1), (2, 0, 1, -1, 2, -2), (-2, 2, 2, 0, 0, -1))
WORK_THETA = (-1, -2, -1, 1, 1, 1)
WORK_Q = [[3, -1, -2, -1, -1, 0], [-1, 4, 2, -1, 3, 3], [-2, 2, 4, 1, 2, 1],
          [-1, -1, 1, 4, -1, -2], [-1, 3, 2, -1, 4, 3], [0, 3, 1, -2, 3, 6]]
# the point the subset scan returns for it
WORK_POINT = tuple(Fraction(a, 1721) for a in (1934, 1282, 1654, -876, -695, -1325))


def test_projection_work_stays_within_the_iteration_bound(monkeypatch):
    cone = dual_cone(WORK_WEIGHTS, 6)
    n = len(cone)
    assert n == 47
    X, d = solve(WORK_Q, WORK_THETA)
    calls = []
    real_solve = cones.solve

    def counting_solve(rows, rhs):
        calls.append(len(rows))
        return real_solve(rows, rhs)

    monkeypatch.setattr(cones, "solve", counting_solve)
    P, D = project_onto_cone(cone, vec_neg(X), WORK_Q)
    assert tuple(Fraction(a, d * D) for a in P) == WORK_POINT
    # Lawson and Hanson's NNLS gives up after 3n iterations; the subset
    # scan's worst case here is sum_{k <= 6} C(47, k), over 12 million solves
    assert len(calls) <= 3 * n, calls


def test_generators_satisfy_facet_inequalities():
    rng = random.Random(37)
    for _ in range(40):
        d = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        C = canonical(gens, d)
        for g in C:
            assert all(dot(n, g) >= 0 for n in dual_cone(C, d))


def test_intersection():
    A = canonical([(1, 0), (1, 1)], 2)
    B = canonical([(1, 1), (0, 1)], 2)
    I = intersection(A, B, 2)
    assert I == canonical([(1, 1)], 2)
    quad = canonical([(1, 0), (0, 1)], 2)
    assert intersection(quad, quad, 2) == quad
