import itertools
import random
from fractions import Fraction

import pytest

from fixedloci.cones import RationalCone, dot_q, project_onto_cone
from fixedloci.errors import DimMismatch
from fixedloci.linalg import dot
from fixedloci.simplex import feasible_nonneg, solve_nonneg


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
        assert DD.same_cone(C)
        assert DD == C  # canonical form is unique, even with lineality


def test_contains_agrees_with_pairing_oracle():
    # x in C iff x pairs >= 0 with every generator of the dual
    rng = random.Random(29)
    for _ in range(80):
        d = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        C = RationalCone(gens, d)
        D = C.dual()
        for _ in range(12):
            x = tuple(rng.randint(-4, 4) for _ in range(d))
            direct = all(dot(g, x) >= 0 for g in D.generators)
            assert C.contains(x) == direct


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
    assert I.same_cone(RationalCone([(1, 1)], 2))
    quad = RationalCone([(1, 0), (0, 1)])
    assert quad.intersection(quad).same_cone(quad)
