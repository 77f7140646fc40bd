import dataclasses
import itertools
import random

import pytest

from conftest import PAPER_SECTION, hirzebruch_action
from fixedloci.errors import (
    EmptyStableLocus,
    FreeActionViolated,
    NotInjective,
    TooLarge,
    TorsionCokernel,
)
from fixedloci.hmtorus import WeightItem, WeightedAction
from fixedloci.linalg import IntMatrix, primitive
from fixedloci.toric import (
    MAX_BASIS_SUBSETS,
    MAX_ENUM_DIM,
    MAX_FAN_FACES,
    RhoMap,
    ToricFan,
    fixed_points_toric,
    quotient_fan,
    s_rho,
    toric_context,
)
from toric_oracles import (
    fan_intersections_ok,
    fan_is_face_closed,
    fan_is_simplicial,
    fans_unimodularly_equivalent,
    maximal_cones,
    necessary_condition,
    rho_from_stable_subset,
    stable_subsets,
)


def classical_hirzebruch_fan(d):
    rays = ((1, 0), (0, 1), (-1, d), (0, -1))
    maximal = [(0, 1), (1, 2), (2, 3), (3, 0)]
    cones = {()}
    for c in maximal:
        cones.add(tuple(sorted(c)))
        for r in c:
            cones.add((r,))
    return ToricFan(2, rays, tuple(sorted(cones)))


def minimally_stable_subsets(action):
    """The stable r-subsets of I, decided by the context's stability memo."""
    ctx = toric_context(action)
    return [frozenset(comb) for comb in itertools.combinations(action.indices(), action.g_rank)
            if ctx.stable(comb)]


def test_minimally_stable_hirzebruch(hirz2):
    got = sorted(sorted(s) for s in minimally_stable_subsets(hirz2))
    assert got == [
        [(0, 0), (1, 0)],
        [(0, 0), (2, 0)],
        [(0, 1), (1, 0)],
        [(0, 1), (2, 0)],
    ]


def test_stable_subsets_contains_minimal_and_monotone(hirz2):
    allsets = stable_subsets(hirz2)
    mins = set(map(frozenset, minimally_stable_subsets(hirz2)))
    assert mins <= set(allsets)
    for s in allsets:
        assert any(m <= s for m in mins)


def test_stable_subsets_zero_theta_empty():
    A = WeightedAction(
        2, 0,
        (WeightItem((1, 0), mult=2), WeightItem((0, 1)), WeightItem((2, 1))),
        (0, 0),
    )
    assert stable_subsets(A) == []
    with pytest.raises(EmptyStableLocus):
        toric_context(A)


def test_minimal_two_copies():
    A = WeightedAction(1, 0, (WeightItem((1,), mult=2),), (1,))
    got = sorted(sorted(s) for s in minimally_stable_subsets(A))
    assert got == [[(0, 0)], [(0, 1)]]


def test_quotient_fan_hirzebruch_matches_classical():
    for d in range(4):
        fan = quotient_fan(toric_context(hirzebruch_action(d)))
        assert len(fan.maximal_cones) == 4
        assert all(len(c) == 2 for c in fan.maximal_cones)
        assert fans_unimodularly_equivalent(fan, classical_hirzebruch_fan(d))


def test_quotient_fan_trivial_group():
    A = WeightedAction(0, 0, (WeightItem(()),), ())
    fan = quotient_fan(toric_context(A))
    assert fan.lattice_rank == 1
    assert fan.rays == ((1,),)
    assert fan.cones == ((), (0,))


def test_quotient_fan_p1():
    A = WeightedAction(1, 0, (WeightItem((1,), mult=2),), (1,))
    fan = quotient_fan(toric_context(A))
    assert sorted(fan.rays) == [(-1,), (1,)]
    assert fan.maximal_cones == ((0,), (1,))
    comps = fixed_points_toric(toric_context(A))
    assert len(comps) == 2


def test_fan_axioms():
    fans = [quotient_fan(toric_context(hirzebruch_action(d))) for d in range(4)]
    fans.append(quotient_fan(toric_context(WeightedAction(1, 0, (WeightItem((1,), mult=2),), (1,)))))
    rng = random.Random(61)
    made = 0
    while made < 6:
        r = rng.randint(1, 2)
        items = tuple(WeightItem(tuple(rng.randint(-2, 2) for _ in range(r)))
                      for _ in range(rng.randint(1, 4)))
        theta = tuple(rng.randint(-2, 2) for _ in range(r))
        A = WeightedAction(r, 0, items, theta)
        try:
            fans.append(quotient_fan(toric_context(A)))
            made += 1
        except (EmptyStableLocus, NotInjective, TorsionCokernel):
            continue
    for fan in fans:
        assert fan_is_simplicial(fan)
        assert fan_is_face_closed(fan)
        assert fan_intersections_ok(fan)


def test_scans_agree_with_stable_subsets_oracle():
    # the stable bases are the oracle's stable r-subsets for every theta; for
    # generic theta the 2^|I| fallback scan is a second oracle for the basis
    # fan; both kinds of theta must turn up
    rng = random.Random(73)
    checked = generic = refused = 0
    for _ in range(300):
        r = rng.randint(0, 3)
        items = tuple(WeightItem(tuple(rng.randint(-1, 1) for _ in range(r)),
                                 mult=rng.choice((1, 1, 2, 3)))
                      for _ in range(rng.randint(max(1, r), r + 3)))
        A = WeightedAction(r, 0, items, tuple(rng.randint(-1, 1) for _ in range(r)))
        oracle = stable_subsets(A)
        full = frozenset(A.indices())
        try:
            ctx = toric_context(A)
        except EmptyStableLocus:
            assert full not in oracle
            continue
        except (NotInjective, TorsionCokernel):
            continue
        bases = [tuple(sorted(s)) for s in oracle if len(s) == r]
        try:
            comps = fixed_points_toric(ctx)
        except FreeActionViolated as exc:
            # the first basis in sorted order that the oracle refuses, with its determinant
            with pytest.raises(FreeActionViolated) as want:
                [rho_from_stable_subset(A, b, ctx.section) for b in bases]
            assert str(exc) == str(want.value)
            refused += 1
        else:
            assert ([(c.support, c.rho) for c in comps]
                    == [(b, rho_from_stable_subset(A, b, ctx.section)) for b in bases])
        fan = quotient_fan(ctx)
        ray = {i: primitive(ctx.pi.col(A.flat[i])) for i in full}
        assert ({frozenset(fan.rays[i] for i in c) for c in fan.cones}
                == {frozenset(ray[i] for i in full - s) for s in oracle})
        assert fan.maximal_cones == maximal_cones(fan)
        assert list(ctx.bases) == bases
        if ctx.generic:
            scan = quotient_fan(dataclasses.replace(ctx, generic=False))
            assert scan == fan and scan.maximal_cones == fan.maximal_cones
            generic += 1
        checked += 1
    assert checked >= 100
    assert (generic, checked - generic, refused) == (107, 33, 5)


def test_maximal_cones_match_pairwise_oracle_on_random_complexes():
    # face-closed sets of index tuples, not all of one dimension
    rng = random.Random(79)
    for _ in range(200):
        n = rng.randint(0, 6)
        tops = [tuple(sorted(rng.sample(range(n), rng.randint(0, n)))) for _ in range(rng.randint(1, 5))]
        cones = {face for c in tops for k in range(len(c) + 1) for face in itertools.combinations(c, k)}
        fan = ToricFan(n, tuple((i,) for i in range(n)), tuple(sorted(cones)))
        assert fan.maximal_cones == maximal_cones(fan)


def test_context_refuses_past_max_enum_dim():
    # theta = 0 lies on the wall of every basis, so the 2^17 scan would be needed
    small = WeightedAction(1, 0, (WeightItem((1,), mult=8), WeightItem((-1,), mult=8)), (0,))
    assert not toric_context(small).generic
    A = WeightedAction(1, 0, (WeightItem((1,), mult=9), WeightItem((-1,), mult=8)), (0,))
    with pytest.raises(TooLarge, match="fan enumeration over 2\\^17 subsets refused"):
        toric_context(A)
    # generic theta: 17 stable bases with 2^16 faces each pass MAX_FAN_FACES
    A = WeightedAction(1, 0, (WeightItem((1,), mult=MAX_ENUM_DIM + 1),), (1,))
    assert 17 << 16 > MAX_FAN_FACES
    with pytest.raises(TooLarge, match="fan of 17 stable bases with 2\\^16 faces each refused"):
        toric_context(A)
    # 17 distinct rank-8 weights: C(17, 8) subsets pass MAX_BASIS_SUBSETS
    units = [tuple(s * int(i == j) for j in range(8)) for i in range(8) for s in (1, -1)]
    A = WeightedAction(8, 0, tuple(WeightItem(u) for u in units + [(1,) * 8]), (1,) * 8)
    assert 24310 > MAX_BASIS_SUBSETS
    with pytest.raises(TooLarge, match="basis scan over C\\(17, 8\\) weight subsets refused"):
        toric_context(A)
    # one stable basis of distinct weights, 10^8 index bases: counted, not built
    A = WeightedAction(8, 0, tuple(WeightItem(u, mult=10) for u in units[::2]), (1,) * 8)
    with pytest.raises(TooLarge, match="fan of 100000000 stable bases with 2\\^72 faces each refused"):
        toric_context(A)


def test_generic_theta_past_max_enum_dim_answered():
    # unfolded (P^1)^9: 18 coordinates, 2^9 bases with 2^9 faces each
    A = WeightedAction(9, 0, tuple(WeightItem(tuple(int(i == j) for j in range(9)))
                                   for i in range(9) for _ in range(2)), (1,) * 9)
    ctx = toric_context(A)
    assert len(ctx.bases) == 2 ** 9 == len(fixed_points_toric(ctx))
    fan = quotient_fan(ctx)
    assert len(fan.cones) == 3 ** 9 and len(fan.maximal_cones) == 2 ** 9


def test_fixed_points_hirzebruch_patterns(hirz2):
    comps = fixed_points_toric(toric_context(hirz2, PAPER_SECTION))
    assert len(comps) == 4
    assert all(c.dimension == 0 for c in comps)
    supports = {c.support for c in comps}
    assert supports == {
        ((0, 0), (1, 0)),
        ((0, 1), (1, 0)),
        ((0, 0), (2, 0)),
        ((0, 1), (2, 0)),
    }


def test_fixed_points_empty_stable_locus():
    A = WeightedAction(1, 0, (WeightItem((1,), mult=2),), (0,))
    # theta = 0 with only positive weights: nothing is stable
    assert stable_subsets(A) == []
    with pytest.raises(EmptyStableLocus):
        quotient_fan(toric_context(A))
    with pytest.raises(EmptyStableLocus):
        fixed_points_toric(toric_context(A))


def test_rho_examples_match_reference():
    for d in range(4):
        A = hirzebruch_action(d)
        rho1 = rho_from_stable_subset(A, {(0, 0), (1, 0)}, PAPER_SECTION)
        assert rho1.matrix.entries == ((1, 0), (0, 1))
        rho3 = rho_from_stable_subset(A, {(0, 0), (2, 0)}, PAPER_SECTION)
        assert rho3.matrix.entries == ((1, 0), (-d, 0))
        rho2 = rho_from_stable_subset(A, {(0, 1), (1, 0)}, PAPER_SECTION)
        assert rho2.matrix.entries == ((0, 0), (0, 1))
        rho4 = rho_from_stable_subset(A, {(0, 1), (2, 0)}, PAPER_SECTION)
        assert rho4.matrix.entries == ((0, 0), (0, 0))


def test_s_rho_examples(hirz2):
    rho1 = RhoMap(IntMatrix.identity(2))
    assert sorted(s_rho(hirz2, rho1, PAPER_SECTION)) == [(0, 0), (1, 0)]
    rho4 = RhoMap(IntMatrix.zero(2, 2))
    assert sorted(s_rho(hirz2, rho4, PAPER_SECTION)) == [(0, 1), (2, 0)]
    # trivial rho with a trivial-weight section row matches exactly those rows
    triv_rows = [i for i, row in enumerate(PAPER_SECTION.entries) if not any(row)]
    got = sorted(hirz2.flat[i] for i in s_rho(hirz2, rho4, PAPER_SECTION))
    assert got == triv_rows


def test_bijection_properties(hirz2):
    c = toric_context(hirz2).section
    mins = minimally_stable_subsets(hirz2)
    rhos = [rho_from_stable_subset(hirz2, s, c) for s in mins]
    # mutually inverse
    for s, rho in zip(mins, rhos):
        assert s_rho(hirz2, rho, c) == s
        assert len(s) == hirz2.g_rank
    # injective
    assert len({r.matrix.entries for r in rhos}) == len(rhos)
    # counts line up with the fan
    fan = quotient_fan(toric_context(hirz2))
    assert len(fan.maximal_cones) == len(mins) == len(fixed_points_toric(toric_context(hirz2)))


def test_section_choice_preserves_counts(hirz2):
    default = fixed_points_toric(toric_context(hirz2))
    papered = fixed_points_toric(toric_context(hirz2, PAPER_SECTION))
    assert len(default) == len(papered) == 4
    assert {c.support for c in default} == {c.support for c in papered}


def test_rho_requires_unimodular_support():
    A = WeightedAction(1, 0, (WeightItem((2,)), WeightItem((1,))), (1,))
    c = toric_context(A).section
    with pytest.raises(FreeActionViolated):
        rho_from_stable_subset(A, {(0, 0)}, c)


def test_necessary_condition(hirz2):
    rho1 = RhoMap(IntMatrix.identity(2))
    assert necessary_condition(hirz2, rho1, PAPER_SECTION)
    # a rho matching nothing: empty S_rho cannot span
    rho_none = RhoMap(IntMatrix.from_rows([[3, 0], [0, 3]]))
    assert s_rho(hirz2, rho_none, PAPER_SECTION) == frozenset()
    assert not necessary_condition(hirz2, rho_none, PAPER_SECTION)
