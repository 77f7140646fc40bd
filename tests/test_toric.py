import itertools
import random

import pytest

from conftest import PAPER_SECTION, hirzebruch_action
from fixedloci.cli import _action_from_data
from fixedloci.errors import FixedLociError, TooLarge, ValidationError
from fixedloci.hmtorus import WeightItem, WeightedAction, is_stable_support
from fixedloci.linalg import identity, primitive
from fixedloci.toric import (
    MAX_BASIS_SUBSETS,
    MAX_ENUM_DIM,
    MAX_FAN_FACES,
    ToricFan,
    fixed_points_toric,
    quotient_fan,
    s_rho,
    toric_context,
)
from toric_oracles import (
    all_faces,
    fan_intersections_ok,
    fan_is_face_closed,
    fan_is_simplicial,
    fans_unimodularly_equivalent,
    is_refused_context,
    maximal_cones,
    necessary_condition,
    rho_from_stable_subset,
    stable_subsets,
)
from test_golden_reports import _toric_file


def classical_hirzebruch_fan(d):
    rays = ((1, 0), (0, 1), (-1, d), (0, -1))
    return ToricFan(2, rays, ((0, 1), (0, 3), (1, 2), (2, 3)))


def minimally_stable_subsets(action):
    """The stable r-subsets of I, each decided by its own LP certificate."""
    return [frozenset(comb) for comb in itertools.combinations(action.indices(), action.g_rank)
            if is_stable_support(action, comb)]


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
    with pytest.raises(ValidationError, match="^the stable locus is empty$"):
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
    # theta = (1, 1) on the wall spanned by (1, 1): the fan folds in the fans
    # of the chambers next to theta, each read off its stable bases
    wall = WeightedAction(2, 0, (WeightItem((1, 0), mult=2), WeightItem((0, 1), mult=2), WeightItem((1, 1))),
                          (1, 1))
    fans.append(quotient_fan(toric_context(wall)))
    assert (len(fans[-1].cones), len(fans[-1].maximal_cones)) == (18, 4)
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
        except ValidationError as exc:
            if not is_refused_context(exc):
                raise
    for fan in fans:
        assert fan_is_simplicial(fan)
        assert fan_is_face_closed(fan)
        assert fan_intersections_ok(fan)


def test_scans_agree_with_stable_subsets_oracle():
    # the stable bases are the oracle's stable r-subsets and the fan its
    # stable supports for every theta; theta is drawn as 0 or a sum of one
    # or two weights about half the time, so that many lie on a wall, where
    # the chambers next to theta differ; nine pairs of coordinates share a ray
    rng = random.Random(73)
    checked = walls = refused = shared = 0
    for _ in range(300):
        r = rng.randint(0, 3)
        items = tuple(WeightItem(tuple(rng.randint(-1, 1) for _ in range(r)),
                                 mult=rng.choice((1, 1, 2, 3)))
                      for _ in range(rng.randint(max(1, r), r + 3)))
        if rng.random() < 0.5:
            picks = rng.sample(items, rng.randint(0, min(2, len(items))))
            theta = tuple(sum(it.chi[i] for it in picks) for i in range(r))
        else:
            theta = tuple(rng.randint(-1, 1) for _ in range(r))
        A = WeightedAction(r, 0, items, theta)
        oracle = stable_subsets(A)
        full = frozenset(A.indices())
        try:
            ctx = toric_context(A)
        except ValidationError as exc:
            # an empty stable locus, or a weight inclusion without a free cokernel
            assert (str(exc) == "the stable locus is empty") == (full not in oracle)
            continue
        bases = [tuple(sorted(s)) for s in oracle if len(s) == r]
        try:
            comps = fixed_points_toric(ctx)
        except ValidationError as exc:
            # the first basis in sorted order that the oracle refuses, with its determinant
            with pytest.raises(ValidationError, match="^support weight matrix has determinant ") as want:
                [rho_from_stable_subset(A, b, ctx.section) for b in bases]
            assert str(exc) == str(want.value)
            refused += 1
        else:
            assert ([(c.support, c.rho) for c in comps]
                    == [(b, rho_from_stable_subset(A, b, ctx.section)) for b in bases])
        fan = quotient_fan(ctx)
        ray = {i: primitive(tuple(row[A.flat[i]] for row in ctx.pi)) for i in full}
        # coordinates of one ray never miss a stable support together, and a
        # zero ray misses none, so no cone holds two indices of one ray
        for i, j in itertools.combinations(sorted(full), 2):
            if ray[i] == ray[j]:
                assert all(i in s or j in s for s in oracle)
                shared += 1
        assert all(i in s for i in full if not any(ray[i]) for s in oracle)
        assert ({frozenset(fan.rays[i] for i in c) for c in fan.cones}
                == {frozenset(ray[i] for i in full - s) for s in oracle})
        assert fan.maximal_cones == maximal_cones(fan)
        assert list(ctx.bases) == bases
        walls += len(ctx.chambers) > 1
        checked += 1
    assert (checked - walls, walls, refused, shared) == (114, 37, 3, 9)


def test_context_refuses_past_max_enum_dim():
    # theta = 0 on +-1: the chambers of theta = +eps and -eps list faces of
    # the complements of the copies of 1 and of -1, and a cone misses a copy of each
    small = WeightedAction(1, 0, (WeightItem((1,), mult=8), WeightItem((-1,), mult=8)), (0,))
    ctx = toric_context(small)
    assert len(ctx.chambers) == 2 and ctx.bases == ()
    fan = quotient_fan(ctx)
    assert len(fan.cones) == (2 ** 8 - 1) ** 2
    assert len(fan.maximal_cones) == 8 * 8 and {len(c) for c in fan.maximal_cones} == {14}
    # theta = 0 on +-e_1, +-e_2: three chambers, and a cone misses a copy of each weight
    square = WeightedAction(2, 0, tuple(WeightItem(chi, mult=4) for chi in ((1, 0), (-1, 0), (0, 1), (0, -1))),
                            (0, 0))
    ctx = toric_context(square)
    assert len(ctx.chambers) == 3 and ctx.bases == ()
    fan = quotient_fan(ctx)
    assert len(fan.cones) == (2 ** 4 - 1) ** 4
    assert len(fan.maximal_cones) == 4 ** 4 and {len(c) for c in fan.maximal_cones} == {12}
    # at 17 coordinates the faces of both chambers count: 17 bases with 2^16 faces each
    A = WeightedAction(1, 0, (WeightItem((1,), mult=9), WeightItem((-1,), mult=8)), (0,))
    with pytest.raises(TooLarge, match="fan of 17 stable bases with 2\\^16 faces each refused"):
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


def test_wall_past_max_enum_dim_answered():
    # theta = 0 on the weights 1, -1 and fifteen copies of 0: the stable
    # supports are those holding 1 and -1, so no basis is stable for theta,
    # and the cones are the subsets of the copies of 0
    A = WeightedAction(1, 0, (WeightItem((1,)), WeightItem((-1,)), WeightItem((0,), mult=15)), (0,))
    assert A.total_dim == MAX_ENUM_DIM + 1
    ctx = toric_context(A)
    assert ctx.chambers == ((((0, 0),),), (((1, 0),),)) and fixed_points_toric(ctx) == []
    fan = quotient_fan(ctx)
    zeros = [primitive(tuple(row[A.flat[(2, k)]] for row in ctx.pi)) for k in range(15)]
    assert fan.rays == tuple(sorted(zeros)) and len(fan.cones) == 2 ** 15
    assert fan.maximal_cones == (tuple(range(15)),)


def test_generic_theta_past_max_enum_dim_answered():
    # unfolded (P^1)^9: 18 coordinates, 2^9 bases with 2^9 faces each
    A = WeightedAction(9, 0, tuple(WeightItem(tuple(int(i == j) for j in range(9)))
                                   for i in range(9) for _ in range(2)), (1,) * 9)
    ctx = toric_context(A)
    assert len(ctx.bases) == 2 ** 9 == len(fixed_points_toric(ctx))
    fan = quotient_fan(ctx)
    assert len(fan.cones) == 3 ** 9 and len(fan.maximal_cones) == 2 ** 9


def test_cones_match_face_set_oracle():
    """The walk lists each face once, in sorted order: the same tuple as
    the sorted set of all faces, on the 26 fans that the 60 seeded toric
    files of the golden reports have and on three θ on a wall."""
    fans = []
    for seed in range(60):
        data = _toric_file(seed)
        section = data.get("options", {}).get("section")
        try:
            fans.append(quotient_fan(toric_context(_action_from_data(data, "weights"),
                                                   section and tuple(map(tuple, section)))))
        except FixedLociError:
            continue
    # θ = 0 on ±1 and on ±e_1, ±e_2, and θ = (2, 1) on the ray of a weight of H_2
    walls = [WeightedAction(1, 0, (WeightItem((1,), mult=4), WeightItem((-1,), mult=4)), (0,)),
             WeightedAction(2, 0, tuple(WeightItem(chi, mult=2) for chi in ((1, 0), (-1, 0), (0, 1), (0, -1))),
                            (0, 0)),
             WeightedAction(2, 0, hirzebruch_action(2).items, (2, 1))]
    for action in walls:
        ctx = toric_context(action)
        assert len(ctx.chambers) > 1
        fans.append(quotient_fan(ctx))
    assert len(fans) == 29
    for fan in fans:
        assert fan.cones == all_faces(fan)


def test_fixed_points_hirzebruch_patterns(hirz2):
    comps = fixed_points_toric(toric_context(hirz2, PAPER_SECTION))
    assert len(comps) == 4
    # each support is a basis of the characters, so each component is a point
    assert all(len(c.support) == hirz2.g_rank for c in comps)
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
    with pytest.raises(ValidationError, match="^the stable locus is empty$"):
        quotient_fan(toric_context(A))
    with pytest.raises(ValidationError, match="^the stable locus is empty$"):
        fixed_points_toric(toric_context(A))


def test_rho_examples_match_reference():
    for d in range(4):
        A = hirzebruch_action(d)
        rho1 = rho_from_stable_subset(A, {(0, 0), (1, 0)}, PAPER_SECTION)
        assert rho1 == ((1, 0), (0, 1))
        rho3 = rho_from_stable_subset(A, {(0, 0), (2, 0)}, PAPER_SECTION)
        assert rho3 == ((1, 0), (-d, 0))
        rho2 = rho_from_stable_subset(A, {(0, 1), (1, 0)}, PAPER_SECTION)
        assert rho2 == ((0, 0), (0, 1))
        rho4 = rho_from_stable_subset(A, {(0, 1), (2, 0)}, PAPER_SECTION)
        assert rho4 == ((0, 0), (0, 0))


def test_s_rho_examples(hirz2):
    rho1 = identity(2)
    assert sorted(s_rho(hirz2, rho1, PAPER_SECTION)) == [(0, 0), (1, 0)]
    rho4 = ((0, 0), (0, 0))
    assert sorted(s_rho(hirz2, rho4, PAPER_SECTION)) == [(0, 1), (2, 0)]
    # trivial rho with a trivial-weight section row matches exactly those rows
    triv_rows = [i for i, row in enumerate(PAPER_SECTION) if not any(row)]
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
    assert len(set(rhos)) == len(rhos)
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
    with pytest.raises(ValidationError, match="^support weight matrix has determinant 2$"):
        rho_from_stable_subset(A, {(0, 0)}, c)


def test_necessary_condition(hirz2):
    rho1 = identity(2)
    assert necessary_condition(hirz2, rho1, PAPER_SECTION)
    # a rho matching nothing: empty S_rho cannot span
    rho_none = ((3, 0), (0, 3))
    assert s_rho(hirz2, rho_none, PAPER_SECTION) == frozenset()
    assert not necessary_condition(hirz2, rho_none, PAPER_SECTION)
