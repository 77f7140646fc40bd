import math
import random
from fractions import Fraction

from cone_oracles import canonical, contains
from conftest import hirzebruch_action
from fixedloci import cones, hmtorus
from fixedloci.cones import dot_q, dual_cone
from fixedloci.hmtorus import (
    WeightItem,
    WeightedAction,
    is_stable_support,
    kempf_data,
    limit_cone,
)
from fixedloci.linalg import dot, rank
from lp_oracle import is_semistable_support


def random_action(rng, r=None, max_items=6):
    r = r if r is not None else rng.randint(1, 3)
    items = tuple(
        WeightItem(tuple(rng.randint(-3, 3) for _ in range(r)))
        for _ in range(rng.randint(1, max_items))
    )
    theta = tuple(rng.randint(-3, 3) for _ in range(r))
    return WeightedAction(r, 0, items, theta)


def random_support(rng, action):
    idx = action.indices()
    return frozenset(i for i in idx if rng.random() < 0.6)


def support_cone(action, support):
    """The cone in character space spanned by the weights meeting the support."""
    return canonical(sorted({action.chi_of(i) for i in support}), action.g_rank)


def _stable_by_dual_cone(action, support):
    """Old path: full rank, and theta strictly positive on every dual generator."""
    chis = [action.chi_of(i) for i in support]
    if rank(chis) != action.g_rank:
        return False
    dual = dual_cone(support_cone(action, support), action.g_rank)
    return all(dot(g, action.theta) > 0 for g in dual)


def _semistable_by_canonical_cone(action, support):
    """Old path: membership in the canonical support cone."""
    return contains(support_cone(action, support), action.theta)


def test_certificates_agree_with_cone_oracles():
    rng = random.Random(61)
    seen = dict.fromkeys(
        ["r0", "empty", "zero_chi", "zero_theta", "repeat", "mult", "stable", "unstable",
         "semistable_only"], 0)
    for n in range(600):
        r = n % 4
        chis = []
        for _ in range(rng.randint(0, 6)):
            roll = rng.random()
            if roll < 0.15:
                chis.append((0,) * r)
            elif roll < 0.3 and chis:
                chis.append(rng.choice(chis))
            else:
                chis.append(tuple(rng.randint(-3, 3) for _ in range(r)))
        items = tuple(WeightItem(c, mult=rng.choice([1, 1, 1, 2, 3])) for c in chis)
        theta = (0,) * r if rng.random() < 0.15 else tuple(rng.randint(-3, 3) for _ in range(r))
        A = WeightedAction(r, 0, items, theta)
        S = frozenset() if rng.random() < 0.1 else random_support(rng, A)
        stable, semistable = is_stable_support(A, S), is_semistable_support(A, S)
        assert stable == _stable_by_dual_cone(A, S)
        assert semistable == _semistable_by_canonical_cone(A, S)
        support_chis = [A.chi_of(i) for i in S]
        seen["r0"] += r == 0
        seen["empty"] += not S
        seen["zero_chi"] += any(not any(c) for c in support_chis) and r > 0
        seen["zero_theta"] += not any(theta) and r > 0
        seen["repeat"] += len(set(support_chis)) < len(support_chis)
        seen["mult"] += any(it.mult > 1 for it in items)
        seen["stable"] += stable and r > 0
        seen["unstable"] += not semistable
        seen["semistable_only"] += semistable and not stable
    assert min(seen.values()) > 10, seen


def test_limit_cone_examples(hirz2):
    full = limit_cone(hirz2, hirz2.indices())
    assert set(full) == {(1, 0), (0, 1)}
    assert limit_cone(hirz2, set()) == canonical(limit_cone(hirz2, set()), 2)
    assert set(limit_cone(hirz2, set())) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    one = WeightedAction(2, 0, (WeightItem((1, 0)),), (1, 1))
    assert set(limit_cone(one, {(0, 0)})) == {(1, 0), (0, 1), (0, -1)}


def test_semistable_examples():
    A = hirzebruch_action(1)
    assert is_semistable_support(A, {(0, 0), (1, 0)})
    assert not is_semistable_support(A, {(1, 0), (2, 0)})
    assert not is_semistable_support(A, set())


def test_stable_examples():
    for d in range(4):
        A = hirzebruch_action(d)
        assert is_stable_support(A, {(0, 0), (1, 0)})
        assert not is_stable_support(A, {(0, 0), (0, 1)})
        assert is_stable_support(A, A.indices())
    # theta inside the quadrant is stable, theta on its boundary only semistable
    quad = WeightedAction(2, 0, (WeightItem((1, 0)), WeightItem((0, 1))), (1, 1))
    assert is_stable_support(quad, quad.indices())
    edge = WeightedAction(2, 0, quad.items, (1, 0))
    assert is_semistable_support(edge, edge.indices())
    assert not is_stable_support(edge, edge.indices())
    # weights spanning the plane as a linear space: the certificate takes t = 0
    plane = WeightedAction(2, 0, tuple(WeightItem(c) for c in [(1, 0), (0, 1), (-1, -1)]), (0, 0))
    assert is_stable_support(plane, plane.indices())
    # weights on a line: semistable, never stable
    line = WeightedAction(2, 0, (WeightItem((1, 1)), WeightItem((-1, -1))), (0, 0))
    assert is_semistable_support(line, line.indices())
    assert not is_stable_support(line, line.indices())
    # rank 0: every support is stable
    point = WeightedAction(0, 0, (WeightItem(()),), ())
    assert is_stable_support(point, set())


def test_kempf_data_examples():
    B = WeightedAction(2, 0, (WeightItem((1, 0)),), (1, 1))
    mv, lam, cone = kempf_data(B, {(0, 0)})
    assert (mv.sign, mv.m_squared) == (-1, Fraction(1))
    assert lam == (0, -1) and contains(cone, lam)

    origin = WeightedAction(1, 0, (WeightItem((1,)),), (1,))
    mv, lam, cone = kempf_data(origin, set())
    assert mv.sign == -1
    assert lam == (-1,) and contains(cone, lam)

    # semi-stable: the optimal ray need not be unique, so none is returned
    D = WeightedAction(2, 0, (WeightItem((1, 0)), WeightItem((0, 1))), (1, 1))
    mv, lam, _ = kempf_data(D, {(0, 0), (1, 0)})
    assert mv.sign == 1 and mv.m_squared == 1
    assert lam is None


def test_hilbert_mumford_consistency():
    # semistability and the sign of the Kempf minimum are computed along
    # different paths; they must always agree
    rng = random.Random(41)
    for _ in range(150):
        A = random_action(rng)
        S = random_support(rng, A)
        assert is_semistable_support(A, S) == (kempf_data(A, S)[0].sign >= 0)


def test_stable_implies_semistable_and_span():
    rng = random.Random(43)
    stable_seen = 0
    for _ in range(400):
        A = random_action(rng)
        S = random_support(rng, A)
        if is_stable_support(A, S):
            stable_seen += 1
            assert is_semistable_support(A, S)
            chis = [A.chi_of(i) for i in S]
            assert rank(chis) == A.g_rank
    assert stable_seen > 10


def test_semistable_monotone_in_support():
    rng = random.Random(47)
    for _ in range(150):
        A = random_action(rng)
        S = random_support(rng, A)
        if not is_semistable_support(A, S):
            continue
        extra = [i for i in A.indices() if i not in S]
        rng.shuffle(extra)
        S2 = S | set(extra[: rng.randint(0, len(extra))])
        assert is_semistable_support(A, S2)


def test_adapted_properties():
    rng = random.Random(53)
    checked = 0
    while checked < 60:
        A = random_action(rng)
        S = random_support(rng, A)
        mv, lam, _ = kempf_data(A, S)
        if mv.sign >= 0:
            assert lam is None
            continue
        checked += 1
        cone = limit_cone(A, S)
        assert contains(cone, lam)
        assert math.gcd(*[abs(x) for x in lam] + [0]) == 1
        tl = dot(A.theta, lam)
        assert tl < 0
        Q = [[int(i == j) for j in range(A.g_rank)] for i in range(A.g_rank)]
        nl = dot_q(lam, lam, Q)
        assert Fraction(tl * tl, nl) == mv.m_squared
        # no cone point is more destabilizing per unit norm
        for _ in range(50):
            coeffs = [rng.randint(0, 3) for _ in cone]
            eta = tuple(
                sum(c * g[i] for c, g in zip(coeffs, cone))
                for i in range(A.g_rank)
            )
            if all(x == 0 for x in eta):
                continue
            te = dot(A.theta, eta)
            if te < 0:
                assert te * te * nl <= tl * tl * dot_q(eta, eta, Q)


def test_adapted_unique_under_item_permutation():
    rng = random.Random(59)
    checked = 0
    while checked < 40:
        A = random_action(rng)
        S = random_support(rng, A)
        lam = kempf_data(A, S)[1]
        if lam is None:
            continue
        checked += 1
        perm = list(range(len(A.items)))
        rng.shuffle(perm)
        B = WeightedAction(A.g_rank, 0, tuple(A.items[p] for p in perm), A.theta)
        S2 = frozenset((perm.index(s), k) for (s, k) in S)
        assert kempf_data(B, S2)[1] == lam


def test_nonidentity_inner_product():
    B = WeightedAction(2, 0, (WeightItem((1, 0)),), (1, 1))
    Q = [[2, 0], [0, 1]]
    mv, lam, cone = kempf_data(B, {(0, 0)}, Q)
    assert contains(cone, lam)
    # minimizing over {eta1 >= 0}: theta_sharp = (1/2, 1), projection of
    # -(1/2,1) in Q-metric onto the halfspace is (0,-1) -> same ray here
    assert lam == (0, -1)
    assert mv.sign == -1 and mv.m_squared == Fraction(1)


def test_inner_product_checked_once_per_kempf_call(monkeypatch):
    calls = []
    real_check = cones.check_inner_product

    def counting_check(Q, dim):
        calls.append(dim)
        return real_check(Q, dim)

    monkeypatch.setattr(cones, "check_inner_product", counting_check)
    monkeypatch.setattr(hmtorus, "check_inner_product", counting_check)
    rng = random.Random(61)
    signs = set()
    for n in range(1, 41):
        A = random_action(rng)
        r = A.g_rank
        B = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
        Q = [[sum(b[i] * b[j] for b in B) + (i == j) for j in range(r)] for i in range(r)]
        signs.add(kempf_data(A, random_support(rng, A), Q)[0].sign)
        assert len(calls) == n
    kempf_data(A, A.indices())
    assert len(calls) == 40 and signs == {-1, 0, 1}
