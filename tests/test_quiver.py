import collections
import random

import pytest

from conftest import kronecker3
from fixedloci.errors import ValidationError
from fixedloci.quiver import (
    Arrow,
    ArrowWeights,
    Quiver,
    check_stability_pairing,
    default_window_radius,
    enumerate_covers,
    support_quiver,
    theta_hat,
)
from quiver_oracles import (
    box_covers,
    canonical,
    count_and_candidates,
    cover,
    covers_to_rho,
    is_cover_of,
    rho_to_cover,
    support_is_connected,
    support_quiver_pairs,
    translate,
    weyl_canonical,
)


def a2_quiver():
    Q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    return Q, ArrowWeights.full(Q)


def test_window_examples():
    # window 0 keeps every support at one grade, where the A2 arrow (weight
    # 1) joins nothing; a weight-0 grading puts a copy of A2 at each grade
    Q, W = a2_quiver()
    assert enumerate_covers(Q, W, {"1": 1, "2": 1}, 0) == (0, [])
    assert enumerate_covers(Q, W, {"1": 1, "2": 0}, 0) == (1, [(cover({("1", (0,)): 1}), 0, ())])
    W0 = ArrowWeights.from_dict(1, {"a": (0,)})
    same_grade = cover({("1", (0,)): 1, ("2", (0,)): 1})
    assert enumerate_covers(Q, W0, {"1": 1, "2": 1}, 0) == (1, [(same_grade, 0, ((0, 1),))])
    assert enumerate_covers(Q, W0, {"1": 1, "2": 1}, 1) == (1, [(same_grade, 0, ((0, 1),))])


def test_negative_window_rejected():
    Q, W = a2_quiver()
    with pytest.raises(ValidationError):
        enumerate_covers(Q, W, {"1": 1, "2": 1}, -1)


def test_enumerate_covers_a2():
    Q, W = a2_quiver()
    count, cands = enumerate_covers(Q, W, {"1": 1, "2": 1}, 2)
    assert count == len(cands) == 1
    assert cands[0][0] == ((("1", (0,)), 1), (("2", (1,)), 1))


def test_enumerate_covers_zero_alpha():
    Q, W = a2_quiver()
    # the empty cover counts as a class but is no candidate
    assert enumerate_covers(Q, W, {"1": 0, "2": 0}, 2) == (1, [])


def test_enumerate_covers_brute_force_a2():
    # independent check: place one unit per vertex anywhere in the window,
    # keep connected placements, dedup translates
    Q, W = a2_quiver()
    expected = set()
    for c1 in range(-2, 3):
        for c2 in range(-2, 3):
            beta = cover({("1", (c1,)): 1, ("2", (c2,)): 1})
            if support_is_connected(Q, W, beta):
                expected.add(canonical(beta))
    assert enumerate_covers(Q, W, {"1": 1, "2": 1}, 2) == count_and_candidates(Q, W, list(expected))


def test_cover_sums_and_connectivity():
    # K3(2,3) and K3(3,5) at window 2
    for (Q, W, alpha), sizes in [(kronecker3()[:3], (55, 19)), (kronecker(3, 3, 5), (1533, 158))]:
        count, cands = enumerate_covers(Q, W, alpha, 2)
        assert (count, len(cands)) == sizes
        for c, _, _ in cands:
            assert is_cover_of(c, alpha)
            assert support_is_connected(Q, W, c)
            # union-find oracle for connectivity
            assert _union_find_connected(Q, W, c)


def _union_find_connected(Q, W, beta):
    pts = [p for p, _ in beta]
    if not pts:
        return True
    parent = {p: p for p in pts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in Q.arrows:
        w = W.of(a.id)
        for (v, chi) in pts:
            if v != a.src:
                continue
            tgt = (a.tgt, tuple(c + x for c, x in zip(chi, w)))
            if tgt in parent:
                ra, rb = find((v, chi)), find(tgt)
                parent[ra] = rb
    return len({find(p) for p in pts}) == 1


def test_canonical_translate_idempotent_and_invariant():
    # every enumerated cover is its own canonical translate, and canonical
    # gives it back from any translate of it; the second quiver lists its
    # vertices out of sorted order
    rng = random.Random(71)
    Q, W, alpha, _ = kronecker3()
    for Q, W, alpha in [(Q, W, alpha), _subtorus_cycle()]:
        for c, _, _ in enumerate_covers(Q, W, alpha, 2)[1]:
            assert canonical(c) == c
            for _ in range(3):
                xi = tuple(rng.randint(-4, 4) for _ in range(W.aux_rank))
                assert canonical(translate(c, xi)) == c


def test_theta_hat():
    Q, W, alpha, theta = kronecker3()
    _, cands = enumerate_covers(Q, W, alpha, 2)
    for c, _, _ in cands[:10]:
        th = theta_hat(theta, [p for p, _ in c])
        assert sum(th[k] * n for k, n in c) == 0
        for (v, chi), val in th.items():
            assert val == theta[v]
    assert theta_hat({"1": 0, "2": 0}, [("1", (0,))]) == {("1", (0,)): 0}


def test_stability_pairing_guard():
    check_stability_pairing({"1": -3, "2": 2}, {"1": 2, "2": 3})
    with pytest.raises(ValidationError):
        check_stability_pairing({"1": 1, "2": 1}, {"1": 2, "2": 3})


def test_component_dimension_examples():
    # the dimensions and covering arrows come with the candidates from enumerate_covers
    Q, _W, alpha, _theta = kronecker3()
    W0 = ArrowWeights.from_dict(0, {"a": (), "b": (), "c": ()})
    triv = cover({("1", ()): 2, ("2", ()): 3})
    assert enumerate_covers(Q, W0, alpha, 0) == (1, [(triv, 6, ((0, 1),) * 3)])

    A2, WA = a2_quiver()
    unit = cover({("1", (0,)): 1, ("2", (1,)): 1})
    assert enumerate_covers(A2, WA, {"1": 1, "2": 1}, 2) == (1, [(unit, 0, ((0, 1),))])

    single = cover({("1", (0,)): 1})
    assert enumerate_covers(A2, WA, {"1": 1, "2": 0}, 0) == (1, [(single, 0, ())])


def test_carried_arrows_of_loops_and_parallel_arrows():
    """A loop of zero shift joins its point to itself once; a loop of shift
    1 joins two points.  Two parallel arrows of one weight are two covering
    arrows, and a third of another weight joins other points."""
    Q = Quiver(("1",), (Arrow("a", "1", "1"), Arrow("b", "1", "1")))
    W = ArrowWeights.from_dict(1, {"a": (0,), "b": (1,)})
    assert enumerate_covers(Q, W, {"1": 2}, 1) == (2, [
        (cover({("1", (0,)): 1, ("1", (1,)): 1}), 2, ((0, 0), (0, 1), (1, 1))),
        (cover({("1", (0,)): 2}), 1, ((0, 0),)),
    ])
    Q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2"), Arrow("c", "1", "2")))
    W = ArrowWeights.from_dict(1, {"a": (1,), "b": (1,), "c": (0,)})
    assert enumerate_covers(Q, W, {"1": 1, "2": 1}, 1) == (2, [
        (cover({("1", (0,)): 1, ("2", (0,)): 1}), 0, ((0, 1),)),
        (cover({("1", (0,)): 1, ("2", (1,)): 1}), 1, ((0, 1), (0, 1))),
    ])


def test_weyl_canonical():
    M = ((0, 1), (1, 0))
    assert weyl_canonical(M, [2]) == M
    M2 = ((1, 0), (0, 1))
    assert weyl_canonical(M2, [2]) == ((0, 1), (1, 0))
    # two blocks sort independently
    M3 = ((2, 0), (1, 0), (5, 5), (4, 4))
    assert weyl_canonical(M3, [2, 2]) == ((1, 0), (2, 0), (4, 4), (5, 5))


def test_covers_to_rho_examples():
    Q, W, alpha, _ = kronecker3()
    type1 = cover({
        ("1", (0, 0, 0)): 2,
        ("2", (1, 0, 0)): 1, ("2", (0, 1, 0)): 1, ("2", (0, 0, 1)): 1,
    })
    rho = covers_to_rho(Q, type1, 3)
    assert rho == ((0, 0, 0), (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert rho_to_cover(Q, rho, alpha) == type1

    trivial = ((0, 0, 0),) * 5
    cov = rho_to_cover(Q, trivial, alpha)
    assert cov == ((("1", (0, 0, 0)), 2), (("2", (0, 0, 0)), 3))


def test_cover_rho_roundtrip_random():
    rng = random.Random(73)
    Q, _W, alpha, _ = kronecker3()
    blocks = [alpha[v] for v in Q.vertices]
    for _ in range(50):
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(5)]
        rho = weyl_canonical(rows, blocks)
        cov = rho_to_cover(Q, rho, alpha)
        back = covers_to_rho(Q, cov, 3)
        assert back == rho
        # and through canonical translation on the cover side
        cov2 = canonical(cov)
        rho2 = covers_to_rho(Q, cov2, 3)
        assert canonical(rho_to_cover(Q, rho2, alpha)) == canonical(cov2)


def test_reversed_quadruple_same_class():
    # the grading built from (m1,m2,m3,m4) and from (m4,m3,m2,m1) label the
    # same component: their covers are translates of one another
    def type2_cover(m1, m2, m3, m4):
        e = {"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1)}

        def add(*vs):
            return tuple(sum(x) for x in zip(*vs))

        def neg(v):
            return tuple(-x for x in v)

        return cover({
            ("1", (0, 0, 0)): 1,
            ("1", add(e[m2], neg(e[m3]))): 1,
            ("2", e[m1]): 1,
            ("2", e[m2]): 1,
            ("2", add(e[m2], neg(e[m3]), e[m4])): 1,
        })

    for quad in ["abac", "abab", "abca", "acbc", "babc", "cabc"]:
        fwd = type2_cover(*quad)
        rev = type2_cover(*quad[::-1])
        assert canonical(fwd) == canonical(rev)


def test_default_window_radius():
    Q, W, alpha, _ = kronecker3()
    assert default_window_radius(alpha, W) == 5
    W0 = ArrowWeights.from_dict(0, {"a": (), "b": (), "c": ()})
    assert default_window_radius(alpha, W0) == 0


def _box_oracle(Q, W, alpha, radius):
    """What enumerate_covers must return, each candidate's arrows from support_quiver_pairs."""
    return count_and_candidates(Q, W, box_covers(Q, W, alpha, radius))


def kronecker(n, a, b):
    Q = Quiver(("1", "2"), tuple(Arrow("abcde"[i], "1", "2") for i in range(n)))
    return Q, ArrowWeights.full(Q), {"1": a, "2": b}


@pytest.mark.parametrize("n,a,b", [(3, 1, 2), (3, 2, 3), (4, 1, 3), (3, 2, 4), (5, 1, 2)])
def test_enumerate_covers_matches_box_oracle_default_window(n, a, b):
    Q, W, alpha = kronecker(n, a, b)
    radius = default_window_radius(alpha, W)
    assert enumerate_covers(Q, W, alpha, radius) == _box_oracle(Q, W, alpha, radius)


@pytest.mark.parametrize("n,a,b,radius", [(3, 2, 3, 0), (3, 2, 3, 1), (3, 2, 3, 2), (3, 3, 4, 2)])
def test_enumerate_covers_matches_box_oracle_explicit_window(n, a, b, radius):
    Q, W, alpha = kronecker(n, a, b)
    assert enumerate_covers(Q, W, alpha, radius) == _box_oracle(Q, W, alpha, radius)


def _subtorus_cycle():
    # rank-2 grading with a weight-0 arrow and a negative entry, on a
    # cycle; vertex ids out of lex order
    Q = Quiver(("b", "a", "c"), (
        Arrow("x", "b", "a"), Arrow("y", "b", "a"), Arrow("z", "a", "c"), Arrow("t", "c", "b"),
    ))
    W = ArrowWeights.from_dict(2, {"x": (1, 0), "y": (0, 0), "z": (-1, 1), "t": (1, 0)})
    return Q, W, {"a": 2, "b": 2, "c": 2}


def test_enumerate_covers_matches_box_oracle_subtorus():
    Q, W, alpha = _subtorus_cycle()
    sizes = []
    for radius in (0, 1, 2, default_window_radius(alpha, W)):
        got = enumerate_covers(Q, W, alpha, radius)
        assert got == _box_oracle(Q, W, alpha, radius)
        sizes.append((got[0], len(got[1])))
    assert sizes == [(0, 0), (68, 30), (73, 34), (73, 34)]


def _random_quiver(rng):
    """One to four vertices with ids drawn shuffled from v0..v3 or from
    numeric strings, whose string order is not their numeric order; random
    arrows, often with a loop or a 2-cycle; a grading of rank 0 to 2 with
    many weight-0 entries; alpha <= 3 per vertex; a window of 0 to 2."""
    n = rng.randint(1, 4)
    vertices = rng.sample(rng.choice((["v0", "v1", "v2", "v3"], ["2", "9", "10", "11", "100"])), n)
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.4:
        pairs.append((rng.choice(vertices),) * 2)
    if n > 1 and rng.random() < 0.4:
        u, w = rng.sample(vertices, 2)
        pairs += [(u, w), (w, u)]
    Q = Quiver(tuple(vertices), tuple(Arrow("a%d" % k, s, t) for k, (s, t) in enumerate(pairs)))
    aux = rng.randint(0, 2)
    W = ArrowWeights.from_dict(aux, {"a%d" % k: [rng.choice((0, 0, 1, -1, 2)) for _ in range(aux)]
                                     for k in range(len(pairs))})
    return Q, W, {v: rng.randint(0, 3) for v in vertices}, rng.randint(0, 2)


def test_enumerate_covers_matches_box_oracle_random_quivers():
    # the same number of classes, and equal candidate lists: the same
    # representatives, dimensions and covering arrows (sorted, so compared
    # as multisets), in the same order, none met twice
    rng = random.Random(101)
    seen = collections.Counter()
    for _ in range(400):
        Q, W, alpha, radius = _random_quiver(rng)
        got = enumerate_covers(Q, W, alpha, radius)
        assert got == _box_oracle(Q, W, alpha, radius)
        for c, _, arrows in got[1]:
            # the shifts of the quiver arrows that can make each covering arrow
            steps = [x for i, j in arrows for a in Q.arrows if (a.src, a.tgt) == (c[i][0][0], c[j][0][0])
                     and tuple(map(sum, zip(c[i][0][1], W.of(a.id)))) == c[j][0][1] for x in W.of(a.id)]
            seen["loop"] += any(i == j for i, j in arrows)
            seen["2-cycle"] += any((j, i) in arrows for i, j in arrows if i != j)
            seen["negative shift"] += any(x < 0 for x in steps)
            seen["zero shift"] += 0 in steps
    assert min(seen.values()) >= 100 and len(seen) == 4, seen


def test_support_quiver_matches_pairwise_oracle():
    """The support quiver of every cover in the window of seeded graded
    quivers: the same points, and the same covering arrows in the same
    order, as trying every arrow on every pair of points finds."""
    rng = random.Random(103)
    seen = collections.Counter()
    for _ in range(300):
        Q, W, alpha, radius = _random_quiver(rng)
        covers = box_covers(Q, W, alpha, radius)
        for c in covers:
            assert support_quiver(Q, W, c) == support_quiver_pairs(Q, W, c), (Q, W, c)
        if any(len(c) > 1 for c in covers):
            seen["aux %d" % W.aux_rank] += 1
            seen["loop"] += any(a.src == a.tgt for a in Q.arrows)
            seen["2-cycle"] += any((b.src, b.tgt) == (a.tgt, a.src) != (a.src, a.tgt)
                                   for a in Q.arrows for b in Q.arrows)
            seen["negative shift"] += any(x < 0 for _, w in W.weights for x in w)
    assert min(seen.values()) >= 20 and len(seen) == 6, seen
