import itertools
import random

import pytest

from conftest import kronecker3
from fixedloci.common import positive_compositions
from fixedloci.errors import ValidationError, ZeroDimensionVector
from fixedloci.linalg import IntMatrix
from fixedloci.quiver import (
    Arrow,
    ArrowWeights,
    CoverVector,
    Quiver,
    check_stability_pairing,
    component_dimension,
    default_window_radius,
    enumerate_covers,
    theta_hat,
)
from quiver_oracles import (
    canonical,
    covers_to_rho,
    is_cover_of,
    rho_to_cover,
    support_is_connected,
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
    assert enumerate_covers(Q, W, {"1": 1, "2": 1}, 0) == []
    assert enumerate_covers(Q, W, {"1": 1, "2": 0}, 0) == [CoverVector({("1", (0,)): 1})]
    W0 = ArrowWeights.from_dict(1, {"a": (0,)})
    same_grade = CoverVector({("1", (0,)): 1, ("2", (0,)): 1})
    assert enumerate_covers(Q, W0, {"1": 1, "2": 1}, 0) == [same_grade]
    assert enumerate_covers(Q, W0, {"1": 1, "2": 1}, 1) == [same_grade]


def test_negative_window_rejected():
    Q, W = a2_quiver()
    with pytest.raises(ValidationError):
        enumerate_covers(Q, W, {"1": 1, "2": 1}, -1)


def test_enumerate_covers_a2():
    Q, W = a2_quiver()
    covers = enumerate_covers(Q, W, {"1": 1, "2": 1}, 2)
    assert len(covers) == 1
    assert covers[0].items == ((("1", (0,)), 1), (("2", (1,)), 1))


def test_enumerate_covers_zero_alpha():
    Q, W = a2_quiver()
    covers = enumerate_covers(Q, W, {"1": 0, "2": 0}, 2)
    assert len(covers) == 1 and covers[0].items == ()


def test_enumerate_covers_brute_force_a2():
    # independent check: place one unit per vertex anywhere in the window,
    # keep connected placements, dedup translates
    Q, W = a2_quiver()
    expected = set()
    for c1 in range(-2, 3):
        for c2 in range(-2, 3):
            beta = CoverVector({("1", (c1,)): 1, ("2", (c2,)): 1})
            if support_is_connected(Q, W, beta):
                expected.add(canonical(beta))
    got = set(enumerate_covers(Q, W, {"1": 1, "2": 1}, 2))
    assert got == expected


def test_cover_sums_and_connectivity():
    Q, W, alpha, _theta = kronecker3()
    covers = enumerate_covers(Q, W, alpha, 2)
    assert len(covers) == 55
    for c in covers:
        assert is_cover_of(c, alpha)
        assert support_is_connected(Q, W, c)
        # union-find oracle for connectivity
        assert _union_find_connected(Q, W, c)


def _union_find_connected(Q, W, beta):
    pts = list(beta.support())
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
        for c in enumerate_covers(Q, W, alpha, 2):
            assert canonical(c) == c
            for _ in range(3):
                xi = tuple(rng.randint(-4, 4) for _ in range(W.aux_rank))
                assert canonical(translate(c, xi)) == c


def test_theta_hat():
    Q, W, alpha, theta = kronecker3()
    covers = enumerate_covers(Q, W, alpha, 2)
    for c in covers[:10]:
        th = theta_hat(theta, c.support())
        assert sum(th[k] * n for k, n in c.items) == 0
        for (v, chi), val in th.items():
            assert val == theta[v]
    assert theta_hat({"1": 0, "2": 0}, [("1", (0,))]) == {("1", (0,)): 0}


def test_stability_pairing_guard():
    check_stability_pairing({"1": -3, "2": 2}, {"1": 2, "2": 3})
    with pytest.raises(ValidationError):
        check_stability_pairing({"1": 1, "2": 1}, {"1": 2, "2": 3})


def test_component_dimension_examples():
    Q, _W, _alpha, _theta = kronecker3()
    W0 = ArrowWeights.from_dict(0, {"a": (), "b": (), "c": ()})
    triv = CoverVector({("1", ()): 2, ("2", ()): 3})
    assert component_dimension(Q, W0, triv) == 6

    A2, WA = a2_quiver()
    unit = CoverVector({("1", (0,)): 1, ("2", (1,)): 1})
    assert component_dimension(A2, WA, unit) == 0

    single = CoverVector({("1", (0,)): 1})
    assert component_dimension(A2, WA, single) == 0

    with pytest.raises(ZeroDimensionVector):
        component_dimension(A2, WA, CoverVector({}))


def test_weyl_canonical():
    M = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert weyl_canonical(M, [2]) == M
    M2 = IntMatrix.from_rows([[1, 0], [0, 1]])
    assert weyl_canonical(M2, [2]).entries == ((0, 1), (1, 0))
    # two blocks sort independently
    M3 = IntMatrix.from_rows([[2, 0], [1, 0], [5, 5], [4, 4]])
    assert weyl_canonical(M3, [2, 2]).entries == ((1, 0), (2, 0), (4, 4), (5, 5))


def test_covers_to_rho_examples():
    Q, W, alpha, _ = kronecker3()
    type1 = CoverVector({
        ("1", (0, 0, 0)): 2,
        ("2", (1, 0, 0)): 1, ("2", (0, 1, 0)): 1, ("2", (0, 0, 1)): 1,
    })
    rho = covers_to_rho(Q, type1, 3)
    assert rho.entries == ((0, 0, 0), (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert rho_to_cover(Q, rho, alpha) == type1

    trivial = IntMatrix.zero(5, 3)
    cov = rho_to_cover(Q, trivial, alpha)
    assert cov.items == ((("1", (0, 0, 0)), 2), (("2", (0, 0, 0)), 3))


def test_cover_rho_roundtrip_random():
    rng = random.Random(73)
    Q, _W, alpha, _ = kronecker3()
    blocks = [alpha[v] for v in Q.vertices]
    for _ in range(50):
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(5)]
        rho = weyl_canonical(IntMatrix.from_rows(rows, 3), blocks)
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

        return CoverVector({
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


def _enumerate_covers_box_oracle(quiver, weights, alpha, radius):
    """The box-rooted enumerator: search from every point of [-R, R]^aux,
    keep neighbors inside the box, and canonicalize what each root finds."""
    box = tuple((-radius, radius) for _ in range(weights.aux_rank))

    def box_contains(chi):
        return all(lo <= c <= hi for (lo, hi), c in zip(box, chi))

    alpha = {v: int(alpha.get(v, 0)) for v in quiver.vertices}
    supp_pos = [i for i, v in enumerate(quiver.vertices) if alpha[v] > 0]
    if not supp_pos:
        return [CoverVector({})]
    total = sum(alpha.values())
    limits = {i: alpha[quiver.vertices[i]] for i in range(len(quiver.vertices))}

    out_arcs = {}
    in_arcs = {}
    for a in quiver.arrows:
        w = weights.of(a.id)
        out_arcs.setdefault(quiver.vertices.index(a.src), []).append((quiver.vertices.index(a.tgt), w))
        in_arcs.setdefault(quiver.vertices.index(a.tgt), []).append((quiver.vertices.index(a.src), w))

    def neighbors(point):
        v, chi = point
        for u, w in out_arcs.get(v, ()):
            nxt = tuple(c + x for c, x in zip(chi, w))
            if limits.get(u, 0) > 0 and box_contains(nxt):
                yield (u, nxt)
        for u, w in in_arcs.get(v, ()):
            nxt = tuple(c - x for c, x in zip(chi, w))
            if limits.get(u, 0) > 0 and box_contains(nxt):
                yield (u, nxt)

    v0 = min(supp_pos)
    supports = set()

    def grow(current, counts, candidates, banned, root):
        if all(counts.get(i, 0) >= 1 for i in supp_pos):
            shift = min(current)[1]
            canon = frozenset((v, tuple(c - s for c, s in zip(chi, shift))) for v, chi in current)
            supports.add(canon)
        if len(current) >= total:
            return
        banned = set(banned)
        for pos, u in enumerate(candidates):
            if counts.get(u[0], 0) >= limits[u[0]]:
                banned.add(u)
                continue
            nxt = current | {u}
            counts2 = dict(counts)
            counts2[u[0]] = counts2.get(u[0], 0) + 1
            seenc = set(candidates[pos + 1:]) | banned | nxt
            extra = []
            for w in neighbors(u):
                if w > root and w not in seenc:
                    extra.append(w)
                    seenc.add(w)
            grow(nxt, counts2, candidates[pos + 1:] + sorted(extra), banned, root)
            banned.add(u)

    for chi0 in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        root = (v0, chi0)
        start = sorted({w for w in neighbors(root) if w > root})
        grow(frozenset([root]), {v0: 1}, start, set(), root)

    covers = set()
    for sup in supports:
        per_vertex = {}
        for v, chi in sup:
            per_vertex.setdefault(v, []).append(chi)
        choices = []
        keys = sorted(per_vertex)
        for v in keys:
            pts = sorted(per_vertex[v])
            choices.append([(pts, c) for c in positive_compositions(limits[v], len(pts))])
        for combo in itertools.product(*choices):
            mapping = {}
            for (pts, comp), v in zip(combo, keys):
                for chi, n in zip(pts, comp):
                    mapping[(quiver.vertices[v], chi)] = n
            covers.add(canonical(CoverVector(mapping)))
    return sorted(covers, key=lambda c: c.items)


def kronecker(n, a, b):
    Q = Quiver(("1", "2"), tuple(Arrow("abcde"[i], "1", "2") for i in range(n)))
    return Q, ArrowWeights.full(Q), {"1": a, "2": b}


@pytest.mark.parametrize("n,a,b", [(3, 1, 2), (3, 2, 3), (4, 1, 3), (3, 2, 4), (5, 1, 2)])
def test_enumerate_covers_matches_box_oracle_default_window(n, a, b):
    Q, W, alpha = kronecker(n, a, b)
    radius = default_window_radius(alpha, W)
    assert enumerate_covers(Q, W, alpha, radius) == _enumerate_covers_box_oracle(Q, W, alpha, radius)


@pytest.mark.parametrize("n,a,b,radius", [(3, 2, 3, 0), (3, 2, 3, 1), (3, 2, 3, 2), (3, 3, 4, 2)])
def test_enumerate_covers_matches_box_oracle_explicit_window(n, a, b, radius):
    Q, W, alpha = kronecker(n, a, b)
    assert enumerate_covers(Q, W, alpha, radius) == _enumerate_covers_box_oracle(Q, W, alpha, radius)


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
        assert got == _enumerate_covers_box_oracle(Q, W, alpha, radius)
        sizes.append(len(got))
    assert sizes == [0, 68, 73, 73]


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
    # equal lists: the same classes, the same representatives, in the same
    # order, and no class met twice
    rng = random.Random(101)
    for _ in range(400):
        Q, W, alpha, radius = _random_quiver(rng)
        assert enumerate_covers(Q, W, alpha, radius) == _enumerate_covers_box_oracle(Q, W, alpha, radius)


def test_enumerate_covers_builds_each_cover_once(monkeypatch):
    built = []
    init = CoverVector.__init__

    def counting_init(self, mapping):
        built.append(1)
        init(self, mapping)

    monkeypatch.setattr(CoverVector, "__init__", counting_init)
    Q, W, alpha = kronecker(3, 3, 5)
    covers = enumerate_covers(Q, W, alpha, 2)
    assert len(covers) == len(built) > 0
