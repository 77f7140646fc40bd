import collections
import contextlib
import io
import json
import math
import random

import pytest

from conftest import kronecker3
from fixedloci.cli import main
from fixedloci.common import Status
from fixedloci.errors import TooLarge, ValidationError
from fixedloci.hmtorus import WeightItem, WeightedAction, is_stable_support
from fixedloci.quiver import (
    Arrow,
    ArrowWeights,
    CoverVector,
    Quiver,
    component_dimension,
    default_window_radius,
    enumerate_covers,
    support_quiver,
    theta_hat,
)
from fixedloci.repfield import (
    GenericSubdims,
    RepFq,
    _iter_subrep_dimvectors,
    certify_component,
    check_prime,
    endomorphism_dim,
    generic_destabilizer,
    gf_in_span,
    gf_rref,
    is_acyclic,
    is_stable_rep,
    random_rep,
    structural_destabilizer,
    subspaces,
)
from repfield_oracles import _iter_subrep_dimvectors as oracle_iter_subrep_dimvectors
from repfield_oracles import is_semistable_rep, subrep_dimension_vectors
from repfield_oracles import structural_destabilizer as oracle_structural_destabilizer


def test_subspace_counts():
    # subspace counts over F_2: 1 + 3 + 3 + 1 for F_2^3... (Gaussian binomials)
    assert len(subspaces(0, 5)) == 1
    assert len(subspaces(1, 5)) == 2
    assert len(subspaces(2, 2)) == 5   # 1 + 3 + 1
    assert len(subspaces(3, 2)) == 16  # 1 + 7 + 7 + 1
    assert len(subspaces(2, 5)) == 8   # 1 + 6 + 1


def test_zero_rep_subreps():
    Q, _W, _alpha, _theta = kronecker3()
    M = RepFq.build(5, {"1": 2, "2": 3}, {
        "a": [[0, 0]] * 3, "b": [[0, 0]] * 3, "c": [[0, 0]] * 3,
    })
    dims = subrep_dimension_vectors(Q, M)
    assert dims == {(i, j) for i in range(3) for j in range(4)}


def test_identity_arrow_subreps():
    Q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    M = RepFq.build(5, {"1": 1, "2": 1}, {"a": [[1]]})
    assert subrep_dimension_vectors(Q, M) == {(0, 0), (0, 1), (1, 1)}


def test_zero_rep_unstable():
    Q, _W, alpha, theta = kronecker3()
    M = RepFq.build(5, alpha, {
        "a": [[0, 0]] * 3, "b": [[0, 0]] * 3, "c": [[0, 0]] * 3,
    })
    # U = (C^2, 0) has theta(U) = -6 < 0
    assert not is_semistable_rep(Q, M, theta)
    assert not is_stable_rep(Q, M, theta)


def test_block_shape_rep_stable():
    Q, _W, alpha, theta = kronecker3()
    M = RepFq.build(5, alpha, {
        "a": [[1, 0], [0, 0], [0, 0]],
        "b": [[0, 0], [0, 1], [0, 0]],
        "c": [[0, 0], [0, 0], [1, 1]],
    })
    assert is_stable_rep(Q, M, theta)
    assert is_semistable_rep(Q, M, theta)
    # every subrep dimension vector has 0 and alpha present
    dims = subrep_dimension_vectors(Q, M)
    assert (0, 0) in dims and (2, 3) in dims


def test_stable_implies_semistable_random():
    Q, _W, alpha, theta = kronecker3()
    rng = random.Random(79)
    for _ in range(20):
        M = random_rep(Q, alpha, 5, rng)
        if is_stable_rep(Q, M, theta):
            assert is_semistable_rep(Q, M, theta)


def test_zero_padding_never_stabilizes():
    # adding a zero row/column block never turns an unstable rep stable
    Q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    theta = {"1": 1, "2": -1}
    M = RepFq.build(5, {"1": 1, "2": 1}, {"a": [[0]]})
    assert not is_stable_rep(Q, M, theta)
    theta2 = {"1": 2, "2": -1}  # pairs to zero with (1, 2)
    M2 = RepFq.build(5, {"1": 1, "2": 2}, {"a": [[0], [0]]})
    assert not is_stable_rep(Q, M2, theta2)


def test_guards():
    Q = Quiver(("1",), ())
    M = RepFq.build(5, {"1": 9}, {})
    with pytest.raises(TooLarge):
        is_stable_rep(Q, M, {"1": 0})
    M2 = RepFq.build(7, {"1": 1}, {})
    with pytest.raises(TooLarge):
        is_stable_rep(Q, M2, {"1": 0})
    M3 = RepFq.build(4, {"1": 1}, {})
    with pytest.raises(ValidationError):
        is_stable_rep(Q, M3, {"1": 0})


def test_certify_simple_vertex():
    Q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    W = ArrowWeights.full(Q)
    beta = CoverVector({("1", (0,)): 1})
    res = certify_component(Q, W, beta, {"1": 0, "2": 0}, trials=5, prime=5, seed=0)
    assert res.status is Status.NONEMPTY_VERIFIED


def test_certify_structural_empty_abcb():
    # the "abcb"-shaped cover: one grade at the second layer is reachable
    # only from one source, forcing a destabilizing subrepresentation
    Q, W, alpha, theta = kronecker3()
    ea, eb, ec = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    delta = tuple(c - b for c, b in zip(ec, eb))
    beta = CoverVector({
        ("1", (0, 0, 0)): 1,
        ("1", delta): 1,
        ("2", ea): 1, ("2", eb): 1, ("2", ec): 1,
    })
    res = certify_component(Q, W, beta, theta, trials=50, prime=5, seed=0)
    assert res.status is Status.EMPTY_VERIFIED
    assert res.destabilizer is not None
    dest = dict(res.destabilizer)
    assert sum(theta[v] * n for (v, _chi), n in dest.items()) <= 0


def test_certify_nonempty_type2():
    Q, W, alpha, theta = kronecker3()
    ea, eb, ec = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    delta = tuple(b - a for b, a in zip(eb, ea))
    beta = CoverVector({
        ("1", (0, 0, 0)): 1,
        ("1", delta): 1,
        ("2", ea): 1, ("2", eb): 1,
        ("2", tuple(b - a + c for b, a, c in zip(eb, ea, ec))): 1,
    })
    res = certify_component(Q, W, beta, theta, trials=200, prime=5, seed=0)
    assert res.status is Status.NONEMPTY_VERIFIED
    assert res.witness is not None


def test_cross_module_consistency_with_torus_stability():
    # for an all-ones cover the gauge group is a torus; King stability of a
    # 0/1 representation must match torus-level support stability
    Q, W, alpha, theta = kronecker3()
    covers = [
        c for c in enumerate_covers(Q, W, alpha, 2)
        if all(n == 1 for _, n in c.items)
        and component_dimension(Q, W, c) >= 0
    ]
    rng = random.Random(83)
    checked = 0
    for beta in covers[:8]:
        sq, dims, _ = support_quiver(Q, W, beta)
        th = theta_hat(theta, sq.vertices)
        pts = list(sq.vertices)
        n = len(pts)
        # basis of the rank-(n-1) character lattice: y_i - y_n
        def chi_vec(src, tgt):
            v = [0] * (n - 1)
            si, ti = pts.index(src), pts.index(tgt)
            if ti < n - 1:
                v[ti] += 1
            if si < n - 1:
                v[si] -= 1
            return tuple(v)

        items = tuple(WeightItem(chi_vec(a.src, a.tgt)) for a in sq.arrows)
        theta_vec = tuple(th[pts[i]] for i in range(n - 1))
        action = WeightedAction(n - 1, 0, items, theta_vec)
        for _ in range(12):
            pattern = [rng.random() < 0.7 for _ in sq.arrows]
            if not any(pattern):
                continue
            mats = {
                a.id: [[1 if keep else 0]]
                for a, keep in zip(sq.arrows, pattern)
            }
            M = RepFq.build(5, dims, mats)
            king = is_stable_rep(sq, M, th)
            support = {(i, 0) for i, keep in enumerate(pattern) if keep}
            torus = is_stable_support(action, support)
            assert king == torus
            checked += 1
    assert checked >= 50


def test_structural_destabilizer_soundness():
    # when a destabilizer is reported, random reps of that shape are never stable
    Q, W, alpha, theta = kronecker3()
    rng = random.Random(89)
    covers = enumerate_covers(Q, W, alpha, 2)
    flagged = 0
    for beta in covers:
        sq, dims, _ = support_quiver(Q, W, beta)
        th = theta_hat(theta, sq.vertices)
        if sum(dims.values()) > 8:
            continue
        dest = structural_destabilizer(sq, dims, th)
        if dest is None:
            continue
        flagged += 1
        for _ in range(5):
            M = random_rep(sq, dims, 5, rng)
            assert not is_stable_rep(sq, M, th)
    assert flagged >= 6


# ---------------------------------------------------------------------------
# Schofield's exact test

BIG_PRIME = 2 ** 31 - 1


def _ext_by_generic_rank(quiver, a, b, rng, samples=2):
    """ext(a, b) as the corank of Hom(A, B) -> Ext(A, B) presentation maps.

    For representations A, B the map (phi_v) -> (B_x phi_i - phi_j A_x) over
    the arrows x: i -> j has kernel Hom(A, B) and cokernel Ext(A, B).  Its
    rank at random A, B over a large prime field is the generic rank.
    """
    pos = {v: k for k, v in enumerate(quiver.vertices)}
    arrows = [(pos[x.src], pos[x.tgt]) for x in quiver.arrows]
    cols = {}
    for v in range(len(a)):
        for r in range(b[v]):
            for c in range(a[v]):
                cols[(v, r, c)] = len(cols)
    target = sum(a[i] * b[j] for i, j in arrows)
    best = 0
    for _ in range(samples):
        rows = []
        for i, j in arrows:
            A = [[rng.randrange(BIG_PRIME) for _ in range(a[i])] for _ in range(a[j])]
            B = [[rng.randrange(BIG_PRIME) for _ in range(b[i])] for _ in range(b[j])]
            for r in range(b[j]):
                for c in range(a[i]):
                    row = [0] * len(cols)
                    for k in range(b[i]):
                        row[cols[(i, k, c)]] += B[r][k]
                    for k in range(a[j]):
                        row[cols[(j, r, k)]] -= A[k][c]
                    rows.append(row)
        if rows and cols:
            best = max(best, len(gf_rref(rows, BIG_PRIME)))
    return target - best


def _random_acyclic_quiver(rng):
    n = rng.randint(1, 5)
    verts = tuple("v%d" % i for i in range(n))
    arrows = []
    for k in range(rng.randint(0, 7) if n > 1 else 0):
        i, j = sorted(rng.sample(range(n), 2))
        arrows.append(Arrow("x%d" % k, verts[i], verts[j]))
    return Quiver(verts, tuple(arrows))


def test_schofield_ext_matches_generic_rank():
    rng = random.Random(97)
    positive = 0
    for _ in range(400):
        Q = _random_acyclic_quiver(rng)
        assert is_acyclic(Q)
        generic = GenericSubdims(Q)
        a = tuple(rng.randint(0, 3) for _ in Q.vertices)
        b = tuple(rng.randint(0, 3) for _ in Q.vertices)
        ext = _ext_by_generic_rank(Q, a, b, rng)
        assert generic.ext(a, b) == ext, (Q, a, b)
        assert generic.embeds(a, tuple(x + y for x, y in zip(a, b))) == (ext == 0)
        positive += ext > 0
    assert positive > 100


def test_acyclicity():
    assert is_acyclic(Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2"))))
    assert not is_acyclic(Quiver(("1",), (Arrow("l", "1", "1"),)))
    assert not is_acyclic(Quiver(("1", "2", "3"), (
        Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "3", "1"))))


def _kronecker(n, a, b):
    Q = Quiver(("1", "2"), tuple(Arrow("a%d" % i, "1", "2") for i in range(n)))
    return Q, ArrowWeights.full(Q), {"1": a, "2": b}, {"1": -b, "2": a}


def _sampler_certify(Q, W, beta, theta, trials=200, prime=5, seed=0):
    """The sampler-only certification the Schofield test replaced, as an oracle."""
    sq, dims, _ = support_quiver(Q, W, beta)
    th = theta_hat(theta, sq.vertices)
    if structural_destabilizer(sq, dims, th) is not None:
        return Status.EMPTY_VERIFIED
    for trial in range(trials):
        rng = random.Random("%s:%s:%d" % (seed, repr(beta.items), trial))
        if is_stable_rep(sq, random_rep(sq, dims, prime, rng), th):
            return Status.NONEMPTY_VERIFIED
    return Status.CANDIDATE_ONLY


@pytest.mark.parametrize("n, a, b, radius, counts", [
    (3, 1, 2, None, (3, 0)),
    (3, 2, 3, None, (13, 6)),
    (4, 1, 3, None, (4, 0)),
    (3, 2, 4, None, (0, 12)),
    (5, 1, 2, None, (10, 0)),
    (3, 3, 4, 2, (65, 93)),
    (3, 3, 5, 2, (65, 93)),
])
def test_schofield_agrees_with_sampler(n, a, b, radius, counts):
    Q, W, alpha, theta = _kronecker(n, a, b)
    if radius is None:
        radius = default_window_radius(alpha, W)
    cands = [c for c in enumerate_covers(Q, W, alpha, radius)
             if c.items and component_dimension(Q, W, c) >= 0]
    seen = {Status.NONEMPTY_VERIFIED: 0, Status.EMPTY_VERIFIED: 0}
    for beta in cands:
        res = certify_component(Q, W, beta, theta)
        seen[res.status] += 1
        old = _sampler_certify(Q, W, beta, theta)
        assert old is Status.CANDIDATE_ONLY or res.status is old, beta
        # the old path's only emptiness certificate was the structural one
        structural = all(k == 1 for _, k in beta.items) or old is Status.EMPTY_VERIFIED
        assert res.method == ("structural" if structural else "schofield")
        if res.method == "schofield" and res.status is Status.EMPTY_VERIFIED:
            dest = dict(res.destabilizer)
            full = beta.as_dict()
            assert 0 < sum(dest.values()) < beta.total()
            assert all(0 < k <= full[p] for p, k in dest.items())
            assert sum(theta[v] * k for (v, _), k in dest.items()) <= 0
    assert (seen[Status.NONEMPTY_VERIFIED], seen[Status.EMPTY_VERIFIED]) == counts


def _two_cycle(alpha, theta, extra_arrow=False):
    arrows = [Arrow("a", "1", "2"), Arrow("b", "2", "1")]
    if extra_arrow:
        arrows.append(Arrow("c", "1", "2"))
    Q = Quiver(("1", "2"), tuple(arrows))
    W = ArrowWeights.from_dict(1, {x.id: (0,) for x in arrows})
    beta = CoverVector({(v, (0,)): k for v, k in alpha.items()})
    return Q, W, beta, theta


def test_cyclic_support_uses_sampler(monkeypatch):
    def no_schofield(*args):
        raise AssertionError("Schofield's test ran on a cyclic support")

    monkeypatch.setattr("fixedloci.repfield.generic_destabilizer", no_schofield)
    # a weight-0 grading keeps the 2-cycle in the support quiver
    Q, W, beta, theta = _two_cycle({"1": 1, "2": 2}, {"1": -2, "2": 1})
    sq, _, _ = support_quiver(Q, W, beta)
    assert not is_acyclic(sq)
    # every representation has U = (k, image of a) with theta(U) = -1, which
    # no structural test sees, so the sampler finds nothing
    res = certify_component(Q, W, beta, theta, trials=20)
    assert (res.status, res.method, res.witness) == (Status.CANDIDATE_ONLY, None, None)
    # with a second arrow 1 -> 2 the general representation is stable
    res = certify_component(*_two_cycle({"1": 1, "2": 2}, {"1": -2, "2": 1}, True))
    assert (res.status, res.method) == (Status.NONEMPTY_VERIFIED, "fp_witness")
    assert res.witness is not None
    # a thin cover is exact even on a cyclic support
    res = certify_component(*_two_cycle({"1": 1, "2": 1}, {"1": 1, "2": -1}), trials=0)
    assert (res.status, res.method, res.witness) == (Status.NONEMPTY_VERIFIED, "structural", None)


def test_endomorphism_dim_examples():
    loop = Quiver(("1",), (Arrow("a", "1", "1"),))

    def rep(dims, mats):
        return RepFq.build(5, dims, mats)

    # End of one matrix is its commutant: F_5[M] when M is cyclic
    assert endomorphism_dim(loop, rep({"1": 2}, {"a": ((4, 2), (4, 4))})) == 2
    assert endomorphism_dim(loop, rep({"1": 2}, {"a": ((0, 0), (0, 0))})) == 4
    assert endomorphism_dim(loop, rep({"1": 3}, {"a": ((1, 0, 0), (0, 1, 0), (0, 0, 2))})) == 5
    two = Quiver(("1",), (Arrow("a", "1", "1"), Arrow("b", "1", "1")))
    assert endomorphism_dim(two, rep({"1": 2}, {"a": ((1, 0), (0, 2)), "b": ((1, 1), (1, 1))})) == 1
    A2 = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    assert endomorphism_dim(A2, rep({"1": 1, "2": 1}, {"a": ((3,),)})) == 1
    assert endomorphism_dim(A2, rep({"1": 1, "2": 1}, {"a": ((0,),)})) == 2
    # K3 at (1, 2) with three maps spanning F_5^2 is a brick; a vertex with
    # no arrows contributes its full matrix algebra
    Q, _W, _alpha, _theta = kronecker3()
    M = rep({"1": 1, "2": 2}, {"a": ((1,), (0,)), "b": ((0,), (1,)), "c": ((1,), (1,))})
    assert endomorphism_dim(Q, M) == 1
    assert endomorphism_dim(Quiver(("1",), ()), rep({"1": 3}, {})) == 9


def test_generic_destabilizer_examples():
    Q, _W, alpha, theta = kronecker3()
    # K3 with dimension vector (2, 3): the general representation is stable
    assert generic_destabilizer(Q, alpha, theta) is None
    # (1, 3) is stable too: the three arrows map a line onto all of C^3
    assert generic_destabilizer(Q, {"1": 1, "2": 3}, {"1": -3, "2": 1}) is None
    # in (1, 4) they span only a hyperplane, and (1, 3) has theta = -1
    assert generic_destabilizer(Q, {"1": 1, "2": 4}, {"1": -4, "2": 1}) == {"1": 1, "2": 3}
    # stability is strict: a subrepresentation with theta = 0 destabilizes
    A2 = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    assert generic_destabilizer(A2, {"1": 1, "2": 1}, {"1": 0, "2": 0}) == {"2": 1}
    assert generic_destabilizer(A2, {"1": 1, "2": 1}, {"1": -1, "2": 1}) is None


# ---------------------------------------------------------------------------
# the scans that generate only closed tuples, against their brute-force oracles

def _random_quiver(rng, n, max_arrows):
    """Vertices v0..v{n-1} and random arrows, with loops and 2-cycles."""
    verts = tuple("v%d" % i for i in range(n))
    pairs = []
    for _ in range(rng.randint(0, max_arrows)):
        s, t = rng.choice(verts), rng.choice(verts)
        roll = rng.random()
        if roll < 0.15:
            pairs.append((s, s))
        elif roll < 0.3:
            pairs += [(s, t), (t, s)]
        else:
            pairs.append((s, t))
    return Quiver(verts, tuple(Arrow("x%d" % k, s, t) for k, (s, t) in enumerate(pairs)))


def _random_rep_case(rng):
    """A representation of total dimension <= 8 over F_2, F_3 or F_5.

    Some vertices have dimension 0, some meet no arrow, and the matrices
    are sparse to a random degree, so that many subspace tuples are closed.
    The product of the subspace counts stays at most 2,000, which keeps
    the product-scan oracle quick.
    """
    while True:
        Q = _random_quiver(rng, rng.randint(1, 8), 6)
        p = rng.choice((2, 3, 5))
        dims = {v: rng.choice((0, 1, 1, 1, 2, 2, 3, 4)) for v in Q.vertices}
        if sum(dims.values()) > 8 or \
                math.prod(len(subspaces(d, p)) for d in dims.values()) > 2000:
            continue
        density = rng.random()
        mats = {a.id: [[rng.randrange(1, p) if rng.random() < density else 0
                        for _ in range(dims[a.src])] for _ in range(dims[a.tgt])]
                for a in Q.arrows}
        return Q, RepFq.build(p, dims, mats)


def test_pruned_scan_matches_product_oracle():
    rng = random.Random(101)
    seen = collections.Counter()
    for _ in range(2000):
        Q, M = _random_rep_case(rng)
        got = set(_iter_subrep_dimvectors(Q, M))
        want = set(oracle_iter_subrep_dimvectors(Q, M))
        assert got == want, (Q, M)
        full = tuple(dict(M.dims)[v] for v in Q.vertices)
        zero = tuple(0 for _ in Q.vertices)
        theta = {v: rng.randint(-3, 3) for v in Q.vertices}
        stable = all(sum(theta[v] * g for v, g in zip(Q.vertices, gamma)) > 0
                     for gamma in want if gamma not in (zero, full))
        assert is_stable_rep(Q, M, theta) == stable, (Q, M, theta)
        seen[stable] += 1
        dims = dict(M.dims)
        seen["loop"] += any(a.src == a.tgt for a in Q.arrows)
        pairs = {(a.src, a.tgt) for a in Q.arrows}
        seen["2-cycle"] += any(s != t and (t, s) in pairs for s, t in pairs)
        seen["zero vertex"] += 0 in dims.values()
        seen["isolated vertex"] += any(all(v not in (a.src, a.tgt) for a in Q.arrows)
                                       for v in Q.vertices)
        seen["total 8"] += sum(dims.values()) == 8
        seen[M.prime] += 1
    assert min(seen.values()) >= 50, seen
    assert list(_iter_subrep_dimvectors(Quiver((), ()), RepFq.build(5, {}, {}))) == [()]


def test_structural_destabilizer_matches_combinations_oracle():
    rng = random.Random(103)
    found = 0
    for _ in range(2000):
        Q = _random_quiver(rng, rng.randint(1, 7), 10)
        dims = {v: rng.choice((0, 1, 1, 2, 3)) for v in Q.vertices if rng.random() < 0.9}
        theta = {v: rng.randint(-3, 3) for v in Q.vertices}
        got = structural_destabilizer(Q, dims, theta)
        want = oracle_structural_destabilizer(Q, dims, theta)
        assert got == want and (got is None or list(got.items()) == list(want.items())), \
            (Q, dims, theta)
        found += got is not None
    assert 500 < found < 1500


def test_king_scan_checks_only_closed_prefixes(monkeypatch, tmp_path):
    """The arrow-closure checks (gf_in_span calls) of one CLI run of K3(3,4)
    at window 2: 6,826, against 25,188 for the full product scan."""
    calls = []

    def counted(rows, vec, p):
        calls.append(1)
        return gf_in_span(rows, vec, p)

    monkeypatch.setattr("fixedloci.repfield.gf_in_span", counted)
    Q, W, alpha, theta = _kronecker(3, 3, 4)
    path = tmp_path / "k34.json"
    path.write_text(json.dumps({
        "kind": "quiver", "vertices": list(Q.vertices),
        "arrows": [{"id": a.id, "src": a.src, "tgt": a.tgt} for a in Q.arrows],
        "alpha": alpha, "theta": theta}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["quiver", str(path), "--window", "2"]) == 0
    assert len(calls) == 6826


def test_check_prime_matches_trial_division():
    def prime(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    def accepted(n):
        try:
            check_prime(n)
        except ValidationError:
            return False
        return True

    assert all(accepted(n) == prime(n) for n in range(-2, 20000))
    # strong pseudoprimes to every prime base up to 2, 3, 5, 7, 11, 13, 17,
    # 23 and 37, then Carmichael numbers, then two large primes
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461,
              561, 41041, 999983 * 1000003):
        assert not accepted(n), n
    assert accepted(2 ** 61 - 1) and accepted(2 ** 31 - 1)
