import random

import pytest

from conftest import kronecker3
from fixedloci.common import Status
from fixedloci.errors import TooLarge, ValidationError
from fixedloci.hmtorus import WeightItem, WeightedAction, is_stable_support
from fixedloci.quiver import (
    Arrow,
    ArrowWeights,
    CoverVector,
    Quiver,
    component_dimension,
    enumerate_covers,
    support_quiver,
    theta_hat,
)
from fixedloci.repfield import (
    RepFq,
    certify_component,
    is_semistable_rep,
    is_stable_rep,
    random_rep,
    structural_destabilizer,
    subrep_dimension_vectors,
    subspaces,
)


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
        subrep_dimension_vectors(Q, M)
    M2 = RepFq.build(7, {"1": 1}, {})
    with pytest.raises(TooLarge):
        subrep_dimension_vectors(Q, M2)
    M3 = RepFq.build(4, {"1": 1}, {})
    with pytest.raises(ValidationError):
        subrep_dimension_vectors(Q, M3)


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
