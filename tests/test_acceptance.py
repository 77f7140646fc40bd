"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every tolerance here is exact (integer/rational comparisons); randomized
checks use fixed seeds and the stated minimum sample counts.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

from cone_oracles import contains
from conftest import hirzebruch_action, kronecker3, ungraded
from fixedloci.cli import _quiver_report, _toric_report, render_json
from fixedloci.cones import dot_q
from fixedloci.errors import ValidationError
from fixedloci.grassmann import GrassmannProblem, classify
from fixedloci.hmtorus import (
    WeightItem,
    WeightedAction,
    is_stable_support,
    kempf_data,
    limit_cone,
)
from fixedloci.linalg import dot
from fixedloci.quiver import enumerate_covers
from fixedloci.toric import quotient_fan, toric_context
from lp_oracle import is_semistable_support, solve_nonneg
from test_toric import classical_hirzebruch_fan
from toric_oracles import (
    fan_intersections_ok,
    fan_is_face_closed,
    fan_is_simplicial,
    fans_unimodularly_equivalent,
    is_refused_context,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d (%s): FAIL" % (num, desc))
        raise
    print("ACCEPTANCE %d (%s): PASS" % (num, desc))


def toric_problem_json(d):
    return {
        "kind": "toric",
        "g_rank": 2,
        "weights": [{"chi": [1, 0], "mult": 2}, {"chi": [0, 1]}, {"chi": [d, 1]}],
        "theta": [d + 1, 1],
        "options": {"section": [[1, 0], [0, 0], [0, 1], [0, 0]]},
    }


KRON3_JSON = {
    "kind": "quiver",
    "vertices": ["1", "2"],
    "arrows": [
        {"id": "a", "src": "1", "tgt": "2"},
        {"id": "b", "src": "1", "tgt": "2"},
        {"id": "c", "src": "1", "tgt": "2"},
    ],
    "alpha": {"1": 2, "2": 3},
    "theta": {"1": -3, "2": 2},
    "options": {"window": 2, "prime": 5, "trials": 200, "seed": 0},
}


def test_criterion_1_hirzebruch():
    with criterion(1, "Hirzebruch surfaces d=0..3"):
        t0 = time.monotonic()
        for d in range(4):
            report = _toric_report(toric_problem_json(d), seed=None)
            comps = report["components"]
            assert len(comps) == 4
            assert all(c["dimension"] == 0 for c in comps)
            rhos = {tuple(map(tuple, c["rho"])) for c in comps}
            assert rhos == {
                ((1, 0), (0, 1)),       # rho_1: (t1, t2)
                ((0, 0), (0, 1)),       # rho_2: (1, t2)
                ((1, 0), (-d, 0)),      # rho_3: (t1, t1^-d)
                ((0, 0), (0, 0)),       # rho_4: (1, 1)
            }
            fan = quotient_fan(toric_context(hirzebruch_action(d)))
            assert fans_unimodularly_equivalent(fan, classical_hirzebruch_fan(d))
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, "took %.2fs" % elapsed


def _layer1_degree_profile(beta_entries):
    pts = {(v, tuple(chi)) for (v, chi), _n in beta_entries}
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    degs = []
    for v, chi in sorted(pts):
        if v != "1":
            continue
        deg = sum(
            1 for u in units
            if ("2", tuple(c + x for c, x in zip(chi, u))) in pts
        )
        degs.append(deg)
    return tuple(sorted(degs))


def test_criterion_2_three_kronecker():
    with criterion(2, "3-Kronecker quiver fixed points"):
        t0 = time.monotonic()
        report = _quiver_report(KRON3_JSON, None, None, None, None)
        comps = report["components"]
        assert report["counts"]["candidates"] == 19
        assert report["counts"]["nonempty_verified"] == 13
        assert report["counts"]["empty_verified"] == 6
        assert report["counts"]["candidate_only"] == 0
        type1 = [c for c in comps if any(n > 1 for _pt, n in c["beta"])]
        rest = [c for c in comps if c not in type1]
        assert len(type1) == 1 and type1[0]["status"] == "NonemptyVerified"
        type2 = [
            c for c in rest
            if _layer1_degree_profile([((p[0], p[1]), n) for p, n in c["beta"]]) == (2, 2)
        ]
        type3 = [
            c for c in rest
            if _layer1_degree_profile([((p[0], p[1]), n) for p, n in c["beta"]]) == (1, 3)
        ]
        assert len(type2) == 12 and all(c["status"] == "NonemptyVerified" for c in type2)
        assert len(type3) == 6 and all(c["status"] == "EmptyVerified" for c in type3)
        assert len(type2) + len(type3) == len(rest)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, "took %.2fs" % elapsed


def test_criterion_3_ambient_dimension():
    with criterion(3, "ambient moduli dimension"):
        Q, alpha, _theta = kronecker3()
        trivial = ((("1", ()), 2), (("2", ()), 3))
        arrows = tuple(((a, ()), 0, 1) for a in "abc")
        assert enumerate_covers(ungraded(Q), alpha, 0) == (1, [(trivial, 6, arrows)])


def _grassmann_oracle(m, n, weights):
    q = []
    for w in sorted(weights, reverse=True):
        if q and q[-1][0] == w:
            q[-1][1] += 1
        else:
            q.append([w, 1])
    q = [b for _, b in q]
    out = set()
    for d in itertools.product(*(range(0, qi + 1) for qi in q)):
        if sum(d) != n - m:
            continue
        j_seq = tuple(j + 1 for j in range(len(q)) if d[j] < q[j])
        t_seq = tuple(q[j - 1] - d[j - 1] for j in j_seq)
        dim = sum(dj * (qj - dj) for dj, qj in zip(d, q))
        out.add((j_seq, t_seq, dim))
    return out


def test_criterion_4_grassmann_classifier():
    with criterion(4, "Grassmannian classifier vs combinatorial oracle"):
        t0 = time.monotonic()
        for m in range(1, 4):
            for n in range(m, 6):
                for weights in itertools.combinations_with_replacement((0, 1, 2), n):
                    got = {
                        (c.j_seq, tuple(t for t, _ in c.factors), c.dimension)
                        for c in classify(GrassmannProblem(m, n, weights))
                    }
                    assert got == _grassmann_oracle(m, n, weights)
        for m in range(1, 4):
            for n in range(m, 6):
                comps = classify(GrassmannProblem(m, n, tuple(range(n, 0, -1))))
                assert len(comps) == math.comb(n, m)
                assert all(c.dimension == 0 for c in comps)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, "took %.2fs" % elapsed


def _random_action(rng):
    r = rng.randint(1, 3)
    items = tuple(
        WeightItem(tuple(rng.randint(-3, 3) for _ in range(r)))
        for _ in range(rng.randint(1, 6))
    )
    theta = tuple(rng.randint(-3, 3) for _ in range(r))
    return WeightedAction(r, 0, items, theta)


def _random_support(rng, action):
    return frozenset(i for i in action.indices() if rng.random() < 0.6)


def _stable_direct_lp(action, support):
    """No nonzero eta with <chi_s,eta> >= 0 (s in the support) and <theta,eta> <= 0.

    Feasibility of the negation is decided by the Fraction-tableau simplex of
    lp_oracle, a different solver from the NNLS behind is_stable_support,
    writing eta = u - v with u, v >= 0 and slack variables for the
    inequalities.
    """
    r = action.g_rank
    chis = sorted({action.chi_of(i) for i in support})
    theta = action.theta
    nslack = len(chis) + 1
    for j in range(r):
        for sign in (1, -1):
            rows = []
            rhs = []
            for t, chi in enumerate(chis):
                row = list(chi) + [-x for x in chi] + [0] * nslack + [0]
                row[2 * r + t] = -1
                rows.append(row)
                rhs.append(0)
            row = list(theta) + [-x for x in theta] + [0] * nslack + [0]
            row[2 * r + len(chis)] = 1
            rows.append(row)
            rhs.append(0)
            row = [0] * (2 * r + nslack + 1)
            row[j] = sign
            row[r + j] = -sign
            row[-1] = -1
            rows.append(row)
            rhs.append(1)
            if solve_nonneg(rows, rhs) is not None:
                return False
    return True


def test_criterion_5_stability_equivalence():
    with criterion(5, "stability test equivalence on 1000 random actions"):
        rng = random.Random(101)
        disagreements = 0
        for _ in range(1000):
            A = _random_action(rng)
            S = _random_support(rng, A)
            cone_form = is_stable_support(A, S)
            lp_form = _stable_direct_lp(A, S)
            if cone_form != lp_form:
                disagreements += 1
            if is_semistable_support(A, S) != (kempf_data(A, S)[0].sign >= 0):
                disagreements += 1
        assert disagreements == 0


def test_criterion_6_kempf_properties():
    with criterion(6, "optimal destabilizer properties on 500 unstable supports"):
        rng = random.Random(103)
        violations = 0
        checked = 0
        while checked < 500:
            A = _random_action(rng)
            S = _random_support(rng, A)
            mv, lam, _ = kempf_data(A, S)
            if mv.sign >= 0:
                continue
            checked += 1
            cone = limit_cone(A, S)
            Q = [[int(i == j) for j in range(A.g_rank)] for i in range(A.g_rank)]
            if not contains(cone, lam):
                violations += 1
            if math.gcd(*[abs(x) for x in lam] + [0]) != 1:
                violations += 1
            tl = dot(A.theta, lam)
            nl = dot_q(lam, lam, Q)
            if tl >= 0:
                violations += 1
            for _ in range(200):
                coeffs = [rng.randint(0, 3) for _ in cone]
                eta = tuple(
                    sum(c * g[i] for c, g in zip(coeffs, cone))
                    for i in range(A.g_rank)
                )
                if all(x == 0 for x in eta):
                    continue
                te = dot(A.theta, eta)
                if te < 0 and te * te * nl > tl * tl * dot_q(eta, eta, Q):
                    violations += 1
            # uniqueness: a reshuffled presentation returns the same ray
            perm = list(range(len(A.items)))
            rng.shuffle(perm)
            B = WeightedAction(A.g_rank, 0, tuple(A.items[p] for p in perm), A.theta)
            S2 = frozenset((perm.index(s), k) for (s, k) in S)
            if kempf_data(B, S2)[1] != lam:
                violations += 1
        assert violations == 0


def test_criterion_8_fan_axioms():
    with criterion(8, "fan axioms on all generated fans"):
        fans = [quotient_fan(toric_context(hirzebruch_action(d))) for d in range(4)]
        fans.append(quotient_fan(toric_context(WeightedAction(1, 0, (WeightItem((1,), mult=2),), (1,)))))
        fans.append(quotient_fan(toric_context(WeightedAction(0, 0, (WeightItem(()),), ()))))
        rng = random.Random(109)
        made = 0
        while made < 10:
            r = rng.randint(1, 2)
            items = tuple(
                WeightItem(tuple(rng.randint(-2, 2) for _ in range(r)))
                for _ in range(rng.randint(1, 4))
            )
            theta = tuple(rng.randint(-2, 2) for _ in range(r))
            try:
                fans.append(quotient_fan(toric_context(WeightedAction(r, 0, items, theta))))
                made += 1
            except ValidationError as exc:
                if not is_refused_context(exc):
                    raise
        for fan in fans:
            assert fan_is_simplicial(fan)
            assert fan_is_face_closed(fan)
            assert fan_intersections_ok(fan)


def test_criterion_9_determinism():
    with criterion(9, "byte-identical reports for identical input and seed"):
        r1 = render_json(_quiver_report(KRON3_JSON, 0, 5, 200, 2))
        r2 = render_json(_quiver_report(KRON3_JSON, 0, 5, 200, 2))
        assert r1.encode() == r2.encode()
        t1 = render_json(_toric_report(toric_problem_json(2), seed=None))
        t2 = render_json(_toric_report(toric_problem_json(2), seed=None))
        assert t1.encode() == t2.encode()
