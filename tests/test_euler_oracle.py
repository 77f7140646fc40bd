"""Euler characteristics of quiver moduli as an independent oracle.

For coprime alpha and generic theta the moduli space M of theta-stable
representations is smooth (projective when the quiver has no oriented
cycle), and its number of F_q points is a polynomial in q of degree dim M
whose value at q = 1 is chi(M).  The torus fixed locus has the same Euler
characteristic, and its components are the moduli spaces of the nonempty
covers' support quivers, so

    chi(M) = sum of chi(component) over the nonempty components.

Both sides come from Reineke's resolved Harder-Narasimhan recursion
(Invent. Math. 152, 2003), which counts points without looking at
subrepresentations, and neither uses the certification code.  A component
the CLI reports empty must count zero points over every F_q, and one it
reports nonempty must count some.
"""

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from fixedloci.cli import main
from quiver_oracles import kronecker_problem


def _gaussian_binomial(n, k, q):
    num = den = 1
    for j in range(k):
        num *= q ** (n - j) - 1
        den *= q ** (j + 1) - 1
    return num // den


def stable_point_count(dims, arrows, theta, q):
    """|M^st_dims(F_q)| for theta generic at dims (so stable = semistable).

    With mu(e) = -theta(e)/|e|, Reineke's recursion sums over ordered
    decompositions dims = e^1 + ... + e^s into nonzero parts whose proper
    partial sums have theta < 0:

        |R^sst|/|G| = sum (-1)^(s-1) q^(-sum_{k<l} <e^l, e^k>) prod |R_{e^k}|/|G_{e^k}|.

    Walking the partial sums e and multiplying through by |G_e| leaves
    integers: g(0) = 1 and

        g(e) = -sum_{e' < e} g(e') q^(sum_{a: i->j} (e - e')_i e_j) prod_i [e_i choose e'_i]_q

    over e' = 0 or theta(e') < 0, and the count is -(q - 1) g(dims) / |G_dims|.
    """
    verts = sorted(dims)
    pos = {v: i for i, v in enumerate(verts)}
    arr = [(pos[s], pos[t]) for s, t in arrows]
    th = [theta[v] for v in verts]
    d = tuple(dims[v] for v in verts)
    g = {}
    for e in itertools.product(*(range(n + 1) for n in d)):  # every e' <= e comes first
        if not any(e):
            g[e] = 1
        elif e == d or sum(t * x for t, x in zip(th, e)) < 0:
            total = 0
            for e2 in itertools.product(*(range(n + 1) for n in e)):
                if e2 != e and e2 in g:
                    b = 1
                    for n, m in zip(e, e2):
                        b *= _gaussian_binomial(n, m, q)
                    total += g[e2] * b * q ** sum((e[i] - e2[i]) * e[j] for i, j in arr)
            g[e] = -total
    G = 1
    for n in d:
        for k in range(n):
            G *= q ** n - q ** k
    count = Fraction(-(q - 1) * g[d], G)
    assert count.denominator == 1 and count >= 0, count
    return int(count)


def euler_characteristic(dims, arrows, theta, dim):
    """chi = the point count at q = 1, interpolated from q = 2, ..., dim + 2.

    One more point, q = dim + 3, checks that the count is a polynomial of
    degree at most dim (the zero polynomial when dim < 0).  Also returns the
    counts, for the emptiness check.
    """
    dim = max(dim, -1)
    qs = list(range(2, dim + 4))
    counts = [stable_point_count(dims, arrows, theta, q) for q in qs]

    def interpolate(x):
        value = Fraction(0)
        for i in range(dim + 1):
            term = Fraction(counts[i])
            for j in range(dim + 1):
                if j != i:
                    term *= Fraction(x - qs[j], qs[i] - qs[j])
            value += term
        return value

    assert interpolate(qs[-1]) == counts[-1]
    chi = interpolate(1)
    assert chi.denominator == 1
    return int(chi), counts


def _quiver_report(tmp_path, data):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["quiver", str(path), "--trials", "0"]) == 0
    return json.loads(out.getvalue())


def _euler_form(dims, arrows):
    return (sum(n * n for n in dims.values())
            - sum(dims[s] * dims[t] for s, t in arrows))


def _has_cycle(points, arrows):
    """Whether the arrows close an oriented cycle, a loop included: peeling
    off the points no remaining arrow enters leaves the points on cycles."""
    left = set(points)
    while True:
        entered = {t for s, t in arrows if s in left}
        if left <= entered:
            return bool(left)
        left &= entered


def localisation_sides(tmp_path, data):
    """(chi(M), sum of chi over the nonempty components, the statuses of the
    Schofield decisions on cyclic supports) for a quiver problem, checking
    that every empty component counts zero and every nonempty one does not.

    Arrow a with weight w_a runs from (src, g) to (tgt, g + w_a) in a cover's
    support; without `arrow_weights`, arrow k has weight e_k (the full arrow
    torus).
    """
    arrows = [(a["src"], a["tgt"]) for a in data["arrows"]]
    graded = data.get("arrow_weights")
    weights = [graded["weights"][a["id"]] if graded else [int(j == k) for j in range(len(arrows))]
               for k, a in enumerate(data["arrows"])]
    alpha, theta = data["alpha"], data["theta"]
    dims = {v: n for v, n in alpha.items() if n}
    inside = [(s, t) for s, t in arrows if s in dims and t in dims]
    chi_m, _ = euler_characteristic(dims, inside, theta, 1 - _euler_form(dims, inside))
    report = _quiver_report(tmp_path, data)
    assert report["counts"]["candidate_only"] == 0
    total, cyclic = 0, []
    for comp in report["components"]:
        beta = {(v, tuple(grade)): n for (v, grade), n in comp["beta"]}
        support_arrows = []
        for (src, tgt), w in zip(arrows, weights):
            for v, grade in beta:
                head = (tgt, tuple(x + y for x, y in zip(grade, w)))
                if v == src and head in beta:
                    support_arrows.append(((v, grade), head))
        assert comp["dimension"] == 1 - _euler_form(beta, support_arrows)
        chi, counts = euler_characteristic(
            beta, support_arrows, {p: theta[p[0]] for p in beta}, comp["dimension"])
        if comp["status"] == "NonemptyVerified":
            # a nonzero count polynomial of degree dim cannot vanish at dim + 2 points
            assert any(counts), comp
            total += chi
        else:
            assert comp["status"] == "EmptyVerified" and not any(counts), comp
        if comp["method"] == "schofield" and _has_cycle(beta, support_arrows):
            cyclic.append(comp["status"])
    return chi_m, total, cyclic


@pytest.mark.parametrize("n,a,b,chi", [
    (3, 2, 3, 13), (4, 2, 3, 58), (5, 2, 3, 170), (3, 3, 4, 68), (3, 3, 5, 68),
    # Grassmannians: K_n(1, m) at theta (-m, 1) is Gr(m, n), with chi C(n, m)
    (4, 1, 2, 6), (5, 1, 2, 10), (6, 1, 3, 20), (7, 1, 2, 21), (5, 1, 4, 5),
])
def test_kronecker_localisation(tmp_path, n, a, b, chi):
    assert localisation_sides(tmp_path, kronecker_problem(n, a, b)) == (chi, chi, [])


def _generic(verts, alpha, theta):
    """Whether theta vanishes on no dimension vector 0 < e < alpha."""
    d = [alpha[v] for v in verts]
    return not any(any(e) and list(e) != d and sum(theta[v] * x for v, x in zip(verts, e)) == 0
                   for e in itertools.product(*(range(n + 1) for n in d)))


def _random_acyclic_problem(rng):
    """A quiver on 2 or 3 vertices with arrows only from lower to higher
    vertices, a coprime alpha and a theta generic for it, or None."""
    verts = [str(i + 1) for i in range(rng.choice((2, 3)))]
    arrows = [(s, t) for s, t in itertools.combinations(verts, 2)
              for _ in range(rng.randint(len(verts) == 2, 3))]
    alpha = {v: rng.randint(1, 3) for v in verts}
    if sum(alpha.values()) > 6 or math.gcd(*alpha.values()) != 1:
        return None
    # the source pairs negatively, so that subrepresentations can pair positively
    theta = {v: rng.randint(-4, 4 * (v != verts[0]) - 1) for v in verts}
    pairing = sum(theta[v] * alpha[v] for v in verts[:-1])
    if pairing % alpha[verts[-1]]:
        return None
    theta[verts[-1]] = -pairing // alpha[verts[-1]]
    if not _generic(verts, alpha, theta):
        return None
    return {
        "kind": "quiver",
        "vertices": verts,
        "arrows": [{"id": "a%d" % i, "src": s, "tgt": t} for i, (s, t) in enumerate(arrows)],
        "alpha": alpha,
        "theta": theta,
    }


def test_random_acyclic_localisation(tmp_path):
    rng = random.Random(71)
    checked = nonempty = 0
    while checked < 30:
        data = _random_acyclic_problem(rng)
        if data is None:
            continue
        checked += 1
        chi_m, total, cyclic = localisation_sides(tmp_path, data)
        assert chi_m == total and not cyclic, data
        nonempty += chi_m > 0
    assert nonempty >= 10, nonempty


def _random_graded_problem(rng):
    """A quiver on 2 or 3 vertices with up to two arrows each way between two
    vertices and a loop 30% of the time, graded by rank-1 weights in
    {-1, 0, 1}, with a coprime alpha and a theta generic for it, or None.
    Weight-0 cycles survive into the covers' supports."""
    verts = [str(i + 1) for i in range(rng.choice((2, 3)))]
    arrows = [(s, t) for s, t in itertools.permutations(verts, 2) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.3:
        v = rng.choice(verts)
        arrows.append((v, v))
    alpha = {v: rng.randint(1, 3) for v in verts}
    if sum(alpha.values()) > 5 or math.gcd(*alpha.values()) != 1:
        return None
    theta = {v: rng.randint(-4, 4) for v in verts[:-1]}
    pairing = sum(theta[v] * alpha[v] for v in verts[:-1])
    if pairing % alpha[verts[-1]]:
        return None
    theta[verts[-1]] = -pairing // alpha[verts[-1]]
    if not _generic(verts, alpha, theta):
        return None
    ids = ["a%d" % i for i in range(len(arrows))]
    return {
        "kind": "quiver",
        "vertices": verts,
        "arrows": [{"id": k, "src": s, "tgt": t} for k, (s, t) in zip(ids, arrows)],
        "alpha": alpha,
        "theta": theta,
        "arrow_weights": {"aux_rank": 1, "weights": {k: [rng.randint(-1, 1)] for k in ids}},
    }


def test_random_graded_localisation(tmp_path):
    # Genericity passes to every cover: a gamma <= beta with theta(gamma) = 0
    # maps to a sub-vector of alpha with theta = 0.  So each component's
    # stable points are counted by the same recursion, and chi(M) = the sum
    # over the fixed components holds for a torus acting on any complex
    # variety, projective or not.
    rng = random.Random(83)
    checked = nonempty = 0
    cyclic = []
    while checked < 150:
        data = _random_graded_problem(rng)
        if data is None:
            continue
        checked += 1
        chi_m, total, decided = localisation_sides(tmp_path, data)
        assert chi_m == total, data
        nonempty += chi_m > 0
        cyclic += decided
    assert nonempty >= 50, nonempty
    # Schofield's test decides many non-thin cyclic supports each way
    assert cyclic.count("NonemptyVerified") >= 50 and cyclic.count("EmptyVerified") >= 50, cyclic
