import collections
import contextlib
import io
import itertools
import json
import math
import random
import time

import pytest

from conftest import kronecker3
from fixedloci.cli import _quiver_from_data, _quiver_report, main
from fixedloci.errors import TooLarge, ValidationError
from fixedloci.hmtorus import WeightItem, WeightedAction, is_stable_support
from fixedloci.quiver import Arrow, Quiver, covering_arrows, default_window_radius, enumerate_covers
from fixedloci.repfield import (
    GenericSubdims,
    KingScan,
    check_guard,
    check_prime,
    decide,
    endomorphism_dim,
    find_witness,
    generic_destabilizer,
    gf_member,
    gf_rref,
    random_rep,
    structural_destabilizer,
    subspace_count,
    subspace_table,
)
from quiver_oracles import box_covers, cover, kronecker_problem, labelled_arrows, support_quiver_pairs
from repfield_oracles import GenericSubdims as OracleGenericSubdims
from repfield_oracles import (build_rep, gf_in_span, is_semistable_rep, is_stable_rep, on_positions,
                              subrep_dimension_vectors, subspaces)
from repfield_oracles import _iter_subrep_dimvectors as oracle_iter_subrep_dimvectors
from repfield_oracles import closed_prefix_subrep_dimvectors as oracle_closed_prefix_subrep_dimvectors
from repfield_oracles import find_witness as oracle_find_witness
from repfield_oracles import generic_destabilizer as oracle_generic_destabilizer
from repfield_oracles import is_stable_by as oracle_is_stable_by
from repfield_oracles import random_rep as oracle_random_rep
from repfield_oracles import structural_destabilizer as oracle_structural_destabilizer
from test_golden_reports import PROBLEMS, _quiver_file


def test_subspace_counts():
    # subspace counts over F_2: 1 + 3 + 3 + 1 for F_2^3... (Gaussian binomials)
    assert len(subspace_table(0, 5).ids) == 1
    assert len(subspace_table(1, 5).ids) == 2
    assert len(subspace_table(2, 2).ids) == 5   # 1 + 3 + 1
    assert len(subspace_table(3, 2).ids) == 16  # 1 + 7 + 7 + 1
    assert len(subspace_table(2, 5).ids) == 8   # 1 + 6 + 1
    assert subspace_table(3, 2).starts == (0, 1, 8, 15, 16)
    for p in (2, 3, 5):
        assert [subspace_count(n, p) for n in range(5)] == [len(subspace_table(n, p).ids) for n in range(5)]
    assert [subspace_count(6, 5), subspace_count(8, 2)] == [3583232, 417199]


def test_subspace_table_membership_matches_reduction():
    """For every subspace and every vector of F_p^n, n <= 3 with p = 2, 3, 5,
    and of F_2^4: the parity rows say a vector is in the subspace exactly
    when reduction against its RREF rows does.  The table's basis row ids
    and dimension ranges match the oracle subspaces(n, p), row by row and
    in order."""
    for n, p in [(n, p) for p in (2, 3, 5) for n in range(4)] + [(4, 2)]:
        table, spaces = subspace_table(n, p), subspaces(n, p)
        assert table.vectors == tuple(itertools.product(range(p), repeat=n))
        assert len(table.ids) == len(table.parity) == len(spaces)
        for i, rows in enumerate(spaces):
            assert tuple(table.vectors[r] for r in table.ids[i]) == rows
            assert table.starts[len(rows)] <= i < table.starts[len(rows) + 1]
            for v in table.vectors:
                assert gf_member(table.parity[i], v, p) == gf_in_span(rows, v, p), (n, p, rows, v)


def test_zero_rep_subreps():
    Q, _alpha, _theta = kronecker3()
    M = build_rep(5, {"1": 2, "2": 3}, {
        "a": [[0, 0]] * 3, "b": [[0, 0]] * 3, "c": [[0, 0]] * 3,
    })
    dims = subrep_dimension_vectors(Q, M)
    assert dims == {(i, j) for i in range(3) for j in range(4)}


def test_identity_arrow_subreps():
    Q = Quiver(("1", "2"), (Arrow("a", "1", "2", ()),), 0)
    M = build_rep(5, {"1": 1, "2": 1}, {"a": [[1]]})
    assert subrep_dimension_vectors(Q, M) == {(0, 0), (0, 1), (1, 1)}


def test_zero_rep_unstable():
    Q, alpha, theta = kronecker3()
    M = build_rep(5, alpha, {
        "a": [[0, 0]] * 3, "b": [[0, 0]] * 3, "c": [[0, 0]] * 3,
    })
    # U = (C^2, 0) has theta(U) = -6 < 0
    assert not is_semistable_rep(Q, M, theta)
    assert not is_stable_rep(Q, M, theta)


def test_block_shape_rep_stable():
    Q, alpha, theta = kronecker3()
    M = build_rep(5, alpha, {
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
    Q, alpha, theta = kronecker3()
    rng = random.Random(79)
    for _ in range(20):
        M = oracle_random_rep(Q, alpha, 5, rng)
        if is_stable_rep(Q, M, theta):
            assert is_semistable_rep(Q, M, theta)


def test_zero_padding_never_stabilizes():
    # adding a zero row/column block never turns an unstable rep stable
    Q = Quiver(("1", "2"), (Arrow("a", "1", "2", ()),), 0)
    theta = {"1": 1, "2": -1}
    M = build_rep(5, {"1": 1, "2": 1}, {"a": [[0]]})
    assert not is_stable_rep(Q, M, theta)
    theta2 = {"1": 2, "2": -1}  # pairs to zero with (1, 2)
    M2 = build_rep(5, {"1": 1, "2": 2}, {"a": [[0], [0]]})
    assert not is_stable_rep(Q, M2, theta2)


def test_guards():
    Q = Quiver(("1",), (), 0)
    M = build_rep(5, {"1": 9}, {})
    with pytest.raises(TooLarge):
        is_stable_rep(Q, M, {"1": 0})
    M2 = build_rep(7, {"1": 1}, {})
    with pytest.raises(TooLarge):
        is_stable_rep(Q, M2, {"1": 0})
    M3 = build_rep(4, {"1": 1}, {})
    with pytest.raises(ValidationError):
        is_stable_rep(Q, M3, {"1": 0})
    # a composite modulus is bad input even above the prime guard
    M4 = build_rep(9, {"1": 1}, {})
    with pytest.raises(ValidationError, match="modulus 9 is not prime"):
        is_stable_rep(Q, M4, {"1": 0})


def _on_support(test, Q, dims, theta):
    """A destabilizer test on positions, run on Q restricted to the support
    of dims: sizes and θ in vertex order, the arrows between support
    vertices as position pairs.  The answer comes back as {vertex: n}."""
    supp = [v for v in Q.vertices if int(dims.get(v, 0)) > 0]
    pos = {v: i for i, v in enumerate(supp)}
    dest = test(tuple(int(dims[v]) for v in supp), tuple(int(theta.get(v, 0)) for v in supp),
                tuple((pos[a.src], pos[a.tgt]) for a in Q.arrows if a.src in pos and a.tgt in pos))
    return None if dest is None else {supp[i]: n for i, n in dest}


def _hat(beta, theta):
    """θ̂ of a cover in point order, as the CLI passes it."""
    return tuple(int(theta.get(v, 0)) for (v, _), _ in beta)


def _support(Q, beta, theta):
    """(support quiver, dims, θ̂ by point) of a cover, from the pairwise oracle."""
    sq, dims = support_quiver_pairs(Q, beta)
    return sq, dims, {pt: int(theta.get(pt[0], 0)) for pt in sq.vertices}


def _end_dim(Q, M):
    """endomorphism_dim of a RepFq of Q."""
    sizes, arrows, _, mats = on_positions(Q, dict(M.dims), {}, M)
    return endomorphism_dim(sizes, arrows, mats, M.prime)


def _decide(beta, arrows, theta):
    """decide on a cover given as its sorted ((vertex, grade), n) tuple, its
    labelled covering arrows and θ, with the destabilizer mapped back to
    the cover's own points, as the CLI maps it."""
    pairs = tuple(sorted((i, j) for _, i, j in arrows))
    method, dest = decide(tuple(n for _, n in beta), _hat(beta, theta), pairs)
    return method, None if dest is None else tuple((beta[i][0], n) for i, n in dest)


def test_certify_simple_vertex():
    beta = cover({("1", (0,)): 1})
    theta = {"1": 0, "2": 0}
    assert _decide(beta, (), theta)[1] is None
    assert find_witness(beta, _hat(beta, theta), (), 5, 5, 0) is not None


def test_certify_structural_empty_abcb():
    # the "abcb"-shaped cover: one grade at the second layer is reachable
    # only from one source, forcing a destabilizing subrepresentation
    Q, alpha, theta = kronecker3()
    ea, eb, ec = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    delta = tuple(c - b for c, b in zip(ec, eb))
    beta = cover({
        ("1", (0, 0, 0)): 1,
        ("1", delta): 1,
        ("2", ea): 1, ("2", eb): 1, ("2", ec): 1,
    })
    _, destabilizer = _decide(beta, labelled_arrows(Q, beta), theta)
    assert destabilizer is not None
    dest = dict(destabilizer)
    assert sum(theta[v] * n for (v, _chi), n in dest.items()) <= 0


def test_certify_nonempty_type2():
    Q, alpha, theta = kronecker3()
    ea, eb, ec = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    delta = tuple(b - a for b, a in zip(eb, ea))
    beta = cover({
        ("1", (0, 0, 0)): 1,
        ("1", delta): 1,
        ("2", ea): 1, ("2", eb): 1,
        ("2", tuple(b - a + c for b, a, c in zip(eb, ea, ec))): 1,
    })
    arrows = labelled_arrows(Q, beta)
    assert _decide(beta, arrows, theta)[1] is None
    assert find_witness(beta, _hat(beta, theta), arrows, 200, 5, 0) is not None


def test_cross_module_consistency_with_torus_stability():
    # for an all-ones cover the gauge group is a torus; King stability of a
    # 0/1 representation must match torus-level support stability
    Q, alpha, theta = kronecker3()
    covers = [c for c, _, _ in enumerate_covers(Q, alpha, 2)[1] if all(n == 1 for _, n in c)]
    rng = random.Random(83)
    checked = 0
    for beta in covers[:8]:
        sq, dims, th = _support(Q, beta, theta)
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
            M = build_rep(5, dims, mats)
            king = is_stable_rep(sq, M, th)
            support = {(i, 0) for i, keep in enumerate(pattern) if keep}
            torus = is_stable_support(action, support)
            assert king == torus
            checked += 1
    assert checked >= 50


def test_structural_destabilizer_soundness():
    # when a destabilizer is reported, random reps of that shape are never stable
    Q, alpha, theta = kronecker3()
    rng = random.Random(89)
    flagged = 0
    # every cover, not only the candidates
    for beta in box_covers(Q, alpha, 2):
        sq, dims, th = _support(Q, beta, theta)
        if sum(dims.values()) > 8:
            continue
        dest = _on_support(structural_destabilizer, sq, dims, th)
        if dest is None:
            continue
        flagged += 1
        for _ in range(5):
            M = oracle_random_rep(sq, dims, 5, rng)
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
        arrows.append(Arrow("x%d" % k, verts[i], verts[j], ()))
    return Quiver(verts, tuple(arrows), 0)


def _random_cyclic_quiver(rng):
    """Random arrows on one to four vertices, with at least one oriented cycle:
    a loop, a 2-cycle or a longer cycle through every vertex."""
    n = rng.randint(1, 4)
    verts = tuple("v%d" % i for i in range(n))
    kind = rng.choice(("loop", "2-cycle", "cycle")[:n])
    if kind == "loop":
        pairs = [(0, 0)]
    elif kind == "2-cycle":
        i, j = rng.sample(range(n), 2)
        pairs = [(i, j), (j, i)]
    else:
        order = rng.sample(range(n), n)
        pairs = list(zip(order, order[1:] + order[:1]))
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 6 - len(pairs)))]
    rng.shuffle(pairs)
    arrows = tuple(Arrow("x%d" % k, verts[i], verts[j], ()) for k, (i, j) in enumerate(pairs))
    return Quiver(verts, arrows, 0), kind


def test_schofield_ext_matches_generic_rank():
    # Schofield's recursion holds on quivers with loops and oriented cycles
    # too (Crawley-Boevey, Bull. LMS 28, 1996); ext comes from the oracle's
    # list of generic subdimension vectors, embeds from the lazy test
    rng = random.Random(97)
    seen = collections.Counter()
    for k in range(850):
        Q, kind = (_random_acyclic_quiver(rng), "acyclic") if k < 400 else _random_cyclic_quiver(rng)
        a = tuple(rng.randint(0, 3) for _ in Q.vertices)
        b = tuple(rng.randint(0, 3) for _ in Q.vertices)
        ext = _ext_by_generic_rank(Q, a, b, rng)
        assert OracleGenericSubdims(Q).ext(a, b) == ext, (Q, a, b)
        pos = {v: k for k, v in enumerate(Q.vertices)}
        generic = GenericSubdims([(pos[x.src], pos[x.tgt]) for x in Q.arrows])
        assert generic.embeds(a, tuple(x + y for x, y in zip(a, b))) == (ext == 0)
        seen[kind] += 1
        seen[kind == "acyclic", ext > 0] += 1
    assert seen[True, True] > 100 and seen[False, True] > 100, seen
    assert min(seen[k] for k in ("loop", "2-cycle", "cycle")) >= 50, seen


def _kronecker(n, a, b):
    Q = Quiver.full(("1", "2"), [("a%d" % i, "1", "2") for i in range(n)])
    return Q, {"1": a, "2": b}, {"1": -b, "2": a}


def _sampler_certify(Q, beta, theta, trials=200, prime=5, seed=0):
    """The sampler-only certification the Schofield test replaced, as an oracle.

    EmptyVerified for a structural destabilizer, NonemptyVerified for a
    geometrically stable witness (stable, with End(M) = F_p), None when the
    trials find neither.
    """
    sq, dims, th = _support(Q, beta, theta)
    if _on_support(structural_destabilizer, sq, dims, th) is not None:
        return "EmptyVerified"
    for trial in range(trials):
        rng = random.Random("%s:%s:%d" % (seed, repr(beta), trial))
        M = oracle_random_rep(sq, dims, prime, rng)
        if is_stable_rep(sq, M, th) and _end_dim(sq, M) == 1:
            return "NonemptyVerified"
    return None


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
    Q, alpha, theta = _kronecker(n, a, b)
    if radius is None:
        radius = default_window_radius(alpha, Q)
    cands = enumerate_covers(Q, alpha, radius)[1]
    seen = {"NonemptyVerified": 0, "EmptyVerified": 0}
    for beta, _, arrows in cands:
        method, destabilizer = _decide(beta, arrows, theta)
        status = "NonemptyVerified" if destabilizer is None else "EmptyVerified"
        seen[status] += 1
        old = _sampler_certify(Q, beta, theta)
        assert old is None or status == old, beta
        # the old path's only emptiness certificate was the structural one
        structural = all(k == 1 for _, k in beta) or old == "EmptyVerified"
        assert method == ("structural" if structural else "schofield")
        if method == "schofield" and status == "EmptyVerified":
            dest = dict(destabilizer)
            full = dict(beta)
            assert 0 < sum(dest.values()) < sum(full.values())
            assert all(0 < k <= full[p] for p, k in dest.items())
            assert sum(theta[v] * k for (v, _), k in dest.items()) <= 0
    assert (seen["NonemptyVerified"], seen["EmptyVerified"]) == counts


def _two_cycle(alpha, theta, extra_arrow=False):
    ends = [("a", "1", "2"), ("b", "2", "1")] + [("c", "1", "2")] * extra_arrow
    Q = Quiver(("1", "2"), tuple(Arrow(*e, (0,)) for e in ends), 1)
    beta = cover({(v, (0,)): k for v, k in alpha.items()})
    return beta, labelled_arrows(Q, beta), theta


def test_golden_quiver_files_certify_exactly(tmp_path):
    """Seeded files from the golden quiver generator, whose weight-0 gradings
    keep loops and cycles in the support quivers: the sampler only attaches
    witnesses, and Schofield's test decides."""
    seen, verdict = collections.Counter(), ("status", "method", "destabilizer")
    path = tmp_path / "q.json"
    for seed in range(170):
        data, flags = _quiver_file(seed)
        path.write_text(json.dumps(data))
        reports = []
        for extra in ([], ["--trials", "0"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["quiver", str(path)] + flags + extra)
            reports.append(json.loads(out.getvalue()) if code == 0 else None)
        report, bare = reports
        if report is None:
            continue
        seen["files"] += 1
        assert report["counts"]["candidate_only"] == 0
        opts = {k.lstrip("-"): int(v) for k, v in zip(flags[::2], flags[1::2])}
        Q, _alpha, theta = _quiver_from_data(data)
        for comp, comp0 in zip(report["components"], bare["components"], strict=True):
            assert [comp[k] for k in verdict] == [comp0[k] for k in verdict], (seed, comp)
            beta = cover({(v, tuple(chi)): n for (v, chi), n in comp["beta"]})
            assert comp0["beta"] == comp["beta"] and comp0["witness"] is None
            old = _sampler_certify(Q, beta, theta, opts["trials"], opts["prime"], opts["seed"])
            if old is not None:
                assert comp["status"] == old, (seed, comp)
            if comp["method"] == "schofield" and comp["status"] == "EmptyVerified":
                dest, full = {(v, tuple(chi)): k for (v, chi), k in comp["destabilizer"]}, dict(beta)
                assert 0 < sum(dest.values()) < sum(full.values())
                assert all(0 < k <= full[p] for p, k in dest.items())
                assert sum(theta[v] * k for (v, _), k in dest.items()) <= 0
            seen[comp["status"], comp["method"], old] += 1
    assert seen["files"] >= 150, seen
    assert seen["EmptyVerified", "schofield", None] >= 20, seen
    assert seen["NonemptyVerified", "schofield", "NonemptyVerified"] >= 20, seen
    assert seen["NonemptyVerified", "schofield", None] >= 5, seen


def test_cyclic_supports_are_exact():
    # a weight-0 grading keeps the 2-cycle in the support quiver; every
    # representation has U = (k, image of a) with theta(U) = -1, which no
    # structural test sees
    beta, arrows, theta = _two_cycle({"1": 1, "2": 2}, {"1": -2, "2": 1})
    assert _decide(beta, arrows, theta) == ("schofield", ((("1", (0,)), 1), (("2", (0,)), 1)))
    # with a second arrow 1 -> 2 the general representation is stable
    beta, arrows, theta = _two_cycle({"1": 1, "2": 2}, {"1": -2, "2": 1}, True)
    assert _decide(beta, arrows, theta) == ("schofield", None)
    assert find_witness(beta, _hat(beta, theta), arrows, 200, 5, 0) is not None
    # a thin cover stays structural
    beta, arrows, theta = _two_cycle({"1": 1, "2": 1}, {"1": 1, "2": -1})
    assert _decide(beta, arrows, theta) == ("structural", None)
    assert find_witness(beta, _hat(beta, theta), arrows, 0, 5, 0) is None


def test_witness_has_trivial_endomorphisms():
    """Two weight-0 loops at alpha = 2, theta = 0: a pair of matrices with no
    common eigenline over F_p may share one over F_{p^2}, where they commute
    and span a copy of F_{p^2}; such a stable M with End(M) = F_{p^2} is no
    witness, and the sampler skips it."""
    Q = Quiver(("1",), (Arrow("a", "1", "1", (0,)), Arrow("b", "1", "1", (0,))), 1)
    beta = cover({("1", (0,)): 2})
    sq, dims, th = _support(Q, beta, {"1": 0})
    arrows = labelled_arrows(Q, beta)
    assert _decide(beta, arrows, {"1": 0}) == ("schofield", None)
    skipped = 0
    for prime in (2, 3, 5):
        for seed in range(100):
            found = find_witness(beta, (0,), arrows, 40, prime, seed)
            assert found is not None and _end_dim(sq, build_rep(prime, dims, dict(found[0]))) == 1
            earlier = (oracle_random_rep(sq, dims, prime, random.Random("%s:%s:%d" % (seed, repr(beta), t)))
                       for t in range(found[1]))
            skipped += any(is_stable_rep(sq, M, th) for M in earlier)
    assert skipped >= 10, skipped


def test_end_check_runs_when_the_dimensions_share_a_factor(monkeypatch):
    """K3 at (2, 2) over F_5 with a = I, b = C, c = C + I, C the companion
    matrix of x^2 - 2, which is irreducible over F_5: no line is fixed by
    C, so M is stable at θ = (-1, 1), yet every map commutes with C, so
    End(M) = F_5[C] = F_25.  The dimensions share the factor 2, so
    find_witness computes End(M) and does not take M as its witness when
    random_rep returns it first."""
    C = ((0, 2), (1, 0))
    mats = {"a": ((1, 0), (0, 1)), "b": C, "c": ((1, 2), (1, 1))}
    Q = Quiver(("1", "2"), tuple(Arrow(x, "1", "2", ()) for x in mats), 0)
    theta = {"1": -1, "2": 1}
    M = build_rep(5, {"1": 2, "2": 2}, mats)
    sizes, arrows, thetas, positional = on_positions(Q, dict(M.dims), theta, M)
    assert KingScan(sizes, arrows, 5, thetas).destabilizer(positional) is None
    assert endomorphism_dim(sizes, arrows, positional, 5) == 2

    def m_first(sizes, arrows, prime, rng):
        if not served:
            served.append(tuple(mats[a] for (a, _), _, _ in arrows))
            return served[0]
        return random_rep(sizes, arrows, prime, rng)

    served = []
    monkeypatch.setattr("fixedloci.repfield.random_rep", m_first)
    beta = cover({("1", ()): 2, ("2", ()): 2})
    arrows = labelled_arrows(Q, beta)
    assert _decide(beta, arrows, theta) == ("schofield", None)
    witness, trial = find_witness(beta, _hat(beta, theta), arrows, 200, 5, 0)
    sq, dims, th = _support(Q, beta, theta)
    first = build_rep(5, dims, {a.id: m for a, m in zip(sq.arrows, served[0])})
    assert is_stable_rep(sq, first, th)
    assert witness != first.mats and trial > 0
    assert _end_dim(sq, build_rep(5, dims, dict(witness))) == 1


def test_stable_samples_with_coprime_dimensions_have_scalar_endomorphisms():
    """The rule that lets find_witness skip End(M): a stable M over
    F_p with θ . d = 0 has End(M) a finite field F_{p^k}, and each M_v is
    an F_{p^k}-space, so k divides every d_v.  On seeded acyclic and cyclic
    quivers (loops and 2-cycles included) with θ on the wall, every stable
    sample with coprime dimensions has End(M) = F_p; with a shared factor,
    some stable samples do not."""
    rng = random.Random(107)
    seen = collections.Counter()
    for k in range(1200):
        Q, kind = (_random_acyclic_quiver(rng), "acyclic") if k % 2 else _random_cyclic_quiver(rng)
        dims = {v: rng.randint(1, 3) for v in Q.vertices}
        p = rng.choice((2, 3, 5))
        raw = {v: rng.randint(-3, 3) for v in Q.vertices}
        pairing = sum(raw[v] * dims[v] for v in Q.vertices)
        theta = {v: sum(dims.values()) * raw[v] - pairing for v in Q.vertices}
        sizes, arrows, thetas, _ = on_positions(Q, dims, theta)
        king = KingScan(sizes, arrows, p, thetas)
        for _ in range(4):
            M = random_rep(sizes, arrows, p, rng)
            if king.destabilizer(M) is None:
                end = endomorphism_dim(sizes, arrows, M, p)
                if math.gcd(*dims.values()) == 1:
                    assert end == 1, (Q, M, theta)
                    seen["coprime"] += 1
                    seen[kind] += sum(dims.values()) > 1
                else:
                    seen["shared", end > 1] += 1
    assert seen["coprime"] >= 200, seen
    assert min(seen[kind] for kind in ("acyclic", "loop", "2-cycle", "cycle")) >= 40, seen
    assert seen["shared", True] >= 10, seen


def _undecided_supports(data, window):
    """(support quiver, dims, θ̂) of each non-thin candidate of a quiver
    problem that the structural test leaves undecided."""
    Q, alpha, theta = _quiver_from_data(data)
    radius = default_window_radius(alpha, Q) if window is None else window
    for c, _, _ in enumerate_covers(Q, alpha, radius)[1]:
        sq, dims, th = _support(Q, c, theta)
        if any(n != 1 for n in dims.values()) and _on_support(structural_destabilizer, sq, dims, th) is None:
            yield sq, dims, th


def test_lazy_schofield_matches_subs_oracle():
    """generic_destabilizer, whose embeds tests t -> s only for the t <= s
    with <t, g - s> < 0, against the oracle that lists every generic
    subdimension vector of s first: the same answer on every support that
    Schofield's test decides for K3(3,4) and K3(3,5) at window 2, K4(3,4)
    at the default window and the seeded golden quiver files."""
    runs = [(kronecker_problem(3, 3, b), 2) for b in (4, 5)] + [(kronecker_problem(4, 3, 4), None)]
    for seed in range(200):
        data, flags = _quiver_file(seed)
        window = dict(zip(flags[::2], flags[1::2])).get("--window")
        runs.append((data, window and int(window)))
    seen = collections.Counter()
    for data, window in runs:
        try:
            supports = list(_undecided_supports(data, window))
        except TooLarge:  # enumeration past MAX_COVERS
            seen["too large"] += 1
            continue
        for sq, dims, th in supports:
            got = _on_support(generic_destabilizer, sq, dims, th)
            assert got == oracle_generic_destabilizer(sq, dims, th), (data, dims, th)
            seen[got is None] += 1
            seen["cyclic"] += any(a.src == a.tgt for a in sq.arrows) or \
                any((a.tgt, a.src) in {(b.src, b.tgt) for b in sq.arrows} for a in sq.arrows)
    assert seen[True] >= 200 and seen[False] >= 150 and seen["cyclic"] >= 80, seen


def test_endomorphism_dim_examples():
    loop = Quiver(("1",), (Arrow("a", "1", "1", ()),), 0)

    def rep(dims, mats):
        return build_rep(5, dims, mats)

    # End of one matrix is its commutant: F_5[M] when M is cyclic
    assert _end_dim(loop, rep({"1": 2}, {"a": ((4, 2), (4, 4))})) == 2
    assert _end_dim(loop, rep({"1": 2}, {"a": ((0, 0), (0, 0))})) == 4
    assert _end_dim(loop, rep({"1": 3}, {"a": ((1, 0, 0), (0, 1, 0), (0, 0, 2))})) == 5
    two = Quiver(("1",), (Arrow("a", "1", "1", ()), Arrow("b", "1", "1", ())), 0)
    assert _end_dim(two, rep({"1": 2}, {"a": ((1, 0), (0, 2)), "b": ((1, 1), (1, 1))})) == 1
    A2 = Quiver(("1", "2"), (Arrow("a", "1", "2", ()),), 0)
    assert _end_dim(A2, rep({"1": 1, "2": 1}, {"a": ((3,),)})) == 1
    assert _end_dim(A2, rep({"1": 1, "2": 1}, {"a": ((0,),)})) == 2
    # K3 at (1, 2) with three maps spanning F_5^2 is a brick; a vertex with
    # no arrows contributes its full matrix algebra
    Q, _alpha, _theta = kronecker3()
    M = rep({"1": 1, "2": 2}, {"a": ((1,), (0,)), "b": ((0,), (1,)), "c": ((1,), (1,))})
    assert _end_dim(Q, M) == 1
    assert _end_dim(Quiver(("1",), (), 0), rep({"1": 3}, {})) == 9


def test_generic_destabilizer_examples():
    Q, alpha, theta = kronecker3()
    # K3 with dimension vector (2, 3): the general representation is stable
    assert _on_support(generic_destabilizer, Q, alpha, theta) is None
    # (1, 3) is stable too: the three arrows map a line onto all of C^3
    assert _on_support(generic_destabilizer, Q, {"1": 1, "2": 3}, {"1": -3, "2": 1}) is None
    # in (1, 4) they span only a hyperplane, and (1, 3) has theta = -1
    assert _on_support(generic_destabilizer, Q, {"1": 1, "2": 4}, {"1": -4, "2": 1}) == {"1": 1, "2": 3}
    # stability is strict: a subrepresentation with theta = 0 destabilizes
    A2 = Quiver(("1", "2"), (Arrow("a", "1", "2", ()),), 0)
    assert _on_support(generic_destabilizer, A2, {"1": 1, "2": 1}, {"1": 0, "2": 0}) == {"2": 1}
    assert _on_support(generic_destabilizer, A2, {"1": 1, "2": 1}, {"1": -1, "2": 1}) is None


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
    return Quiver(verts, tuple(Arrow("x%d" % k, s, t, ()) for k, (s, t) in enumerate(pairs)), 0)


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
        return Q, build_rep(p, dims, mats)


def test_pruned_scan_matches_product_oracle():
    """The first destabilizer the scan returns is a proper nonzero
    subrepresentation dimension vector with θ <= 0, and it returns None
    exactly when the product scan finds none.  Each case runs with a random
    θ and with that θ moved onto the wall θ·β = 0, as θ̂ is on a cover,
    where the θ bound cuts most."""
    rng = random.Random(101)
    seen = collections.Counter()
    for _ in range(2000):
        Q, M = _random_rep_case(rng)
        dims = dict(M.dims)
        trivial = tuple(0 for _ in Q.vertices), tuple(dims[v] for v in Q.vertices)
        subreps = set(oracle_iter_subrep_dimvectors(Q, M)) - set(trivial)
        theta = {v: rng.randint(-3, 3) for v in Q.vertices}
        pairing = sum(theta[v] * dims[v] for v in Q.vertices)
        on_wall = {v: sum(dims.values()) * theta[v] - pairing for v in Q.vertices}
        for kind, th in (("random", theta), ("wall", on_wall)):
            want = {g for g in subreps if sum(th[v] * x for v, x in zip(Q.vertices, g)) <= 0}
            sizes, arrows, thetas, mats = on_positions(Q, dims, th, M)
            got = KingScan(sizes, arrows, M.prime, thetas).destabilizer(mats)
            assert (got in want) if want else got is None, (Q, M, th, got)
            assert is_stable_rep(Q, M, th) == (got is None)
            seen[kind, got is None] += 1
        seen["loop"] += any(a.src == a.tgt for a in Q.arrows)
        pairs = {(a.src, a.tgt) for a in Q.arrows}
        seen["2-cycle"] += any(s != t and (t, s) in pairs for s, t in pairs)
        seen["zero vertex"] += 0 in dims.values()
        seen["isolated vertex"] += any(all(v not in (a.src, a.tgt) for a in Q.arrows)
                                       for v in Q.vertices)
        seen["total 8"] += sum(dims.values()) == 8
        seen[M.prime] += 1
    assert min(seen.values()) >= 50, seen
    assert KingScan((), (), 5, ()).destabilizer(()) is None


def _random_shape(rng):
    """A random quiver (acyclic or cyclic, with loops and 2-cycles), thin or
    non-thin dimensions 1-3 of total at most 8, a prime 2, 3 or 5, and θ
    either random or moved onto the wall θ·dims = 0; θ leans towards
    in-degree minus out-degree, so that many shapes have no structural
    destabilizer."""
    while True:
        Q = _random_quiver(rng, rng.randint(1, 5), 6)
        thin = rng.random() < 0.5
        dims = {v: 1 if thin else rng.randint(1, 3) for v in Q.vertices}
        if sum(dims.values()) <= 8:
            break
    raw = {v: sum((a.tgt == v) - (a.src == v) for a in Q.arrows) + rng.randint(-1, 1) for v in Q.vertices}
    if rng.random() < 0.75:
        pairing = sum(raw[v] * dims[v] for v in Q.vertices)
        raw = {v: sum(dims.values()) * raw[v] - pairing for v in Q.vertices}
    return Q, dims, rng.choice((2, 3, 5)), raw


def _connected(Q, arrows):
    """Whether these arrows connect every vertex of Q, as undirected edges."""
    seen, todo = set(), list(Q.vertices[:1])
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo += [u for a in arrows for w, u in ((a.src, a.tgt), (a.tgt, a.src)) if w == v]
    return seen == set(Q.vertices)


def test_sample_rules_agree_with_king_scan():
    """The two rules that decide a sample before any scan, against KingScan.
    On the wall θ·dims = 0, a sample whose nonzero arrows leave the support
    disconnected has a destabilizer.  A thin sample with every arrow
    nonzero, on a shape with no structural destabilizer, has none, for any
    θ.  Each sample's matrices are dense to a random degree; the thin
    all-nonzero ones have entries in 1..p - 1."""
    rng = random.Random(113)
    seen = collections.Counter()
    for _ in range(1500):
        Q, dims, p, theta = _random_shape(rng)
        thin, wall = set(dims.values()) == {1}, not sum(theta[v] * dims[v] for v in Q.vertices)
        density = 1 if thin and rng.random() < 0.5 else rng.random()
        mats = {a.id: [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(dims[a.src])]
                       for _ in range(dims[a.tgt])] for a in Q.arrows}
        M = build_rep(p, dims, mats)
        nonzero = [a for a in Q.arrows if any(map(any, M.mat_of(a.id)))]
        sizes, arrows, thetas, positional = on_positions(Q, dims, theta, M)
        got = KingScan(sizes, arrows, p, thetas).destabilizer(positional)
        if wall and not _connected(Q, nonzero):
            assert got is not None, (Q, M, theta)
            seen["split", thin, p] += 1
        if thin and len(nonzero) == len(Q.arrows) and _on_support(structural_destabilizer, Q, dims, theta) is None:
            assert got is None, (Q, M, theta)
            seen["thin", wall, p] += 1
            seen["thin cyclic"] += any(a.src == a.tgt for a in Q.arrows) or \
                any((b.tgt, b.src) == (a.src, a.tgt) for a in Q.arrows for b in Q.arrows)
    assert min(seen[k, x, p] for k in ("split", "thin") for x in (True, False) for p in (2, 3, 5)) >= 10, seen
    assert seen["thin cyclic"] >= 20, seen


def test_certify_component_matches_the_scan_every_sample_oracle():
    """find_witness, which skips KingScan on samples the two rules decide,
    run where decide finds the component nonempty, as the CLI runs it,
    gives the witness and witness_trial of the oracle that scans every
    sample.  The covers are random shapes with an ungraded cover, θ on the
    wall and off it (where the direct-sum rule stands aside), and the
    candidates of K3(2,3) and of the arrow-weighted golden quiver files, at
    1, 3 or 30 trials, so that some searches end without a witness."""
    rng = random.Random(127)
    seen = collections.Counter()
    runs = []
    for _ in range(600):
        Q, dims, p, theta = _random_shape(rng)
        beta = cover({(v, ()): n for v, n in dims.items()})
        runs.append((Q, beta, labelled_arrows(Q, beta), theta, p))
    Q, alpha, theta = _kronecker(3, 2, 3)
    runs += [(Q, c, arrows, theta, 5) for c, _, arrows in enumerate_covers(Q, alpha, 2)[1]]
    for seed in range(12):
        data, _ = _quiver_file(seed)
        if sum(data["alpha"].values()) <= 8:
            Q, alpha, theta = _quiver_from_data(data)
            runs += [(Q, c, arrows, theta, 3) for c, _, arrows in enumerate_covers(Q, alpha, 1)[1]]
    for Q, beta, arrows, theta, p in runs:
        trials = rng.choice((1, 3, 30))
        want = oracle_find_witness(Q, beta, theta, trials=trials, prime=p, seed=7)
        nonempty = _decide(beta, arrows, theta)[1] is None
        got = find_witness(beta, _hat(beta, theta), arrows, trials, p, 7) if nonempty else None
        assert got == want, (Q, beta, theta)
        wall = not sum(theta.get(v, 0) * n for (v, _), n in beta)
        seen[nonempty, want is not None, wall] += 1
    assert min(seen[True, w, x] for w in (True, False) for x in (True, False)) >= 5, seen


def test_king_scan_bound_edges():
    # a simple representation at θ = 0: x^2 - 2 is irreducible over F_5, so
    # the loop fixes no line; the bound cuts nothing and no leaf destabilizes
    Q = Quiver(("1",), (Arrow("a", "1", "1", ()),), 0)
    M = build_rep(5, {"1": 2}, {"a": [[0, 2], [1, 0]]})
    assert subrep_dimension_vectors(Q, M) == {(0,), (2,)}
    sizes, arrows, thetas, mats = on_positions(Q, {"1": 2}, {"1": 0}, M)
    assert KingScan(sizes, arrows, 5, thetas).destabilizer(mats) is None
    # the scan takes vertex 1 first; its only destabilizer, (1, 1), has
    # θ-weight 1 > 0 there and is decided by θ_2 = -2 at the last vertex
    Q = Quiver(("1", "2"), (Arrow("a", "2", "1", ()),), 0)
    M = build_rep(5, {"1": 2, "2": 1}, {"a": [[1], [0]]})
    theta = {"1": 1, "2": -2}
    assert {g for g in subrep_dimension_vectors(Q, M) - {(0, 0), (2, 1)}
            if g[0] - 2 * g[1] <= 0} == {(1, 1)}
    sizes, arrows, thetas, mats = on_positions(Q, {"1": 2, "2": 1}, theta, M)
    assert KingScan(sizes, arrows, 5, thetas).destabilizer(mats) == (1, 1)
    assert not is_stable_rep(Q, M, theta)


def test_structural_destabilizer_matches_combinations_oracle():
    rng = random.Random(103)
    found = 0
    for _ in range(2000):
        Q = _random_quiver(rng, rng.randint(1, 7), 10)
        dims = {v: rng.choice((0, 1, 1, 2, 3)) for v in Q.vertices if rng.random() < 0.9}
        theta = {v: rng.randint(-3, 3) for v in Q.vertices}
        got = _on_support(structural_destabilizer, Q, dims, theta)
        want = oracle_structural_destabilizer(Q, dims, theta)
        assert got == want and (got is None or list(got) == [v for v in Q.vertices if v in got]), \
            (Q, dims, theta)
        found += got is not None
    assert 500 < found < 1500


def test_structural_destabilizer_past_eight_support_vertices():
    """Supports of 9 to 12 vertices, whose θ-weights are read from more
    than one table of 8 bits: the same set as the combinations oracle, its
    items in vertex order.  θ leans towards in-degree minus out-degree and is
    moved onto the wall, so that some supports have no destabilizer and
    some have one of several vertices."""
    rng = random.Random(109)
    seen = collections.Counter()
    for _ in range(300):
        Q = _random_quiver(rng, rng.randint(9, 12), 20)
        dims = {v: rng.choice((1, 1, 2)) for v in Q.vertices}
        raw = {v: sum((a.tgt == v) - (a.src == v) for a in Q.arrows) + rng.randint(-1, 1) for v in Q.vertices}
        pairing = sum(raw[v] * dims[v] for v in Q.vertices)
        theta = {v: sum(dims.values()) * raw[v] - pairing for v in Q.vertices}
        got = _on_support(structural_destabilizer, Q, dims, theta)
        want = oracle_structural_destabilizer(Q, dims, theta)
        assert got == want and (got is None or list(got) == [v for v in Q.vertices if v in got]), \
            (Q, dims, theta)
        seen["none" if got is None else "several" if len(got) > 1 else "one"] += 1
    assert seen["none"] >= 10 and seen["several"] >= 40, seen


def test_king_scan_checks_only_closed_prefixes(monkeypatch, tmp_path):
    """The arrow-closure checks of one CLI run of K3(3,4) at window 2.

    Replayed over the samples that the witness search drew when it scanned
    every one (the oracle find_witness), with one KingScan plan per
    cover: 3,712 gf_member calls with the θ bound and the stop at the first
    destabilizer, against 6,826 gf_in_span calls for the closed-prefix scan
    of every subrepresentation and 25,188 for the full product scan, each
    stopping at the first destabilizer.  The CLI run itself scans only the
    samples the two sample rules leave open: 1,092 gf_member calls."""
    Q, alpha, theta = _kronecker(3, 3, 4)
    samples = []  # the samples drawn, per cover
    for c, _, _ in enumerate_covers(Q, alpha, 2)[1]:
        samples.append([])
        oracle_find_witness(Q, c, theta, scanned=samples[-1])
    calls = []

    def counted(check):
        def call(*args):
            calls.append(1)
            return check(*args)
        return call

    monkeypatch.setattr("fixedloci.repfield.gf_member", counted(gf_member))
    for drawn in samples:
        if drawn:
            sizes, arrows, thetas, _ = on_positions(*drawn[0][:3])
            king = KingScan(sizes, arrows, 5, thetas)
            for sq, dims, th, M in drawn:
                king.destabilizer(on_positions(sq, dims, th, M)[3])
    counts = [len(calls)]
    monkeypatch.setattr("repfield_oracles.gf_in_span", counted(gf_in_span))
    for scan in (oracle_closed_prefix_subrep_dimvectors, oracle_iter_subrep_dimvectors):
        calls.clear()
        for drawn in samples:
            for sq, _, th, M in drawn:
                oracle_is_stable_by(scan, sq, M, th)
        counts.append(len(calls))
    assert counts == [3712, 6826, 25188]

    calls.clear()
    path = tmp_path / "k34.json"
    path.write_text(json.dumps({
        "kind": "quiver", "vertices": list(Q.vertices),
        "arrows": [{"id": a.id, "src": a.src, "tgt": a.tgt} for a in Q.arrows],
        "alpha": alpha, "theta": theta}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["quiver", str(path), "--window", "2"]) == 0
    assert len(calls) == 1092


def test_witness_search_skips_tables_above_the_cap():
    """Kronecker quivers without grading, one cover each.  K7(1,6) needs
    the subspaces of F_5^6, 3,583,232 of them: above MAX_SUBSPACES, so the
    component keeps its Schofield status, gets no witness, and is certified
    in seconds with no table built.  K6(1,5) needs F_5^5, 42,176 subspaces,
    under the cap, and finds its witness at trial 0."""
    for n, b, witnessed in ((7, 6, False), (6, 5, True)):
        Q = Quiver(("1", "2"), tuple(Arrow("a%d" % i, "1", "2", ()) for i in range(n)), 0)
        beta = cover({("1", ()): 1, ("2", ()): b})
        arrows = labelled_arrows(Q, beta)
        start = time.perf_counter()
        decided = _decide(beta, arrows, {"1": -b, "2": 1})
        found = find_witness(beta, (-b, 1), arrows, 200, 5, 0)
        assert time.perf_counter() - start < 10
        assert decided == ("schofield", None)
        assert (found is not None, found and found[1]) == ((True, 0) if witnessed else (False, None))
    with pytest.raises(TooLarge):
        subspace_table(6, 5)


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
    # the 13 bases decide below the bound; the bound itself is a strong
    # pseudoprime to all of them, so there a modulus that passes exceeds the
    # guard, whether prime (2^89 - 1) or not, and one that fails is composite
    bound = 3317044064679887385961981
    assert 1287836182261 * 2575672364521 == bound
    for n in (bound, 2 ** 89 - 1):
        with pytest.raises(TooLarge, match="modulus %d exceeds the guard" % n):
            check_prime(n)
    for n in (1287836182261 * 2575672364519, bound - 1, 3 * bound,
              (2 ** 61 - 1) * (2 ** 89 - 1), (2 ** 89 - 1) ** 2):
        assert not accepted(n), n


def _counted_decide(monkeypatch):
    """Count the CLI's calls of decide, one list item per call."""
    calls = []

    def counted(*shape):
        calls.append(shape)
        return decide(*shape)

    monkeypatch.setattr("fixedloci.cli.decide", counted)
    return calls


def _fresh(cands, theta, prime, trials, seed):
    """The components of each candidate, decided and searched alone, as a
    report writes them: status, method, destabilizer, witness and
    witness_trial."""
    out = []
    for c, _, arrows in cands:
        method, dest = _decide(c, arrows, theta)
        found = find_witness(c, _hat(c, theta), arrows, trials, prime, seed) if dest is None else None
        witness = found and {"prime": prime, "dims": [[[v, list(chi)], n] for (v, chi), n in c],
                             "mats": [[[a, list(chi)], [list(r) for r in m]] for (a, chi), m in found[0]]}
        out.append({"status": "NonemptyVerified" if dest is None else "EmptyVerified", "method": method,
                    "destabilizer": None if dest is None else [[[v, list(chi)], n] for (v, chi), n in dest],
                    "witness": witness, "witness_trial": found and found[1]})
    return out


def _shape(Q, beta, theta):
    """The memo key of a cover: dims and θ̂ in support order, arrows by position."""
    sq, dims = support_quiver_pairs(Q, beta)
    pos = {v: i for i, v in enumerate(sq.vertices)}
    return (tuple(dims[v] for v in sq.vertices), tuple(theta.get(v, 0) for v, _ in sq.vertices),
            tuple(sorted((pos[a.src], pos[a.tgt]) for a in sq.arrows)))


def test_shape_memo_changes_no_certification(monkeypatch):
    """The decisions a report keeps per shape give every cover the same
    status, method, destabilizer, witness and witness_trial as a fresh
    decide and witness search per cover."""
    kron3 = json.loads((PROBLEMS / "kronecker3.json").read_text())
    runs = [(kron3, {"window": 2})] + [(kronecker_problem(3, 3, b), {"window": 2}) for b in (4, 5)]
    for seed in range(200):
        data, flags = _quiver_file(seed)
        if sum(data["alpha"].values()) <= 8:  # the rest exceed the certification guard
            runs.append((data, {k.lstrip("-"): int(v) for k, v in zip(flags[::2], flags[1::2])}))
    keys = ("status", "method", "destabilizer", "witness", "witness_trial")
    calls, hits = _counted_decide(monkeypatch), 0
    for data, opts in runs:
        seed, prime, trials = opts.get("seed", 0), opts.get("prime", 5), opts.get("trials", 200)
        Q, alpha, theta = _quiver_from_data(data)
        radius = default_window_radius(alpha, Q) if opts.get("window") is None else opts["window"]
        calls.clear()
        report = _quiver_report(data, seed, prime, trials, radius)
        cands = enumerate_covers(Q, alpha, radius)[1]
        got = [{k: comp[k] for k in keys} for comp in report["components"]]
        assert got == _fresh(cands, theta, prime, trials, seed), (data, opts)
        hits += len(cands) - len(calls)
    assert len(runs) >= 180 and hits >= 300, (len(runs), hits)


def test_shape_memo_hit_lands_on_its_own_points(monkeypatch):
    """Two empty covers of K3(3,4) at window 2 with one shape: the second,
    read from the decision the report kept for the first, gets the
    destabilizer it gets alone, on its own points.  Of the 22 shapes with
    two empty covers, 8 put the second's destabilizer off the first's
    points."""
    Q, alpha, theta = _kronecker(3, 3, 4)
    calls = _counted_decide(monkeypatch)
    report = _quiver_report(kronecker_problem(3, 3, 4), None, None, 0, 2)
    cands = enumerate_covers(Q, alpha, 2)[1]
    comps = {c: comp["destabilizer"] for (c, _, _), comp in zip(cands, report["components"], strict=True)}
    by_shape = collections.defaultdict(list)
    for c, _, arrows in cands:
        by_shape[_shape(Q, c, theta)].append((c, arrows))
    assert len(calls) == len(by_shape)
    pairs = [cs[:2] for cs in by_shape.values() if len(cs) > 1 and comps[cs[0][0]] is not None]
    moved = 0
    for (first, arrows1), (second, arrows2) in pairs:
        one, two = comps[first], comps[second]
        assert one is not None and two is not None
        dest = _decide(second, arrows2, theta)[1]
        assert two == [[[v, list(chi)], n] for (v, chi), n in dest]
        assert {p for p, _ in dest} <= dict(second).keys()
        assert {(v, tuple(chi)) for (v, chi), _ in one} <= dict(first).keys()
        moved += not {p for p, _ in dest} <= dict(first).keys()
    assert (len(pairs), moved) == (22, 8)


def test_structural_test_runs_once_per_shape_per_report(monkeypatch):
    """K3(3,4) at window 2 has 158 candidates over 79 shapes: each report
    decides each shape once, and a second report decides them all again,
    since the memo lives for one report only."""
    structural, decided = [], _counted_decide(monkeypatch)

    def counted(sizes, thetas, arrows):
        structural.append(1)
        return structural_destabilizer(sizes, thetas, arrows)

    monkeypatch.setattr("fixedloci.repfield.structural_destabilizer", counted)
    data, seen = kronecker_problem(3, 3, 4), []
    for _ in range(2):
        structural.clear()
        decided.clear()
        report = _quiver_report(data, None, None, 0, 2)
        seen.append((len(structural), len(decided), report["counts"]["candidates"]))
    assert seen == [(79, 79, 158), (79, 79, 158)]


def test_random_rep_draws_as_randrange():
    """random_rep, which draws getrandbits(k) and redraws at or above p,
    against the sampler that called randrange(p) per entry: the same
    matrices from the same seed, and the generator left in the same state, on seeded
    acyclic and cyclic quivers (loops and parallel arrows included) with
    dimensions 1 to 4 over F_2, F_3, F_5 and F_7."""
    rng = random.Random(131)
    seen = collections.Counter()
    for k in range(2400):
        Q = _random_acyclic_quiver(rng) if k % 2 else _random_cyclic_quiver(rng)[0]
        dims = {v: rng.randint(1, 4) for v in Q.vertices}
        p = (2, 3, 5, 7)[k % 4]
        ours, theirs = random.Random("%d:%d" % (p, k)), random.Random("%d:%d" % (p, k))
        sizes, arrows, _, _ = on_positions(Q, dims, {})
        want = on_positions(Q, dims, {}, oracle_random_rep(Q, dims, p, theirs))[3]
        assert random_rep(sizes, arrows, p, ours) == want, (Q, dims, p)
        assert ours.getstate() == theirs.getstate()
        ends = [(a.src, a.tgt) for a in Q.arrows]
        seen[p] += 1
        seen["loop"] += any(s == t for s, t in ends)
        seen["parallel"] += len(set(ends)) < len(ends)
    assert min(seen.values()) >= 300, seen


def test_covering_arrows_walked_only_for_dot_output(monkeypatch, tmp_path):
    """A K3(3,4) report at window 2 walks no cover's covering arrows: its
    158 candidates carry them from enumerate_covers, for the decision of
    the 93 empty ones and the witness search of the 65 nonempty ones, at
    200 trials and at 0.  check_guard runs once per report.  Only --format
    dot calls covering_arrows, once, for the points of every component."""
    calls = collections.Counter()

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr("fixedloci.cli.covering_arrows", counted("covering_arrows", covering_arrows))
    for module in ("fixedloci.repfield", "fixedloci.cli"):
        monkeypatch.setattr(module + ".check_guard", counted("check_guard", check_guard))
    seen = []
    for trials in (200, 0):
        calls.clear()
        report = _quiver_report(kronecker_problem(3, 3, 4), None, None, trials, 2)
        seen.append((calls["covering_arrows"], calls["check_guard"], report["counts"]["nonempty_verified"]))
    assert seen == [(0, 1, 65), (0, 1, 65)]
    path = tmp_path / "k34.json"
    path.write_text(json.dumps(kronecker_problem(3, 3, 4)))
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["quiver", str(path), "--window", "2", "--format", "dot"]) == 0
    assert (calls["covering_arrows"], calls["check_guard"]) == (1, 1)
    assert out.getvalue().startswith("digraph cover_supports {")
