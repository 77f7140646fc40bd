"""Cover helpers that only the quiver tests use.

A cover is the sorted tuple of its ((vertex, grade), n) pairs, as
`enumerate_covers` returns it; `cover` builds one from a mapping.
`is_cover_of` checks the column sums of a cover, `support_is_connected`
walks its support quiver, `translate` and `canonical` pick a cover's
representative in its translation class independently of the enumerator,
and `weyl_canonical`, `covers_to_rho` and `rho_to_cover` pass between
covers and diagonal torus morphism matrices.  They lived in
`fixedloci.quiver` until nothing there used them.

`box_covers`, `cover_dimension` and `count_and_candidates` are the
per-cover path: build every cover, walk each one's covering arrows for its
dimension, then keep those of dimension >= 0.  `enumerate_covers` must
return what they do.  `support_quiver_pairs` finds a cover's covering
arrows by trying every pair of its points; `support_quiver` must agree,
and `covering_pairs` reads from it the position pairs that
`enumerate_covers` gives each candidate.  `kronecker_problem` builds the
problem file of a Kronecker quiver; it imports nothing from pytest, so the
golden digests run without it.
"""

import itertools

from fixedloci.errors import ValidationError
from fixedloci.quiver import Arrow, ArrowWeights, Quiver, positive_compositions, support_quiver


def cover(mapping):
    """The cover with these (vertex, grade) -> n entries."""
    return tuple(sorted(mapping.items()))


def is_cover_of(beta, alpha):
    totals = {}
    for (v, _), n in beta:
        totals[v] = totals.get(v, 0) + n
    return all(totals.get(v, 0) == int(alpha.get(v, 0)) for v in set(alpha) | set(totals))


def translate(beta, xi):
    return cover({(v, tuple(c + x for c, x in zip(chi, xi))): n for (v, chi), n in beta})


def canonical(beta):
    """Shift so the lex-least support point sits at grade zero.

    Translation acts freely on nonempty supports, so this representative
    is unique in the translation class.
    """
    if not beta:
        return beta
    (_, chi0), _ = min(beta)
    return translate(beta, tuple(-c for c in chi0))


def support_is_connected(quiver: Quiver, weights: ArrowWeights, beta) -> bool:
    pts = [p for p, _ in beta]
    if not pts:
        return True
    sq, _ = support_quiver(quiver, weights, beta)
    adj = {p: set() for p in pts}
    for a in sq.arrows:
        adj[a.src].add(a.tgt)
        adj[a.tgt].add(a.src)
    seen = {pts[0]}
    stack = [pts[0]]
    while stack:
        for q in adj[stack.pop()]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen) == len(pts)


# ---------------------------------------------------------------------------
# the per-cover path

def box_covers(quiver: Quiver, weights: ArrowWeights, alpha, radius):
    """Every cover in the window, built one by one, sorted: the box-rooted
    enumerator searches from every point of [-R, R]^aux, keeps neighbors
    inside the box, canonicalizes what each root finds, and splits alpha
    over each support by positive compositions."""
    box = tuple((-radius, radius) for _ in range(weights.aux_rank))

    def box_contains(chi):
        return all(lo <= c <= hi for (lo, hi), c in zip(box, chi))

    alpha = {v: int(alpha.get(v, 0)) for v in quiver.vertices}
    supp_pos = [i for i, v in enumerate(quiver.vertices) if alpha[v] > 0]
    if not supp_pos:
        return [()]
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
            covers.add(canonical(cover(mapping)))
    return sorted(covers)


def cover_dimension(quiver: Quiver, weights: ArrowWeights, beta) -> int:
    """dim of the component a nonzero cover describes, assuming a free
    quotient: (arrow-block sizes) - (sum of squares) + 1."""
    b = dict(beta)
    blocks = 0
    for a in quiver.arrows:
        w = weights.of(a.id)
        for (v, chi), n in b.items():
            if v == a.src:
                blocks += n * b.get((a.tgt, tuple(c + x for c, x in zip(chi, w))), 0)
    return blocks - sum(n * n for n in b.values()) + 1


def support_quiver_pairs(quiver: Quiver, weights: ArrowWeights, beta):
    """What support_quiver returns, with each covering arrow found by trying
    every arrow on every pair of support points."""
    pts = [p for p, _ in beta]
    arrows = tuple(Arrow((a.id, p[1]), p, q) for a in quiver.arrows for p in pts for q in pts
                   if (p[0], q[0]) == (a.src, a.tgt)
                   and q[1] == tuple(c + x for c, x in zip(p[1], weights.of(a.id))))
    return Quiver(tuple(pts), arrows), dict(beta)


def covering_pairs(quiver: Quiver, weights: ArrowWeights, beta):
    """The covering arrows of a cover as sorted (source, target) pairs of
    positions in it, from support_quiver_pairs."""
    sq, _ = support_quiver_pairs(quiver, weights, beta)
    pos = {p: i for i, p in enumerate(sq.vertices)}
    return tuple(sorted((pos[a.src], pos[a.tgt]) for a in sq.arrows))


def count_and_candidates(quiver: Quiver, weights: ArrowWeights, covers):
    """(number of covers, sorted (cover, dimension, covering_pairs) triples
    of the nonzero covers with dimension >= 0), from the list of every
    cover."""
    dims = [(c, cover_dimension(quiver, weights, c)) for c in sorted(covers) if c]
    return len(covers), [(c, d, covering_pairs(quiver, weights, c)) for c, d in dims if d >= 0]


def kronecker_problem(n, a, b):
    """The problem file of the n-arrow Kronecker quiver at alpha (a, b), theta (-b, a)."""
    return {"kind": "quiver", "vertices": ["1", "2"],
            "arrows": [{"id": "a%d" % i, "src": "1", "tgt": "2"} for i in range(n)],
            "alpha": {"1": a, "2": b}, "theta": {"1": -b, "2": a}}


# ---------------------------------------------------------------------------
# covers <-> diagonal torus morphisms

def weyl_canonical(rho, blocks):
    """Canonical representative under permutations within vertex blocks:
    rows sorted lexicographically inside each block."""
    rows = [tuple(r) for r in rho]
    out = []
    at = 0
    for b in blocks:
        out.extend(sorted(rows[at:at + b]))
        at += b
    return tuple(out)


def covers_to_rho(quiver: Quiver, beta, aux_rank: int):
    """Diagonal torus morphism matrix from a cover: one row per basis slot,
    the grade of the slot in Z^aux_rank, rows grouped by vertex and sorted
    within blocks."""
    rows = []
    for v in quiver.vertices:
        grades = []
        for (u, chi), n in beta:
            if u == v:
                grades.extend([chi] * n)
        rows.extend(sorted(grades))
    if any(len(r) != aux_rank for r in rows):
        raise ValidationError("grades must live in Z^%d" % aux_rank)
    return tuple(rows)


def rho_to_cover(quiver: Quiver, rho, alpha):
    """Cover from a diagonal morphism matrix: multiplicity of each grade row
    per vertex block."""
    counts = {}
    at = 0
    for v in quiver.vertices:
        for _ in range(int(alpha.get(v, 0))):
            chi = tuple(rho[at])
            counts[(v, chi)] = counts.get((v, chi), 0) + 1
            at += 1
    if at != len(rho):
        raise ValidationError("rho has %d rows, alpha needs %d" % (len(rho), at))
    return cover(counts)
