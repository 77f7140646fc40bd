"""Cover helpers that only the quiver tests use.

`is_cover_of` checks the column sums of a cover, `support_is_connected`
walks its support quiver, `translate` and `canonical` pick a cover's
representative in its translation class independently of the enumerator,
and `weyl_canonical`, `covers_to_rho` and `rho_to_cover` pass between
covers and diagonal torus morphism matrices.  They lived in
`fixedloci.quiver` until nothing there used them.
"""

from fixedloci.errors import DimMismatch
from fixedloci.linalg import IntMatrix
from fixedloci.quiver import ArrowWeights, CoverVector, Quiver, support_quiver


def is_cover_of(beta: CoverVector, alpha):
    totals = {}
    for (v, _), n in beta.items:
        totals[v] = totals.get(v, 0) + n
    return all(totals.get(v, 0) == int(alpha.get(v, 0)) for v in set(alpha) | set(totals))


def translate(beta: CoverVector, xi) -> CoverVector:
    return CoverVector({(v, tuple(c + x for c, x in zip(chi, xi))): n for (v, chi), n in beta.items})


def canonical(beta: CoverVector) -> CoverVector:
    """Shift so the lex-least support point sits at grade zero.

    Translation acts freely on nonempty supports, so this representative
    is unique in the translation class.
    """
    if not beta.items:
        return beta
    (_, chi0), _ = min(beta.items)
    return translate(beta, tuple(-c for c in chi0))


def support_is_connected(quiver: Quiver, weights: ArrowWeights, beta: CoverVector) -> bool:
    pts = list(beta.support())
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
# covers <-> diagonal torus morphisms

def weyl_canonical(rho, blocks):
    """Canonical representative under permutations within vertex blocks:
    rows sorted lexicographically inside each block."""
    rows = list(rho.entries) if isinstance(rho, IntMatrix) else [tuple(r) for r in rho]
    out = []
    at = 0
    for b in blocks:
        out.extend(sorted(rows[at:at + b]))
        at += b
    ncols = rho.ncols if isinstance(rho, IntMatrix) else (len(rows[0]) if rows else 0)
    return IntMatrix.from_rows(out, ncols)


def covers_to_rho(quiver: Quiver, beta: CoverVector, aux_rank: int) -> IntMatrix:
    """Diagonal torus morphism matrix from a cover: one row per basis slot,
    the grade of the slot, rows grouped by vertex and sorted within blocks."""
    rows = []
    for v in quiver.vertices:
        grades = []
        for (u, chi), n in beta.items:
            if u == v:
                grades.extend([chi] * n)
        rows.extend(sorted(grades))
    return IntMatrix.from_rows(rows, aux_rank)


def rho_to_cover(quiver: Quiver, rho: IntMatrix, alpha) -> CoverVector:
    """Cover from a diagonal morphism matrix: multiplicity of each grade row
    per vertex block."""
    counts = {}
    at = 0
    for v in quiver.vertices:
        for _ in range(int(alpha.get(v, 0))):
            chi = tuple(rho.entries[at])
            counts[(v, chi)] = counts.get((v, chi), 0) + 1
            at += 1
    if at != rho.nrows:
        raise DimMismatch("rho has %d rows, alpha needs %d" % (rho.nrows, at))
    return CoverVector(counts)
