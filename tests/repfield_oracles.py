"""Brute-force oracles for the repfield tests.

`subspaces` lists the subspaces of F_p^n as RREF row tuples, in the order
of `subspace_table`, which enumerates them on its own.
`_iter_subrep_dimvectors` walks the full product of per-vertex subspace
lists and keeps the tuples closed under every arrow, testing closure by
`gf_in_span`, which reduces a vector against RREF rows in place of the
scan's parity checks; `structural_destabilizer`
tests every vertex subset of the support for arrow-closure, in order of
size and then of position.  Both are the scans `repfield` ran before it
generated only closed tuples, kept verbatim.  `subrep_dimension_vectors`
and `is_semistable_rep` are helpers only the tests use.
"""

import functools
import itertools

from fixedloci.errors import TooLarge
from fixedloci.quiver import Quiver
from fixedloci.repfield import MAX_SUBSPACES, RepFq, _theta_vec, check_guard, gf_matvec, subspace_count


@functools.cache
def subspaces(n, p):
    """All subspaces of F_p^n as RREF row tuples (the zero space is ()), by
    dimension, then pivot columns, then the free entries in product order.

    Memoised; above MAX_SUBSPACES subspaces it raises TooLarge and builds
    nothing, which bounds what the cache holds.
    """
    count = subspace_count(n, p)
    if count > MAX_SUBSPACES:
        raise TooLarge("F_%d^%d has %d subspaces, above the table cap %d"
                       % (p, n, count, MAX_SUBSPACES))
    out, shared = [()], {}  # one tuple per distinct row
    for r in range(1, n + 1):
        for pivots in itertools.combinations(range(n), r):
            free_cols = [
                [c for c in range(pivots[i] + 1, n) if c not in pivots]
                for i in range(r)
            ]
            slots = [(i, c) for i in range(r) for c in free_cols[i]]
            for values in itertools.product(range(p), repeat=len(slots)):
                rows = [[0] * n for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = 1
                for (i, c), val in zip(slots, values):
                    rows[i][c] = val
                out.append(tuple(shared.setdefault(row, row) for row in map(tuple, rows)))
    return tuple(out)


def gf_in_span(rref_rows, vec, p):
    """Whether vec lies in the row space of rref_rows, by reduction."""
    v = [x % p for x in vec]
    for row in rref_rows:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead]:
            f = v[lead]
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return not any(v)


def _iter_subrep_dimvectors(quiver: Quiver, M: RepFq):
    """Yield the dimension vectors of all subrepresentations (with repeats)."""
    p = M.prime
    dims = dict(M.dims)
    verts = list(quiver.vertices)
    space_lists = [subspaces(dims.get(v, 0), p) for v in verts]
    arrows = [(a, M.mat_of(a.id), verts.index(a.src), verts.index(a.tgt)) for a in quiver.arrows]
    for combo in itertools.product(*space_lists):
        ok = True
        for a, mat, si, ti in arrows:
            target = combo[ti]
            for basis_vec in combo[si]:
                img = gf_matvec(mat, basis_vec, p)
                if any(img) and not gf_in_span(target, img, p):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield tuple(len(combo[i]) for i in range(len(verts)))


def subrep_dimension_vectors(quiver: Quiver, M: RepFq):
    """The set of dimension vectors of subrepresentations, by exhaustion.

    Ordered by quiver.vertices.  Guarded: refuses large instances.
    """
    check_guard(dict(M.dims), M.prime)
    return set(_iter_subrep_dimvectors(quiver, M))


def is_semistable_rep(quiver: Quiver, M: RepFq, theta) -> bool:
    """King's inequality: theta of every subrepresentation is >= 0."""
    check_guard(dict(M.dims), M.prime)
    tv = _theta_vec(quiver, theta)
    for gamma in _iter_subrep_dimvectors(quiver, M):
        if sum(t * g for t, g in zip(tv, gamma)) < 0:
            return False
    return True


def structural_destabilizer(quiver: Quiver, dims, theta):
    """A proper nonzero arrow-closed vertex subset with theta <= 0, if any.

    The full spaces over such a subset form a subrepresentation of every
    representation with these dimensions, so its existence certifies that no
    point is stable.
    """
    out_edges = {}
    for a in quiver.arrows:
        out_edges.setdefault(a.src, set()).add(a.tgt)
    supp = [v for v in quiver.vertices if int(dims.get(v, 0)) > 0]
    supp_set = set(supp)
    for r in range(1, len(supp)):
        for combo in itertools.combinations(supp, r):
            chosen = set(combo)
            closed = all(
                t in chosen
                for v in chosen
                for t in out_edges.get(v, ())
                if t in supp_set
            )
            if not closed:
                continue
            val = sum(int(theta.get(v, 0)) * int(dims.get(v, 0)) for v in chosen)
            if val <= 0:
                return {v: int(dims.get(v, 0)) for v in chosen}
    return None
