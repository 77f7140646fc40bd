"""Brute-force oracles for the repfield tests.

`_iter_subrep_dimvectors` walks the full product of per-vertex subspace
lists and keeps the tuples closed under every arrow; `structural_destabilizer`
tests every vertex subset of the support for arrow-closure, in order of
size and then of position.  Both are the scans `repfield` ran before it
generated only closed tuples, kept verbatim.  `subrep_dimension_vectors`
and `is_semistable_rep` are helpers only the tests use.
"""

import itertools

from fixedloci.quiver import Quiver
from fixedloci.repfield import RepFq, _check_guard, _theta_vec, gf_in_span, gf_matvec, subspaces


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
    _check_guard(dict(M.dims), M.prime)
    return set(_iter_subrep_dimvectors(quiver, M))


def is_semistable_rep(quiver: Quiver, M: RepFq, theta) -> bool:
    """King's inequality: theta of every subrepresentation is >= 0."""
    _check_guard(dict(M.dims), M.prime)
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
