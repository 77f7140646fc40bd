"""Brute-force oracles for the repfield tests.

`subspaces` lists the subspaces of F_p^n as RREF row tuples, in the order
of `subspace_table`, which enumerates them on its own.
`_iter_subrep_dimvectors` walks the full product of per-vertex subspace
lists and keeps the tuples closed under every arrow, testing closure by
`gf_in_span`, which reduces a vector against RREF rows in place of the
scan's parity checks; `structural_destabilizer`
tests every vertex subset of the support for arrow-closure, in order of
size and then of position.  Both are the scans `repfield` ran before it
generated only closed tuples, kept verbatim.
`closed_prefix_subrep_dimvectors` is the scan that followed, which
extends only closed prefixes but has no θ bound, and `is_stable_by`
applies King's test to what a scan yields.  `find_witness` is the
witness search as it ran before the sample rules, with `KingScan` on
every sample, drawn by `random_rep`, the sampler as it was when each entry
was one `randrange` call.  `GenericSubdims` is
Schofield's recursion as `repfield` ran it before its test became lazy: it
lists every generic subdimension vector of s (`subs`) before testing
s -> g, and it alone gives `ext`; `generic_destabilizer` tests every
subvector in product order, the walk that `repfield.generic_destabilizer`
shortens.  `subrep_dimension_vectors`
and `is_semistable_rep` are helpers only the tests use, as are
`RepFq`, a representation whose matrices are looked up by arrow id,
`build_rep`, which builds one from plain dicts, `on_positions`, which
gives a quiver, its dimensions, θ and a `RepFq` by position as `repfield`
takes them, and `is_stable_rep`, King's test by a `KingScan` planned for
one call.
"""

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass

from fixedloci.errors import TooLarge
from fixedloci.quiver import Quiver
from fixedloci.repfield import (
    MAX_SUBSPACES,
    KingScan,
    check_guard,
    decide,
    endomorphism_dim,
    gf_matvec,
    subspace_count,
)
from quiver_oracles import support_quiver_pairs


@dataclass(frozen=True)
class RepFq:
    """A representation over F_p: one matrix per arrow, shape tgt x src."""

    prime: int
    dims: tuple  # sorted (vertex, dim) pairs
    mats: tuple  # sorted (arrow_id, rows) pairs

    @functools.cached_property
    def _mat_dict(self):
        return dict(self.mats)

    def mat_of(self, arrow_id):
        return self._mat_dict[arrow_id]


def theta_vec(quiver, theta):
    return [int(theta.get(v, 0)) for v in quiver.vertices]


def build_rep(prime, dims, mats):
    """A RepFq from {vertex: dim} and {arrow id: rows}, entries reduced mod prime."""
    return RepFq(
        int(prime),
        tuple(sorted((v, int(d)) for v, d in dims.items())),
        tuple(sorted((a, tuple(tuple(int(x) % prime for x in row) for row in m)) for a, m in mats.items())),
    )


def on_positions(quiver: Quiver, dims, theta, M=None):
    """(sizes, arrows, thetas, mats): dims and θ by position in
    quiver.vertices, a vertex missing from either counting as 0, the arrows
    as (id, source, target) positions, and M's matrices in arrow order, or
    None without M."""
    pos = {v: i for i, v in enumerate(quiver.vertices)}
    return (tuple(int(dims.get(v, 0)) for v in quiver.vertices),
            tuple((a.id, pos[a.src], pos[a.tgt]) for a in quiver.arrows),
            tuple(int(theta.get(v, 0)) for v in quiver.vertices),
            None if M is None else tuple(M.mat_of(a.id) for a in quiver.arrows))


def is_stable_rep(quiver: Quiver, M: RepFq, theta) -> bool:
    """King's strict inequality on proper nonzero subrepresentations, by a
    KingScan planned for this one call, after check_guard."""
    check_guard(dict(M.dims), M.prime)
    sizes, arrows, thetas, mats = on_positions(quiver, dict(M.dims), theta, M)
    return KingScan(sizes, arrows, M.prime, thetas).destabilizer(mats) is None


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


def closed_prefix_subrep_dimvectors(quiver: Quiver, M: RepFq):
    """Yield the dimension vectors of all subrepresentations (with repeats),
    ordered by quiver.vertices.  The vertices take subspaces depth-first in
    breadth-first order of the underlying graph; each arrow is checked as
    soon as both its ends have a subspace, and a failed check prunes the
    branch.  The image of every source subspace is computed once."""
    p, dims, order, head = M.prime, dict(M.dims), [], 0
    ends = [(a.src, a.tgt) for a in quiver.arrows] + [(a.tgt, a.src) for a in quiver.arrows]
    for root in quiver.vertices:  # breadth-first; order[head:] is the queue
        order += [] if root in order else [root]
        while head < len(order):
            order += [u for u in dict.fromkeys(u for s, u in ends if s == order[head]) if u not in order]
            head += 1
    depth = {v: k for k, v in enumerate(order)}
    spaces = [subspaces(dims.get(v, 0), p) for v in order]
    checks = [[] for _ in order]  # the arrows whose later end is order[k]
    for a in quiver.arrows:
        mat, s, t = M.mat_of(a.id), depth[a.src], depth[a.tgt]
        images = [[x for x in (gf_matvec(mat, row, p) for row in S) if any(x)] for S in spaces[s]]
        checks[max(s, t)].append((s, t, images))
    out, chosen, gamma, k = [depth[v] for v in quiver.vertices], [-1] * len(order), [0] * len(order), 0
    while k >= 0:
        if k == len(order):
            yield tuple(map(gamma.__getitem__, out))
            k -= 1
        elif chosen[k] + 1 == len(spaces[k]):
            chosen[k] = -1
            k -= 1
        else:
            chosen[k] += 1
            if all(gf_in_span(spaces[t][chosen[t]], row, p)
                   for s, t, images in checks[k] for row in images[chosen[s]]):
                gamma[k] = len(spaces[k][chosen[k]])
                k += 1


def is_stable_by(scan, quiver: Quiver, M: RepFq, theta) -> bool:
    """King's strict inequality on the proper nonzero subrepresentations
    that scan yields, stopping at the first that fails it."""
    tv = theta_vec(quiver, theta)
    trivial = tuple(0 for _ in quiver.vertices), tuple(dict(M.dims).get(v, 0) for v in quiver.vertices)
    return all(sum(map(operator.mul, tv, gamma)) > 0
               for gamma in scan(quiver, M) if gamma not in trivial)


def random_rep(quiver: Quiver, dims, prime, rng: random.Random) -> RepFq:
    """repfield.random_rep as it drew before it called getrandbits itself:
    one rng.randrange(prime) per entry, arrow by arrow in quiver.arrows
    order, each matrix row by row."""
    mats = [(a.id, tuple(tuple(rng.randrange(prime) for _ in range(int(dims.get(a.src, 0))))
                         for _ in range(int(dims.get(a.tgt, 0)))))
            for a in quiver.arrows]
    return RepFq(prime, tuple(sorted((v, int(dims.get(v, 0))) for v in quiver.vertices)),
                 tuple(sorted(mats)))


def find_witness(quiver, beta, theta, trials=200, prime=5, seed=0, scanned=None):
    """repfield.find_witness as it ran before the sample rules, on the
    randrange sampler above and the support quiver of support_quiver_pairs:
    every sample goes through KingScan.destabilizer.  It searches only where
    repfield.decide, given the covering arrows read off the support quiver,
    finds the component nonempty, as the CLI does.  Returns (M.mats, trial)
    or None.  Each scanned sample is appended to scanned, when given, as
    (support quiver, dims, θ̂, sample)."""
    sq, dims = support_quiver_pairs(quiver, beta)
    th = {v: int(theta.get(v[0], 0)) for v in sq.vertices}
    sizes, arrows, thetas, _ = on_positions(sq, dims, th)
    if decide(sizes, thetas, tuple(sorted((s, t) for _, s, t in arrows)))[1] is not None or \
            any(subspace_count(d, prime) > MAX_SUBSPACES for d in sizes):
        return None
    comp_key, king = repr(beta), KingScan(sizes, arrows, prime, thetas)
    scalar = math.gcd(*sizes) == 1 and not sum(map(operator.mul, thetas, sizes))
    for trial in range(trials):
        rng = random.Random("%s:%s:%d" % (seed, comp_key, trial))
        M = random_rep(sq, dims, prime, rng)
        if scanned is not None:
            scanned.append((sq, dims, th, M))
        mats = on_positions(sq, dims, th, M)[3]
        if king.destabilizer(mats) is None and (scalar or endomorphism_dim(sizes, arrows, mats, prime) == 1):
            return M.mats, trial
    return None


def subrep_dimension_vectors(quiver: Quiver, M: RepFq):
    """The set of dimension vectors of subrepresentations, by exhaustion.

    Ordered by quiver.vertices.  Guarded: refuses large instances.
    """
    check_guard(dict(M.dims), M.prime)
    return set(_iter_subrep_dimvectors(quiver, M))


def is_semistable_rep(quiver: Quiver, M: RepFq, theta) -> bool:
    """King's inequality: theta of every subrepresentation is >= 0."""
    check_guard(dict(M.dims), M.prime)
    tv = theta_vec(quiver, theta)
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


def _subvectors(g):
    return itertools.product(*(range(x + 1) for x in g))


class GenericSubdims:
    """Generic subdimension vectors, by Schofield's recursion.

    Dimension vectors are tuples in quiver.vertices order.  s embeds in g
    (s -> g) when every representation of dimension g has a subrepresentation
    of dimension s.  With the Euler form <a, b> = sum a_v b_v - sum over
    arrows i -> j of a_i b_j, s -> g exactly when ext(s, g - s) = 0, and
    ext(a, h) = max of -<a', h> over a' -> a (Schofield, Proc. LMS 65, 1992,
    Thm 5.4; for quivers with oriented cycles and loops, Crawley-Boevey,
    Bull. LMS 28, 1996).  The subvectors of each g are memoised by g.
    """

    def __init__(self, quiver: Quiver):
        pos = {v: i for i, v in enumerate(quiver.vertices)}
        self._arrows = [(pos[a.src], pos[a.tgt]) for a in quiver.arrows]
        self._subs = {}

    def _pairing(self, h):
        """The vector c with <a, h> = a . c for every a."""
        c = list(h)
        for i, j in self._arrows:
            c[i] -= h[j]
        return c

    def ext(self, a, h):
        """Dimension of Ext between general representations of dimensions a and h."""
        c = self._pairing(h)
        return max(-sum(map(operator.mul, s, c)) for s in self.subs(a))

    def embeds(self, s, g):
        """s -> g, i.e. ext(s, g - s) = 0; ext is never negative (0 -> s)."""
        if s == g:
            return True
        c = self._pairing([x - y for x, y in zip(g, s)])
        # s -> s, so <s, g - s> < 0 settles it without the recursion
        return sum(map(operator.mul, s, c)) >= 0 and \
            all(sum(map(operator.mul, a, c)) >= 0 for a in self.subs(s))

    def subs(self, g):
        """All s with s -> g, zero and g included."""
        if g not in self._subs:
            self._subs[g] = [s for s in _subvectors(g) if self.embeds(s, g)]
        return self._subs[g]


def generic_destabilizer(quiver: Quiver, dims, theta):
    """The first proper nonzero s -> dims with theta <= 0 among the
    subvectors in product order, as {vertex: dim} where nonzero, or None."""
    beta = tuple(int(dims.get(v, 0)) for v in quiver.vertices)
    tv = theta_vec(quiver, theta)
    generic = GenericSubdims(quiver)
    for s in _subvectors(beta):
        if any(s) and s != beta and sum(t * x for t, x in zip(tv, s)) <= 0 \
                and generic.embeds(s, beta):
            return {v: x for v, x in zip(quiver.vertices, s) if x}
    return None
