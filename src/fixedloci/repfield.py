"""Certification of quiver cover components, exact in characteristic zero.

A cover's support quiver carries the stable locus to be certified.
Emptiness comes from a destabilizing dimension vector that every
representation has as a subrepresentation: either a structural one (an
arrow-closed vertex subset at full dimension) or, for non-thin covers on an
acyclic support, a generic subdimension vector from Schofield's recursion.
When neither exists the locus is nonempty: for a thin cover the
representation with every arrow nonzero is stable, and on an acyclic
support the generic representation is.  A representation over a small
prime field, sampled at random, is attached as a witness when it is
geometrically stable: stable over F_p with End(M) = F_p, so that no
Galois-conjugate summands split it over the algebraic closure.  Only on a
cyclic support, where neither exact test applies, does it stand as the
certificate; it is exact there too, since the geometrically stable locus
is open in the representation space over Spec Z, which is irreducible, so
one F_p point of it proves the locus nonempty in characteristic zero.  A
component with no witness there stays CandidateOnly.  King's inequalities
are evaluated on F_p representations by a depth-first scan that extends
only subspace tuples closed under the arrow maps.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass

from .common import Status
from .errors import TooLarge, ValidationError
from .quiver import ArrowWeights, CoverVector, Quiver, support_quiver, theta_hat

DEFAULT_MAX_TOTAL_DIM = 8
DEFAULT_MAX_PRIME = 5


# ---------------------------------------------------------------------------
# tiny GF(p) linear algebra

def gf_rref(rows, p):
    """Reduced row echelon form over F_p; returns a tuple of nonzero rows."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r] if any(row))


def gf_in_span(rref_rows, vec, p):
    v = [x % p for x in vec]
    for row in rref_rows:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead]:
            f = v[lead]
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return not any(v)


def gf_matvec(mat, vec, p):
    return tuple(sum(map(operator.mul, row, vec)) % p for row in mat)


def subspaces(n, p):
    """All subspaces of F_p^n as RREF row tuples (the zero space is ())."""
    out = [()]
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
                out.append(tuple(tuple(row) for row in rows))
    return out


# ---------------------------------------------------------------------------
# representations

@dataclass(frozen=True)
class RepFq:
    """A representation over F_p: one matrix per arrow, shape tgt x src."""

    prime: int
    dims: tuple  # sorted (vertex, dim) pairs
    mats: tuple  # sorted (arrow_id, rows) pairs

    @staticmethod
    def build(prime, dims, mats):
        return RepFq(
            int(prime),
            tuple(sorted((v, int(d)) for v, d in dims.items())),
            tuple(sorted((a, tuple(tuple(int(x) % prime for x in row) for row in m)) for a, m in mats.items())),
        )

    @functools.cached_property
    def _mat_dict(self):
        return dict(self.mats)

    def mat_of(self, arrow_id):
        return self._mat_dict[arrow_id]


def random_rep(quiver: Quiver, dims, prime, rng: random.Random) -> RepFq:
    mats = {a.id: tuple(tuple(rng.randrange(prime) for _ in range(int(dims.get(a.src, 0))))
                        for _ in range(int(dims.get(a.tgt, 0))))
            for a in quiver.arrows}
    return RepFq.build(prime, {v: dims.get(v, 0) for v in quiver.vertices}, mats)


def _check_guard(dims, prime):
    total = sum(int(d) for d in dims.values())
    if total > DEFAULT_MAX_TOTAL_DIM:
        raise TooLarge("total dimension %d exceeds the guard %d" % (total, DEFAULT_MAX_TOTAL_DIM))
    if prime > DEFAULT_MAX_PRIME:
        raise TooLarge("prime %d exceeds the guard %d" % (prime, DEFAULT_MAX_PRIME))
    check_prime(prime)


def check_prime(prime):
    """A non-prime modulus is bad input, not an exceeded guard; this runs
    before the prime guard.  Below 3.3e24 the strong probable-prime test to
    the primes up to 41 is exact (Sorenson and Webster, Math. Comp. 86,
    2017); above it, trial division by every q with q * q <= prime decides.
    """
    bases, n, d, r = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41), prime, prime - 1, 0
    while n > 2 and d % 2 == 0:
        d, r = d // 2, r + 1
    if n >= 3317044064679887385961981:
        composite = any(n % q == 0 for q in range(2, math.isqrt(n) + 1))
    else:
        composite = n < 2 or (n not in bases and any(
            pow(a, d, n) != 1 and all(pow(a, d << i, n) != n - 1 for i in range(r)) for a in bases))
    if composite:
        raise ValidationError("modulus %d is not prime" % prime)


def _iter_subrep_dimvectors(quiver: Quiver, M: RepFq):
    """Yield the dimension vectors of all subrepresentations (with repeats).

    Ordered by quiver.vertices.  The vertices take subspaces depth-first in
    breadth-first order of the underlying graph; each arrow is checked as
    soon as both its ends have a subspace, and a failed check prunes the
    branch.  The image of every source subspace is computed once.
    """
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


def _theta_vec(quiver, theta):
    return [int(theta.get(v, 0)) for v in quiver.vertices]


def is_stable_rep(quiver: Quiver, M: RepFq, theta) -> bool:
    """King's strict inequality on proper nonzero subrepresentations."""
    _check_guard(dict(M.dims), M.prime)
    tv = _theta_vec(quiver, theta)
    trivial = tuple(0 for _ in quiver.vertices), tuple(dict(M.dims).get(v, 0) for v in quiver.vertices)
    return all(sum(map(operator.mul, tv, gamma)) > 0
               for gamma in _iter_subrep_dimvectors(quiver, M) if gamma not in trivial)


# ---------------------------------------------------------------------------
# destabilizers and certification

def endomorphism_dim(quiver: Quiver, M: RepFq) -> int:
    """dim over F_p of End(M), the kernel of (phi_v) -> (M_a phi_src - phi_tgt M_a)."""
    dims = dict(M.dims)
    offset, n = {}, 0
    for v in quiver.vertices:
        offset[v] = n
        n += dims.get(v, 0) ** 2
    rows = []
    for a in quiver.arrows:
        mat, s, t = M.mat_of(a.id), dims.get(a.src, 0), dims.get(a.tgt, 0)
        for i, j in itertools.product(range(t), range(s)):
            row = [0] * n  # entry (i, j) of M_a phi_src - phi_tgt M_a
            for k in range(s):
                row[offset[a.src] + k * s + j] += mat[i][k]
            for k in range(t):
                row[offset[a.tgt] + i * t + k] -= mat[k][j]
            rows.append(row)
    return n - len(gf_rref(rows, M.prime))


def structural_destabilizer(quiver: Quiver, dims, theta):
    """A proper nonzero arrow-closed vertex subset with theta <= 0, if any.

    The full spaces over such a subset form a subrepresentation of every
    representation with these dimensions, so its existence certifies that no
    point is stable.  The arrow-closed subsets of the support are the unions
    of its forward-reachability sets; the least one by size, then by
    lexicographic position in the support, is returned.
    """
    supp = [v for v in quiver.vertices if int(dims.get(v, 0)) > 0]
    bit = {v: 1 << i for i, v in enumerate(supp)}
    closed = {0}
    for v in supp:  # add the unions with the set reachable from v
        reach, stack = 0, [v]
        while stack:
            u = stack.pop()
            if not reach & bit[u]:
                reach |= bit[u]
                stack += [a.tgt for a in quiver.arrows if a.src == u and a.tgt in bit]
        closed |= {c | reach for c in closed}
    weight = [int(theta.get(v, 0)) * int(dims[v]) for v in supp]
    proper = sorted(closed - {0, (1 << len(supp)) - 1}, key=int.bit_count)
    for _, group in itertools.groupby(proper, key=int.bit_count):  # by size, then position
        found = [m for m in ([i for i in range(len(supp)) if c >> i & 1] for c in group)
                 if sum(weight[i] for i in m) <= 0]
        if found:
            return {v: int(dims.get(v, 0)) for v in set(supp[i] for i in min(found))}
    return None


def is_acyclic(quiver: Quiver) -> bool:
    """True when the quiver has no oriented cycle (a loop is one)."""
    indegree = {v: 0 for v in quiver.vertices}
    out_edges = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        out_edges[a.src].append(a.tgt)
        indegree[a.tgt] += 1
    ready = [v for v, d in indegree.items() if d == 0]
    removed = 0
    while ready:
        removed += 1
        for t in out_edges[ready.pop()]:
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    return removed == len(quiver.vertices)


def _subvectors(g):
    return itertools.product(*(range(x + 1) for x in g))


class GenericSubdims:
    """Generic subdimension vectors on an acyclic quiver, by Schofield's recursion.

    Dimension vectors are tuples in quiver.vertices order.  s embeds in g
    (s -> g) when every representation of dimension g has a subrepresentation
    of dimension s.  With the Euler form <a, b> = sum a_v b_v - sum over
    arrows i -> j of a_i b_j, s -> g exactly when ext(s, g - s) = 0, and
    ext(a, h) = max of -<a', h> over a' -> a (Schofield, Proc. LMS 65, 1992,
    Thm 5.4).  The subvectors of each g are memoised by g.
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
    """A proper nonzero generic subdimension vector with theta <= 0, if any.

    The quiver must be acyclic.  Every representation of dimension dims has a
    subrepresentation of the returned dimension, so none is stable; when
    there is none, the general representation is stable (King, Quart. J.
    Math. 45, 1994: the stable locus is open).  Returns {vertex: dim} over
    the vertices where it is nonzero.
    """
    beta = tuple(int(dims.get(v, 0)) for v in quiver.vertices)
    tv = _theta_vec(quiver, theta)
    generic = GenericSubdims(quiver)
    for s in _subvectors(beta):
        if any(s) and s != beta and sum(t * x for t, x in zip(tv, s)) <= 0 \
                and generic.embeds(s, beta):
            return {v: x for v, x in zip(quiver.vertices, s) if x}
    return None


@dataclass(frozen=True)
class Certification:
    status: Status
    witness: RepFq | None = None
    witness_trial: int | None = None
    destabilizer: tuple | None = None
    method: str | None = None  # "structural", "schofield", "fp_witness" or None


def certify_component(quiver: Quiver, weights: ArrowWeights, beta: CoverVector, theta,
                      trials=200, prime=5, seed=0) -> Certification:
    """Certify (non)emptiness of the stable locus a cover describes.

    In order: a structural destabilizer proves emptiness; without one a thin
    cover is nonempty; a non-thin cover on an acyclic support is decided by
    generic_destabilizer.  A sampled geometrically stable F_p representation
    (stable, with End(M) = F_p) is then attached to a nonempty component as
    its witness.  On a cyclic support the witness is the only certificate
    (method "fp_witness"), and without one the component stays CandidateOnly
    after the given number of trials.
    """
    sq, dims, _ = support_quiver(quiver, weights, beta)
    th = theta_hat(theta, sq.vertices)
    _check_guard(dims, prime)

    dest = structural_destabilizer(sq, dims, th)
    if dest is not None:
        return Certification(Status.EMPTY_VERIFIED,
                             destabilizer=tuple(sorted(dest.items())), method="structural")
    if all(n == 1 for n in dims.values()):
        # thin: the subrepresentations of the all-nonzero representation are
        # the arrow-closed subsets, none of which destabilizes
        method = "structural"
    elif is_acyclic(sq):
        method = "schofield"
        dest = generic_destabilizer(sq, dims, th)
        if dest is not None:
            return Certification(Status.EMPTY_VERIFIED,
                                 destabilizer=tuple(sorted(dest.items())), method=method)
    else:
        method = None

    comp_key = repr(beta.items)
    for trial in range(trials):
        rng = random.Random("%s:%s:%d" % (seed, comp_key, trial))
        M = random_rep(sq, dims, prime, rng)
        if is_stable_rep(sq, M, th) and endomorphism_dim(sq, M) == 1:
            return Certification(Status.NONEMPTY_VERIFIED, witness=M, witness_trial=trial,
                                 method=method or "fp_witness")
    if method is None:
        return Certification(Status.CANDIDATE_ONLY)
    return Certification(Status.NONEMPTY_VERIFIED, method=method)
