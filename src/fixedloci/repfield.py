"""Certification of quiver cover components, exact in characteristic zero.

A cover's support quiver carries the stable locus to be certified.
Emptiness comes from a destabilizing dimension vector that every
representation has as a subrepresentation: either a structural one (an
arrow-closed vertex subset at full dimension) or, for a non-thin cover, a
generic subdimension vector from Schofield's recursion.  When neither
exists the locus is nonempty: for a thin cover the representation with
every arrow nonzero is stable, and otherwise the general representation
is.  A representation over a small prime field, sampled at random, is
attached to a nonempty component as a witness when it is geometrically
stable: stable over F_p with End(M) = F_p, so that no Galois-conjugate
summands split it over the algebraic closure.  End(M) is computed only
when the dimensions share a factor: the endomorphisms of a stable M form
a finite field F_{p^k}, and k divides every dimension.  The status never
rests on the witness.

Most samples are decided by which arrows are zero.  When θ̂ pairs to zero
with the dimensions, a sample whose nonzero arrows leave the support
disconnected is a direct sum, and a summand with θ̂ <= 0 destabilizes it.
On a thin cover, a sample with every arrow nonzero has the arrow-closed
vertex sets as its subrepresentations, which the structural test has
rejected, so it is stable.  King's inequalities are evaluated on the other
F_p representations by a depth-first search for a destabilizing
subrepresentation: it extends only subspace tuples closed under the arrow
maps, cuts a branch once no completion of it can reach θ <= 0, and stops
at the first destabilizer.  Its plan (vertex order, arrow checks and θ
bounds) is built, after the caller's check_guard, on the first sample of
a component that needs it, and serves the rest.  The subspaces of F_p^n
are listed once per (n, p), in one table kept for the process: each with
the ids of its RREF rows, so that an arrow's image of a row is computed
once per representation, and with parity-check rows, so that a
membership test is a few dot products.  A table holds at most
MAX_SUBSPACES subspaces; above that no witness is sought.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import TooLarge, ValidationError
from .quiver import ArrowWeights, Quiver, support_quiver, theta_hat

DEFAULT_MAX_TOTAL_DIM = 8
DEFAULT_MAX_PRIME = 5
# The most subspaces a memoised table may hold.  Measured on a 2-vCPU Xeon
# with Python 3.11: F_5^5 (42,176 subspaces) builds in 0.3 s into 7 MB and
# F_3^6 (56,632) in 0.4 s into 9 MB; F_2^8 (417,199), the next count up
# under the total dimension guard, takes 3 s and 74 MB.
MAX_SUBSPACES = 60_000


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


def gf_matvec(mat, vec, p):
    return tuple(sum(map(operator.mul, row, vec)) % p for row in mat)


def gf_member(parity, vec, p):
    """Whether vec lies in the subspace with these parity-check rows, the
    subspace of vectors every row h annihilates (h . vec = 0 mod p)."""
    for h in parity:
        if sum(map(operator.mul, h, vec)) % p:
            return False
    return True


def subspace_count(n, p):
    """The number of subspaces of F_p^n: the sum over k of the Gaussian
    binomials [n, k]_p = prod_{i < k} (p^(n-i) - 1) / (p^(i+1) - 1)."""
    total, binomial = 0, 1
    for k in range(n + 1):
        total += binomial
        binomial = binomial * (p ** (n - k) - 1) // (p ** (k + 1) - 1)
    return total


class SubspaceTable(NamedTuple):
    """The subspaces of F_p^n by dimension, then pivot columns, then the
    free entries of their RREF rows in product order.  vectors lists F_p^n
    in product order; ids[i] gives the index in vectors of each RREF row of
    subspace i; parity[i] holds a basis of its annihilator, so that a vector
    lies in it exactly when gf_member(parity[i], vector, p); subspaces of
    dimension r have the indices from starts[r] to starts[r + 1]."""

    vectors: tuple
    ids: tuple
    parity: tuple
    starts: tuple


@functools.cache
def subspace_table(n, p):
    """The SubspaceTable of F_p^n, memoised; above MAX_SUBSPACES subspaces
    it raises TooLarge and builds nothing, which bounds what the cache
    holds.  A subspace with RREF rows R and pivot columns P has one parity
    row per free column f: 1 at f, and -R[j][f] at P[j]."""
    count = subspace_count(n, p)
    if count > MAX_SUBSPACES:
        raise TooLarge("F_%d^%d has %d subspaces, above the table cap %d"
                       % (p, n, count, MAX_SUBSPACES))
    vectors = tuple(itertools.product(range(p), repeat=n))
    index = {v: i for i, v in enumerate(vectors)}
    units = [[int(c == f) for c in range(n)] for f in range(n)]
    ids, parity, starts, shared = [], [], [], {}  # one tuple per distinct parity row
    for r in range(n + 2):  # no subspace has dimension n + 1: that pass only closes starts
        starts.append(len(ids))
        for pivots in itertools.combinations(range(n), r):
            free = [c for c in range(n) if c not in pivots]
            slots = [(i, c) for i in range(r) for c in free if c > pivots[i]]
            for values in itertools.product(range(p), repeat=len(slots)):
                rows = [units[piv][:] for piv in pivots]
                for (i, c), val in zip(slots, values):
                    rows[i][c] = val
                ids.append(tuple(index[tuple(row)] for row in rows))
                checks = []
                for f in free:
                    h = units[f][:]
                    for piv, row in zip(pivots, rows):
                        h[piv] = -row[f] % p
                    h = tuple(h)
                    checks.append(shared.setdefault(h, h))
                parity.append(tuple(checks))
    return SubspaceTable(vectors, tuple(ids), tuple(parity), tuple(starts))


# ---------------------------------------------------------------------------
# representations

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


def random_rep(quiver: Quiver, dims, prime, rng: random.Random) -> RepFq:
    """A representation with uniform entries in [0, prime), drawn arrow by
    arrow in quiver.arrows order, each matrix row by row."""
    mats = [(a.id, tuple(tuple(rng.randrange(prime) for _ in range(int(dims.get(a.src, 0))))
                         for _ in range(int(dims.get(a.tgt, 0)))))
            for a in quiver.arrows]
    return RepFq(prime, tuple(sorted((v, int(dims.get(v, 0))) for v in quiver.vertices)),
                 tuple(sorted(mats)))


def check_guard(dims, prime):
    """Refuse what the brute-force F_p scans cannot take.

    In order: a modulus that is not prime is bad input (ValidationError),
    and one too large to be shown prime exceeds the guard (TooLarge); a
    total dimension above DEFAULT_MAX_TOTAL_DIM or a prime above
    DEFAULT_MAX_PRIME exceeds a guard (TooLarge).
    """
    check_prime(prime)
    total = sum(int(d) for d in dims.values())
    if total > DEFAULT_MAX_TOTAL_DIM:
        raise TooLarge("total dimension %d exceeds the certification guard %d"
                       % (total, DEFAULT_MAX_TOTAL_DIM))
    if prime > DEFAULT_MAX_PRIME:
        raise TooLarge("prime %d exceeds the guard %d" % (prime, DEFAULT_MAX_PRIME))


def check_prime(prime):
    """A non-prime modulus is bad input, not an exceeded guard.  The strong
    probable-prime test to the primes up to 41 decides below 3.3e24
    (Sorenson and Webster, Math. Comp. 86, 2017).  At or above that bound a
    modulus it shows composite is bad input, and one that passes exceeds
    the guard (TooLarge) with no claim that it is prime.
    """
    bases, n, d, r = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41), prime, prime - 1, 0
    while n > 2 and d % 2 == 0:
        d, r = d // 2, r + 1
    if n < 2 or (n not in bases and any(
            pow(a, d, n) != 1 and all(pow(a, d << i, n) != n - 1 for i in range(r)) for a in bases)):
        raise ValidationError("modulus %d is not prime" % prime)
    if n >= 3317044064679887385961981:
        raise TooLarge("modulus %d exceeds the guard %d" % (prime, DEFAULT_MAX_PRIME))


class KingScan:
    """King's test for every F_p representation of one dimension vector.

    The plan is built once per (quiver, dims, prime, theta) and serves every
    representation of those dimensions.  The vertices take subspaces
    depth-first in breadth-first order of the underlying graph; each arrow
    is checked as soon as both its ends have a subspace, and a failed check
    prunes the branch.  The θ bound prunes too: with S the θ-weight of the
    subspaces chosen so far, a branch is cut when S plus the least weight the
    remaining vertices can add, Σ min(0, θ_v d_v), is still positive, since
    no completion of it can destabilize.  The bound holds for any θ.  The
    subspaces at each vertex come from the shared subspace_table of its
    dimension.  The plan runs no check_guard; its callers do.
    """

    def __init__(self, quiver: Quiver, dims, prime, theta):
        order, head = [], 0
        ends = [(a.src, a.tgt) for a in quiver.arrows] + [(a.tgt, a.src) for a in quiver.arrows]
        for root in quiver.vertices:  # breadth-first; order[head:] is the queue
            order += [] if root in order else [root]
            while head < len(order):
                order += [u for u in dict.fromkeys(u for s, u in ends if s == order[head]) if u not in order]
                head += 1
        depth = {v: k for k, v in enumerate(order)}
        self.prime = prime
        self.full = [int(dims.get(v, 0)) for v in order]
        self.tables = [subspace_table(d, prime) for d in self.full]
        self.ids, self.parity = [t.ids for t in self.tables], [t.parity for t in self.tables]
        self.arrows = [(a.id, depth[a.src]) for a in quiver.arrows]  # (id, depth of the source)
        self.checks = [[] for _ in order]  # (arrow index, source, target) by depth of the later end
        for j, a in enumerate(quiver.arrows):
            s, t = depth[a.src], depth[a.tgt]
            self.checks[max(s, t)].append((j, s, t))
        self.theta = [int(theta.get(v, 0)) for v in order]
        self.least = [0] * (len(order) + 1)  # least θ-weight of the vertices from depth k on
        for k in reversed(range(len(order))):
            self.least[k] = self.least[k + 1] + min(0, self.theta[k] * self.full[k])
        self.out = [depth[v] for v in quiver.vertices]
        self.spans = {}

    def span(self, k, weight):
        """The subspaces that the θ bound admits at depth k after a θ-weight
        of weight: those of the dimensions r with weight + θ_k r +
        least[k + 1] <= 0.  Subspaces come by dimension, so these are one
        index range, returned as (its first index - 1, its end) for the
        scan to step through.  Memoised per plan."""
        if (k, weight) not in self.spans:
            room, t, top = -weight - self.least[k + 1], self.theta[k], self.full[k]  # θ_k r <= room
            if t > 0:
                lo, hi = 0, min(top, room // t)
            elif t < 0:
                lo, hi = max(0, -(room // -t)), top
            else:
                lo, hi = 0, top if room >= 0 else -1
            starts = self.tables[k].starts
            self.spans[k, weight] = (starts[lo] - 1, starts[hi + 1]) if lo <= hi else (-1, 0)
        return self.spans[k, weight]

    def destabilizer(self, M: RepFq):
        """The dimension vector of a proper nonzero subrepresentation of M
        with θ <= 0, ordered by quiver.vertices, or None when M is stable.

        An arrow's image of a basis row is computed once per representation,
        when a branch first needs it, and so is the list of nonzero images
        of each source subspace.  Subspaces come by dimension, so the θ
        bound leaves one index range to try at each vertex.
        """
        p, theta, full, checks, n = self.prime, self.theta, self.full, self.checks, len(self.full)
        ids, parity = self.ids, self.parity
        row_images = [[None] * len(self.tables[s].vectors) for _, s in self.arrows]
        images = [[None] * len(ids[s]) for _, s in self.arrows]

        def image(j, s, i):  # the nonzero images of subspace i of depth s under arrow j
            mat, memo, vectors = M.mat_of(self.arrows[j][0]), row_images[j], self.tables[s].vectors
            for r in ids[s][i]:
                if memo[r] is None:
                    memo[r] = gf_matvec(mat, vectors[r], p)
            images[j][i] = [memo[r] for r in ids[s][i] if any(memo[r])]
            return images[j][i]

        if not n:
            return None
        chosen, end, partial, k = [-1] * n, [0] * n, [0] * (n + 1), 0
        chosen[0], end[0] = self.span(0, 0)
        while k >= 0:
            c = chosen[k] = chosen[k] + 1
            if c == end[k]:
                k -= 1
                continue
            for j, s, t in checks[k]:
                imgs = images[j][chosen[s]]
                if imgs is None:
                    imgs = image(j, s, chosen[s])
                par = parity[t][chosen[t]]
                for row in imgs:
                    if not gf_member(par, row, p):
                        break
                else:
                    continue
                break
            else:
                partial[k + 1] = partial[k] + theta[k] * len(ids[k][c])
                if k + 1 < n:
                    k += 1
                    chosen[k], end[k] = self.span(k, partial[k])
                    continue
                gamma = [len(ids[i][chosen[i]]) for i in range(n)]
                if any(gamma) and gamma != full:
                    return tuple(map(gamma.__getitem__, self.out))
        return None


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
    of its forward-reachability sets, kept as int bitmasks with position i
    of the n support vertices at bit n - 1 - i, so that among sets of one
    size the least by lexicographic position has the greatest mask.  The
    least one by size, then by position, is returned.
    """
    supp = [v for v in quiver.vertices if int(dims.get(v, 0)) > 0]
    bit = {v: 1 << (len(supp) - 1 - i) for i, v in enumerate(supp)}
    out = dict.fromkeys(bit.values(), 0)  # out-neighbour mask of each vertex bit
    for a in quiver.arrows:
        if a.src in bit and a.tgt in bit:
            out[bit[a.src]] |= bit[a.tgt]
    closed = {0}
    for reach in bit.values():  # add the unions with the set reachable from it
        todo = out[reach] & ~reach
        while todo:
            low = todo & -todo
            reach |= low
            todo = (todo | out[low]) & ~reach
        closed |= {c | reach for c in closed}
    proper = list(closed - {0, (1 << len(supp)) - 1})
    by_bit = [int(theta.get(v, 0)) * int(dims[v]) for v in reversed(supp)]
    weight = [0] * len(proper)
    for lo in range(0, len(supp), 8):  # θ-weights 8 bits at a time: tables of 256 sums, not 2^n
        table = [0]
        for w_b in by_bit[lo:lo + 8]:
            table += [w + w_b for w in table]
        weight = [w + table[c >> lo & 255] for w, c in zip(weight, proper)]
    found = [c for c, w in zip(proper, weight) if w <= 0]
    if not found:
        return None
    least = min(found, key=lambda c: (c.bit_count(), -c))
    return {v: int(dims.get(v, 0)) for v in set(v for v in supp if bit[v] & least)}


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
    Bull. LMS 28, 1996).  So s -> g exactly when no t -> s has
    <t, g - s> < 0, and only the t <= s with <t, g - s> < 0 are tested for
    t -> s.  Each answer is memoised per (s, g).
    """

    def __init__(self, quiver: Quiver):
        pos = {v: i for i, v in enumerate(quiver.vertices)}
        self._arrows = [(pos[a.src], pos[a.tgt]) for a in quiver.arrows]
        self._embeds = {}

    def _pairing(self, h):
        """The vector c with <a, h> = a . c for every a."""
        c = list(h)
        for i, j in self._arrows:
            c[i] -= h[j]
        return c

    def embeds(self, s, g):
        """s -> g, i.e. ext(s, g - s) = 0; ext is never negative (0 -> s)."""
        if s == g:
            return True
        if (s, g) not in self._embeds:
            c = self._pairing([x - y for x, y in zip(g, s)])
            # s -> s, so <s, g - s> < 0 settles it without the recursion
            self._embeds[s, g] = sum(map(operator.mul, s, c)) >= 0 and not any(
                sum(map(operator.mul, t, c)) < 0 and self.embeds(t, s) for t in _subvectors(s))
        return self._embeds[s, g]


def generic_destabilizer(quiver: Quiver, dims, theta):
    """A proper nonzero generic subdimension vector with theta <= 0, if any.

    Every representation of dimension dims has a subrepresentation of the
    returned dimension, so none is stable; when there is none, the general
    representation is stable (King, Quart. J. Math. 45, 1994: the stable
    locus is open).  Returns {vertex: dim} over the vertices where it is
    nonzero.
    """
    beta = tuple(int(dims.get(v, 0)) for v in quiver.vertices)
    tv = [int(theta.get(v, 0)) for v in quiver.vertices]
    generic = GenericSubdims(quiver)
    for s in _subvectors(beta):
        if any(s) and s != beta and sum(map(operator.mul, tv, s)) <= 0 \
                and generic.embeds(s, beta):
            return {v: x for v, x in zip(quiver.vertices, s) if x}
    return None


class Status(enum.Enum):
    """Certification status of a fixed-point component."""

    NONEMPTY_VERIFIED = "NonemptyVerified"
    EMPTY_VERIFIED = "EmptyVerified"


@dataclass(frozen=True)
class Certification:
    status: Status
    method: str  # "structural" or "schofield"
    witness: RepFq | None = None
    witness_trial: int | None = None
    destabilizer: tuple | None = None


def certify_component(quiver: Quiver, weights: ArrowWeights, beta, theta,
                      trials=200, prime=5, seed=0, shapes=None) -> Certification:
    """Certify (non)emptiness of the stable locus a cover describes, the
    cover given as its sorted ((vertex, grade), n) tuple.

    In order: a structural destabilizer proves emptiness; without one a thin
    cover is nonempty; every other cover is decided by generic_destabilizer.
    A sampled geometrically stable F_p representation (stable, with End(M)
    = F_p) is then attached to a nonempty component as its witness; trials,
    prime and seed choose the witness and never the status.  A sample that
    splits as a direct sum (on the wall θ̂ . dims = 0), or a thin one with
    every arrow nonzero, needs no KingScan.  No witness is sought when a
    vertex's subspaces outnumber MAX_SUBSPACES.

    The decision depends only on the cover's shape: its dimensions and θ̂
    in support order and its arrows as (source, target) positions.  Neither
    destabilizer reads arrow ids, grades or arrow order, and each is chosen
    by position, so shapes, a dict that the caller shares over the covers
    of one report, keeps (method, destabilizer as (position, n) pairs) per
    shape; a fresh dict is used when it is None.  check_guard and the
    witness search, seeded by repr(beta), still run for every cover.
    """
    sq, dims = support_quiver(quiver, weights, beta)
    th = theta_hat(theta, sq.vertices)
    check_guard(dims, prime)

    pos = {v: i for i, v in enumerate(sq.vertices)}
    shape = (tuple(dims.values()), tuple(th.values()),
             tuple(sorted((pos[a.src], pos[a.tgt]) for a in sq.arrows)))
    shapes = {} if shapes is None else shapes
    if shape not in shapes:
        method = "structural"
        dest = structural_destabilizer(sq, dims, th)
        # a thin cover needs no more: the subrepresentations of the all-nonzero
        # representation are the arrow-closed subsets, none of which destabilizes
        if dest is None and any(n != 1 for n in dims.values()):
            method = "schofield"
            dest = generic_destabilizer(sq, dims, th)
        shapes[shape] = method, None if dest is None else tuple((pos[v], n) for v, n in dest.items())
    method, dest = shapes[shape]
    if dest is not None:
        return Certification(Status.EMPTY_VERIFIED, method,
                             destabilizer=tuple(sorted((sq.vertices[i], n) for i, n in dest)))

    if any(subspace_count(d, prime) > MAX_SUBSPACES for d in dims.values()):
        return Certification(Status.NONEMPTY_VERIFIED, method)
    comp_key, king = repr(beta), None
    wall = not sum(th[v] * n for v, n in dims.items())
    # a stable M has End(M) a finite division ring when θ̂ . dims = 0, so a
    # field F_{p^k} (Wedderburn); each M_v is an F_{p^k}-space, so k | d_v
    scalar = math.gcd(*dims.values()) == 1 and wall
    thin = all(n == 1 for n in dims.values())
    ends = {a.id: 1 << pos[a.src] | 1 << pos[a.tgt] for a in sq.arrows}  # bits of its ends
    for trial in range(trials):
        rng = random.Random("%s:%s:%d" % (seed, comp_key, trial))
        M = random_rep(sq, dims, prime, rng)
        links = [ends[a] for a, rows in M.mats if any(map(any, rows))]
        # on the wall, a sample whose nonzero arrows leave the support
        # disconnected is a direct sum, and one summand has θ̂ <= 0
        if wall and not _connects(links, len(dims)):
            continue
        # a thin sample with every arrow nonzero has the arrow-closed vertex
        # sets as its subrepresentations, and none of them destabilizes
        if not (thin and len(links) == len(ends)):
            king = king or KingScan(sq, dims, prime, th)
            if king.destabilizer(M) is not None:
                continue
        if scalar or endomorphism_dim(sq, M) == 1:
            return Certification(Status.NONEMPTY_VERIFIED, method, witness=M, witness_trial=trial)
    return Certification(Status.NONEMPTY_VERIFIED, method)


def _connects(links, n):
    """Whether links, each the bitmask of an arrow's ends, connect the
    vertices 0..n - 1 as an undirected graph."""
    reach, grew = 1 if n else 0, True
    while grew:
        grew = False
        for link in links:
            if reach & link and link & ~reach:
                reach, grew = reach | link, True
    return reach == (1 << n) - 1
