"""Quivers, graded covers on the covering quiver, and fixed-component data.

The covering quiver lives on Q_0 x Z^aux with an arrow (a, chi) from
(src a, chi) to (tgt a, chi + w_a) for the chosen arrow grading w.  A cover
of the dimension vector alpha is a dimension vector on the covering quiver
whose column sums reproduce alpha; covers are enumerated with connected
support, one representative per translation class.  A cover is the sorted
tuple of its ((vertex, grade), n) pairs, n > 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .errors import TooLarge, ValidationError

# The most grow calls plus covers counted that one enumeration may take.
# Measured with Python 3.11 on 2 CPUs: the largest input of the tests,
# golden files, CI and benchmark takes 7,521; K6(4,4) and one vertex with
# four loops at alpha = 8, both at full grading and inside the total
# dimension guard, reach the cap in 2-3 s at about 70 MB; before it, they
# ran for minutes and grew past 0.5 GB.
MAX_COVERS = 100_000


@dataclass(frozen=True)
class Arrow:
    id: str
    src: object
    tgt: object


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arrows", tuple(self.arrows))
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValidationError("duplicate vertex ids")
        ids = set()
        for a in self.arrows:
            if a.src not in vs or a.tgt not in vs:
                raise ValidationError("arrow %s has endpoint outside the vertex set" % a.id)
            if a.id in ids:
                raise ValidationError("duplicate arrow id %r" % a.id)
            ids.add(a.id)


@dataclass(frozen=True)
class ArrowWeights:
    """Grading of the arrows by characters of an auxiliary torus."""

    aux_rank: int
    weights: tuple  # sorted (arrow_id, w) pairs

    @staticmethod
    def from_dict(aux_rank, mapping):
        items = tuple(sorted((str(k), tuple(int(x) for x in v)) for k, v in mapping.items()))
        for _, w in items:
            if len(w) != aux_rank:
                raise ValidationError("arrow weight %r has wrong rank" % (w,))
        return ArrowWeights(aux_rank, items)

    @staticmethod
    def full(quiver: Quiver):
        """One independent scaling per arrow (the full arrow torus)."""
        n = len(quiver.arrows)
        mapping = {
            a.id: tuple(int(i == j) for j in range(n))
            for i, a in enumerate(quiver.arrows)
        }
        return ArrowWeights.from_dict(n, mapping)

    def of(self, arrow_id):
        for k, w in self.weights:
            if k == str(arrow_id):
                return w
        raise KeyError(arrow_id)


def check_stability_pairing(theta, alpha):
    """Stability parameters must pair to zero with the dimension vector."""
    val = sum(int(theta.get(v, 0)) * int(alpha.get(v, 0)) for v in set(theta) | set(alpha))
    if val != 0:
        raise ValidationError("theta . alpha = %d, expected 0" % val)


# ---------------------------------------------------------------------------
# the grading window

def default_window_radius(alpha, weights: ArrowWeights):
    """Radius guaranteeing every connected cover support fits after translation.

    A connected support has graph diameter below the total dimension, and
    each arrow shifts the grade by at most the sup-norm of its weight.
    """
    total = sum(int(x) for x in alpha.values())
    wmax = 0
    for _, w in weights.weights:
        for x in w:
            wmax = max(wmax, abs(x))
    return max(1, total * max(1, wmax)) if weights.aux_rank else 0


def theta_hat(theta, points):
    """Graded stability on covering-quiver points: the vertex value, per grade.
    A vertex missing from theta counts as 0."""
    return {(v, chi): int(theta.get(v, 0)) for (v, chi) in points}


def _covering_arrows(quiver: Quiver, weights: ArrowWeights, pts):
    """(arrow, source point, target point) for each covering arrow with both
    ends in the point collection pts: arrow by arrow, sources in pts order."""
    shift, at = dict(weights.weights), {}
    for p in pts:
        at.setdefault(p[0], []).append(p)
    for a in quiver.arrows:
        w = shift[str(a.id)]
        for p in at.get(a.src, ()):
            q = (a.tgt, tuple(map(operator.add, p[1], w)))
            if q in pts:
                yield a, p, q


def support_quiver(quiver: Quiver, weights: ArrowWeights, beta):
    """The finite quiver on the support of a cover, given as its sorted
    ((vertex, grade), n) tuple: (support quiver, dims dict)."""
    dims = dict(beta)
    arrows = tuple(Arrow((a.id, p[1]), p, q) for a, p, q in _covering_arrows(quiver, weights, dims))
    return Quiver(tuple(dims), arrows), dims


# ---------------------------------------------------------------------------
# enumeration of covers up to translation

@functools.cache
def positive_compositions(n, k):
    """Ordered k-tuples of positive integers summing to n, as a tuple.

    Memoised on (n, k): cover enumeration asks for the same few pairs once
    per support.
    """
    if k == 0:
        return ((),) if n == 0 else ()
    if k == 1:
        return ((n,),)
    return tuple((first,) + rest for first in range(1, n - k + 2)
                 for rest in positive_compositions(n - first, k - 1))


def enumerate_covers(quiver: Quiver, weights: ArrowWeights, alpha, radius):
    """(number of covers of alpha with connected support inside the window,
    the candidates among them as (cover, dimension) pairs sorted by cover,
    each cover its sorted ((vertex, grade), n) tuple).

    The dimension of cover b's component, for a free quotient, is the sum of
    b_p b_q over its covering arrows p -> q, minus the sum of b_p^2, plus 1.
    Candidates have dimension >= 0; only their tuples are built.  alpha = 0
    has one cover, the empty one, and no candidate.

    The window of radius R admits every support that spans at most 2R in
    each grade coordinate, equivalently one that a translation carries into
    [-R, R]^aux.  One representative per translation class, in sorted
    order: the member of the class whose least (vertex id, grade) point
    sits at grade zero.

    Every support covers v0, the least vertex id with alpha > 0, so its
    least point is (v0, chi), and its representative is its shift by -chi,
    with least point (v0, 0).  One search from that root, adding only
    points above it, therefore meets each representative exactly once.
    The span bound is monotone under adding points, so a candidate that
    breaks it is banned for the rest of its branch without losing a class.

    Each grow call and each cover counted is one step of work, and past
    MAX_COVERS steps the enumeration raises TooLarge.
    """
    radius = int(radius)
    if radius < 0:
        raise ValidationError("window radius must be >= 0, got %d" % radius)
    alpha = {v: int(alpha.get(v, 0)) for v in quiver.vertices}
    supp = [v for v in quiver.vertices if alpha[v] > 0]
    if not supp:
        return 1, []
    total = sum(alpha.values())

    arcs = {}  # vertex -> (neighbour, grade step), both directions of each arrow
    for a in quiver.arrows:
        w = weights.of(a.id)
        arcs.setdefault(a.src, []).append((a.tgt, w))
        arcs.setdefault(a.tgt, []).append((a.src, tuple(-x for x in w)))

    def neighbors(point):
        v, chi = point
        for u, w in arcs.get(v, ()):
            if alpha[u] > 0:
                yield (u, tuple(c + x for c, x in zip(chi, w)))

    span = 2 * radius
    v0 = min(supp)
    root = (v0, (0,) * weights.aux_rank)
    supports, work = [], 0  # work: grow calls plus covers counted

    def spend(n):
        nonlocal work
        work += n
        if work > MAX_COVERS:
            raise TooLarge("cover enumeration exceeds the guard of %d support searches and covers"
                           % MAX_COVERS)

    def grow(current, counts, lo, hi, candidates, banned):
        spend(1)
        if all(counts.get(v, 0) >= 1 for v in supp):
            supports.append(current)
        if len(current) >= total:
            return
        banned = set(banned)
        for pos, u in enumerate(candidates):
            lo2 = tuple(map(min, lo, u[1]))
            hi2 = tuple(map(max, hi, u[1]))
            if counts.get(u[0], 0) >= alpha[u[0]] or any(h - l > span for l, h in zip(lo2, hi2)):
                banned.add(u)
                continue
            nxt = current | {u}
            counts2 = {**counts, u[0]: counts.get(u[0], 0) + 1}
            seen = set(candidates[pos + 1:]) | banned | nxt
            extra = sorted({w for w in neighbors(u) if w > root} - seen)
            grow(nxt, counts2, lo2, hi2, candidates[pos + 1:] + extra, banned)
            banned.add(u)

    start = sorted({w for w in neighbors(root) if w > root})
    grow(frozenset([root]), {v0: 1}, root[1], root[1], start, set())

    count, kept = 0, []
    for sup in supports:
        pts = sorted(sup)
        index = {p: i for i, p in enumerate(pts)}
        pairs = [(index[p], index[q]) for _, p, q in _covering_arrows(quiver, weights, index)]
        # sorted points run vertex by vertex, so one composition per vertex fills b
        runs = itertools.groupby(v for v, _ in pts)
        choices = [positive_compositions(alpha[v], len(list(g))) for v, g in runs]
        covers = math.prod(map(len, choices))
        spend(covers)
        count += covers
        for combo in itertools.product(*choices):
            b = [n for comp in combo for n in comp]
            dim = sum(b[i] * b[j] for i, j in pairs) - sum(n * n for n in b) + 1
            if dim >= 0:
                kept.append((tuple(zip(pts, b)), dim))
    # covers are distinct, so this sorts by cover
    return count, sorted(kept)
