"""Quivers, graded covers on the covering quiver, and fixed-component data.

The covering quiver lives on Q_0 x Z^aux with an arrow (a, chi) from
(src a, chi) to (tgt a, chi + w_a), w_a the shift that arrow a carries.  A cover
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
    """An arrow src -> tgt, scaled by the character shift of the auxiliary
    torus: its covering arrows step the grade by shift."""

    id: str
    src: object
    tgt: object
    shift: tuple


@dataclass(frozen=True)
class Quiver:
    """Vertices and arrows, every arrow's shift of length aux_rank.  The
    constructor checks the ids and the arrow ends, not the shifts."""

    vertices: tuple
    arrows: tuple
    aux_rank: int

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

    @staticmethod
    def full(vertices, arrows):
        """The quiver with these (id, source, target) arrows under the full
        arrow torus: one independent scaling per arrow, arrow i shifting by
        the i-th unit vector."""
        n = len(arrows)
        return Quiver(vertices, tuple(Arrow(a, s, t, tuple(int(i == j) for j in range(n)))
                                      for i, (a, s, t) in enumerate(arrows)), n)


def check_stability_pairing(theta, alpha):
    """Stability parameters must pair to zero with the dimension vector."""
    val = sum(int(theta.get(v, 0)) * int(alpha.get(v, 0)) for v in set(theta) | set(alpha))
    if val != 0:
        raise ValidationError("theta . alpha = %d, expected 0" % val)


# ---------------------------------------------------------------------------
# the grading window

def default_window_radius(alpha, quiver: Quiver):
    """Radius guaranteeing every connected cover support fits after translation.

    A connected support has graph diameter below the total dimension, and
    each arrow shifts the grade by at most the sup-norm of its shift.
    """
    total = sum(int(x) for x in alpha.values())
    wmax = max((abs(x) for a in quiver.arrows for x in a.shift), default=0)
    return max(1, total * max(1, wmax)) if quiver.aux_rank else 0


def covering_arrows(quiver: Quiver, points):
    """The covering arrows with both ends among points, a sequence of
    distinct covering-quiver points, as ((arrow id, source grade), source
    position, target position) triples: arrow by arrow, sources in point
    order, the order of the arrows enumerate_covers carries."""
    index, out = {p: i for i, p in enumerate(points)}, []
    for a in quiver.arrows:
        for i, (v, chi) in enumerate(points):
            j = index.get((a.tgt, tuple(map(operator.add, chi, a.shift)))) if v == a.src else None
            if j is not None:
                out.append(((a.id, chi), i, j))
    return out


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


def enumerate_covers(quiver: Quiver, alpha, radius):
    """(number of covers of alpha with connected support inside the window,
    the candidates among them as (cover, dimension, arrows) triples sorted
    by cover, each cover its sorted ((vertex, grade), n) tuple).

    arrows lists the covering arrows of the cover's support as
    covering_arrows does: ((arrow id, source grade), source position,
    target position) triples, arrow by arrow, sources in point order; a
    loop of zero shift once, parallel arrows of one shift once each.  The
    search collects them as it grows each support: a point added brings
    the arrows between it and the points already present.

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

    arcs = {}  # vertex -> (arrow index, neighbour, grade step, whether the arrow leaves the vertex)
    for k, a in enumerate(quiver.arrows):
        if alpha[a.src] > 0 and alpha[a.tgt] > 0:
            arcs.setdefault(a.src, []).append((k, a.tgt, a.shift, True))
            arcs.setdefault(a.tgt, []).append((k, a.src, tuple(-x for x in a.shift), False))

    def joins(point, present):
        """The covering arrows between point and the points present, as
        (arrow index, source, target) triples, and the neighbours of point
        not present."""
        links, near = [], set()
        for k, u, w, leaves in arcs.get(point[0], ()):
            other = (u, tuple(map(operator.add, point[1], w)))
            if other in present:
                links.append((k, point, other) if leaves else (k, other, point))
            elif other != point:
                near.add(other)
            elif leaves:  # a loop of zero shift, met once from each end
                links.append((k, point, point))
        return links, near

    span = 2 * radius
    v0 = min(supp)
    root = (v0, (0,) * quiver.aux_rank)
    supports, work = [], 0  # (points, covering arrows) of each support; grow calls plus covers counted

    def spend(n):
        nonlocal work
        work += n
        if work > MAX_COVERS:
            raise TooLarge("cover enumeration exceeds the guard of %d support searches and covers"
                           % MAX_COVERS)

    def grow(current, links, counts, lo, hi, candidates, banned):
        spend(1)
        if all(counts.get(v, 0) >= 1 for v in supp):
            supports.append((current, links))
        if len(current) >= total:
            return
        banned = set(banned)
        for pos, u in enumerate(candidates):
            lo2 = tuple(map(min, lo, u[1]))
            hi2 = tuple(map(max, hi, u[1]))
            if counts.get(u[0], 0) >= alpha[u[0]] or any(h - l > span for l, h in zip(lo2, hi2)):
                banned.add(u)
                continue
            new, near = joins(u, current)
            seen = set(candidates[pos + 1:]) | banned
            extra = sorted(w for w in near if w > root and w not in seen)
            grow(current | {u}, links + new, {**counts, u[0]: counts.get(u[0], 0) + 1}, lo2, hi2,
                 candidates[pos + 1:] + extra, banned)
            banned.add(u)

    links, near = joins(root, ())
    grow(frozenset([root]), links, {v0: 1}, root[1], root[1], sorted(w for w in near if w > root), set())

    count, kept = 0, []
    for sup, links in supports:
        pts = sorted(sup)
        index = {p: i for i, p in enumerate(pts)}
        # an arrow index and a source position name one covering arrow
        arrows = tuple(((quiver.arrows[k].id, pts[i][1]), i, j)
                       for k, i, j in sorted((k, index[p], index[q]) for k, p, q in links))
        # sorted points run vertex by vertex, so one composition per vertex fills b
        runs = itertools.groupby(v for v, _ in pts)
        choices = [positive_compositions(alpha[v], len(list(g))) for v, g in runs]
        covers = math.prod(map(len, choices))
        spend(covers)
        count += covers
        for combo in itertools.product(*choices):
            b = [n for comp in combo for n in comp]
            dim = sum(b[i] * b[j] for _, i, j in arrows) - sum(n * n for n in b) + 1
            if dim >= 0:
                kept.append((tuple(zip(pts, b)), dim, arrows))
    # covers are distinct, so this sorts by cover
    return count, sorted(kept)
