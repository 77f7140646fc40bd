"""Quivers, graded covers on the covering quiver, and fixed-component data.

The covering quiver lives on Q_0 x Z^aux with an arrow (a, chi) from
(src a, chi) to (tgt a, chi + w_a) for the chosen arrow grading w.  A cover
of the dimension vector alpha is a dimension vector on the covering quiver
whose column sums reproduce alpha; covers are enumerated with connected
support, one representative per translation class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .common import positive_compositions
from .errors import DimMismatch, ValidationError, ZeroDimensionVector


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
                raise DimMismatch("arrow weight %r has wrong rank" % (w,))
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


class CoverVector:
    """Dimension vector on the covering quiver: (vertex, chi) -> positive int."""

    __slots__ = ("items",)

    def __init__(self, mapping):
        items = []
        for (v, chi), n in mapping.items() if isinstance(mapping, dict) else mapping:
            n = int(n)
            if n <= 0:
                raise ValidationError("cover entries must be positive")
            items.append(((v, tuple(int(x) for x in chi)), n))
        self.items = tuple(sorted(items))

    def as_dict(self):
        return dict(self.items)

    def support(self):
        return tuple(k for k, _ in self.items)

    def total(self):
        return sum(n for _, n in self.items)

    def __eq__(self, other):
        return isinstance(other, CoverVector) and self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def __repr__(self):
        return "CoverVector(%r)" % (list(self.items),)


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


def _covering_arrows(quiver: Quiver, weights: ArrowWeights, beta: CoverVector):
    """(arrow, source point, target point) for each covering arrow with both
    ends in the support of beta: arrow by arrow, sources in sorted order."""
    pts = beta.as_dict()
    for a in quiver.arrows:
        w = weights.of(a.id)
        for p in pts:
            if p[0] == a.src:
                q = (a.tgt, tuple(c + x for c, x in zip(p[1], w)))
                if q in pts:
                    yield a, p, q


def component_dimension(quiver: Quiver, weights: ArrowWeights, beta: CoverVector) -> int:
    """dim of the component a cover describes, assuming a free quotient:
    (arrow-block sizes) - (sum of squares) + 1."""
    if not beta.items:
        raise ZeroDimensionVector("cover is identically zero")
    b = beta.as_dict()
    blocks = sum(b[p] * b[q] for _, p, q in _covering_arrows(quiver, weights, beta))
    return blocks - sum(n * n for n in b.values()) + 1


def support_quiver(quiver: Quiver, weights: ArrowWeights, beta: CoverVector):
    """The finite quiver on the support of a cover: (support quiver, dims dict)."""
    arrows = tuple(Arrow((a.id, p[1]), p, q) for a, p, q in _covering_arrows(quiver, weights, beta))
    return Quiver(beta.support(), arrows), beta.as_dict()


# ---------------------------------------------------------------------------
# enumeration of covers up to translation

def enumerate_covers(quiver: Quiver, weights: ArrowWeights, alpha, radius):
    """All covers of alpha with connected support inside the window.

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
    """
    radius = int(radius)
    if radius < 0:
        raise ValidationError("window radius must be >= 0, got %d" % radius)
    alpha = {v: int(alpha.get(v, 0)) for v in quiver.vertices}
    supp = [v for v in quiver.vertices if alpha[v] > 0]
    if not supp:
        return [CoverVector({})]
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
    supports = []

    def grow(current, counts, lo, hi, candidates, banned):
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
            counts2 = dict(counts)
            counts2[u[0]] = counts2.get(u[0], 0) + 1
            seenc = set(candidates[pos + 1:]) | banned | nxt
            extra = []
            for w in neighbors(u):
                if w > root and w not in seenc:
                    extra.append(w)
                    seenc.add(w)
            grow(nxt, counts2, lo2, hi2, candidates[pos + 1:] + sorted(extra), banned)
            banned.add(u)

    start = sorted({w for w in neighbors(root) if w > root})
    grow(frozenset([root]), {v0: 1}, root[1], root[1], start, set())

    covers = []
    for sup in supports:
        per_vertex = {}
        for v, chi in sorted(sup):
            per_vertex.setdefault(v, []).append(chi)
        choices = [[(v, pts, c) for c in positive_compositions(alpha[v], len(pts))]
                   for v, pts in per_vertex.items()]
        for combo in itertools.product(*choices):
            covers.append(CoverVector({(v, chi): n for v, pts, comp in combo
                                       for chi, n in zip(pts, comp)}))
    return sorted(covers, key=lambda c: c.items)
