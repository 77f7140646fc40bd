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
from .linalg import IntMatrix


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

    def vertex_pos(self, v):
        return self.vertices.index(v)


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

    def translate(self, xi):
        return CoverVector({(v, tuple(c + x for c, x in zip(chi, xi))): n for (v, chi), n in self.items})

    def canonical(self):
        """Shift so the lex-least support point sits at grade zero.

        Translation acts freely on nonempty supports, so this representative
        is unique in the translation class.
        """
        if not self.items:
            return self
        (_, chi0), _ = min(self.items)
        return self.translate(tuple(-c for c in chi0))

    def is_cover_of(self, alpha):
        totals = {}
        for (v, _), n in self.items:
            totals[v] = totals.get(v, 0) + n
        return all(totals.get(v, 0) == int(alpha.get(v, 0)) for v in set(alpha) | set(totals))

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
    """Graded stability on covering-quiver points: the vertex value, per grade."""
    return {(v, chi): int(theta[v]) for (v, chi) in points}


def component_dimension(quiver: Quiver, weights: ArrowWeights, beta: CoverVector) -> int:
    """dim of the component a cover describes, assuming a free quotient:
    (arrow-block sizes) - (sum of squares) + 1."""
    if not beta.items:
        raise ZeroDimensionVector("cover is identically zero")
    b = beta.as_dict()
    total = 0
    for a in quiver.arrows:
        w = weights.of(a.id)
        for (v, chi), n in beta.items:
            if v != a.src:
                continue
            tgt = (a.tgt, tuple(c + x for c, x in zip(chi, w)))
            total += n * b.get(tgt, 0)
    squares = sum(n * n for _, n in beta.items)
    return total - squares + 1


def support_quiver(quiver: Quiver, weights: ArrowWeights, beta: CoverVector):
    """The finite quiver on the support of a cover, with its dims and grades.

    Returns (support quiver, dims dict, grade dict mapping point -> base vertex).
    """
    pts = set(beta.support())
    arrows = []
    for a in quiver.arrows:
        w = weights.of(a.id)
        for (v, chi) in sorted(pts):
            if v != a.src:
                continue
            tgt = (a.tgt, tuple(c + x for c, x in zip(chi, w)))
            if tgt in pts:
                arrows.append(Arrow((a.id, chi), (v, chi), tgt))
    sq = Quiver(tuple(sorted(pts)), tuple(arrows))
    dims = {k: n for k, n in beta.items}
    base = {p: p[0] for p in pts}
    return sq, dims, base


def support_is_connected(quiver: Quiver, weights: ArrowWeights, beta: CoverVector) -> bool:
    pts = list(beta.support())
    if not pts:
        return True
    sq, _, _ = support_quiver(quiver, weights, beta)
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
# enumeration of covers up to translation

def enumerate_covers(quiver: Quiver, weights: ArrowWeights, alpha, radius):
    """All covers of alpha with connected support inside the window.

    The window of radius R admits every support that spans at most 2R in
    each grade coordinate, equivalently one with a translate inside
    [-R, R]^aux.  One canonical representative per translation class, in
    deterministic sorted order.  Points are addressed as (vertex position,
    grade) while enumerating; the caller sees vertex ids again.

    Every support covers v0, the first vertex with alpha > 0, so its
    lex-least point is (v0, chi) and its translate by -chi has lex-least
    point (v0, 0).  One search from that root, adding only points above it,
    therefore meets each class exactly once.  The span bound is monotone
    under adding points, so a candidate that breaks it is banned for the
    rest of its branch without losing a class.
    """
    radius = int(radius)
    if radius < 0:
        raise ValidationError("window radius must be >= 0, got %d" % radius)
    alpha = {v: int(alpha.get(v, 0)) for v in quiver.vertices}
    supp_pos = [i for i, v in enumerate(quiver.vertices) if alpha[v] > 0]
    if not supp_pos:
        return [CoverVector({})]
    total = sum(alpha.values())
    limits = {i: alpha[quiver.vertices[i]] for i in range(len(quiver.vertices))}

    out_arcs = {}
    in_arcs = {}
    for a in quiver.arrows:
        w = weights.of(a.id)
        out_arcs.setdefault(quiver.vertex_pos(a.src), []).append((quiver.vertex_pos(a.tgt), w))
        in_arcs.setdefault(quiver.vertex_pos(a.tgt), []).append((quiver.vertex_pos(a.src), w))

    def neighbors(point):
        v, chi = point
        for u, w in out_arcs.get(v, ()):  # forward along arrows
            if limits.get(u, 0) > 0:
                yield (u, tuple(c + x for c, x in zip(chi, w)))
        for u, w in in_arcs.get(v, ()):  # backward along arrows
            if limits.get(u, 0) > 0:
                yield (u, tuple(c - x for c, x in zip(chi, w)))

    span = 2 * radius
    v0 = min(supp_pos)
    root = (v0, (0,) * weights.aux_rank)
    supports = set()

    def grow(current, counts, lo, hi, candidates, banned):
        if all(counts.get(i, 0) >= 1 for i in supp_pos):
            supports.add(current)
        if len(current) >= total:
            return
        banned = set(banned)
        for pos, u in enumerate(candidates):
            lo2 = tuple(map(min, lo, u[1]))
            hi2 = tuple(map(max, hi, u[1]))
            if counts.get(u[0], 0) >= limits[u[0]] or any(h - l > span for l, h in zip(lo2, hi2)):
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

    covers = set()
    for sup in supports:
        per_vertex = {}
        for v, chi in sup:
            per_vertex.setdefault(v, []).append(chi)
        choices = []
        keys = sorted(per_vertex)
        for v in keys:
            pts = sorted(per_vertex[v])
            comps = positive_compositions(limits[v], len(pts))
            choices.append([(pts, c) for c in comps])
        for combo in itertools.product(*choices):
            mapping = {}
            for (pts, comp), v in zip(combo, keys):
                for chi, n in zip(pts, comp):
                    mapping[(quiver.vertices[v], chi)] = n
            covers.add(CoverVector(mapping).canonical())
    return sorted(covers, key=lambda c: c.items)


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
