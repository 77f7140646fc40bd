"""Toric quotient pipeline for a torus acting on a vector space.

Given the weight data of a rank-r subtorus of the diagonal torus T acting on
C^m with stability character theta, this module checks the action once
(toric_context), then computes the toric fan of the quotient and the
residual-torus fixed points, and the bijection between fixed points and
morphisms rho from the residual torus back into the acting torus.

The fixed points are the stable bases: the r-subsets B of the weights with
det B != 0 and B^-1 theta > 0, which are exactly the stable supports of size
r.  toric_context finds them once, with one det and one solve per r-subset
of the distinct weights.  The fan comes from stable bases too, for every
theta.  A support is stable exactly when, for each of the 2r directions
d = +-e_i, it holds a stable basis of theta + eps d + eps^2 e_1 + ... +
eps^(r+1) e_r, eps a formal infinitesimal (lexicographic perturbation,
Charnes 1952).  No perturbed theta lies on a wall, so each lies in a chamber
whose fan has the complements of its stable bases as maximal cones
(Cox-Little-Schenck, Toric Varieties, section 14).  The fan for theta holds
the cones every one of these fans holds; its maximal cones are the maximal
meets of theirs, folded in one chamber at a time.  A generic theta, on no
hyperplane spanned by r-1 weights, has one chamber, and its stable bases are
the minimally stable supports.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import TooLarge, ValidationError
from .hmtorus import WeightedAction, is_stable_support
from .linalg import (
    cokernel_with_section,
    det,
    identity,
    matmul,
    primitive,
    rank,
    solve,
    solve_integral,
    unimodular_inverse,
)

MAX_ENUM_DIM = 16
# Past MAX_ENUM_DIM coordinates a theta is admitted under two caps, set by
# measurement to about the work admitted within it.  The basis scan makes one
# det and one solve for each of the C(d, r) r-subsets of the d distinct
# weights, and C(16, 8) is the most an input within MAX_ENUM_DIM can meet.
# The fan lists bases * 2^(m-r) faces for each chamber before dropping
# repeats; at 2^18 with no repeat (r = 0, m = 18) that is a 58 MB report,
# which the CLI writes in 1.5-2.1 s at a peak RSS of 248 MB (Python 3.11.7, 2 CPUs).
MAX_BASIS_SUBSETS = math.comb(MAX_ENUM_DIM, MAX_ENUM_DIM // 2)
MAX_FAN_FACES = 1 << 18


@dataclass(frozen=True)
class ToricFan:
    lattice_rank: int
    rays: tuple
    maximal_cones: tuple  # sorted tuples of ray indices, none inside another

    @functools.cached_property
    def cones(self):
        """Every face of a maximal cone, once each, sorted.  A depth-first
        walk extends a face only by a larger ray that shares a maximal cone
        with all of it, read off a bitmask per ray of the maximal cones that
        hold it; its preorder is sorted order."""
        holders, out = [0] * len(self.rays), []
        for k, top in enumerate(self.maximal_cones):
            for i in top:
                holders[i] |= 1 << k

        def walk(face, mask, start):  # mask: the maximal cones that hold face
            out.append(face)
            for i in range(start, len(holders)):
                if mask & holders[i]:
                    walk(face + (i,), mask & holders[i], i + 1)

        if self.maximal_cones:
            walk((), (1 << len(self.maximal_cones)) - 1, 0)
        return tuple(out)


@dataclass(frozen=True)
class FixedComponent:
    rho: tuple  # a morphism of tori on cocharacter lattices: r rows, m - r columns
    support: tuple  # sorted (item, copy) pairs carrying the weights of V_rho


@dataclass(frozen=True)
class ToricContext:
    """A checked action with its cokernel projection pi, the section c in
    use, `bases`, the sorted stable index bases of theta, and `chambers`,
    the sorted stable index bases of each chamber next to theta (one, the
    bases themselves, when theta is generic)."""

    action: WeightedAction
    pi: tuple
    section: tuple
    bases: tuple
    chambers: tuple


def _stable_bases(action: WeightedAction, weights):
    """The stable weight bases of each chamber next to theta, and of theta.

    weights holds the distinct weights, in index order.  Each r-subset B
    of them with det B != 0 gets one solve for
    lambda = B^-1 theta.  Perturbing theta along d = +-e_i adds
    eps B^-1 d + eps^2 B^-1 e_1 + ... to lambda, so lambda_j takes the sign
    of the first nonzero entry of (lambda_j, +-(B^-1)_ji, row j of B^-1),
    never 0 as the row is not.  A B with no lambda_j = 0 is therefore stable
    for every perturbed theta or for none, by lambda > 0, and only a B on a
    wall takes the r further solves for B^-1.  A support is stable when
    theta is inside the cone of its weights; near theta every perturbed
    theta is then inside too, in the cone of one of its bases, and
    conversely a form vanishing on theta and nonnegative on the cone would
    have to vanish on e_i and -e_i alike.  The bases stable for theta
    itself, the fixed points, are those of every chamber: lambda > 0.

    Returns the distinct chambers' bases, in the order d = e_1, -e_1, e_2,
    ..., and the stable bases of theta.
    """
    r = action.g_rank
    stable, walls = [], []
    for B in itertools.combinations(weights, r):
        cols = [[chi[i] for chi in B] for i in range(r)]
        if det(cols) == 0:
            continue
        lam, _ = solve(cols, action.theta)
        if 0 in lam:
            # the columns of B^-1, each times a positive integer
            inv = [solve(cols, e)[0] for e in identity(r)]
            walls.append((B, [(x, *(col[j] for col in inv)) for j, x in enumerate(lam)]))
        elif all(x > 0 for x in lam):
            stable.append(B)
    stable = tuple(stable)
    chambers = dict.fromkeys(
        stable + tuple(B for B, rows in walls
                       if all(next(x for x in (row[0], s * row[1 + i]) + row[1:] if x) > 0 for row in rows))
        for i in range(r) for s in (1, -1))
    return tuple(chambers) or (stable,), stable


def toric_context(action: WeightedAction, section: tuple | None = None) -> ToricContext:
    """The one entry point of the toric scans, after their checks.

    The checks run in order: the full support must be stable
    (ValidationError); past MAX_ENUM_DIM coordinates the basis scan and the
    fan's faces, summed over the chambers, must be within their caps
    (TooLarge); the weight inclusion must have a free cokernel, and a
    supplied section must split it (ValidationError).  Everything up to the
    caps is read off the items and their multiplicities, and the (item,
    copy) indices are built only after them.

    pi is (m-r) x m on cocharacter lattices; c is m x (m-r) with pi*c = id.
    A user-supplied section fixes the identification of the cokernel: its
    columns must complete the weight columns to a lattice basis, and pi is
    then the unique projection annihilating the weights and splitting c.
    """
    m, r = action.total_dim, action.g_rank
    # one index per item meets every distinct weight
    if not is_stable_support(action, [(s, 0) for s in range(len(action.items))]):
        raise ValidationError("the stable locus is empty")
    mults = {}  # each distinct weight's number of copies, in index order
    for it in action.items:
        mults[it.chi] = mults.get(it.chi, 0) + it.mult
    if m > MAX_ENUM_DIM and math.comb(len(mults), r) > MAX_BASIS_SUBSETS:
        raise TooLarge("basis scan over C(%d, %d) weight subsets refused" % (len(mults), r))
    weight_chambers, weight_bases = _stable_bases(action, mults)
    if m > MAX_ENUM_DIM:
        n_bases = sum(math.prod(mults[chi] for chi in B) for ws in weight_chambers for B in ws)
        # past the cap's bit length any n_bases >= 1 is refused, so no larger shift is made
        if n_bases << min(m - r, MAX_FAN_FACES.bit_length()) > MAX_FAN_FACES:
            raise TooLarge("fan of %d stable bases with 2^%d faces each refused" % (n_bases, m - r))
    idx = action.indices()
    copies = {chi: [] for chi in mults}
    for i in idx:
        copies[action.chi_of(i)].append(i)

    def index_bases(ws):
        # one index basis per choice of copies; sorted, they come in the order
        # of itertools.combinations(idx, r)
        return tuple(sorted(tuple(sorted(p)) for B in ws
                            for p in itertools.product(*(copies[chi] for chi in B))))

    bases = index_bases(weight_bases)
    chambers = tuple(bases if ws == weight_bases else index_bases(ws) for ws in weight_chambers)
    a = tuple(action.chi_of(i) for i in idx)
    pi, c = cokernel_with_section(a, r)
    if section is not None:
        if len(section) != m or any(len(row) != m - r for row in section):
            raise ValidationError("section must be %dx%d" % (m, m - r))
        inv = solve_integral([a[i] + section[i] for i in range(m)], identity(m))
        if inv is None:
            raise ValidationError("supplied section does not split the cokernel")
        pi = inv[r:]
        c = section
    return ToricContext(action, pi, c, bases, chambers)


def quotient_fan(ctx: ToricContext) -> ToricFan:
    """The toric fan of the stable quotient.

    Rays are the primitive images of the coordinate 1-PS basis under the
    cokernel projection; a subset spans a cone precisely when its complement
    is a stable support, that is, when it avoids some stable basis of each
    chamber next to theta.  A chamber's cones are the faces of the
    complements of its bases, and two such complexes meet in the faces of
    the meets F & G of their maximal sets.  So the fan starts from the
    complements of the first chamber's bases, each taking one rank test (a
    face of an independent set is independent), and folds each further
    chamber in, keeping the maximal meets.  A generic theta has one chamber
    and no fold.
    """
    action = ctx.action
    idx = frozenset(action.indices())
    ray_of = {i: primitive(tuple(row[action.flat[i]] for row in ctx.pi)) for i in idx}
    first, *others = ctx.chambers
    tops = [idx.difference(b) for b in first]
    for top in tops:
        if top and rank([ray_of[i] for i in top]) != len(top):
            raise AssertionError("fan cone is not simplicial; this is a bug")
    for bases in others:
        meets = sorted({top.difference(b) for top in tops for b in bases}, key=len, reverse=True)
        tops = []
        for _, group in itertools.groupby(meets, len):
            # a set lies only in strictly larger ones, all kept before its size
            tops += [s for s in group if not any(s < t for t in tops)]
    # The indices of a cone have distinct nonzero rays, so no cone loses a
    # ray to the map below.  Equal rays of i != j give a 1-PS y with
    # <chi_i, y> > 0 > <chi_j, y> and <chi_k, y> = 0 for every other k; on a
    # support missing both i and j, y and -y both have limits, so by
    # Hilbert-Mumford every stable support holds i or j.  Likewise a zero ray
    # lies in every stable support.
    rays = tuple(sorted({ray_of[i] for top in tops for i in top}))
    lookup = {v: n for n, v in enumerate(rays)}
    return ToricFan(len(ctx.pi), rays,
                    tuple(sorted({tuple(sorted(lookup[ray_of[i]] for i in top)) for top in tops})))


def s_rho(action: WeightedAction, rho, section):
    """Indices whose section character equals the weight pulled back by rho,
    the row chi * rho."""
    pulled_rows = matmul([it.chi for it in action.items], rho, action.total_dim - action.g_rank)
    out, flat = [], 0
    for s, (it, pulled) in enumerate(zip(action.items, pulled_rows)):
        out.extend((s, k) for k in range(it.mult) if section[flat + k] == pulled)
        flat += it.mult
    return frozenset(out)


def fixed_points_toric(ctx: ToricContext):
    """One zero-dimensional fixed component per stable basis, for any theta.

    A point is fixed when its T-orbit has the dimension r of its G-orbit,
    so its support has size r; a stable support of size r is a stable
    basis.  The context lists them in sorted order.  Its morphism is
    rho = A_S^-1 C_S, the weight rows of S inverted against its section
    rows.  The free action makes A_S unimodular (else ValidationError).
    Every choice of copies S of one weight basis B permutes the rows of
    A_B and C_S alike, and (PA)^-1 (PC) = A^-1 C, so A_B is checked and
    inverted once per weight basis.
    """
    action, c, flat = ctx.action, ctx.section, ctx.action.flat
    n_cols = action.total_dim - action.g_rank
    inverses = {}
    components = []
    for comb in ctx.bases:
        by_chi = sorted(comb, key=action.chi_of)
        key = tuple(action.chi_of(i) for i in by_chi)
        if key not in inverses:
            if abs(det(key)) != 1:
                # the sign is that of the rows in index order, as the basis is listed
                raise ValidationError("support weight matrix has determinant %s"
                                      % det([action.chi_of(i) for i in comb]))
            inverses[key] = unimodular_inverse(key)
        rho = matmul(inverses[key], [c[flat[i]] for i in by_chi], n_cols)
        assert s_rho(action, rho, c) == frozenset(comb), \
            "support of rho does not recover the stable subset"
        components.append(FixedComponent(rho, comb))
    return components
