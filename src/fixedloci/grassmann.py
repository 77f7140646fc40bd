"""Closed-form classifier for circle actions on Grassmannians.

The Grassmannian of (n-m)-planes in C^n arises as the quotient of full-rank
m x n matrices by GL_m.  A one-parameter scaling of the columns with weight
blocks of sizes q_1, ..., q_k has fixed components given by products of
smaller Grassmannians: pick how the m rows split into consecutive blocks
t_1, ..., t_l and which weight block each row block pairs with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import TooLarge, ValidationError

# A component with l factors renders in 65 to 78 bytes of JSON per cell of
# l + 2 (measured; more for longer numbers).  At this many cells the largest
# report measured is 55 MB, below the 58 MB the toric caps admit.
MAX_REPORT_CELLS = 700_000


@dataclass(frozen=True)
class GrassmannProblem:
    m: int
    n: int
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if not (1 <= self.m <= self.n):
            raise ValidationError("need 1 <= m <= n, got m=%d n=%d" % (self.m, self.n))
        if len(self.weights) != self.n:
            raise ValidationError("expected %d weights, got %d" % (self.n, len(self.weights)))

    def blocks(self):
        """Multiplicities q_1..q_k of the distinct weights, sorted descending."""
        ws = sorted(self.weights, reverse=True)
        out = []
        for w in ws:
            if out and out[-1][0] == w:
                out[-1][1] += 1
            else:
                out.append([w, 1])
        return tuple((w, q) for w, q in out)


@dataclass(frozen=True)
class GrassmannComponent:
    s_seq: tuple    # 0 = s_0 < ... < s_l = m
    j_seq: tuple    # 1 <= j_1 < ... < j_l <= k  (1-based block indices)
    factors: tuple  # (t_i, q_{j_i}) pairs
    dimension: int

    @property
    def l(self):
        return len(self.j_seq)


def component_count(q, m):
    """The number of fixed components for blocks of sizes q and m rows: the
    coefficient of x^m in prod_j (1 + x + ... + x^q_j)."""
    ways = [1] + [0] * m
    for qj in q:
        acc = [0, *itertools.accumulate(ways)]
        ways = [acc[s + 1] - acc[max(0, s - qj)] for s in range(m + 1)]
    return ways[m]


def classify(problem: GrassmannProblem):
    """All fixed components, as products of Grassmannian factors.

    The weights are sorted internally, so any ordering of the input weight
    list gives the same answer.  Block j takes 0 to q_j rows, at least those
    the later blocks cannot hold, so every partial choice ends in a component.
    """
    q = [b[1] for b in problem.blocks()]
    m = problem.m
    cells = min(m, len(q)) + 2  # per component, for its l <= min(m, k) factors
    # the coefficients are symmetric and unimodal, so from x^1 to x^(n-1) each is >= k
    if (m < problem.n and len(q) * cells > MAX_REPORT_CELLS
            or component_count(q, m) * cells > MAX_REPORT_CELLS):
        raise TooLarge("m=%d, n=%d: fixed components of up to %d factors each need more than %d "
                       "report cells" % (m, problem.n, cells - 2, MAX_REPORT_CELLS))
    # a partial choice is (rows left, its last nonzero block as (t_j, j, the one before))
    done, partial, rest = [], [(m, None)], sum(q)
    for j, qj in enumerate(q, 1):
        rest -= qj  # the rows the blocks after j can take
        grown = []
        for left, last in partial:
            for tj in range(max(0, left - rest), min(qj, left) + 1):
                if tj < left:
                    grown.append((left - tj, (tj, j, last)) if tj else (left, last))
                else:
                    done.append((tj, j, last))
        partial = grown
    out = []
    for last in done:
        chain = []
        while last:
            chain.append(last[:2])
            last = last[2]
        t, j_seq = zip(*reversed(chain))
        factors = tuple((ti, q[j - 1]) for ti, j in zip(t, j_seq))
        dim = sum(ti * (qi - ti) for ti, qi in factors)
        out.append(GrassmannComponent(tuple(itertools.accumulate((0,) + t)), j_seq, factors, dim))
    out.sort(key=lambda c: (c.l, c.s_seq, c.j_seq))
    return out
