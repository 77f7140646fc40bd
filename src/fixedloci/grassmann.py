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

from .common import positive_compositions
from .errors import ValidationError


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


def classify(problem: GrassmannProblem):
    """All fixed components, as products of Grassmannian factors.

    The weights are sorted internally, so any ordering of the input weight
    list gives the same answer.
    """
    blocks = problem.blocks()
    k = len(blocks)
    q = [b[1] for b in blocks]
    m = problem.m
    out = []
    for l in range(1, min(m, k) + 1):
        for t in positive_compositions(m, l):
            for j_seq in itertools.combinations(range(1, k + 1), l):
                if any(t[i] > q[j_seq[i] - 1] for i in range(l)):
                    continue
                s_seq = tuple(itertools.accumulate((0,) + t))
                factors = tuple((t[i], q[j_seq[i] - 1]) for i in range(l))
                dim = sum(ti * (qi - ti) for ti, qi in factors)
                out.append(GrassmannComponent(s_seq, j_seq, factors, dim))
    out.sort(key=lambda c: (c.l, c.s_seq, c.j_seq))
    return out
