import itertools
import math
import random

import pytest

from fixedloci.errors import ValidationError
from fixedloci.grassmann import GrassmannProblem, classify


def oracle_components(m, n, weights):
    """Independent enumeration via fixed-subspace splittings.

    A subspace fixed by the weight scaling splits along the weight blocks;
    components of the fixed locus correspond to splittings (d_j) of n - m
    with 0 <= d_j <= q_j.  Translate each splitting into the classifier's
    (j_seq, t_seq) data.
    """
    q = []
    for w in sorted(weights, reverse=True):
        if q and q[-1][0] == w:
            q[-1][1] += 1
        else:
            q.append([w, 1])
    q = [b for _, b in q]
    k = len(q)
    target = n - m
    out = set()
    for d in itertools.product(*(range(0, qi + 1) for qi in q)):
        if sum(d) != target:
            continue
        j_seq = tuple(j + 1 for j in range(k) if d[j] < q[j])
        t_seq = tuple(q[j - 1] - d[j - 1] for j in j_seq)
        dim = sum(dj * (qj - dj) for dj, qj in zip(d, q))
        out.add((j_seq, t_seq, dim))
    return out


def classifier_data(problem):
    return {
        (c.j_seq, tuple(t for t, _ in c.factors), c.dimension)
        for c in classify(problem)
    }


def test_example_p2():
    P = GrassmannProblem(2, 3, (1, 1, 0))
    comps = classify(P)
    assert len(comps) == 2
    data = {(c.factors, c.dimension) for c in comps}
    assert (((2, 2),), 0) in data          # a point
    assert (((1, 2), (1, 1)), 1) in data   # a projective line


def test_all_weights_equal():
    P = GrassmannProblem(2, 4, (3, 3, 3, 3))
    comps = classify(P)
    assert len(comps) == 1
    assert comps[0].factors == ((2, 4),)
    assert comps[0].dimension == 4


def test_distinct_weights_counts():
    for m, n in [(1, 3), (2, 4), (2, 5), (3, 5)]:
        P = GrassmannProblem(m, n, tuple(range(n, 0, -1)))
        comps = classify(P)
        assert len(comps) == math.comb(n, m)
        assert all(c.dimension == 0 for c in comps)


def test_m1_one_component_per_block():
    P = GrassmannProblem(1, 5, (2, 2, 1, 0, 0))
    assert len(classify(P)) == 3


def test_m_equals_n_single_block():
    P = GrassmannProblem(3, 3, (7, 7, 7))
    comps = classify(P)
    assert len(comps) == 1 and comps[0].dimension == 0


def test_row_sums():
    P = GrassmannProblem(3, 5, (2, 1, 1, 0, 0))
    for c in classify(P):
        assert sum(t for t, _ in c.factors) == 3
        for t, q in c.factors:
            assert 1 <= t <= q


def test_weight_permutation_invariance():
    rng = random.Random(97)
    base = (2, 0, 1, 1, 0)
    P = GrassmannProblem(2, 5, base)
    ref = classifier_data(P)
    for _ in range(10):
        shuffled = list(base)
        rng.shuffle(shuffled)
        assert classifier_data(GrassmannProblem(2, 5, tuple(shuffled))) == ref


def test_against_oracle_small():
    for m in range(1, 4):
        for n in range(m, 6):
            for weights in itertools.combinations_with_replacement((0, 1, 2), n):
                P = GrassmannProblem(m, n, weights)
                assert classifier_data(P) == oracle_components(m, n, weights)


def test_validation():
    with pytest.raises(ValidationError):
        GrassmannProblem(4, 3, (1, 1, 1))
    with pytest.raises(ValidationError):
        GrassmannProblem(2, 3, (1, 1))
