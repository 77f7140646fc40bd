import pytest

from fixedloci.hmtorus import WeightItem, WeightedAction
from fixedloci.quiver import Arrow, Quiver


def hirzebruch_action(d):
    """Rank-2 torus on C^4 with weights (1,0)^2, (0,1), (d,1) and theta (d+1,1)."""
    return WeightedAction(
        2, 0,
        (WeightItem((1, 0), mult=2), WeightItem((0, 1)), WeightItem((d, 1))),
        (d + 1, 1),
    )


PAPER_SECTION = ((1, 0), (0, 0), (0, 1), (0, 0))


def no_lp(*args):
    """Patched over simplex.solve_nonneg where no LP may run."""
    raise AssertionError("an LP ran")


def kronecker3():
    Q = Quiver.full(("1", "2"), [(x, "1", "2") for x in "abc"])
    alpha = {"1": 2, "2": 3}
    theta = {"1": -3, "2": 2}
    return Q, alpha, theta


def ungraded(Q):
    """Q under the grading of rank 0, where no arrow moves the grade."""
    return Quiver(Q.vertices, tuple(Arrow(a.id, a.src, a.tgt, ()) for a in Q.arrows), 0)


@pytest.fixture
def hirz2():
    return hirzebruch_action(2)
