"""Cross-pipeline oracles: two pipelines of the program computing one variety.

A quiver with dimension vector 1 at every vertex has a toric moduli space
(Hille, *Toric quiver varieties*, 1998): the torus of vertex rescalings,
vertex 0's factor dropped, acts on one coordinate per arrow with weight
e_tgt - e_src, and the toric theta is the quiver theta on vertices 1..n-1.
Its fixed points are then the stable components the quiver pipeline finds.

The Grassmannian Gr(m, n) is the Kronecker moduli space M(K_n, (1, m)) at
theta = (-m, 1): n vectors spanning C^m up to GL_m.  A circle scaling the n
columns with weights w grades the n arrows alike, so the quiver pipeline's
stable components are the closed-form products of Grassmannians.
"""

import json
import random

from fixedloci.cli import main
from fixedloci.grassmann import GrassmannProblem, classify
from fixedloci.hmtorus import WeightItem, WeightedAction
from fixedloci.toric import toric_context


def _run(args, capsys):
    code = main(args)
    return code, capsys.readouterr()


def test_thin_quiver_moduli_are_toric(tmp_path, capsys):
    rng = random.Random(97)
    nonempty = walls = 0
    for case in range(300):
        n = rng.randint(2, 5)
        verts = ["v%d" % i for i in range(n)]
        ends = [rng.sample(range(n), 2) for _ in range(rng.randint(1, n + 3))]
        theta = [rng.randint(-3, 3) for _ in range(n - 1)]
        quiver = {"kind": "quiver", "vertices": verts,
                  "arrows": [{"id": "a%d" % k, "src": verts[s], "tgt": verts[t]}
                             for k, (s, t) in enumerate(ends)],
                  "alpha": {v: 1 for v in verts},
                  "theta": dict(zip(verts, [-sum(theta)] + theta))}
        weights = [[int(j == t) - int(j == s) for j in range(1, n)] for s, t in ends]
        toric_problem = {"kind": "toric", "g_rank": n - 1, "theta": theta,
                         "weights": [{"chi": w} for w in weights]}
        fq, ft = tmp_path / "q.json", tmp_path / "t.json"
        fq.write_text(json.dumps(quiver))
        ft.write_text(json.dumps(toric_problem))

        code, out = _run(["quiver", str(fq)], capsys)
        assert code == 0
        stable = sum(c["status"] == "NonemptyVerified" for c in json.loads(out.out)["components"])
        code, out = _run(["toric", str(ft)], capsys)
        if code == 2:
            assert out.err == "validation error: the stable locus is empty\n"
            assert stable == 0, quiver
            continue
        assert code == 0
        assert json.loads(out.out)["counts"]["fixed_points"] == stable, quiver
        if stable:
            nonempty += 1
            action = WeightedAction(n - 1, 0, tuple(WeightItem(w) for w in weights), tuple(theta))
            walls += len(toric_context(action).chambers) > 1
    # in 5 of the 94 nonempty cases theta lies on a wall between chambers; 4
    # more put theta on a hyperplane spanned by weights, but on no such wall
    assert (nonempty, walls) == (94, 5)


def test_grassmannians_are_kronecker_moduli(tmp_path, capsys):
    rng = random.Random(101)
    path = tmp_path / "k.json"
    split = 0
    for _ in range(150):
        n = rng.randint(1, 7)
        m = rng.randint(1, min(4, n))
        w = [rng.randint(-2, 2) for _ in range(n)]
        ids = ["a%d" % k for k in range(n)]
        path.write_text(json.dumps({
            "kind": "quiver", "vertices": ["s", "t"],
            "arrows": [{"id": a, "src": "s", "tgt": "t"} for a in ids],
            "alpha": {"s": 1, "t": m}, "theta": {"s": -m, "t": 1},
            "arrow_weights": {"aux_rank": 1, "weights": {a: [x] for a, x in zip(ids, w)}}}))
        code, out = _run(["quiver", str(path), "--trials", "0"], capsys)
        assert code == 0
        dims = sorted(c["dimension"] for c in json.loads(out.out)["components"]
                      if c["status"] == "NonemptyVerified")
        want = sorted(c.dimension for c in classify(GrassmannProblem(m, n, w)))
        assert dims == want, (m, n, w)
        split += len(want) > 1
    assert split > 50, split
