"""Seeded problem sets for the four benchmark workloads.

Every workload is a list of `Problem`s; the same seed always gives the same
list.  A problem carries the JSON document the CLI reads, the extra CLI
arguments, and what the answer checks expect of its report.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("toric", "queries", "quiver-enum", "quiver-certify")


@dataclass(frozen=True)
class Problem:
    id: str
    command: str               # CLI subcommand: toric, quiver, grassmann or kempf
    data: dict                 # the problem file's JSON document
    args: tuple = ()           # extra CLI arguments after the file name
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# toric: the ROADMAP ladder, folded and unfolded

def _unit(i, r):
    return [int(i == j) for j in range(r)]


def _product_of_projective_spaces(dims, folded):
    """P^a1 x ... x P^ak as a rank-k torus quotient of C^(sum(a_i+1)).

    Folded: one weight item per factor, with multiplicity a_i+1.  Unfolded:
    one item per coordinate, so no two supports share a stability memo key.
    """
    r = len(dims)
    if folded:
        weights = [{"chi": _unit(i, r), "mult": a + 1} for i, a in enumerate(dims)]
    else:
        weights = [{"chi": _unit(i, r)} for i, a in enumerate(dims) for _ in range(a + 1)]
    expect = {
        "fixed_points": math.prod(a + 1 for a in dims),
        "cones": math.prod(2 ** (a + 1) - 1 for a in dims),
        "variety": "x".join("P%d" % a for a in dims),
    }
    return {"kind": "toric", "g_rank": r, "weights": weights, "theta": [1] * r}, expect


def _hirzebruch(d):
    data = {
        "kind": "toric",
        "g_rank": 2,
        "weights": [{"chi": [1, 0], "mult": 2}, {"chi": [0, 1]}, {"chi": [d, 1]}],
        "theta": [d + 1, 1],
    }
    return data, {"fixed_points": 4, "cones": 9, "variety": "H%d" % d}


def _shuffle_weight_items(data, rng):
    """Permute the weight items, carrying the optional section rows along."""
    weights = data["weights"]
    order = list(range(len(weights)))
    rng.shuffle(order)
    out = dict(data, weights=[weights[i] for i in order])
    section = data.get("options", {}).get("section")
    if section is not None:
        starts, pos = [], 0
        for w in weights:
            starts.append(pos)
            pos += w.get("mult", 1)
        rows = []
        for i in order:
            rows += section[starts[i]:starts[i] + weights[i].get("mult", 1)]
        out["options"] = dict(data["options"], section=rows)
    return out


def toric_problems(seed, root, small=False):
    rungs = []
    shipped = json.loads((root / "problems" / "hirzebruch_d2.json").read_text())
    rungs.append(("hirzebruch_d2", shipped, {"fixed_points": 4, "cones": 9, "variety": "H2"}))
    for d in (1, 2, 5, 20):
        rungs.append(("H%d" % d,) + _hirzebruch(d))
    if small:
        folded, unfolded = [[1, 1], [1, 2], [1, 1, 1]], [[1, 1], [1, 2]]
    else:
        folded = [[1] * k for k in range(3, 7)]
        folded += [[a, b] for a in range(1, 5) for b in range(a, 5)] + [[2, 2, 2]]
        unfolded = [[1] * 4, [2, 3], [3, 4], [2, 2, 2]]
    for dims in folded:
        rungs.append(("folded " + "x".join("P%d" % a for a in dims),)
                     + _product_of_projective_spaces(dims, True))
    for dims in unfolded:
        rungs.append(("unfolded " + "x".join("P%d" % a for a in dims),)
                     + _product_of_projective_spaces(dims, False))
    out = []
    for pid, data, expect in rungs:
        rng = random.Random("toric:%d:%s" % (seed, pid))
        out.append(Problem(pid, "toric", _shuffle_weight_items(data, rng), (), expect))
    return out


# ---------------------------------------------------------------------------
# queries: many small kempf problems, grassmann problems, the shipped two

def _kempf_problem(rng, r, n):
    items = [{"chi": [rng.randint(-2, 2) for _ in range(r)]} for _ in range(n)]
    theta = [rng.randint(-3, 3) for _ in range(r)]
    support = sorted(rng.sample(range(n), rng.randint(1, n)))
    return {
        "kind": "weights",
        "g_rank": r,
        "items": items,
        "theta": theta,
        "support": [[s, 0] for s in support],
    }


def _grassmann_problem(rng):
    m = rng.randint(1, 4)
    n = rng.randint(m, m + 4)
    return {"kind": "grassmann", "m": m, "n": n, "weights": [rng.randint(0, 3) for _ in range(n)]}


def _move_kempf(data, rng):
    """The same problem in other coordinates: one signed permutation of the
    coordinates applied to every character and to theta, and the items
    permuted.  It keeps the answers, up to that change of coordinates, and
    the Euclidean norm the Kempf 1-PS minimises, so the cost stays the same."""
    r = data["g_rank"]
    perm = list(range(r))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(r)]

    def move(v):
        return [signs[j] * v[perm[j]] for j in range(r)]

    order = list(range(len(data["items"])))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    return dict(data, items=[{"chi": move(data["items"][old]["chi"])} for old in order],
                theta=move(data["theta"]),
                support=sorted([new_index[i], c] for i, c in data["support"]))


def queries_problems(seed, root, small=False):
    n_kempf, n_grassmann = (6, 3) if small else (240, 40)
    # The problems are drawn once, from a fixed generator; the seed only
    # moves each into other coordinates and shuffles their order.  Fresh
    # random problems per seed made a pass's cost differ by about 5% from
    # seed to seed, which would hide a change of that size.
    base = random.Random("queries")
    # ranks and weight counts are stratified
    kempf = [_kempf_problem(base, 2 + i % 3, 5 + i // 3 % 3) for i in range(n_kempf)]
    grassmann = [_grassmann_problem(base) for _ in range(n_grassmann)]
    rng = random.Random("queries:%d" % seed)
    out = [Problem("kempf_halfplane", "kempf",
                   json.loads((root / "problems" / "kempf_halfplane.json").read_text())),
           Problem("grassmann_p2", "grassmann",
                   json.loads((root / "problems" / "grassmann_p2.json").read_text()))]
    out += [Problem("kempf%03d" % i, "kempf", _move_kempf(data, rng)) for i, data in enumerate(kempf)]
    out += [Problem("grassmann%03d" % i, "grassmann", dict(data, weights=rng.sample(data["weights"], data["n"])))
            for i, data in enumerate(grassmann)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# quiver: Kronecker ladders

def kronecker(n, a, b):
    """K_n(a, b): n arrows 1 -> 2, dimension vector (a, b), theta = (-b, a)."""
    return {
        "kind": "quiver",
        "vertices": ["1", "2"],
        "arrows": [{"id": "a%d" % i, "src": "1", "tgt": "2"} for i in range(n)],
        "alpha": {"1": a, "2": b},
        "theta": {"1": -b, "2": a},
    }


def _quiver_problem(pid, data, args, seed, expected):
    return Problem(pid, "quiver", data, tuple(args) + ("--seed", str(seed)),
                   {"quiver": expected.get(pid)})


def quiver_enum_problems(seed, root, expected, small=False):
    ladder = [(3, 1, 2), (3, 2, 3)] if small else [(3, 1, 2), (3, 2, 3), (4, 1, 3), (3, 2, 4), (5, 1, 2)]
    out = [_quiver_problem("K%d(%d,%d)" % nab, kronecker(*nab), (), seed, expected) for nab in ladder]
    random.Random("quiver-enum:%d" % seed).shuffle(out)
    return out


def quiver_certify_problems(seed, root, expected, small=False):
    fixed = ("--prime", "5", "--trials", "200")
    out = [_quiver_problem("kronecker3", json.loads((root / "problems" / "kronecker3.json").read_text()),
                           fixed, seed, expected)]
    if not small:
        out += [_quiver_problem("K3(3,%d) window 2" % b, kronecker(3, 3, b),
                                ("--window", "2") + fixed, seed, expected) for b in (4, 5)]
    random.Random("quiver-certify:%d" % seed).shuffle(out)
    return out


def problems_for(workload, seed, root, bench_dir, small=False):
    root = Path(root)
    if workload == "toric":
        return toric_problems(seed, root, small)
    if workload == "queries":
        return queries_problems(seed, root, small)
    expected = json.loads((Path(bench_dir) / "expected_quiver.json").read_text())
    if workload == "quiver-enum":
        return quiver_enum_problems(seed, root, expected, small)
    if workload == "quiver-certify":
        return quiver_certify_problems(seed, root, expected, small)
    raise ValueError("unknown workload %r" % workload)


def warmup_problems(problems):
    """One tiny problem per subcommand the workload uses, run before timing."""
    tiny = {
        "toric": Problem("warmup toric", "toric", _hirzebruch(1)[0]),
        "quiver": Problem("warmup quiver", "quiver", kronecker(3, 1, 1)),
        "kempf": Problem("warmup kempf", "kempf", {"kind": "weights", "g_rank": 2,
                                                   "items": [{"chi": [1, 0]}], "theta": [1, 1]}),
        "grassmann": Problem("warmup grassmann", "grassmann",
                             {"kind": "grassmann", "m": 2, "n": 3, "weights": [1, 1, 0]}),
    }
    return [tiny[c] for c in sorted({p.command for p in problems})]
