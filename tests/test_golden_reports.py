"""Golden report bytes.

GOLDEN pins the exit code and the sha256 of the CLI's stdout for every
`problems/*.json` file in json, table and dot format, for 60 seeded kempf
files (g_rank 0-4) run with `--support` and `--inner-product` flags, and
for 60 seeded toric files (g_rank 0-3, with multiplicities, one in three
with a section) in json and dot format, for 38 seeded quiver files and
four Kronecker quivers in json format, for 300 seeded files that break the
problem schema in one place, and for 100 out-of-range or ill-shaped flags.
GOLDEN_HIGH_RANK pins 24 more seeded kempf files of rank 5 and 6, whose
limit cones have up to 32 generators, so the projection onto the limit
cone is held to its exact answer where it is most costly.
GOLDEN_VERTEX_ORDER pins 24 more seeded quiver files whose vertex lists
are out of sorted order, some with numeric-string ids and alpha = 0 on
the least id, so the covers they report are held to one representative
per translation class whatever the order the vertices are listed in.
Seeded toric, quiver and invalid-input cases also pin the sha256 of
stderr, since many of them exit 2 or 3; the temporary directory in a
message is replaced by a fixed token first, so the message texts are
pinned, the path that names the file included.  The
quiver cases pin the F_p witnesses and the trials that found them, so they
hold the subrepresentation scans to their exact answers.  A refactoring
or speed-up must leave every one of them unchanged.

The file runs without pytest:

    PYTHONPATH=src python tests/test_golden_reports.py --check

checks every digest, names each case that moved on stderr, and exits 1 if
any did.  When a change is meant to alter a report, regenerate the tables
with

    PYTHONPATH=src python tests/test_golden_reports.py

paste the printed tables over GOLDEN, GOLDEN_HIGH_RANK and
GOLDEN_VERTEX_ORDER, and name the
reports that moved, and why, in the change's description.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from fixedloci.cli import main
from fixedloci.errors import FixedLociError
from fixedloci.linalg import cokernel_with_section
from quiver_oracles import kronecker_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
KIND_TO_COMMAND = {"toric": "toric", "quiver": "quiver", "grassmann": "grassmann",
                   "weights": "kempf"}


def _kempf_file(seed):
    """A seeded weights problem and its kempf flags."""
    rng = random.Random(seed)
    r = seed % 5
    items = []
    for _ in range(rng.randint(1, 6)):
        item = {"chi": [rng.randint(-3, 3) for _ in range(r)]}
        if rng.random() < 0.3:
            item["mult"] = rng.randint(1, 3)
        items.append(item)
    data = {"kind": "weights", "g_rank": r, "items": items,
            "theta": [rng.randint(-3, 3) for _ in range(r)]}
    flags = []
    if rng.random() < 0.8:
        index = [[s, k] for s, it in enumerate(items) for k in range(it.get("mult", 1))]
        flags.append("--support=" + json.dumps([p for p in index if rng.random() < 0.7]))
    if rng.random() < 0.6:
        A = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
        Q = [[sum(row[i] * row[j] for row in A) + (i == j) for j in range(r)] for i in range(r)]
        flags.append("--inner-product=" + json.dumps(Q))
    return data, flags


def _kempf_high_rank_file(seed):
    """A seeded rank 5 or 6 weights problem and its kempf flags.

    Eight to twelve weights in [-2, 2]^r, nearly all pairing positively
    with a random v, and theta near -v: the limit cone is then large, and
    -theta lies in or near it, so the Kempf minimum sits on a face of high
    dimension.  A quarter of the files carry `--support`, a quarter
    `--inner-product`, a quarter both.
    """
    rng = random.Random("kempf-high:%d" % seed)
    r = 5 + seed % 2
    v = [rng.randint(-2, 2) for _ in range(r)]
    items = []
    while len(items) < 8 + seed % 5:
        chi = [rng.randint(-2, 2) for _ in range(r)]
        if sum(a * b for a, b in zip(chi, v)) > 0 or rng.random() < 0.1:
            items.append({"chi": chi})
    data = {"kind": "weights", "g_rank": r, "items": items,
            "theta": [rng.randint(-1, 1) - a for a in v]}
    flags = []
    if seed % 4 in (1, 2):
        support = [[s, 0] for s in range(len(items)) if rng.random() < 0.8]
        flags.append("--support=" + json.dumps(support))
    if seed % 4 in (2, 3):
        A = [[rng.randint(-1, 1) for _ in range(r)] for _ in range(r)]
        Q = [[sum(row[i] * row[j] for row in A) + (i == j) for j in range(r)] for i in range(r)]
        flags.append("--inner-product=" + json.dumps(Q))
    return data, flags


# Seeds 0-29 less 7, 13, 17, 19, 23 and 27, whose reports took 2.2 s to
# 124 s each with a generator-subset scan for the projection.
HIGH_RANK_SEEDS = tuple(s for s in range(30) if s not in (7, 13, 17, 19, 23, 27))


def _toric_file(seed):
    """A seeded toric problem; one in three carries a section, and one in
    fifteen has 18 coordinates, past MAX_ENUM_DIM.  Three of those four
    list more faces than MAX_FAN_FACES; the rank-0 one, the 2^18 faces of
    the orthant, is answered.

    A section is either a random matrix, which usually fails to split the
    cokernel, or the computed section sheared by a random multiple of the
    weight columns, which is valid.
    """
    rng = random.Random("toric:%d" % seed)
    r = seed % 4
    large = seed % 15 == 14
    weights = []
    for _ in range(6 if large else rng.randint(1, 6)):
        item = {"chi": [rng.randint(-1, 1) for _ in range(r)]}
        if large or rng.random() < 0.4:
            item["mult"] = 3 if large else rng.randint(1, 3)
        weights.append(item)
    data = {"kind": "toric", "g_rank": r, "weights": weights,
            "theta": [rng.randint(-2, 2) for _ in range(r)]}
    if seed % 3 == 0:
        rows = [w["chi"] for w in weights for _ in range(w.get("mult", 1))]
        m = len(rows)
        section = [[rng.randint(-1, 1) for _ in range(m - r)] for _ in range(m)]
        if rng.random() < 0.5:
            try:
                _, c = cokernel_with_section(rows, r)
                shear = [[rng.randint(-1, 1) for _ in range(m - r)] for _ in range(r)]
                section = [[c[i][j] + sum(rows[i][k] * shear[k][j] for k in range(r))
                            for j in range(m - r)] for i in range(m)]
            except FixedLociError:
                pass
        data["options"] = {"section": section}
    return data


def _quiver_file(seed):
    """A seeded quiver problem on one to three vertices and its flags.

    The vertices lie on a path of arrows in random directions, with one to
    four more arrows between random vertices, so loops and 2-cycles occur.
    Two files in three grade the arrows by `arrow_weights` of rank 0 or 1,
    mostly 0, which keeps cycles in the support quiver, so that Schofield's
    test runs on loops and oriented cycles.  One file in thirteen has total
    dimension 9 or more, past the certification guard.
    """
    rng = random.Random("quiver:%d" % seed)
    n = rng.randint(1, 3)
    vertices = ["v%d" % i for i in range(n)]
    pairs = [(vertices[i], vertices[i + 1])[::rng.choice((1, -1))] for i in range(n - 1)]
    pairs += [(rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(1, 4))]
    arrows = [{"id": "a%d" % k, "src": s, "tgt": t} for k, (s, t) in enumerate(pairs)]
    large = seed % 13 == 12
    alpha = {v: rng.randint(1, 3) for v in vertices}
    while not large and sum(alpha.values()) > 8:
        alpha[rng.choice(vertices)] -= 1
    while large and sum(alpha.values()) < 9:
        alpha[rng.choice(vertices)] += 1
    theta = {v: rng.randint(-3, 3) for v in vertices}
    v = max(vertices, key=lambda u: alpha[u] == 1)
    theta[v] = 0
    theta[v] = -sum(theta[u] * alpha[u] for u in vertices) // alpha[v]
    if sum(theta[u] * alpha[u] for u in vertices):
        theta = {u: 0 for u in vertices}
    data = {"kind": "quiver", "vertices": vertices, "arrows": arrows,
            "alpha": alpha, "theta": theta}
    if seed % 3:
        aux = rng.randint(0, 1)
        data["arrow_weights"] = {"aux_rank": aux, "weights": {
            a["id"]: [rng.choice((0, 0, 1, -1)) for _ in range(aux)] for a in arrows}}
    flags = ["--seed", str(rng.randint(0, 99)), "--prime", str(rng.choice((2, 3, 5))),
             "--trials", str(rng.choice((0, 1, 5, 20, 60)))]
    if rng.random() < 0.7:
        flags += ["--window", str(rng.randint(1, 2))]
    return data, flags


def _quiver_vertex_order_file(seed):
    """A seeded quiver problem whose vertex list is not in sorted order.

    Two to four vertices named v0..v3, or numeric strings such as "10",
    "9" and "2" whose string order is not their numeric order, listed
    shuffled.  One file in three has alpha = 0 on the least id.  Every file
    has a loop and a 2-cycle; two in three grade the arrows by
    `arrow_weights` of rank 0 to 2, weight 0 on about half the entries.
    Covers are then rooted at a vertex other than the first listed one.
    """
    rng = random.Random("quiver-order:%d" % seed)
    n = rng.randint(2, 4)
    if seed % 2:
        vertices = ["v%d" % i for i in range(n)]
    else:
        vertices = [str(x) for x in rng.sample((2, 3, 9, 10, 11, 20, 100), n)]
    while vertices == sorted(vertices):
        rng.shuffle(vertices)
    pairs = [(vertices[i], vertices[i + 1])[::rng.choice((1, -1))] for i in range(n - 1)]
    u, w = rng.sample(vertices, 2)
    pairs += [(u, w), (w, u), (rng.choice(vertices),) * 2]
    pairs += [(rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(pairs)
    arrows = [{"id": "a%d" % k, "src": s, "tgt": t} for k, (s, t) in enumerate(pairs)]
    alpha = {v: rng.randint(1, 3) for v in vertices}
    if seed % 3 == 0:
        alpha[min(vertices)] = 0
    while sum(alpha.values()) > 6:
        alpha[rng.choice([v for v in vertices if alpha[v] > 1])] -= 1
    theta = {v: rng.randint(-3, 3) for v in vertices}
    v = max(vertices, key=lambda u: alpha[u] == 1)
    theta[v] = 0
    theta[v] = -sum(theta[u] * alpha[u] for u in vertices) // alpha[v]
    if sum(theta[u] * alpha[u] for u in vertices):
        theta = {u: 0 for u in vertices}
    data = {"kind": "quiver", "vertices": vertices, "arrows": arrows,
            "alpha": alpha, "theta": theta}
    if seed % 3:
        aux = rng.randint(0, 2)
        data["arrow_weights"] = {"aux_rank": aux, "weights": {
            a["id"]: [rng.choice((0, 0, 1, -1)) for _ in range(aux)] for a in arrows}}
    flags = ["--seed", str(rng.randint(0, 99)), "--prime", str(rng.choice((2, 3, 5))),
             "--trials", str(rng.choice((0, 5, 20)))]
    if rng.random() < 0.6:
        flags += ["--window", str(rng.randint(1, 2))]
    return data, flags


KRONECKER_RUNS = (
    ((3, 3, 4), ["--window", "2", "--prime", "5", "--trials", "200"]),
    ((3, 3, 5), ["--window", "2", "--prime", "5", "--trials", "200"]),
    ((3, 2, 3), ["--window", "1", "--prime", "3", "--trials", "40", "--seed", "7"]),
    ((4, 1, 3), ["--prime", "2", "--trials", "20", "--seed", "3"]),
)


# One small valid document of each kind, with every optional key present,
# for the invalid-input cases to break.
BASES = (
    {"kind": "toric", "g_rank": 1, "weights": [{"chi": [1], "mult": 2}, {"chi": [-1]}],
     "theta": [1], "options": {"section": [[1, 0], [0, 1], [1, 1]]}},
    {"kind": "quiver", "vertices": ["1", "2"],
     "arrows": [{"id": "a", "src": "1", "tgt": "2"}, {"id": "b", "src": "1", "tgt": "2"}],
     "alpha": {"1": 1, "2": 2}, "theta": {"1": -2, "2": 1},
     "arrow_weights": {"aux_rank": 1, "weights": {"a": [0], "b": [1]}},
     "options": {"window": 1, "prime": 3, "trials": 5, "seed": 1}},
    {"kind": "grassmann", "m": 2, "n": 4, "weights": [0, 1, 2, 3]},
    {"kind": "weights", "g_rank": 1, "aux_rank": 1,
     "items": [{"chi": [1], "w": [0], "mult": 2}, {"chi": [-1], "w": [1]}],
     "theta": [0], "support": [[0, 0], [1, 0]], "options": {"inner_product": [[2]]}},
)
JUNK = (True, False, 2.5, -0.5, "x", "1", "", None, [], {}, [1], {"a": 1})
# below-minimum values for the fields that have a minimum
BELOW = {"g_rank": -1, "aux_rank": -2, "mult": 0, "m": 0, "n": -1, "window": -1,
         "prime": 1, "trials": -3, "alpha": -1, "support": -1}


def _nodes(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _nodes(value, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


def _invalid_file(seed):
    """A seeded base document broken in one place: a wrong type, a missing
    or extra key, an appended item, a value below its minimum, an empty
    `vertices`, a support pair of the wrong length, a wrong or missing
    `kind`, or a root that is not an object."""
    rng = random.Random("invalid:%d" % seed)
    doc = copy.deepcopy(rng.choice(BASES))
    op = seed % 9
    inner = list(_nodes(doc))[1:]
    if op == 0:
        parent, key = _parent(doc, rng.choice(inner))
        parent[key] = rng.choice(JUNK)
    elif op == 1:
        parent, key = _parent(doc, rng.choice(inner))
        del parent[key]
    elif op == 2:
        dicts = [p for p in [()] + inner if isinstance(_parent(doc, p + (0,))[0], dict)]
        target, _ = _parent(doc, rng.choice(dicts) + (0,))
        target[rng.choice(("extra", "zz", "w", "a", "kind2"))] = rng.choice(JUNK + (1,))
        if rng.random() < 0.3:
            target["zz_more"] = 0
    elif op == 3:
        lists = [p for p in inner if isinstance(_parent(doc, p + (0,))[0], list)]
        target, _ = _parent(doc, rng.choice(lists) + (0,))
        target.append(rng.choice(JUNK + (1, [1, 2], [[0, 0]])))
    elif op == 4:
        paths = [p for p in inner if p[-1] in BELOW or (len(p) > 1 and p[-2] == "alpha")
                 or (len(p) == 3 and p[0] == "support")]
        if not paths:
            paths = [p for p in inner if p[-1] in ("m", "g_rank")]
        parent, key = _parent(doc, rng.choice(paths))
        parent[key] = BELOW["alpha" if key not in BELOW and isinstance(key, str) else
                            "support" if isinstance(key, int) else key] - rng.randint(0, 2)
    elif op == 5:
        doc = copy.deepcopy(BASES[1])
        doc["vertices"] = []
    elif op == 6:
        doc = copy.deepcopy(BASES[3])
        doc["support"][rng.randrange(2)] = rng.choice(([0], [0, 0, 0], [], [1, 0, 0]))
    elif op == 7:
        kind = rng.choice(("Toric", "weight", "", 1, None, "toric", "quiver", "grassmann",
                           "weights", "delete"))
        if kind == "delete":
            del doc["kind"]
        else:
            doc["kind"] = kind
    else:
        doc = rng.choice(([], "toric", 3, None, 2.5, [doc], True))
    return doc


def _invalid_flags(seed):
    """A valid problem document and one flag that breaks its schema rule:
    a quiver option below its minimum, or kempf JSON of the wrong shape."""
    rng = random.Random("invalid-flag:%d" % seed)
    if seed % 5 < 2:
        name = rng.choice(("window", "prime", "trials"))
        value = BELOW[name] - rng.randint(0, 3)
        return "quiver", BASES[1], ["--%s=%d" % (name, value)]
    entry = lambda: rng.choice((0, 1, -1, True, 0.5, "0", None, [0]))
    shapes = (
        lambda: [[entry() for _ in range(rng.choice((0, 1, 2, 3)))]],
        lambda: [[0, 0], [entry(), entry()]],
        lambda: [entry()],
        lambda: entry(),
        lambda: {"0": [0, 0]},
        lambda: [[[0, 0]]],
    )
    value = rng.choice(shapes)()
    flag = "--support" if seed % 5 < 4 else "--inner-product"
    if flag == "--inner-product" and rng.random() < 0.5:
        value = [[2, entry()]] if rng.random() < 0.5 else [entry()]
    return "kempf", BASES[3], [flag + "=" + json.dumps(value)]


def _cases(tmp):
    for path in sorted(PROBLEMS.glob("*.json")):
        command = KIND_TO_COMMAND[json.loads(path.read_text())["kind"]]
        for fmt in ("json", "table", "dot"):
            yield "%s:%s" % (path.name, fmt), [command, str(path), "--format", fmt]
    for seed in range(60):
        data, flags = _kempf_file(seed)
        path = os.path.join(tmp, "kempf_%d.json" % seed)
        with open(path, "w") as fh:
            json.dump(data, fh)
        yield "kempf:%d" % seed, ["kempf", path] + flags
    for seed in range(60):
        path = os.path.join(tmp, "toric_%d.json" % seed)
        with open(path, "w") as fh:
            json.dump(_toric_file(seed), fh)
        for fmt in ("json", "dot"):
            yield "toric:%d:%s" % (seed, fmt), ["toric", path, "--format", fmt]
    runs = [("quiver:%d" % seed,) + _quiver_file(seed) for seed in range(38)]
    runs += [("quiver:K%d(%d,%d)" % nab, kronecker_problem(*nab), flags) for nab, flags in KRONECKER_RUNS]
    for case, data, flags in runs:
        path = os.path.join(tmp, case.replace(":", "_") + ".json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        yield case, ["quiver", path] + flags
    for seed in range(300):
        data = _invalid_file(seed)
        path = os.path.join(tmp, "invalid_%d.json" % seed)
        with open(path, "w") as fh:
            json.dump(data, fh)
        command = KIND_TO_COMMAND.get(data.get("kind") if isinstance(data, dict) else None,
                                      ("toric", "quiver", "grassmann", "kempf")[seed % 4])
        yield "invalid:%d" % seed, [command, path]
    for seed in range(100):
        command, data, flags = _invalid_flags(seed)
        path = os.path.join(tmp, "invalid_flag_%d.json" % seed)
        with open(path, "w") as fh:
            json.dump(data, fh)
        yield "invalid-flag:%d" % seed, [command, path] + flags


def _high_rank_cases(tmp):
    for seed in HIGH_RANK_SEEDS:
        data, flags = _kempf_high_rank_file(seed)
        path = os.path.join(tmp, "kempf_high_%d.json" % seed)
        with open(path, "w") as fh:
            json.dump(data, fh)
        yield "kempf-high:%d" % seed, ["kempf", path] + flags


def _vertex_order_cases(tmp):
    for seed in range(24):
        data, flags = _quiver_vertex_order_file(seed)
        path = os.path.join(tmp, "quiver_order_%d.json" % seed)
        with open(path, "w") as fh:
            json.dump(data, fh)
        yield "quiver:order:%d" % seed, ["quiver", path] + flags


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(args, with_stderr, tmp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    digest = "%d %s" % (code, _sha(out.getvalue()))
    if with_stderr:
        digest += " " + _sha(err.getvalue().replace(tmp, "<tmp>"))
    return digest


def digests(cases=_cases):
    with tempfile.TemporaryDirectory() as tmp:
        return {case: _run(args, case.startswith(("toric:", "quiver:", "invalid")), tmp)
                for case, args in cases(tmp)}


GOLDEN = {
    'grassmann_p2.json:json': '0 fc0b9bc741ce410c8758878ecea7c121ad68cba01f34c0a355b3c5199f35c6c1',
    'grassmann_p2.json:table': '0 64f7a16da5fd19598a0972dad8cf74668cfc64fd96efb09993ec05bdb10fb6d3',
    'grassmann_p2.json:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'hirzebruch_d2.json:json': '0 c3f740eb17ee2a498e402f6daf542d22cd29650936e7546dbe8ed9ace9a5ea34',
    'hirzebruch_d2.json:table': '0 5de6cf182b19160757527b18432ec777d95dbd5486869439478541a8e2514e36',
    'hirzebruch_d2.json:dot': '0 da9a6a21d225b4bc68d3210a1b3888bba77422243fe0dad47cfdf21d630982e9',
    'kempf_halfplane.json:json': '0 dd4eef561d37340108b50524bff347d50a28af71ef741727f05e60c791aaf681',
    'kempf_halfplane.json:table': '0 18aa61ab95b8ecaab581e148b976b90ba7df02015451c790afb63bdc5cdc13d6',
    'kempf_halfplane.json:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'kronecker3.json:json': '0 87b0884d718326e2ef27d0f35c9ca59aea09bd3a2e8c6621baf6381bed5cecbd',
    'kronecker3.json:table': '0 310af26a0810df8d8e9caa22701470ff922fdab22dd40ade10860bd6d3a3eaad',
    'kronecker3.json:dot': '0 97cc43f89fd4191412cbdf51cd0aecd2494f5264ea6ad57959ae8d44b310c523',
    'kempf:0': '0 1663ac5f56b1947dce95cb9375be57339871c014b3ded73849f738c9a42e3372',
    'kempf:1': '0 bde9071387cadf5658bb47e3c2cd44fd2314c237951e8c67a86967980dd0819f',
    'kempf:2': '0 afb645426e9b15c854c935ce34f385b8aa7d86a10ee29329e634c359f09fad85',
    'kempf:3': '0 814a5cd49aa2e37a32a1960ff7d900b46eba8437b9abef53911c5fc6f1608b19',
    'kempf:4': '0 475a34563fbd75521f79e1d1a4435f68f04a84945b4ae7909f99f2e83863ab91',
    'kempf:5': '0 75e826535be641c3bfd4d2ffb3707b3f2766b8987bef3adf041241ca766d7ca9',
    'kempf:6': '0 3a9300cc7383842b3e0469b28c6953234d444de47f3e9aa773b6d653fd890e03',
    'kempf:7': '0 efd4a809ec9cc5f0d564a88fbbe2cf9be3ce505e55983f68d35587a72f8f96a8',
    'kempf:8': '0 0c8b0815be3d08e8b2ac63d2627f74887890f3a9d0e65fb5188e73d46649107d',
    'kempf:9': '0 b297073cfbb4cbb566e84599fcc79ac1a8462fa67bfd3816a5d0095b490c94dd',
    'kempf:10': '0 a0a2c7b255c8b3b2eada843faaf30b3338f748411ca3eb40e7928a3ee603bce0',
    'kempf:11': '0 3b239f825b8803b916d7ea19c8fcf25bc86d13d7a7b4c3d9c26a9d109b22592c',
    'kempf:12': '0 09b109151baf357c86a4c651df31099c7049c01d51fc7a7e318a48ca90ab7007',
    'kempf:13': '0 c227b9bac293b1da004667da8c746c5d1fc4ca5c3d693798bb6b2980453ae8aa',
    'kempf:14': '0 ed9dae167ca57020cee5217fca1c7594211061f5bfeb5e134490962b1fb2490d',
    'kempf:15': '0 5543ff7471f0c05a5347b6c8e606dd4473161c191aef99ac4e759d459edfa605',
    'kempf:16': '0 7efc70697f942fe95f337ddebe6a8e6ed16d9e49bcd7c6415b090e9695c75172',
    'kempf:17': '0 4e9c54770a4b3a9aeaa3c270d0d051d3e0b33617cad064c3ea06c9275d6c6a89',
    'kempf:18': '0 d2ec608606669b565a6d241e7d4da80a557ebe22cc27e9863e6e7a061843c40c',
    'kempf:19': '0 5a18345bdb513eda05571d30a7cf898d9d04cf498ea7c2f9aaa56522a9fd1abf',
    'kempf:20': '0 a1d69b3e5bc79ca1c7571f8df65b805209e170f4484dc246f78bb66447a943ed',
    'kempf:21': '0 57c73f12b3ab483f04aa49a98202076c8c21bd5cd8d22f13511ae185a4557674',
    'kempf:22': '0 f3bcbc894990299e2be7f5170907ca2b85cc3e2854eaeaa8a2f0e1046ee5ddc6',
    'kempf:23': '0 baa3119bf8066c56a412bfcd31b75deb5f8de312c40615078f174b3ac97c1622',
    'kempf:24': '0 c8342f0342d3eb71b1a6849c5e9504ba77d1fb026c7cc5aa1ae4275a685df653',
    'kempf:25': '0 8b8aeef56d0d5edfcc85321ae92f645fd10bbe7484ec1bcbf3976a998a219838',
    'kempf:26': '0 6b088a069c4c3aa3280c309ab01881bc368d7dff3ca277655812e1509aa190f2',
    'kempf:27': '0 82499e7fe9f9dccc405dc6c5abe95143ff1c19e387d87bc08f03448693d42e9b',
    'kempf:28': '0 82ab4b10f540de1f34198ebe3a01e81e17be1cc5e5093358247abbbeb570bdc4',
    'kempf:29': '0 416c2e8f4c5eca1551159493b4d16f4a6332459b8a03c479405be27a2e8af59a',
    'kempf:30': '0 7deb59e67067ec055c96b0118207f7e9cca5fe74816c32f9605c8ee4815a1454',
    'kempf:31': '0 971661973e967b45c2252c7ffb2b611643f817e2ee9dfc2bc666e73cbcff4c87',
    'kempf:32': '0 4385992e47ec10fc2df2acc4083268ecb55369c66ea2729ae15a918db1c32772',
    'kempf:33': '0 5a3da730848fa7bcdc1f6fd39b4a673fbeec6789b4ae44b6c3bc11e34a8c4987',
    'kempf:34': '0 84491a574b9e2980574e60dce6afec5cd7e98459fa4596f53979e3d5531575b0',
    'kempf:35': '0 282c7f2ed48431ed06bcd7bbb02c1965689447673dec2945e6bfa0e8e696992f',
    'kempf:36': '0 37d6982d4cc628fc869e49bf471612cb0326bb10e3c6c825fbb416fd78e95081',
    'kempf:37': '0 8e8e0c05a240e2e1621ecc430c30c110ceb37b17421a7171c3e4ba3c41977b15',
    'kempf:38': '0 b0f7130ecff067636897f7d7ec2f0213ccc2d72e90cd308f9965fa4ad876caa5',
    'kempf:39': '0 411ee4e17bb9fd1efb2f9b8466882f636888b0d20148980e31285783632dd123',
    'kempf:40': '0 5fba77d690a821afd7958eb0a25c3577b47c7ba8913b6d2058ca34d86b383d19',
    'kempf:41': '0 cbefb5d67eb4894d0c1f6a23b0fa671f6cd585ceb8046cd45ae4f9739dd78c1c',
    'kempf:42': '0 fec727bdd0252c6592deeee2cdaa293caf078dfefa14223e86db7517581ca442',
    'kempf:43': '0 6a25dc499de6a48f4d9106f7a8fb2f7aa2da579e9089613de8351c6ce123794e',
    'kempf:44': '0 65169d94d58f54673fddd9e288ede7aacca7d74645305d3b96377d2556c04cbf',
    'kempf:45': '0 70855ccda86887b0a4f37bf7bbe0cd82ecafc58d5e5ea83b6567d4a0227daaa5',
    'kempf:46': '0 3e3b787f3aa65c5ab0cfc4c29f9cfa32b3dd36835be33b0a24f4b591495e5270',
    'kempf:47': '0 cca2b8cc9a4cd3bf9758ffafebab2fb58d43666afc0f224a3eab94c7422fed14',
    'kempf:48': '0 7fda6e887a95fb362ce2165ff5d8f6d8bdeec7a9abad2403d61add814ebadaec',
    'kempf:49': '0 24471048de5918d260955909960b45c67524dd004768f30872b448434191ab5a',
    'kempf:50': '0 6588648fc061043de8edb7cea3acb1458f2b6e7f5f324591f3f10241a4d54e23',
    'kempf:51': '0 94cf08af9564fa4b0d487662fb77db87c9848f9543978805a8d0e22b394e0af0',
    'kempf:52': '0 d810d0e1b01116eb635c8ee5f45d9dc88e573b9248f23a380e8b4fd0d121555e',
    'kempf:53': '0 1dd7ab4a0c38aeec07e30bd70cefec7304468bead9f65207caa19f7672b12514',
    'kempf:54': '0 3f74ebb360849e63d64327437cccfe4a3ce24bae905c3414bd455646497bf077',
    'kempf:55': '0 321d1f0992ef4a366bdcd8f226b9d4f62fda3276b63d47a23d17fbbe9fa0b648',
    'kempf:56': '0 4bee8dacbc59067fd5672e6c30caa61f40f7aa8ac5bf3a44197fe1cab57e50df',
    'kempf:57': '0 69d3def48ac8cfa88ef941dc2e6d7de92ad2e4dd726fee629b5ebaf9659c18c6',
    'kempf:58': '0 463f827598a935b78c2aac70e9107055574e9f6c75f8ac5f3393cd6a0c90afbf',
    'kempf:59': '0 585ce2df53d8e32c289c99e87c8290a21ab3a27f269d8fa32d905b01e8173f76',
    'toric:0:json': '0 aeac4b4a5a783572ff45895e8cc4b4f0355656d4c318f1f96d5af27110cb3c2f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:0:dot': '0 b2c1a0be3e8761aab2d14c6e743da35814e45fd017b875dfe6e7bbb87ba63a7f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:1:json': '0 2adddb1f3942da2610f4a1d630b1f5016d82368416285b2e9ac4d5014cb42d6a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:1:dot': '0 841cdf033ae37935aa9d28292f56f9cea6adeb08621d1291ae1eb9a13c17f1a0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:2:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:2:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:3:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:3:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:4:json': '0 7b29f419f748baaf5d64a0009e28c2288a3c12e0ee7e4f4cd798a333b4155437 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:4:dot': '0 5bd230ff2c4c923aff51a45f4271c5842236179868c05a2a6fba9af96f229142 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:5:json': '0 4b776e7db45f28938a9695012492b43ca44f3ff656e28a8800863570f9896c07 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:5:dot': '0 0f9d9fe76dac7770013fb15b706a42c791acbfc1d7fc7cdf093d6402ae1d0c5a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:6:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:6:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:7:json': '0 6913543d3fdf358680a00b85a034b163297f8cc3190efcc6d39b57af6ebff98c e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:7:dot': '0 89fa4710182858d77616818e371f7d2db60cd573c53cec0df778b1ee51fa983a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:8:json': '0 7b40b01d296e2a38d2c6a6283ca1ee2bb59d5d9a0cec5fe7f8701a8d31c0a9a2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:8:dot': '0 1ee980928f1a1bec00acda1d6dba28daa9c1218da75d310528e9d2e6ce29b788 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:9:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:9:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:10:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:10:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:11:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:11:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:12:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 90c0b7a113101f5454f4ddb4e5d2b8f1ecae96d475e7cedfbd132c865b08c392',
    'toric:12:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 90c0b7a113101f5454f4ddb4e5d2b8f1ecae96d475e7cedfbd132c865b08c392',
    'toric:13:json': '0 b10c7df2cd35d1df0817247baefe016cfc57f4d6e42fe6e7712136a4b496b937 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:13:dot': '0 1ee980928f1a1bec00acda1d6dba28daa9c1218da75d310528e9d2e6ce29b788 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:14:json': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 304990d5c65cbc90d0bd4a5cced7cf167aac6eeced1fc512c37657b2762d3b7b',
    'toric:14:dot': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 304990d5c65cbc90d0bd4a5cced7cf167aac6eeced1fc512c37657b2762d3b7b',
    'toric:15:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:15:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:16:json': '0 4e93806bdc5750b9e4442690c9df81ba67c1b84281267beac935ca98e83a7c24 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:16:dot': '0 5bd230ff2c4c923aff51a45f4271c5842236179868c05a2a6fba9af96f229142 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:17:json': '0 51ad4e62e575c767f0fec9442bc9461f248df8d1cf769357321e2797af10d3e6 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:17:dot': '0 1ee980928f1a1bec00acda1d6dba28daa9c1218da75d310528e9d2e6ce29b788 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:18:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:18:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:19:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:19:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:20:json': '0 d8ad3f380570cf179b090d2947bbfe2a013c26cceae9f1ff69a6496d587257a1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:20:dot': '0 bdd85f848d09273c3cd82c1a446e66ca55347435a7fdfb4b0e89c5f4b780e8f3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:21:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:21:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:22:json': '0 d7de47bbd6a070a62d2db16665bb39ed7a7b7d10975ee5703bccec1f7ec47d06 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:22:dot': '0 01ced9268af79718213b649d4decd2c9cfd315b18d3a203cf1c56d4ac1abbd31 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:23:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:23:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:24:json': '0 6ccd91b14c4bde348dfb08dad87ea235e70d2e2680d99923ae52a298f15612d0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:24:dot': '0 e042c8fa7a0afba262254c246b6a6d477b0259494d3a8d002527741468ebdb4c e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:25:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:25:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:26:json': '0 6eeedc76e6bf9aacc98d224cef73b3965463184d0991cbdcc10f42c673dd4f14 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:26:dot': '0 2d3b715343a4253615bf61c1a8fec8d7a22ab8c68255b50532576d1227aa971f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:27:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 90c0b7a113101f5454f4ddb4e5d2b8f1ecae96d475e7cedfbd132c865b08c392',
    'toric:27:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 90c0b7a113101f5454f4ddb4e5d2b8f1ecae96d475e7cedfbd132c865b08c392',
    'toric:28:json': '0 f0971b0375b2298cb1d86bd1de8dbe2d49b2b0ce8555c21b0fcd19a7ad7d4c27 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:28:dot': '0 ce1c4a3dbb383d64379939c17ae21282472fc843fef84bfa342b570f41525107 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:29:json': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 52dd8548a640f20dbf7f2a07a599970c4c9a2a9418549b0d3ec8143e7ba66ccc',
    'toric:29:dot': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 52dd8548a640f20dbf7f2a07a599970c4c9a2a9418549b0d3ec8143e7ba66ccc',
    'toric:30:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 90c0b7a113101f5454f4ddb4e5d2b8f1ecae96d475e7cedfbd132c865b08c392',
    'toric:30:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 90c0b7a113101f5454f4ddb4e5d2b8f1ecae96d475e7cedfbd132c865b08c392',
    'toric:31:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:31:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:32:json': '0 dff2eb7e58da1bd6f744dfa63e0d86160861ca996ff04d52f04daa478d13fb85 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:32:dot': '0 b2c1a0be3e8761aab2d14c6e743da35814e45fd017b875dfe6e7bbb87ba63a7f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:33:json': '0 22b509925fe05fd95be51afa92d12c87e9d6c824e6fbe25d3785f0b6886ca86a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:33:dot': '0 0b8d8e20d1c5419bff0f7661aeca482715347869dcc7cd14545790284915e7e8 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:34:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:34:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:35:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:35:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:36:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 90c0b7a113101f5454f4ddb4e5d2b8f1ecae96d475e7cedfbd132c865b08c392',
    'toric:36:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 90c0b7a113101f5454f4ddb4e5d2b8f1ecae96d475e7cedfbd132c865b08c392',
    'toric:37:json': '0 e8f4fed52261848f1d6b73dfc5e5ee1b5fa7ae90fd938ef191fccca9691e173e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:37:dot': '0 f513579d3354d32914a40a264c249b7b023d17b460605c62d4eef55d9cbe79fb e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:38:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:38:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:39:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:39:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:40:json': '0 d8ad3f380570cf179b090d2947bbfe2a013c26cceae9f1ff69a6496d587257a1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:40:dot': '0 bdd85f848d09273c3cd82c1a446e66ca55347435a7fdfb4b0e89c5f4b780e8f3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:41:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:41:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:42:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:42:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:43:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:43:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:44:json': '0 f5351c891cb6cfe532070e561b6d4b6c2613a349d19781322c87df5866ba70ab e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:44:dot': '0 382be5f9505e85b20e6769e9a4cb35b7ffac19ed4f05f0633f314fca540bdb5b e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:45:json': '0 060e79bf911d5237dd2307c93f2c6a6ac9fec9a2f2748ffec644739fbda951ed e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:45:dot': '0 bdd85f848d09273c3cd82c1a446e66ca55347435a7fdfb4b0e89c5f4b780e8f3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:46:json': '0 f76e4af0f2d137494c68ed328d637d9738e1d99a1d7112de69121639edfcf97f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:46:dot': '0 b2c1a0be3e8761aab2d14c6e743da35814e45fd017b875dfe6e7bbb87ba63a7f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:47:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:47:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:48:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 90c0b7a113101f5454f4ddb4e5d2b8f1ecae96d475e7cedfbd132c865b08c392',
    'toric:48:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 90c0b7a113101f5454f4ddb4e5d2b8f1ecae96d475e7cedfbd132c865b08c392',
    'toric:49:json': '0 aabbad3d9561fbce51a827c957a1267f2dd38f7bd35f8950760c35ff960de949 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:49:dot': '0 7e75b759689833afe764c3c78b49b8ad8bf14b749be7906dd72f57af4d2e53fc e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:50:json': '0 8d688531cc978f02fe740dfd9bed02b19366ebb021a5f625eab1dfbb6156beef e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:50:dot': '0 9f1fd6dbc62de8c16e569a505123919be1f253af1c9addf9c9558303edd65440 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:51:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:51:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:52:json': '0 cd7bb94c19c98ad5172c72eb8ce6bc2317dd0cf3d336ad7dbbba5391222c9ea1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:52:dot': '0 3d2cf13c06ea6c52317cd28ae4c004c2a81d63f4d5753d6f5aef6bf633a14904 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:53:json': '0 37f6a8d7c9f42535c860b697a178738177d8bf083b65530816ed92129d8e6922 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:53:dot': '0 1ee980928f1a1bec00acda1d6dba28daa9c1218da75d310528e9d2e6ce29b788 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:54:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:54:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:55:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:55:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:56:json': '0 526800ce06805b0413a8319b09cadebdb54286dabfee87a722b0b82be89554c2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:56:dot': '0 bdd85f848d09273c3cd82c1a446e66ca55347435a7fdfb4b0e89c5f4b780e8f3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'toric:57:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 90c0b7a113101f5454f4ddb4e5d2b8f1ecae96d475e7cedfbd132c865b08c392',
    'toric:57:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 90c0b7a113101f5454f4ddb4e5d2b8f1ecae96d475e7cedfbd132c865b08c392',
    'toric:58:json': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:58:dot': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2674f49e33032fcea3f0530048fc4ddb8b8ea1385b8e77154e1096952906b380',
    'toric:59:json': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5725143a38f3bc2c964e8f4267d0ccca59c942d29fee734e0a154e346d4bd057',
    'toric:59:dot': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5725143a38f3bc2c964e8f4267d0ccca59c942d29fee734e0a154e346d4bd057',
    'quiver:0': '0 c6532371531c03a411c93b7c3956ca45cef49834464676362d0c6e0a2094c36f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:1': '0 d6033ca2059b7a70a0fca6b77cc7f48bba32b8fb8a1090c87a2ee9063a6aac6a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:2': '0 bfa1ea2548c8434760ea502b9092e34c8710a9c85b1512d8afe1ce91ec07c553 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:3': '0 89e82bda3c3f1bf9bb13ae0a7450033a1a7065a15ad4a592971b6f91212e486a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:4': '0 1d57160f2c3eb09dbbe3ee5dc5a837d6a8c48412ecd9c2236fb80fb4aeff1f53 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:5': '0 5c3231fdfd022f37c6a68a7defa852426c83f7766ddbb04222dc262c837c27cb e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:6': '0 b8b34926add72dc88e99d220ea438deb5290047890cac1e0806729cf4486a084 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:7': '0 108030b1640cfacbab79a577ab3f74799d5ef7b67a3e782eeb20be085c4cbf0f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:8': '0 e6aefacd362ce67bcce62c4fd361fc74219df8e6ee37c1a99ccd2194f94f6d99 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:9': '0 8f291e47e21eb212864df2de35aec13a1270b296ad6f1a2fac422e5398073d70 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:10': '0 dd8ac306a3c488b84b096cb1fecb9765159b7be70fc3cf3e87be24fe210ca1fb e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:11': '0 6cfd3147422332a0a01683a4f8788fbefe8f4fbbcd9dd592cb7f8c8dd12e2d32 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:12': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ed544937690ba3138b2a67abeff096e4a66ab9160897196973eedac06c304c56',
    'quiver:13': '0 ec9c2fb7e21ea84c5fa39c970997f238b9673f2694f01f5e3e8a999c205936d1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:14': '0 27e2d19444ed122bf17a2c842e29a85adef5e1772fd746b265eeb8e306421dcd e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:15': '0 bd5fe67a525df220f0bcafb0fa222acf217a4f1eb936d1ca9ef7d2b77130500e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:16': '0 2b652c62bcc066ed1803c92e3be7e1d774853bf41864c9fafdd09c63b6964ad1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:17': '0 a7c64da5b16230e5b9458d4fafec015c0fc30f4972c4b42df3469303e4d790f0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:18': '0 07b449d7d8b3799832e60b2d8e3cf676477a6096ad5d85da84651c93d6efa979 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:19': '0 2c1d8a12b92fb364c1a4574e2763fb03cafed5f2cfe9be3a4c79809f8fc6b621 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:20': '0 d41c783b661998394ed364aebbbf68fe744c4332c9a7a7538b519ecc7a309b8c e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:21': '0 5ed47592a989c0b7f2dd86fa233234fe98039587c96d8b7fd30a2cc1ecf62971 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:22': '0 8b36908dfa9697cc660bf31103a9b98c632e3ee67bd3af984fcb5bcb2251ebbe e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:23': '0 ea9d9042f9a9db743572288f621ad8d0cf89ca65eccdf363e938f96bf1b5df28 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:24': '0 ddf8d100e5b2b461f4e6dbb08c28e5197417e74cf215ad69375423a6a8fe694d e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:25': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ed544937690ba3138b2a67abeff096e4a66ab9160897196973eedac06c304c56',
    'quiver:26': '0 e3e09aabe482a2150d9c3bc9d11e3a4a7d64e391a202a444819be62b792b6276 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:27': '0 ef7ad0380545e09653ea1ca3d6d57121fd69dd0be9314a3cca865cadda3571dd e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:28': '0 653006115d05050ffa38143ecd3c95d3c8ecb8ceb82e72c6d5af46e3b8b9e69b e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:29': '0 f0f0dda1134f123bdceeebbdd571d8caaa2137c675a46dc691dd33d407309032 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:30': '0 309e01245137430eff328ac02e9e4e6c5e27bd78c4dc25c8f240c14554e777d0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:31': '0 47042b9de21d43048b249ba77efdcf23acaeab18d1581a801f3cfe162e95d0f9 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:32': '0 396e9cd7d66a91e1e7fabcd8af1eb8a50896063b03aa8180647cd8fc3aaefa91 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:33': '0 e3548d1b5d299e7bd775fcbc9a7448485b128913554c5d9725da2e588c17f5aa e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:34': '0 fb9cf114c77036032a454299113ff4431754930571ad647b8051908e22fdaac0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:35': '0 a4f0826dc3753ed475addce9ac0505c71f37bb395bb72dcf34b9fe6a66fb3c1c e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:36': '0 0511ebb77801fc0edef90347fa30aaa988bfd535c29b26092c4486ef92b14efd e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:37': '0 ecf08fb02636ddee1b6be14327dd6161fd0f81b817511e36532a698751599bb8 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:K3(3,4)': '0 dd0da51c6c5934725cbc8327a75d665334ccae8479aab2fc5a1c5000c1ba885e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:K3(3,5)': '0 fbe2e998e2cf85857b426a2fd4cdfbe40baefb4b31d1909fa995085f62aaa9a6 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:K3(2,3)': '0 e31ecf1a1a1b65665f58cefcd5b289f71069a7f424e07d35992a4780b9de01e8 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:K4(1,3)': '0 4a564cf5f33f9de8040ede2954578279129c6188ef432648719062867c0c0db4 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'invalid:0': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9070a246826a211b74b9d7e647b2061e11a8fa77eefcac4b58f0b4893ccb8b3c',
    'invalid:1': '0 58ebb2e9b5d67f00253f9a2b0271b2bd782bc252bb5ebb2c14626c246a842170 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'invalid:2': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 010d11b0295900f9d7080a2735b5f397c1f7691adab4dfe4e848cd757cb68e63',
    'invalid:3': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 77f9ffc9bec24cffddcf9c2c1c2ffa08ff18c66e9fa311f9a0a54830dddb9772',
    'invalid:4': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9ebb8e48d8d8993be2e583df6fd420b86aef49ab32fdd34b71282cbf2b7eeaf6',
    'invalid:5': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 a343475535dd89476b6019a759d34cfd49ea4fd373f30a7417d2e9b6860d8dd7',
    'invalid:6': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e3890cb9169821a57ae6b72a13d5efbdd27a688603e68d1fd7ae72743ac29fe1',
    'invalid:7': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e7bb307a7e67fea0b34a7636d82c11c6e33ceb7916a4997ff3275825296fee23',
    'invalid:8': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 50543de08b374a6f44f72e16049432c018085c348cda4bff5c29775f1c0fc357',
    'invalid:9': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e210b767fcdfd426c31835f9b4d43bc2f6e9c5251f919e48a04ad9b92a2711f0',
    'invalid:10': '0 2eea150b4bbf942d6c92c8701cb798a401e777a63eaa82b47e172a54a237746d e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'invalid:11': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 781c7375341c767dde006fffe28ce9bd7627e01cf7060bf39291d1bc7dd954d3',
    'invalid:12': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f2cbe8f417451aa2ccff21a2830657f1bc5b232bd2a0d93ad6a877c2e81e594a',
    'invalid:13': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3f66da385b476e5fe0057240b47e3bf14920a6d7a319b479bcba64de116539d0',
    'invalid:14': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 61d6e3eedf02b4d5984af219191a97c30465337cb26ad1cc4a9bba590bb26dd8',
    'invalid:15': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b5b12b9b62ca54622b0d66a38da18cac42a89f522d06d3a701f794e6986bcb14',
    'invalid:16': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2e1fbb506038525ae5d17e9b2a60dfb00a2b036a261adc485d36b6c8ace6f901',
    'invalid:17': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 6b2479afc0195350b8c6bd5260490939b8b6ba7cfc2876268be92b07c76e744f',
    'invalid:18': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f63f80e3835b0511340d874fbb817ff8c4d3ebbe50fe2a3822a446c3e695bc1b',
    'invalid:19': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 07c0da0bd9ec5794e68af9db373e891d506a3b111190213caa10e050c690b6e3',
    'invalid:20': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 957c2c597eed3286d4dc192eaf1cd339183f88887a45e77014265751989b97f0',
    'invalid:21': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c610e2b9930bf4e5822f088096d5bc5f447399a9d4d4b1e31f5b8a91ace3e6e8',
    'invalid:22': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 68cc7f1ba5b3ee0a95e4050a9e420748e05f28528659ce95fcec389d3201fbf4',
    'invalid:23': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3a307b6a8e89b40bfa5a7698c408e618a5ed3e4971a8c011ccb17a11ef4ee89c',
    'invalid:24': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 63326f9b953b7ac41d1b1af51a16e213599c99d32cabf301b958874ec6631d04',
    'invalid:25': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f000021ff9f1aa5fd9a3d0f31876f3fa95e4f45c5f39ce5c1a4573d01fab8d80',
    'invalid:26': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 acf1e87581632b440036c2b16b275dd106fb06ad52a92c1e07d4bee3cc28098a',
    'invalid:27': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f2fbc5c060ceb2ab69b2a6365e494786936fad29d48fecd34783d8a8b0f167f2',
    'invalid:28': '0 81e3b6d47ada4feade3d75f528bce1bc05af8cab8845df36ea585af1408d0839 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'invalid:29': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0e541b315c0d0201c7555c7a9dc4ad43a5ff627bdecbb422a266372d734c42fe',
    'invalid:30': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 75d3e492c6effde9bda6bc455bc2c90b6812f2d069efc036af0e70a0838a71da',
    'invalid:31': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 bfbf1410507f3fa040d5ab3b7983ed8694bd7d0d55d3f014d8e53d4d5355e04f',
    'invalid:32': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2198f561ff2bf9463e46ccecca036d7431c6d0cb3e03f1e58cbb4fb7c5cd72c9',
    'invalid:33': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e4669f2635a7c8ff7b6dc6b0b5ce969f31966abbed23897507661d4aec8482ff',
    'invalid:34': '0 cd69c17ebfef65476ef3df167678da00cb6cfcb33e486493e026e49e9610c944 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'invalid:35': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5f2602448e802381493261d30fba6fb765c16cd89ef03c698337f26673a12c5a',
    'invalid:36': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 eea1cce1b8b5c24e25432871ddd24426592252e4948ced2e3010b847fffc207e',
    'invalid:37': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 6d7b6495da02f12ae5e9f8f612593584a24d39db0543b3509f4a5a53a0dab2a0',
    'invalid:38': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e12e25443c1479a8f00e8b9b2cd610d33cf5a290f27f2c4eda17d636c08de23f',
    'invalid:39': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5f59fddaefd923e17138a3e1c1d8bf02005154e1cc79a5eb974dc588853089bc',
    'invalid:40': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e1f5ade027068a089d045087abfb2cf7583e5f061710be5d5f1a84256d32481d',
    'invalid:41': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1b5ff5b9aa84c4aa984c313dca6e659ac171ae45a1e8e9b4fe004428a9731514',
    'invalid:42': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f1ceaaec98e02faf2373c7f5cd1e1cf8f82301ed3ae0d250b31f5b2262e049a9',
    'invalid:43': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0d92d449c78e5cf787c6868adb2745522ee579433a61472cc0d5c30e8ef15295',
    'invalid:44': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1cbfb2f5f91c4e166010c2d72d2eba5d4be4d3c16e6d94989c0f1d6dbdcb63bf',
    'invalid:45': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 fb53277f45257f568ae8e0da224555bfbbda895171c28ab7767b926d07167271',
    'invalid:46': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9751180b264a9d08fa75f6f7880f3689a7846288664c09180fa61de39c948d9e',
    'invalid:47': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 58701d32a3681f0503e4283cf71c5b3fd8945c4ad707408eb4c03cdcbfa2588c',
    'invalid:48': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 4cb6550a3aac48e04d46f5e7b7461274f342f27892131cd2aa03ad5b52c9d36e',
    'invalid:49': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 cfc3d25a6ba62ab2603c0f46f9161ef74a4acce98d9f72b35d810a39f552403d',
    'invalid:50': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 47d512cc3cfe0227b80fd95cd9f1f6f52635c364f79dd5a65c8b7aa412b52181',
    'invalid:51': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c5ca9584431febc595e4c7faebcc6eca1622cb49865d02f4e5544ce54313a01c',
    'invalid:52': '0 cd69c17ebfef65476ef3df167678da00cb6cfcb33e486493e026e49e9610c944 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'invalid:53': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 31db6e9177b1c57f42fcd27e1440d580aa749d67733ec855d4d837538003edc1',
    'invalid:54': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 75024dfb95506a77523b47a51199d48afe3d771ad6bc79378f8f9e442695d80f',
    'invalid:55': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 212844995fa27b00b1ed1ba7898c538637061ecbd5dd66c59e5a3a2684344abb',
    'invalid:56': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c2fccb3ecc904a6d139d41eca86efa19ab68e3f58dabde9569094b8267e398c6',
    'invalid:57': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 adbacc79b7cb388ebada5171207824f0d8c7f6e70973904bbf14892d5adc163f',
    'invalid:58': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0fc1f9fed12a03f6a7a5e3d07cd87240f4262470e28cdd3e33959405bb934ae1',
    'invalid:59': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 a59142670cc659b11559b54509e95cd4ec82698b8cc1e60579946c5a526110f3',
    'invalid:60': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2f9cf6b257cd957190971ea934cc8190b18748aa3164dc6b995b4e6bc534abf0',
    'invalid:61': '0 e6bc7acfb46b41fda30426ff7c8366e6fc4c85d84ef6d8a08339baf346d47111 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'invalid:62': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b7af794069055ad27e4e9c210d5c56850f916aa52933a8f98c4de830539b1a0c',
    'invalid:63': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 47b3904c2b2059ad78b1b052ab2d14f5896f3739f589db3a3502ceb16d8bd036',
    'invalid:64': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9bb3037d0c9d972c1ea0050b40649915b2f0746a25f9d26ea967f46e3c3dcb4e',
    'invalid:65': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 90267a928bc53853369692cf7abbc100f0a580705edce6074510137f0268f177',
    'invalid:66': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 a90cddecd7e8d5b683ab26ef3f3280c70cbc169354d4dd4d43bab9d8a0c1ce23',
    'invalid:67': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2c784452b17648a3fec6bbb615b0b305306a3931624ab691803c6dc5594cb905',
    'invalid:68': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 6edb638df82100d3cdc9efd22b183c76fde6ec01a46e44a0c3e51a45cb43eeca',
    'invalid:69': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 40940d96964e0a1220f432c46c7264efa58b061ee70cb7955f2eb2e21f8e5f91',
    'invalid:70': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f726b8dde53cc05dde67fd3c98a2578d4cc27de411697a44e8601763260e825f',
    'invalid:71': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 974289b6a24e0f846931e8917c1ea5e928b47ab258bfc1f2a7efa2bfcf31b4f6',
    'invalid:72': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 05dfe5d02272cea73ebdc605457682feeb4df6d8acc16da9e837508c3ff71780',
    'invalid:73': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c9023e38531141356e4d4be46652e2113c58a0ec130212d435031b8b4065713f',
    'invalid:74': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ac05bd32539010f5638f705dc61f18f584b68962d6973a084dd7292223289c96',
    'invalid:75': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c158681d5212716b6a6dcc62019e367a480673b60e52115b370dd291741840cb',
    'invalid:76': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0967ff42e29b2dc6d0c0b038033b55263362715aef589b047dadb6fb1faafe3a',
    'invalid:77': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 51c91427b724ebdaf1af513778a0d5e03d1a35d9ff3bab27d4d000b1965a4201',
    'invalid:78': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ccc0c943fc8aee3a046536e24388f7b2a22353add03c1e381bc701797c1b9fb0',
    'invalid:79': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c05d24badfed14105b22c6c57bca3cebfaf902d9a4b016f1237719e8686dda37',
    'invalid:80': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f5dc076a919ba96105625e1fa98d1339f7f0e72558eaddd36e6b5f9a575ad5c5',
    'invalid:81': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1c21969dbf24f8af0a8e2db95e21967cc86a3cefa5c87acc6739ae12d7df8a1a',
    'invalid:82': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f3a72cb5f670a6774a874ae30d07547a0f29d7f4213bbe4626245024ecea58ed',
    'invalid:83': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b9771625eda3d274222e94793521f829f6118869079ad030905902273b28402f',
    'invalid:84': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7708d5000fb7f26f5f8224cc5542dd972d3c8559d2f4bdeec83681f2ff5e3909',
    'invalid:85': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5403d142c50e5b13417e4e2c5d6cce8ef3a4d07491f735687d6c3216b44ff429',
    'invalid:86': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c79329b63e72c2cc599b20c0337de749c076ea1fba8a27128f5e2903db430320',
    'invalid:87': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f3158ad7055ed94eddf1c155cb5bf66279389cf1d017241b3493d7eeb6b2336e',
    'invalid:88': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 fae4921a71525dc2efaa7082d2055ccf6c473b9b2445085f48e35fc88b015312',
    'invalid:89': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 11a3d9e96d07ded510170392bfcf4578586c28b41e4ee52cb69505138c878083',
    'invalid:90': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 87e197472b9d7305100f328b121c55f45632d943e985883be0f9b845d0f293f8',
    'invalid:91': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c523a70a93985d05bef286986cec277a6521cd83453affed3da3f1e190a26113',
    'invalid:92': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 23070e5b3424d4910983bc39e686cb7a61596bd6db21911897455d91399af237',
    'invalid:93': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 a1f3dae552b07612f502a2b25f1ac73597ba53ce1f663af00837935b4b5bf4b3',
    'invalid:94': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 80ab52930a888f9fee8d298ae8d1c38904c6dd92dbed734b5ddd9ba27d61f548',
    'invalid:95': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9edd3a6478d00f8783aa5d6d408d3ebe004b0e1997e7a39d0ffa7828b4974515',
    'invalid:96': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 37616eedb83957dac03aac6f4d2def8cb2ad85bb8cb80a5ae080d49493ff5c71',
    'invalid:97': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e622bdde0791ab3c780328b49f6ccf1beb16bfc2b6f7ae800aedee5fba399d77',
    'invalid:98': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 80ff37ed348524dc1ced61e1dc330da840039d086cb11ead5154f1cc76adbfbf',
    'invalid:99': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 78361fa2f56b3bb10dfbc29a33d02e0a63ecdd744cd276a389ccf13ff231e1d2',
    'invalid:100': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 212844995fa27b00b1ed1ba7898c538637061ecbd5dd66c59e5a3a2684344abb',
    'invalid:101': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 df668c33765a8d5df64f2b7a1feb174cb833cecccc0704f5a1160a017e7d719c',
    'invalid:102': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 370edf2d95a7daa304d0e1c52f2ded713ca9499c6f6a2bfb8bb5b641af14ad62',
    'invalid:103': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 766ffd46c530c6b283c2ea64dfb041779ec9c418f2bf4638d6f9e402bf29ce6c',
    'invalid:104': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 fa8729ef0143068abbc324be7588daad7718b740b15d9e95d26f6bfdc4d20d4e',
    'invalid:105': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ec6b8976a69566d21c8ff7ff16e0de6c3e20ffe1e1b07bb3e4b909d498ca9215',
    'invalid:106': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 34796a7250d07549276829b3bd1a3460a21bf2a64a98cd636f07c03b147c516c',
    'invalid:107': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 8e58bc1f81ab0dcbb4e93cc9a329ad668864aa1e57b8f14ad7d2f40276cb3b06',
    'invalid:108': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5387d06244564d08f392b95de7d58c19d7fd0fa9b494ab617cbb95f91a222a81',
    'invalid:109': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 89c2fd5135834a1059916c3c17285405818210b93fb57a65caf6ecdfe615eb42',
    'invalid:110': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7801d4183cf52e127b733dfc21e864efe3fa37fef26ea6855a5aa16e79dd1fe1',
    'invalid:111': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 39065665539d56ae1c8fab79b34e46cc45e923c852d2b7daaf8aa24a9cc60514',
    'invalid:112': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f72b116d4eba8afd7e8f19ad0d77ec2d73f518b5ae75b7c753323404a9332e1d',
    'invalid:113': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d37e1b176710c7803e4a98655a65971989afc022f6096539d181fef5deb9b0d5',
    'invalid:114': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 709df445861ca1dea19504d93598c6f534e482fab7caf016f415bf1a94a93152',
    'invalid:115': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b97e96ee63195c65dc0d0d3f76213de129aeba1fb96fcdbb47b6a4e6ce2100f1',
    'invalid:116': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 64efaa9a7084a7b0453c55d9e9370851bc34df35cd52cb059722098ef23bba56',
    'invalid:117': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 a640a353815c11b9e6ce22612a7bc04984db45b55cb8148d81de52f93c9ab502',
    'invalid:118': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f2cbe8f417451aa2ccff21a2830657f1bc5b232bd2a0d93ad6a877c2e81e594a',
    'invalid:119': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 09264ab0a35ffbe774891d8ad194e45c4f64f67491bcf0de2dff2c2ccad72436',
    'invalid:120': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 74c5cf33fc844aeb774efb659a32d5a27674590b7ce1f18dc16b3f762b0579c6',
    'invalid:121': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9bc6d853d1e64b9822fa5d78aa8804187a63f093b8546fecbe8a59ff42453f2b',
    'invalid:122': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ba73fba32e6d9c9faeaf4158711657d6d456ed9863649faa6abe91cca2778cff',
    'invalid:123': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5f0bf3dfd42ed88387c069401f065f6ca2b60e7280dd07faae02589658b28782',
    'invalid:124': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 4508f1ea567a0b24748fc7f86e376cd75c76fdc461f9a46e0eba674b7d1ccba7',
    'invalid:125': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 717344b924828ecd4adce02475e46554788437771a6ca73e01f6902535033244',
    'invalid:126': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 a5e2c0d013e2fe1bce617890fb1cb939043ea6fcee446ef9e96828c5094f5640',
    'invalid:127': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 335f6a239d0910fdd32c0e691b9879dbf664323ee05594bd8f1adf5d99b0bfe1',
    'invalid:128': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 766ebbb67b50219ee0e121795ca42d55f5cb7e95a3624bc8a17d38325f0b4610',
    'invalid:129': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3a0b3f2bc669a24ba3f190e42278dd531399c88872109fc5b4aaae422b4baa9b',
    'invalid:130': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b075b831261c08031538dbcf0db41306534f91557c5902f841000d03a9525a4f',
    'invalid:131': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d6b5b09dd02d25b6817ceb0454d55aa66a0631ba27b039b96895b6840ac701eb',
    'invalid:132': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 32067678b546ccb03298012d494a974f569683915193e6ce6ec4640c73f03d0a',
    'invalid:133': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 63e961ed37c8aa6a6f899c731b101e68ef1c6b385d73769ada3d2653cbd05694',
    'invalid:134': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 884eb624b7e9e5c38ab380adace096a412b4bb2a3c49ea5fdf742450106e6ed2',
    'invalid:135': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 a9a36a76361cae80a35f4e5fed0e714d6085cc3e5c02f86a12ebc3ab41dc51bf',
    'invalid:136': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f2cbe8f417451aa2ccff21a2830657f1bc5b232bd2a0d93ad6a877c2e81e594a',
    'invalid:137': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7ffebb4389027f6f305811bfaccab87e1c29f98c006abcde09d2534b64b258bd',
    'invalid:138': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7f071c5ca69e18b630586f3cdb11708c4ec975f26d738733538c6076b0fd62be',
    'invalid:139': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7585db0ca89e5d347ab30af4bcc040e91857044c3136809a029ec5587772bdcd',
    'invalid:140': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ff050e9fe988f5ad4eb61484a75625acbb988cde909df6b20dc0317c2820979b',
    'invalid:141': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 225996d7e501164425e9ea0ae461cdc51760102dddb60d4621b79997e6b91454',
    'invalid:142': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ae1548dbe8c60b4ae4b66589dd71e287246a46d012809c4d32b645a88ecdc843',
    'invalid:143': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c416b9cd5b99eb955e32e85c0bb24d6a300ed2312bfc3702731d15b22401559f',
    'invalid:144': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5fbf6ae14015e48c45bc97fa94a08ef388350f4a9f4bf4dfbc7c840f651eab28',
    'invalid:145': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5cfe5ca9afd14e110680c93fa4f9a3c506e607b16010b62f29f05fea91f78e3b',
    'invalid:146': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ca63864c22e0207ab8ac032d00536c4d6887901a9a17fcbdf8763a868580e16f',
    'invalid:147': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b3289487082b5590c34ffeb76ba36e9cd2c7a03e639eb0e589523ba9c1f22c39',
    'invalid:148': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7f2ee57737bcb633cde13dad610bc2edbfa73e14ca14702bb42d980255bdf8b2',
    'invalid:149': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e669e56bdeb5b1f1ead57983fa4283db9dce05f5598dac030cfb6a3060e6cc8b',
    'invalid:150': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b43d0f1f25f221e52109dcaa604b4d90f54d56d60a36df1519c4fe9e6aed2062',
    'invalid:151': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2453bd576bdfdec28e43956d6e0c6f0ff8ea6b57c5b5e5f366799b0a73e7839b',
    'invalid:152': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b1e7c8cc8bded08ab161065da6eb1c2ce06cde92615270ecfdf5bcefd000227d',
    'invalid:153': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 756dc1d0c82530945b82296c27d9006fc5bc7483d99fc6ec8aec60107a064941',
    'invalid:154': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c523a70a93985d05bef286986cec277a6521cd83453affed3da3f1e190a26113',
    'invalid:155': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b1612acf49074b0107b5b0ccb7ca69e71842b96f5736a8026d8e532fecc283cc',
    'invalid:156': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f2cbe8f417451aa2ccff21a2830657f1bc5b232bd2a0d93ad6a877c2e81e594a',
    'invalid:157': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 46af7c7ca4cab2f44eeb9c28f33296b83ad181e14a1d31b021b0cbb591cd40bd',
    'invalid:158': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e43cf633386f77913116cfe5ec5d0c748e5250a16ab55d5dd342dfa32acc5644',
    'invalid:159': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 697ca0711d0fa7423df10e9eb784f3997fa52c65e8b36d447903293c9eccd6e5',
    'invalid:160': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 59b16ea2836c72e9e81ed250f1ab0378b31f5dc0a573964b3ef8b56aa9b850bf',
    'invalid:161': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f8e50c9a7bd888ea1e13116fda297c86bf3a6932942a88ddaec7bab213ce03b0',
    'invalid:162': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 fea2bd695e1e5966a6e1f93804b7b3e56fe37881904325d1ae1c7648db8dfead',
    'invalid:163': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d47f34b11bfb79b0ff591f28cae849a199fc50df63a4053397898d31719f9f10',
    'invalid:164': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9c9ca1bfe72bca98dad7ca27a96616d64aa7a9f07f9f255f579d21a51c2b35c1',
    'invalid:165': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 6b68691c7120e808a85d4f73848cd59b4acbe71f37c2ea7cda425a32130c8667',
    'invalid:166': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 66d8bf80a4c019676e8877820079ffa7adc7a8d4a2bdd232bb88b261c33ea90a',
    'invalid:167': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ce05040b453da83ce4912b8ec6b2cc5e4286ae068307e23c84f6191b67284f1d',
    'invalid:168': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 94d4774a5394f31e6df1343811853fd4a14df6d97cb9fa96d6fcc446e0243bec',
    'invalid:169': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d10782a0f530044a94f0fdb03265916458ca57208e5aeb3c17f541f1e126c7fd',
    'invalid:170': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 338a89c45e696077c0ba56cc4d9d87a27a832c952f7787e0388a64f0582c1ed7',
    'invalid:171': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3fe15932d9015b741caa96e3e3d17b32d2817215fed9b6026ff7eacaa0f64dd1',
    'invalid:172': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 a809e982ec2a6cefd16f1288ce8992b9b70897d4b62795eb292974716e2f115d',
    'invalid:173': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d86acfeccd7f7aeb9a50de134577d83798b015b6bfc34174e8e166b9f2f4e278',
    'invalid:174': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 65f702867120bb5b0fe272d3508e3b9e075854ef0f8445bc29368a777343ce76',
    'invalid:175': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 6795a770c30101a3e9e1b577affa5e708a1d60bacd1873d03fe6110d97c5ae37',
    'invalid:176': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 4c22362ab404253f8094db505556d4c4ca8456ba2abf09c94a1b8551aa8123cb',
    'invalid:177': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b084e31d4dffedd3651ecb6c46ef66727c4c6db842e22261e1d58eb1a08aff59',
    'invalid:178': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 4b36827d83bc5589b14c5ac346501ec7c5d0e83e01aa514b94b3dfb0051adc62',
    'invalid:179': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7231158ebfea8638bb596a9db2f1cb673df6aeb5d70c363253612202b041a166',
    'invalid:180': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3c49d8dbecbf1fd4debea23bdbf9eedb3749a69e36b50914d0ddff42a6e7d565',
    'invalid:181': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 8c90e33235f1b3ec3356a76391a7c307904d0d701172f5596f05c45c69fd60d6',
    'invalid:182': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 98f273ecd819955cf971a5d81f7eaa7174d748de104046ec48dbd388ef2f28bc',
    'invalid:183': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 8ff8fa505986bfcee144d1a17e4e0a3cecc74a2572bd6c6d0a4f6e91e33f0db8',
    'invalid:184': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 73ce17b7c07646cda48991873c2469cbcebf6d89e2785dcfa434ded2b75d4205',
    'invalid:185': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c1d15f7fde62061426d9bedfbe823e271ff7f5f89d511b54bb70a83ece22c5d1',
    'invalid:186': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b588b9d05e36f3c58fa3b21b7fb4b6f964c2e06f750885981a452c12be45c3f3',
    'invalid:187': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3ac0b4ec5bb27621aba5bd5a051dce46338b70274ac3fd4cc3b4451e0a7a2714',
    'invalid:188': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 fb208376541a7702040048b88f7ff46224c18519fbb7a92bff7486558605e641',
    'invalid:189': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 134af79d65e19edad562e4daab7aa3b05b7a2a358109d85b633045d71aac84ff',
    'invalid:190': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 212844995fa27b00b1ed1ba7898c538637061ecbd5dd66c59e5a3a2684344abb',
    'invalid:191': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 20b49189e56d004d119a1858995651566b7cb2a73a8b44e90eda3ab36a2a91e2',
    'invalid:192': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f6312b830653e048b1639718bcecf563f0c7034582c05a867d8f86231f903d4e',
    'invalid:193': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 4c079e1a34fb2be78eab50c4ed739df7579041fe10de44830f6b10a571b8098c',
    'invalid:194': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7a4741fb3efc10e9f3ddcb6cce1eeaedb0683fbb98cc9141e3d74a91e12f2989',
    'invalid:195': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 74136d2faf06db8ea2fb19f7b909d962b17ee7cf5cb3ecb6bb06ca579798c1e7',
    'invalid:196': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d71281361a78859704c8157766deb2a5207c62ff5a9d9dbb19c994bd2c86a4e9',
    'invalid:197': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 a49d8050542af171048985b3f74ce69f91f6fa1037aac48c294fb27ce126a752',
    'invalid:198': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c2898e29d75f1c4c3580cc78dafba75a2fe05832e463736694ed200074152546',
    'invalid:199': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b678289eba58cc3da1b1730dd9e529c19587f5a3f8f5c1d178124e970f481f46',
    'invalid:200': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 4504ce378c96f24e9cd419ab05707c2ddd7947dad1deae576582777fe38cb7b4',
    'invalid:201': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5550f4d3b472e0687b0fe7f1343811d744ebdaae69fddf0bedfbf53136ad706a',
    'invalid:202': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 6589783891dcd61ea5ac5d610f2c18730d097076ef92854a54e861f439ed26cc',
    'invalid:203': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5fdbf6199cecb73c41676e66ea02e294c3454d92938697baf34defea231672e5',
    'invalid:204': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e6432270fd9aa0e96a6d9b1284b3c723da7f816f65cb5188d4fb142d5524d7b9',
    'invalid:205': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9c29971012bd2493c09f350309c1ab9b39c82a5fe248bb810f6cce107bfee916',
    'invalid:206': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ff23c4b4b2adaf1b756a3b463ded7fa75dbb51ac78c87dcb9394d6c0497652f3',
    'invalid:207': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1d96431434733c3029429a62f3f28a6f064c68a39ce61a61f7bfadf71b22ccc8',
    'invalid:208': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 08effa0797eed7c40f021da231829758039a42e40cd0cd58b4669a7b97940a5c',
    'invalid:209': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 126596d829ee1e3d245ee82923d6d0b93512b93c6fd5fc1cff6b6854961d4842',
    'invalid:210': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d7a5ae4bb7de4b0e12a832a1fcf2cdc1067081ec143635ec8b6f4c0e102f753d',
    'invalid:211': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3230a61bbdba110b1ce0de51d538c2c9bafba420a51c4f762fe78a46a0b4e2e3',
    'invalid:212': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7bfefa0c672efbfb7c4a4a9408de0b24f49056cfc0cec54deaf53a87468b56f2',
    'invalid:213': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 55e6de8b8bed22167bb50bda36940faaa560ad238972568e4dc742bccc44f458',
    'invalid:214': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 dc02e7808990d4cd9d7c7f230e1232a5ec4b53a50cbb2c2123d250c35e4f02d2',
    'invalid:215': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 907dcf9959c9d693218c5e29ddb21b75b8004cbc70ede3679110eba083ed95d7',
    'invalid:216': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9d041d085b184a42943bd97a4275cced6dae864ff61fd921a9a7910d7e6aed8d',
    'invalid:217': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 699c3c54bc5ccc344f2bb0dacc4bc657ed9970ae19bf7da4da2763f45a2dd275',
    'invalid:218': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5e42b5a4a2c2115f0e33c327c6b533c1e2d93519adf126bb231472338562dc7a',
    'invalid:219': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 eae16efcfb3176574672452a08fbaa28d90adbe2e5202c5d5e1976b0e98fddbb',
    'invalid:220': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3213666423306c840cf58a729843f8bca23b32a1c4c2c5dcbb6676936af71fd7',
    'invalid:221': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c410549b71c5b677c4dcf1f8816a5132c4fe959beaa2045e556022bdcd11fe72',
    'invalid:222': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b8f93d919333e09247bed30cff60ca7c9b29c7481dc7dfa143ae5395e013f101',
    'invalid:223': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 dd33c87d78c9d28b46322207bc0fbdacc402c4f89be8e8e4dfe976d01b742a6e',
    'invalid:224': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1416e2ba58f079ce432ea0ebe0b4ef11ed46aca474664da824a5f8e58c27adb8',
    'invalid:225': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 830fe10ceb9c49afaf5f5b3ab95e361388bb2a7797c880a269e6eba0e9bbbc00',
    'invalid:226': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1569936c3d314a79e9ddf96936e8b669274bd2cb447254a0924300641d4de935',
    'invalid:227': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3efa94e62b6baaa1eb02edc98936c7bfd9f2b04fc52e5e31e88fd54c3fead59d',
    'invalid:228': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ba36a1145d226a65ee1bd2ec397c0506ff2c75973285264b75bef789922c27c1',
    'invalid:229': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 95a170e5935e073e5fd6f1de081f84dfb75086412ac88ad917b05398cfd03a6b',
    'invalid:230': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c0dd0238bd3d6c77f15038531bf530159bb260458d0a469f8fefdb24efd60291',
    'invalid:231': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 dbdb8ed3e6eea7a94483b74ab181ccbd7f3e52be971a654803ecdbd902e7b5df',
    'invalid:232': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 a6c7d16eea01d85d680247e769ea993e4ceb6459c363a566391d66d5e6eba7a8',
    'invalid:233': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7f73120ffcfad7af1622ec0985a9bd512a2c8ed20d98e0cc5c9ab90e4f7f7eeb',
    'invalid:234': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 84337a3710cea0501f58bfa51f4cd76a73d21141e249c2b267ddf99f7f77e60f',
    'invalid:235': '0 72e31af01117bc5cff639f49349eca16ed1420f0479ee777ec338b02b0a1f1c8 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'invalid:236': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 da1da0663b1691583954e37c1df5a1abdd51445b4b22bd0a96b67e731d6a688f',
    'invalid:237': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7969ae0bd37b4a24223a380b081f1bb19206473774e5f89575de6e3306edb518',
    'invalid:238': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 199589632ed39086146d54d134a0df3e2d116b485ec93aa88a7e387ffe425220',
    'invalid:239': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 516d28a2412625ceb6d7170fb0e75beff6cab8c4692165e5c1c791b902141866',
    'invalid:240': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 268512be80533dc905844f74c3185241d159231cefd1d6f6749421c7487a7669',
    'invalid:241': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1da6faf76b669a3777394a82acbd1f696ffc2547152866dc52c4bf8378f87bfe',
    'invalid:242': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 dce045d1da78c9e7b5caef81ceb809b40635fa777b40b186cf5a560d8bcf4f19',
    'invalid:243': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 33101e49c6a946ba595738e3b58813a1e3bc889d90ab488778af7f15cf39926b',
    'invalid:244': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 37e357055cfeac6858ebb8c858084e45f873023463a99b7b5c5e0c5254601d66',
    'invalid:245': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 28b0f02228c9c09a4de52fc350987d55d117c6cfc734d0edbf57667a4fc18927',
    'invalid:246': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3d2958d9efb4d220e69d13d0c5ac6a63223043e639fab1fe832acda36b396c76',
    'invalid:247': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 06a83088e303dc7c53868d0122770a738c6d1b1757d84e5d7f2e4bc48ac9cd94',
    'invalid:248': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d39c5a298e32d89c1ec5a2f48b717caf64b9dfc867c99b6b47d111e82b1be6e6',
    'invalid:249': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f3f589b3c7eeb41e6b4a1c7013bb1adeb2dc7dbb4fb048d280f670cf8b11dda2',
    'invalid:250': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de02750bd838c9833eaceb30f336a14c6b8af6b193e7c693161b1c8c964cc9cb',
    'invalid:251': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 62b6367d19a80b058f1762e4aefb45584da805a1ac34558a4c84d51ebe894520',
    'invalid:252': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7881853550f661627e4f4640ce0819e034d59b34976346d56f5ce84320981810',
    'invalid:253': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c523a70a93985d05bef286986cec277a6521cd83453affed3da3f1e190a26113',
    'invalid:254': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0b59ea2684f2aabf31776c65e37ffa312a2f653e2a94ee76a046527831a54c73',
    'invalid:255': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5a4e6f429ccf3beb41ce3cd73b42ef8c12cd0f86f55e79ec305efc440d930375',
    'invalid:256': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7537db5a3d6c4c5390ed05b102d309e779e6b041bd1caf4e5752b7b5f172e788',
    'invalid:257': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 4a6dba62a03138f6b9a4356e54ec2e849131d31c88c6d19ce1b9b23a0cdf62e1',
    'invalid:258': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c72fad3e8bbb466df6798dacd317d4beb4f774ba4b0c8706f60d03fd2571ec02',
    'invalid:259': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 4337272007228ad0cb9be38b0fa9d6096f7639fdf9c70f40f5aea09536d0f146',
    'invalid:260': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16f05622d2fa1f39d117ae05e206636da5a9c1a40f99418455eed4216e8b125d',
    'invalid:261': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e29d184ac984f0196a7b1a579058b2bec32115e625662ce760ab6095d7e96575',
    'invalid:262': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 73da9db4af232b01860bd2494842c66d19611c0c0ab1cf76e8152f64e616d412',
    'invalid:263': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0c243a9f973f24ecaaa728dbffc1c2271b1cf479b0da1f54a1976e94029cb0b6',
    'invalid:264': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 57edd5c61240a92c167c7fc00b2fe8e237149f528fe1981db5cdc019d3c0304a',
    'invalid:265': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 284940819679d8dd002c643cc969e5ddabc5559c0753b91d4b0726ec02fba355',
    'invalid:266': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e53ca1eb30c0ff1541dbe2dd57e86c4e6d07767ca4104638f2319a46d070046f',
    'invalid:267': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3b2b3e34aaf9d3dc962e794c44165eac0db91e0feb5700b9fd1c665832a488e3',
    'invalid:268': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 8bf29c6621b953278fe28645228fc5dab83a2bcf2b527fe848fee6573244cf9d',
    'invalid:269': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3708c5a5e69e42e6b531b66d499588550757d5b6a5fb4bb56850650dccb68fe3',
    'invalid:270': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e1c9a881aa25855c3efcf2b1ebc9ca7ce4d1161a8b4cd1e0a4dec48de93120d2',
    'invalid:271': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9bb3037d0c9d972c1ea0050b40649915b2f0746a25f9d26ea967f46e3c3dcb4e',
    'invalid:272': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 04cbcd71c6080c064185c89b87825a131cfe0c2b0b33d937680132951d1ccd61',
    'invalid:273': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 770ac0191bc67630b23d85fd54aa9850e7448a7764302aa72a3b28c1a003c04c',
    'invalid:274': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 efe9549c3dfcbac41bed8ce105e3d8a3c60db3b69882511931218de3035022a9',
    'invalid:275': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ba9dcd9b4baeaa7a61cb8be9fa5c58999dfad0e15ca1f5c382be92e1d84aab56',
    'invalid:276': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e94d561730d0dc292a6d84db348bebb7b0649cca1a7b376870bcfbc3cddd7bad',
    'invalid:277': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 719f2ccdb46eb5881bff49c3327ecd74a533ac9aef78a53d30bd09552390b81f',
    'invalid:278': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 6bf907aad6337a251489f2dbbf0e9888efbf8b9d6c1de60ac977851a4bff376e',
    'invalid:279': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e67f52060400dc130c5dbcca3190bb55d7db3143ecf28affb8c16b5035a52ea9',
    'invalid:280': '0 1c335e0676e88d1fddb46f4e139d047090107d1cff2d6338a93d593f7737118e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'invalid:281': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 bc4eaeabe3f0ef5d06529f01e0a661148514ea71a3e40ff54be5aa27bfac8f57',
    'invalid:282': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b0dcc443a4d0a37b73ddc39ab7b845506a65f2354b06aa5f5fa6f03db573be12',
    'invalid:283': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 910697944d2e2b0f78aa1ef76fcd69b0e5827eec03de6077a3909ae847db730b',
    'invalid:284': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9be6d8fe15dea3e27440781aab0178767e9ef5a677a2c97bd6608698ea160308',
    'invalid:285': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d0540dee380e0048597020df62be3be03aa7be14f394c50918fa82d3785fb614',
    'invalid:286': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9cee238a3ad2a1651406a69ea980961af92aa74ad5fba391614f6c2c19e50134',
    'invalid:287': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 eff98017cf236d4737d85363069979f339dba50cf694b23a2232c07d7b05d845',
    'invalid:288': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9c2bd5223bec1d56a17f3ce1259b7bd42d4b963b2d3fe66f08c08d7524763d37',
    'invalid:289': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 20d061cfc736eadbb419a2bed40512d8beb5ac962c889b420e5885e82a5037e8',
    'invalid:290': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d0c22d611bfcf06c466ee476dd31fa504b0393f48420f5209de8c91e9bff6ae9',
    'invalid:291': '0 fcb0303108f10a7ce05652eed84f7b6c4b91ff6ec6f4e6e1bd4bc18f40a96125 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'invalid:292': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 4c14a1542908b65d715c5b37362ea5d14a80a218be93e360e6d2408249a216f2',
    'invalid:293': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 cd5f1ce7c624a22b3ba0d89b718abf19c4ddbdb10d4845812b306b272127433c',
    'invalid:294': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5d42320b8ef88968ada657fb2048013ce73aa1b412ee7105b4c39b5a7ff2d47b',
    'invalid:295': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2e91bc9c0b55e1f920f0f078957ebb8856beeec4cab3fd0fa43bd4b2b82cf01e',
    'invalid:296': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 73e958becfbd8636ad7b185a4602d15e718814698cde4e20184f590821c736a8',
    'invalid:297': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 a0f5c0fa598fea834ea48b024451eed0997f52427782272ddf17079e8fa45c9b',
    'invalid:298': '0 dad89d732760509f1b40dd9d7150e00fb84b17223a3ea47ba2563f5956a09ab0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'invalid:299': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 4d3d8e89e5647ab1bfb4a16c944ccdfff678092e1476e525bb1085818da1cfff',
    'invalid-flag:0': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f7e175d10da92e0bf579ff5f83c29b6b2829bfbe7f83468d82b80f6807de5c04',
    'invalid-flag:1': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ceed7794b8ee86ce407057b807a902e94f6d7bf975ee30400b7b6539e783368f',
    'invalid-flag:2': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 26fb7fdca0bb276a1ac911bd54f6e41e8311e2752c92e0ad984af5793b7d03e0',
    'invalid-flag:3': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 76047be42f8e550fe4abf7c980984a139f5bd7bf696a9f5e7ae5eedd5a53dde3',
    'invalid-flag:4': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 aa824478a6adbcb4fcfcc70cb9f9cf6071eb2c416c3ee4cd5d0350513988f059',
    'invalid-flag:5': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c64fa3dbb02627c88fc4728fe3c70e52ae04af4f23b9081d0bda1068273ab35c',
    'invalid-flag:6': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3343d63644efa75dec849d377079b6e3c202e50bfe50375223ed63b8a899d2b0',
    'invalid-flag:7': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16e8cefc2db1a014ff7d564f6b4cedf673b98995c2b464898183e2355a02cd6a',
    'invalid-flag:8': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5be6dc847011c9216559caace318ee8fdde2ec5e3d2f2a33e1dcc6955f3b2ad7',
    'invalid-flag:9': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e9ac6808c59223671336e66edb7568e1c6d56f23f600c0fee9fee6c4d343ecc9',
    'invalid-flag:10': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 812284077fad68af1813d1ef7597f182eaa0446f2528beeae99439c919752f9d',
    'invalid-flag:11': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0d8393efa72ad0b017dce5187d8575005714df0b5b5a8e6b186461526f1e086c',
    'invalid-flag:12': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16e8cefc2db1a014ff7d564f6b4cedf673b98995c2b464898183e2355a02cd6a',
    'invalid-flag:13': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d302dc19493d89db02707cbc0c7a23d1f747145818ca1423dc7b76b5e8948996',
    'invalid-flag:14': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 43607cdf4b9bbb1dd32a38a3b7303c77338001327d19fa1b0f821e7022a87a9b',
    'invalid-flag:15': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2fa866ac1adba9606b3aaa08960a1c17cf20a0cf6e64c1ea6830bf0055bedf8d',
    'invalid-flag:16': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2cd50ff72f5fedf96edd1205ef684440ede49aa2b3f22b068dca993640960a00',
    'invalid-flag:17': '0 29db5ae76448e43f0656cbe822380a44e4add4048e981e538c53b6fd841a4627 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'invalid-flag:18': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16e8cefc2db1a014ff7d564f6b4cedf673b98995c2b464898183e2355a02cd6a',
    'invalid-flag:19': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7bce27f7b4b5c994f22e4617c7846b194eae18210b31ebe9989398cb78f79bb0',
    'invalid-flag:20': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3343d63644efa75dec849d377079b6e3c202e50bfe50375223ed63b8a899d2b0',
    'invalid-flag:21': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0d146cc1d1ad4201d1801b4c264730d9f57f28da634ad015d63798a42ac5277a',
    'invalid-flag:22': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 80400372fe3283410c4c1f85f1f3845fdd91c0c2cddda721d8abb9277afaaff2',
    'invalid-flag:23': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d302dc19493d89db02707cbc0c7a23d1f747145818ca1423dc7b76b5e8948996',
    'invalid-flag:24': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 39997cbcc9edb62f4c2cb61817a2adea790e542214503715c461cd859757360f',
    'invalid-flag:25': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0d146cc1d1ad4201d1801b4c264730d9f57f28da634ad015d63798a42ac5277a',
    'invalid-flag:26': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0d146cc1d1ad4201d1801b4c264730d9f57f28da634ad015d63798a42ac5277a',
    'invalid-flag:27': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 808073e2fea8655f26d101b549b17c02fd0c9a8a4f4febdd1957047c6e9c5160',
    'invalid-flag:28': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 26fb7fdca0bb276a1ac911bd54f6e41e8311e2752c92e0ad984af5793b7d03e0',
    'invalid-flag:29': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b820f2c7d906aff9a0b363af6de5fa373259f68b70c593570c8d3d580eff43b7',
    'invalid-flag:30': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2cd50ff72f5fedf96edd1205ef684440ede49aa2b3f22b068dca993640960a00',
    'invalid-flag:31': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 08b2f99a695b74acb1037c2fb1f248a142b6aafafac0944bda97261cb2d10fec',
    'invalid-flag:32': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 01ed838cf622c4d7fdf92c6e8104713b30d35c9afb669fa7bf670efc147fbb12',
    'invalid-flag:33': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7394e4d3ff68b0da9b82723649787ace90405d5e274873be014a4cc8e5f24194',
    'invalid-flag:34': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b820f2c7d906aff9a0b363af6de5fa373259f68b70c593570c8d3d580eff43b7',
    'invalid-flag:35': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 08b2f99a695b74acb1037c2fb1f248a142b6aafafac0944bda97261cb2d10fec',
    'invalid-flag:36': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 812284077fad68af1813d1ef7597f182eaa0446f2528beeae99439c919752f9d',
    'invalid-flag:37': '0 cd69c17ebfef65476ef3df167678da00cb6cfcb33e486493e026e49e9610c944 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'invalid-flag:38': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 01ed838cf622c4d7fdf92c6e8104713b30d35c9afb669fa7bf670efc147fbb12',
    'invalid-flag:39': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7bce27f7b4b5c994f22e4617c7846b194eae18210b31ebe9989398cb78f79bb0',
    'invalid-flag:40': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2fa866ac1adba9606b3aaa08960a1c17cf20a0cf6e64c1ea6830bf0055bedf8d',
    'invalid-flag:41': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2cd50ff72f5fedf96edd1205ef684440ede49aa2b3f22b068dca993640960a00',
    'invalid-flag:42': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7394e4d3ff68b0da9b82723649787ace90405d5e274873be014a4cc8e5f24194',
    'invalid-flag:43': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 6d23fa33aff8bc1f378aa7d5dc8ac623f6988a3b20bf672090cfb051c1b23c27',
    'invalid-flag:44': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 335f6a239d0910fdd32c0e691b9879dbf664323ee05594bd8f1adf5d99b0bfe1',
    'invalid-flag:45': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2fa866ac1adba9606b3aaa08960a1c17cf20a0cf6e64c1ea6830bf0055bedf8d',
    'invalid-flag:46': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 08b2f99a695b74acb1037c2fb1f248a142b6aafafac0944bda97261cb2d10fec',
    'invalid-flag:47': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1aa0e32eb05c5599f5fb366d741b234c52a65af6fa6c3f24939197c530053b65',
    'invalid-flag:48': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16e8cefc2db1a014ff7d564f6b4cedf673b98995c2b464898183e2355a02cd6a',
    'invalid-flag:49': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 10caf4261a480b292a1fe059332be3f0ed6ad3cfe4e986e32e020bdb039c3fa4',
    'invalid-flag:50': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2cd50ff72f5fedf96edd1205ef684440ede49aa2b3f22b068dca993640960a00',
    'invalid-flag:51': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0d146cc1d1ad4201d1801b4c264730d9f57f28da634ad015d63798a42ac5277a',
    'invalid-flag:52': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d302dc19493d89db02707cbc0c7a23d1f747145818ca1423dc7b76b5e8948996',
    'invalid-flag:53': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c32e62fdf9879280f6e81df726f895b7ae9a66e57e057fc948a79e3be8217425',
    'invalid-flag:54': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 815b66358e5349f3de8b88ef304de88f47d3641b43db01caaa9c83ea996b117a',
    'invalid-flag:55': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2cd50ff72f5fedf96edd1205ef684440ede49aa2b3f22b068dca993640960a00',
    'invalid-flag:56': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0d146cc1d1ad4201d1801b4c264730d9f57f28da634ad015d63798a42ac5277a',
    'invalid-flag:57': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 80400372fe3283410c4c1f85f1f3845fdd91c0c2cddda721d8abb9277afaaff2',
    'invalid-flag:58': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 95eeff01db4f2a739b2e7c9cec4602614f470bf7fa2f0951075638e5e4cbe045',
    'invalid-flag:59': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 75b8ef700c5bca023a84929922883b51be9576b6a5c23df37089192d654cbdba',
    'invalid-flag:60': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 812284077fad68af1813d1ef7597f182eaa0446f2528beeae99439c919752f9d',
    'invalid-flag:61': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 67bb82af7201660dbef795b160b468132614baa2a316f848a65829ee7539d8b6',
    'invalid-flag:62': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16e8cefc2db1a014ff7d564f6b4cedf673b98995c2b464898183e2355a02cd6a',
    'invalid-flag:63': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c32e62fdf9879280f6e81df726f895b7ae9a66e57e057fc948a79e3be8217425',
    'invalid-flag:64': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 335f6a239d0910fdd32c0e691b9879dbf664323ee05594bd8f1adf5d99b0bfe1',
    'invalid-flag:65': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 08b2f99a695b74acb1037c2fb1f248a142b6aafafac0944bda97261cb2d10fec',
    'invalid-flag:66': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f7e175d10da92e0bf579ff5f83c29b6b2829bfbe7f83468d82b80f6807de5c04',
    'invalid-flag:67': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9ee770294597c77aaac51f8b29ada457a489d70bc67ca0a813c0819d755a8e4f',
    'invalid-flag:68': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16e8cefc2db1a014ff7d564f6b4cedf673b98995c2b464898183e2355a02cd6a',
    'invalid-flag:69': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7bce27f7b4b5c994f22e4617c7846b194eae18210b31ebe9989398cb78f79bb0',
    'invalid-flag:70': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2cd50ff72f5fedf96edd1205ef684440ede49aa2b3f22b068dca993640960a00',
    'invalid-flag:71': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 812284077fad68af1813d1ef7597f182eaa0446f2528beeae99439c919752f9d',
    'invalid-flag:72': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16e8cefc2db1a014ff7d564f6b4cedf673b98995c2b464898183e2355a02cd6a',
    'invalid-flag:73': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16e8cefc2db1a014ff7d564f6b4cedf673b98995c2b464898183e2355a02cd6a',
    'invalid-flag:74': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 dcc72ee97ecb19a3a0a570c26632911964580eef384357179c069e30af75f5b0',
    'invalid-flag:75': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f7e175d10da92e0bf579ff5f83c29b6b2829bfbe7f83468d82b80f6807de5c04',
    'invalid-flag:76': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2cd50ff72f5fedf96edd1205ef684440ede49aa2b3f22b068dca993640960a00',
    'invalid-flag:77': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d302dc19493d89db02707cbc0c7a23d1f747145818ca1423dc7b76b5e8948996',
    'invalid-flag:78': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16e8cefc2db1a014ff7d564f6b4cedf673b98995c2b464898183e2355a02cd6a',
    'invalid-flag:79': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 39997cbcc9edb62f4c2cb61817a2adea790e542214503715c461cd859757360f',
    'invalid-flag:80': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0d8393efa72ad0b017dce5187d8575005714df0b5b5a8e6b186461526f1e086c',
    'invalid-flag:81': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 08b2f99a695b74acb1037c2fb1f248a142b6aafafac0944bda97261cb2d10fec',
    'invalid-flag:82': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9ee770294597c77aaac51f8b29ada457a489d70bc67ca0a813c0819d755a8e4f',
    'invalid-flag:83': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d302dc19493d89db02707cbc0c7a23d1f747145818ca1423dc7b76b5e8948996',
    'invalid-flag:84': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 335f6a239d0910fdd32c0e691b9879dbf664323ee05594bd8f1adf5d99b0bfe1',
    'invalid-flag:85': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 08b2f99a695b74acb1037c2fb1f248a142b6aafafac0944bda97261cb2d10fec',
    'invalid-flag:86': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ceed7794b8ee86ce407057b807a902e94f6d7bf975ee30400b7b6539e783368f',
    'invalid-flag:87': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16e8cefc2db1a014ff7d564f6b4cedf673b98995c2b464898183e2355a02cd6a',
    'invalid-flag:88': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7394e4d3ff68b0da9b82723649787ace90405d5e274873be014a4cc8e5f24194',
    'invalid-flag:89': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 39997cbcc9edb62f4c2cb61817a2adea790e542214503715c461cd859757360f',
    'invalid-flag:90': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c64fa3dbb02627c88fc4728fe3c70e52ae04af4f23b9081d0bda1068273ab35c',
    'invalid-flag:91': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0d146cc1d1ad4201d1801b4c264730d9f57f28da634ad015d63798a42ac5277a',
    'invalid-flag:92': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 80400372fe3283410c4c1f85f1f3845fdd91c0c2cddda721d8abb9277afaaff2',
    'invalid-flag:93': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 5be6dc847011c9216559caace318ee8fdde2ec5e3d2f2a33e1dcc6955f3b2ad7',
    'invalid-flag:94': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 75b8ef700c5bca023a84929922883b51be9576b6a5c23df37089192d654cbdba',
    'invalid-flag:95': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2fa866ac1adba9606b3aaa08960a1c17cf20a0cf6e64c1ea6830bf0055bedf8d',
    'invalid-flag:96': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2fa866ac1adba9606b3aaa08960a1c17cf20a0cf6e64c1ea6830bf0055bedf8d',
    'invalid-flag:97': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16e8cefc2db1a014ff7d564f6b4cedf673b98995c2b464898183e2355a02cd6a',
    'invalid-flag:98': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d302dc19493d89db02707cbc0c7a23d1f747145818ca1423dc7b76b5e8948996',
    'invalid-flag:99': '2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b820f2c7d906aff9a0b363af6de5fa373259f68b70c593570c8d3d580eff43b7',
}

GOLDEN_HIGH_RANK = {
    'kempf-high:0': '0 9b5b7a12a92821eaed44b54469eaa74913bd2d9171ef924a21ab186f91a14aea',
    'kempf-high:1': '0 ff889572f3837aa55f6acf14931dccc57feba25030a50a7aa28ab169f8080f70',
    'kempf-high:2': '0 75166a4f0e4a51f08d0157e18da1c92f3b827fe3821eed3bd91f267aaa8e7a7f',
    'kempf-high:3': '0 91dbaf29f239668d38a0183ae9263358080d855077ae9bcfebd479e89aefc9cf',
    'kempf-high:4': '0 9439e5d3942303aaf5b0cf85ab532d315c86acddecdc04d17d4617165a22ac52',
    'kempf-high:5': '0 324a8be7c069f08d0ff62705386956d777a71fcc49d77f54d9da665aa9a464f2',
    'kempf-high:6': '0 7c051be643f8c125194f594ae489e140d3edbd61d17b2c89f4ddc831fc71690d',
    'kempf-high:8': '0 915913afffa84f0523d0355fc3b1222140ddd8987fb644362ca037773c9d7870',
    'kempf-high:9': '0 a7d4ab1ce9109188b5812ac6c8bdccf7572a1917ef45e1c9e9cf33ab089ca029',
    'kempf-high:10': '0 fd58b3d8aca23e29332a6dfc5d2a40e0dc68e5013109df75a65ee613ef60f4c6',
    'kempf-high:11': '0 b32e3e86b2fc22c4373f2685590bd002a520b8076c2d2d5391fcad9e32f16dc4',
    'kempf-high:12': '0 0d7590d9d13a4d295806a3d059a87d2ec8054254ceaa9b1757fe53d79f7c5a6b',
    'kempf-high:14': '0 271ec2785a5e4c31002a9f033773adb45ed23ee841f73029a58ab82b5895e568',
    'kempf-high:15': '0 77da679669d9abf70339385bf7018ef001b9ef0b9d9be7542b4ee888a654fb4b',
    'kempf-high:16': '0 b0ad390575fb8b6043cf3bd4ed39db98607f876d727328605791d706006016a0',
    'kempf-high:18': '0 1c11a08c38aabd0d94f65a01bb08a7e92ac0aa4aef7bd2b338c531497948034a',
    'kempf-high:20': '0 d1cda21f248016070518e05e4db0b40c55567f5dd11e79075e4770f250bf951f',
    'kempf-high:21': '0 7d186c5d5e0c371a415d15d4edeea5a953b90b012602e6e9afa21012964212b6',
    'kempf-high:22': '0 502de306f90f5cd2bb4201d42ecef628f05ae827b7da16eb72f780d1ee9a70c6',
    'kempf-high:24': '0 9e2291df04b85c82b0e7510463ff37dddb772acd0bdbd7c7fba6ba95f746f179',
    'kempf-high:25': '0 437f574a4334d1b00357d3d41de519cb91fd8e0d798890d80a2b215b78da2e9f',
    'kempf-high:26': '0 9bb6ebfd51704aa4deee302e9d455b6b11ee5fe6143bf5753e1210c4a915544d',
    'kempf-high:28': '0 a8a65bfdf0b24e0a3182821352048ee4117e65a36d656d733ba5a44438efe818',
    'kempf-high:29': '0 8f3730f387fb9ac2974c892bd76a1494a3e06374e4d72fab1a6f2ac07ffd47a2',
}

GOLDEN_VERTEX_ORDER = {
    'quiver:order:0': '0 7eb6f783a3d2972d4d26c0da2c0f1626146305d618f32a0f259a6230487a2412 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:1': '0 b047a2c3fbd8966c31068f3f1c68b790a6dd5766b7f4fa26df0d92fc4da6a021 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:2': '0 a0945fcfa3660a43328f466358480eabe3e4b0159870246ab2388d848460dba5 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:3': '0 160038e62bb648d12102de20f3fae4bd32d87eb929624fed74786f3301ff5534 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:4': '0 4a9b2fb4864585c5e74662cd85c5218685dd85bf5eb8167bfe7fba601dead548 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:5': '0 53deaf53fee43589d06b2da4218c28da89ccd4ec7d3a9828c9ac3c62fa3cc094 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:6': '0 cde8edba6d46cc8cf9bf556d73f01b32fbd21f7ac0a807bca5af9e0ca2a44448 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:7': '0 69a38bc14bd951106ad15be5ca0661cc7ddb3dc0c9ff34d212d82008c5bb2d4f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:8': '0 237a6f9e1750ef2e14c594617bca50b997b80af1adfa741c400c9b456da4462b e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:9': '0 94f28b8518d887d3974fe35aaa483ef94284a21429910766aa80279d6afc9aeb e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:10': '0 db788317513f559719a470d594f4992f276d9803d926358a153ae6c579651565 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:11': '0 39b0da34b1a8a4fd619e1cc5dc0b6fe8a805db9f2b8bcf70fb3fa6f497f2a603 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:12': '0 d765732d3ebcb9c83dee344493639cf87146d16e2f45a06eb4ab5a041c269606 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:13': '0 ab62cf23368127e4a7fc4fbc9c02877ac7fccd49a0470b6438aeca0128befb02 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:14': '0 1baeb453ff36a6671189dc1f8350327f3dcea4d563508d7a3d39521a46521a98 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:15': '0 11e4b5647be67bd4e7694191ebb14058d121fb5eec9876179cfb3c8c4304a2ca e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:16': '0 b61d192122a403f5df554f541072862fd70b00073f74f67395795412fb60392a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:17': '0 d576b43c4a5d7e132741afb7cda7ddea0cb14562f1f7127ed6836fe595b7df7c e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:18': '0 cccfe4b38c530dc60f640aca3b28be7433511243b2fb967edf0daa7342374666 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:19': '0 bbf4935a52a83b872c16d7550849672bbf3a39a72cda5f00f963e071fcc7168e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:20': '0 c201265bf7b6c8e4a167383dee4dd7e350dd063b2966d8ce8d522ca1c9d9b3a1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:21': '0 ce3525964fc7002ebf108155c07c975fd7640665c94c625809ea40f20bb61d06 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:22': '0 dda9b3ecef6a1bef3f7a9261c7d41e486658f4f95fbb07e242bb1d8f3de44a8a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:order:23': '0 1db2a87e5a7d98f9f94ce77130e72133e925e8bbc5011ad7fd9300bff9be45a0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
}


def mismatches(cases, golden):
    """The cases whose digest differs from golden's, or that only one side has."""
    got = digests(cases)
    return sorted(case for case in got.keys() | golden.keys() if got.get(case) != golden.get(case))


def test_reports_match_golden_digests():
    moved = mismatches(_cases, GOLDEN)
    assert not moved, "report bytes changed: %s" % moved


def test_high_rank_kempf_reports_match_golden_digests():
    moved = mismatches(_high_rank_cases, GOLDEN_HIGH_RANK)
    assert not moved, "report bytes changed: %s" % moved


def test_out_of_order_vertex_reports_match_golden_digests():
    moved = mismatches(_vertex_order_cases, GOLDEN_VERTEX_ORDER)
    assert not moved, "report bytes changed: %s" % moved


if __name__ == "__main__":
    TABLES = (("GOLDEN", _cases, GOLDEN), ("GOLDEN_HIGH_RANK", _high_rank_cases, GOLDEN_HIGH_RANK),
              ("GOLDEN_VERTEX_ORDER", _vertex_order_cases, GOLDEN_VERTEX_ORDER))
    if sys.argv[1:] == ["--check"]:
        moved = [case for _, cases, golden in TABLES for case in mismatches(cases, golden)]
        for case in moved:
            print("report bytes changed: %s" % case, file=sys.stderr)
        print("%d golden digests checked, %d mismatched"
              % (sum(len(golden) for *_, golden in TABLES), len(moved)))
        sys.exit(1 if moved else 0)
    for table, cases, _ in TABLES:
        print("%s = {" % table)
        for case, digest in digests(cases).items():
            print("    %r: %r," % (case, digest))
        print("}")
