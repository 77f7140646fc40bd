"""Golden report bytes.

GOLDEN pins the exit code and the sha256 of the CLI's stdout for every
`problems/*.json` file in json, table and dot format, for 60 seeded kempf
files (g_rank 0-4) run with `--support` and `--inner-product` flags, and
for 60 seeded toric files (g_rank 0-3, with multiplicities, one in three
with a section) in json and dot format, and for 38 seeded quiver files
and four Kronecker quivers in json format.  Seeded toric and quiver cases
also pin the sha256 of stderr, since many of their files exit 2 or 3.  The
quiver cases pin the F_p witnesses and the trials that found them, so they
hold the subrepresentation scans to their exact answers.  A refactoring
or speed-up must leave every one of them unchanged.

When a change is meant to alter a report, regenerate the table with

    PYTHONPATH=src python tests/test_golden_reports.py

paste the printed lines over GOLDEN, and name the reports that moved, and
why, in the change's description.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from fixedloci.cli import main
from fixedloci.errors import FixedLociError
from fixedloci.linalg import IntMatrix, cokernel_with_section

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


def _toric_file(seed):
    """A seeded toric problem; one in three carries a section, and one in
    fifteen has 18 coordinates, past the fan-enumeration guard.

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
                _, c = cokernel_with_section(IntMatrix.from_rows(rows, r))
                shear = [[rng.randint(-1, 1) for _ in range(m - r)] for _ in range(r)]
                section = [[c.entries[i][j] + sum(rows[i][k] * shear[k][j] for k in range(r))
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
    mostly 0, which keeps cycles in the support quiver: those components
    end `fp_witness` or `CandidateOnly`.  One file in thirteen has total
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


def _kronecker(n, a, b):
    return {"kind": "quiver", "vertices": ["1", "2"],
            "arrows": [{"id": "a%d" % i, "src": "1", "tgt": "2"} for i in range(n)],
            "alpha": {"1": a, "2": b}, "theta": {"1": -b, "2": a}}


KRONECKER_RUNS = (
    ((3, 3, 4), ["--window", "2", "--prime", "5", "--trials", "200"]),
    ((3, 3, 5), ["--window", "2", "--prime", "5", "--trials", "200"]),
    ((3, 2, 3), ["--window", "1", "--prime", "3", "--trials", "40", "--seed", "7"]),
    ((4, 1, 3), ["--prime", "2", "--trials", "20", "--seed", "3"]),
)


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
    runs += [("quiver:K%d(%d,%d)" % nab, _kronecker(*nab), flags) for nab, flags in KRONECKER_RUNS]
    for case, data, flags in runs:
        path = os.path.join(tmp, case.replace(":", "_") + ".json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        yield case, ["quiver", path] + flags


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(args, with_stderr):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    digest = "%d %s" % (code, _sha(out.getvalue()))
    if with_stderr:
        digest += " " + _sha(err.getvalue())
    return digest


def digests():
    with tempfile.TemporaryDirectory() as tmp:
        return {case: _run(args, case.startswith(("toric:", "quiver:"))) for case, args in _cases(tmp)}


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
    'toric:14:json': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ed4d926061d87a8e61a59bfe5c071514d2f04b77d29577a9460a7cbf7a6f4834',
    'toric:14:dot': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ed4d926061d87a8e61a59bfe5c071514d2f04b77d29577a9460a7cbf7a6f4834',
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
    'toric:29:json': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ed4d926061d87a8e61a59bfe5c071514d2f04b77d29577a9460a7cbf7a6f4834',
    'toric:29:dot': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ed4d926061d87a8e61a59bfe5c071514d2f04b77d29577a9460a7cbf7a6f4834',
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
    'toric:44:json': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ed4d926061d87a8e61a59bfe5c071514d2f04b77d29577a9460a7cbf7a6f4834',
    'toric:44:dot': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ed4d926061d87a8e61a59bfe5c071514d2f04b77d29577a9460a7cbf7a6f4834',
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
    'toric:59:json': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ed4d926061d87a8e61a59bfe5c071514d2f04b77d29577a9460a7cbf7a6f4834',
    'toric:59:dot': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ed4d926061d87a8e61a59bfe5c071514d2f04b77d29577a9460a7cbf7a6f4834',
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
    'quiver:13': '0 b30b05e91020a4be481cec72c6e64828488ca9609e1abfda034da64dfe95f8c1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:14': '0 946a7aef3031fd3a5e33d83221e7a0b2a6ba485b616eb08539e2f2d88b5a603e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:15': '0 bd5fe67a525df220f0bcafb0fa222acf217a4f1eb936d1ca9ef7d2b77130500e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:16': '0 9baa80f277a6048073d844f8038205042d0989605923412dbf75640c0db2e09a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:17': '0 a7c64da5b16230e5b9458d4fafec015c0fc30f4972c4b42df3469303e4d790f0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:18': '0 07b449d7d8b3799832e60b2d8e3cf676477a6096ad5d85da84651c93d6efa979 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:19': '0 b356f6932c4c0cfae9b1b6d0daeb5a3ebcfb1f9fc49023592c3454e069009e19 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:20': '0 d41c783b661998394ed364aebbbf68fe744c4332c9a7a7538b519ecc7a309b8c e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:21': '0 5ed47592a989c0b7f2dd86fa233234fe98039587c96d8b7fd30a2cc1ecf62971 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:22': '0 8b36908dfa9697cc660bf31103a9b98c632e3ee67bd3af984fcb5bcb2251ebbe e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:23': '0 424b84f3205bc1fc48c3216f484eb90806b79025c8c92640a46aceaf5502840a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:24': '0 ddf8d100e5b2b461f4e6dbb08c28e5197417e74cf215ad69375423a6a8fe694d e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:25': '3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ed544937690ba3138b2a67abeff096e4a66ab9160897196973eedac06c304c56',
    'quiver:26': '0 a9fc25c5aa2764f5ce86daeb478959420c4c779021602b0bac13e69f5bedac76 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:27': '0 ef7ad0380545e09653ea1ca3d6d57121fd69dd0be9314a3cca865cadda3571dd e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:28': '0 653006115d05050ffa38143ecd3c95d3c8ecb8ceb82e72c6d5af46e3b8b9e69b e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:29': '0 f0f0dda1134f123bdceeebbdd571d8caaa2137c675a46dc691dd33d407309032 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:30': '0 309e01245137430eff328ac02e9e4e6c5e27bd78c4dc25c8f240c14554e777d0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:31': '0 47042b9de21d43048b249ba77efdcf23acaeab18d1581a801f3cfe162e95d0f9 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:32': '0 5d115c2bbfb24b9a26622bdb5ee5685456d79e95ceadcbf2dde72e4010249f5e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:33': '0 e3548d1b5d299e7bd775fcbc9a7448485b128913554c5d9725da2e588c17f5aa e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:34': '0 54db72f63dc4d5a4b388216103f0d6c3390d0c07e76d15a0372722cdcd9d615d e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:35': '0 48d167fcd8fde6a10794a2ec8525f8f8d28f97692f17d8a2a9ffd048de7b1907 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:36': '0 0511ebb77801fc0edef90347fa30aaa988bfd535c29b26092c4486ef92b14efd e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:37': '0 5cc4c371e4ca5254c28cda5e74430a49d0d067ccebe45750178dafb0d0126692 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:K3(3,4)': '0 dd0da51c6c5934725cbc8327a75d665334ccae8479aab2fc5a1c5000c1ba885e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:K3(3,5)': '0 fbe2e998e2cf85857b426a2fd4cdfbe40baefb4b31d1909fa995085f62aaa9a6 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:K3(2,3)': '0 e31ecf1a1a1b65665f58cefcd5b289f71069a7f424e07d35992a4780b9de01e8 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'quiver:K4(1,3)': '0 4a564cf5f33f9de8040ede2954578279129c6188ef432648719062867c0c0db4 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
}


def test_reports_match_golden_digests():
    got = digests()
    assert sorted(got) == sorted(GOLDEN)
    moved = [case for case in GOLDEN if got[case] != GOLDEN[case]]
    assert not moved, "report bytes changed: %s" % moved


if __name__ == "__main__":
    for case, digest in digests().items():
        print("    %r: %r," % (case, digest))
