"""Golden report bytes.

GOLDEN pins the exit code and the sha256 of the CLI's stdout for every
`problems/*.json` file in json, table and dot format, and for 60 seeded
kempf files (g_rank 0-4) run with `--support` and `--inner-product` flags.
A refactoring or speed-up must leave every one of them unchanged.

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


def _run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return "%d %s" % (code, hashlib.sha256(out.getvalue().encode()).hexdigest())


def digests():
    with tempfile.TemporaryDirectory() as tmp:
        return {case: _run(args) for case, args in _cases(tmp)}


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
}


def test_reports_match_golden_digests():
    got = digests()
    assert sorted(got) == sorted(GOLDEN)
    moved = [case for case in GOLDEN if got[case] != GOLDEN[case]]
    assert not moved, "report bytes changed: %s" % moved


if __name__ == "__main__":
    for case, digest in digests().items():
        print("    %r: %r," % (case, digest))
