"""The CLI's compiled schema checks against jsonschema, and the CLI without jsonschema.

`cli._schema_errors` must give jsonschema 4.26's (path, message) pairs on
seeded mutated problem documents, and its first error on flag values; the
messages reach the user on stderr, and `load_problem` shows the first error
at the least path.  The schema is compiled once per process, on first use.
The CLI must then run every subcommand with jsonschema unimportable, and
leave it, `referencing` and `rpds` unimported.
"""

import collections
import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import fixedloci
from fixedloci import cli
from fixedloci.cli import _problem_schema, _schema_errors, load_problem, main
from fixedloci.errors import ValidationError
from schema_oracles import jsonschema_errors
from test_golden_reports import BASES, KIND_TO_COMMAND, PROBLEMS, _nodes, _parent

JUNK = (2.0, -2.0, 1e400, -1e400, float("nan"), True, False, 0, -1, 1, 2.5, "x", "",
        "toric", None, [], [1], [[0, 0]], [0, 0, 0], {}, {"a": 1})
KEYS = ("extra", "kind", "w", "mult", "options", "chi", "window", "aux_rank", "zz")
KEYWORDS = {
    "type": ("is not of type",),
    "enum": ("is not one of",),
    "const": ("was expected",),
    "minimum": ("is less than the minimum of",),
    "minItems": ("should be non-empty", "is too short"),
    "maxItems": ("is expected to be empty", "is too long"),
    "required": ("is a required property",),
    "additionalProperties": ("Additional properties are not allowed",),
}


def _keyword(message):
    return next(k for k, texts in KEYWORDS.items() if any(t in message for t in texts))


def _mutated(rng, bases):
    """A base document with one to three junk values, deleted keys or items,
    extra keys or appended items; one in fifty is replaced whole."""
    doc = copy.deepcopy(rng.choice(bases))
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_nodes(doc)))
        node = doc
        for key in path:
            node = node[key]
        junk = copy.deepcopy(rng.choice(JUNK))
        op = rng.randrange(4)
        if op == 0 and path:
            parent, key = _parent(doc, path)
            parent[key] = junk
        elif op == 1 and path:
            parent, key = _parent(doc, path)
            del parent[key]
        elif op == 2 and isinstance(node, dict):
            node[rng.choice(KEYS)] = junk
        elif op == 3 and isinstance(node, list):
            node.append(junk)
    return copy.deepcopy(rng.choice(JUNK)) if rng.random() < 0.02 else doc


def _flag_value(rng, depth=0):
    if depth < 3 and rng.random() < 0.5:
        return [_flag_value(rng, depth + 1) for _ in range(rng.choice((0, 1, 2, 2, 2, 3)))]
    return copy.deepcopy(rng.choice(JUNK + (3, 5, -3)))


def test_walker_agrees_with_jsonschema():
    schema = _problem_schema()
    bases = [json.loads(p.read_text()) for p in sorted(PROBLEMS.glob("*.json"))] + list(BASES)
    rng = random.Random("walker-oracle")
    seen = collections.Counter()
    invalid = 0
    for _ in range(5000):
        doc = _mutated(rng, bases)
        # each `if` is compared too: a `const` error shows only there
        for rule in [schema] + [r["if"] for r in schema["allOf"]]:
            got = sorted(_schema_errors(doc, rule))
            assert got == sorted(jsonschema_errors(doc, rule)), (doc, rule)
            seen.update(_keyword(message) for _, message in got)
        invalid += any(_schema_errors(doc, schema))
    assert invalid > 2500, invalid

    then = {r["if"]["properties"]["kind"]["const"]: r["then"]["properties"] for r in schema["allOf"]}
    options = then["quiver"]["options"]["properties"]
    flag_rules = (options["window"], options["prime"], options["trials"], then["weights"]["support"],
                  then["weights"]["options"]["properties"]["inner_product"])
    for _ in range(1200):
        value = _flag_value(rng)
        for rule in flag_rules:
            got = next(_schema_errors(value, rule), None)
            assert got == next(iter(jsonschema_errors(value, rule)), None), (value, rule)
            seen[got and _keyword(got[1])] += 1
    assert all(seen[k] >= 20 for k in KEYWORDS), seen


def _chosen(errors):
    """The error load_problem shows: the first one at the least path."""
    return min(errors, key=lambda e: e[0], default=None)


def test_load_problem_shows_jsonschemas_first_least_path_error(tmp_path):
    schema = _problem_schema()
    bases = [json.loads(p.read_text()) for p in sorted(PROBLEMS.glob("*.json"))] + list(BASES)
    rng = random.Random("walker-oracle")
    path = tmp_path / "doc.json"
    invalid = ties = 0
    for _ in range(5000):
        doc = _mutated(rng, bases)
        path.write_text(json.dumps(doc))
        expected = jsonschema_errors(doc, schema)
        want = _chosen(expected)
        try:
            load_problem(str(path))
            got = None
        except ValidationError as exc:
            got = str(exc)
        if want is None:
            assert got is None, (doc, got)
            continue
        loc = "/".join(map(str, want[0])) or "(root)"
        assert got == "%s: at %s: %s" % (path, loc, want[1]), doc
        invalid += 1
        ties += sum(e[0] == want[0] for e in expected) > 1
    # in a tie the first error in walk order wins, so the order matters too
    assert invalid > 2500 and ties > 200, (invalid, ties)


def _weights_doc(**fields):
    return dict({"kind": "weights", "g_rank": 1, "items": [{"chi": [1]}], "theta": [1]}, **fields)


@pytest.mark.parametrize("doc", [
    _weights_doc(items=[{"chi": chi}]) for chi in ([True], [1.0], [1e400], [float("nan")], [])
] + [
    _weights_doc(support=support) for support in ([[-1, 0]], [[0.0, 0]], [[0, 0, 0]])
], ids=["chi-true", "chi-1.0", "chi-1e400", "chi-nan", "chi-empty",
        "support-negative", "support-float", "support-triple"])
def test_integer_array_fast_path_keeps_jsonschemas_errors(doc):
    # a list of plain ints skips the per-item checks; bools, floats and
    # values under the minimum must still reach them
    got = list(_schema_errors(doc, _problem_schema()))
    expected = jsonschema_errors(doc, _problem_schema())
    assert sorted(got) == sorted(expected)
    assert _chosen(got) == _chosen(expected)


def test_schema_compiles_once_and_not_at_import(monkeypatch):
    calls = []
    compile_node = cli._compile

    def counting(schema, table):
        calls.append(schema)
        return compile_node(schema, table)

    monkeypatch.setattr(cli, "_compile", counting)
    cli._compiled.cache_clear()
    cli._flag_check.cache_clear()
    args = ["kempf", str(PROBLEMS / "kempf_halfplane.json"), "--support", "[[0, 0]]"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0
        compiled = len(calls)
        assert main(args) == 0
    assert len(calls) == compiled and calls.count(_problem_schema()) == 1

    src = str(Path(fixedloci.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import fixedloci.cli as c; print(c._compiled.cache_info().currsize)"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr


NO_JSONSCHEMA = r"""
import contextlib, io, json, sys
sys.modules["jsonschema"] = None
from fixedloci.cli import main
runs = []
for args in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    runs.append([code, out.getvalue(), err.getvalue()])
loaded = sorted(m for m, mod in sys.modules.items()
                if mod is not None and m.split(".")[0] in ("jsonschema", "referencing", "rpds"))
print(json.dumps({"runs": runs, "loaded": loaded}))
"""


def test_cli_runs_without_jsonschema():
    with tempfile.TemporaryDirectory() as tmp:
        invalid = os.path.join(tmp, "invalid.json")
        with open(invalid, "w") as fh:
            json.dump({"kind": "toric", "g_rank": 1, "weights": [{"chi": [1], "mult": 0}],
                       "theta": [1], "extra": True}, fh)
        runs = [[KIND_TO_COMMAND[json.loads(p.read_text())["kind"]], str(p)]
                for p in sorted(PROBLEMS.glob("*.json"))]
        runs += [["toric", invalid], ["quiver", str(PROBLEMS / "kronecker3.json"), "--window=-1"]]
        src = str(Path(fixedloci.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", NO_JSONSCHEMA, json.dumps(runs)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout)
        expected = []
        for args in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
            expected.append([code, out.getvalue(), err.getvalue()])
    assert [r[0] for r in expected] == [0, 0, 0, 0, 2, 2]
    assert child["runs"] == expected
    assert child["loaded"] == []
