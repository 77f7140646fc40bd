"""Property tests: every schema-valid problem file, with any in-range option
flags and well-formed or malformed kempf JSON flags, ends in exit 0, 2 or 3,
never in a traceback, and every exit-0 report validates.  The one-pass JSON
encoder writes the bytes of json.dumps(sort_keys=True, indent=2) for any
JSON value."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedloci.cli import _one_pass_json, load_problem, main
from schema_oracles import validate_report

ENTRY = st.integers(-3, 3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8)
# every kind of JSON leaf, among them the floats json.load accepts in an
# echoed problem file, and any text: non-ASCII, quotes, backslashes, controls
ANY_LEAF = (st.none() | st.booleans() | st.integers()
            | st.integers(-10 ** 80, 10 ** 80)
            | st.sampled_from([0, -1, 2 ** 64, -2 ** 100])
            | st.floats()
            | st.sampled_from([-0.0, 1e16, float("nan"), float("inf"), float("-inf")])
            | st.text())
ANY_JSON = st.recursive(
    ANY_LEAF,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(st.integers(), max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)
# keys a record template must escape: % (doubled in the template), quotes,
# backslashes and non-ASCII
COLUMN_KEYS = st.lists(st.sampled_from(["%", "%s", "%%d", '"', "\\", "\u00e9", "a", "b"]),
                       max_size=4, unique=True)
COLUMN_VALUES = (ANY_LEAF | st.lists(ANY_LEAF, max_size=3)
                 | st.lists(st.lists(ANY_LEAF, max_size=2), max_size=2)
                 | st.lists(ANY_LEAF, max_size=2).map(tuple)
                 | st.dictionaries(st.sampled_from(["a", "b"]), ANY_LEAF, max_size=2))


@st.composite
def records(draw, depth=1):
    """2-6 dicts drawn on one key set, each column a mix of JSON values, tuples
    and lists of records one level down; one list in four has a record whose
    key set differs."""
    keys = draw(COLUMN_KEYS)
    value = COLUMN_VALUES if depth == 0 else COLUMN_VALUES | records(depth - 1)
    out = [{k: draw(value) for k in keys} for _ in range(draw(st.integers(2, 6)))]
    if draw(st.integers(0, 3)) == 0:
        odd = out[draw(st.integers(0, len(out) - 1))]
        odd[draw(st.sampled_from(["%d", "\u00e9", "c"]))] = draw(ANY_LEAF)
    return out


@st.composite
def problem_files(draw):
    """A schema-valid toric or weights file, and kempf flags for a weights file."""
    kind = draw(st.sampled_from(["toric", "weights"]))
    r = draw(st.integers(0, 3))
    # one file in four may mix vector lengths, which the schema allows
    ragged = draw(st.integers(0, 3)) == 0

    def vectors(r):
        return st.lists(ENTRY, max_size=3) if ragged else st.lists(ENTRY, min_size=r, max_size=r)

    items = []
    for _ in range(draw(st.integers(0, 6))):
        item = {"chi": draw(vectors(r))}
        if draw(st.booleans()):
            item["mult"] = draw(st.integers(1, 3))
        items.append(item)
    data = {"kind": kind, "g_rank": r, "weights" if kind == "toric" else "items": items,
            "theta": draw(vectors(r))}
    flags = []
    if kind == "weights":
        pair = st.lists(st.integers(0, 7), min_size=2, max_size=2)
        support, inner = st.lists(pair, max_size=6), st.lists(vectors(r), max_size=3)
        if draw(st.booleans()):
            data["support"] = draw(support)
        if draw(st.booleans()):
            data["options"] = {"inner_product": draw(inner)}
        for flag, value in (("--support", support), ("--inner-product", inner)):
            # absent, well-formed, or malformed: not JSON, or JSON of any shape
            how = draw(st.integers(0, 3))
            if how:
                text = [json.dumps(draw(value)), draw(st.text(max_size=8)),
                        json.dumps(draw(JSON_VALUES))][how - 1]
                flags.append("%s=%s" % (flag, text))
    return data, flags


@st.composite
def grassmann_files(draw):
    n = draw(st.integers(1, 8))
    # one file in four has a weight list of the wrong length
    length = draw(st.integers(0, 9).filter(lambda k: k != n)) if draw(st.integers(0, 3)) == 0 else n
    return {"kind": "grassmann", "m": draw(st.integers(1, 8)), "n": n,
            "weights": draw(st.lists(ENTRY, min_size=length, max_size=length))}


@st.composite
def quiver_runs(draw):
    """A schema-valid quiver file and in-range flags.

    1-4 vertices and 0-6 arrows; an arrow may be a loop and may come with
    its reverse, a 2-cycle.  α has total dimension at most 8, and three
    files in four pair θ with α to zero.  Half the files grade the arrows
    by arrow_weights of aux_rank 0-2.  Each of --window 0-2, --trials 0-30,
    --prime 2, 3 or 5, and --seed is given or not."""
    vertices = ["v%d" % i for i in range(draw(st.integers(1, 4)))]
    vertex = st.sampled_from(vertices)
    pairs, count = [], draw(st.integers(0, 6))
    while len(pairs) < count:
        s = draw(vertex)
        pairs.append((s, s) if draw(st.integers(0, 4)) == 0 else (s, draw(vertex)))
        if draw(st.integers(0, 3)) == 0:
            pairs.append(pairs[-1][::-1])
    arrows = [{"id": "a%d" % i, "src": s, "tgt": t} for i, (s, t) in enumerate(pairs[:count])]
    alpha = {v: draw(st.integers(0, 3)) for v in vertices}
    while sum(alpha.values()) > 8:
        alpha[max(alpha, key=alpha.get)] -= 1
    theta = {v: draw(ENTRY) for v in vertices}
    if draw(st.integers(0, 3)) > 0:  # S θ_v - P, with S = Σ α_v and P = Σ θ_v α_v
        total, pairing = sum(alpha.values()), sum(theta[v] * alpha[v] for v in vertices)
        theta = {v: total * t - pairing for v, t in theta.items()}
    # the schema lets alpha and theta leave out zero entries, which then count as 0
    alpha = {v: n for v, n in alpha.items() if n or draw(st.booleans())}
    theta = {v: n for v, n in theta.items() if n or draw(st.booleans())}
    data = {"kind": "quiver", "vertices": vertices, "arrows": arrows,
            "alpha": alpha, "theta": theta}
    if draw(st.booleans()):
        aux = draw(st.integers(0, 2))
        grade = st.lists(st.integers(-2, 2), min_size=aux, max_size=aux)
        data["arrow_weights"] = {"aux_rank": aux,
                                 "weights": {a["id"]: draw(grade) for a in arrows}}
    flags = []
    for flag, values in (("--window", st.integers(0, 2)), ("--trials", st.integers(0, 30)),
                         ("--prime", st.sampled_from([2, 3, 5])), ("--seed", st.integers(0, 99))):
        if draw(st.booleans()):
            flags += [flag, str(draw(values))]
    return data, flags


def _ends_in_known_exit_code(command, data, flags=()):
    with tempfile.TemporaryDirectory() as tmp:
        problem = os.path.join(tmp, "problem.json")
        with open(problem, "w") as fh:
            json.dump(data, fh)
        load_problem(problem)  # the generators only write schema-valid files
        out = os.path.join(tmp, "report.json")
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([command, problem, "--out", out] + list(flags))
        assert code in (0, 2, 3)
        if code == 0:
            with open(out) as fh:
                validate_report(json.load(fh))


@settings(max_examples=150, deadline=None)
@given(problem_files())
def test_schema_valid_problems_end_in_known_exit_codes(run):
    data, flags = run
    _ends_in_known_exit_code("kempf" if data["kind"] == "weights" else "toric", data, flags)


@settings(max_examples=100, deadline=None)
@given(grassmann_files())
def test_grassmann_files_end_in_known_exit_codes(data):
    _ends_in_known_exit_code("grassmann", data)


@settings(max_examples=150, deadline=None)
@given(quiver_runs())
def test_quiver_files_end_in_known_exit_codes(run):
    _ends_in_known_exit_code("quiver", *run)


@settings(max_examples=500, deadline=None)
@given(ANY_JSON)
def test_one_pass_encoder_matches_json_dumps(value):
    assert _one_pass_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(records())
def test_one_pass_encoder_matches_json_dumps_on_records(value):
    assert _one_pass_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    [True, 1], [{"a": True}, {"a": 1}], [{"w": None}, {"w": {"p": 5}}], [[], [1], [[]]],
    [{"%s": 1}, {"%s": 2}], [1.5, 2], [(1, 2), [3]], [{}, {}],
], ids=repr)
def test_one_pass_encoder_on_mixed_columns(value):
    assert _one_pass_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"
