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
    """A schema-valid quiver file and in-range --window/--trials/--prime flags."""
    vertices = ["v%d" % i for i in range(draw(st.integers(1, 3)))]
    vertex = st.sampled_from(vertices)
    arrows = [{"id": "a%d" % i, "src": draw(vertex), "tgt": draw(vertex)}
              for i in range(draw(st.integers(0, 4)))]
    alpha = {v: draw(st.integers(0, 2)) for v in vertices}
    theta = {v: draw(ENTRY) for v in vertices}
    ones = [v for v in vertices if alpha[v] == 1]
    if ones and draw(st.integers(0, 3)) > 0:  # pair theta with alpha to zero
        theta[ones[0]] = 0
        theta[ones[0]] = -sum(theta[v] * alpha[v] for v in vertices)
    # the schema lets alpha and theta leave out vertices, which then count as 0
    alpha = {v: n for v, n in alpha.items() if draw(st.integers(0, 3))}
    theta = {v: n for v, n in theta.items() if draw(st.integers(0, 3))}
    data = {"kind": "quiver", "vertices": vertices, "arrows": arrows,
            "alpha": alpha, "theta": theta}
    if draw(st.booleans()):
        aux = draw(st.integers(0, 2))
        grade = st.lists(st.integers(-2, 2), min_size=aux, max_size=aux)
        data["arrow_weights"] = {"aux_rank": aux,
                                 "weights": {a["id"]: draw(grade) for a in arrows}}
    flags = []
    for flag, values in (("--window", st.integers(0, 1)), ("--trials", st.integers(0, 5)),
                         ("--prime", st.sampled_from([2, 3, 5, 7]))):
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
