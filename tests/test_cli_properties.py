"""Property test: every schema-valid toric or weights problem file ends in
exit 0, 2 or 3, never in a traceback, and every exit-0 report validates."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from fixedloci.cli import load_problem, main, validate_report

ENTRY = st.integers(-3, 3)


@st.composite
def problem_files(draw):
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
    if kind == "weights":
        if draw(st.booleans()):
            pair = st.lists(st.integers(0, 7), min_size=2, max_size=2)
            data["support"] = draw(st.lists(pair, max_size=6))
        if draw(st.booleans()):
            data["options"] = {"inner_product": draw(st.lists(vectors(r), max_size=3))}
    return data


@settings(max_examples=150, deadline=None)
@given(problem_files())
def test_schema_valid_problems_end_in_known_exit_codes(data):
    command = "kempf" if data["kind"] == "weights" else "toric"
    with tempfile.TemporaryDirectory() as tmp:
        problem = os.path.join(tmp, "problem.json")
        with open(problem, "w") as fh:
            json.dump(data, fh)
        load_problem(problem)  # the generator only writes schema-valid files
        out = os.path.join(tmp, "report.json")
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([command, problem, "--out", out])
        assert code in (0, 2, 3)
        if code == 0:
            with open(out) as fh:
                validate_report(json.load(fh))
