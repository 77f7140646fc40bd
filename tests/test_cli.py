import collections
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fixedloci
from conftest import no_lp
from fixedloci import cli, simplex, toric
from fixedloci.cli import main
from fixedloci.cli import _action_from_data, _kempf_report, _quiver_report, _toric_report
from fixedloci.errors import TooLarge
from fixedloci.hmtorus import is_stable_support
from fixedloci.linalg import rank
from lp_oracle import is_semistable_support
from schema_oracles import validate_report


HIRZ2 = {
    "kind": "toric",
    "g_rank": 2,
    "weights": [{"chi": [1, 0], "mult": 2}, {"chi": [0, 1]}, {"chi": [2, 1]}],
    "theta": [3, 1],
    "options": {"section": [[1, 0], [0, 0], [0, 1], [0, 0]]},
}

KRON3 = {
    "kind": "quiver",
    "vertices": ["1", "2"],
    "arrows": [
        {"id": "a", "src": "1", "tgt": "2"},
        {"id": "b", "src": "1", "tgt": "2"},
        {"id": "c", "src": "1", "tgt": "2"},
    ],
    "alpha": {"1": 2, "2": 3},
    "theta": {"1": -3, "2": 2},
    "options": {"window": 2, "prime": 5, "trials": 200, "seed": 0},
}

GRASS = {"kind": "grassmann", "m": 2, "n": 3, "weights": [1, 1, 0]}

KEMPF = {
    "kind": "weights",
    "g_rank": 2,
    "items": [{"chi": [1, 0]}],
    "theta": [1, 1],
}


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_toric_run(tmp_path, capsys):
    f = write(tmp_path, "h.json", HIRZ2)
    code, out, _ = run(["toric", f], capsys)
    assert code == 0
    report = json.loads(out)
    validate_report(report)
    assert len(report["components"]) == 4
    patterns = {c["point_pattern"] for c in report["components"]}
    assert patterns == {"1010", "0110", "1001", "0101"}


def test_quiver_run(tmp_path, capsys):
    f = write(tmp_path, "k.json", KRON3)
    code, out, _ = run(["quiver", f], capsys)
    assert code == 0
    report = json.loads(out)
    validate_report(report)
    assert report["counts"] == {
        "candidates": 19,
        "nonempty_verified": 13,
        "empty_verified": 6,
        "candidate_only": 0,
    }
    methods = sorted((c["status"], c["method"]) for c in report["components"])
    assert methods == sorted([("EmptyVerified", "structural")] * 6
                             + [("NonemptyVerified", "structural")] * 12
                             + [("NonemptyVerified", "schofield")])


def _loops(n):
    """One vertex with n weight-0 loops, alpha = 2 and theta = 0."""
    ids = "ab"[:n]
    return {
        "kind": "quiver",
        "vertices": ["1"],
        "arrows": [{"id": a, "src": "1", "tgt": "1"} for a in ids],
        "arrow_weights": {"aux_rank": 1, "weights": {a: [0] for a in ids}},
        "alpha": {"1": 2},
        "theta": {"1": 0},
    }


def test_fp_witness_must_be_geometrically_stable(tmp_path, capsys):
    # every 2x2 matrix has an eigenvector over C, a theta = 0 subrepresentation;
    # a matrix with an irreducible characteristic polynomial hides it over F_5
    code, out, _ = run(["quiver", write(tmp_path, "loop.json", _loops(1))], capsys)
    assert code == 0
    (comp,) = json.loads(out)["components"]
    assert (comp["status"], comp["method"], comp["witness"]) == ("EmptyVerified", "schofield", None)
    assert comp["destabilizer"] == [[["1", [0]], 1]]
    # two general matrices share no eigenvector: a simple representation exists
    code, out, _ = run(["quiver", write(tmp_path, "loops.json", _loops(2))], capsys)
    assert code == 0
    (comp,) = json.loads(out)["components"]
    assert (comp["status"], comp["method"]) == ("NonemptyVerified", "schofield")
    assert comp["witness"] is not None


def test_toric_context_and_locus_check_run_once(tmp_path, capsys, monkeypatch):
    contexts, full_checks = [], []
    context, stable = toric.toric_context, toric.is_stable_support

    def counted_context(*args):
        contexts.append(args)
        return context(*args)

    def counted_stable(action, support):
        # the locus check meets every item, through one index of each
        if {s for s, _ in support} == set(range(len(action.items))):
            full_checks.append(support)
        return stable(action, support)

    monkeypatch.setattr("fixedloci.cli.toric_context", counted_context)
    monkeypatch.setattr("fixedloci.toric.toric_context", None)
    monkeypatch.setattr("fixedloci.toric.is_stable_support", counted_stable)
    code, out, _ = run(["toric", write(tmp_path, "h.json", HIRZ2)], capsys)
    assert code == 0 and len(json.loads(out)["components"]) == 4
    assert len(contexts) == len(full_checks) == 1


def test_toric_stability_decided_once_per_item_set(tmp_path, capsys, monkeypatch):
    calls, stable = collections.Counter(), toric.is_stable_support

    def counted_stable(action, support):
        calls[frozenset(s for s, _ in support)] += 1
        return stable(action, support)

    monkeypatch.setattr("fixedloci.toric.is_stable_support", counted_stable)
    # folded (P^1)^4, generic theta: the stable bases leave only the full-support check
    prob = {"kind": "toric", "g_rank": 4, "theta": [1] * 4,
            "weights": [{"chi": [int(i == j) for j in range(4)], "mult": 2} for i in range(4)]}
    code, out, _ = run(["toric", write(tmp_path, "p1.json", prob)], capsys)
    assert code == 0 and len(json.loads(out)["components"]) == 16
    assert calls == {frozenset(range(4)): 1}
    # theta on the wall spanned by (1, 1): the fan comes from the stable bases
    # of the two chambers next to theta, so the one LP is the full-support check
    calls.clear()
    prob = {"kind": "toric", "g_rank": 2, "theta": [1, 1],
            "weights": [{"chi": [1, 0], "mult": 2}, {"chi": [0, 1], "mult": 2}, {"chi": [1, 1]}]}
    code, out, _ = run(["toric", write(tmp_path, "wall.json", prob)], capsys)
    assert code == 0 and len(json.loads(out)["components"]) == 4
    assert calls == {frozenset(range(3)): 1}


def test_grassmann_and_kempf_run(tmp_path, capsys):
    f = write(tmp_path, "g.json", GRASS)
    code, out, _ = run(["grassmann", f], capsys)
    assert code == 0
    report = json.loads(out)
    validate_report(report)
    assert report["counts"]["components"] == 2

    f = write(tmp_path, "w.json", KEMPF)
    code, out, _ = run(["kempf", f], capsys)
    assert code == 0
    report = json.loads(out)
    validate_report(report)
    assert report["kempf"]["adapted"] == [0, -1]
    assert report["kempf"]["m_squared"] == "1"
    assert report["kempf"]["m_sign"] == -1


def test_kempf_support_flag(tmp_path, capsys):
    f = write(tmp_path, "w.json", KEMPF)
    code, out, _ = run(["kempf", f, "--support", "[[0,0]]"], capsys)
    assert code == 0
    assert json.loads(out)["kempf"]["support"] == [[0, 0]]


def test_kempf_integral_float_support(tmp_path, capsys):
    # the schema takes 1.0 as an integer; the report prints it as 1
    doubled = dict(KEMPF, items=[{"chi": [1, 0], "mult": 2}])
    f = write(tmp_path, "w.json", dict(doubled, support=[[0.0, 0]]))
    code, out, err = run(["kempf", f], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["kempf"]["support"] == [[0, 0]]
    f = write(tmp_path, "w2.json", doubled)
    code, out, err = run(["kempf", f, "--support", "[[0, 1.0]]"], capsys)
    assert (code, err) == (0, "")
    support = json.loads(out)["kempf"]["support"]
    assert support == [[0, 1]] and all(type(x) is int for x in support[0])


def test_kempf_inner_product_flag(tmp_path, capsys):
    f = write(tmp_path, "w.json", KEMPF)
    code, out, _ = run(["kempf", f, "--inner-product", "[[2,0],[0,1]]"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["kempf"]["adapted"] == [0, -1]
    assert report["kempf"]["m_squared"] == "1"
    # a non-positive-definite matrix is rejected
    code, _, err = run(["kempf", f, "--inner-product", "[[0,0],[0,0]]"], capsys)
    assert code == 2


def test_kempf_runs_no_lp(tmp_path, capsys, monkeypatch):
    quad = {"kind": "weights", "g_rank": 2, "items": [{"chi": [1, 0]}, {"chi": [0, 1]}],
            "theta": [1, 1]}
    line = {"kind": "weights", "g_rank": 2, "items": [{"chi": [1, 1]}, {"chi": [-1, -1]}],
            "theta": [0, 0]}
    cases = [  # (problem, flags, semistable, stable)
        (KEMPF, [], False, False),
        (KEMPF, ["--support", "[]", "--inner-product", "[[2,1],[1,1]]"], False, False),
        (quad, [], True, True),
        (dict(quad, theta=[1, 0]), [], True, False),
        (line, [], True, False),
    ]
    runs = []
    for i, (data, flags, _, _) in enumerate(cases):
        args = ["kempf", write(tmp_path, "k%d.json" % i, data)] + flags
        runs.append((args, run(args, capsys)))

    # every LP, feasible_nonneg included, runs through solve_nonneg
    monkeypatch.setattr(simplex, "solve_nonneg", no_lp)
    for (args, before), (_, _, semistable, stable) in zip(runs, cases):
        assert run(args, capsys) == before
        assert before[0] == 0
        k = json.loads(before[1])["kempf"]
        assert (k["semistable"], k["stable"]) == (semistable, stable)


def test_kempf_report_agrees_with_lp_certificates():
    # the report reads both answers off the Kempf sign; the one-LP support
    # certificates of hmtorus decide them independently
    rng = random.Random(67)
    seen = dict.fromkeys(["empty", "deficient", "zero_theta", "gram", "stable", "unstable",
                          "semistable_only"], 0)
    for n in range(500):
        r = 1 + n % 4
        if rng.random() < 0.25 and r > 1:  # weights in a proper subspace
            basis = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r - 1)]
            chis = [[sum(rng.randint(-2, 2) * b[i] for b in basis) for i in range(r)]
                    for _ in range(rng.randint(1, 6))]
        else:
            chis = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rng.randint(1, 6))]
        items = [{"chi": c, "mult": rng.choice([1, 1, 1, 2])} for c in chis]
        theta = [0] * r if rng.random() < 0.15 else [rng.randint(-3, 3) for _ in range(r)]
        data = {"kind": "weights", "g_rank": r, "items": items, "theta": theta}
        index = [(s, k) for s, it in enumerate(items) for k in range(it["mult"])]
        support = [] if rng.random() < 0.1 else [p for p in index if rng.random() < 0.7]
        Q = None
        if rng.random() < 0.5:
            A = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
            Q = [[sum(row[i] * row[j] for row in A) + (i == j) for j in range(r)]
                 for i in range(r)]
        k = _kempf_report(data, support, Q)["kempf"]
        action = _action_from_data(data, "items")
        assert k["semistable"] == is_semistable_support(action, support), (data, support, Q)
        assert k["stable"] == is_stable_support(action, support), (data, support, Q)
        support_chis = [chis[s] for s, _ in support]
        seen["empty"] += not support
        seen["deficient"] += bool(support) and rank(support_chis) < r
        seen["zero_theta"] += not any(theta)
        seen["gram"] += Q is not None
        seen["stable"] += k["stable"]
        seen["unstable"] += not k["semistable"]
        seen["semistable_only"] += k["semistable"] and not k["stable"]
    assert min(seen.values()) > 20, seen


def test_bad_theta_pairing_exits_2(tmp_path, capsys):
    bad = dict(KRON3, theta={"1": 1, "2": 1})
    f = write(tmp_path, "bad.json", bad)
    code, _, err = run(["quiver", f], capsys)
    assert code == 2
    assert "theta . alpha = 5, expected 0" in err


def test_theta_missing_vertex_counts_as_zero(tmp_path, capsys):
    short = {"kind": "quiver", "vertices": ["1", "2"],
             "arrows": [{"id": "a", "src": "1", "tgt": "2"}],
             "alpha": {"1": 1, "2": 1}, "theta": {"1": 0}}
    reports = []
    for name, data in (("short.json", short), ("full.json", dict(short, theta={"1": 0, "2": 0}))):
        code, out, _ = run(["quiver", write(tmp_path, name, data)], capsys)
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0]["components"] == reports[1]["components"]
    assert reports[0]["counts"] == reports[1]["counts"]


NONSYMMETRIC = dict(KEMPF, items=[{"chi": [1, 0]}, {"chi": [0, 1]}],
                    options={"inner_product": [[2, 1], [0, 2]]})


@pytest.mark.parametrize("command,data,message", [
    ("quiver", dict(KRON3, vertices=["1", "2", "1"]), "duplicate vertex ids"),
    ("quiver", dict(KRON3, arrows=KRON3["arrows"] + [{"id": "b", "src": "2", "tgt": "1"}]),
     "duplicate arrow id 'b'"),
    ("quiver", dict(KRON3, arrow_weights={"aux_rank": 1, "weights": {"a": [1], "b": [1, 0], "c": [0]}}),
     "arrow weight (1, 0) has wrong rank"),
    ("quiver", dict(KRON3, alpha={"1": 2, "2": 3, "3": 0}), "alpha/theta mention unknown vertex '3'"),
    ("quiver", dict(KRON3, theta={"1": -3, "2": 2, "x": 0}), "alpha/theta mention unknown vertex 'x'"),
    ("kempf", NONSYMMETRIC, "inner product not symmetric"),
], ids=["duplicate-vertex", "duplicate-arrow", "weight-rank", "unknown-alpha", "unknown-theta",
        "nonsymmetric-inner-product"])
def test_ill_formed_problem_exits_2(tmp_path, capsys, command, data, message):
    code, out, err = run([command, write(tmp_path, "p.json", data)], capsys)
    assert (code, out, err) == (2, "", "validation error: %s\n" % message)


def test_directory_problem_path_exits_2(tmp_path, capsys):
    code, out, err = run(["toric", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("validation error: cannot read %s: " % tmp_path) and err.count("\n") == 1


def test_verbose_adds_only_the_elapsed_line(tmp_path, capsys):
    f = write(tmp_path, "k.json", KRON3)
    code, quiet, err = run(["quiver", f], capsys)
    assert (code, err) == (0, "")
    code, out, err = run(["quiver", f, "--verbose"], capsys)
    assert (code, out) == (0, quiet)
    assert re.fullmatch(r"elapsed: \d+\.\d{3}s\n", err)


def test_unwritable_out_exits_2(tmp_path, capsys):
    f = write(tmp_path, "g.json", GRASS)
    for target in (tmp_path / "missing" / "report.json", tmp_path):
        code, out, err = run(["grassmann", f, "--out", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("validation error: cannot write %s: " % target)
    assert not (tmp_path / "missing").exists()


DOT_REFUSED = "validation error: dot output is only available for toric and quiver reports\n"


@pytest.mark.parametrize("command,data,flags,code,err", [
    ("grassmann", GRASS, ["--format", "dot"], 2, DOT_REFUSED),
    ("kempf", KEMPF, ["--format", "dot"], 2, DOT_REFUSED),
    ("quiver", KRON3, ["--prime", "7"], 3, "guard error: prime 7 exceeds the guard 5\n"),
], ids=["grassmann-dot", "kempf-dot", "prime-guard"])
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("verbose", [False, True], ids=["quiet", "verbose"])
def test_failure_prints_one_line_and_writes_nothing(tmp_path, capsys, command, data, flags, code,
                                                    err, out, verbose):
    target = tmp_path / "report.txt"
    args = [command, write(tmp_path, "p.json", data)] + flags
    args += ["--out", str(target)] * out + ["--verbose"] * verbose
    assert run(args, capsys) == (code, "", err)
    assert not target.exists()


@pytest.mark.parametrize("vertex,fmt,out,code", [
    ("é", "dot", False, 2),       # an ASCII stdout cannot carry it
    ("\ud800", "dot", True, 2),  # no encoding carries a lone surrogate
    ("é", "table", True, 0),      # --out is written as UTF-8
], ids=["ascii-stdout", "surrogate-out", "utf8-out"])
def test_unencodable_report_exits_2_and_out_is_utf8(tmp_path, capsys, monkeypatch, vertex, fmt, out, code):
    data = {"kind": "quiver", "vertices": [vertex, "b"],
            "arrows": [{"id": "a", "src": vertex, "tgt": "b"}],
            "alpha": {vertex: 1, "b": 1}, "theta": {vertex: -1, "b": 1}}
    stdout = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(stdout, encoding="ascii"))
    target = tmp_path / "report.txt"
    args = ["quiver", write(tmp_path, "q.json", data), "--format", fmt] + ["--out", str(target)] * out
    assert main(args) == code
    sys.stdout.flush()
    assert stdout.getvalue() == b""
    err = capsys.readouterr().err
    if code:
        assert err.startswith("validation error: cannot write %s: " % (target if out else "stdout"))
        assert "codec can't encode" in err and err.count("\n") == 1
        assert not target.exists()
    else:
        assert err == "" and vertex.encode("utf-8") in target.read_bytes()


def test_out_is_utf8_in_the_c_locale(tmp_path):
    # the locale is read when the interpreter starts, so only a child runs
    # with LC_ALL=C and without UTF-8 mode, where open() defaults to ASCII
    data = {"kind": "quiver", "vertices": ["é", "b"], "arrows": [{"id": "a", "src": "é", "tgt": "b"}],
            "alpha": {"é": 1, "b": 1}, "theta": {"é": -1, "b": 1}}
    target = tmp_path / "report.txt"
    proc = _cli_child(["quiver", write(tmp_path, "q.json", data), "--format", "table", "--out", str(target)],
                      options=["-X", "utf8=0"], env={"LC_ALL": "C"})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert "é".encode("utf-8") in target.read_bytes()


def test_schema_violation_exits_2(tmp_path, capsys):
    f = write(tmp_path, "bad.json", {"kind": "toric", "g_rank": 2})
    code, _, err = run(["toric", f], capsys)
    assert code == 2
    assert "validation error" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(["toric", str(p)], capsys)
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize("content,message", [
    pytest.param(b'\xff\xfe{"kind": "toric"}', "not UTF-8 text", id="utf16-bom"),
    pytest.param(b"[" * 100000, "JSON nested too deeply", id="deep"),
    # past the 4,300-digit limit on int parsing, json raises a plain ValueError
    pytest.param(b'{"kind": "toric", "g_rank": %s}' % (b"9" * 5000), "invalid JSON: ", id="long-int"),
])
def test_undecodable_problem_file_exits_2(tmp_path, capsys, content, message):
    p = tmp_path / "odd.json"
    p.write_bytes(content)
    code, out, err = run(["toric", str(p)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("validation error: %s: %s" % (p, message)) and err.count("\n") == 1


def test_kind_mismatch_exits_2(tmp_path, capsys):
    f = write(tmp_path, "g.json", GRASS)
    code, _, err = run(["toric", f], capsys)
    assert code == 2


def test_guard_exits_3(tmp_path, capsys):
    f = write(tmp_path, "k.json", KRON3)
    code, _, err = run(["quiver", f, "--prime", "7"], capsys)
    assert code == 3
    assert "guard error" in err


def test_grassmann_component_guard_exits_3(tmp_path, capsys):
    # C(16, 8) components of 8 factors are listed; C(20, 10) of 10 are refused
    f = write(tmp_path, "g16.json", {"kind": "grassmann", "m": 8, "n": 16, "weights": list(range(16))})
    code, out, _ = run(["grassmann", f, "--format", "table"], capsys)
    assert code == 0 and "\ncomponents: 12870\n" in out
    f = write(tmp_path, "g20.json", {"kind": "grassmann", "m": 10, "n": 20, "weights": list(range(20))})
    start = time.monotonic()
    assert run(["grassmann", f], capsys) == (3, "", "guard error: m=10, n=20: fixed components of up "
                                             "to 10 factors each need more than 700000 report cells\n")
    assert time.monotonic() - start < 5


def test_cover_enumeration_guard_exits_3(tmp_path, capsys):
    # both have total dimension 8, inside check_guard; at full grading the
    # first enumerated 799,866 classes in 45 s, the second grew past 1.5 GB
    six = ["a%d" % i for i in range(6)]
    k644 = {"kind": "quiver", "vertices": ["1", "2"], "alpha": {"1": 4, "2": 4}, "theta": {"1": -1, "2": 1},
            "arrows": [{"id": a, "src": "1", "tgt": "2"} for a in six]}
    loops = {"kind": "quiver", "vertices": ["1"], "alpha": {"1": 8}, "theta": {"1": 0},
             "arrows": [{"id": "l%d" % i, "src": "1", "tgt": "1"} for i in range(4)]}
    for name, data in (("k644.json", k644), ("loops.json", loops)):
        f = write(tmp_path, name, data)
        start = time.monotonic()
        assert run(["quiver", f], capsys) == (3, "", "guard error: cover enumeration exceeds the guard "
                                              "of 100000 support searches and covers\n")
        assert time.monotonic() - start < 10


def _huge(command, mult):
    """One weight of multiplicity mult: a toric file, or a weights file for kempf."""
    if command == "toric":
        return {"kind": "toric", "g_rank": 1, "weights": [{"chi": [1], "mult": mult}], "theta": [1]}
    return {"kind": "weights", "g_rank": 1, "items": [{"chi": [1], "mult": mult}], "theta": [1]}


def test_default_support_cap_boundary(monkeypatch):
    # the cap counts the indices of the default support; a support given in
    # the file or by --support is not refused
    monkeypatch.setattr(cli, "MAX_REPORT_CELLS", 3)
    assert len(_kempf_report(_huge("kempf", 3))["kempf"]["support"]) == 3
    with pytest.raises(TooLarge, match="^default support of 4 indices exceeds the guard of 3 report cells$"):
        _kempf_report(_huge("kempf", 4))
    assert _kempf_report(dict(_huge("kempf", 4), support=[[0, 3]]))["kempf"]["support"] == [[0, 3]]
    assert _kempf_report(_huge("kempf", 4), support=[[0, 1]])["kempf"]["support"] == [[0, 1]]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _cli_child(args, options=(), env=None, **kwargs):
    """Run the CLI in a child interpreter with -W error and src/ on its path;
    `options` go to the interpreter, `env` is added to its environment."""
    src = str(Path(fixedloci.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-W", "error", *options, "-m", "fixedloci.cli", *args],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path, **(env or {})),
                          timeout=30, **kwargs)


@pytest.mark.parametrize("kind,flags,code,err", [
    ("toric", [], 3, "guard error: fan of 1000000000 stable bases with 2^999999999 faces each refused\n"),
    ("kempf", [], 3,
     "guard error: default support of 1000000000 indices exceeds the guard of 700000 report cells\n"),
    ("kempf", ["--support", "[[0, 0]]"], 0, ""),
    ("kempf", ["--support", "[[0, 999999999]]"], 0, ""),
    ("kempf", ["--support", "[[0, 1000000000]]"], 2,
     "validation error: support index (0, 1000000000) not in the action's index set\n"),
], ids=["toric", "kempf-default-support", "kempf-first-index", "kempf-last-index", "kempf-past-the-last"])
def test_huge_multiplicity_in_a_memory_capped_child(tmp_path, kind, flags, code, err):
    # 10^9 copies of one weight, in a child held to 1 GiB of address space:
    # nothing that grows with the multiplicity may be built, and a given
    # support index is checked against the multiplicity
    f = write(tmp_path, "huge.json", _huge(kind, 10 ** 9))
    proc = _cli_child([kind, f, *flags], preexec_fn=_limit_memory)
    assert (proc.returncode, proc.stderr) == (code, err)
    if code:
        assert proc.stdout == ""
    else:
        report = json.loads(proc.stdout)["kempf"]
        assert report["stable"] is True and report["support"] == json.loads(flags[1])


def test_prime_guard_runs_without_candidates(tmp_path, capsys):
    # one arrow 1 -> 2 at alpha = (2, 3) has a single cover class and no
    # candidate, so no component is certified; the guard must still run
    a2 = dict(KRON3, arrows=KRON3["arrows"][:1], options={})
    f = write(tmp_path, "a2.json", a2)
    code, out, _ = run(["quiver", f], capsys)
    assert code == 0 and json.loads(out)["counts"]["candidates"] == 0
    code, out, err = run(["quiver", f, "--prime", "7"], capsys)
    assert (code, out, err) == (3, "", "guard error: prime 7 exceeds the guard 5\n")
    code, out, err = run(["quiver", f, "--prime", "9"], capsys)
    assert (code, out, err) == (2, "", "validation error: modulus 9 is not prime\n")


def test_large_prime_modulus_reaches_the_guard(tmp_path, capsys):
    # 2^61 - 1 is prime; dividing by every q below it, or below its square
    # root, would never get to the guard
    f = write(tmp_path, "k.json", KRON3)
    p = 2 ** 61 - 1
    code, out, err = run(["quiver", f, "--prime", str(p)], capsys)
    assert (code, out, err) == (3, "", "guard error: prime %d exceeds the guard 5\n" % p)


def test_large_composite_modulus_exits_2(tmp_path, capsys):
    f = write(tmp_path, "k.json", KRON3)
    for p in (999983 * 1000003, (2 ** 61 - 1) * (2 ** 89 - 1)):
        start = time.perf_counter()
        code, out, err = run(["quiver", f, "--prime", str(p)], capsys)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", "validation error: modulus %d is not prime\n" % p)


@pytest.mark.parametrize("p", [2 ** 89 - 1, 1287836182261 * 2575672364521])
def test_huge_modulus_exceeds_the_guard(tmp_path, capsys, p):
    # from 3.3e24 on the strong probable-prime test proves nothing: 2^89 - 1
    # is prime and the bound itself is composite, and both pass it, so both
    # exceed the guard without being called prime
    f = write(tmp_path, "k.json", KRON3)
    start = time.perf_counter()
    code, out, err = run(["quiver", f, "--prime", str(p)], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (3, "", "guard error: modulus %d exceeds the guard 5\n" % p)


@pytest.mark.parametrize("flags", [
    ["--window", "-1"], ["--trials", "-1"], ["--prime", "4"], ["--prime", "1"],
])
def test_bad_quiver_flags_exit_2(tmp_path, capsys, flags):
    f = write(tmp_path, "k.json", KRON3)
    code, out, err = run(["quiver", f] + flags, capsys)
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag,text", [
    ("--support", "[[0,0"), ("--inner-product", "[[1"),
    ("--support", "[1]"), ("--inner-product", '[[1, 0], [0, "a"]]'),
    pytest.param("--support", "[" * 100000, id="--support-deep"),
    pytest.param("--inner-product", "[" * 100000, id="--inner-product-deep"),
    pytest.param("--support", "[[%s, 0]]" % ("9" * 5000), id="--support-long-int"),
    pytest.param("--inner-product", "[[%s]]" % ("9" * 5000), id="--inner-product-long-int"),
])
def test_kempf_bad_json_flag_exits_2(tmp_path, capsys, flag, text):
    f = write(tmp_path, "w.json", KEMPF)
    code, out, err = run(["kempf", f, flag, text], capsys)
    assert code == 2 and out == ""
    assert err.startswith("validation error: %s: " % flag) and err.count("\n") == 1


def test_empty_stable_locus_exits_2(tmp_path, capsys):
    prob = {
        "kind": "toric",
        "g_rank": 1,
        "weights": [{"chi": [1], "mult": 2}],
        "theta": [0],
    }
    f = write(tmp_path, "empty.json", prob)
    code, _, err = run(["toric", f], capsys)
    assert code == 2
    assert "stable locus" in err


def test_free_action_refused_before_fan_scan(tmp_path, capsys, monkeypatch):
    # rank 1, 15 coordinates: the stable support {chi = 3} has determinant 3
    weights = [(1, 3), (-2, 2), (3, 3), (-2, 3), (-2, 1), (2, 3)]
    prob = {"kind": "toric", "g_rank": 1, "theta": [1],
            "weights": [{"chi": [c], "mult": k} for c, k in weights]}

    def no_fan(*args):
        raise AssertionError("the fan scan ran before the free-action check")

    monkeypatch.setattr("fixedloci.cli.quotient_fan", no_fan)
    code, out, err = run(["toric", write(tmp_path, "t.json", prob)], capsys)
    assert (code, out) == (2, "")
    assert err == "validation error: support weight matrix has determinant 3\n"
    # past MAX_ENUM_DIM coordinates the size guard still comes first: 11 stable
    # bases with 2^16 faces each are more than MAX_FAN_FACES
    prob["weights"] += [{"chi": [1], "mult": 2}]
    code, _, err = run(["toric", write(tmp_path, "t.json", prob)], capsys)
    assert code == 3 and err == "guard error: fan of 11 stable bases with 2^16 faces each refused\n"


def test_free_action_refusal_keeps_the_sign_of_the_listed_rows(tmp_path, capsys):
    # the first stable basis, ((0, 0), (1, 0)), has rows (1, 0), (0, -2) in
    # index order, determinant -2, and both copies of (0, -2) refuse alike;
    # in sorted weight order the same rows have determinant 2
    prob = {"kind": "toric", "g_rank": 2, "theta": [1, -1],
            "weights": [{"chi": [1, 0]}, {"chi": [0, -2], "mult": 2}, {"chi": [0, -1]}]}
    code, out, err = run(["toric", write(tmp_path, "t.json", prob)], capsys)
    assert (code, out, err) == (2, "", "validation error: support weight matrix has determinant -2\n")


G_RANK_0 = {"kind": "toric", "g_rank": 0, "weights": [{"chi": [], "mult": 3}], "theta": []}


def _hirz2_with_section(section):
    return {**HIRZ2, "options": {"section": section}}


@pytest.mark.parametrize("data,err", [
    (_hirz2_with_section([]), "section must be 4x2"),
    (_hirz2_with_section([[1, 0], [0, 0], [0, 1]]), "section must be 4x2"),
    (_hirz2_with_section([[1, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 0]]), "section must be 4x2"),
    (_hirz2_with_section([[1, 0], [0], [0, 1], [0, 0]]), "ragged rows"),
    (_hirz2_with_section([[0, 0]] * 4), "supplied section does not split the cokernel"),
    (_hirz2_with_section([[1.0, 0], [0, 0], [0, 1.0], [0, 0]]), None),
    (G_RANK_0, None),
], ids=["empty", "3x2", "4x3", "ragged", "zero", "integral-floats", "g_rank-0"])
def test_toric_section_boundary(tmp_path, capsys, data, err):
    # hirzebruch_d2 has m = 4 coordinates and r = 2, so a section is 4 x 2
    code, out, stderr = run(["toric", write(tmp_path, "t.json", data)], capsys)
    if err is not None:
        assert (code, out, stderr) == (2, "", "validation error: %s\n" % err)
        return
    assert (code, stderr) == (0, "")
    report = json.loads(out)
    if data is G_RANK_0:
        assert [c["rho"] for c in report["components"]] == [[]]
        assert report["counts"]["section_rows"] == 3
        return
    # the schema admits 1.0 as an integer; it reads as the integer section
    _, want, _ = run(["toric", write(tmp_path, "h.json", HIRZ2)], capsys)
    want = json.loads(want)
    assert (report["components"], report["fan"]) == (want["components"], want["fan"])


def test_determinism_bytes(tmp_path, capsys):
    f = write(tmp_path, "k.json", KRON3)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["quiver", f, "--out", str(out1)]) == 0
    assert main(["quiver", f, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_table_and_dot_formats(tmp_path, capsys):
    f = write(tmp_path, "h.json", HIRZ2)
    code, out, _ = run(["toric", f, "--format", "table"], capsys)
    assert code == 0 and "components: 4" in out
    code, out, _ = run(["toric", f, "--format", "dot"], capsys)
    assert code == 0 and out.startswith("graph fan {")

    fq = write(tmp_path, "k.json", KRON3)
    code, out, _ = run(["quiver", fq, "--format", "dot"], capsys)
    assert code == 0 and "digraph cover_supports" in out and "digraph quiver" in out

    fg = write(tmp_path, "g.json", GRASS)
    code, _, err = run(["grassmann", fg, "--format", "dot"], capsys)
    assert code == 2


def test_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    # an unescaped " ends a DOT string early, and a trailing \ escapes its closing quote
    u, v = 'a"b', "c\\"
    data = {"kind": "quiver", "vertices": [u, v],
            "arrows": [{"id": 'x"y', "src": u, "tgt": v}, {"id": "z\\", "src": u, "tgt": v}],
            "alpha": {u: 1, v: 1}, "theta": {u: -1, v: 1}}
    code, out, err = run(["quiver", write(tmp_path, "q.json", data), "--format", "dot"], capsys)
    assert (code, err) == (0, "")
    assert out.endswith(r'''digraph quiver {
  "a\"b";
  "c\\";
  "a\"b" -> "c\\" [label="x\"y"];
  "a\"b" -> "c\\" [label="z\\"];
}
''')
    strings = re.compile(r'"((?:[^"\\]|\\.)*)"')
    for line in out.splitlines():
        assert '"' not in strings.sub("", line), line
    labels = [re.sub(r"\\(.)", r"\1", s) for s in strings.findall(out.split("digraph quiver")[0])]
    assert labels == ['a"b [0, 0]', "c\\ [0, 1]", "c\\ [1, 0]", 'x"y', "z\\"]


def test_report_schema_validates_all_kinds(tmp_path):
    r1 = _toric_report(HIRZ2, seed=None)
    validate_report(r1)
    r2 = _quiver_report(KRON3, None, None, None, None)
    validate_report(r2)
