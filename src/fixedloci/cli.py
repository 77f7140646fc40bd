"""Command-line front end: problem files in, machine-readable reports out.

Subcommands: toric, quiver, grassmann, kempf.  Input is a JSON problem file
validated against the shipped schema; output is a JSON report (default), a
human-readable table, or DOT graphs for fans and quivers.  Reports are
byte-identical across runs for the same input and seed; timing goes to
stderr under --verbose only.

Exit codes: 0 success, 2 validation or domain-precondition error, 3
guard/limit error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import sys
import time
from importlib import resources
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import TooLarge, ValidationError
from .grassmann import MAX_REPORT_CELLS, GrassmannProblem, classify
from .hmtorus import WeightItem, WeightedAction, kempf_data
from .quiver import (
    Arrow,
    ArrowWeights,
    Quiver,
    check_stability_pairing,
    default_window_radius,
    enumerate_covers,
    support_quiver,
)
from .repfield import Status, certify_component, check_guard
from .toric import fixed_points_toric, quotient_fan, toric_context


@functools.cache
def _problem_schema():
    return json.loads(resources.files("fixedloci.schemas").joinpath("problem.schema.json").read_text())


def _compile(schema, table):
    """The check closure of one schema node, compiled with every node below it
    and each filed in `table` under its node's id.  check(value, path, out)
    appends (path, message) to out for each way `value` breaks the node, in
    schema order, with the messages of jsonschema's Draft 2020-12 validator
    for the keywords the problem schema uses."""
    check = _each([c for c in (_keyword(key, rule, schema, table) for key, rule in schema.items()) if c])
    table[id(schema)] = check
    return check


def _each(checks):
    """One check that runs `checks` in turn."""
    def check(value, path, out):
        for c in checks:
            c(value, path, out)
    return check


def _keyword(key, rule, schema, table):
    """The check of one keyword of a schema node; None for one that checks
    nothing by itself, such as "then" or "title"."""
    if key == "type":
        # a bool is no number, a float with an integral value an integer
        types = {"integer": (int,), "number": (int, float), "string": (str,), "array": (list,),
                 "object": (dict,)}[rule]

        def check(value, path, out):
            if type(value) not in types and not (
                    rule == "integer" and type(value) is float and value.is_integer()):
                out.append((path, "%r is not of type %r" % (value, rule)))
    elif key == "enum":
        def check(value, path, out):
            if value not in rule:
                out.append((path, "%r is not one of %r" % (value, rule)))
    elif key == "const":
        def check(value, path, out):
            if value != rule:
                out.append((path, "%r was expected" % (rule,)))
    elif key == "minimum":
        def check(value, path, out):
            if type(value) in (int, float) and value < rule:
                out.append((path, "%r is less than the minimum of %r" % (value, rule)))
    elif key in ("minItems", "maxItems"):
        beyond, text = ((operator.lt, "should be non-empty" if rule == 1 else "is too short")
                        if key == "minItems" else
                        (operator.gt, "is expected to be empty" if rule == 0 else "is too long"))

        def check(value, path, out):
            if isinstance(value, list) and beyond(len(value), rule):
                out.append((path, "%r %s" % (value, text)))
    elif key == "required":
        def check(value, path, out):
            if isinstance(value, dict):
                out.extend((path, "%r is a required property" % (n,)) for n in rule if n not in value)
    elif key == "items":
        item = _compile(rule, table)
        # a list of plain ints at or above the minimum breaks no plain integer rule
        plain = rule.get("type") == "integer" and set(rule) <= {"type", "minimum"}
        low = rule.get("minimum", -math.inf)

        def check(value, path, out):
            if isinstance(value, list) and not (
                    plain and all(type(x) is int for x in value) and min(value, default=low) >= low):
                for i, x in enumerate(value):
                    item(x, path + (i,), out)
    elif key == "properties":
        subs = [(name, _compile(sub, table)) for name, sub in rule.items()]

        def check(value, path, out):
            if isinstance(value, dict):
                for name, sub in subs:
                    if name in value:
                        sub(value[name], path + (name,), out)
    elif key == "additionalProperties":
        known = set(schema.get("properties", {}))
        sub = rule is not False and _compile(rule, table)

        def check(value, path, out):
            if not isinstance(value, dict):
                return
            extra = sorted(k for k in value if k not in known)
            if sub:
                for name in extra:
                    sub(value[name], path + (name,), out)
            elif extra:
                out.append((path, "Additional properties are not allowed (%s %s unexpected)" % (
                    ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were")))
    elif key == "allOf":
        check = _each([_compile(sub, table) for sub in rule])
    elif key == "if":
        cond, then = _compile(rule, table), _compile(schema["then"], table)

        def check(value, path, out):
            failed = []
            cond(value, (), failed)
            if not failed:
                then(value, path, out)
    else:
        return None
    return check


@functools.cache
def _compiled():
    """The problem schema's check closures by node id, compiled on first use."""
    table = {}
    _compile(_problem_schema(), table)
    return table


def _schema_errors(value, schema, path=()):
    """Iterate (path, message) for each way `value` breaks `schema`, in schema
    order; a schema outside the problem schema is compiled for this call."""
    out = []
    (_compiled().get(id(schema)) or _compile(schema, {}))(value, path, out)
    return iter(out)


def load_problem(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise ValidationError("%s: not UTF-8 text: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ValidationError("%s: invalid JSON at line %d column %d: %s"
                              % (path, exc.lineno, exc.colno, exc.msg))
    except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
        raise ValidationError("%s: invalid JSON: %s" % (path, exc))
    except RecursionError:
        raise ValidationError("%s: JSON nested too deeply" % path)
    error = min(_schema_errors(data, _problem_schema()), key=lambda e: e[0], default=None)
    if error:
        loc = "/".join(str(p) for p in error[0]) or "(root)"
        raise ValidationError("%s: at %s: %s" % (path, loc, error[1]))
    return data


@functools.cache
def _flag_check(kind, path):
    """The compiled schema rule for one field of a problem file of this kind."""
    rule = next(r["then"] for r in _problem_schema()["allOf"]
                if r["if"]["properties"]["kind"]["const"] == kind)
    for key in path:
        rule = rule["properties"][key]
    return _compiled()[id(rule)]


def _check_flag(flag, value, kind, *path):
    """Hold a command-line value to the schema rule for the same field of a
    problem file of this kind."""
    errors = []
    _flag_check(kind, path)(value, (), errors)
    if errors:
        raise ValidationError("%s: %s" % (flag, errors[0][1]))
    return value


def _json_flag(flag, text, *path):
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError("%s: invalid JSON at column %d: %s" % (flag, exc.colno, exc.msg))
    except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
        raise ValidationError("%s: invalid JSON: %s" % (flag, exc))
    except RecursionError:
        raise ValidationError("%s: JSON nested too deeply" % flag)
    return _check_flag(flag, value, "weights", *path)


# ---------------------------------------------------------------------------
# problem construction

def _action_from_data(data, key):
    """The action of a toric file (`key` "weights") or a weights file (`key` "items")."""
    aux = int(data.get("aux_rank", 0))
    items = tuple(
        WeightItem(tuple(w["chi"]), tuple(w.get("w", [0] * aux)), int(w.get("mult", 1)))
        for w in data[key]
    )
    return WeightedAction(int(data["g_rank"]), aux, items, tuple(data["theta"]))


def _quiver_from_data(data):
    Q = Quiver(
        tuple(data["vertices"]),
        tuple(Arrow(a["id"], a["src"], a["tgt"]) for a in data["arrows"]),
    )
    alpha = {v: int(n) for v, n in data["alpha"].items()}
    theta = {v: int(n) for v, n in data["theta"].items()}
    for v in set(alpha) | set(theta):
        if v not in set(Q.vertices):
            raise ValidationError("alpha/theta mention unknown vertex %r" % v)
    check_stability_pairing(theta, alpha)
    if "arrow_weights" in data:
        W = ArrowWeights.from_dict(
            int(data["arrow_weights"]["aux_rank"]), data["arrow_weights"]["weights"]
        )
        known = {a.id for a in Q.arrows}
        given = {k for k, _ in W.weights}
        if known != given:
            raise ValidationError("arrow_weights must grade exactly the arrows: %s" % sorted(known ^ given))
    else:
        W = ArrowWeights.full(Q)
    return Q, W, alpha, theta


# ---------------------------------------------------------------------------
# report assembly

def _report(kind, seed, data, **body):
    """A report of this kind: the frame every kind shares, then its own keys."""
    return {"tool": "fixedloci", "version": __version__, "kind": kind, "seed": seed,
            "input": data, **body}


def _toric_report(data, seed):
    action = _action_from_data(data, "weights")
    section = None
    opts = data.get("options", {})
    if "section" in opts:
        section = tuple(tuple(int(x) for x in row) for row in opts["section"])
        if len({len(row) for row in section}) > 1:
            raise ValidationError("ragged rows")
    ctx = toric_context(action, section)
    # the free-action check in fixed_points_toric is cheap; run it before the fan scan
    comps = fixed_points_toric(ctx)
    fan = quotient_fan(ctx)

    m = action.total_dim
    flat = action.flat
    comp_json = []
    for c in comps:
        sup_flat = sorted(flat[i] for i in c.support)
        met = set(sup_flat)
        pattern = "".join("1" if j in met else "0" for j in range(m))
        comp_json.append({
            "rho": [list(r) for r in c.rho],
            "support": [list(i) for i in c.support],
            "support_flat": sup_flat,
            "point_pattern": pattern,
            "g_rho": "torus",
            "dimension": 0,
            "status": Status.NONEMPTY_VERIFIED.value,
        })
    maximal = set(fan.maximal_cones)
    fan_json = {
        "lattice_rank": fan.lattice_rank,
        "rays": [list(r) for r in fan.rays],
        "cones": [
            {
                "rays": list(c),
                "orbit_dimension": fan.lattice_rank - len(c),
                "maximal": c in maximal,
            }
            for c in fan.cones
        ],
    }
    counts = {"fixed_points": len(comp_json), "section_rows": len(ctx.section)}
    return _report("toric", seed, data, components=comp_json, fan=fan_json, counts=counts)


def _point_json(point):
    v, chi = point
    return [v, list(chi)]


def _witness_json(witness):
    if witness is None:
        return None
    return {
        "prime": witness.prime,
        "dims": [[_point_json(v), d] for v, d in witness.dims],
        "mats": [[[a[0], list(a[1])], [list(r) for r in m]] for a, m in witness.mats],
    }


def _quiver_report(data, seed, prime, trials, window):
    Q, W, alpha, theta = _quiver_from_data(data)
    opts = data.get("options", {})
    seed = seed if seed is not None else int(opts.get("seed", 0))
    prime = prime if prime is not None else int(opts.get("prime", 5))
    trials = trials if trials is not None else int(opts.get("trials", 200))
    radius = window if window is not None else opts.get("window")
    if radius is None:
        radius = default_window_radius(alpha, W)
    check_guard(alpha, prime)
    classes, cands = enumerate_covers(Q, W, alpha, radius)
    shapes = {}  # decisions per support shape, shared by this report's candidates only
    results = [
        certify_component(Q, W, c, theta, trials=trials, prime=prime, seed=seed, shapes=shapes)
        for c, _ in cands
    ]

    comp_json = []
    for (c, dim), r in zip(cands, results):
        blocks = sorted(n for _, n in c)
        comp_json.append({
            "beta": [[_point_json(k), n] for k, n in c],
            "dimension": dim,
            "g_rho": "torus" if all(n == 1 for n in blocks) else blocks,
            "status": r.status.value,
            "method": r.method,
            "witness": _witness_json(r.witness),
            "witness_trial": r.witness_trial,
            "destabilizer": None if r.destabilizer is None
            else [[_point_json(k), n] for k, n in r.destabilizer],
        })
    return _report("quiver", seed, data, components=comp_json, classes_enumerated=classes, counts={
        "candidates": len(cands),
        "nonempty_verified": sum(1 for r in results if r.status is Status.NONEMPTY_VERIFIED),
        "empty_verified": sum(1 for r in results if r.status is Status.EMPTY_VERIFIED),
        "candidate_only": 0,  # every candidate is certified; the key keeps the report format
    })


def _grassmann_report(data):
    problem = GrassmannProblem(int(data["m"]), int(data["n"]), tuple(data["weights"]))
    comps = classify(problem)
    comp_json = [
        {
            "factors": [list(f) for f in c.factors],
            "s_seq": list(c.s_seq),
            "j_seq": list(c.j_seq),
            "dimension": c.dimension,
        }
        for c in comps
    ]
    return _report("grassmann", None, data, components=comp_json, counts={"components": len(comps)})


def _kempf_report(data, support=None, inner_product=None):
    action = _action_from_data(data, "items")
    if support is None:
        support = data.get("support")
    if support is None:
        # the report lists the default support, one index per cell, as grassmann's are counted
        if action.total_dim > MAX_REPORT_CELLS:
            raise TooLarge("default support of %d indices exceeds the guard of %d report cells"
                           % (action.total_dim, MAX_REPORT_CELLS))
        support = action.indices()
    support = [tuple(int(x) for x in p) for p in support]
    if inner_product is None:
        inner_product = data.get("options", {}).get("inner_product")
    mv, lam, cone = kempf_data(action, support, inner_product)
    return _report("kempf", None, data, kempf={
        "support": [list(p) for p in sorted(support)],
        "semistable": mv.sign >= 0,
        "stable": mv.sign > 0,
        "m_sign": mv.sign,
        "m_squared": None if mv.m_squared is None else str(mv.m_squared),
        "adapted": None if lam is None else list(lam),
        "limit_cone": [list(g) for g in cone],
    })


# ---------------------------------------------------------------------------
# rendering

def _encode_json(value, out, indent="\n"):
    """Append the text of json.dumps(value, sort_keys=True, indent=2) to out,
    in one pass: a list of two or more items is one column (_column), a
    float goes to json.dumps."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        if len(value) > 1:
            out.append("[" + inner + ("," + inner).join(_column(value, inner)) + indent + "]")
            return
        out.append("[" + inner)
        _encode_json(value[0], out, inner)
        out.append(indent + "]")
    elif isinstance(value, dict) and value:
        inner = indent + "  "
        out.append("{")
        for n, k in enumerate(sorted(value)):
            out.append(("," + inner if n else inner) + encode_basestring_ascii(k) + ": ")
            _encode_json(value[k], out, inner)
        out.append(indent + "}")
    elif isinstance(value, (list, tuple, dict)):
        out.append("{}" if isinstance(value, dict) else "[]")
    else:
        out.append(json.dumps(value))


# the text of a scalar by its exact type, so that a bool never passes for an int
_SCALAR = {str: encode_basestring_ascii, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__, type(None): {None: "null"}.__getitem__}


def _column(values, indent):
    """The texts _encode_json writes for `values` at `indent`, in order, built a
    column at a time: one type check for the column, scalars by one map, lists
    by _list_column, and dicts of one key set by one key sort and one template,
    their values a column per key.  A column of mixed types is split by type;
    floats, tuples and dicts whose key sets differ go to _encode_json one by one."""
    kinds = set(map(type, values))
    if len(kinds) > 1:
        types = list(map(type, values))
        parts = {}
        for kind in kinds:
            same = itertools.compress(values, map(operator.is_, types, itertools.repeat(kind)))
            parts[kind] = iter(_column(list(same), indent))
        return map(next, map(parts.__getitem__, types))
    kind, = kinds
    if kind in _SCALAR:
        return map(_SCALAR[kind], values)
    if kind is list:
        return _list_column(values, indent)
    if kind is dict and all(map(values[0].keys().__eq__, map(dict.keys, values))):
        order = sorted(values[0])
        if not order:
            return ["{}"] * len(values)
        inner = indent + "  "
        # a key's % is doubled, so that only the %s of each value formats
        template = "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in order) + indent + "}"
        columns = [_column(list(map(operator.itemgetter(k), values)), inner) for k in order]
        return map(template.__mod__, zip(*columns))
    texts = []
    for v in values:
        out = []
        _encode_json(v, out, indent)
        texts.append("".join(out))
    return texts


def _list_column(values, indent):
    """_column for a column of lists: each list of ints by its own join, the
    items of the other lists as one column, split back by length."""
    inner = indent + "  "
    sep, start, end = "," + inner, "[" + inner, indent + "]"
    every_int = set(map(type, itertools.chain.from_iterable(values))) <= {int}
    texts = ((start + sep.join(map(int.__repr__, v)) + end if v else "[]")
             if every_int or not v or type(v[0]) is int and set(map(type, v)) == {int} else None
             for v in values)
    if every_int:
        # lazily, so that a large fan's ray texts are not all alive at once
        # beside the records that hold them
        return texts
    texts = list(texts)
    nested = itertools.compress(values, map(operator.not_, texts))
    items = iter(_column(list(itertools.chain.from_iterable(nested)), inner))
    return [t or start + sep.join(itertools.islice(items, len(v))) + end
            for v, t in zip(values, texts)]


def _one_pass_json(value):
    """json.dumps(value, sort_keys=True, indent=2) + "\\n", byte for byte, for
    a JSON value with string keys."""
    out = []
    _encode_json(value, out)
    out.append("\n")
    return "".join(out)


def render_json(report):
    # Before 3.13 the stdlib encoder indents in Python.  Seconds to render the
    # 24 toric reports of the benchmark at seed 1001, best of 15 on 2 CPUs,
    # value by value (the walker alone) / a column at a time / json.dumps:
    #   3.10  0.029 / 0.015 / 0.046      3.12  0.029 / 0.017 / 0.039
    #   3.11  0.023 / 0.013 / 0.040      3.13  0.027 / 0.017 / 0.010
    if sys.version_info >= (3, 13):
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return _one_pass_json(report)


def render_table(report):
    lines = ["fixedloci %s report (%s)" % (report["version"], report["kind"])]
    if report["kind"] == "kempf":
        k = report["kempf"]
        for key in ("support", "semistable", "stable", "m_sign", "m_squared", "adapted"):
            lines.append("%-12s %s" % (key, k[key]))
        return "\n".join(lines) + "\n"
    comps = report.get("components", [])
    lines.append("components: %d" % len(comps))
    for i, c in enumerate(comps):
        if report["kind"] == "toric":
            desc = "rho=%s support=%s" % (c["rho"], c["point_pattern"])
        elif report["kind"] == "quiver":
            desc = "beta=%s" % (c["beta"],)
        else:
            desc = "factors=%s" % (c["factors"],)
        lines.append("%3d  dim=%d  %s  %s" % (i, c["dimension"], c.get("status", ""), desc))
    if "counts" in report:
        lines.append("counts: %s" % json.dumps(report["counts"], sort_keys=True))
    return "\n".join(lines) + "\n"


def _dot(text):
    """`text` as a DOT quoted string: its backslashes and double quotes escaped."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(report):
    kind = report["kind"]
    if kind == "toric":
        fan = report["fan"]
        out = ["graph fan {"]
        for i, ray in enumerate(fan["rays"]):
            out.append("  r%d [label=%s shape=box];" % (i, _dot(str(tuple(ray)))))
        for j, cone in enumerate(fan["cones"]):
            if not cone["maximal"] or not cone["rays"]:
                continue
            out.append("  c%d [label=%s];" % (j, _dot("cone %d" % j)))
            for i in cone["rays"]:
                out.append("  c%d -- r%d;" % (j, i))
        out.append("}")
        return "\n".join(out) + "\n"
    if kind == "quiver":
        data = report["input"]
        Q, W, _alpha, _theta = _quiver_from_data(data)
        points = {(pt[0], tuple(pt[1])) for c in report["components"] for pt, _n in c["beta"]}
        sq, _ = support_quiver(Q, W, tuple((pt, 1) for pt in sorted(points)))
        out = ["digraph cover_supports {"]
        names = {}
        for pt in sq.vertices:
            names[pt] = "v%d" % len(names)
            out.append("  %s [label=%s];" % (names[pt], _dot("%s %s" % (pt[0], list(pt[1])))))
        for a in sq.arrows:
            out.append("  %s -> %s [label=%s];" % (names[a.src], names[a.tgt], _dot(a.id[0])))
        out.append("}")
        base = ["digraph quiver {"]
        for v in data["vertices"]:
            base.append("  %s;" % _dot(v))
        for a in data["arrows"]:
            base.append("  %s -> %s [label=%s];" % (_dot(a["src"]), _dot(a["tgt"]), _dot(a["id"])))
        base.append("}")
        return "\n".join(out) + "\n" + "\n".join(base) + "\n"
    raise ValidationError("dot output is only available for toric and quiver reports")


# ---------------------------------------------------------------------------
# entry point

@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="fixedloci",
                                description="torus fixed points of GIT quotients")
    p.add_argument("--version", action="version", version="fixedloci " + __version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="JSON problem file")
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=("json", "table", "dot"), default="json")
        sp.add_argument("--verbose", action="store_true", help="timing on stderr")

    t = sub.add_parser("toric", help="fan + fixed points of a toric quotient")
    common(t)
    q = sub.add_parser("quiver", help="cover classes + certification for quiver moduli")
    common(q)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--prime", type=int, default=None)
    q.add_argument("--trials", type=int, default=None)
    q.add_argument("--window", type=int, default=None)
    g = sub.add_parser("grassmann", help="fixed components of a weighted Grassmannian")
    common(g)
    k = sub.add_parser("kempf", help="stability and optimal destabilizer for a support")
    common(k)
    k.add_argument("--support", default=None,
                   help='JSON list of [item, copy] pairs; default: the full support')
    k.add_argument("--inner-product", dest="inner_product", default=None,
                   help="JSON matrix overriding the problem file's inner product")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        data = load_problem(args.file)
        if data["kind"] != ("weights" if args.command == "kempf" else args.command):
            raise ValidationError(
                "problem kind %r does not match subcommand %r" % (data["kind"], args.command)
            )
        if args.command == "toric":
            report = _toric_report(data, seed=None)
        elif args.command == "quiver":
            for name in ("window", "prime", "trials"):
                if getattr(args, name) is not None:
                    _check_flag("--" + name, getattr(args, name), "quiver", "options", name)
            report = _quiver_report(data, args.seed, args.prime, args.trials, args.window)
        elif args.command == "grassmann":
            report = _grassmann_report(data)
        else:
            support = inner_product = None
            if args.support is not None:
                support = _json_flag("--support", args.support, "support")
            if args.inner_product is not None:
                inner_product = _json_flag("--inner-product", args.inner_product,
                                           "options", "inner_product")
            report = _kempf_report(data, support, inner_product)
        text = {"json": render_json, "table": render_table, "dot": render_dot}[args.format](report)
        try:
            if args.out:
                if not text.isascii():
                    text.encode("utf-8")  # a lone surrogate fails here, before the file is opened
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                # a text stream encodes the whole text before it writes any of it
                sys.stdout.write(text)
                sys.stdout.flush()
        except (OSError, UnicodeEncodeError) as exc:
            raise ValidationError("cannot write %s: %s" % (args.out or "stdout", exc))
    except TooLarge as exc:
        print("guard error: %s" % exc, file=sys.stderr)
        return 3
    except ValidationError as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return 2
    if args.verbose:
        print("elapsed: %.3fs" % (time.monotonic() - t0), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
