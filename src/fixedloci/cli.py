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
import json
import sys
import time
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii

from . import __version__
from .common import Status
from .errors import FixedLociError, TooLarge, ValidationError
from .grassmann import GrassmannProblem, classify
from .hmtorus import WeightItem, WeightedAction, kempf_data
from .linalg import IntMatrix
from .quiver import (
    Arrow,
    ArrowWeights,
    CoverVector,
    Quiver,
    check_stability_pairing,
    component_dimension,
    default_window_radius,
    enumerate_covers,
    support_quiver,
)
from .repfield import certify_component, check_guard
from .toric import fixed_points_toric, quotient_fan, toric_context


@functools.cache
def _problem_schema():
    return json.loads(resources.files("fixedloci.schemas").joinpath("problem.schema.json").read_text())


def _is_type(value, name):
    """JSON Schema's type test: a bool is no number, a float with an integral value an integer."""
    if isinstance(value, bool):
        return False
    if name == "integer":
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    return isinstance(value, {"number": (int, float), "string": str, "array": list,
                              "object": dict}[name])


def _schema_errors(value, schema, path=()):
    """Yield (path, message) for each way `value` breaks `schema`, in schema order, with the
    messages of jsonschema's Draft 2020-12 validator for the keywords the problem schema uses."""
    for key, rule in schema.items():
        if key == "type" and not _is_type(value, rule):
            yield path, "%r is not of type %r" % (value, rule)
        elif key == "enum" and value not in rule:
            yield path, "%r is not one of %r" % (value, rule)
        elif key == "const" and value != rule:
            yield path, "%r was expected" % (rule,)
        elif key == "minimum" and _is_type(value, "number") and value < rule:
            yield path, "%r is less than the minimum of %r" % (value, rule)
        elif key == "minItems" and isinstance(value, list) and len(value) < rule:
            yield path, "%r %s" % (value, "should be non-empty" if rule == 1 else "is too short")
        elif key == "maxItems" and isinstance(value, list) and len(value) > rule:
            yield path, "%r %s" % (value, "is expected to be empty" if rule == 0 else "is too long")
        elif key == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _schema_errors(item, rule, path + (i,))
        elif key == "required" and isinstance(value, dict):
            yield from ((path, "%r is a required property" % (n,)) for n in rule if n not in value)
        elif key == "properties" and isinstance(value, dict):
            for name, sub in rule.items():
                if name in value:
                    yield from _schema_errors(value[name], sub, path + (name,))
        elif key == "additionalProperties" and isinstance(value, dict):
            extra = sorted(k for k in value if k not in schema.get("properties", {}))
            if rule is False and extra:
                yield path, "Additional properties are not allowed (%s %s unexpected)" % (
                    ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were")
            elif rule is not False:
                for name in extra:
                    yield from _schema_errors(value[name], rule, path + (name,))
        elif key == "allOf":
            for sub in rule:
                yield from _schema_errors(value, sub, path)
        elif key == "if" and not any(_schema_errors(value, rule)):
            yield from _schema_errors(value, schema["then"], path)


def load_problem(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ValidationError("%s: invalid JSON at line %d column %d: %s"
                              % (path, exc.lineno, exc.colno, exc.msg))
    error = min(_schema_errors(data, _problem_schema()), key=lambda e: e[0], default=None)
    if error:
        loc = "/".join(str(p) for p in error[0]) or "(root)"
        raise ValidationError("%s: at %s: %s" % (path, loc, error[1]))
    return data


def _check_flag(flag, value, kind, *path):
    """Hold a command-line value to the schema rule for the same field of a
    problem file of this kind."""
    rule = next(r["then"] for r in _problem_schema()["allOf"]
                if r["if"]["properties"]["kind"]["const"] == kind)
    for key in path:
        rule = rule["properties"][key]
    error = next(_schema_errors(value, rule), None)
    if error:
        raise ValidationError("%s: %s" % (flag, error[1]))
    return value


def _json_flag(flag, text, *path):
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError("%s: invalid JSON at column %d: %s" % (flag, exc.colno, exc.msg))
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

def _frac_str(x):
    return None if x is None else str(Fraction(x))


def _toric_report(data, seed):
    action = _action_from_data(data, "weights")
    section = None
    opts = data.get("options", {})
    if "section" in opts:
        section = IntMatrix.from_rows(opts["section"], len(opts["section"][0]) if opts["section"] else 0)
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
            "rho": [list(r) for r in c.rho.matrix.entries],
            "support": [list(i) for i in c.support],
            "support_flat": sup_flat,
            "point_pattern": pattern,
            "g_rho": c.g_descriptor,
            "dimension": c.dimension,
            "status": c.status.value,
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
    return {
        "tool": "fixedloci",
        "version": __version__,
        "kind": "toric",
        "seed": seed,
        "input": data,
        "components": comp_json,
        "fan": fan_json,
        "counts": {
            "fixed_points": len(comp_json),
            "section_rows": ctx.section.nrows,
        },
    }


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
    covers = enumerate_covers(Q, W, alpha, radius)
    dimension = {c: component_dimension(Q, W, c) for c in covers if c.items}
    cands = [c for c, d in dimension.items() if d >= 0]
    results = [
        certify_component(Q, W, c, theta, trials=trials, prime=prime, seed=seed)
        for c in cands
    ]

    comp_json = []
    for c, r in zip(cands, results):
        blocks = sorted(n for _, n in c.items)
        comp_json.append({
            "beta": [[_point_json(k), n] for k, n in c.items],
            "dimension": dimension[c],
            "g_rho": "torus" if all(n == 1 for n in blocks) else blocks,
            "status": r.status.value,
            "method": r.method,
            "witness": _witness_json(r.witness),
            "witness_trial": r.witness_trial,
            "destabilizer": None if r.destabilizer is None
            else [[_point_json(k), n] for k, n in r.destabilizer],
        })
    counts = {
        "candidates": len(cands),
        "nonempty_verified": sum(1 for r in results if r.status is Status.NONEMPTY_VERIFIED),
        "empty_verified": sum(1 for r in results if r.status is Status.EMPTY_VERIFIED),
        "candidate_only": 0,  # every candidate is certified; the key keeps the report format
    }
    return {
        "tool": "fixedloci",
        "version": __version__,
        "kind": "quiver",
        "seed": seed,
        "input": data,
        "components": comp_json,
        "classes_enumerated": len(covers),
        "counts": counts,
    }


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
    return {
        "tool": "fixedloci",
        "version": __version__,
        "kind": "grassmann",
        "seed": None,
        "input": data,
        "components": comp_json,
        "counts": {"components": len(comps)},
    }


def _kempf_report(data, support=None, inner_product=None):
    action = _action_from_data(data, "items")
    if support is None:
        support = data["support"] if "support" in data else action.indices()
    support = [tuple(p) for p in support]
    if inner_product is None:
        inner_product = data.get("options", {}).get("inner_product")
    mv, lam, cone = kempf_data(action, support, inner_product)
    return {
        "tool": "fixedloci",
        "version": __version__,
        "kind": "kempf",
        "seed": None,
        "input": data,
        "kempf": {
            "support": [list(p) for p in sorted(support)],
            "semistable": mv.sign >= 0,
            "stable": mv.sign > 0,
            "m_sign": mv.sign,
            "m_squared": _frac_str(mv.m_squared),
            "adapted": None if lam is None else list(lam),
            "limit_cone": [list(g) for g in cone.generators],
        },
    }


# ---------------------------------------------------------------------------
# rendering

def _encode_json(value, out, indent="\n"):
    """Append the text of json.dumps(value, sort_keys=True, indent=2) to out,
    in one pass: a list of plain ints is one join, a float goes to json.dumps."""
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
        if set(map(type, value)) == {int}:
            out.append("[" + inner + ("," + inner).join(map(str, value)) + indent + "]")
            return
        out.append("[")
        for n, v in enumerate(value):
            out.append("," + inner if n else inner)
            _encode_json(v, out, inner)
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


def _one_pass_json(value):
    """json.dumps(value, sort_keys=True, indent=2) + "\\n", byte for byte, for
    a JSON value with string keys."""
    out = []
    _encode_json(value, out)
    out.append("\n")
    return "".join(out)


def render_json(report):
    # before 3.13 the stdlib encoder indents in Python, and the one pass is
    # about 1.7 times as fast; from 3.13 on it indents in C and is faster still
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


def render_dot(report):
    kind = report["kind"]
    if kind == "toric":
        fan = report["fan"]
        out = ["graph fan {"]
        for i, ray in enumerate(fan["rays"]):
            out.append('  r%d [label="%s" shape=box];' % (i, tuple(ray)))
        for j, cone in enumerate(fan["cones"]):
            if not cone["maximal"] or not cone["rays"]:
                continue
            out.append('  c%d [label="cone %d"];' % (j, j))
            for i in cone["rays"]:
                out.append("  c%d -- r%d;" % (j, i))
        out.append("}")
        return "\n".join(out) + "\n"
    if kind == "quiver":
        data = report["input"]
        Q, W, _alpha, _theta = _quiver_from_data(data)
        points = {(pt[0], tuple(pt[1])) for c in report["components"] for pt, _n in c["beta"]}
        sq, _ = support_quiver(Q, W, CoverVector({pt: 1 for pt in points}))
        out = ["digraph cover_supports {"]
        names = {}
        for pt in sq.vertices:
            names[pt] = "v%d" % len(names)
            out.append('  %s [label="%s %s"];' % (names[pt], pt[0], list(pt[1])))
        for a in sq.arrows:
            out.append('  %s -> %s [label="%s"];' % (names[a.src], names[a.tgt], a.id[0]))
        out.append("}")
        base = ["digraph quiver {"]
        for v in data["vertices"]:
            base.append('  "%s";' % v)
        for a in data["arrows"]:
            base.append('  "%s" -> "%s" [label="%s"];' % (a["src"], a["tgt"], a["id"]))
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
    except TooLarge as exc:
        print("guard error: %s" % exc, file=sys.stderr)
        return 3
    except FixedLociError as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return 2

    if args.format == "json":
        text = render_json(report)
    elif args.format == "table":
        text = render_table(report)
    else:
        try:
            text = render_dot(report)
        except FixedLociError as exc:
            print("validation error: %s" % exc, file=sys.stderr)
            return 2
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print("validation error: cannot write %s: %s" % (args.out, exc), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if args.verbose:
        print("elapsed: %.3fs" % (time.monotonic() - t0), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
