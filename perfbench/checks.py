"""Answer checks, computed without calling the library.

`check_report` returns a list of failure messages for one CLI result; an
empty list means the answer passed.  `check_pairs` compares problems that
describe the same variety in different forms.  The stability oracle here is
a separate exact implementation: Caratheodory subsets for cone membership
and facet normals for the interior.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

STATUSES = ("NonemptyVerified", "EmptyVerified", "CandidateOnly")


def beta_key(beta):
    return json.dumps(beta, separators=(",", ":"))


# ---------------------------------------------------------------------------
# exact oracle for cones spanned by integer vectors

def _solve(columns, target):
    """The coefficients x with sum x_j columns_j = target, if the columns are
    linearly independent and the system is consistent; else None."""
    r, k = len(target), len(columns)
    aug = [[Fraction(c[i]) for c in columns] + [Fraction(target[i])] for i in range(r)]
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, r) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[row], aug[piv] = aug[piv], aug[row]
        p = aug[row][col]
        aug[row] = [a / p for a in aug[row]]
        for i in range(r):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        row += 1
    if any(aug[i][k] != 0 for i in range(row, r)):
        return None
    return [aug[i][k] for i in range(k)]


def _rank(vectors, dim):
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(dim):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _det(m):
    n = len(m)
    if n == 0:
        return Fraction(1)
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(n) if m[0][j])


def in_cone(gens, x):
    """x lies in cone(gens): by Caratheodory, in the cone of an independent subset."""
    if not any(x):
        return True
    for k in range(1, min(len(gens), len(x)) + 1):
        for subset in itertools.combinations(gens, k):
            coeffs = _solve(subset, x)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def in_interior(gens, x):
    """x lies in the interior of cone(gens), which must be full-dimensional.

    Each facet is spanned by dim-1 independent generators and has every
    generator on one side; x must be strictly inside each of them.
    """
    dim = len(x)
    if _rank(gens, dim) < dim or not in_cone(gens, x):
        return False
    for subset in itertools.combinations(gens, dim - 1):
        if _rank(subset, dim) < dim - 1:
            continue
        # normal vector by cofactor expansion of the hyperplane's equation
        normal = [(-1) ** i * _det([[g[j] for j in range(dim) if j != i] for g in subset])
                  for i in range(dim)]
        sides = {(sum(a * b for a, b in zip(normal, g)) > 0) - (sum(a * b for a, b in zip(normal, g)) < 0)
                 for g in gens}
        if sides <= {0, 1}:
            if sum(a * b for a, b in zip(normal, x)) <= 0:
                return False
        elif sides <= {0, -1}:
            if sum(a * b for a, b in zip(normal, x)) >= 0:
                return False
    return True


# ---------------------------------------------------------------------------
# per-kind checks

def _toric(report, expect):
    errs = []
    comps = report.get("components", [])
    cones = report["fan"]["cones"]
    maximal = sum(1 for c in cones if c["maximal"])
    n_fixed = report["counts"]["fixed_points"]
    if not n_fixed == len(comps) == maximal == expect["fixed_points"]:
        errs.append("fixed points %d / components %d / maximal cones %d, expected %d"
                    % (n_fixed, len(comps), maximal, expect["fixed_points"]))
    if "cones" in expect and len(cones) != expect["cones"]:
        errs.append("%d cones, expected %d" % (len(cones), expect["cones"]))
    return errs


def _grassmann(report):
    data = report["input"]
    m = data["m"]
    blocks = {}
    for w in data["weights"]:
        blocks[w] = blocks.get(w, 0) + 1
    q = list(blocks.values())
    # one component per distribution t of the m rows over the weight blocks,
    # each a product of Gr(t_j, q_j) of dimension t_j (q_j - t_j)
    dims = sorted(sum(t * (qj - t) for t, qj in zip(ts, q))
                  for ts in itertools.product(*(range(qj + 1) for qj in q)) if sum(ts) == m)
    got = sorted(c["dimension"] for c in report["components"])
    if got != dims:
        return ["component dimensions %s, expected %s" % (got, dims)]
    return []


def _kempf(report):
    data = report["input"]
    k = report["kempf"]
    theta = data["theta"]
    gens = [data["items"][s]["chi"] for s, _ in k["support"]]
    nonzero = [g for g in gens if any(g)]
    semistable = in_cone(nonzero, theta)
    stable = in_interior(nonzero, theta)
    errs = []
    if k["semistable"] != semistable:
        errs.append("semistable=%s, oracle says %s" % (k["semistable"], semistable))
    if k["stable"] != stable:
        errs.append("stable=%s, oracle says %s" % (k["stable"], stable))
    if k["stable"] and not k["semistable"]:
        errs.append("stable but not semistable")
    if (k["m_sign"] < 0) != (not k["semistable"]):
        errs.append("m_sign=%d with semistable=%s" % (k["m_sign"], k["semistable"]))
    if (k["adapted"] is not None) != (k["m_sign"] == -1):
        errs.append("adapted=%s with m_sign=%d" % (k["adapted"], k["m_sign"]))
    if k["adapted"] is not None:
        lam = k["adapted"]
        if sum(a * b for a, b in zip(theta, lam)) >= 0:
            errs.append("<theta, adapted> >= 0")
        if any(sum(a * b for a, b in zip(g, lam)) < 0 for g in gens):
            errs.append("adapted 1-PS has no limit on the support")
    return errs


def _quiver(report, expect):
    errs = []
    counts = report["counts"]
    comps = report["components"]
    if report["classes_enumerated"] != expect["classes"]:
        errs.append("classes_enumerated %d, expected %d" % (report["classes_enumerated"], expect["classes"]))
    if not counts["candidates"] == len(comps) == expect["candidates"]:
        errs.append("candidates %d / components %d, expected %d"
                    % (counts["candidates"], len(comps), expect["candidates"]))
    by_status = {s: sum(1 for c in comps if c["status"] == s) for s in STATUSES}
    if sum(by_status.values()) != len(comps):
        errs.append("a component has an unknown status")
    if (counts["nonempty_verified"], counts["empty_verified"], counts["candidate_only"]) != \
            tuple(by_status[s] for s in STATUSES):
        errs.append("status counts %s do not match the components" % counts)
    if counts["nonempty_verified"] + counts["empty_verified"] + counts["candidate_only"] != counts["candidates"]:
        errs.append("status counts do not sum to the candidates")
    statuses = {beta_key(c["beta"]): c["status"] for c in comps}
    if set(statuses) != set(expect["statuses"]):
        errs.append("candidate covers differ from the recorded ones")
    for key, was in expect["statuses"].items():
        now = statuses.get(key)
        if was != "CandidateOnly" and now is not None and now != was:
            errs.append("certified status flipped %s -> %s for %s" % (was, now, key))
    return errs


def check_report(problem, rc, text, validator):
    """Failure messages for one CLI invocation (empty when it passed)."""
    if rc != 0:
        return ["exit code %d" % rc]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return ["report is not JSON: %s" % exc]
    errors = sorted(validator.iter_errors(report), key=lambda e: list(e.absolute_path))
    if errors:
        return ["report schema: %s" % errors[0].message]
    try:
        if problem.command == "toric":
            return _toric(report, problem.expect)
        if problem.command == "grassmann":
            return _grassmann(report)
        if problem.command == "kempf":
            return _kempf(report)
        return _quiver(report, problem.expect["quiver"])
    except (KeyError, TypeError, IndexError) as exc:
        return ["report lacks expected structure: %r" % (exc,)]


def toric_signature(text):
    report = json.loads(text)
    cones = report["fan"]["cones"]
    return (report["counts"]["fixed_points"], len(report["fan"]["rays"]), len(cones),
            tuple(sorted(len(c["rays"]) for c in cones)))


def check_pairs(problems, texts, failures):
    """Folded and unfolded forms of one variety must give the same fan shape.

    `texts` maps problem id to report text; adds messages to `failures`.
    """
    by_variety = {}
    for p in problems:
        if p.command == "toric" and p.id in texts and not failures.get(p.id):
            by_variety.setdefault(p.expect["variety"], []).append(p.id)
    for ids in by_variety.values():
        sigs = {pid: toric_signature(texts[pid]) for pid in ids}
        if len(set(sigs.values())) > 1:
            for pid in ids:
                failures.setdefault(pid, []).append("forms of one variety disagree: %s" % sigs)
