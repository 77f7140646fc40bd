"""Span tracing of fixedloci from outside the package.

The modules import each other's functions by name (`from .simplex import
feasible_nonneg`, `from .hmtorus import is_stable_support`, ...), so wrapping
a function means rebinding it in every fixedloci module that holds it.  Each
binding site gets its own wrapper, which records the importing module, so a
count such as "stability tests issued through toric" is measured where the
call is made.  Methods are wrapped once, on their class.  `Tracer.close`
puts every original object back.

The vector helpers (`dot`, `primitive`, ...) are deliberately not wrapped:
they are called millions of times and would dominate the overhead.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("cli", "linalg", "simplex", "cones", "hmtorus", "toric", "quiver", "repfield", "grassmann")

# span group -> names in its module; "Class.method" wraps a method on its class.
# A name missing from the package is skipped, so the tracer survives refactors.
GROUPS = {
    "cli.main": ("cli", ("main",)),
    "cli.load_problem": ("cli", ("load_problem",)),
    "cli.render": ("cli", ("render_json", "render_table", "render_dot")),
    "simplex.lp": ("simplex", ("solve_nonneg",)),
    "linalg.elim": ("linalg", ("solve_rational", "rational_inverse", "det_rational",
                               "unimodular_inverse")),
    "linalg.normal_form": ("linalg", ("hnf", "smith", "rank", "cokernel_with_section",
                                      "saturated_lattice_basis")),
    "cones.canon": ("cones", ("RationalCone.__init__",)),
    "cones.dual": ("cones", ("RationalCone.dual", "dual_cone")),
    "cones.contains": ("cones", ("RationalCone.contains", "RationalCone.interior_contains",
                                 "cone_contains", "cone_interior_contains")),
    "cones.project": ("cones", ("project_onto_cone",)),
    "hmtorus.stable": ("hmtorus", ("is_stable_support",)),
    "hmtorus.semistable": ("hmtorus", ("is_semistable_support",)),
    "hmtorus.limit_cone": ("hmtorus", ("limit_cone",)),
    "hmtorus.kempf": ("hmtorus", ("_kempf_data", "m_value", "adapted_one_ps")),
    "toric.fan": ("toric", ("quotient_fan",)),
    "toric.fixed_points": ("toric", ("fixed_points_toric",)),
    "quiver.enumerate": ("quiver", ("enumerate_covers",)),
    "repfield.certify": ("repfield", ("certify_component",)),
    "repfield.stable_rep": ("repfield", ("is_stable_rep",)),
    "repfield.trial": ("repfield", ("random_rep",)),
    "grassmann.classify": ("grassmann", ("classify", "component_count")),
}

# group -> what to keep of a call's result
OUTCOMES = {
    "simplex.lp": lambda res: res is not None,
    "hmtorus.stable": bool,
    "repfield.certify": lambda res: res.status.value,
}

# span record fields
GROUP, SITE, START, END, PARENT, PROBLEM, OUTCOME, OUTERMOST = range(8)


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fixedloci" or name.startswith("fixedloci."))]


def bindings():
    """Every (owner, name) -> object binding in the package's namespaces."""
    out = {}
    for mod in package_modules():
        for name, obj in vars(mod).items():
            out[(mod.__name__, name)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    out[(mod.__name__ + "." + name, attr)] = member
    return out


class Tracer:
    """Wraps the package's layer functions and keeps their spans in memory.

    A span is a list [group, site, start, end, parent, problem, outcome,
    outermost]; `parent` indexes `spans` (-1 at top level) and `outermost`
    is False for a call nested inside another span of the same group.
    """

    def __init__(self):
        self.spans = []
        self.problem = None
        self._stack = []
        self._depth = {g: 0 for g in GROUPS}
        self._restore = []
        modules = {m.__name__: m for m in package_modules()}
        if "fixedloci.cli" not in modules:
            raise RuntimeError("import fixedloci.cli before tracing it")
        for group, (modname, names) in GROUPS.items():
            home = modules.get("fixedloci." + modname)
            if home is None:
                continue
            for qual in names:
                if "." in qual:
                    self._wrap_method(group, home, *qual.split("."))
                else:
                    self._wrap_function(group, home, qual, modules.values())

    def _wrap_method(self, group, home, cls_name, attr):
        cls = vars(home).get(cls_name)
        if not isinstance(cls, type) or attr not in vars(cls):
            return
        original = vars(cls)[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, group, home.__name__))

    def _wrap_function(self, group, home, name, modules):
        original = vars(home).get(name)
        if original is None:
            return
        for mod in modules:
            for bound, obj in list(vars(mod).items()):
                if obj is original:
                    self._restore.append((mod, bound, original))
                    setattr(mod, bound, self._wrapper(original, group, mod.__name__))

    def _wrapper(self, original, group, site):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter
        outcome = OUTCOMES.get(group)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = [group, site, 0.0, 0.0, stack[-1] if stack else -1, self.problem, None,
                   depth[group] == 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[group] += 1
            rec[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[END] = clock()
                depth[group] -= 1
                stack.pop()
            if outcome is not None:
                rec[OUTCOME] = outcome(result)
            return result

        return traced

    def close(self):
        """Put every original binding back, last wrapped first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def enclosing(spans, i, groups):
    """Index of the nearest ancestor of span i whose group is in `groups`, or -1."""
    p = spans[i][PARENT]
    while p >= 0 and spans[p][GROUP] not in groups:
        p = spans[p][PARENT]
    return p


def summarize(spans):
    """Per-group totals: outermost calls, spans, self time and outcomes."""
    own = self_times(spans)
    out = {g: {"calls": 0, "spans": 0, "self_s": 0.0, "outcomes": {}} for g in GROUPS}
    for i, s in enumerate(spans):
        g = out[s[GROUP]]
        g["spans"] += 1
        g["self_s"] += own[i]
        if s[OUTERMOST]:
            g["calls"] += 1
        if s[OUTCOME] is not None:
            key = str(s[OUTCOME])
            g["outcomes"][key] = g["outcomes"].get(key, 0) + 1
    return out
