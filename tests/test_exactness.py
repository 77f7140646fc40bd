"""The no-float promise: the library source has no floating-point construct,
and the exact routines hand back only ints and Fractions."""

import ast
import pathlib
import random
from fractions import Fraction

import fixedloci
from cone_oracles import canonical
from fixedloci.cones import project_onto_cone
from fixedloci.hmtorus import WeightedAction, WeightItem, kempf_data
from fixedloci.linalg import clear_denominators, solve

SOURCES = sorted(pathlib.Path(fixedloci.__file__).parent.glob("*.py"))


def _float_constructs(path):
    """(line, description) of every float construct in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "float literal %r" % node.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("float", "round"):
            found.append((node.lineno, "%s() call" % node.func.id))
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt" \
                and isinstance(node.value, ast.Name) and node.value.id == "math":
            found.append((node.lineno, "math.sqrt"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math" \
                and any(a.name == "sqrt" for a in node.names):
            found.append((node.lineno, "math.sqrt import"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
    return sorted(found)


def test_source_has_no_float_constructs():
    assert len(SOURCES) > 5
    bad = ["%s:%d: %s" % (p.name, line, what) for p in SOURCES for line, what in _float_constructs(p)]
    assert bad == []


def test_scan_flags_each_construct(tmp_path):
    path = tmp_path / "linalg.py"
    path.write_text("import math\nfrom math import sqrt\n"
                    "def f(a, b):\n    a /= 2\n    return float(a) + round(b) + 0.5 + math.sqrt(b) + a / b\n")
    assert sorted(what for _, what in _float_constructs(path)) == [
        "float literal 0.5", "float() call", "math.sqrt", "math.sqrt import",
        "round() call", "true division", "true division"]
    simplex = tmp_path / "simplex.py"
    simplex.write_text("def solve_nonneg(a, b):\n    return a / b\n\ndef other(a, b):\n    return a / b\n")
    assert _float_constructs(simplex) == [(2, "true division"), (5, "true division")]


def _exact(values):
    return all(type(v) in (int, Fraction) for v in values)


def _random_inner_product(rng, r):
    B = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
    return [[sum(B[k][i] * B[k][j] for k in range(r)) + (i == j) for j in range(r)]
            for i in range(r)]


def test_exact_routines_return_ints_and_fractions():
    rng = random.Random(31)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        out = solve([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)],
                    [rng.randint(-4, 4) for _ in range(m)])
        if out is not None:
            assert _exact(out[0]) and type(out[1]) is int

    for _ in range(80):
        dim = rng.randint(1, 3)
        gens = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(0, 4))]
        cone = canonical(gens, dim)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim)]
        Q = _random_inner_product(rng, dim) if rng.random() < 0.5 else None
        P, D = project_onto_cone(cone, clear_denominators(x)[0], Q)
        assert _exact(P) and type(D) is int

    kinds = set()
    for _ in range(80):
        r = rng.randint(1, 3)
        items = [WeightItem(tuple(rng.randint(-2, 2) for _ in range(r)))
                 for _ in range(rng.randint(1, 4))]
        action = WeightedAction(r, 0, items, tuple(rng.randint(-2, 2) for _ in range(r)))
        Q = _random_inner_product(rng, r) if rng.random() < 0.5 else None
        mv, ray, _ = kempf_data(action, action.indices(), Q)
        kinds.add(mv.sign)
        assert mv.m_squared is None or type(mv.m_squared) is Fraction
        assert ray is None or _exact(ray)
    assert kinds == {-1, 0, 1}
