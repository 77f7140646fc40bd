"""One exception class per exit code: the library raises ValidationError
(exit 2), TooLarge (exit 3) or AssertionError (a bug), so that every error
the CLI can meet ends in its exit code, never in a traceback."""

import ast
import pathlib

import fixedloci
from fixedloci import errors

SOURCES = sorted(pathlib.Path(fixedloci.__file__).parent.glob("*.py"))
ALLOWED = {"ValidationError", "TooLarge", "AssertionError"}
# (module, enclosing function, exception) of each raise outside the rule:
# ArrowWeights.of fails a lookup as a mapping does
EXEMPT = {("quiver.py", "ArrowWeights.of", "KeyError")}


def _raises(path):
    """(line, enclosing qualified name, exception) of every raise in a module;
    a bare re-raise is named "bare raise"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = "bare raise" if exc is None else exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
                found.append((child.lineno, ".".join(scope), name))
            inner = (child.name,) if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                        ast.ClassDef)) else ()
            visit(child, scope + inner)

    visit(ast.parse(path.read_text()), ())
    return found


def test_library_raises_only_the_exit_code_classes():
    assert len(SOURCES) > 5
    seen = {(p.name, where, name) for p in SOURCES for _, where, name in _raises(p)}
    bad = sorted(r for r in seen - EXEMPT if r[2] not in ALLOWED)
    assert bad == []
    assert EXEMPT <= seen  # no stale exemption
    assert {name for _, _, name in seen} >= ALLOWED


def test_errors_define_one_class_per_exit_code():
    tree = ast.parse(pathlib.Path(errors.__file__).read_text())
    classes = [n.name for n in tree.body if isinstance(n, ast.ClassDef)]
    assert classes == ["FixedLociError", "ValidationError", "TooLarge"]
    assert issubclass(errors.ValidationError, errors.FixedLociError)
    assert issubclass(errors.TooLarge, errors.FixedLociError)


def test_scan_names_each_raise(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class A:\n    def f(self):\n        raise ValueError('x')\n"
                    "def g():\n    try:\n        pass\n    except OSError:\n        raise\n"
                    "    raise errors.TooLarge\n"
                    "raise TooLarge('y') from None\n")
    assert _raises(path) == [(3, "A.f", "ValueError"), (8, "g", "bare raise"),
                             (9, "g", "errors.TooLarge"), (10, "", "TooLarge")]
