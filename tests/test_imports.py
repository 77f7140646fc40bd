"""Every import in the package is stdlib or fixedloci, and every import in
the tests is also a test module or a package of the `test` extra, so the
suite runs on what `pip install .[test]` provides."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "fixedloci").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def imported_roots(path):
    """Top-level names of the absolute imports in a file, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def extra_packages():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text()
    extra = re.search(r"^test\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
    names = re.findall(r'"\s*([A-Za-z0-9_.-]+)', extra)
    return {n.lower().replace("-", "_") for n in names}


def offending(files, allowed):
    found = {f.name: sorted(imported_roots(f) - allowed) for f in files}
    return {name: names for name, names in found.items() if names}


def test_src_imports_only_stdlib():
    assert SRC
    assert offending(SRC, set(sys.stdlib_module_names) | {"fixedloci"}) == {}


def test_tests_import_only_stdlib_test_extra_and_their_own_modules():
    extra = extra_packages()
    assert "pytest" in extra
    allowed = set(sys.stdlib_module_names) | {"fixedloci"} | extra | {f.stem for f in TESTS}
    assert offending(TESTS, allowed) == {}
