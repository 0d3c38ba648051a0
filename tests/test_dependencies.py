"""Every third-party module the tests import is declared in pyproject.toml,
so that `pip install -e '.[test]'` is enough to collect the whole suite."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_test_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = (
        project["dependencies"] + project["optional-dependencies"]["test"]
    )
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements
    }
    local = {p.stem for p in (ROOT / "tests").glob("*.py")}
    imported = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        imported |= imported_top_level_modules(path)
    third_party = imported - set(sys.stdlib_module_names) - local - {"sympref"}
    assert third_party, "no third-party import found: the scan is broken"
    assert third_party <= declared, sorted(third_party - declared)
