import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sympref").glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # is no check at all there; raise InvariantViolation instead
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []
