import ast
import subprocess
import sys
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


# Runs under python -O, so its own checks are if statements: each
# invariant must raise InvariantViolation with assert statements gone.
OPTIMIZED_CHILD = """\
import sys
from sympref import reflections
from sympref.catalog import build_sl2_subgroup, build_symmetric_on_squares, build_weyl
from sympref.cyclotomic import InvariantViolation
from sympref.linalg import ExactMatrix
from sympref.reflections import census, double, reflection_subgroup
from sympref.stratification import build_lattice

if sys.flags.optimize != 1:
    sys.exit("not optimized: sys.flags.optimize is %d" % sys.flags.optimize)

def corrupted():
    # a fresh cyclic group of order 5 with the trace of x^2 off by one,
    # as in test_a_corrupted_trace_breaks_the_census_and_the_lattice
    group = build_sl2_subgroup.__wrapped__("cyclic", 5)
    x2 = group.product_index(1, 1)
    group.traces = tuple(t + 1 if i == x2 else t for i, t in enumerate(group.traces))
    return group

def raises(name, call):
    try:
        call()
    except InvariantViolation:
        return
    sys.exit("%s raised no InvariantViolation" % name)

raises("census", lambda: census(corrupted()))
raises("build_lattice", lambda: build_lattice(corrupted()))
reflections.is_normal = lambda sub: False
raises("reflection_subgroup", lambda: reflection_subgroup(build_symmetric_on_squares(2)))
reflections.doubled_element = lambda g: ExactMatrix.identity(2 * g.rows, g.conductor)
raises("double", lambda: double(build_weyl("A", 2)))
print("ok")
"""


def test_invariants_raise_under_python_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHILD],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
