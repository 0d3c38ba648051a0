"""The package namespace loads lazily but says the same as an eager one:
the same public names, each the very object its home module holds."""

import importlib
import subprocess
import sys

import pytest

import sympref

# every public name of the package, by home module, as the package
# exported them when it imported every submodule eagerly
HOMES = {
    "cyclotomic": [
        "BadInput", "ConductorMismatch", "CyclotomicNumber", "DivisionByZero",
        "InvariantViolation", "NotASubfield", "cyclotomic_polynomial",
        "euler_phi",
    ],
    "linalg": [
        "BadForm", "DimensionMismatch", "ExactMatrix", "SingularMatrix",
        "check_form", "fixed_space", "form_restriction_nondegenerate",
        "is_symplectic", "pairing_form", "standard_symplectic_form",
    ],
    "groups": [
        "DEFAULT_MAX_ORDER", "FiniteMatrixGroup", "NotAMember",
        "NotSymplectic", "OrderBoundExceeded", "SingularGenerator",
        "SubgroupHandle", "conjugacy_classes", "element_order",
        "generated_subgroup", "is_normal", "powers",
    ],
    "reflections": [
        "VERDICT_HOLDS", "VERDICT_OBSTRUCTED", "ReflectionCensus", "Verdict",
        "census", "complex_reflections_generate", "double", "doubled_element",
        "reflection_subgroup", "verdict", "z_locus_min_codim",
    ],
    "stratification": [
        "FiberDataError", "MissingFiberData", "SemismallReport",
        "StratificationLattice", "Stratum", "Subspace", "build_lattice",
        "parse_fiber_data", "semismall_check",
    ],
    "spectrum": ["ToleranceViolation", "pfaffian", "symplectic_eigenvalues"],
    "catalog": [
        "CATALOG", "CatalogEntry", "ParameterOutOfRange", "build_entry",
        "build_imprimitive", "build_imprimitive_doubled", "build_negation",
        "build_sl2_subgroup", "build_symmetric_on_squares", "build_weyl",
        "build_weyl_doubled", "entry_names", "get_entry",
    ],
    "specio": [
        "AnalysisReport", "GroupSpecDocument", "ParseError", "ValidationError",
        "analyze", "make_group", "parse_group_spec", "report_to_json",
        "report_to_text", "serialize_group_spec", "spec_from_group",
    ],
    "jsonin": [],
}

NAMES = [
    "AnalysisReport", "BadForm", "BadInput", "CATALOG", "CatalogEntry",
    "ConductorMismatch", "CyclotomicNumber", "DEFAULT_MAX_ORDER",
    "DimensionMismatch", "DivisionByZero", "ExactMatrix", "FiberDataError",
    "FiniteMatrixGroup", "GroupSpecDocument", "InvariantViolation",
    "MissingFiberData", "NotAMember", "NotASubfield", "NotSymplectic",
    "OrderBoundExceeded", "ParameterOutOfRange", "ParseError",
    "ReflectionCensus", "SemismallReport", "SingularGenerator",
    "SingularMatrix", "StratificationLattice", "Stratum", "SubgroupHandle",
    "Subspace", "ToleranceViolation", "VERDICT_HOLDS", "VERDICT_OBSTRUCTED",
    "ValidationError", "Verdict", "analyze", "build_entry",
    "build_imprimitive", "build_imprimitive_doubled", "build_lattice",
    "build_negation", "build_sl2_subgroup", "build_symmetric_on_squares",
    "build_weyl", "build_weyl_doubled", "catalog", "census", "check_form",
    "complex_reflections_generate", "conjugacy_classes", "cyclotomic",
    "cyclotomic_polynomial", "double", "doubled_element", "element_order",
    "entry_names", "euler_phi", "fixed_space",
    "form_restriction_nondegenerate", "generated_subgroup", "get_entry",
    "groups", "is_normal", "is_symplectic", "jsonin", "linalg", "make_group",
    "pairing_form", "parse_fiber_data", "parse_group_spec", "pfaffian",
    "powers", "reflection_subgroup", "reflections", "report_to_json",
    "report_to_text", "semismall_check", "serialize_group_spec",
    "spec_from_group", "specio", "spectrum", "standard_symplectic_form",
    "stratification", "symplectic_eigenvalues", "verdict",
    "z_locus_min_codim",
]


def test_all_is_the_pinned_list():
    assert len(NAMES) == 86
    assert sympref.__all__ == NAMES
    assert sorted([*HOMES, *(n for names in HOMES.values() for n in names)]) == NAMES


def test_each_name_is_the_object_in_its_home_module():
    wrong = []
    for home, names in HOMES.items():
        module = importlib.import_module("sympref." + home)
        if getattr(sympref, home) is not module:
            wrong.append(home)
        wrong += [n for n in names if getattr(sympref, n) is not getattr(module, n)]
    assert wrong == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sympref import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == NAMES
    assert all(value is getattr(sympref, n) for n, value in namespace.items())


def test_star_import_in_a_fresh_interpreter():
    # no submodule is loaded there before the names are looked up;
    # conftest puts the package under test on PYTHONPATH
    code = (
        "from sympref import *\n"
        "import importlib\n"
        "for home, names in %r.items():\n"
        "    module = importlib.import_module('sympref.' + home)\n"
        "    if globals()[home] is not module:\n"
        "        raise SystemExit(home)\n"
        "    for n in names:\n"
        "        if globals()[n] is not getattr(module, n):\n"
        "            raise SystemExit(n)\n"
    ) % (HOMES,)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_dir_lists_every_public_name():
    assert set(NAMES) <= set(dir(sympref))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sympref.no_such_name
    assert not hasattr(sympref, "no_such_name")
    with pytest.raises(ImportError):
        exec("from sympref import no_such_name", {})
