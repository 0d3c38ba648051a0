"""Exact reflection analysis of finite symplectic matrix groups.

The core question: given a finite group of exact matrices preserving a
symplectic form, is it generated by its symplectic reflections?  When
it is not, the symplectic quotient admits no symplectic resolution.
Everything group-theoretic here is exact, over cyclotomic fields; only
the 2-form spectrum module works in floating point, on Python floats.

The names below load on first use (PEP 562), so `import sympref`
loads no submodule.  The command line, which imports this package
first, loads `errors` and `jsonin` for every command, --help and usage
errors included; `spectrum` adds `spectrum`, and no command loads numpy
or anything else outside the standard library.  `argparse`, with
`gettext` and `locale`, loads only for --help, usage errors and command
lines outside the plain form (see `cli`).  `analyze`,
`double` and `semismall` add the exact stack (`cyclotomic`, `linalg`,
`groups`, `reflections`, `specio`), and `analyze --strata` and
`semismall` add `stratification`, home of the subspace algebra
(`Subspace`), which the other commands never compile.  `catalog` loads
`catalog`, whose builders import the exact stack, `catalog list`
included.

Inside the package, `_deferred(name)` defers a public function the
same way, next to PEP 562's `__getattr__`, but looks it up in its home
module at each call; `cli` calls the exact stack and `spectrum` through
it, and `specio` the lattice.
"""

import importlib

# each submodule and the public names that live in it
_EXPORTS = {
    "cyclotomic": (
        "BadInput", "ConductorMismatch", "CyclotomicNumber", "DivisionByZero",
        "InvariantViolation", "NotASubfield", "cyclotomic_polynomial",
        "euler_phi",
    ),
    "linalg": (
        "BadForm", "DimensionMismatch", "ExactMatrix", "SingularMatrix",
        "check_form", "fixed_space", "form_restriction_nondegenerate",
        "is_symplectic", "pairing_form", "standard_symplectic_form",
    ),
    "groups": (
        "DEFAULT_MAX_ORDER", "FiniteMatrixGroup", "NotAMember",
        "NotSymplectic", "OrderBoundExceeded", "SingularGenerator",
        "SubgroupHandle", "conjugacy_classes", "element_order",
        "generated_subgroup", "is_normal", "powers",
    ),
    "reflections": (
        "VERDICT_HOLDS", "VERDICT_OBSTRUCTED", "ReflectionCensus", "Verdict",
        "census", "complex_reflections_generate", "double", "doubled_element",
        "reflection_subgroup", "verdict", "z_locus_min_codim",
    ),
    "stratification": (
        "FiberDataError", "MissingFiberData", "SemismallReport",
        "StratificationLattice", "Stratum", "Subspace", "build_lattice",
        "parse_fiber_data", "semismall_check",
    ),
    "spectrum": ("ToleranceViolation", "pfaffian", "symplectic_eigenvalues"),
    "catalog": (
        "CATALOG", "CatalogEntry", "ParameterOutOfRange", "build_entry",
        "build_imprimitive", "build_imprimitive_doubled", "build_negation",
        "build_sl2_subgroup", "build_symmetric_on_squares", "build_weyl",
        "build_weyl_doubled", "entry_names", "get_entry",
    ),
    "specio": (
        "AnalysisReport", "GroupSpecDocument", "ParseError", "ValidationError",
        "analyze", "make_group", "parse_group_spec", "report_to_json",
        "report_to_text", "serialize_group_spec", "spec_from_group",
    ),
    "jsonin": (),
}

# name -> home submodule
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it on the package
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def _deferred(name):
    """The public function `name`, looked up in its home module at each
    call, so that the module loads on first use and a replacement set
    there is the one called."""
    home = "." + _HOME[name]  # a misspelt name fails at import

    def call(*args, **kwargs):
        return getattr(importlib.import_module(home, __name__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


def __dir__():
    return sorted({*globals(), *__all__})
