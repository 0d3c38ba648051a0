"""Exact reflection analysis of finite symplectic matrix groups.

The core question: given a finite group of exact matrices preserving a
symplectic form, is it generated by its symplectic reflections?  When
it is not, the symplectic quotient admits no symplectic resolution.
Everything group-theoretic here is exact, over cyclotomic fields; only
the 2-form spectrum module works in floating point.
"""

from .cyclotomic import (
    ConductorMismatch,
    CyclotomicNumber,
    DivisionByZero,
    InvariantViolation,
    NotASubfield,
    cyclotomic_polynomial,
    euler_phi,
)
from .linalg import (
    BadForm,
    DimensionMismatch,
    ExactMatrix,
    SingularMatrix,
    Subspace,
    check_form,
    fixed_space,
    form_restriction_nondegenerate,
    is_symplectic,
    pairing_form,
    standard_symplectic_form,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteMatrixGroup,
    NotAMember,
    NotSymplectic,
    OrderBoundExceeded,
    SingularGenerator,
    SubgroupHandle,
    conjugacy_classes,
    element_order,
    generated_subgroup,
    is_normal,
    powers,
)
from .reflections import (
    VERDICT_HOLDS,
    VERDICT_OBSTRUCTED,
    ReflectionCensus,
    Verdict,
    census,
    complex_reflections_generate,
    double,
    doubled_element,
    reflection_subgroup,
    verdict,
    z_locus_min_codim,
)
from .stratification import (
    FiberDataError,
    MissingFiberData,
    SemismallReport,
    StratificationLattice,
    Stratum,
    build_lattice,
    parse_fiber_data,
    semismall_check,
)
from .spectrum import (
    BadInput,
    ToleranceViolation,
    pfaffian,
    symplectic_eigenvalues,
)
from .catalog import (
    CATALOG,
    CatalogEntry,
    ParameterOutOfRange,
    build_entry,
    build_imprimitive,
    build_imprimitive_doubled,
    build_negation,
    build_sl2_subgroup,
    build_symmetric_on_squares,
    build_weyl,
    build_weyl_doubled,
    entry_names,
    get_entry,
)
from .specio import (
    AnalysisReport,
    GroupSpecDocument,
    ParseError,
    ValidationError,
    analyze,
    make_group,
    parse_group_spec,
    report_to_json,
    report_to_text,
    serialize_group_spec,
    spec_from_group,
)

__all__ = [name for name in dir() if not name.startswith("_")]
