"""JSON interchange: group specifications and analysis reports.

A group specification is a JSON object

    {
      "name": "...",
      "dimension": 4,
      "conductor": 12,
      "symplectic_form": "standard" | [[...]] | null,
      "generators": [ [[...]], ... ]
    }

where matrix entries are exact scalars: an integer, a rational string
"p/q", or a cyclotomic object {"conductor": m, "coeffs": [...]} whose
conductor divides the document conductor (defaulting to it).  Floats
are rejected; this file format carries exact data only.

The parser resolves "standard" to `standard_symplectic_form(dimension,
conductor)`, so a parsed document's form is a matrix or None; the
serializer alone writes "standard" back, for a form equal to that one.

Reports are emitted with a fixed key order so that equal analyses are
byte-identical.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

from . import _deferred
from .cyclotomic import BadInput, CyclotomicNumber, _exact, euler_phi
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteMatrixGroup,
    conjugacy_classes,
)
from .jsonin import load_json, quote, refuse_unknown_keys
from .linalg import BadForm, ExactMatrix, check_form, standard_symplectic_form
from .reflections import (
    census,
    reflection_subgroup,
    verdict,
    z_locus_min_codim,
)


# Bounds checked before anything is built: the largest catalog group
# has dimension 10, conductor 20 and 4 generators.  An identity matrix
# alone holds dimension^2 entries of phi(conductor) coefficients each,
# and every generator is parsed and rank-checked before closure drops
# repeats; an irredundant generating set of a group of order at most
# DEFAULT_MAX_ORDER has at most log2(DEFAULT_MAX_ORDER) < 17 elements.
MAX_DIMENSION = 32
MAX_CONDUCTOR = 400
MAX_GENERATORS = 32


class ParseError(BadInput):
    """The document is not JSON."""


class ValidationError(BadInput):
    """The document is JSON but not a valid group specification."""


# matched whole (fullmatch) and in ASCII digits only: "\d" takes any Unicode
# digit, which Fraction reads, and "$" passes a trailing newline
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


class GroupSpecDocument(NamedTuple):
    name: str
    dimension: int
    conductor: int
    symplectic_form: ExactMatrix | None  # "standard" resolved by the parser
    generators: tuple[ExactMatrix, ...]


def _fail(path, message):
    raise ValidationError("%s: %s" % (path, message))


def _parse_rational(value, path):
    """A JSON scalar as an int when integral, else as a Fraction."""
    if isinstance(value, bool):
        _fail(path, "booleans are not scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        _fail(path, "floats are not exact; use a rational string")
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            _fail(path, "malformed rational %s" % quote(value))
        try:
            return _exact(value)
        except ValueError:  # over Python's limit on integer digits
            _fail(path, "rational of %d characters is too long" % len(value))
    _fail(path, "expected a rational, got %s" % type(value).__name__)


def _parse_scalar(value, conductor, path, scalars) -> CyclotomicNumber:
    """An exact scalar at the document conductor.  An int or string
    scalar is parsed once per document: scalars maps each one already
    parsed to its number, which every repeat shares.  A bool is no int
    here, so true never aliases 1, and a value that fails is not stored."""
    if type(value) in (int, str):
        number = scalars.get(value)
        if number is None:
            number = scalars[value] = CyclotomicNumber.rational(
                _parse_rational(value, path), conductor
            )
        return number
    if isinstance(value, dict):
        refuse_unknown_keys(
            value, ("conductor", "coeffs"), ValidationError, path + ": "
        )
        sub = value.get("conductor", conductor)
        if not isinstance(sub, int) or isinstance(sub, bool) or sub < 1:
            _fail(path + ".conductor", "must be a positive integer")
        if conductor % sub != 0:
            _fail(
                path + ".conductor",
                "%d does not divide the document conductor %d"
                % (sub, conductor),
            )
        coeffs = value.get("coeffs")
        if not isinstance(coeffs, list):
            _fail(path + ".coeffs", "must be a list")
        if len(coeffs) != euler_phi(sub):
            _fail(
                path + ".coeffs",
                "conductor %d needs %d coefficients, got %d"
                % (sub, euler_phi(sub), len(coeffs)),
            )
        parsed = [
            _parse_rational(c, "%s.coeffs[%d]" % (path, i))
            for i, c in enumerate(coeffs)
        ]
        return CyclotomicNumber(sub, parsed).promote(conductor)
    return CyclotomicNumber.rational(
        _parse_rational(value, path), conductor
    )


def _parse_matrix(value, dimension, conductor, path, scalars) -> ExactMatrix:
    if not isinstance(value, list) or len(value) != dimension:
        _fail(path, "expected a list of %d rows" % dimension)
    entries = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dimension:
            _fail("%s[%d]" % (path, i), "expected %d entries" % dimension)
        entries += [
            _parse_scalar(cell, conductor, "%s[%d][%d]" % (path, i, j), scalars)
            for j, cell in enumerate(row)
        ]
    # every entry is already at the document conductor
    return ExactMatrix(dimension, dimension, conductor, entries)


def parse_group_spec(document) -> GroupSpecDocument:
    """Parse and validate a group specification document."""
    if isinstance(document, (str, bytes)):
        document = load_json(document, ParseError)
    if not isinstance(document, dict):
        raise ValidationError("top level must be a JSON object")
    refuse_unknown_keys(
        document,
        ("name", "dimension", "conductor", "symplectic_form", "generators"),
        ValidationError,
    )

    name = document.get("name")
    if not isinstance(name, str):
        _fail("name", "required and must be a string")
    dimension = document.get("dimension")
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        _fail("dimension", "required and must be a positive integer")
    if dimension > MAX_DIMENSION:
        _fail("dimension", "%d is over the maximum %d" % (dimension, MAX_DIMENSION))
    conductor = document.get("conductor", 1)
    if not isinstance(conductor, int) or isinstance(conductor, bool) or conductor < 1:
        _fail("conductor", "must be a positive integer")
    if conductor > MAX_CONDUCTOR:
        _fail("conductor", "%d is over the maximum %d" % (conductor, MAX_CONDUCTOR))

    raw_gens = document.get("generators")
    if not isinstance(raw_gens, list):
        _fail("generators", "required and must be a list of matrices")
    if len(raw_gens) > MAX_GENERATORS:
        _fail(
            "generators",
            "%d is over the maximum %d" % (len(raw_gens), MAX_GENERATORS),
        )

    scalars = {}  # shared by every matrix of the document
    form = document.get("symplectic_form")
    if form == "standard":
        if dimension % 2:
            _fail("symplectic_form", "standard form needs even dimension")
        form = standard_symplectic_form(dimension, conductor)
    elif form is not None:
        form = _parse_matrix(form, dimension, conductor, "symplectic_form", scalars)
        try:
            check_form(form)
        except BadForm as exc:
            _fail("symplectic_form", str(exc))

    generators = tuple(
        _parse_matrix(g, dimension, conductor, "generators[%d]" % i, scalars)
        for i, g in enumerate(raw_gens)
    )
    return GroupSpecDocument(
        name=name,
        dimension=dimension,
        conductor=conductor,
        symplectic_form=form,
        generators=generators,
    )


def _scalar_to_json(value: CyclotomicNumber):
    rational = value.rational_value()
    if rational is not None:
        return str(rational)
    return {"conductor": value.conductor, "coeffs": [str(c) for c in value.coeffs]}


def _matrix_to_json(mat: ExactMatrix):
    return [
        [_scalar_to_json(mat.entry(i, j)) for j in range(mat.cols)]
        for i in range(mat.rows)
    ]


def serialize_group_spec(doc: GroupSpecDocument) -> str:
    form = doc.symplectic_form
    if form is not None:
        standard = form == standard_symplectic_form(doc.dimension, doc.conductor)
        form = "standard" if standard else _matrix_to_json(form)
    payload = {
        "name": doc.name,
        "dimension": doc.dimension,
        "conductor": doc.conductor,
        "symplectic_form": form,
        "generators": [_matrix_to_json(g) for g in doc.generators],
    }
    return json.dumps(payload, indent=2) + "\n"


def spec_from_group(name: str, group: FiniteMatrixGroup) -> GroupSpecDocument:
    return GroupSpecDocument(
        name=name,
        dimension=group.dimension,
        conductor=group.conductor,
        symplectic_form=group.omega,
        generators=group.generators,
    )


def make_group(
    doc: GroupSpecDocument, max_order: int = DEFAULT_MAX_ORDER
) -> FiniteMatrixGroup:
    """Enumerate the group a specification describes."""
    return FiniteMatrixGroup.closure(
        doc.dimension, doc.conductor, doc.symplectic_form, doc.generators, max_order
    )


class AnalysisReport(NamedTuple):
    group_order: int
    reflection_count: int
    reflection_conjugacy_class_count: int
    g0_order: int
    g0_index: int
    verdict: str
    dim2_duval_note: str | None
    z_min_codim: int
    strata: tuple | None  # per-orbit dicts, or None when not requested


# only an analysis with strata loads `stratification`
build_lattice = _deferred("build_lattice")


def analyze(group: FiniteMatrixGroup, with_strata: bool = False) -> AnalysisReport:
    """Run the full reflection analysis on an enumerated group."""
    cen = census(group)
    reflections = set(cen.symplectic_reflections)
    classes = conjugacy_classes(group)
    class_count = sum(1 for c in classes if c[0] in reflections)
    sub = reflection_subgroup(group)
    v = verdict(group, sub)
    strata = None
    if with_strata:
        lattice = build_lattice(group)
        strata = tuple(
            {
                "codim": lattice.strata[orbit[0]].codim,
                "stabilizer_order": lattice.strata[orbit[0]].stabilizer_order,
                "orbit_size": len(orbit),
            }
            for orbit in lattice.orbits
        )
    return AnalysisReport(
        group_order=group.order,
        reflection_count=len(reflections),
        reflection_conjugacy_class_count=class_count,
        g0_order=sub.order,
        g0_index=v.reflection_subgroup_index,
        verdict=v.kind,
        dim2_duval_note=v.duval_note,
        z_min_codim=z_locus_min_codim(sub),
        strata=strata,
    )


def report_to_json(report: AnalysisReport) -> str:
    # the field order is the key order
    return json.dumps(report._asdict(), indent=2) + "\n"


def report_to_text(report: AnalysisReport) -> str:
    lines = [
        "group order:                  %d" % report.group_order,
        "symplectic reflections:       %d" % report.reflection_count,
        "reflection conjugacy classes: %d" % report.reflection_conjugacy_class_count,
        "reflection subgroup order:    %d (index %d)"
        % (report.g0_order, report.g0_index),
        "verdict:                      %s" % report.verdict,
        "min codim off the reflection subgroup: %d" % report.z_min_codim,
    ]
    if report.dim2_duval_note:
        lines.append("note: %s" % report.dim2_duval_note)
    if report.strata is not None:
        lines.append("strata orbits (codim, stabilizer order, orbit size):")
        for s in report.strata:
            lines.append(
                "  codim %d, stabilizer %d, orbit %d"
                % (s["codim"], s["stabilizer_order"], s["orbit_size"])
            )
    return "\n".join(lines) + "\n"
