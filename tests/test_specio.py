import json
import tracemalloc
from fractions import Fraction

import pytest

from sympref.cyclotomic import CyclotomicNumber
from sympref.linalg import ExactMatrix, pairing_form, standard_symplectic_form
from sympref.reflections import VERDICT_HOLDS, VERDICT_OBSTRUCTED, double
from sympref.groups import FiniteMatrixGroup
from sympref.specio import (
    MAX_CONDUCTOR,
    MAX_DIMENSION,
    MAX_GENERATORS,
    AnalysisReport,
    ParseError,
    ValidationError,
    _parse_rational,
    analyze,
    make_group,
    parse_group_spec,
    report_to_json,
    report_to_text,
    serialize_group_spec,
    spec_from_group,
)

Cyc = CyclotomicNumber


def quaternion_spec_dict():
    return {
        "name": "quaternions",
        "dimension": 2,
        "conductor": 4,
        "symplectic_form": "standard",
        "generators": [
            [
                [{"conductor": 4, "coeffs": ["0", "1"]}, "0"],
                ["0", {"coeffs": ["0", "-1"]}],
            ],
            [["0", "1"], ["-1", "0"]],
        ],
    }


def negation_spec_dict():
    return {
        "name": "negation",
        "dimension": 4,
        "conductor": 1,
        "symplectic_form": "standard",
        "generators": [
            [["-1", "0", "0", "0"],
             ["0", "-1", "0", "0"],
             ["0", "0", "-1", "0"],
             ["0", "0", "0", "-1"]],
        ],
    }


def test_parse_scalars_in_all_forms():
    doc = parse_group_spec(
        {
            "name": "scalars",
            "dimension": 2,
            "conductor": 12,
            "symplectic_form": None,
            "generators": [
                [
                    [1, "1/2"],
                    ["-3", {"conductor": 4, "coeffs": ["0", "1"]}],
                ]
            ],
        }
    )
    g = doc.generators[0]
    assert g.conductor == 12
    assert g.entry(0, 0) == 1
    assert g.entry(0, 1).rational_value() == pytest.approx(0.5)
    assert g.entry(1, 0) == -3
    assert g.entry(1, 1) == Cyc.zeta(4)


@pytest.mark.parametrize(
    "value, parsed",
    [(3, 3), (-12, -12), ("7", 7), ("-6/2", -3), ("+0/5", 0),
     ("1/2", Fraction(1, 2)), ("-4/6", Fraction(-2, 3))],
)
def test_integral_scalars_parse_to_ints(value, parsed):
    result = _parse_rational(value, "x")
    assert result == parsed
    assert type(result) is (int if type(parsed) is int else Fraction)
    entry = parse_group_spec({
        "name": "s", "dimension": 2, "symplectic_form": None,
        "generators": [[[value, 0], [0, 1]]],
    }).generators[0].entry(0, 0)
    assert entry.coeffs == (parsed,) and type(entry.coeffs[0]) is type(result)


def test_parse_and_closure_of_quaternion_spec():
    doc = parse_group_spec(json.dumps(quaternion_spec_dict()))
    group = make_group(doc)
    assert group.order == 8
    assert group.omega == standard_symplectic_form(2, 4)


def test_round_trip_preserves_the_document():
    doc = parse_group_spec(json.dumps(quaternion_spec_dict()))
    text = serialize_group_spec(doc)
    again = parse_group_spec(text)
    assert again == doc
    assert serialize_group_spec(again) == text


def test_round_trip_of_explicit_form_and_cyclotomic_entries():
    group = double(
        FiniteMatrixGroup.closure(
            2, 3, None,
            [ExactMatrix.from_rows([[Cyc.zeta(3), 0], [0, 1]], 3)],
        )
    )
    doc = spec_from_group("cyclic_doubled", group)
    assert isinstance(doc.symplectic_form, ExactMatrix)  # pairing, not standard
    text = serialize_group_spec(doc)
    again = parse_group_spec(text)
    assert again == doc
    rebuilt = make_group(again)
    assert rebuilt.order == 3
    assert rebuilt.omega == pairing_form(2, 3)


def test_every_catalog_entry_round_trips_bit_exactly():
    from sympref.catalog import CATALOG

    for entry in CATALOG:
        doc = spec_from_group(entry.name, entry.build())
        text = serialize_group_spec(doc)
        again = parse_group_spec(text)
        assert again == doc, entry.name
        assert serialize_group_spec(again) == text, entry.name


def test_standard_form_round_trips_as_the_string():
    doc = parse_group_spec(json.dumps(negation_spec_dict()))
    assert doc.symplectic_form == standard_symplectic_form(4)
    assert json.loads(serialize_group_spec(doc))["symplectic_form"] == "standard"


def test_repeated_generators_at_the_bounds_allocate_little():
    # the largest dimension and conductor a spec may declare, with the
    # identity given as every one of the 32 generators: about 100 KB of
    # input and a trivial group, so parse and closure must stay small;
    # a hashable key per coefficient of each repeat would take 385 MB
    n = MAX_DIMENSION
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    text = json.dumps({
        "name": "repeated_identity",
        "dimension": n,
        "conductor": MAX_CONDUCTOR,
        "symplectic_form": "standard",
        "generators": [identity] * MAX_GENERATORS,
    })
    tracemalloc.start()
    try:
        group = make_group(parse_group_spec(text))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.order == 1
    assert peak < 100 * 2**20


def test_parse_error_on_bad_json():
    with pytest.raises(ParseError):
        parse_group_spec("{not json")


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("name"), "name"),
        (lambda d: d.update(dimension=0), "dimension"),
        (lambda d: d.update(dimension="2"), "dimension"),
        (lambda d: d.update(conductor=0), "conductor"),
        (lambda d: d.update(dimension=33), "dimension: 33 is over the maximum 32"),
        (lambda d: d.update(conductor=404), "conductor: 404 is over the maximum 400"),
        (lambda d: d.update(extra=1), "unknown"),
        # keys of two types, as a document built in Python can hold
        (lambda d: d.update({1: 0, "extra": 1}), "unknown keys [1, 'extra']"),
        (lambda d: d.pop("generators"), "generators"),
        (lambda d: d["generators"].append([[1, 0]]), "generators[2]"),
        (lambda d: d["generators"][0][0].append("0"), "generators[0][0]"),
        (lambda d: d["generators"][0][0].__setitem__(0, 1.5), "float"),
        (lambda d: d["generators"][0][0].__setitem__(0, "1.5"), "malformed"),
        (lambda d: d["generators"][0][0].__setitem__(0, True), "boolean"),
        (
            lambda d: d["generators"][0][0].__setitem__(
                0, {"conductor": 3, "coeffs": ["1", "0"]}
            ),
            "divide",
        ),
        (
            lambda d: d["generators"][0][0].__setitem__(
                0, {"conductor": 4, "coeffs": ["1"]}
            ),
            "coefficients",
        ),
        (
            lambda d: d["generators"][0][0].__setitem__(
                0, {"coeffs": ["1", "0"], "scale": 2}
            ),
            "unknown",
        ),
    ],
)
def test_validation_errors_carry_a_path(mutate, fragment):
    doc = quaternion_spec_dict()
    mutate(doc)
    with pytest.raises(ValidationError) as exc:
        parse_group_spec(doc)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "text",
    [
        # the last value would win: a group of dimension 4, not 2
        '{"dimension": 2, "dimension": 4}',
        '{"name": "a", "name": "b", "dimension": 2}',
        '{"generators": [[[{"coeffs": ["1", "0"], "coeffs": ["0", "1"]}, "0"]]]}',
    ],
    ids=["top-level", "name", "scalar-object"],
)
def test_a_repeated_key_is_refused_at_any_depth(text):
    with pytest.raises(ParseError) as exc:
        parse_group_spec(text)
    assert str(exc.value).startswith("key '")
    assert str(exc.value).endswith("' appears twice in one object")


def test_validation_of_forms():
    doc = negation_spec_dict()
    doc["dimension"] = 3
    doc["generators"] = [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]
    with pytest.raises(ValidationError):
        parse_group_spec(doc)  # standard form on odd dimension

    doc = negation_spec_dict()
    doc["symplectic_form"] = [["0"] * 4 for _ in range(4)]
    with pytest.raises(ValidationError):
        parse_group_spec(doc)  # degenerate form

    doc = negation_spec_dict()
    doc["symplectic_form"] = [
        ["0", "1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "0", "1"],
        ["0", "0", "-1", "0"],
    ]
    with pytest.raises(ValidationError):
        parse_group_spec(doc)  # not antisymmetric


def test_analyze_negation_report():
    group = make_group(parse_group_spec(json.dumps(negation_spec_dict())))
    report = analyze(group)
    assert report == AnalysisReport(
        group_order=2,
        reflection_count=0,
        reflection_conjugacy_class_count=0,
        g0_order=1,
        g0_index=2,
        verdict=VERDICT_OBSTRUCTED,
        dim2_duval_note=None,
        z_min_codim=4,
        strata=None,
    )


def test_analyze_quaternion_report_with_strata():
    group = make_group(parse_group_spec(json.dumps(quaternion_spec_dict())))
    report = analyze(group, with_strata=True)
    assert report.group_order == 8
    assert report.reflection_count == 7
    # classes: -1, the pairs {i, -i}, {j, -j}, {k, -k}
    assert report.reflection_conjugacy_class_count == 4
    assert report.g0_index == 1
    assert report.verdict == VERDICT_HOLDS
    assert report.dim2_duval_note is not None
    assert report.z_min_codim == 3  # sentinel: dimension + 1
    assert report.strata == (
        {"codim": 0, "stabilizer_order": 1, "orbit_size": 1},
        {"codim": 2, "stabilizer_order": 8, "orbit_size": 1},
    )


def test_analyze_builds_the_lattice_stratification_holds_at_the_call(monkeypatch):
    # specio looks build_lattice up in stratification at each call, so a
    # replacement set there after an earlier call is the one called
    import sympref.stratification as stratification

    group = make_group(parse_group_spec(json.dumps(quaternion_spec_dict())))
    first = analyze(group, with_strata=True)
    built = []
    original = stratification.build_lattice

    def recording(g):
        built.append(g)
        return original(g)

    monkeypatch.setattr(stratification, "build_lattice", recording)
    assert analyze(group, with_strata=True) == first
    assert built == [group]


def test_report_json_key_order_is_fixed():
    group = make_group(parse_group_spec(json.dumps(negation_spec_dict())))
    text = report_to_json(analyze(group))
    keys = list(json.loads(text))
    assert keys == [
        "group_order",
        "reflection_count",
        "reflection_conjugacy_class_count",
        "g0_order",
        "g0_index",
        "verdict",
        "dim2_duval_note",
        "z_min_codim",
        "strata",
    ]


def test_text_report_mentions_the_verdict():
    group = make_group(parse_group_spec(json.dumps(negation_spec_dict())))
    text = report_to_text(analyze(group))
    assert VERDICT_OBSTRUCTED in text
    assert "group order" in text
