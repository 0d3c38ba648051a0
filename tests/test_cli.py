import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from sympref.cli import main
from sympref.groups import FiniteMatrixGroup
from sympref.linalg import ExactMatrix, pairing_form
from sympref.reflections import VERDICT_HOLDS, VERDICT_OBSTRUCTED
from sympref.specio import ValidationError, make_group, parse_group_spec

BLOCK_SWAP = {
    "name": "block_swap",
    "dimension": 4,
    "conductor": 1,
    "symplectic_form": "standard",
    "generators": [
        [["0", "0", "1", "0"],
         ["0", "0", "0", "1"],
         ["1", "0", "0", "0"],
         ["0", "1", "0", "0"]],
    ],
}

NEGATION = {
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

SHEAR = {
    "name": "shear",
    "dimension": 2,
    "conductor": 1,
    "symplectic_form": "standard",
    "generators": [[["1", "1"], ["0", "1"]]],
}

PERM3 = {
    "name": "perm3",
    "dimension": 3,
    "conductor": 1,
    "symplectic_form": None,
    "generators": [
        [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]],
        [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
    ],
}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze_text_holds(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", BLOCK_SWAP)
    assert main(["analyze", spec]) == 0
    out = capsys.readouterr().out
    assert VERDICT_HOLDS in out
    assert "group order" in out


def test_analyze_json_obstructed(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", NEGATION)
    assert main(["analyze", "--json", spec]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == VERDICT_OBSTRUCTED
    assert report["group_order"] == 2
    assert report["g0_order"] == 1
    assert report["z_min_codim"] == 4


def test_analyze_strata_flag(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", BLOCK_SWAP)
    assert main(["analyze", "--json", "--strata", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["strata"] == [
        {"codim": 0, "stabilizer_order": 1, "orbit_size": 1},
        {"codim": 2, "stabilizer_order": 2, "orbit_size": 1},
    ]


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["analyze", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "semismall", "double", "spectrum"])
def test_undecodable_file_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe{}")
    argv = [command, str(path)] + ([str(path)] if command == "semismall" else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


HUGE = "1" * 5000  # over Python's 4300-digit limit on integer strings
LONG = "1" * 400  # under that limit, but past the float range
DEEP = "[" * 100000 + "]" * 100000  # past the recursion limit
KEY = "k" * 5000  # quoted as its first 19 characters after the quote mark
SHOWN = "'" + "k" * 19 + "..."


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("analyze", '{"name": "x", "dimension": %s}' % HUGE, "invalid JSON: "),
        (
            "analyze",
            json.dumps({**SHEAR, "generators": [[[HUGE + "/3", "0"], ["0", "1"]]]}),
            "generators[0][0][0]: rational of 5002 characters is too long",
        ),
        ("analyze", DEEP, "invalid JSON: "),
        ("semismall", DEEP, "invalid JSON: "),
        ("semismall", '{"fibers": {"0": %s}}' % HUGE, "invalid JSON: "),
        ("semismall", '{"fibers": {"0": -%s}}' % HUGE, "invalid JSON: "),
        ("semismall", json.dumps({"fibers": {HUGE: 0}}), "stratum index '11"),
        ("spectrum", DEEP, "invalid JSON: "),
        ("spectrum", '{"theta": [[%s]]}' % HUGE, "invalid JSON: "),
        (
            "spectrum",
            '{"theta": [[0, %s], [-%s, 0]]}' % (LONG, LONG),
            "theta: int too large to convert to float\n",
        ),
        (
            "spectrum",
            '{"theta": [[0, 1], [-1, 0]], "metric": [[%s, 0], [0, 1]]}' % LONG,
            "metric: int too large to convert to float\n",
        ),
        (
            "semismall",
            '{"fibers": {"%s": 0, "%s": 1}}' % (KEY, KEY),
            "key %s appears twice in one object\n" % SHOWN,
        ),
        ("analyze", json.dumps({**SHEAR, KEY: 1}), "unknown keys [%s]\n" % SHOWN),
        (
            "analyze",
            json.dumps(
                {**SHEAR, "generators": [[[{"coeffs": ["1"], KEY: 0}, "0"], ["0", "1"]]]}
            ),
            "generators[0][0][0]: unknown keys [%s]\n" % SHOWN,
        ),
        (
            "analyze",
            json.dumps({**SHEAR, "generators": [[[KEY, "0"], ["0", "1"]]]}),
            "generators[0][0][0]: malformed rational %s\n" % SHOWN,
        ),
        (
            "analyze",
            '{"%s": 1, "%s": 2}' % (KEY, KEY),
            "key %s appears twice in one object\n" % SHOWN,
        ),
        (
            "analyze",
            json.dumps({**SHEAR, **{"x%03d" % i: 0 for i in range(300)}}),
            "unknown keys ['x000', 'x001', 'x002', 'x003', ...]\n",
        ),
        (
            "semismall",
            json.dumps({"fibers": {"0": 0, "1": 1}, KEY: 0}),
            "unknown keys [%s]\n" % SHOWN,
        ),
        (
            "spectrum",
            '{"theta": [[0, 1], [-1, 0]], "%s": 0, "%s": 1}' % (KEY, KEY),
            "key %s appears twice in one object\n" % SHOWN,
        ),
        (
            "spectrum",
            json.dumps({"theta": [[0, 1], [-1, 0]], KEY: 0}),
            "unknown keys [%s]\n" % SHOWN,
        ),
        # each of these ran on the last or the default value without a word
        (
            "spectrum",
            '{"theta": [[0, 2], [-2, 0]], "metrc": [[4, 0], [0, 4]]}',
            "unknown keys ['metrc']\n",
        ),
        (
            "spectrum",
            '{"theta": [[0, 2], [-2, 0]], "metric": [[4, 0], [0, 4]], '
            '"metric": [[1, 0], [0, 1]]}',
            "key 'metric' appears twice in one object\n",
        ),
        (
            "analyze",
            '{"name": "x", ' + json.dumps(SHEAR)[1:],
            "key 'name' appears twice in one object\n",
        ),
    ],
    ids=[
        "analyze-long-integer", "analyze-long-rational", "analyze-deep",
        "semismall-deep", "semismall-long-integer",
        "semismall-long-negative-integer", "semismall-long-key",
        "spectrum-deep", "spectrum-long-integer",
        "spectrum-theta-past-float", "spectrum-metric-past-float",
        "semismall-repeated-long-key", "analyze-unknown-long-key",
        "analyze-scalar-unknown-long-key", "analyze-long-malformed-rational",
        "analyze-repeated-long-key", "analyze-many-unknown-keys",
        "semismall-unknown-long-key", "spectrum-repeated-long-key",
        "spectrum-unknown-long-key", "spectrum-unknown-key",
        "spectrum-repeated-key", "analyze-repeated-key",
    ],
)
def test_hostile_json_is_one_error_line(tmp_path, capsys, command, text, message):
    # for semismall the fiber file is the hostile one
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [command, str(path)]
    if command == "semismall":
        argv.insert(1, write_json(tmp_path, "spec.json", BLOCK_SWAP))
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: " + message)
    assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 200
    assert "sys.set_int_max_str_digits" not in err


def test_every_input_error_is_a_bad_input():
    # main() catches BadInput alone, so each module's input errors must
    # derive from it; bugs and the order bound must not
    import sympref
    from sympref import spectrum

    for cls in (
        sympref.ConductorMismatch, sympref.NotASubfield,
        sympref.DimensionMismatch, sympref.BadForm,
        sympref.SingularGenerator, sympref.NotSymplectic,
        sympref.ParseError, sympref.ValidationError,
        sympref.FiberDataError, sympref.MissingFiberData,
        sympref.ParameterOutOfRange, sympref.ToleranceViolation,
    ):
        assert issubclass(cls, sympref.BadInput), cls
        assert issubclass(cls, ValueError), cls
    assert issubclass(sympref.ToleranceViolation, ArithmeticError)
    for cls in (
        sympref.InvariantViolation, sympref.OrderBoundExceeded,
        sympref.NotAMember, sympref.SingularMatrix, sympref.DivisionByZero,
    ):
        assert not issubclass(cls, sympref.BadInput), cls
    assert spectrum.BadInput is sympref.BadInput


def test_analyze_order_bound(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", SHEAR)
    assert main(["analyze", "--max-order", "64", spec]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_infinite_group_is_one_error_line(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", SHEAR)
    assert main(["analyze", "--max-order", "1000", spec]) == 2
    assert capsys.readouterr() == (
        "",
        "error: the group is infinite: an element has trace 2, which "
        "equals the dimension, but the element is not the identity\n",
    )


GENERATOR_ERRORS = {
    # under a form no generator is ranked, and the first generator that
    # does not preserve it is reported
    "singular-after-non-symplectic": (
        "analyze", "standard", [[[2, 0], [0, 1]], [[1, 0], [0, 0]]],
        "error: generator 0 does not preserve the symplectic form\n",
    ),
    "non-symplectic": (
        "analyze", "standard", [[[0, 1], [-1, 0]], [[2, 0], [0, 1]]],
        "error: generator 1 does not preserve the symplectic form\n",
    ),
    "singular-without-a-form": (
        "double", None, [[[0, 1], [1, 0]], [[1, 0], [0, 0]]],
        "error: generator 1 is singular\n",
    ),
}


@pytest.mark.parametrize("case", GENERATOR_ERRORS.values(), ids=GENERATOR_ERRORS)
def test_generator_errors_are_one_unchanged_line(tmp_path, capsys, case):
    command, form, generators, line = case
    spec = write_json(tmp_path, "spec.json", {
        "name": "x", "dimension": 2, "symplectic_form": form,
        "generators": generators,
    })
    assert main([command, spec]) == 1
    assert capsys.readouterr() == ("", line)


def test_an_explicit_form_is_ranked_once(tmp_path, capsys, monkeypatch):
    # the parser checks the form and closure checks it again; the second
    # check reuses the rank the first one kept
    eliminated = []
    rank = ExactMatrix.rank

    def counted(self):
        if getattr(self, "_rank", None) is None:
            eliminated.append(self)
        return rank(self)

    monkeypatch.setattr(ExactMatrix, "rank", counted)
    spec = write_json(tmp_path, "spec.json", {
        "name": "x", "dimension": 2, "symplectic_form": [[0, 1], [-1, 0]],
        "generators": [[[0, 1], [-1, 0]]],
    })
    assert main(["analyze", "--json", spec]) == 0
    assert json.loads(capsys.readouterr().out)["group_order"] == 4
    assert len(eliminated) == 1


@pytest.mark.parametrize("digits", [300, 2200])
def test_infinite_group_with_a_huge_trace_is_one_short_error_line(tmp_path, digits):
    # diag(a, 1/a) has trace a + 1/a; at 2200 digits its numerator is over
    # Python's limit on integer digits, so str() of it raises
    a = "3" * digits
    spec = write_json(tmp_path, "spec.json", {
        "name": "x", "dimension": 2, "symplectic_form": "standard",
        "generators": [[[a, 0], [0, "1/" + a]]],
    })
    proc = subprocess.run(
        [sys.executable, "-m", "sympref.cli", "analyze", spec],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: the group is infinite: ")
    assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 200


@pytest.mark.parametrize(
    "field, value, bound",
    [
        ("dimension", 3000, 32),
        ("conductor", 1000003, 400),
        ("conductor", 1000000000000000003, 400),
    ],
)
def test_oversized_spec_is_one_error_line(tmp_path, capsys, field, value, bound):
    doc = {"name": "big", "dimension": 2, "generators": []}
    doc[field] = value
    spec = write_json(tmp_path, "spec.json", doc)
    # parse first: without the bound, main would go on to build a
    # matrix of that size (or factor that conductor)
    with pytest.raises(ValidationError):
        parse_group_spec(doc)
    start = time.perf_counter()
    assert main(["analyze", spec]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "", "error: %s: %d is over the maximum %d\n" % (field, value, bound)
    )


@pytest.mark.parametrize("count", [33, 200])
def test_generator_count_is_one_error_line(tmp_path, capsys, count):
    identity = [["1" if i == j else "0" for j in range(32)] for i in range(32)]
    doc = {
        "name": "many", "dimension": 32, "symplectic_form": "standard",
        "generators": [identity] * count,
    }
    spec = write_json(tmp_path, "spec.json", doc)
    # the count is checked before any generator is parsed
    with pytest.raises(ValidationError):
        parse_group_spec(doc)
    start = time.perf_counter()
    assert main(["analyze", spec]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "", "error: generators: %d is over the maximum 32\n" % count
    )
    doc["generators"] = [identity] * 32
    assert len(parse_group_spec(doc).generators) == 32


def test_analyze_report_is_deterministic(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", BLOCK_SWAP)
    main(["analyze", "--json", "--strata", spec])
    first = capsys.readouterr().out
    main(["analyze", "--json", "--strata", spec])
    assert capsys.readouterr().out == first


def test_semismall_pass(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", BLOCK_SWAP)
    fibers = write_json(tmp_path, "fibers.json", {"fibers": {"0": 0, "1": 1}})
    assert main(["semismall", spec, fibers]) == 0
    out = capsys.readouterr().out
    assert "semismall: yes" in out
    assert out.count("stratum") == 2


def test_semismall_fail(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", BLOCK_SWAP)
    fibers = write_json(tmp_path, "fibers.json", {"fibers": {"0": 0, "1": 2}})
    assert main(["semismall", spec, fibers]) == 3
    out = capsys.readouterr().out
    assert "semismall: no" in out
    assert "FAIL" in out


def test_semismall_missing_stratum(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", BLOCK_SWAP)
    fibers = write_json(tmp_path, "fibers.json", {"fibers": {"0": 0}})
    assert main(["semismall", spec, fibers]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fibers, message",
    [
        (
            '{"fibers": {"0": 0, "1": 1, "01": 5, "7": 3}}',
            "stratum index '01' is not written in plain decimal",
        ),
        (
            '{"fibers": {"0": 0, "1": 1, "7": 3}}',
            "no stratum 7: the lattice has 2 strata",
        ),
        (
            '{"fibers": {"0": 0, "1": 1, "1": 5}}',
            "key '1' appears twice in one object",
        ),
        (
            '{"fibers": {"0": 0, "1": 1}, "fibres": {"1": 5}}',
            "unknown keys ['fibres']",
        ),
    ],
)
def test_semismall_rejects_fibers_it_would_misread(
    tmp_path, capsys, fibers, message
):
    spec = write_json(tmp_path, "spec.json", BLOCK_SWAP)
    path = tmp_path / "fibers.json"
    path.write_text(fibers)
    assert main(["semismall", spec, str(path)]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_semismall_reads_fibers_before_building_the_lattice(
    tmp_path, capsys, monkeypatch
):
    def no_lattice(group):
        raise AssertionError("the lattice was built before the fibers were read")

    monkeypatch.setattr("sympref.cli.build_lattice", no_lattice)
    spec = write_json(tmp_path, "spec.json", BLOCK_SWAP)
    path = tmp_path / "fibers.json"
    path.write_text('{"fibers": {"00": 0}}')
    assert main(["semismall", spec, str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: stratum index '00' is not written in plain decimal\n"
    )


# the names the command line and specio call through sympref._deferred
DEFERRED = {
    "cli": [
        "parse_group_spec", "report_to_json", "report_to_text",
        "serialize_group_spec", "double", "build_lattice", "get_entry",
        "symplectic_eigenvalues",
    ],
    "specio": ["build_lattice"],
}


def test_deferred_names_keep_their_public_names():
    import importlib

    import sympref

    for module, names in DEFERRED.items():
        home = importlib.import_module("sympref." + module)
        assert [getattr(home, n).__name__ for n in names] == names
    with pytest.raises(KeyError):
        sympref._deferred("no_such_name")


def test_analyze_renders_with_the_function_specio_holds_at_the_call(
    tmp_path, capsys, monkeypatch
):
    # the command line looks report_to_text up in specio at each call,
    # so a replacement set there after an earlier call is the one called
    spec = write_json(tmp_path, "spec.json", BLOCK_SWAP)
    assert main(["analyze", spec]) == 0
    assert "group order" in capsys.readouterr().out
    monkeypatch.setattr(
        "sympref.specio.report_to_text",
        lambda report: "order %d\n" % report.group_order,
    )
    assert main(["analyze", spec]) == 0
    assert capsys.readouterr() == ("order 2\n", "")


def test_double_writes_a_loadable_spec(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", PERM3)
    out_path = tmp_path / "doubled.json"
    assert main(["double", spec, "-o", str(out_path)]) == 0
    doc = parse_group_spec(out_path.read_text())
    assert doc.name == "perm3_doubled"
    assert doc.dimension == 6
    group = make_group(doc)
    assert group.order == 6
    assert group.omega == pairing_form(3, 1)


def swap_spec(dimension):
    # the linear action of the transposition of the first two coordinates
    rows = [["1" if i == j else "0" for j in range(dimension)] for i in range(dimension)]
    rows[0], rows[1] = rows[1], rows[0]
    return {"name": "swap", "dimension": dimension, "conductor": 1,
            "symplectic_form": None, "generators": [rows]}


def test_double_writes_a_spec_at_the_largest_dimension(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", swap_spec(16))
    out_path = tmp_path / "doubled.json"
    assert main(["double", spec, "-o", str(out_path)]) == 0
    doc = parse_group_spec(out_path.read_text())
    assert doc.dimension == 32
    assert make_group(doc).order == 2


def test_double_refuses_a_spec_it_could_not_read_back(tmp_path, capsys, monkeypatch):
    # 2 * 17 is over the parser's maximum dimension of 32: the spec is
    # refused before any group is closed, and no file is written
    def no_closure(*args, **kwargs):
        raise AssertionError("closure ran")

    monkeypatch.setattr(FiniteMatrixGroup, "closure", no_closure)
    spec = write_json(tmp_path, "spec.json", swap_spec(17))
    out_path = tmp_path / "doubled.json"
    assert main(["double", spec, "-o", str(out_path)]) == 1
    assert capsys.readouterr() == (
        "", "error: doubling dimension 17 gives 34, over the maximum 32\n"
    )
    assert not out_path.exists()


def test_analyze_refuses_a_spec_without_a_form(tmp_path, capsys):
    # the verdict is about groups preserving a symplectic form
    spec = write_json(tmp_path, "spec.json", PERM3)
    proc = subprocess.run(
        [sys.executable, "-m", "sympref.cli", "analyze", "--strata", spec],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: analysis needs a symplectic form to preserve; add one to the "
        "input document, or double the linear action first\n"
    )
    # the other commands still take a linear action: S3 permuting C^3
    # has strata C^3, three planes and the line x = y = z
    fibers = write_json(
        tmp_path, "fibers.json", {"fibers": {"0": 0, "1": 0, "2": 0, "3": 0, "4": 1}}
    )
    assert main(["semismall", spec, fibers]) == 0
    assert capsys.readouterr().out.endswith("stratum 4: codim 2, fiber 1 -> ok\nsemismall: yes\n")
    doubled = tmp_path / "doubled.json"
    assert main(["double", spec, "-o", str(doubled)]) == 0
    assert main(["analyze", str(doubled)]) == 0


def test_double_rejects_a_spec_with_a_form(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", BLOCK_SWAP)
    assert main(["double", spec]) == 1
    assert "remove the" in capsys.readouterr().err


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "sl2_binary_icosahedral" in out
    assert "negation_c4" in out
    assert len(out.strip().splitlines()) == 25


def test_catalog_emit_round_trips(tmp_path, capsys):
    assert main(["catalog", "emit", "negation_c4"]) == 0
    doc = parse_group_spec(capsys.readouterr().out)
    assert doc.name == "negation_c4"
    assert make_group(doc).order == 2

    out_path = tmp_path / "spec.json"
    assert main(["catalog", "emit", "symmetric_n3", "-o", str(out_path)]) == 0
    group = make_group(parse_group_spec(out_path.read_text()))
    assert group.order == 6


def test_catalog_emit_unknown_name(capsys):
    assert main(["catalog", "emit", "no_such_group"]) == 1
    assert "error" in capsys.readouterr().err


BLOCK_THETA = {"theta": [[0, 2], [-2, 0]]}
METRIC_THETA = {"theta": [[0, 1], [-1, 0]], "metric": [[4, 0], [0, 4]]}
_a = np.random.default_rng(53).standard_normal((8, 8))
RANDOM_THETA = {"theta": (_a - _a.T).tolist()}


def test_spectrum_block_form(tmp_path, capsys):
    path = write_json(tmp_path, "theta.json", BLOCK_THETA)
    assert main(["spectrum", path]) == 0
    assert capsys.readouterr().out == "2\n"


def test_spectrum_with_metric(tmp_path, capsys):
    path = write_json(tmp_path, "theta.json", METRIC_THETA)
    assert main(["spectrum", path]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.25)


def test_spectrum_leaves_the_environment_alone(tmp_path):
    # a fresh process, in which nothing has loaded numpy, without
    # OPENBLAS_NUM_THREADS: the command used to set it there
    path = write_json(tmp_path, "theta.json", METRIC_THETA)
    code = (
        "import os, sys\n"
        "from sympref.cli import main\n"
        "before = dict(os.environ)\n"
        "code = main(['spectrum', sys.argv[1]])\n"
        "print(code, dict(os.environ) == before)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code, path], capture_output=True, text=True, env=env,
    )
    assert proc.stdout.splitlines() == ["0.25", "0 True"], proc.stderr


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"theta": [[0] * 34] * 34}, "theta: dimension 34 is over the maximum 32"),
        (
            {"theta": [[0, 1], [-1, 0]], "metric": [["x"] * 34] * 34},
            "metric: dimension 34 is over the maximum 32",
        ),
    ],
    ids=["theta", "metric"],
)
def test_spectrum_refuses_a_matrix_over_the_dimension_bound(tmp_path, capsys, payload, message):
    # before any entry is read: the metric's strings are not reported
    path = write_json(tmp_path, "theta.json", payload)
    assert main(["spectrum", path]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


@pytest.mark.parametrize(
    "payload",
    [
        {"theta": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]},  # odd dimension
        {"theta": [[0, 1], [1, 0]]},  # not antisymmetric
        {"metric": [[1, 0], [0, 1]]},  # missing theta
        [[0, 1], [-1, 0]],  # not an object
        {"theta": [["0", "2j"], ["-2j", "0"]]},  # strings numpy would parse
        {"theta": [[0, 1], [-1, 0]], "metric": [[True, False], [False, True]]},
    ],
)
def test_spectrum_bad_input(tmp_path, capsys, payload):
    path = write_json(tmp_path, "theta.json", payload)
    assert main(["spectrum", path]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"theta": [[0, NaN], [NaN, 0]]}', "theta[0][1] is nan"),
        ('{"theta": [[0, Infinity], [-Infinity, 0]]}', "theta[0][1] is inf"),
        (
            '{"theta": [[0, 1], [-1, 0]], "metric": [[1, 0], [0, -Infinity]]}',
            "metric[1][1] is -inf",
        ),
        (
            # finite entries, but theta overflows in the metric's frame
            '{"theta": [[0, 1e308], [-1e308, 0]], '
            '"metric": [[1e-308, 0], [0, 1e-308]]}',
            "theta in the metric's frame[0][0] is (nan+nanj)",
        ),
        (
            # finite entries, but singular values past the float range
            '{"theta": [[0, 1e308, 1e308, 1e308], [-1e308, 0, 1e308, 1e308], '
            '[-1e308, -1e308, 0, 1e308], [-1e308, -1e308, -1e308, 0]]}',
            "a singular value of theta is inf",
        ),
    ],
)
def test_spectrum_rejects_non_finite_entries(tmp_path, text, message):
    path = tmp_path / "theta.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "sympref.cli", "spectrum", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    # the message alone: no warning ahead of it
    assert proc.stderr == "error: %s, not finite\n" % message


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"theta": [[0, "2j"], ["-2j", 0]]}, "theta[0][1] is a str"),
        ({"theta": [[0, 1], [-1, 0]], "metric": [[1, False], [False, 1]]},
         "metric[0][1] is a bool"),
    ],
)
def test_spectrum_names_an_entry_that_is_not_a_number(tmp_path, capsys, payload, message):
    path = write_json(tmp_path, "theta.json", payload)
    assert main(["spectrum", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s, not a number\n" % message


@pytest.mark.parametrize("option", ["--input-tol", "--pair-tol"])
@pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
def test_spectrum_rejects_a_tolerance_out_of_range(tmp_path, capsys, option, value, shown):
    # a symmetric theta: a nan tolerance used to let it through
    path = write_json(tmp_path, "theta.json", {"theta": [[0, 2], [2, 0]]})
    assert main(["spectrum", path, option, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s is %s, not a finite tolerance >= 0\n" % (
        option[2:].replace("-", "_"), shown,
    )


def test_spectrum_zero_pair_tolerance(tmp_path, capsys):
    path = write_json(tmp_path, "theta.json", RANDOM_THETA)
    assert main(["spectrum", path, "--pair-tol", "0"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["spectrum", path]) == 0


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sympref.cli", "catalog", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "symmetric_n2" in proc.stdout


@pytest.mark.parametrize(
    "argv, usage, message",
    [
        (["analyze"], "sympref analyze",
         "the following arguments are required: spec"),
        (["analyze", "x.json", "--max-order", "abc"], "sympref analyze",
         "argument --max-order: invalid int value: 'abc'"),
        (["frob"], "sympref", "argument command: invalid choice: 'frob'"),
        (["analyze", "x.json", "--max-order", "0"], "sympref analyze",
         "argument --max-order: 0 is not a positive integer"),
        (["analyze", "x.json", "--max-order", "-3"], "sympref analyze",
         "argument --max-order: -3 is not a positive integer"),
        (["analyze", "x.json", "--text"], "sympref",
         "unrecognized arguments: --text"),
    ],
)
def test_usage_errors_are_bad_input_not_the_order_bound(argv, usage, message):
    # exit 2 means the order bound was exceeded, so argparse's own 2
    # would be indistinguishable from it
    proc = subprocess.run(
        [sys.executable, "-m", "sympref.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    first, second = proc.stderr.splitlines()
    assert first.startswith("usage: %s " % usage)
    assert second.startswith("%s: error: %s" % (usage, message))


def test_help_still_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "sympref.cli", "analyze", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: sympref analyze ")
