"""Seeded inputs and oracle-checked cases for the benchmark's workloads.

Every input is derived from the catalog-basis group specifications in
`data/specs.json` and the workload seed; the program under test only
ever sees the files written here.  Every case carries its expected exit
code and a check of its standard output against a closed-form oracle
(`oracle.py`) and the reports recorded in `reference/reports.json`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable

import oracle

BENCH = Path(__file__).resolve().parent
SPECS_FILE = BENCH / "data" / "specs.json"
REFERENCE_FILE = BENCH / "reference" / "reports.json"

# Every case computes for at most about a second, so that a 30 s run holds
# seven or more samples of each case (see `run.end_to_end`); heavier
# groups (doubled F4, D4 and G(4,1,3), the binary icosahedral group, S5 on
# planes) are left out for that reason.
VERDICT_GROUPS = (
    "weyl_b3_doubled",
    "weyl_a3_doubled",
    "imprimitive_3_3_3",
    "imprimitive_2_1_3",
    "sl2_binary_octahedral",
)
STRATA_GROUPS = (
    "symmetric_n4",
    "weyl_a3_doubled",
    "weyl_d3_doubled",
    "imprimitive_3_1_2",
    "symmetric_n3",
)
BASIS_GROUPS = (
    "weyl_a3_doubled",
    "imprimitive_3_1_2",
    "imprimitive_4_2_2",
    "sl2_binary_octahedral",
    "weyl_g2_doubled",
)
# batch_small draws one group per bucket, so that every seed does
# comparable work; a bucket holds catalog entries of similar cost.  The
# last analyze bucket holds the two groups whose verdict is obstructed.
ANALYZE_BUCKETS = (
    ("sl2_cyclic_2", "sl2_cyclic_3", "sl2_cyclic_5", "symmetric_n2"),
    ("sl2_binary_dihedral_2", "sl2_binary_dihedral_3", "imprimitive_2_2_2", "weyl_a2_doubled"),
    ("weyl_b2_doubled", "weyl_c2_doubled", "imprimitive_2_1_2", "symmetric_n3"),
    ("weyl_g2_doubled", "imprimitive_4_2_2", "imprimitive_3_1_2", "sl2_binary_tetrahedral"),
    ("sl2_binary_octahedral", "weyl_d3_doubled", "symmetric_n4"),
    ("negation_c4", "negation_c6"),
)
EMIT_BUCKETS = (
    ("sl2_cyclic_2", "sl2_cyclic_3", "sl2_cyclic_5", "symmetric_n2"),
    ("weyl_a3_doubled", "weyl_d3_doubled", "symmetric_n3", "imprimitive_2_1_3"),
)
DOUBLE_INPUTS = ("linear_weyl_b3", "linear_imprimitive_3_3_3")
SEMISMALL_GROUPS = ("symmetric_n3", "imprimitive_2_1_2")
# semismall cases at these positions get one planted failing stratum
SEMISMALL_PLANTED = (1,)
SPECTRUM_DIMS = (6, 8)
# `sympref spectrum --pair-tol` default, relative to the largest value
SPECTRUM_TOL = 1e-8
# length of the seeded word in the integer generators that is folded
# into each basis_changed conjugator
WORD_LENGTH = 6


@dataclass(frozen=True)
class Case:
    """One CLI call: its arguments, expected exit code and output check."""

    name: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[str], str | None]


def judge(case: Case, exit_code: int, stdout: str) -> str | None:
    """None when the call behaved as expected, else why it failed."""
    if exit_code != case.exit_code:
        return "%s: exit code %d, expected %d" % (case.name, exit_code, case.exit_code)
    try:
        return case.check(stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "%s: unreadable output (%s)" % (case.name, exc)


@cache
def specs() -> dict:
    """Catalog-basis specifications: {"catalog": {...}, "extra": {...}}."""
    return json.loads(SPECS_FILE.read_text(encoding="utf-8"))


@cache
def references() -> dict:
    """Reference CLI outputs, keyed by command kind and group name."""
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def spec(name: str) -> dict:
    library = specs()
    return library["catalog"].get(name) or library["extra"][name]


def render(doc: dict) -> str:
    """A document in the CLI's own layout (two-space indented JSON)."""
    return json.dumps(doc, indent=2) + "\n"


def _write(workdir: Path, filename: str, payload: dict) -> str:
    path = workdir / filename
    path.write_text(render(payload), encoding="utf-8")
    return str(path)


def _shuffled(doc: dict, rng: random.Random) -> tuple[dict, list[int]]:
    order = list(range(len(doc["generators"])))
    rng.shuffle(order)
    return dict(doc, generators=[doc["generators"][i] for i in order]), order


# -- analyze cases ---------------------------------------------------------


def _report_check(name: str, reference: str) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        problem = oracle.check_report(name, json.loads(stdout))
        if problem is None and stdout != reference:
            problem = "%s: report differs from the reference bytes" % name
        return problem

    return check


def _orbit_multiset(report: dict) -> list:
    return sorted(
        (s["codim"], s["stabilizer_order"], s["orbit_size"]) for s in report["strata"]
    )


def _basis_check(name: str, reference: str) -> Callable[[str], str | None]:
    # The order of orbits within one codimension depends on the basis, so
    # strata are compared as a multiset; every other field exactly.
    want = json.loads(reference)

    def check(stdout: str) -> str | None:
        got = json.loads(stdout)
        problem = oracle.check_report(name, got)
        if problem:
            return problem
        for key in want:
            if key != "strata" and got.get(key) != want[key]:
                return "%s: %s is %r, reference says %r" % (name, key, got.get(key), want[key])
        if set(got) != set(want) or _orbit_multiset(got) != _orbit_multiset(want):
            return "%s: strata orbits differ from the reference" % name
        return None

    return check


def _analyze_case(name, path, strata, check) -> Case:
    argv = ["analyze", "--json", path] + (["--strata"] if strata else [])
    exit_code = oracle.EXIT_FOR_VERDICT[oracle.expected(name)["verdict"]]
    return Case(name, tuple(argv), exit_code, check)


def _catalog_basis_cases(groups, strata, rng, workdir) -> list[Case]:
    kind = "strata" if strata else "analyze"
    cases = []
    for i, name in enumerate(groups):
        doc, _ = _shuffled(spec(name), rng)
        path = _write(workdir, "%02d-%s.json" % (i, name), doc)
        check = _report_check(name, references()[kind][name])
        cases.append(_analyze_case(name, path, strata, check))
    return cases


# -- basis_changed: exact integer symplectic conjugation -------------------


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def omega_matrix(doc: dict) -> list[list[int]]:
    """The document's symplectic form as an integer matrix."""
    n, form = doc["dimension"], doc["symplectic_form"]
    if form == "standard":
        omega = [[0] * n for _ in range(n)]
        for k in range(0, n, 2):
            omega[k][k + 1], omega[k + 1][k] = 1, -1
        return omega
    return [[int(x) for x in row] for row in form]


def _transvection(v, c, omega):
    """x -> x + c * omega(v, x) * v, a symplectic integer matrix."""
    n = len(v)
    v_omega = [sum(v[k] * omega[k][j] for k in range(n)) for j in range(n)]
    return [[int(i == j) + c * v[i] * v_omega[j] for j in range(n)] for i in range(n)]


def _integer_matrix(matrix):
    """The matrix as ints, or None if an entry is not an integer."""
    if any(not isinstance(x, str) or "/" in x for row in matrix for x in row):
        return None
    return [[int(x) for x in row] for row in matrix]


def checked_inverse(p, omega):
    """P^-1 = omega^-1 P^T omega, after checking exactly that P is symplectic."""
    n = len(omega)
    # omega^2 = -1 for the standard and the pairing form
    if _matmul(omega, omega) != [[-x for x in row] for row in _identity(n)]:
        raise ValueError("the form does not square to -1")
    if _matmul(_matmul(_transpose(p), omega), p) != omega:
        raise ValueError("P is not symplectic")
    p_inv = [[-x for x in row] for row in _matmul(_matmul(omega, _transpose(p)), omega)]
    if _matmul(p, p_inv) != _identity(n):
        raise ValueError("P * P^-1 is not the identity")
    return p_inv


def symplectic_conjugator(name: str, doc: dict, rng: random.Random):
    """An integer matrix P, symplectic for the document's form.

    P = P0 * h.  P0 is a product of four transvections with +-1 entries,
    drawn once per group from a fixed stream, so every seed conjugates
    into the same basis; h is a seeded word in the group's own integer
    generators, so the seed changes the generating set but not the group
    as a set.
    """
    omega = omega_matrix(doc)
    n = len(omega)
    fixed = random.Random("P0:" + name)
    p = _identity(n)
    for _ in range(4):
        v = [0] * n
        for k in fixed.sample(range(n), 2):
            v[k] = fixed.choice((1, -1))
        p = _matmul(p, _transvection(v, fixed.choice((1, -1)), omega))
    integer_gens = [g for g in map(_integer_matrix, doc["generators"]) if g is not None]
    for _ in range(WORD_LENGTH if integer_gens else 0):
        p = _matmul(p, rng.choice(integer_gens))
    return p


def _euler_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def _coefficients(entry, conductor, phi) -> list[Fraction]:
    if isinstance(entry, dict):
        if entry.get("conductor", conductor) != conductor:
            raise ValueError("entry conductor differs from the document's")
        return [Fraction(c) for c in entry["coeffs"]]
    return [Fraction(entry)] + [Fraction(0)] * (phi - 1)


def _entry(coeffs, conductor):
    if not any(coeffs[1:]):
        return str(coeffs[0])
    return {"conductor": conductor, "coeffs": [str(c) for c in coeffs]}


def conjugated(doc: dict, p) -> dict:
    """The document with every generator g replaced by P g P^-1."""
    p_inv = checked_inverse(p, omega_matrix(doc))
    n, m = doc["dimension"], doc["conductor"]
    phi = _euler_phi(m)
    gens = []
    for g in doc["generators"]:
        coeffs = [[_coefficients(x, m, phi) for x in row] for row in g]
        # P has integer entries, so each product entry is a Z-linear
        # combination of coefficient vectors
        left = [
            [[sum(p[i][k] * coeffs[k][j][t] for k in range(n)) for t in range(phi)]
             for j in range(n)]
            for i in range(n)
        ]
        gens.append([
            [_entry([sum(left[i][k][t] * p_inv[k][j] for k in range(n)) for t in range(phi)], m)
             for j in range(n)]
            for i in range(n)
        ])
    return dict(doc, generators=gens)


# -- batch_small helpers ---------------------------------------------------


def _emit_case(name: str) -> Case:
    want = render(specs()["catalog"][name])

    def check(stdout):
        return None if stdout == want else "emit %s: output differs from the reference" % name

    return Case("emit:" + name, ("catalog", "emit", name), 0, check)


def _double_case(name: str, rng: random.Random, workdir: Path, index: int) -> Case:
    doc, order = _shuffled(spec(name), rng)
    path = _write(workdir, "%02d-%s.json" % (index, name), doc)
    reference = json.loads(references()["double"][name])
    want = render(dict(reference, generators=[reference["generators"][i] for i in order]))
    n = doc["dimension"]

    def check(stdout):
        got = json.loads(stdout)
        if got["dimension"] != 2 * n or len(got["generators"]) != len(doc["generators"]):
            return "double %s: wrong shape" % name
        for g, d in zip(doc["generators"], got["generators"]):
            if [row[:n] for row in d[:n]] != g:
                return "double %s: top-left block is not the input generator" % name
            if any(x != "0" for row in d[:n] for x in row[n:]) or any(
                x != "0" for row in d[n:] for x in row[:n]
            ):
                return "double %s: off-diagonal blocks are not zero" % name
        if stdout != want:
            return "double %s: output differs from the reference bytes" % name
        return None

    return Case("double:" + name, ("double", path), 0, check)


def _stratum_codims(name: str) -> list[int]:
    """Codimensions of the strata in index order (ascending codim)."""
    report = json.loads(references()["strata"][name])
    return sorted(s["codim"] for s in report["strata"] for _ in range(s["orbit_size"]))


def _semismall_case(name, rng, workdir, index, planted) -> Case:
    doc, _ = _shuffled(spec(name), rng)
    path = _write(workdir, "%02d-%s.json" % (index, name), doc)
    codims = _stratum_codims(name)
    fibers = [c // 2 for c in codims]
    if planted:
        bad = rng.randrange(len(codims))
        fibers[bad] += 1
    fiber_path = _write(
        workdir, "%02d-%s-fibers.json" % (index, name),
        {"fibers": {str(i): f for i, f in enumerate(fibers)}},
    )
    lines = [
        "stratum %d: codim %d, fiber %d -> %s" % (i, c, f, "ok" if 2 * f <= c else "FAIL")
        for i, (c, f) in enumerate(zip(codims, fibers))
    ]
    want = "\n".join(lines + ["semismall: %s" % ("no" if planted else "yes")]) + "\n"
    oracle_strata = oracle.expected(name).get("strata", len(codims))

    def check(stdout):
        if len(codims) != oracle_strata:
            return "semismall %s: %d strata, oracle says %d" % (name, len(codims), oracle_strata)
        return None if stdout == want else "semismall %s: output differs" % name

    return Case("semismall:" + name, ("semismall", path, fiber_path), 3 if planted else 0, check)


def _rotation(n, rng):
    """A seeded orthogonal matrix: a product of Givens rotations."""
    q = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(angle), math.sin(angle)
        for row in q:
            row[i], row[j] = c * row[i] - s * row[j], s * row[i] + c * row[j]
    return q


def _spectrum_case(dim, rng, workdir, index, with_metric) -> Case:
    planted = sorted(rng.uniform(0.5, 4.0) for _ in range(dim // 2))
    block = [[0.0] * dim for _ in range(dim)]
    for k, value in enumerate(planted):
        block[2 * k][2 * k + 1], block[2 * k + 1][2 * k] = value, -value
    q = _rotation(dim, rng)
    theta = _matmul(_matmul(_transpose(q), block), q)
    if with_metric:
        # theta = S theta0 S with h = S^2 diagonal: the h-orthonormal frame
        # undoes S, so the symplectic eigenvalues stay the planted ones
        scale = [rng.uniform(0.5, 2.0) for _ in range(dim)]
        theta = [[math.sqrt(scale[i]) * theta[i][j] * math.sqrt(scale[j]) for j in range(dim)]
                 for i in range(dim)]
    for i in range(dim):
        theta[i][i] = 0.0
        for j in range(i):
            theta[i][j] = -theta[j][i]
    payload = {"theta": theta}
    if with_metric:
        payload["metric"] = [[scale[i] if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    path = _write(workdir, "%02d-spectrum.json" % index, payload)
    tol = SPECTRUM_TOL * max(planted)

    def check(stdout):
        values = [float(line) for line in stdout.split()]
        if len(values) != len(planted):
            return "spectrum: %d values, planted %d" % (len(values), len(planted))
        worst = max(abs(a - b) for a, b in zip(values, planted))
        return None if worst <= tol else "spectrum: off the planted values by %.3g" % worst

    return Case("spectrum:%d" % dim, ("spectrum", path), 0, check)


# -- workloads -------------------------------------------------------------


def _verdict(rng, workdir):
    return _catalog_basis_cases(VERDICT_GROUPS, False, rng, workdir)


def _strata(rng, workdir):
    return _catalog_basis_cases(STRATA_GROUPS, True, rng, workdir)


def _basis_changed(rng, workdir):
    cases = []
    for i, name in enumerate(BASIS_GROUPS):
        doc = conjugated(spec(name), symplectic_conjugator(name, spec(name), rng))
        doc, _ = _shuffled(doc, rng)
        path = _write(workdir, "%02d-%s.json" % (i, name), doc)
        check = _basis_check(name, references()["strata"][name])
        cases.append(_analyze_case(name, path, True, check))
    return cases


def _batch_small(rng, workdir):
    names = [rng.choice(bucket) for bucket in ANALYZE_BUCKETS]
    cases = _catalog_basis_cases(names, False, rng, workdir)
    index = len(cases)
    cases += [_emit_case(rng.choice(bucket)) for bucket in EMIT_BUCKETS]
    for name in DOUBLE_INPUTS:
        cases.append(_double_case(name, rng, workdir, index))
        index += 1
    for k, name in enumerate(SEMISMALL_GROUPS):
        cases.append(_semismall_case(name, rng, workdir, index, k in SEMISMALL_PLANTED))
        index += 1
    for k, dim in enumerate(SPECTRUM_DIMS):
        cases.append(_spectrum_case(dim, rng, workdir, index, k % 2 == 1))
        index += 1
    return cases


WORKLOADS = {
    "verdict": _verdict,
    "strata": _strata,
    "basis_changed": _basis_changed,
    "batch_small": _batch_small,
}


def build(workload: str, seed: int, workdir: Path) -> list[Case]:
    """Write the workload's inputs for this seed and return its cases."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)), workdir)
