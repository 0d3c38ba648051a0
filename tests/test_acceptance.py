"""End-to-end acceptance battery.

One test per criterion, named test_criterion_NN_<label>, so a verbose
run shows one pass/fail line per criterion; each body additionally
prints "criterion NN (<label>): PASS|FAIL" through the `criterion`
context manager no matter where an assertion trips.

All group-theoretic checks are exact (zero tolerance).  The float
checks pin their tolerances and time limits in the constants below.
"""

import contextlib
import itertools
import json
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from sympref.catalog import (
    CATALOG,
    build_entry,
    build_imprimitive,
    build_negation,
    build_sl2_subgroup,
    build_symmetric_on_squares,
)
from sympref.cli import main as cli_main
from sympref.groups import FiniteMatrixGroup, element_order, is_normal
from sympref.linalg import (
    ExactMatrix,
    fixed_space,
    form_restriction_nondegenerate,
    standard_symplectic_form,
)
from sympref.reflections import (
    VERDICT_HOLDS,
    VERDICT_OBSTRUCTED,
    census,
    doubled_element,
    reflection_subgroup,
    verdict,
    z_locus_min_codim,
)
from sympref.spectrum import pfaffian, symplectic_eigenvalues
from sympref.specio import (
    analyze,
    make_group,
    parse_group_spec,
    report_to_json,
    serialize_group_spec,
    spec_from_group,
)
from sympref.stratification import (
    build_lattice,
    parse_fiber_data,
    semismall_check,
)

PAIR_TOL = 1e-8             # relative pairing of singular values
PFAFFIAN_TOL = 1e-8         # relative match of prod(lambda) vs |Pf|
SCALING_TOL = 1e-8          # relative match of lambda(c T) vs |c| lambda(T)
ICOSAHEDRAL_LIMIT_S = 5.0   # closure time budget for the order-120 group
SPECTRUM_LIMIT_S = 1.0      # budget for the 100-matrix spectrum sweep


@contextlib.contextmanager
def criterion(number, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print("criterion %d (%s): %s" % (number, label, "PASS" if ok else "FAIL"))


# ---------------------------------------------------------------------------
# independent oracle for criterion 3: unit icosians, i.e. quaternions
# over Q(sqrt 5) carried as pairs of Fractions (a + b sqrt5)

def f5_mul(a, b):
    return (a[0] * b[0] + 5 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


F5_ZERO = (Fraction(0), Fraction(0))
F5_ONE = (Fraction(1), Fraction(0))


def quat_mul(p, q):
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q

    def term(*pairs):
        total = F5_ZERO
        for sign, a, b in pairs:
            prod = f5_mul(a, b)
            if sign < 0:
                prod = (-prod[0], -prod[1])
            total = (total[0] + prod[0], total[1] + prod[1])
        return total

    return (
        term((1, w1, w2), (-1, x1, x2), (-1, y1, y2), (-1, z1, z2)),
        term((1, w1, x2), (1, x1, w2), (1, y1, z2), (-1, z1, y2)),
        term((1, w1, y2), (-1, x1, z2), (1, y1, w2), (1, z1, x2)),
        term((1, w1, z2), (1, x1, y2), (-1, y1, x2), (1, z1, w2)),
    )


QUAT_ONE = (F5_ONE, F5_ZERO, F5_ZERO, F5_ZERO)


def icosian_group():
    half = (Fraction(1, 2), Fraction(0))
    phi_half = (Fraction(1, 4), Fraction(1, 4))
    inv_phi_half = (Fraction(-1, 4), Fraction(1, 4))
    g1 = (half, half, half, half)
    g2 = (phi_half, inv_phi_half, half, F5_ZERO)
    elems = {QUAT_ONE, g1, g2}
    frontier = [g1, g2]
    while frontier:
        q = frontier.pop()
        for g in (g1, g2):
            p = quat_mul(q, g)
            if p not in elems:
                elems.add(p)
                frontier.append(p)
        assert len(elems) <= 150, "runaway closure"
    return elems


def quat_order(q):
    n = 1
    cur = q
    while cur != QUAT_ONE:
        cur = quat_mul(cur, q)
        n += 1
    return n


# ---------------------------------------------------------------------------
# shared fixtures

def diag_involution(dim, minus):
    rows = [
        [(-1 if (i == j and i in minus) else (1 if i == j else 0))
         for j in range(dim)]
        for i in range(dim)
    ]
    return ExactMatrix.from_rows(rows)


def reflection_plus_negation_fixtures():
    """Direct sums of a symplectic reflection group with <-I> blocks."""
    # dim 6: a codim-2 involution next to a negated C^4 block
    g1 = diag_involution(6, {0, 1})
    g2 = diag_involution(6, {2, 3, 4, 5})
    six = FiniteMatrixGroup.closure(
        6, 1, standard_symplectic_form(6), [g1, g2]
    )
    # dim 8: the coordinate-pair swap of C^4, direct sum with -1 on C^4
    swap = [[0] * 8 for _ in range(8)]
    for i in range(2):
        swap[i][i + 2] = swap[i + 2][i] = 1
    for i in range(4, 8):
        swap[i][i] = 1
    h1 = ExactMatrix.from_rows(swap)
    h2 = diag_involution(8, {4, 5, 6, 7})
    eight = FiniteMatrixGroup.closure(
        8, 1, standard_symplectic_form(8), [h1, h2]
    )
    return [six, eight]


QUATERNION_SPEC = {
    "name": "quaternions",
    "dimension": 2,
    "conductor": 4,
    "symplectic_form": "standard",
    "generators": [
        [
            [{"coeffs": ["0", "1"]}, "0"],
            ["0", {"coeffs": ["0", "-1"]}],
        ],
        [["0", "1"], ["-1", "0"]],
    ],
}


# ---------------------------------------------------------------------------


def test_criterion_01_obstruction_soundness():
    with criterion(1, "obstruction soundness"):
        resolvable = [
            "symmetric_n2",
            "symmetric_n3",
            "symmetric_n4",
            "weyl_a2_doubled",
            "weyl_a3_doubled",
            "weyl_b2_doubled",
            "weyl_c2_doubled",
            "sl2_cyclic_2",
            "sl2_cyclic_3",
            "sl2_cyclic_5",
            "sl2_binary_dihedral_2",
            "sl2_binary_dihedral_3",
            "sl2_binary_tetrahedral",
            "sl2_binary_octahedral",
            "sl2_binary_icosahedral",
        ]
        for name in resolvable:
            assert verdict(build_entry(name)).kind == VERDICT_HOLDS, name
        # and the whole catalog matches its advertised verdicts
        for entry in CATALOG:
            assert verdict(entry.build()).kind == entry.expected_verdict, (
                entry.name
            )


def test_criterion_02_obstruction_firing(tmp_path):
    with criterion(2, "obstruction firing on <-I>"):
        for dim in (4, 6, 8):
            group = build_negation(dim)
            v = verdict(group)
            assert v.kind == VERDICT_OBSTRUCTED
            assert v.reflection_subgroup_index == 2
            assert analyze(group).g0_index == 2
        spec = tmp_path / "negation.json"
        spec.write_text(
            serialize_group_spec(spec_from_group("negation_c4", build_negation(4)))
        )
        assert cli_main(["analyze", str(spec)]) == 3


def test_criterion_03_group_orders_and_icosahedral_oracle():
    with criterion(3, "exact group orders"):
        assert build_entry("symmetric_n3").order == 6
        assert build_entry("weyl_b2_doubled").order == 8
        assert build_entry("weyl_g2_doubled").order == 12

        build_sl2_subgroup.cache_clear()
        start = time.monotonic()
        icosa = build_sl2_subgroup("binary_icosahedral")
        elapsed = time.monotonic() - start
        assert elapsed < ICOSAHEDRAL_LIMIT_S, "closure took %.2f s" % elapsed
        assert icosa.order == 120
        assert len(census(icosa).symplectic_reflections) == 119

        quats = icosian_group()
        assert len(quats) == 120
        matrix_orders = Counter(
            element_order(icosa, g) for g in icosa.elements
        )
        oracle_orders = Counter(quat_order(q) for q in quats)
        assert matrix_orders == oracle_orders


def test_criterion_04_even_codimension_and_nondegenerate_restriction():
    with criterion(4, "even codim, nondegenerate restriction"):
        for entry in CATALOG:
            group = entry.build()
            for g in group.elements:
                space = fixed_space(g)
                assert space.codim % 2 == 0, entry.name
                assert form_restriction_nondegenerate(group.omega, space), (
                    entry.name
                )


def test_criterion_05_doubling_correspondence():
    with criterion(5, "doubling turns complex into symplectic reflections"):
        cases = [
            (m, p, n)
            for m in (1, 2, 3, 4)
            for p in range(1, m + 1)
            if m % p == 0
            for n in (1, 2, 3)
        ]
        cases.append((1, 1, 4))  # one more plain permutation action
        for m, p, n in cases:
            linear = build_imprimitive(m, p, n)
            for g in linear.elements:
                complex_reflection = fixed_space(g).codim == 1
                symplectic_reflection = (
                    fixed_space(doubled_element(g)).codim == 2
                )
                assert complex_reflection == symplectic_reflection, (m, p, n)


def test_criterion_06_z_locus_codimension_bound():
    with criterion(6, "codim Z >= 4 whenever G0 is proper"):
        fixtures = [build_negation(4), build_negation(6), build_negation(8)]
        fixtures += reflection_plus_negation_fixtures()
        for group in fixtures:
            sub = reflection_subgroup(group)
            assert not sub.is_whole_group
            assert z_locus_min_codim(group, sub) >= 4


def test_criterion_07_semismallness_fixture():
    with criterion(7, "semismallness bookkeeping"):
        lattice = build_lattice(build_symmetric_on_squares(2))
        assert [s.codim for s in lattice.strata] == [0, 2]
        passing = parse_fiber_data('{"fibers": {"0": 0, "1": 1}}')
        failing = parse_fiber_data('{"fibers": {"0": 0, "1": 2}}')
        assert semismall_check(lattice, passing).passed
        assert not semismall_check(lattice, failing).passed


def test_criterion_08_normality_and_lagrange():
    with criterion(8, "G0 normal, Lagrange divisibility"):
        for entry in CATALOG:
            group = entry.build()
            sub = reflection_subgroup(group)
            assert is_normal(group, sub), entry.name
            assert group.order % sub.order == 0, entry.name
            index = verdict(group, sub).reflection_subgroup_index
            assert sub.order * index == group.order, entry.name


def test_criterion_09_spectrum_statistics():
    with criterion(9, "symplectic eigenvalue statistics"):
        rng = np.random.default_rng(20260819)
        scale = 1.7 - 0.3j
        start = time.monotonic()
        for n in (4, 6):
            for _ in range(50):
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal(
                    (n, n)
                )
                theta = a - a.T
                # raises if singular values fail to pair within PAIR_TOL
                lams = symplectic_eigenvalues(theta, pair_tol=PAIR_TOL)
                product = float(np.prod(lams))
                target = abs(pfaffian(theta))
                assert abs(product - target) <= PFAFFIAN_TOL * target
                scaled = symplectic_eigenvalues(
                    scale * theta, pair_tol=PAIR_TOL
                )
                assert np.allclose(
                    scaled, abs(scale) * lams, rtol=SCALING_TOL, atol=0.0
                )
        elapsed = time.monotonic() - start
        assert elapsed < SPECTRUM_LIMIT_S, "sweep took %.2f s" % elapsed


def test_criterion_10_report_determinism():
    with criterion(10, "byte-identical reports under generator order"):
        docs = [json.dumps(QUATERNION_SPEC)]
        for name in ("symmetric_n3", "imprimitive_3_1_2", "weyl_b2_doubled"):
            docs.append(
                serialize_group_spec(spec_from_group(name, build_entry(name)))
            )
        for text in docs:
            payload = json.loads(text)
            gens = payload["generators"]
            baseline = None
            for perm in itertools.islice(
                itertools.permutations(range(len(gens))), 6
            ):
                payload["generators"] = [gens[i] for i in perm]
                doc = parse_group_spec(json.dumps(payload))
                report = report_to_json(
                    analyze(make_group(doc), with_strata=True)
                )
                if baseline is None:
                    baseline = report
                assert report.encode() == baseline.encode(), payload["name"]
