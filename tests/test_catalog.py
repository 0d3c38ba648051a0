import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from sympref.catalog import (
    CATALOG,
    ParameterOutOfRange,
    _cartan_pairings,
    build_entry,
    build_imprimitive_doubled,
    build_negation,
    build_sl2_subgroup,
    build_symmetric_on_squares,
    build_weyl_doubled,
    entry_names,
    get_entry,
)
from sympref.cli import main
from sympref.groups import OrderBoundExceeded, element_order
from sympref.reflections import VERDICT_HOLDS, VERDICT_OBSTRUCTED, verdict

from helpers import icosian_group, quat_order

ROOT = Path(__file__).resolve().parents[1]


def test_every_catalog_entry_builds_with_its_advertised_order():
    assert len(CATALOG) == 25
    for entry in CATALOG:
        group = entry.build()
        assert group.order == entry.expected_order, entry.name
        assert group.dimension == entry.dimension, entry.name
        assert group.omega is not None, entry.name


def test_finite_groups_pass_the_infinite_order_check():
    # the closure rejects an element whose trace no element of finite
    # order has; every finite group must close, keeping its traces
    groups = [entry.build() for entry in CATALOG]
    groups += [build_sl2_subgroup("cyclic", k) for k in range(1, 13)]
    groups += [build_sl2_subgroup("binary_dihedral", k) for k in range(2, 7)]
    groups += [
        build_imprimitive_doubled(m, p, n)
        for m, n in ((5, 2), (6, 2), (3, 3), (4, 3))
        for p in range(1, m + 1)
        if m % p == 0
    ]
    groups += [build_weyl_doubled("A", 4), build_weyl_doubled("B", 4)]
    for group in groups:
        assert group.traces == tuple(g.trace() for g in group.elements), group


def test_catalog_names_are_unique_and_resolvable():
    names = entry_names()
    assert len(names) == len(set(names))
    assert get_entry("weyl_g2_doubled").expected_order == 12
    assert build_entry("negation_c4").order == 2
    with pytest.raises(ParameterOutOfRange):
        get_entry("no_such_family")


def test_symmetric_family_orders_and_range():
    assert build_symmetric_on_squares(2).order == 2
    assert build_symmetric_on_squares(3).order == 6
    assert build_symmetric_on_squares(4).order == 24
    for bad in (1, 6, 0):
        with pytest.raises(ParameterOutOfRange):
            build_symmetric_on_squares(bad)


def test_weyl_orders():
    assert build_weyl_doubled("A", 2).order == 6
    assert build_weyl_doubled("A", 3).order == 24
    assert build_weyl_doubled("B", 2).order == 8
    assert build_weyl_doubled("C", 2).order == 8
    assert build_weyl_doubled("D", 3).order == 24
    assert build_weyl_doubled("G2").order == 12
    assert build_weyl_doubled("F4").order == 1152
    assert build_weyl_doubled("B", 3).order == 48


def test_weyl_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        build_weyl_doubled("H", 3)
    with pytest.raises(ParameterOutOfRange):
        build_weyl_doubled("A")  # rank required
    with pytest.raises(ParameterOutOfRange):
        build_weyl_doubled("A", 0)
    with pytest.raises(ParameterOutOfRange):
        build_weyl_doubled("D", 2)
    with pytest.raises(ParameterOutOfRange):
        build_weyl_doubled("G2", 3)


def test_huge_weyl_groups_error_before_enumerating():
    for family in ("E7", "E8"):
        with pytest.raises(OrderBoundExceeded):
            build_weyl_doubled(family)


def determinant(rows):
    """By Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


# every family build_weyl takes, up to rank 8, with the closed-form
# determinant of its Cartan matrix
CARTAN_DETERMINANTS = [
    *(("A", n, n + 1) for n in range(1, 9)),
    *(("B", n, 2) for n in range(2, 9)),
    *(("C", n, 2) for n in range(2, 9)),
    *(("D", n, 4) for n in range(3, 9)),
    ("E6", 6, 3), ("E7", 7, 2), ("E8", 8, 1), ("F4", 4, 1), ("G2", 2, 1),
]


@pytest.mark.parametrize("family, rank, det", CARTAN_DETERMINANTS)
def test_cartan_matrix_has_the_closed_form_determinant(family, rank, det):
    n = _cartan_pairings(family, rank)
    assert len(n) == rank and all(len(row) == rank for row in n)
    for i in range(rank):
        assert n[i][i] == 2
        for j in range(rank):
            if i != j:
                assert n[i][j] <= 0 and (n[i][j] == 0) == (n[j][i] == 0)
    assert determinant(n) == det


@pytest.mark.parametrize("family, rank, name", [
    ("E6", 6, "weyl_e6_doubled"), ("F4", 4, "weyl_f4_doubled"),
    ("B", 5, "weyl_b5_doubled"),
])
def test_simple_reflections_are_the_blocks_of_the_doubled_specs(family, rank, name):
    # s_i has row i of delta - n and the identity's other rows; doubling
    # keeps each generator as the upper-left block
    spec = json.loads((ROOT / "bench" / "specs" / (name + ".json")).read_text())
    blocks = [
        [[int(x) for x in row[:rank]] for row in g[:rank]]
        for g in spec["generators"]
    ]
    n = _cartan_pairings(family, rank)
    reflections = [
        [[int(r == j) - (n[i][j] if r == i else 0) for j in range(rank)]
         for r in range(rank)]
        for i in range(rank)
    ]
    assert blocks == reflections


@pytest.mark.parametrize("name", entry_names())
def test_catalog_emit_prints_the_recorded_spec(name, capsys):
    # perfbench/data/specs.json holds what `catalog emit` printed when the
    # benchmark was recorded; the benchmark's emit cases are judged by it
    specs = json.loads((ROOT / "perfbench" / "data" / "specs.json").read_text())
    assert main(["catalog", "emit", name]) == 0
    want = json.dumps(specs["catalog"][name], indent=2) + "\n"
    assert capsys.readouterr().out == want


# closure refuses to run before the catalog is first imported
CATALOG_LIST_CHILD = """
from sympref.groups import FiniteMatrixGroup

def refuse(*args, **kwargs):
    raise AssertionError("closure ran")

FiniteMatrixGroup.closure = classmethod(refuse)
from sympref.cli import main
raise SystemExit(main(["catalog", "list"]))
"""


def test_catalog_list_closes_no_group():
    # every entry's order is its family's closed form, read without
    # building the group, at import and at listing alike
    proc = subprocess.run(
        [sys.executable, "-c", CATALOG_LIST_CHILD],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = [line.split()[0] for line in proc.stdout.splitlines()]
    assert names == list(entry_names()) and len(names) == 25


def test_sl2_cyclic_and_dihedral():
    assert build_sl2_subgroup("cyclic", 1).order == 1
    two = build_sl2_subgroup("cyclic", 2)
    assert two.order == 2
    v = verdict(two)
    assert v.kind == VERDICT_HOLDS
    assert v.duval_note is not None
    assert build_sl2_subgroup("cyclic", 5).order == 5
    assert build_sl2_subgroup("binary_dihedral", 2).order == 8
    assert build_sl2_subgroup("binary_dihedral", 3).order == 12
    with pytest.raises(ParameterOutOfRange):
        build_sl2_subgroup("cyclic", 0)
    with pytest.raises(ParameterOutOfRange):
        build_sl2_subgroup("binary_dihedral", 1)
    with pytest.raises(ParameterOutOfRange):
        build_sl2_subgroup("dodecahedral")
    with pytest.raises(ParameterOutOfRange):
        build_sl2_subgroup("binary_tetrahedral", 3)


# A builder that does not check its size first runs for minutes; the
# child caps its address space so that such a run stops at 1 GB.
OVERSIZED_CHILD = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from sympref import catalog, groups
start = time.perf_counter()
try:
    catalog.%s
except (catalog.ParameterOutOfRange, groups.OrderBoundExceeded) as exc:
    print(type(exc).__name__, time.perf_counter() - start)
"""


@pytest.mark.parametrize(
    "call, error",
    [
        ("build_sl2_subgroup('cyclic', 100003)", "OrderBoundExceeded"),
        ("build_sl2_subgroup('binary_dihedral', 30000)", "OrderBoundExceeded"),
        ("build_sl2_subgroup('cyclic', 99991)", "ParameterOutOfRange"),
        ("build_imprimitive(401, 1, 1)", "ParameterOutOfRange"),
        # orders whose factorials alone have thousands of digits
        ("build_imprimitive(2, 1, 200000)", "OrderBoundExceeded"),
        ("build_weyl('A', 200000)", "OrderBoundExceeded"),
        ("build_weyl('D', 200000)", "OrderBoundExceeded"),
    ],
)
def test_oversized_builders_refuse_before_building(call, error):
    # orders over the bound, and conductors over the parser's maximum
    proc = subprocess.run(
        [sys.executable, "-c", OVERSIZED_CHILD % call],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    name, seconds = proc.stdout.split()
    assert name == error
    assert float(seconds) < 1.0


def test_binary_polyhedral_orders_and_conductors():
    tetra = build_sl2_subgroup("binary_tetrahedral")
    octa = build_sl2_subgroup("binary_octahedral")
    icosa = build_sl2_subgroup("binary_icosahedral")
    assert (tetra.order, octa.order, icosa.order) == (24, 48, 120)
    assert tetra.conductor == 8
    # the octahedral group needs sqrt 2, hence the eighth roots as well
    assert octa.conductor == 8
    assert icosa.conductor == 20


def test_binary_tetrahedral_element_orders():
    g = build_sl2_subgroup("binary_tetrahedral")
    counts = Counter(element_order(g, i) for i in range(g.order))
    assert counts == {1: 1, 2: 1, 4: 6, 6: 8, 3: 8}


def test_icosahedral_group_matches_quaternion_oracle():
    oracle = icosian_group()
    assert len(oracle) == 120
    oracle_orders = Counter(quat_order(q) for q in oracle)
    g = build_sl2_subgroup("binary_icosahedral")
    matrix_orders = Counter(element_order(g, i) for i in range(g.order))
    assert matrix_orders == oracle_orders
    assert matrix_orders == {1: 1, 2: 1, 4: 30, 6: 20, 3: 20, 10: 24, 5: 24}


def test_imprimitive_orders():
    assert build_imprimitive_doubled(2, 1, 2).order == 8
    assert build_imprimitive_doubled(2, 2, 2).order == 4
    assert build_imprimitive_doubled(3, 1, 2).order == 18
    assert build_imprimitive_doubled(4, 2, 2).order == 16
    assert build_imprimitive_doubled(2, 1, 3).order == 48
    assert build_imprimitive_doubled(3, 3, 3).order == 54
    assert build_imprimitive_doubled(1, 1, 3).order == 6
    assert build_imprimitive_doubled(4, 1, 1).order == 4


def test_imprimitive_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        build_imprimitive_doubled(4, 3, 2)  # p does not divide m
    with pytest.raises(ParameterOutOfRange):
        build_imprimitive_doubled(0, 1, 2)
    with pytest.raises(OrderBoundExceeded):
        build_imprimitive_doubled(10, 1, 5)  # order 12 million


def test_negation_family():
    assert build_negation(4).order == 2
    assert verdict(build_negation(4)).kind == VERDICT_OBSTRUCTED
    for bad in (2, 5, 0):
        with pytest.raises(ParameterOutOfRange):
            build_negation(bad)


def test_catalog_expected_verdicts_are_consistent():
    for entry in CATALOG:
        assert entry.expected_verdict in (VERDICT_HOLDS, VERDICT_OBSTRUCTED)
    assert get_entry("negation_c4").expected_verdict == VERDICT_OBSTRUCTED
    assert get_entry("symmetric_n3").expected_verdict == VERDICT_HOLDS
