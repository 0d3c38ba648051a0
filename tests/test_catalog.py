from collections import Counter
from fractions import Fraction

import pytest

from sympref.catalog import (
    CATALOG,
    ParameterOutOfRange,
    build_entry,
    build_imprimitive_doubled,
    build_negation,
    build_sl2_subgroup,
    build_symmetric_on_squares,
    build_weyl_doubled,
    entry_names,
    get_entry,
)
from sympref.groups import OrderBoundExceeded, element_order
from sympref.reflections import VERDICT_HOLDS, VERDICT_OBSTRUCTED, verdict


# ---------------------------------------------------------------------------
# independent oracle for the binary icosahedral group: unit icosians,
# i.e. quaternions over Q(sqrt 5) with plain Fraction arithmetic

def f5_mul(a, b):
    # (x + y sqrt5)(u + v sqrt5)
    return (a[0] * b[0] + 5 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def f5_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


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
            total = f5_add(total, prod)
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
    phi_half = (Fraction(1, 4), Fraction(1, 4))        # phi / 2
    inv_phi_half = (Fraction(-1, 4), Fraction(1, 4))   # 1 / (2 phi)
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
