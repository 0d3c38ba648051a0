from fractions import Fraction

import pytest

from sympref.catalog import build_entry, build_weyl
from sympref.cyclotomic import CyclotomicNumber
from sympref.groups import (
    FiniteMatrixGroup,
    NotAMember,
    NotSymplectic,
    OrderBoundExceeded,
    SingularGenerator,
    conjugacy_classes,
    element_order,
    generated_subgroup,
    is_normal,
    powers,
)
from sympref.linalg import BadForm, ExactMatrix, standard_symplectic_form

Cyc = CyclotomicNumber


def perm_matrix(images):
    n = len(images)
    rows = [[0] * n for _ in range(n)]
    for src, dst in enumerate(images):
        rows[dst][src] = 1
    return ExactMatrix.from_rows(rows)


def s3_group():
    return FiniteMatrixGroup.closure(
        3, 1, None, [perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])]
    )


def quaternion_group():
    i = Cyc.zeta(4)
    gi = ExactMatrix.from_rows([[i, 0], [0, -i]])
    gj = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    return FiniteMatrixGroup.closure(
        2, 4, standard_symplectic_form(2, 4), [gi, gj]
    )


def brute_force_closure(dimension, conductor, gens):
    """Independent oracle: saturate under products until stable."""
    ident = ExactMatrix.identity(dimension, conductor)
    elems = {ident.key(): ident}
    for g in gens:
        g = g.promote(conductor)
        elems[g.key()] = g
    changed = True
    while changed:
        changed = False
        snapshot = list(elems.values())
        for a in snapshot:
            for b in snapshot:
                p = a * b
                if p.key() not in elems:
                    elems[p.key()] = p
                    changed = True
    return set(elems)


def test_cyclic_group_order_and_elements():
    z = Cyc.zeta(5)
    g = FiniteMatrixGroup.closure(
        2, 5, None, [ExactMatrix.from_rows([[z, 0], [0, z ** 4]], 5)]
    )
    assert g.order == 5
    assert g.element(0).is_identity()
    assert len(conjugacy_classes(g)) == 5


def test_symmetric_group_on_three_letters():
    g = s3_group()
    assert g.order == 6
    sizes = sorted(len(c) for c in conjugacy_classes(g))
    assert sizes == [1, 2, 3]
    orders = sorted(element_order(g, i) for i in range(g.order))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_quaternion_group_of_order_eight():
    g = quaternion_group()
    assert g.order == 8
    sizes = sorted(len(c) for c in conjugacy_classes(g))
    assert sizes == [1, 1, 2, 2, 2]
    orders = sorted(element_order(g, i) for i in range(g.order))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_closure_matches_brute_force_oracle():
    for build, dim, cond in (
        (s3_group, 3, 1),
        (quaternion_group, 2, 4),
    ):
        g = build()
        expected = brute_force_closure(dim, cond, list(g.generators))
        assert {m.key() for m in g.elements} == expected


def test_canonical_order_ignores_generator_order():
    a = perm_matrix([1, 0, 2])
    b = perm_matrix([0, 2, 1])
    g1 = FiniteMatrixGroup.closure(3, 1, None, [a, b])
    g2 = FiniteMatrixGroup.closure(3, 1, None, [b, a])
    assert [m.key() for m in g1.elements] == [m.key() for m in g2.elements]


def test_order_bound_exceeded():
    shear = ExactMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(OrderBoundExceeded):
        FiniteMatrixGroup.closure(2, 1, None, [shear], max_order=50)
    z = Cyc.zeta(7)
    with pytest.raises(OrderBoundExceeded):
        FiniteMatrixGroup.closure(
            1, 7, None, [ExactMatrix.from_rows([[z]], 7)], max_order=5
        )
    # a bound below 2 admits only the trivial group
    for bound in (1, 0, -3):
        with pytest.raises(OrderBoundExceeded):
            FiniteMatrixGroup.closure(
                3, 1, None, [perm_matrix([1, 0, 2])], max_order=bound
            )


@pytest.mark.parametrize(
    "conductor, generators, reason",
    [
        # unipotent: trace 2, the dimension, but not the identity
        (1, [[[1, 1], [0, 1]]], "equals the dimension"),
        (1, [[[2, 0], [0, Fraction(1, 2)]]], "5/2, which is not an algebraic integer"),
        (1, [[[3, 1], [-1, 0]]], "absolute value above 2"),
        # trace 2 + 2(z^2 + z^3) is about -1.24 at z = exp(2 pi i/5), as
        # for a rotation, but about 3.24 at z = exp(4 pi i/5)
        (5, [[[Cyc(5, [2, 0, 2, 2]), 1], [-1, 0]]], "Galois conjugate"),
        # SL(2, Z), generated by elements of orders 4 and 6
        (1, [[[0, -1], [1, 0]], [[0, -1], [1, 1]]], "the group is infinite"),
    ],
)
def test_infinite_groups_fail_at_an_element_of_infinite_order(
    conductor, generators, reason
):
    with pytest.raises(OrderBoundExceeded, match=reason):
        FiniteMatrixGroup.closure(
            2, conductor, standard_symplectic_form(2, conductor),
            [ExactMatrix.from_rows(g, conductor) for g in generators],
            max_order=1000,
        )


def test_singular_generator_rejected():
    with pytest.raises(SingularGenerator) as exc:
        FiniteMatrixGroup.closure(
            2, 1, None, [ExactMatrix.identity(2), ExactMatrix.from_rows([[1, 0], [0, 0]])]
        )
    assert exc.value.index == 1


def test_non_symplectic_generator_rejected():
    omega = standard_symplectic_form(2)
    with pytest.raises(NotSymplectic) as exc:
        FiniteMatrixGroup.closure(
            2, 1, omega, [ExactMatrix.from_rows([[2, 0], [0, 1]])]
        )
    assert exc.value.index == 0


def test_bad_form_rejected():
    with pytest.raises(BadForm):
        FiniteMatrixGroup.closure(
            2, 1, ExactMatrix.identity(2), [ExactMatrix.identity(2)]
        )


def test_trivial_group():
    g = FiniteMatrixGroup.closure(2, 1, standard_symplectic_form(2), [])
    assert g.order == 1
    assert g.element(0).is_identity()


def test_membership_and_indexing():
    g = s3_group()
    three_cycle = perm_matrix([1, 2, 0])
    assert g.is_member(three_cycle)
    assert element_order(g, three_cycle) == 3
    assert not g.is_member(ExactMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(NotAMember):
        g.index_of(ExactMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    # identity carried at an unrelated conductor is still the identity
    assert g.is_member(ExactMatrix.identity(3, 5))


def test_product_and_inverse_indices():
    g = quaternion_group()
    for i in range(g.order):
        inv = g.inverse_index(i)
        assert g.product_index(i, inv) == g.identity_index
        assert g.product_index(inv, i) == g.identity_index


@pytest.mark.parametrize(
    "name", ["symmetric_n3", "imprimitive_3_1_2", "sl2_binary_tetrahedral"]
)
def test_index_arithmetic_matches_exact_matrices(name):
    # imprimitive_3_1_2 is built by doubling, the others by closure
    g = build_entry(name)
    for i, a in enumerate(g.elements):
        assert g.inverse_index(i) == g.index_of(a.inverse())
        for j, b in enumerate(g.elements):
            assert g.product_index(i, j) == g.index_of(a * b)


def test_powers_are_the_cyclic_subgroup():
    g = quaternion_group()
    for i in range(g.order):
        cyclic = powers(g, i)
        assert cyclic[0] == g.identity_index
        assert len(set(cyclic)) == len(cyclic) == element_order(g, i)
        assert generated_subgroup(g, [i]).indices() == tuple(sorted(cyclic))


@pytest.mark.parametrize(
    "family, rank, classes", [("B", 3, 10), ("D", 4, 13), ("F4", None, 25)]
)
def test_weyl_group_class_counts(family, rank, classes):
    assert len(conjugacy_classes(build_weyl(family, rank))) == classes


def test_generated_subgroup_and_lagrange():
    g = s3_group()
    transposition = g.index_of(perm_matrix([1, 0, 2]))
    three_cycle = g.index_of(perm_matrix([1, 2, 0]))
    h2 = generated_subgroup(g, [transposition])
    h3 = generated_subgroup(g, [three_cycle])
    assert h2.order == 2
    assert h3.order == 3
    assert generated_subgroup(g, [transposition, three_cycle]).is_whole_group
    assert generated_subgroup(g, []).order == 1
    for h in (h2, h3):
        assert g.order % h.order == 0


def test_generated_subgroup_accepts_matrices():
    g = s3_group()
    h = generated_subgroup(g, [perm_matrix([1, 0, 2])])
    assert h.order == 2


def test_normality():
    g = s3_group()
    h3 = generated_subgroup(g, [g.index_of(perm_matrix([1, 2, 0]))])
    h2 = generated_subgroup(g, [g.index_of(perm_matrix([1, 0, 2]))])
    assert is_normal(g, h3)
    assert not is_normal(g, h2)
    assert is_normal(g, generated_subgroup(g, []))
    assert is_normal(g, generated_subgroup(g, list(range(g.order))))


def test_conjugacy_classes_partition_the_group():
    for build in (s3_group, quaternion_group):
        g = build()
        classes = conjugacy_classes(g)
        seen = [i for c in classes for i in c]
        assert sorted(seen) == list(range(g.order))
        assert classes[0] == (g.identity_index,)
        for c in classes:
            assert g.order % len(c) == 0
