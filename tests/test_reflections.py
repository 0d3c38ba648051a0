import pytest

from sympref import reflections
from sympref.catalog import (
    CATALOG,
    build_imprimitive,
    build_sl2_subgroup,
    build_weyl,
)
from sympref.cyclotomic import CyclotomicNumber, InvariantViolation
from sympref.groups import FiniteMatrixGroup, generated_subgroup
from sympref.linalg import (
    ExactMatrix,
    fixed_space,
    pairing_form,
    standard_symplectic_form,
)
from sympref.reflections import (
    VERDICT_HOLDS,
    VERDICT_OBSTRUCTED,
    census,
    complex_reflections_generate,
    double,
    doubled_element,
    reflection_subgroup,
    verdict,
    z_locus_min_codim,
)
from sympref.stratification import build_lattice

from helpers import block_swap_group, diagonal, perm_matrix, quaternion_group

Cyc = CyclotomicNumber


def negation_group(dim):
    return FiniteMatrixGroup.closure(
        dim, 1, standard_symplectic_form(dim), [-ExactMatrix.identity(dim)]
    )


def reflection_plus_negation_block_group():
    # dim 6: a true reflection in the first plane, sign flip on the rest
    g1 = diagonal(-1, -1, 1, 1, 1, 1)
    g2 = diagonal(1, 1, -1, -1, -1, -1)
    return FiniteMatrixGroup.closure(
        6, 1, standard_symplectic_form(6), [g1, g2]
    )


def test_census_in_a_planar_group():
    g = quaternion_group()
    cen = census(g)
    # every non-identity element of a finite planar symplectic group
    # has trivial fixed space
    dims = g.fixed_dimensions()
    assert dims[0] == 2
    assert all(d == 0 for d in dims[1:])
    assert len(cen.symplectic_reflections) == 7
    assert cen.complex_reflections == ()


def test_trace_census_matches_elimination_on_the_catalog():
    for entry in CATALOG:
        g = entry.build()
        codims = [fixed_space(m).codim for m in g.elements]
        assert g.fixed_dimensions() == tuple(g.dimension - c for c in codims), entry.name
        assert census(g) == (
            tuple(i for i, c in enumerate(codims) if c == 2),
            tuple(i for i, c in enumerate(codims) if c == 1),
        ), entry.name


@pytest.mark.parametrize(
    "build, args, exponents",
    [
        (build_weyl, ("B", 3), (1, 3, 5)),
        (build_weyl, ("A", 3), (1, 2, 3)),
        (build_weyl, ("G2",), (1, 5)),
        (build_weyl, ("D", 4), (1, 3, 3, 5)),
        (build_weyl, ("F4",), (1, 5, 7, 11)),
        (build_imprimitive, (4, 1, 3), (3, 7, 11)),
        (build_imprimitive, (3, 3, 3), (2, 5, 2)),
        (build_imprimitive, (4, 2, 2), (3, 3)),
    ],
    ids=["B3", "A3", "G2", "D4", "F4", "G(4,1,3)", "G(3,3,3)", "G(4,2,2)"],
)
def test_census_meets_the_shephard_todd_product(build, args, exponents):
    # Shephard and Todd (1954): a finite complex reflection group with
    # exponents e_i has sum over g of t^(dim V^g) = prod_i (t + e_i)
    group = build(*args)
    counts = [0] * (group.dimension + 1)
    for d in group.fixed_dimensions():
        counts[d] += 1
    product = [1]  # coefficients, lowest degree first
    for e in exponents:
        product = [e * a + b for a, b in zip(product + [0], [0] + product)]
    assert counts == product


def test_a_reflection_subgroup_that_is_not_normal_raises(monkeypatch):
    monkeypatch.setattr(reflections, "is_normal", lambda sub: False)
    with pytest.raises(InvariantViolation):
        reflection_subgroup(block_swap_group())


def test_a_corrupted_trace_breaks_the_census_and_the_lattice():
    # the table sums the traces of each cyclic subgroup once, from its
    # first element; x^2 is another generator of <x> when x has order 5,
    # so its trace is summed only as one of x's powers.  The catalog's
    # builders are cached, and so is the table on a group: corrupt a
    # fresh copy for each call
    def corrupted():
        group = build_sl2_subgroup.__wrapped__("cyclic", 5)
        x2 = group.product_index(1, 1)
        assert x2 != 1
        group.traces = tuple(
            t + 1 if i == x2 else t for i, t in enumerate(group.traces)
        )
        return group

    with pytest.raises(InvariantViolation, match="element 1: the traces"):
        census(corrupted())
    with pytest.raises(InvariantViolation, match="element 1: the traces"):
        build_lattice(corrupted())


def test_a_doubled_group_of_another_order_raises(monkeypatch):
    # doubling is injective, so only a broken doubled_element changes the order
    monkeypatch.setattr(
        reflections, "doubled_element",
        lambda g: ExactMatrix.identity(2 * g.rows, g.conductor),
    )
    with pytest.raises(InvariantViolation, match="order 1, the group 6"):
        double(build_weyl("A", 2))


def test_census_block_swap():
    g = block_swap_group()
    assert sorted(g.fixed_dimensions()) == [2, 4]
    assert len(census(g).symplectic_reflections) == 1


def test_reflection_subgroup_and_positive_verdict():
    g = block_swap_group()
    sub = reflection_subgroup(g)
    assert sub.is_whole_group
    v = verdict(g)
    assert v.kind == VERDICT_HOLDS
    assert v.reflection_subgroup_index == 1
    assert v.duval_note is None  # not a planar action


def test_planar_verdict_carries_duval_note():
    v = verdict(quaternion_group())
    assert v.kind == VERDICT_HOLDS
    assert v.duval_note is not None


def test_negation_group_is_obstructed():
    g = negation_group(4)
    cen = census(g)
    assert cen.symplectic_reflections == ()
    v = verdict(g)
    assert v.kind == VERDICT_OBSTRUCTED
    assert v.reflection_subgroup_order == 1
    assert v.reflection_subgroup_index == 2


def test_trivial_group_passes_vacuously():
    g = FiniteMatrixGroup.closure(4, 1, standard_symplectic_form(4), [])
    v = verdict(g)
    assert v.kind == VERDICT_HOLDS
    assert v.group_order == 1
    assert v.reflection_subgroup_order == 1


def test_mixed_group_with_proper_reflection_subgroup():
    g = reflection_plus_negation_block_group()
    assert g.order == 4
    cen = census(g)
    assert len(cen.symplectic_reflections) == 1
    sub = reflection_subgroup(g)
    assert sub.order == 2
    v = verdict(g, sub)
    assert v.kind == VERDICT_OBSTRUCTED
    assert v.reflection_subgroup_index == 2
    assert z_locus_min_codim(sub) == 4


def test_verdict_refuses_a_subgroup_of_another_group():
    # a foreign subgroup's order says nothing about this group's index
    g, other = negation_group(4), quaternion_group()
    with pytest.raises(ValueError, match="different group"):
        verdict(g, reflection_subgroup(other))
    assert verdict(g, reflection_subgroup(g)) == verdict(g)


def test_z_locus_minimum_codimension():
    g = negation_group(4)
    sub = reflection_subgroup(g)
    assert z_locus_min_codim(sub) == 4
    g6 = negation_group(6)
    assert z_locus_min_codim(reflection_subgroup(g6)) == 6
    # sentinel when the subgroup is everything
    q = quaternion_group()
    assert z_locus_min_codim(reflection_subgroup(q)) == 3


def test_z_locus_for_proper_reflection_subgroups_is_at_least_four():
    for g in (negation_group(4), negation_group(6), reflection_plus_negation_block_group()):
        sub = reflection_subgroup(g)
        assert not sub.is_whole_group
        z = z_locus_min_codim(sub)
        assert z >= 4
        assert z % 2 == 0


def test_complex_reflection_census_and_smoothness():
    s3 = FiniteMatrixGroup.closure(
        3, 1, None, [perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])]
    )
    cen = census(s3)
    assert len(cen.complex_reflections) == 3  # the transpositions
    assert complex_reflections_generate(s3)

    w = Cyc.zeta(3)
    scalar = FiniteMatrixGroup.closure(
        2, 3, None, [ExactMatrix.from_rows([[w, 0], [0, w]], 3)]
    )
    assert census(scalar).complex_reflections == ()
    assert not complex_reflections_generate(scalar)

    line = FiniteMatrixGroup.closure(
        2, 3, None, [ExactMatrix.from_rows([[w, 0], [0, 1]], 3)]
    )
    assert complex_reflections_generate(line)


def test_doubled_element_shape_and_frozen_value():
    w = Cyc.zeta(3)
    g = ExactMatrix.from_rows([[w, 0], [0, 1]], 3)
    d = doubled_element(g)
    assert d == ExactMatrix.from_rows(
        [
            [w, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, w ** -1, 0],
            [0, 0, 0, 1],
        ],
        3,
    )


def test_double_preserves_group_structure():
    s3 = FiniteMatrixGroup.closure(
        3, 1, None, [perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])]
    )
    d = double(s3)
    assert d.order == s3.order
    assert d.dimension == 6
    assert d.omega == pairing_form(3)
    # the map is a bijection onto the doubled element set
    images = {doubled_element(g).key() for g in s3.elements}
    assert images == {m.key() for m in d.elements}
    # and a homomorphism
    for a in s3.elements[:4]:
        for b in s3.elements[:4]:
            assert doubled_element(a * b) == doubled_element(a) * doubled_element(b)


def test_doubling_turns_complex_reflections_into_symplectic_ones():
    s3 = FiniteMatrixGroup.closure(
        3, 1, None, [perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])]
    )
    d = double(s3)
    for g in s3.elements:
        w_codim = fixed_space(g).codim
        v_codim = fixed_space(doubled_element(g)).codim
        assert v_codim == 2 * w_codim
    assert len(census(d).symplectic_reflections) == 3
    assert verdict(d).kind == VERDICT_HOLDS


def test_double_of_non_reflection_action_is_obstructed():
    w = Cyc.zeta(3)
    scalar = FiniteMatrixGroup.closure(
        2, 3, None, [ExactMatrix.from_rows([[w, 0], [0, w]], 3)]
    )
    d = double(scalar)
    v = verdict(d)
    assert v.kind == VERDICT_OBSTRUCTED
    assert v.reflection_subgroup_order == 1
    assert v.reflection_subgroup_index == 3
