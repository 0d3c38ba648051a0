import pytest

from sympref import reflections
from sympref.catalog import CATALOG
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

Cyc = CyclotomicNumber


def diagonal(*values):
    n = len(values)
    return ExactMatrix.from_rows(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def perm_matrix(images):
    n = len(images)
    rows = [[0] * n for _ in range(n)]
    for src, dst in enumerate(images):
        rows[dst][src] = 1
    return ExactMatrix.from_rows(rows)


def quaternion_group():
    i = Cyc.zeta(4)
    return FiniteMatrixGroup.closure(
        2, 4, standard_symplectic_form(2, 4),
        [ExactMatrix.from_rows([[i, 0], [0, -i]]),
         ExactMatrix.from_rows([[0, 1], [-1, 0]])],
    )


def block_swap_group():
    # the two-element group exchanging the two planes of C^4
    swap = perm_matrix([2, 3, 0, 1])
    return FiniteMatrixGroup.closure(
        4, 1, standard_symplectic_form(4), [swap]
    )


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
    assert cen.codims[0] == 0
    assert all(c == 2 for c in cen.codims[1:])
    assert cen.symplectic_reflection_count == 7
    assert cen.complex_reflections == ()


def test_trace_census_matches_elimination_on_the_catalog():
    for entry in CATALOG:
        g = entry.build()
        assert census(g).codims == tuple(
            fixed_space(m).codim for m in g.elements
        ), entry.name


def test_a_reflection_subgroup_that_is_not_normal_raises(monkeypatch):
    monkeypatch.setattr(reflections, "is_normal", lambda group, sub: False)
    with pytest.raises(InvariantViolation):
        reflection_subgroup(block_swap_group())


def test_census_block_swap():
    g = block_swap_group()
    cen = census(g)
    assert sorted(cen.codims) == [0, 2]
    assert len(cen.symplectic_reflections) == 1


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
    sub = reflection_subgroup(g, cen)
    assert sub.order == 2
    v = verdict(g, cen, sub)
    assert v.kind == VERDICT_OBSTRUCTED
    assert v.reflection_subgroup_index == 2
    assert z_locus_min_codim(g, sub, cen) == 4


def test_z_locus_minimum_codimension():
    g = negation_group(4)
    sub = reflection_subgroup(g)
    assert z_locus_min_codim(g, sub) == 4
    g6 = negation_group(6)
    assert z_locus_min_codim(g6, reflection_subgroup(g6)) == 6
    # sentinel when the subgroup is everything
    q = quaternion_group()
    assert z_locus_min_codim(q, reflection_subgroup(q)) == 3


def test_z_locus_for_proper_reflection_subgroups_is_at_least_four():
    for g in (negation_group(4), negation_group(6), reflection_plus_negation_block_group()):
        sub = reflection_subgroup(g)
        assert not sub.is_whole_group
        z = z_locus_min_codim(g, sub)
        assert z >= 4
        assert z % 2 == 0


def test_complex_reflection_census_and_smoothness():
    s3 = FiniteMatrixGroup.closure(
        3, 1, None, [perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])]
    )
    cen = census(s3)
    assert len(cen.complex_reflections) == 3  # the transpositions
    assert complex_reflections_generate(s3, cen)

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
