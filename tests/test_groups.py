import hashlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sympref import groups
from sympref.catalog import (
    CATALOG,
    build_entry,
    build_symmetric_on_squares,
    build_weyl,
    build_weyl_doubled,
)
from sympref.cyclotomic import ConductorMismatch, CyclotomicNumber
from sympref.groups import (
    FiniteMatrixGroup,
    NotAMember,
    NotSymplectic,
    OrderBoundExceeded,
    SingularGenerator,
    SubgroupHandle,
    _grow,
    conjugacy_classes,
    element_order,
    generated_subgroup,
    is_normal,
    orbits,
    powers,
)
from sympref.linalg import (
    BadForm,
    DimensionMismatch,
    ExactMatrix,
    pairing_form,
    standard_symplectic_form,
)
from sympref.specio import make_group, spec_from_group

from helpers import (
    is_identity, is_member, perm_matrix, quaternion_group, s3_group, transvection,
)

Cyc = CyclotomicNumber


def brute_force_closure(dimension, conductor, gens):
    """Independent oracle: saturate under products until stable."""
    ident = ExactMatrix.identity(dimension, conductor)
    elems = {ident.key(): ident}
    for g in gens:
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
    assert is_identity(g.element(0))
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


def test_closure_moves_rows_without_matrix_products(monkeypatch):
    # Omega's points move as integer coordinate vectors: no 1 x n row is
    # multiplied as a matrix and no element's matrix is stacked from its
    # rows.  Each row of a generator's map, z^b e_i g for coordinate
    # i phi + b, costs one zeta when it is made; every generator moves
    # every point, so making each row once takes one zeta per generator
    # and per coordinate that some point of Omega has nonzero.  Each
    # trace value met is checked once (the identity's is not checked)
    i = Cyc.zeta(4)
    cases = [
        (6, 3, 1, None, [perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])]),
        (8, 2, 4, standard_symplectic_form(2, 4),
         [ExactMatrix.from_rows([[i, 0], [0, -i]], 4),
          ExactMatrix.from_rows([[0, 1], [-1, 0]], 4)]),
    ]
    shapes, stacks, zetas, checks = [], [], [], []
    mul, stack = ExactMatrix.__mul__, ExactMatrix.stack.__func__
    zeta, check = Cyc.zeta.__func__, groups._checked_trace

    def counted(a, b):
        shapes.append((a.rows, a.cols, b.rows, b.cols))
        return mul(a, b)

    def counted_stack(cls, rows):
        stacks.append(len(rows))
        return stack(cls, rows)

    def counted_zeta(cls, conductor, power=1):
        zetas.append(power)
        return zeta(cls, conductor, power)

    def counted_check(t, n, bound):
        checks.append(t)
        return check(t, n, bound)

    for order, n, conductor, omega, gens in cases:
        with monkeypatch.context() as patch:
            patch.setattr(ExactMatrix, "__mul__", counted)
            patch.setattr(ExactMatrix, "stack", classmethod(counted_stack))
            patch.setattr(Cyc, "zeta", classmethod(counted_zeta))
            patch.setattr(groups, "_checked_trace", counted_check)
            group = FiniteMatrixGroup.closure(n, conductor, omega, gens)
        assert group.order == order
        assert [s for s in shapes if s[0] == 1] == []
        assert stacks == []
        nonzero = {
            j * len(e.coeffs) + b
            for m in group.elements for i in range(n)
            for j, e in enumerate(m.row(i)) for b, c in enumerate(e.coeffs) if c
        }
        assert len(zetas) == len(group.generator_indices()) * len(nonzero)
        assert len(checks) == len(set(group.traces[1:]))
        shapes.clear()
        zetas.clear()
        checks.clear()


# a product of integer symplectic transvections per group, (v, c) each
DENSE_BASES = {
    "sl2_binary_octahedral": [((1, 2), 1), ((1, -1), -2), ((3, 1), 1)],
    "weyl_a3_doubled": [
        ((1, 0, 1, -1, 0, 2), 1), ((0, 1, -1, 0, 2, 1), -1), ((1, 1, 0, 0, -1, 0), 2),
    ],
}


@pytest.mark.parametrize("name", sorted(DENSE_BASES))
def test_closure_on_a_dense_basis_matches_brute_force(name):
    # P G P^-1 for P a product of integer symplectic transvections is the
    # same group in a dense basis; the binary octahedral group keeps its
    # half-integer coefficients at conductor 8
    group = build_entry(name)
    n, conductor, omega = group.dimension, group.conductor, group.omega
    p = ExactMatrix.identity(n, conductor)
    for v, c in DENSE_BASES[name]:
        p = p * transvection(v, c, omega)
    p_inv = p.inverse()
    gens = [p * g * p_inv for g in group.generators]
    # no generator stays monomial
    assert all(sum(map(bool, gen.entries)) > n for gen in gens)
    if conductor == 8:
        assert any(
            c.denominator == 2 for g in gens for e in g.entries for c in e.coeffs
        )
    conjugated = FiniteMatrixGroup.closure(n, conductor, omega, gens)
    assert conjugated.order == group.order
    for x in range(conjugated.order):
        m = conjugated.element(x)
        assert conjugated.traces[x] == m.trace()
        assert conjugated.index_of(m) == x
    expected = brute_force_closure(n, conductor, gens)
    assert {m.key() for m in conjugated.elements} == expected


def test_generator_order_renumbers_the_same_elements():
    # an element's index is where the walk met it: each walk meets its
    # own first generator at index 1, and both close the same set
    a = perm_matrix([1, 0, 2])
    b = perm_matrix([0, 2, 1])
    g1 = FiniteMatrixGroup.closure(3, 1, None, [a, b])
    g2 = FiniteMatrixGroup.closure(3, 1, None, [b, a])
    assert {m.key() for m in g1.elements} == {m.key() for m in g2.elements}
    assert g1.element(1).key() == a.key()
    assert g2.element(1).key() == b.key()


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
        # diag(1/2, 2) again at conductor 8, where each entry has 4 coefficients
        (8, [[[Fraction(1, 2), 0], [0, 2]]], "5/2, which is not an algebraic integer"),
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


def _closure_ranks(monkeypatch, omega, generators):
    """The matrices closure ranks, in call order."""
    ranked = []
    rank = ExactMatrix.rank

    def counted(self):
        ranked.append(self)
        return rank(self)

    monkeypatch.setattr(ExactMatrix, "rank", counted)
    FiniteMatrixGroup.closure(4, 1, omega, generators, max_order=1000)
    return ranked


def test_generators_a_form_proves_invertible_are_not_ranked(monkeypatch):
    gens = build_weyl_doubled("A", 2).generators
    omega = pairing_form(2)
    # with a form: only check_form's rank of the form itself
    ranked = _closure_ranks(monkeypatch, omega, gens)
    assert len(ranked) == 1 and ranked[0] is omega
    # without one: each generator once
    ranked = _closure_ranks(monkeypatch, None, gens)
    assert [id(g) for g in ranked] == [id(g) for g in gens]


PRECEDENCE = {
    # a non-symplectic invertible generator 0, a singular generator 1:
    # under a form no generator is ranked, and the form is checked after
    # every generator's shape and conductor
    "singular-after-non-symplectic": (
        "standard", [[[2, 0], [0, 1]], [[1, 0], [0, 0]]],
        NotSymplectic, "generator 0 does not preserve the symplectic form",
    ),
    "singular-with-a-bad-form": (
        ExactMatrix.identity(2), [[[0, 1], [-1, 0]], [[1, 0], [0, 0]]],
        BadForm, "form matrix is not antisymmetric",
    ),
    "singular-before-a-wrong-shape": (
        "standard", [[[0, 0], [0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
        DimensionMismatch, "generator 1 is 3x3, expected 2x2",
    ),
    "non-symplectic-after-symplectic": (
        "standard", [[[0, 1], [-1, 0]], [[2, 0], [0, 1]]],
        NotSymplectic,
        "generator 1 does not preserve the symplectic form",
    ),
    "bad-form": (
        ExactMatrix.identity(2), [[[0, 1], [-1, 0]]],
        BadForm, "form matrix is not antisymmetric",
    ),
    "singular-without-a-form": (
        None, [[[0, 1], [1, 0]], [[1, 0], [0, 0]]],
        SingularGenerator, "generator 1 is singular",
    ),
}


@pytest.mark.parametrize("case", PRECEDENCE.values(), ids=PRECEDENCE)
def test_generator_errors_keep_their_precedence(case):
    form, rows, error, message = case
    omega = standard_symplectic_form(2) if form == "standard" else form
    gens = [ExactMatrix.from_rows(r) for r in rows]
    with pytest.raises(error) as exc:
        FiniteMatrixGroup.closure(2, 1, omega, gens)
    assert type(exc.value) is error and str(exc.value) == message
    if error in (SingularGenerator, NotSymplectic):
        assert exc.value.index == int(message.split()[1])


def test_bad_form_rejected():
    with pytest.raises(BadForm):
        FiniteMatrixGroup.closure(
            2, 1, ExactMatrix.identity(2), [ExactMatrix.identity(2)]
        )


def test_trivial_group():
    g = FiniteMatrixGroup.closure(2, 1, standard_symplectic_form(2), [])
    assert g.order == 1
    assert is_identity(g.element(0))


def test_generator_indices_skip_the_identity_and_repeats():
    a, b = perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])
    one = ExactMatrix.identity(3)
    g = FiniteMatrixGroup.closure(3, 1, None, [one, b, a, b, one, a])
    # the distinct generators in generator order, as index_of finds them,
    # without the identity's index 0
    assert g.generator_indices() == (g.index_of(b), g.index_of(a))
    for k, x in enumerate(g.generator_indices()):
        x_inv = g.inverse_index(x)
        assert g.conjugations()[k] == tuple(
            g.product_index(g.product_index(x, y), x_inv) for y in range(g.order)
        )


def test_membership_and_indexing():
    g = s3_group()
    three_cycle = perm_matrix([1, 2, 0])
    assert is_member(g, three_cycle)
    assert element_order(g, g.index_of(three_cycle)) == 3
    assert not is_member(g, ExactMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(NotAMember):
        g.index_of(ExactMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    # every row lies in Omega, but together they form no element
    with pytest.raises(NotAMember):
        g.index_of(ExactMatrix.from_rows([[1, 0, 0], [1, 0, 0], [0, 0, 1]]))
    # a matrix at another conductor is a caller's error, not a non-member
    with pytest.raises(ConductorMismatch):
        is_member(g, ExactMatrix.identity(3, 5))


def test_product_and_inverse_indices():
    g = quaternion_group()
    for i in range(g.order):
        inv = g.inverse_index(i)
        assert g.product_index(i, inv) == 0
        assert g.product_index(inv, i) == 0


@pytest.mark.parametrize(
    "name",
    [
        "symmetric_n3", "imprimitive_3_1_2", "sl2_binary_tetrahedral",
        "sl2_binary_octahedral", "sl2_binary_icosahedral",
    ],
)
def test_index_arithmetic_matches_exact_matrices(name):
    # imprimitive_3_1_2 is built by doubling, the others by closure; the
    # binary octahedral and icosahedral groups have elements of order 8
    # and 10, whose inverses are long walks along their powers
    g = build_entry(name)
    for i, a in enumerate(g.elements):
        assert g.inverse_index(i) == g.index_of(a.inverse())
        for j, b in enumerate(g.elements):
            assert g.product_index(i, j) == g.index_of(a * b)


@pytest.mark.parametrize(
    "name", [e.name for e in CATALOG if e.expected_order <= 54]
)
def test_element_matrices_are_built_from_rows_and_found_again(name):
    g = build_entry(name)
    assert list(g.elements) == [g.element(i) for i in range(g.order)]
    assert [g.index_of(g.element(i)) for i in range(g.order)] == list(range(g.order))


def test_membership_keys_are_canonical_coefficients():
    # Omega's points are keyed by their entries' coefficient tuples,
    # which are canonical at one conductor: an entry given as an
    # unreduced Fraction is stored as the int it equals
    g = build_entry("sl2_binary_octahedral")
    assert g.conductor == 8
    assert any(
        isinstance(c, Fraction) for a in g.elements for e in a.entries for c in e.coeffs
    )
    assert [g.index_of(g.element(i)) for i in range(g.order)] == list(range(g.order))

    def unreduced(e):
        # an integral entry n as the Fraction 2n / 2, any other entry
        # with each coefficient c given as 2c / 2
        n = e.rational_value()
        if n is not None and n.denominator == 1:
            return Fraction(2 * n, 2)
        return Cyc(8, [Fraction(2 * c, 2) for c in e.coeffs])

    for i in range(g.order):
        copy = ExactMatrix.from_rows(
            [[unreduced(e) for e in row] for row in g.element(i).row_lists()], 8
        )
        assert g.index_of(copy) == i
    one = ExactMatrix.identity(2, 8)
    for outsider in (
        one.scale(Fraction(1, 2)),
        g.element(1).scale(2),
        # both rows lie in Omega, but together they form no element
        ExactMatrix.stack([ExactMatrix(1, 2, 8, one.row(0))] * 2),
    ):
        with pytest.raises(NotAMember):
            g.index_of(outsider)


@pytest.mark.parametrize("index", [-1, 6, 7, -7])
def test_an_index_outside_the_group_is_not_a_member(index):
    g = build_entry("symmetric_n3")
    for read in (g.element, g.word, lambda i: powers(g, i)):
        with pytest.raises(NotAMember, match="element index out of range"):
            read(index)


def test_powers_are_the_cyclic_subgroup():
    g = quaternion_group()
    for i in range(g.order):
        cyclic = powers(g, i)
        assert cyclic[0] == 0
        assert len(set(cyclic)) == len(cyclic) == element_order(g, i)
        assert generated_subgroup(g, [i]).indices() == tuple(sorted(cyclic))


@pytest.mark.parametrize(
    "family, rank, classes", [("B", 3, 10), ("D", 4, 13), ("F4", None, 25)]
)
def test_weyl_group_class_counts(family, rank, classes):
    assert len(conjugacy_classes(build_weyl(family, rank))) == classes


def partitions(n, largest=None):
    """Every partition of n, as a tuple of parts in decreasing order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def symmetric_on_planes_codims(n):
    # a permutation of cycle type lambda fixes one plane per cycle
    return [2 * (n - len(lam)) for lam in partitions(n)]


def doubled_b_codims(n):
    # a signed permutation's class is a pair (alpha, beta) of partitions
    # of its positive and negative cycles; each positive cycle fixes a
    # line of C^n, and doubling doubles the codimension
    return [
        2 * (n - len(alpha))
        for k in range(n + 1)
        for alpha in partitions(k)
        for _ in partitions(n - k)
    ]


@pytest.mark.parametrize(
    "family, n", [("planes", n) for n in range(2, 6)] + [("B", n) for n in range(2, 5)]
)
def test_class_counts_per_codimension_match_the_betti_numbers(family, n):
    # these quotients have symplectic resolutions, whose Betti number
    # b_2i counts the conjugacy classes of fixed-space codimension 2i
    # (Batyrev 1999; Kaledin 2002); the closed forms count partitions
    if family == "planes":
        group, codims = build_symmetric_on_squares(n), symmetric_on_planes_codims(n)
    else:
        group, codims = build_weyl_doubled(family, n), doubled_b_codims(n)
    dims = group.fixed_dimensions()
    counted = Counter(group.dimension - dims[c[0]] for c in conjugacy_classes(group))
    assert counted == Counter(codims)


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


@pytest.mark.parametrize(
    "name", [e.name for e in CATALOG if e.expected_order <= 54]
)
def test_subgroup_masks_match_a_brute_force_closure(name):
    # seeds: each generator alone, the last two elements, and the
    # elements of the first and the last conjugacy class together
    g = build_entry(name)
    classes = conjugacy_classes(g)
    seed_sets = [[i] for i in g.generator_indices()] + [
        [g.order - 1, g.order - 2], [*classes[0], *classes[-1]], [],
    ]
    for seeds in seed_sets:
        h = generated_subgroup(g, seeds)
        gens = [g.element(i) for i in seeds]
        members = brute_force_closure(g.dimension, g.conductor, gens)
        expected = sorted(
            i for i in range(g.order) if g.element(i).key() in members
        )
        assert h.indices() == tuple(expected), (name, seeds)
        assert h.order == h.mask.bit_count() == len(members)
        assert h.is_whole_group == (len(members) == g.order)


def test_growth_draws_no_candidate_once_the_target_is_met():
    # the lattice passes its Schreier generators lazily: each one drawn
    # costs two products, so none is made once the stabilizer is reached
    g = s3_group()
    drawn = []

    def candidates():
        for x in range(1, g.order):
            drawn.append(x)
            yield x

    kept, members = _grow(g, candidates(), g.order)
    assert members == set(range(g.order))
    assert drawn[-1] == kept[-1] < g.order - 1
    drawn.clear()
    assert _grow(g, candidates(), 1) == ([], {0})
    assert drawn == []


def test_a_subgroup_mask_stays_inside_the_group():
    g = s3_group()
    assert SubgroupHandle(g, (1 << g.order) - 1).is_whole_group
    for mask in (1 << g.order, -1):
        with pytest.raises(ValueError, match="outside the group"):
            SubgroupHandle(g, mask)
    # a subgroup holds the identity, element 0, so a verdict never
    # divides by an order of 0 or reads a subset that is no subgroup
    for mask in (0, 0b10):
        with pytest.raises(ValueError, match="identity"):
            SubgroupHandle(g, mask)


def test_normality():
    g = s3_group()
    h3 = generated_subgroup(g, [g.index_of(perm_matrix([1, 2, 0]))])
    h2 = generated_subgroup(g, [g.index_of(perm_matrix([1, 0, 2]))])
    assert is_normal(h3)
    assert not is_normal(h2)
    assert is_normal(generated_subgroup(g, []))
    assert is_normal(generated_subgroup(g, list(range(g.order))))


def test_conjugacy_classes_partition_the_group():
    for build in (s3_group, quaternion_group):
        g = build()
        classes = conjugacy_classes(g)
        seen = [i for c in classes for i in c]
        assert sorted(seen) == list(range(g.order))
        assert classes[0] == (0,)
        for c in classes:
            assert g.order % len(c) == 0


def brute_force_orbits(points, moves):
    """Independent oracle: grow each point's class under the moves and
    their inverses until nothing changes."""
    reach = [{p} for p in range(points)]
    changed = True
    while changed:
        changed = False
        for r in reach:
            grown = {m[q] for m in moves for q in r}
            grown |= {q for m in moves for q in range(points) if m[q] in r}
            if not grown <= r:
                r |= grown
                changed = True
    return tuple(sorted({tuple(sorted(r)) for r in reach}))


@given(
    st.integers(0, 10).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.permutations(range(n)), max_size=3)
        )
    )
)
def test_orbits_match_a_brute_force_partition(case):
    points, moves = case
    assert orbits(points, moves) == brute_force_orbits(points, moves)


def group_digest(group):
    """A short hash of a group's element keys, its traces, and the
    product of every element with every generator, by index in the key
    order: the identity first, then the other elements sorted by key.
    The closure numbers elements in the order its walk met them; the
    digest renumbers them here, so that it does not depend on that
    numbering and the pinned values below still apply."""
    keys = [m.key() for m in group.elements]
    order = [0] + sorted(range(1, group.order), key=keys.__getitem__)
    rank = {x: r for r, x in enumerate(order)}
    walked = group.generator_indices()
    return hashlib.sha256(repr((
        [keys[i] for i in order],
        [group.traces[i].key() for i in order],
        tuple(rank[j] for j in walked),
        [[rank[group.product_index(i, j)] for j in walked] for i in order],
    )).encode()).hexdigest()[:16]


# recorded from the closure that multiplied whole matrices: a change to
# how a group is built must give the same elements, the same traces and
# the same products, whatever order it numbers them in
PINNED_DIGESTS = {
    "symmetric_n2": "3de3dac8aec3cc0a",
    "symmetric_n3": "7334ea352492d392",
    "symmetric_n4": "ee43105a2592f3d4",
    "weyl_a2_doubled": "f6948acf35283203",
    "weyl_a3_doubled": "32f04257eb53b0b4",
    "weyl_b2_doubled": "7718fdefe1184212",
    "weyl_c2_doubled": "e37ba4d389e04c18",
    "weyl_d3_doubled": "67a04138b4456efe",
    "weyl_g2_doubled": "60bf923e317c61c0",
    "sl2_cyclic_2": "3ad24a716c348b8f",
    "sl2_cyclic_3": "6397bd2e356c204c",
    "sl2_cyclic_5": "0a30003e8dca7c6b",
    "sl2_binary_dihedral_2": "5f02887d83320940",
    "sl2_binary_dihedral_3": "906e70e0cfe927b1",
    "sl2_binary_tetrahedral": "b2f882251dbe7169",
    "sl2_binary_octahedral": "646ba961de32c0b1",
    "sl2_binary_icosahedral": "f575829645a4214c",
    "imprimitive_2_1_2": "1a6e086eb7ed175c",
    "imprimitive_2_2_2": "4c72f798fd92ddc8",
    "imprimitive_3_1_2": "97679af5ccb3c7c7",
    "imprimitive_4_2_2": "ac073f566d5bd4cb",
    "imprimitive_2_1_3": "52b82cac7200d99c",
    "imprimitive_3_3_3": "a6c09fe22973e1fa",
    "negation_c4": "5e3b3b7929c8686a",
    "negation_c6": "cf58359558895b28",
}

DOUBLED_ENTRIES = [
    e.name for e in CATALOG if e.name.startswith(("weyl_", "imprimitive_"))
]


def test_every_catalog_entry_has_a_pinned_digest():
    assert sorted(PINNED_DIGESTS) == sorted(e.name for e in CATALOG)


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_catalog_group_digests_are_pinned(name):
    assert group_digest(build_entry(name)) == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", DOUBLED_ENTRIES)
def test_a_doubled_entry_closed_from_its_spec_keeps_its_digest(name):
    spec = spec_from_group(name, build_entry(name))
    assert group_digest(make_group(spec)) == PINNED_DIGESTS[name]


@pytest.mark.parametrize(
    "build, digest",
    [
        pytest.param(lambda: build_symmetric_on_squares(5), "8759cd72b91ec94d",
                     id="S5_on_planes"),
        pytest.param(lambda: build_weyl_doubled("F4"), "c2cccc47771fa441",
                     id="F4_doubled"),
    ],
)
def test_larger_group_digests_are_pinned(build, digest):
    assert group_digest(build()) == digest


@st.composite
def monomial_generators(draw):
    """Up to three monomial matrices of dimension at most 3 whose
    nonzero entries are signed powers of zeta_m, m in (1, 3, 4)."""
    n = draw(st.integers(1, 3))
    conductor = draw(st.sampled_from((1, 3, 4)))
    z = Cyc.zeta(conductor)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        images = draw(st.permutations(range(n)))
        rows = [[0] * n for _ in range(n)]
        for src, dst in enumerate(images):
            sign = draw(st.sampled_from((1, -1)))
            rows[dst][src] = z ** draw(st.integers(0, conductor - 1)) * sign
        gens.append(ExactMatrix.from_rows(rows, conductor))
    return n, conductor, gens


@settings(max_examples=25, deadline=None)
@given(monomial_generators())
def test_closure_matches_brute_force_on_monomial_groups(case):
    n, conductor, gens = case
    try:
        g = FiniteMatrixGroup.closure(n, conductor, None, gens, max_order=48)
    except OrderBoundExceeded:
        assume(False)
    keys = [m.key() for m in g.elements]
    assert set(keys) == brute_force_closure(n, conductor, gens)
    assert is_identity(g.elements[0])
    # walk order: the distinct generators first, then no element has a
    # shorter word than one met before it
    k = len(g.generator_indices())
    assert g.generator_indices() == tuple(range(1, k + 1))
    lengths = [len(g.word(i)) for i in range(g.order)]
    assert lengths == sorted(lengths)
    assert list(g.traces) == [m.trace() for m in g.elements]
