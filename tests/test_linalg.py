import random
from collections import Counter
from fractions import Fraction

import pytest

from sympref.cyclotomic import ConductorMismatch, CyclotomicNumber
from sympref.groups import FiniteMatrixGroup
from sympref.linalg import (
    BadForm,
    DimensionMismatch,
    ExactMatrix,
    SingularMatrix,
    Subspace,
    check_form,
    fixed_space,
    form_restriction_nondegenerate,
    is_symplectic,
    pairing_form,
    standard_symplectic_form,
)

from helpers import apply, is_identity, is_member

Cyc = CyclotomicNumber


def rand_matrix(rng, n, m=1):
    return ExactMatrix.from_rows(
        [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)],
        m,
    )


def test_multiplication_frozen_value():
    a = ExactMatrix.from_rows([[1, 1], [0, 1]])
    b = ExactMatrix.from_rows([[1, 0], [1, 1]])
    assert (a * b) == ExactMatrix.from_rows([[2, 1], [1, 1]])
    assert (b * a) == ExactMatrix.from_rows([[1, 1], [1, 2]])


def test_identity_and_shapes():
    ident = ExactMatrix.identity(3)
    a = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert ident * a == a
    assert a * ident == a
    with pytest.raises(DimensionMismatch):
        a * ExactMatrix.identity(2)


def test_from_rows_takes_its_conductor_as_given():
    # only parsing changes a scalar's conductor; from_rows lifts ints and
    # Fractions and refuses a cyclotomic entry at any other conductor
    i = Cyc.zeta(4)
    w = Cyc.zeta(3)
    with pytest.raises(ConductorMismatch):
        ExactMatrix.from_rows([[i, 0], [0, w]], 12)
    with pytest.raises(ConductorMismatch):
        ExactMatrix.from_rows([[i, 0], [0, 1]])
    a = ExactMatrix.from_rows([[i.promote(12), 0], [0, w.promote(12)]], 12)
    assert a.conductor == 12
    assert a.entry(0, 0) == i
    assert a.entry(1, 1) == w


def test_inverse_frozen_values():
    a = ExactMatrix.from_rows([[1, 1], [0, 1]])
    assert a.inverse() == ExactMatrix.from_rows([[1, -1], [0, 1]])
    i = Cyc.zeta(4)
    d = ExactMatrix.from_rows([[i, 0], [0, 1]], 4)
    assert d.inverse() == ExactMatrix.from_rows([[-i, 0], [0, 1]], 4)


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(SingularMatrix):
        ExactMatrix.from_rows([[1, 1], [1, 1]]).inverse()
    # a product through C^r has rank at most r; the message names the
    # rank, counted among the pivots of the left block of [A | I]
    rng = random.Random(37)
    zeta = Cyc.zeta(3)
    n = 4
    for r in range(n):
        a = ExactMatrix.zero(n, n, 3)
        while a.rank() < r:
            left = ExactMatrix.from_rows(
                [[rng.choice((-1, 0, 1, zeta)) for _ in range(r)] for _ in range(n)], 3
            )
            right = ExactMatrix.from_rows(
                [[rng.choice((-1, 0, 2, zeta)) for _ in range(n)] for _ in range(r)], 3
            )
            a = left * right
        with pytest.raises(SingularMatrix, match="rank %d < %d" % (r, n)):
            a.inverse()


def test_inverse_round_trip_sampled():
    rng = random.Random(23)
    found = 0
    while found < 10:
        a = rand_matrix(rng, 3)
        try:
            inv = a.inverse()
        except SingularMatrix:
            continue
        found += 1
        assert a * inv == ExactMatrix.identity(3)
        assert inv * a == ExactMatrix.identity(3)


def test_rank_frozen_values():
    assert ExactMatrix.from_rows([[0, 0], [1, 2]]).rank() == 1
    assert ExactMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1
    assert ExactMatrix.identity(4).rank() == 4
    assert ExactMatrix.zero(3, 3).rank() == 0


def test_kernel_frozen_value():
    a = ExactMatrix.from_rows([[1, 1, 1]])
    ker = a.kernel()
    assert ker.dim == 2
    expected = Subspace.from_spanning(3, [[1, 0, -1], [0, 1, -1]])
    assert ker == expected
    for vec in ker.basis:
        assert not any(apply(a, vec))


def test_kernel_of_invertible_matrix_is_trivial():
    assert ExactMatrix.identity(3).kernel().dim == 0


def test_subspace_canonical_form():
    s1 = Subspace.from_spanning(2, [[1, 1], [1, -1]])
    s2 = Subspace.from_spanning(2, [[1, 0], [0, 1]])
    assert s1 == s2
    assert s1.key() == s2.key()
    assert hash(s1) == hash(s2)
    # redundant spanning vectors collapse
    s3 = Subspace.from_spanning(3, [[1, 2, 3], [2, 4, 6]])
    assert s3.dim == 1


def test_subspace_membership():
    s = Subspace.from_spanning(3, [[1, 0, -1], [0, 1, -1]])
    assert s.contains_vector([1, 1, -2])
    assert not s.contains_vector([1, 1, 1])
    assert s.contains_vector([0, 0, 0])


def test_subspace_intersection_frozen_value():
    a = Subspace.from_spanning(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.from_spanning(3, [[0, 1, 0], [0, 0, 1]])
    cap = a.intersect(b)
    assert cap == Subspace.from_spanning(3, [[0, 1, 0]])
    full = Subspace.full(3)
    assert full.intersect(a) == a
    zero = Subspace.from_spanning(3, [])
    assert zero.intersect(a).dim == 0


def test_subspace_intersection_sampled_is_contained_in_both():
    rng = random.Random(29)
    for _ in range(10):
        vecs_a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        vecs_b = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        a = Subspace.from_spanning(4, vecs_a)
        b = Subspace.from_spanning(4, vecs_b)
        cap = a.intersect(b)
        assert cap.is_subspace_of(a)
        assert cap.is_subspace_of(b)
        assert cap.dim >= a.dim + b.dim - 4


def stacked_intersection(a, b):
    # the construction from both bases stacked as columns: A u + B v = 0
    # exactly when A u lies in both spans
    m, n = a.conductor, a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.from_spanning(n, [], m)
    combos = ExactMatrix.from_rows(
        [[vec[i] for vec in a.basis + b.basis] for i in range(n)], m
    ).kernel()
    vectors = []
    for coeff in combos.basis:
        vec = [Cyc.zero(m)] * n
        for c, bas in zip(coeff[: a.dim], a.basis):
            vec = [x + c * y for x, y in zip(vec, bas)]
        vectors.append(vec)
    return Subspace.from_spanning(n, vectors, m)


@pytest.mark.parametrize("conductor", [3, 4])
def test_intersection_is_symmetric_and_matches_the_stacked_kernel(conductor):
    rng = random.Random(41 + conductor)
    zeta = Cyc.zeta(conductor)

    def vector():
        return [rng.choice((-1, 0, 0, 1, zeta, -zeta)) for _ in range(6)]

    dims = set()
    for _ in range(25):
        # both spans draw on one pool, so the meets are often nonzero
        pool = [vector() for _ in range(4)]
        a, b = (
            Subspace.from_spanning(
                6,
                rng.sample(pool, rng.randint(0, 4)) + [vector() for _ in range(rng.randint(0, 2))],
                conductor,
            )
            for _ in range(2)
        )
        cap = a.intersect(b)
        assert cap == b.intersect(a) == stacked_intersection(a, b)
        dims.add(cap.dim)
    assert len(dims) >= 3


def test_join_dim_is_the_dimension_of_the_sum():
    rng = random.Random(31)
    zeta = Cyc(3, [0, 1])

    def vector():
        return [rng.choice((-1, 0, 1, zeta)) for _ in range(5)]

    for _ in range(20):
        # both spans draw on one pool of three vectors, so they overlap
        pool = [vector() for _ in range(3)]
        a, b = (
            Subspace.from_spanning(
                5,
                rng.sample(pool, rng.randint(0, 3)) + [vector()] * rng.randint(0, 1),
                3,
            )
            for _ in range(2)
        )
        total = Subspace.from_spanning(5, list(a.basis) + list(b.basis), 3)
        assert a.join_dim(b) == b.join_dim(a) == total.dim
        assert a.join_dim(b) == a.dim + b.dim - a.intersect(b).dim
    with pytest.raises(DimensionMismatch):
        Subspace.full(3).join_dim(Subspace.full(4))


def test_fixed_space_of_coordinate_swap():
    swap = ExactMatrix.from_rows([[0, 1], [1, 0]])
    fs = fixed_space(swap)
    assert fs == Subspace.from_spanning(2, [[1, 1]])
    assert fs.codim == 1
    assert fixed_space(ExactMatrix.identity(5)).dim == 5
    assert fixed_space(-ExactMatrix.identity(4)).dim == 0


def test_standard_symplectic_form_frozen_value():
    omega = standard_symplectic_form(4)
    assert omega == ExactMatrix.from_rows(
        [
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ]
    )
    check_form(omega)
    with pytest.raises(BadForm):
        standard_symplectic_form(3)


def test_pairing_form_frozen_value():
    omega = pairing_form(2)
    assert omega == ExactMatrix.from_rows(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
        ]
    )
    check_form(omega)


def test_check_form_rejects_bad_forms():
    with pytest.raises(BadForm):
        check_form(ExactMatrix.from_rows([[0, 1], [1, 0]]))
    with pytest.raises(BadForm):
        check_form(ExactMatrix.zero(2, 2))
    with pytest.raises(BadForm):
        check_form(ExactMatrix.identity(4))


def test_is_symplectic():
    omega = standard_symplectic_form(4)
    block_swap = ExactMatrix.from_rows(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ]
    )
    assert is_symplectic(block_swap, omega)
    assert is_symplectic(-ExactMatrix.identity(4), omega)
    omega2 = standard_symplectic_form(2)
    assert is_symplectic(
        ExactMatrix.from_rows([[2, 0], [0, Fraction(1, 2)]]), omega2
    )
    assert not is_symplectic(ExactMatrix.from_rows([[2, 0], [0, 1]]), omega2)


def test_form_restriction_nondegeneracy():
    omega = standard_symplectic_form(4)
    good = Subspace.from_spanning(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    bad = Subspace.from_spanning(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert form_restriction_nondegenerate(omega, good)
    assert not form_restriction_nondegenerate(omega, bad)
    assert form_restriction_nondegenerate(omega, Subspace.from_spanning(4, []))
    assert form_restriction_nondegenerate(omega, Subspace.full(4))


def test_basis_matrix_is_ambient_by_dim():
    # the zero subspace included: its n x 0 basis still multiplies
    for n in (3, 4):
        for vectors in ([], [[1] + [0] * (n - 1)], [[1] * n, [0, 1] + [0] * (n - 2)]):
            space = Subspace.from_spanning(n, vectors)
            basis = space.basis_matrix()
            assert (basis.rows, basis.cols) == (n, space.dim)
            assert [list(basis.transpose().row(i)) for i in range(space.dim)] == [
                list(vec) for vec in space.basis
            ]
    zero = Subspace.from_spanning(4, []).basis_matrix()
    gram = zero.transpose() * standard_symplectic_form(4) * zero
    assert (gram.rows, gram.cols) == (0, 0)


def test_transpose_and_apply():
    a = ExactMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert a.transpose() == ExactMatrix.from_rows([[1, 3, 5], [2, 4, 6]])
    assert apply(a, [1, 1]) == (
        Cyc.rational(3), Cyc.rational(7), Cyc.rational(11),
    )
    rng = random.Random(43)
    zeta = Cyc.zeta(4)
    for _ in range(5):
        b = ExactMatrix.from_rows(
            [[rng.choice((-2, 0, 1, zeta)) for _ in range(4)] for _ in range(3)], 4
        )
        v = [rng.choice((0, 1, -zeta, Fraction(1, 2))) for _ in range(4)]
        expected = tuple(
            sum((b.entry(i, j) * v[j] for j in range(4)), Cyc.zero(4))
            for i in range(3)
        )
        assert apply(b, v) == expected
    with pytest.raises(DimensionMismatch):
        apply(a, [1, 1, 1])


def test_stack_shares_its_rows():
    z = Cyc.zeta(4)
    rows = [ExactMatrix.from_rows([r], 4) for r in ([1, z, 0], [0, -1, z ** 2])]
    m = ExactMatrix.stack(rows)
    assert m == ExactMatrix.from_rows([[1, z, 0], [0, -1, z ** 2]], 4)
    assert m.key() == tuple(e.key() for e in m.entries)
    assert all(a is b for a, b in zip(m.entries, rows[0].entries + rows[1].entries))


def test_trace_adds_the_diagonal_coefficient_wise_in_one_construction(monkeypatch):
    ident = ExactMatrix.identity(12)
    calls = Counter()
    for name in ("__add__", "__radd__", "__init__"):
        def counted(*args, _name=name, _fn=vars(Cyc)[name]):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(Cyc, name, counted)
    assert ident.trace() == 12
    # no scalar additions, and no public constructions
    assert calls == Counter()
    monkeypatch.undo()
    z = Cyc.zeta(3)
    square = ExactMatrix.from_rows([[z, 5], [7, Fraction(1, 2) - z]], 3)
    assert square.trace() == Fraction(1, 2)
    assert ExactMatrix.identity(0, 4).trace() == Cyc.zero(4)
    with pytest.raises(DimensionMismatch):
        ExactMatrix.zero(2, 3).trace()


def test_is_identity():
    assert is_identity(ExactMatrix.identity(3))
    assert is_identity(ExactMatrix.identity(2, 5))
    assert is_identity(ExactMatrix.identity(0))
    assert not is_identity(ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
    assert not is_identity(ExactMatrix.from_rows([[1], [0]]))
    assert not is_identity(ExactMatrix.from_rows([[1, 0], [0, 2]]))
    assert not is_identity(ExactMatrix.from_rows([[1, 1], [0, 1]]))
    assert not is_identity(ExactMatrix.from_rows([[Cyc.zeta(3), 0], [0, 1]], 3))
    assert not is_identity(ExactMatrix.zero(2, 2))


def test_matrix_equality_across_conductors():
    a = ExactMatrix.identity(2, 4)
    b = ExactMatrix.identity(2, 3)
    assert a == b
    assert hash(a) == hash(b)


def test_mixed_conductor_operands_raise():
    # conductors are reconciled only at parsing; past that, mixing them
    # is a caller's error, in from_rows, group closure and membership too
    a, b = ExactMatrix.identity(2, 4), ExactMatrix.identity(2, 3)
    s, t = Subspace.full(2, 4), Subspace.from_spanning(2, [[1, 0]], 3)
    w = Cyc.zeta(3)
    quarter_turn = [[0, 1], [-1, 0]]
    group = FiniteMatrixGroup.closure(
        2, 4, standard_symplectic_form(2, 4),
        [ExactMatrix.from_rows(quarter_turn, 4)],
    )
    for operation in (
        lambda: a * b,
        lambda: a + b,
        lambda: a - b,
        lambda: a.scale(w),
        lambda: apply(a, [w, 0]),
        lambda: s.join_dim(t),
        lambda: t.join_dim(s),
        lambda: s.is_subspace_of(t),
        lambda: t.is_subspace_of(s),
        lambda: s.intersect(t),
        lambda: s.contains_vector([w, 0]),
        lambda: Subspace.from_spanning(2, [[w, 0]], 4),
        lambda: ExactMatrix.from_rows([[w, 0], [0, 1]], 4),
        lambda: FiniteMatrixGroup.closure(
            2, 4, None, [ExactMatrix.from_rows(quarter_turn)]
        ),
        lambda: FiniteMatrixGroup.closure(
            2, 12, standard_symplectic_form(2, 4),
            [ExactMatrix.from_rows(quarter_turn, 12)],
        ),
        lambda: group.index_of(b),
        lambda: is_member(group, b),
    ):
        with pytest.raises(ConductorMismatch):
            operation()
    # subspaces of different conductors are different objects, even
    # when their bases agree entrywise
    assert Subspace.full(2, 4) != Subspace.full(2, 3)
    assert a.scale(Cyc.zeta(4)) == ExactMatrix.from_rows(
        [[Cyc.zeta(4), 0], [0, Cyc.zeta(4)]], 4
    )
