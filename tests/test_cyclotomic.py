import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympref.cyclotomic import (
    ConductorMismatch,
    CyclotomicNumber,
    DivisionByZero,
    NotASubfield,
    _normalized_trace_table,
    _reduce,
    cyclotomic_polynomial,
    euler_phi,
    mobius,
)
from sympref.linalg import ExactMatrix
from sympref.specio import MAX_CONDUCTOR

Cyc = CyclotomicNumber


def rand_cyc(rng, m, max_num=9):
    phi = euler_phi(m)
    return Cyc(
        m,
        [
            Fraction(rng.randint(-max_num, max_num), rng.randint(1, 4))
            for _ in range(phi)
        ],
    )


def test_cyclotomic_polynomials_match_known_tables():
    # ascending coefficients
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # the first index with a coefficient outside {-1, 0, 1}
    assert cyclotomic_polynomial(105)[7] == -2


def test_euler_phi_and_mobius():
    assert [euler_phi(m) for m in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]
    assert [mobius(m) for m in range(1, 11)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1,
    ]


def _brute_mobius(m):
    if any(m % (k * k) == 0 for k in range(2, m + 1)):
        return 0
    primes = [
        p for p in range(2, m + 1)
        if m % p == 0 and all(p % q for q in range(2, p))
    ]
    return (-1) ** len(primes)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _mobius_product(m):
    # prod over d | m of (z^d - 1)^mu(m/d): the factors with mu = 1 over
    # those with mu = -1, divided exactly (the divisor is monic)
    num, den = [1], [1]
    for d in (d for d in range(1, m + 1) if m % d == 0):
        mu = _brute_mobius(m // d)
        factor = [-1] + [0] * (d - 1) + [1]
        if mu == 1:
            num = _poly_mul(num, factor)
        elif mu == -1:
            den = _poly_mul(den, factor)
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = num[i + len(den) - 1]
        for j, c in enumerate(den):
            num[i + j] -= quot[i] * c
    assert not any(num)
    return tuple(quot)


def test_number_theory_matches_brute_force_for_every_admitted_conductor():
    for m in range(1, MAX_CONDUCTOR + 1):
        assert cyclotomic_polynomial(m) == _mobius_product(m), m
        assert euler_phi(m) == sum(math.gcd(k, m) == 1 for k in range(1, m + 1)), m
        assert mobius(m) == _brute_mobius(m), m


def test_addition_frozen_values():
    half = Cyc.rational(Fraction(1, 2))
    assert (half + half).rational_value() == 1
    i = Cyc.zeta(4)
    assert not i + (-i)
    w = Cyc.zeta(3)
    s = (Cyc.one(3) + w) + w
    assert s.coeffs == (Fraction(1), Fraction(2))


def test_multiplication_reduces_modulo_cyclotomic_polynomial():
    i = Cyc.zeta(4)
    assert (i * i).rational_value() == -1
    w = Cyc.zeta(3)
    # z^2 = -1 - z modulo z^2 + z + 1
    assert (w * w).coeffs == (Fraction(-1), Fraction(-1))
    z5 = Cyc.zeta(5)
    assert (z5 * Cyc.zeta(5, 4)).rational_value() == 1


def test_zeta_has_exact_multiplicative_order():
    for m in (1, 2, 3, 4, 5, 6, 8, 12, 20):
        z = Cyc.zeta(m)
        assert (z ** m).rational_value() == 1
        for k in range(1, m):
            assert (z ** k).rational_value() != 1


def test_inverse_frozen_values():
    two = Cyc.rational(2)
    assert two.inverse().rational_value() == Fraction(1, 2)
    i = Cyc.zeta(4)
    assert i.inverse() == -i
    w = Cyc.zeta(3)
    x = Cyc.one(3) + w  # 1 + z3 = -z3^2, inverse is -z3
    assert x.inverse() == -w
    assert (x * x.inverse()).rational_value() == 1


def test_a_dense_inverse_at_conductor_200_is_fast():
    # each Euclidean remainder is made monic before it divides; without
    # that their coefficients blow up and this takes seconds
    rng = random.Random(200)
    x = Cyc(200, [rng.randint(-9, 9) for _ in range(euler_phi(200))])
    start = time.perf_counter()
    y = x.inverse()
    assert time.perf_counter() - start < 1.0
    assert x * y == 1


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        Cyc.zero(12).inverse()


def test_division_round_trip():
    rng = random.Random(7)
    for m in (1, 3, 4, 5, 8, 12):
        for _ in range(8):
            a = rand_cyc(rng, m)
            b = rand_cyc(rng, m)
            if not b:
                continue
            assert (a / b) * b == a


def test_conjugation_frozen_values():
    w = Cyc.zeta(3)
    # conjugate of z3 is z3^2 = -1 - z3
    assert w.conjugate().coeffs == (Fraction(-1), Fraction(-1))
    i = Cyc.zeta(4)
    assert i.conjugate() == -i
    assert Cyc.rational(Fraction(3, 7), 5).conjugate().rational_value() == Fraction(3, 7)


def test_conjugation_is_an_involutive_automorphism():
    rng = random.Random(11)
    for m in (3, 4, 5, 8, 12):
        for _ in range(6):
            a = rand_cyc(rng, m)
            b = rand_cyc(rng, m)
            assert a.conjugate().conjugate() == a
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_norm_is_rational_and_positive():
    rng = random.Random(13)
    for m in (3, 4, 5, 12):
        for _ in range(6):
            a = rand_cyc(rng, m)
            n = (a * a.conjugate()).rational_value()
            if m in (3, 4):  # imaginary quadratic: |a|^2 lands in Q
                assert n is not None
                assert n >= 0
                assert (n == 0) == (not a)


def test_promotion_frozen_values():
    # -1 in Q(zeta_4) has coefficients (-1, 0)
    m1 = Cyc.zeta(2).promote(4)
    assert m1.coeffs == (Fraction(-1), Fraction(0))
    # zeta_3 = zeta_12^4 and z^4 = z^2 - 1 modulo z^4 - z^2 + 1
    w = Cyc.zeta(3).promote(12)
    assert w.coeffs == (Fraction(-1), Fraction(0), Fraction(1), Fraction(0))


def test_promotion_is_a_field_embedding():
    rng = random.Random(17)
    for m, big in ((3, 12), (4, 12), (5, 20), (4, 20)):
        for _ in range(6):
            a = rand_cyc(rng, m)
            b = rand_cyc(rng, m)
            assert (a * b).promote(big) == a.promote(big) * b.promote(big)
            assert (a + b).promote(big) == a.promote(big) + b.promote(big)


def test_promotion_to_non_multiple_raises():
    with pytest.raises(NotASubfield):
        Cyc.zeta(4).promote(6)


def test_mixed_conductor_arithmetic_raises():
    with pytest.raises(ConductorMismatch):
        Cyc.zeta(4) + Cyc.zeta(3)
    with pytest.raises(ConductorMismatch):
        Cyc.zeta(4) * Cyc.zeta(3)


def test_equality_across_conductors():
    assert Cyc.zeta(4) == Cyc.zeta(12, 3)
    assert Cyc.zeta(3) == Cyc.zeta(12, 4)
    assert Cyc.zeta(3) != Cyc.zeta(12)
    assert Cyc.rational(5, 8) == Cyc.rational(5, 3)
    assert Cyc.rational(5, 8) == 5


def test_hash_is_invariant_under_promotion():
    samples = [
        Cyc.zeta(4),
        Cyc.zeta(3),
        Cyc.one(5) + Cyc.zeta(5),
        Cyc.rational(Fraction(-7, 3), 8),
    ]
    for a in samples:
        b = a.promote(a.conductor * 3)
        assert a == b
        assert hash(a) == hash(b)
    assert hash(Cyc.zeta(4)) == hash(Cyc.zeta(12, 3))
    # a rational value equals, and so hashes as, its int or Fraction
    for value in (5, Fraction(-7, 3)):
        for m in (1, 8):
            assert Cyc.rational(value, m) == value
            assert hash(Cyc.rational(value, m)) == hash(value)
            assert {value: "x"}.get(Cyc.rational(value, m)) == "x"


def test_field_axioms_sampled():
    rng = random.Random(19)
    for m in (1, 4, 5, 12):
        for _ in range(6):
            a, b, c = (rand_cyc(rng, m, 5) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a


def test_integer_and_fraction_operands_coerce():
    w = Cyc.zeta(3)
    assert 1 + w == Cyc.one(3) + w
    assert 2 * w == w + w
    assert not w - w
    assert (Fraction(1, 2) * (w + w)) == w


def test_string_rendering_is_readable():
    w = Cyc.zeta(3)
    assert str(Cyc.zero(3)) == "0"
    assert str(1 + 2 * w) == "1 + 2*z3"
    assert str(-w) == "-z3"
    assert str(Cyc.zeta(8, 3)) == "z8^3"


@pytest.mark.parametrize("conductor", [0, -4])
def test_constructor_refuses_a_conductor_below_one(conductor):
    with pytest.raises(ValueError, match="conductor must be positive"):
        Cyc(conductor, [1])


@pytest.mark.parametrize("m, count", [(1, 0), (1, 2), (5, 3), (12, 5)])
def test_constructor_refuses_a_coefficient_count_other_than_phi(m, count):
    message = "expected %d coefficients for conductor %d, got %d" % (
        euler_phi(m), m, count,
    )
    with pytest.raises(ValueError, match=message):
        Cyc(m, [1] * count)


def test_constructor_stores_a_float_coefficient_exactly():
    x = Cyc(4, [0.5, -0.75])
    assert x.coeffs == (Fraction(1, 2), Fraction(-3, 4))
    assert not any(isinstance(c, float) for c in x.coeffs)


# -- the kernel against a Fraction-only reference ---------------------------

KERNEL_CONDUCTORS = (1, 2, 3, 4, 5, 8, 12)
_SCALARS = st.one_of(
    st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4)
)


def _is_exact(c):
    """An int when integral, else a Fraction; never a float or a bool."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _ref_reduce(coeffs, m):
    """The remainder modulo Phi_m by long division in Fractions."""
    mod = [Fraction(c) for c in cyclotomic_polynomial(m)]
    phi = len(mod) - 1
    rem = [Fraction(c) for c in coeffs] + [Fraction(0)] * phi
    for i in range(len(rem) - 1, phi - 1, -1):
        q = rem[i] / mod[phi]
        for j in range(phi + 1):
            rem[i - phi + j] -= q * mod[j]
    return rem[:phi]


def _ref_mul(a, b, m):
    return _ref_reduce(_poly_mul([Fraction(c) for c in a], b), m)


def _ref_substitute(coeffs, a, m):
    """sum_k c_k z^(k a) modulo Phi_m, for a >= 0."""
    lifted = [Fraction(0)] * ((len(coeffs) - 1) * a + 1)
    for k, c in enumerate(coeffs):
        lifted[k * a] += c
    return _ref_reduce(lifted, m)


def _assert_matches(result, m, ref):
    assert result.conductor == m
    assert all(_is_exact(c) for c in result.coeffs), result.coeffs
    assert list(result.coeffs) == ref
    from_fractions = Cyc(m, ref)
    assert result.key() == tuple((c.numerator, c.denominator) for c in ref)
    assert result.key() == from_fractions.key()
    assert hash(result) == hash(from_fractions)
    if not any(ref[1:]):
        assert hash(result) == hash(ref[0])


@st.composite
def _kernel_inputs(draw):
    m = draw(st.sampled_from(KERNEL_CONDUCTORS))
    phi = euler_phi(m)
    x, y = (
        Cyc(m, draw(st.lists(_SCALARS, min_size=phi, max_size=phi)))
        for _ in range(2)
    )
    return m, x, y


@settings(max_examples=150, deadline=None)
@given(_kernel_inputs(), _SCALARS, st.integers(-30, 30), st.integers(1, 3),
       st.lists(_SCALARS, max_size=30))
def test_kernel_results_are_exact_and_match_a_fraction_reference(
    inputs, scalar, power, factor, poly
):
    m, x, y = inputs
    phi = euler_phi(m)
    fx, fy = [Fraction(c) for c in x.coeffs], [Fraction(c) for c in y.coeffs]
    one = [Fraction(1)] + [Fraction(0)] * (phi - 1)
    assert all(_is_exact(c) for c in x.coeffs + y.coeffs)
    _assert_matches(x + y, m, [a + b for a, b in zip(fx, fy)])
    _assert_matches(x - y, m, [a - b for a, b in zip(fx, fy)])
    _assert_matches(-x, m, [-a for a in fx])
    _assert_matches(x * y, m, _ref_mul(fx, fy, m))
    _assert_matches(x * scalar, m, [a * scalar for a in fx])
    _assert_matches(
        Cyc.sum_of([x, y, x], m), m, [2 * a + b for a, b in zip(fx, fy)]
    )
    if x:
        # multiplication by x is injective, so this names the inverse
        inverse = x.inverse()
        _assert_matches(inverse, m, [Fraction(c) for c in inverse.coeffs])
        assert _ref_mul(fx, inverse.coeffs, m) == one
        quotient = y / x
        assert _ref_mul(fx, quotient.coeffs, m) == fy
        _assert_matches(quotient, m, [Fraction(c) for c in quotient.coeffs])
    _assert_matches(x.conjugate(), m, _ref_substitute(fx, m - 1, m))
    _assert_matches(
        x.promote(m * factor), m * factor, _ref_substitute(fx, factor, m * factor)
    )
    assert list(_reduce(poly, m)) == _ref_reduce(poly, m)
    assert all(_is_exact(c) for c in _reduce(poly, m))
    _assert_matches(Cyc.zeta(m, power), m, _ref_substitute([0, 1], power % m, m))
    _assert_matches(
        Cyc.rational(scalar, m), m, [Fraction(scalar)] + [Fraction(0)] * (phi - 1)
    )
    _assert_matches(Cyc.zero(m), m, [Fraction(0)] * phi)
    _assert_matches(Cyc.one(m), m, one)


def _ref_trace(coeffs, m):
    """Tr(x) / phi(m) as the trace of multiplication by x on the power
    basis, in Fractions."""
    phi = euler_phi(m)
    basis = [[Fraction(int(i == j)) for i in range(phi)] for j in range(phi)]
    return sum(_ref_mul(coeffs, e, m)[j] for j, e in enumerate(basis)) / phi


@settings(max_examples=100, deadline=None)
@given(_kernel_inputs())
def test_normalized_trace_matches_a_fraction_reference(inputs):
    m, x, _ = inputs
    value = x.normalized_trace()
    assert value == _ref_trace([Fraction(c) for c in x.coeffs], m)
    assert type(value) in (int, Fraction)
    if m == 1 and type(x.coeffs[0]) is int:
        assert type(value) is int


def test_normalized_trace_is_an_int_for_integral_values_at_conductors_1_and_2():
    for m in (1, 2):
        assert _normalized_trace_table(m) == (1,)
        assert type(_normalized_trace_table(m)[0]) is int
        value = Cyc(m, [-7]).normalized_trace()
        assert value == -7 and type(value) is int
    assert Cyc(1, [Fraction(1, 3)]).normalized_trace() == Fraction(1, 3)
    # zeta_3 has trace -1 over a degree 2 field
    assert _normalized_trace_table(3) == (1, Fraction(-1, 2))


# -- matrix products against the same reference -----------------------------


@st.composite
def _matrix_pair(draw):
    """A product a * b at a kernel conductor: shapes 1 x n, n x 1 and
    n x n on either side, zeros common, and maybe a zero row of a and a
    zero column of b."""
    m = draw(st.sampled_from(KERNEL_CONDUCTORS))
    phi = euler_phi(m)
    n = draw(st.integers(1, 4))
    rows, inner, cols = (draw(st.sampled_from((1, n))) for _ in range(3))
    entry = st.one_of(
        st.just([0] * phi), st.lists(_SCALARS, min_size=phi, max_size=phi)
    )

    def matrix(r, c, zero_row, zero_col):
        return ExactMatrix(r, c, m, [
            Cyc(m, [0] * phi if i == zero_row or j == zero_col else draw(entry))
            for i in range(r) for j in range(c)
        ])

    zero = st.one_of(st.none(), st.integers(0, n - 1))
    a = matrix(rows, inner, draw(zero), None)
    b = matrix(inner, cols, None, draw(zero))
    return m, a, b


def _ref_product(a, b, m):
    """Each entry of a * b as its sum of products, in Fractions."""
    phi = euler_phi(m)
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            total = [Fraction(0)] * phi
            for t in range(a.cols):
                x = [Fraction(c) for c in a.entry(i, t).coeffs]
                term = _ref_mul(x, b.entry(t, j).coeffs, m)
                total = [s + c for s, c in zip(total, term)]
            out.append(total)
    return out


@settings(max_examples=150, deadline=None)
@given(_matrix_pair())
def test_matrix_products_match_a_fraction_reference(pair):
    m, a, b = pair
    copy = ExactMatrix(b.rows, b.cols, m, b.entries)
    cold = (hash(b), b.key())
    product = a * b
    assert (product.rows, product.cols, product.conductor) == (a.rows, b.cols, m)
    for entry, ref in zip(product.entries, _ref_product(a, b, m)):
        _assert_matches(entry, m, ref)
    # a second product reads b's cached sparse rows
    assert b._sparse is not None
    again = a * b
    assert again == product and again.key() == product.key()
    assert [e.coeffs for e in again.entries] == [e.coeffs for e in product.entries]
    # the cache changes neither equality, hashing nor keys
    assert b == copy and copy == b
    assert (hash(b), b.key()) == cold == (hash(copy), copy.key())
