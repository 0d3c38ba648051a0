"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Values are stored in the power basis 1, z, ..., z^(phi(m)-1) of Q(zeta_m),
reduced modulo the m-th cyclotomic polynomial.  Each coefficient is a
Python `int` when it is integral and a `Fraction` otherwise, never a
float or a bool, so integral values (almost every group entry) pay
machine-integer costs and rationals are paid for only where they occur.
An int n and `Fraction(n)` agree on `==`, `hash`, `str` and
`.numerator`/`.denominator`, so keys, hashes and printed values do not
depend on which of the two a computation produced; the representation is
canonical all the same: equal field elements at a common conductor have
identical coefficient tuples.

The public constructor checks its input: a positive conductor, phi(m)
coefficients, each converted exactly (a float such as 0.5 becomes 1/2).
Arithmetic results skip those checks and are built by `_number`, because
they hold by construction: every operation returns phi(m) coefficients
already in the int-or-Fraction form.  Every true division goes through
`Fraction`, as `int / int` would be a float.  Products have one kernel,
`_mul_add`, which adds a * b into unreduced coefficients: a scalar
product is its one-term case, and a matrix product reduces each entry
once, after its last term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import BadInput


class ConductorMismatch(BadInput):
    """Arithmetic between values of different conductors (promote first)."""


class NotASubfield(BadInput):
    """Promotion target conductor is not a multiple of the current one."""


class DivisionByZero(ZeroDivisionError):
    """Inversion of the zero element."""


class InvariantViolation(RuntimeError):
    """A computed result contradicts the mathematics it rests on.

    Raised by internal consistency checks, never by bad input: it means
    a bug in this package.
    """


@lru_cache(maxsize=None)
def _primes(m: int) -> tuple[int, ...]:
    """The distinct prime factors of m, ascending."""
    primes = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return tuple(primes)


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    for p in _primes(m):
        m -= m // p
    return m


def mobius(m: int) -> int:
    primes = _primes(m)
    return (-1) ** len(primes) if math.prod(primes) == m else 0


def _degree(conductor: int) -> int:
    """phi(conductor), the number of coefficients, for a valid conductor."""
    if conductor < 1:
        raise ValueError("conductor must be positive")
    return euler_phi(conductor)


def _exact(value):
    """An input scalar as an int when integral, else as a Fraction.

    Fraction() takes ints, bools, floats (exactly), Fractions and
    rational strings, and refuses the rest.
    """
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _canon(cs) -> tuple:
    """Ints and Fractions as a coefficient tuple: each integral Fraction
    replaced by its int."""
    return tuple([
        c if c.__class__ is int or c.denominator != 1 else c.numerator
        for c in cs
    ])


def _quotient(a, b):
    """a / b for ints and Fractions, exactly, in the int-or-Fraction form."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _substitute(coeffs, a: int, n: int) -> list:
    """Coefficients of sum_k c_k z^(k a mod n), a list of length n.

    With n the conductor this is zeta -> zeta^a on Q(zeta_n), unreduced;
    with n above the degree times a it is the lift p(z) -> p(z^a).
    """
    acc = [0] * n
    for k, c in enumerate(coeffs):
        if c:
            acc[k * a % n] += c
    return acc


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, ascending.

    Built from Phi_1 = z - 1 by lifts z -> z^p for the primes p of m:
    Phi_(r p)(z) is Phi_r(z^p) when p divides r, else Phi_r(z^p) / Phi_r(z).
    """
    if m == 1:
        return (-1, 1)
    p = _primes(m)[-1]
    base = cyclotomic_polynomial(m // p)
    lift = _substitute(base, p, (len(base) - 1) * p + 1)
    if (m // p) % p == 0:
        return tuple(lift)
    quot, rem = _poly_divmod(lift, base)
    if rem:
        raise InvariantViolation("non-exact cyclotomic division")
    return tuple(quot)


def _reduce(coeffs, m: int) -> tuple:
    """Reduce a list of ints and Fractions modulo the m-th cyclotomic
    polynomial, to a coefficient tuple."""
    mod = cyclotomic_polynomial(m)
    phi = len(mod) - 1
    cs = list(coeffs)
    for i in range(len(cs) - 1, phi - 1, -1):
        c = cs[i]
        if c:
            cs[i] = 0
            for j in range(phi):
                if mod[j]:
                    cs[i - phi + j] -= c * mod[j]
    if len(cs) < phi:
        cs.extend([0] * (phi - len(cs)))
    return _canon(cs[:phi])


def _mul_add(acc: list, a, b) -> None:
    """acc += a * b, unreduced, for coefficient sequences a and b and
    len(acc) >= len(a) + len(b) - 1: the package's one coefficient product."""
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                if y:
                    acc[k] += x * y


def _poly_divmod(num, den):
    """Quotient and remainder of num by the monic polynomial den."""
    num = list(num)
    while num and not num[-1]:
        num.pop()
    dn = len(den) - 1
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        q = num[i]
        if q:
            quot[i - dn] = q
            for j in range(dn + 1):
                if den[j]:
                    num[i - dn + j] -= q * den[j]
    while num and not num[-1]:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def _normalized_trace_table(m: int) -> tuple:
    # Tr(zeta_m^k) / phi(m) per power-basis exponent, as an int or a
    # Fraction; the normalization makes the value invariant under promotion
    return tuple(
        _quotient(mobius(m // g), euler_phi(m // g))
        for g in (math.gcd(k, m) for k in range(euler_phi(m)))
    )


def _same_conductor(a: int, b: int) -> int:
    """The common conductor of two operands, which must be equal."""
    if a != b:
        raise ConductorMismatch("conductors %d and %d differ" % (a, b))
    return a


class CyclotomicNumber:
    """An element of Q(zeta_m), immutable."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(map(_exact, coeffs))
        phi = _degree(conductor)
        if len(coeffs) != phi:
            raise ValueError(
                "expected %d coefficients for conductor %d, got %d"
                % (phi, conductor, len(coeffs))
            )
        self.conductor = conductor
        self.coeffs = coeffs

    @classmethod
    def rational(cls, value, conductor: int = 1) -> "CyclotomicNumber":
        return _number(
            conductor, (_exact(value),) + (0,) * (_degree(conductor) - 1)
        )

    @classmethod
    def zero(cls, conductor: int = 1) -> "CyclotomicNumber":
        return cls.rational(0, conductor)

    @classmethod
    def one(cls, conductor: int = 1) -> "CyclotomicNumber":
        return cls.rational(1, conductor)

    @classmethod
    def zeta(cls, conductor: int, power: int = 1) -> "CyclotomicNumber":
        """zeta_m^power as an element of Q(zeta_m)."""
        _degree(conductor)
        acc = _substitute((0, 1), power, conductor)
        return _number(conductor, _reduce(acc, conductor))

    @classmethod
    def sum_of(cls, values, conductor: int) -> "CyclotomicNumber":
        """The sum of values at this conductor, added coefficient-wise
        into one result: no intermediate sums are built."""
        acc = [0] * _degree(conductor)
        for v in values:
            _same_conductor(conductor, v.conductor)
            for k, c in enumerate(v.coeffs):
                if c:
                    acc[k] += c
        return _number(conductor, _canon(acc))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def rational_value(self):
        """The value as an int or Fraction if it is rational, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            _same_conductor(self.conductor, other.conductor)
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.rational(other, self.conductor)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _number(
            self.conductor,
            _canon([a + b for a, b in zip(self.coeffs, other.coeffs)]),
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _number(
            self.conductor,
            _canon([a - b for a, b in zip(self.coeffs, other.coeffs)]),
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        # negation keeps ints ints and non-integral Fractions non-integral
        return _number(self.conductor, tuple([-c for c in self.coeffs]))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = [0] * (2 * len(self.coeffs) - 1)
        _mul_add(acc, self.coeffs, other.coeffs)
        return _number(self.conductor, _reduce(acc, self.conductor))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via the extended Euclidean algorithm, each
        remainder made monic before it divides, so coefficients stay small."""
        if not self:
            raise DivisionByZero("cannot invert zero")
        r0 = list(cyclotomic_polynomial(self.conductor))
        r1 = list(self.coeffs)
        t0, t1 = [0], [1]
        while True:
            while not r1[-1]:
                r1.pop()
            lead = r1[-1]
            if lead != 1:
                r1 = [_quotient(c, lead) for c in r1]
                t1 = [_quotient(c, lead) for c in t1]
            # r1 = t1 * self mod Phi_m, irreducible over Q: r1 ends at 1
            if len(r1) == 1:
                return _number(self.conductor, _reduce(t1, self.conductor))
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            # t0 - q*t1
            new_t = list(t0) + [0] * max(len(q) + len(t1) - 1 - len(t0), 0)
            _mul_add(new_t, [-c for c in q], t1)
            t0, t1 = t1, new_t

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicNumber.one(self.conductor)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, the automorphism zeta -> zeta^(-1)."""
        m = self.conductor
        if m <= 2:
            return self
        return _number(m, _reduce(_substitute(self.coeffs, -1, m), m))

    def promote(self, conductor: int) -> "CyclotomicNumber":
        """The same field element expressed in Q(zeta_conductor)."""
        m = self.conductor
        if conductor == m:
            return self
        if conductor % m != 0:
            raise NotASubfield(
                "Q(zeta_%d) is not a subfield of Q(zeta_%d)" % (m, conductor)
            )
        acc = _substitute(self.coeffs, conductor // m, conductor)
        return _number(conductor, _reduce(acc, conductor))

    def normalized_trace(self):
        """Field trace to Q over the field degree, as an int or a Fraction.

        Invariant under promotion, which makes it usable for hashing
        values that may live at different conductors.
        """
        table = _normalized_trace_table(self.conductor)
        total = 0
        for c, t in zip(self.coeffs, table):
            if c and t:
                total += c * t
        return total

    def key(self):
        """Canonical hashable key at this conductor."""
        return tuple((c.numerator, c.denominator) for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.rational_value() == other
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        common = math.lcm(self.conductor, other.conductor)
        return self.promote(common).coeffs == other.promote(common).coeffs

    def __hash__(self):
        # a rational value hashes as its Fraction, so that it agrees with
        # the ints and Fractions it equals; both hashes are invariant
        # under promotion
        rational = self.rational_value()
        return hash(
            rational if rational is not None else
            (self.normalized_trace(), (self * self).normalized_trace())
        )

    def __str__(self):
        if not self:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else "%s*" % abs(c)
                sign = "-" if c < 0 else ""
                power = "" if k == 1 else "^%d" % k
                terms.append("%s%sz%d%s" % (sign, mag, self.conductor, power))
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def __repr__(self):
        return "Cyc(%d: %s)" % (self.conductor, self)


def _number(conductor: int, coeffs: tuple) -> CyclotomicNumber:
    """The value with these coefficients, built without the public
    constructor's checks: for arithmetic results, whose coefficients
    are phi(conductor) ints and non-integral Fractions by construction."""
    x = object.__new__(CyclotomicNumber)
    x.conductor = conductor
    x.coeffs = coeffs
    return x
