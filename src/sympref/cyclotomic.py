"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Values are stored in the power basis 1, z, ..., z^(phi(m)-1) of Q(zeta_m),
reduced modulo the m-th cyclotomic polynomial, with arbitrary-precision
rational coefficients.  The representation is canonical: equal field
elements at a common conductor have identical coefficient tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConductorMismatch(ValueError):
    """Arithmetic between values of different conductors (promote first)."""


class NotASubfield(ValueError):
    """Promotion target conductor is not a multiple of the current one."""


class DivisionByZero(ZeroDivisionError):
    """Inversion of the zero element."""


class InvariantViolation(RuntimeError):
    """A computed result contradicts the mathematics it rests on.

    Raised by internal consistency checks, never by bad input: it means
    a bug in this package.
    """


def divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def euler_phi(m: int) -> int:
    result = m
    p = 2
    n = m
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def mobius(m: int) -> int:
    result = 1
    p = 2
    n = m
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic; division is exact by construction (z^m - 1 splits
    # into cyclotomic factors over Z)
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            quot[i - dn] = c
            for j in range(len(den)):
                num[i - dn + j] -= c * den[j]
    if any(num):
        raise InvariantViolation("non-exact cyclotomic division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, ascending."""
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]  # z^m - 1
    for d in divisors(m):
        if d < m:
            num = _poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _reduce(coeffs, m: int) -> tuple[Fraction, ...]:
    """Reduce a coefficient list modulo the m-th cyclotomic polynomial."""
    phi = euler_phi(m)
    mod = cyclotomic_polynomial(m)
    cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    for i in range(len(cs) - 1, phi - 1, -1):
        c = cs[i]
        if c:
            cs[i] = _ZERO
            for j in range(phi):
                if mod[j]:
                    cs[i - phi + j] -= c * mod[j]
    if len(cs) < phi:
        cs.extend([_ZERO] * (phi - len(cs)))
    return tuple(cs[:phi])


def _poly_divmod(num, den):
    num = list(num)
    while num and not num[-1]:
        num.pop()
    dn = len(den) - 1
    lead = den[dn]
    quot = [_ZERO] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            q = c / lead
            quot[i - dn] = q
            for j in range(dn + 1):
                if den[j]:
                    num[i - dn + j] -= q * den[j]
    while num and not num[-1]:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def _normalized_trace_table(m: int) -> tuple[Fraction, ...]:
    # Tr(zeta_m^k) / phi(m) for each power-basis exponent; the
    # normalization makes the value invariant under promotion.
    phi = euler_phi(m)
    table = []
    for k in range(phi):
        g = math.gcd(k, m)
        table.append(Fraction(mobius(m // g), euler_phi(m // g)))
    return tuple(table)


class CyclotomicNumber:
    """An element of Q(zeta_m), immutable."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(
            c if isinstance(c, Fraction) else Fraction(c) for c in coeffs
        )
        if conductor < 1:
            raise ValueError("conductor must be positive")
        if len(coeffs) != euler_phi(conductor):
            raise ValueError(
                "expected %d coefficients for conductor %d, got %d"
                % (euler_phi(conductor), conductor, len(coeffs))
            )
        self.conductor = conductor
        self.coeffs = coeffs
        self._hash = None

    @classmethod
    def rational(cls, value, conductor: int = 1) -> "CyclotomicNumber":
        coeffs = [Fraction(value)] + [_ZERO] * (euler_phi(conductor) - 1)
        return cls(conductor, coeffs)

    @classmethod
    def zero(cls, conductor: int = 1) -> "CyclotomicNumber":
        return cls.rational(0, conductor)

    @classmethod
    def one(cls, conductor: int = 1) -> "CyclotomicNumber":
        return cls.rational(1, conductor)

    @classmethod
    def zeta(cls, conductor: int, power: int = 1) -> "CyclotomicNumber":
        """zeta_m^power as an element of Q(zeta_m)."""
        power %= conductor
        acc = [_ZERO] * (power + 1)
        acc[power] = _ONE
        return cls(conductor, _reduce(acc, conductor))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def rational_value(self):
        """The value as a Fraction if it is rational, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    "conductors %d and %d differ; promote to a common "
                    "conductor first" % (self.conductor, other.conductor)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.rational(other, self.conductor)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicNumber(
            self.conductor,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicNumber(
            self.conductor,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        acc = [_ZERO] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        acc[i + j] += ai * bj
        return CyclotomicNumber(self.conductor, _reduce(acc, self.conductor))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        mod = tuple(Fraction(c) for c in cyclotomic_polynomial(self.conductor))
        r0, r1 = list(mod), list(self.coeffs)
        t0, t1 = [_ZERO], [_ONE]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                break
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            # t0 - q*t1
            prod = [_ZERO] * (len(q) + len(t1) - 1)
            for i, qi in enumerate(q):
                if qi:
                    for j, tj in enumerate(t1):
                        if tj:
                            prod[i + j] += qi * tj
            new_t = list(t0) + [_ZERO] * max(len(prod) - len(t0), 0)
            for i, p in enumerate(prod):
                new_t[i] -= p
            t0, t1 = t1, new_t
        # r1 is a nonzero constant (the cyclotomic polynomial is
        # irreducible over Q, so the gcd with any smaller-degree
        # nonzero polynomial is 1 up to scale)
        scale = r1[0]
        coeffs = [c / scale for c in t1]
        return CyclotomicNumber(self.conductor, _reduce(coeffs, self.conductor))

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
        acc = [_ZERO] * m
        for k, c in enumerate(self.coeffs):
            if c:
                acc[(m - k) % m] += c
        return CyclotomicNumber(m, _reduce(acc, m))

    def promote(self, conductor: int) -> "CyclotomicNumber":
        """The same field element expressed in Q(zeta_conductor)."""
        m = self.conductor
        if conductor == m:
            return self
        if conductor % m != 0:
            raise NotASubfield(
                "Q(zeta_%d) is not a subfield of Q(zeta_%d)" % (m, conductor)
            )
        ratio = conductor // m
        acc = [_ZERO] * ((len(self.coeffs) - 1) * ratio + 1)
        for k, c in enumerate(self.coeffs):
            if c:
                acc[k * ratio] += c
        return CyclotomicNumber(conductor, _reduce(acc, conductor))

    def normalized_trace(self) -> Fraction:
        """Field trace to Q divided by the field degree.

        Invariant under promotion, which makes it usable for hashing
        values that may live at different conductors.
        """
        table = _normalized_trace_table(self.conductor)
        total = _ZERO
        for c, t in zip(self.coeffs, table):
            if c and t:
                total += c * t
        return total

    def key(self):
        """Canonical hashable key at this conductor."""
        return tuple((c.numerator, c.denominator) for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.rational_value() == Fraction(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        common = math.lcm(self.conductor, other.conductor)
        return self.promote(common).coeffs == other.promote(common).coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.normalized_trace(), (self * self).normalized_trace())
            )
        return self._hash

    def __str__(self):
        if self.is_zero():
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
