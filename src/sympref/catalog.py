"""Named families of finite symplectic matrix groups.

Every builder closes its family's generators and checks the order
against the closed-form count for the family, in one routine, so a
catalog group that builds at all is known to be the group it claims to
be.  A Weyl group's generators are the simple reflections read off its
Cartan matrix, which is written as the Dynkin diagram's bonds: a chain
of simple bonds, with the last node hung on the branch node for D and
E, and one entry for the long root of the double or triple bond of B,
C, F4 and G2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat

from .cyclotomic import BadInput, CyclotomicNumber, InvariantViolation
from .groups import DEFAULT_MAX_ORDER, FiniteMatrixGroup, OrderBoundExceeded
from .linalg import ExactMatrix, standard_symplectic_form
from .reflections import VERDICT_HOLDS, VERDICT_OBSTRUCTED, double
from .specio import MAX_CONDUCTOR

Cyc = CyclotomicNumber


class ParameterOutOfRange(BadInput):
    """A family parameter outside the supported range."""


def _closed(order, dimension, gens, conductor=1, symplectic=False):
    """The group gens generate on C^dimension, keeping the standard
    symplectic form when symplectic, checked to have the family's
    order."""
    omega = standard_symplectic_form(dimension, conductor) if symplectic else None
    group = FiniteMatrixGroup.closure(dimension, conductor, omega, gens)
    if group.order != order:
        raise InvariantViolation(
            "closure gave order %d, the family has order %d"
            % (group.order, order)
        )
    return group


def _imprimitive_order(m: int, p: int, n: int) -> int | None:
    """m^n n! / p, the order of G(m, p, n), which is S_n for m = 1 and
    the Weyl group of B_n or D_n for m = 2 and p = 1 or 2; None as soon
    as it passes the default bound, so that the order of an oversized
    family member is never multiplied out."""
    order = 1
    for f in chain(range(2, n + 1), repeat(m, n)):
        order *= f
        if order > DEFAULT_MAX_ORDER * p:
            return None
    return order // p


def _refuse_oversized(order, conductor, what="the group"):
    """Refuse, before any generator is built, an order over the default
    bound (or None, from _imprimitive_order) or a conductor over the one
    every parsed document meets."""
    if order is None or order > DEFAULT_MAX_ORDER:
        raise OrderBoundExceeded(
            DEFAULT_MAX_ORDER,
            "%s has order over the bound %d" % (what, DEFAULT_MAX_ORDER),
        )
    if conductor > MAX_CONDUCTOR:
        raise ParameterOutOfRange(
            "conductor %d is over the maximum %d" % (conductor, MAX_CONDUCTOR)
        )


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@lru_cache(maxsize=None)
def build_symmetric_on_squares(n: int) -> FiniteMatrixGroup:
    """The symmetric group permuting n planes, acting on C^(2n).

    Each letter occupies one symplectic plane of the standard form, so
    permutations act symplectically; transpositions have fixed-space
    codimension 2.
    """
    if not 2 <= n <= 5:
        raise ParameterOutOfRange("supported range is 2 <= n <= 5")
    dim = 2 * n
    gens = []
    for i in range(n - 1):
        rows = _identity_rows(dim)
        a, b = 2 * i, 2 * (i + 1)
        for off in range(2):
            rows[a + off][a + off] = 0
            rows[b + off][b + off] = 0
            rows[a + off][b + off] = 1
            rows[b + off][a + off] = 1
        gens.append(ExactMatrix.from_rows(rows))
    return _closed(_imprimitive_order(1, 1, n), dim, gens, symplectic=True)


# the rank and the order of each exceptional type
_EXCEPTIONAL = {
    "E6": (6, 51840), "E7": (7, 2903040), "E8": (8, 696729600),
    "F4": (4, 1152), "G2": (2, 12),
}
_WEYL_FAMILIES = ("A", "B", "C", "D", *_EXCEPTIONAL)

# (i, j, n[i][j]) where the long root alpha_j meets a double or triple
# bond; a negative index counts back from the last node
_LONG_BOND = {"B": (-1, -2, -2), "C": (-2, -1, -2), "F4": (1, 2, -2), "G2": (1, 0, -3)}


def _weyl_order(family: str, rank: int) -> int | None:
    """The order; None for a classical type whose order passes the
    default bound."""
    if family in _EXCEPTIONAL:
        return _EXCEPTIONAL[family][1]
    if family == "A":
        return _imprimitive_order(1, 1, rank + 1)
    return _imprimitive_order(2, 2 if family == "D" else 1, rank)


def _cartan_pairings(family: str, rank: int) -> list[list[int]]:
    """n[i][j] = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i), from the
    Dynkin diagram: the chain 0 - 1 - ... - (rank - 1) of bonds set to
    -1 both ways, except that D and E hang the last node on their branch
    node (rank - 3 for D, 2 for E), then _LONG_BOND's entry, if any."""
    n = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    branch = {"D": rank - 3, "E": 2}.get(family[0], rank - 2)
    for i, j in zip([*range(rank - 2), branch], range(1, rank)):
        n[i][j] = n[j][i] = -1
    if family in _LONG_BOND:
        i, j, value = _LONG_BOND[family]
        n[i][j] = value
    return n


@lru_cache(maxsize=None)
def build_weyl(family: str, rank: int | None = None) -> FiniteMatrixGroup:
    """A Weyl group in its reflection representation on the root basis:
    the plain linear action, with no symplectic form attached."""
    family = family.upper()
    if family not in _WEYL_FAMILIES:
        raise ParameterOutOfRange("unknown family %r" % family)
    if family in _EXCEPTIONAL:
        fixed_rank = _EXCEPTIONAL[family][0]
        if rank not in (None, fixed_rank):
            raise ParameterOutOfRange("%s has rank %d" % (family, fixed_rank))
        rank = fixed_rank
    elif rank is None:
        raise ParameterOutOfRange("family %s needs a rank" % family)
    else:
        minimum = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
        if rank < minimum:
            raise ParameterOutOfRange(
                "family %s needs rank >= %d" % (family, minimum)
            )

    order = _weyl_order(family, rank)
    _refuse_oversized(order, 1, "the %s%d Weyl group" % (family[0], rank))

    # the simple reflection s_i has row i of 1 - n, and otherwise 1's rows
    gens = []
    for i, pairings in enumerate(_cartan_pairings(family, rank)):
        rows = _identity_rows(rank)
        rows[i] = [r - p for r, p in zip(rows[i], pairings)]
        gens.append(ExactMatrix.from_rows(rows))
    return _closed(order, rank, gens)


@lru_cache(maxsize=None)
def build_weyl_doubled(
    family: str, rank: int | None = None
) -> FiniteMatrixGroup:
    """A Weyl group doubled onto C^(2 rank) with the dual pairing form."""
    return double(build_weyl(family, rank))


# the order of each binary polyhedral group
_POLYHEDRAL = {
    "binary_tetrahedral": 24, "binary_octahedral": 48, "binary_icosahedral": 120,
}
_SL2_KINDS = ("cyclic", "binary_dihedral", *_POLYHEDRAL)


def _sl2_order(kind: str, k: int | None = None) -> int:
    if kind in _POLYHEDRAL:
        return _POLYHEDRAL[kind]
    return k if kind == "cyclic" else 4 * k


def _su2_matrix(a, b, c, d, conductor):
    """The matrix of the unit quaternion a + bi + cj + dk."""
    i = Cyc.zeta(4).promote(conductor)
    return ExactMatrix.from_rows(
        [
            [Cyc.rational(a, conductor) + Cyc.rational(b, conductor) * i,
             Cyc.rational(c, conductor) + Cyc.rational(d, conductor) * i],
            [Cyc.rational(-c, conductor) + Cyc.rational(d, conductor) * i,
             Cyc.rational(a, conductor) - Cyc.rational(b, conductor) * i],
        ],
        conductor,
    )


@lru_cache(maxsize=None)
def build_sl2_subgroup(kind: str, k: int | None = None) -> FiniteMatrixGroup:
    """The finite planar symplectic groups: cyclic, binary dihedral,
    and the three binary polyhedral groups, each at the smallest
    cyclotomic field carrying published generator matrices."""
    if kind not in _SL2_KINDS:
        raise ParameterOutOfRange("unknown kind %r" % kind)
    if kind == "cyclic":
        if k is None or k < 1:
            raise ParameterOutOfRange("cyclic needs k >= 1")
        conductor = k
        _refuse_oversized(_sl2_order(kind, k), conductor)
        z = Cyc.zeta(k)
        gens = [ExactMatrix.from_rows([[z, 0], [0, z ** (k - 1)]], k)]
    elif kind == "binary_dihedral":
        if k is None or k < 2:
            raise ParameterOutOfRange("binary dihedral needs k >= 2")
        conductor = math.lcm(2 * k, 4)
        _refuse_oversized(_sl2_order(kind, k), conductor)
        z = Cyc.zeta(2 * k).promote(conductor)
        gens = [
            ExactMatrix.from_rows([[z, 0], [0, z ** (2 * k - 1)]], conductor),
            ExactMatrix.from_rows([[0, 1], [-1, 0]], conductor),
        ]
    else:
        if k is not None:
            raise ParameterOutOfRange("%s takes no parameter" % kind)
        if kind == "binary_icosahedral":
            conductor = 20
            eta = Cyc.zeta(5).promote(20)
            sqrt5_inv = (eta - eta ** 2 - eta ** 3 + eta ** 4).inverse()
            gens = [
                ExactMatrix.from_rows([[eta ** 3, 0], [0, eta ** 2]], 20),
                ExactMatrix.from_rows(
                    [[-(eta - eta ** 4), eta ** 2 - eta ** 3],
                     [eta ** 2 - eta ** 3, eta - eta ** 4]],
                    20,
                ).scale(sqrt5_inv),
            ]
        else:
            # i and (1 + i + j + k) / 2; the octahedral group adds the
            # diagonal of an eighth root of unity
            conductor = 8
            half = Fraction(1, 2)
            gens = [
                _su2_matrix(0, 1, 0, 0, 8),
                _su2_matrix(half, half, half, half, 8),
            ]
            if kind == "binary_octahedral":
                z8 = Cyc.zeta(8)
                gens.append(ExactMatrix.from_rows([[z8, 0], [0, z8 ** 7]], 8))
    return _closed(_sl2_order(kind, k), 2, gens, conductor, symplectic=True)


@lru_cache(maxsize=None)
def build_imprimitive(m: int, p: int, n: int) -> FiniteMatrixGroup:
    """The imprimitive complex reflection group of n x n monomial
    matrices with m-th root of unity entries whose product lies in the
    p-th powers: the plain linear action, with no symplectic form."""
    if m < 1 or n < 1 or p < 1 or m % p != 0:
        raise ParameterOutOfRange(
            "need m, n >= 1 and p a divisor of m"
        )
    order = _imprimitive_order(m, p, n)
    _refuse_oversized(order, m)
    gens = []
    for i in range(n - 1):
        rows = _identity_rows(n)
        rows[i][i] = rows[i + 1][i + 1] = 0
        rows[i][i + 1] = rows[i + 1][i] = 1
        gens.append(ExactMatrix.from_rows(rows, m))
    if m > 1:
        z = Cyc.zeta(m)
        if p < m:
            rows = _identity_rows(n)
            rows[0][0] = z ** p
            gens.append(ExactMatrix.from_rows(rows, m))
        if n >= 2:
            rows = _identity_rows(n)
            rows[0][0] = z
            rows[1][1] = z ** (m - 1)
            gens.append(ExactMatrix.from_rows(rows, m))
    return _closed(order, n, gens, m)


@lru_cache(maxsize=None)
def build_imprimitive_doubled(m: int, p: int, n: int) -> FiniteMatrixGroup:
    """An imprimitive complex reflection group doubled onto C^(2n)."""
    return double(build_imprimitive(m, p, n))


@lru_cache(maxsize=None)
def build_negation(dim: int) -> FiniteMatrixGroup:
    """The order-two group generated by -1 on C^dim.

    Only defined for even dim >= 4: in the plane the negation is
    itself a symplectic reflection and the family loses its point.
    """
    if dim % 2 or dim < 4:
        raise ParameterOutOfRange("dim must be even and at least 4")
    return _closed(2, dim, [-ExactMatrix.identity(dim)], symplectic=True)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dimension: int
    expected_order: int
    expected_verdict: str
    summary: str
    build: callable = field(repr=False)


def _entries():
    entries = []
    for n in (2, 3, 4):
        entries.append(CatalogEntry(
            "symmetric_n%d" % n, 2 * n, _imprimitive_order(1, 1, n), VERDICT_HOLDS,
            "symmetric group permuting %d symplectic planes" % n,
            lambda n=n: build_symmetric_on_squares(n),
        ))
    for family, rank in (("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3), ("G2", 2)):
        label = family if family in _EXCEPTIONAL else family + str(rank)
        entries.append(CatalogEntry(
            "weyl_%s_doubled" % label.lower(), 2 * rank,
            _weyl_order(family, rank), VERDICT_HOLDS,
            "doubled Weyl group of type %s, rank %d" % (family, rank),
            lambda family=family, rank=rank: build_weyl_doubled(family, rank),
        ))
    for kind, summary, ks in (
        ("cyclic", "cyclic group of order %d in the plane", (2, 3, 5)),
        ("binary_dihedral", "binary dihedral group of order %d", (2, 3)),
    ):
        for k in ks:
            order = _sl2_order(kind, k)
            entries.append(CatalogEntry(
                "sl2_%s_%d" % (kind, k), 2, order, VERDICT_HOLDS, summary % order,
                lambda kind=kind, k=k: build_sl2_subgroup(kind, k),
            ))
    for kind, order in _POLYHEDRAL.items():
        entries.append(CatalogEntry(
            "sl2_%s" % kind, 2, order, VERDICT_HOLDS,
            "%s group" % kind.replace("_", " "),
            lambda kind=kind: build_sl2_subgroup(kind),
        ))
    for m, p, n in ((2, 1, 2), (2, 2, 2), (3, 1, 2), (4, 2, 2), (2, 1, 3), (3, 3, 3)):
        entries.append(CatalogEntry(
            "imprimitive_%d_%d_%d" % (m, p, n), 2 * n, _imprimitive_order(m, p, n),
            VERDICT_HOLDS, "doubled imprimitive reflection group on %d letters" % n,
            lambda m=m, p=p, n=n: build_imprimitive_doubled(m, p, n),
        ))
    for dim in (4, 6):
        entries.append(CatalogEntry(
            "negation_c%d" % dim, dim, 2, VERDICT_OBSTRUCTED,
            "sign flip on C^%d, the minimal obstructed action" % dim,
            lambda dim=dim: build_negation(dim),
        ))
    return tuple(entries)


CATALOG: tuple[CatalogEntry, ...] = _entries()

_BY_NAME = {e.name: e for e in CATALOG}


def entry_names() -> tuple[str, ...]:
    return tuple(e.name for e in CATALOG)


def get_entry(name: str) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ParameterOutOfRange(
            "no catalog entry named %r" % name
        ) from None


def build_entry(name: str) -> FiniteMatrixGroup:
    return get_entry(name).build()
