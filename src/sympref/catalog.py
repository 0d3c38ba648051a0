"""Named families of finite symplectic matrix groups.

Every builder returns a fully enumerated group whose order is checked
against the closed-form count for the family, so a catalog group that
builds at all is known to be the group it claims to be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CyclotomicNumber, InvariantViolation
from .groups import DEFAULT_MAX_ORDER, FiniteMatrixGroup, OrderBoundExceeded
from .linalg import ExactMatrix, standard_symplectic_form
from .reflections import VERDICT_HOLDS, VERDICT_OBSTRUCTED, double

Cyc = CyclotomicNumber


class ParameterOutOfRange(ValueError):
    """A family parameter outside the supported range."""


def _checked_order(group: FiniteMatrixGroup, expected: int) -> FiniteMatrixGroup:
    if group.order != expected:
        raise InvariantViolation(
            "closure gave order %d, the family has order %d"
            % (group.order, expected)
        )
    return group


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
    group = FiniteMatrixGroup.closure(
        dim, 1, standard_symplectic_form(dim), gens
    )
    return _checked_order(group, math.factorial(n))


_WEYL_FAMILIES = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2")


def _weyl_order(family: str, rank: int) -> int:
    if family == "A":
        return math.factorial(rank + 1)
    if family in ("B", "C"):
        return 2 ** rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return {
        "E6": 51840,
        "E7": 2903040,
        "E8": 696729600,
        "F4": 1152,
        "G2": 12,
    }[family]


def _cartan_pairings(family: str, rank: int) -> list[list[int]]:
    """n[i][j] = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i)."""
    n = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def chain_edge(i, j):
        n[i][j] = -1
        n[j][i] = -1

    if family == "A":
        for i in range(rank - 1):
            chain_edge(i, i + 1)
    elif family in ("B", "C"):
        for i in range(rank - 2):
            chain_edge(i, i + 1)
        # last root short for B, long for C
        if family == "B":
            n[rank - 2][rank - 1] = -1
            n[rank - 1][rank - 2] = -2
        else:
            n[rank - 2][rank - 1] = -2
            n[rank - 1][rank - 2] = -1
    elif family == "D":
        for i in range(rank - 2):
            chain_edge(i, i + 1)
        chain_edge(rank - 3, rank - 1)
    elif family in ("E6", "E7", "E8"):
        # chain 0-1-...-(rank-2), with the last node on the third link
        for i in range(rank - 2):
            chain_edge(i, i + 1)
        chain_edge(2, rank - 1)
    elif family == "F4":
        chain_edge(0, 1)
        chain_edge(2, 3)
        n[1][2] = -2
        n[2][1] = -1
    elif family == "G2":
        n[0][1] = -1
        n[1][0] = -3
    return n


@lru_cache(maxsize=None)
def build_weyl(
    family: str, rank: int | None = None, max_order: int = DEFAULT_MAX_ORDER
) -> FiniteMatrixGroup:
    """A Weyl group in its reflection representation on the root basis:
    the plain linear action, with no symplectic form attached."""
    family = family.upper()
    if family not in _WEYL_FAMILIES:
        raise ParameterOutOfRange("unknown family %r" % family)
    fixed_rank = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}.get(family)
    if fixed_rank is not None:
        if rank not in (None, fixed_rank):
            raise ParameterOutOfRange(
                "%s has rank %d" % (family, fixed_rank)
            )
        rank = fixed_rank
    else:
        if rank is None:
            raise ParameterOutOfRange("family %s needs a rank" % family)
        minimum = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
        if rank < minimum:
            raise ParameterOutOfRange(
                "family %s needs rank >= %d" % (family, minimum)
            )

    order = _weyl_order(family, rank)
    if order > max_order:
        raise OrderBoundExceeded(
            max_order,
            "the %s%d Weyl group has order %d, over the bound %d"
            % (family[0], rank, order, max_order),
        )

    pairings = _cartan_pairings(family, rank)
    gens = []
    for i in range(rank):
        rows = _identity_rows(rank)
        for j in range(rank):
            rows[i][j] = (1 if i == j else 0) - pairings[i][j]
        gens.append(ExactMatrix.from_rows(rows))
    group = FiniteMatrixGroup.closure(rank, 1, None, gens, max_order)
    return _checked_order(group, order)


@lru_cache(maxsize=None)
def build_weyl_doubled(
    family: str, rank: int | None = None, max_order: int = DEFAULT_MAX_ORDER
) -> FiniteMatrixGroup:
    """A Weyl group doubled onto C^(2 rank) with the dual pairing form."""
    return double(build_weyl(family, rank, max_order))


_SL2_KINDS = (
    "cyclic",
    "binary_dihedral",
    "binary_tetrahedral",
    "binary_octahedral",
    "binary_icosahedral",
)


def _su2_matrix(a, b, c, d, conductor):
    """The matrix of the unit quaternion a + bi + cj + dk."""
    i = Cyc.zeta(4).promote(conductor)
    return ExactMatrix.from_rows(
        [
            [Cyc.rational(a, conductor) + Cyc.rational(b, conductor) * i,
             Cyc.rational(c, conductor) + Cyc.rational(d, conductor) * i],
            [Cyc.rational(-c, conductor) + Cyc.rational(d, conductor) * i,
             Cyc.rational(a, conductor) - Cyc.rational(b, conductor) * i],
        ]
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
        z = Cyc.zeta(k)
        gens = [ExactMatrix.from_rows([[z, 0], [0, z ** (k - 1)]], k)]
        expected = k
    elif kind == "binary_dihedral":
        if k is None or k < 2:
            raise ParameterOutOfRange("binary dihedral needs k >= 2")
        conductor = math.lcm(2 * k, 4)
        z = Cyc.zeta(2 * k)
        gens = [
            ExactMatrix.from_rows([[z, 0], [0, z ** (2 * k - 1)]], 2 * k),
            ExactMatrix.from_rows([[0, 1], [-1, 0]]),
        ]
        expected = 4 * k
    else:
        if k is not None:
            raise ParameterOutOfRange("%s takes no parameter" % kind)
        half = Fraction(1, 2)
        if kind == "binary_tetrahedral":
            conductor = 8
            gens = [
                _su2_matrix(0, 1, 0, 0, 8),
                _su2_matrix(half, half, half, half, 8),
            ]
            expected = 24
        elif kind == "binary_octahedral":
            conductor = 8
            z8 = Cyc.zeta(8)
            gens = [
                _su2_matrix(0, 1, 0, 0, 8),
                _su2_matrix(half, half, half, half, 8),
                ExactMatrix.from_rows([[z8, 0], [0, z8 ** 7]], 8),
            ]
            expected = 48
        else:  # binary_icosahedral
            conductor = 20
            eta = Cyc.zeta(5).promote(20)
            sqrt5_inv = (
                eta - eta ** 2 - eta ** 3 + eta ** 4
            ).inverse()
            s = ExactMatrix.from_rows(
                [[eta ** 3, 0], [0, eta ** 2]], 20
            )
            t = ExactMatrix.from_rows(
                [
                    [-(eta - eta ** 4), eta ** 2 - eta ** 3],
                    [eta ** 2 - eta ** 3, eta - eta ** 4],
                ],
                20,
            ).scale(sqrt5_inv)
            gens = [s, t]
            expected = 120
    group = FiniteMatrixGroup.closure(
        2, conductor, standard_symplectic_form(2, conductor), gens
    )
    return _checked_order(group, expected)


@lru_cache(maxsize=None)
def build_imprimitive(
    m: int, p: int, n: int, max_order: int = DEFAULT_MAX_ORDER
) -> FiniteMatrixGroup:
    """The imprimitive complex reflection group of n x n monomial
    matrices with m-th root of unity entries whose product lies in the
    p-th powers: the plain linear action, with no symplectic form."""
    if m < 1 or n < 1 or p < 1 or m % p != 0:
        raise ParameterOutOfRange(
            "need m, n >= 1 and p a divisor of m"
        )
    order = m ** n * math.factorial(n) // p
    if order > max_order:
        raise OrderBoundExceeded(
            max_order,
            "the group has order %d, over the bound %d" % (order, max_order),
        )
    gens = []
    for i in range(n - 1):
        rows = _identity_rows(n)
        rows[i][i] = rows[i + 1][i + 1] = 0
        rows[i][i + 1] = rows[i + 1][i] = 1
        gens.append(ExactMatrix.from_rows(rows))
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
    group = FiniteMatrixGroup.closure(n, m, None, gens, max_order)
    return _checked_order(group, order)


@lru_cache(maxsize=None)
def build_imprimitive_doubled(
    m: int, p: int, n: int, max_order: int = DEFAULT_MAX_ORDER
) -> FiniteMatrixGroup:
    """An imprimitive complex reflection group doubled onto C^(2n)."""
    return double(build_imprimitive(m, p, n, max_order))


@lru_cache(maxsize=None)
def build_negation(dim: int) -> FiniteMatrixGroup:
    """The order-two group generated by -1 on C^dim.

    Only defined for even dim >= 4: in the plane the negation is
    itself a symplectic reflection and the family loses its point.
    """
    if dim % 2 or dim < 4:
        raise ParameterOutOfRange("dim must be even and at least 4")
    group = FiniteMatrixGroup.closure(
        dim, 1, standard_symplectic_form(dim), [-ExactMatrix.identity(dim)]
    )
    return _checked_order(group, 2)


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
            "symmetric_n%d" % n, 2 * n, math.factorial(n), VERDICT_HOLDS,
            "symmetric group permuting %d symplectic planes" % n,
            lambda n=n: build_symmetric_on_squares(n),
        ))
    for family, rank in (("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3), ("G2", 2)):
        name = "weyl_%s%d_doubled" % (family.lower(), rank)
        if family in ("G2",):
            name = "weyl_g2_doubled"
        entries.append(CatalogEntry(
            name, 2 * rank, _weyl_order(family, rank), VERDICT_HOLDS,
            "doubled Weyl group of type %s, rank %d" % (family, rank),
            lambda family=family, rank=rank: build_weyl_doubled(family, rank),
        ))
    for k in (2, 3, 5):
        entries.append(CatalogEntry(
            "sl2_cyclic_%d" % k, 2, k, VERDICT_HOLDS,
            "cyclic group of order %d in the plane" % k,
            lambda k=k: build_sl2_subgroup("cyclic", k),
        ))
    for k in (2, 3):
        entries.append(CatalogEntry(
            "sl2_binary_dihedral_%d" % k, 2, 4 * k, VERDICT_HOLDS,
            "binary dihedral group of order %d" % (4 * k),
            lambda k=k: build_sl2_subgroup("binary_dihedral", k),
        ))
    for kind, order in (
        ("binary_tetrahedral", 24),
        ("binary_octahedral", 48),
        ("binary_icosahedral", 120),
    ):
        entries.append(CatalogEntry(
            "sl2_%s" % kind, 2, order, VERDICT_HOLDS,
            "%s group" % kind.replace("_", " "),
            lambda kind=kind: build_sl2_subgroup(kind),
        ))
    for m, p, n in ((2, 1, 2), (2, 2, 2), (3, 1, 2), (4, 2, 2), (2, 1, 3), (3, 3, 3)):
        order = m ** n * math.factorial(n) // p
        entries.append(CatalogEntry(
            "imprimitive_%d_%d_%d" % (m, p, n), 2 * n, order, VERDICT_HOLDS,
            "doubled imprimitive reflection group on %d letters" % n,
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
