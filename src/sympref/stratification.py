"""Stratification of the representation space by fixed subspaces.

The strata are the intersection closure of the element fixed spaces,
that is the subspaces V^H for subgroups H.  Each stratum S is held with
its pointwise stabilizer K_S = {g : S lies in V^g} as an int mask over
element indices, as a `SubgroupHandle` holds a subgroup.  S = V^(K_S),
so S lies in T exactly when K_T is a subset of K_S, the stabilizer
order is a popcount, and g S has stabilizer g K_S g^-1: a mask names
its stratum.

The lattice is built orbit by orbit (Holt, Eick and O'Brien, Handbook
of Computational Group Theory, 2005, 4.1), so that elimination runs only
where it can find something new.  Each orbit of strata is walked once,
by the closure routine of `groups`, under conjugation by the generators;
the walk's tables and Schreier tree are kept, and the lattice reports
the orbits it walked.

- Atoms, the element fixed spaces: one `fixed_space` per orbit of
  them, as g V^x = V^(g x g^-1).  Its mask is tested on the elements
  whose fixed space is no smaller, by the group's table of fixed-space
  dimensions, which the census reads too; the other atoms of its orbit
  are moved by the generator matrices, and found by an element they
  are the fixed space of.
- Meets: in a finite lattice every element is the meet of the
  meet-irreducible elements above it (Davey and Priestley, Introduction
  to Lattices and Order, 2002, ch. 2).  A stratum that is no atom is the
  meet of the atoms above it, so the meet-irreducible strata are atoms:
  gamma.  Gamma is G-invariant and is decided one atom orbit at a time,
  in ascending codimension.  An atom A is out of gamma when two atoms of
  codimension codim A - step (2 for a symplectic group, else 1) lie
  above it, by masks alone: their meet lies strictly between them and
  A, with no codimension left but A's.  Otherwise A is out exactly when
  the rows of y - 1 over the gamma atoms V^y above A have rank codim A.
  Then, as (g S) ^ A = g (S ^ g^-1 A), only each orbit's first member S
  is met, and only with the gamma atoms.  A pair is skipped when
  K_S | K_A is a known mask, or when a known stratum in S (indexed by
  dimension) with a mask above K_S | K_A has the dimension of S ^ A:
  the largest that dimension can be, or else dim S + dim A - dim(S + A).
  A new meet is intersected once.
- Covers: those of each orbit's first member are the largest strata
  below it; g moves them to those of g S along the walk's tree.

The subspace algebra, `Subspace`, lives here with the lattice, its one
user, so that only the commands that build a lattice compile it.
Containment and `join_dim` reduce vectors against an echelon basis, and
a meet is the kernel of that residual map.  `ExactMatrix.kernel`
imports the class when called, and `linalg.Subspace` still names it.

Strata are ordered by ascending codimension, then by canonical
subspace key, so stratum indices are stable and can be referenced from
fiber-dimension data.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclotomic import BadInput, _same_conductor
from .groups import FiniteMatrixGroup, _closure, _mask
from .jsonin import load_json, quote, refuse_unknown_keys
from .linalg import (
    DimensionMismatch, ExactMatrix, _coerce_entry, _row_reduce, fixed_space,
)


class FiberDataError(BadInput):
    """Malformed fiber-dimension document."""


class MissingFiberData(BadInput):
    """Fiber dimensions were not supplied for some strata."""

    def __init__(self, indices):
        self.indices = tuple(indices)
        super().__init__(
            "missing fiber dimensions for strata %s"
            % ", ".join(str(i) for i in self.indices)
        )


class Subspace:
    """A linear subspace in canonical reduced-echelon form.

    Equal subspaces have identical stored bases, so equality and
    hashing are structural; subspaces of different conductors are
    unequal.
    """

    __slots__ = ("ambient_dim", "conductor", "basis", "_pivots")

    def __init__(self, ambient_dim, conductor, basis, pivots):
        self.ambient_dim = ambient_dim
        self.conductor = conductor
        self.basis = basis  # tuple of coordinate tuples, echelon rows
        self._pivots = pivots

    @classmethod
    def from_spanning(cls, ambient_dim, vectors, conductor: int = 1) -> "Subspace":
        if any(len(vec) != ambient_dim for vec in vectors):
            raise DimensionMismatch("spanning vector of wrong length")
        work = [
            [_coerce_entry(v, conductor) for v in vec] for vec in vectors
        ]
        pivots = _row_reduce(work)
        basis = tuple(tuple(work[i]) for i in range(len(pivots)))
        return cls(ambient_dim, conductor, basis, tuple(pivots))

    @classmethod
    def full(cls, ambient_dim: int, conductor: int = 1) -> "Subspace":
        ident = ExactMatrix.identity(ambient_dim, conductor)
        return cls.from_spanning(
            ambient_dim, ident.row_lists(), conductor
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient_dim - len(self.basis)

    def _residual(self, vector) -> list:
        """The vector minus its projection along the echelon rows: zero
        exactly when the vector lies in the subspace."""
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        residual = [_coerce_entry(v, self.conductor) for v in vector]
        for row, p in zip(self.basis, self._pivots):
            f = residual[p]
            if f:
                residual = [a - f * b for a, b in zip(residual, row)]
        return residual

    def contains_vector(self, vector) -> bool:
        return not any(self._residual(vector))

    def _same_ambient(self, other: "Subspace") -> int:
        """The common conductor of two subspaces of one ambient space."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return _same_conductor(self.conductor, other.conductor)

    def join_dim(self, other: "Subspace") -> int:
        """dim(self + other): the rank of the smaller basis reduced
        against the larger one's echelon rows, added to its dimension."""
        self._same_ambient(other)
        if self.dim < other.dim:
            return other.join_dim(self)
        residuals = [self._residual(vec) for vec in other.basis]
        return self.dim + len(_row_reduce(residuals))

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        if self.dim > other.dim:
            return False
        return all(other.contains_vector(vec) for vec in self.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The residual map against other's echelon rows is linear with
        kernel other, so the weights c with sum c_i s_i in other, over
        self's basis s_i, are the kernel of the matrix whose columns are
        the residuals of the s_i."""
        m = self._same_ambient(other)
        n = self.ambient_dim
        if self.dim == 0 or other.dim == 0:
            return Subspace.from_spanning(n, [], m)
        residuals = [x for vec in self.basis for x in other._residual(vec)]
        weights = ExactMatrix(self.dim, n, m, residuals).transpose().kernel()
        meet = ExactMatrix(
            weights.dim, self.dim, m, [c for w in weights.basis for c in w]
        ) * ExactMatrix(self.dim, n, m, [x for vec in self.basis for x in vec])
        return Subspace.from_spanning(n, meet.row_lists(), m)

    def basis_matrix(self) -> ExactMatrix:
        """Basis vectors as the columns of an ambient_dim x dim matrix."""
        return ExactMatrix(
            self.dim, self.ambient_dim, self.conductor,
            [x for vec in self.basis for x in vec],
        ).transpose()

    def key(self):
        return (
            self.ambient_dim,
            tuple(tuple(v.key() for v in vec) for vec in self.basis),
        )

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.conductor, self.key()) == (other.conductor, other.key())

    def __hash__(self):
        return hash((self.conductor, self.key()))

    def __repr__(self):
        return "Subspace(dim %d of C^%d)" % (self.dim, self.ambient_dim)


class Stratum(NamedTuple):
    subspace: Subspace
    codim: int
    stabilizer_order: int  # elements fixing the subspace pointwise
    covers: tuple[int, ...]  # immediate sub-strata indices


class StratificationLattice:
    """The strata in index order, and their orbits under the group."""

    __slots__ = ("strata", "orbits")

    def __init__(self, strata, orbits):
        self.strata: tuple[Stratum, ...] = strata
        # orbits of strata under the group
        self.orbits: tuple[tuple[int, ...], ...] = orbits


def build_lattice(group: FiniteMatrixGroup) -> StratificationLattice:
    """Intersection closure of the element fixed spaces."""
    order, n, conductor = group.order, group.dimension, group.conductor
    conjugations = group.conjugations()
    # the generators, transposed: the rows of B g^T are g applied to the
    # rows of B
    transposed = [group.element(i).transpose() for i in group.generator_indices()]
    moves = range(len(transposed))

    dims = group.fixed_dimensions()

    def pointwise_stabilizer(space):
        # the elements fixing the space pointwise: only an element whose
        # fixed space is no smaller can
        candidates = [y for y in range(order) if dims[y] >= space.dim]
        return group.fixing(space.basis, candidates) if space.dim else candidates

    # the strata are numbered walk by walk, in the order each walk met
    # them; found gives the number of a mask
    found, masks, spaces = {}, [], []
    # an element with the stratum as its fixed space, or None (a meet of
    # atoms that is no atom), and the stratum each element's fixed space is
    owner, stratum_of = [], [None] * order
    walks = []  # per orbit of strata: its numbers, tables and tree
    act = [[] for _ in moves]  # act[k][t]: the stratum g_k moves t to
    inside = {}  # the elements of K_S, for the strata of the current walk

    def record(mask, members, space):
        t = found[mask] = len(masks)
        masks.append(mask)
        spaces.append(space)
        inside[t] = members
        # y in K_S has V^y = S when the dimensions agree
        d = space.dim
        mine = [y for y in members if dims[y] == d]
        for y in mine:
            stratum_of[y] = t
        owner.append(mine[0] if mine else None)
        return t

    def move(t, k):
        # g V^x = V^(g x g^-1); otherwise g S has mask g K_S g^-1, and a
        # new g S is moved by g's matrix
        conjugate = conjugations[k]
        x = owner[t]
        if x is not None and stratum_of[conjugate[x]] is not None:
            return stratum_of[conjugate[x]]
        members = [conjugate[y] for y in inside[t]]
        mask = _mask(members)
        if mask in found:
            return found[mask]
        basis = spaces[t].basis
        rows = ExactMatrix(len(basis), n, conductor, [c for v in basis for c in v])
        return record(mask, members, Subspace.from_spanning(
            n, (rows * transposed[k]).row_lists(), conductor
        ))

    def walk(members, space):
        offset = len(masks)
        walks.append(_closure(
            record(_mask(members), members, space), moves, move, order
        ))
        inside.clear()
        for k in moves:
            act[k].extend(offset + j for j in walks[-1][1][k])

    # the atoms, the element fixed spaces: one elimination per orbit, as
    # a walk meets g V^x = V^(g x g^-1) for every g and sets stratum_of
    # for every element with that fixed space
    for c in range(order):
        if stratum_of[c] is None:
            space = fixed_space(group.element(c))
            walk(pointwise_stabilizer(space), space)

    # a stratum is the fixed space V^H of a subgroup; when H preserves a
    # symplectic form, V^H is symplectic, so its dimension is even
    step = 1 if group.omega is None else 2
    # gamma, the meet-irreducible atoms, one atom orbit at a time in
    # ascending codimension: A is out when two atoms of codimension
    # codim A - step lie above it, as their meet can only be A, or else
    # when the rows of y - 1 over the gamma atoms V^y above A, whose
    # common kernel is the meet of those atoms, have rank codim A.  An
    # atom's rows are made once
    by_codim = {}
    for t in range(len(masks)):
        by_codim.setdefault(spaces[t].codim, []).append(t)
    rows, gamma = {}, []
    for members, _, _ in sorted(walks, key=lambda w: spaces[w[0][0]].codim):
        codim, k_a = spaces[members[0]].codim, masks[members[0]]
        if not codim or sum(
            masks[t] & k_a == masks[t] for t in by_codim.get(codim - step, ())
        ) > 1:
            continue
        stacked = []
        for t in gamma:
            if masks[t] & k_a == masks[t]:
                if t not in rows:
                    y = group.element(owner[t])
                    rows[t] = Subspace.from_spanning(n, (
                        y - ExactMatrix.identity(n, conductor)
                    ).row_lists(), conductor).basis
                stacked.extend(rows[t])
        if Subspace.from_spanning(n, stacked, conductor).dim < codim:
            gamma.extend(members)

    # every stratum is the meet of the gamma atoms above it, and
    # (g S) ^ A = g (S ^ g^-1 A) with gamma G-invariant, so each orbit's
    # first member S is met with the gamma atoms only; walks grows while
    # it is scanned, so new meets are met in turn
    for orbit_walk in walks:
        first = orbit_walk[0][0]
        k_s, s = masks[first], spaces[first]
        below = {}  # the known strata in S, by dimension
        for t, m in enumerate(masks):
            if m != k_s and m & k_s == k_s:
                below.setdefault(spaces[t].dim, []).append(m)
        for t in gamma:
            a = spaces[t]
            both = k_s | masks[t]
            if both in found:
                continue
            # a known stratum with a mask above both lies in S ^ A; the
            # meet is known when one of them has its dimension.  S and A
            # are incomparable, so that dimension is at most top, and
            # only join_dim can tell whether it is less
            top = min(s.dim, a.dim) - step
            if any(m & both == both for m in below.get(top, ())):
                continue
            dim = s.dim + a.dim - s.join_dim(a)
            if dim < top and any(m & both == both for m in below.get(dim, ())):
                continue
            cap = s.intersect(a)
            walk(pointwise_stabilizer(cap), cap)
            below.setdefault(dim, []).extend(
                m for m in masks[walks[-1][0][0]:] if m & k_s == k_s
            )

    # S_j lies strictly below S_i exactly when K_i is a proper subset of
    # K_j.  The covers of each orbit's first member are the largest
    # strata below it, moved to the rest of the orbit along the walk's tree
    covers = [None] * len(masks)
    for members, _, parents in walks:
        k_s = masks[members[0]]
        below = sorted(
            (t for t, m in enumerate(masks) if m != k_s and m & k_s == k_s),
            key=lambda t: -spaces[t].dim,
        )
        tops = []
        for t in below:
            if not any(masks[c] & masks[t] == masks[c] for c in tops):
                tops.append(t)
        covers[members[0]] = tops
        for t, (p, k) in zip(members[1:], parents[1:]):
            covers[t] = [act[k][c] for c in covers[members[p]]]

    ranked = sorted(
        range(len(masks)), key=lambda t: (spaces[t].codim, spaces[t].key())
    )
    index = [None] * len(masks)
    for i, t in enumerate(ranked):
        index[t] = i
    strata = tuple(
        Stratum(
            subspace=spaces[t],
            codim=spaces[t].codim,
            stabilizer_order=masks[t].bit_count(),
            covers=tuple(sorted(index[c] for c in covers[t])),
        )
        for t in ranked
    )
    return StratificationLattice(strata, tuple(sorted(
        tuple(sorted(index[t] for t in members)) for members, _, _ in walks
    )))


def parse_fiber_data(document) -> dict[int, int]:
    """Fiber dimensions per stratum index, from a JSON document of the
    form {"fibers": {"<stratum index>": dimension, ...}}.  An index is
    written in plain decimal, and given at most once."""
    if isinstance(document, (str, bytes)):
        document = load_json(document, FiberDataError)
    if not isinstance(document, dict):
        raise FiberDataError("fiber document must be a JSON object")
    if "fibers" not in document:
        raise FiberDataError('fiber document needs a "fibers" key')
    refuse_unknown_keys(document, ("fibers",), FiberDataError)
    raw = document["fibers"]
    if not isinstance(raw, dict):
        raise FiberDataError('"fibers" must map stratum indices to dimensions')
    fibers = {}
    for key, value in raw.items():
        if isinstance(key, str) and len(key) > 20:
            # a longer index names no stratum, and int() could make it huge
            raise FiberDataError(
                "stratum index %s has %d characters, too many for an index"
                % (quote(key), len(key))
            )
        try:
            idx = int(key)
        except (TypeError, ValueError):
            raise FiberDataError(
                "stratum index %s is not an integer" % quote(key)
            ) from None
        if str(idx) != str(key):
            # "01" or " 1" would silently alias stratum 1
            raise FiberDataError(
                "stratum index %s is not written in plain decimal" % quote(key)
            )
        if idx < 0:
            raise FiberDataError("stratum index %d is negative" % idx)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise FiberDataError(
                "fiber dimension for stratum %d must be a nonnegative integer" % idx
            )
        fibers[idx] = value
    return fibers


class StratumCheck(NamedTuple):
    stratum_index: int
    codim: int
    fiber_dim: int
    ok: bool


class SemismallReport(NamedTuple):
    checks: tuple[StratumCheck, ...]
    passed: bool


def semismall_check(
    lattice: StratificationLattice, fibers: dict[int, int]
) -> SemismallReport:
    """Whether a map with the given fiber dimensions over each stratum
    is semismall: every fiber dimension is at most half the stratum
    codimension.  Every stratum must come with a fiber dimension, and
    every index must name a stratum."""
    unknown = sorted(i for i in fibers if i >= len(lattice.strata))
    if unknown:
        raise FiberDataError(
            "no stratum %s: the lattice has %d strata"
            % (", ".join(str(i) for i in unknown), len(lattice.strata))
        )
    missing = [
        i for i in range(len(lattice.strata)) if i not in fibers
    ]
    if missing:
        raise MissingFiberData(missing)
    checks = []
    for i, stratum in enumerate(lattice.strata):
        fiber = fibers[i]
        checks.append(
            StratumCheck(
                stratum_index=i,
                codim=stratum.codim,
                fiber_dim=fiber,
                ok=2 * fiber <= stratum.codim,
            )
        )
    return SemismallReport(
        checks=tuple(checks), passed=all(c.ok for c in checks)
    )
