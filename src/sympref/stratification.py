"""Stratification of the representation space by fixed subspaces.

The strata are the intersection closure of the element fixed spaces,
that is the subspaces V^H for subgroups H.  Each stratum S is held with
its pointwise stabilizer K_S = {g : S lies in V^g} as a bitmask over
element indices.  S = V^(K_S), so S lies in T exactly when K_T is a
subset of K_S, the stabilizer order is a popcount, and g S has
stabilizer g K_S g^-1: covers, orders and orbits need no subspace.

Elimination runs only where it can find something new.  The atoms,
the distinct element fixed spaces, take one `fixed_space` per cyclic
subgroup, and their masks one stabilizer per conjugation orbit.  Every
stratum is a meet of atoms (Orlik and Terao, Arrangements of
Hyperplanes, 1992), and (g S) ^ A = g (S ^ g^-1 A), so orbit
representatives are met with the atoms only.  A pair is skipped when
K_S | K_A is a known mask (as it is when the masks are comparable), or
when a known stratum with a mask above K_S | K_A (which lies in S ^ A)
has the dimension of S ^ A, dim S + dim A - dim(S + A).  A new meet is
intersected once and its orbit moved by the generator matrices.  Each
orbit, of atoms or of meets, is walked once, by the closure routine of
`groups`, and the lattice reports the orbits it walked.

Strata are ordered by ascending codimension, then by canonical
subspace key, so stratum indices are stable and can be referenced from
fiber-dimension data.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cyclotomic import BadInput
from .groups import FiniteMatrixGroup, _closure, powers
from .jsonin import load_json, quote, refuse_unknown_keys
from .linalg import Subspace, fixed_space


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


class Stratum(NamedTuple):
    subspace: Subspace
    codim: int
    stabilizer_order: int  # elements fixing the subspace pointwise
    covers: tuple[int, ...]  # immediate sub-strata indices


class StratificationLattice:
    """The strata in index order; its length is the number of strata."""

    __slots__ = ("strata", "orbits")

    def __init__(self, strata, orbits):
        self.strata: tuple[Stratum, ...] = strata
        # orbits of strata under the group
        self.orbits: tuple[tuple[int, ...], ...] = orbits

    def __len__(self):
        return len(self.strata)


def build_lattice(group: FiniteMatrixGroup) -> StratificationLattice:
    """Intersection closure of the element fixed spaces."""
    # the atoms: the distinct element fixed spaces, one elimination per
    # cyclic subgroup (x^e fixes what x fixes when e is prime to ord x),
    # and for each the mask of the elements whose fixed space it is
    atom_of = [None] * group.order
    spaces, owners = {}, {}
    for i in range(group.order):
        if atom_of[i] is None:
            s = fixed_space(group.element(i))
            spaces.setdefault(s.key(), s)
            cycle = powers(group, i)
            for e, x in enumerate(cycle):
                if math.gcd(e, len(cycle)) == 1:
                    atom_of[x] = s.key()
                    owners[s.key()] = owners.get(s.key(), 0) | 1 << x

    def stabilizer(space, known):
        # known: elements already known to fix the space.  Masks are
        # unions of owner masks, and owners are disjoint, so the atoms
        # left to test are those whose owners miss known; an atom of the
        # space's own dimension contains it only if it is the space
        return known + sum(
            own for a, own in owners.items()
            if not own & known and spaces[a].dim > space.dim
            and space.is_subspace_of(spaces[a])
        )

    conjugations = group.conjugations()
    gens = [group.element(i) for i in group.generator_indices()]
    found, walks = {}, []  # strata by pointwise stabilizer; orbits walked

    def move(m, k):
        # g S has mask g K_S g^-1.  Its subspace is recorded when first
        # met: an atom's is looked up, as g V^x is V^(g x g^-1), and a
        # meet's is moved by the generator's matrix
        image = _conjugate(m, conjugations[k])
        if image not in found:
            s = found[m]
            if s.key() in owners:
                x = owners[s.key()].bit_length() - 1  # an element with V^x = s
                found[image] = spaces[atom_of[conjugations[k][x]]]
            else:
                found[image] = Subspace.from_spanning(
                    group.dimension, [gens[k].apply(v) for v in s.basis],
                    group.conductor,
                )
        return image

    def walk(mask, space):
        found[mask] = space
        walks.append(_closure(mask, range(len(gens)), move, group.order)[0])

    # the atoms' masks, one stabilizer per conjugation orbit
    atom_masks = {}
    for key in owners:
        if key not in atom_masks:
            walk(stabilizer(spaces[key], owners[key]), spaces[key])
            atom_masks.update((found[m].key(), m) for m in walks[-1])
    # S = V^(K_S), so a mask names its stratum, and V^(K_S | K_A) is the
    # meet of S and A
    atoms = [(atom_masks[key], spaces[key]) for key in owners]
    # every stratum is a meet of atoms, and (g S) ^ A = g (S ^ g^-1 A),
    # so it is enough to meet each orbit's first member with the atoms;
    # walks grows while it is scanned
    for orbit in walks:
        k = orbit[0]
        s = found[k]
        for mask, a in atoms:
            both = k | mask
            if both in found:
                continue
            # a known stratum with a mask above both lies in S ^ A; the
            # meet is known when the largest of them has its dimension
            dim = s.dim + a.dim - s.join_dim(a)
            if any(m & both == both and t.dim == dim for m, t in found.items()):
                continue
            cap = s.intersect(a)
            walk(stabilizer(cap, both), cap)

    stabs = sorted(found, key=lambda m: (found[m].codim, found[m].key()))
    # S_j lies strictly below S_i exactly when K_i is a proper subset of K_j
    below = [
        {j for j, other in enumerate(stabs) if other != m and other & m == m}
        for m in stabs
    ]
    index = {m: i for i, m in enumerate(stabs)}
    strata = tuple(
        Stratum(
            subspace=found[m],
            codim=found[m].codim,
            stabilizer_order=m.bit_count(),
            covers=tuple(sorted(b.difference(*(below[j] for j in b)))),
        )
        for m, b in zip(stabs, below)
    )
    orbits = sorted(tuple(sorted(index[m] for m in walk)) for walk in walks)
    return StratificationLattice(strata, tuple(orbits))


def _conjugate(mask, perm):
    """The mask of the images under perm of the indices set in mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


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
