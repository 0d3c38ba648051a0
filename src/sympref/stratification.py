"""Stratification of the representation space by fixed subspaces.

The strata are the intersection closure of the element fixed spaces,
that is the subspaces V^H for subgroups H.  Each stratum S is held with
its pointwise stabilizer K_S = {g : S lies in V^g} as a bitmask over
element indices.  S = V^(K_S), so S lies in T exactly when K_T is a
subset of K_S, the stabilizer order is a popcount, and g S has
stabilizer g K_S g^-1: covers, orders and orbits (by the shared
`groups.orbits` routine) need no subspace.  Strata are ordered by
ascending codimension, then by canonical subspace key, so stratum
indices are stable and can be referenced from fiber-dimension data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .groups import FiniteMatrixGroup, orbits
from .linalg import Subspace, fixed_space


class FiberDataError(ValueError):
    """Malformed fiber-dimension document."""


class MissingFiberData(ValueError):
    """Fiber dimensions were not supplied for some strata."""

    def __init__(self, indices):
        self.indices = tuple(indices)
        super().__init__(
            "missing fiber dimensions for strata %s"
            % ", ".join(str(i) for i in self.indices)
        )


@dataclass(frozen=True)
class Stratum:
    subspace: Subspace
    codim: int
    stabilizer_order: int  # elements fixing the subspace pointwise
    covers: tuple[int, ...]  # immediate sub-strata indices


@dataclass(frozen=True)
class StratificationLattice:
    strata: tuple[Stratum, ...]
    orbits: tuple[tuple[int, ...], ...]  # orbits of strata under the group

    def __len__(self):
        return len(self.strata)


def build_lattice(group: FiniteMatrixGroup) -> StratificationLattice:
    """Intersection closure of the element fixed spaces."""
    # the atoms: the distinct element fixed spaces, and for each the
    # mask of the elements whose fixed space it is
    spaces, owners = {}, {}
    for i, g in enumerate(group.elements):
        s = fixed_space(g)
        spaces.setdefault(s.key(), s)
        owners[s.key()] = owners.get(s.key(), 0) | 1 << i

    def stabilizer(space):
        # the owners of the atoms containing the space; owners are
        # disjoint, so their sum is their union
        return sum(
            own for a, own in owners.items()
            if spaces[a].dim >= space.dim and space.is_subspace_of(spaces[a])
        )

    found = list(owners)
    masks = {k: stabilizer(spaces[k]) for k in found}
    # found grows while it is scanned, and each pair is met once; the
    # meet of a comparable pair is one of the pair
    for i, k in enumerate(found):
        for t in found[:i]:
            if masks[k] & masks[t] not in (masks[k], masks[t]):
                cap = spaces[k].intersect(spaces[t])
                if cap.key() not in spaces:
                    spaces[cap.key()] = cap
                    masks[cap.key()] = stabilizer(cap)
                    found.append(cap.key())

    found.sort(key=lambda k: (spaces[k].codim, k))
    stabs = [masks[k] for k in found]
    # S_j lies strictly below S_i exactly when K_i is a proper subset of K_j
    below = [
        {j for j, other in enumerate(stabs) if other != m and other & m == m}
        for m in stabs
    ]
    # g S has pointwise stabilizer g K_S g^-1
    index = {m: i for i, m in enumerate(stabs)}
    moves = [
        [index[_conjugate(m, conj)] for m in stabs]
        for conj in group.conjugations()
    ]
    strata = tuple(
        Stratum(
            subspace=spaces[k],
            codim=spaces[k].codim,
            stabilizer_order=m.bit_count(),
            covers=tuple(sorted(b.difference(*(below[j] for j in b)))),
        )
        for k, m, b in zip(found, stabs, below)
    )
    return StratificationLattice(strata, orbits(len(strata), moves))


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
    form {"fibers": {"<stratum index>": dimension, ...}}."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise FiberDataError("invalid JSON: %s" % exc) from None
    if not isinstance(document, dict):
        raise FiberDataError("fiber document must be a JSON object")
    if "fibers" not in document:
        raise FiberDataError('fiber document needs a "fibers" key')
    raw = document["fibers"]
    if not isinstance(raw, dict):
        raise FiberDataError('"fibers" must map stratum indices to dimensions')
    fibers = {}
    for key, value in raw.items():
        try:
            idx = int(key)
        except (TypeError, ValueError):
            raise FiberDataError("stratum index %r is not an integer" % key) from None
        if idx < 0:
            raise FiberDataError("stratum index %d is negative" % idx)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise FiberDataError(
                "fiber dimension for stratum %d must be a nonnegative integer" % idx
            )
        fibers[idx] = value
    return fibers


@dataclass(frozen=True)
class StratumCheck:
    stratum_index: int
    codim: int
    fiber_dim: int
    ok: bool


@dataclass(frozen=True)
class SemismallReport:
    checks: tuple[StratumCheck, ...]
    passed: bool


def semismall_check(
    lattice: StratificationLattice, fibers: dict[int, int]
) -> SemismallReport:
    """Whether a map with the given fiber dimensions over each stratum
    is semismall: every fiber dimension is at most half the stratum
    codimension.  Every stratum must come with a fiber dimension."""
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
