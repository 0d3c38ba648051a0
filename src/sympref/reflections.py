"""Reflection structure of a finite matrix group and what it implies.

An element is a symplectic reflection when its fixed space has
codimension exactly 2, and a complex reflection when the codimension is
1.  The census is one pass over the group's table of fixed-space
dimensions (`FiniteMatrixGroup.fixed_dimensions`), which reads dim V^g
off the traces the closure kept: the mean of tr(g^k) over the cyclic
group <g>, that mean being the trace of the projection onto V^g, once
per cyclic subgroup.  The table is cached on the group, so no function
here takes a census as an argument.  The subgroup
generated by all symplectic reflections is normal; if it is proper,
the symplectic quotient V/G admits no symplectic resolution, which is
the verdict this module computes.  The positive branch is only a
necessary condition, never a claim that a resolution exists.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclotomic import InvariantViolation
from .groups import (
    FiniteMatrixGroup,
    SubgroupHandle,
    _members,
    generated_subgroup,
    is_normal,
)
# fixed_space is no longer called here, but stays importable from this
# module: perfbench/layers.py wraps it here to count eliminations
from .linalg import ExactMatrix, fixed_space, pairing_form  # noqa: F401

VERDICT_OBSTRUCTED = "NoSymplecticResolution"
VERDICT_HOLDS = "NecessaryConditionHolds"

DUVAL_NOTE = (
    "dimension 2: the quotient is a Du Val singularity and a crepant "
    "resolution always exists"
)


class ReflectionCensus(NamedTuple):
    """Indices of the elements of fixed-space codimension 2, and of 1."""

    symplectic_reflections: tuple[int, ...]
    complex_reflections: tuple[int, ...]


def census(group: FiniteMatrixGroup) -> ReflectionCensus:
    """Classify every element by the codimension of its fixed space, in
    one pass over the group's table of fixed-space dimensions."""
    by_codim = {2: [], 1: []}
    for i, d in enumerate(group.fixed_dimensions()):
        by_codim.get(group.dimension - d, []).append(i)
    return ReflectionCensus(tuple(by_codim[2]), tuple(by_codim[1]))


def reflection_subgroup(group: FiniteMatrixGroup) -> SubgroupHandle:
    """The subgroup generated by all symplectic reflections."""
    sub = generated_subgroup(group, census(group).symplectic_reflections)
    # conjugation preserves fixed-space codimension, so the generating
    # set is closed under conjugation and the subgroup is normal
    if not is_normal(sub):
        raise InvariantViolation("the reflection subgroup is not normal")
    return sub


class Verdict(NamedTuple):
    """Outcome of the symplectic resolution test for V/G."""

    kind: str
    group_order: int
    reflection_subgroup_order: int
    reflection_subgroup_index: int
    duval_note: str | None


def verdict(
    group: FiniteMatrixGroup, sub: SubgroupHandle | None = None
) -> Verdict:
    """Decide whether symplectic reflections generate the whole group;
    sub, when given, is the group's reflection subgroup.

    When they do not, V/G has no symplectic resolution.  The trivial
    group is generated by the empty set of reflections, so it passes
    vacuously.
    """
    if sub is None:
        sub = reflection_subgroup(group)
    elif sub.parent is not group:
        raise ValueError("subgroup belongs to a different group")
    index = group.order // sub.order
    kind = VERDICT_HOLDS if index == 1 else VERDICT_OBSTRUCTED
    note = None
    if group.dimension == 2 and kind == VERDICT_HOLDS:
        note = DUVAL_NOTE
    return Verdict(
        kind=kind,
        group_order=group.order,
        reflection_subgroup_order=sub.order,
        reflection_subgroup_index=index,
        duval_note=note,
    )


def complex_reflections_generate(group: FiniteMatrixGroup) -> bool:
    """Whether complex reflections generate the group; for a linear
    action this is exactly the condition for V/G to be smooth."""
    return generated_subgroup(group, census(group).complex_reflections).is_whole_group


def z_locus_min_codim(subgroup: SubgroupHandle) -> int:
    """Minimal fixed-space codimension over the elements of the
    subgroup's group outside it.

    When the subgroup is everything there are no such elements and the
    sentinel dimension + 1 is returned.  For the reflection subgroup
    the result is at least 4: codimensions are even, and anything of
    codimension 2 would be a reflection and hence inside.
    """
    group = subgroup.parent
    if subgroup.is_whole_group:
        return group.dimension + 1
    dims = group.fixed_dimensions()
    outside = subgroup.mask ^ ((1 << group.order) - 1)
    return group.dimension - max(dims[i] for i in _members(outside))


def doubled_element(g: ExactMatrix) -> ExactMatrix:
    """Block matrix acting as g on W and as the inverse transpose on
    the dual copy, so that the natural pairing is preserved."""
    n, zero = g.rows, [0] * g.rows
    dual = g.inverse().transpose()
    return ExactMatrix.from_rows(
        [list(g.row(i)) + zero for i in range(n)]
        + [zero + list(dual.row(i)) for i in range(n)],
        g.conductor,
    )


def double(group: FiniteMatrixGroup) -> FiniteMatrixGroup:
    """The action on W + W* induced by a linear action on W.

    The doubled generators are closed again, under the dual pairing
    form, which closure checks they preserve.  g -> doubled_element(g)
    is an injective homomorphism, so the closure, bounded by the
    group's order, must reach it; anything else is a broken invariant.
    """
    doubled = FiniteMatrixGroup.closure(
        2 * group.dimension, group.conductor,
        pairing_form(group.dimension, group.conductor),
        [doubled_element(g) for g in group.generators],
        max_order=group.order,
    )
    if doubled.order != group.order:
        raise InvariantViolation(
            "the doubled group has order %d, the group %d"
            % (doubled.order, group.order)
        )
    return doubled
