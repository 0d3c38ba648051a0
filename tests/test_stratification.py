from functools import reduce

import pytest

from sympref.catalog import CATALOG, get_entry
from sympref.groups import FiniteMatrixGroup
from sympref.linalg import (
    ExactMatrix,
    Subspace,
    fixed_space,
    standard_symplectic_form,
)
from sympref.reflections import double
from sympref.stratification import (
    FiberDataError,
    MissingFiberData,
    build_lattice,
    parse_fiber_data,
    semismall_check,
)


def perm_matrix(images):
    n = len(images)
    rows = [[0] * n for _ in range(n)]
    for src, dst in enumerate(images):
        rows[dst][src] = 1
    return ExactMatrix.from_rows(rows)


def diagonal(*values):
    n = len(values)
    return ExactMatrix.from_rows(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def block_swap_group():
    return FiniteMatrixGroup.closure(
        4, 1, standard_symplectic_form(4), [perm_matrix([2, 3, 0, 1])]
    )


def s3_group():
    return FiniteMatrixGroup.closure(
        3, 1, None, [perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])]
    )


def test_block_swap_lattice():
    lat = build_lattice(block_swap_group())
    assert len(lat) == 2
    assert [s.codim for s in lat.strata] == [0, 2]
    assert lat.strata[0].stabilizer_order == 1
    assert lat.strata[1].stabilizer_order == 2
    assert lat.strata[0].covers == (1,)
    assert lat.strata[1].covers == ()
    assert lat.strata[1].subspace == Subspace.from_spanning(
        4, [[1, 0, 1, 0], [0, 1, 0, 1]]
    )
    assert lat.orbits == ((0,), (1,))


def test_klein_four_lattice():
    g = FiniteMatrixGroup.closure(
        4, 1, standard_symplectic_form(4),
        [diagonal(-1, -1, 1, 1), diagonal(1, 1, -1, -1)],
    )
    lat = build_lattice(g)
    assert [s.codim for s in lat.strata] == [0, 2, 2, 4]
    assert [s.stabilizer_order for s in lat.strata] == [1, 2, 2, 4]
    assert lat.strata[0].covers == (1, 2)
    assert lat.strata[1].covers == (3,)
    assert lat.strata[2].covers == (3,)
    assert lat.strata[3].covers == ()
    # diagonal action, so every stratum is fixed setwise
    assert lat.orbits == ((0,), (1,), (2,), (3,))


def test_symmetric_group_lattice_and_orbits():
    lat = build_lattice(s3_group())
    assert [s.codim for s in lat.strata] == [0, 1, 1, 1, 2]
    assert [s.stabilizer_order for s in lat.strata] == [1, 2, 2, 2, 6]
    assert lat.strata[0].covers == (1, 2, 3)
    for i in (1, 2, 3):
        assert lat.strata[i].covers == (4,)
    # the three mirror planes form one orbit
    assert lat.orbits == ((0,), (1, 2, 3), (4,))


def test_doubled_lattice_doubles_codimensions():
    lat = build_lattice(double(s3_group()))
    assert [s.codim for s in lat.strata] == [0, 2, 2, 2, 4]
    assert [s.stabilizer_order for s in lat.strata] == [1, 2, 2, 2, 6]
    assert lat.orbits == ((0,), (1, 2, 3), (4,))


def test_lattice_respects_intersection_closure():
    # the two fixed spaces of codimension 2 meet in the fixed space of
    # the product diag(-1, -1, -1, -1, 1, 1)
    g = FiniteMatrixGroup.closure(
        6, 1, standard_symplectic_form(6),
        [diagonal(-1, -1, 1, 1, 1, 1), diagonal(1, 1, -1, -1, 1, 1)],
    )
    lat = build_lattice(g)
    codims = [s.codim for s in lat.strata]
    assert codims == [0, 2, 2, 4]
    stabs = [s.stabilizer_order for s in lat.strata]
    assert stabs == [1, 2, 2, 4]


def test_lattice_adds_a_meet_that_is_no_fixed_space():
    # the three fixed spaces of codimension 4 meet pairwise in 0, which
    # is no element's fixed space but must still appear in the lattice
    g = FiniteMatrixGroup.closure(
        6, 1, standard_symplectic_form(6),
        [diagonal(-1, -1, 1, 1, -1, -1), diagonal(1, 1, -1, -1, -1, -1)],
    )
    lat = build_lattice(g)
    assert [s.codim for s in lat.strata] == [0, 4, 4, 4, 6]
    assert [s.stabilizer_order for s in lat.strata] == [1, 2, 2, 2, 4]
    assert [s.covers for s in lat.strata] == [(1, 2, 3), (4,), (4,), (4,), ()]
    assert lat.orbits == ((0,), (1,), (2,), (3,), (4,))


@pytest.mark.parametrize(
    "name, bell, partitions",
    [("symmetric_n2", 2, 2), ("symmetric_n3", 5, 3), ("symmetric_n4", 15, 5)],
)
def test_symmetric_group_strata_are_set_partitions(name, bell, partitions):
    # S_n on n planes: the strata are the set partitions of the planes,
    # Bell(n) of them, and their orbits the integer partitions of n
    lat = build_lattice(get_entry(name).build())
    assert len(lat) == bell
    assert len(lat.orbits) == partitions


def reference_lattice(group, spaces):
    """Stabilizer orders, covers and orbits of the given strata,
    recomputed from subspaces: inclusion in each element's fixed space,
    pairwise inclusion, and bases moved by the generators."""
    fixed = [fixed_space(g) for g in group.elements]
    orders = [sum(s.is_subspace_of(f) for f in fixed) for s in spaces]
    below = [
        {j for j, t in enumerate(spaces) if t.dim < s.dim and t.is_subspace_of(s)}
        for s in spaces
    ]
    covers = [
        tuple(j for j in sorted(b) if not any(j in below[k] for k in b))
        for b in below
    ]
    index = {s.key(): i for i, s in enumerate(spaces)}
    gens = [group.element(i) for i in group.generator_indices()]
    orbits, seen = [], set()
    for start in range(len(spaces)):
        if start in seen:
            continue
        orbit = [start]
        for i in orbit:
            for g in gens:
                moved = Subspace.from_spanning(
                    group.dimension,
                    [g.apply(v) for v in spaces[i].basis],
                    group.conductor,
                )
                if index[moved.key()] not in orbit:
                    orbit.append(index[moved.key()])
        seen.update(orbit)
        orbits.append(tuple(sorted(orbit)))
    return orders, covers, tuple(orbits)


@pytest.mark.parametrize(
    "name", [e.name for e in CATALOG if e.expected_order <= 54]
)
def test_lattice_matches_subspace_recomputation(name):
    group = get_entry(name).build()
    lat = build_lattice(group)
    spaces = [s.subspace for s in lat.strata]
    keys = [s.key() for s in spaces]
    # the strata are the element fixed spaces and their meets, each
    # once, each the meet of the fixed spaces containing it
    assert len(set(keys)) == len(keys)
    fixed = [fixed_space(g) for g in group.elements]
    assert {f.key() for f in fixed} <= set(keys)
    assert all(s.intersect(t).key() in keys for s in spaces for t in spaces)
    for s in spaces:
        meet = reduce(Subspace.intersect, [f for f in fixed if s.is_subspace_of(f)])
        assert meet == s
    assert [s.codim for s in lat.strata] == [s.codim for s in spaces]
    assert [(s.codim, s.key()) for s in spaces] == sorted(
        (s.codim, s.key()) for s in spaces
    )
    orders, covers, orbits = reference_lattice(group, spaces)
    assert [s.stabilizer_order for s in lat.strata] == orders
    assert [s.covers for s in lat.strata] == covers
    assert lat.orbits == orbits


def test_parse_fiber_data():
    fibers = parse_fiber_data('{"fibers": {"0": 0, "1": 3}}')
    assert fibers == {0: 0, 1: 3}
    assert parse_fiber_data({"fibers": {}}) == {}


@pytest.mark.parametrize(
    "doc",
    [
        "not json",
        "[]",
        "{}",
        '{"fibers": []}',
        '{"fibers": {"x": 1}}',
        '{"fibers": {"-1": 1}}',
        '{"fibers": {"0": -1}}',
        '{"fibers": {"0": 1.5}}',
        '{"fibers": {"0": true}}',
        # each would silently stand for stratum 1
        '{"fibers": {"01": 1}}',
        '{"fibers": {"+1": 1}}',
        '{"fibers": {" 1": 1}}',
        '{"fibers": {"1": 0, "1": 1}}',
    ],
)
def test_parse_fiber_data_rejects_malformed_documents(doc):
    with pytest.raises(FiberDataError):
        parse_fiber_data(doc)


def test_semismall_check_passes_and_fails():
    lat = build_lattice(block_swap_group())
    ok = semismall_check(lat, {0: 0, 1: 1})
    assert ok.passed
    assert [c.ok for c in ok.checks] == [True, True]
    bad = semismall_check(lat, {0: 0, 1: 2})
    assert not bad.passed
    assert [c.ok for c in bad.checks] == [True, False]
    assert bad.checks[1].codim == 2
    assert bad.checks[1].fiber_dim == 2


def test_semismall_check_requires_all_strata():
    lat = build_lattice(block_swap_group())
    with pytest.raises(MissingFiberData) as exc:
        semismall_check(lat, {0: 0})
    assert exc.value.indices == (1,)


def test_semismall_check_rejects_indices_of_no_stratum():
    lat = build_lattice(block_swap_group())
    with pytest.raises(FiberDataError, match="no stratum 2, 7: the lattice has 2"):
        semismall_check(lat, {0: 0, 1: 1, 2: 0, 7: 3})


def test_semismall_on_doubled_symmetric_group():
    lat = build_lattice(double(s3_group()))
    fibers = {i: s.codim // 2 for i, s in enumerate(lat.strata)}
    assert semismall_check(lat, fibers).passed
    fibers[4] += 1
    assert not semismall_check(lat, fibers).passed
