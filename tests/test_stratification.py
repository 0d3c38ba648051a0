import hashlib
import math
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympref import specio, stratification
from sympref.catalog import (
    CATALOG,
    build_imprimitive_doubled,
    build_sl2_subgroup,
    build_symmetric_on_squares,
    build_weyl_doubled,
    get_entry,
)
from sympref.cyclotomic import CyclotomicNumber
from sympref.groups import FiniteMatrixGroup, powers
from sympref.linalg import (
    ExactMatrix,
    Subspace,
    fixed_space,
    standard_symplectic_form,
)
from sympref.reflections import census, double, verdict
from sympref.specio import analyze
from sympref.stratification import (
    FiberDataError,
    MissingFiberData,
    build_lattice,
    parse_fiber_data,
    semismall_check,
)

from helpers import (
    apply, block_swap_group, diagonal, even_sign_changes, perm_matrix,
    s3_group, transvection,
)


def test_block_swap_lattice():
    lat = build_lattice(block_swap_group())
    assert len(lat.strata) == 2
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


MEET_A = (-1, -1, 1, 1, -1, -1)
MEET_B = (1, 1, -1, -1, -1, -1)


def meet_group():
    # the three fixed spaces of codimension 4 meet pairwise in 0, which
    # is no element's fixed space
    return FiniteMatrixGroup.closure(
        6, 1, standard_symplectic_form(6), [diagonal(*MEET_A), diagonal(*MEET_B)]
    )


def meet_group_squared():
    # two copies of meet_group on C^12, swapped by the last generator:
    # order 32, 35 strata, 9 of them no element's fixed space, in 5
    # orbits, some of size 2
    one = (1,) * 6
    return FiniteMatrixGroup.closure(
        12, 1, standard_symplectic_form(12),
        [
            diagonal(*MEET_A, *one),
            diagonal(*MEET_B, *one),
            perm_matrix([6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5]),
        ],
    )


def test_lattice_adds_a_meet_that_is_no_fixed_space():
    # 0 must still appear in the lattice
    lat = build_lattice(meet_group())
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
    assert len(lat.strata) == bell
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
                    [apply(g, v) for v in spaces[i].basis],
                    group.conductor,
                )
                if index[moved.key()] not in orbit:
                    orbit.append(index[moved.key()])
        seen.update(orbit)
        orbits.append(tuple(sorted(orbit)))
    return orders, covers, tuple(orbits)


SMALL_CATALOG = [e for e in CATALOG if e.expected_order <= 54]


@pytest.mark.parametrize(
    "build",
    [pytest.param(e.build, id=e.name) for e in SMALL_CATALOG]
    + [
        pytest.param(meet_group, id="meet_group"),
        pytest.param(meet_group_squared, id="meet_group_squared"),
    ],
)
def test_lattice_matches_subspace_recomputation(build):
    group = build()
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


def conjugations(group):
    """Per element g, the permutation x -> g x g^-1 of element indices."""
    return [
        [
            group.product_index(group.product_index(g, x), group.inverse_index(g))
            for x in range(group.order)
        ]
        for g in range(group.order)
    ]


def stratum_moves(group, lattice):
    """Per element, the permutation of stratum indices it induces,
    from each stratum's basis moved by the element's matrix."""
    index = {s.subspace.key(): i for i, s in enumerate(lattice.strata)}
    return [
        [
            index[Subspace.from_spanning(
                group.dimension,
                [apply(g, v) for v in s.subspace.basis],
                group.conductor,
            ).key()]
            for s in lattice.strata
        ]
        for g in group.elements
    ]


def suborbit_pairs(group, lattice):
    """The number of pairs (orbit of strata, orbit of the setwise
    stabilizer of its first member on the atoms), by brute force."""
    moves = stratum_moves(group, lattice)
    fixed = {fixed_space(g).key() for g in group.elements}
    atoms = [
        i for i, s in enumerate(lattice.strata) if s.subspace.key() in fixed
    ]
    pairs = 0
    for orbit in lattice.orbits:
        stab = [p for p in moves if p[orbit[0]] == orbit[0]]
        pairs += len({frozenset(p[a] for p in stab) for a in atoms})
    return pairs


def counted(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def count_meets(monkeypatch):
    """A Counter of the Subspace.join_dim and Subspace.intersect calls
    made from here on."""
    calls = Counter()
    for name in ("join_dim", "intersect"):
        monkeypatch.setattr(
            Subspace, name, counted(calls, name, getattr(Subspace, name))
        )
    return calls


def test_lattice_eliminates_once_per_cyclic_subgroup_and_new_meet_orbit(
    monkeypatch,
):
    # conjugate elements have conjugate fixed spaces,
    # V^(g x g^-1) = g V^x, and a stratum found once gives its whole
    # orbit, so build_lattice needs one fixed_space per orbit of distinct
    # element fixed spaces and one intersect per orbit of strata that are
    # no element's fixed space.  It meets each orbit's first member S with
    # the meet-irreducible atoms only and settles most pairs by masks, so
    # on these groups join_dim runs at most once per orbit of S's setwise
    # stabilizer on the atoms
    calls = count_meets(monkeypatch)
    monkeypatch.setattr(
        stratification, "fixed_space", counted(calls, "fixed_space", fixed_space)
    )
    builds = {e.name: e.build for e in SMALL_CATALOG}
    builds.update(meet_group=meet_group, meet_group_squared=meet_group_squared)
    counts, expected = {}, {}
    for name, build in builds.items():
        group = build()
        calls.clear()
        lat = build_lattice(group)
        counts[name] = (calls["fixed_space"], calls["intersect"])
        keys = [fixed_space(g).key() for g in group.elements]
        conj = conjugations(group)
        # the orbit of V^x is the set of V^(g x g^-1) over all g
        atom_orbits = {frozenset(keys[p[x]] for p in conj) for x in range(group.order)}
        fixed = set(keys)
        meets = [o for o in lat.orbits if lat.strata[o[0]].subspace.key() not in fixed]
        expected[name] = (len(atom_orbits), len(meets))
        assert calls["join_dim"] <= suborbit_pairs(group, lat), name
    assert counts == expected
    assert {n: m for n, (_, m) in expected.items() if m} == {
        "meet_group": 1, "meet_group_squared": 5,
    }


@pytest.mark.parametrize("k", range(3, 8))
def test_even_sign_change_lattice_meets_its_closed_forms(monkeypatch, k):
    # E_k negates an even set J of the k planes and fixes the others, so
    # the strata are the coordinate subspaces missing j planes, j != 1:
    # C(k, j) of codimension 2j, each its own orbit (E_k is abelian and
    # keeps every coordinate subspace), with stabilizer order 2^(j-1).
    # For odd j >= 3 no element's fixed space misses exactly those j
    # planes, so each such stratum is intersected once
    group = even_sign_changes(k)
    calls = count_meets(monkeypatch)
    lat = build_lattice(group)
    assert group.order == 2 ** (k - 1)
    assert len(lat.strata) == 2**k - k
    planes = [s.codim // 2 for s in lat.strata]
    assert Counter(planes) == {j: math.comb(k, j) for j in range(k + 1) if j != 1}
    assert [s.stabilizer_order for s in lat.strata] == [
        2 ** max(j - 1, 0) for j in planes
    ]
    assert lat.orbits == tuple((i,) for i in range(len(lat.strata)))
    assert calls["intersect"] == sum(
        math.comb(k, j) for j in range(3, k + 1, 2)
    ) == {3: 1, 4: 4, 5: 11, 6: 26, 7: 57}[k]


def test_even_sign_change_lattices_need_fewer_joins_than_a_loop_over_all_atoms(
    monkeypatch,
):
    # E_k's meet-irreducible atoms are the fixed spaces of its C(k, 2)
    # negations of two planes; meeting each stratum with every atom
    # (each its own orbit under E_k) takes 61 + 431 + 2689 = 3181
    # join_dim calls on k = 5, 6, 7
    calls = count_meets(monkeypatch)
    for k in (5, 6, 7):
        build_lattice(even_sign_changes(k))
    assert calls["join_dim"] < 3181


def lattice_digest(lattice):
    """A short hash of everything a lattice says: each stratum's
    subspace key and conductor, codimension, stabilizer order and
    covers, and the orbits."""
    strata = [
        (s.subspace.key(), s.subspace.conductor, s.codim, s.stabilizer_order,
         s.covers)
        for s in lattice.strata
    ]
    return hashlib.sha256(repr((strata, lattice.orbits)).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "build, strata, digest",
    [
        pytest.param(lambda: build_symmetric_on_squares(5), 52,
                     "b570a31c9a7b6427", id="S5_on_planes"),
        pytest.param(lambda: build_imprimitive_doubled(4, 1, 3), 48,
                     "a129f4818d4f445a", id="G(4,1,3)_doubled"),
        pytest.param(lambda: build_weyl_doubled("F4"), 268,
                     "06b1fe1c1cb0a3cb", id="F4_doubled"),
    ],
)
def test_lattice_digests_are_pinned(monkeypatch, build, strata, digest):
    # recorded from an earlier build_lattice: a change to how the lattice
    # is built must give the same strata, in the same order, with the
    # same relations.  Every stratum here is an element fixed space, and
    # the meet-irreducible atoms are the reflection fixed spaces, whose
    # meets the masks of known strata settle: no join_dim, no intersect
    group = build()
    calls = count_meets(monkeypatch)
    lattice = build_lattice(group)
    assert (len(lattice.strata), lattice_digest(lattice)) == (strata, digest)
    assert calls == {}


def characteristic_polynomial(lattice):
    """Coefficients, lowest degree first, of sum over the strata X of
    mu(V, X) t^(dim X), with the Moebius function mu of the order
    (X <= Y when X lies in Y) read off the covers alone."""
    strata = lattice.strata
    below = [set() for _ in strata]  # every stratum strictly inside
    for i in reversed(range(len(strata))):  # by descending codimension
        for c in strata[i].covers:
            below[i] |= {c} | below[c]
    mu = [0] * len(strata)
    mu[0] = 1  # the whole space, the only stratum of codimension 0
    for i in range(1, len(strata)):
        mu[i] = -sum(mu[j] for j in range(i) if i in below[j])
    n = strata[0].subspace.ambient_dim
    coeffs = [0] * (n + 1)
    for s, m in zip(strata, mu):
        coeffs[n - s.codim] += m
    return coeffs


def doubled_product(coexponents):
    """Coefficients, lowest degree first, of prod_i (t^2 - b_i)."""
    out = [1]
    for b in coexponents:
        out = [x - b * y for x, y in zip([0, 0] + out, out + [0, 0])]
    return out


COEXPONENTS = [
    ("S3_on_planes", lambda: build_symmetric_on_squares(3), (0, 1, 2)),
    ("S4_on_planes", lambda: build_symmetric_on_squares(4), (0, 1, 2, 3)),
    ("S5_on_planes", lambda: build_symmetric_on_squares(5), (0, 1, 2, 3, 4)),
    ("A3_doubled", lambda: build_weyl_doubled("A", 3), (1, 2, 3)),
    ("B3_doubled", lambda: build_weyl_doubled("B", 3), (1, 3, 5)),
    ("D4_doubled", lambda: build_weyl_doubled("D", 4), (1, 3, 3, 5)),
    ("F4_doubled", lambda: build_weyl_doubled("F4"), (1, 5, 7, 11)),
    ("G(4,1,3)_doubled", lambda: build_imprimitive_doubled(4, 1, 3), (1, 5, 9)),
    ("G(3,3,3)_doubled", lambda: build_imprimitive_doubled(3, 3, 3), (1, 4, 4)),
    ("G(4,2,2)_doubled", lambda: build_imprimitive_doubled(4, 2, 2), (1, 5)),
]


@pytest.mark.parametrize(
    "build, coexponents",
    [pytest.param(build, b, id=name) for name, build, b in COEXPONENTS],
)
def test_characteristic_polynomial_factors_over_the_coexponents(build, coexponents):
    # every fixed space of a complex reflection group is an intersection
    # of reflecting hyperplanes (Steinberg), so the strata of the doubled
    # group are the intersection lattice of its reflection arrangement
    # with every dimension doubled, and the characteristic polynomial of
    # that lattice is prod_i (t - b_i) over the coexponents b_i (Orlik
    # and Solomon; Orlik and Terao, Arrangements of Hyperplanes, ch. 6).
    # The coexponents of G(m,p,n) are 1, m+1, ..., (n-1)m+1 for p < m,
    # and 1, m+1, ..., (n-2)m+1, (n-1)(m-1) for p = m; S_n on n planes is
    # the doubled permutation action, with coexponents 0, 1, ..., n-1
    lattice = build_lattice(build())
    assert characteristic_polynomial(lattice) == doubled_product(coexponents)


def partitions(n):
    """The number of partitions of n."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts[n]


@pytest.mark.parametrize(
    "family, rank, orbits",
    [("A", n - 1, partitions(n)) for n in (3, 4, 5)]
    + [("B", n, sum(partitions(j) for j in range(n + 1))) for n in (2, 3, 4)],
)
def test_stratum_orbits_count_the_parabolic_classes(family, rank, orbits):
    # the orbits of strata are the conjugacy classes of parabolic
    # subgroups: p(n) of them for A_(n-1), sum_(j <= n) p(j) for B_n
    lattice = build_lattice(build_weyl_doubled(family, rank))
    assert len(lattice.orbits) == orbits


def test_doubled_b5_lattice_counts():
    # 19 = sum_(j <= 5) p(j) orbits of strata
    group = build_weyl_doubled("B", 5)
    lattice = build_lattice(group)
    assert (group.order, len(lattice.strata), len(lattice.orbits)) == (3840, 648, 19)


def test_analysis_with_strata_sums_traces_once_per_cyclic_subgroup(monkeypatch):
    # the census and the lattice read one table of fixed-space
    # dimensions, built on a fresh group (the catalog's builders are
    # cached) with one trace sum per cyclic subgroup
    group = build_weyl_doubled.__wrapped__("B", 3)
    cyclic = {frozenset(powers(group, i)) for i in range(group.order)}
    sums = Counter()
    sum_of = CyclotomicNumber.sum_of.__func__

    def counted(cls, values, conductor):
        sums["traces"] += 1
        return sum_of(cls, values, conductor)

    monkeypatch.setattr(CyclotomicNumber, "sum_of", classmethod(counted))
    analyze(group, with_strata=True)
    assert (group.order, sums["traces"]) == (48, len(cyclic))


def lattice_invariants(group):
    lat = build_lattice(group)
    return (
        verdict(group).kind,
        len(census(group).symplectic_reflections),
        sorted(s.codim for s in lat.strata),
        sorted(s.stabilizer_order for s in lat.strata),
        sorted(
            (lat.strata[o[0]].codim, lat.strata[o[0]].stabilizer_order, len(o))
            for o in lat.orbits
        ),
    )


# transvection coefficients: integers, and rationals that take the
# conjugated generators through Fraction coefficients
COEFFICIENTS = (-1, 1, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-2, 3))


@settings(max_examples=12, deadline=None)
@given(
    entry=st.sampled_from([e for e in CATALOG if e.expected_order <= 24]),
    moves=st.lists(
        st.tuples(st.lists(st.sampled_from((-1, 0, 1)), min_size=8, max_size=8),
                  st.sampled_from(COEFFICIENTS)),
        min_size=1, max_size=3,
    ),
)
def test_lattice_invariants_survive_a_symplectic_change_of_basis(entry, moves):
    # P, a product of transvections, is a rational symplectic matrix,
    # so P G P^-1 is the same group acting on the same space in a dense
    # basis: its verdict, reflections and strata must not change
    group = entry.build()
    n, omega = group.dimension, group.omega
    p = ExactMatrix.identity(n, group.conductor)
    for v, c in moves:
        p = p * transvection(v[:n], c, omega)
    p_inv = p.inverse()
    conjugated = FiniteMatrixGroup.closure(
        n, group.conductor, omega, [p * g * p_inv for g in group.generators]
    )
    assert conjugated.order == group.order
    assert lattice_invariants(conjugated) == lattice_invariants(group)


def galois(mat, k):
    """The entrywise image of a matrix under the automorphism
    zeta -> zeta^k of Q(zeta_m), for k prime to m."""
    m = mat.conductor
    zero = CyclotomicNumber.zero(m)
    return ExactMatrix(mat.rows, mat.cols, m, [
        sum((c * CyclotomicNumber.zeta(m, j * k)
             for j, c in enumerate(x.coeffs) if c), zero)
        for x in mat.entries
    ])


def galois_invariants(group):
    report = analyze(group, with_strata=True)
    return report._replace(
        strata=sorted(tuple(sorted(s.items())) for s in report.strata)
    )


@pytest.mark.parametrize(
    "name",
    ["sl2_binary_icosahedral", "sl2_binary_octahedral", "imprimitive_3_3_3"],
)
def test_analysis_is_invariant_under_galois_conjugation(name):
    # a field automorphism maps G to an isomorphic group and preserves
    # ranks, so every fixed-space dimension, the verdict and the strata
    # orbits must come out the same
    group = get_entry(name).build()
    m = group.conductor
    expected = galois_invariants(group)
    moved = 0
    for k in (k for k in range(2, m) if math.gcd(k, m) == 1):
        gens = [galois(g, k) for g in group.generators]
        moved += gens != list(group.generators)
        conjugated = FiniteMatrixGroup.closure(
            group.dimension, m, galois(group.omega, k), gens
        )
        assert galois_invariants(conjugated) == expected, k
    assert moved


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
        '{"fibers": {"0": 0}, "fibres": {"1": 1}}',
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


def _assert_exact(value):
    """Each coefficient an int when integral, else a Fraction; never a
    float, a bool or an integral Fraction."""
    for c in value.coeffs:
        assert type(c) is int or (
            type(c) is Fraction and c.denominator != 1
        ), (value, c)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_imprimitive_doubled(4, 1, 3),
        lambda: build_sl2_subgroup("binary_icosahedral"),
    ],
    ids=["doubled_G(4,1,3)", "binary_icosahedral"],
)
def test_analysis_leaves_every_coefficient_an_int_or_a_proper_fraction(
    build, monkeypatch
):
    lattices = []

    def kept(group):
        lattices.append(build_lattice(group))
        return lattices[-1]

    monkeypatch.setattr(specio, "build_lattice", kept)
    group = build()
    report = analyze(group, with_strata=True)
    (lattice,) = lattices
    assert len(report.strata) == len(lattice.orbits)
    for i in range(group.order):
        for entry in group.element(i).entries:
            _assert_exact(entry)
        _assert_exact(group.traces[i])
    for stratum in lattice.strata:
        for vec in stratum.subspace.basis:
            for coordinate in vec:
                _assert_exact(coordinate)
