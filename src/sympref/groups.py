"""Finite matrix groups over a cyclotomic field.

A group is enumerated once, by breadth-first closure of the identity
under right multiplication by the generators, and then frozen: elements
live in a fixed canonical order, with the identity at index 0 and the
rest sorted by their coefficient keys.  The closure's products are kept
as the regular representation (a permutation table per generator, a
Schreier word per element), so products and inverses of elements are
table walks that touch no matrix.  Everything downstream works with
element indices, which is what makes reports deterministic.
"""

from __future__ import annotations

from .linalg import (
    DimensionMismatch,
    ExactMatrix,
    check_form,
    is_symplectic,
)

DEFAULT_MAX_ORDER = 100_000


class OrderBoundExceeded(RuntimeError):
    """Closure grew past max_order; the group may be infinite."""

    def __init__(self, bound, message=None):
        self.bound = bound
        super().__init__(
            message or "group order exceeds the bound %d" % bound
        )


class SingularGenerator(ValueError):
    """A generator is not invertible and so generates no group."""

    def __init__(self, index):
        self.index = index
        super().__init__("generator %d is singular" % index)


class NotSymplectic(ValueError):
    """A generator fails to preserve the declared symplectic form."""

    def __init__(self, index):
        self.index = index
        super().__init__(
            "generator %d does not preserve the symplectic form" % index
        )


class NotAMember(ValueError):
    """A matrix that is not an element of the group."""


def _closure(identity, generators, multiply, max_size):
    """Breadth-first closure of the identity under x -> x*g, g a generator.

    Handles must be hashable, generators distinct.  Returns the elements
    in discovery order (identity first), the tables (tables[k][i] is the
    position of elements[i]*generators[k]) and the Schreier words (the
    generator positions whose product, left to right, is elements[i]).
    """
    elements = [identity]
    position = {identity: 0}
    words = [()]
    tables = [[] for _ in generators]
    # elements grows while it is scanned: it is the breadth-first queue
    for i, x in enumerate(elements):
        for k, g in enumerate(generators):
            y = multiply(x, g)
            j = position.setdefault(y, len(elements))
            if j == len(elements):
                if j >= max_size:
                    raise OrderBoundExceeded(max_size)
                elements.append(y)
                words.append(words[i] + (k,))
            tables[k].append(j)
    return elements, tables, words


def _canonical(dimension, conductor, omega, generators, found, tables, words):
    """The group of closure output `found` (discovery order, identity
    first), renumbered into canonical order: identity, then by key."""
    order = [0] + sorted(range(1, len(found)), key=lambda i: found[i].key())
    renumber = sorted(range(len(order)), key=order.__getitem__)  # inverse
    return FiniteMatrixGroup(
        dimension, conductor, omega, generators,
        [found[i] for i in order],
        [[renumber[t[i]] for i in order] for t in tables],
        [words[i] for i in order],
    )


class FiniteMatrixGroup:
    """A finite group of exact matrices, fully enumerated.

    omega is the preserved symplectic form, or None for a plain linear
    action (no form checked or stored).  tables and words are those of
    _closure, renumbered to the canonical order.
    """

    __slots__ = (
        "dimension", "conductor", "omega", "generators", "elements",
        "_index", "_tables", "_inverse_tables", "_words",
        "_generator_indices",
    )

    def __init__(self, dimension, conductor, omega, generators, elements,
                 tables, words):
        self.dimension = dimension
        self.conductor = conductor
        self.omega = omega
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self._index = {m.key(): i for i, m in enumerate(self.elements)}
        self._tables = tuple(tables)
        self._words = tuple(words)
        # inverse permutations: position j holds the i with table[i] == j
        self._inverse_tables = tuple(
            sorted(range(len(t)), key=t.__getitem__) for t in self._tables
        )
        self._generator_indices = None

    @classmethod
    def closure(
        cls,
        dimension: int,
        conductor: int,
        omega: ExactMatrix | None,
        generators,
        max_order: int = DEFAULT_MAX_ORDER,
    ) -> "FiniteMatrixGroup":
        gens = []
        for i, g in enumerate(generators):
            if not isinstance(g, ExactMatrix):
                g = ExactMatrix.from_rows(g, conductor)
            if g.rows != dimension or g.cols != dimension:
                raise DimensionMismatch(
                    "generator %d is %dx%d, expected %dx%d"
                    % (i, g.rows, g.cols, dimension, dimension)
                )
            g = g.promote(conductor)
            if g.rank() < dimension:
                raise SingularGenerator(i)
            gens.append(g)
        if omega is not None:
            if not isinstance(omega, ExactMatrix):
                omega = ExactMatrix.from_rows(omega, conductor)
            omega = omega.promote(conductor)
            if omega.rows != dimension:
                raise DimensionMismatch("form has wrong dimension")
            check_form(omega)
            for i, g in enumerate(gens):
                if not is_symplectic(g, omega):
                    raise NotSymplectic(i)

        identity = ExactMatrix.identity(dimension, conductor)
        matrices = {identity.key(): identity}
        for g in gens:
            matrices.setdefault(g.key(), g)

        def multiply(k1, k2):
            prod = matrices[k1] * matrices[k2]
            key = prod.key()
            matrices.setdefault(key, prod)
            return key

        # the distinct generators other than the identity
        keys, tables, words = _closure(
            identity.key(), list(matrices)[1:], multiply, max_order
        )
        return _canonical(
            dimension, conductor, omega, gens,
            [matrices[k] for k in keys], tables, words,
        )

    def isomorphic_image(self, images, omega, generators) -> "FiniteMatrixGroup":
        """The group of images[i], the image of element i under an
        injective homomorphism, and of the generators' images; it keeps
        this group's tables and words instead of being closed again."""
        return _canonical(
            images[0].rows, images[0].conductor, omega, generators,
            images, self._tables, self._words,
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity_index(self) -> int:
        return 0

    def element(self, index: int) -> ExactMatrix:
        return self.elements[index]

    def is_member(self, mat: ExactMatrix) -> bool:
        try:
            self.index_of(mat)
        except NotAMember:
            return False
        return True

    def index_of(self, mat: ExactMatrix) -> int:
        if mat.rows != self.dimension or mat.cols != self.dimension:
            raise NotAMember("matrix has the wrong shape for this group")
        if mat.conductor != self.conductor:
            if self.conductor % mat.conductor == 0:
                mat = mat.promote(self.conductor)
            else:
                # incompatible conductor tag; fall back to a scan, since
                # the entries may still lie in a common subfield
                for i, e in enumerate(self.elements):
                    if e == mat:
                        return i
                raise NotAMember("matrix is not an element of this group")
        try:
            return self._index[mat.key()]
        except KeyError:
            raise NotAMember("matrix is not an element of this group") from None

    def product_index(self, i: int, j: int) -> int:
        for k in self._words[j]:
            i = self._tables[k][i]
        return i

    def inverse_index(self, i: int) -> int:
        x = self.identity_index
        for k in reversed(self._words[i]):
            x = self._inverse_tables[k][x]
        return x

    def generator_indices(self) -> tuple[int, ...]:
        if self._generator_indices is None:
            seen = []
            for g in self.generators:
                idx = self.index_of(g)
                if idx not in seen:
                    seen.append(idx)
            self._generator_indices = tuple(seen)
        return self._generator_indices

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        kind = "symplectic" if self.omega is not None else "linear"
        return "FiniteMatrixGroup(order %d, dim %d, conductor %d, %s)" % (
            self.order, self.dimension, self.conductor, kind,
        )


class SubgroupHandle:
    """A subgroup of an enumerated group, stored as membership flags."""

    __slots__ = ("parent", "flags")

    def __init__(self, parent: FiniteMatrixGroup, flags):
        self.parent = parent
        self.flags = tuple(flags)
        if len(self.flags) != parent.order:
            raise ValueError("flag vector length must match the group order")

    @property
    def order(self) -> int:
        return sum(1 for f in self.flags if f)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.flags) if f)

    def contains_index(self, i: int) -> bool:
        return self.flags[i]

    @property
    def is_whole_group(self) -> bool:
        return all(self.flags)

    def index_in_parent(self) -> int:
        return self.parent.order // self.order

    def __repr__(self):
        return "SubgroupHandle(order %d of %d)" % (
            self.order, self.parent.order,
        )


def powers(group: FiniteMatrixGroup, element) -> tuple[int, ...]:
    """Indices of g^0, g^1, ..., g^(n-1) for an element g (index or
    matrix) of order n."""
    idx = element if isinstance(element, int) else group.index_of(element)
    if not 0 <= idx < group.order:
        raise NotAMember("element index out of range")
    out = [group.identity_index]
    cur = idx
    while cur != group.identity_index:
        out.append(cur)
        cur = group.product_index(cur, idx)
    return tuple(out)


def element_order(group: FiniteMatrixGroup, element) -> int:
    """Multiplicative order of an element (index or matrix)."""
    return len(powers(group, element))


def generated_subgroup(group: FiniteMatrixGroup, seeds) -> SubgroupHandle:
    """The subgroup generated by the given elements (indices or matrices).

    A seed inside the subgroup generated so far is skipped, so each
    closure at least doubles it: at most log2 |G| closures are run.
    """
    seed_indices = sorted(
        {s if isinstance(s, int) else group.index_of(s) for s in seeds}
    )
    for s in seed_indices:
        if not 0 <= s < group.order:
            raise NotAMember("seed index out of range")

    kept, members = [], {group.identity_index}
    for s in seed_indices:
        if s not in members:
            kept.append(s)
            members = set(_closure(
                group.identity_index, kept, group.product_index, group.order
            )[0])
    return SubgroupHandle(group, [i in members for i in range(group.order)])


def is_normal(group: FiniteMatrixGroup, subgroup: SubgroupHandle) -> bool:
    """Whether the subgroup is normal, checked by conjugating each
    member with each group generator."""
    if subgroup.parent is not group:
        raise ValueError("subgroup belongs to a different group")
    for g in group.generator_indices():
        g_inv = group.inverse_index(g)
        for h in subgroup.indices():
            conj = group.product_index(group.product_index(g, h), g_inv)
            if not subgroup.flags[conj]:
                return False
    return True


def conjugacy_classes(group: FiniteMatrixGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted index tuples, ordered by their
    smallest member (so the identity class comes first).

    Each class is the orbit of an element under conjugation by the
    generators; generator conjugations already reach the whole class
    because conjugation by a product composes them.
    """
    gen_pairs = [
        (g, group.inverse_index(g)) for g in group.generator_indices()
    ]
    assigned = [False] * group.order
    classes = []
    for start in range(group.order):
        if assigned[start]:
            continue
        orbit = {start}
        frontier = [start]
        assigned[start] = True
        while frontier:
            x = frontier.pop()
            for g, g_inv in gen_pairs:
                y = group.product_index(group.product_index(g, x), g_inv)
                if y not in orbit:
                    orbit.add(y)
                    assigned[y] = True
                    frontier.append(y)
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)
