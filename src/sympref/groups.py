"""Finite matrix groups over a cyclotomic field.

A group is enumerated once, by breadth-first closure of the identity
under right multiplication by the generators, and then frozen: elements
live in a fixed canonical order, with the identity at index 0 and the
rest sorted by their coefficient keys.  The closure's products are kept
as the regular representation (a permutation table per generator, a
Schreier word per element), so products and inverses of elements are
table walks that touch no matrix.  Everything downstream works with
element indices, which is what makes reports deterministic.  Each new
element's trace is kept, and checked against bounds every element of
finite order meets, so that most infinite groups stop at their first
element of infinite order instead of at the order bound.
"""

from __future__ import annotations

from .cyclotomic import CyclotomicNumber
from .linalg import (
    DimensionMismatch,
    ExactMatrix,
    check_form,
    is_symplectic,
)

DEFAULT_MAX_ORDER = 100_000


class OrderBoundExceeded(RuntimeError):
    """Closure grew past max_order, or met an element of infinite order."""

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


def _checked_trace(x: ExactMatrix, bound: int) -> CyclotomicNumber:
    """The trace t of a closure element x, checked against what holds
    for every element of finite order in dimension n.  Then t is a sum
    of n roots of unity, so:

    - t is an algebraic integer: its power-basis coefficients are
      integers, Z[zeta_m] being the ring of integers of Q(zeta_m);
    - no Galois conjugate of t exceeds n in absolute value, so their
      mean square, the normalized trace of t * conj(t), is at most n^2;
    - t = n only for the identity, all eigenvalues being 1.

    A failure proves that x, and so the group, is infinite.
    """
    n = x.rows
    t = x.trace()
    if any(c.denominator != 1 for c in t.coeffs):
        reason = "is not an algebraic integer"
    elif (t * t.conjugate()).normalized_trace() > n * n:
        reason = "has a Galois conjugate of absolute value above %d" % n
    elif t == n and not x.is_identity():
        reason = "equals the dimension, but the element is not the identity"
    else:
        return t
    raise OrderBoundExceeded(
        bound,
        "the group is infinite: an element has trace %s, which %s"
        % (t, reason),
    )


def _canonical(dimension, conductor, omega, generators, found, tables, words,
               traces):
    """The group of closure output `found` (discovery order, identity
    first), renumbered into canonical order: identity, then by key."""
    order = [0] + sorted(range(1, len(found)), key=lambda i: found[i].key())
    renumber = sorted(range(len(order)), key=order.__getitem__)  # inverse
    return FiniteMatrixGroup(
        dimension, conductor, omega, generators,
        [found[i] for i in order],
        [[renumber[t[i]] for i in order] for t in tables],
        [words[i] for i in order],
        [traces[i] for i in order],
    )


class FiniteMatrixGroup:
    """A finite group of exact matrices, fully enumerated.

    omega is the preserved symplectic form, or None for a plain linear
    action (no form checked or stored).  tables and words are those of
    _closure, renumbered to the canonical order; traces[i] is the trace
    of elements[i].
    """

    __slots__ = (
        "dimension", "conductor", "omega", "generators", "elements",
        "traces", "_index", "_tables", "_inverse_tables", "_words",
        "_conjugations",
    )

    def __init__(self, dimension, conductor, omega, generators, elements,
                 tables, words, traces):
        self.dimension = dimension
        self.conductor = conductor
        self.omega = omega
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.traces = tuple(traces)
        self._index = {m.key(): i for i, m in enumerate(self.elements)}
        self._tables = tuple(tables)
        self._words = tuple(words)
        # inverse permutations: position j holds the i with table[i] == j
        self._inverse_tables = tuple(
            sorted(range(len(t)), key=t.__getitem__) for t in self._tables
        )
        self._conjugations = None

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
        traces = {identity.key(): identity.trace()}

        def multiply(k1, k2):
            prod = matrices[k1] * matrices[k2]
            key = prod.key()
            # every element but the identity is first met here
            if key not in traces:
                traces[key] = _checked_trace(prod, max_order)
                matrices.setdefault(key, prod)
            return key

        # the distinct generators other than the identity
        keys, tables, words = _closure(
            identity.key(), list(matrices)[1:], multiply, max_order
        )
        return _canonical(
            dimension, conductor, omega, gens,
            [matrices[k] for k in keys], tables, words,
            [traces[k] for k in keys],
        )

    def isomorphic_image(self, images, omega, generators) -> "FiniteMatrixGroup":
        """The group of images[i], the image of element i under an
        injective homomorphism, and of the generators' images; it keeps
        this group's tables and words instead of being closed again."""
        return _canonical(
            images[0].rows, images[0].conductor, omega, generators,
            images, self._tables, self._words, [m.trace() for m in images],
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
        """Indices of the distinct generators, in generator order."""
        return tuple(dict.fromkeys(self.index_of(g) for g in self.generators))

    def conjugations(self) -> tuple[tuple[int, ...], ...]:
        """Per distinct generator g, the permutation of element indices
        taking x to g x g^-1; built once."""
        if self._conjugations is None:
            pairs = [(g, self.inverse_index(g)) for g in self.generator_indices()]
            self._conjugations = tuple(
                tuple(
                    self.product_index(self.product_index(g, x), g_inv)
                    for x in range(self.order)
                )
                for g, g_inv in pairs
            )
        return self._conjugations

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


def orbits(points: int, moves) -> tuple[tuple[int, ...], ...]:
    """Orbits on 0..points-1 of the group generated by `moves`, each a
    permutation given as a sequence (point -> image), as sorted tuples
    ordered by their smallest member.  Moving forward reaches the whole
    orbit: a permutation's inverse is one of its powers."""
    seen = [False] * points
    out = []
    for start in range(points):
        if not seen[start]:
            seen[start] = True
            orbit = [start]
            # orbit grows while it is scanned: it is the breadth-first queue
            for x in orbit:
                for move in moves:
                    if not seen[move[x]]:
                        seen[move[x]] = True
                        orbit.append(move[x])
            out.append(tuple(sorted(orbit)))
    return tuple(out)


def is_normal(group: FiniteMatrixGroup, subgroup: SubgroupHandle) -> bool:
    """Whether the subgroup is normal, checked by conjugating each
    member with each group generator."""
    if subgroup.parent is not group:
        raise ValueError("subgroup belongs to a different group")
    return all(
        subgroup.flags[conj[h]]
        for conj in group.conjugations()
        for h in subgroup.indices()
    )


def conjugacy_classes(group: FiniteMatrixGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted index tuples, ordered by their
    smallest member (so the identity class comes first): the orbits of
    conjugation by the generators, which reach the whole class because
    conjugation by a product composes them."""
    return orbits(group.order, group.conjugations())
