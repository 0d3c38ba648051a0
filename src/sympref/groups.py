"""Finite matrix groups over a cyclotomic field.

A group is enumerated once, by breadth-first closure of the identity
under right multiplication by the generators, and then frozen: an
element's index is where the walk met it, so the identity is element 0
and the distinct generators other than it come next, in the order they
were given.  The closure runs on Omega, the orbit of the identity's rows
under v -> v g.  An element is the tuple of its rows' positions in
Omega, so x g is one lookup per row; each row image v g is made the
first time it is needed, by an integer map on coordinate vectors (see
FiniteMatrixGroup), with no matrix product.  A group keeps
only what the closure made: Omega's points, each element's row tuple,
its trace, and the closure's products as the regular representation (a
permutation table per generator, a Schreier word per element).  A
product of elements is a table walk, an inverse a walk along the
element's powers; an element's matrix is stacked from its rows when
asked for, and a matrix is found by its rows in Omega.  Each element's
fixed-space dimension is read off the traces once per cyclic subgroup,
into a table built the first time it is asked for.  A subgroup carries
its group and the int mask of its element indices, so a question about
a subgroup takes the subgroup alone.  Everything downstream works with
element indices; no verdict, report, stratum index or emitted spec
depends on how the elements are numbered, only on which elements there
are.  `index_of` is the one way from a matrix to its index.  Each new
element's trace, the sum of its rows' diagonal entries, is checked,
once per distinct value, against bounds every element of finite order
meets, so that most infinite groups stop at their first element of
infinite order instead of at the order bound.
"""

from __future__ import annotations

import math

from .cyclotomic import (CyclotomicNumber, InvariantViolation, _canon, _number,
                         _quotient, _same_conductor, euler_phi)
from .errors import DEFAULT_MAX_ORDER, BadInput, OrderBoundExceeded
from .linalg import DimensionMismatch, ExactMatrix, check_form, is_symplectic


class SingularGenerator(BadInput):
    """A generator is not invertible and so generates no group."""

    def __init__(self, index):
        self.index = index
        super().__init__("generator %d is singular" % index)


class NotSymplectic(BadInput):
    """A generator fails to preserve the declared symplectic form."""

    def __init__(self, index):
        self.index = index
        super().__init__(
            "generator %d does not preserve the symplectic form" % index
        )


class NotAMember(ValueError):
    """A matrix that is not an element of the group."""


def _closure(start, generators, multiply, max_size):
    """Breadth-first closure of start under x -> multiply(x, g), g a
    generator: group closure and generated subgroups start at the
    identity, `orbits` and the lattice's stratum orbits at a point.
    Handles must be hashable.  Returns them in discovery order (start
    first), the tables (tables[k][i] is the position of
    multiply(elements[i], generators[k])) and the Schreier tree:
    parents[i] = (p, k) when elements[i] was first met as
    multiply(elements[p], generators[k]), and parents[0] is None.
    """
    elements = [start]
    position = {start: 0}
    parents = [None]
    tables = [[] for _ in generators]
    # k, generators[k] and tables[k], unpacked flat once per product
    edges = list(zip(range(len(tables)), generators, tables))
    # elements grows while it is scanned: it is the breadth-first queue
    for i, x in enumerate(elements):
        for k, g, table in edges:
            y = multiply(x, g)
            j = position.get(y)
            if j is None:
                j = position[y] = len(elements)
                if j >= max_size:
                    raise OrderBoundExceeded(max_size)
                elements.append(y)
                parents.append((i, k))
            table.append(j)
    return elements, tables, parents


def _checked_trace(t: CyclotomicNumber, n: int, bound: int) -> CyclotomicNumber:
    """The trace t of a closure element other than the identity, checked
    against what holds for every element of finite order in dimension n.
    Then t is a sum of n roots of unity, so:

    - t is an algebraic integer: its power-basis coefficients are
      integers, Z[zeta_m] being the ring of integers of Q(zeta_m);
    - no Galois conjugate of t exceeds n in absolute value, so their
      mean square, the normalized trace of t * conj(t), is at most n^2;
    - t = n only for the identity, all eigenvalues being 1.

    A failure proves that the element, and so the group, is infinite.
    """
    if any(c.denominator != 1 for c in t.coeffs):
        reason = "is not an algebraic integer"
    elif (t * t.conjugate()).normalized_trace() > n * n:
        reason = "has a Galois conjugate of absolute value above %d" % n
    elif t == n:
        reason = "equals the dimension, but the element is not the identity"
    else:
        return t
    # shown only when short: str() of a coefficient over Python's limit
    # on integer digits raises, and a long one would flood the error line
    small = all(
        abs(c.numerator) < 10**12 and c.denominator < 10**12 for c in t.coeffs
    )
    text = str(t) if small else ""
    shown = (
        "trace " + text if 0 < len(text) <= 60 else "a trace too long to show"
    )
    raise OrderBoundExceeded(
        bound,
        "the group is infinite: an element has %s, which %s" % (shown, reason),
    )


class FiniteMatrixGroup:
    """A finite group of exact matrices, fully enumerated.

    omega is the preserved symplectic form, or None for a plain linear
    action (no form checked or stored).  points are Omega's rows, as
    1 x n matrices, and where maps a row's tuple of coefficient tuples,
    canonical at the group's conductor, to its position; rows[i]
    is the tuple of the positions in Omega of element i's rows.  tables
    are those of _closure and words[i] is the path to element i in its
    Schreier tree; element i is the i-th the closure met, so element 0
    is the identity and elements 1..k are the k distinct generators
    other than it.  traces[i] is the trace of element i.

    In the closure a point of Omega is its coordinate vector (coordinate
    i phi + b the coefficient of z^b in entry i), as int numerators over
    one positive denominator in lowest terms.  Generator g moves it by a
    sparse integer map whose row i phi + b, z^b e_i g, is made the first
    time a point has a nonzero coordinate there.  Each trace value met
    is checked once.
    """

    __slots__ = (
        "dimension", "conductor", "omega", "generators", "traces",
        "_points", "_where", "_rows", "_position", "_tables", "_words",
        "_conjugations", "_dims",
    )

    def __init__(self, dimension, conductor, omega, generators, points, where,
                 rows, tables, words, traces):
        self.dimension = dimension
        self.conductor = conductor
        self.omega = omega
        self.generators = tuple(generators)
        self.traces = tuple(traces)
        self._points = tuple(points)
        self._where = where
        self._rows = tuple(rows)
        self._position = {x: i for i, x in enumerate(self._rows)}
        self._tables = tuple(tables)
        self._words = tuple(words)
        self._conjugations = None
        self._dims = None

    @classmethod
    def closure(
        cls,
        dimension: int,
        conductor: int,
        omega: ExactMatrix | None,
        generators,
        max_order: int = DEFAULT_MAX_ORDER,
    ) -> "FiniteMatrixGroup":
        """Enumerate the group the generators make, after checking the
        input in this order: each generator in turn for its shape and
        its conductor and, without a form, its rank (SingularGenerator);
        then, with a form, the form's dimension and conductor,
        check_form, and each generator in turn with is_symplectic
        (NotSymplectic).  Under a form no generator is ranked, because
        g^T omega g = omega with omega nondegenerate gives det g = +-1."""
        gens = list(generators)
        for i, g in enumerate(gens):
            if g.rows != dimension or g.cols != dimension:
                raise DimensionMismatch(
                    "generator %d is %dx%d, expected %dx%d"
                    % (i, g.rows, g.cols, dimension, dimension)
                )
            _same_conductor(g.conductor, conductor)
            if omega is None and g.rank() < dimension:
                raise SingularGenerator(i)
        if omega is not None:
            if omega.rows != dimension:
                raise DimensionMismatch("form has wrong dimension")
            _same_conductor(omega.conductor, conductor)
            check_form(omega)
            for i, g in enumerate(gens):
                if not is_symplectic(g, omega):
                    raise NotSymplectic(i)

        n = dimension
        identity = ExactMatrix.identity(n, conductor)
        # the distinct generators other than the identity, compared by their
        # coefficients (canonical at one conductor), as Omega's points are
        distinct = list({tuple(e.coeffs for e in m.entries): m
                         for m in [identity, *gens]}.values())[1:]
        # vectors[a] is point a's numerators and denominator, seen their
        # inverse and keys[a] its entries' coefficients; moves[k][a] is a's
        # image under distinct[k], -1 until made; maps[k] holds its rows
        phi = euler_phi(conductor)
        keys = [tuple(e.coeffs for e in identity.row(i)) for i in range(n)]
        vectors = [(sum(key, ()), 1) for key in keys]
        seen = {v: a for a, v in enumerate(vectors)}
        moves, maps = [[-1] * n for _ in distinct], [{} for _ in distinct]
        scale = math.lcm(*[c.denominator for g in distinct for e in g.entries
                           for c in e.coeffs])

        def image(a, k):
            nums, den = vectors[a]
            rows, g, acc = maps[k], distinct[k], [0] * len(nums)
            for r, c in enumerate(nums):
                if c:
                    if r not in rows:  # z^b e_i g for r = i phi + b, times scale
                        entries = g.row(r // phi)
                        if r % phi:  # at b = 0 the row is e_i g itself
                            z = CyclotomicNumber.zeta(conductor, r % phi)
                            entries = [z * e for e in entries]
                        row = [u for e in entries for u in e.coeffs]
                        rows[r] = [(j, int(u * scale)) for j, u in enumerate(row) if u]
                    for j, x in rows[r]:
                        acc[j] += c * x
            d = math.gcd(den * scale, *acc)
            v = (tuple([x // d for x in acc]), den * scale // d)
            b = moves[k][a] = seen.setdefault(v, len(vectors))
            if b == len(vectors):
                vectors.append(v)
                flat = v[0] if v[1] == 1 else tuple([_quotient(x, v[1]) for x in v[0]])
                keys.append(tuple(flat[j:j + phi] for j in range(0, len(flat), phi)))
                for move in moves:
                    move.append(-1)
            return b

        start = tuple(range(n))
        traces = {start: identity.trace()}
        checked = {}  # each trace value met, checked once

        def multiply(x, k):
            y = tuple(map(moves[k].__getitem__, x))
            if -1 in y:
                y = tuple([b if b >= 0 else image(a, k) for a, b in zip(x, y)])
            if y not in traces:  # every element but the identity is met here
                t = _canon(map(sum, zip(*[keys[a][i] for i, a in enumerate(y)])))
                if t not in checked:
                    checked[t] = _checked_trace(_number(conductor, t), n, max_order)
                traces[y] = checked[t]
            return y

        found, tables, parents = _closure(start, range(len(moves)), multiply, max_order)
        # each element's word is its tree parent's, then the edge's generator
        words = [()]
        for p, k in parents[1:]:
            words.append(words[p] + (k,))
        points = [ExactMatrix(1, n, conductor, [_number(conductor, c) for c in key])
                  for key in keys]
        return cls(
            n, conductor, omega, gens, points,
            {key: a for a, key in enumerate(keys)}, found, tables, words,
            [traces[x] for x in found],
        )

    @property
    def order(self) -> int:
        return len(self._rows)

    def _checked_index(self, index: int) -> int:
        if not 0 <= index < len(self._rows):
            raise NotAMember("element index out of range")
        return index

    def element(self, index: int) -> ExactMatrix:
        """The matrix of element index, stacked from its rows."""
        rows = self._rows[self._checked_index(index)]
        return ExactMatrix.stack([self._points[a] for a in rows])

    @property
    def elements(self) -> tuple[ExactMatrix, ...]:
        """Every element's matrix, in index order, built on each read."""
        return tuple(map(self.element, range(self.order)))

    def index_of(self, mat: ExactMatrix) -> int:
        if mat.rows != self.dimension or mat.cols != self.dimension:
            raise NotAMember("matrix has the wrong shape for this group")
        _same_conductor(mat.conductor, self.conductor)
        try:
            return self._position[tuple(
                self._where[tuple(e.coeffs for e in mat.row(i))]
                for i in range(self.dimension)
            )]
        except KeyError:
            raise NotAMember("matrix is not an element of this group") from None

    def word(self, i: int) -> tuple[int, ...]:
        """The generator positions whose product, in turn, is element i."""
        return self._words[self._checked_index(i)]

    def product_index(self, i: int, j: int) -> int:
        for k in self._words[j]:
            i = self._tables[k][i]
        return i

    def inverse_index(self, i: int) -> int:
        """The last power of i before the identity."""
        return powers(self, i)[-1]

    def fixing(self, vectors, candidates) -> list[int]:
        """The candidates (element indices) whose elements fix each of the
        vectors (coordinate tuples).  Row i of y v is Omega's point at
        y's row i times v, so each point's products with the vectors are
        made once, in one matrix product per row for the points that
        row's candidates newly need, and a candidate is dropped at its
        first wrong row."""
        n = self.dimension
        columns = ExactMatrix(
            len(vectors), n, self.conductor, [x for v in vectors for x in v]
        ).transpose()
        images = {}  # per point of Omega, its products' coefficients
        for i in range(n):
            new = [
                a for a in dict.fromkeys(self._rows[y][i] for y in candidates)
                if a not in images
            ]
            if new:
                product = ExactMatrix.stack([self._points[a] for a in new]) * columns
                for r, a in enumerate(new):
                    images[a] = tuple(x.coeffs for x in product.row(r))
            target = tuple(v[i].coeffs for v in vectors)
            candidates = [y for y in candidates if images[self._rows[y][i]] == target]
        return candidates

    def generator_indices(self) -> tuple[int, ...]:
        """Indices of the distinct generators other than the identity, in
        generator order: tables[k] and conjugations()[k] belong to the k-th."""
        return tuple(t[0] for t in self._tables)

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

    def fixed_dimensions(self) -> tuple[int, ...]:
        """dim V^g per element g; built once.  It is the mean of the
        traces of g's powers, the trace of the projection onto V^g, and
        is read once per cyclic subgroup: g^e fixes what g fixes when e
        is prime to the order of g, and <g^e> = <g> sums the same traces.
        A mean that is no dimension means the closure broke."""
        if self._dims is None:
            dims = [None] * self.order
            for i in range(self.order):
                if dims[i] is None:
                    cycle = powers(self, i)
                    total = CyclotomicNumber.sum_of(
                        [self.traces[j] for j in cycle], self.conductor
                    ).rational_value()
                    if total is None or total % len(cycle) or not (
                        0 <= total <= self.dimension * len(cycle)
                    ):
                        raise InvariantViolation(
                            "element %d: the traces of its %d powers sum to "
                            "%s, not %d times a fixed-space dimension"
                            % (i, len(cycle), total, len(cycle))
                        )
                    for e, x in enumerate(cycle):
                        if math.gcd(e, len(cycle)) == 1:
                            dims[x] = int(total) // len(cycle)
            self._dims = tuple(dims)
        return self._dims

    def __repr__(self):
        kind = "symplectic" if self.omega is not None else "linear"
        return "FiniteMatrixGroup(order %d, dim %d, conductor %d, %s)" % (
            self.order, self.dimension, self.conductor, kind,
        )


class SubgroupHandle:
    """A subgroup of an enumerated group: it carries its group, parent,
    and the int mask of its element indices (see `_mask`), which holds
    the identity, element 0."""

    __slots__ = ("parent", "mask")

    def __init__(self, parent: FiniteMatrixGroup, mask: int):
        if mask < 0 or mask >> parent.order or not mask & 1:
            raise ValueError(
                "mask has a bit outside the group's indices, or not the "
                "identity's bit 0"
            )
        self.parent = parent
        self.mask = mask

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return _members(self.mask)

    @property
    def is_whole_group(self) -> bool:
        return self.mask == (1 << self.parent.order) - 1

    def __repr__(self):
        return "SubgroupHandle(order %d of %d)" % (
            self.order, self.parent.order,
        )


def _mask(indices) -> int:
    """The int with the bits at the given positions set."""
    out = bytearray(max(indices, default=-1) // 8 + 1)
    for i in indices:
        out[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(out, "little")


def _members(mask: int) -> tuple[int, ...]:
    """The positions of mask's set bits, read in one pass over its
    binary digits."""
    return tuple(i for i, d in enumerate(format(mask, "b")[::-1]) if d == "1")


def powers(group: FiniteMatrixGroup, index: int) -> tuple[int, ...]:
    """Indices of g^0, g^1, ..., g^(n-1) for the element g of the given
    index, of order n."""
    out = [0]
    cur = group._checked_index(index)
    while cur != 0:
        out.append(cur)
        cur = group.product_index(cur, index)
    return tuple(out)


def element_order(group: FiniteMatrixGroup, index: int) -> int:
    """Multiplicative order of the element of the given index."""
    return len(powers(group, index))


def _grow(group: FiniteMatrixGroup, candidates, target: int):
    """Grow a subgroup from the identity: a candidate (an element index)
    outside the subgroup generated so far is kept and the kept ones are
    closed again, so each closure at least doubles the subgroup.  No
    candidate is drawn once its order reaches target, which it may not
    pass.  Returns the kept candidates and the subgroup's indices."""
    kept, members = [], {0}
    candidates = iter(candidates)
    while len(members) < target:
        x = next(candidates, None)
        if x is None:
            break
        if x not in members:
            kept.append(x)
            members = set(_closure(0, kept, group.product_index, target)[0])
    return kept, members


def generated_subgroup(group: FiniteMatrixGroup, seeds) -> SubgroupHandle:
    """The subgroup generated by the elements of the given indices; at
    most log2 |G| closures are run."""
    seeds = sorted(set(seeds))
    if not all(0 <= s < group.order for s in seeds):
        raise NotAMember("seed index out of range")
    return SubgroupHandle(group, _mask(_grow(group, seeds, group.order)[1]))


def orbits(points: int, moves) -> tuple[tuple[int, ...], ...]:
    """Orbits on 0..points-1 of the group generated by `moves`, each a
    permutation given as a sequence (point -> image), as sorted tuples
    ordered by their smallest member.  Moving forward reaches the whole
    orbit: a permutation's inverse is one of its powers."""
    seen, out = set(), []
    for start in range(points):
        if start not in seen:
            orbit = _closure(start, moves, lambda x, m: m[x], points)[0]
            seen.update(orbit)
            out.append(tuple(sorted(orbit)))
    return tuple(out)


def is_normal(subgroup: SubgroupHandle) -> bool:
    """Whether the subgroup is normal in its group: conjugation by each
    of the group's generators maps its mask to itself."""
    members = subgroup.indices()
    return all(
        _mask([conj[h] for h in members]) == subgroup.mask
        for conj in subgroup.parent.conjugations()
    )


def conjugacy_classes(group: FiniteMatrixGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted index tuples, ordered by their
    smallest member (so the identity class comes first): the orbits of
    conjugation by the generators, which reach the whole class because
    conjugation by a product composes them."""
    return orbits(group.order, group.conjugations())
