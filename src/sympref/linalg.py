"""Exact linear algebra over cyclotomic fields.

Matrices are dense and immutable, with entries in a single Q(zeta_m).
Conductors are reconciled in one place, parsing (`specio._parse_scalar`).
Every matrix constructor takes a declared conductor: an int or a
Fraction is lifted to it, and any other mixed operand raises
`ConductorMismatch`, in groups and subspaces too.  Matrices compare
entrywise, across conductors as scalars do.

Elimination uses the first nonzero entry in a column as the pivot; over
an exact field any nonzero pivot is as good as any other, and the fixed
choice makes every reduced echelon form canonical, and with it every
kernel and fixed space.

Every product goes through the one matrix product.  It walks the right
factor's nonzero entries, kept with the matrix as its rank is, adds each
entry's products with the scalar kernel `_mul_add` and reduces the entry
once.

A kernel is a `Subspace`.  The subspace algebra (containment,
`join_dim`, meets) lives in `stratification` with the lattice, its one
user, so the commands that build no lattice never compile it; `kernel`
imports the class when called.  The name stays reachable here through
the module's `__getattr__` (PEP 562), because perfbench/layers.py wraps
`linalg.Subspace.intersect` and `is_subspace_of` here to count meets and
containment tests, and tests import it from here.
"""

from __future__ import annotations

from .cyclotomic import (
    BadInput, CyclotomicNumber, _mul_add, _number, _reduce, _same_conductor,
)


class DimensionMismatch(BadInput):
    """Operands have incompatible shapes or ambient dimensions."""


class SingularMatrix(ArithmeticError):
    """Inversion of a matrix without full rank."""


class BadForm(BadInput):
    """A claimed symplectic form is not antisymmetric or not invertible."""


def _coerce_entry(value, conductor):
    if isinstance(value, CyclotomicNumber):
        _same_conductor(value.conductor, conductor)
        return value
    return CyclotomicNumber.rational(value, conductor)


class ExactMatrix:
    """Immutable matrix over Q(zeta_m), stored row-major."""

    __slots__ = ("rows", "cols", "conductor", "entries", "_sparse", "_rank")

    def __init__(self, rows, cols, conductor, entries):
        self.rows = rows
        self.cols = cols
        self.conductor = conductor
        self.entries = tuple(entries)
        if len(self.entries) != rows * cols:
            raise DimensionMismatch(
                "expected %d entries, got %d" % (rows * cols, len(self.entries))
            )
        self._sparse = None
        self._rank = None

    @classmethod
    def from_rows(cls, row_lists, conductor: int = 1) -> "ExactMatrix":
        """Build from nested lists of ints, Fractions, or cyclotomic
        values already at `conductor`; ints and Fractions are lifted."""
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        if any(len(row) != cols for row in row_lists):
            raise DimensionMismatch("ragged rows")
        entries = [_coerce_entry(v, conductor) for row in row_lists for v in row]
        return cls(rows, cols, conductor, entries)

    @classmethod
    def identity(cls, n: int, conductor: int = 1) -> "ExactMatrix":
        one = CyclotomicNumber.one(conductor)
        zero = CyclotomicNumber.zero(conductor)
        return cls(
            n, n, conductor,
            [one if i == j else zero for i in range(n) for j in range(n)],
        )

    @classmethod
    def zero(cls, rows: int, cols: int, conductor: int = 1) -> "ExactMatrix":
        z = CyclotomicNumber.zero(conductor)
        return cls(rows, cols, conductor, [z] * (rows * cols))

    @classmethod
    def stack(cls, rows) -> "ExactMatrix":
        """The matrix whose rows are the 1 x n matrices `rows`.  Its
        entries are theirs, shared, so stacking does no arithmetic."""
        return cls(len(rows), rows[0].cols, rows[0].conductor,
                   [e for r in rows for e in r.entries])

    def entry(self, i: int, j: int) -> CyclotomicNumber:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[CyclotomicNumber]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        conductor = _same_conductor(self.conductor, other.conductor)
        k, m = self.cols, other.cols
        if other._sparse is None:  # its rows' nonzero entries, kept
            other._sparse = tuple(
                tuple((j, y.coeffs) for j, y in enumerate(other.row(t)) if y)
                for t in range(k)
            )
        zero = CyclotomicNumber.zero(conductor)
        width = 2 * len(zero.coeffs) - 1
        out = []
        for i in range(self.rows):
            sums = {}  # per column, the entry's products added unreduced
            for x, row in zip(self.row(i), other._sparse):
                if row and x:
                    for j, y in row:
                        _mul_add(sums.setdefault(j, [0] * width), x.coeffs, y)
            out += [
                _number(conductor, _reduce(sums[j], conductor)) if j in sums
                else zero for j in range(m)
            ]
        return ExactMatrix(self.rows, m, conductor, out)

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return ExactMatrix(
            self.rows, self.cols,
            _same_conductor(self.conductor, other.conductor),
            [x + y for x, y in zip(self.entries, other.entries)],
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExactMatrix(
            self.rows, self.cols, self.conductor,
            [-e for e in self.entries],
        )

    def scale(self, scalar) -> "ExactMatrix":
        s = _coerce_entry(scalar, self.conductor)
        return ExactMatrix(
            self.rows, self.cols, self.conductor, [s * e for e in self.entries]
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols, self.rows, self.conductor,
            [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self) -> CyclotomicNumber:
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices have a trace")
        return CyclotomicNumber.sum_of(
            self.entries[:: self.cols + 1], self.conductor
        )

    def rank(self) -> int:
        if self._rank is None:  # kept, so a form checked twice is ranked once
            self._rank = len(_row_reduce(self.row_lists()))
        return self._rank

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices invert")
        n = self.rows
        ident = ExactMatrix.identity(n, self.conductor)
        work = [
            list(self.row(i)) + list(ident.row(i)) for i in range(n)
        ]
        # the rank of A is the number of pivots among A's columns of [A | I]
        rank = sum(1 for p in _row_reduce(work) if p < n)
        if rank < n:
            raise SingularMatrix("matrix has rank %d < %d" % (rank, n))
        return ExactMatrix(
            n, n, self.conductor,
            [work[i][n + j] for i in range(n) for j in range(n)],
        )

    def kernel(self) -> "Subspace":
        """Right kernel, returned as a canonical subspace of the
        coordinate space of dimension self.cols."""
        work = self.row_lists()
        pivots = _row_reduce(work)
        pivot_set = set(pivots)
        n = self.cols
        zero = CyclotomicNumber.zero(self.conductor)
        one = CyclotomicNumber.one(self.conductor)
        basis = []
        for free in range(n):
            if free in pivot_set:
                continue
            vec = [zero] * n
            vec[free] = one
            for r, p in enumerate(pivots):
                vec[p] = -work[r][free]
            basis.append(vec)
        from .stratification import Subspace

        return Subspace.from_spanning(n, basis, self.conductor)

    def key(self):
        """Canonical hashable key; total order on same-shape matrices
        at a common conductor."""
        return tuple(e.key() for e in self.entries)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __str__(self):
        cells = [
            [str(self.entry(i, j)) for j in range(self.cols)]
            for i in range(self.rows)
        ]
        widths = [
            max(len(cells[i][j]) for i in range(self.rows)) if self.rows else 0
            for j in range(self.cols)
        ]
        return "\n".join(
            "[" + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "]"
            for row in cells
        )

    def __repr__(self):
        return "ExactMatrix(%dx%d over Q(zeta_%d))" % (
            self.rows, self.cols, self.conductor,
        )


def _row_reduce(rows: list[list[CyclotomicNumber]]) -> list[int]:
    """In-place reduced row echelon form; returns pivot column indices.

    Pivot selection: first row with a nonzero entry in the current
    column.  Deterministic, so the output is canonical for the input.
    """
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if rows[r][c] != 1:
            inv = rows[r][c].inverse()
            rows[r] = [x * inv for x in rows[r]]
        # the pivot row's nonzero columns are the only ones that change
        support = [(j, b) for j, b in enumerate(rows[r]) if b]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f, row = rows[i][c], list(rows[i])
                for j, b in support:
                    row[j] = row[j] - f * b
                rows[i] = row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def __getattr__(name):
    if name == "Subspace":  # see the module docstring
        from .stratification import Subspace

        return Subspace
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def fixed_space(g: ExactMatrix) -> Subspace:
    """The subspace of vectors fixed by g, i.e. ker(g - 1)."""
    if g.rows != g.cols:
        raise DimensionMismatch("fixed spaces need square matrices")
    return (g - ExactMatrix.identity(g.rows, g.conductor)).kernel()


def _form(dim: int, pairs, conductor: int) -> ExactMatrix:
    """The dim x dim matrix with 1 at each (i, j) of pairs, -1 at (j, i)."""
    one, zero = CyclotomicNumber.one(conductor), CyclotomicNumber.zero(conductor)
    entries = [zero] * (dim * dim)
    for i, j in pairs:
        entries[i * dim + j], entries[j * dim + i] = one, -one
    return ExactMatrix(dim, dim, conductor, entries)


def standard_symplectic_form(dim: int, conductor: int = 1) -> ExactMatrix:
    """Block-diagonal form with 2x2 blocks [[0, 1], [-1, 0]]."""
    if dim % 2:
        raise BadForm("symplectic forms need even dimension")
    return _form(dim, [(k, k + 1) for k in range(0, dim, 2)], conductor)


def pairing_form(half_dim: int, conductor: int = 1) -> ExactMatrix:
    """The form [[0, I], [-I, 0]] pairing a space with its dual."""
    pairs = [(k, half_dim + k) for k in range(half_dim)]
    return _form(2 * half_dim, pairs, conductor)


def check_form(omega: ExactMatrix) -> None:
    """Raise BadForm unless omega is antisymmetric and nondegenerate."""
    if omega.rows != omega.cols:
        raise BadForm("form matrix must be square")
    if omega.rows % 2:
        raise BadForm("antisymmetric forms on odd-dimensional spaces are degenerate")
    if omega.transpose() != -omega:
        raise BadForm("form matrix is not antisymmetric")
    if omega.rank() < omega.rows:
        raise BadForm("form matrix is degenerate")


def is_symplectic(g: ExactMatrix, omega: ExactMatrix) -> bool:
    """Whether g preserves omega, i.e. g^T omega g = omega."""
    if g.rows != g.cols or g.rows != omega.rows:
        raise DimensionMismatch("matrix and form dimensions differ")
    return g.transpose() * omega * g == omega


def form_restriction_nondegenerate(omega: ExactMatrix, space: Subspace) -> bool:
    """Whether omega restricted to the subspace is nondegenerate."""
    if omega.rows != space.ambient_dim:
        raise DimensionMismatch("form and subspace ambient dimensions differ")
    if space.dim == 0:
        return True
    basis = space.basis_matrix()
    gram = basis.transpose() * omega * basis
    return gram.rank() == space.dim
