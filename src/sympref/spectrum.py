"""Symplectic eigenvalues of an antisymmetric 2-form, numerically.

Given an antisymmetric matrix theta and a Hermitian positive-definite
metric h on the same space, there is a basis orthonormal for h in which
theta becomes block-diagonal with blocks lambda_i [[0, 1], [-1, 0]],
lambda_i >= 0.  The lambda_i are computed by transporting theta to an
h-orthonormal frame (Cholesky) and reading off the singular values,
which come in equal pairs; a pairing failure beyond tolerance is
reported rather than silently averaged away.  Every input refused
raises BadInput.

This module is deliberately floating point: the eigenvalues are
generally irrational even for rational input.  It works on lists of
Python complex numbers and imports only the standard library.  The
singular values come from one-sided (Hestenes) Jacobi, which finds
them to high relative accuracy (Demmel and Veselic, "Jacobi's method
is more accurate than QR", SIAM J. Matrix Anal. Appl. 13, 1992) at
O(n^3) per sweep; so a matrix over MAX_DIMENSION rows is refused
before any of its entries is converted.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import sys

from .errors import DEFAULT_INPUT_TOL, DEFAULT_PAIR_TOL, MAX_DIMENSION, BadInput

# a pair of columns counts as orthogonal once |x^H y| is at most this
# share of |x| |y|, or at most _FLOOR on the matrix scaled to a largest
# entry part in [1/2, 1): an inner product that small moves no singular
# value by more than a rounding error of the largest, and a column whose
# squared norm underflows would otherwise never settle
_EPS = sys.float_info.epsilon
_FLOOR = _EPS * _EPS
_MAX_SWEEPS = 60


class ToleranceViolation(BadInput, ArithmeticError):
    """Singular values failed to pair up within tolerance."""


def _modulus(z):
    # abs() of a complex raises OverflowError past the float range
    return math.hypot(z.real, z.imag)


def _as_square(matrix, name):
    """matrix as a list of rows of complex.  Refused in this order: more
    than MAX_DIMENSION rows, before any row is read; a shape that is not
    square; an entry that is not a number, or is a bool (strings and
    booleans would convert); an entry past the float range."""
    if isinstance(matrix, (str, bytes, dict)):
        raise BadInput("%s must be a square matrix" % name)
    try:
        n = len(matrix)
        if n > MAX_DIMENSION:
            raise BadInput(
                "%s: dimension %d is over the maximum %d" % (name, n, MAX_DIMENSION)
            )
        rows = [list(row) for row in matrix]
    except TypeError:
        raise BadInput("%s must be a square matrix" % name) from None
    if any(len(row) != n for row in rows):
        raise BadInput("%s must be a square matrix" % name)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, numbers.Number):
                raise BadInput(
                    "%s[%d][%d] is a %s, not a number" % (name, i, j, type(v).__name__)
                )
    try:
        return [[complex(v) for v in row] for row in rows]
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadInput("%s: %s" % (name, exc)) from None


def _require_finite(a, name):
    for i, row in enumerate(a):
        for j, z in enumerate(row):
            if not cmath.isfinite(z):
                value = z.real if z.imag == 0 else z
                raise BadInput("%s[%d][%d] is %s, not finite" % (name, i, j, value))


def _differs(a, b, tol):
    """Whether some |a - b| exceeds tol times the largest |a| (at least
    1); a difference past the float range counts as inf."""
    scale = max([1.0, *(_modulus(z) for row in a for z in row)])
    return any(
        _modulus(x - y) > tol * scale
        for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b)
    )


def _dot(x, y):
    return sum(map(operator.mul, x, y))


def _frame(h):
    """The rows of conj(L^-1), for h = L L^H the Cholesky factorization
    from h's lower triangle: the columns of L^-H are an h-orthonormal
    basis.  None when h is not positive definite."""
    n = len(h)
    low = [[0j] * n for _ in range(n)]
    for j in range(n):
        d = h[j][j].real - sum(z.real * z.real + z.imag * z.imag for z in low[j][:j])
        if not d > 0:
            return None
        low[j][j] = complex(math.sqrt(d))
        conj = [z.conjugate() for z in low[j][:j]]
        for i in range(j + 1, n):
            low[i][j] = (h[i][j] - _dot(low[i][:j], conj)) / low[j][j]
    # L^-1 by forward substitution on the columns of the identity
    inv = [[0j] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = 1 / low[j][j]
        for i in range(j + 1, n):
            inv[i][j] = -sum(low[i][k] * inv[k][j] for k in range(j, i)) / low[i][i]
    return [[z.conjugate() for z in row] for row in inv]


def _singular_values(a):
    """The singular values of the square matrix a (rows of finite
    complex), descending, by one-sided Jacobi on its columns.  a is
    first scaled by a power of two to a largest entry part in [1/2, 1),
    so that no column's sum of squares overflows; the values scale back
    exactly, to inf past the float range."""
    n = len(a)
    top = max(max(abs(z.real), abs(z.imag)) for row in a for z in row)
    # 2^exponent as two factors, each a float where 2^exponent is not
    exponent = math.frexp(top)[1]
    big, small = 2.0 ** (exponent // 2), 2.0 ** (exponent - exponent // 2)
    cols = [[z / big / small for z in col] for col in zip(*a)]
    tol = n * _EPS
    for _ in range(_MAX_SWEEPS):
        rotated = False
        norms = [_dot(map(complex.conjugate, x), x).real for x in cols]
        for i in range(n - 1):
            for j in range(i + 1, n):
                x, y = cols[i], cols[j]
                g = _dot(map(complex.conjugate, x), y)
                size = abs(g)
                alpha, beta = norms[i], norms[j]
                if size <= max(tol * math.sqrt(alpha) * math.sqrt(beta), _FLOOR):
                    continue
                rotated = True
                # the rotation that diagonalizes [[alpha, size], [size, beta]],
                # applied to x and y g^*/|g|
                zeta = (beta - alpha) / (2.0 * size)
                t = math.copysign(1.0 / (abs(zeta) + math.hypot(1.0, zeta)), zeta)
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                phase = g.conjugate() / size
                cs, ss = c * phase, s * phase
                cols[i] = [c * p - ss * q for p, q in zip(x, y)]
                cols[j] = [s * p + cs * q for p, q in zip(x, y)]
                # the new squared norms, each >= 0 but for rounding
                norms[i] = max(alpha - t * size, 0.0)
                norms[j] = max(beta + t * size, 0.0)
        if not rotated:
            break
    else:
        raise BadInput("the singular values of theta did not converge")
    return sorted(
        (math.sqrt(_dot(map(complex.conjugate, x), x).real) * big * small for x in cols),
        reverse=True,
    )


def pfaffian(matrix) -> complex:
    """Pfaffian of an antisymmetric matrix, by skew-symmetric
    tridiagonalization with pivoting.  The input is trusted to be
    antisymmetric; only the shape and the entries' types are checked.
    """
    a = _as_square(matrix, "matrix")
    if len(a) % 2:
        return 0.0 + 0.0j
    return _pfaffian_tridiagonal(a)


def _pfaffian_tridiagonal(a):
    # Parlett-Reid style elimination: congruence transformations bring
    # the matrix to skew tridiagonal form; each row/column swap flips
    # the sign, and congruence by unit triangular matrices leaves the
    # pfaffian unchanged.
    a = [list(row) for row in a]
    n = len(a)
    value = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        pivot = max(range(k + 1, n), key=lambda i: _modulus(a[i][k]))
        if pivot != k + 1:
            a[k + 1], a[pivot] = a[pivot], a[k + 1]
            for row in a:
                row[k + 1], row[pivot] = row[pivot], row[k + 1]
            value = -value
        if a[k + 1][k] == 0:
            return 0.0 + 0.0j
        value *= a[k][k + 1]
        tau = [x / a[k][k + 1] for x in a[k][k + 2 :]]
        col = [row[k + 1] for row in a[k + 2 :]]
        for row, t_r, c_r in zip(a[k + 2 :], tau, col):
            row[k + 2 :] = [
                x + t_r * c_s - c_r * t_s for x, c_s, t_s in zip(row[k + 2 :], col, tau)
            ]
    return value


def symplectic_eigenvalues(
    theta,
    metric=None,
    input_tol: float = DEFAULT_INPUT_TOL,
    pair_tol: float = DEFAULT_PAIR_TOL,
) -> tuple[float, ...]:
    """The n/2 symplectic eigenvalues of theta, ascending.

    theta must be antisymmetric and metric (identity when omitted)
    Hermitian positive definite, both to input_tol relative, square of
    dimension at most MAX_DIMENSION, with every entry a number (not a
    string or a boolean) and finite, in theta's h-orthonormal frame as
    well, as are its singular values.  The paired singular values must
    agree to pair_tol relative to the largest one, else
    ToleranceViolation.  Both tolerances must be finite and nonnegative.
    """
    for name, tol in (("input_tol", input_tol), ("pair_tol", pair_tol)):
        if not 0 <= tol < math.inf:
            raise BadInput("%s is %s, not a finite tolerance >= 0" % (name, tol))

    t = _as_square(theta, "theta")
    _require_finite(t, "theta")
    n = len(t)
    if n == 0 or n % 2:
        raise BadInput("theta needs even positive dimension, got %d" % n)
    if _differs(t, [[-z for z in col] for col in zip(*t)], input_tol):
        raise BadInput("theta is not antisymmetric to tolerance")

    if metric is not None:
        h = _as_square(metric, "metric")
        if len(h) != n:
            raise BadInput("metric dimension differs from theta")
        _require_finite(h, "metric")
        if _differs(h, [[z.conjugate() for z in col] for col in zip(*h)], input_tol):
            raise BadInput("metric is not Hermitian to tolerance")
        frame = _frame(h)
        if frame is None:
            raise BadInput("metric is not positive definite")
        # theta in the frame is F theta F^T, F the rows of conj(L^-1),
        # multiplied out in full, F's zeros included: an entry that
        # overflows to inf makes nan of every sum in which it meets a zero
        cols = list(zip(*t))
        left = [[_dot(f, c) for c in cols] for f in frame]
        t = [[_dot(r, f) for f in frame] for r in left]
        _require_finite(t, "theta in the metric's frame")
    singular = _singular_values(t)  # descending
    bad = [s for s in singular if not math.isfinite(s)]
    if bad:
        raise BadInput("a singular value of theta is %s, not finite" % bad[0])
    threshold = pair_tol * max(singular[0], sys.float_info.min)
    pairs = []
    for k in range(0, n, 2):
        a, b = singular[k], singular[k + 1]
        if abs(a - b) > threshold:
            raise ToleranceViolation(
                "singular values %.17g and %.17g do not pair" % (a, b)
            )
        pairs.append((a + b) / 2.0)
    return tuple(sorted(pairs))
