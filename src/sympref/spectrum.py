"""Symplectic eigenvalues of an antisymmetric 2-form, numerically.

Given an antisymmetric matrix theta and a Hermitian positive-definite
metric h on the same space, there is a basis orthonormal for h in which
theta becomes block-diagonal with blocks lambda_i [[0, 1], [-1, 0]],
lambda_i >= 0.  The lambda_i are computed by transporting theta to an
h-orthonormal frame (Cholesky) and reading off the singular values,
which come in equal pairs; a pairing failure beyond tolerance is
reported rather than silently averaged away.  Every input refused,
numpy's own conversion and SVD failures included, raises BadInput.

This module is deliberately floating point: the eigenvalues are
generally irrational even for rational input.  It is the only one that
uses numpy, and imports it inside the functions that need it, so that
importing the package (and every other command) never loads numpy.
"""

from __future__ import annotations

import math
import numbers

from .errors import DEFAULT_INPUT_TOL, DEFAULT_PAIR_TOL, BadInput


class ToleranceViolation(BadInput, ArithmeticError):
    """Singular values failed to pair up within tolerance."""


def _as_square(matrix, name):
    import numpy as np

    # numpy would parse strings ("2j") and take booleans as 0 and 1
    for i, row in enumerate(matrix if isinstance(matrix, list) else ()):
        for j, v in enumerate(row if isinstance(row, list) else ()):
            if isinstance(v, bool) or not isinstance(v, numbers.Number):
                raise BadInput(
                    "%s[%d][%d] is a %s, not a number" % (name, i, j, type(v).__name__)
                )
    try:
        a = np.asarray(matrix, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadInput("%s: %s" % (name, exc)) from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadInput("%s must be a square matrix" % name)
    return a


def _require_finite(a, name):
    import numpy as np

    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        i, j = bad[0]
        value = a[i, j].real if a[i, j].imag == 0 else a[i, j]
        raise BadInput("%s[%d][%d] is %s, not finite" % (name, i, j, value))


def _differs(a, b, tol):
    """Whether some |a - b| exceeds tol times the largest |a| (at least
    1); a difference past the float range counts as inf."""
    import numpy as np

    scale = max(float(np.max(np.abs(a))), 1.0)
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(a - b))) > tol * scale


def pfaffian(matrix) -> complex:
    """Pfaffian of an antisymmetric matrix, by skew-symmetric
    tridiagonalization with pivoting.  The input is trusted to be
    antisymmetric; only the shape is checked.
    """
    a = _as_square(matrix, "matrix")
    if a.shape[0] % 2:
        return 0.0 + 0.0j
    return _pfaffian_tridiagonal(a)


def _pfaffian_tridiagonal(a):
    # Parlett-Reid style elimination: congruence transformations bring
    # the matrix to skew tridiagonal form; each row/column swap flips
    # the sign, and congruence by unit triangular matrices leaves the
    # pfaffian unchanged.
    import numpy as np

    a = a.copy()
    n = a.shape[0]
    value = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        pivot = k + 1 + int(np.argmax(np.abs(a[k + 1 :, k])))
        if pivot != k + 1:
            a[[k + 1, pivot], :] = a[[pivot, k + 1], :]
            a[:, [k + 1, pivot]] = a[:, [pivot, k + 1]]
            value = -value
        if a[k + 1, k] == 0:
            return 0.0 + 0.0j
        value *= a[k, k + 1]
        if k + 2 < n:
            tau = a[k, k + 2 :] / a[k, k + 1]
            col = a[k + 2 :, k + 1]
            a[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return value


def symplectic_eigenvalues(
    theta,
    metric=None,
    input_tol: float = DEFAULT_INPUT_TOL,
    pair_tol: float = DEFAULT_PAIR_TOL,
) -> np.ndarray:
    """The n/2 symplectic eigenvalues of theta, ascending.

    theta must be antisymmetric and metric (identity when omitted)
    Hermitian positive definite, both to input_tol relative, with every
    entry a number (not a string or a boolean) and finite, in theta's
    h-orthonormal frame as well, as are its singular values.  The paired
    singular values must agree to pair_tol relative to the largest one,
    else ToleranceViolation.  Both tolerances must be finite and
    nonnegative.
    """
    for name, tol in (("input_tol", input_tol), ("pair_tol", pair_tol)):
        if not 0 <= tol < math.inf:
            raise BadInput("%s is %s, not a finite tolerance >= 0" % (name, tol))
    import numpy as np

    t = _as_square(theta, "theta")
    _require_finite(t, "theta")
    n = t.shape[0]
    if n == 0 or n % 2:
        raise BadInput("theta needs even positive dimension, got %d" % n)
    if _differs(t, -t.T, input_tol):
        raise BadInput("theta is not antisymmetric to tolerance")

    if metric is not None:
        h = _as_square(metric, "metric")
        if h.shape[0] != n:
            raise BadInput("metric dimension differs from theta")
        _require_finite(h, "metric")
        if _differs(h, h.conj().T, input_tol):
            raise BadInput("metric is not Hermitian to tolerance")
        try:
            # columns of frame are an h-orthonormal basis
            frame = np.linalg.inv(np.linalg.cholesky(h).conj().T)
        except np.linalg.LinAlgError:
            raise BadInput("metric is not positive definite") from None
        with np.errstate(over="ignore", invalid="ignore"):
            t = frame.T @ t @ frame
        _require_finite(t, "theta in the metric's frame")
    try:
        singular = np.linalg.svd(t, compute_uv=False)  # descending
    except np.linalg.LinAlgError as exc:
        raise BadInput(str(exc)) from None
    bad = singular[~np.isfinite(singular)]
    if len(bad):
        raise BadInput("a singular value of theta is %s, not finite" % bad[0])
    top = float(singular[0]) if n else 0.0
    threshold = pair_tol * max(top, np.finfo(float).tiny)
    pairs = []
    for k in range(0, n, 2):
        a, b = float(singular[k]), float(singular[k + 1])
        if abs(a - b) > threshold:
            raise ToleranceViolation(
                "singular values %.17g and %.17g do not pair" % (a, b)
            )
        pairs.append((a + b) / 2.0)
    return np.array(sorted(pairs))
