import numpy as np
import pytest

from sympref.spectrum import (
    BadInput,
    ToleranceViolation,
    pfaffian,
    symplectic_eigenvalues,
)
from sympref.spectrum import _pfaffian_tridiagonal


def standard_form(n):
    j = np.zeros((n, n))
    for k in range(0, n, 2):
        j[k, k + 1] = 1.0
        j[k + 1, k] = -1.0
    return j


def block_form(lams):
    n = 2 * len(lams)
    j = np.zeros((n, n))
    for i, lam in enumerate(lams):
        j[2 * i, 2 * i + 1] = lam
        j[2 * i + 1, 2 * i] = -lam
    return j


def _pfaffian_expansion(a, idxs):
    """Reference Pfaffian: expansion along the first row."""
    if not idxs:
        return 1.0 + 0.0j
    i0 = idxs[0]
    rest = idxs[1:]
    total = 0.0 + 0.0j
    for t, j in enumerate(rest):
        entry = a[i0, j]
        if entry != 0:
            remaining = rest[:t] + rest[t + 1 :]
            total += (-1) ** t * entry * _pfaffian_expansion(a, remaining)
    return total


def random_antisymmetric(rng, n, complex_entries=False):
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return a - a.T


def test_pfaffian_frozen_values():
    assert pfaffian([[0.0, 3.0], [-3.0, 0.0]]) == pytest.approx(3.0)
    assert pfaffian(standard_form(4)) == pytest.approx(1.0)
    assert pfaffian(block_form([2.0, 5.0])) == pytest.approx(10.0)
    assert pfaffian(np.zeros((4, 4))) == 0.0
    assert pfaffian(np.zeros((3, 3))) == 0.0  # odd dimension
    assert pfaffian(np.zeros((0, 0))) == pytest.approx(1.0)


def test_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(31)
    for n in (2, 4, 6, 8, 10, 12):
        for complex_entries in (False, True):
            a = random_antisymmetric(rng, n, complex_entries)
            pf = pfaffian(a)
            det = np.linalg.det(a)
            assert pf ** 2 == pytest.approx(det, rel=1e-8)


def test_pfaffian_expansion_agrees_with_tridiagonalization():
    rng = np.random.default_rng(37)
    for n in (4, 6, 8, 10):
        a = random_antisymmetric(rng, n)
        assert _pfaffian_expansion(a.astype(complex), tuple(range(n))) == pytest.approx(
            _pfaffian_tridiagonal(a.astype(complex)), rel=1e-9
        )


def test_pfaffian_congruence_rule():
    rng = np.random.default_rng(41)
    a = random_antisymmetric(rng, 6)
    b = rng.standard_normal((6, 6))
    assert pfaffian(b.T @ a @ b) == pytest.approx(
        np.linalg.det(b) * pfaffian(a), rel=1e-8
    )


def test_eigenvalues_of_standard_form():
    assert symplectic_eigenvalues(standard_form(2)) == pytest.approx([1.0])
    assert symplectic_eigenvalues(standard_form(6)) == pytest.approx([1.0] * 3)


def test_eigenvalues_of_block_form_sorted_ascending():
    vals = symplectic_eigenvalues(block_form([3.0, 1.0, 2.0]))
    assert vals == pytest.approx([1.0, 2.0, 3.0])


def test_scaling_homogeneity():
    theta = block_form([1.0, 4.0])
    base = symplectic_eigenvalues(theta)
    assert symplectic_eigenvalues(-2.0 * theta) == pytest.approx(2.0 * base)
    assert symplectic_eigenvalues(0.5 * theta) == pytest.approx(0.5 * base)


def test_metric_rescaling_frozen_value():
    vals = symplectic_eigenvalues(standard_form(4), 4.0 * np.eye(4))
    assert vals == pytest.approx([0.25, 0.25])


def test_frame_invariance():
    rng = np.random.default_rng(43)
    theta = block_form([1.0, 2.0, 5.0])
    base = symplectic_eigenvalues(theta)
    for _ in range(5):
        s = rng.standard_normal((6, 6)) * 0.3 + np.eye(6)
        moved = s.T @ theta @ s
        metric = s.conj().T @ s
        assert symplectic_eigenvalues(moved, metric) == pytest.approx(
            base, rel=1e-6
        )


def test_product_of_eigenvalues_matches_pfaffian():
    rng = np.random.default_rng(47)
    for n in (4, 6):
        for _ in range(20):
            theta = random_antisymmetric(rng, n)
            vals = symplectic_eigenvalues(theta)
            assert float(np.prod(vals)) == pytest.approx(
                abs(pfaffian(theta)), rel=1e-7
            )


def test_bad_input_rejected():
    with pytest.raises(BadInput):
        symplectic_eigenvalues(np.zeros((3, 3)))  # odd
    with pytest.raises(BadInput):
        symplectic_eigenvalues(np.zeros((2, 3)))  # not square
    with pytest.raises(BadInput):
        symplectic_eigenvalues(np.ones((2, 2)))  # not antisymmetric
    with pytest.raises(BadInput):
        symplectic_eigenvalues(standard_form(4), -np.eye(4))  # not PD
    with pytest.raises(BadInput):
        bad = np.eye(4) + 0.1j * np.eye(4)
        symplectic_eigenvalues(standard_form(4), bad)  # not Hermitian
    with pytest.raises(BadInput):
        symplectic_eigenvalues(standard_form(4), np.eye(6))  # size mismatch


@pytest.mark.parametrize("name", ["input_tol", "pair_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_tolerances_must_be_finite_and_nonnegative(name, value):
    with pytest.raises(BadInput, match="%s is" % name):
        symplectic_eigenvalues(np.array([[0.0, 2.0], [2.0, 0.0]]), **{name: value})
    # zero is a valid, exacting tolerance
    assert symplectic_eigenvalues(block_form([2.0]), **{name: 0.0}).tolist() == [2.0]


def test_antisymmetry_tolerance_is_relative():
    theta = standard_form(4) * 1e6
    theta[0, 1] += 1e-8  # breaks exact antisymmetry but not relative
    symplectic_eigenvalues(theta)
    theta[0, 1] += 1.0
    with pytest.raises(BadInput):
        symplectic_eigenvalues(theta)


def test_pairing_tolerance_violation():
    # with a zero tolerance even the float rounding of an honestly
    # paired spectrum trips the check
    rng = np.random.default_rng(53)
    theta = random_antisymmetric(rng, 8)
    with pytest.raises(ToleranceViolation):
        symplectic_eigenvalues(theta, pair_tol=0.0)
    # and the default tolerance accepts the same input
    symplectic_eigenvalues(theta)
