"""Small groups and oracles that several test modules share."""

from fractions import Fraction

from sympref.cyclotomic import CyclotomicNumber
from sympref.groups import FiniteMatrixGroup, NotAMember
from sympref.linalg import ExactMatrix, standard_symplectic_form


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


def is_identity(mat):
    # equality compares shapes first
    return mat == ExactMatrix.identity(mat.rows, mat.conductor)


def apply(mat, vector):
    """mat times a coordinate tuple, as a tuple of its entries."""
    column = ExactMatrix.from_rows([[v] for v in vector], mat.conductor)
    return (mat * column).entries


def transvection(v, c, omega):
    """x -> x + c * omega(v, x) * v, symplectic for omega."""
    n = len(v)
    row = [sum(v[k] * omega.entry(k, j) for k in range(n)) for j in range(n)]
    return ExactMatrix.identity(n, omega.conductor) + ExactMatrix.from_rows(
        [[c * v[i] * row[j] for j in range(n)] for i in range(n)], omega.conductor
    )


def is_member(group, mat):
    try:
        group.index_of(mat)
    except NotAMember:
        return False
    return True


def s3_group():
    return FiniteMatrixGroup.closure(
        3, 1, None, [perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])]
    )


def quaternion_group():
    i = CyclotomicNumber.zeta(4)
    return FiniteMatrixGroup.closure(
        2, 4, standard_symplectic_form(2, 4),
        [ExactMatrix.from_rows([[i, 0], [0, -i]], 4),
         ExactMatrix.from_rows([[0, 1], [-1, 0]], 4)],
    )


def block_swap_group():
    # the two-element group exchanging the two planes of C^4
    return FiniteMatrixGroup.closure(
        4, 1, standard_symplectic_form(4), [perm_matrix([2, 3, 0, 1])]
    )


# ---------------------------------------------------------------------------
# a planar group Gamma in SL(2) and S_n on (C^2)^n, with the standard form
# (one 2x2 block per plane, so plane permutations keep it)

def _on_planes(blocks, images, conductor):
    """The matrix taking plane p to plane images[p] by blocks[p]."""
    n = 2 * len(images)
    rows = [[0] * n for _ in range(n)]
    for p, (h, q) in enumerate(zip(blocks, images)):
        for i in range(2):
            for j in range(2):
                rows[2 * q + i][2 * p + j] = h.entry(i, j)
    return ExactMatrix.from_rows(rows, conductor)


def _with_plane_swaps(gamma, n, gamma_gens):
    # S_n by the swap of planes 0, 1 and the cycle of all n planes
    one = ExactMatrix.identity(2, gamma.conductor)
    swaps = [[1, 0, *range(2, n)], [*range(1, n), 0]]
    gens = gamma_gens + [_on_planes([one] * n, s, gamma.conductor) for s in swaps]
    return FiniteMatrixGroup.closure(
        2 * n, gamma.conductor,
        standard_symplectic_form(2 * n, gamma.conductor), gens,
    )


def sl2_times_symmetric(gamma, n):
    """Gamma x S_n: Gamma acts on every plane at once, S_n permutes them."""
    diagonal_gens = [
        _on_planes([h] * n, range(n), gamma.conductor) for h in gamma.generators
    ]
    return _with_plane_swaps(gamma, n, diagonal_gens)


def even_sign_changes(k):
    """E_k: the sign changes of an even number of k planes, order
    2^(k-1), generated by the k - 1 negations of planes i and i + 1."""
    gens = [
        diagonal(*(-1 if p in (i, i + 1) else 1 for p in range(k) for _ in range(2)))
        for i in range(k - 1)
    ]
    return FiniteMatrixGroup.closure(2 * k, 1, standard_symplectic_form(2 * k), gens)


def sl2_wreath_symmetric(gamma, n):
    """Gamma wr S_n: Gamma acts on the first plane alone, S_n permutes
    the planes."""
    one = ExactMatrix.identity(2, gamma.conductor)
    first_gens = [
        _on_planes([h] + [one] * (n - 1), range(n), gamma.conductor)
        for h in gamma.generators
    ]
    return _with_plane_swaps(gamma, n, first_gens)


# ---------------------------------------------------------------------------
# independent oracle for the binary icosahedral group: unit icosians,
# i.e. quaternions over Q(sqrt 5) carried as pairs of Fractions
# (a + b sqrt5), with plain Fraction arithmetic

def f5_mul(a, b):
    # (x + y sqrt5)(u + v sqrt5)
    return (a[0] * b[0] + 5 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def f5_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


F5_ZERO = (Fraction(0), Fraction(0))
F5_ONE = (Fraction(1), Fraction(0))


def quat_mul(p, q):
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q

    def term(*pairs):
        total = F5_ZERO
        for sign, a, b in pairs:
            prod = f5_mul(a, b)
            if sign < 0:
                prod = (-prod[0], -prod[1])
            total = f5_add(total, prod)
        return total

    return (
        term((1, w1, w2), (-1, x1, x2), (-1, y1, y2), (-1, z1, z2)),
        term((1, w1, x2), (1, x1, w2), (1, y1, z2), (-1, z1, y2)),
        term((1, w1, y2), (-1, x1, z2), (1, y1, w2), (1, z1, x2)),
        term((1, w1, z2), (1, x1, y2), (-1, y1, x2), (1, z1, w2)),
    )


QUAT_ONE = (F5_ONE, F5_ZERO, F5_ZERO, F5_ZERO)


def icosian_group():
    half = (Fraction(1, 2), Fraction(0))
    phi_half = (Fraction(1, 4), Fraction(1, 4))        # phi / 2
    inv_phi_half = (Fraction(-1, 4), Fraction(1, 4))   # 1 / (2 phi)
    g1 = (half, half, half, half)
    g2 = (phi_half, inv_phi_half, half, F5_ZERO)
    elems = {QUAT_ONE, g1, g2}
    frontier = [g1, g2]
    while frontier:
        q = frontier.pop()
        for g in (g1, g2):
            p = quat_mul(q, g)
            if p not in elems:
                elems.add(p)
                frontier.append(p)
        assert len(elems) <= 150, "runaway closure"
    return elems


def quat_order(q):
    n = 1
    cur = q
    while cur != QUAT_ONE:
        cur = quat_mul(cur, q)
        n += 1
    return n
