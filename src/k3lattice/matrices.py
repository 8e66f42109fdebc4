"""Exact integer and rational matrix algebra.

Matrices are plain lists of row lists of Python ints, with fractions.Fraction
only in rational_inverse's output, so no overflow and no rounding anywhere.
Two eliminations do all the work: one fraction-free symmetric Bareiss pass,
which det and inertia both read, and the Smith normal form, which gives every
inverse the package needs (from U M V = D, M^-1 = V D^-1 U).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

__all__ = [
    "identity",
    "copy_matrix",
    "transpose",
    "mat_mul",
    "mat_vec",
    "is_symmetric",
    "det",
    "rational_inverse",
    "unimodular_inverse",
    "inertia",
    "SmithDecomposition",
    "smith_normal_form",
]

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(m) -> Matrix:
    return [list(row) for row in m]


def transpose(m) -> Matrix:
    if not m:
        return []
    return [[m[i][j] for i in range(len(m))] for j in range(len(m[0]))]


def mat_mul(a, b) -> Matrix:
    if a and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in matrix product")
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(m, v) -> list:
    if m and len(m[0]) != len(v):
        raise ValueError("dimension mismatch in matrix-vector product")
    return [sum(row[k] * v[k] for k in range(len(v))) for row in m]


def is_symmetric(m) -> bool:
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def det(m) -> int:
    """Determinant of a symmetric matrix; det([]) is 1."""
    return _symmetric_bareiss(m)[3]


def rational_inverse(m) -> list[list[Fraction]]:
    """Inverse over Q; raises ValueError when singular."""
    v, d, u = _inverse_factors(m)
    return mat_mul([[Fraction(x, dj) for x, dj in zip(row, d)] for row in v], u)


def unimodular_inverse(m) -> Matrix:
    """Integer inverse of a square matrix whose Smith diagonal is all ones."""
    if any(len(row) != len(m) for row in m):
        raise ValueError("inverse requires a square matrix")
    snf = smith_normal_form(m)
    if any(x != 1 for x in snf.diagonal()):
        raise ValueError("matrix is not unimodular")
    return mat_mul(snf.v, snf.u)


def inertia(m) -> tuple[int, int, int]:
    """(positive, negative, zero) counts of a symmetric matrix."""
    return _symmetric_bareiss(m)[:3]


def _symmetric_bareiss(m) -> tuple[int, int, int, int]:
    """(positive, negative, zero, det) of a symmetric matrix.

    Congruence diagonalization by fraction-free symmetric Bareiss
    elimination: the working block is always the last pivot prev times the
    true Schur complement, so each true pivot has the sign of piv / prev and
    every update divides exactly. The swaps and the row/column addition are
    congruences of determinant +-1, so the last pivot is the determinant,
    unless a zero row was dropped. Integers only.
    """
    n = len(m)
    if not is_symmetric(m):
        raise ValueError("Bareiss elimination requires a symmetric matrix")
    a = copy_matrix(m)
    pos = neg = zero = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
                a[k], a[swap] = a[swap], a[k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    zero += 1  # a zero row and column: drop it, prev stays
                    continue
                # both diagonals vanish; adding row/col makes the pivot 2*a[k][off]
                for j in range(k, n):
                    a[k][j] += a[off][j]
                for i in range(k, n):
                    a[i][k] += a[i][off]
        piv = a[k][k]
        if (piv > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        pivot_row = a[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(k + 1, n):
                # exact by Bareiss: prev divides the cross product
                row[j] = (piv * row[j] - f * pivot_row[j]) // prev
        prev = piv
    return pos, neg, zero, 0 if zero else prev


@dataclass
class SmithDecomposition:
    """U * M * V = D with U, V unimodular and D = diag(d1, d2, ...).

    The diagonal is nonnegative and each entry divides the next; any sign
    is absorbed into V.
    """

    d: Matrix
    u: Matrix
    v: Matrix

    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))]

    def invariant_factors(self) -> list[int]:
        return [x for x in self.diagonal() if x != 0]


def _pivot_min_abs(a, k, rows, cols):
    best = None
    for i in range(k, rows):
        for j in range(k, cols):
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(m) -> SmithDecomposition:
    """Smith normal form with tracked unimodular factors; each step pivots on
    an entry of least absolute value in the remaining block."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    a = copy_matrix(m)
    u = identity(rows)
    v = identity(cols)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_add(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def col_add(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    for k in range(min(rows, cols)):
        while True:
            pos = _pivot_min_abs(a, k, rows, cols)
            if pos is None:
                break
            if pos != (k, k):
                if pos[0] != k:
                    row_swap(k, pos[0])
                if pos[1] != k:
                    col_swap(k, pos[1])
            # Euclidean descent: a remainder that survives reduction is
            # strictly smaller than the pivot, so promoting it guarantees
            # termination.
            restart = False
            for i in range(k + 1, rows):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    row_add(i, k, -q)
                    if a[i][k] != 0:
                        row_swap(k, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(k + 1, cols):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    col_add(j, k, -q)
                    if a[k][j] != 0:
                        col_swap(k, j)
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the whole remaining block or the chain breaks
            stray = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if a[i][j] % a[k][k] != 0:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            row_add(k, stray, 1)
        if pos is None:
            break
    n = min(rows, cols)
    for i in range(n):
        if a[i][i] < 0:
            col_add(i, i, -2)  # negate column i keeping V unimodular
    return SmithDecomposition(a, u, v)


def _inverse_factors(m) -> tuple[Matrix, list[int], Matrix]:
    """(V, d, U) with m^-1 = V diag(d)^-1 U, read off the Smith form
    U m V = diag(d); raises ValueError when m is not square or is singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse requires a square matrix")
    snf = smith_normal_form(m)
    d = snf.diagonal()
    if 0 in d:
        raise ValueError("matrix is singular")
    return snf.v, d, snf.u
