import random
from fractions import Fraction

import pytest

from k3lattice import matrices
from k3lattice.lattices import standard_lattice
from oracles import (
    det_cofactor,
    det_subset_dp,
    random_matrix,
    random_symmetric,
    random_unimodular,
    rational_inverse_reference,
    signature_by_rational_diagonalization,
    snf_diagonal_minor_gcd,
)


def test_det_matches_cofactor_oracle():
    # det reads the symmetric Bareiss pass, so its inputs are symmetric; zero
    # diagonals run the swap and row/column-addition branches, repeated rows
    # the zero-row exit
    rng = random.Random(101)
    singular = zero_diagonal = 0
    for _ in range(600):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n, -7, 7)
        shape = rng.randrange(3)
        if shape == 1:
            for i in range(n):
                m[i][i] = 0
        elif shape == 2 and n >= 2:
            i, j = rng.sample(range(n), 2)
            m[j] = list(m[i])
            for row in m:
                row[j] = row[i]
        want = det_cofactor(m)
        assert matrices.det(m) == want, m
        singular += want == 0
        zero_diagonal += any(m[i][i] == 0 for i in range(n))
    assert singular > 100 and zero_diagonal > 200
    for bad in ([[1, 2], [3, 4]], [[0, 1], [0, 0]], [[1, 0]], [[1], [2]], [[1, 2], [2]]):
        for read in (matrices.det, matrices.inertia):
            with pytest.raises(ValueError, match="requires a symmetric matrix"):
                read(bad)


def test_det_known_values():
    assert matrices.det([[0, 1], [1, 0]]) == -1
    assert matrices.det([[2]]) == 2
    assert matrices.det([]) == 1


def test_rational_inverse_roundtrip():
    rng = random.Random(102)
    done = singular = 0
    while done < 300:
        n = rng.randint(1, 8)
        m = random_matrix(rng, n, n, -9, 9)
        if rng.random() < 0.2 and n >= 2:  # singular: row j repeats row i
            i, j = rng.sample(range(n), 2)
            m[j] = list(m[i])
        try:
            want = rational_inverse_reference(m)
        except ValueError:
            with pytest.raises(ValueError, match="matrix is singular"):
                matrices.rational_inverse(m)
            singular += 1
            continue
        inv = matrices.rational_inverse(m)
        assert inv == want, m
        assert all(isinstance(x, Fraction) for row in inv for x in row)
        assert matrices.mat_mul(m, inv) == matrices.identity(n)
        done += 1
    assert singular > 20
    assert matrices.rational_inverse([]) == rational_inverse_reference([]) == []
    for bad in ([[1, 2], [2, 4]], [[0]], [[0, 0], [0, 0]]):
        with pytest.raises(ValueError, match="matrix is singular"):
            matrices.rational_inverse(bad)
    for ragged in ([[1, 2]], [[1], [2]], [[1, 2], [3]], [[]]):
        with pytest.raises(ValueError, match="inverse requires a square matrix"):
            matrices.rational_inverse(ragged)


def test_unimodular_inverse():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randint(1, 8)
        u = random_unimodular(rng, n)
        inv = matrices.unimodular_inverse(u)
        assert inv == rational_inverse_reference(u), u
        assert matrices.mat_mul(u, inv) == matrices.identity(n)
        assert all(type(x) is int for row in inv for x in row)
    for bad in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[0]]):
        with pytest.raises(ValueError, match="matrix is not unimodular"):
            matrices.unimodular_inverse(bad)
    for ragged in ([[1, 0]], [[1], [0]], [[1, 0], [0]]):
        with pytest.raises(ValueError, match="inverse requires a square matrix"):
            matrices.unimodular_inverse(ragged)
    assert matrices.unimodular_inverse([]) == []


def test_inertia_on_knowns():
    assert matrices.inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert matrices.inertia([[2, 0], [0, -2]]) == (1, 1, 0)
    assert matrices.inertia([[2, 0], [0, 0]]) == (1, 0, 1)
    assert matrices.inertia([[6, 0, 0], [0, -2, 0], [0, 0, -2]]) == (1, 2, 0)


def test_inertia_matches_diagonalization_oracle():
    rng = random.Random(105)
    for _ in range(120):
        n = rng.randint(1, 6)
        g = random_symmetric(rng, n, -6, 6)
        assert tuple(matrices.inertia(g)) == signature_by_rational_diagonalization(g)


def test_inertia_on_degenerate_and_large_matrices():
    rng = random.Random(107)
    u = [[0, 1], [1, 0]]
    u_plus_u = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    cases = [[], [[0]], [[0] * 3 for _ in range(3)], u, u_plus_u]
    for _ in range(600):
        n = rng.randint(1, 8)
        bound = rng.choice((1, 10, 10**6))
        g = random_symmetric(rng, n, -bound, bound)
        shape = rng.randrange(4)
        if shape == 1:  # zero diagonal, as in U + U blocks
            for i in range(n):
                g[i][i] = 0
        elif shape == 2 and n >= 2:  # singular: row and column j duplicate i
            i, j = rng.sample(range(n), 2)
            g[j] = list(g[i])
            for row in g:
                row[j] = row[i]
        elif shape == 3:  # pad with zero rows and columns
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(0, len(g))
                for row in g:
                    row.insert(k, 0)
                g.insert(k, [0] * (len(g) + 1))
        cases.append(g)
    for g in cases:
        assert tuple(matrices.inertia(g)) == signature_by_rational_diagonalization(g), g
    assert matrices.inertia([]) == (0, 0, 0)
    assert matrices.inertia([[0] * 3 for _ in range(3)]) == (0, 0, 3)
    assert matrices.inertia(u_plus_u) == (2, 2, 0)
    assert matrices.inertia(standard_lattice("K3").gram) == (3, 19, 0)
    assert matrices.inertia(standard_lattice("E8_neg").gram) == (0, 8, 0)


def test_smith_normal_form_properties():
    rng = random.Random(106)
    for _ in range(250):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, -8, 8)
        snf = matrices.smith_normal_form(m)
        assert matrices.mat_mul(matrices.mat_mul(snf.u, m), snf.v) == snf.d
        assert abs(det_cofactor(snf.u)) == 1
        assert abs(det_subset_dp(snf.v)) == 1
        diag = snf.diagonal()
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        # off-diagonal zero
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert snf.d[i][j] == 0
    with pytest.raises(ValueError, match="ragged matrix"):
        matrices.smith_normal_form([[1, 2], [3]])


def test_smith_diagonal_matches_minor_gcd_oracle():
    rng = random.Random(107)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, -6, 6)
        got = matrices.smith_normal_form(m).diagonal()
        assert got == snf_diagonal_minor_gcd(m)


def _mat_mul_by_index(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]


def test_mat_mul_matches_index_loop():
    rng = random.Random(103)
    shapes = [(1, 5, 3), (4, 5, 1), (1, 1, 1), (3, 0, 2), (2, 3, 0), (0, 3, 2)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)) for _ in range(80)]
    for rows, inner, cols in shapes:
        a = random_matrix(rng, rows, inner)
        b = random_matrix(rng, inner, cols)
        assert matrices.mat_mul(a, b) == _mat_mul_by_index(a, b), (rows, inner, cols)
        af = [[Fraction(x, rng.randint(1, 7)) for x in row] for row in a]
        got = matrices.mat_mul(af, b)
        assert got == _mat_mul_by_index(af, b)
        assert all(isinstance(x, Fraction) for row in got for x in row if inner)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        matrices.mat_mul([[1, 2, 3]], [[1], [2]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        matrices.mat_mul([[1, 2]], [])
    with pytest.raises(ValueError, match="dimension mismatch in matrix-vector product"):
        matrices.mat_vec([[1, 2]], [1])
