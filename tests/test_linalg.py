import random
from fractions import Fraction

import pytest

from homlie import ContractError, Matrix, UsageError, kernel_basis, quotient_dimension, rref, solve
from homlie.linalg import ZERO, kron_sum, rank

from helpers import dense, naive_apply, rand_matrix, rand_vector, vec_is_zero

F = Fraction


def test_rref_identity():
    m = Matrix.identity(3)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == (0, 1, 2)


def test_rref_zero():
    m = Matrix.zero(2, 3)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == ()


def test_rref_rank_one():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    reduced, pivots = rref(m)
    assert reduced == Matrix.from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        reduced, _ = rref(m)
        again, _ = rref(reduced)
        assert again == reduced


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(4)) == []


def test_kernel_zero_full():
    basis = kernel_basis(Matrix.zero(2, 3))
    assert len(basis) == 3


def test_kernel_rank_one():
    basis = kernel_basis(Matrix.from_rows([[1, 2], [2, 4]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * 1 + v[1] * 2 == 0
    assert v[1] != 0 and v[0] / v[1] == F(-2)


def test_rank_nullity_and_exactness():
    rng = random.Random(11)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == m.cols
        for v in basis:
            assert vec_is_zero(naive_apply(dense(m), v))


def test_solve_identity():
    b = (F(3), F(-1), F(7))
    assert solve(Matrix.identity(3), b) == b


def test_solve_inconsistent():
    assert solve(Matrix.zero(2, 2), (F(1), F(0))) is None


def test_solve_back_substitution():
    x = solve(Matrix.from_rows([[1, 1], [0, 1]]), (F(3), F(1)))
    assert x == (F(2), F(1))


def test_solve_dimension_mismatch():
    with pytest.raises(UsageError):
        solve(Matrix.identity(2), (F(1),))


def test_solve_exact_on_random_systems():
    rng = random.Random(13)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        x = rand_vector(rng, cols)
        b = naive_apply(dense(m), x)
        found = solve(m, b)
        assert found is not None
        assert naive_apply(dense(m), found) == b


def test_quotient_dimension_examples():
    e1 = (F(1), F(0), F(0))
    e2 = (F(0), F(1), F(0))
    assert quotient_dimension([e1, e2], [e1]) == 1
    assert quotient_dimension([e1, e2], [e1, e2]) == 0
    both = (F(1), F(1), F(0))
    diff = (F(1), F(-1), F(0))
    assert quotient_dimension([e1, e2, both], [diff]) == 1


def test_quotient_dimension_rejects_non_containment():
    e1 = (F(1), F(0))
    e2 = (F(0), F(1))
    with pytest.raises(ContractError):
        quotient_dimension([e1], [e2])


def test_matrix_shapes_guarded():
    with pytest.raises(UsageError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(UsageError):
        Matrix.identity(2) @ Matrix.identity(3)


def test_matrix_power():
    rng = random.Random(11)
    a = rand_matrix(rng, 3, 3)
    assert a.power(0) == Matrix.identity(3)
    assert a.power(1) == a
    assert a.power(3) == a @ a @ a
    with pytest.raises(UsageError):
        a.power(-1)
    with pytest.raises(UsageError):
        rand_matrix(rng, 2, 3).power(2)


def _with_shared_zeros(rng, m: Matrix) -> Matrix:
    return Matrix(m.rows, m.cols, tuple(ZERO if rng.random() < 0.3 else x for x in m.entries))


def test_matmul_matches_row_column_sums():
    # Some dense entries are the shared ZERO, which the intake drops by identity.
    rng = random.Random(12)
    for _ in range(20):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = _with_shared_zeros(rng, rand_matrix(rng, n, k))
        b = _with_shared_zeros(rng, rand_matrix(rng, k, m))
        expected = [[sum((a.entry(i, t) * b.entry(t, j) for t in range(k)), F(0))
                     for j in range(m)] for i in range(n)]
        assert a @ b == Matrix.from_rows(expected)


def test_kron_blocks():
    rng = random.Random(14)
    for _ in range(10):
        a = _with_shared_zeros(rng, rand_matrix(rng, rng.randint(0, 3), rng.randint(0, 3)))
        b = rand_matrix(rng, rng.randint(0, 3), rng.randint(0, 3))
        product = kron_sum([(a, b)], a.rows * b.rows, a.cols * b.cols)
        assert (product.rows, product.cols) == (a.rows * b.rows, a.cols * b.cols)
        for l in range(a.rows):
            for i in range(a.cols):
                for r in range(b.rows):
                    for c in range(b.cols):
                        assert product.entry(l * b.rows + r, i * b.cols + c) == (
                            a.entry(l, i) * b.entry(r, c))


def test_determinant_matches_permutation_expansion():
    import itertools
    from math import prod

    from homlie.linalg import determinant_of

    from helpers import perm_sign

    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [list(rand_vector(rng, n)) for _ in range(n)]
        if rng.random() < 0.3:
            rows[0][0] = F(0)  # forces a row swap or an early zero
        expected = sum((perm_sign(p) * prod(rows[i][p[i]] for i in range(n))
                        for p in itertools.permutations(range(n))), F(0))
        assert determinant_of(rows) == expected
    assert determinant_of([]) == 1
    assert determinant_of([[F(1), F(2)], [F(2), F(4)]]) == 0


@pytest.mark.parametrize("rows", [
    [[F(1), F(2)]],  # 1 x 2
    [[F(1), F(2)], [F(3), F(4)], [F(5), F(6)]],  # 3 x 2
    [[F(1), F(2)], [F(3)]],  # ragged
], ids=["wide", "tall", "ragged"])
def test_determinant_refuses_non_square_and_ragged_rows(rows):
    from homlie.linalg import determinant_of

    with pytest.raises(UsageError):
        determinant_of(rows)
