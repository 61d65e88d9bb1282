"""The sparse Matrix store against dense list-of-lists oracles.

Every operation is checked on seeded random matrices of density 0, 0.05,
0.5 and 1, in shapes that include 0 x n, n x 0 and 0 x 0.  The dense
inputs carry explicit zeros of every kind (the int 0, a fresh Fraction(0)
and the shared zero), and each matrix is built four ways, which must all
give one matrix with one hash.
"""

import pickle
import random
from fractions import Fraction

import pytest

from homlie import Matrix, UsageError, rref
from homlie.linalg import ZERO, hsplit, hstack, kron, vstack

from helpers import (
    naive_add,
    naive_apply,
    naive_block_diag,
    naive_hstack,
    naive_kron,
    naive_matmul,
    naive_rref,
    naive_scale,
    naive_sub,
    naive_transpose,
)

F = Fraction
DENSITIES = (0, 0.05, 0.5, 1)
SHAPES = ((0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (7, 9))


def grid(rng, rows, cols, density):
    """A dense rows x cols list of lists whose zeros come in every form."""
    def draw():
        if rng.random() < density:
            return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        return rng.choice((0, F(0), ZERO))
    return [[draw() for _ in range(cols)] for _ in range(rows)]


def dense(m: Matrix):
    return [list(m.row(i)) for i in range(m.rows)]


def agrees(m: Matrix, g, rows, cols):
    """m has the shape and entries of the dense oracle g, and equals and
    hashes like the matrix built from g, so its sparse rows are canonical."""
    twin = Matrix(rows, cols, tuple(x for row in g for x in row))
    return (m.rows, m.cols) == (rows, cols) and dense(m) == g and m == twin \
        and hash(m) == hash(twin)


def builds(g, rows, cols):
    """The same matrix from dense entries, columns, an entry dict (given in
    reverse order) and, when it has rows, from rows."""
    out = [
        Matrix(rows, cols, tuple(x for row in g for x in row)),
        Matrix.from_columns([[g[i][j] for i in range(rows)] for j in range(cols)], rows),
        Matrix.from_entries(rows, cols, {(i, j): g[i][j] for i in reversed(range(rows))
                                         for j in reversed(range(cols))}),
    ]
    if rows:
        out.append(Matrix.from_rows(g))
    return out


def cases(seed):
    rng = random.Random(seed)
    for rows, cols in SHAPES:
        for density in DENSITIES:
            yield rng, rows, cols, density, grid(rng, rows, cols, density)


def test_every_build_is_one_matrix_with_one_hash():
    for rng, rows, cols, density, g in cases(1):
        first, *rest = builds(g, rows, cols)
        for other in rest:
            assert other == first and hash(other) == hash(first)
        # explicit zeros change nothing: the same entries with zeros blanked
        blank = [[x if x != 0 else ZERO for x in row] for row in g]
        assert Matrix(rows, cols, tuple(x for row in blank for x in row)) == first


def test_equality_is_dense_equality():
    for rng, rows, cols, density, g in cases(2):
        m = builds(g, rows, cols)[0]
        h = [row[:] for row in g]
        if rows and cols:
            i, j = rng.randrange(rows), rng.randrange(cols)
            h[i][j] = h[i][j] + 1
            changed = builds(h, rows, cols)[0]
            assert changed != m and (dense(changed) != dense(m))
        # shapes are part of equality, even with no entries
        assert Matrix.zero(rows, cols) != Matrix.zero(rows + 1, cols)
        assert (m == Matrix.zero(rows, cols)) == all(x == 0 for row in g for x in row)
        assert m.is_zero() == all(x == 0 for row in g for x in row)


def test_dense_views_match_the_input():
    for rng, rows, cols, density, g in cases(3):
        m = builds(g, rows, cols)[0]
        assert (m.rows, m.cols) == (rows, cols)
        assert m.entries == tuple(x for row in g for x in row)
        assert dense(m) == g
        assert [list(m.col(j)) for j in range(cols)] == naive_transpose(g, cols)
        assert all(m.entry(i, j) == g[i][j] for i in range(rows) for j in range(cols))
        for i in range(rows):
            items = m.row_items(i)
            assert items == tuple((j, x) for j, x in enumerate(g[i]) if x != 0)
            assert all(type(x) is Fraction for _, x in items)


def test_unary_operations_match_the_oracles():
    for rng, rows, cols, density, g in cases(4):
        m = builds(g, rows, cols)[0]
        assert agrees(m.transpose(), naive_transpose(g, cols), cols, rows)
        assert m.transpose().transpose() == m
        assert agrees(-m, naive_scale(-1, g), rows, cols)
        for c in (0, 3, F(-2, 3)):
            assert agrees(m.scale(c), naive_scale(c, g), rows, cols)
        vec = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
        assert list(m.apply(vec)) == naive_apply(g, vec)


def test_sums_match_the_oracles():
    for rng, rows, cols, density, g in cases(5):
        m = builds(g, rows, cols)[0]
        h = grid(rng, rows, cols, rng.choice(DENSITIES))
        n = builds(h, rows, cols)[0]
        assert agrees(m + n, naive_add(g, h), rows, cols)
        assert agrees(m - n, naive_sub(g, h), rows, cols)
        assert (m - m).is_zero() and m - m == Matrix.zero(rows, cols)
        assert m + (-m) == Matrix.zero(rows, cols)


def test_products_match_the_oracles():
    for rng, rows, cols, density, g in cases(6):
        m = builds(g, rows, cols)[0]
        for width in (0, 1, 4):
            h = grid(rng, cols, width, rng.choice(DENSITIES))
            n = builds(h, cols, width)[0]
            assert agrees(m @ n, naive_matmul(g, h, width), rows, width)
        if rows == cols:
            assert m @ Matrix.identity(rows) == m == Matrix.identity(rows) @ m


def test_kron_and_stacks_match_the_oracles():
    for rng, rows, cols, density, g in cases(7):
        m = builds(g, rows, cols)[0]
        r2, c2 = rng.choice(SHAPES)
        h = grid(rng, r2, c2, rng.choice(DENSITIES))
        n = builds(h, r2, c2)[0]
        assert agrees(kron(m, n), naive_kron(g, cols, h, c2), rows * r2, cols * c2)
        assert agrees(m.block_diag(n), naive_block_diag(g, cols, h, c2), rows + r2, cols + c2)
        side = grid(rng, rows, c2, density)
        joined = hstack([m, builds(side, rows, c2)[0]])
        assert agrees(joined, naive_hstack(g, side), rows, cols + c2)
        below = grid(rng, r2, cols, density)
        stacked = vstack([m, builds(below, r2, cols)[0]])
        assert agrees(stacked, g + below, rows + r2, cols)


def test_hsplit_inverts_hstack():
    for rng, rows, cols, density, g in cases(8):
        blocks = [builds(grid(rng, rows, cols, density), rows, cols)[0] for _ in range(3)]
        assert hsplit(hstack(blocks), 3) == blocks
    assert hsplit(Matrix.zero(2, 0), 0) == []
    with pytest.raises(UsageError):
        hsplit(Matrix.zero(2, 5), 2)
    with pytest.raises(UsageError):
        hsplit(Matrix.zero(2, 1), 0)


def test_rref_matches_the_dense_oracle_at_every_density():
    for rng, rows, cols, density, g in cases(9):
        m = builds(g, rows, cols)[0]
        reduced, pivots = rref(m)
        want, want_pivots = naive_rref(m)
        assert pivots == want_pivots
        assert agrees(reduced, dense(want), rows, cols)


def test_raw_constructor_refuses_floats():
    with pytest.raises(UsageError):
        Matrix(2, 2, (0.5, 0, 0, 1))
    with pytest.raises(UsageError):
        Matrix(1, 2, (0.0, 1))
    with pytest.raises(UsageError):
        Matrix.from_entries(1, 1, {(0, 0): 0.5})
    with pytest.raises(UsageError):
        Matrix.from_entries(1, 1, {(1, 0): 1})
    with pytest.raises(UsageError):
        Matrix(2, 2, (1, 2, 3))


def test_matrices_are_immutable():
    m = Matrix.identity(2)
    for name in ("rows", "cols", "entries"):
        with pytest.raises(AttributeError):
            setattr(m, name, 3)
    assert m == Matrix.identity(2)
    for m in (Matrix(2, 3, (1, 0, F(-2, 3), 0, 0, 7)), Matrix.zero(0, 4), Matrix.zero(3, 0)):
        copied = pickle.loads(pickle.dumps(m))
        assert copied == m and (copied.rows, copied.cols) == (m.rows, m.cols)


def test_int_entries_build_the_fraction_twin():
    ints = Matrix(2, 3, (1, 0, -2, 0, 0, 7))
    twin = Matrix(2, 3, (F(1), F(0), F(-2), ZERO, F(0), F(7)))
    assert ints == twin and hash(ints) == hash(twin)
    assert all(type(x) is Fraction for x in ints.entries)
    assert ints == Matrix.from_rows([["1", 0, "-2"], [0, F(0), "7"]])
    assert rref(ints)[0] == rref(twin)[0]
