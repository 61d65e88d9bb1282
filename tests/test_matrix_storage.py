"""The sparse Matrix store against dense list-of-lists oracles.

Every operation, `kron_sum` and `product_sum` included, is checked on seeded random
matrices of density 0, 0.05, 0.5 and 1, in shapes that include 0 x n,
n x 0 and 0 x 0.  The dense inputs carry explicit zeros of every kind
(the int 0, a fresh Fraction(0) and the shared zero), and each matrix is
built four ways, which must all give one matrix with one hash.

A stored value is an int when it is integral and a Fraction with
denominator > 1 otherwise, after every operation; every public view and
result gives Fractions.
"""

import pickle
import random
from fractions import Fraction

import pytest

from homlie import (
    Matrix,
    UsageError,
    adjoint_representation,
    cohomology_dimensions,
    fixtures,
    frac,
    kernel_basis,
    rref,
    solve,
    verify_structure,
)
from homlie.linalg import (
    ZERO,
    _column_blocks,
    hstack,
    kron_sum,
    product_sum,
    vsplit,
    vstack,
)

from helpers import (
    dense,
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


def stored_form(x) -> bool:
    """A stored value is an int when integral, else a Fraction with
    denominator > 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


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
    non_integral = 0
    for rng, rows, cols, density, g in cases(3):
        m = builds(g, rows, cols)[0]
        assert (m.rows, m.cols) == (rows, cols)
        assert eval(repr(m), {"Matrix": Matrix, "Fraction": Fraction}) == m
        non_integral += any(x.denominator != 1 for x in m.entries)
        assert m.entries == tuple(x for row in g for x in row)
        assert dense(m) == g
        assert [list(m.col(j)) for j in range(cols)] == naive_transpose(g, cols)
        assert all(m.entry(i, j) == g[i][j] for i in range(rows) for j in range(cols))
        for i in range(rows):
            items = m.row_items(i)
            assert items == tuple((j, x) for j, x in enumerate(g[i]) if x != 0)
            assert all(stored_form(x) for _, x in items)
    assert non_integral


def test_unary_operations_match_the_oracles():
    for rng, rows, cols, density, g in cases(4):
        m = builds(g, rows, cols)[0]
        assert agrees(m.transpose(), naive_transpose(g, cols), cols, rows)
        assert m.transpose().transpose() == m
        assert agrees(-m, naive_scale(-1, g), rows, cols)
        for c in (0, 3, F(-2, 3)):
            assert agrees(m.scale(c), naive_scale(c, g), rows, cols)


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


def test_one_column_products_match_the_oracle():
    # A one-column right factor takes one dot product per left row.  Its
    # sums may cancel to zero or turn integral, and its rows may be empty.
    for rng, rows, cols, density, g in cases(14):
        m = builds(g, rows, cols)[0]
        for column_density in DENSITIES:
            h = grid(rng, cols, 1, column_density)
            product = m @ builds(h, cols, 1)[0]
            assert agrees(product, naive_matmul(g, h, 1), rows, 1) and canonical(product)
    left = Matrix(4, 3, (F(1, 2), F(1, 2), 0, F(1, 3), F(-1, 3), 0, 0, 0, 5, 2, 0, F(1, 2)))
    column = Matrix(3, 1, (2, 2, F(3, 5)))
    assert [(left @ column).row_items(i) for i in range(4)] == [((0, 2),), (), ((0, 3),),
                                                                ((0, F(43, 10)),)]
    assert type((left @ column).row_items(0)[0][1]) is int
    empty = Matrix(3, 1, (0, 7, 0))
    assert (left @ empty).entries == (F(7, 2), F(-7, 3), 0, 0)


def test_rows_with_one_entry_copy_or_scale_the_right_row():
    # A left row with one nonzero is the right row itself when that nonzero
    # is the int 1, and the right row scaled entry by entry otherwise.
    right = Matrix(3, 4, (F(1, 2), 0, 3, F(-2, 3), 0, 0, 0, 0, 2, F(1, 4), 0, 1))
    g = [list(right.row(i)) for i in range(3)]
    for one in (1, -1, -3, F(1, 2), F(3, 2), F(-6, 1)):
        for k in range(3):
            row = [F(0)] * 3
            row[k] = F(one)
            left = Matrix.from_rows([row, [0, 0, 0], row])
            product = left @ right
            assert agrees(product, naive_matmul([row, [F(0)] * 3, row], g, 4), 3, 4)
            assert canonical(product)
    three = Matrix.from_rows([[0, 0, F(4)], [F(6), 0, 0], [0, 0, F(-3, 2)]])
    assert [(three @ right).row_items(i) for i in range(3)] == [
        ((0, 8), (1, 1), (3, 4)), ((0, 3), (2, 18), (3, -4)), ((0, -3), (1, F(-3, 8)), (3, F(-3, 2)))]


def test_kron_and_stacks_match_the_oracles():
    for rng, rows, cols, density, g in cases(7):
        m = builds(g, rows, cols)[0]
        r2, c2 = rng.choice(SHAPES)
        h = grid(rng, r2, c2, rng.choice(DENSITIES))
        n = builds(h, r2, c2)[0]
        assert agrees(kron_sum([(m, n)], rows * r2, cols * c2), naive_kron(g, cols, h, c2),
                      rows * r2, cols * c2)
        assert agrees(m.block_diag(n), naive_block_diag(g, cols, h, c2), rows + r2, cols + c2)
        side = grid(rng, rows, c2, density)
        joined = hstack([m, builds(side, rows, c2)[0]])
        assert agrees(joined, naive_hstack(g, side), rows, cols + c2)
        below = grid(rng, r2, cols, density)
        stacked = vstack([m, builds(below, r2, cols)[0]])
        assert agrees(stacked, g + below, rows + r2, cols)


def naive_kron_sum(factors, rows: int, cols: int):
    """The sum of the naive Kronecker products of dense (a, a_cols, b,
    b_cols) factors, from a rows x cols zero."""
    out = [[F(0)] * cols for _ in range(rows)]
    for a, a_cols, b, b_cols in factors:
        out = naive_add(out, naive_kron(a, a_cols, b, b_cols))
    return out


def test_kron_sum_matches_the_sum_of_naive_krons():
    # Terms of one sum may factor its shape differently: p x q by r x s,
    # 1 x 1 by the whole shape, or the whole shape by 1 x 1.  Every other
    # case has integral factors, so that int entries are summed too.
    for case, (rng, rows, cols, density, g) in enumerate(cases(12)):
        r2, c2 = rng.choice(SHAPES)
        shape = (rows * r2, cols * c2)
        for count in (0, 1, 2, 4):
            terms, factors = [], []
            for _ in range(count):
                ar, ac, br, bc = rng.choice(((rows, cols, r2, c2), (1, 1, *shape), (*shape, 1, 1)))
                a = grid(rng, ar, ac, rng.choice(DENSITIES))
                b = grid(rng, br, bc, density)
                if case % 2:
                    a, b = ([[F(int(x)) for x in row] for row in h] for h in (a, b))
                terms.append((builds(a, ar, ac)[0], builds(b, br, bc)[0]))
                factors.append((a, ac, b, bc))
            total = kron_sum(terms, *shape)
            assert agrees(total, naive_kron_sum(factors, *shape), *shape)
            assert canonical(total)


def test_kron_sum_cancels_and_turns_integral():
    for rng, rows, cols, density, g in cases(13):
        m = builds(g, rows, cols)[0]
        n = builds(grid(rng, 2, 3, density), 2, 3)[0]
        shape = (rows * 2, cols * 3)
        cancelled = kron_sum([(m, n), (-m, n), (m, -n), (m, n)], *shape)
        assert cancelled.is_zero() and cancelled == Matrix.zero(*shape)
        half = m.scale(F(1, 2))
        doubled = kron_sum([(half, n), (half, n)], *shape)
        assert doubled == kron_sum([(m, n)], *shape) and canonical(doubled)
    half, two = Matrix(1, 2, (F(1, 2), F(1, 3))), Matrix(1, 1, (3,))
    total = kron_sum([(half, two), (Matrix(1, 2, (F(1, 2), F(2, 3))), two)], 1, 2)
    assert [x for _, x in total.row_items(0)] == [3, 3]
    assert all(type(x) is int for _, x in total.row_items(0))
    a = [[F(1, 2), F(0), F(3, 2)], [F(1), F(-2, 3), F(0)]]
    b = [[F(2), F(4, 3)], [F(0), F(3, 2)], [F(-6), F(0)]]
    single = kron_sum([(Matrix.from_rows(a), Matrix.from_rows(b))], 6, 6)
    assert agrees(single, naive_kron(a, 3, b, 2), 6, 6) and canonical(single)
    assert single.row_items(0) == ((0, 1), (1, F(2, 3)), (4, 3), (5, 2))


def test_kron_sum_refuses_a_term_of_another_shape():
    a, b = Matrix.zero(2, 3), Matrix.zero(3, 2)
    assert kron_sum([(a, b)], 6, 6) == Matrix.zero(6, 6)
    assert kron_sum([], 0, 4) == Matrix.zero(0, 4)
    for terms, shape in (([(a, b)], (6, 5)), ([(a, b), (a, a)], (6, 6)),
                         ([(a, b), (Matrix.zero(1, 1), Matrix.zero(6, 5))], (6, 6))):
        with pytest.raises(UsageError):
            kron_sum(terms, *shape)


def test_product_sum_matches_the_sum_of_naive_products():
    """Sums of zero to three products a @ b against naive_matmul summed
    with naive_add from a zero, with right factors of zero, one and four
    columns; the first left factor is the case's own matrix, the others
    have inner widths of their own.  One term is `==` a @ b."""
    for rng, rows, cols, density, g in cases(18):
        for width in (0, 1, 4):
            terms, want = [], [[F(0)] * width for _ in range(rows)]
            for count in range(rng.randint(0, 3)):
                inner = cols if count == 0 else rng.randint(0, 5)
                a = g if count == 0 else grid(rng, rows, inner, rng.choice(DENSITIES))
                b = grid(rng, inner, width, rng.choice(DENSITIES))
                terms.append((builds(a, rows, inner)[0], builds(b, inner, width)[0]))
                want = naive_add(want, naive_matmul(a, b, width))
            total = product_sum(terms, rows, width)
            assert agrees(total, want, rows, width) and canonical(total)
            if len(terms) == 1:
                (a, b), = terms
                assert total == a @ b
                assert [total.row_items(i) for i in range(rows)] == \
                    [(a @ b).row_items(i) for i in range(rows)]


def test_product_sum_cancels_and_turns_integral():
    for rng, rows, cols, density, g in cases(19):
        m = builds(g, rows, cols)[0]
        n = builds(grid(rng, cols, 3, density), cols, 3)[0]
        cancelled = product_sum([(m, n), (-m, n), (m, -n), (m, n)], rows, 3)
        assert cancelled.is_zero() and cancelled == Matrix.zero(rows, 3)
        half = m.scale(F(1, 2))
        doubled = product_sum([(half, n), (half, n)], rows, 3)
        assert doubled == m @ n and canonical(doubled)
    thirds = Matrix(1, 2, (F(1, 3), F(2, 3)))
    total = product_sum([(thirds, Matrix(2, 2, (3, F(1, 2), 0, F(1, 2)))),
                         (Matrix(1, 1, (F(1, 2),)), Matrix(1, 2, (4, 1)))], 1, 2)
    assert total.row_items(0) == ((0, 3), (1, 1))
    assert all(type(x) is int for _, x in total.row_items(0))
    assert product_sum([], 2, 3) == Matrix.zero(2, 3)
    assert product_sum([], 0, 0) == Matrix.zero(0, 0)


def test_product_sum_refuses_a_term_of_another_shape():
    a, b = Matrix.zero(2, 3), Matrix.zero(3, 4)
    for terms, shape, message in (
            ([(a, b)], (2, 5), "product of 2x3 and 3x4 is not 2x5"),
            ([(a, b)], (3, 4), "product of 2x3 and 3x4 is not 3x4"),
            ([(a, b), (a, Matrix.zero(2, 4))], (2, 4), "product of 2x3 and 2x4 is not 2x4")):
        with pytest.raises(UsageError) as err:
            product_sum(terms, *shape)
        assert str(err.value) == message


def test_vsplit_inverts_vstack():
    for rng, rows, cols, density, g in cases(20):
        blocks = [builds(grid(rng, rows, cols, density), rows, cols)[0] for _ in range(3)]
        assert vsplit(vstack(blocks), 3) == blocks
    for m, count in ((Matrix.zero(5, 2), 2), (Matrix.zero(2, 1), 0)):
        with pytest.raises(UsageError):
            vsplit(m, count)


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
    for name in ("rows", "cols", "_data", "entries"):
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


def canonical(m: Matrix) -> bool:
    return all(stored_form(x) for i in range(m.rows) for _, x in m.row_items(i))


def test_every_operation_stores_the_canonical_form():
    for rng, rows, cols, density, g in cases(10):
        m = builds(g, rows, cols)[0]
        r2, c2 = rng.choice(SHAPES)
        other = builds(grid(rng, r2, c2, density), r2, c2)[0]
        same = builds(grid(rng, rows, cols, density), rows, cols)[0]
        right = builds(grid(rng, cols, 3, density), cols, 3)[0]
        column = builds(grid(rng, cols, 1, density), cols, 1)[0]
        results = [m @ right, m @ column, kron_sum([(m, other)], rows * r2, cols * c2),
                   product_sum([(m, right), (m.scale(F(1, 2)), right)], rows, 3),
                   m + same, m - same, -m, m.transpose(),
                   m.scale(2), m.scale(F(3, 2)), m.block_diag(other), vstack([m, m]),
                   hstack([m, m]),
                   *[b for b, in _column_blocks(m, 1, rows, 1)], m.reshape(cols, rows),
                   rref(m)[0], *builds(g, rows, cols)]
        assert all(canonical(r) for r in results)


def test_results_that_turn_integral_are_stored_as_ints():
    half, third = Matrix(1, 2, (F(1, 2), F(1, 3))), Matrix(1, 2, (2, F(2, 3)))
    results = {
        "product": Matrix(1, 1, (F(1, 2),)) @ Matrix(1, 1, (2,)),
        "kron": kron_sum([(Matrix(1, 1, (F(1, 2),)), Matrix(1, 1, (2,)))], 1, 1),
        "scale": Matrix(1, 2, (F(1, 2), F(-3, 2))).scale(2),
        "sum": Matrix(1, 1, (F(1, 3),)) + Matrix(1, 1, (F(2, 3),)),
        "difference": Matrix(1, 1, (F(4, 3),)) - Matrix(1, 1, (F(1, 3),)),
        "entries": Matrix.from_entries(1, 2, {(0, 0): F(6, 3), (0, 1): "4/2"}),
        "rref": rref(Matrix(1, 2, (F(1, 2), 1)))[0],
    }
    for name, m in results.items():
        assert canonical(m), name
        assert all(type(x) is int for _, x in m.row_items(0)), name
    mixed = half + third
    assert [x for _, x in mixed.row_items(0)] == [F(5, 2), 1]
    assert canonical(mixed) and type(mixed.row_items(0)[1][1]) is int


def test_int_and_fraction_twins_are_one_matrix():
    for rng, rows, cols, density, g in cases(11):
        as_fractions = [[F(x) for x in row] for row in g]
        as_ints = [[int(x) if x.denominator == 1 else x for x in row] for row in as_fractions]
        for a, b in zip(builds(as_fractions, rows, cols), builds(as_ints, rows, cols)):
            assert a == b and hash(a) == hash(b)
            assert [a.row_items(i) for i in range(rows)] == [b.row_items(i) for i in range(rows)]


def test_public_views_and_results_give_fractions():
    def fractions(values):
        values = list(values)
        return all(type(x) is Fraction for x in values)

    for rng, rows, cols, density, g in cases(12):
        m = builds(g, rows, cols)[0]
        assert fractions(m.entries)
        assert all(fractions(m.row(i)) for i in range(rows))
        assert all(fractions(m.col(j)) for j in range(cols))
        assert fractions(m.entry(i, j) for i in range(rows) for j in range(cols))
        assert all(fractions(v) for v in kernel_basis(m))
        x = solve(m, naive_apply(g, [F(1)] * cols))
        assert x is not None and fractions(x)
        assert fractions(m.__reduce__()[1][2])
    # CheckResult defects, cochains and report bases
    report = verify_structure(fixtures.g4a(1))
    assert not report.passed
    assert all(fractions(vec) for check in report.failures() for _, vec in check.witnesses)
    c = fixtures.compatible_h3()
    h2 = cohomology_dimensions(c, adjoint_representation(c), 2)
    items = h2.cocycle_basis + h2.coboundary_basis + h2.cohomology_basis
    assert items and all(fractions(f.flatten()) for f in items)
    assert all(fractions(comp.coeffs.entries) for f in items for comp in f.components)


def test_bools_and_unreadable_strings_are_refused():
    for bad in (True, False, "x", "1/0", "", "1.5.2"):
        with pytest.raises(UsageError):
            frac(bad)
        with pytest.raises(UsageError):
            Matrix(1, 1, (bad,))
        with pytest.raises(UsageError):
            Matrix.from_entries(1, 1, {(0, 0): bad})
    assert frac("-3/6") == F(-1, 2) and frac(4) == 4 and type(frac(4)) is Fraction


def test_reshape_keeps_the_row_major_entries():
    for rng, rows, cols, density, g in cases(13):
        m = builds(g, rows, cols)[0]
        for shape in ((rows * cols, 1), (1, rows * cols), (cols, rows)):
            assert m.reshape(*shape).entries == m.entries
            assert m.reshape(*shape).reshape(rows, cols) == m
    with pytest.raises(UsageError):
        Matrix.zero(2, 3).reshape(4, 2)


def test_column_blocks_invert_stacking_the_flat_blocks():
    """Each column of a matrix whose columns stack the row-major entries of
    `count` blocks comes back as those blocks, in canonical form."""
    for rng, rows, cols, density, g in cases(17):
        count = rng.randint(1, 3)
        columns = [[builds(grid(rng, rows, cols, density), rows, cols)[0] for _ in range(count)]
                   for _ in range(rng.randint(0, 3))]
        flat = hstack([Matrix.zero(count * rows * cols, 0)] + [
            vstack([b.reshape(rows * cols, 1) for b in blocks]) for blocks in columns])
        cut = _column_blocks(flat, count, rows, cols)
        assert cut == columns
        assert all(canonical(b) for blocks in cut for b in blocks)
    assert _column_blocks(Matrix.zero(0, 2), 3, 4, 0) == [[Matrix.zero(4, 0)] * 3] * 2
    with pytest.raises(UsageError):
        _column_blocks(Matrix.zero(5, 1), 2, 1, 2)
