"""Property tests of the exact elimination kernel against test-only oracles.

`rref` must equal the dense Fraction Gauss-Jordan elimination of
`helpers.naive_rref` as an exact (matrix, pivots) pair, and its rank must
equal the rank sympy computes over QQ.  A solve replayed from a kept
elimination record (`_replay` of `_elimination(m)`) must equal
`helpers.naive_solve`, the solution read off the dense elimination of
[m | b], bit for bit, and `solve`, which is that replay on a fresh record,
must equal it in value.  The generated matrices cover empty shapes, zero
and repeated rows, tall and wide shapes, large denominators and entries of
more than 4300 digits.

The pivot loop `linalg._echelon` takes the rows one at a time against the
reduced echelon of the rows taken so far.  `scan_echelon` below is the
loop it replaced, which takes the columns left to right and scans every
remaining row for each pivot; with it in place, every reading of the
record (`rref`, `rank`, `_kernel`, `_row_space`, `_replay` on a consistent
and an inconsistent right-hand side, `determinant_of`) must be the same,
stored form included, on the recipes and on tall rank-deficient, wide,
duplicated-row and (permuted) block-diagonal matrices.  The row loop's
work bound is pinned too: a row that takes no pivot is updated at most
once per nonzero of its own row.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from homlie import Matrix, adjoint_representation, fixtures, kernel_basis, linalg, rref, solve
from homlie.errors import UsageError
from homlie.linalg import _elimination, _kernel, _replay, _row_space, determinant_of, rank

from helpers import dense, naive_apply, naive_rref, naive_solve, vec_is_zero

ZERO = Fraction(0)
HUGE = 10 ** 4400  # 4401 digits, above the default int/str conversion limit

# Hypothesis prints the drawn arguments, and a Fraction of more than 4300
# digits has no repr under the default limit, so the strategies draw small
# recipes and `build` turns them into matrices.
small = st.tuples(st.just("q"), st.integers(-5, 5), st.integers(1, 6))
large_denominator = st.tuples(st.just("q"), st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 40))
huge = st.tuples(st.sampled_from(["huge numerator", "huge denominator"]),
                 st.sampled_from([-2, -1, 1, 3]), st.integers(-9, 9), st.integers(1, 9))
entries = st.one_of(st.just(("0",)), st.just(("0",)), small, small, large_denominator, huge)

shapes = st.one_of(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),  # includes 0 x n and n x 0
    st.tuples(st.integers(6, 10), st.integers(1, 3)),  # tall
    st.tuples(st.integers(1, 3), st.integers(6, 10)),  # wide
)


def entry(code) -> Fraction:
    kind = code[0]
    if kind == "0":
        return ZERO
    if kind == "q":
        return Fraction(code[1], code[2])
    k, j, d = code[1:]
    if kind == "huge numerator":
        return Fraction(k * HUGE + j, d)
    return Fraction(j, abs(k) * HUGE + d)


@st.composite
def recipes(draw):
    """(cols, rows): each row is a list of entry codes, "zero", or
    ("repeat", i, factor) for factor times an earlier drawn row."""
    count, cols = draw(shapes)
    rows = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(count)]
    for repeat, where, factor in draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, 20), st.sampled_from([1, -1, 2, "1/3"])),
            max_size=3)):
        at = where % (len(rows) + 1)
        if repeat and count:
            rows.insert(at, ("repeat", where % count, factor))
        else:
            rows.insert(at, "zero")
    return cols, rows


def build(recipe) -> Matrix:
    cols, rows = recipe
    drawn = [[entry(code) for code in row] for row in rows if isinstance(row, list)]
    fresh = iter(drawn)
    out = []
    for row in rows:
        if row == "zero":
            out.append([ZERO] * cols)
        elif isinstance(row, tuple):
            factor = Fraction(row[2])
            out.append([factor * x for x in drawn[row[1]]])
        else:
            out.append(next(fresh))
    return Matrix(len(out), cols, tuple(x for row in out for x in row))


def vector(codes) -> tuple:
    return tuple(entry(code) for code in codes)


EXAMPLES = (
    (3, []),  # 0 x 3
    (0, [[], [], []]),  # 3 x 0
    (2, [[("huge numerator", 1, 1, 7), ("huge denominator", 1, 1, 1)],
         ("repeat", 0, 2)]),
)


def with_examples(test):
    for recipe in EXAMPLES:
        test = example(recipe)(test)
    return test


@settings(deadline=None)
@with_examples
@given(recipes())
def test_rref_equals_dense_oracle(recipe):
    m = build(recipe)
    assert rref(m) == naive_rref(m)


@settings(deadline=None)
@with_examples
@given(recipes())
def test_kernel_basis_is_annihilated(recipe):
    m = build(recipe)
    basis = kernel_basis(m)
    assert len(basis) == m.cols - len(naive_rref(m)[1])
    for v in basis:
        assert vec_is_zero(naive_apply(dense(m), v))


@settings(max_examples=60, deadline=None)
@given(recipes(), st.data())
def test_solve_satisfies_its_system(recipe, data):
    m = build(recipe)
    x = vector(data.draw(st.lists(entries, min_size=m.cols, max_size=m.cols)))
    b = naive_apply(dense(m), x)
    found = solve(m, b)
    assert found is not None
    assert naive_apply(dense(m), found) == b
    # An arbitrary right-hand side is solvable exactly when it adds no rank.
    b = vector(data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows)))
    augmented = Matrix(m.rows, m.cols + 1, tuple(
        x for i in range(m.rows) for x in m.row(i) + (b[i],)))
    found = solve(m, b)
    assert (found is None) == (len(naive_rref(augmented)[1]) > len(naive_rref(m)[1]))
    if found is not None:
        assert naive_apply(dense(m), found) == b


@settings(deadline=None)
@with_examples
@given(recipes())
def test_rank_equals_sympy(recipe):
    m = build(recipe)
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    qq = sympy.QQ
    rows = [[qq(a.numerator, a.denominator) for a in m.row(i)] for i in range(m.rows)]
    assert rank(m) == DomainMatrix(rows, (m.rows, m.cols), qq).rank()


def stored(x):
    """A solution matrix down to the type of each stored entry, or None."""
    if x is None:
        return None
    return x.rows, x.cols, [[(j, type(v), v) for j, v in x.row_items(i)] for i in range(x.rows)]


def column(values) -> Matrix:
    return Matrix(len(values), 1, tuple(values))


@settings(max_examples=40, deadline=None)
@given(recipes(), st.data())
def test_a_replayed_solve_is_solve(recipe, data):
    m = build(recipe)
    record = _elimination(m)
    for _ in range(2):  # several solves against one record
        x = vector(data.draw(st.lists(entries, min_size=m.cols, max_size=m.cols)))
        consistent = column(naive_apply(dense(m), x))
        arbitrary = column(vector(data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows))))
        for b in (consistent, arbitrary):
            naive = naive_solve(m, b)
            assert stored(_replay(record, b)) == stored(naive)
            assert solve(m, b.col(0)) == (None if naive is None else naive.col(0))
    assert _replay(record, consistent) is not None


def test_a_replayed_solve_is_solve_on_inconsistent_and_rank_deficient_systems():
    m = Matrix.from_rows([[1, 2, 0], [0, 0, 0], [2, 4, 0], [0, Fraction(1, 3), 5]])
    record = _elimination(m)
    for b in ([1, 0, 2, 7], [1, 1, 2, 7], [1, 0, 3, 7], [0, 0, 0, 0],
              [Fraction(5, 7), 0, Fraction(10, 7), -1]):
        assert stored(_replay(record, column(b))) == stored(naive_solve(m, column(b)))
    assert _replay(record, column([1, 1, 2, 7])) is None  # nonzero on the zero row
    assert _replay(record, column([1, 0, 3, 7])) is None  # off the repeated row
    with pytest.raises(UsageError):
        _replay(record, column([1, 2, 3]))
    for recipe in EXAMPLES:  # empty shapes and entries of more than 4300 digits
        m = build(recipe)
        record = _elimination(m)
        for b in (column(naive_apply(dense(m), (Fraction(3, 2),) * m.cols)),
                  column((HUGE,) * m.rows)):
            assert stored(_replay(record, b)) == stored(naive_solve(m, b))


@pytest.mark.parametrize("name", ["d2", "compatible_h3", "twisted_compatible_h3"])
def test_a_kept_preimage_solve_is_solve_on_the_images(name):
    c = getattr(fixtures, name)()
    kept = adjoint_representation(c)._complex
    rng = random.Random(11)
    for n in (1, 2, 3):
        images = kept["images", n]
        for _ in range(4):
            x = column([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(images.cols)])
            arbitrary = column([Fraction(rng.randint(-1, 1)) for _ in range(images.rows)])
            for b in (images @ x, arbitrary):
                assert stored(_replay(kept["elimination", n], b)) == stored(naive_solve(images, b))


def scan_eliminate(row: dict, pivot_row: dict, c: int, steps: list, i: int, pivot: int) -> dict:
    """The new primitive integer row (p row - a pivot_row) / g, whose entry
    in column c is zero, for the content g; (i, pivot, p, a, g) is
    appended to `steps`."""
    a, p = row[c], pivot_row[c]
    g = gcd(a, p)
    a, p = a // g, p // g
    out = {j: p * x for j, x in row.items()}
    for j, x in pivot_row.items():
        value = out.get(j, 0) - a * x
        if value:
            out[j] = value
        else:
            out.pop(j, None)
    g = gcd(*out.values()) or 1
    if g != 1:
        out = {j: x // g for j, x in out.items()}
    steps.append((i, pivot, p, a, g))
    return out


def scan_echelon(rows: list, cols: int, steps: list) -> list:
    """The column-by-column pivot loop, a test-only reference for
    `linalg._echelon` with its signature: columns are taken left to right;
    the pivot of a column is the remaining row with the fewest nonzeros
    that has an entry there, the lowest row index on ties; forward
    elimination is followed by back-substitution, and a row that becomes
    zero vanishes."""
    echelon = []
    for c in range(cols):
        if not rows:
            break
        best = None
        for k, (_, row) in enumerate(rows):
            if c in row and (best is None or len(row) < len(rows[best][1])):
                best = k
        if best is None:
            continue
        pivot, pivot_row = rows.pop(best)
        rows = [(i, scan_eliminate(row, pivot_row, c, steps, i, pivot) if c in row else row)
                for i, row in rows]
        rows = [(i, row) for i, row in rows if row]
        echelon.append((c, pivot, pivot_row))
    for k in range(len(echelon) - 1, 0, -1):
        c, pivot, pivot_row = echelon[k]
        for e in range(k):
            ce, i, row = echelon[e]
            if c in row:
                echelon[e] = (ce, i, scan_eliminate(row, pivot_row, c, steps, i, pivot))
    return echelon


def readings(m: Matrix, rhs) -> list:
    """Everything read off the elimination record of m, in stored form:
    rref and its pivots, rank, kernel, row space, the replay on each
    one-column matrix of `rhs` and, for a square m, the determinant."""
    record = _elimination(m)
    reduced, pivots = rref(m)
    out = [stored(reduced), pivots, rank(m), stored(_kernel(record)), stored(_row_space(m))]
    out += [stored(_replay(record, b)) for b in rhs]
    if m.rows == m.cols:
        out.append(determinant_of(dense(m)))
    return out


def assert_reads_as_the_scan_loop(m: Matrix):
    x = column([Fraction(k % 5 - 2, k % 3 + 1) for k in range(m.cols)])
    rhs = [m @ x]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_echelon", scan_echelon)
        record = _elimination(m)
        # The first unit column off the column space, if m has one.
        units = (column([Fraction(int(k == i)) for k in range(m.rows)]) for i in range(m.rows))
        rhs += [b for b in units if _replay(record, b) is None][:1]
        expected = readings(m, rhs)
    assert len(rhs) == 1 + (len(record[3]) < m.rows)
    assert readings(m, rhs) == expected


fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
sparse_entries = st.one_of(st.just(ZERO), st.just(ZERO), fractions)


def dense_rows(count: int, cols: int):
    return st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols),
                    min_size=count, max_size=count)


@st.composite
def tall_rank_deficient(draw) -> Matrix:
    """At least three times as many rows as columns, each an integer
    combination of fewer rows than columns."""
    cols = draw(st.integers(1, 5))
    basis = draw(dense_rows(draw(st.integers(0, cols - 1)), cols))
    count = draw(st.integers(3 * cols, 3 * cols + 6))
    weights = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(basis),
                                     max_size=len(basis)), min_size=count, max_size=count))
    return Matrix.from_rows([[sum(w * row[j] for w, row in zip(ws, basis)) for j in range(cols)]
                             for ws in weights])


@st.composite
def wide(draw) -> Matrix:
    count = draw(st.integers(1, 4))
    cols = draw(st.integers(2 * count + 1, 12))
    return Matrix(count, cols, tuple(x for row in draw(dense_rows(count, cols)) for x in row))


@st.composite
def duplicated_and_zero_rows(draw) -> Matrix:
    """Rows that are multiples of a few drawn rows, or zero."""
    cols = draw(st.integers(1, 6))
    drawn = draw(dense_rows(draw(st.integers(1, 4)), cols))
    picks = draw(st.lists(st.one_of(st.just(None), st.tuples(
        st.integers(0, len(drawn) - 1), st.sampled_from([1, -1, 2, Fraction(1, 3)]))),
        min_size=2, max_size=10))
    return Matrix.from_rows([[ZERO] * cols if pick is None else [pick[1] * x for x in drawn[pick[0]]]
                             for pick in picks])


@st.composite
def block_diagonal(draw, permuted: bool) -> Matrix:
    """The block-diagonal matrix of one to four small drawn blocks, with its
    rows and its columns in a drawn order when `permuted`."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda shape: dense_rows(*shape)), min_size=1, max_size=4))
    rows, cols = sum(len(b) for b in blocks), sum(len(b[0]) for b in blocks)
    out, shift = [], 0
    for block in blocks:
        for row in block:
            out.append([ZERO] * shift + row + [ZERO] * (cols - shift - len(row)))
        shift += len(block[0])
    if permuted:
        order = draw(st.permutations(range(cols)))
        out = [[row[j] for j in order] for row in draw(st.permutations(out))]
    return Matrix.from_rows(out)


# A case is a recipe (built by `build`, since entries of more than 4300
# digits have no repr to print) or a small matrix drawn as it is.
cases = st.one_of(recipes(), tall_rank_deficient(), wide(), duplicated_and_zero_rows(),
                  block_diagonal(False), block_diagonal(True))


def matrix_of(case) -> Matrix:
    return case if isinstance(case, Matrix) else build(case)


@settings(deadline=None)
@with_examples
@given(cases)
def test_the_row_loop_reads_as_the_scan_loop(case):
    assert_reads_as_the_scan_loop(matrix_of(case))


@pytest.mark.parametrize("name", ["d2", "compatible_h3", "twisted_compatible_h3"])
def test_the_row_loop_reads_as_the_scan_loop_on_the_images(name):
    kept = adjoint_representation(getattr(fixtures, name)())._complex
    for n in (1, 2, 3):
        assert_reads_as_the_scan_loop(kept["images", n])


@settings(deadline=None)
@with_examples
@given(cases)
def test_a_row_that_takes_no_pivot_is_updated_at_most_once_per_nonzero(case):
    m = matrix_of(case)
    _, _, steps, echelon = _elimination(m)
    pivot_rows = {i for _, i, _ in echelon}
    for i in set(range(m.rows)) - pivot_rows:
        updates = [step for step in steps if step[0] == i and step[1] != i]  # not its scale
        assert len(updates) <= len(m.row_items(i))


def test_the_sparsest_rows_are_taken_first():
    # The dense row comes last, so it is reduced against the four unit rows
    # and vanishes; taken first, it would be the pivot row of column 0.
    m = Matrix.from_rows([[1, 1, 1, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    _, _, steps, echelon = _elimination(m)
    assert [i for _, i, _ in echelon] == [1, 2, 3, 4]
    assert [step[:2] for step in steps if step[0] != step[1]] == [(0, 1), (0, 2), (0, 3), (0, 4)]
