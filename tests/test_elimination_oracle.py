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
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from homlie import Matrix, adjoint_representation, fixtures, kernel_basis, rref, solve
from homlie.errors import UsageError
from homlie.linalg import _elimination, _replay, rank

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
