"""Exact linear algebra over the rationals.

A `Matrix` is immutable, exact and sparse: each row is stored as its
(column, value) pairs in column order, and no stored value is zero.  A
stored value is a Python `int` when it is integral and a
`fractions.Fraction` only when its denominator is greater than 1, so a
product of integral entries makes no Fraction.  That form is canonical,
and since `Fraction(n) == n` with equal hashes, `==` and `hash` mean
equality of the dense matrices.  Products, sums, Kronecker products,
stacks, transposes and elimination read and write nonzeros only, so their
cost follows the nonzeros, not rows x cols.  A product takes one of three
routes: with a one-column right factor, one dot product per left row
against that column; a left row with one nonzero is the right row itself
when the nonzero is the int 1, and that row scaled entry by entry
otherwise, with no accumulator; any other left row sums its scaled right
rows in one accumulator (`_row`).  `kron_sum` builds a sum of
Kronecker products, the shape of every coboundary and constraint matrix
of the library, in one pass, with no intermediate matrix per term; one
Kronecker product is the sum of one term.
`Matrix(rows, cols, entries)` takes the dense row-major entries and
coerces each one like `frac`; `entries`, `row`, `col` and `entry` are
dense views that give Fractions, for the public API, documents and
rendering, and so do `kernel_basis` and `solve`.  Only this module
tells a zero entry from a nonzero one: other modules build sparse
matrices with `Matrix.from_entries` and read the stored nonzeros of a row
with `row_items`; `_column_blocks` cuts each column of flat coordinates
into its row-major blocks in one pass, for the cochain code.

Elimination is fraction-free and takes one route: `_elimination` runs the
pivot loop (`_echelon`) on sparse integer rows (denominators cleared,
content gcd divided out after every update) and records its row steps and
echelon rows; a Fraction appears again only where a result is not
integral.  `rref`, `rank`, `_kernel`, `_row_space`, `_replay` (a solve)
and `determinant_of` all read that record, so a kept record gives the
kernel and solves again without eliminating m again.  No module of the
library calls `determinant_of`: its minors are wedges of columns (see
`cochains`).  The reduced row echelon form is unique, so `rref`,
`kernel_basis` and `solve` return the same output bit for bit whichever
rows supply the pivots, which the cohomology computations rely on.
`_kernel` and `_row_space` give the same results as matrices in the
stored form, for the cohomology code to keep cochains sparse.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod

from .errors import ContractError, UsageError

ZERO = Fraction(0)


def frac(value) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to a Fraction.  Floats, bools
    and strings that are no rational are refused with UsageError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"not an exact rational: {value[:80]!r}") from None
    raise UsageError(f"not an exact rational: {value!r} ({type(value).__name__})")


def _stored(value):
    """The stored form of an exact rational: the int when it is integral,
    else the Fraction.  Coerces and refuses like `frac`."""
    if type(value) is int:
        return value
    value = frac(value)
    return value.numerator if value.denominator == 1 else value


def _public(value) -> Fraction:
    """A stored value as the Fraction that the dense views give out."""
    return Fraction(value) if type(value) is int else value


def vector(values) -> tuple:
    return tuple(frac(v) for v in values)


def zero_vector(n: int) -> tuple:
    return (ZERO,) * n


def _pairs(values) -> tuple:
    """The nonzero entries of a dense row as (column, stored value) pairs."""
    out = []
    for j, x in enumerate(values):
        if x is not ZERO:
            x = _stored(x)
            if x:
                out.append((j, x))
    return tuple(out)


def _row(acc: dict) -> tuple:
    """The canonical sparse row of {column: sum}: zeros dropped, integral
    sums stored as ints, columns in order.  The sort stays even where the
    columns arrived in order: on sorted keys it is one pass in C, cheaper
    than any test of the order in Python."""
    out = []
    for j in sorted(acc):
        x = acc[j]
        if x:
            if type(x) is not int and x.denominator == 1:
                x = x.numerator
            out.append((j, x))
    return tuple(out)


def _combine(a: tuple, b: tuple, negate: bool) -> tuple:
    """The sparse row a + b, or a - b when negate."""
    if not b:
        return a
    if not a:
        return tuple((j, -x) for j, x in b) if negate else b
    acc = dict(a)
    for j, x in b:
        if j in acc:
            acc[j] = acc[j] - x if negate else acc[j] + x
        else:
            acc[j] = -x if negate else x
    return _row(acc)


class Matrix:
    """Immutable sparse matrix: row i is the tuple of its nonzero
    (column, value) pairs, in column order, each value an int when it is
    integral and a Fraction otherwise."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise UsageError(f"entry count {len(entries)} != {rows}x{cols}")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_data(self, tuple(_pairs(entries[i * cols : (i + 1) * cols]) for i in range(rows)))

    @classmethod
    def _of(cls, rows: int, cols: int, data: tuple) -> "Matrix":
        """The matrix with the given canonical sparse rows, unchecked."""
        m = _new(cls)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_data(m, data)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return Matrix, (self.rows, self.cols, self.entries)

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise UsageError("ragged rows")
        return cls._of(len(rows), ncols, tuple(_pairs(r) for r in rows))

    @classmethod
    def from_columns(cls, columns, rows: int) -> "Matrix":
        if any(len(c) != rows for c in columns):
            raise UsageError("column length mismatch")
        data = [[] for _ in range(rows)]
        for j, column in enumerate(columns):
            for i, x in _pairs(column):
                data[i].append((j, x))
        return cls._of(rows, len(columns), tuple(map(tuple, data)))

    @classmethod
    def from_entries(cls, rows: int, cols: int, values: dict) -> "Matrix":
        """The rows x cols matrix with the given {(i, j): value} entries and
        zeros elsewhere."""
        data = [[] for _ in range(rows)]
        for (i, j), x in values.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise UsageError(f"entry ({i}, {j}) outside {rows}x{cols}")
            x = _stored(x)
            if x:
                data[i].append((j, x))
        return cls._of(rows, cols, tuple(tuple(sorted(r)) for r in data))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, tuple(((i, 1),) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, ((),) * rows)

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        vals = vector(values)
        return cls.from_entries(len(vals), len(vals), {(i, i): x for i, x in enumerate(vals)})

    @property
    def entries(self) -> tuple:
        """The dense row-major entries."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def row_items(self, i: int) -> tuple:
        """The nonzero entries of row i as (column, stored value) pairs, in
        column order: ints where integral, Fractions otherwise."""
        return self._data[i]

    def entry(self, i: int, j: int) -> Fraction:
        row = self._data[i]
        k = bisect_left(row, (j,))
        return _public(row[k][1]) if k < len(row) and row[k][0] == j else ZERO

    def row(self, i: int) -> tuple:
        out = [ZERO] * self.cols
        for j, x in self._data[i]:
            out[j] = _public(x)
        return tuple(out)

    def col(self, j: int) -> tuple:
        return tuple(self.entry(i, j) for i in range(self.rows))

    def transpose(self) -> "Matrix":
        data = [[] for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, x in row:
                data[j].append((i, x))
        return Matrix._of(self.cols, self.rows, tuple(map(tuple, data)))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self._data) == (other.rows, other.cols, other._data)

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self):
        return f"Matrix({self.rows}, {self.cols}, {self.entries!r})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._of(self.rows, self.cols,
                          tuple(_combine(a, b, False) for a, b in zip(self._data, other._data)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._of(self.rows, self.cols,
                          tuple(_combine(a, b, True) for a, b in zip(self._data, other._data)))

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.rows, self.cols,
                          tuple(tuple((j, -x) for j, x in row) for row in self._data))

    def scale(self, c) -> "Matrix":
        c = _stored(c)
        if not c:
            return Matrix.zero(self.rows, self.cols)
        return Matrix._of(self.rows, self.cols,
                          tuple(tuple((j, _stored(c * x)) for j, x in row) for row in self._data))

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The rows x cols matrix with the same row-major entries."""
        if rows < 0 or cols < 0 or rows * cols != self.rows * self.cols:
            raise UsageError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        data = [[] for _ in range(rows)]
        for i, row in enumerate(self._data):
            for j, x in row:
                r, c = divmod(i * self.cols + j, cols)
                data[r].append((c, x))
        return Matrix._of(rows, cols, tuple(map(tuple, data)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise UsageError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = other._data
        out = []
        if other.cols == 1:
            column = [pairs[0][1] if pairs else None for pairs in right]
            for row in self._data:
                s = 0
                for k, a in row:
                    x = column[k]
                    if x is not None:
                        s += a * x
                if not s:
                    out.append(())
                elif type(s) is int or s.denominator != 1:
                    out.append(((0, s),))
                else:
                    out.append(((0, s.numerator),))
            return Matrix._of(self.rows, 1, tuple(out))
        for row in self._data:
            if len(row) == 1:
                (k, a), = row
                if type(a) is int and a == 1:
                    out.append(right[k])
                    continue
                scaled = []
                for j, x in right[k]:
                    x = a * x
                    scaled.append((j, x if type(x) is int or x.denominator != 1 else x.numerator))
                out.append(tuple(scaled))
                continue
            acc = {}
            for k, a in row:
                if type(a) is int and a == 1:
                    for j, x in right[k]:
                        acc[j] = acc[j] + x if j in acc else x
                else:
                    for j, x in right[k]:
                        x = a * x
                        acc[j] = acc[j] + x if j in acc else x
            out.append(_row(acc))
        return Matrix._of(self.rows, other.cols, tuple(out))

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise UsageError("power of a non-square matrix")
        if k < 0:
            raise UsageError("negative matrix power")
        if k == 0:
            return Matrix.identity(self.rows)
        result = self
        for _ in range(k - 1):
            result = result @ self
        return result

    def block_diag(self, other: "Matrix") -> "Matrix":
        shift = self.cols
        lower = tuple(tuple((j + shift, x) for j, x in row) for row in other._data)
        return Matrix._of(self.rows + other.rows, self.cols + other.cols, self._data + lower)

    def is_zero(self) -> bool:
        return not any(self._data)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise UsageError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


# The fields of a new matrix are set through the slot descriptors, past the
# guard that keeps it immutable.
_new = object.__new__
_set_rows = Matrix.rows.__set__
_set_cols = Matrix.cols.__set__
_set_data = Matrix._data.__set__


def vstack(matrices) -> Matrix:
    matrices = list(matrices)
    if not matrices:
        raise UsageError("vstack of nothing")
    cols = matrices[0].cols
    if any(m.cols != cols for m in matrices):
        raise UsageError("vstack column mismatch")
    return Matrix._of(sum(m.rows for m in matrices), cols,
                      tuple(row for m in matrices for row in m._data))


def hstack(matrices) -> Matrix:
    matrices = list(matrices)
    if not matrices:
        raise UsageError("hstack of nothing")
    rows = matrices[0].rows
    if any(m.rows != rows for m in matrices):
        raise UsageError("hstack row mismatch")
    shifts = [0, *accumulate(m.cols for m in matrices)]
    data = tuple(
        tuple((j + shift, x) for m, shift in zip(matrices, shifts) for j, x in m._data[i])
        for i in range(rows)
    )
    return Matrix._of(rows, shifts[-1], data)


def hsplit(m: Matrix, count: int) -> list:
    """m cut into `count` blocks of equal width, left to right: the inverse
    of hstack."""
    if count < 0 or (m.cols % count if count else m.cols):
        raise UsageError(f"cannot split {m.cols} columns into {count} equal blocks")
    width, columns = m.cols // max(count, 1), m.transpose()._data
    return [Matrix._of(width, m.rows, columns[b * width : (b + 1) * width]).transpose()
            for b in range(count)]


def _column_blocks(m: Matrix, count: int, rows: int, cols: int) -> list:
    """Each column of m cut into `count` rows x cols matrices, top to
    bottom, each read off its row-major entries: the inverse of stacking
    the row-major entries of the blocks as one column.  One pass over the
    nonzeros of each column, with divmod into (block, row, column)."""
    size = rows * cols
    if m.rows != count * size:
        raise UsageError(f"cannot cut {m.rows} rows into {count} blocks of {rows}x{cols}")
    out = []
    for column in m.transpose()._data:
        blocks = [[[] for _ in range(rows)] for _ in range(count)]
        for i, x in column:
            b, entry = divmod(i, size)
            r, c = divmod(entry, cols)
            blocks[b][r].append((c, x))
        out.append([Matrix._of(rows, cols, tuple(map(tuple, block))) for block in blocks])
    return out


def kron_sum(terms, rows: int, cols: int) -> Matrix:
    """The rows x cols sum of the Kronecker products of the (a, b) pairs of
    `terms` (block (l, i) of one is a[l, i] b), built in one pass over the
    factors' nonzeros: each row of the sum gathers row l of every a times
    row k of its b (with l b.rows + k the row) in one accumulator.  An
    entry of an a that is the int 1 costs no product."""
    terms = tuple(terms)
    for a, b in terms:
        if (a.rows * b.rows, a.cols * b.cols) != (rows, cols):
            raise UsageError(f"kron of {a.rows}x{a.cols} and {b.rows}x{b.cols} "
                             f"is not {rows}x{cols}")
    data = []
    for r in range(rows):
        acc = {}
        for a, b in terms:
            l, k = divmod(r, b.rows)
            brow = b._data[k]
            if not brow:
                continue
            for i, c in a._data[l]:
                shift = i * b.cols
                if type(c) is int and c == 1:
                    for j, x in brow:
                        j += shift
                        acc[j] = acc[j] + x if j in acc else x
                else:
                    for j, x in brow:
                        x = c * x
                        j += shift
                        acc[j] = acc[j] + x if j in acc else x
        data.append(_row(acc))
    return Matrix._of(rows, cols, tuple(data))


def _eliminate(row: dict, pivot_row: dict, c: int, steps: list, i: int, pivot: int) -> dict:
    """The primitive integer row (p row - a pivot_row) / g, whose entry in
    column c is zero, for the content g; (i, pivot, p, a, g) is appended
    to `steps`."""
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


def _echelon(rows: list, cols: int, steps: list) -> list:
    """The one pivot loop of elimination, on (row index, primitive integer
    row) pairs: the (pivot column, row index, row) of each reduced row, in
    column order.  Columns are taken left to right; the pivot of a column
    is the remaining row with the fewest nonzeros that has an entry there,
    the lowest row index on ties.  Forward elimination is followed by
    back-substitution, and a row that becomes zero vanishes.  Each update
    of `_eliminate` is appended to `steps`."""
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
        rows = [(i, _eliminate(row, pivot_row, c, steps, i, pivot) if c in row else row)
                for i, row in rows]
        rows = [(i, row) for i, row in rows if row]
        echelon.append((c, pivot, pivot_row))
    for k in range(len(echelon) - 1, 0, -1):
        c, pivot, pivot_row = echelon[k]
        for e in range(k):
            ce, i, row = echelon[e]
            if c in row:
                echelon[e] = (ce, i, _eliminate(row, pivot_row, c, steps, i, pivot))
    return echelon


def _elimination(m: Matrix) -> tuple:
    """The record of the one elimination of m: (rows, cols, steps, echelon).
    The steps (i, pivot, p, a, g) set row i to (p row_i - a row_pivot) / g,
    first the scale (i, i, den, 0, g) of each nonzero row by the lcm den of
    its denominators to a primitive integer row of content g; the echelon
    is the (pivot column, row index, integer row) of each reduced row of
    `_echelon`, in column order.  A row that is no pivot row vanished."""
    rows, steps = [], []
    for i, pairs in enumerate(m._data):
        if pairs:
            den = lcm(*(a.denominator for _, a in pairs))
            row = {j: a.numerator * (den // a.denominator) for j, a in pairs}
            g = gcd(*row.values())
            rows.append((i, row if g == 1 else {j: a // g for j, a in row.items()}))
            steps.append((i, i, den, 0, g))
    echelon = _echelon(rows, m.cols, steps)
    return m.rows, m.cols, tuple(steps), tuple(echelon)


def _reduced(c: int, row: dict) -> tuple:
    """An echelon row with pivot column c divided by its pivot, as a sparse
    row in the stored form: an int where the pivot divides the entry, else
    one Fraction.  It is a row of the RREF."""
    p = row[c]
    return tuple((j, Fraction(x, p) if x % p else x // p) for j, x in sorted(row.items()))


def rref(m: Matrix):
    """Reduced row echelon form and pivot columns.

    The echelon rows of `_elimination(m)`, fraction-free on sparse integer
    rows, each divided by its pivot (`_reduced`), above the zero rows.  The
    RREF is unique, so the result does not depend on the pivot rows chosen.
    """
    rows, cols, _, echelon = _elimination(m)
    data = tuple(_reduced(c, row) for c, _, row in echelon) + ((),) * (rows - len(echelon))
    return Matrix._of(rows, cols, data), tuple(c for c, _, _ in echelon)


def rank(m: Matrix) -> int:
    """The number of pivots in the record of `_elimination(m)`, read with
    no division by the pivots."""
    return len(_elimination(m)[3])


def _kernel(record: tuple) -> Matrix:
    """The right null space of the matrix m of an `_elimination` record as
    the columns of one matrix, one column per free column of m in column
    order: 1 at its free column and minus that column of the RREF at the
    pivot columns, so that m @ K = 0 and K has cols - rank columns."""
    _, cols, _, echelon = record
    free = {c: k for k, c in enumerate(sorted(set(range(cols)) - {c for c, _, _ in echelon}))}
    data = [((free[c], 1),) if c in free else () for c in range(cols)]
    for c, _, row in echelon:
        data[c] = tuple((free[j], -x) for j, x in _reduced(c, row) if j in free)
    return Matrix._of(cols, len(free), tuple(data))


def kernel_basis(m: Matrix):
    """Basis of the right null space, one vector per free column, in column order.

    Each returned vector v satisfies m @ v = 0 exactly; the basis size is
    cols - rank.  The vectors are the columns of `_kernel(_elimination(m))`.
    """
    vectors = _kernel(_elimination(m)).transpose()
    return [vectors.row(k) for k in range(vectors.rows)]


def solve(m: Matrix, b) -> tuple | None:
    """One exact solution of m @ x = b, or None when the system is
    inconsistent: the elimination of m (`_elimination`) replayed on b
    (`_replay`)."""
    if len(b) != m.rows:
        raise UsageError(f"rhs length {len(b)} != rows {m.rows}")
    x = _replay(_elimination(m), Matrix.from_columns([vector(b)], m.rows))
    return None if x is None else x.col(0)


def _replay(record: tuple, b: Matrix) -> Matrix | None:
    """One exact solution of m @ x = b from the record of `_elimination(m)`,
    its steps run on the column b alone: None when a row that took no pivot
    keeps a nonzero entry, else the solution read off the RREF of [m | b],
    zero at the free columns, which is unique whichever rows supplied the
    pivots."""
    rows, cols, steps, echelon = record
    if (b.rows, b.cols) != (rows, 1):
        raise UsageError(f"rhs is {b.rows}x{b.cols}, not {rows}x1")
    value = [pairs[0][1] if pairs else 0 for pairs in b._data]
    for i, pivot, p, a, g in steps:
        x = p * value[i] - a * value[pivot]
        value[i] = x if g == 1 else x // g if type(x) is int and not x % g else Fraction(x, g)
    data = [()] * cols
    for c, i, row in echelon:
        if value[i]:
            data[c] = ((0, _stored(Fraction(value[i], row[c]))),)
            value[i] = 0
    if any(value):  # what is left sits on the rows that vanished
        return None
    return Matrix._of(cols, 1, tuple(data))


def span_rank(vectors) -> int:
    return rank(Matrix.from_rows(vectors))


def _row_space(m: Matrix) -> Matrix:
    """The nonzero rows of rref(m): the canonical basis of m's row space."""
    _, cols, _, echelon = _elimination(m)
    return Matrix._of(len(echelon), cols, tuple(_reduced(c, row) for c, _, row in echelon))


def quotient_dimension(span_big, span_small) -> int:
    """dim span_big - dim span_small, after asserting span_small lies inside span_big.

    A containment violation raises ContractError: in the cohomology pipeline
    it means a coboundary escaped the cocycle space, i.e. an upstream bug.
    """
    big = list(span_big)
    small = list(span_small)
    lengths = {len(v) for v in big} | {len(v) for v in small}
    if len(lengths) > 1:
        raise UsageError("mixed vector lengths")
    rank_big = span_rank(big)
    if small:
        if span_rank(big + small) != rank_big:
            raise ContractError("small span is not contained in big span")
    return rank_big - span_rank(small)


def determinant_of(rows) -> Fraction:
    """Determinant of a square matrix given as nested rows of exact
    rationals, read off the record of `_elimination`: each step
    (i, pivot, p, a, g) scales row i by p/g, and back-substitution leaves
    one entry, its pivot, in each row of a matrix of full rank.  So det =
    sign(pi) prod(pivots) / prod(p/g), for the pivot rows pi in column
    order; with fewer pivots than rows it is 0.  A non-square or ragged
    input raises UsageError."""
    m = Matrix.from_rows(rows)
    if not m.is_square():
        raise UsageError(f"determinant of a non-square {m.rows}x{m.cols} matrix")
    n, _, steps, echelon = _elimination(m)
    if len(echelon) < n:
        return ZERO
    order = [i for _, i, _ in echelon]
    sign = (-1) ** sum(a > b for k, a in enumerate(order) for b in order[k + 1 :])
    num = sign * prod(row[c] for c, _, row in echelon) * prod(g for *_, g in steps)
    return Fraction(num, prod(p for _, _, p, _, _ in steps))
