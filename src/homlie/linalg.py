"""Exact dense linear algebra over the rationals.

Everything here is deterministic: entries are `fractions.Fraction`, pivots
are always the first nonzero entry in column order, and all values are
immutable after construction.  Ranks, kernels and solutions are therefore
reproducible bit for bit, which the cohomology computations rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError, UsageError

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to a Fraction.  Floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise UsageError(f"not an exact rational: {value!r} ({type(value).__name__})")


def vector(values) -> tuple:
    return tuple(frac(v) for v in values)


def zero_vector(n: int) -> tuple:
    return (ZERO,) * n


def basis_vector(n: int, i: int) -> tuple:
    return tuple(ONE if k == i else ZERO for k in range(n))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_is_zero(u) -> bool:
    return all(a == 0 for a in u)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with row-major Fraction entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise UsageError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [vector(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise UsageError("ragged rows")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        vals = vector(values)
        n = len(vals)
        return cls(n, n, tuple(vals[i] if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def from_columns(cls, columns, rows: int) -> "Matrix":
        cols = len(columns)
        if any(len(c) != rows for c in columns):
            raise UsageError("column length mismatch")
        return cls(rows, cols, tuple(frac(columns[j][i]) for i in range(rows) for j in range(cols)))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j :: self.cols] if self.cols else ()

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise UsageError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            acc = [ZERO] * other.cols
            for k, a in enumerate(self.row(i)):
                if a:
                    for j, b in enumerate(other.row(k)):
                        if b:
                            acc[j] += a * b
            out.extend(acc)
        return Matrix(self.rows, other.cols, tuple(out))

    def apply(self, vec) -> tuple:
        if len(vec) != self.cols:
            raise UsageError(f"vector length {len(vec)} != cols {self.cols}")
        return tuple(
            sum((self.entry(i, j) * vec[j] for j in range(self.cols)), ZERO)
            for i in range(self.rows)
        )

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
        rows = []
        for i in range(self.rows):
            rows.append(list(self.row(i)) + [ZERO] * other.cols)
        for i in range(other.rows):
            rows.append([ZERO] * self.cols + list(other.row(i)))
        return Matrix(self.rows + other.rows, self.cols + other.cols, tuple(x for r in rows for x in r))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise UsageError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


def vstack(matrices) -> Matrix:
    matrices = list(matrices)
    if not matrices:
        raise UsageError("vstack of nothing")
    cols = matrices[0].cols
    if any(m.cols != cols for m in matrices):
        raise UsageError("vstack column mismatch")
    return Matrix(sum(m.rows for m in matrices), cols, tuple(x for m in matrices for x in m.entries))


def hstack(matrices) -> Matrix:
    matrices = list(matrices)
    if not matrices:
        raise UsageError("hstack of nothing")
    rows = matrices[0].rows
    if any(m.rows != rows for m in matrices):
        raise UsageError("hstack row mismatch")
    out = []
    for i in range(rows):
        for m in matrices:
            out.extend(m.row(i))
    return Matrix(rows, sum(m.cols for m in matrices), tuple(out))


def rref(m: Matrix):
    """Reduced row echelon form and pivot columns.

    The pivot in each step is the first nonzero entry scanning rows top to
    bottom within the leftmost eligible column, so the result is the unique
    RREF and the pivot list is deterministic.
    """
    work = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pivot_row = None
        for k in range(r, m.rows):
            if work[k][c] != 0:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = ONE / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for k in range(m.rows):
            if k != r and work[k][c] != 0:
                f = work[k][c]
                work[k] = [a - f * b for a, b in zip(work[k], work[r])]
        pivots.append(c)
        r += 1
    flat = tuple(x for row in work for x in row)
    return Matrix(m.rows, m.cols, flat), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix):
    """Basis of the right null space, one vector per free column, in column order.

    Each returned vector v satisfies m @ v = 0 exactly; the basis size is
    cols - rank.
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.entry(r, fc)
        basis.append(tuple(v))
    return basis


def solve(m: Matrix, b) -> tuple | None:
    """One exact solution of m @ x = b, or None when the system is inconsistent."""
    if len(b) != m.rows:
        raise UsageError(f"rhs length {len(b)} != rows {m.rows}")
    augmented = hstack([m, Matrix.from_columns([vector(b)], m.rows)])
    reduced, pivots = rref(augmented)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [ZERO] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced.entry(r, m.cols)
    return tuple(x)


def span_rank(vectors) -> int:
    vectors = list(vectors)
    if not vectors:
        return 0
    return rank(Matrix.from_rows(vectors))


def span_basis(vectors):
    """Canonical (RREF row) basis of the span of the given vectors."""
    vectors = [v for v in vectors if not vec_is_zero(v)]
    if not vectors:
        return []
    reduced, pivots = rref(Matrix.from_rows(vectors))
    return [reduced.row(i) for i in range(len(pivots))]


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
    """Determinant of a small square matrix given as nested lists of Fractions."""
    n = len(rows)
    if n == 0:
        return ONE
    m = [list(r) for r in rows]
    det = ONE
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if m[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            return ZERO
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = ONE / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] * inv
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det
