"""Exact linear algebra over the rationals.

Matrices are immutable, with `fractions.Fraction` entries.  Elimination is
fraction-free: `rref` works on sparse integer rows (denominators cleared,
content gcd divided out after every update) and `determinant_of` uses
Bareiss's integer-preserving elimination; Fractions appear again only in
the results.  The reduced row echelon form is unique, so `rref`,
`kernel_basis`, `solve` and `span_basis` return the same output bit for
bit whichever rows supply the pivots, which the cohomology computations
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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
        # The shared ZERO is skipped by identity, before any Fraction.__bool__.
        nonzero = [[(j, b) for j, b in enumerate(other.row(k)) if b is not ZERO and b]
                   for k in range(other.rows)]
        out = []
        for i in range(self.rows):
            acc = [ZERO] * other.cols
            for a, row in zip(self.row(i), nonzero):
                if a is not ZERO and a:
                    for j, b in row:
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


def kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product: block (l, i) is a[l, i] b, and the shared ZERO
    block where a[l, i] is 0."""
    zero_row = (ZERO,) * b.cols
    out = []
    for l in range(a.rows):
        coeffs = a.row(l)
        for r in range(b.rows):
            row = b.row(r)
            for c in coeffs:
                out.extend(tuple(c * x for x in row) if c else zero_row)
    return Matrix(a.rows * b.rows, a.cols * b.cols, tuple(out))


def _integer_row(values) -> dict:
    """The nonzero entries of a rational row as a sparse primitive integer row
    {col: int}: denominators cleared by their lcm, content gcd divided out.
    Only the row's direction is kept, which is all elimination needs."""
    row = {j: a for j, a in enumerate(values) if a}
    if not row:
        return row
    den = lcm(*(a.denominator for a in row.values()))
    row = {j: a.numerator * (den // a.denominator) for j, a in row.items()}
    return _primitive(row)


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    if g == 1:
        return row
    return {j: a // g for j, a in row.items()}


def _eliminate(row: dict, pivot_row: dict, c: int) -> dict:
    """The primitive integer row proportional to row - (row[c] / pivot_row[c]) pivot_row,
    whose entry in column c is zero."""
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
    return _primitive(out) if out else out


def rref(m: Matrix):
    """Reduced row echelon form and pivot columns.

    The elimination is fraction-free on sparse integer rows: each row is a
    {col: int} dict with its denominators cleared and its content gcd divided
    out after every update.  Columns are taken left to right; the pivot of a
    column is the remaining row with the fewest nonzeros that has an entry
    there, the lowest row index on ties.  Forward elimination is followed by
    back-substitution, and each stored entry becomes one Fraction over its
    row's pivot at the end.  The RREF is unique, so the result does not
    depend on the pivot rows chosen.
    """
    cols = m.cols
    remaining = [_integer_row(m.entries[i * cols : (i + 1) * cols]) for i in range(m.rows)]
    remaining = [row for row in remaining if row]
    echelon = []  # (pivot column, row), in column order
    for c in range(cols):
        if not remaining:
            break
        best = None
        for k, row in enumerate(remaining):
            if c in row and (best is None or len(row) < len(remaining[best])):
                best = k
        if best is None:
            continue
        pivot_row = remaining.pop(best)
        remaining = [_eliminate(row, pivot_row, c) if c in row else row for row in remaining]
        remaining = [row for row in remaining if row]
        echelon.append((c, pivot_row))
    for k in range(len(echelon) - 1, 0, -1):
        c, pivot_row = echelon[k]
        for i in range(k):
            ci, row = echelon[i]
            if c in row:
                echelon[i] = (ci, _eliminate(row, pivot_row, c))
    entries = [ZERO] * (m.rows * cols)
    for r, (c, row) in enumerate(echelon):
        p = row[c]
        for j, value in row.items():
            entries[r * cols + j] = Fraction(value, p)
    return Matrix(m.rows, cols, tuple(entries)), tuple(c for c, _ in echelon)


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
    """Determinant of a small square matrix given as nested lists of Fractions.

    Each row is cleared to integers by the lcm of its denominators, and the
    integer determinant is taken by Bareiss's fraction-free elimination,
    whose divisions by the previous pivot are exact.
    """
    n = len(rows)
    if n == 0:
        return ONE
    work = []
    scale = 1
    for row in rows:
        row = [frac(a) for a in row]
        den = lcm(*(a.denominator for a in row))
        work.append([a.numerator * (den // a.denominator) for a in row])
        scale *= den
    sign = 1
    previous = 1
    for c in range(n - 1):
        if not work[c][c]:
            swap = next((r for r in range(c + 1, n) if work[r][c]), None)
            if swap is None:
                return ZERO
            work[c], work[swap] = work[swap], work[c]
            sign = -sign
        pivot = work[c][c]
        top = work[c]
        for r in range(c + 1, n):
            row = work[r]
            lead = row[c]
            for k in range(c + 1, n):
                row[k] = (row[k] * pivot - lead * top[k]) // previous
        previous = pivot
    return Fraction(sign * work[n - 1][n - 1], scale)
