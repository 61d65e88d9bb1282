"""Alternating multilinear cochains and the Nijenhuis-Richardson bracket.

An arity-n cochain from a d-dimensional space into a t-dimensional space is
stored as a t x C(d,n) coefficient matrix: column k holds the value on the
k-th strictly increasing basis tuple (i1 < ... < in) in lexicographic order.
Values on arbitrary arguments follow by multilinear alternating extension.
Arity 0 is the same picture with the one empty tuple: a t x 1 matrix, the
vector the cochain takes.

The twist-equivariant subspace of arity-n cochains consists of those f with
beta o f = f o alpha^(wedge n); a basis is computed exactly by solving the
linear constraint  beta . M = M . compound_n(alpha).  The compound of any
matrix m is a wedge of its columns: column J is m e_(j1) ^ ... ^ m e_(jn)
in the n-tuple basis, whose coefficients are the n x n minors of m.  The
0th compound is the 1 x 1 identity, so the equivariant arity-0 cochains
are the beta-fixed vectors.

For endomorphism cochains (source = target) the shifted graded space of
equivariant cochains carries a graded Lie bracket

    [P, Q] = P <> Q - (-1)^(mn) Q <> P,      deg P = m = arity(P) - 1,

    (P <> Q)(x_1, ..., x_(m+n+1)) =
        sum over (n+1, m)-shuffles s of sign(s) *
        P(Q(x_s(1), ..., x_s(n+1)), alpha^n x_s(n+2), ..., alpha^n x_s(m+n+1)),

whose Maurer-Cartan elements in arity 2 are exactly the twisted Lie
brackets on the space.

On coefficient matrices the insertion product is one exact product,

    coeffs(P <> Q) = coeffs(P) . K,    K = insertion_matrix(Q, alpha, arity(P)),

where column X of the C(d, m+1) x C(d, m+n+1) matrix K is the sum over the
shuffles s of sign(s) Q(e_(x_s(1)), ..., e_(x_s(n+1))) ^ alpha^n e_(x_s(n+2))
^ ... ^ alpha^n e_(x_s(m+n+1)), expanded in the (m+1)-tuple basis.  The
coefficient of e_I in that wedge is the minor by which the alternating
extension of P weighs its column I.  The bracket term of the coboundary
in `cohomology` is -K for Q the bracket cochain.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import PreconditionError, UsageError
from .linalg import (
    Matrix,
    ONE,
    ZERO,
    determinant_of,
    kernel_basis,
    vector,
    zero_vector,
)


@lru_cache(maxsize=None)
def increasing_tuples(d: int, n: int):
    """All strictly increasing n-tuples from range(d), lexicographically ordered."""
    return tuple(itertools.combinations(range(d), n))


@lru_cache(maxsize=None)
def tuple_position(d: int, n: int):
    return {t: k for k, t in enumerate(increasing_tuples(d, n))}


def _column_count(source_dim: int, arity: int) -> int:
    """The C(source_dim, arity) columns of a coefficient matrix, for arity >= 0."""
    if arity < 0:
        raise UsageError("cochain arity must be >= 0")
    return comb(source_dim, arity)


@dataclass(frozen=True)
class Cochain:
    """Alternating multilinear map of arity >= 0, by basis coefficients.

    Arity 0 is a single vector, the t x 1 coefficient matrix of the value on
    the empty tuple.
    """

    arity: int
    source_dim: int
    target_dim: int
    coeffs: Matrix

    def __post_init__(self):
        expected = _column_count(self.source_dim, self.arity)
        if self.coeffs.rows != self.target_dim or self.coeffs.cols != expected:
            raise UsageError(
                f"coefficient matrix must be {self.target_dim}x{expected}, "
                f"got {self.coeffs.rows}x{self.coeffs.cols}"
            )

    @classmethod
    def zero(cls, arity: int, source_dim: int, target_dim: int) -> "Cochain":
        return cls(arity, source_dim, target_dim,
                   Matrix.zero(target_dim, _column_count(source_dim, arity)))

    @classmethod
    def from_values(cls, arity: int, source_dim: int, target_dim: int, values: dict) -> "Cochain":
        """Build from a sparse {increasing index tuple: value vector} mapping."""
        columns = [zero_vector(target_dim)] * _column_count(source_dim, arity)
        pos = tuple_position(source_dim, arity)
        for tup, val in values.items():
            tup = tuple(tup)
            if tup not in pos:
                raise UsageError(f"not a strictly increasing tuple in range: {tup}")
            columns[pos[tup]] = vector(val)
        return cls(arity, source_dim, target_dim, Matrix.from_columns(columns, target_dim))

    @classmethod
    def from_flat(cls, arity: int, source_dim: int, target_dim: int, flat) -> "Cochain":
        return cls(arity, source_dim, target_dim,
                   Matrix(target_dim, _column_count(source_dim, arity), tuple(flat)))

    def column(self, tup) -> tuple:
        return self.coeffs.col(tuple_position(self.source_dim, self.arity)[tuple(tup)])

    def flatten(self) -> tuple:
        return self.coeffs.entries

    def evaluate(self, args) -> tuple:
        """Value on arbitrary argument vectors by alternating extension.

        The coefficient of basis column (i1 < ... < in) is the n x n minor of
        the argument rows at those positions, so the result is multilinear
        and swaps of two arguments flip the overall sign.
        """
        if len(args) != self.arity:
            raise UsageError(f"expected {self.arity} arguments, got {len(args)}")
        for a in args:
            if len(a) != self.source_dim:
                raise UsageError(f"argument length {len(a)} != source dim {self.source_dim}")
        result = list(zero_vector(self.target_dim))
        for k, tup in enumerate(increasing_tuples(self.source_dim, self.arity)):
            minor = determinant_of([[arg[i] for i in tup] for arg in args])
            if minor:
                for t in range(self.target_dim):
                    c = self.coeffs.entry(t, k)
                    if c:
                        result[t] += minor * c
        return tuple(result)

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain(self.arity, self.source_dim, self.target_dim, self.coeffs + other.coeffs)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain(self.arity, self.source_dim, self.target_dim, self.coeffs - other.coeffs)

    def __neg__(self) -> "Cochain":
        return Cochain(self.arity, self.source_dim, self.target_dim, -self.coeffs)

    def scale(self, c) -> "Cochain":
        return Cochain(self.arity, self.source_dim, self.target_dim, self.coeffs.scale(c))

    def is_zero(self) -> bool:
        return self.coeffs.is_zero()

    def _compatible(self, other: "Cochain"):
        if (self.arity, self.source_dim, self.target_dim) != (
            other.arity, other.source_dim, other.target_dim
        ):
            raise UsageError("cochain shape mismatch")


def exterior_power_matrix(alpha: Matrix, n: int) -> Matrix:
    """Compound matrix of n x n minors: the action induced on the n-th
    exterior power, in the lexicographic increasing-tuple basis.  The 0th
    compound is the 1 x 1 identity."""
    if not alpha.is_square():
        raise UsageError("twist must be square")
    d = alpha.rows
    if not 0 <= n <= d:
        raise UsageError(f"exterior power {n} out of range 0..{d}")
    return _compound(alpha, n)


def exterior_square(m: Matrix) -> Matrix:
    """The compound of 2 x 2 minors of m, so that f . exterior_square(m) is
    the arity-2 cochain f(m x, m y); any shape, with no rows or columns where
    there are no basis pairs."""
    if m.is_square() and m.rows >= 2:
        # the public entry point, so that timing it covers every square compound
        return exterior_power_matrix(m, 2)
    return _compound(m, 2)


def require_equivariant(cochains, alpha: Matrix, beta: Matrix,
                        message: str = "cochain is not twist-equivariant"):
    """Raise PreconditionError(message) unless every cochain lies in the
    twist-equivariant space: beta . f = f . compound_n(alpha), which in
    arity 0 says beta(v) = v.  One compound is built per arity."""
    compounds = {}
    for f in cochains:
        if f.arity > f.source_dim:
            holds = True
        else:
            if f.arity not in compounds:
                compounds[f.arity] = exterior_power_matrix(alpha, f.arity)
            holds = (beta @ f.coeffs) == (f.coeffs @ compounds[f.arity])
        if not holds:
            raise PreconditionError(message)


def is_equivariant(f, alpha: Matrix, beta: Matrix) -> bool:
    """Membership test for the twist-equivariant cochain space."""
    try:
        require_equivariant((f,), alpha, beta)
    except PreconditionError:
        return False
    return True


def hom_cochain_basis(alpha: Matrix, beta: Matrix, n: int):
    """Exact basis of the equivariant arity-n cochains from the alpha-space
    into the beta-space.

    Solves beta . M = M . compound_n(alpha) for the coefficient matrix M; in
    arity 0 the compound is 1 and the basis spans the beta-fixed vectors.
    Arities above the source dimension give the empty basis.
    """
    if n < 0:
        raise UsageError("negative arity")
    d = alpha.rows
    t = beta.rows
    ncols = comb(d, n)
    if ncols == 0:
        return []
    compound = exterior_power_matrix(alpha, n)
    unknowns = t * ncols
    constraint_rows = []
    # Entry (r, c) of beta.M - M.compound, as a linear form in the entries of M.
    for r in range(t):
        for c in range(ncols):
            row = [ZERO] * unknowns
            for k in range(t):
                row[k * ncols + c] += beta.entry(r, k)
            for k in range(ncols):
                row[r * ncols + k] -= compound.entry(k, c)
            constraint_rows.append(row)
    basis = []
    for flat in kernel_basis(Matrix.from_rows(constraint_rows)):
        basis.append(Cochain.from_flat(n, d, t, flat))
    return basis


def _shuffle_sign(positions) -> int:
    # Sign of the permutation placing `positions` (sorted) first, rest after.
    return -1 if sum(p - k for k, p in enumerate(positions)) % 2 else 1


def _sparse(vec) -> dict:
    return {i: a for i, a in enumerate(vec) if a}


def _wedge_front(vec: dict, form: dict) -> dict:
    """vec ^ form for a sparse vector {i: c} and a sparse form {increasing tuple: c}."""
    out = {}
    for J, value in form.items():
        for i, c in vec.items():
            if i in J:
                continue
            pos = bisect_left(J, i)
            key = J[:pos] + (i,) + J[pos:]
            term = -c * value if pos % 2 else c * value
            out[key] = out[key] + term if key in out else term
    return out


def _wedges(m: Matrix, n: int) -> dict:
    """{J: m e_(j1) ^ ... ^ m e_(jt)} for every increasing tuple J of at most
    n column indices of m, each a sparse form {I: minor} over the row
    tuples; the wedge of J is m e_(j1) ^ (the wedge of its tail J[1:])."""
    columns = [_sparse(m.col(j)) for j in range(m.cols)]
    wedges = {(): {(): ONE}}
    for t in range(1, n + 1):
        for J in increasing_tuples(m.cols, t):
            wedges[J] = _wedge_front(columns[J[0]], wedges[J[1:]])
    return wedges


def _compound(m: Matrix, n: int) -> Matrix:
    """The n-th compound of an r x c matrix m, C(r, n) x C(c, n): column J is
    the wedge m e_(j1) ^ ... ^ m e_(jn) in the increasing n-tuple basis, so
    entry (I, J) is the n x n minor of m on rows I and columns J."""
    wedges = _wedges(m, n)
    row_pos, tuples = tuple_position(m.rows, n), increasing_tuples(m.cols, n)
    entries = [ZERO] * (len(row_pos) * len(tuples))
    for k, J in enumerate(tuples):
        for I, value in wedges[J].items():
            entries[row_pos[I] * len(tuples) + k] = value
    return Matrix(len(row_pos), len(tuples), tuple(entries))


def insertion_matrix(q: Cochain, alpha: Matrix, arity: int) -> Matrix:
    """The C(d, arity) x C(d, arity + deg Q) matrix K with P <> Q = P . K
    on coefficient matrices, for every arity-`arity` cochain P.

    Column X of K is sum_S sign(S) Q(e_(X_S)) ^ alpha^n e_(x_k) ^ ... over
    the shuffles S of X, with k running over the other positions of X in
    order and n = deg Q, expanded in the arity-tuple basis.  The
    coefficient of e_I in that wedge is the minor by which the alternating
    extension of P weighs its column I.
    """
    d = q.source_dim
    out_arity = arity + q.arity - 1
    rows, cols = comb(d, arity), comb(d, out_arity)
    rest_forms = _wedges(alpha.power(q.arity - 1), arity - 1)  # rest -> alpha^n e_(x_k) ^ ...
    q_cols = [_sparse(q.coeffs.col(k)) for k in range(q.coeffs.cols)]
    q_pos = tuple_position(d, q.arity)
    in_pos = tuple_position(d, arity)
    entries = {}  # flat index -> entry
    for x, X in enumerate(increasing_tuples(d, out_arity)):
        for S in itertools.combinations(range(out_arity), q.arity):
            rest = tuple(X[t] for t in range(out_arity) if t not in S)
            negative = _shuffle_sign(S) < 0
            first = q_cols[q_pos[tuple(X[s] for s in S)]]
            for I, value in _wedge_front(first, rest_forms[rest]).items():
                if negative:
                    value = -value
                k = in_pos[I] * cols + x
                entries[k] = entries[k] + value if k in entries else value
    return Matrix(rows, cols, tuple(entries.get(k, ZERO) for k in range(rows * cols)))


def nr_diamond(p: Cochain, q: Cochain, alpha: Matrix) -> Cochain:
    """The insertion product P <> Q over all (arity(Q), deg P)-shuffles, as
    the one exact product P . insertion_matrix(Q, alpha, arity(P))."""
    d = p.source_dim
    if p.target_dim != d or q.source_dim != d or q.target_dim != d:
        raise UsageError("insertion product needs endomorphism cochains on one space")
    if alpha.rows != d or alpha.cols != d:
        raise UsageError("twist dimension mismatch")
    out_arity = p.arity + q.arity - 1
    return Cochain(out_arity, d, d, p.coeffs @ insertion_matrix(q, alpha, p.arity))


def nr_bracket(p: Cochain, q: Cochain, alpha: Matrix) -> Cochain:
    """Graded Lie bracket [P, Q] = P <> Q - (-1)^(mn) Q <> P on shifted degrees."""
    m = p.arity - 1
    n = q.arity - 1
    first = nr_diamond(p, q, alpha)
    second = nr_diamond(q, p, alpha)
    if (m * n) % 2:
        return first + second
    return first - second


def lift_to_product(f: Cochain, g_dim: int, v_dim: int) -> Cochain:
    """Lift a cochain on the g-factor with values in the v-factor to an
    endomorphism cochain on the direct sum: it vanishes whenever an argument
    lies in the v-slot and lands entirely in the v-slot."""
    if f.source_dim != g_dim or f.target_dim != v_dim:
        raise UsageError("cochain shape does not match the product factors")
    total = g_dim + v_dim
    n = f.arity
    columns = []
    for X in increasing_tuples(total, n):
        if not X or X[-1] < g_dim:
            value = f.column(X)
            columns.append(zero_vector(g_dim) + value)
        else:
            columns.append(zero_vector(total))
    return Cochain(n, total, total, Matrix.from_columns(columns, total))


@dataclass(frozen=True)
class MaurerCartanCheck:
    """Residuals of the two square equations and the mixed equation.

    The pair is Maurer-Cartan exactly when all three residual cochains
    vanish.
    """

    residual1: Cochain
    residual2: Cochain
    residual_mixed: Cochain

    @property
    def is_mc(self) -> bool:
        return self.residual1.is_zero() and self.residual2.is_zero() and self.residual_mixed.is_zero()

    @property
    def residuals(self):
        return (self.residual1, self.residual2, self.residual_mixed)


def is_mc_pair(mu1: Cochain, mu2: Cochain, alpha: Matrix, base=None) -> MaurerCartanCheck:
    """Maurer-Cartan test for a pair of arity-2 equivariant cochains.

    Without a base the residuals are [m1,m1], [m2,m2] and [m1,m2].  With a
    base pair (t1, t2), itself required to be Maurer-Cartan, the test runs
    in the twisted structure with differentials [t1,-] and [t2,-], giving
    residuals 2[t1,m1]+[m1,m1],  2[t2,m2]+[m2,m2]  and
    [t1,m2]+[t2,m1]+[m1,m2].
    """
    if mu1.arity != 2 or mu2.arity != 2:
        raise UsageError("Maurer-Cartan test expects arity-2 cochains")
    require_equivariant((mu1, mu2), alpha, alpha)
    if base is None:
        return MaurerCartanCheck(
            nr_bracket(mu1, mu1, alpha),
            nr_bracket(mu2, mu2, alpha),
            nr_bracket(mu1, mu2, alpha),
        )
    theta1, theta2 = base
    if theta1.arity != 2 or theta2.arity != 2:
        raise UsageError("base must be a pair of arity-2 cochains")
    require_equivariant(base, alpha, alpha, "base cochain is not twist-equivariant")
    if not is_mc_pair(theta1, theta2, alpha).is_mc:
        raise PreconditionError("base pair is not Maurer-Cartan")
    r1 = nr_bracket(theta1, mu1, alpha).scale(2) + nr_bracket(mu1, mu1, alpha)
    r2 = nr_bracket(theta2, mu2, alpha).scale(2) + nr_bracket(mu2, mu2, alpha)
    rm = nr_bracket(theta1, mu2, alpha) + nr_bracket(theta2, mu1, alpha) + nr_bracket(mu1, mu2, alpha)
    return MaurerCartanCheck(r1, r2, rm)
