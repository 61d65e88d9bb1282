"""Alternating multilinear cochains and the Nijenhuis-Richardson bracket.

An arity-n cochain from a d-dimensional space into a t-dimensional space is
stored as a t x C(d,n) coefficient matrix: column k holds the value on the
k-th strictly increasing basis tuple (i1 < ... < in) in lexicographic order.
Values on arbitrary arguments follow by multilinear alternating extension:
the coefficient matrix times the wedge of the arguments, the one column of
the n-th compound of the d x n matrix whose columns they are
(`Cochain.evaluate`).  Arity 0 is the same picture with the one empty
tuple: a t x 1 matrix, the vector the cochain takes.

The twist-equivariant subspace of arity-n cochains consists of those f with
beta o f = f o alpha^(wedge n); a basis is computed exactly by solving the
linear constraint  beta . M = M . compound_n(alpha).  The compound of any
matrix m is a wedge of its columns: column J is m e_(j1) ^ ... ^ m e_(jn)
in the n-tuple basis, whose coefficients are the n x n minors of m.  Every
minor of the library is taken this way, with no determinant.  The 0th
compound is the 1 x 1 identity, so the equivariant arity-0 cochains are
the beta-fixed vectors.  The membership test (`require_equivariant`) and
the constraints of a basis (`equivariance_constraints`) read the compounds
from a table by arity (`_Compounds`); a structure keeps one for its twist,
so the checks and the bases on it build each compound once.  The calls
that take a bare twist (`is_equivariant`, `hom_cochain_basis`,
`nr_diamond`, `nr_bracket`, `is_mc_pair`) build a table of their own.

For endomorphism cochains (source = target) the shifted graded space of
equivariant cochains carries a graded Lie bracket

    [P, Q] = P <> Q - (-1)^(mn) Q <> P,      deg P = m = arity(P) - 1,

    (P <> Q)(x_1, ..., x_(m+n+1)) =
        sum over (n+1, m)-shuffles s of sign(s) *
        P(Q(x_s(1), ..., x_s(n+1)), alpha^n x_s(n+2), ..., alpha^n x_s(m+n+1)),

whose Maurer-Cartan elements in arity 2 are exactly the twisted Lie
brackets on the space.

On coefficient matrices the insertion product is one exact product,

    coeffs(P <> Q) = coeffs(P) . K,    K = insertion_matrix(Q, compounds, arity(P)),

where column X of the C(d, m+1) x C(d, m+n+1) matrix K is the sum over the
shuffles s of sign(s) Q(e_(x_s(1)), ..., e_(x_s(n+1))) ^ alpha^n e_(x_s(n+2))
^ ... ^ alpha^n e_(x_s(m+n+1)), expanded in the (m+1)-tuple basis.  The
coefficient of e_I in that wedge is the minor by which the alternating
extension of P weighs its column I.  The shuffles of each column X, their
signs and the tuples they pick depend on d and the arities alone, so they
are one table cached per (d, arity(Q), arity(P <> Q)) beside the tuple
bases and the wedge incidences (`_insertion_plan`), grouped by the column
k of Q each shuffle reads.  Everything else but Q's entries depends on
the twist and the arities alone: K is linear in Q, and each wedge is a
sum of columns of B = [E_0^T C | ... | E_(d-1)^T C], with
C = compound_(arity(P)-1)(alpha)^n and E_r from `wedge_incidence`.  B is
kept per (arity(Q), arity(P)) in the twist's table beside its compounds
(`_Compounds`), so a call is one pass over Q's nonzeros Q[r, k] and the
terms of group k.  The bracket term of the coboundary in `cohomology` is
-K for Q the bracket cochain, and the Maurer-Cartan
test reads its residuals off the two insertion matrices of a pair: in
arity 2, [P, Q] = P . K_Q + Q . K_P.  Relative to a base pair it tests the
sum with the base, so there is one Maurer-Cartan equation.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import PreconditionError, UsageError, _require_kind
from .linalg import (
    Matrix,
    _column_blocks,
    _elimination,
    _kernel,
    _row,
    kron_sum,
    product_sum,
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
    """The C(source_dim, arity) columns of a coefficient matrix, for both >= 0."""
    if arity < 0 or source_dim < 0:
        raise UsageError("cochain source dimension and arity must be >= 0")
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

        The arguments are the columns of a d x n matrix, and their wedge is
        its n-th compound, one column whose entry (i1 < ... < in) is the
        n x n minor of the argument rows at those positions; the value is
        the coefficient matrix times that column.  So the result is
        multilinear and swaps of two arguments flip the overall sign.
        """
        if len(args) != self.arity:
            raise UsageError(f"expected {self.arity} arguments, got {len(args)}")
        for a in args:
            if len(a) != self.source_dim:
                raise UsageError(f"argument length {len(a)} != source dim {self.source_dim}")
        wedge = _compound(Matrix.from_columns(args, self.source_dim), self.arity)
        return (self.coeffs @ wedge).col(0)

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
    _require_kind(alpha, Matrix, "read a twist from")
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
    return _compound(m, 2)


class _Compounds(dict):
    """compound_n(alpha) by arity n, and the wedge table of
    `insertion_matrix` by (arity(Q), arity(P)), each built on first use:
    the twist's side of the equivariance test and of the insertion
    product.  A structure keeps one for its twist."""

    def __init__(self, alpha: Matrix):
        super().__init__()
        self.alpha = alpha

    def __missing__(self, key):
        value = self[key] = (_insertion_wedges(self, *key) if isinstance(key, tuple)
                             else exterior_power_matrix(self.alpha, key))
        return value


def require_equivariant(cochains, compounds: _Compounds, beta: Matrix,
                        message: str = "cochain is not twist-equivariant"):
    """Raise PreconditionError(message) unless every cochain lies in the
    twist-equivariant space: beta . f = f . compound_n(alpha), which in
    arity 0 says beta(v) = v.  The compounds are those a structure keeps
    (`_compounds`), or a fresh `_Compounds(alpha)` where the caller has no
    structure, which builds one per arity."""
    for f in cochains:
        if f.arity <= f.source_dim and beta @ f.coeffs != f.coeffs @ compounds[f.arity]:
            raise PreconditionError(message)


def is_equivariant(f, alpha: Matrix, beta: Matrix) -> bool:
    """Membership test for the twist-equivariant cochain space."""
    _require_kind(f, Cochain, "test the equivariance of")
    for twist in (alpha, beta):
        _require_kind(twist, Matrix, "read a twist from")
    try:
        require_equivariant((f,), _Compounds(alpha), beta)
    except PreconditionError:
        return False
    return True


def hom_cochain_basis(alpha: Matrix, beta: Matrix, n: int):
    """Exact basis of the equivariant arity-n cochains from the alpha-space
    into the beta-space.

    Solves beta . M = M . compound_n(alpha) for the coefficient matrix M; in
    arity 0 the compound is 1 and the basis spans the beta-fixed vectors.
    On the row-major entries of M that equation is the kernel of
    `equivariance_constraints`.  Arities above the source dimension give
    the empty basis.
    """
    for twist in (alpha, beta):
        _require_kind(twist, Matrix, "read a twist from")
    if n < 0:
        raise UsageError("negative arity")
    d, t = alpha.rows, beta.rows
    columns = _equivariant_columns(_Compounds(alpha), beta, n)
    return [Cochain(n, d, t, coeffs) for coeffs, in _column_blocks(columns, 1, t, comb(d, n))]


def _equivariant_columns(compounds: _Compounds, beta: Matrix, n: int) -> Matrix:
    """The basis of `hom_cochain_basis` as the columns of one matrix on the
    row-major coefficient entries, the kernel matrix as it is; 0 x 0 above
    the source dimension.  The compound comes from the table, as in
    `require_equivariant`."""
    if comb(compounds.alpha.rows, n) == 0:
        return Matrix.zero(0, 0)
    return _kernel(_elimination(equivariance_constraints(compounds, beta, n)))


def equivariance_constraints(compounds: _Compounds, beta: Matrix, n: int) -> Matrix:
    """kron(beta, 1) - kron(1, compound_n(alpha)^T): row r C(d,n) + c is
    entry (r, c) of beta . M - M . compound_n(alpha), as a linear form in
    the row-major entries of M, with compound_n(alpha) read from the
    twist's table of compounds."""
    compound = compounds[n]
    size = beta.rows * compound.rows
    return kron_sum([(beta, Matrix.identity(compound.rows)),
                     (Matrix.identity(beta.rows), -compound.transpose())], size, size)


def _shuffle_sign(positions) -> int:
    # Sign of the permutation placing `positions` (sorted) first, rest after.
    return -1 if sum(p - k for k, p in enumerate(positions)) % 2 else 1


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
    columns = _columns(m)
    wedges = {(): {(): 1}}
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
    return Matrix.from_entries(len(row_pos), len(tuples), {
        (row_pos[I], k): value for k, J in enumerate(tuples) for I, value in wedges[J].items()
    })


def _columns(m: Matrix) -> list:
    """The columns of m as sparse {row: value} dicts."""
    t = m.transpose()
    return [dict(t.row_items(j)) for j in range(t.rows)]


@lru_cache(maxsize=None)
def wedge_incidence(d: int, n: int) -> tuple:
    """(E_0, ..., E_(d-1)): E_j is the C(d,n) x C(d,n+1) signed incidence
    of e_I -> e_j ^ e_I on increasing tuples, so that F . E_j is the
    arity-(n+1) cochain of that wedge for every coefficient matrix F.
    Cached like the tuple bases it is made of."""
    out_pos = tuple_position(d, n + 1)
    entries = [{} for _ in range(d)]
    for k, I in enumerate(increasing_tuples(d, n)):
        for j in range(d):
            for X, sign in _wedge_front({j: 1}, {I: 1}).items():
                entries[j][(k, out_pos[X])] = sign
    return tuple(Matrix.from_entries(comb(d, n), comb(d, n + 1), e) for e in entries)


@lru_cache(maxsize=None)
def transposed_incidence(d: int, n: int) -> tuple:
    """(E_0^T, ..., E_(d-1)^T) for the incidences of `wedge_incidence`:
    E_j^T takes the coordinates of an n-form to those of e_j ^ it.
    Cached beside them, as they do not depend on the twist either."""
    return tuple(e.transpose() for e in wedge_incidence(d, n))


@lru_cache(maxsize=None)
def _insertion_plan(d: int, q_arity: int, out_arity: int) -> tuple:
    """The shuffle terms of `insertion_matrix`, grouped by the column k of
    Q they read: group k lays end to end x, negative, p for the x-th
    out-tuple X and each shuffle S of X whose tuple X_S is the k-th
    q_arity-tuple, with negative the parity of S and p the position of
    the rest (the other entries of X in order) among the
    (out_arity - q_arity)-tuples.  Empty when there are no terms: in
    arity(P) = 0, and above the source dimension.  Cached like the tuple
    bases it is made of; each group is one flat tuple of ints and bools,
    so that the kept table holds no tuple per term."""
    if out_arity < q_arity:  # arity(P) = 0: no shuffles
        return ()
    q_pos, rest_pos = tuple_position(d, q_arity), tuple_position(d, out_arity - q_arity)
    groups = [[] for _ in q_pos]
    for x, X in enumerate(increasing_tuples(d, out_arity)):
        for S in itertools.combinations(range(out_arity), q_arity):
            rest = tuple(X[t] for t in range(out_arity) if t not in S)
            groups[q_pos[tuple(X[s] for s in S)]] += (x, _shuffle_sign(S) < 0, rest_pos[rest])
    return tuple(map(tuple, groups)) if any(groups) else ()


def _insertion_wedges(compounds: _Compounds, q_arity: int, arity: int) -> tuple:
    """The columns of B = [E_0^T C | ... | E_(d-1)^T C], with E_r from
    `wedge_incidence` and C = compound_(arity-1)(alpha^n), n = q_arity - 1:
    entry [r][p] holds the (row, value) pairs of column p of E_r^T C, the
    wedge e_r ^ alpha^n e_(j1) ^ ... ^ alpha^n e_(j(arity-1)) for the p-th
    (arity-1)-tuple J, in the arity-tuple basis.  By Cauchy-Binet C is
    compound_(arity-1)(alpha) to the n-th power, read from the same
    table, and column p of E_r^T C is row p of C^T E_r.  Kept in that
    table (`_Compounds`) per (q_arity, arity)."""
    c = compounds[arity - 1].power(q_arity - 1).transpose()
    wedges = []
    for e in wedge_incidence(compounds.alpha.rows, arity - 1):
        b = c @ e
        wedges.append(tuple(b.row_items(p) for p in range(b.rows)))
    return tuple(wedges)


def insertion_matrix(q: Cochain, compounds: _Compounds, arity: int) -> Matrix:
    """The C(d, arity) x C(d, arity + deg Q) matrix K with P <> Q = P . K
    on coefficient matrices, for every arity-`arity` cochain P, with the
    twist's tables read from `compounds` (`_Compounds`).

    Column X of K is sum_S sign(S) Q(e_(X_S)) ^ alpha^n e_(x_k) ^ ... over
    the shuffles S of X, with k running over the other positions of X in
    order and n = deg Q, expanded in the arity-tuple basis.  The
    coefficient of e_I in that wedge is the minor by which the alternating
    extension of P weighs its column I.  K is linear in Q: with Q's
    columns Q e_k = sum_r Q[r, k] e_r, each term adds sign(S) Q[r, k]
    times column (r, rest) of the wedge table B (`_insertion_wedges`).
    So one pass over Q's nonzeros Q[r, k] and the plan terms of group k
    (`_insertion_plan`) builds K; the plan depends on d and the arities
    alone, and B on the twist and the arities.
    """
    d = q.source_dim
    out_arity = arity + q.arity - 1
    plan = _insertion_plan(d, q.arity, out_arity)
    rows = [{} for _ in range(comb(d, arity))]  # row I of K: {column x: entry}
    if plan:
        for r, columns in enumerate(compounds[q.arity, arity]):
            for k, c in q.coeffs.row_items(r):
                terms = iter(plan[k])
                for x, negative, p in zip(terms, terms, terms):
                    v = -c if negative else c
                    for i, b in columns[p]:
                        row = rows[i]
                        row[x] = row[x] + v * b if x in row else v * b
    return Matrix._of(len(rows), comb(d, out_arity), tuple(map(_row, rows)))


def nr_diamond(p: Cochain, q: Cochain, alpha: Matrix) -> Cochain:
    """The insertion product P <> Q over all (arity(Q), deg P)-shuffles, as
    the one exact product P . insertion_matrix(Q, compounds, arity(P)),
    with a table of alpha's own.  Q of arity 0 would need alpha^(-1), and
    is refused."""
    for f in (p, q):
        _require_kind(f, Cochain, "take the insertion product of")
    _require_kind(alpha, Matrix, "read a twist from")
    d = p.source_dim
    if p.target_dim != d or q.source_dim != d or q.target_dim != d:
        raise UsageError("insertion product needs endomorphism cochains on one space")
    if alpha.rows != d or alpha.cols != d:
        raise UsageError("twist dimension mismatch")
    if q.arity == 0:
        raise UsageError("negative matrix power")
    out_arity = p.arity + q.arity - 1
    return Cochain(out_arity, d, d, p.coeffs @ insertion_matrix(q, _Compounds(alpha), p.arity))


def nr_bracket(p: Cochain, q: Cochain, alpha: Matrix) -> Cochain:
    """Graded Lie bracket [P, Q] = P <> Q - (-1)^(mn) Q <> P on shifted degrees."""
    first = nr_diamond(p, q, alpha)
    second = nr_diamond(q, p, alpha)
    m = p.arity - 1
    n = q.arity - 1
    if (m * n) % 2:
        return first + second
    return first - second


def lift_to_product(f: Cochain, g_dim: int, v_dim: int) -> Cochain:
    """Lift a cochain on the g-factor with values in the v-factor to an
    endomorphism cochain on the direct sum: it vanishes whenever an argument
    lies in the v-slot and lands entirely in the v-slot."""
    _require_kind(f, Cochain, "lift")
    if f.source_dim != g_dim or f.target_dim != v_dim:
        raise UsageError("cochain shape does not match the product factors")
    total, n = g_dim + v_dim, f.arity
    pos, tuples = tuple_position(total, n), increasing_tuples(g_dim, n)
    return Cochain(n, total, total, Matrix.from_entries(total, comb(total, n), {
        (g_dim + r, pos[tuples[k]]): x for r in range(v_dim) for k, x in f.coeffs.row_items(r)
    }))


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

    The residuals are [m1,m1], [m2,m2] and [m1,m2], read off the pair's two
    insertion matrices: as [P, Q] = P <> Q + Q <> P in arity 2, they are
    2 m1 . K1, 2 m2 . K2 and m1 . K2 + m2 . K1.  With a base pair (t1, t2),
    itself required to be Maurer-Cartan, the test runs in the twisted
    structure with differentials [t1,-] and [t2,-]; its residuals
    2[t1,m1]+[m1,m1],  2[t2,m2]+[m2,m2]  and  [t1,m2]+[t2,m1]+[m1,m2] are
    those of the sum (t1 + m1, t2 + m2), since [t1,t1], [t2,t2] and
    [t1,t2] vanish.  The pair, its base and the base's own test share one
    table of the twist (`_Compounds`).
    """
    for f in (mu1, mu2, *(base or ())):
        _require_kind(f, Cochain, "test the Maurer-Cartan equation on")
    _require_kind(alpha, Matrix, "read a twist from")
    if mu1.arity != 2 or mu2.arity != 2:
        raise UsageError("Maurer-Cartan test expects arity-2 cochains")
    compounds = _Compounds(alpha)
    require_equivariant((mu1, mu2), compounds, alpha)
    if base is not None:
        theta1, theta2 = base
        if theta1.arity != 2 or theta2.arity != 2:
            raise UsageError("base must be a pair of arity-2 cochains")
        require_equivariant(base, compounds, alpha, "base cochain is not twist-equivariant")
        if not _mc_residuals(theta1, theta2, compounds).is_mc:
            raise PreconditionError("base pair is not Maurer-Cartan")
        mu1, mu2 = theta1 + mu1, theta2 + mu2
    return _mc_residuals(mu1, mu2, compounds)


def _mc_residuals(mu1: Cochain, mu2: Cochain, compounds: _Compounds) -> MaurerCartanCheck:
    """The residuals 2 m1 . K1, 2 m2 . K2 and m1 . K2 + m2 . K1 of an
    arity-2 pair, with its insertion matrices K read off `compounds`."""
    k1, k2 = (insertion_matrix(m, compounds, 2) for m in (mu1, mu2))
    m1, m2, d = mu1.coeffs, mu2.coeffs, compounds.alpha.rows
    mixed = product_sum([(m1, k2), (m2, k1)], d, k1.cols)
    return MaurerCartanCheck(*(Cochain(3, d, d, r) for r in
                               ((m1 @ k1).scale(2), (m2 @ k2).scale(2), mixed)))
