"""Shared test utilities: seeded random data and naive reference oracles.

The naive oracles deliberately use different algorithms from the library
(factorial permutation enumeration instead of shuffle combinations, direct
cyclic sums instead of coefficient tables, one basis vector at a time
instead of assembled matrices, one Bareiss determinant per minor instead
of wedges of columns) so that agreement is meaningful: they evaluate
cochains and brackets with `naive_evaluate` and `naive_bracket`, never with
the library's `Cochain.evaluate` and `bracket_of`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm

from homlie import (
    Cochain,
    CompatibleCochain,
    ExtensionCocycle,
    HomLieAlgebra,
    Matrix,
    PreconditionError,
    Representation,
    UsageError,
    adjoint_representation,
    hom_cochain_basis,
    verify_structure,
)
from homlie import algebra, cohomology, linalg
from homlie.algebra import CheckResult
from homlie.cochains import increasing_tuples, tuple_position
from homlie.cohomology import _c0_constraints, _cochains, _flat
from homlie.linalg import (
    _elimination,
    _kernel,
    hstack,
    kernel_basis,
    rank,
    solve,
    zero_vector,
)


def record_verifications(monkeypatch) -> list:
    """Every structure and module whose identities `verify_structure`
    evaluates from now on, in order.  A report kept on its object from an
    earlier call evaluates nothing, so it is not recorded again."""
    verified = []
    for name in ("_algebra_checks", "_representation_checks"):
        monkeypatch.setattr(algebra, name, lambda s, original=getattr(algebra, name):
                            verified.append(s) or original(s))
    return verified


def record_adjoint_builds(monkeypatch) -> list:
    """Every structure whose adjoint module is built from now on, in order."""
    built = []
    monkeypatch.setattr(algebra, "_adjoint_module", lambda s, original=algebra._adjoint_module:
                        built.append(s) or original(s))
    return built


def record_complex_builds(monkeypatch) -> list:
    """Every part of a kept complex built from now on, in the order it is
    asked for, as its key: ("insertion", bracket, degree),
    ("coboundary", action, degree), ("differential", degree),
    ("basis", degree), ("images", degree), ("elimination", degree) for
    the elimination record of the images, ("cocycles", degree),
    ("coboundaries", degree), ("classes", degree) for the record that
    reports and class questions read their representatives and classes
    off, or ("cut", "cocycles", degree) and ("cut", "coboundaries", degree)
    for the report cochains cut from the cocycles and coboundaries; and
    every run of the one elimination loop, which only `linalg._elimination`
    calls, as ("echelon", nonzero rows, cols).  A part asked for while
    another is built comes after it."""
    built = []
    monkeypatch.setattr(cohomology._Complex, "__missing__",
                        lambda kept, key, original=cohomology._Complex.__missing__:
                        built.append(key) or original(kept, key))
    monkeypatch.setattr(linalg, "_echelon", lambda rows, cols, steps, original=linalg._echelon:
                        built.append(("echelon", len(rows), cols)) or original(rows, cols, steps))
    return built


def basis_vector(n: int, i: int) -> tuple:
    return tuple(Fraction(1 if k == i else 0) for k in range(n))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_is_zero(u) -> bool:
    return all(a == 0 for a in u)


def rand_frac(rng, span=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_vector(rng, n, span=3):
    return tuple(rand_frac(rng, span) for _ in range(n))


def rand_matrix(rng, rows, cols, span=3):
    return Matrix.from_rows([[rand_frac(rng, span) for _ in range(cols)] for _ in range(rows)])


def rand_skew_bracket(rng, dim, span=2):
    cols = [rand_vector(rng, dim, span) for _ in range(comb(dim, 2))]
    return Matrix.from_columns(cols, dim)


def rand_equivariant_cochain(rng, alpha, beta, arity):
    """Random rational combination of a basis of the equivariant space."""
    basis = hom_cochain_basis(alpha, beta, arity)
    if not basis:
        return None
    out = Cochain.zero(arity, alpha.rows, beta.rows)
    for item in basis:
        out = out + item.scale(rand_frac(rng))
    return out


# Dense list-of-lists oracles for the sparse Matrix store: a matrix is a
# list of row lists, its column count passed where a row may be missing,
# and every operation is its entrywise definition.

def naive_transpose(a, cols: int):
    return [[a[i][j] for i in range(len(a))] for j in range(cols)]


def naive_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def naive_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def naive_scale(c, a):
    return [[c * x for x in row] for row in a]


def naive_matmul(a, b, cols: int):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)]
            for row in a]


def naive_kron(a, a_cols: int, b, b_cols: int):
    return [[a[l][i] * b[r][j] for i in range(a_cols) for j in range(b_cols)]
            for l in range(len(a)) for r in range(len(b))]


def naive_hstack(a, b):
    return [ra + rb for ra, rb in zip(a, b)]


def naive_block_diag(a, a_cols: int, b, b_cols: int):
    zero = Fraction(0)
    return [row + [zero] * b_cols for row in a] + [[zero] * a_cols + row for row in b]


def naive_apply(a, vec):
    return tuple(sum((x * y for x, y in zip(row, vec)), Fraction(0)) for row in a)


def dense(m: Matrix):
    """The rows of m as lists of Fractions, for the dense oracles."""
    return [list(m.row(i)) for i in range(m.rows)]


def naive_determinant(rows) -> Fraction:
    """Determinant of a square matrix given as nested lists of Fractions,
    independent of the library's elimination record (`determinant_of`).

    Each row is cleared to integers by the lcm of its denominators, and the
    integer determinant is taken by Bareiss's fraction-free elimination,
    whose divisions by the previous pivot are exact.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    work = []
    scale = 1
    for row in rows:
        row = [Fraction(a) for a in row]
        den = lcm(*(a.denominator for a in row))
        work.append([a.numerator * (den // a.denominator) for a in row])
        scale *= den
    sign = 1
    previous = 1
    for c in range(n - 1):
        if not work[c][c]:
            swap = next((r for r in range(c + 1, n) if work[r][c]), None)
            if swap is None:
                return Fraction(0)
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


def naive_evaluate(f: Cochain, args) -> tuple:
    """f on arbitrary arguments by alternating extension, one Bareiss
    determinant per increasing basis tuple: the minors of the argument rows
    at its positions, weighted by the coefficient columns."""
    assert len(args) == f.arity
    minors = [naive_determinant([[arg[i] for i in tup] for arg in args])
              for tup in increasing_tuples(f.source_dim, f.arity)]
    return naive_apply(dense(f.coeffs), minors)


def naive_bracket(s, *args) -> tuple:
    """s.bracket_of(*args) through `naive_evaluate`: the arguments are
    (u, v) for one bracket and (which, u, v) for a pair."""
    *which, u, v = args
    return naive_evaluate(s.bracket_cochain(*which), (u, v))


def naive_equivariance_constraints(alpha: Matrix, beta: Matrix, n: int) -> Matrix:
    """beta . M - M . compound_n(alpha) as linear forms in the row-major
    entries of M, one constraint row per entry (r, c), built entry by entry."""
    compound = naive_exterior_power(alpha, n)
    t, ncols = beta.rows, compound.rows
    rows = []
    for r in range(t):
        for c in range(ncols):
            row = [Fraction(0)] * (t * ncols)
            for k in range(t):
                row[k * ncols + c] += beta.entry(r, k)
            for k in range(ncols):
                row[r * ncols + k] -= compound.entry(k, c)
            rows.append(row)
    return Matrix(t * ncols, t * ncols, tuple(x for row in rows for x in row))


def c0_compatible_basis(c, v):
    """Vectors fixed by beta on which the two actions of every basis element
    agree, as arity-0 cochains: the degree-0 group of the two-bracket
    complex, through the kernel of its constraints."""
    return _cochains(_kernel(_elimination(_c0_constraints(c, v))), c, v.vdim, 0)


def naive_basis_matrix(struct, v, n: int) -> Matrix:
    """The basis matrix of `cohomology` through Cochain objects: the flat
    columns of `hom_cochain_basis`, or of `c0_compatible_basis` in
    two-bracket degree 0, stacked side by side."""
    if len(struct.brackets) == 2 and n == 0:
        singles = c0_compatible_basis(struct, v)
    else:
        singles = hom_cochain_basis(struct.alpha, v.beta, n)
    return hstack([Matrix.zero(v.vdim * comb(struct.dim, n), 0), *map(_flat, singles)])


def naive_rref(m: Matrix):
    """Dense Fraction Gauss-Jordan elimination: the pivot of each column is
    the first nonzero entry scanning the remaining rows top to bottom."""
    work = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pivot_row = next((k for k in range(r, m.rows) if work[k][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for k in range(m.rows):
            if k != r and work[k][c] != 0:
                f = work[k][c]
                work[k] = [a - f * b for a, b in zip(work[k], work[r])]
        pivots.append(c)
        r += 1
    return Matrix(m.rows, m.cols, tuple(x for row in work for x in row)), tuple(pivots)


def naive_solve(m: Matrix, b: Matrix):
    """One solution of m @ x = b for a one-column matrix b, read off
    `naive_rref` of [m | b]: None when the last column takes a pivot, else
    the one-column matrix with the reduced b entry of each pivot row at its
    pivot column and zero at the free columns."""
    reduced, pivots = naive_rref(hstack([m, b]))
    if m.cols in pivots:
        return None
    return Matrix.from_entries(m.cols, 1, {(pc, 0): reduced.entry(r, m.cols)
                                           for r, pc in enumerate(pivots)})


def naive_class_coordinates(report, item) -> tuple:
    """The coordinates of a cocycle's class by the flat route: `naive_solve`
    of [coboundaries | representatives] x = w on flat coordinates, with the
    representative part of x as the coordinates.  A cochain of another shape
    than the report's is a UsageError, and one outside the span of the
    report's cocycles a PreconditionError."""
    parts = item.components if isinstance(item, CompatibleCochain) else (item,)
    shape = (report.degree, report.source_dim, report.target_dim)
    slots = max(report.degree, 1) if report.flavor == "compatible" else 1
    if len(parts) != slots or any((f.arity, f.source_dim, f.target_dim) != shape for f in parts):
        raise UsageError("cochain shape does not match the report")

    def flat(f):
        return tuple(x for p in (f.components if isinstance(f, CompatibleCochain) else (f,))
                     for x in p.flatten())

    w = flat(item)
    columns = [flat(b) for b in report.coboundary_basis + report.cohomology_basis]
    x = naive_solve(Matrix.from_columns(columns, len(w)), Matrix.from_columns([w], len(w)))
    if x is None:
        raise PreconditionError("not a cocycle for this report")
    return x.col(0)[report.dim_coboundaries :]


def naive_kernel(m: Matrix):
    """Kernel basis of m from `naive_rref`: one vector per free column."""
    reduced, pivots = naive_rref(m)
    out = []
    for free in (c for c in range(m.cols) if c not in pivots):
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced.entry(r, free)
        out.append(tuple(vec))
    return out


def naive_rank(vectors) -> int:
    vectors = list(vectors)
    return len(naive_rref(Matrix.from_rows(vectors))[1]) if vectors else 0


def naive_derivations(c, v):
    """Derivations and the reduced inner basis of a two-action module, from
    the equivariance and Leibniz equations on the entries of D.

    D is a vdim x dim matrix with beta D = D alpha and, for both brackets,
    D[e_i, e_j] = e_i . D e_j - e_j . D e_i.  The inner derivations are the
    maps x -> x .1 z over the vectors z fixed by beta on which both actions
    agree; their basis is the reduced row basis.
    """
    dim, vdim = c.dim, v.vdim
    unknowns = vdim * dim  # D row-major

    def entry_index(r, col):
        return r * dim + col

    rows = []
    for r in range(vdim):
        for col in range(dim):
            row = [Fraction(0)] * unknowns
            for k in range(vdim):
                row[entry_index(k, col)] += v.beta.entry(r, k)
            for k in range(dim):
                row[entry_index(r, k)] -= c.alpha.entry(k, col)
            rows.append(row)
    for b in (1, 2):
        for (i, j) in increasing_tuples(dim, 2):
            cij = naive_bracket(c, b, basis_vector(dim, i), basis_vector(dim, j))
            ai, aj = v.actions[b - 1][i], v.actions[b - 1][j]
            for r in range(vdim):
                row = [Fraction(0)] * unknowns
                for k in range(dim):
                    row[entry_index(r, k)] += cij[k]
                for k in range(vdim):
                    row[entry_index(k, j)] -= ai.entry(r, k)
                    row[entry_index(k, i)] += aj.entry(r, k)
                rows.append(row)
    derivations = [Cochain.from_flat(1, dim, vdim, w) for w in naive_kernel(Matrix.from_rows(rows))]
    fixed_rows = []
    for r in range(vdim):
        fixed_rows.append([v.beta.entry(r, k) - (1 if r == k else 0) for k in range(vdim)])
    for i in range(dim):
        for r in range(vdim):
            fixed_rows.append([v.actions[0][i].entry(r, k) - v.actions[1][i].entry(r, k)
                               for k in range(vdim)])
    inner_flat = []
    for z in naive_kernel(Matrix.from_rows(fixed_rows)):
        cols = [naive_apply(dense(v.actions[0][i]), z) for i in range(dim)]
        flat = Matrix.from_columns(cols, vdim).entries
        if not vec_is_zero(flat):
            inner_flat.append(flat)
    inner = []
    if inner_flat:
        reduced, pivots = naive_rref(Matrix.from_rows(inner_flat))
        inner = [Cochain.from_flat(1, dim, vdim, reduced.row(r)) for r in range(len(pivots))]
    return derivations, inner


def naive_jacobiator_defects(alg: HomLieAlgebra):
    """Cyclic Jacobi defects on all basis triples, by direct evaluation."""
    out = []
    d = alg.dim
    for (i, j, k) in increasing_tuples(d, 3):
        total = zero_vector(d)
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            inner = naive_bracket(alg, basis_vector(d, a), basis_vector(d, b))
            total = vec_add(total, naive_bracket(alg, inner, alg.alpha.col(c)))
        out.append(((i, j, k), total))
    return out


def perm_sign(perm) -> int:
    inversions = sum(
        1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def naive_nr_diamond(p: Cochain, q: Cochain, alpha: Matrix) -> Cochain:
    """Insertion product by filtering all permutations for the shuffle shape."""
    d = p.source_dim
    m = p.arity - 1
    n = q.arity - 1
    r = m + n + 1
    alpha_n = alpha.power(n)
    columns = []
    for X in increasing_tuples(d, r):
        args = [basis_vector(d, x) for x in X]
        total = zero_vector(d)
        for perm in itertools.permutations(range(r)):
            head, tail = perm[: n + 1], perm[n + 1 :]
            if any(head[a] > head[a + 1] for a in range(len(head) - 1)):
                continue
            if any(tail[a] > tail[a + 1] for a in range(len(tail) - 1)):
                continue
            inner = naive_evaluate(q, [args[t] for t in head])
            rest = [naive_apply(dense(alpha_n), args[t]) for t in tail]
            value = naive_evaluate(p, [inner] + rest)
            total = vec_add(total, vec_scale(Fraction(perm_sign(perm)), value))
        columns.append(total)
    return Cochain(r, d, d, Matrix.from_columns(columns, d))


def naive_nr_bracket(p: Cochain, q: Cochain, alpha: Matrix) -> Cochain:
    m = p.arity - 1
    n = q.arity - 1
    first = naive_nr_diamond(p, q, alpha)
    second = naive_nr_diamond(q, p, alpha)
    if (m * n) % 2:
        return first + second
    return first - second


def naive_act(v, which: int, x, vec) -> tuple:
    """x . vec one basis element at a time: the sum of x_i rho(e_i) vec."""
    out = zero_vector(v.vdim)
    for xi, m in zip(x, v.actions[which - 1]):
        out = vec_add(out, vec_scale(xi, naive_apply(dense(m), vec)))
    return out


def naive_coboundary(dim: int, alpha: Matrix, bracket: Cochain, v, which: int, f):
    """Single-bracket coboundary evaluated column by column from the defining
    formula, with the bracket term through the alternating extension of f."""
    if f.arity == 0:
        cols = [naive_act(v, which, basis_vector(dim, i), f.flatten()) for i in range(dim)]
        return Cochain(1, dim, v.vdim, Matrix.from_columns(cols, v.vdim))
    n = f.arity
    alpha_prev = alpha.power(n - 1)
    columns = []
    for X in increasing_tuples(dim, n + 1):
        total = zero_vector(v.vdim)
        for pos in range(n + 1):
            inner = f.column(X[:pos] + X[pos + 1 :])
            term = naive_act(v, which, alpha_prev.col(X[pos]), inner)
            total = vec_add(total, term) if pos % 2 == 0 else vec_sub(total, term)
        for pi in range(n + 1):
            for pj in range(pi + 1, n + 1):
                first = bracket.column((X[pi], X[pj]))
                rest = [alpha.col(X[k]) for k in range(n + 1) if k not in (pi, pj)]
                term = naive_evaluate(f, [first] + rest)
                total = vec_add(total, term) if (pi + pj) % 2 == 0 else vec_sub(total, term)
        columns.append(total)
    return Cochain(n + 1, dim, v.vdim, Matrix.from_columns(columns, v.vdim))


def naive_beta_fixed_basis(beta: Matrix):
    """The degree-0 cochain basis by its own formula: the kernel basis of
    beta - 1, without the arity-0 compound."""
    return kernel_basis(beta - Matrix.identity(beta.rows))


def naive_in_c0_compatible(c, v, vector) -> bool:
    """Membership in the degree-0 group of the two-bracket complex, one basis
    element at a time: beta fixes the vector and both actions agree on it."""
    if naive_apply(dense(v.beta), vector) != vector:
        return False
    return all(naive_apply(dense(v.actions[0][i]), vector)
               == naive_apply(dense(v.actions[1][i]), vector)
               for i in range(c.dim))


def naive_compatible_coboundary(c, v, f: CompatibleCochain) -> CompatibleCochain:
    """(d1 f_1, ..., d1 f_i + d2 f_(i-1), ..., d2 f_n) from the naive single coboundaries."""
    def d(which, comp):
        return naive_coboundary(c.dim, c.alpha, c.bracket_cochain(which), v, which, comp)

    if f.degree == 0:
        return CompatibleCochain(1, (d(1, f.components[0]),))
    d1 = [d(1, comp) for comp in f.components]
    d2 = [d(2, comp) for comp in f.components]
    parts = [d1[0]] + [d1[i] + d2[i - 1] for i in range(1, f.degree)] + [d2[-1]]
    return CompatibleCochain(f.degree + 1, tuple(parts))


def _naive_bracket_sum(left, right, n: int, alpha: Matrix) -> Cochain:
    """sum_(i+j=n, i,j>=1) [left_i, right_j] over every ordered pair, by
    `naive_nr_bracket`."""
    d = left[0].source_dim
    total = Cochain.zero(3, d, d)
    for i in range(1, n):
        total = total + naive_nr_bracket(left[i], right[n - i], alpha)
    return total


def naive_order_residuals(d) -> tuple:
    """The per-order residuals (r1_n, r2_n, r3_n) of an order-p deformation:
    the naive two-bracket coboundary of (m1_n, m2_n) minus the naive
    bracket sums over i + j = n with i, j >= 1."""
    c, half = d.base, Fraction(1, 2)
    rep = adjoint_representation(c)
    out = []
    for n in range(d.order + 1):
        first, mixed, second = naive_compatible_coboundary(
            c, rep, CompatibleCochain(2, (d.coeffs1[n], d.coeffs2[n]))).components
        out.append((
            first - _naive_bracket_sum(d.coeffs1, d.coeffs1, n, c.alpha).scale(half),
            second - _naive_bracket_sum(d.coeffs2, d.coeffs2, n, c.alpha).scale(half),
            mixed - _naive_bracket_sum(d.coeffs1, d.coeffs2, n, c.alpha),
        ))
    return tuple(out)


def naive_obstruction(d) -> CompatibleCochain:
    """(1/2 sum [m1_i, m1_j], sum [m1_i, m2_j], 1/2 sum [m2_i, m2_j]) over
    i + j = p + 1 with i, j >= 1, by `naive_nr_bracket`."""
    n, alpha, half = d.order + 1, d.base.alpha, Fraction(1, 2)
    return CompatibleCochain(3, (
        _naive_bracket_sum(d.coeffs1, d.coeffs1, n, alpha).scale(half),
        _naive_bracket_sum(d.coeffs1, d.coeffs2, n, alpha),
        _naive_bracket_sum(d.coeffs2, d.coeffs2, n, alpha).scale(half),
    ))


def naive_generator_residuals(c, g) -> tuple:
    """([m1,w1], [m2,w2], [m1,w2] + [m2,w1], [w1,w1], [w2,w2], [w1,w2]) by
    `naive_nr_bracket`."""
    alpha, w1, w2 = c.alpha, g.omega1, g.omega2
    m1, m2 = c.bracket_cochain(1), c.bracket_cochain(2)
    return (
        naive_nr_bracket(m1, w1, alpha),
        naive_nr_bracket(m2, w2, alpha),
        naive_nr_bracket(m1, w2, alpha) + naive_nr_bracket(m2, w1, alpha),
        naive_nr_bracket(w1, w1, alpha),
        naive_nr_bracket(w2, w2, alpha),
        naive_nr_bracket(w1, w2, alpha),
    )


def naive_representation_checks(v):
    """The representation identities on every basis vector of the module,
    one action at a time, in the report order of verify_structure."""
    base = v.base
    dim = base.dim
    pos = tuple_position(dim, 2)

    def bracket_col(bracket, i, j):
        return bracket.col(pos[(i, j)])

    checks = []
    labels = [""] if len(v.actions) == 1 else ["[1]", "[2]"]
    for which0, label in enumerate(labels):
        b = which0 + 1
        bracket = base.brackets[which0]
        twist_witnesses = []
        module_witnesses = []
        for i in range(dim):
            for a in range(v.vdim):
                va = basis_vector(v.vdim, a)
                lhs = naive_apply(dense(v.beta), naive_act(v, b, basis_vector(dim, i), va))
                rhs = naive_act(v, b, base.alpha.col(i), naive_apply(dense(v.beta), va))
                defect = vec_sub(lhs, rhs)
                if not vec_is_zero(defect):
                    twist_witnesses.append(((i, a), defect))
        for (i, j) in increasing_tuples(dim, 2):
            for a in range(v.vdim):
                va = basis_vector(v.vdim, a)
                ei = basis_vector(dim, i)
                ej = basis_vector(dim, j)
                lhs = naive_act(v, b, bracket_col(bracket, i, j), naive_apply(dense(v.beta), va))
                rhs = vec_sub(
                    naive_act(v, b, base.alpha.col(i), naive_act(v, b, ej, va)),
                    naive_act(v, b, base.alpha.col(j), naive_act(v, b, ei, va)),
                )
                defect = vec_sub(lhs, rhs)
                if not vec_is_zero(defect):
                    module_witnesses.append(((i, j, a), defect))
        checks.append(CheckResult(f"action_twist{label}", tuple(twist_witnesses)))
        checks.append(CheckResult(f"action_module{label}", tuple(module_witnesses)))
    if len(v.actions) == 2:
        witnesses = []
        for (i, j) in increasing_tuples(dim, 2):
            for a in range(v.vdim):
                va = basis_vector(v.vdim, a)
                ei = basis_vector(dim, i)
                ej = basis_vector(dim, j)
                ai = base.alpha.col(i)
                aj = base.alpha.col(j)
                beta_va = naive_apply(dense(v.beta), va)
                lhs = vec_add(
                    naive_act(v, 2, bracket_col(base.bracket1, i, j), beta_va),
                    naive_act(v, 1, bracket_col(base.bracket2, i, j), beta_va),
                )
                rhs = vec_sub(naive_act(v, 1, ai, naive_act(v, 2, ej, va)),
                              naive_act(v, 2, aj, naive_act(v, 1, ei, va)))
                rhs = vec_add(rhs, vec_sub(naive_act(v, 2, ai, naive_act(v, 1, ej, va)),
                                           naive_act(v, 1, aj, naive_act(v, 2, ei, va))))
                defect = vec_sub(lhs, rhs)
                if not vec_is_zero(defect):
                    witnesses.append(((i, j, a), defect))
        checks.append(CheckResult("action_mixed", tuple(witnesses)))
    return checks


def _labels(count):
    return [""] if count == 1 else [f"[{b}]" for b in range(1, count + 1)]


def _witness_check(name, tuples, defect_of):
    witnesses = []
    for t in tuples:
        defect = defect_of(*t)
        if not vec_is_zero(defect):
            witnesses.append((t, defect))
    return CheckResult(name, tuple(witnesses))


def naive_algebra_checks(s):
    """Multiplicativity, the twisted Jacobi identity and (for two brackets)
    the six-term compatibility identity, one basis pair or triple at a time
    by direct bracket evaluation, in the report order of verify_structure."""
    d, alpha = s.dim, s.alpha
    parts = [HomLieAlgebra(d, alpha, b) for b in s.brackets]
    labels = _labels(len(parts))

    def e(i):
        return basis_vector(d, i)

    def jacobiator(outer, inner, i, j, k):
        # [[e_a, e_b]_inner, alpha e_c]_outer, summed cyclically
        total = zero_vector(d)
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            total = vec_add(total, naive_bracket(outer, naive_bracket(inner, e(a), e(b)),
                                                 alpha.col(c)))
        return total

    checks = []
    for label, part in zip(labels, parts):
        checks.append(_witness_check(
            f"multiplicativity{label}", increasing_tuples(d, 2),
            lambda i, j, part=part: vec_sub(
                naive_apply(dense(alpha), naive_bracket(part, e(i), e(j))),
                naive_bracket(part, alpha.col(i), alpha.col(j)))))
    for label, part in zip(labels, parts):
        checks.append(_witness_check(
            f"hom_jacobi{label}", increasing_tuples(d, 3),
            lambda i, j, k, part=part: jacobiator(part, part, i, j, k)))
    if len(parts) == 2:
        p1, p2 = parts
        checks.append(_witness_check(
            "compatibility", increasing_tuples(d, 3),
            lambda i, j, k: vec_add(jacobiator(p2, p1, i, j, k), jacobiator(p1, p2, i, j, k))))
    return checks


def naive_induced_bracket(s, op):
    """Coefficient matrices of [x,y]_N = [Nx,y] + [x,Ny] - N[x,y] (Nijenhuis)
    or [x,y]_R = [Rx,y] + [x,Ry] + weight [x,y] (Rota-Baxter), one basis pair
    at a time, for each bracket of s."""
    d, n = s.dim, op.matrix
    out = []
    for bracket in s.brackets:
        part = HomLieAlgebra(d, s.alpha, bracket)
        columns = []
        for (i, j) in increasing_tuples(d, 2):
            ei, ej = basis_vector(d, i), basis_vector(d, j)
            col = vec_add(naive_bracket(part, n.col(i), ej), naive_bracket(part, ei, n.col(j)))
            base = naive_bracket(part, ei, ej)
            if op.weight is None:
                col = vec_sub(col, naive_apply(dense(n), base))
            else:
                col = vec_add(col, vec_scale(op.weight, base))
            columns.append(col)
        out.append(Matrix.from_columns(columns, d))
    return out


def naive_operator_checks(s, op, label=""):
    """Twist commutation on each basis vector and the operator identity
    [Nx,Ny] = N [x,y]_N on each basis pair, in the report order of
    verify_operator."""
    d, n = s.dim, op.matrix
    name = "rota_baxter_identity" if op.weight is not None else "nijenhuis_identity"
    checks = [_witness_check(
        f"twist_commutation{label}", increasing_tuples(d, 1),
        lambda i: vec_sub(naive_apply(dense(s.alpha), n.col(i)),
                          naive_apply(dense(n), s.alpha.col(i))))]
    for blabel, bracket in zip(_labels(len(s.brackets)), s.brackets):
        part = HomLieAlgebra(d, s.alpha, bracket)
        induced = HomLieAlgebra(d, s.alpha, naive_induced_bracket(part, op)[0])
        checks.append(_witness_check(
            f"{name}{blabel}{label}", increasing_tuples(d, 2),
            lambda i, j, part=part, induced=induced: vec_sub(
                naive_bracket(part, n.col(i), n.col(j)),
                naive_apply(dense(n), naive_bracket(induced, basis_vector(d, i),
                                                    basis_vector(d, j))))))
    return checks


def naive_rb_pair_compatibility(l, r, s):
    """[Rx,Sy] + [Sx,Ry] - R([Sx,y] + [x,Sy]) - S([Rx,y] + [x,Ry]) on each basis pair."""
    d = l.dim
    rm, sm = r.matrix, s.matrix

    def defect(i, j):
        ei, ej = basis_vector(d, i), basis_vector(d, j)
        lhs = vec_add(naive_bracket(l, rm.col(i), sm.col(j)),
                      naive_bracket(l, sm.col(i), rm.col(j)))
        rhs = vec_add(
            naive_apply(dense(rm), vec_add(naive_bracket(l, sm.col(i), ej),
                                           naive_bracket(l, ei, sm.col(j)))),
            naive_apply(dense(sm), vec_add(naive_bracket(l, rm.col(i), ej),
                                           naive_bracket(l, ei, rm.col(j)))),
        )
        return vec_sub(lhs, rhs)

    return _witness_check("pair_compatibility", increasing_tuples(d, 2), defect)


def naive_linear_equivalence_checks(c, g, g_prime, n):
    """The order-1, order-2 and order-3 identities of id + tN on each basis
    pair, evaluating the generators by alternating extension, in the report
    order of check_linear_equivalence."""
    d = c.dim
    checks = []
    for b in (1, 2):
        omega = (g.omega1, g.omega2)[b - 1]
        omega_p = (g_prime.omega1, g_prime.omega2)[b - 1]

        def bracket(u, v, b=b):
            return naive_bracket(c, b, u, v)

        def order1(i, j, omega=omega, omega_p=omega_p, bracket=bracket):
            ei, ej = basis_vector(d, i), basis_vector(d, j)
            shift = vec_sub(vec_add(bracket(ei, n.col(j)), bracket(n.col(i), ej)),
                            naive_apply(dense(n), bracket(ei, ej)))
            return vec_sub(vec_sub(omega.column((i, j)), omega_p.column((i, j))), shift)

        def order2(i, j, omega=omega, omega_p=omega_p, bracket=bracket):
            ei, ej = basis_vector(d, i), basis_vector(d, j)
            rhs = vec_add(vec_add(naive_evaluate(omega_p, [ei, n.col(j)]),
                                  naive_evaluate(omega_p, [n.col(i), ej])),
                          bracket(n.col(i), n.col(j)))
            return vec_sub(naive_apply(dense(n), omega.column((i, j))), rhs)

        def order3(i, j, omega_p=omega_p):
            return naive_evaluate(omega_p, [n.col(i), n.col(j)])

        pairs = increasing_tuples(d, 2)
        checks.append(_witness_check(f"order1_identity[{b}]", pairs, order1))
        checks.append(_witness_check(f"order2_identity[{b}]", pairs, order2))
        checks.append(_witness_check(f"order3_identity[{b}]", pairs, order3))
    return checks


def naive_exterior_power(alpha: Matrix, n: int) -> Matrix:
    """The compound matrix of all n x n minors of a square matrix, one
    determinant per pair of increasing n-tuples."""
    tuples = increasing_tuples(alpha.rows, n)
    return Matrix.from_rows([
        [naive_determinant([[alpha.entry(i, j) for j in J] for i in I]) for J in tuples]
        for I in tuples
    ])


def naive_extension_validation(base, fiber_dim, fiber_beta, total, inclusion, projection,
                               splitting):
    """The validation of an abelian extension with every bracket identity
    checked one basis pair at a time; raises PreconditionError with the
    first failing condition, in the order of `AbelianExtension`."""
    g, v = base.dim, fiber_dim
    i, j, s = inclusion, projection, splitting
    if not (j @ i).is_zero():
        raise PreconditionError("projection does not annihilate the fiber")
    if (j @ s) != Matrix.identity(g):
        raise PreconditionError("splitting is not a section of the projection")
    if rank(i) != v:
        raise PreconditionError("inclusion is not injective")
    if rank(j) != g:
        raise PreconditionError("projection is not surjective")
    if (total.alpha @ s) != (s @ base.alpha):
        raise PreconditionError("splitting does not intertwine the twists")
    if (total.alpha @ i) != (i @ fiber_beta):
        raise PreconditionError("inclusion does not intertwine the twists")
    if (base.alpha @ j) != (j @ total.alpha):
        raise PreconditionError("projection does not intertwine the twists")
    for b in (1, 2):
        for (a, c) in increasing_tuples(v, 2):
            if not vec_is_zero(naive_bracket(total, b, i.col(a), i.col(c))):
                raise PreconditionError("fiber is not abelian inside the total algebra")
        for p in range(total.dim):
            for q in range(p + 1, total.dim):
                lhs = naive_apply(dense(j), naive_bracket(total, b, basis_vector(total.dim, p),
                                                          basis_vector(total.dim, q)))
                if lhs != naive_bracket(base, b, j.col(p), j.col(q)):
                    raise PreconditionError("projection is not a bracket morphism")
    if not verify_structure(total).passed:
        raise PreconditionError("total structure fails verification")
    if not verify_structure(base).passed:
        raise PreconditionError("base structure fails verification")


def naive_extract_cocycle(e):
    """The induced representation and cocycle of an extension, each value
    read by one solve in the inclusion: x ._b w from [s(x), i(w)]_b and
    f_b(x, y) from [s(x), s(y)]_b - s([x, y]_b)."""
    g, v = e.base.dim, e.fiber_dim

    def fiber(w):
        u = solve(e.inclusion, w)
        assert u is not None, "vector outside the fiber"
        return u

    tables, cochains = [], []
    for b in (1, 2):
        tables.append(tuple(
            Matrix.from_columns([fiber(naive_bracket(e.total, b, e.splitting.col(p),
                                                     e.inclusion.col(a)))
                                 for a in range(v)], v)
            for p in range(g)
        ))
        columns = []
        for (p, q) in increasing_tuples(g, 2):
            w = vec_sub(
                naive_bracket(e.total, b, e.splitting.col(p), e.splitting.col(q)),
                naive_apply(dense(e.splitting),
                            naive_bracket(e.base, b, basis_vector(g, p), basis_vector(g, q))),
            )
            columns.append(fiber(w))
        cochains.append(Cochain(2, g, v, Matrix.from_columns(columns, v)))
    return Representation(e.base, v, e.fiber_beta, tuple(tables)), ExtensionCocycle(*cochains)
