"""Finite-dimensional Hom-Lie algebras presented by structure constants.

An algebra of dimension d keeps its bracket as a d x C(d,2) matrix whose
column for the pair (i < j) is the coordinate vector of [e_i, e_j]; values
for i > j follow by skew-symmetry and the diagonal is zero by construction,
so skewness can never be violated by input data.

Validity is deliberately not a type invariant.  ``verify_structure`` and
``verify_operator`` report every defining identity with explicit
witnesses, so that defective inputs are diagnosed rather than rejected.
Objects are immutable, so each report is computed once per object and the
adjoint module, the twist compounds by arity and a compatible structure's
order-0 deformation once per structure, all kept on the object.  The one gate,
``require_valid``, raises PreconditionError with a failing report.
Each identity is one matrix identity in the Nijenhuis-Richardson graded
Lie algebra of `cochains`, with mu the bracket cochain, L2(M) the compound
of 2 x 2 minors and <> the insertion product:

    multiplicativity   alpha . mu = mu . L2(alpha)
    twisted Jacobi     mu <> mu = 1/2 [mu, mu] = 0
    compatibility      [mu1, mu2] = 0
    Nijenhuis          mu . L2(N) = N . [mu, N],  where [x,y]_N = [mu, N]
    Rota-Baxter        mu . L2(R) = R . (mu <> R + weight mu)

The defect matrix has one column per increasing basis tuple in
lexicographic order, and its nonzero columns are the witnesses.  A
representation is read through A_b = [rho_b(e_0) | ... | rho_b(e_(d-1))],
so that rho_b(x) = A_b . (x (x) 1), and each of its identities is one block
product with one vdim-wide block of columns per basis element or pair:

    twist              beta . A_b - A_b . (alpha (x) beta)
    module             A_b . N_b
    mixed              A_1 . N_2 + A_2 . N_1

where, with E_j the d x C(d,2) incidence of e_i -> e_j ^ e_i,

    N_b = kron(mu_b, beta) + sum_j kron(alpha . E_j, rho_b(e_j)):

block (l, k) of N_b, for the k-th pair (i < j), is
mu_b[l, k] beta - alpha[l, i] rho_b(e_j) + alpha[l, j] rho_b(e_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .cochains import (
    Cochain,
    _Compounds,
    exterior_square,
    increasing_tuples,
    insertion_matrix,
    lift_to_product,
    transposed_incidence,
    tuple_position,
    wedge_incidence,
)
from .errors import PreconditionError, UsageError, _require_kind
from .linalg import (
    Matrix,
    frac,
    hstack,
    kron_sum,
    product_sum,
)


class _Algebra:
    """The caches of `verify_structure` and `adjoint_representation`, and
    the twist's compounds by arity that every equivariance check on the
    structure reads (`cochains.require_equivariant`), kept on the instance
    outside the fields."""

    @cached_property
    def _report(self) -> "ValidationReport":
        return ValidationReport(tuple(_algebra_checks(self)))

    @cached_property
    def _adjoint(self) -> "Representation":
        return _adjoint_module(self)

    @cached_property
    def _compounds(self) -> _Compounds:
        return _Compounds(self.alpha)


@dataclass(frozen=True)
class HomLieAlgebra(_Algebra):
    dim: int
    alpha: Matrix
    bracket: Matrix  # dim x C(dim, 2), column (i < j) = [e_i, e_j]

    def __post_init__(self):
        _check_twist(self.alpha, self.dim)
        _check_bracket_matrix(self.bracket, self.dim)

    @classmethod
    def from_brackets(cls, dim: int, alpha: Matrix, brackets: dict) -> "HomLieAlgebra":
        """Build from a sparse {(i, j): value vector} table with i < j."""
        return cls(dim, alpha, Cochain.from_values(2, dim, dim, brackets).coeffs)

    def bracket_cochain(self) -> Cochain:
        return Cochain(2, self.dim, self.dim, self.bracket)

    def bracket_of(self, u, v) -> tuple:
        return self.bracket_cochain().evaluate((u, v))

    @property
    def brackets(self):
        return (self.bracket,)


@dataclass(frozen=True)
class CompatibleHomLieAlgebra(_Algebra):
    """One carrier and twist, two brackets."""

    dim: int
    alpha: Matrix
    bracket1: Matrix
    bracket2: Matrix

    def __post_init__(self):
        _check_twist(self.alpha, self.dim)
        _check_bracket_matrix(self.bracket1, self.dim)
        _check_bracket_matrix(self.bracket2, self.dim)

    @classmethod
    def from_brackets(cls, dim: int, alpha: Matrix, brackets1: dict, brackets2: dict):
        return cls(dim, alpha, *(Cochain.from_values(2, dim, dim, b).coeffs
                                 for b in (brackets1, brackets2)))

    def part(self, which: int) -> HomLieAlgebra:
        """The underlying single-bracket algebra (which = 1 or 2)."""
        return HomLieAlgebra(self.dim, self.alpha, self._bracket(which))

    def bracket_cochain(self, which: int) -> Cochain:
        return Cochain(2, self.dim, self.dim, self._bracket(which))

    def bracket_of(self, which: int, u, v) -> tuple:
        return self.bracket_cochain(which).evaluate((u, v))

    @property
    def brackets(self):
        return (self.bracket1, self.bracket2)

    @cached_property
    def _order0(self):
        """The order-0 deformation of the two brackets, which the
        deformation of every linear generator extends."""
        from .deformations import OrderPDeformation  # the module builds on this one

        return OrderPDeformation(self, (self.bracket_cochain(1),), (self.bracket_cochain(2),))

    def _bracket(self, which: int) -> Matrix:
        if which == 1:
            return self.bracket1
        if which == 2:
            return self.bracket2
        raise UsageError("bracket index must be 1 or 2")


@dataclass(frozen=True)
class Representation:
    """A module over a (compatible) Hom-Lie algebra.

    ``actions`` holds one table per bracket of the base; table entry i is the
    vdim x vdim matrix of the action of the basis element e_i.
    """

    base: object
    vdim: int
    beta: Matrix
    actions: tuple  # tuple of tables; table = tuple of Matrix, one per basis element

    def __post_init__(self):
        if self.beta.rows != self.vdim or self.beta.cols != self.vdim:
            raise UsageError("beta must be vdim x vdim")
        expected = len(self.base.brackets)
        if len(self.actions) != expected:
            raise UsageError(f"need {expected} action table(s), got {len(self.actions)}")
        for table in self.actions:
            if len(table) != self.base.dim:
                raise UsageError("action table must have one matrix per basis element")
            for a in table:
                if a.rows != self.vdim or a.cols != self.vdim:
                    raise UsageError("action matrices must be vdim x vdim")

    @cached_property
    def _report(self) -> "ValidationReport":
        return ValidationReport(tuple(_representation_checks(self)))

    @cached_property
    def _complex(self):
        from .cohomology import _Complex  # built per degree on first use

        return _Complex(self)

    def part(self, which: int) -> "Representation":
        """Single-action representation over the corresponding bracket."""
        if len(self.actions) == 1:
            if which != 1:
                raise UsageError("plain representation has a single action")
            return self
        return Representation(self.base.part(which), self.vdim, self.beta,
                              (self.actions[which - 1],))


NIJENHUIS = "nijenhuis"
ROTA_BAXTER = "rota_baxter"


@dataclass(frozen=True)
class LinearOperator:
    """An endomorphism of the algebra carrier with a declared kind."""

    matrix: Matrix
    kind: str
    weight: Fraction | None = None

    def __post_init__(self):
        if self.kind not in (NIJENHUIS, ROTA_BAXTER):
            raise UsageError(f"unknown operator kind {self.kind!r}")
        if self.kind == ROTA_BAXTER and self.weight is None:
            raise UsageError("a Rota-Baxter operator needs a weight")
        if self.kind == NIJENHUIS and self.weight is not None:
            raise UsageError("a Nijenhuis operator has no weight")
        if not self.matrix.is_square():
            raise UsageError("operator matrix must be square")


@dataclass(frozen=True)
class CheckResult:
    name: str
    witnesses: tuple  # ((basis indices...), defect vector) in lexicographic order

    @property
    def passed(self) -> bool:
        return not self.witnesses

    @classmethod
    def from_columns(cls, name: str, defect: Matrix, arity: int) -> "CheckResult":
        """The check whose witnesses are the nonzero columns of a d x C(d, arity)
        defect matrix, column k labelled by the k-th increasing arity-tuple."""
        tuples = increasing_tuples(defect.rows, arity)
        columns = defect.transpose()
        return cls(name, tuple((tuples[k], columns.row(k))
                               for k in range(columns.rows) if columns.row_items(k)))

    @classmethod
    def from_blocks(cls, name: str, defect: Matrix, dim: int, arity: int,
                    width: int) -> "CheckResult":
        """The check whose witnesses are the nonzero columns of a defect matrix
        with one block of `width` columns per increasing arity-tuple of
        range(dim), column k width + a labelled by the k-th tuple followed by a."""
        tuples = increasing_tuples(dim, arity)
        columns = defect.transpose()
        return cls(name, tuple((tuples[c // width] + (c % width,), columns.row(c))
                               for c in range(columns.rows) if columns.row_items(c)))


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @cached_property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else f"FAIL ({len(c.witnesses)} witnesses)"
            lines.append(f"{c.name}: {status}")
        return "\n".join(lines)


def _check_twist(alpha: Matrix, dim: int):
    if alpha.rows != dim or alpha.cols != dim:
        raise UsageError("twist must be dim x dim")


def _check_bracket_matrix(bracket: Matrix, dim: int):
    if bracket.rows != dim or bracket.cols != comb(dim, 2):
        raise UsageError("bracket matrix must be dim x C(dim, 2)")


def _labels(count: int):
    if count == 1:
        return [""]
    return [f"[{b}]" for b in range(1, count + 1)]


def verify_structure(s) -> ValidationReport:
    """Evaluate every defining identity of s on all basis tuples.

    Failing checks carry all violating tuples together with the nonzero
    defect vector, in lexicographic tuple order.  Invalid structures yield
    failing reports, never exceptions.  Computed once per object and kept on it.
    """
    _require_kind(s, (_Algebra, Representation), "verify")
    return s._report


def require_valid(s, message: str):
    """Raise PreconditionError(message, report) unless s passes
    `verify_structure`: the gate of every result stated for valid inputs."""
    report = verify_structure(s)
    if not report.passed:
        raise PreconditionError(message, report)


def _algebra_checks(s):
    alpha = s.alpha
    mus = [Cochain(2, s.dim, s.dim, bracket) for bracket in s.brackets]
    labels = _labels(len(mus))
    square = exterior_square(alpha)
    checks = [
        CheckResult.from_columns(f"multiplicativity{label}", product_sum(
            [(alpha, mu.coeffs), (-mu.coeffs, square)], s.dim, square.cols), 2)
        for label, mu in zip(labels, mus)
    ]
    # One insertion matrix K_b per bracket: mu_b <> mu_b = mu_b . K_b, and
    # in arity 2 [mu_1, mu_2] = mu_1 . K_2 + mu_2 . K_1.
    ks = [insertion_matrix(mu, s._compounds, 2) for mu in mus]
    checks += [
        CheckResult.from_columns(f"hom_jacobi{label}", mu.coeffs @ k, 3)
        for label, mu, k in zip(labels, mus, ks)
    ]
    if len(mus) == 2:
        (m1, m2), (k1, k2) = mus, ks
        checks.append(CheckResult.from_columns("compatibility", product_sum(
            [(m1.coeffs, k2), (m2.coeffs, k1)], s.dim, k1.cols), 3))
    return checks


def _representation_checks(v: Representation):
    # One block product per identity, as in the module docstring.
    base, vdim = v.base, v.vdim
    dim = base.dim
    # A_b = [rho_b(e_0) | ... | rho_b(e_(d-1))], vdim x d vdim.
    blocks = [hstack(table) if table else Matrix.zero(vdim, 0) for table in v.actions]
    pairs = [_pair_blocks(base.alpha, bracket, table, v.beta)
             for bracket, table in zip(base.brackets, v.actions)]
    twist = kron_sum([(base.alpha, v.beta)], dim * vdim, dim * vdim)
    checks = []
    for label, a, n in zip(_labels(len(blocks)), blocks, pairs):
        checks.append(CheckResult.from_blocks(f"action_twist{label}", product_sum(
            [(v.beta, a), (-a, twist)], vdim, dim * vdim), dim, 1, vdim))
        checks.append(CheckResult.from_blocks(f"action_module{label}", a @ n, dim, 2, vdim))
    if len(blocks) == 2:
        (a1, a2), (n1, n2) = blocks, pairs
        checks.append(CheckResult.from_blocks("action_mixed", product_sum(
            [(a1, n2), (a2, n1)], vdim, n1.cols), dim, 2, vdim))
    return checks


def _pair_blocks(alpha: Matrix, bracket: Matrix, table, beta: Matrix) -> Matrix:
    """N = kron(mu, beta) + sum_j kron(alpha . E_j, rho(e_j)) as one
    `kron_sum`, d vdim x C(d,2) vdim, with E_j the d x C(d,2) incidence of
    e_i -> e_j ^ e_i.  Block (l, k) for the k-th pair (i < j) is
    mu[l, k] beta - alpha[l, i] rho(e_j) + alpha[l, j] rho(e_i), so that
    A . N stacks rho([e_i, e_j]) beta - rho(alpha e_i) rho(e_j)
    + rho(alpha e_j) rho(e_i) over the pairs."""
    dim, vdim = alpha.rows, beta.rows
    terms = [(bracket, beta)]
    terms += [(alpha @ e, rho) for e, rho in zip(wedge_incidence(dim, 1), table)]
    return kron_sum(terms, dim * vdim, bracket.cols * vdim)


def adjoint_representation(s) -> Representation:
    """The algebra acting on itself by its own bracket(s):
    ad(e_i) = mu . E_i^T, with E_i the incidence of e_j -> e_i ^ e_j.
    Built once per structure, so every caller shares its report."""
    _require_kind(s, _Algebra, "take the adjoint module of")
    return s._adjoint


def _adjoint_module(s) -> Representation:
    incidences = transposed_incidence(s.dim, 1)
    tables = tuple(tuple(bracket @ e for e in incidences) for bracket in s.brackets)
    return Representation(s, s.dim, s.alpha, tables)


def sum_bracket(c: CompatibleHomLieAlgebra, lam, eta) -> HomLieAlgebra:
    """The single bracket lam*[.,.]_1 + eta*[.,.]_2 on the same carrier and twist."""
    _require_kind(c, CompatibleHomLieAlgebra, "sum the brackets of")
    lam = frac(lam)
    eta = frac(eta)
    return HomLieAlgebra(c.dim, c.alpha, c.bracket1.scale(lam) + c.bracket2.scale(eta))


def sum_representation(v: Representation, lam=1, eta=1) -> Representation:
    """The action lam*act_1 + eta*act_2, a representation of the sum-bracket algebra."""
    _require_kind(v, Representation, "sum the actions of")
    if len(v.actions) != 2:
        raise UsageError("sum representation needs a two-action representation")
    lam = frac(lam)
    eta = frac(eta)
    base = sum_bracket(v.base, lam, eta)
    table = tuple(
        a1.scale(lam) + a2.scale(eta) for a1, a2 in zip(v.actions[0], v.actions[1])
    )
    return Representation(base, v.vdim, v.beta, (table,))


def derived_structure(s, n: int):
    """Compose every bracket with the n-th twist power; the twist becomes alpha^(n+1)."""
    _require_kind(s, _Algebra, "derive")
    if n < 0:
        raise UsageError("derived structure needs n >= 0")
    alpha_n = s.alpha.power(n)
    return type(s)(s.dim, s.alpha.power(n + 1), *(alpha_n @ b for b in s.brackets))


def _semidirect_bracket(bracket: Matrix, action_table, g_dim: int, v_dim: int) -> Matrix:
    """[(x,u),(y,w)] = ([x,y], x.w - y.u) on the pair basis of g + V."""
    total = g_dim + v_dim
    pos, pairs = tuple_position(total, 2), increasing_tuples(g_dim, 2)
    entries = {(r, pos[pairs[k]]): x for r in range(g_dim) for k, x in bracket.row_items(r)}
    entries.update(((g_dim + r, pos[(i, g_dim + a)]), x) for i, rho in enumerate(action_table)
                   for r in range(v_dim) for a, x in rho.row_items(r))
    return Matrix.from_entries(total, comb(total, 2), entries)


def semidirect_product(c, v: Representation):
    """Structure of c's type on carrier + module, with brackets
    [(x,u),(y,w)]_i = ([x,y]_i, x._i w - y._i u) and twist alpha (+) beta."""
    require_valid(c, "invalid algebra for semidirect product")
    require_valid(v, "invalid representation for semidirect product")
    if v.base != c:
        raise UsageError("representation is not over the given algebra")
    brackets = (_semidirect_bracket(bracket, table, c.dim, v.vdim)
                for bracket, table in zip(c.brackets, v.actions))
    return type(c)(c.dim + v.vdim, c.alpha.block_diag(v.beta), *brackets)


def twisted_semidirect(l: HomLieAlgebra, v: Representation, f: Cochain) -> HomLieAlgebra:
    """Semidirect bracket shifted by a 2-cocycle f with values in the module:
    [(x,u),(y,w)] = ([x,y], x.w - y.u + f(x,y))."""
    from .cohomology import ce_coboundary

    _require_kind(l, HomLieAlgebra, "twist the semidirect product of")
    _require_kind(v, Representation, "take coefficients in")
    _require_kind(f, Cochain, "twist a semidirect product by")
    if f.arity != 2 or f.source_dim != l.dim or f.target_dim != v.vdim:
        raise UsageError("twisting cochain must be arity 2 from the algebra into the module")
    if not ce_coboundary(l, v, f).is_zero():
        raise PreconditionError("twisting cochain is not a 2-cocycle")
    twisted = (_semidirect_bracket(l.bracket, v.actions[0], l.dim, v.vdim)
               + lift_to_product(f, l.dim, v.vdim).coeffs)
    return HomLieAlgebra(l.dim + v.vdim, l.alpha.block_diag(v.beta), twisted)


def _operator_checks(s, op: LinearOperator, label: str = ""):
    """Twist commutation and the operator identity mu.L2(N) = N.(induced
    bracket), one defect matrix per bracket of the carrier; returned with
    the induced bracket matrices."""
    _require_kind(s, _Algebra, "check an operator on")
    _require_kind(op, LinearOperator, "read an operator from")
    n = op.matrix
    if n.rows != s.dim:
        raise UsageError("operator dimension mismatch")
    name = "nijenhuis_identity" if op.kind == NIJENHUIS else "rota_baxter_identity"
    checks = [CheckResult.from_columns(f"twist_commutation{label}", product_sum(
        [(s.alpha, n), (-n, s.alpha)], s.dim, s.dim), 1)]
    square = exterior_square(n)
    induced = [_induced_matrix(s, bracket, op) for bracket in s.brackets]
    for blabel, bracket, mat in zip(_labels(len(s.brackets)), s.brackets, induced):
        checks.append(CheckResult.from_columns(f"{name}{blabel}{label}", product_sum(
            [(bracket, square), (-n, mat)], s.dim, bracket.cols), 2))
    return checks, induced


def verify_operator(s, op: LinearOperator) -> ValidationReport:
    """Check twist commutation and the kind-specific identity on all basis
    pairs, for every bracket of the carrier."""
    return ValidationReport(tuple(_operator_checks(s, op)[0]))


def induced_bracket(l, op: LinearOperator):
    """The deformed bracket [x,y]_N = [Nx,y] + [x,Ny] - N[x,y] of a Nijenhuis
    operator, or [x,y]_R = [Rx,y] + [x,Ry] + weight*[x,y] of a Rota-Baxter
    operator, on the same carrier and twist.  Applied to each bracket of a
    compatible carrier."""
    checks, mats = _operator_checks(l, op)
    report = ValidationReport(tuple(checks))
    if not report.passed:
        raise PreconditionError("operator fails its defining identity", report)
    return type(l)(l.dim, l.alpha, *mats)


def _induced_matrix(s, bracket: Matrix, op: LinearOperator) -> Matrix:
    # [x,y]_N is the NR bracket [mu, N] = mu <> N - N <> mu, where N <> mu
    # is N . mu; [x,y]_R is mu <> R + weight * mu.  mu <> N is mu . K_N,
    # with K_N read off the structure's table.
    n = op.matrix
    k = insertion_matrix(Cochain(1, s.dim, s.dim, n), s._compounds, 2)
    if op.kind == NIJENHUIS:
        return product_sum([(bracket, k), (-n, bracket)], s.dim, bracket.cols)
    return bracket @ k + bracket.scale(op.weight)


def rb_pair(l: HomLieAlgebra, r: LinearOperator, s: LinearOperator):
    """Joint report for two Rota-Baxter operators of equal weight plus their
    pair-compatibility identity

        [Rx,Sy] + [Sx,Ry] = R([Sx,y] + [x,Sy]) + S([Rx,y] + [x,Ry]);

    when everything passes, also the compatible algebra formed by the two
    induced brackets."""
    _require_kind(l, HomLieAlgebra, "pair Rota-Baxter operators on")
    if r.kind != ROTA_BAXTER or s.kind != ROTA_BAXTER:
        raise UsageError("rb_pair needs two Rota-Baxter operators")
    if r.weight != s.weight:
        raise UsageError("Rota-Baxter operators must share the weight")
    r_checks, (r_induced,) = _operator_checks(l, r, label="[R]")
    s_checks, (s_induced,) = _operator_checks(l, s, label="[S]")
    checks = r_checks + s_checks
    rm, sm = r.matrix, s.matrix
    mixed = exterior_square(rm + sm) - exterior_square(rm) - exterior_square(sm)
    kr, ks = (insertion_matrix(Cochain(1, l.dim, l.dim, m), l._compounds, 2) for m in (rm, sm))
    defect = product_sum([(l.bracket, mixed), (-rm, l.bracket @ ks), (-sm, l.bracket @ kr)],
                         l.dim, l.bracket.cols)
    checks.append(CheckResult.from_columns("pair_compatibility", defect, 2))
    report = ValidationReport(tuple(checks))
    if not report.passed:
        return report, None
    return report, CompatibleHomLieAlgebra(l.dim, l.alpha, r_induced, s_induced)


def rb_companion(r: LinearOperator) -> LinearOperator:
    """-weight*id - R, a Rota-Baxter operator of the same weight whenever R is."""
    _require_kind(r, LinearOperator, "take the Rota-Baxter companion of")
    if r.kind != ROTA_BAXTER:
        raise UsageError("companion is defined for Rota-Baxter operators")
    n = r.matrix.rows
    return LinearOperator(
        Matrix.identity(n).scale(-r.weight) - r.matrix, ROTA_BAXTER, r.weight
    )
