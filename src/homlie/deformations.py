"""Linear, infinitesimal and finite-order deformations of a compatible pair.

A generator (w1, w2) deforms the brackets to ([.,.]_1 + t w1, [.,.]_2 + t w2).
It generates a one-parameter family of compatible structures exactly when six
bracket conditions hold: the three mixing the base brackets with the
generator (the 2-cocycle condition of the two-bracket complex) and the three
among the generator components (the Maurer-Cartan condition).

An order-p deformation keeps both brackets as degree-p polynomials in t with
equivariant arity-2 coefficients m_k and constant terms equal to the base.
Its truncated brackets vanish coefficient by coefficient, and the t^n
coefficient is a sum of products m_i . K_j over i + j = n, with one
insertion matrix K_j = insertion_matrix(m_j, compounds, 2) per coefficient
(the K list), read off the twist's table kept on the base.  The residuals
of order n take the inner terms 1 <= i <= n - 1 (`_bracket_sums`); the
truncated-bracket cross-check takes the end terms
i = 0 and i = n alone (`_end_terms`), since the inner terms are common to
both routes.  The inner sums at n = p + 1 are the obstruction, a closed
degree-3 cochain; the deformation extends one order further exactly when
it is a coboundary, and the extension coefficients are one coboundary
preimage of it in the two-bracket complex.

Each of the three sums (two half-sums and the mixed sum) is one
`linalg.product_sum` pass over its terms m_i . K_j, with no matrix per
term.  Each deformation keeps its K list, its report, its next-order
inner sums and its obstruction.  The identities at order n involve only
m_0..m_n, so an extension built by `extended` checks its top pair alone,
takes its parent's K lists, verified orders 0..p and next-order sums,
and checks order p + 1 with its 8 terms m_i . K_j (the end terms).  A
chain order thus costs three `product_sum` passes over the obstruction's
4p terms, three over the new order's 8 end terms, 2 insertion matrices
(each one pass over the nonzeros of its coefficient, with the wedge
table of the arity-2 insertions kept in the base's twist table) and the
closedness test of the obstruction, one product with the degree-3
differential: `is_extensible` keeps the extension it verified,
and `extended` returns it for an equal pair.  K_0 and the differentials
are kept on the adjoint module.  The order-0 deformation is kept on the
base, and a generator's deformation (`from_generator`) is its extension
by the generator's pair, so order 0 is checked once per base.  The
equivariance checks of the new orders read the twist compounds the base
keeps, and so does the equivariant basis of its complex.

Coboundary questions go through that kept complex too.  Two linear
generators are equivalent through id + tN when, among others, their
order-1 identities w_b - w'_b - (dN)_b vanish, with dN the coboundary of N
in the two-bracket complex; so `check_linear_equivalence` takes no NR
bracket.  The class of a generator is its coordinates in the kept
degree-2 report, and a generator that is no 2-cocycle is refused by that
solve, with no separate cocycle test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb

from .algebra import (
    CheckResult,
    CompatibleHomLieAlgebra,
    LinearOperator,
    NIJENHUIS,
    adjoint_representation,
    induced_bracket,
    require_valid,
)
from .cochains import (
    Cochain,
    exterior_square,
    insertion_matrix,
    require_equivariant,
)
from .cohomology import (
    CompatibleCochain,
    _cochains,
    _flat,
    class_coordinates,
    coboundary_preimage,
    cohomology_dimensions,
    compatible_coboundary,
)
from .errors import ContractError, PreconditionError, UsageError, _require_kind
from .linalg import Matrix, product_sum

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class LinearGenerator:
    """A pair of arity-2 cochains deforming the two brackets linearly in t."""

    omega1: Cochain
    omega2: Cochain

    def __post_init__(self):
        for w in (self.omega1, self.omega2):
            if w.arity != 2 or w.source_dim != w.target_dim:
                raise UsageError("generator components must be arity-2 endomorphism cochains")
        if self.omega1.source_dim != self.omega2.source_dim:
            raise UsageError("generator components must share the carrier")


@dataclass(frozen=True)
class GeneratorReport:
    residuals: tuple  # ([m1,w1], [m2,w2], [m1,w2]+[m2,w1], [w1,w1], [w2,w2], [w1,w2])

    @property
    def is_cocycle(self) -> bool:
        return all(r.is_zero() for r in self.residuals[:3])

    @property
    def is_compatible_structure(self) -> bool:
        return all(r.is_zero() for r in self.residuals[3:])

    @property
    def generates(self) -> bool:
        return self.is_cocycle and self.is_compatible_structure


def check_linear_generator(c: CompatibleHomLieAlgebra, g: LinearGenerator) -> GeneratorReport:
    """Evaluate the six bracket conditions for a linear generator, read off
    the order-1 series of (mu + t w).

    The t^1 sums vanish exactly when (w1, w2) is a 2-cocycle of the
    two-bracket complex, the t^2 sums exactly when (w1, w2) is itself a
    compatible structure (the Maurer-Cartan test).  Both are read off the
    order-1 deformation: its cross-check equates the t^1 sums with its
    negated order-1 residuals, and the t^2 sums are its kept next-order
    sums.
    """
    _require_kind(g, LinearGenerator, "read a generator from")
    require_valid(c, "base algebra is invalid")
    d = OrderPDeformation.from_generator(c, g)  # checks the twist-equivariance of g
    order1 = verify_order_p(d).residuals[1]
    square1, square2, mixed = d._next_sums
    return GeneratorReport(tuple(r.scale(-1) for r in order1)
                           + (square1.scale(2), square2.scale(2), mixed))


def trivial_deformation_from_nijenhuis(c: CompatibleHomLieAlgebra,
                                       n_op: LinearOperator) -> LinearGenerator:
    """The generator w_i(x,y) = [Nx,y]_i + [x,Ny]_i - N[x,y]_i of a Nijenhuis
    operator; it always generates, and the deformation it generates is
    equivalent to the undeformed structure through id + tN."""
    _require_kind(n_op, LinearOperator, "read an operator from")
    if n_op.kind != NIJENHUIS:
        raise UsageError("a Nijenhuis operator is required")
    deformed = induced_bracket(c, n_op)  # enforces the operator identity
    return LinearGenerator(deformed.bracket_cochain(1), deformed.bracket_cochain(2))


@dataclass(frozen=True)
class EquivalenceReport:
    checks: tuple  # CheckResult entries from the three identity families
    coboundary_shift: bool  # whether (w) - (w') equals the coboundary of N

    @property
    def equivalent(self) -> bool:
        return all(c.passed for c in self.checks)


def check_linear_equivalence(c: CompatibleHomLieAlgebra, g: LinearGenerator,
                             g_prime: LinearGenerator, n_matrix: Matrix) -> EquivalenceReport:
    """Decide whether id + tN carries the deformation of g onto that of g'.

    Matching powers of t in the morphism property
    (id + tN) . (mu + t w) = (mu + t w') . L2(id + tN) gives three identity
    families per bracket, each one defect matrix on the basis pairs:

        order 1:  w - w' - (dN)_b
        order 2:  N . w - w' <> N - mu . L2(N)
        order 3:  w' . L2(N)

    where (dN)_b = [mu_b, N], (dN)_b(x,y) = [Nx,y] + [x,Ny] - N[x,y], is
    slot b of the coboundary of N in the two-bracket complex, taken with
    the differential kept on the adjoint module, and
    (w' <> N)(x,y) = w'(Nx,y) + w'(x,Ny).  The coboundary shift
    w - w' = dN holds exactly when both order-1 identities do.
    """
    for generator in (g, g_prime):
        _require_kind(generator, LinearGenerator, "read a generator from")
    _require_kind(n_matrix, Matrix, "read an operator matrix from")
    require_valid(c, "base algebra is invalid")
    require_equivariant((g.omega1, g.omega2, g_prime.omega1, g_prime.omega2),
                        c._compounds, c.alpha)
    if c.alpha @ n_matrix != n_matrix @ c.alpha:
        raise PreconditionError("operator does not commute with the twist")
    dim = c.dim
    n_cochain = Cochain(1, dim, dim, n_matrix)
    square = exterior_square(n_matrix)
    delta_n = compatible_coboundary(c, adjoint_representation(c),
                                    CompatibleCochain(1, (n_cochain,))).components
    checks = []
    for b, omega, omega_p in ((1, g.omega1, g_prime.omega1), (2, g.omega2, g_prime.omega2)):
        mu = c.bracket_cochain(b)
        order1 = omega.coeffs - omega_p.coeffs - delta_n[b - 1].coeffs
        order2 = product_sum([(n_matrix, omega.coeffs),
                              (-omega_p.coeffs, insertion_matrix(n_cochain, c._compounds, 2)),
                              (-mu.coeffs, square)], dim, comb(dim, 2))
        checks.append(CheckResult.from_columns(f"order1_identity[{b}]", order1, 2))
        checks.append(CheckResult.from_columns(f"order2_identity[{b}]", order2, 2))
        checks.append(CheckResult.from_columns(f"order3_identity[{b}]", omega_p.coeffs @ square, 2))
    return EquivalenceReport(tuple(checks),
                             all(k.passed for k in checks if k.name.startswith("order1")))


def infinitesimal_class(c: CompatibleHomLieAlgebra, g: LinearGenerator) -> tuple:
    """Coordinates of the generator's class in degree-2 cohomology of the
    adjoint coefficients.  Generators differing by the coboundary of a
    twist-commuting operator receive identical coordinates.  A generator
    outside the degree-2 cocycles of the report, and so one that is not
    twist-equivariant, raises PreconditionError."""
    _require_kind(g, LinearGenerator, "read a generator from")
    h2 = cohomology_dimensions(c, adjoint_representation(c), 2)
    try:
        return class_coordinates(h2, CompatibleCochain(2, (g.omega1, g.omega2)))
    except PreconditionError:
        raise PreconditionError("generator is not a 2-cocycle") from None


@dataclass(frozen=True)
class OrderPDeformation:
    """Truncated polynomial families of both brackets.

    ``coeffs1[k]`` and ``coeffs2[k]`` are the arity-2 coefficient cochains of
    t^k; index 0 must equal the base brackets and every coefficient must be
    twist-equivariant.  Its K lists, report, next-order sums and
    obstruction are kept on the object, and so is the extension that
    `is_extensible` verified.
    """

    base: CompatibleHomLieAlgebra
    coeffs1: tuple
    coeffs2: tuple
    # The deformation this one extends by one order, set by `extended`; its
    # base and coefficients must be this one's, and are already checked.
    _parent: "OrderPDeformation | None" = field(default=None, compare=False, repr=False,
                                                kw_only=True)

    def __post_init__(self):
        if len(self.coeffs1) != len(self.coeffs2) or not self.coeffs1:
            raise UsageError("coefficient lists must be non-empty and of equal length")
        parent = self._parent
        known = len(parent.coeffs1) if parent else 0  # checked by the parent
        if parent and (len(self.coeffs1) != known + 1 or
                       (self.base, self.coeffs1[:known], self.coeffs2[:known]) !=
                       (parent.base, parent.coeffs1, parent.coeffs2)):
            raise UsageError("an extension keeps its parent's base and coefficients "
                             "and adds one order")
        for f in self.coeffs1[known:] + self.coeffs2[known:]:
            if not isinstance(f, Cochain) or f.arity != 2 or f.source_dim != self.base.dim \
                    or f.target_dim != self.base.dim:
                raise UsageError("coefficients must be arity-2 endomorphism cochains on the base")
        if not known and (self.coeffs1[0] != self.base.bracket_cochain(1) or
                          self.coeffs2[0] != self.base.bracket_cochain(2)):
            raise UsageError("order-0 coefficients must equal the base brackets")
        first = max(known, 1)  # order 0 is the base
        require_equivariant(self.coeffs1[first:] + self.coeffs2[first:], self.base._compounds,
                            self.base.alpha, "deformation coefficient is not twist-equivariant")

    @property
    def order(self) -> int:
        return len(self.coeffs1) - 1

    _child = None  # the extension `is_extensible` verified, which `extended` returns

    @cached_property
    def _k_lists(self) -> tuple:
        """The K lists of both brackets: K_k = insertion_matrix(m_k, alpha, 2),
        so that P <> m_k = P . K_k, with K_0 kept on the adjoint module.  An
        extension appends its top pair's matrices to its parent's lists."""
        known = self._parent._k_lists if self._parent else tuple(
            (adjoint_representation(self.base)._complex["insertion", b, 2],) for b in (1, 2))
        return tuple(ks + tuple(insertion_matrix(f, self.base._compounds, 2)
                                for f in coeffs[len(ks):])
                     for ks, coeffs in zip(known, (self.coeffs1, self.coeffs2)))

    @cached_property
    def _report(self) -> "OrderReport":
        rows = self._parent._report.residuals if self._parent else ()
        return OrderReport(rows + tuple(_row(self, n) for n in range(len(rows), self.order + 1)))

    @cached_property
    def _next_sums(self) -> tuple:
        """The inner sums at n = p + 1: the obstruction's, and an
        extension's at its new order."""
        return _bracket_sums(self, self.order + 1)

    @cached_property
    def _obstruction_cochain(self) -> "ObstructionCochain":
        """The next-order sums as a degree-3 compatible cochain, for a
        verified deformation of a valid base.  Its closedness is one
        product with the degree-3 differential kept on the adjoint module,
        as `_row` reads its residuals off the degree-2 one; a nonzero
        image raises ContractError."""
        if not self._report.passed:
            raise PreconditionError("not a valid order-p deformation")
        require_valid(self.base, "invalid algebra")
        o11, o22, o12 = self._next_sums
        cochain = CompatibleCochain(3, (o11, o12, o22))
        differential = adjoint_representation(self.base)._complex["differential", 3]
        if not (differential @ _flat(cochain)).is_zero():
            raise ContractError("obstruction cochain is not closed")
        return ObstructionCochain(cochain)

    @classmethod
    def from_generator(cls, c: CompatibleHomLieAlgebra, g: LinearGenerator) -> "OrderPDeformation":
        """The order-1 deformation (mu1 + t w1, mu2 + t w2): the extension of
        the order-0 deformation kept on c by the generator's pair, so it
        checks that pair alone and reads order 0 off the kept one."""
        _require_kind(c, CompatibleHomLieAlgebra, "deform the brackets of")
        return c._order0.extended(g.omega1, g.omega2)

    def truncate(self, p: int) -> "OrderPDeformation":
        """The first p + 1 coefficients as an order-p deformation: the one
        `extended` built this one from, with its kept report, when the
        chain of parents reaches order p, else a new deformation."""
        if not 0 <= p <= self.order:
            raise UsageError("truncation order out of range")
        d = self
        while d.order > p and d._parent is not None:
            d = d._parent
        if d.order == p:
            return d
        return OrderPDeformation(self.base, self.coeffs1[: p + 1], self.coeffs2[: p + 1])

    def extended(self, mu1_top: Cochain, mu2_top: Cochain) -> "OrderPDeformation":
        """The order-(p+1) deformation with these top coefficients.  It links
        to this one and checks the shape and equivariance of the top pair
        alone; its report reuses this one's K lists, verified orders 0..p
        and next-order sums, since the identities at order n involve only
        m_0..m_n.  For the pair `is_extensible` returned (or an equal one)
        it is the extension that call kept, already verified."""
        kept = self._child
        if kept is not None and (kept.coeffs1[-1], kept.coeffs2[-1]) == (mu1_top, mu2_top):
            return kept
        return OrderPDeformation(self.base, self.coeffs1 + (mu1_top,),
                                 self.coeffs2 + (mu2_top,), _parent=self)


@dataclass(frozen=True)
class OrderReport:
    residuals: tuple  # per order n: (r1_n, r2_n, r3_n)

    @property
    def passed(self) -> bool:
        return all(r.is_zero() for triple in self.residuals for r in triple)

    def failures(self):
        return [
            (n, triple)
            for n, triple in enumerate(self.residuals)
            if not all(r.is_zero() for r in triple)
        ]


def verify_order_p(d: OrderPDeformation) -> OrderReport:
    """Check the per-order system of identities for n = 0..p.

    For each order the three residuals are

        r1_n = d1(m1_n) - 1/2 sum_(i+j=n, i,j>=1) [m1_i, m1_j]
        r2_n = d2(m2_n) - 1/2 sum_(i+j=n, i,j>=1) [m2_i, m2_j]
        r3_n = d1(m2_n) + d2(m1_n) - sum_(i+j=n, i,j>=1) [m1_i, m2_j]

    (order 0 reduces to validity of the base).  The t^n coefficients of the
    truncated brackets, the same sums over i, j >= 0, must equal -r_n
    (-r_0 / 2 at order 0).  For n >= 1 they add the end terms i = 0 and
    i = n to the inner sums of r_n, so the cross-check compares the end
    terms m_0 . K_n + m_n . K_0 with -d(m_n) exactly (at order 0, where
    the two end terms are one, m_0 . K_0 with -d(m_0) / 2).  This checks
    the kept differential against the NR bracket with the base;
    disagreement raises ContractError.  d1(m1_n), d1(m2_n) + d2(m1_n) and
    d2(m2_n) are the slots of one product with the degree-2 differential
    kept on the base's adjoint module.  The report is kept on the
    deformation.  An extension built by `extended` takes orders 0..p from
    its parent's report and the inner sums of order p + 1 from its
    parent's obstruction, so its new order costs that product and the
    `product_sum` passes over its 8 end terms m_i . K_j.
    """
    _require_kind(d, OrderPDeformation, "read a deformation from")
    return d._report


def _row(d: OrderPDeformation, n: int) -> tuple:
    """The residuals (r1_n, r2_n, r3_n) of `verify_order_p`, after the end
    terms are checked against d(m_n).  An extension's one new order n = p + 1
    reads the inner sums its parent's obstruction took."""
    c = d.base
    m_n = _flat(CompatibleCochain(2, (d.coeffs1[n], d.coeffs2[n])))
    image = adjoint_representation(c)._complex["differential", 2] @ m_n
    d1m1, mixed, d2m2 = _cochains(image, c, c.dim, 3)[0].components
    dm = (d1m1, d2m2, mixed)
    # Truncated-bracket route less the inner sums the two routes share.
    if _end_terms(d, n) != tuple(r.scale(-HALF if n == 0 else -1) for r in dm):
        raise ContractError("truncated-bracket route disagrees with the identity route")
    sums = d._parent._next_sums if d._parent else _bracket_sums(d, n)
    return tuple(r - s for r, s in zip(dm, sums))


def _bracket_sums(d: OrderPDeformation, n: int) -> tuple:
    """The inner sums at order n (n <= p + 1): the terms 1 <= i <= n - 1 of
    1/2 sum [m1_i, m1_j], 1/2 sum [m2_i, m2_j] and sum [m1_i, m2_j] over
    i + j = n, as arity-3 cochains."""
    return _products(d, n, range(1, n))


def _end_terms(d: OrderPDeformation, n: int) -> tuple:
    """The terms i = 0 and i = n of the same sums (the one term i = 0 at
    n = 0): the truncated brackets' t^n sums less the inner sums."""
    return _products(d, n, sorted({0, n}))


def _products(d: OrderPDeformation, n: int, indices) -> tuple:
    """The terms i in `indices` of the three sums at order n, one
    `product_sum` each.  As [P, Q] = P <> Q + Q <> P in arity 2, a half-sum
    is sum m_i . K_(n-i), and the mixed sum is sum m1_i . K2_(n-i) +
    m2_i . K1_(n-i)."""
    dim = d.base.dim
    (m1, m2), (k1, k2) = (d.coeffs1, d.coeffs2), d._k_lists

    def total(*pairs):
        terms = [(m[i].coeffs, k[n - i]) for m, k in pairs for i in indices]
        return Cochain(3, dim, dim, product_sum(terms, dim, comb(dim, 3)))

    return total((m1, k1)), total((m2, k2)), total((m1, k2), (m2, k1))


@dataclass(frozen=True)
class ObstructionCochain:
    """Degree-3 compatible cochain blocking the next extension order; closed
    by construction (verified when built)."""

    cochain: CompatibleCochain


def obstruction(d: OrderPDeformation) -> ObstructionCochain:
    """The degree-3 cochain whose class must vanish for the deformation to
    extend one order, the inner sums of `verify_order_p` at n = p + 1 (one
    `product_sum` pass per sum over its 4p terms m_i . K_j, kept for the
    extension's new order); closedness is asserted exactly.  It is kept on
    the deformation."""
    _require_kind(d, OrderPDeformation, "read a deformation from")
    return d._obstruction_cochain


def is_extensible(d: OrderPDeformation):
    """Solve the coboundary equation for the next coefficients.

    The next pair is a preimage of the obstruction under the degree-2
    differential of the two-bracket complex on the adjoint module
    (`coboundary_preimage`, from the elimination kept on the module).
    Returns one exact solution pair (any solution) or None when the
    obstruction class is nonzero.  A returned pair is re-verified:
    appending it yields a deformation of order p+1 passing verify_order_p.
    That check verifies order p + 1 alone, on d's kept orders and
    obstruction sums, with 2 insertion matrices and its 8 end terms.  The
    verified extension is kept on d, and the caller's own
    `d.extended(*pair)` returns it with no further work.
    """
    _require_kind(d, OrderPDeformation, "read a deformation from")
    c = d.base
    x = coboundary_preimage(c, adjoint_representation(c), obstruction(d).cochain)
    if x is None:
        return None
    pair = x.components
    child = d.extended(*pair)
    if not verify_order_p(child).passed:
        raise ContractError("extension coefficients fail the order-(p+1) identities")
    object.__setattr__(d, "_child", child)
    return pair
