"""Linear, infinitesimal and finite-order deformations of a compatible pair.

A generator (w1, w2) deforms the brackets to ([.,.]_1 + t w1, [.,.]_2 + t w2).
It generates a one-parameter family of compatible structures exactly when six
bracket conditions hold: the three mixing the base brackets with the
generator (the 2-cocycle condition of the two-bracket complex) and the three
among the generator components (the Maurer-Cartan condition).

An order-p deformation keeps both brackets as degree-p polynomials in t with
equivariant arity-2 coefficients and constant terms equal to the base.  Its
defining identities are checked both as the stated per-order system and as
the coefficientwise vanishing of the truncated brackets; the two evaluations
are compared exactly.  The degree-3 obstruction cochain of an order-p
deformation is closed, and the deformation extends one order further exactly
when that cochain is a coboundary; the extension coefficients are one
coboundary preimage of it in the two-bracket complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    CheckResult,
    CompatibleHomLieAlgebra,
    LinearOperator,
    NIJENHUIS,
    adjoint_representation,
    induced_bracket,
    verify_structure,
)
from .cochains import (
    Cochain,
    exterior_square,
    is_mc_pair,
    nr_bracket,
    nr_diamond,
    require_equivariant,
)
from .cohomology import (
    COMPATIBLE,
    CompatibleCochain,
    _coboundary_map,
    _cohomology_report,
    class_coordinates,
    coboundary_preimage,
    compatible_coboundary,
)
from .errors import ContractError, PreconditionError, UsageError
from .linalg import Matrix

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


def _require_valid(c: CompatibleHomLieAlgebra):
    report = verify_structure(c)
    if not report.passed:
        raise PreconditionError("base algebra is invalid", report)


def check_linear_generator(c: CompatibleHomLieAlgebra, g: LinearGenerator) -> GeneratorReport:
    """Evaluate the six bracket conditions for a linear generator.

    The first three vanish exactly when (w1, w2) is a 2-cocycle of the
    two-bracket complex (cross-checked against the coboundary), the last
    three exactly when (w1, w2) is itself a compatible structure
    (the Maurer-Cartan test).
    """
    _require_valid(c)
    require_equivariant((g.omega1, g.omega2), c.alpha, c.alpha)
    alpha = c.alpha
    mu1 = c.bracket_cochain(1)
    mu2 = c.bracket_cochain(2)
    r1 = nr_bracket(mu1, g.omega1, alpha)
    r2 = nr_bracket(mu2, g.omega2, alpha)
    r3 = nr_bracket(mu1, g.omega2, alpha) + nr_bracket(mu2, g.omega1, alpha)
    mc = is_mc_pair(g.omega1, g.omega2, alpha)
    # Independent route: d(w1, w2) must equal (-r1, -r3, -r2) componentwise.
    delta = compatible_coboundary(
        c, adjoint_representation(c), CompatibleCochain(2, (g.omega1, g.omega2)), check=False
    )
    expected = (-r1, -r3, -r2)
    for got, want in zip(delta.components, expected):
        if got.flatten() != want.flatten():
            raise ContractError("coboundary route disagrees with the bracket route")
    return GeneratorReport((r1, r2, r3) + mc.residuals)


def trivial_deformation_from_nijenhuis(c: CompatibleHomLieAlgebra,
                                       n_op: LinearOperator) -> LinearGenerator:
    """The generator w_i(x,y) = [Nx,y]_i + [x,Ny]_i - N[x,y]_i of a Nijenhuis
    operator; it always generates, and the deformation it generates is
    equivalent to the undeformed structure through id + tN."""
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

        order 1:  w - w' - [mu, N]
        order 2:  N . w - w' <> N - mu . L2(N)
        order 3:  w' . L2(N)

    where [mu, N](x,y) = [Nx,y] + [x,Ny] - N[x,y] is the NR bracket and
    (w' <> N)(x,y) = w'(Nx,y) + w'(x,Ny).
    """
    _require_valid(c)
    require_equivariant((g.omega1, g.omega2, g_prime.omega1, g_prime.omega2),
                        c.alpha, c.alpha)
    if c.alpha @ n_matrix != n_matrix @ c.alpha:
        raise PreconditionError("operator does not commute with the twist")
    dim = c.dim
    n_cochain = Cochain(1, dim, dim, n_matrix)
    square = exterior_square(n_matrix)
    checks = []
    for b, omega, omega_p in ((1, g.omega1, g_prime.omega1), (2, g.omega2, g_prime.omega2)):
        mu = c.bracket_cochain(b)
        order1 = omega - omega_p - nr_bracket(mu, n_cochain, c.alpha)
        order2 = (n_matrix @ omega.coeffs - nr_diamond(omega_p, n_cochain, c.alpha).coeffs
                  - mu.coeffs @ square)
        checks.append(CheckResult.from_columns(f"order1_identity[{b}]", order1.coeffs, 2))
        checks.append(CheckResult.from_columns(f"order2_identity[{b}]", order2, 2))
        checks.append(CheckResult.from_columns(f"order3_identity[{b}]", omega_p.coeffs @ square, 2))
    delta_n = compatible_coboundary(
        c, adjoint_representation(c), CompatibleCochain(1, (n_cochain,)), check=False
    )
    difference = CompatibleCochain(
        2, (g.omega1 - g_prime.omega1, g.omega2 - g_prime.omega2)
    )
    shift_holds = difference.flatten() == delta_n.flatten()
    return EquivalenceReport(tuple(checks), shift_holds)


def infinitesimal_class(c: CompatibleHomLieAlgebra, g: LinearGenerator) -> tuple:
    """Coordinates of the generator's class in degree-2 cohomology of the
    adjoint coefficients.  Generators differing by the coboundary of a
    twist-commuting operator receive identical coordinates."""
    report = check_linear_generator(c, g)
    if not report.is_cocycle:
        raise PreconditionError("generator is not a 2-cocycle")
    # c is verified above, and the adjoint module of a valid structure is valid
    h2 = _cohomology_report(c, adjoint_representation(c), 2, COMPATIBLE)
    return class_coordinates(h2, CompatibleCochain(2, (g.omega1, g.omega2)))


@dataclass(frozen=True)
class OrderPDeformation:
    """Truncated polynomial families of both brackets.

    ``coeffs1[k]`` and ``coeffs2[k]`` are the arity-2 coefficient cochains of
    t^k; index 0 must equal the base brackets and every coefficient must be
    twist-equivariant.
    """

    base: CompatibleHomLieAlgebra
    coeffs1: tuple
    coeffs2: tuple

    def __post_init__(self):
        if len(self.coeffs1) != len(self.coeffs2) or not self.coeffs1:
            raise UsageError("coefficient lists must be non-empty and of equal length")
        for f in self.coeffs1 + self.coeffs2:
            if not isinstance(f, Cochain) or f.arity != 2 or f.source_dim != self.base.dim \
                    or f.target_dim != self.base.dim:
                raise UsageError("coefficients must be arity-2 endomorphism cochains on the base")
        if self.coeffs1[0].flatten() != self.base.bracket_cochain(1).flatten() or \
                self.coeffs2[0].flatten() != self.base.bracket_cochain(2).flatten():
            raise UsageError("order-0 coefficients must equal the base brackets")
        require_equivariant(self.coeffs1[1:] + self.coeffs2[1:], self.base.alpha, self.base.alpha,
                            "deformation coefficient is not twist-equivariant")

    @property
    def order(self) -> int:
        return len(self.coeffs1) - 1

    @classmethod
    def from_generator(cls, c: CompatibleHomLieAlgebra, g: LinearGenerator) -> "OrderPDeformation":
        return cls(c, (c.bracket_cochain(1), g.omega1), (c.bracket_cochain(2), g.omega2))

    def truncate(self, p: int) -> "OrderPDeformation":
        if not 0 <= p <= self.order:
            raise UsageError("truncation order out of range")
        return OrderPDeformation(self.base, self.coeffs1[: p + 1], self.coeffs2[: p + 1])

    def extended(self, mu1_top: Cochain, mu2_top: Cochain) -> "OrderPDeformation":
        return OrderPDeformation(
            self.base, self.coeffs1 + (mu1_top,), self.coeffs2 + (mu2_top,)
        )


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

    (order 0 reduces to validity of the base).  The same conditions are
    recomputed as coefficients of the truncated brackets, which add the
    order-0 terms [m_0, m_n] + [m_n, m_0] to the same sums, and the two
    routes are compared exactly: this checks the coboundary maps against the
    NR bracket with the base.  Disagreement raises ContractError.  Each
    degree-2 coboundary matrix is built once and multiplied by the stacked
    coefficient columns [m1_0 .. m1_p | m2_0 .. m2_p].
    """
    c = d.base
    alpha = c.alpha
    rep = adjoint_representation(c)
    p = d.order
    m1, m2 = d.coeffs1, d.coeffs2
    stacked = Matrix.from_columns([f.flatten() for f in m1 + m2], len(m1[0].flatten()))
    d1, d2 = ([Cochain.from_flat(3, c.dim, c.dim, image.col(k)) for k in range(image.cols)]
              for image in (_coboundary_map(c, rep, b, 2) @ stacked for b in (1, 2)))
    pairs = ((m1, m1), (m2, m2), (m1, m2))
    residuals = []
    for n in range(p + 1):
        quads = tuple(_convolution(a, b, n, alpha) for a, b in pairs)
        quad11, quad22, quad12 = quads
        r1 = d1[n] - quad11.scale(HALF)
        r2 = d2[p + 1 + n] - quad22.scale(HALF)
        r3 = d1[p + 1 + n] + d2[n] - quad12
        # Truncated-bracket route: the same sums plus the order-0 terms.
        if n == 0:
            expect = (r1.scale(-1), r2.scale(-1), r3.scale(-HALF))
        else:
            expect = (r1.scale(-2), r2.scale(-2), r3.scale(-1))
        for (a, b), quad, want in zip(pairs, quads, expect):
            edge = nr_bracket(a[0], b[0], alpha) if n == 0 else \
                nr_bracket(a[0], b[n], alpha) + nr_bracket(a[n], b[0], alpha)
            if (quad + edge).flatten() != want.flatten():
                raise ContractError("truncated-bracket route disagrees with the identity route")
        residuals.append((r1, r2, r3))
    return OrderReport(tuple(residuals))


def _convolution(left, right, n: int, alpha: Matrix) -> Cochain:
    """sum_(i+j=n, i,j>=1) [left_i, right_j], for n at most one above the top order."""
    d = left[0].source_dim
    total = Cochain.zero(3, d, d)
    for i in range(1, n):
        total = total + nr_bracket(left[i], right[n - i], alpha)
    return total


@dataclass(frozen=True)
class ObstructionCochain:
    """Degree-3 compatible cochain blocking the next extension order; closed
    by construction (verified when built)."""

    cochain: CompatibleCochain


def obstruction(d: OrderPDeformation) -> ObstructionCochain:
    """The degree-3 cochain whose class must vanish for the deformation to
    extend one order; closedness is asserted exactly."""
    order_report = verify_order_p(d)
    if not order_report.passed:
        raise PreconditionError("not a valid order-p deformation")
    c = d.base
    alpha = c.alpha
    n = d.order + 1
    o1 = _convolution(d.coeffs1, d.coeffs1, n, alpha).scale(HALF)
    o2 = _convolution(d.coeffs1, d.coeffs2, n, alpha)
    o3 = _convolution(d.coeffs2, d.coeffs2, n, alpha).scale(HALF)
    cochain = CompatibleCochain(3, (o1, o2, o3))
    closed = compatible_coboundary(c, adjoint_representation(c), cochain, check=False)
    if not closed.is_zero():
        raise ContractError("obstruction cochain is not closed")
    return ObstructionCochain(cochain)


def is_extensible(d: OrderPDeformation):
    """Solve the coboundary equation for the next coefficients.

    The next pair is a preimage of the obstruction under the degree-2
    differential of the two-bracket complex on the adjoint module
    (`coboundary_preimage`).  Returns one exact solution pair (any
    solution) or None when the obstruction class is nonzero.  A returned
    pair is re-verified: appending it yields a deformation of order p+1
    passing verify_order_p.
    """
    c = d.base
    x = coboundary_preimage(c, adjoint_representation(c), obstruction(d).cochain)
    if x is None:
        return None
    pair = x.components
    extended = d.extended(*pair)
    if not verify_order_p(extended).passed:
        raise ContractError("extension coefficients fail the order-(p+1) identities")
    return pair
