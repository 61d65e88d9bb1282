"""Abelian extensions of a compatible pair and their degree-2 classification.

An extension is kept in split coordinates: the total space is the direct sum
of the base and the fiber together with inclusion, projection and a
twist-compatible splitting as explicit matrices.  Construction validates the
whole package (exactness, morphism properties, the abelian fiber, and the
splitting condition twist_total o s = s o twist_base) and rejects violations
with a diagnostic; a twist-compatible splitting is genuine extra data, it
need not exist for an arbitrary projection.

Every bracket identity is one exact product over a compound matrix, with
mu_t and mu_b a total and a base bracket matrix, i, j, s the inclusion,
projection and splitting, and L2(M) the compound of 2 x 2 minors of M
(`exterior_square`, any shape):

    abelian fiber          mu_t . L2(i) = 0
    bracket projection     j . mu_t = mu_b . L2(j)
    action and cocycle     R . mu_t . L2([s | i]), where R . i = 1, R . s = 0
    extension morphism     phi . mu_t = mu_t' . L2(phi)

Column (p, g + a) of the third product is the action of e_p on e_a, and
column (p < q < g) is the cocycle on (e_p, e_q).

Extensions of a fixed base by a fixed module are classified by degree-2
cohomology of the two-bracket complex: building from a cocycle and reading
the cocycle back off a splitting are mutually inverse, equivalences
correspond to coboundary shifts, and the class is independent of the chosen
splitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    CompatibleHomLieAlgebra,
    Representation,
    _semidirect_bracket,
    require_valid,
    verify_structure,
)
from .cochains import (
    Cochain,
    exterior_square,
    increasing_tuples,
    lift_to_product,
    require_equivariant,
    tuple_position,
)
from .cohomology import (
    CompatibleCochain,
    class_coordinates,
    coboundary_preimage,
    cohomology_dimensions,
    compatible_coboundary,
)
from .errors import ContractError, PreconditionError, UsageError
from .linalg import Matrix, hstack, product_sum, rank, rref, vstack


@dataclass(frozen=True)
class ExtensionCocycle:
    """Pair of arity-2 cochains from the base into the fiber; cocycle
    membership is enforced where the pair is consumed, not structurally."""

    f1: Cochain
    f2: Cochain

    def __post_init__(self):
        for f in (self.f1, self.f2):
            if f.arity != 2:
                raise UsageError("extension cocycle components must have arity 2")
        if (self.f1.source_dim, self.f1.target_dim) != (self.f2.source_dim, self.f2.target_dim):
            raise UsageError("cocycle components must share source and target")

    def as_compatible(self) -> CompatibleCochain:
        return CompatibleCochain(2, (self.f1, self.f2))


@dataclass(frozen=True)
class AbelianExtension:
    base: CompatibleHomLieAlgebra
    fiber_dim: int
    fiber_beta: Matrix
    total: CompatibleHomLieAlgebra
    inclusion: Matrix  # (g+v) x v
    projection: Matrix  # g x (g+v)
    splitting: Matrix  # (g+v) x g

    def __post_init__(self):
        g = self.base.dim
        v = self.fiber_dim
        h = self.total.dim
        if h != g + v:
            raise UsageError("total dimension must be base + fiber")
        if (self.inclusion.rows, self.inclusion.cols) != (h, v):
            raise UsageError("inclusion must be (g+v) x v")
        if (self.projection.rows, self.projection.cols) != (g, h):
            raise UsageError("projection must be g x (g+v)")
        if (self.splitting.rows, self.splitting.cols) != (h, g):
            raise UsageError("splitting must be (g+v) x g")
        if (self.fiber_beta.rows, self.fiber_beta.cols) != (v, v):
            raise UsageError("fiber twist must be v x v")
        self._validate()

    def _validate(self):
        g, v = self.base.dim, self.fiber_dim
        i, j, s = self.inclusion, self.projection, self.splitting
        if not (j @ i).is_zero():
            raise PreconditionError("projection does not annihilate the fiber")
        if (j @ s) != Matrix.identity(g):
            raise PreconditionError("splitting is not a section of the projection")
        if rank(i) != v:
            raise PreconditionError("inclusion is not injective")
        if (self.total.alpha @ s) != (s @ self.base.alpha):
            raise PreconditionError("splitting does not intertwine the twists")
        if (self.total.alpha @ i) != (i @ self.fiber_beta):
            raise PreconditionError("inclusion does not intertwine the twists")
        fiber_square, projection_square = exterior_square(i), exterior_square(j)
        for mu_t, mu_b in zip(self.total.brackets, self.base.brackets):
            if not (mu_t @ fiber_square).is_zero():
                raise PreconditionError("fiber is not abelian inside the total algebra")
            if (j @ mu_t) != (mu_b @ projection_square):
                raise PreconditionError("projection is not a bracket morphism")
        require_valid(self.total, "total structure fails verification")
        # Implied by the checks above, so not repeated: j is surjective, since
        # j s = 1; alpha_b j = j alpha_t, since both sides agree on the columns
        # of the invertible [s | i]; and the base is valid, since j is a
        # surjective bracket morphism from a valid total that intertwines the
        # twists.

    @cached_property
    def _induced(self) -> tuple:
        """The induced representation and 2-cocycle of `extract_cocycle`,
        read off and verified once per extension."""
        g, v = self.base.dim, self.fiber_dim
        pos = tuple_position(self.total.dim, 2)
        readout = self.fiber_readout()
        frame = exterior_square(hstack([self.splitting, self.inclusion]))
        tables, cochains = [], []
        for mu in self.total.brackets:
            values = readout @ mu @ frame
            tables.append(tuple(
                Matrix.from_columns([values.col(pos[(p, g + a)]) for a in range(v)], v)
                for p in range(g)
            ))
            columns = [values.col(pos[pair]) for pair in increasing_tuples(g, 2)]
            cochains.append(Cochain(2, g, v, Matrix.from_columns(columns, v)))
        rep = Representation(self.base, v, self.fiber_beta, tuple(tables))
        if not verify_structure(rep).passed:
            raise ContractError("induced representation fails verification")
        z = ExtensionCocycle(cochains[0], cochains[1])
        if not compatible_coboundary(self.base, rep, z.as_compatible()).is_zero():
            raise ContractError("extracted pair is not a 2-cocycle")
        return rep, z

    def fiber_readout(self) -> Matrix:
        """The v x (g+v) matrix R with R . inclusion = 1 and R . splitting = 0:
        the fiber coordinates of a total vector along the splitting.  It is
        the lower block of [s | i]^(-1), read off one reduced echelon form."""
        g, h = self.base.dim, self.total.dim
        reduced, _ = rref(hstack([self.splitting, self.inclusion, Matrix.identity(h)]))
        return Matrix(self.fiber_dim, h, tuple(x for r in range(g, h) for x in reduced.row(r)[h:]))


def build_extension(c: CompatibleHomLieAlgebra, rep: Representation,
                    z: ExtensionCocycle) -> AbelianExtension:
    """Total structure on base + module with brackets
    ([x,y]_i, x ._i w - y ._i u + f_i(x,y)) and block-diagonal twist."""
    if rep.base != c:
        raise UsageError("representation is not over the given base")
    if len(rep.actions) != 2:
        raise UsageError("extension needs a two-action representation")
    if z.f1.source_dim != c.dim or z.f1.target_dim != rep.vdim:
        raise UsageError("cocycle shape does not match base and fiber")
    require_valid(rep, "invalid representation")
    # The coboundary checks c and the twist-equivariance of z on the way in.
    if not compatible_coboundary(c, rep, z.as_compatible()).is_zero():
        raise PreconditionError("extension datum is not a 2-cocycle")
    g, v = c.dim, rep.vdim
    brackets = [_semidirect_bracket(bracket, table, g, v) + lift_to_product(f, g, v).coeffs
                for bracket, table, f in zip(c.brackets, rep.actions, (z.f1, z.f2))]
    total = CompatibleHomLieAlgebra(g + v, c.alpha.block_diag(rep.beta), *brackets)
    inclusion = vstack([Matrix.zero(g, v), Matrix.identity(v)])
    projection = hstack([Matrix.identity(g), Matrix.zero(g, v)])
    splitting = vstack([Matrix.identity(g), Matrix.zero(v, g)])
    return AbelianExtension(c, v, rep.beta, total, inclusion, projection, splitting)


def extract_cocycle(e: AbelianExtension):
    """Induced representation and the 2-cocycle read off the splitting.

    The action is x ._b w = fiber part of [s(x), i(w)]_b; the cocycle is the
    fiber part of [s(x), s(y)]_b - s([x, y]_b), where the second term has no
    fiber part.  Both are columns of one product R . mu_t . L2([s | i]) per
    bracket.  The action does not depend on the splitting; the cocycle
    moves by a coboundary when the splitting changes.  Both are kept on the
    extension, so its induced module is verified once.
    """
    return e._induced


def alternate_splitting(e: AbelianExtension, tau: Cochain) -> AbelianExtension:
    """The same extension re-read through s + i o tau, for twist-equivariant tau."""
    if tau.arity != 1 or tau.source_dim != e.base.dim or tau.target_dim != e.fiber_dim:
        raise UsageError("splitting shift must be an arity-1 cochain from base to fiber")
    require_equivariant((tau,), e.base._compounds, e.fiber_beta,
                        "splitting shift is not twist-equivariant")
    new_splitting = e.splitting + (e.inclusion @ tau.coeffs)
    return AbelianExtension(
        e.base, e.fiber_dim, e.fiber_beta, e.total, e.inclusion, e.projection, new_splitting
    )


def _same_setting(e: AbelianExtension, e2: AbelianExtension):
    if e.base != e2.base:
        raise UsageError("extensions have different bases")
    if e.fiber_dim != e2.fiber_dim or e.fiber_beta != e2.fiber_beta:
        raise UsageError("extensions have different fibers")
    rep1, z1 = extract_cocycle(e)
    rep2, z2 = extract_cocycle(e2)
    if rep1 != rep2:
        raise UsageError("extensions induce different representations")
    return rep1, z1, z2


def check_equivalence(e: AbelianExtension, e2: AbelianExtension):
    """Morphism of extensions from e to e2, or None when inequivalent.

    The commuting requirements pin the morphism to identity-plus-fiber-shift
    in split coordinates, so equivalence reduces to the coboundary equation
    z - z2 = d(tau): tau is one coboundary preimage of z - z2 on the induced
    module (`coboundary_preimage`).  A found morphism is re-verified against
    all of its requirements.
    """
    rep, z1, z2 = _same_setting(e, e2)
    shift = coboundary_preimage(e.base, rep, z1.as_compatible() - z2.as_compatible())
    if shift is None:
        return None
    tau = shift.components[0]
    # phi = s2 o j + i2 o (fiber part + tau o j)
    phi = product_sum([(e2.splitting, e.projection),
                       (e2.inclusion, e.fiber_readout() + tau.coeffs @ e.projection)],
                      e.total.dim, e.total.dim)
    _verify_morphism(e, e2, phi)
    return phi


def _verify_morphism(e: AbelianExtension, e2: AbelianExtension, phi: Matrix):
    if (phi @ e.inclusion) != e2.inclusion:
        raise ContractError("morphism does not restrict to the fiber identity")
    if (e2.projection @ phi) != e.projection:
        raise ContractError("morphism does not cover the base identity")
    if (phi @ e.total.alpha) != (e2.total.alpha @ phi):
        raise ContractError("morphism does not intertwine the twists")
    square = exterior_square(phi)
    for mu, mu2 in zip(e.total.brackets, e2.total.brackets):
        if (phi @ mu) != (mu2 @ square):
            raise ContractError("morphism does not preserve the brackets")


def ext_class(e: AbelianExtension) -> tuple:
    """Coordinates of the extension's class in degree-2 cohomology of the
    induced representation.  Equivalent extensions and alternate splittings
    of one extension give identical coordinates."""
    rep, z = extract_cocycle(e)
    report = cohomology_dimensions(e.base, rep, 2)
    return class_coordinates(report, z.as_compatible())
