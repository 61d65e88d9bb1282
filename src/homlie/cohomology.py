"""Twisted Chevalley-Eilenberg cohomology and the two-bracket complex.

For a single bracket with coefficients in a module the coboundary is

    (d f)(x_1, ..., x_(n+1)) =
        sum_i (-1)^(i+1) alpha^(n-1)(x_i) . f(..., x_i omitted, ...)
      + sum_(i<j) (-1)^(i+j) f([x_i, x_j], alpha x_1, ..., omit i and j, ...,
                               alpha x_(n+1)),

with (d v)(x) = x . v in degree 0 on the twist-fixed vectors, the
equivariant arity-0 cochains.

For a compatible pair the degree-n group is the n-fold direct sum of the
equivariant cochain space, with differential

    d(f_1, ..., f_n) = (d1 f_1, ..., d1 f_i + d2 f_(i-1), ..., d2 f_n)

built from the two single-bracket coboundaries d1 and d2; these
anticommute, which makes the square zero.  Degree 0 consists of one
arity-0 component, a twist-fixed vector on which both actions agree, with
d(v) = x .1 v.

Every degree is one matrix picture on flat coordinates: an arity-n cochain
into a t-dimensional module is the row-major entry tuple of its t x C(d,n)
coefficient matrix (in arity 0 that is the vector itself), and a
two-bracket cochain lays its components end to end.  The single-bracket
coboundary C^n -> C^(n+1) of each bracket is a matrix, built once per
call.  Its action term is made of the blocks +-rho(alpha^(n-1) e_j).  Its
bracket term is F -> -F . K, where K = insertion_matrix(bracket, alpha, n)
is the C(d,n) x C(d,n+1) matrix of the insertion product F -> F <> [ , ]
(see `cochains`): column X of K expands the signed sum of the wedges
[e_i, e_j] ^ alpha e_k ^ ... over the pairs (i, j) of the (n+1)-tuple X in
the n-tuple basis.  A cochain space is a basis matrix B whose columns are
the equivariant basis cochains.  The two-bracket differential is the
(n+1) x n block-bidiagonal matrix with d1 on the diagonal and d2 below it,
and the images of B in every slot are the same layout of d1 . B and
d2 . B.

Dimension reports take kernels and images of these products by exact
elimination, map kernel and solve coordinates back through B, and choose
the cohomology representatives as the cocycle pivot columns of one reduced
echelon form of [coboundaries | cocycles].  The derivation space is the
degree-1 report of the two-bracket complex.  Whether a cochain is a
coboundary is one exact solve over the same images
(`coboundary_preimage`); extension equivalence and deformation extension
both ask it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import (
    CompatibleHomLieAlgebra,
    HomLieAlgebra,
    Representation,
    verify_structure,
)
from .cochains import (
    Cochain,
    hom_cochain_basis,
    increasing_tuples,
    insertion_matrix,
    require_equivariant,
    tuple_position,
)
from .errors import ContractError, PreconditionError, UsageError
from .linalg import (
    Matrix,
    ZERO,
    hstack,
    kernel_basis,
    rref,
    solve,
    span_basis,
    vstack,
)

PLAIN = "plain"
COMPATIBLE = "compatible"


@dataclass(frozen=True)
class CompatibleCochain:
    """Element of the two-bracket complex: n components of arity n in degree
    n >= 1, and one arity-0 component in degree 0."""

    degree: int
    components: tuple

    def __post_init__(self):
        if self.degree < 0:
            raise UsageError("negative degree")
        if len(self.components) != max(self.degree, 1):
            raise UsageError(f"degree {self.degree} needs {max(self.degree, 1)} components")
        for f in self.components:
            if not isinstance(f, Cochain) or f.arity != self.degree:
                raise UsageError("components must be cochains of arity equal to the degree")
        dims = {(f.source_dim, f.target_dim) for f in self.components}
        if len(dims) > 1:
            raise UsageError("components must share source and target dimensions")

    @classmethod
    def zero(cls, degree: int, source_dim: int, target_dim: int) -> "CompatibleCochain":
        return cls(degree, (Cochain.zero(degree, source_dim, target_dim),) * max(degree, 1))

    def flatten(self) -> tuple:
        out = ()
        for f in self.components:
            out += f.flatten()
        return out

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.components)

    def __add__(self, other: "CompatibleCochain") -> "CompatibleCochain":
        if self.degree != other.degree:
            raise UsageError("degree mismatch")
        return CompatibleCochain(
            self.degree, tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other: "CompatibleCochain") -> "CompatibleCochain":
        return self + other.scale(-1)

    def scale(self, c) -> "CompatibleCochain":
        return CompatibleCochain(self.degree, tuple(f.scale(c) for f in self.components))


@dataclass(frozen=True)
class CohomologyReport:
    """Exact dimensions and bases at one degree of one complex."""

    degree: int
    flavor: str
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int
    cocycle_basis: tuple
    coboundary_basis: tuple
    cohomology_basis: tuple  # cocycle representatives completing the coboundaries
    source_dim: int
    target_dim: int


def _validate_structures(struct, rep: Representation):
    report = verify_structure(struct)
    if not report.passed:
        raise PreconditionError("invalid algebra", report)
    rep_report = verify_structure(rep)
    if not rep_report.passed:
        raise PreconditionError("invalid representation", rep_report)
    if rep.base != struct:
        raise UsageError("representation is not over the given structure")


def ce_coboundary(l: HomLieAlgebra, v: Representation, f, check: bool = True):
    """Apply the single-bracket coboundary to an equivariant cochain.

    Degree 0 input is an arity-0 cochain, a twist-fixed vector v; the output
    is the arity-1 cochain x -> x . v.  With check=True the preconditions
    (equivariance of f, validity of l and v) are enforced.
    """
    if len(v.actions) != 1:
        raise UsageError("single-bracket coboundary needs a single-action representation")
    if check:
        _validate_structures(l, v)
        require_equivariant((f,), l.alpha, v.beta)
    _check_shape(f, l.dim, v.vdim)
    image = _coboundary_map(l, v, 1, f.arity) @ _column(f.flatten())
    return Cochain.from_flat(f.arity + 1, l.dim, v.vdim, image.entries)


def _column(flat: tuple) -> Matrix:
    return Matrix(len(flat), 1, flat)


def _check_shape(f, dim: int, vdim: int):
    if f.target_dim != vdim or f.source_dim != dim:
        raise UsageError("cochain shape does not match the algebra and module")


def _coboundary_map(struct, v: Representation, which: int, n: int) -> Matrix:
    """The coboundary C^n -> C^(n+1) of bracket `which` with action table
    `which`, as a matrix on flat coordinates.

    The unit cochain at module index q on the n-tuple I (column q C(d,n) + k
    for I the k-th tuple) maps to
      - (-1)^pos rho(alpha^(n-1) e_j)[r, q] at module index r on the
        (n+1)-tuple X = I with j inserted at position pos (action term);
      - -K[I, X] at module index q on X (bracket term), where K is the
        insertion matrix of the bracket cochain: F -> -F . K is
        -(F <> [ , ]).
    In degree 0 the action blocks are the plain action matrices.
    """
    dim, vdim = struct.dim, v.vdim
    tuples_in = increasing_tuples(dim, n)
    n_in, n_out = len(tuples_in), comb(dim, n + 1)
    cols = vdim * n_in
    entries = [ZERO] * (vdim * n_out * cols)
    if n_out:
        out_pos = tuple_position(dim, n + 1)
        bracket = Cochain(2, dim, dim, struct.brackets[which - 1])
        k_term = insertion_matrix(bracket, struct.alpha, n)
        bracket_rows = [{x: -a for x, a in enumerate(k_term.row(k)) if a}
                        for k in range(n_in)]
        alpha_prev = struct.alpha.power(max(n - 1, 0))
        blocks = [v.action(which, alpha_prev.col(j)).entries for j in range(dim)]
        for k, I in enumerate(tuples_in):
            inserted = []
            for j in range(dim):
                if j not in I:
                    pos = bisect_left(I, j)
                    inserted.append((j, out_pos[I[:pos] + (j,) + I[pos:]], pos % 2))
            for q in range(vdim):
                col = q * n_in + k
                for x, value in bracket_rows[k].items():
                    entries[(q * n_out + x) * cols + col] = value
                for j, x, odd in inserted:
                    block = blocks[j]
                    for r in range(vdim):
                        value = block[r * vdim + q]
                        if value:
                            entries[(r * n_out + x) * cols + col] += -value if odd else value
    return Matrix(vdim * n_out, cols, tuple(entries))


def _c0_constraints(c: CompatibleHomLieAlgebra, v: Representation) -> Matrix:
    """beta - 1 over the differences of the two actions of every basis
    element: its kernel is the degree-0 group of the two-bracket complex."""
    blocks = [v.beta - Matrix.identity(v.vdim)]
    for i in range(c.dim):
        blocks.append(v.actions[0][i] - v.actions[1][i])
    return vstack(blocks)


def _c0_compatible_basis(c: CompatibleHomLieAlgebra, v: Representation):
    """Vectors fixed by beta on which the two actions of every basis element
    agree, as arity-0 cochains."""
    return [Cochain.from_flat(0, c.dim, v.vdim, w) for w in kernel_basis(_c0_constraints(c, v))]


def compatible_coboundary(c: CompatibleHomLieAlgebra, v: Representation,
                          f: CompatibleCochain, check: bool = True) -> CompatibleCochain:
    """Interleaved coboundary of the two-bracket complex."""
    if len(v.actions) != 2:
        raise UsageError("compatible coboundary needs a two-action representation")
    if check:
        _validate_structures(c, v)
        if f.degree == 0:
            if not (_c0_constraints(c, v) @ f.components[0].coeffs).is_zero():
                raise PreconditionError(
                    "vector is not in the degree-0 group (twist-fixed with agreeing actions)"
                )
        else:
            require_equivariant(f.components, c.alpha, v.beta, "component is not twist-equivariant")
    n = f.degree
    for comp in f.components:
        _check_shape(comp, c.dim, v.vdim)
    columns = [comp.flatten() for comp in f.components]
    images = _images(c, v, n, COMPATIBLE, Matrix.from_columns(columns, len(columns[0])))
    # Column s m + j of the images is component j placed in slot s, and d f is
    # the sum of the columns s m + s, which the flattened m x m identity picks.
    image = images @ _column(Matrix.identity(len(columns)).entries)
    return _from_flat(image.entries, c.dim, v.vdim, n + 1, COMPATIBLE)


def _basis_matrix(struct, v: Representation, n: int, flavor: str) -> Matrix:
    """The single-bracket basis of degree-n cochains as the columns of one
    matrix on flat coordinates; the two-bracket complex places it in every
    slot."""
    if flavor == COMPATIBLE and n == 0:
        singles = _c0_compatible_basis(struct, v)
    else:
        singles = hom_cochain_basis(struct.alpha, v.beta, n)
    return Matrix.from_columns([b.flatten() for b in singles], v.vdim * comb(struct.dim, n))


def _images(struct, v: Representation, n: int, flavor: str, basis: Matrix) -> Matrix:
    """The coboundaries of the columns of `basis` placed in every slot, one
    column each in slot-major order: d1 . B for one bracket and in degree 0,
    else the (n+1) x n block matrix with d1 . B on the diagonal and d2 . B
    just below it, so that slot i of d f is d1 f_i + d2 f_(i-1)."""
    d1 = _coboundary_map(struct, v, 1, n) @ basis
    if flavor == PLAIN or n == 0:
        return d1
    d2 = _coboundary_map(struct, v, 2, n) @ basis
    zero = Matrix.zero(d1.rows, d1.cols)
    return vstack(hstack(d1 if j == i else d2 if j == i - 1 else zero for j in range(n))
                  for i in range(n + 1))


def _in_slots(basis: Matrix, coords: Matrix, copies: int) -> list:
    """The flat cochains whose coordinates over `copies` slots of the basis
    matrix are the columns of coords: slot s is basis times the s-th block
    of basis.cols rows of coords."""
    k, m = basis.cols, coords.cols
    slots = [basis @ Matrix(k, m, coords.entries[s * k * m : (s + 1) * k * m])
             for s in range(copies)]
    return [tuple(x for block in slots for x in block.col(j)) for j in range(m)]


def _from_flat(flat, dim: int, vdim: int, degree: int, flavor: str):
    """The cochain with the given flat coordinates (the inverse of `flatten`);
    a bare Cochain in degree 0 of either flavor, as the reports give it."""
    if flavor == PLAIN or degree == 0:
        return Cochain.from_flat(degree, dim, vdim, flat)
    per = vdim * comb(dim, degree)
    return CompatibleCochain(degree, tuple(
        Cochain.from_flat(degree, dim, vdim, flat[k * per : (k + 1) * per])
        for k in range(degree)
    ))


def cohomology_dimensions(struct, v: Representation, n: int, flavor: str = None) -> CohomologyReport:
    """Cocycle, coboundary and cohomology dimensions at degree n, with exact bases.

    The coboundary matrices of degrees n-1 and n are built once and
    multiplied by the basis matrices of the exact equivariant bases.  The
    cocycles are the basis matrix times the kernel basis of the degree-n
    images, the coboundary basis is the reduced row basis of the
    degree-(n-1) images.  The cohomology representatives are the cocycles
    whose columns are pivots in the reduced echelon form of
    [coboundaries | cocycles]; that form also asserts that the coboundaries
    lie among the cocycles, and raises ContractError otherwise.
    """
    if n < 0:
        raise UsageError("negative degree")
    if flavor is None:
        flavor = COMPATIBLE if isinstance(struct, CompatibleHomLieAlgebra) else PLAIN
    if flavor == PLAIN and not isinstance(struct, HomLieAlgebra):
        raise UsageError("plain flavor needs a single-bracket algebra")
    if flavor == COMPATIBLE and not isinstance(struct, CompatibleHomLieAlgebra):
        raise UsageError("compatible flavor needs a two-bracket algebra")
    _validate_structures(struct, v)
    return _cohomology_report(struct, v, n, flavor)


def _cohomology_report(struct, v: Representation, n: int, flavor: str) -> CohomologyReport:
    """The report of `cohomology_dimensions`, for a structure and a module
    that are already known to be valid."""
    basis = _basis_matrix(struct, v, n, flavor)
    images = _images(struct, v, n, flavor, basis)
    kernel = Matrix.from_columns(kernel_basis(images), images.cols)
    cocycles = _in_slots(basis, kernel, 1 if flavor == PLAIN else max(n, 1))

    boundaries = []
    if n >= 1:
        prev = _images(struct, v, n - 1, flavor, _basis_matrix(struct, v, n - 1, flavor))
        boundaries = span_basis(prev.col(j) for j in range(prev.cols))

    columns = boundaries + cocycles
    pivots = rref(Matrix.from_columns(columns, len(columns[0])))[1] if columns else ()
    if len(pivots) != len(cocycles):
        raise ContractError("coboundaries do not lie in the cocycle space")
    representatives = [cocycles[p - len(boundaries)] for p in pivots if p >= len(boundaries)]

    def items(vectors):
        return tuple(_from_flat(w, struct.dim, v.vdim, n, flavor) for w in vectors)

    return CohomologyReport(
        degree=n,
        flavor=flavor,
        dim_cochains=images.cols,
        dim_cocycles=len(cocycles),
        dim_coboundaries=len(boundaries),
        dim_cohomology=len(representatives),
        cocycle_basis=items(cocycles),
        coboundary_basis=items(boundaries),
        cohomology_basis=items(representatives),
        source_dim=struct.dim,
        target_dim=v.vdim,
    )


def class_coordinates(report: CohomologyReport, item) -> tuple:
    """Coordinates of a cocycle's class in the report's cohomology basis.

    Cohomologous inputs give identical coordinates; inputs outside the
    cocycle space are rejected.
    """
    w = item.flatten()
    columns = [b.flatten() for b in report.coboundary_basis + report.cohomology_basis]
    x = solve(Matrix.from_columns(columns, len(w)), w)
    if x is None:
        raise PreconditionError("not a cocycle for this report")
    return tuple(x[report.dim_coboundaries :])


def coboundary_preimage(c: CompatibleHomLieAlgebra, v: Representation,
                        target: CompatibleCochain):
    """One equivariant cochain x with d x = target in the two-bracket
    complex, or None when the target is not a coboundary.

    x is one exact solution over the degree-(n-1) basis for a degree-n
    target; in degree 0 it is a bare arity-0 Cochain, as in the reports.
    An empty basis yields the zero cochain for a zero target.  The inputs
    are not re-validated.
    """
    n = target.degree - 1
    if n < 0:
        raise UsageError("a degree-0 cochain has no preimage")
    basis = _basis_matrix(c, v, n, COMPATIBLE)
    x = solve(_images(c, v, n, COMPATIBLE, basis), target.flatten())
    if x is None:
        return None
    flat, = _in_slots(basis, _column(x), max(n, 1))
    return _from_flat(flat, c.dim, v.vdim, n, COMPATIBLE)


@dataclass(frozen=True)
class DerivationReport:
    derivations: tuple  # arity-1 cochains
    inner: tuple
    outer_dim: int


def derivation_space(c: CompatibleHomLieAlgebra, v: Representation) -> DerivationReport:
    """Derivations, inner derivations and the outer dimension, read off the
    degree-1 report of the two-bracket complex.

    A degree-1 cocycle is a twist-equivariant map satisfying the Leibniz rule
    for both brackets, a degree-1 coboundary is the inner derivation
    x -> x .1 z of a degree-0 vector z, and the outer dimension is the
    degree-1 cohomology.  The inner basis is the reduced row basis of the
    inner derivations.
    """
    if len(v.actions) != 2:
        raise UsageError("derivation space needs a two-action representation")
    h1 = cohomology_dimensions(c, v, 1, COMPATIBLE)
    return DerivationReport(
        tuple(f.components[0] for f in h1.cocycle_basis),
        tuple(f.components[0] for f in h1.coboundary_basis),
        h1.dim_cohomology,
    )


def comparison_map(f: CompatibleCochain):
    """Collapse a two-bracket cochain into the sum-bracket complex:
    half the vector in degree 0, the sum of the components otherwise."""
    if f.degree == 0:
        return f.components[0].scale(Fraction(1, 2))
    out = f.components[0]
    for comp in f.components[1:]:
        out = out + comp
    return out
