"""Twisted Chevalley-Eilenberg cohomology and the two-bracket complex.

For a single bracket with coefficients in a module the coboundary is

    (d f)(x_1, ..., x_(n+1)) =
        sum_i (-1)^(i+1) alpha^(n-1)(x_i) . f(..., x_i omitted, ...)
      + sum_(i<j) (-1)^(i+j) f([x_i, x_j], alpha x_1, ..., omit i and j, ...,
                               alpha x_(n+1)),

with (d v)(x) = x . v in degree 0 on the twist-fixed vectors, the
equivariant arity-0 cochains.

For a compatible pair the degree-n group is the n-fold direct sum of the
equivariant cochain space (one slot in degree 0: a twist-fixed vector on
which both actions agree), with differential

    d(f_1, ..., f_n) = (d1 f_1, ..., d1 f_i + d2 f_(i-1), ..., d2 f_n)

built from the two single-bracket coboundaries d1 and d2, and d(v) = d1 v
in degree 0; d1 and d2 anticommute, which makes the square zero.

Every degree is one matrix picture on flat coordinates: an arity-n cochain
into a t-dimensional module is the row-major entry tuple of its t x C(d,n)
coefficient matrix (in arity 0 that is the vector itself), and a
two-bracket cochain lays its slots end to end (`_slots` counts them).  The
single-bracket coboundary C^n -> C^(n+1) of each bracket is one sparse
matrix, built as its formula

    d = sum_j kron(a_j, E_j^T) - kron(1, K^T),    a_j = rho(alpha^(n-1) e_j).

The action term puts F -> a_j F E_j, where E_j (C(d,n) x C(d,n+1)) is the
signed incidence e_I -> e_j ^ e_I.  The bracket term is F -> -F . K, where
K = insertion_matrix(bracket, compounds, n), with the twist's table kept
on the structure, is the C(d,n) x C(d,n+1) matrix of the insertion
product F -> F <> [ , ] (see `cochains`); the d + 1 terms
are summed by one `kron_sum`.  A cochain space is a basis matrix B whose
columns are the equivariant basis cochains: B is the kernel matrix of the
equivariance constraints (`cochains.equivariance_constraints`, and in
two-bracket degree 0 the agreement of the two actions) taken as it is.

A module keeps one complex (`_Complex`): per degree the matrices K, d1
and d2, one differential laid out from them (`_layout`: d1 alone for one
bracket and in degree 0, else (n+1) x n blocks with d1 on the diagonal and
d2 below it), B, its images (the same layout of d1 . B and d2 . B) and
their elimination.  Every coboundary is one product with the differential.

The complex also keeps, per degree, the cocycle matrix Z (B in every slot
times the kernel matrix of the images), the coboundaries (the reduced row
basis of the images one degree down) and the dimension report built from
the two.  Its build checks once that the coboundaries are cocycles and
records the classes: each column of Z has an identity row, those rows of
the coboundaries are their coordinates C, and the exact product
Z . C = coboundaries is the check (`_coboundary_coordinates`).  The class
map Q, which takes cocycle coordinates to classes, is the left kernel of
C: the kernel matrix (`_kernel`) of one elimination of C^T with its
columns reversed, transposed and put back in order.  So Q . C = 0, and Q
is the identity on the representatives, the first column of each of its
rows: the cocycles that no combination of coboundaries ends on (the
cocycle pivot columns of the reduced echelon form of [coboundaries |
cocycles]).  So a report asked for again is the kept one, and a class
question (`class_coordinates`) reads the record the report carries with
products alone.  A cochain enters as the sparse column of its flat
coordinates (`_flat`) and leaves through `_cochains`, which cuts each
column into its slots' coefficient matrices in one pass;
kernels, solutions and coboundary bases stay matrices in between, so no
cochain goes through a dense tuple.
The derivation space is the degree-1 report of the two-bracket complex.
Whether a cochain is a coboundary is one exact solve over the same images
(`coboundary_preimage`); extension equivalence and deformation extension
both ask it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .algebra import (
    CompatibleHomLieAlgebra,
    HomLieAlgebra,
    Representation,
    _Algebra,
    require_valid,
)
from .cochains import (
    Cochain,
    _equivariant_columns,
    insertion_matrix,
    require_equivariant,
    transposed_incidence,
)
from .errors import ContractError, PreconditionError, UsageError, _require_kind
from .linalg import (
    Matrix,
    _column_blocks,
    _elimination,
    _kernel,
    _replay,
    _row_space,
    kron_sum,
    vsplit,
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
        slots = _two_bracket_slots(self.degree)
        if len(self.components) != slots:
            raise UsageError(f"degree {self.degree} needs {slots} components")
        for f in self.components:
            if not isinstance(f, Cochain) or f.arity != self.degree:
                raise UsageError("components must be cochains of arity equal to the degree")
        dims = {(f.source_dim, f.target_dim) for f in self.components}
        if len(dims) > 1:
            raise UsageError("components must share source and target dimensions")

    @classmethod
    def zero(cls, degree: int, source_dim: int, target_dim: int) -> "CompatibleCochain":
        zero = Cochain.zero(degree, source_dim, target_dim)
        return cls(degree, (zero,) * _two_bracket_slots(degree))

    def flatten(self) -> tuple:
        return _flat(self).entries

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
    flavor: str  # PLAIN or COMPATIBLE: the complex the structure fixes
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int
    cocycle_basis: tuple
    coboundary_basis: tuple
    cohomology_basis: tuple  # cocycle representatives completing the coboundaries
    source_dim: int
    target_dim: int
    # The record (cocycles, S, class map) that `class_coordinates` reads;
    # it takes no part in equality, hashing or repr.
    _classes: tuple = field(default=None, compare=False, repr=False, kw_only=True)


def _validate_structures(struct, rep: Representation):
    _require_kind(struct, _Algebra, "take cochains on")
    _require_kind(rep, Representation, "take coefficients in")
    require_valid(struct, "invalid algebra")
    require_valid(rep, "invalid representation")
    if rep.base != struct:
        raise UsageError("representation is not over the given structure")


def ce_coboundary(l: HomLieAlgebra, v: Representation, f):
    """Apply the single-bracket coboundary to an equivariant cochain.

    Degree 0 input is an arity-0 cochain, a twist-fixed vector v; the output
    is the arity-1 cochain x -> x . v.  Every call enforces the
    preconditions: validity of l and v, and equivariance of f.
    """
    _require_kind(v, Representation, "take coefficients in")
    _require_kind(f, Cochain, "take the single-bracket coboundary of")
    if len(v.actions) != 1:
        raise UsageError("single-bracket coboundary needs a single-action representation")
    _validate_structures(l, v)
    require_equivariant((f,), l._compounds, v.beta)
    _check_shape(f, l.dim, v.vdim)
    return _cochains(v._complex["differential", f.arity] @ _flat(f), l, v.vdim, f.arity + 1)[0]


def _flat(f) -> Matrix:
    """The flat coordinates of a Cochain or CompatibleCochain as one
    column: `flatten` as a matrix."""
    parts = f.components if isinstance(f, CompatibleCochain) else (f,)
    return vstack([p.coeffs.reshape(p.coeffs.rows * p.coeffs.cols, 1) for p in parts])


def _cochains(flat: Matrix, struct, vdim: int, degree: int) -> tuple:
    """The cochains of the complex of `struct` whose flat coordinates are
    the columns of `flat` (the inverse of `_flat`); a bare Cochain for one
    bracket and in degree 0, as the reports give it.  Each column is cut
    into the coefficient matrices of its slots in one pass
    (`_column_blocks`)."""
    out = []
    for blocks in _column_blocks(flat, _slots(struct, degree), vdim, comb(struct.dim, degree)):
        parts = tuple(Cochain(degree, struct.dim, vdim, block) for block in blocks)
        out.append(CompatibleCochain(degree, parts) if len(struct.brackets) == 2 and degree
                   else parts[0])
    return tuple(out)


def _slots(struct, n: int) -> int:
    """The arity-n slots of a degree-n cochain of the complex of `struct`."""
    return _two_bracket_slots(n) if len(struct.brackets) == 2 else 1


def _two_bracket_slots(n: int) -> int:
    """The arity-n slots of a degree-n cochain of a two-bracket complex: n,
    and one in degree 0."""
    return n if n else 1


def _check_shape(f, dim: int, vdim: int):
    if f.target_dim != vdim or f.source_dim != dim:
        raise UsageError("cochain shape does not match the algebra and module")


def _coboundary_map(struct, v: Representation, which: int, n: int) -> Matrix:
    """The coboundary C^n -> C^(n+1) of bracket `which` with action table
    `which`, as a matrix on flat coordinates:

        sum_j kron(a_j, E_j^T) - kron(1, K^T),   a_j = rho(alpha^(n-1) e_j),

    with the E_j^T cached by `transposed_incidence` and K the insertion
    matrix of the bracket cochain, kept on v.  Each block a_j is the
    combination sum_i alpha^(n-1)[i, j] rho(e_i) of the action table, read
    off the nonzeros of column j of the twist power; in degrees 0 and 1 it
    is the action matrix rho(e_j) itself.
    """
    dim, vdim = struct.dim, v.vdim
    if comb(dim, n + 1) == 0:  # no (n+1)-tuples: nothing to build
        return Matrix.zero(0, vdim * comb(dim, n))
    table, columns = v.actions[which - 1], struct.alpha.power(max(n - 1, 0)).transpose()
    blocks = (sum((table[i].scale(c) for i, c in columns.row_items(j)), Matrix.zero(vdim, vdim))
              for j in range(dim))
    terms = [(Matrix.identity(vdim), -v._complex["insertion", which, n].transpose())]
    terms += zip(blocks, transposed_incidence(dim, n))
    return kron_sum(terms, vdim * comb(dim, n + 1), vdim * comb(dim, n))


def _c0_constraints(c: CompatibleHomLieAlgebra, v: Representation) -> Matrix:
    """beta - 1 over the differences of the two actions of every basis
    element: its kernel is the degree-0 group of the two-bracket complex."""
    blocks = [v.beta - Matrix.identity(v.vdim)]
    for i in range(c.dim):
        blocks.append(v.actions[0][i] - v.actions[1][i])
    return vstack(blocks)


def compatible_coboundary(c: CompatibleHomLieAlgebra, v: Representation,
                          f: CompatibleCochain) -> CompatibleCochain:
    """Interleaved coboundary of the two-bracket complex.  Every call
    enforces the preconditions: validity of c and v, and f in the
    degree-0 group or twist-equivariant."""
    _require_kind(v, Representation, "take coefficients in")
    _require_kind(f, CompatibleCochain, "take the two-bracket coboundary of")
    if len(v.actions) != 2:
        raise UsageError("compatible coboundary needs a two-action representation")
    _validate_structures(c, v)
    if f.degree == 0:
        if not (_c0_constraints(c, v) @ f.components[0].coeffs).is_zero():
            raise PreconditionError(
                "vector is not in the degree-0 group (twist-fixed with agreeing actions)"
            )
    else:
        require_equivariant(f.components, c._compounds, v.beta,
                            "component is not twist-equivariant")
    _check_shape(f.components[0], c.dim, v.vdim)  # the components share their shape
    return _cochains(v._complex["differential", f.degree] @ _flat(f), c, v.vdim, f.degree + 1)[0]


def _layout(struct, n: int, block) -> Matrix:
    """The degree-n layout of the complex of `struct` from the blocks
    block(b) of its brackets: block(1) where degree n + 1 has one slot (one
    bracket, or n = 0), else the (n+1) x n block matrix with block(1) on the
    diagonal and block(2) just below it.  From d1, d2 it is the
    differential, and from d1 . B, d2 . B (the mixed-product rule) its
    images of B in every slot.  Empty blocks lay out nothing."""
    out, into = _slots(struct, n + 1), _slots(struct, n)
    if out == 1:
        return block(1)
    d1, d2 = block(1), block(2)
    rows, cols = out * d1.rows, into * d1.cols
    if not rows or not cols:
        return Matrix.zero(rows, cols)
    diagonal, below = (Matrix.from_entries(out, into, {(i + s, i): 1 for i in range(into)})
                       for s in (0, 1))
    return kron_sum([(diagonal, d1), (below, d2)], rows, cols)


class _Complex(dict):
    """The complex kept on a module v (`v._complex`), built from v and its
    base on first use: ("insertion", b, n) and ("coboundary", b, n) are
    K and d_b of bracket b in degree n, and ("differential", n),
    ("basis", n), ("images", n), ("elimination", n), ("cocycles", n) and
    ("coboundaries", n) their layout, the basis matrix, its images, their
    elimination, the cocycle matrix (the basis matrix in every slot times
    the kernel matrix of the images, read off that elimination, so each
    images matrix is eliminated once) and the canonical column basis of the
    degree-(n-1) images; ("report", n) is the report of
    `cohomology_dimensions` (a build that raises keeps nothing).  The basis
    matrix holds the single-bracket basis of degree-n cochains as columns
    on flat coordinates, the kernel matrix of its constraints as it is; the
    two-bracket complex places it in every slot."""

    def __init__(self, v: Representation):
        self.module = v

    def __missing__(self, key):
        v, part, n = self.module, key[0], key[-1]
        s = v.base
        if part == "insertion":
            value = insertion_matrix(Cochain(2, s.dim, s.dim, s.brackets[key[1] - 1]),
                                     s._compounds, n)
        elif part == "coboundary":
            value = _coboundary_map(s, v, key[1], n)
        elif part == "differential":
            value = _layout(s, n, lambda b: self["coboundary", b, n])
        elif part == "basis":  # in two-bracket degree 0: where the two actions agree
            value = (_kernel(_elimination(_c0_constraints(s, v))) if len(s.brackets) == 2 and not n
                     else _equivariant_columns(s._compounds, v.beta, n))
        elif part == "images":
            value = _layout(s, n, lambda b: self["coboundary", b, n] @ self["basis", n])
        elif part == "elimination":
            value = _elimination(self["images", n])
        elif part == "cocycles":
            value = _in_slots(self["basis", n], _kernel(self["elimination", n]), _slots(s, n))
        elif part == "coboundaries":  # none in degree 0
            value = (_row_space(self["images", n - 1].transpose()).transpose() if n
                     else Matrix.zero(self["basis", 0].rows, 0))
        else:  # the report, read off the cocycles and the coboundaries
            cocycles, boundaries = self["cocycles", n], self["coboundaries", n]
            try:
                select, ends = _coboundary_coordinates(cocycles, boundaries)
            except ContractError:
                if n == 1 and not (self["differential", 1] @ self["images", 0]).is_zero():
                    raise PreconditionError(
                        "degree-1 cohomology is undefined for this module: d1 . d0 is not zero, "
                        "since the twist changes the actions seen by its fixed vectors") from None
                raise
            # The class map: the left kernel of C, its order put back.
            kernel = _kernel(_elimination(ends))
            classes = Matrix.from_entries(kernel.cols, kernel.rows, {
                (kernel.cols - 1 - k, kernel.rows - 1 - c): x
                for c in range(kernel.rows) for k, x in kernel.row_items(c)})
            representatives = tuple(classes.row_items(i)[0][0] for i in range(classes.rows))
            cocycle_basis = _cochains(cocycles, s, v.vdim, n)
            value = CohomologyReport(
                degree=n,
                flavor=COMPATIBLE if len(s.brackets) == 2 else PLAIN,
                dim_cochains=self["images", n].cols,
                dim_cocycles=cocycles.cols,
                dim_coboundaries=boundaries.cols,
                dim_cohomology=len(representatives),
                cocycle_basis=cocycle_basis,
                coboundary_basis=_cochains(boundaries, s, v.vdim, n),
                cohomology_basis=tuple(cocycle_basis[k] for k in representatives),
                source_dim=s.dim,
                target_dim=v.vdim,
                _classes=(cocycles, select, classes),
            )
        self[key] = value
        return value


def _in_slots(basis: Matrix, coords: Matrix, slots: int) -> Matrix:
    """The flat cochains whose coordinates over `slots` slots of the basis
    matrix are the columns of coords, kron(1, basis) . coords with no
    Kronecker matrix: slot s is basis times row block s of coords, and the
    result is those products stacked.  No unknowns give zeros, with no
    block per slot, since the slots are as many as the degree."""
    if not basis.cols:
        return Matrix.zero(slots * basis.rows, coords.cols)
    return vstack([basis @ block for block in vsplit(coords, slots)])


def _coboundary_coordinates(cocycles: Matrix, boundaries: Matrix) -> tuple:
    """The selection of cocycle coordinates, and the coordinates of the
    coboundaries as rows with their columns reversed.

    The cocycle matrix Z is a kernel matrix in every slot, so for each
    column k it has an identity row, whose one entry is 1 in column k: that
    row of any vector in the span of Z is its coordinate k.  The first such
    row of each column makes the z x rows selection S (ContractError where
    a column has none), S . w are the coordinates y of a cocycle w, and
    w is a cocycle exactly when Z . y = w.  The coordinates C = S .
    coboundaries pass that test, Z . C = coboundaries, or the coboundaries
    are no cocycles (ContractError).  Returns S and C^T with column k moved
    to z - 1 - k, whose kernel is the class map with its rows and columns
    reversed: its free columns are the cocycles no combination of
    coboundaries ends on, last first."""
    z = cocycles.cols
    unit = {}
    for r in range(cocycles.rows):
        items = cocycles.row_items(r)
        if len(items) == 1 and items[0][1] == 1:
            unit.setdefault(items[0][0], r)
    if len(unit) != z:
        raise ContractError("a cocycle column has no identity row")
    select = Matrix.from_entries(z, cocycles.rows, {(k, r): 1 for k, r in unit.items()})
    coords = select @ boundaries
    if cocycles @ coords != boundaries:
        raise ContractError("coboundaries do not lie in the cocycle space")
    return select, Matrix.from_entries(boundaries.cols, z, {
        (j, z - 1 - k): x for k in range(z) for j, x in coords.row_items(k)})


def cohomology_dimensions(struct, v: Representation, n: int) -> CohomologyReport:
    """Cocycle, coboundary and cohomology dimensions at degree n, with exact bases.

    The complex is the one struct fixes: single-bracket for a
    HomLieAlgebra, two-bracket for a CompatibleHomLieAlgebra.  The
    cocycles (the basis matrix times the kernel basis of the degree-n
    images) and the coboundaries (the reduced row basis of the
    degree-(n-1) images) are kept on v, and so is the report, built once
    per module and degree: a report asked for again is the same object.
    The cohomology representatives are the cocycle pivot columns of
    rref([coboundaries | cocycles]), read off the class map, the left
    kernel of the coboundaries' cocycle coordinates (`_kernel`).  The build
    checks that the coboundaries lie among the cocycles (ContractError
    otherwise), and a refused report keeps nothing.  The report carries the
    class record for `class_coordinates`.

    d . d is zero from degree 1 on, but d1 . d0 is zero only where the
    twist keeps the actions seen by its fixed vectors:
    (d1 d0 v)(x, y) = ((1 - alpha) x) . (y . v) - ((1 - alpha) y) . (x . v).
    A degree-1 report whose coboundaries are no cocycles for that reason
    raises PreconditionError; the check runs only when the containment
    fails.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise UsageError(f"degree must be an int, got {type(n).__name__}")
    if n < 0:
        raise UsageError("negative degree")
    _validate_structures(struct, v)
    return v._complex["report", n]


def class_coordinates(report: CohomologyReport, item) -> tuple:
    """Coordinates of a cocycle's class in the report's cohomology basis.

    Cohomologous inputs give identical coordinates; inputs outside the
    cocycle space are rejected, and a cochain of another shape than the
    report's is a UsageError.  The answer is read off the class record
    the report carries, with no elimination: the cocycle
    coordinates y = S . w of the flat cochain w, the cocycle test
    Z . y = w, and the product of the class map with y (the left kernel
    of the coboundary coordinates, read with `_kernel`).
    """
    _require_kind(report, CohomologyReport, "read classes off")
    _require_kind(item, (Cochain, CompatibleCochain), "take the class of")
    parts = item.components if isinstance(item, CompatibleCochain) else (item,)
    shape = (report.degree, report.source_dim, report.target_dim)
    slots = _two_bracket_slots(report.degree) if report.flavor == COMPATIBLE else 1
    if len(parts) != slots or any((f.arity, f.source_dim, f.target_dim) != shape for f in parts):
        raise UsageError("cochain shape does not match the report")
    if report._classes is None:
        raise UsageError("the report was not made by cohomology_dimensions")
    cocycles, select, classes = report._classes
    w = _flat(item)
    y = select @ w
    if cocycles @ y != w:
        raise PreconditionError("not a cocycle for this report")
    return (classes @ y).col(0)


def coboundary_preimage(c: CompatibleHomLieAlgebra, v: Representation,
                        target: CompatibleCochain):
    """One equivariant cochain x with d x = target in the two-bracket
    complex, or None when the target is not a coboundary.

    x is one exact solution over the degree-(n-1) basis for a degree-n
    target; in degree 0 it is a bare arity-0 Cochain, as in the reports.
    An empty basis yields the zero cochain for a zero target.  The solve
    replays the elimination of the images kept on v (`linalg._replay`).
    The callers check the inputs on the way in (`verify_order_p`,
    `extract_cocycle`).
    """
    n = target.degree - 1
    if n < 0:
        raise UsageError("a degree-0 cochain has no preimage")
    x = _replay(v._complex["elimination", n], _flat(target))
    if x is None:
        return None
    return _cochains(_in_slots(v._complex["basis", n], x, _slots(c, n)), c, v.vdim, n)[0]


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
    _require_kind(v, Representation, "take coefficients in")
    if len(v.actions) != 2:
        raise UsageError("derivation space needs a two-action representation")
    h1 = cohomology_dimensions(c, v, 1)
    return DerivationReport(
        tuple(f.components[0] for f in h1.cocycle_basis),
        tuple(f.components[0] for f in h1.coboundary_basis),
        h1.dim_cohomology,
    )


def comparison_map(f: CompatibleCochain):
    """Collapse a two-bracket cochain into the sum-bracket complex:
    half the vector in degree 0, the sum of the components otherwise."""
    _require_kind(f, CompatibleCochain, "collapse")
    if f.degree == 0:
        return f.components[0].scale(Fraction(1, 2))
    out = f.components[0]
    for comp in f.components[1:]:
        out = out + comp
    return out
