"""Workload inputs, built only through the public homlie API.

Every generator takes a `random.Random` made from the benchmark seed.  The
seed picks signs, eigenvalue positions and the order of operator values; it
never changes a dimension, a degree or the nonzero pattern of a structure,
so problem sizes (and cost) are the same for every seed.
"""

from __future__ import annotations

from math import comb

import homlie as H
from homlie import fixtures
from homlie.documents import AlgebraDocument, OperatorEntry, serialize


# ---------------------------------------------------------------- structures

def heisenberg(n: int, signs=None) -> H.HomLieAlgebra:
    """h_(2n+1) in the basis x_1..x_n, y_1..y_n, z with [x_i, y_i] = s_i z."""
    d = 2 * n + 1
    signs = signs or [1] * n
    centre = [0] * (d - 1)
    return H.HomLieAlgebra.from_brackets(
        d, H.Matrix.identity(d), {(i, n + i): centre + [signs[i]] for i in range(n)}
    )


def yau_twist(lie: H.HomLieAlgebra, automorphism: H.Matrix) -> H.HomLieAlgebra:
    """[x, y]_a = a[x, y] with twist a (D. Yau, Hom-algebras and homology)."""
    return H.HomLieAlgebra(lie.dim, automorphism, automorphism @ lie.bracket)


def heisenberg_flip(n: int, rng) -> H.Matrix:
    """Diagonal automorphism of h_(2n+1): -1 on both x_i and y_i of n // 2
    seeded pairs (at least one), +1 elsewhere.  Repeated eigenvalues keep the
    equivariant cochain spaces large."""
    flipped = set(rng.sample(range(n), max(1, n // 2)))
    pair = [-1 if i in flipped else 1 for i in range(n)]
    return H.Matrix.diagonal(pair + pair + [1])


def heisenberg_nijenhuis(n: int, x_value, y_values, z_value) -> H.LinearOperator:
    """Diagonal operator; it is Nijenhuis for every bracket [x_i, y_i] = c_i z
    whenever x_value == z_value."""
    return H.LinearOperator(
        H.Matrix.diagonal([x_value] * n + list(y_values) + [z_value]), H.NIJENHUIS
    )


def nijenhuis_pair(lie: H.HomLieAlgebra, op: H.LinearOperator) -> H.CompatibleHomLieAlgebra:
    """The compatible pair ([,], [,]_N) on one carrier and twist."""
    return H.CompatibleHomLieAlgebra(
        lie.dim, lie.alpha, lie.bracket, H.induced_bracket(lie, op).bracket
    )


def zero_pair(lie: H.HomLieAlgebra) -> H.CompatibleHomLieAlgebra:
    return H.CompatibleHomLieAlgebra(
        lie.dim, lie.alpha, lie.bracket, H.Matrix.zero(lie.dim, comb(lie.dim, 2))
    )


def trivial_module(struct) -> H.Representation:
    """Q with the identity twist and zero action(s)."""
    zero = H.Matrix.zero(1, 1)
    tables = tuple(tuple(zero for _ in range(struct.dim)) for _ in struct.brackets)
    return H.Representation(struct, 1, H.Matrix.identity(1), tables)


def nonzero_count(struct) -> int:
    """Structure-constant nonzeros over all brackets."""
    return sum(1 for b in struct.brackets for x in b.entries if x)


# ---------------------------------------------------------------- base change

class BaseChange:
    """New basis e'_j = sum_i P[i][j] e_i with P = L L^T S.

    L is unit lower triangular with ones on its first `band` subdiagonals
    (band = d - 1 gives the Pascal matrix), so P is unimodular and the
    transformed structure constants are dense integers.  S is a seeded
    diagonal sign matrix: it changes coefficients but not their magnitudes,
    so every seed costs the same.
    """

    def __init__(self, d: int, band: int, rng):
        lower = [[1 if 0 <= i - j <= band else 0 for j in range(d)] for i in range(d)]
        upper = [[lower[j][i] for j in range(d)] for i in range(d)]
        signs = H.Matrix.diagonal([rng.choice((-1, 1)) for _ in range(d)])
        self.p = H.Matrix.from_rows(lower) @ H.Matrix.from_rows(upper) @ signs
        unit = [[1 if k == j else 0 for k in range(d)] for j in range(d)]
        self.p_inv = H.Matrix.from_columns([H.solve(self.p, e) for e in unit], d)
        self.wedge = H.exterior_power_matrix(self.p, 2)

    def structure(self, s):
        alpha = self.p_inv @ s.alpha @ self.p
        brackets = [self.p_inv @ b @ self.wedge for b in s.brackets]
        if isinstance(s, H.HomLieAlgebra):
            return H.HomLieAlgebra(s.dim, alpha, brackets[0])
        return H.CompatibleHomLieAlgebra(s.dim, alpha, *brackets)

    def operator(self, op: H.LinearOperator) -> H.LinearOperator:
        return H.LinearOperator(self.p_inv @ op.matrix @ self.p, op.kind, op.weight)

    def endo_cochain(self, f: H.Cochain) -> H.Cochain:
        return H.Cochain(2, f.source_dim, f.target_dim, self.p_inv @ f.coeffs @ self.wedge)

    def module_cochain(self, f: H.Cochain) -> H.Cochain:
        """An arity-2 cochain into a module whose own basis is kept."""
        return H.Cochain(2, f.source_dim, f.target_dim, f.coeffs @ self.wedge)

    def module(self, rep: H.Representation, base) -> H.Representation:
        """Re-express the actions in the new algebra basis; the module basis is kept."""
        d = self.p.rows
        tables = []
        for table in rep.actions:
            new = []
            for j in range(d):
                total = H.Matrix.zero(rep.vdim, rep.vdim)
                for i in range(d):
                    if self.p.entry(i, j):
                        total = total + table[i].scale(self.p.entry(i, j))
                new.append(total)
            tables.append(tuple(new))
        return H.Representation(base, rep.vdim, rep.beta, tuple(tables))


# ---------------------------------------------------------------- CLI documents

def document(struct, rep=None, operators=(), deformation=None, extension=None) -> str:
    """Canonical document text for a structure and its optional blocks."""
    representation = None
    if rep is not None:
        representation = (rep.vdim, rep.beta, rep.actions)
    entries = tuple(
        OperatorEntry(name, op.kind, op.weight, op.matrix) for name, op in operators
    )
    if deformation is not None:
        deformation = (len(deformation[0]), tuple(deformation[0]), tuple(deformation[1]))
    doc = AlgebraDocument(
        schema_version="1",
        dimension=struct.dim,
        basis_names=tuple(f"e{k + 1}" for k in range(struct.dim)),
        alpha=struct.alpha,
        brackets=tuple(struct.brackets),
        representation=representation,
        operators=entries,
        deformation=deformation,
        extension=extension,
    )
    return serialize(doc)


class Family:
    """One kind of CLI document: a builder for its standard-basis objects,
    the commands run on it and the exit code the README contract gives."""

    def __init__(self, name, build, commands, dense_bands=()):
        self.name = name
        self.build = build  # change: BaseChange | None -> (text, struct, vdim)
        self.commands = commands  # ((argv after the path...), expected exit), ...
        self.dense_bands = dense_bands


def _compatible_h3():
    return fixtures.compatible_h3(), fixtures.h3_nijenhuis()


def _fam_d2(change):
    c, n = fixtures.d2(), fixtures.d2_nijenhuis()
    if change:
        c, n = change.structure(c), change.operator(n)
    return document(c, operators=[("N", n)]), c, c.dim


def _fam_h3n(change):
    c, n = _compatible_h3()
    if change:
        c, n = change.structure(c), change.operator(n)
    return document(c, operators=[("N", n)]), c, c.dim


def _fam_twisted_h3n(change):
    c = fixtures.twisted_compatible_h3()
    if change:
        c = change.structure(c)
    return document(c), c, c.dim


def _deformation_of(c, n_op, order):
    """Coefficients t^1..t^order of the deformation generated by a Nijenhuis
    operator, extended order by order with is_extensible."""
    g = H.trivial_deformation_from_nijenhuis(c, n_op)
    d = H.OrderPDeformation.from_generator(c, g)
    while d.order < order:
        d = d.extended(*H.is_extensible(d))
    return d.coeffs1[1:], d.coeffs2[1:]


def _fam_d2_deform(change):
    c = fixtures.d2()
    n = H.LinearOperator(H.Matrix.diagonal([3, 1]), H.NIJENHUIS)
    if change:
        c, n = change.structure(c), change.operator(n)
    return document(c, deformation=_deformation_of(c, n, 1)), c, c.dim


def _fam_h3_deform(change):
    c, _ = _compatible_h3()
    n = heisenberg_nijenhuis(1, 3, [2], 3)
    if change:
        c, n = change.structure(c), change.operator(n)
    return document(c, deformation=_deformation_of(c, n, 2)), c, c.dim


def _not_a_cocycle():
    # (e2, e3) -> e2 is not a 2-cocycle of compatible h3 with adjoint coefficients.
    return H.Cochain.from_values(2, 3, 3, {(1, 2): [0, 1, 0]}), H.Cochain.zero(2, 3, 3)


def _fam_h3_bad_deform(change):
    c, _ = _compatible_h3()
    w1, w2 = _not_a_cocycle()
    if change:
        c, w1, w2 = change.structure(c), change.endo_cochain(w1), change.endo_cochain(w2)
    return document(c, deformation=((w1,), (w2,))), c, c.dim


def _fam_d2_ext(change):
    c, rep = fixtures.d2(), fixtures.d2_extension_rep()
    f1 = H.Cochain.from_values(2, 2, 2, {(0, 1): [1, 0]})
    f2 = H.Cochain.zero(2, 2, 2)
    if change:
        c = change.structure(c)
        rep = change.module(rep, c)
        f1, f2 = change.module_cochain(f1), change.module_cochain(f2)
    return document(c, rep=rep, extension=(f1, f2)), c, rep.vdim


def _fam_h3_bad_ext(change):
    c, _ = _compatible_h3()
    rep = H.adjoint_representation(c)
    f1, f2 = _not_a_cocycle()
    if change:
        c = change.structure(c)
        rep = change.module(rep, c)
        f1, f2 = change.module_cochain(f1), change.module_cochain(f2)
    return document(c, rep=rep, extension=(f1, f2)), c, rep.vdim


def _fam_g2a(change):
    l = fixtures.g2a(1)
    r = fixtures.g2a_rota_baxter()
    s = H.rb_companion(r)
    if change:
        l, r, s = change.structure(l), change.operator(r), change.operator(s)
    return document(l, operators=[("R", r), ("S", s)]), l, l.dim


def _fam_g4a(change):
    l, n = fixtures.g4a(1), fixtures.g4a_nijenhuis()
    if change:
        l, n = change.structure(l), change.operator(n)
    return document(l, operators=[("N", n)]), l, l.dim


def _fam_h3_not_nijenhuis(change):
    l = fixtures.h3()
    m = H.LinearOperator(H.Matrix.diagonal([2, 3, 1]), H.NIJENHUIS)
    if change:
        l, m = change.structure(l), change.operator(m)
    return document(l, operators=[("M", m)]), l, l.dim


def _fam_incompatible(change):
    # Two valid Lie brackets on Q^3 whose sum fails the Jacobi identity.
    c = H.CompatibleHomLieAlgebra.from_brackets(
        3, H.Matrix.identity(3), {(0, 1): [0, 0, 1]}, {(0, 2): [1, 0, 0]}
    )
    if change:
        c = change.structure(c)
    return document(c), c, c.dim


def _fam_h5n(change):
    c = nijenhuis_pair(heisenberg(2), heisenberg_nijenhuis(2, 1, [2, 3], 1))
    if change:
        c = change.structure(c)
    return document(c), c, c.dim


def _fam_semidirect(change):
    c, _ = _compatible_h3()
    total = H.semidirect_product(c, H.adjoint_representation(c))
    if change:
        total = change.structure(total)
    return document(total), total, total.dim


def _fam_h7(change):
    l = heisenberg(3)
    if change:
        l = change.structure(l)
    return document(l), l, l.dim


def _fam_single_bracket(change):
    l = fixtures.h3()
    if change:
        l = change.structure(l)
    return document(l), l, l.dim


FAMILIES = (
    Family("d2", _fam_d2, (
        (("verify",), 0), (("cohomology", "--degree", "0"), 0),
        (("cohomology", "--degree", "1"), 0), (("cohomology", "--degree", "2"), 0),
        (("derivations",), 0), (("nijenhuis", "--operator", "N"), 0),
        (("mc-check",), 0),
    ), dense_bands=(1,) * 6),
    Family("h3N", _fam_h3n, (
        (("verify",), 0), (("cohomology", "--degree", "1"), 0),
        (("cohomology", "--degree", "2"), 0), (("derivations",), 0),
        (("mc-check",), 0), (("nijenhuis", "--operator", "N"), 0),
    ), dense_bands=(1, 2) * 3),
    Family("twisted-h3N", _fam_twisted_h3n, (
        (("verify",), 0), (("cohomology", "--degree", "1"), 0),
        (("cohomology", "--degree", "2"), 0), (("derivations",), 0),
        (("mc-check",), 0),
    ), dense_bands=(1, 2) * 2),
    Family("d2-deform", _fam_d2_deform, (
        (("deform-verify",), 0), (("deform-obstruct",), 0),
    ), dense_bands=(1,) * 6),
    Family("h3-deform", _fam_h3_deform, (
        (("deform-verify",), 0), (("deform-obstruct",), 0),
    ), dense_bands=(1, 2, 1)),
    Family("h3-bad-deform", _fam_h3_bad_deform, (
        (("deform-verify",), 1), (("deform-obstruct",), 1),
    ), dense_bands=(1, 1)),
    Family("d2-ext", _fam_d2_ext, (
        (("verify",), 0), (("extension-build",), 0), (("extension-classify",), 0),
    ), dense_bands=(1,) * 6),
    Family("h3-bad-ext", _fam_h3_bad_ext, (
        (("extension-build",), 1),
    ), dense_bands=(1, 1)),
    Family("g2a", _fam_g2a, (
        (("rota-baxter", "--operator", "R"), 0), (("rota-baxter", "--operator", "S"), 0),
        (("verify",), 1), (("cohomology", "--degree", "1"), 1),
    ), dense_bands=(1,) * 6),
    Family("g4a", _fam_g4a, (
        (("nijenhuis", "--operator", "N"), 0), (("verify",), 1),
    ), dense_bands=(1, 2, 3, 3)),
    Family("h3-not-nijenhuis", _fam_h3_not_nijenhuis, (
        (("nijenhuis", "--operator", "M"), 1),
    ), dense_bands=(1, 2, 1)),
    Family("incompatible", _fam_incompatible, (
        (("verify",), 1), (("mc-check",), 1),
    ), dense_bands=(1, 2, 1)),
    Family("h5N", _fam_h5n, (
        (("verify",), 0), (("cohomology", "--degree", "1"), 0),
    ), dense_bands=(1, 2)),
    Family("h3-semidirect-adjoint", _fam_semidirect, (
        (("verify",), 0),
    ), dense_bands=(1,)),
    Family("h7", _fam_h7, (
        (("verify",), 0),
    )),
    # Usage errors on well-formed documents: exit 2.
    Family("single-bracket-usage", _fam_single_bracket, (
        (("derivations",), 2), (("deform-verify",), 2), (("nijenhuis", "--operator", "Q"), 2),
    ), dense_bands=(1, 2, 1)),
)


def _float_entry(text):
    return text.replace('"1"', "1.0", 1)


def _unknown_field(text):
    return text.replace("{", '{\n  "colour": "blue",', 1)


def _truncated(text):
    return text[: len(text) // 2]


def _huge_rational(text):
    # More than 4300 digits: the default int/str conversion limit.
    return text.replace('"1"', '"1' + "0" * 4400 + '"', 1)


def _reversed_pair(text):
    return text.replace('"i": 0', '"i": 9', 1)


def _missing_alpha(text):
    return text.replace('"alpha"', '"alfa"', 1)


# Text-level corruptions of a valid document (family d2, command verify):
# every one must exit 2.
MALFORMED = (
    ("float-entry", _float_entry),
    ("unknown-field", _unknown_field),
    ("truncated-json", _truncated),
    ("reversed-pair", _reversed_pair),
    ("missing-field", _missing_alpha),
)
OVERSIZED = ("oversized-rational", _huge_rational)


class CorpusDoc:
    def __init__(self, name, text, struct, vdim, commands, twin):
        self.name = name
        self.text = text
        self.struct = struct
        self.vdim = vdim
        self.commands = commands
        self.twin = twin  # standard-basis document of the same family, or None


def cli_corpus(rng):
    """The cli-batch documents: every family in the standard basis (fixed
    text) and in seeded dense bases, plus malformed variants."""
    docs = []
    for fam in FAMILIES:
        text, struct, vdim = fam.build(None)
        std = CorpusDoc(f"{fam.name}/std", text, struct, vdim, fam.commands, None)
        docs.append(std)
        for k, band in enumerate(fam.dense_bands):
            change = BaseChange(struct.dim, band, rng)
            text, dstruct, vdim = fam.build(change)
            docs.append(CorpusDoc(f"{fam.name}/dense{k}", text, dstruct, vdim, fam.commands, std))
    base = [d for d in docs if d.name.startswith("d2/")]
    verify = ((("verify",), 2),)
    for kind, corrupt in MALFORMED:
        twin = None
        for d in base:
            name = f"{kind}/{d.name.split('/')[1]}"
            doc = CorpusDoc(name, corrupt(d.text), d.struct, d.vdim, verify, twin)
            twin = twin or doc
            docs.append(doc)
    kind, corrupt = OVERSIZED
    d = base[0]
    docs.append(CorpusDoc(f"{kind}/std", corrupt(d.text), d.struct, d.vdim, verify, None))
    return docs
