import random
from fractions import Fraction
from math import comb

import pytest

from homlie import (
    Cochain,
    CompatibleCochain,
    CompatibleHomLieAlgebra,
    HomLieAlgebra,
    LinearOperator,
    Matrix,
    NIJENHUIS,
    PreconditionError,
    Representation,
    adjoint_representation,
    ce_coboundary,
    class_coordinates,
    cohomology_dimensions,
    comparison_map,
    compatible_coboundary,
    derivation_space,
    hom_cochain_basis,
    induced_bracket,
    is_equivariant,
    lift_to_product,
    nr_bracket,
    semidirect_product,
    sum_bracket,
    sum_representation,
    verify_structure,
)
from homlie import cochains, fixtures
from homlie.cohomology import (
    COMPATIBLE,
    PLAIN,
    _basis_matrix,
    _c0_compatible_basis,
    _from_flat,
    _images,
    _in_slots,
    coboundary_preimage,
)
from homlie.linalg import basis_vector, kernel_basis, span_rank, vec_is_zero

from helpers import (
    naive_compatible_coboundary,
    naive_coboundary,
    naive_derivations,
    naive_rank,
    rand_equivariant_cochain,
    rand_frac,
)

F = Fraction


def compatible_basis(c, rep, n):
    if n == 0:
        return [CompatibleCochain(0, (z,)) for z in _c0_compatible_basis(c, rep)]
    singles = hom_cochain_basis(c.alpha, rep.beta, n)
    out = []
    for slot in range(n):
        for f in singles:
            comps = [Cochain.zero(n, c.dim, rep.vdim) for _ in range(n)]
            comps[slot] = f
            out.append(CompatibleCochain(n, tuple(comps)))
    return out


# ---------------------------------------------------------------------------
# single-bracket coboundary
# ---------------------------------------------------------------------------

def test_abelian_trivial_action_kills_everything():
    ab = CompatibleHomLieAlgebra.from_brackets(2, Matrix.identity(2), {}, {}).part(1)
    zero = Matrix.zero(1, 1)
    rep = Representation(ab, 1, Matrix.identity(1), ((zero, zero),))
    rng = random.Random(1)
    for n in (1, 2):
        f = rand_equivariant_cochain(rng, ab.alpha, rep.beta, n)
        assert ce_coboundary(ab, rep, f).is_zero()


def test_h3_identity_cochain_maps_to_bracket():
    h3 = fixtures.h3()
    rep = adjoint_representation(h3)
    image = ce_coboundary(h3, rep, Cochain(1, 3, 3, Matrix.identity(3)))
    assert image.column((0, 1)) == (F(0), F(0), F(1))
    assert image.flatten() == h3.bracket_cochain().flatten()


def test_degree0_formula():
    h3 = fixtures.h3()
    rep = adjoint_representation(h3)
    v = Cochain.from_flat(0, 3, 3, (F(1), F(0), F(0)))  # e1 is twist-fixed
    image = ce_coboundary(h3, rep, v)
    # (d v)(x) = [x, e1]; only [e2, e1] = -e3 survives
    assert image.column((0,)) == (F(0), F(0), F(0))
    assert image.column((1,)) == (F(0), F(0), F(-1))


def test_adjoint_shortcut_random_cochains():
    rng = random.Random(2)
    for alg in (fixtures.d2().part(1), fixtures.h3(), fixtures.g4a(0)):
        rep = adjoint_representation(alg)
        mu = alg.bracket_cochain()
        for n in (1, 2):
            for _ in range(10):
                f = rand_equivariant_cochain(rng, alg.alpha, alg.alpha, n)
                lhs = ce_coboundary(alg, rep, f)
                sign = 1 if (n - 1) % 2 == 0 else -1
                rhs = nr_bracket(mu, f, alg.alpha).scale(sign)
                assert lhs.flatten() == rhs.flatten()


def test_adjoint_shortcut_degree3():
    # Same identity one degree higher, on the full equivariant basis.
    for alg in (fixtures.h3(), fixtures.g4a(0)):
        rep = adjoint_representation(alg)
        mu = alg.bracket_cochain()
        for f in hom_cochain_basis(alg.alpha, alg.alpha, 3):
            lhs = ce_coboundary(alg, rep, f, check=False)
            rhs = nr_bracket(mu, f, alg.alpha)  # (-1)^(3-1) = +1
            assert lhs.flatten() == rhs.flatten()


def test_coboundary_squares_to_zero_plain():
    for alg in (fixtures.ab1(), fixtures.h3(), fixtures.g4a(0), fixtures.d2().part(1)):
        rep = adjoint_representation(alg)
        for n in range(0, 4):
            basis = hom_cochain_basis(alg.alpha, alg.alpha, n)
            for f in basis:
                ddf = ce_coboundary(alg, rep, ce_coboundary(alg, rep, f, check=False), check=False)
                assert ddf.is_zero()


def test_coboundary_preserves_equivariance():
    rng = random.Random(3)
    g4 = fixtures.g4a(0)
    rep = adjoint_representation(g4)
    for n in (1, 2):
        f = rand_equivariant_cochain(rng, g4.alpha, g4.alpha, n)
        assert is_equivariant(ce_coboundary(g4, rep, f), g4.alpha, g4.alpha)


def test_coboundary_rejects_non_equivariant():
    g4 = fixtures.g4a(1)
    rep = adjoint_representation(g4)
    mu = g4.bracket_cochain()
    with pytest.raises(PreconditionError):
        ce_coboundary(fixtures.g4a(0), adjoint_representation(fixtures.g4a(0)), mu)


# ---------------------------------------------------------------------------
# compatible coboundary
# ---------------------------------------------------------------------------

def test_compatible_coboundary_zero_and_degree1_shape():
    d2 = fixtures.d2()
    rep = adjoint_representation(d2)
    zero = CompatibleCochain.zero(2, 2, 2)
    assert compatible_coboundary(d2, rep, zero).is_zero()
    f = CompatibleCochain(1, (Cochain(1, 2, 2, Matrix.identity(2)),))
    out = compatible_coboundary(d2, rep, f)
    assert out.degree == 2 and len(out.components) == 2
    assert out.components[0].column((0, 1)) == (F(1), F(0))
    assert out.components[1].column((0, 1)) == (F(0), F(1))


def test_compatible_coboundary_checks_equivariance_with_one_compound(monkeypatch):
    # The three arity-3 components share one compound of the twist; the
    # structure checks build only arity-2 compounds.
    c = fixtures.twisted_compatible_h3()
    rep = adjoint_representation(c)
    built = []
    original = cochains.exterior_power_matrix
    monkeypatch.setattr(cochains, "exterior_power_matrix",
                        lambda alpha, n: built.append(n) or original(alpha, n))
    out = compatible_coboundary(c, rep, CompatibleCochain.zero(3, 3, 3))
    assert out.is_zero()
    assert built.count(3) == 1


def test_compatible_coboundary_degree0_membership_guard():
    d2 = fixtures.d2()
    rep = adjoint_representation(d2)
    outsider = CompatibleCochain(0, (Cochain.from_flat(0, 2, 2, (F(1), F(0))),))
    with pytest.raises(PreconditionError):
        compatible_coboundary(d2, rep, outsider)


def test_compatible_coboundary_squares_to_zero():
    cases = [
        (fixtures.compatible_ab1(), None),
        (fixtures.d2(), None),
        (fixtures.compatible_h3(), None),
        (fixtures.twisted_compatible_h3(), None),
        (fixtures.d2(), fixtures.d2_extension_rep()),
    ]
    for c, rep in cases:
        rep = rep or adjoint_representation(c)
        for n in range(0, 4):
            for F_ in compatible_basis(c, rep, n):
                dd = compatible_coboundary(c, rep, compatible_coboundary(c, rep, F_, check=False), check=False)
                assert dd.is_zero()


def test_anticommutation_of_the_two_coboundaries():
    for c in (fixtures.d2(), fixtures.compatible_h3(), fixtures.twisted_compatible_h3()):
        rep = adjoint_representation(c)
        parts = [(c.part(1), rep.part(1)), (c.part(2), rep.part(2))]
        for n in range(1, 4):
            for f in hom_cochain_basis(c.alpha, c.alpha, n):
                d12 = ce_coboundary(parts[0][0], parts[0][1],
                                    ce_coboundary(parts[1][0], parts[1][1], f, check=False),
                                    check=False)
                d21 = ce_coboundary(parts[1][0], parts[1][1],
                                    ce_coboundary(parts[0][0], parts[0][1], f, check=False),
                                    check=False)
                assert (d12 + d21).is_zero()


def test_lift_intertwines_coboundary_and_bracket():
    d2 = fixtures.d2()
    rep = adjoint_representation(d2)
    semi = semidirect_product(d2, rep)
    pi1 = semi.bracket_cochain(1)
    l1, v1 = d2.part(1), rep.part(1)
    for n in (1, 2):
        for f in hom_cochain_basis(d2.alpha, d2.alpha, n):
            lifted = lift_to_product(f, 2, 2)
            lhs = lift_to_product(ce_coboundary(l1, v1, f, check=False), 2, 2)
            sign = 1 if (n - 1) % 2 == 0 else -1
            rhs = nr_bracket(pi1, lifted, semi.alpha).scale(sign)
            assert lhs.flatten() == rhs.flatten()


# ---------------------------------------------------------------------------
# coboundary maps against the column-by-column oracle
# ---------------------------------------------------------------------------

def h5_nijenhuis_pair():
    """h5 ([x_i, y_i] = +-z, identity twist) paired with the bracket induced
    by the Nijenhuis operator diag(1, 1, 2, 3, 1)."""
    h5 = HomLieAlgebra.from_brackets(
        5, Matrix.identity(5), {(0, 2): [0, 0, 0, 0, 1], (1, 3): [0, 0, 0, 0, -1]}
    )
    op = LinearOperator(Matrix.diagonal([1, 1, 2, 3, 1]), NIJENHUIS)
    return CompatibleHomLieAlgebra(5, h5.alpha, h5.bracket, induced_bracket(h5, op).bracket)


def random_compatible_cochain(rng, c, rep, n):
    """Random element of the degree-n two-bracket group; for n >= 2 one
    seeded component is zero."""
    if n == 0:
        vector = tuple(F(0) for _ in range(rep.vdim))
        for z in _c0_compatible_basis(c, rep):
            vector = tuple(a + rand_frac(rng) * b for a, b in zip(vector, z.flatten()))
        return CompatibleCochain(0, (Cochain.from_flat(0, c.dim, rep.vdim, vector),))
    comps = [rand_equivariant_cochain(rng, c.alpha, rep.beta, n) or Cochain.zero(n, c.dim, rep.vdim)
             for _ in range(n)]
    if n >= 2:
        comps[rng.randrange(n)] = Cochain.zero(n, c.dim, rep.vdim)
    return CompatibleCochain(n, tuple(comps))


def test_ce_coboundary_matches_naive_oracle():
    rng = random.Random(21)
    tc = fixtures.twisted_compatible_h3()
    tc_rep = adjoint_representation(tc).part(2)
    cases = [
        (fixtures.h3(), adjoint_representation(fixtures.h3())),
        (fixtures.twisted_h3(), adjoint_representation(fixtures.twisted_h3())),
        (fixtures.d2().part(1), adjoint_representation(fixtures.d2()).part(1)),
        (tc.part(2), tc_rep),
    ]
    for alg, rep in cases:
        for n in range(alg.dim + 1):
            for _ in range(3):
                f = rand_equivariant_cochain(rng, alg.alpha, rep.beta, n)
                if f is None:
                    continue
                want = naive_coboundary(alg.dim, alg.alpha, alg.bracket_cochain(), rep, 1, f)
                assert ce_coboundary(alg, rep, f).flatten() == want.flatten()


def test_compatible_coboundary_matches_naive_oracle():
    rng = random.Random(22)
    cases = [
        (fixtures.d2(), None),
        (fixtures.d2(), fixtures.d2_extension_rep()),
        (fixtures.compatible_h3(), None),
        (fixtures.twisted_compatible_h3(), None),
    ]
    for c, rep in cases:
        rep = rep or adjoint_representation(c)
        for n in range(c.dim + 1):
            for _ in range(3):
                f = random_compatible_cochain(rng, c, rep, n)
                got = compatible_coboundary(c, rep, f)
                assert got.flatten() == naive_compatible_coboundary(c, rep, f).flatten()


def test_assembled_images_match_naive_oracle():
    c = fixtures.twisted_compatible_h3()
    rep = adjoint_representation(c)
    for n in range(4):
        basis = _basis_matrix(c, rep, n, COMPATIBLE)
        images = _images(c, rep, n, COMPATIBLE, basis)
        units = _in_slots(basis, Matrix.identity(images.cols), max(n, 1))
        items = [_from_flat(w, c.dim, rep.vdim, n, COMPATIBLE) for w in units]
        if n == 0:
            items = [CompatibleCochain(0, (item,)) for item in items]
        assert [i.flatten() for i in items] == [b.flatten() for b in compatible_basis(c, rep, n)]
        for j, item in enumerate(items):
            assert images.col(j) == naive_compatible_coboundary(c, rep, item).flatten()


def ambient_matrix(c, rep, n):
    """The two-bracket coboundary on all flat degree-n coordinates, from unit cochains."""
    size = max(n, 1) * rep.vdim * comb(c.dim, n)
    columns = []
    for k in range(size):
        unit = _from_flat(basis_vector(size, k), c.dim, rep.vdim, n, COMPATIBLE)
        if n == 0:
            unit = CompatibleCochain(0, (unit,))
        columns.append(compatible_coboundary(c, rep, unit, check=False).flatten())
    return Matrix.from_columns(columns, len(columns[0]))


def test_delta_squared_on_assembled_matrices_h5_pair():
    c = h5_nijenhuis_pair()
    assert verify_structure(c).passed
    rep = adjoint_representation(c)
    for n in range(4):
        delta = _images(c, rep, n, COMPATIBLE, _basis_matrix(c, rep, n, COMPATIBLE))
        assert delta.cols
        assert n == 0 or not delta.is_zero()  # degree 0 is the centre
        assert (ambient_matrix(c, rep, n + 1) @ delta).is_zero()


def greedy_representatives(report):
    """The cocycles that raise the rank of the coboundaries, taken in order."""
    rows = [b.flatten() for b in report.coboundary_basis]
    current = span_rank(rows)
    chosen = []
    for z in report.cocycle_basis:
        if len(chosen) == report.dim_cohomology:
            break
        r = span_rank(rows + [z.flatten()])
        if r > current:
            chosen.append(z)
            rows.append(z.flatten())
            current = r
    return tuple(chosen)


def test_pivot_representatives_match_greedy_choice():
    h5_pair = h5_nijenhuis_pair()
    trivial = Representation(h5_pair, 1, Matrix.identity(1),
                             tuple((Matrix.zero(1, 1),) * 5 for _ in range(2)))
    cases = [
        (fixtures.h3(), None, PLAIN, 4),
        (fixtures.twisted_h3(), None, PLAIN, 4),
        (fixtures.d2(), None, COMPATIBLE, 3),
        (fixtures.compatible_h3(), None, COMPATIBLE, 4),
        (fixtures.twisted_compatible_h3(), None, COMPATIBLE, 4),
        (fixtures.d2(), fixtures.d2_extension_rep(), COMPATIBLE, 3),
        (h5_pair, trivial, COMPATIBLE, 3),
    ]
    seen_classes = 0
    for alg, rep, flavor, top in cases:
        rep = rep or adjoint_representation(alg)
        for n in range(top):
            report = cohomology_dimensions(alg, rep, n, flavor)
            assert report.cohomology_basis == greedy_representatives(report)
            seen_classes += report.dim_cohomology
    assert seen_classes > 0


# ---------------------------------------------------------------------------
# dimension reports
# ---------------------------------------------------------------------------

def test_ab1_dimensions_both_flavors():
    ab = fixtures.ab1()
    plain = cohomology_dimensions(ab, adjoint_representation(ab), 1, PLAIN)
    assert (plain.dim_cochains, plain.dim_cohomology) == (1, 1)
    cab = fixtures.compatible_ab1()
    crep = adjoint_representation(cab)
    for n, expected in ((0, 1), (1, 1), (2, 0)):
        report = cohomology_dimensions(cab, crep, n, COMPATIBLE)
        assert report.dim_cohomology == expected
        assert report.dim_cohomology == report.dim_cochains  # coboundary vanishes


def test_h3_degree1_matches_derivation_count():
    h3 = fixtures.h3()
    rep = adjoint_representation(h3)
    report = cohomology_dimensions(h3, rep, 1, PLAIN)
    # Independent oracle: solve the derivation equations and the inner span
    # directly from the structure constants.
    rows = []
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        cij = h3.bracket_of(basis_vector(3, i), basis_vector(3, j))
        for r in range(3):
            row = [F(0)] * 9
            for k in range(3):
                row[r * 3 + k] += cij[k]
            for k in range(3):
                row[k * 3 + j] -= h3.bracket_of(basis_vector(3, i), basis_vector(3, k))[r]
                row[k * 3 + i] += h3.bracket_of(basis_vector(3, j), basis_vector(3, k))[r]
            rows.append(row)
    derivations = kernel_basis(Matrix.from_rows(rows))
    inner_flat = []
    for v in range(3):
        cols = [h3.bracket_of(basis_vector(3, col), basis_vector(3, v)) for col in range(3)]
        inner_flat.append(Matrix.from_columns(cols, 3).entries)
    from homlie import quotient_dimension

    outer = quotient_dimension(derivations, [w for w in inner_flat if not vec_is_zero(w)])
    assert report.dim_cohomology == outer == 4


def test_d2_compatible_degree0():
    d2 = fixtures.d2()
    report = cohomology_dimensions(d2, adjoint_representation(d2), 0, COMPATIBLE)
    assert report.dim_cohomology == 0


def test_dimensions_above_carrier_dimension_are_zero():
    d2 = fixtures.d2()
    report = cohomology_dimensions(d2, adjoint_representation(d2), 5, COMPATIBLE)
    assert report.dim_cochains == 0
    assert report.dim_cohomology == 0


def test_reports_are_internally_consistent():
    cases = [
        (fixtures.h3(), None, PLAIN),
        (fixtures.twisted_h3(), None, PLAIN),
        (fixtures.d2(), None, COMPATIBLE),
        (fixtures.compatible_h3(), None, COMPATIBLE),
        (fixtures.twisted_compatible_h3(), None, COMPATIBLE),
        (fixtures.d2(), fixtures.d2_extension_rep(), COMPATIBLE),
    ]
    for alg, rep, flavor in cases:
        rep = rep or adjoint_representation(alg)
        for n in range(0, 4):
            report = cohomology_dimensions(alg, rep, n, flavor)
            assert report.dim_cohomology == report.dim_cocycles - report.dim_coboundaries
            assert len(report.cocycle_basis) == report.dim_cocycles
            assert len(report.coboundary_basis) == report.dim_coboundaries
            assert len(report.cohomology_basis) == report.dim_cohomology
            for z in report.cocycle_basis:
                if flavor == PLAIN:
                    assert ce_coboundary(alg, rep, z, check=False).is_zero()
                else:
                    item = z if isinstance(z, CompatibleCochain) else CompatibleCochain(0, (z,))
                    assert compatible_coboundary(alg, rep, item, check=False).is_zero()


def test_invalid_structure_rejected():
    g4 = fixtures.g4a(1)
    with pytest.raises(PreconditionError):
        cohomology_dimensions(g4, adjoint_representation(g4), 1, PLAIN)


def test_class_coordinates_mod_coboundaries():
    c = fixtures.compatible_h3()
    rep = adjoint_representation(c)
    report = cohomology_dimensions(c, rep, 2, COMPATIBLE)
    assert report.dim_cohomology > 0 and report.dim_coboundaries > 0
    rng = random.Random(4)
    z = report.cohomology_basis[0]
    coords = class_coordinates(report, z)
    assert any(x != 0 for x in coords)
    shift = report.coboundary_basis[0].scale(rand_frac(rng))
    assert class_coordinates(report, z + shift) == coords
    # A non-cocycle is rejected.
    non_cocycle = compatible_basis(c, rep, 2)[0]
    if not compatible_coboundary(c, rep, non_cocycle, check=False).is_zero():
        with pytest.raises(PreconditionError):
            class_coordinates(report, non_cocycle)


def test_dimension4_semidirect_pipeline():
    # The semidirect product of the plane fixture with its adjoint module is
    # a 4-dimensional compatible structure; pin its low-degree dimensions.
    d2 = fixtures.d2()
    big = semidirect_product(d2, adjoint_representation(d2))
    brep = adjoint_representation(big)
    assert verify_structure(big).passed and verify_structure(brep).passed
    dims = [
        cohomology_dimensions(big, brep, n, COMPATIBLE).dim_cohomology
        for n in range(0, 3)
    ]
    assert dims == [0, 1, 2]
    from homlie import is_mc_pair

    assert is_mc_pair(big.bracket_cochain(1), big.bracket_cochain(2), big.alpha).is_mc


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def test_derivation_space_ab1():
    cab = fixtures.compatible_ab1()
    report = derivation_space(cab, adjoint_representation(cab))
    assert len(report.derivations) == 1
    assert len(report.inner) == 0
    assert report.outer_dim == 1


def doubled(h):
    """The pair (bracket, bracket): both adjoint actions agree, so every
    twist-fixed vector induces an inner derivation."""
    return CompatibleHomLieAlgebra(h.dim, h.alpha, h.bracket, h.bracket)


def two_action_cases():
    cases = [fixtures.d2(), fixtures.compatible_h3(), fixtures.twisted_compatible_h3(),
             doubled(fixtures.h3()), doubled(fixtures.twisted_h3())]
    return [(c, adjoint_representation(c)) for c in cases] + [
        (fixtures.d2(), fixtures.d2_extension_rep())
    ]


def test_derivation_space_matches_degree1_cohomology():
    """The degree-1 view agrees with derivations solved from the Leibniz
    equations directly: the same span, the same reduced inner basis."""
    seen_inner = 0
    for c, rep in two_action_cases():
        ds = derivation_space(c, rep)
        derivations, inner = naive_derivations(c, rep)
        got = [f.flatten() for f in ds.derivations]
        want = [f.flatten() for f in derivations]
        assert naive_rank(got) == naive_rank(want) == naive_rank(got + want) == len(want)
        assert [f.flatten() for f in ds.inner] == [f.flatten() for f in inner]
        assert ds.outer_dim == len(want) - len(inner)
        seen_inner += len(inner)
    assert seen_inner > 0


# ---------------------------------------------------------------------------
# coboundary preimages
# ---------------------------------------------------------------------------

def test_coboundary_preimage_solves_the_coboundary_equation():
    rng = random.Random(23)
    for c, rep in two_action_cases():
        for n in range(1, 4):
            for _ in range(2):
                target = naive_compatible_coboundary(c, rep, random_compatible_cochain(rng, c, rep, n))
                x = coboundary_preimage(c, rep, target)
                assert x is not None and x.degree == n
                assert naive_compatible_coboundary(c, rep, x).flatten() == target.flatten()


def test_coboundary_preimage_of_a_nonzero_class_is_none():
    seen = 0
    for c, rep in two_action_cases():
        for n in range(1, 4):
            for z in cohomology_dimensions(c, rep, n, COMPATIBLE).cohomology_basis:
                assert coboundary_preimage(c, rep, z) is None
                seen += 1
    assert seen > 0


def test_coboundary_preimage_on_an_empty_cochain_space():
    d2 = fixtures.d2()
    rep = adjoint_representation(d2)
    assert cohomology_dimensions(d2, rep, 0, COMPATIBLE).dim_cochains == 0
    x = coboundary_preimage(d2, rep, CompatibleCochain.zero(1, 2, 2))
    assert isinstance(x, Cochain) and x.arity == 0 and x.flatten() == (0, 0)
    nonzero = CompatibleCochain(1, (Cochain.from_values(1, 2, 2, {(0,): [1, 0]}),))
    assert coboundary_preimage(d2, rep, nonzero) is None
    # Above the carrier dimension every cochain space is empty.
    x = coboundary_preimage(d2, rep, CompatibleCochain.zero(4, 2, 2))
    assert x.degree == 3 and x.is_zero()


# ---------------------------------------------------------------------------
# comparison with the sum-bracket complex
# ---------------------------------------------------------------------------

def test_comparison_map_values():
    v = Cochain.from_flat(0, 2, 2, (F(2), F(4)))
    assert comparison_map(CompatibleCochain(0, (v,))).flatten() == (F(1), F(2))
    f = Cochain.from_values(1, 2, 2, {(0,): [1, 2], (1,): [3, 4]})
    assert comparison_map(CompatibleCochain(1, (f,))).flatten() == f.flatten()


def test_comparison_map_is_a_chain_map():
    d2 = fixtures.d2()
    rep = adjoint_representation(d2)
    plus = sum_bracket(d2, 1, 1)
    plus_rep = sum_representation(rep)
    assert verify_structure(plus).passed and verify_structure(plus_rep).passed
    for n in range(0, 3):
        for F_ in compatible_basis(d2, rep, n):
            lhs = ce_coboundary(plus, plus_rep, comparison_map(F_), check=False)
            rhs = comparison_map(compatible_coboundary(d2, rep, F_, check=False))
            assert lhs.flatten() == rhs.flatten()


def test_comparison_dimensions_reported_side_by_side():
    d2 = fixtures.d2()
    rep = adjoint_representation(d2)
    plus = sum_bracket(d2, 1, 1)
    plus_rep = sum_representation(rep)
    table = []
    for n in range(0, 3):
        a = cohomology_dimensions(d2, rep, n, COMPATIBLE).dim_cohomology
        b = cohomology_dimensions(plus, plus_rep, n, PLAIN).dim_cohomology
        table.append((n, a, b))
    assert table == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
