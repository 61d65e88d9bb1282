import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

from homlie import (
    Cochain,
    CompatibleCochain,
    CompatibleHomLieAlgebra,
    ContractError,
    HomLieAlgebra,
    LinearOperator,
    Matrix,
    NIJENHUIS,
    PreconditionError,
    Representation,
    UsageError,
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
    _coboundary_map,
    _cochains,
    _in_slots,
    _slots,
    coboundary_preimage,
)
from homlie.linalg import hstack, kernel_basis, kron_sum, span_rank

from helpers import (
    basis_vector,
    c0_compatible_basis,
    dense,
    naive_basis_matrix,
    naive_compatible_coboundary,
    naive_coboundary,
    naive_class_coordinates,
    naive_derivations,
    naive_kron,
    naive_matmul,
    naive_rank,
    rand_equivariant_cochain,
    rand_frac,
    rand_matrix,
    rand_skew_bracket,
    record_complex_builds,
    vec_is_zero,
)
from test_maurer_cartan_oracle import yau_sl2

F = Fraction


def compatible_basis(c, rep, n):
    if n == 0:
        return [CompatibleCochain(0, (z,)) for z in c0_compatible_basis(c, rep)]
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
            lhs = ce_coboundary(alg, rep, f)
            rhs = nr_bracket(mu, f, alg.alpha)  # (-1)^(3-1) = +1
            assert lhs.flatten() == rhs.flatten()


def test_coboundary_squares_to_zero_plain():
    for alg in (fixtures.ab1(), fixtures.h3(), fixtures.g4a(0), fixtures.d2().part(1)):
        rep = adjoint_representation(alg)
        for n in range(0, 4):
            basis = hom_cochain_basis(alg.alpha, alg.alpha, n)
            for f in basis:
                ddf = ce_coboundary(alg, rep, ce_coboundary(alg, rep, f))
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
    # structure checks build compounds of lower arities only.
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
                dd = compatible_coboundary(c, rep, compatible_coboundary(c, rep, F_))
                assert dd.is_zero()


def test_anticommutation_of_the_two_coboundaries():
    for c in (fixtures.d2(), fixtures.compatible_h3(), fixtures.twisted_compatible_h3()):
        rep = adjoint_representation(c)
        parts = [(c.part(1), rep.part(1)), (c.part(2), rep.part(2))]
        for n in range(1, 4):
            for f in hom_cochain_basis(c.alpha, c.alpha, n):
                d12 = ce_coboundary(parts[0][0], parts[0][1],
                                    ce_coboundary(parts[1][0], parts[1][1], f))
                d21 = ce_coboundary(parts[1][0], parts[1][1],
                                    ce_coboundary(parts[0][0], parts[0][1], f))
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
            lhs = lift_to_product(ce_coboundary(l1, v1, f), 2, 2)
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
        for z in c0_compatible_basis(c, rep):
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


@pytest.mark.parametrize("actions", [1, 2])
def test_coboundary_map_is_the_naive_coboundary_in_every_degree(actions):
    # Column k of the matrix is the coboundary of the k-th unit cochain, for
    # any action tables (not only modules), a non-diagonal alpha and a
    # non-identity beta.  n runs to d + 1, past C(d, n+1) = 0 and n = d.
    rng = random.Random(3301 + actions)
    for dim in range(5):
        for vdim in (1, 2):
            alpha = rand_matrix(rng, dim, dim)
            if dim >= 2:
                alpha = alpha + Matrix.from_rows(
                    [[1 if (i, j) == (0, 1) else 0 for j in range(dim)] for i in range(dim)])
            beta = Matrix.identity(vdim)
            while beta == Matrix.identity(vdim):
                beta = rand_matrix(rng, vdim, vdim)
            brackets = [rand_skew_bracket(rng, dim) for _ in range(actions)]
            base = (HomLieAlgebra(dim, alpha, *brackets) if actions == 1
                    else CompatibleHomLieAlgebra(dim, alpha, *brackets))
            tables = tuple(tuple(rand_matrix(rng, vdim, vdim) for _ in range(dim))
                           for _ in range(actions))
            rep = Representation(base, vdim, beta, tables)
            for which in range(1, actions + 1):
                bracket = Cochain(2, dim, dim, base.brackets[which - 1])
                for n in range(dim + 2):
                    d = _coboundary_map(base, rep, which, n)
                    size = vdim * comb(dim, n)
                    assert (d.rows, d.cols) == (vdim * comb(dim, n + 1), size)
                    for k in range(size):
                        unit = Cochain.from_flat(n, dim, vdim, basis_vector(size, k))
                        want = naive_coboundary(dim, alpha, bracket, rep, which, unit)
                        assert d.col(k) == want.flatten(), (dim, vdim, which, n, k)


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


def test_in_slots_is_the_basis_in_every_slot_times_the_coordinates():
    """`_in_slots` against the naive kron(1, basis) times the coordinates,
    on random bases and coordinates, among them bases with no unknowns and
    one-column coordinates."""
    rng = random.Random(31)

    def rand(rows, cols):
        return Matrix(rows, cols, tuple(rand_frac(rng) for _ in range(rows * cols)))

    for slots in (1, 2, 3):
        for rows, unknowns in ((0, 0), (4, 0), (1, 1), (5, 2), (6, 3)):
            for width in (0, 1, 3):
                basis, coords = rand(rows, unknowns), rand(slots * unknowns, width)
                identity = [[F(int(i == j)) for j in range(slots)] for i in range(slots)]
                spread = naive_kron(identity, slots, dense(basis), unknowns)
                want = naive_matmul(spread, dense(coords), width)
                got = _in_slots(basis, coords, slots)
                assert (got.rows, got.cols) == (slots * rows, width)
                assert dense(got) == want


def test_assembled_images_match_naive_oracle():
    c = fixtures.twisted_compatible_h3()
    rep = adjoint_representation(c)
    for n in range(4):
        basis, images = rep._complex["basis", n], rep._complex["images", n]
        units = _in_slots(basis, Matrix.identity(images.cols), _slots(c, n))
        items = list(_cochains(units, c, rep.vdim, n))
        if n == 0:
            items = [CompatibleCochain(0, (item,)) for item in items]
        assert [i.flatten() for i in items] == [b.flatten() for b in compatible_basis(c, rep, n)]
        for j, item in enumerate(items):
            assert images.col(j) == naive_compatible_coboundary(c, rep, item).flatten()


def basis_cases():
    """Every fixture algebra and the parts of every fixture pair, with the
    adjoint and the trivial module, and the extension module of d2."""
    algebras = [fixtures.ab1(), fixtures.compatible_ab1(), fixtures.g4a(), fixtures.g4a(0),
                fixtures.g2a(), fixtures.d2(), fixtures.h3(), fixtures.compatible_h3(),
                fixtures.twisted_h3(), fixtures.twisted_compatible_h3()]
    algebras += [c.part(k) for c in algebras if isinstance(c, CompatibleHomLieAlgebra)
                 for k in (1, 2)]
    out = [(fixtures.d2(), fixtures.d2_extension_rep())]
    for s in algebras:
        trivial = (Matrix.zero(1, 1),) * s.dim
        out += [(s, adjoint_representation(s)),
                (s, Representation(s, 1, Matrix.identity(1), (trivial,) * len(s.brackets)))]
    return out


def conjugated_diagonal(rng, k):
    """u . D . u^-1 for a diagonal D with repeated eigenvalues and a random
    unipotent u = 1 + N, whose inverse is the finite sum of the (-N)^j."""
    diagonal = Matrix.diagonal([rng.choice((1, -1, 2, F(1, 2))) for _ in range(k)])
    nilpotent = Matrix.from_entries(k, k, {(i, j): rng.randint(-1, 1)
                                           for i in range(k) for j in range(i + 1, k)})
    inverse = Matrix.zero(k, k)
    for j in range(k + 1):
        inverse = inverse + nilpotent.scale(-1).power(j)
    return (Matrix.identity(k) + nilpotent) @ diagonal @ inverse


def random_twisted_cases(rng):
    """Zero brackets in d = 0..4 with random twists alpha and beta, and
    random action tables whose two actions agree half of the time; the
    basis matrices read only the twists and, in compatible degree 0, the
    actions."""
    for d in range(5):
        for _ in range(3):
            t = rng.randint(1, 3)
            alpha, beta = conjugated_diagonal(rng, d), conjugated_diagonal(rng, t)
            zero = Matrix.zero(d, comb(d, 2))
            table = tuple(Matrix.diagonal([rng.randint(-1, 1) for _ in range(t)])
                          for _ in range(d))
            other = table if rng.random() < 0.5 else tuple(a.scale(2) for a in table)
            plain = HomLieAlgebra(d, alpha, zero)
            pair = CompatibleHomLieAlgebra(d, alpha, zero, zero)
            yield plain, Representation(plain, t, beta, (table,))
            yield pair, Representation(pair, t, beta, (table, other))


def two_bracket_modules():
    return [(fixtures.d2(), None), (fixtures.d2(), fixtures.d2_extension_rep()),
            (fixtures.compatible_h3(), None), (fixtures.twisted_compatible_h3(), None)]


def test_the_kept_differential_is_the_naive_two_bracket_coboundary():
    """Column k of ("differential", n) is the naive two-bracket coboundary of
    the k-th unit cochain, (n+1) x n blocks of d1 and d2 in degree n >= 1
    and d1 alone in degree 0; past the source dimension it is empty."""
    for c, rep in two_bracket_modules():
        rep = rep or adjoint_representation(c)
        for n in range(c.dim + 2):
            d = rep._complex["differential", n]
            size = _slots(c, n) * rep.vdim * comb(c.dim, n)
            assert (d.rows, d.cols) == (_slots(c, n + 1) * rep.vdim * comb(c.dim, n + 1), size)
            for k, unit in enumerate(_cochains(Matrix.identity(size), c, rep.vdim, n)):
                if n == 0:
                    unit = CompatibleCochain(0, (unit,))
                assert d.col(k) == naive_compatible_coboundary(c, rep, unit).flatten()
            if n == 0:
                assert d is rep._complex["coboundary", 1, 0]


def test_the_images_are_the_differential_on_the_basis_in_every_slot():
    """The mixed-product rule: the layout of d1 . B and d2 . B is the
    layout of d1 and d2 times kron(1, B)."""
    for c, rep in two_bracket_modules():
        kept = (rep or adjoint_representation(c))._complex
        for n in range(c.dim + 2):
            basis, slots = kept["basis", n], _slots(c, n)
            assert kept["images", n] == kept["differential", n] @ kron_sum(
                [(Matrix.identity(slots), basis)], slots * basis.rows, slots * basis.cols)


def test_basis_matrix_is_the_flat_cochain_basis():
    """The kept basis matrix, the kernel matrix taken as it is, equals the
    basis cochains of `hom_cochain_basis` (or of the degree-0 group)
    stacked as flat columns."""
    cases = list(basis_cases()) + list(random_twisted_cases(random.Random(41)))
    columns = 0
    for s, v in cases:
        for n in range(s.dim + 2):
            basis = v._complex["basis", n]
            assert basis == naive_basis_matrix(s, v, n)
            columns += basis.cols
    assert columns


def ambient_matrix(c, rep, n):
    """The two-bracket coboundary on all flat degree-n coordinates, from unit cochains."""
    size = max(n, 1) * rep.vdim * comb(c.dim, n)
    columns = []
    for unit in _cochains(Matrix.identity(size), c, rep.vdim, n):
        if n == 0:
            unit = CompatibleCochain(0, (unit,))
        columns.append(compatible_coboundary(c, rep, unit).flatten())
    return Matrix.from_columns(columns, len(columns[0]))


def test_delta_squared_on_assembled_matrices_h5_pair():
    c = h5_nijenhuis_pair()
    assert verify_structure(c).passed
    rep = adjoint_representation(c)
    for n in range(4):
        delta = rep._complex["images", n]
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
        (fixtures.h3(), None, PLAIN, range(4)),
        (fixtures.twisted_h3(), None, PLAIN, range(4)),
        (fixtures.d2(), None, COMPATIBLE, range(3)),
        (fixtures.compatible_h3(), None, COMPATIBLE, range(4)),
        (fixtures.twisted_compatible_h3(), None, COMPATIBLE, range(4)),
        (fixtures.d2(), fixtures.d2_extension_rep(), COMPATIBLE, range(3)),
        (h5_pair, trivial, COMPATIBLE, range(3)),
        (h5_pair, None, COMPATIBLE, range(3)),
        # Degree 1 of Yau-twisted sl2 is left out: its twist moves the module,
        # d1 d0 does not vanish there, and the report raises PreconditionError.
        (yau_sl2(), None, PLAIN, (0, 2, 3)),
    ]
    seen_classes = 0
    for alg, rep, flavor, degrees in cases:
        rep = rep or adjoint_representation(alg)
        for n in degrees:
            report = cohomology_dimensions(alg, rep, n)
            assert report.flavor == flavor
            assert report.cohomology_basis == greedy_representatives(report)
            seen_classes += report.dim_cohomology
    assert seen_classes > 0


@pytest.mark.parametrize("name", ["h3", "compatible_h3"])
def test_a_kept_coboundary_outside_the_cocycles_raises_contract_error(name):
    """The report build reads the coordinates of the coboundaries off the
    identity rows of the cocycle matrix and checks them by the exact
    product, so a kept coboundary column that is no cocycle raises
    ContractError from the first report instead of passing for one."""
    s = getattr(fixtures, name)()
    v = adjoint_representation(s)
    assert v._complex["coboundaries", 2].cols == 3
    add_a_coboundary_that_is_no_cocycle(s, v._complex, 2)
    with pytest.raises(ContractError, match="coboundaries do not lie in the cocycle space"):
        cohomology_dimensions(s, v, 2)


def add_a_coboundary_that_is_no_cocycle(s, kept, n: int):
    """Append to the kept degree-n coboundaries a basis cochain whose image
    is a nonzero column k of the degree-n images."""
    columns = kept["images", n].transpose()
    k = next(k for k in range(columns.rows) if columns.row_items(k))
    unit = Matrix.from_entries(columns.rows, 1, {(k, 0): 1})
    cochain = _in_slots(kept["basis", n], unit, _slots(s, n))  # d of it is column k
    kept["coboundaries", n] = hstack([kept["coboundaries", n], cochain])


@pytest.mark.parametrize("name, count", [("h3", 2), ("compatible_h3", 0)])
def test_a_degree1_coboundary_outside_the_cocycles_stays_a_contract_error(name, count):
    """Where d1 . d0 vanishes, a degree-1 coboundary that is no cocycle is
    a library fault, as in every other degree."""
    s = getattr(fixtures, name)()
    v = adjoint_representation(s)
    assert v._complex["coboundaries", 1].cols == count
    add_a_coboundary_that_is_no_cocycle(s, v._complex, 1)
    assert (v._complex["differential", 1] @ v._complex["images", 0]).is_zero()
    with pytest.raises(ContractError, match="coboundaries do not lie in the cocycle space"):
        cohomology_dimensions(s, v, 1)


def test_degree1_cohomology_is_a_precondition_error_where_d1_d0_does_not_vanish():
    """Yau-twisted sl2 moves the adjoint action of its fixed vector h, so
    d1 . d0 is not zero: its degree-1 report raises PreconditionError and
    names the cause, when asked again too, and is not kept.  Its other
    degrees report."""
    s = yau_sl2()
    v = adjoint_representation(s)
    for _ in range(2):
        with pytest.raises(PreconditionError, match="d1 . d0 is not zero"):
            cohomology_dimensions(s, v, 1)
    kept = v._complex
    assert ("report", 1) not in kept
    assert not (kept["differential", 1] @ kept["images", 0]).is_zero()
    assert [cohomology_dimensions(s, v, n).degree for n in (0, 2, 3)] == [0, 2, 3]


# ---------------------------------------------------------------------------
# dimension reports
# ---------------------------------------------------------------------------

def test_ab1_dimensions_both_flavors():
    ab = fixtures.ab1()
    plain = cohomology_dimensions(ab, adjoint_representation(ab), 1)
    assert (plain.dim_cochains, plain.dim_cohomology) == (1, 1)
    cab = fixtures.compatible_ab1()
    crep = adjoint_representation(cab)
    for n, expected in ((0, 1), (1, 1), (2, 0)):
        report = cohomology_dimensions(cab, crep, n)
        assert report.dim_cohomology == expected
        assert report.dim_cohomology == report.dim_cochains  # coboundary vanishes


def test_h3_degree1_matches_derivation_count():
    h3 = fixtures.h3()
    rep = adjoint_representation(h3)
    report = cohomology_dimensions(h3, rep, 1)
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
    report = cohomology_dimensions(d2, adjoint_representation(d2), 0)
    assert report.dim_cohomology == 0


def test_dimensions_above_carrier_dimension_are_zero():
    d2 = fixtures.d2()
    report = cohomology_dimensions(d2, adjoint_representation(d2), 5)
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
            report = cohomology_dimensions(alg, rep, n)
            assert report.flavor == flavor
            assert report.dim_cohomology == report.dim_cocycles - report.dim_coboundaries
            assert len(report.cocycle_basis) == report.dim_cocycles
            assert len(report.coboundary_basis) == report.dim_coboundaries
            assert len(report.cohomology_basis) == report.dim_cohomology
            for z in report.cocycle_basis:
                if flavor == PLAIN:
                    assert ce_coboundary(alg, rep, z).is_zero()
                else:
                    item = z if isinstance(z, CompatibleCochain) else CompatibleCochain(0, (z,))
                    assert compatible_coboundary(alg, rep, item).is_zero()


def test_invalid_structure_rejected():
    g4 = fixtures.g4a(1)
    with pytest.raises(PreconditionError):
        cohomology_dimensions(g4, adjoint_representation(g4), 1)


def test_class_coordinates_mod_coboundaries():
    c = fixtures.compatible_h3()
    rep = adjoint_representation(c)
    report = cohomology_dimensions(c, rep, 2)
    assert report.dim_cohomology > 0 and report.dim_coboundaries > 0
    rng = random.Random(4)
    z = report.cohomology_basis[0]
    coords = class_coordinates(report, z)
    assert any(x != 0 for x in coords)
    shift = report.coboundary_basis[0].scale(rand_frac(rng))
    assert class_coordinates(report, z + shift) == coords
    # A non-cocycle is rejected.
    non_cocycle = compatible_basis(c, rep, 2)[0]
    if not compatible_coboundary(c, rep, non_cocycle).is_zero():
        with pytest.raises(PreconditionError):
            class_coordinates(report, non_cocycle)


def class_cases():
    """(structure, module, degrees) for every valid fixture on its adjoint
    module (g4a with a = 0), d2 on its extension module, the h5 Nijenhuis
    pair and Yau-twisted sl2 outside its refused degree 1."""
    cases = [(s, None, range(s.dim + 2)) for s in (
        fixtures.ab1(), fixtures.compatible_ab1(), fixtures.g4a(0), fixtures.d2(), fixtures.h3(),
        fixtures.compatible_h3(), fixtures.twisted_h3(), fixtures.twisted_compatible_h3())]
    cases += [(fixtures.d2(), fixtures.d2_extension_rep(), range(4)),
              (h5_nijenhuis_pair(), None, range(3)), (yau_sl2(), None, (0, 2, 3))]
    return [(s, v or adjoint_representation(s), degrees) for s, v, degrees in cases]


def report_cochain(report, slots, values):
    """The cochain of the report's shape, with `slots` slots, whose flat
    coordinates are `values`."""
    n, d, t = report.degree, report.source_dim, report.target_dim
    size = t * comb(d, n)
    parts = [Cochain.from_flat(n, d, t, values[k * size : (k + 1) * size]) for k in range(slots)]
    return CompatibleCochain(n, tuple(parts)) if report.flavor == COMPATIBLE and n else parts[0]


def outcome(function, *args):
    """What a call returns, or the type of the input error it raises."""
    try:
        return function(*args)
    except (PreconditionError, UsageError) as exc:
        return type(exc)


def test_class_coordinates_match_the_flat_solve_oracle():
    """On every fixture module and degree, each class question equals the
    flat solve over [coboundaries | representatives] in value and in type:
    the first cocycles and representatives, random rational mixes of
    cocycles and coboundaries, a random cochain (no cocycle where the
    cocycles are not everything) and a cochain of one degree more
    (UsageError)."""
    rng = random.Random(26)
    seen = {PreconditionError: 0, UsageError: 0, "nonzero": 0}
    for s, v, degrees in class_cases():
        for n in degrees:
            report = cohomology_dimensions(s, v, n)
            slots = _slots(s, n)
            size = slots * v.vdim * comb(s.dim, n)
            items = list(report.cocycle_basis[:3] + report.cohomology_basis[:3])
            for _ in range(2):
                values = [F(0)] * size
                for b in report.cocycle_basis + report.coboundary_basis:
                    c = rand_frac(rng)
                    values = [x + c * y for x, y in zip(values, b.flatten())]
                items.append(report_cochain(report, slots, values))
            items.append(report_cochain(report, slots, [rand_frac(rng) for _ in range(size)]))
            items.append(Cochain.zero(n + 1, s.dim, v.vdim))
            for item in items:
                want = outcome(naive_class_coordinates, report, item)
                got = outcome(class_coordinates, report, item)
                assert got == want
                if isinstance(want, tuple):
                    assert type(got) is tuple and all(type(x) is Fraction for x in got)
                    assert len(got) == report.dim_cohomology
                    seen["nonzero"] += any(got)
                else:
                    seen[want] += 1
    assert all(seen.values())


def test_class_questions_after_a_report_run_no_elimination(monkeypatch):
    """A report carries its class record, so class questions build no part
    of the complex and run no pivot loop."""
    c = fixtures.compatible_h3()
    v = adjoint_representation(c)
    report = cohomology_dimensions(c, v, 2)
    assert report.dim_cohomology and report.dim_coboundaries
    rng = random.Random(5)
    built = record_complex_builds(monkeypatch)
    answers = []
    for _ in range(10):
        z = report.cohomology_basis[0].scale(rand_frac(rng))
        answers.append(class_coordinates(report, z + report.coboundary_basis[0].scale(rand_frac(rng))))
    assert built == []
    assert len(answers) == 10 and any(any(a) for a in answers)


def test_a_refused_report_keeps_no_class_record():
    """Yau-twisted sl2 refuses its degree-1 report each time it is asked,
    and the report whose build raised is not kept; nor is a report of
    negative degree."""
    s = yau_sl2()
    v = adjoint_representation(s)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            cohomology_dimensions(s, v, 1)
        assert ("report", 1) not in v._complex
    with pytest.raises(UsageError, match="negative degree"):
        cohomology_dimensions(s, v, -1)
    assert ("report", -1) not in v._complex
    cohomology_dimensions(s, v, 2)
    assert ("report", 2) in v._complex


@pytest.mark.parametrize("degree", [1.0, True, "1"])
def test_a_non_integer_degree_is_refused_on_a_fresh_and_a_warm_module(degree):
    """A degree that is no int, or is a bool, is refused before the kept
    reports are read: 1.0 and True would find the kept degree-1 report."""
    s = fixtures.h3()
    v = adjoint_representation(s)
    for _ in range(2):
        with pytest.raises(UsageError, match="degree must be an int"):
            cohomology_dimensions(s, v, degree)
        cohomology_dimensions(s, v, 1)


def test_the_class_record_leaves_report_equality_and_repr_alone():
    """The record a report carries takes no part in ==, hash or repr: a
    report without it reads the same.  A class question needs the record,
    so such a report is refused with UsageError."""
    for name in ("h3", "compatible_h3"):
        s = getattr(fixtures, name)()
        report = cohomology_dimensions(s, adjoint_representation(s), 2)
        bare = dataclasses.replace(report, _classes=None)
        assert report._classes is not None
        assert (bare, hash(bare), repr(bare)) == (report, hash(report), repr(report))
        assert "_classes" not in repr(report)
        assert repr(report).endswith("source_dim=3, target_dim=3)")
        with pytest.raises(UsageError, match="not made by cohomology_dimensions"):
            class_coordinates(bare, report.cocycle_basis[0])


def test_dimension4_semidirect_pipeline():
    # The semidirect product of the plane fixture with its adjoint module is
    # a 4-dimensional compatible structure; pin its low-degree dimensions.
    d2 = fixtures.d2()
    big = semidirect_product(d2, adjoint_representation(d2))
    brep = adjoint_representation(big)
    assert verify_structure(big).passed and verify_structure(brep).passed
    dims = [
        cohomology_dimensions(big, brep, n).dim_cohomology
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
            for z in cohomology_dimensions(c, rep, n).cohomology_basis:
                assert coboundary_preimage(c, rep, z) is None
                seen += 1
    assert seen > 0


def test_coboundary_preimage_on_an_empty_cochain_space():
    d2 = fixtures.d2()
    rep = adjoint_representation(d2)
    assert cohomology_dimensions(d2, rep, 0).dim_cochains == 0
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
            lhs = ce_coboundary(plus, plus_rep, comparison_map(F_))
            rhs = comparison_map(compatible_coboundary(d2, rep, F_))
            assert lhs.flatten() == rhs.flatten()


def test_comparison_dimensions_reported_side_by_side():
    d2 = fixtures.d2()
    rep = adjoint_representation(d2)
    plus = sum_bracket(d2, 1, 1)
    plus_rep = sum_representation(rep)
    table = []
    for n in range(0, 3):
        a = cohomology_dimensions(d2, rep, n).dim_cohomology
        b = cohomology_dimensions(plus, plus_rep, n).dim_cohomology
        table.append((n, a, b))
    assert table == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]


# ---------------------------------------------------------------------------
# The complex kept on a module
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["h3", "compatible_h3", "twisted_compatible_h3"])
def test_a_degree_loop_builds_each_degree_of_the_complex_once(monkeypatch, name):
    """A table over degrees 0..3 reads degree n - 1 from the complex the
    previous call kept, so each degree's basis, images, cocycles and
    coboundaries are built once.  The images are the layout of the
    products with the basis, so the table builds no differential.  A
    second table builds nothing and runs no pivot loop: each report is the
    kept ("report", n)."""
    s = getattr(fixtures, name)()
    v = adjoint_representation(s)
    built = record_complex_builds(monkeypatch)
    first = [cohomology_dimensions(s, v, n) for n in range(4)]
    for part in ("images", "basis", "cocycles", "coboundaries"):
        assert [b for b in built if b[0] == part] == [(part, n) for n in range(4)]
    actions = range(1, len(s.brackets) + 1)
    assert sorted(b for b in built if b[0] == "coboundary") == sorted(
        ("coboundary", which, n) for n in range(4) for which in actions
        if len(s.brackets) == 1 or n or which == 1)
    assert [b for b in built if b[0] == "differential"] == []
    built.clear()
    assert [cohomology_dimensions(s, v, n) for n in range(4)] == first
    assert built == []
    assert any(r.dim_coboundaries for r in first)


@pytest.mark.parametrize("name", ["h3", "compatible_h3", "twisted_compatible_h3"])
def test_a_repeated_report_gives_the_kept_cochains(monkeypatch, name):
    """A degree loop builds each degree's report once.  A second loop
    builds nothing: each report is the first one, so it gives the very same
    cochain objects, and the reports equal those of an equal module built
    separately."""
    s = getattr(fixtures, name)()
    v = adjoint_representation(s)
    built = record_complex_builds(monkeypatch)
    first = [cohomology_dimensions(s, v, n) for n in range(4)]
    assert [b for b in built if b[0] == "report"] == [("report", n) for n in range(4)]
    built.clear()
    again = [cohomology_dimensions(s, v, n) for n in range(4)]
    assert built == []
    assert len(again) == 4 and all(old is new for old, new in zip(first, again))
    assert any(r.coboundary_basis for r in first)
    t = getattr(fixtures, name)()
    w = adjoint_representation(t)
    assert again == [cohomology_dimensions(t, w, n) for n in range(4)]


def kept_parts(v, degrees):
    """Every part of v's kept complex in the given degrees, built now if not
    yet.  A kept report comes with its cochains one by one, since the empty
    tuple is one shared object, and with the matrices of its class
    record."""
    keys = [(part, n) for part in ("basis", "images", "elimination", "differential",
                                   "cocycles", "coboundaries", "report")
            for n in degrees]
    keys += [(part, b, n) for part in ("insertion", "coboundary") for n in degrees
             for b in range(1, len(v.actions) + 1)]
    parts = []
    for key in keys:
        part = v._complex[key]
        parts.append(part)
        if key[0] == "report":
            parts.extend(part.cocycle_basis + part.coboundary_basis + part.cohomology_basis)
            parts.extend(part._classes)
    return parts


def test_equal_modules_built_separately_share_no_kept_data():
    for name in ("h3", "compatible_h3", "twisted_compatible_h3"):
        s, t = getattr(fixtures, name)(), getattr(fixtures, name)()
        v, w = adjoint_representation(s), adjoint_representation(t)
        assert v == w and v is not w
        assert [cohomology_dimensions(s, v, n) for n in range(4)] == \
            [cohomology_dimensions(t, w, n) for n in range(4)]
        assert v._complex is not w._complex
        for mine, theirs in zip(kept_parts(v, range(4)), kept_parts(w, range(4))):
            assert mine == theirs and mine is not theirs


def test_a_module_and_its_parts_share_no_kept_data():
    c = fixtures.twisted_compatible_h3()
    v = adjoint_representation(c)
    reports = [cohomology_dimensions(c, v, n) for n in range(4)]
    for b in (1, 2):
        part = v.part(b)
        assert part._complex is not v._complex
        fresh = Representation(c.part(b), v.vdim, v.beta, (v.actions[b - 1],))
        for n in range(4):
            assert cohomology_dimensions(part.base, part, n) == \
                cohomology_dimensions(fresh.base, fresh, n)
            assert part._complex["coboundary", 1, n] == v._complex["coboundary", b, n]
            assert part._complex["coboundary", 1, n] is not v._complex["coboundary", b, n]
        mine = kept_parts(part, range(4))
        assert not any(a is b for a in mine for b in kept_parts(v, range(4)))
    assert [cohomology_dimensions(c, v, n) for n in range(4)] == reports
