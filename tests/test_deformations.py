import random
from fractions import Fraction

import pytest

from homlie import (
    Cochain,
    CompatibleCochain,
    CompatibleHomLieAlgebra,
    ContractError,
    LinearGenerator,
    LinearOperator,
    Matrix,
    NIJENHUIS,
    OrderPDeformation,
    PreconditionError,
    adjoint_representation,
    check_linear_equivalence,
    check_linear_generator,
    class_coordinates,
    cohomology_dimensions,
    compatible_coboundary,
    infinitesimal_class,
    is_equivariant,
    is_extensible,
    obstruction,
    trivial_deformation_from_nijenhuis,
    verify_order_p,
)
from homlie import cohomology, deformations, fixtures
from homlie.cohomology import COMPATIBLE
from homlie.deformations import HALF

from helpers import rand_equivariant_cochain, rand_matrix

F = Fraction


def zero_generator(dim):
    return LinearGenerator(Cochain.zero(2, dim, dim), Cochain.zero(2, dim, dim))


def abelian2():
    return CompatibleHomLieAlgebra.from_brackets(2, Matrix.identity(2), {}, {})


# ---------------------------------------------------------------------------
# linear generators
# ---------------------------------------------------------------------------

def test_brackets_themselves_generate():
    d2 = fixtures.d2()
    g = LinearGenerator(d2.bracket_cochain(1), d2.bracket_cochain(2))
    report = check_linear_generator(d2, g)
    assert report.is_cocycle and report.is_compatible_structure and report.generates


def test_zero_generator_generates():
    d2 = fixtures.d2()
    report = check_linear_generator(d2, zero_generator(2))
    assert report.generates


def test_nijenhuis_generator_passes_all_six():
    for c, op in ((fixtures.d2(), fixtures.d2_nijenhuis()),
                  (fixtures.compatible_h3(), fixtures.h3_nijenhuis()),
                  (fixtures.twisted_compatible_h3(), fixtures.h3_nijenhuis())):
        g = trivial_deformation_from_nijenhuis(c, op)
        assert check_linear_generator(c, g).generates


def test_nijenhuis_generator_values():
    g = trivial_deformation_from_nijenhuis(fixtures.d2(), fixtures.d2_nijenhuis())
    assert g.omega1.column((0, 1)) == (F(2), F(0))
    assert g.omega2.column((0, 1)) == (F(0), F(1))


def test_nijenhuis_edge_operators():
    d2 = fixtures.d2()
    zero_op = LinearOperator(Matrix.zero(2, 2), NIJENHUIS)
    g = trivial_deformation_from_nijenhuis(d2, zero_op)
    assert g.omega1.is_zero() and g.omega2.is_zero()
    ident = LinearOperator(Matrix.identity(2), NIJENHUIS)
    g = trivial_deformation_from_nijenhuis(d2, ident)
    assert g.omega1.flatten() == d2.bracket_cochain(1).flatten()
    assert g.omega2.flatten() == d2.bracket_cochain(2).flatten()


def test_generator_rejects_non_equivariant():
    g4 = fixtures.g4a(0)
    pair = CompatibleHomLieAlgebra(4, g4.alpha, g4.bracket, g4.bracket)
    bad = fixtures.g4a(1).bracket_cochain()
    with pytest.raises(PreconditionError):
        check_linear_generator(pair, LinearGenerator(bad, Cochain.zero(2, 4, 4)))


def test_non_cocycle_generator_detected():
    c = fixtures.compatible_h3()
    report = cohomology_dimensions(c, adjoint_representation(c), 2, COMPATIBLE)
    # Pick an equivariant pair that is not a cocycle.
    rng = random.Random(1)
    for _ in range(20):
        w1 = rand_equivariant_cochain(rng, c.alpha, c.alpha, 2)
        w2 = rand_equivariant_cochain(rng, c.alpha, c.alpha, 2)
        g = LinearGenerator(w1, w2)
        if not check_linear_generator(c, g).is_cocycle:
            return
    pytest.fail("no non-cocycle pair found")


# ---------------------------------------------------------------------------
# equivalences
# ---------------------------------------------------------------------------

def test_equivalence_identity_case():
    d2 = fixtures.d2()
    g = zero_generator(2)
    report = check_linear_equivalence(d2, g, g, Matrix.zero(2, 2))
    assert report.equivalent and report.coboundary_shift


def test_nijenhuis_deformation_is_trivial():
    for c, op in ((fixtures.d2(), fixtures.d2_nijenhuis()),
                  (fixtures.compatible_h3(), fixtures.h3_nijenhuis()),
                  (fixtures.twisted_compatible_h3(), fixtures.h3_nijenhuis())):
        g = trivial_deformation_from_nijenhuis(c, op)
        report = check_linear_equivalence(c, g, zero_generator(c.dim), op.matrix)
        assert report.equivalent
        assert report.coboundary_shift


def test_third_family_fails_for_identity_operator():
    d2 = fixtures.d2()
    g = LinearGenerator(d2.bracket_cochain(1), d2.bracket_cochain(2))
    report = check_linear_equivalence(d2, g, g, Matrix.identity(2))
    third = [c for c in report.checks if c.name == "order3_identity[1]"][0]
    assert not third.passed
    assert third.witnesses[0][0] == (0, 1)
    assert not report.equivalent


def test_equivalence_requires_twist_commutation():
    c = fixtures.compatible_h3()
    g = zero_generator(3)
    n = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    report = check_linear_equivalence(c, g, g, n)  # identity twist: fine
    assert report.equivalent
    g4 = fixtures.g4a(0)
    pair = CompatibleHomLieAlgebra(4, g4.alpha, g4.bracket, g4.bracket)
    bad = Matrix.diagonal([1, 2, 3, 4])  # does not commute with the swap
    with pytest.raises(PreconditionError):
        check_linear_equivalence(pair, zero_generator(4), zero_generator(4), bad)


# ---------------------------------------------------------------------------
# infinitesimal classes
# ---------------------------------------------------------------------------

def test_zero_generator_has_zero_class():
    c = fixtures.compatible_h3()
    coords = infinitesimal_class(c, zero_generator(3))
    assert coords and all(x == 0 for x in coords)


def test_coboundary_generator_has_zero_class():
    rng = random.Random(2)
    c = fixtures.compatible_h3()
    rep = adjoint_representation(c)
    for _ in range(5):
        n = rand_matrix(rng, 3, 3)  # identity twist: any matrix is equivariant
        delta = compatible_coboundary(c, rep, CompatibleCochain(1, (Cochain(1, 3, 3, n),)))
        g = LinearGenerator(delta.components[0], delta.components[1])
        coords = infinitesimal_class(c, g)
        assert all(x == 0 for x in coords)


def test_nonzero_class_exists_and_is_detected():
    c = fixtures.compatible_h3()
    rep = adjoint_representation(c)
    report = cohomology_dimensions(c, rep, 2, COMPATIBLE)
    assert report.dim_cohomology > 0
    z = report.cohomology_basis[0]
    g = LinearGenerator(z.components[0], z.components[1])
    coords = infinitesimal_class(c, g)
    assert any(x != 0 for x in coords)


def test_class_constant_on_equivalence_orbits():
    # Trivial deformations are equivalent to the zero generator, so their
    # classes agree with the zero class.
    for c, op in ((fixtures.d2(), fixtures.d2_nijenhuis()),
                  (fixtures.compatible_h3(), fixtures.h3_nijenhuis())):
        g = trivial_deformation_from_nijenhuis(c, op)
        assert check_linear_equivalence(c, g, zero_generator(c.dim), op.matrix).equivalent
        assert infinitesimal_class(c, g) == infinitesimal_class(c, zero_generator(c.dim))


def test_infinitesimal_class_verifies_the_base_once(monkeypatch):
    c = fixtures.compatible_h3()
    h2 = cohomology_dimensions(c, adjoint_representation(c), 2, COMPATIBLE)
    z = h2.cohomology_basis[-1]
    g = LinearGenerator(z.components[0], z.components[1])
    want = class_coordinates(h2, z)
    assert want[-1] == 1
    verified = []
    for module in (deformations, cohomology):
        monkeypatch.setattr(module, "verify_structure",
                            lambda s, original=module.verify_structure:
                            verified.append(s) or original(s))
    assert infinitesimal_class(c, g) == want
    assert [type(s).__name__ for s in verified] == ["CompatibleHomLieAlgebra"]
    assert verified[0] is c


def test_non_cocycle_class_rejected():
    c = fixtures.compatible_h3()
    rng = random.Random(3)
    for _ in range(20):
        g = LinearGenerator(
            rand_equivariant_cochain(rng, c.alpha, c.alpha, 2),
            rand_equivariant_cochain(rng, c.alpha, c.alpha, 2),
        )
        if not check_linear_generator(c, g).is_cocycle:
            with pytest.raises(PreconditionError):
                infinitesimal_class(c, g)
            return
    pytest.fail("no non-cocycle pair found")


# ---------------------------------------------------------------------------
# order-p deformations
# ---------------------------------------------------------------------------

def test_order1_from_generator_verifies():
    d2 = fixtures.d2()
    g = trivial_deformation_from_nijenhuis(d2, fixtures.d2_nijenhuis())
    d = OrderPDeformation.from_generator(d2, g)
    assert verify_order_p(d).passed


@pytest.mark.parametrize("component", [1, 2])
def test_extended_rejects_non_equivariant_coefficient(component):
    # The equivariance of every coefficient is checked whenever a deformation
    # is built, including by `extended` and `truncate`.
    c = fixtures.twisted_compatible_h3()
    d = OrderPDeformation.from_generator(
        c, trivial_deformation_from_nijenhuis(c, fixtures.h3_nijenhuis()))
    zero = Cochain.zero(2, 3, 3)
    bad = Cochain.from_values(2, 3, 3, {(0, 2): [0, 0, 1]})
    assert not is_equivariant(bad, c.alpha, c.alpha)
    assert d.extended(zero, zero).truncate(1) == d
    pair = (bad, zero) if component == 1 else (zero, bad)
    with pytest.raises(PreconditionError, match="deformation coefficient is not twist-equivariant"):
        d.extended(*pair)


def test_zero_coefficients_pass_iff_base_valid():
    d2 = fixtures.d2()
    zeros = tuple(Cochain.zero(2, 2, 2) for _ in range(2))
    d = OrderPDeformation(
        d2,
        (d2.bracket_cochain(1),) + zeros,
        (d2.bracket_cochain(2),) + zeros,
    )
    assert verify_order_p(d).passed

    # a skew but non-Jacobi base fails at order 0
    from homlie import HomLieAlgebra

    bad_single = HomLieAlgebra.from_brackets(
        3, Matrix.identity(3), {(0, 1): [1, 0, 0], (0, 2): [0, 1, 0]}
    )
    bad = CompatibleHomLieAlgebra(3, bad_single.alpha, bad_single.bracket, bad_single.bracket)
    zeros3 = tuple(Cochain.zero(2, 3, 3) for _ in range(1))
    d_bad = OrderPDeformation(
        bad,
        (bad.bracket_cochain(1),) + zeros3,
        (bad.bracket_cochain(2),) + zeros3,
    )
    report = verify_order_p(d_bad)
    assert not report.passed
    assert report.failures()[0][0] == 0


def test_non_cocycle_first_coefficient_fails_at_order1():
    c = fixtures.compatible_h3()
    rng = random.Random(4)
    for _ in range(20):
        w1 = rand_equivariant_cochain(rng, c.alpha, c.alpha, 2)
        w2 = rand_equivariant_cochain(rng, c.alpha, c.alpha, 2)
        if check_linear_generator(c, LinearGenerator(w1, w2)).is_cocycle:
            continue
        d = OrderPDeformation(
            c, (c.bracket_cochain(1), w1), (c.bracket_cochain(2), w2)
        )
        report = verify_order_p(d)
        assert not report.passed
        orders = [n for n, _ in report.failures()]
        assert orders == [1]
        return
    pytest.fail("no non-cocycle pair found")


@pytest.mark.parametrize("which", [1, 2])
def test_wrong_coboundary_sign_raises_contract_error(monkeypatch, which):
    """The truncated-bracket route catches a sign error in either coboundary
    map, on an order-1 pair that is not a cocycle."""
    c = fixtures.compatible_h3()
    rng = random.Random(5)
    w1 = rand_equivariant_cochain(rng, c.alpha, c.alpha, 2)
    w2 = rand_equivariant_cochain(rng, c.alpha, c.alpha, 2)
    d = OrderPDeformation(c, (c.bracket_cochain(1), w1), (c.bracket_cochain(2), w2))
    assert not verify_order_p(d).passed  # the unpatched routes agree

    real = deformations._coboundary_map

    def flipped(struct, v, bracket, n):
        matrix = real(struct, v, bracket, n)
        return -matrix if bracket == which else matrix

    monkeypatch.setattr(deformations, "_coboundary_map", flipped)
    with pytest.raises(ContractError):
        verify_order_p(d)


def test_order0_coefficients_must_match_base():
    d2 = fixtures.d2()
    with pytest.raises(Exception):
        OrderPDeformation(d2, (Cochain.zero(2, 2, 2),), (d2.bracket_cochain(2),))


def test_obstruction_zero_cases():
    d2 = fixtures.d2()
    zeros = tuple(Cochain.zero(2, 2, 2) for _ in range(2))
    d = OrderPDeformation(
        d2, (d2.bracket_cochain(1),) + zeros, (d2.bracket_cochain(2),) + zeros
    )
    ob = obstruction(d)
    assert ob.cochain.is_zero()


def test_obstruction_order1_formula():
    from homlie import nr_bracket

    c = fixtures.compatible_h3()
    g = trivial_deformation_from_nijenhuis(c, fixtures.h3_nijenhuis())
    d = OrderPDeformation.from_generator(c, g)
    ob = obstruction(d).cochain
    expected = (
        nr_bracket(g.omega1, g.omega1, c.alpha).scale(HALF),
        nr_bracket(g.omega1, g.omega2, c.alpha),
        nr_bracket(g.omega2, g.omega2, c.alpha).scale(HALF),
    )
    for got, want in zip(ob.components, expected):
        assert got.flatten() == want.flatten()


def test_obstruction_closed():
    c = fixtures.compatible_h3()
    rep = adjoint_representation(c)
    h2 = cohomology_dimensions(c, rep, 2, COMPATIBLE)
    for z in h2.cocycle_basis[:4]:
        d = OrderPDeformation(
            c,
            (c.bracket_cochain(1), z.components[0]),
            (c.bracket_cochain(2), z.components[1]),
        )
        ob = obstruction(d).cochain
        assert compatible_coboundary(c, rep, ob, check=False).is_zero()


def test_truncation_obstruction_is_coboundary_of_dropped_pair():
    c = fixtures.compatible_h3()
    rep = adjoint_representation(c)
    g = trivial_deformation_from_nijenhuis(c, fixtures.h3_nijenhuis())
    order1 = OrderPDeformation.from_generator(c, g)
    pair = is_extensible(order1)
    assert pair is not None
    order2 = order1.extended(*pair)
    assert verify_order_p(order2).passed
    ob = obstruction(order1).cochain
    delta_top = compatible_coboundary(
        c, rep, CompatibleCochain(2, pair), check=False
    )
    assert ob.flatten() == delta_top.flatten()


def test_truncations_of_valid_deformations_are_extensible():
    c = fixtures.compatible_h3()
    g = trivial_deformation_from_nijenhuis(c, fixtures.h3_nijenhuis())
    order1 = OrderPDeformation.from_generator(c, g)
    pair = is_extensible(order1)
    order2 = order1.extended(*pair)
    truncated = order2.truncate(1)
    assert truncated.coeffs1 == order1.coeffs1
    again = is_extensible(truncated)
    assert again is not None
    assert verify_order_p(truncated.extended(*again)).passed
    # The two extension pairs differ by a 2-cocycle pair.
    diff = CompatibleCochain(2, (pair[0] - again[0], pair[1] - again[1]))
    rep = adjoint_representation(c)
    assert compatible_coboundary(c, rep, diff, check=False).is_zero()


def test_extensible_when_degree3_cohomology_vanishes():
    # The 2-dimensional fixture has no arity-3 cochains at all, so every
    # valid order-p deformation extends.
    d2 = fixtures.d2()
    rep = adjoint_representation(d2)
    assert cohomology_dimensions(d2, rep, 3, COMPATIBLE).dim_cohomology == 0
    h2 = cohomology_dimensions(d2, rep, 2, COMPATIBLE)
    rng = random.Random(5)
    for z in h2.cocycle_basis:
        d = OrderPDeformation(
            d2,
            (d2.bracket_cochain(1), z.components[0]),
            (d2.bracket_cochain(2), z.components[1]),
        )
        assert is_extensible(d) is not None


def test_order3_extension_chain():
    # Extending twice from an order-1 family exercises convolution sums with
    # several interior terms at each order.
    c = fixtures.twisted_compatible_h3()
    gen = trivial_deformation_from_nijenhuis(c, fixtures.h3_nijenhuis())
    d = OrderPDeformation.from_generator(c, gen)
    for target in (2, 3):
        pair = is_extensible(d)
        assert pair is not None
        d = d.extended(*pair)
        assert d.order == target
        assert verify_order_p(d).passed
    ob = obstruction(d)
    assert compatible_coboundary(
        c, adjoint_representation(c), ob.cochain, check=False
    ).is_zero()


def test_obstructed_search_is_recorded():
    # Scan low-order deformations of the fixtures for a nonzero obstruction
    # class; none of the shipped fixtures produces one, which this test
    # records (extensibility held every time).
    found_obstructed = False
    for c in (fixtures.d2(), fixtures.compatible_h3()):
        rep = adjoint_representation(c)
        h2 = cohomology_dimensions(c, rep, 2, COMPATIBLE)
        for z in h2.cohomology_basis[:3]:
            d = OrderPDeformation(
                c,
                (c.bracket_cochain(1), z.components[0]),
                (c.bracket_cochain(2), z.components[1]),
            )
            if verify_order_p(d).passed and is_extensible(d) is None:
                found_obstructed = True
    assert not found_obstructed
