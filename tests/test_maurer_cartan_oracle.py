"""The coboundary against the paper's Maurer-Cartan characterisation.

On the semidirect product g + V, the bracket mu.rho of `semidirect_product`
is a Maurer-Cartan element, and the coboundary of a cochain f is, through
the lift f^ of `lift_to_product`, its Nijenhuis-Richardson bracket with it:

    lift(d f) = (-1)^(n-1) [mu.rho, f^]    for f of arity n >= 1.

For a compatible pair each bracket does this for its own coboundary, so
slot i of the two-bracket coboundary of (f_0, ..., f_(n-1)) lifts to

    (-1)^(n-1) ([mu1.rho1, f^_i] + [mu2.rho2, f^_(i-1)]),

the sign of the single-bracket case, with the terms whose slot is out of
range left out.  The right-hand sides come from `helpers.naive_nr_bracket`,
a permutation oracle that shares no code with `insertion_matrix` or
`kron_sum`.  The oracle is linear in f, so one seeded equivariant
combination per degree 1..min(d - 1, 3) stands for the whole basis.

In degree 0 the cochain is a twist-fixed vector v, and its coboundary
lifts to the cochain x -> [x^, v^] of the semidirect bracket, read here
with `Cochain.evaluate` on the basis of g (the lift vanishes on V).  The
permutation oracle cannot serve there: it takes the power alpha^(-1) when
the inner argument has arity 0.  In two-bracket degree 0 the vector lies
in the degree-0 group, where the two actions agree, so the one slot lifts
to x -> [x^, v^] of either semidirect bracket.
"""

import random
from fractions import Fraction

import pytest

from homlie import (
    CompatibleCochain,
    HomLieAlgebra,
    Matrix,
    Cochain,
    adjoint_representation,
    ce_coboundary,
    compatible_coboundary,
    fixtures,
    lift_to_product,
    semidirect_product,
    verify_structure,
)

from helpers import (
    basis_vector,
    c0_compatible_basis,
    naive_nr_bracket,
    rand_equivariant_cochain,
)


def yau_sl2() -> HomLieAlgebra:
    """sl2 (basis e, f, h) twisted by its automorphism alpha = diag(2, 1/2, 1):
    bracket alpha . [ , ] and twist alpha.  Unlike the twist of twisted h3,
    which moves e2 by the central e3, alpha changes the adjoint action,
    so the twist power of the coboundary's action term is seen."""
    alpha = Matrix.diagonal([2, Fraction(1, 2), 1])
    sl2 = HomLieAlgebra.from_brackets(
        3, Matrix.identity(3), {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0], (1, 2): [0, 2, 0]})
    return HomLieAlgebra(3, alpha, alpha @ sl2.bracket)


def single_bracket_cases():
    """h3, twisted h3 and Yau-twisted sl2 on the adjoint module, and each
    part of d2 on its extension module."""
    out = [(s, adjoint_representation(s))
           for s in (fixtures.h3(), fixtures.twisted_h3(), yau_sl2())]
    rep = fixtures.d2_extension_rep()
    out += [(rep.base.part(b), rep.part(b)) for b in (1, 2)]
    return out


def degrees(s):
    return range(1, min(s.dim - 1, 3) + 1)


@pytest.mark.parametrize("case", range(5))
def test_the_coboundary_is_the_bracket_with_the_semidirect_bracket(case):
    l, v = single_bracket_cases()[case]
    assert verify_structure(l).passed and verify_structure(v).passed
    semi = semidirect_product(l, v)
    rng = random.Random(500 + case)
    checked = 0
    for n in degrees(l):
        f = rand_equivariant_cochain(rng, l.alpha, v.beta, n)
        if f is None or f.is_zero():
            continue
        lhs = lift_to_product(ce_coboundary(l, v, f), l.dim, v.vdim)
        rhs = naive_nr_bracket(semi.bracket_cochain(), lift_to_product(f, l.dim, v.vdim),
                               semi.alpha)
        assert lhs == rhs.scale((-1) ** (n - 1)), n
        checked += not lhs.is_zero()
    assert checked


@pytest.mark.parametrize("name", ["compatible_h3", "twisted_compatible_h3"])
def test_each_two_bracket_slot_is_the_bracket_with_both_semidirect_brackets(name):
    c = getattr(fixtures, name)()
    v = adjoint_representation(c)
    semi = semidirect_product(c, v)
    rng = random.Random(600)
    checked = 0
    for n in degrees(c):
        parts = tuple(rand_equivariant_cochain(rng, c.alpha, v.beta, n) for _ in range(n))
        lifts = [lift_to_product(f, c.dim, v.vdim) for f in parts]
        image = compatible_coboundary(c, v, CompatibleCochain(n, parts))
        for i, slot in enumerate(image.components):
            want = None
            for b, k in ((1, i), (2, i - 1)):
                if 0 <= k < n:
                    term = naive_nr_bracket(semi.bracket_cochain(b), lifts[k], semi.alpha)
                    want = term if want is None else want + term
            assert lift_to_product(slot, c.dim, v.vdim) == want.scale((-1) ** (n - 1)), (n, i)
            checked += not slot.is_zero()
    assert checked


def bracket_with(semi: Cochain, g_dim: int, v: Cochain) -> Cochain:
    """x -> [x^, v^] on the carrier g + V of the semidirect bracket `semi`,
    for x in g and zero on V, with v^ = (0, v): the lift of the arity-1
    cochain x -> x . v."""
    total = semi.source_dim
    v_hat = (0,) * g_dim + v.flatten()
    return Cochain.from_values(1, total, total, {
        (k,): semi.evaluate((basis_vector(total, k), v_hat)) for k in range(g_dim)})


@pytest.mark.parametrize("case", range(5))
def test_a_degree0_coboundary_is_the_bracket_with_the_vector(case):
    l, v = single_bracket_cases()[case]
    semi = semidirect_product(l, v)
    f = rand_equivariant_cochain(random.Random(700 + case), l.alpha, v.beta, 0)
    assert f is not None
    lhs = lift_to_product(ce_coboundary(l, v, f), l.dim, v.vdim)
    assert lhs == bracket_with(semi.bracket_cochain(), l.dim, f)
    assert not lhs.is_zero()


def test_the_two_bracket_degree0_coboundary_is_the_bracket_with_the_vector():
    """On compatible h3 with its adjoint module the degree-0 group is the
    centre, so both sides vanish; the single-bracket cases above are the
    ones a wrong degree-0 action term fails."""
    c = fixtures.compatible_h3()
    v = adjoint_representation(c)
    semi = semidirect_product(c, v)
    group = c0_compatible_basis(c, v)
    assert group
    for f in group:
        (slot,) = compatible_coboundary(c, v, CompatibleCochain(0, (f,))).components
        lhs = lift_to_product(slot, c.dim, v.vdim)
        for b in (1, 2):
            assert lhs == bracket_with(semi.bracket_cochain(b), c.dim, f), b
