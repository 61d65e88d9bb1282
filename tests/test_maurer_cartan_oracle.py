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
"""

import random
from fractions import Fraction

import pytest

from homlie import (
    CompatibleCochain,
    HomLieAlgebra,
    Matrix,
    adjoint_representation,
    ce_coboundary,
    compatible_coboundary,
    fixtures,
    lift_to_product,
    semidirect_product,
    verify_structure,
)

from helpers import naive_nr_bracket, rand_equivariant_cochain


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
