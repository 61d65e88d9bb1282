"""Cohomology values known independently of the code that computes them.

- Heisenberg algebras h_(2n+1) with trivial coefficients have
  b_k = C(2n, k) - C(2n, k-2) for k <= n (Santharoubane, Proc. AMS, 1983),
  and b_k = b_(d-k) by Poincare duality.
- Whitehead's lemmas for sl2: the adjoint module has no cohomology, and
  trivial coefficients give 1, 0, 0, 1.
- With a zero second bracket and a zero second action the two-bracket
  differential maps slot i to slot i by d1, and the last slot in degree
  n+1 receives nothing, so dim H^n_pair = (n-1) dim H^n + dim Z^n, n >= 1.
- The Euler characteristic: rank-nullity makes the alternating sums of the
  cochain and the cohomology dimensions equal, and with an identity twist
  the plain sum is vdim (1 - 1)^d = 0.
- The bidifferential identities d1^2 = d2^2 = d1 d2 + d2 d1 = 0, as
  products of the coboundary matrices.

The degree-0 groups are also compared with their own formulas in
`helpers`: the kernel basis of beta - 1, and agreement of the two actions
checked one basis element at a time.
"""

from math import comb

import pytest

from homlie import (
    Cochain,
    CompatibleCochain,
    CompatibleHomLieAlgebra,
    HomLieAlgebra,
    Matrix,
    PreconditionError,
    Representation,
    adjoint_representation,
    cohomology_dimensions,
    compatible_coboundary,
    fixtures,
    hom_cochain_basis,
)
from homlie.cohomology import COMPATIBLE, PLAIN, _coboundary_map

from helpers import basis_vector, naive_beta_fixed_basis, naive_in_c0_compatible, vec_add


def heisenberg(n: int) -> HomLieAlgebra:
    """h_(2n+1): [x_i, y_i] = z, with x_i = e_i, y_i = e_(n+i), z = e_(2n)."""
    d = 2 * n + 1
    return HomLieAlgebra.from_brackets(
        d, Matrix.identity(d), {(i, n + i): basis_vector(d, d - 1) for i in range(n)})


def sl2() -> HomLieAlgebra:
    """Basis e, f, h with [e, f] = h, [h, e] = 2e and [h, f] = -2f."""
    return HomLieAlgebra.from_brackets(
        3, Matrix.identity(3), {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0], (1, 2): [0, 2, 0]})


def trivial_module(s) -> Representation:
    zero = (Matrix.zero(1, 1),) * s.dim
    return Representation(s, 1, Matrix.identity(1), (zero,) * len(s.brackets))


def betti(s, v):
    return [cohomology_dimensions(s, v, k).dim_cohomology for k in range(s.dim + 1)]


@pytest.mark.parametrize("n, expected", [(1, [1, 2, 2, 1]), (2, [1, 4, 5, 5, 4, 1])])
def test_heisenberg_betti_numbers_with_trivial_coefficients(n, expected):
    h = heisenberg(n)
    b = betti(h, trivial_module(h))
    assert b == expected
    assert b[: n + 1] == [comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
                          for k in range(n + 1)]
    assert b == b[::-1]


def test_whitehead_lemmas_for_sl2():
    s = sl2()
    assert betti(s, adjoint_representation(s)) == [0, 0, 0, 0]
    assert betti(s, trivial_module(s)) == [1, 0, 0, 1]


def zero_second_bracket(s: HomLieAlgebra) -> CompatibleHomLieAlgebra:
    return CompatibleHomLieAlgebra(s.dim, s.alpha, s.bracket, Matrix.zero(s.dim, comb(s.dim, 2)))


def with_zero_second_action(pair, v: Representation) -> Representation:
    zero = (Matrix.zero(v.vdim, v.vdim),) * pair.dim
    return Representation(pair, v.vdim, v.beta, (v.actions[0], zero))


@pytest.mark.parametrize("name", ["h3", "h5", "sl2"])
@pytest.mark.parametrize("module", ["adjoint", "trivial"])
def test_zero_second_bracket_collapse(name, module):
    s = {"h3": lambda: heisenberg(1), "h5": lambda: heisenberg(2), "sl2": sl2}[name]()
    v = adjoint_representation(s) if module == "adjoint" else trivial_module(s)
    pair = zero_second_bracket(s)
    pair_v = with_zero_second_action(pair, v)
    for n in range(1, s.dim + 2):
        single = cohomology_dimensions(s, v, n)
        double = cohomology_dimensions(pair, pair_v, n)
        assert double.dim_cohomology == (n - 1) * single.dim_cohomology + single.dim_cocycles


def fixture_modules():
    """Every fixture algebra and its parts, with the adjoint and the trivial
    module, plus the extension module of d2."""
    singles = [fixtures.ab1(), fixtures.g4a(0), fixtures.h3(), fixtures.twisted_h3(),
               heisenberg(2), sl2()]
    pairs = [fixtures.compatible_ab1(), fixtures.d2(), fixtures.compatible_h3(),
             fixtures.twisted_compatible_h3()]
    out = []
    for s in singles + pairs + [c.part(k) for c in pairs for k in (1, 2)]:
        out += [(s, adjoint_representation(s)), (s, trivial_module(s))]
    out.append((fixtures.d2(), fixtures.d2_extension_rep()))
    return out


def test_degree0_basis_is_the_kernel_of_beta_minus_one():
    for s, v in fixture_modules():
        basis = hom_cochain_basis(s.alpha, v.beta, 0)
        assert all(b.arity == 0 for b in basis)
        assert [b.flatten() for b in basis] == naive_beta_fixed_basis(v.beta)
        if not isinstance(s, CompatibleHomLieAlgebra):
            report = cohomology_dimensions(s, v, 0)
            assert report.dim_cochains == len(basis)


def in_c0(c, v, vector) -> bool:
    item = CompatibleCochain(0, (Cochain.from_flat(0, c.dim, v.vdim, vector),))
    try:
        compatible_coboundary(c, v, item)
    except PreconditionError:
        return False
    return True


def test_degree0_membership_agrees_with_the_per_element_test():
    seen = {True: 0, False: 0}
    for c, v in fixture_modules():
        if not isinstance(c, CompatibleHomLieAlgebra):
            continue
        candidates = [basis_vector(v.vdim, k) for k in range(v.vdim)]
        candidates += naive_beta_fixed_basis(v.beta)
        candidates.append(vec_add(candidates[0], candidates[-1]))
        report = cohomology_dimensions(c, v, 0)
        candidates += [item.flatten() for item in report.cocycle_basis]
        for vector in candidates:
            want = naive_in_c0_compatible(c, v, vector)
            assert in_c0(c, v, vector) == want
            seen[want] += 1
        for item in report.cocycle_basis:
            assert isinstance(item, Cochain) and item.arity == 0
            assert naive_in_c0_compatible(c, v, item.flatten())
    assert seen[True] and seen[False]


def test_bidifferential_identities_as_matrix_identities():
    """d1 d1 = d2 d2 = d1 d2 + d2 d1 = 0 on the equivariant cochains of every
    two-bracket fixture, as products of the coboundary matrices of degrees n
    and n+1 with the degree-n basis matrix."""
    cases = nonzero = 0
    for c, v in fixture_modules():
        if not isinstance(c, CompatibleHomLieAlgebra):
            continue
        for n in range(c.dim):
            basis = v._complex["basis", n]
            d1, d2 = (_coboundary_map(c, v, which, n) @ basis for which in (1, 2))
            e1, e2 = (_coboundary_map(c, v, which, n + 1) for which in (1, 2))
            assert (e1 @ d1).is_zero()
            assert (e2 @ d2).is_zero()
            assert (e1 @ d2 + e2 @ d1).is_zero()
            cases += 3
            nonzero += not d1.is_zero() and not d2.is_zero()
    assert cases == 60 and nonzero


def test_euler_characteristic():
    """Rank-nullity across neighbouring reports, dim C^n = dim Z^n +
    dim B^(n+1), so the alternating sums of the cochain and the cohomology
    dimensions agree.  With identity twists the cochain spaces of degree
    n >= 1 are counted without elimination, vdim C(d, n) in each of n slots
    (one slot in the plain flavor), and the plain sum is vdim (1 - 1)^d = 0."""
    textbook = 0
    for s, v in fixture_modules():
        flavor = COMPATIBLE if isinstance(s, CompatibleHomLieAlgebra) else PLAIN
        reports = [cohomology_dimensions(s, v, n) for n in range(s.dim + 2)]
        assert all(r.flavor == flavor for r in reports)
        for n in range(s.dim + 1):
            assert reports[n].dim_cochains == \
                reports[n].dim_cocycles + reports[n + 1].dim_coboundaries
        assert reports[-1].dim_cochains == 0
        chi = sum((-1) ** n * r.dim_cochains for n, r in enumerate(reports))
        assert chi == sum((-1) ** n * r.dim_cohomology for n, r in enumerate(reports))
        if s.alpha == Matrix.identity(s.dim) and v.beta == Matrix.identity(v.vdim):
            slots = [n if flavor == COMPATIBLE else 1 for n in range(1, s.dim + 2)]
            assert [r.dim_cochains for r in reports[1:]] == \
                [k * v.vdim * comb(s.dim, n) for n, k in enumerate(slots, 1)]
            if flavor == PLAIN:
                assert reports[0].dim_cochains == v.vdim and chi == 0
                textbook += 1
    assert textbook
